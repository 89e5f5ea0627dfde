"""Command-line interface: subcommands, formats, determinism, exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from afq.cli import PAPER_CONFIG, main

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "afq.cli", *args],
                          capture_output=True, text=True)


def test_no_arguments_usage_error():
    proc = run_cli([])
    assert proc.returncode == 2
    assert "usage" in (proc.stderr + proc.stdout).lower()


def test_unknown_subcommand_usage_error():
    assert run_cli(["frobnicate"]).returncode == 2


def test_bias_reports_bias_point(tmp_path):
    out = tmp_path / "bias.json"
    assert main(["bias", "--config", str(REPO_ROOT / "paper.cfg"),
                 "--out", str(out), "--quiet"]) == 0
    report = json.loads(out.read_text())
    assert report["outputs"]["gap_angstrom"] == pytest.approx(4.7613,
                                                              abs=1e-3)
    assert report["outputs"]["x_zpf_pm"] == pytest.approx(2.14, abs=0.02)
    assert report["status"] == "ok"
    assert report["config"]["cantilever.length_nm"] == 495.0


def test_spectrum_headline_values(tmp_path):
    out = tmp_path / "spec.json"
    assert main(["spectrum", "--out", str(out), "--quiet"]) == 0
    outputs = json.loads(out.read_text())["outputs"]
    assert outputs["omega_10_mhz"] == pytest.approx(60.0, abs=1.0)
    assert outputs["eta_r"] == pytest.approx(0.089, abs=0.003)
    assert outputs["n_thermal"] == pytest.approx(2.3, abs=0.05)


def test_sweep_csv_shape_and_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--out", str(a), "--quiet"]) == 0
    assert main(["sweep", "--out", str(b), "--quiet"]) == 0
    lines = a.read_text().splitlines()
    assert len(lines) == 10001  # header + 100 x 100 rows
    assert lines[0].startswith("length_m,gap_m,gap_over_sigma")
    assert a.read_bytes() == b.read_bytes()


def test_sweep_json_format(tmp_path):
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--format", "json", "--out", str(out),
                 "--quiet"]) == 0
    report = json.loads(out.read_text())
    assert report["outputs"]["rows"] == 10000
    assert report["outputs"]["flagged_rows"] > 0


def test_cqad_csv_columns(tmp_path):
    out = tmp_path / "resp.csv"
    assert main(["cqad", "--out", str(out), "--quiet"]) == 0
    header = out.read_text().splitlines()[0]
    assert header == ("omega_over_2pi_hz,re_reflection,im_reflection,"
                      "abs_reflection,qubit_susc,mech_susc,mw_susc")


def test_cqad_json_outputs(tmp_path):
    out = tmp_path / "cqad.json"
    assert main(["cqad", "--format", "json", "--out", str(out),
                 "--quiet"]) == 0
    outputs = json.loads(out.read_text())["outputs"]
    assert outputs["g_em_hz"] == pytest.approx(83.33, abs=0.01)
    assert outputs["chi_khz"] == pytest.approx(-129.2, abs=0.5)
    assert outputs["j_degenerate_khz"] == pytest.approx(232.6, abs=0.5)
    assert outputs["max_abs_reflection"] <= 1 + 1e-9


def test_oracle_reports_disagreement(tmp_path):
    out = tmp_path / "oracle.json"
    assert main(["oracle", "--out", str(out), "--quiet"]) == 0
    outputs = json.loads(out.read_text())["outputs"]
    # honest numbers: the exact ladder does not match perturbation theory
    # at the metastable headline bias point
    assert outputs["omega_10_perturbative_mhz"] == pytest.approx(60.0, abs=1.0)
    assert abs(outputs["omega_10_grid_mhz"] / 60.0 - 1.0) > 1.0


@pytest.mark.parametrize("points, warned", [(4001, True), (8001, False)])
def test_oracle_warns_when_grid_not_converged(tmp_path, points, warned):
    # the bundled design's grid doubling estimate is 1.26e-4 at 4001 points,
    # past the 1e-4 that grid_eigensolve enforces; 8001 points converge
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(PAPER_CONFIG + f"oracle.grid_points = {points}\n")
    out = tmp_path / "oracle.json"
    assert main(["oracle", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    report = json.loads(out.read_text())
    estimate = report["outputs"]["grid_convergence_estimate"]
    notes = [w for w in report["warnings"] if "have not converged" in w]
    assert (estimate > 1e-4) == warned
    assert notes == ([f"grid doubling moved E2 - E0 by {estimate:.3e} "
                      "relative (> 0.0001): the grid levels have not "
                      "converged; raise oracle.grid_points"] if warned else [])


def test_validate_exit_code_and_known_failures():
    proc = run_cli(["validate"])
    assert proc.returncode == 1
    assert "FAIL grid_oracle_agreement" in proc.stdout
    assert "FAIL sweep_argmax_at_bias_point" in proc.stdout
    assert proc.stdout.count("PASS") == 10


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("cantilever.length = 495\n")
    proc = run_cli(["spectrum", "--config", str(bad)])
    assert proc.returncode == 2
    assert "cantilever.length_nm" in proc.stderr


def test_negative_count_exit_code(tmp_path, capsys):
    bad = tmp_path / "negative.cfg"
    bad.write_text(PAPER_CONFIG + "sweep.x_points = -1\n")
    assert main(["sweep", "--config", str(bad), "--quiet"]) == 2
    assert "sweep.x_points" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("cantilever.length_nm = nan", "cantilever.length_nm: not a finite number"),
    ("cantilever.width_nm = inf", "cantilever.width_nm: not a finite number"),
    ("potential.kind = lennard-jones", "unknown key 'potential.kind'"),
    ("bias.auto = true", "unknown key 'bias.auto'")])
def test_config_value_error_exit_code(tmp_path, capsys, line, message):
    key = line.split(" = ")[0]
    bad = tmp_path / "bad.cfg"
    bad.write_text("".join(f"{row}\n" for row in PAPER_CONFIG.splitlines()
                           if not row.startswith(key)) + line + "\n")
    assert main(["spectrum", "--config", str(bad), "--quiet"]) == 2
    assert message in capsys.readouterr().err


def test_validate_ignores_config(tmp_path):
    missing = tmp_path / "missing.cfg"
    assert main(["validate", "--config", str(missing), "--quiet"]) == 1


def test_physics_error_exit_code(tmp_path):
    cfg = tmp_path / "contact.cfg"
    cfg.write_text(PAPER_CONFIG + "bias.x_over_sigma = 1.05\n")
    proc = run_cli(["spectrum", "--config", str(cfg)])
    assert proc.returncode == 1
    assert "contact" in proc.stderr.lower()


# stable but next to snap-in: the first-order omega_10 is <= 0
BREAKDOWN_CONFIG = (PAPER_CONFIG.replace("cantilever.length_nm = 495",
                                         "cantilever.length_nm = 221.1055276382")
                    + "bias.x_over_sigma = 1.666834170854\n")


def test_breakdown_design_bias_still_reports(tmp_path):
    cfg = tmp_path / "breakdown.cfg"
    cfg.write_text(BREAKDOWN_CONFIG)
    out = tmp_path / "bias.json"
    assert main(["bias", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    assert json.loads(out.read_text())["outputs"]["k_eff_n_m"] > 0


@pytest.mark.parametrize("command", ["spectrum", "cqad", "oracle"])
def test_breakdown_design_refused(tmp_path, capsys, command):
    cfg = tmp_path / "breakdown.cfg"
    cfg.write_text(BREAKDOWN_CONFIG)
    assert main([command, "--config", str(cfg), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("afq: first-order breakdown at gap 6.3773e-10 m")
    assert "omega must be > 0" not in err
    assert "damping rates" not in err


def test_validate_report_json(tmp_path):
    out = tmp_path / "validate.json"
    assert main(["validate", "--out", str(out), "--quiet"]) == 1
    report = json.loads(out.read_text())
    assert len(report["checks"]) == 12
    assert all(type(c["passed"]) is bool for c in report["checks"])
    assert report["failed"] == 2


def test_report_json_round_trip(tmp_path):
    out = tmp_path / "spec.json"
    assert main(["spectrum", "--out", str(out), "--quiet"]) == 0
    report = json.loads(out.read_text())
    # display-unit figures re-parse to the stated tolerance bands
    outputs = report["outputs"]
    assert outputs["temperature_mk"] == 8.0
    assert isinstance(outputs["energies_j"], list)
    assert len(outputs["energies_j"]) == 6


@pytest.mark.parametrize("n_levels", [1, 2])
def test_oracle_needs_three_levels(tmp_path, capsys, n_levels):
    cfg = tmp_path / "levels.cfg"
    cfg.write_text(PAPER_CONFIG + f"oracle.n_levels = {n_levels}\n")
    assert main(["oracle", "--config", str(cfg), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("afq: oracle.n_levels")
    assert "3 levels" in err


@pytest.mark.parametrize("setting", ["sweep.length_min_nm = 0",
                                     "sweep.length_min_nm = -100",
                                     "cantilever.width_nm = 0"])
def test_sweep_rejects_non_positive_dimensions(tmp_path, capsys, setting):
    key = setting.split(" = ")[0]
    text = "".join(line + "\n" for line in PAPER_CONFIG.splitlines()
                   if not line.startswith(key))
    cfg = tmp_path / "dims.cfg"
    cfg.write_text(text + setting + "\n")
    assert main(["sweep", "--config", str(cfg), "--quiet"]) == 1
    assert "geometry dimensions must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "validate"])
def test_unwritable_out_is_usage_error(tmp_path, capsys, command):
    out = tmp_path / "missing" / "out.csv"
    assert main([command, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"afq: cannot write {out}: ")
    assert "Traceback" not in err
