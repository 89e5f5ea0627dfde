"""Command-line interface: subcommands, formats, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from afq import __version__, cli, jc_dispersive_oracle
from afq.cli import PAPER_CONFIG, main
from afq.config import SCHEMA, default_config
from afq.cqad import JOINT_SHIFT_MHZ
from afq.units import MHZ, cycles, hbar

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_cli(args, program=("-m", "afq.cli")):
    # the child imports afq from this checkout, installed or not
    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *program, *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


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


def test_cqad_chi_and_j_are_the_oracle_formulas_below_the_qubit(tmp_path):
    # at L = 420 nm the qubit (79.8 MHz) lies above the shifted readout mode
    # (64.3 MHz): cqad still reports the signed readout - qubit detuning,
    # and evaluates chi and J at its magnitude, as the oracle does
    cfg = _config_with(tmp_path, "cantilever.length_nm = 420")
    outputs = {}
    for command in ("cqad", "oracle"):
        out = tmp_path / f"{command}.json"
        assert main([command, "--config", str(cfg), "--format", "json",
                     "--out", str(out), "--quiet"]) == 0
        outputs[command] = json.loads(out.read_text())["outputs"]
    assert outputs["cqad"]["dispersive_delta_mhz"] < 0
    assert outputs["cqad"]["chi_khz"] == outputs["oracle"]["chi_formula_khz"]
    assert (outputs["cqad"]["j_degenerate_khz"]
            == outputs["oracle"]["j_formula_khz"])


def _cqad_report(tmp_path, *config):
    out = tmp_path / "cqad.json"
    assert main(["cqad", *config, "--format", "json", "--out", str(out),
                 "--quiet"]) == 0
    return json.loads(out.read_text())


def test_cqad_warns_near_resonance(tmp_path, capsys):
    # a qubit at the shifted readout mode (64.3 MHz): |Delta| < 2g, where
    # the oracle refuses; cqad keeps its figures and warns once, naming both
    cfg = _config_with(tmp_path, "cqad.omega_q_mhz = 64.3")
    report = _cqad_report(tmp_path, "--config", str(cfg))
    delta = abs(report["outputs"]["dispersive_delta_mhz"]) * MHZ
    [warning] = report["warnings"]
    assert warning == (f"|Delta| = {delta:.3e} < 2g = {2 * MHZ:.3e}: "
                       "chi and J diverge near resonance")
    assert abs(report["outputs"]["chi_khz"]) > 1e15
    assert main(["oracle", "--config", str(cfg), "--quiet"]) == 1
    assert "< 2g" in capsys.readouterr().err


def test_cqad_bundled_design_has_no_warnings(tmp_path):
    assert _cqad_report(tmp_path)["warnings"] == []


def test_oracle_reports_disagreement(tmp_path):
    out = tmp_path / "oracle.json"
    assert main(["oracle", "--out", str(out), "--quiet"]) == 0
    outputs = json.loads(out.read_text())["outputs"]
    # honest numbers: the exact ladder does not match perturbation theory
    # at the metastable headline bias point
    assert outputs["omega_10_perturbative_mhz"] == pytest.approx(60.0, abs=1.0)
    assert abs(outputs["omega_10_grid_mhz"] / 60.0 - 1.0) > 1.0


def test_oracle_chi_uses_the_spectrum_splittings(tmp_path):
    # the JC oracle gets (0, hbar omega_10, hbar (2 omega_10 + eta)) from
    # the same ladder `afq spectrum` reports, with no absolute offset
    outputs = {}
    for command in ("spectrum", "oracle"):
        out = tmp_path / f"{command}.json"
        assert main([command, "--out", str(out), "--quiet"]) == 0
        outputs[command] = json.loads(out.read_text())["outputs"]
    omega_10 = outputs["spectrum"]["omega_10_rad_s"]
    eta = outputs["spectrum"]["eta_rad_s"]
    si = default_config().si
    delta = abs(si["cqad.omega_m_mhz"] + JOINT_SHIFT_MHZ * MHZ - omega_10)
    with pytest.warns(UserWarning, match="outside the dispersive regime"):
        chi = jc_dispersive_oracle(
            (0.0, hbar * omega_10, hbar * (2 * omega_10 + eta)),
            omega_10 - delta, si["cqad.g_mhz"])
    assert outputs["oracle"]["chi_oracle_khz"] == pytest.approx(
        cycles(chi) / 1e3, rel=1e-13, abs=0)


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


def test_count_past_float_range_exit_code(tmp_path, capsys):
    bad = tmp_path / "huge.cfg"
    bad.write_text(PAPER_CONFIG + "spectrum.n_max = 1" + "0" * 400 + "\n")
    line_no = len(bad.read_text().splitlines())
    assert main(["spectrum", "--config", str(bad), "--quiet"]) == 2
    assert capsys.readouterr().err == (
        f"afq: config error: {bad}: line {line_no}: spectrum.n_max: count "
        f"out of range: 1{'0' * 400}\n")


def test_parser_built_once():
    assert cli._parser() is cli._parser()


def test_in_process_calls_keep_their_own_options(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["spectrum", "--format", "csv", "--out", str(a),
                 "--quiet"]) == 0
    assert main(["spectrum", "--out", str(b)]) == 0
    assert capsys.readouterr().out == f"{b}\n"      # not quiet
    assert a.read_text().startswith("gap_angstrom,gap_m,")
    assert json.loads(b.read_text())["command"] == "spectrum"    # JSON


VALIDATE_DOC = ("run the full self-validation suite on the bundled design "
                "(ignores --config and --format; --out writes JSON)")


def test_version_and_help_unchanged(capsys):
    for _ in range(2):      # the second pass reuses the parser
        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out == f"{__version__}\n"
        for argv in (["--help"], ["validate", "--help"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 0
            assert VALIDATE_DOC in " ".join(capsys.readouterr().out.split())


def _config_with(tmp_path, line):
    """The bundled config with ``line`` in place of its key's line."""
    key = line.split(" = ")[0]
    cfg = tmp_path / "probe.cfg"
    cfg.write_text("".join(f"{row}\n" for row in PAPER_CONFIG.splitlines()
                           if not row.startswith(key)) + line + "\n")
    return cfg


@pytest.mark.parametrize("line, message", [
    ("cantilever.length_nm = nan", "cantilever.length_nm: not a finite number"),
    ("cantilever.width_nm = inf", "cantilever.width_nm: not a finite number"),
    ("potential.kind = lennard-jones", "unknown key 'potential.kind'"),
    ("bias.auto = true", "unknown key 'bias.auto'")])
def test_config_value_error_exit_code(tmp_path, capsys, line, message):
    bad = _config_with(tmp_path, line)
    assert main(["spectrum", "--config", str(bad), "--quiet"]) == 2
    assert message in capsys.readouterr().err


# parseable values whose arithmetic overflows or underflows: k = 0 for a
# 1e300 nm beam or a 1e-300 nm width, inf for a 1e300 nm width (a
# Python-float width**3) or a 1e-300 nm length; a 1e-300 zero-point grid
# has an infinite hopping t; g^2 and kappa^2 overflow in the readout chain
@pytest.mark.parametrize("line, commands, message", [
    ("cantilever.length_nm = 1e300", ("bias", "spectrum", "cqad", "oracle"),
     "modal k = 0,"),
    ("cantilever.width_nm = 1e-300",
     ("bias", "spectrum", "sweep", "cqad", "oracle"),
     "modal k = 0,"),
    ("cantilever.width_nm = 1e300",
     ("bias", "spectrum", "sweep", "cqad", "oracle"),
     "modal k = inf,"),
    ("cantilever.length_nm = 1e-300", ("bias", "spectrum", "cqad", "oracle"),
     "modal k = inf,"),
    ("oracle.grid_half_width_zpf = 1e-300", ("oracle",), "hopping t = inf J"),
    ("cqad.g_mhz = 1e300", ("cqad",), "dispersive shift overflows at g ="),
    ("cqad.kappa_e_mhz = 1e300", ("cqad",), "kappa = 6.283e+306 rad/s")])
def test_out_of_range_value_exit_code(tmp_path, capsys, line, commands,
                                      message):
    bad = _config_with(tmp_path, line)
    for command in commands:
        assert main([command, "--config", str(bad), "--quiet"]) == 1, command
        err = capsys.readouterr().err
        assert err.startswith("afq: ") and message in err, (command, err)


def _refuse_constant(name):
    raise AssertionError(f"non-finite JSON constant {name}")


# every float key at each extreme value through every command that reads
# the config: a refusal (exit 1 or 2) is an answer, a traceback or a
# NaN/Infinity behind exit 0 is not
@pytest.mark.parametrize(
    "key", [k for k, field in SCHEMA.items() if field.kind == "float"])
def test_extreme_float_values_never_escape(tmp_path, capsys, key):
    out = tmp_path / "out.json"
    for value in ("0", "-1", "1e300", "-1e300", "1e-300"):
        cfg = _config_with(tmp_path, f"{key} = {value}")
        for command in ("bias", "spectrum", "cqad", "oracle", "sweep"):
            out.unlink(missing_ok=True)
            code = main([command, "--config", str(cfg), "--format", "json",
                         "--out", str(out), "--quiet"])
            assert code in (0, 1, 2), (value, command, code)
            if code == 0:
                json.loads(out.read_text(), parse_constant=_refuse_constant)
    capsys.readouterr()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_finite_result_refused(tmp_path, capsys, fmt):
    cfg = _config_with(tmp_path, "potential.epsilon_mev = 1e300")
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--format", fmt,
                 "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("afq: non-finite result: ") and "eta_r" in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["cqad.omega_r_ghz", "cqad.omega_d_ghz"])
@pytest.mark.parametrize("value", ["1e300", "-1e300"])
def test_si_overflow_is_config_error(tmp_path, capsys, key, value):
    cfg = _config_with(tmp_path, f"{key} = {value}")
    assert main(["cqad", "--config", str(cfg), "--quiet"]) == 2
    line_no = len(cfg.read_text().splitlines())     # the key's line is last
    assert (f"probe.cfg: line {line_no}: {key}: {value} is not finite in SI "
            "units") in capsys.readouterr().err


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


def _oracle_outputs(tmp_path, n_levels):
    cfg = tmp_path / f"levels{n_levels}.cfg"
    cfg.write_text(PAPER_CONFIG + f"oracle.n_levels = {n_levels}\n")
    out = tmp_path / f"oracle{n_levels}.json"
    assert main(["oracle", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    return json.loads(out.read_text())["outputs"]


def test_oracle_n_levels_sets_only_the_reported_eigenvalues(tmp_path):
    three = _oracle_outputs(tmp_path, 3)
    for n_levels in (1, 2):
        outputs = _oracle_outputs(tmp_path, n_levels)
        assert len(outputs["grid_eigenvalues_j"]) == n_levels
        assert (outputs["grid_eigenvalues_j"]
                == three["grid_eigenvalues_j"][:n_levels])
        for key in ("omega_10_grid_mhz", "eta_grid_mhz"):
            assert outputs[key] == three[key]


@pytest.mark.parametrize("n_levels", [0, 11])
def test_oracle_n_levels_out_of_range(tmp_path, capsys, n_levels):
    cfg = tmp_path / "levels.cfg"
    cfg.write_text(PAPER_CONFIG + f"oracle.n_levels = {n_levels}\n")
    assert main(["oracle", "--config", str(cfg), "--quiet"]) == 1
    assert capsys.readouterr().err == (
        f"afq: n_levels must be in 1..10, got {n_levels}\n")


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


# a count that fits int64 but can never be allocated, under a 2 GiB
# address-space limit so that no attempt succeeds lazily
@pytest.mark.parametrize("key, command", [
    ("spectrum.n_max", "spectrum"), ("sweep.x_points", "sweep"),
    ("cqad.probe_points", "cqad"), ("oracle.grid_points", "oracle")])
def test_unallocatable_count_exits_1(tmp_path, key, command):
    cfg = _config_with(tmp_path, f"{key} = {10**18 + 1}")
    out = tmp_path / "out"
    limit = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
             "from afq.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    proc = run_cli([command, "--config", str(cfg), "--out", str(out)],
                   program=("-c", limit))
    assert proc.returncode == 1
    assert proc.stdout == "" and not out.exists()
    assert proc.stderr.startswith(f"afq: {command}: out of memory: ")
    assert proc.stderr.count("\n") == 1
