"""Tests of the benchmark's own checks, tracing and failure accounting.

Run from the repository root: python -m pytest bench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import report  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from afq import cli, explorer, validate  # noqa: E402
from afq.errors import DomainError  # noqa: E402

# design_scan seed whose first block holds a sub-box across the band
SEED_WITH_BAND_BOX = 3


def test_csv_gate_rejects_one_changed_byte(tmp_path):
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--out", str(out), "--quiet"]) == 0
    data = bytearray(out.read_bytes())
    assert checks.digest_problem(bytes(data)) is None
    data[-3] ^= 1                                  # a digit of the last cell
    assert checks.digest_problem(bytes(data)) is not None


def test_parse_back_rejects_last_digit_change(tmp_path):
    text = workloads.config_text(**{"sweep.length_points": 20,
                                    "sweep.x_points": 30})
    cfg_path, out = tmp_path / "small.cfg", tmp_path / "small.csv"
    cfg_path.write_text(text)
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out),
                     "--quiet"]) == 0
    csv_text = out.read_text()
    cfg = cli.load_config(cfg_path)
    assert checks.sweep_csv_problem(csv_text, cfg) is None
    header, first, rest = csv_text.split("\n", 2)
    cell, tail = first.split(",", 1)               # e.g. 2.000000000000e-07
    mantissa, exponent = cell.split("e")
    bumped = mantissa[:-1] + str((int(mantissa[-1]) + 1) % 10)
    changed = f"{header}\n{bumped}e{exponent},{tail}\n{rest}"
    assert "13 significant digits" in checks.sweep_csv_problem(changed, cfg)


def _verdict_stdout(failing):
    names = [f.__name__ for f in validate.ALL_CHECKS]
    names[:len(checks.EXPECTED_VALIDATE_FAILURES)] = sorted(
        checks.EXPECTED_VALIDATE_FAILURES)
    return "".join(f"{'FAIL' if n in failing else 'PASS'} {n}: detail\n"
                   for n in names)


def test_wrong_validate_verdict_is_caught(tmp_path):
    expected = checks.EXPECTED_VALIDATE_FAILURES
    assert checks.validate_problem(1, _verdict_stdout(expected)) is None
    assert checks.validate_problem(0, _verdict_stdout(expected)) is not None
    one_passes = set(sorted(expected)[:1])
    assert checks.validate_problem(1, _verdict_stdout(one_passes)) is not None

    wl = workloads.ColdCli(1, tmp_path, ROOT)
    op = wl.block(0)[0]
    op.kind = "validate"
    wl.prepare(op, 0)
    proc = subprocess.CompletedProcess([], 0, _verdict_stdout(set()), "")
    outcome = wl.check(op, {"proc": proc, "spans": None})
    assert outcome.status == "failed" and outcome.problem


def _crosses_band(spec, monkeypatch):
    """A statically stable grid point with first-order omega_10 <= 0."""
    with monkeypatch.context() as m:
        m.setattr(explorer, "thermal_occupancy", lambda w, t: 0.0 * w)
        result = explorer.sweep(spec)
    return bool(np.any((result.flag == explorer.FLAG_OK)
                       & ~(result.omega_10 > 0)))


def _crashes(spec):
    try:
        explorer.sweep(spec)
    except DomainError:
        return True
    return False


class _TwoBoxes(workloads.DesignScan):
    """One box across the omega_10 <= 0 band, one clear of it."""

    def block(self, k):
        return [workloads.Op("design", {"lengths_nm": (200.0, 344.0, 300),
                                        "x_over_sigma": (1.59, 2.0, 300),
                                        "max_occupancy": 2.0}),
                workloads.Op("design", {"lengths_nm": (500.0, 800.0, 100),
                                        "x_over_sigma": (1.15, 1.5, 100),
                                        "max_occupancy": 2.0})]


def test_band_crossing_box_is_counted_not_dropped(tmp_path, monkeypatch):
    wl = _TwoBoxes(1, tmp_path, ROOT)
    records, busy, _ = run.run_blocks(wl, tracing.Tracer(), 0, count=1)
    band, clear = wl.block(0)
    wl.prepare(band, 0)
    assert _crosses_band(band.spec, monkeypatch)
    # the parent program raises on such a box; ROADMAP item 3 would flag it
    want = "failed" if _crashes(band.spec) else "ok"
    assert [r["status"] for r in records] == [want, "ok"]
    assert not any(r["problem"] for r in records)
    metrics, extras = report.end_to_end(records, busy, [0.5], 100.0)
    assert extras["attempted"] == 2
    assert extras["failed"] == (want == "failed")
    assert metrics["ops_per_s"] == 2 / busy


def test_every_seeded_box_that_crashes_counts_as_failed(tmp_path, monkeypatch):
    wl = workloads.DesignScan(SEED_WITH_BAND_BOX, tmp_path, ROOT)
    records, busy, _ = run.run_blocks(wl, tracing.Tracer(), 0, count=1)
    ops = wl.block(0)
    crashed = 0
    for i, op in enumerate(ops):
        wl.prepare(op, i)
        if _crashes(op.spec):
            crashed += 1
            assert _crosses_band(op.spec, monkeypatch)
    _, extras = report.end_to_end(records, busy, [0.5], 100.0)
    assert extras["attempted"] == len(ops)
    assert extras["failed"] == crashed
    assert extras["fail_ratio"] == crashed / len(ops)


def test_tracer_spans_nest_and_restore(tmp_path):
    original = cli.main
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.recording = True
        with tracer.span("op", op=0):
            assert cli.main(["spectrum", "--out", str(tmp_path / "s.json"),
                             "--quiet"]) == 0
        tracer.recording = False
    finally:
        tracer.uninstall()
    assert cli.main is original
    names = [s["name"] for s in tracer.spans]
    assert names[:2] == ["op", "cli.main"]
    assert "potential.find_bias_point" in names
    assert all(s["op"] == 0 for s in tracer.spans)
    root = tracer.spans[0]
    selfs = tracing.self_times(tracer.spans)
    assert sum(selfs.values()) == root["t1"] - root["t0"]


def test_tail_keeps_ten_samples_beyond():
    value, pct, n = report.tail(list(range(100)))
    assert (value, pct, n) == (89, 90.0, 100)


def test_benchmark_json_names_every_reported_metric():
    assert report.VALIDATE_CHECKS == tuple(f.__name__
                                           for f in validate.ALL_CHECKS)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        report.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        report.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.ORDER)


@pytest.mark.parametrize("name", run.ORDER)
def test_blocks_are_seeded(tmp_path, name):
    kind = workloads.WORKLOADS[name]
    a = kind(7, tmp_path / "a", ROOT).block(3)
    b = kind(7, tmp_path / "b", ROOT).block(3)
    c = kind(8, tmp_path / "c", ROOT).block(3)
    assert [op.params for op in a] == [op.params for op in b]
    assert [op.params for op in a] != [op.params for op in c]
