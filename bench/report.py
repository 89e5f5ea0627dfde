"""Metrics from the run records and spans, and the environment record."""

from __future__ import annotations

import os
import platform
import statistics
from collections import defaultdict
from pathlib import Path

import tracing

# one span per op of a traced run; its self time is what no afq function
# covers (interpreter start-up and imports for cli_cold, glue otherwise)
OP_SPAN = "op"
# SweepResult holds 11 float64/int64 arrays of one element per grid point
SWEEP_BYTES_PER_POINT = 11 * 8

IMPORTS = {"afq": "import.afq_s", "numpy": "import.numpy_s",
           "scipy.constants": "import.scipy_constants_s",
           "scipy.linalg": "import.scipy_linalg_s"}

VALIDATE_CHECKS = (
    "check_bias_point", "check_potential_derivatives", "check_modal_identity",
    "check_headline_design", "check_thermal_occupancy",
    "check_alternative_designs", "check_grid_oracle_agreement",
    "check_matrix_elements", "check_effective_readout",
    "check_dispersive_physics", "check_design_sweep",
    "check_snap_in_diagnostic")

# functions whose self time per op is reported
SELF_TIMED = (
    "config.load_config",
    "potential.find_bias_point", "potential.taylor_coefficients",
    "cantilever.modal_params", "cantilever.bias_state",
    "cantilever.snap_in_threshold", "spectrum.perturbative_energies",
    "spectrum.thermal_occupancy",
    "explorer.sweep", "explorer.feasible_designs", "explorer.optimize_length",
    "explorer.design_point",
    "cli.emit_csv",
    "cqad.adiabatic_elimination", "cqad.frequency_response",
    "oracle.grid_eigensolve", "oracle.jc_dispersive_oracle",
    "oracle.two_qubit_bus_oracle",
    *(f"validate.{name}" for name in VALIDATE_CHECKS))

# (name, unit) of every per-layer metric, in BENCHMARK.json order
PER_LAYER = (
    *((name, "s") for name in IMPORTS.values()),
    *((f"{name}_s", "s") for name in SELF_TIMED),
    ("explorer.sweep_ns_per_point", "ns"), ("explorer.points", "count"),
    ("explorer.ok_fraction", "ratio"), ("explorer.sweep_failed", "count"),
    ("explorer.bytes_computed", "B"),
    ("cli.emit_csv_ns_per_row", "ns"), ("cli.csv_rows", "count"),
    ("cli.csv_bytes", "B"), ("cli.emit_json_s", "s"),
    ("cli.exit_nonzero", "count"),
    ("cqad.probe_points", "count"), ("oracle.refused", "count"),
    ("op.unattributed_s", "s"), ("trace.ops", "count"),
    ("trace.overhead_ratio", "ratio"))

END_TO_END = (("setup_s", "s"), ("op_p50_s", "s"), ("op_tail_s", "s"),
              ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"))


def tail(latencies):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples): the 11th-largest latency sits at
    percentile 100 (n - 10) / n. With ten samples or fewer no percentile
    qualifies and the maximum is returned at percentile 100.
    """
    lat = sorted(latencies)
    n = len(lat)
    if n <= 10:
        return lat[-1], 100.0, n
    return lat[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(records, busy_s, setup_s, peak_rss_mb):
    """The end-to-end figures of one untraced phase (plus extras)."""
    n = len(records)
    failed = sum(r["status"] == "failed" for r in records)
    lat = [r["t"] for r in records]
    tail_value, tail_pct, _ = tail(lat)
    kinds = defaultdict(int)
    for r in records:
        if r["kind"]:
            kinds[f'{r["status"]}:{r["kind"]}'] += 1
    metrics = {"setup_s": statistics.median(setup_s),
               "op_p50_s": statistics.median(lat),
               "op_tail_s": tail_value,
               "ops_per_s": n / busy_s,
               "peak_rss_mb": peak_rss_mb}
    extras = {"op_tail_percentile": tail_pct, "op_samples": n,
              "points_per_s": sum(r["points"] for r in records) / busy_s,
              "csv_rows_per_s": sum(r["rows"] for r in records) / busy_s,
              "fail_ratio": failed / n, "attempted": n, "failed": failed,
              "outcome_kinds": dict(kinds), "busy_s": busy_s,
              "setup_samples_s": list(setup_s)}
    return metrics, extras


def per_function(spans, selfs, ops):
    """calls, inclusive and self seconds per op for every traced name."""
    table = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
    for s in spans:
        row = table[s["name"]]
        row["calls"] += 1
        row["incl_s"] += (s["t1"] - s["t0"]) / 1e9 / ops
        row["self_s"] += selfs[s["id"]] / 1e9 / ops
    return dict(sorted(table.items()))


def per_layer(spans, records, imports, overhead_ratio):
    ops = len(records)
    selfs = tracing.self_times(spans)
    table = per_function(spans, selfs, ops)
    metrics = dict(imports)
    for name in SELF_TIMED:
        metrics[f"{name}_s"] = table.get(name, {"self_s": 0.0})["self_s"]

    def total(name, key, pred=lambda a: True):
        return sum(s["attrs"].get(key, 0) for s in spans
                   if s["name"] == name and pred(s["attrs"]))

    def incl_ns(name):
        return sum(s["t1"] - s["t0"] for s in spans if s["name"] == name)

    points = total("explorer.sweep", "points")
    done = total("explorer.sweep", "points", lambda a: "error" not in a)
    rows = total("cli.emit_csv", "rows")
    metrics.update({
        "explorer.sweep_ns_per_point": incl_ns("explorer.sweep") / points
        if points else 0.0,
        "explorer.points": points,
        "explorer.ok_fraction": total("explorer.sweep", "ok_points") / done
        if done else 0.0,
        "explorer.sweep_failed": sum(1 for s in spans if s["name"] ==
                                     "explorer.sweep" and "error" in s["attrs"]),
        "explorer.bytes_computed": points * SWEEP_BYTES_PER_POINT,
        "cli.emit_csv_ns_per_row": incl_ns("cli.emit_csv") / rows
        if rows else 0.0,
        "cli.csv_rows": rows,
        "cli.csv_bytes": total("cli.emit_csv", "bytes"),
        "cli.emit_json_s": sum(selfs[s["id"]] for s in spans
                               if s["name"] == "cli.emit"
                               and s["attrs"].get("json")) / 1e9 / ops,
        "cli.exit_nonzero": sum(1 for s in spans if s["name"] == "cli.main"
                                and (s["attrs"].get("rc") or
                                     "error" in s["attrs"])),
        "cqad.probe_points": total("cqad.frequency_response", "probe_points"),
        "oracle.refused": sum(r["status"] == "refused" for r in records),
        "op.unattributed_s": table.get(OP_SPAN, {"self_s": 0.0})["self_s"],
        "trace.ops": ops,
        "trace.overhead_ratio": overhead_ratio,
    })
    return metrics, table


def parse_importtime(stderr: str) -> dict:
    """Cumulative seconds of the modules in IMPORTS from `-X importtime`."""
    out = {metric: 0.0 for metric in IMPORTS.values()}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        name = fields[2].strip()
        if name in IMPORTS and fields[1].strip().isdigit():
            out[IMPORTS[name]] = int(fields[1]) / 1e6
    return out


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def environment() -> dict:
    import numpy
    import scipy
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read(Path("/proc/cpuinfo")).splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu, "l2": caches.get("L2", ""),
            "l3": caches.get("L3", ""),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name", ""),
            "blas_version": blas.get("version", ""),
            "blas_config": blas.get("openblas configuration", ""),
            **{var: os.environ.get(var) for var in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "AFQ_THREADS")}}
