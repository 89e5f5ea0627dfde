"""afq benchmark: cold CLI, design scans, CSV export and oracle audits.

Run from the repository root:

    python3 bench/run.py --workload design_scan --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 1

One client, closed loop: the next operation starts when the previous one
has finished; cli_cold runs one child process at a time. A run executes a
fixed number of seeded blocks, sized to take about ``--seconds`` on a
2-CPU Xeon VM, so a seed always gives the same operations and the same
``attempted`` and ``failed`` counts. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. A fuller record,
with the environment, is written under ``.bench_out/results/``.

``--trace 1`` first repeats the untraced run, then runs the same blocks
again with every public afq function wrapped, so the overhead ratio
compares like with like. End-to-end metrics come only from untraced runs.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import report
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".bench_out"
SETUP_FIRST, SETUP_SPREAD = 3, 6   # set-up samples before / during the loop
LIMIT_FACTOR = 3                   # a run stops after this many --seconds
IMPORT_REPEATS = 3
# ascending peak memory, so `--workload all` reports each high-water mark
ORDER = ("cli_cold", "oracle_audit", "csv_export", "design_scan")

sys.path.insert(0, str(ROOT / "src"))
try:
    import workloads
except ImportError as exc:  # no program here: main() reports it
    workloads, MISSING = None, exc


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*ORDER, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def time_setup(name, seed, workdir, repeats):
    """Seconds from a fresh interpreter's start until the inputs are ready."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(BENCH / "setup_probe.py"), name,
                 str(seed), str(workdir / "setup")],
                cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return samples


def run_blocks(wl, tracer, first, count, after_block=None, limit_s=None):
    """Run ``count`` whole blocks from ``first``.

    ``after_block(done)`` runs between blocks, outside the busy time, with
    the share of blocks done. A run that passes ``limit_s`` of wall time
    stops after its current block, so a very slow machine still ends in
    time. Returns (records, busy seconds, blocks run). Busy time is the
    phase's wall time minus the harness's own input writing, output checks
    and ``after_block`` calls.
    """
    records, harness = [], 0.0
    start = time.perf_counter()
    k = first
    while True:
        h0 = time.perf_counter()
        ops = wl.block(k)
        for i, op in enumerate(ops):
            wl.prepare(op, i)
        harness += time.perf_counter() - h0
        for op in ops:
            with tracer.span("op", op=len(records)) as span:
                t0 = time.perf_counter()
                raw = wl.execute(op)
                t = time.perf_counter() - t0
            h0 = time.perf_counter()
            if span is not None and isinstance(raw, dict) and raw["spans"]:
                tracing.graft(tracer.spans, json.loads(raw["spans"].read_text()),
                              span["id"])
            with tracer.paused():
                outcome = wl.check(op, raw)
            raw = None           # free the output before the next op runs
            harness += time.perf_counter() - h0
            records.append({"op": len(records), "block": k, "kind_of_op": op.kind,
                            "t": t, "status": outcome.status,
                            "kind": outcome.kind, "problem": outcome.problem,
                            "points": outcome.points, "rows": outcome.rows})
        k += 1
        if after_block is not None:
            h0 = time.perf_counter()
            after_block((k - first) / count)
            harness += time.perf_counter() - h0
        if k - first >= count or (limit_s is not None and
                                   time.perf_counter() - start >= limit_s):
            break
    return records, time.perf_counter() - start - harness, k - first


def import_times():
    runs = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import afq"], cwd=ROOT,
                              env=workloads.child_env(ROOT),
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import afq failed: {proc.stderr[-200:]}")
        runs.append(report.parse_importtime(proc.stderr))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def run_workload(name, seed, seconds, trace):
    workdir = OUT / "work" / name
    shutil.rmtree(workdir, ignore_errors=True)
    # set-up samples: some before the loop, the rest spread over it, so
    # the median spans the same stretch of machine speed as the ops
    setup_s = time_setup(name, seed, workdir, SETUP_FIRST)

    def sample_setup(done):
        due = SETUP_FIRST + int(SETUP_SPREAD * done)
        if len(setup_s) < due:
            setup_s.extend(time_setup(name, seed, workdir, 1))

    problems = workloads.gate_problems(workdir)
    wl = workloads.WORKLOADS[name](seed, workdir / "ops", ROOT)
    tracer = tracing.Tracer()
    warm = 1 if name != "cli_cold" else 0   # cold start is what cli_cold measures
    if warm:
        records, _, _ = run_blocks(wl, tracer, first=0, count=warm)
        problems += [r["problem"] for r in records if r["problem"]]
    records, busy, blocks = run_blocks(wl, tracer, first=warm,
                                       count=wl.blocks_for(seconds),
                                       after_block=sample_setup,
                                       limit_s=LIMIT_FACTOR * seconds)
    setup_s += time_setup(name, seed, workdir,
                          SETUP_FIRST + SETUP_SPREAD - len(setup_s))
    usage = resource.RUSAGE_CHILDREN if name == "cli_cold" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(usage).ru_maxrss / 1024
    metrics, extras = report.end_to_end(records, busy, setup_s, peak_mb)
    problems += [r["problem"] for r in records if r["problem"]]
    result = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": report.environment(),
              "end_to_end": metrics, "extras": extras, "blocks": blocks,
              "ops": records}
    if trace:
        tracer.install()
        wl.trace_spans = True
        tracer.recording = True
        traced, traced_busy, _ = run_blocks(wl, tracer, first=warm, count=blocks)
        tracer.recording = False
        tracer.uninstall()
        problems += [r["problem"] for r in traced if r["problem"]]
        ratio = (len(traced) / traced_busy) / metrics["ops_per_s"]
        layer, table = report.per_layer(tracer.spans, traced, import_times(), ratio)
        result.update(per_layer=layer, per_function=table)
        spans_path = OUT / "results" / f"{name}-seed{seed}-spans.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps(tracer.spans))
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    result["problems"] = problems
    result["correct"] = not problems
    path = OUT / "results" / f"{name}-seed{seed}-trace{trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1, default=str))
    result["path"] = str(path.relative_to(ROOT))
    return result


def print_summary(result):
    m, x = result["end_to_end"], result["extras"]
    env = result["environment"]
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"{x['attempted']} ops in {result['blocks']} blocks")
    print(f"   env: nproc {env['nproc']}, {env['cpu_model']}, L2 {env['l2']}, "
          f"L3 {env['l3']}, python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, {env['blas']} {env['blas_version']}, "
          f"OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']} "
          f"OMP_NUM_THREADS={env['OMP_NUM_THREADS']} "
          f"AFQ_THREADS={env['AFQ_THREADS']}")
    rows = [(name, m[name], unit) for name, unit in report.END_TO_END]
    rows += [("points_per_s", x["points_per_s"], "1/s"),
             ("csv_rows_per_s", x["csv_rows_per_s"], "1/s"),
             ("fail_ratio", x["fail_ratio"], "-")]
    for name, value, unit in rows:
        note = ""
        if name == "op_tail_s":
            note = f"p{x['op_tail_percentile']:.1f} of {x['op_samples']} ops"
        elif name == "fail_ratio":
            note = (f"{x['failed']} failed / {x['attempted']} attempted "
                    f"{x['outcome_kinds']}")
        elif name == "setup_s":
            note = f"median of {len(x['setup_samples_s'])} fresh interpreters"
        print(f"   {name:<16}{value:>14.6g} {unit:<4} {note}")
    if "per_layer" in result:
        for name, unit in report.PER_LAYER:
            print(f"   {name:<40}{result['per_layer'][name]:>14.6g} {unit}")
    verdict = "correct" if result["correct"] else "INCORRECT"
    print(f"   {verdict}; {len(result['problems'])} problems; "
          f"record in {result['path']}")
    for problem in result["problems"][:5]:
        print(f"   problem: {problem}")


def line(result):
    names = report.PER_LAYER if result["trace"] else report.END_TO_END
    values = result["per_layer"] if result["trace"] else result["end_to_end"]
    return {"correct": result["correct"],
            "attempted": result["extras"]["attempted"],
            "failed": result["extras"]["failed"],
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in names}}


def main(argv=None):
    args = parse_args(argv)
    if workloads is None:
        print(f"bench: run from the repository root: {MISSING}", file=sys.stderr)
        return 2
    import afq
    if Path(afq.__file__).resolve().parent != (ROOT / "src" / "afq").resolve():
        print(f"bench: imported afq from {afq.__file__}, not from src/",
              file=sys.stderr)
        return 2
    names = ORDER if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        print_summary(result)
        results[name] = line(result)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
