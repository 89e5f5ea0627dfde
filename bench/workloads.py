"""The four benchmark workloads: seeded inputs, one operation, its check.

A workload hands out its inputs in blocks. Block ``k`` is generated from
``numpy.random.default_rng([seed, k])`` and is stratified: every block
holds the same ladder of problem sizes (or the same command mix), and the
seed draws the designs, the sub-boxes, the aspect ratios and the order.
A run executes a fixed number of whole blocks (``blocks_for``), so the
same seed always gives the same operations, the same size distribution
and the same failure count, whatever the speed of the machine.

Per operation the runner calls ``prepare`` (untimed: write the config the
program reads), ``execute`` (timed: the program's work only) and
``judge`` (untimed: compare the output against an in-harness reference).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from afq import cli, explorer
from afq.cantilever import (CantileverGeometry, bias_state, modal_params)
from afq.config import parse_config_text
from afq.explorer import FLAG_OK, DesignConstraints, SweepSpec
from afq.potential import taylor_coefficients
from afq.spectrum import perturbative_energies
from afq.units import NM

import checks

BENCH_DIR = Path(__file__).resolve().parent
TRACE_CHILD = BENCH_DIR / "trace_child.py"

# Failures the program is known to produce on valid input. They count as
# failed operations; any other failure also marks the run incorrect.
KNOWN_FAILURES = {
    "omega must be > 0": "omega_band",             # ROADMAP item 3
    "not JSON serializable": "validate_out_crash",  # `validate --out`
}
# The documented refusal of the JC oracle within 2g of the readout mode.
REFUSAL = "labeling unreliable near resonance"


@dataclass
class Op:
    kind: str                    # cli command, or "design" for design_scan
    params: dict
    path: Path | None = None     # config file the program reads
    out: Path | None = None      # file the program writes
    cfg: object = None           # the parsed config (reference side)
    spec: SweepSpec | None = None


@dataclass
class Outcome:
    status: str = "ok"           # ok | refused | failed
    kind: str = ""               # failure or refusal kind
    problem: str | None = None   # wrong output or unexpected failure
    points: int = 0              # design grid points evaluated
    rows: int = 0                # CSV data rows written

    @classmethod
    def from_error(cls, message: str, refusable: bool = False) -> "Outcome":
        if refusable and REFUSAL in message:
            return cls("refused", "labeling")
        for text, kind in KNOWN_FAILURES.items():
            if text in message:
                return cls("failed", kind)
        last = message.strip().splitlines()[-1:] or ["no message"]
        return cls("failed", "unexpected", f"unexpected failure: {last[0]}")

    @classmethod
    def wrong(cls, problem: str) -> "Outcome":
        return cls("failed", "wrong_output", problem)


def config_text(**keys) -> str:
    """The bundled headline design with ``keys`` (dotted names) overridden."""
    lines = []
    for line in cli.PAPER_CONFIG.splitlines():
        key = line.split("=", 1)[0].strip()
        lines.append(f"{key} = {keys.pop(key)}" if key in keys else line)
    lines += [f"{key} = {value}" for key, value in keys.items()]
    return "\n".join(lines) + "\n"


def _design_keys(rng) -> dict:
    """L, w and t drawn within +-30 / 20 / 20 % of the headline design."""
    return {"cantilever.length_nm": f"{495 * rng.uniform(0.7, 1.3):.3f}",
            "cantilever.width_nm": f"{10 * rng.uniform(0.8, 1.2):.3f}",
            "cantilever.thickness_nm": f"{12 * rng.uniform(0.8, 1.2):.3f}"}


def _sub_box(rng, lo, hi):
    """A seeded sub-interval of [lo, hi]: two uniform draws, sorted."""
    a, b = np.sort(rng.uniform(lo, hi, 2))
    return float(a), float(b)


def _axes(rng, points, lo, hi):
    """Split ``points`` into two per-axis counts within [lo, hi].

    The aspect ratio is drawn within [1/3, 3] and then narrowed so that
    both counts fit, which keeps the product within rounding of ``points``.
    """
    aspect = np.exp(rng.uniform(-np.log(3.0), np.log(3.0)))
    n1 = int(np.clip(round(np.sqrt(points * aspect)),
                     max(lo, np.ceil(points / hi)), min(hi, points // lo)))
    n2 = int(np.clip(round(points / n1), lo, hi))
    return n1, n2


def child_env(root: Path) -> dict:
    """The inherited environment with ``root/src`` first on PYTHONPATH."""
    src = str(root / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)


def _run_cli(argv):
    """afq.cli.main in process; returns (exit code, stderr text)."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:     # a crash is an outcome to report, not to raise
        return 1, f"{err.getvalue()}{type(exc).__name__}: {exc}"
    return rc, err.getvalue()


def gate_problems(workdir: Path) -> list:
    """Default-design gates: the sweep CSV bytes and the headline spectrum."""
    csv_path = workdir / "gate_sweep.csv"
    spec_path = workdir / "gate_spectrum.json"
    rc, err = _run_cli(["sweep", "--out", str(csv_path), "--quiet"])
    problems = [f"default sweep exited {rc}: {err.strip()}" if rc
                else checks.digest_problem(csv_path.read_bytes())]
    rc, err = _run_cli(["spectrum", "--out", str(spec_path), "--quiet"])
    if rc:
        problems.append(f"default spectrum exited {rc}: {err.strip()}")
    else:
        outputs = json.loads(spec_path.read_text())["outputs"]
        problems.append(checks.headline_problem(outputs))
        problems.append(checks.values_problem(
            outputs, checks.expected_spectrum(cli.default_config())))
    return [p for p in problems if p]


class Workload:
    name = ""
    # wall seconds of one block, checks included, on a 2-CPU Xeon VM
    BLOCK_S = 1.0
    MIN_BLOCKS = 3

    @classmethod
    def blocks_for(cls, seconds: float) -> int:
        """Blocks in a run of about ``seconds`` on the reference machine."""
        return max(cls.MIN_BLOCKS, round(seconds / cls.BLOCK_S))

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.seed = seed
        self.workdir = workdir
        self.root = root
        workdir.mkdir(parents=True, exist_ok=True)

    def rng(self, block: int):
        return np.random.default_rng([self.seed, block])

    def block(self, k: int) -> list:
        raise NotImplementedError

    def prepare(self, op: Op, index: int) -> None:
        text = config_text(**op.params)
        op.path = self.workdir / f"op{index}.cfg"
        op.path.write_text(text)
        op.out = self.workdir / f"op{index}.out"
        op.out.unlink(missing_ok=True)
        op.cfg = parse_config_text(text, source=str(op.path))

    def execute(self, op: Op):
        raise NotImplementedError

    def judge(self, op: Op, raw) -> Outcome:
        raise NotImplementedError

    def check(self, op: Op, raw) -> Outcome:
        try:
            return self.judge(op, raw)
        except Exception as exc:  # an unreadable output is a wrong output
            return Outcome.wrong(f"output check raised {type(exc).__name__}: "
                                 f"{exc}")


def judge_cli(op: Op, rc: int, err: str) -> Outcome:
    """Outcome of one `afq <cmd>` from its exit code, stderr and --out file."""
    if op.kind == "oracle":
        return _judge_oracle(op, rc, err)
    if rc != 0:
        return Outcome.from_error(err)
    text = op.out.read_text()
    rows = text.count("\n") - 1
    if op.kind == "sweep":
        problem = checks.sweep_csv_problem(text, op.cfg)
        done = Outcome(points=rows, rows=rows)
    elif op.kind == "cqad":
        problem, done = checks.response_csv_problem(text, op.cfg), Outcome(rows=rows)
    else:
        expected = {"bias": checks.expected_bias,
                    "spectrum": checks.expected_spectrum}[op.kind](op.cfg)
        problem = checks.values_problem(json.loads(text)["outputs"], expected)
        done = Outcome()
    return Outcome.wrong(problem) if problem else done


def _judge_oracle(op, rc, err):
    try:
        expected = checks.expected_oracle(op.cfg)
    except Exception as exc:  # the reference refuses too: compared below
        expected = f"{type(exc).__name__}: {exc}"
    if rc != 0:
        outcome = Outcome.from_error(err, refusable=True)
        if outcome.status == "refused" and not (
                isinstance(expected, str) and REFUSAL in expected):
            return Outcome.wrong("oracle refused a design the library labels "
                                 "without ambiguity")
        return outcome
    if isinstance(expected, str):
        return Outcome.wrong(f"oracle answered where the library raised "
                             f"{expected}")
    problem = checks.values_problem(
        json.loads(op.out.read_text())["outputs"], expected)
    return Outcome.wrong(problem) if problem else Outcome()


class ColdCli(Workload):
    """Every op is a fresh `python -m afq.cli <cmd>` process."""

    name = "cli_cold"
    BLOCK_S = 3.5
    COMMANDS = ("bias", "spectrum", "cqad", "oracle", "sweep", "validate")
    trace_spans = False          # run ops through trace_child.py

    def block(self, k):
        rng = self.rng(k)
        return [Op(str(cmd), _design_keys(rng))
                for cmd in rng.permutation(self.COMMANDS)]

    def execute(self, op):
        args = [op.kind, "--config", str(op.path), "--out", str(op.out)]
        spans = None
        if self.trace_spans:
            spans = op.out.with_suffix(".spans.json")
            cmd = [sys.executable, str(TRACE_CHILD), str(spans), "--", *args]
        else:
            cmd = [sys.executable, "-m", "afq.cli", *args]
        proc = subprocess.run(cmd, cwd=self.root, env=child_env(self.root),
                              text=True, capture_output=True, timeout=120)
        return {"proc": proc, "spans": spans}

    def judge(self, op, raw):
        proc = raw["proc"]
        if op.kind != "validate":
            return judge_cli(op, proc.returncode, proc.stderr)
        problem = checks.validate_problem(proc.returncode, proc.stdout)
        if problem:
            return Outcome.wrong(problem)
        if not op.out.exists():
            return Outcome.from_error(proc.stderr)
        report = json.loads(op.out.read_text())
        failing = {c["name"] for c in report["checks"] if not c["passed"]}
        if failing != checks.EXPECTED_VALIDATE_FAILURES:
            return Outcome.wrong(f"validate report lists {sorted(failing)}")
        return Outcome()


class InProcessCli(Workload):
    """`afq.cli.main` called in the runner's own process."""

    def execute(self, op):
        return _run_cli([op.kind, "--config", str(op.path),
                         "--out", str(op.out), "--quiet"])

    def judge(self, op, raw):
        return judge_cli(op, *raw)


class DesignScan(Workload):
    """In-process sweep + feasibility filter + length optimization."""

    name = "design_scan"
    BLOCK_S = 0.3
    # grid points per op, 10^4 to 10^6. Five of the nine ops share the
    # middle size, so a seed's band failures cannot move the median out of
    # it. That size is 10^4.5: from 10^5 points up, an op's page faults
    # (0 or about 4500) depend on the allocator's history, which moves a
    # median there by a third between runs of the same seed.
    LADDER = (10**4, 10**4, *(10**4.5,) * 5, 10**5, 10**6)
    WIDTH, THICKNESS, TEMPERATURE = 10e-9, 12e-9, 8e-3

    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir, root)
        base = cli.default_config()
        self.material, self.potential = base.material(), base.potential()

    def block(self, k):
        rng = self.rng(k)
        ops = []
        for points in rng.permutation(self.LADDER):
            n_l, n_x = _axes(rng, points, 100, 1000)
            ops.append(Op("design", {
                "lengths_nm": (*_sub_box(rng, 200.0, 800.0), n_l),
                "x_over_sigma": (*_sub_box(rng, 1.15, 2.0), n_x),
                "max_occupancy": rng.uniform(1.0, 5.0)}))
        return ops

    def prepare(self, op, index):
        p = op.params
        op.spec = SweepSpec(
            lengths=tuple(np.linspace(*p["lengths_nm"]) * NM),
            gaps_over_sigma=tuple(np.linspace(*p["x_over_sigma"])),
            width=self.WIDTH, thickness=self.THICKNESS,
            material=self.material, potential=self.potential,
            temperature=self.TEMPERATURE)

    def execute(self, op):
        bound = DesignConstraints(max_occupancy=op.params["max_occupancy"])
        try:
            result = explorer.sweep(op.spec)
            feasible = explorer.feasible_designs(result, bound)
            best = explorer.optimize_length(
                self.WIDTH, self.THICKNESS, self.material, self.potential,
                self.TEMPERATURE, bound)
        except Exception as exc:  # a crash is an outcome to report
            return f"{type(exc).__name__}: {exc}"
        return result, feasible, best

    def judge(self, op, raw):
        if isinstance(raw, str):
            return Outcome.from_error(raw)
        result, feasible, (length, best) = raw
        bound = op.params["max_occupancy"]
        points = len(op.spec.lengths) * len(op.spec.gaps_over_sigma)
        if len(result) != points:
            return Outcome.wrong(f"sweep returned {len(result)} of {points} rows")
        ok = result.flag == FLAG_OK
        if not np.all(np.isfinite(result.omega_10[ok]) & (result.omega_10[ok] > 0)):
            return Outcome.wrong("a FLAG_OK row has no positive omega_10")
        with np.errstate(invalid="ignore"):
            want = int(np.count_nonzero(ok & (result.n_thermal <= bound)
                                        & (result.eta_r >= 0.0)))
        if (len(feasible) != want or np.any(feasible.flag != FLAG_OK)
                or np.any(np.diff(feasible.eta_r) > 0)):
            return Outcome.wrong(f"feasible_designs kept {len(feasible)} rows "
                                 f"unsorted or flagged; expected {want}")
        problem = self._spot_check(op, result) or self._length_check(
            length, best, bound)
        return Outcome.wrong(problem) if problem else Outcome(points=points)

    def _spot_check(self, op, result):
        """Three seeded rows against the scalar modal -> bias -> ladder chain."""
        k = 3.0 * self.material.young_modulus * (
            self.THICKNESS * self.WIDTH**3 / 12.0) / result.length**3
        rows = np.nonzero((result.flag == FLAG_OK) & (result.k_eff >= 0.1 * k))[0]
        if rows.size == 0:
            return None
        pick = np.random.default_rng([self.seed, rows.size]).choice(
            rows, size=min(3, rows.size), replace=False)
        for i in pick:
            modal = modal_params(CantileverGeometry(
                result.length[i], self.WIDTH, self.THICKNESS), self.material)
            state = bias_state(modal, self.potential, result.gap[i])
            spec = perturbative_energies(
                state, taylor_coefficients(self.potential, result.gap[i], 6),
                n_max=5)
            scale = state.omega_eff
            if not (abs(result.x_zpf[i] / state.x_zpf - 1) <= 1e-9
                    and abs(result.omega_10[i] - spec.omega_10) <= 1e-9 * scale
                    and abs(result.eta[i] - spec.eta) <= 1e-9 * scale):
                return (f"row {i} (L = {result.length[i]:.4e} m, x = "
                        f"{result.gap[i]:.4e} m) disagrees with the scalar chain")
        return None

    def _length_check(self, length, best, bound):
        if not (200e-9 <= length <= 800e-9 and best["n_thermal"] <= bound):
            return f"optimize_length returned L = {length:.4e} m over the bound"
        if length + 1e-9 <= 800e-9:
            longer = explorer.design_point(
                length + 1e-9, self.WIDTH, self.THICKNESS, self.material,
                self.potential, self.TEMPERATURE)
            if longer["n_thermal"] <= bound:
                return f"optimize_length stopped short at L = {length:.4e} m"
        return None


class CsvExport(InProcessCli):
    """In-process `afq sweep` and `afq cqad` writing CSV files.

    A block holds three size groups whose op times do not overlap: two
    small sweeps, five cqad exports and two large sweeps. The median falls
    inside the cqad group, whose rows all format alike, and the tail among
    the large sweeps. Sweeps that fail fast on the omega_10 <= 0 band drop
    below the small group, which moves the median's rank but not its group.
    """

    name = "csv_export"
    BLOCK_S = 1.0
    SMALL, LARGE = 2500, 10_000           # sweep grid points
    PROBE_POINTS = 6_000                  # cqad rows

    def block(self, k):
        rng = self.rng(k)
        ops = []
        for points in (self.SMALL,) * 2 + (self.LARGE,) * 2:
            n_l, n_x = _axes(rng, points, 50, 300)
            l_lo, l_hi = _sub_box(rng, 200.0, 800.0)
            x_lo, x_hi = _sub_box(rng, 1.15, 2.0)
            ops.append(Op("sweep", {
                "sweep.length_min_nm": f"{l_lo:.4f}",
                "sweep.length_max_nm": f"{l_hi:.4f}",
                "sweep.length_points": n_l,
                "sweep.x_over_sigma_min": f"{x_lo:.6f}",
                "sweep.x_over_sigma_max": f"{x_hi:.6f}",
                "sweep.x_points": n_x}))
        for _ in range(5):
            ops.append(Op("cqad", {"cqad.probe_points": int(
                self.PROBE_POINTS * rng.uniform(0.99, 1.01))}))
        return [ops[i] for i in rng.permutation(len(ops))]


class OracleAudit(InProcessCli):
    """In-process `afq oracle` on seeded designs."""

    name = "oracle_audit"
    BLOCK_S = 0.65
    BLOCK = 8

    def block(self, k):
        rng = self.rng(k)
        # Latin hypercube over (L, w, t): one design per stratum and axis
        u = (np.array([rng.permutation(self.BLOCK) for _ in range(3)]).T
             + rng.uniform(size=(self.BLOCK, 3))) / self.BLOCK
        return [Op("oracle", {
            "cantilever.length_nm": f"{495 * (0.7 + 0.6 * a):.3f}",
            "cantilever.width_nm": f"{10 * (0.8 + 0.4 * b):.3f}",
            "cantilever.thickness_nm": f"{12 * (0.8 + 0.4 * c):.3f}"})
            for a, b, c in u]


WORKLOADS = {w.name: w for w in (ColdCli, OracleAudit, CsvExport, DesignScan)}
