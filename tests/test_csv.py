"""CSV writer: the float kernel against Python's formatter, and every CLI
CSV against the row-by-row ``csv.writer`` writer it replaced."""

import csv
import hashlib
import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afq import LennardJones, MaterialParams, cli
from afq.config import PAPER_CONFIG, default_config, parse_config_text
from afq.explorer import SWEEP_COLUMNS, SweepSpec, _figures, sweep
from afq.units import ANGSTROM, MEV

SILICON = MaterialParams(young_modulus=160e9, density=2329.0)
LJ = LennardJones(epsilon=17.4 * MEV, sigma=3.826 * ANGSTROM)


def kernel_strings(values):
    cells = cli._sci_cells(np.asarray(values, dtype=np.float64))
    return [cell.tobytes().replace(b"\0", b"").decode() for cell in cells]


def assert_matches_python(values):
    values = np.asarray(values, dtype=np.float64)
    got = kernel_strings(values)
    want = [f"{v:.12e}" for v in values.tolist()]
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad, f"{len(bad)} mismatches, first (value, got, want): {bad[0]}"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                          allow_subnormal=True), min_size=1, max_size=40))
def test_kernel_matches_python_on_hypothesis_floats(values):
    assert_matches_python(values)


def test_kernel_matches_python_on_random_bit_patterns():
    rng = np.random.default_rng(20261018)
    bits = rng.integers(0, 2**64, size=120_000, dtype=np.uint64)
    assert_matches_python(bits.view(np.float64))


def test_kernel_matches_python_on_two_digit_exponents():
    rng = np.random.default_rng(5)
    n = 100_000
    wide = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-99, 100, n)
    # decimals of 13 to 15 significant digits: exact and near ties
    decimals = np.array([float(f"{d}e{k}") for d, k in zip(
        rng.integers(10**12, 10**15, 20_000), rng.integers(-110, 90, 20_000))])
    assert_matches_python(np.concatenate([wide, decimals]))


def test_kernel_decade_edges():
    powers = np.array([float(f"1e{k}") for k in range(-101, 102)])
    edges = np.concatenate([powers, np.nextafter(powers, 0.0),
                            np.nextafter(powers, np.inf)])
    assert_matches_python(np.concatenate([edges, -edges]))


def test_exponent_estimate_one_off_is_repaired(monkeypatch):
    # an accurate log10 never needs the decade check; a floor(log10) one
    # decade off either way must still print Python's digits
    values = np.random.default_rng(9).uniform(-98, 98, 3000)
    values = np.where(values > 0, 1.0, -1.0) * 10.0 ** np.abs(values)
    shift = np.resize([-1.0, 0.0, 1.0], values.size)
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    assert_matches_python(values)


TIES = [(k + 0.5) * 10.0 ** (e - 12)
        for k in (10**12, 1234567890123, 10**13 - 1) for e in (-7, 0, 9)]
TINY = float(np.finfo(np.float64).tiny)
# the extremes of the float64 range: 3-digit exponents and subnormals
EXTREMES = [TINY, -TINY, float(np.nextafter(TINY, 0.0)), 5e-324, -5e-324,
            1.7976931348623157e308]
FALLBACK = [9.9999999999995, -9.9999999999995, 1e100, -1e100, 1e-100,
            *EXTREMES, *TIES]
KERNEL = [1e99, -1e99, 1e-99, 9.9999999999997, 1.0, 123.456]


@pytest.mark.parametrize("value",
                         FALLBACK + KERNEL + [9.99999999999949, 0.0, -0.0])
def test_kernel_edge_cases(value):
    assert_matches_python([value])


def test_fallback_fires_on_ties_wide_exponents_and_subnormals():
    # _decimal_parts sees only finite non-zero values (_sci_cells)
    digits, e, fallback = cli._decimal_parts(np.array(FALLBACK + KERNEL))
    assert fallback.tolist() == [True] * len(FALLBACK) + [False] * len(KERNEL)
    assert not digits[fallback].any() and not e[fallback].any()


def test_specials_spelled_as_python():
    values = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0]
    assert kernel_strings(values) == ["nan", "nan", "inf", "-inf",
                                      "0.000000000000e+00",
                                      "-0.000000000000e+00"]


# -- byte identity with the writer the column-wise one replaced ----------

def reference_csv(header, rows) -> str:
    """``csv.writer`` with ``f"{v:.12e}"`` for floats, ``str()`` otherwise."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.12e}" if isinstance(v, float) else str(v)
                         for v in row])
    return buf.getvalue()


def emitted(header, columns, rows) -> str:
    buf = io.StringIO()
    cli.emit_csv(header, cli.CsvTable(columns, rows), buf)
    return buf.getvalue()


def expanded(column, rows):
    """The ``rows`` values of a CSV column: a lookup ``(values, stride)`` or
    ``(values, codes)``, or an array."""
    if not isinstance(column, tuple):
        return column
    values, index = column
    if np.ndim(index):
        return [values[code] for code in index]
    return [values[i // index % len(values)] for i in range(rows)]


def coded(column):
    """An integer array as the lookup ``(values, codes)`` of its distinct
    values: the writer's one kind of integer column."""
    return np.unique(column, return_inverse=True)


def test_default_sweep_csv_matches_reference():
    columns = sweep(default_config().sweep_spec()).columns()
    text = emitted(list(SWEEP_COLUMNS), columns[:-1] + (coded(columns[-1]),),
                   len(columns[0]))
    assert_same_text(text, reference_csv(SWEEP_COLUMNS, zip(*columns)))
    assert len(text.encode()) == 1_379_112
    # pins the column order and every cell, which the reference shares
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "546b6239fb4910cabdc1de5c7ada38ae9fa36db4a2f7c804ac23c349b8294b94")


def test_snap_in_and_ok_rows_match_reference():
    ls = np.linspace(200e-9, 800e-9, 7)
    xs = np.linspace(1.15, 2.0, 20) * LJ.sigma
    figures = _figures(ls, xs, 10e-9, 12e-9, SILICON, LJ, 8e-3)
    assert set(figures["flag"]) == {0, 2}     # OK, snap-in
    i = np.arange(ls.size * xs.size)           # rows lexicographic in (L, x)
    np.testing.assert_array_equal(figures["length"], ls[i // xs.size])
    np.testing.assert_array_equal(figures["gap"], xs[i % xs.size])
    columns = (figures["length"], figures["gap"], figures["gap"] / LJ.sigma,
               figures["omega_c"], figures["omega_10"], figures["eta_r"],
               figures["eta"], figures["delta_omega"], figures["n_thermal"],
               figures["x_zpf"], figures["k_eff"], figures["flag"])
    assert emitted(list(SWEEP_COLUMNS), columns[:-1] + (coded(columns[-1]),),
                   i.size) == reference_csv(SWEEP_COLUMNS, zip(*columns))


def test_mixed_columns_match_reference():
    # a float array, integer arrays as code lookups, and stride lookups of
    # floats, bools, None, str and the int64 extremes, whose str() fills a
    # whole 20-byte cell
    columns = ([1.5, -2.0, np.nan], coded(np.array([0, 1, 2], np.int8)),
               ([True, False], 1), ([None, None, "text"], 1),
               coded([3, 40, -500]), ([2.5, -0.0, np.inf], 2), ([7], 3),
               (np.array([-9223372036854775808, 9223372036854775807]), 2))
    header = ["x", "flag", "ok", "note", "n", "axis", "one", "int64"]
    assert emitted(header, columns, 3) == reference_csv(
        header, zip(*(expanded(c, 3) for c in columns)))


@pytest.mark.parametrize("column, text", [
    # an integer column is a code lookup of its values, whatever their
    # range: the int64 extremes fill a whole 20-byte cell
    ((np.array([-9223372036854775808, 9223372036854775807]), [1, 0]),
     "n\n9223372036854775807\n-9223372036854775808\n"),
    ((np.array([0, 10**9]), [1, 0]), "n\n1000000000\n0\n"),
])
def test_wide_integer_column_cells(column, text):
    assert emitted(["n"], [column], 2) == text == reference_csv(
        ["n"], zip(expanded(column, 2)))


def test_empty_table():
    columns = ([], (np.arange(4), np.array([], np.int8)), ([1.0, 2.0], 1))
    assert emitted(["a", "flag", "axis"], columns, 0) == "a,flag,axis\n"


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int64, np.uint64,
                                   np.bool_])
def test_integer_or_bool_array_column_is_refused(dtype):
    # an integer or bool array passed bare would print as float64 cells,
    # 3.000000000000e+00 for 3: it must come as a (values, codes) lookup,
    # which prints its str() cells, so the writer refuses it, empty too
    for column in (np.array([3, 0, 1], dtype), np.array([], dtype)):
        with pytest.raises(TypeError, match=f"^a {np.dtype(dtype)} CSV "
                           r"column must be a \(values, codes\) lookup"):
            emitted(["n"], [column], column.size)
    codes = np.array([1, 0, 1], np.int8)
    values = np.array([0, 3], dtype)
    assert emitted(["n"], [(values, codes)], 3) == reference_csv(
        ["n"], zip(expanded((values, codes), 3)))


# what `afq oracle` warns on the bundled design: both dispersive oracles
# run past g/|Delta| = 0.2, and the grid doubling estimate is past 1e-4
ORACLE_WARNINGS = ("outside the dispersive regime",
                   "above the dispersive regime", "have not converged")


def _run_csv(tmp_path, command, config_text=PAPER_CONFIG):
    """The ``--format csv`` file of ``command`` and what the command returns."""
    path = tmp_path / "design.cfg"
    path.write_text(config_text)
    out = tmp_path / f"{command}.csv"
    assert cli.main([command, "--config", str(path), "--format", "csv",
                     "--out", str(out), "--quiet"]) == 0
    cfg = parse_config_text(config_text)
    if command != "oracle":
        outputs, payload = cli.COMMANDS[command](cfg)
    else:
        with pytest.warns(UserWarning) as caught:
            outputs, payload = cli.COMMANDS[command](cfg)
        assert len(caught) == len(ORACLE_WARNINGS)
        for note in ORACLE_WARNINGS:
            assert any(note in str(w.message) for w in caught), note
    return out.read_bytes().decode(), outputs, payload


def single_row(outputs):
    """Header and row of a single-row report: its non-list outputs."""
    header = [k for k, v in outputs.items() if not isinstance(v, list)]
    return header, [[outputs[k] for k in header]]


@pytest.mark.parametrize("command", ["bias", "spectrum", "oracle"])
def test_single_row_csv_matches_reference(tmp_path, command):
    text, outputs, _ = _run_csv(tmp_path, command)
    assert text == reference_csv(*single_row(outputs))


def test_bias_csv_without_snap_in_matches_reference(tmp_path):
    stiff = PAPER_CONFIG.replace("length_nm = 495", "length_nm = 100")
    text, outputs, _ = _run_csv(tmp_path, "bias", stiff)
    assert outputs["auto_bias"] is True
    assert outputs["snap_in_gap_angstrom"] is None
    assert text == reference_csv(*single_row(outputs))
    assert text.splitlines()[1].startswith("True,")
    assert text.splitlines()[1].endswith(",None")


def test_cqad_csv_matches_reference(tmp_path):
    text, _, (header, table) = _run_csv(tmp_path, "cqad")
    assert len(table) == 2001
    assert text == reference_csv(header, zip(*table.columns))


def test_sweep_command_csv_is_pinned(tmp_path):
    # the command's own path: axis columns and the flag as lookups
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--out", str(out), "--quiet"]) == 0
    data = out.read_bytes()
    assert len(data) == 1_379_112
    assert hashlib.sha256(data).hexdigest() == (
        "546b6239fb4910cabdc1de5c7ada38ae9fa36db4a2f7c804ac23c349b8294b94")


BOX_WITH_EVERY_FLAG = """
sweep.length_points = 300
sweep.x_points = 300
"""


def test_sweep_command_csv_is_pinned_on_a_box_with_every_flag(tmp_path):
    # 300 x 300 over the default box: 15 365 FLAG_OK, 74 625 snap-in and 10
    # breakdown rows, each cell pinned
    path, out = tmp_path / "box.cfg", tmp_path / "sweep.csv"
    path.write_text(PAPER_CONFIG + BOX_WITH_EVERY_FLAG)
    assert cli.main(["sweep", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 0
    data = out.read_bytes()
    flags = [line.rpartition(b",")[2] for line in data.splitlines()[1:]]
    assert {f: flags.count(f) for f in set(flags)} == {
        b"0": 15_365, b"2": 74_625, b"3": 10}
    assert len(data) == 12_357_415
    assert hashlib.sha256(data).hexdigest() == (
        "e25f7a0cb79923f8319c91fd40bbd95adfa4525894d2e13bfba0728b9b0eecaf")


def load_bench_tracing():
    """The benchmark's ``bench/tracing.py``, imported from its file."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("command", ["sweep", "cqad"])
def test_benchmark_tracer_counts_each_csv(tmp_path, command):
    # the benchmark's cli.emit_csv_* metrics read these span attributes:
    # emit_csv(header, table, stream) with len(table) its data rows
    tracer = load_bench_tracing().Tracer()
    tracer.install()
    out = tmp_path / f"{command}.csv"
    try:
        tracer.recording = True
        assert cli.main([command, "--out", str(out), "--quiet"]) == 0
    finally:
        tracer.recording = False
        tracer.uninstall()
    spans = [s for s in tracer.spans if s["name"] == "cli.emit_csv"]
    data = out.read_bytes()
    assert [s["attrs"] for s in spans] == [
        {"rows": data.count(b"\n") - 1, "bytes": len(data)}]


# -- cells that need no digits, and axis columns formatted once ----------

def test_fallback_is_rare_on_random_normal_floats():
    # the per-cell tie margin leaves about 0.2 % of cells to Python
    rng = np.random.default_rng(28)
    n = 100_000
    values = (rng.choice([-1.0, 1.0], n) * rng.uniform(1.0, 10.0, n)
              * 10.0 ** rng.integers(-99, 99, n))
    _, _, fallback = cli._decimal_parts(values)
    assert np.count_nonzero(fallback) <= 0.005 * n
    assert_matches_python(values)


def assert_same_text(got, want):
    """``got == want``, naming the first line that differs: pytest's own
    diff of two texts of a megabyte takes minutes."""
    pairs = zip(got.splitlines(keepends=True), want.splitlines(keepends=True))
    first = next(((i, g, w) for i, (g, w) in enumerate(pairs) if g != w),
                 "none; the line counts differ")
    same = got == want
    assert same, f"first differing line (index, got, want): {first}"


def sweep_box(lengths_nm, gaps_over_sigma):
    return sweep(SweepSpec(
        lengths=tuple(np.asarray(lengths_nm, dtype=float) * 1e-9),
        gaps_over_sigma=tuple(gaps_over_sigma), width=10e-9,
        thickness=12e-9, material=SILICON, potential=LJ, temperature=8e-3))


def assert_sweep_csv_matches_reference(result):
    assert_same_text(emitted(list(SWEEP_COLUMNS), result.axis_columns(),
                             len(result)),
                     reference_csv(SWEEP_COLUMNS, zip(*result.columns())))


@pytest.mark.parametrize("lengths_nm, gaps, flags", [
    (np.linspace(700, 800, 30), np.linspace(1.5, 2.0, 40), {2}),
    (np.linspace(100, 150, 30), np.linspace(1.5, 2.0, 40), {0}),
    (np.linspace(200, 800, 30), np.linspace(1.15, 2.0, 40), {0, 2}),
    ([495.0], np.linspace(1.15, 2.0, 300), {0, 2}),            # n_l = 1
    (np.linspace(200, 800, 300), [1.2], {0}),                  # n_x = 1
], ids=["all-snap-in", "all-stable", "mixed", "one-length", "one-gap"])
def test_sweep_table_matches_reference(lengths_nm, gaps, flags):
    result = sweep_box(lengths_nm, gaps)
    assert set(result.flag.tolist()) == flags
    assert_sweep_csv_matches_reference(result)


def test_length_runs_straddle_block_edges():
    result = sweep_box(np.linspace(200, 800, 300), np.linspace(1.15, 2.0, 11))
    step = cli._BLOCK_CELLS // len(SWEEP_COLUMNS)      # rows per block
    assert len(result) > 2 * step and step % 11
    assert_sweep_csv_matches_reference(result)


def test_axis_columns_match_their_rows():
    rows = 3 * cli._BLOCK_CELLS // 4 + 5               # crosses block edges
    values = np.array([1.5, -2.25, np.nan, 0.0, 7e-300, np.inf, 3.0])
    columns = [(values, 1), (values, 5), (np.array([3, -40, 500]), 2),
               np.arange(rows) % 7 * 0.5]
    header = ["a", "b", "n", "x"]
    assert_same_text(emitted(header, columns, rows), reference_csv(
        header, zip(*(expanded(c, rows) for c in columns))))


def test_integer_columns_match_reference():
    rows = cli._BLOCK_CELLS // 3 + 7
    rng = np.random.default_rng(3)
    # each written as the code lookup of its distinct values
    columns = [rng.integers(0, 4, rows).astype(np.int8),    # the sweep flag
               rng.integers(0, 256, rows).astype(np.uint8),
               rng.integers(-128, 128, rows).astype(np.int8),
               rng.integers(-20, 20, rows), rng.integers(0, 10, rows) + 10,
               np.full(rows, -7)]
    header = ["flag", "u8", "i8", "signed", "wide", "one"]
    assert_same_text(emitted(header, [coded(c) for c in columns], rows),
                     reference_csv(header, zip(*columns)))


def test_codes_skipping_a_value_cross_block_edges():
    # codes 0, 2 and 3, as the sweep flag takes them, never 1: a code
    # indexes its values, not a range of them; then an empty code array
    rows = 3 * cli._BLOCK_CELLS // 2 + 11             # crosses block edges
    codes = np.random.default_rng(6).choice([0, 2, 3], rows).astype(np.int8)
    columns = [(np.arange(4), codes), np.arange(rows) * 0.25,
               (np.array([5, -1, 17, -9223372036854775808]), codes)]
    header = ["flag", "x", "n"]
    assert_same_text(emitted(header, columns, rows), reference_csv(
        header, zip(*(expanded(c, rows) for c in columns))))
    assert emitted(["flag"], [(np.arange(4), np.array([], np.int8))],
                   0) == "flag\n"


def test_constant_cells_match_reference():
    # a column of NaN only, one of digits only, one with every constant
    rows = cli._BLOCK_CELLS // 2 + 3
    rng = np.random.default_rng(4)
    digits = rng.normal(size=rows) * 10.0 ** rng.integers(-30, 30, rows)
    mixed = rng.choice([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324,
                        1e100, 1.25, -3.5], rows)
    columns = [np.full(rows, np.nan), digits, mixed]
    header = ["nan", "digits", "mixed"]
    assert_same_text(emitted(header, columns, rows),
                     reference_csv(header, zip(*columns)))
