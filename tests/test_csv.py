"""CSV writer: the float kernel against Python's formatter, and every CLI
CSV against the row-by-row ``csv.writer`` writer it replaced."""

import csv
import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afq import LennardJones, MaterialParams, cli
from afq.config import PAPER_CONFIG, default_config, parse_config_text
from afq.explorer import SWEEP_COLUMNS, _figures, sweep
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
FALLBACK = [9.9999999999995, -9.9999999999995, 1e100, -1e100, 1e-100,
            5e-324, -5e-324, 1.7976931348623157e308, *TIES]
KERNEL = [0.0, -0.0, 1e99, -1e99, 1e-99, 9.9999999999997, 1.0, 123.456]


@pytest.mark.parametrize("value", FALLBACK + KERNEL + [9.99999999999949])
def test_kernel_edge_cases(value):
    assert_matches_python([value])


def test_fallback_fires_on_ties_wide_exponents_and_subnormals():
    _, _, fallback = cli._decimal_parts(np.array(FALLBACK + KERNEL))
    assert fallback.tolist() == [True] * len(FALLBACK) + [False] * len(KERNEL)


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


def emitted(header, columns) -> str:
    buf = io.StringIO()
    cli.emit_csv(header, cli.CsvTable(columns), buf)
    return buf.getvalue()


def test_default_sweep_csv_matches_reference():
    columns = sweep(default_config().sweep_spec()).columns()
    text = emitted(list(SWEEP_COLUMNS), columns)
    assert text == reference_csv(SWEEP_COLUMNS, zip(*columns))
    assert len(text.encode()) == 1_379_112
    # pins the column order and every cell, which the reference shares
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "546b6239fb4910cabdc1de5c7ada38ae9fa36db4a2f7c804ac23c349b8294b94")


def test_contact_snap_in_and_ok_rows_match_reference():
    lengths, gaps = (a.ravel() for a in np.meshgrid(
        np.linspace(200e-9, 800e-9, 7),
        np.linspace(1.05, 2.0, 20) * LJ.sigma, indexing="ij"))
    figures = _figures(lengths, gaps, 10e-9, 12e-9, SILICON, LJ, 8e-3)
    assert set(figures["flag"]) == {0, 1, 2}     # OK, contact, snap-in
    columns = (lengths, gaps, gaps / LJ.sigma, figures["omega_c"],
               figures["omega_10"], figures["eta_r"], figures["eta"],
               figures["delta_omega"], figures["n_thermal"],
               figures["x_zpf"], figures["k_eff"], figures["flag"])
    assert emitted(list(SWEEP_COLUMNS), columns) == reference_csv(
        SWEEP_COLUMNS, zip(*columns))


def test_mixed_columns_match_reference():
    columns = ([1.5, -2.0, np.nan], np.array([0, 1, 2], np.int8),
               [True, False, True], [None, None, "text"], [3, 40, -500])
    header = ["x", "flag", "ok", "note", "n"]
    assert emitted(header, columns) == reference_csv(header, zip(*columns))


def test_empty_table():
    assert emitted(["a", "b"], ([], [])) == "a,b\n"


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
