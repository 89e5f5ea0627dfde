"""Command-line front end.

Subcommands: ``bias``, ``spectrum``, ``sweep``, ``cqad``, ``oracle``,
``validate``. All take ``--config PATH`` (omitted: the bundled headline
design), ``--out PATH``, ``--format csv|json`` and ``--quiet``;
``validate`` ignores ``--config`` and ``--format``, checks the bundled
design and writes a line per check to stdout and JSON to ``--out``.
Every command writes through :func:`emit`. Exit codes: 0 success, 1
physics/validation failure, 2 usage or config error.

Outputs are deterministic: identical (config, command) pairs produce
byte-identical files. A float CSV cell is exactly ``f"{x:.12e}"``: 13
significant digits (the 12th-power terms make lower precision lossy on
round-trip), ``nan``, ``inf`` or ``-inf``. Integer and flag cells and
the ``True``/``None`` cells of single-row reports are ``str()``.

The writer (:func:`emit_csv`) knows two kinds of column (:class:`CsvTable`).
A float64 column is formatted with numpy, block by block, and only its
finite non-zero cells get digits, four per table lookup; NaN, the
infinities and the zeros are constant cells. A lookup column
``(values, stride)`` or ``(values, codes)`` formats its values once and
gathers their cells per block: the four sweep columns that follow one
grid axis and every cell of a single-row report by stride, the sweep
flag by code. Every cell fills a fixed 20-byte slot, wide enough
for ``-1.234567890123e-308`` and ``-9223372036854775808``; a longer
``str()`` cell raises an error rather than shift a column.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings

import numpy as np

from . import __version__
from .cantilever import snap_in_threshold
from .config import (PAPER_CONFIG, RunConfig, default_config,  # noqa: F401
                     load_config)
# JOINT_SHIFT_MHZ: re-exported because the benchmark reads cli.JOINT_SHIFT_MHZ
from .cqad import (JOINT_SHIFT_MHZ, adiabatic_elimination,  # noqa: F401
                   dispersive_figures, frequency_response)
from .errors import AfqError, ConfigError, DomainError
from .explorer import SWEEP_COLUMNS, sweep
from .oracle import (GRID_CONVERGENCE_TOL, GridSpec, _near_resonance,
                     grid_eigensolve, jc_dispersive_oracle, total_potential,
                     two_qubit_bus_oracle)
from .spectrum import relative_frequency_shift, thermal_occupancy
from .units import ANGSTROM, MK, NM, PM, cycles


class CsvTable:
    """A CSV body of ``rows`` data rows held column by column; ``len()``
    counts the rows.

    A column is a float64 array of ``rows`` values or a lookup
    ``(values, index)`` (as in
    :meth:`~afq.explorer.SweepResult.axis_columns`). The index is a stride,
    where row ``i`` holds ``values[(i // stride) % len(values)]``, or an
    array of ``rows`` codes, where it holds ``values[codes[i]]``. Float64
    values print as ``f"{x:.12e}"``, any other with ``str()``. An integer
    or bool column is such a lookup: as a bare array it is refused.
    """

    def __init__(self, columns, rows: int):
        self.columns, self.rows = columns, rows

    def __len__(self):
        return self.rows


# _POW10[k + 89] == 10**k, correctly rounded (float() of the literal)
_POW10 = np.array([float(f"1e{k}") for k in range(-89, 114)])
# bound on the relative error of m = |v| * _POW10[k + 89], by the same
# index: one rounding where 10**k is exact (0 <= k <= 22), else two
_MANTISSA_ERR = np.where(np.abs(np.arange(-89, 114) - 11) <= 11,
                         1.2e-16, 2.4e-16)


def _decimal_parts(x: np.ndarray):
    """13-digit mantissa, exponent and fallback mask of ``f"{v:.12e}"``
    for each finite non-zero ``v`` of ``x``.

    A ``v`` with ``10**e <= |v| < 10**(e+1)`` prints the mantissa
    ``round(m)``, ``m = |v| * 10**(12-e)``. Where ``10**(12-e)`` is
    exact, the computed ``m`` is the exact product rounded once, within
    ``m * 2**-53 (1 + 2**-53) < m * 1.2e-16`` of it; elsewhere the power is
    rounded too, and the bound is ``m * 2.4e-16``. ``m - rint(m)`` is
    exact, so ``rint(m)`` is the correctly rounded mantissa wherever
    ``m`` is further than that bound (plus 1e-9 for the test's own
    rounding) from a half-integer: at most 2.4e-3 below 1e13. A wrong
    ``e`` at a decade edge moves ``m`` across 1e12 or 1e13 only within the
    same bound, where both exponents print the same cell. The mask marks
    what is left to Python's own formatter: those near-ties and 3-digit
    exponents, which take in the subnormals (``e`` is clipped to
    -101..101 there). The mantissa is a float64 integer; mantissa and
    exponent are 0 in the fallback cells.
    """
    a = np.abs(x)
    # _POW10[k] == 10**(12-e)
    k = 101 - np.clip(np.floor(np.log10(a)), -100, 100).astype(np.intp)
    m = a * _POW10[k]
    for step in (1, -1):           # log10 can miss by one next to 10**e
        wrong = m < 1e12 if step > 0 else m >= 1e13
        k[wrong] += step
        m[wrong] = a[wrong] * _POW10[k[wrong]]
    digits = np.rint(m)
    fallback = np.abs(m - digits) + m * _MANTISSA_ERR[k] > 0.5 - 1e-9
    e = 101 - k
    carry = digits == 1e13                     # 9.99...97 rounds up a decade
    e[carry] += 1
    digits[carry] = 1e12
    fallback |= np.abs(e) > 99
    digits[fallback] = e[fallback] = 0
    return digits, e, fallback


def _word(b0, b1, b2, b3):
    """Little-endian uint32 of four bytes (ints or int arrays)."""
    return (np.asarray(b0, np.uint32) | np.asarray(b1, np.uint32) << 8
            | np.asarray(b2, np.uint32) << 16
            | np.asarray(b3, np.uint32) << 24).astype("<u4")


# A digit cell is five little-endian uint32 words, right-aligned in 20
# bytes: [NUL, sign or NUL, d, "."] [dddd] [dddd] [dddd] ["e", sign, dd].
_DIGITS4 = _word(*np.ix_(*[np.arange(48, 58)] * 4)).reshape(
    -1)                                        # _DIGITS4[k] spells f"{k:04d}"
_EXPONENT = _word(ord("e"), np.repeat([ord("-"), ord("+")], [99, 100]),
                  *(np.abs(np.arange(-99, 100)) // p % 10 + 48
                    for p in (10, 1)))         # _EXPONENT[e + 99]
# the last word of a NaN cell, and the cells of the other values printed
# without digits: _CONSTANT_CELLS[signbit + 2 isinf] is 0.0, -0.0, inf, -inf
_NAN_WORD = _word(0, *b"nan")
_CONSTANT_CELLS = np.frombuffer(b"".join(
    text.encode().rjust(20, b"\0") for text in (
        f"{0.0:.12e}", f"{-0.0:.12e}", "inf", "-inf")), np.uint8).reshape(4, 20)


def _digit_cells(x: np.ndarray) -> np.ndarray:
    """Cells of finite non-zero ``x``: mantissa read from ``_DIGITS4`` in
    4-digit groups; the fallback cells of :func:`_decimal_parts` are
    Python's own ``f"{v:.12e}"``."""
    digits, e, fallback = _decimal_parts(x)
    words = np.empty((x.size, 5), "<u4")
    high = np.floor(digits / 1e8)              # d dddd: exact in float64
    digits -= high * 1e8                       # dddd dddd
    lead = np.floor(high / 1e4)
    high -= lead * 1e4
    words[:, 1] = _DIGITS4[high.astype(np.intp)]
    high = np.floor(digits / 1e4)
    digits -= high * 1e4
    words[:, 2] = _DIGITS4[high.astype(np.intp)]
    words[:, 3] = _DIGITS4[digits.astype(np.intp)]
    # [NUL, sign, d, "."], with "-" (0x2D00) in the sign byte where x < 0
    words[:, 0] = lead * 65536 + np.signbit(x) * 11520.0 + 0x2E300000
    words[:, 4] = np.take(_EXPONENT, e + 99, mode="clip")
    if fallback.any():
        i = np.flatnonzero(fallback)
        words.view("S20")[i, 0] = [
            f"{v:.12e}".encode().rjust(20, b"\0") for v in x[i].tolist()]
    return words.view(np.uint8)


def _sci_cells(x: np.ndarray) -> np.ndarray:
    """``f"{v:.12e}"`` of each float64 in 1-D ``x``: (n, 20) uint8,
    right-aligned and NUL-padded.

    Only finite non-zero values get digits (:func:`_digit_cells`): all of
    ``x`` at once when every value does, else compressed and scattered
    back. NaN, the infinities and the zeros are constant cells, spelled as
    Python spells them (``-nan`` prints ``nan``).
    """
    digits = np.isfinite(x) & (x != 0)
    if digits.all():
        return _digit_cells(x)
    words = np.zeros((x.size, 5), "<u4")
    words[:, 4] = _NAN_WORD
    cells = words.view(np.uint8)
    rest = np.flatnonzero(~digits & ~np.isnan(x))    # zeros and infinities
    if rest.size:
        cells[rest] = _CONSTANT_CELLS[np.signbit(x[rest])
                                      + 2 * np.isinf(x[rest])]
    i = np.flatnonzero(digits)
    if i.size:
        words.view("V20")[i, 0] = _digit_cells(x[i]).view("V20")[:, 0]
    return cells


def _items(cells: np.ndarray) -> np.ndarray:
    """(rows, 20) uint8 cells, each row one opaque ``V20`` item: numpy
    copies an item at once, where it would loop over the bytes of a row."""
    return cells.view("V20")[:, 0]


def _cell_source(column):
    """How :func:`_csv_rows` makes a column's cells: ``(kind, data, index)``.

    ``("float", column, None)``: an array, formatted as float64 with every
    float64 column of the block at once; an integer or bool array raises
    :class:`TypeError`, since its cells are ``str()`` and it must come as
    a ``(values, codes)`` lookup. ``("lookup", items, index)``: a
    ``(values, stride)`` or ``(values, codes)`` column, its values formatted
    here, once (:func:`_sci_cells` for float64, else ``str()`` of each,
    right-aligned in 20 bytes), and row ``i`` of a block the cell of
    ``values[index(start, stop)[i]]``.
    """
    if not isinstance(column, tuple):
        column = np.asarray(column)
        if column.dtype.kind in "biu":
            raise TypeError(f"a {column.dtype} CSV column must be a "
                            "(values, codes) lookup, not an array")
        return "float", column.astype(np.float64, copy=False), None
    values, index = column
    values = np.asarray(values)
    if values.dtype == np.float64:
        cells = _sci_cells(values)
    else:
        cells = np.frombuffer(b"".join(
            str(v).encode().rjust(20, b"\0") for v in values.tolist()),
            np.uint8).reshape(values.size, 20)
    if np.ndim(index):      # codes
        rows = lambda start, stop: index[start:stop]
    else:                   # a stride
        rows = lambda start, stop: np.arange(start, stop) // index % values.size
    return "lookup", _items(cells), rows


def _csv_rows(sources, start: int, stop: int) -> str:
    """CSV lines of rows ``start:stop`` of the columns behind ``sources``
    (:func:`_cell_source`).

    Each cell gets a 21-byte slot in one (rows, columns, 21) byte grid:
    20 bytes of cell, right-aligned with NUL padding, then ``,``, or
    a newline in the last column. The float64 columns go through
    :func:`_sci_cells` at once; dropping the NULs leaves the lines.
    """
    rows = stop - start
    grid = np.empty((rows, len(sources), 21), np.uint8)
    floats = [j for j, (kind, *_) in enumerate(sources) if kind == "float"]
    if floats:
        x = np.stack([sources[j][1][start:stop] for j in floats], axis=1)
        grid[:, floats, :20] = _sci_cells(x.ravel()).reshape(rows, -1, 20)
    for j, (kind, data, index) in enumerate(sources):
        if kind == "lookup":
            _items(grid[:, j, :20])[:] = data[index(start, stop)]
    grid[:, :, 20] = ord(",")
    grid[:, -1, 20] = ord("\n")
    return grid.tobytes().translate(None, b"\0").decode()


# Cells per block of rows. Blocks bound the writer's memory: its
# temporaries take 68 bytes a cell in a sweep table, 107 in the all-float
# cqad one (tracemalloc peaks), under 1.8 MB a block, where whole-table
# ones would grow with the table (about 810 MB for a 10^6-row sweep).
_BLOCK_CELLS = 1 << 14


def emit_csv(header, table: CsvTable, stream) -> None:
    """Write ``header`` and the columns of ``table`` to ``stream`` as CSV.

    Rows are formatted column-wise in blocks of about ``_BLOCK_CELLS``
    cells. Nothing is quoted: header names and ``str()`` cells hold no
    comma, quote or newline.
    """
    step = max(1, _BLOCK_CELLS // len(table.columns))
    sources = [_cell_source(column) for column in table.columns]
    stream.write(",".join(header) + "\n")
    for start in range(0, len(table), step):
        stream.write(_csv_rows(sources, start, min(start + step, len(table))))


def emit(report: dict | str, fmt: str, out_path, quiet: bool, csv_payload,
         code: int) -> int:
    """Write the run report (JSON, or as is in the ``"text"`` format) or the
    CSV payload when the format asks for it, straight to ``out_path`` or
    stdout; returns ``code``, or 2 (usage error) if it cannot be written."""
    if fmt == "csv" and csv_payload is not None:
        header, table = csv_payload
        write = lambda stream: emit_csv(header, table, stream)
    else:
        text = report if fmt == "text" else json.dumps(report, indent=2) + "\n"
        write = lambda stream: stream.write(text)
    try:
        if out_path:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                write(fh)
            if not quiet:
                print(out_path)
        elif not quiet:
            write(sys.stdout)
    except OSError as exc:
        print(f"afq: cannot write {out_path or '<stdout>'}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 2
    return code


def cmd_bias(cfg: RunConfig) -> tuple[dict, tuple | None]:
    pot, modal, gap, state = cfg.operating_point()
    snap = snap_in_threshold(modal, pot, (1.15 * pot.sigma, 2.0 * pot.sigma))
    outputs = {
        "auto_bias": cfg.si["bias.x_over_sigma"] is None,
        "gap_angstrom": gap / ANGSTROM,
        "gap_over_sigma": gap / pot.sigma,
        "equilibrium_offset_nm": state.equilibrium_offset / NM,
        "lj_stiffness_n_m": state.lj_stiffness,
        "k_eff_n_m": state.effective_stiffness,
        "omega_eff_mhz": cycles(state.omega_eff) / 1e6,
        "x_zpf_pm": state.x_zpf / PM,
        "snap_in_gap_angstrom": None if snap is None else snap / ANGSTROM,
    }
    return outputs, None


def cmd_spectrum(cfg: RunConfig) -> tuple[dict, tuple | None]:
    _, modal, gap, state, spec = cfg.design()
    temp = cfg.si["spectrum.temperature_mk"]
    outputs = {
        "gap_angstrom": gap / ANGSTROM,
        "gap_m": gap,
        "omega_c_mhz": cycles(modal.omega_c) / 1e6,
        "omega_c_rad_s": modal.omega_c,
        "omega_10_mhz": cycles(spec.omega_10) / 1e6,
        "omega_10_rad_s": spec.omega_10,
        "omega_21_mhz": cycles(spec.omega_21) / 1e6,
        "omega_21_rad_s": spec.omega_21,
        "eta_mhz": cycles(spec.eta) / 1e6,
        "eta_rad_s": spec.eta,
        "eta_r": spec.eta_r,
        "delta_omega": relative_frequency_shift(spec.omega_10,
                                                modal.omega_c),
        "x_zpf_pm": state.x_zpf / PM,
        "x_zpf_m": state.x_zpf,
        "n_thermal": thermal_occupancy(spec.omega_10, temp),
        "temperature_mk": temp / MK,
        "energies_j": list(spec.energies),
    }
    return outputs, None


def cmd_sweep(cfg: RunConfig) -> tuple[dict, tuple]:
    si = cfg.si
    result = sweep(cfg.sweep_spec())
    flagged = int(np.count_nonzero(result.flag))
    outputs = {"rows": len(result), "flagged_rows": flagged,
               "length_points": si["sweep.length_points"],
               "x_points": si["sweep.x_points"]}
    return outputs, (list(SWEEP_COLUMNS),
                     CsvTable(result.axis_columns(), len(result)))


RESPONSE_COLUMNS = ("omega_over_2pi_hz", "re_reflection", "im_reflection",
                    "abs_reflection", "qubit_susc", "mech_susc", "mw_susc")


def cmd_cqad(cfg: RunConfig) -> tuple[dict, tuple]:
    *_, spec = cfg.design()
    chain = cfg.readout_chain(spec.omega_10)
    eff = adiabatic_elimination(chain)
    delta, chi, j_degenerate = dispersive_figures(chain, spec.eta)
    near = _near_resonance(delta, chain.g)
    if near:
        warnings.warn(f"{near}: chi and J diverge near resonance",
                      stacklevel=2)
    grid = np.linspace(cfg.si["cqad.probe_min_mhz"],
                       cfg.si["cqad.probe_max_mhz"],
                       cfg.si["cqad.probe_points"])
    resp = frequency_response(chain, grid)
    outputs = {
        "g_em_hz": cycles(eff.g_em),
        "g_em_parametric_khz": cycles(eff.g_em_parametric) / 1e3,
        "delta_mhz": cycles(eff.delta) / 1e6,
        "omega_m_shifted_mhz": cycles(eff.omega_m_shifted) / 1e6,
        "purcell_rate_hz": cycles(eff.purcell_rate),
        "total_damping_hz": cycles(eff.total_damping),
        "dispersive_delta_mhz": cycles(delta) / 1e6,
        "chi_khz": cycles(chi) / 1e3,
        "j_degenerate_khz": cycles(j_degenerate) / 1e3,
        "probe_points": int(grid.size),
        "max_abs_reflection": float(np.abs(resp.reflection).max()),
    }
    table = CsvTable((cycles(resp.frequencies),
                      resp.reflection.real, resp.reflection.imag,
                      np.abs(resp.reflection), resp.qubit_susceptibility,
                      resp.mech_susceptibility, resp.mw_susceptibility),
                     grid.size)
    return outputs, (list(RESPONSE_COLUMNS), table)


def cmd_oracle(cfg: RunConfig) -> tuple[dict, tuple | None]:
    si = cfg.si
    pot, modal, gap, state, spec = cfg.design()
    grid = GridSpec(half_width=si["oracle.grid_half_width_zpf"],
                    right_clip=si["oracle.grid_right_clip"],
                    points=si["oracle.grid_points"])
    v_q = total_potential(modal, pot, gap)
    result = grid_eigensolve(v_q, modal.effective_mass, grid,
                             si["oracle.n_levels"], x_zpf=state.x_zpf,
                             gap=gap, check_convergence=False)
    if result.convergence_estimate > GRID_CONVERGENCE_TOL:
        warnings.warn(f"grid doubling moved E2 - E0 by "
                      f"{result.convergence_estimate:.3e} relative (> "
                      f"{GRID_CONVERGENCE_TOL:g}): the grid levels have not "
                      "converged; raise oracle.grid_points", stacklevel=2)
    # dispersive cross-checks at the design's eta
    chain = cfg.readout_chain(spec.omega_10)
    delta, chi_formula, j_formula = dispersive_figures(chain, spec.eta)
    chi_oracle = jc_dispersive_oracle(spec.energies[:3],
                                      spec.omega_10 - abs(delta), chain.g)
    j_oracle = two_qubit_bus_oracle(spec.omega_10, spec.omega_10,
                                    spec.omega_10 + abs(delta), chain.g,
                                    chain.g)
    outputs = {
        "grid_points": grid.points,
        "grid_convergence_estimate": result.convergence_estimate,
        "grid_eigenvalues_j": list(result.eigenvalues),
        "omega_10_grid_mhz": cycles(result.omega_10) / 1e6,
        "omega_10_perturbative_mhz": cycles(spec.omega_10) / 1e6,
        "eta_grid_mhz": cycles(result.eta) / 1e6,
        "eta_perturbative_mhz": cycles(spec.eta) / 1e6,
        "chi_oracle_khz": cycles(chi_oracle) / 1e3,
        "chi_formula_khz": cycles(chi_formula) / 1e3,
        "j_oracle_khz": cycles(j_oracle) / 1e3,
        "j_formula_khz": cycles(j_formula) / 1e3,
    }
    return outputs, None


# each returns (outputs, (CSV header, CsvTable) or None for one CSV row);
# the table is what a command writes by default, else its JSON report
COMMANDS = {"bias": cmd_bias, "spectrum": cmd_spectrum, "sweep": cmd_sweep,
            "cqad": cmd_cqad, "oracle": cmd_oracle}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The ``afq`` argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="afq",
        description="Design and analysis toolkit for atomic-force "
                    "nanomechanical qubits")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in [("bias", "locate the bias point and report the "
                               "operating state"),
                      ("spectrum", "perturbative qubit spectrum for one design"),
                      ("sweep", "design-space scan over (length, gap)"),
                      ("cqad", "effective readout parameters and response "
                               "spectrum"),
                      ("oracle", "brute-force diagonalization cross-checks"),
                      ("validate", "run the full self-validation suite on "
                                   "the bundled design (ignores --config "
                                   "and --format; --out writes JSON)")]:
        p = sub.add_parser(name, help=doc, description=doc)
        p.add_argument("--config", default=None, metavar="PATH")
        p.add_argument("--out", default=None, metavar="PATH")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "validate":     # checks the bundled design only
        from .validate import run_validation_suite
        report = run_validation_suite()
        report["command"] = "validate"
        checks = report["checks"]
        text = "".join(f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}: "
                       f"{c['detail']}\n" for c in checks)
        text += (f"{report['passed']}/{len(checks)} checks passed in "
                 f"{report['runtime_s']:.1f} s\n")
        code = emit(text, "text", None, args.quiet, None,
                    int(report["failed"] > 0))
        return emit(report, "json", args.out, True, None, code)

    try:
        cfg = load_config(args.config) if args.config else default_config()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outputs, csv_payload = COMMANDS[args.command](cfg)
        non_finite = [k for k, v in outputs.items() if any(
            isinstance(x, float) and not np.isfinite(x)
            for x in (v if isinstance(v, list) else [v]))]
        if non_finite:      # NaN/Infinity is no JSON, nor a design figure
            raise DomainError(f"non-finite result: {', '.join(non_finite)}")
    except ConfigError as exc:
        print(f"afq: config error: {exc}", file=sys.stderr)
        return 2
    except AfqError as exc:
        print(f"afq: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:      # a count too large to allocate
        print(f"afq: {args.command}: out of memory: {exc}", file=sys.stderr)
        return 1
    fmt = args.format or ("json" if csv_payload is None else "csv")
    if csv_payload is None:     # the CSV is one row of the non-list outputs
        header = [k for k, v in outputs.items() if not isinstance(v, list)]
        csv_payload = header, CsvTable([([outputs[k]], 1) for k in header], 1)
    report = {"command": args.command, "version": __version__,
              "config": cfg.display, "outputs": outputs,
              "warnings": sorted(str(w.message) for w in caught),
              "status": "ok"}
    return emit(report, fmt, args.out, args.quiet, csv_payload, 0)


if __name__ == "__main__":
    raise SystemExit(main())
