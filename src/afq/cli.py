"""Command-line front end.

Subcommands: ``bias``, ``spectrum``, ``sweep``, ``cqad``, ``oracle``,
``validate``. All take ``--config PATH`` (omitted: the bundled headline
design), ``--out PATH``, ``--format csv|json`` and ``--quiet``;
``validate`` ignores ``--config`` and ``--format``, checks the bundled
design and writes JSON to ``--out``. Exit codes: 0 success, 1
physics/validation failure, 2 usage or config error.

Outputs are deterministic: identical (config, command) pairs produce
byte-identical files. A float CSV cell is exactly ``f"{x:.12e}"``: 13
significant digits (the 12th-power terms make lower precision lossy on
round-trip), ``nan``, ``inf`` or ``-inf``. Integer and flag cells and
the ``True``/``None`` cells of single-row reports are ``str()``. The
writer formats whole columns with numpy (:func:`emit_csv`).
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
from .cqad import (CqadConfig, adiabatic_elimination, bus_coupling,
                   dispersive_shift, frequency_response,
                   quality_factor_damping)
from .errors import AfqError, ConfigError, DomainError
from .explorer import SWEEP_COLUMNS, sweep
from .oracle import (GRID_CONVERGENCE_TOL, GridSpec, _near_resonance,
                     grid_eigensolve, jc_dispersive_oracle, total_potential,
                     two_qubit_bus_oracle)
from .spectrum import relative_frequency_shift, thermal_occupancy
from .units import ANGSTROM, MHZ, MK, NM, PM, cycles

# readout-mode frequency shift from the hybridization joint (design input)
JOINT_SHIFT_MHZ = -2.7


class CsvTable:
    """A CSV body held column by column; ``len()`` counts its data rows.

    Each column goes through ``np.asarray``, so one column holds one type:
    float64 columns print as ``f"{x:.12e}"``, any other with ``str()``.
    """

    def __init__(self, columns):
        self.columns = [np.asarray(c) for c in columns]

    def __len__(self):
        return len(self.columns[0])


# _POW10[k + 89] == 10**k, correctly rounded (float() of the literal)
_POW10 = np.array([float(f"1e{k}") for k in range(-89, 114)])


def _decimal_parts(x: np.ndarray):
    """13-digit mantissa, exponent and fallback mask of ``f"{v:.12e}"``.

    A finite normal ``v`` with ``10**e <= |v| < 10**(e+1)`` prints the
    mantissa ``round(m)``, ``m = |v| * 10**(12-e)``. With ``10**(12-e)``
    correctly rounded, the computed ``m`` is within ~2 ulp of the exact
    product: 2.2e-16 relative, at most 2.2e-3 absolute below 1e13. So
    ``rint(m)`` is the correctly rounded mantissa wherever ``m`` is more
    than a 1e-2 margin away from a half-integer, and the same bound covers
    ``e`` being one off at a decade edge. The mask marks what is left to
    Python's own formatter: those near-ties, 3-digit exponents and
    subnormals. Zeros, NaN and infinities get mantissa 0, exponent 0.
    """
    a = np.abs(x)
    normal = (a >= np.finfo(np.float64).tiny) & (a < np.inf)
    a = np.where(normal, a, 1.0)
    e = np.clip(np.floor(np.log10(a)), -100, 100).astype(np.int64)
    m = a * _POW10[101 - e]                    # _POW10[101 - e] == 10**(12-e)
    for step in (-1, 1):           # log10 can miss by one next to 10**e
        wrong = m < 1e12 if step < 0 else m >= 1e13
        e[wrong] += step
        m[wrong] = a[wrong] * _POW10[101 - e[wrong]]
    digits = np.rint(m)
    near_tie = np.abs(m - digits) > 0.5 - 1e-2
    carry = digits == 1e13                     # 9.99...97 rounds up a decade
    e[carry] += 1
    digits[carry] = 1e12
    fallback = (near_tie | (np.abs(e) > 99)) & normal
    fallback |= ~normal & (x != 0) & np.isfinite(x)          # subnormals
    keep = normal & ~fallback
    return (np.where(keep, digits, 0.0).astype(np.int64),
            np.where(keep, e, 0), fallback)


def _sci_cells(x: np.ndarray) -> np.ndarray:
    """``f"{v:.12e}"`` of each float64 in 1-D ``x``: (n, 20) uint8, NUL-padded.

    NaN and the infinities are spelled as Python spells them (``-nan``
    prints ``nan``); the cells :func:`_decimal_parts` cannot prove are
    formatted by Python.
    """
    mantissa, e, fallback = _decimal_parts(x)
    # layout: sign, d, '.', 12 digits, 'e', sign, 2 digits, NUL
    out = np.zeros((x.size, 20), np.uint8)
    out[:, 0] = np.where(np.signbit(x), ord("-"), 0)
    for pos in (14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 1):
        quotient = mantissa // 10
        out[:, pos] = mantissa - 10 * quotient + ord("0")
        mantissa = quotient
    out[:, 2] = ord(".")
    out[:, 15] = ord("e")
    out[:, 16] = np.where(e < 0, ord("-"), ord("+"))
    out[:, 17] = np.abs(e) // 10 + ord("0")
    out[:, 18] = np.abs(e) % 10 + ord("0")

    cells = out.view("S20").reshape(-1)
    cells[np.isnan(x)] = b"nan"
    cells[x == np.inf] = b"inf"
    cells[x == -np.inf] = b"-inf"
    cells[fallback] = [f"{v:.12e}".encode() for v in x[fallback].tolist()]
    return out


def _csv_rows(columns) -> str:
    """CSV lines of equal-length columns.

    Every cell gets a NUL-padded slot in one (rows, columns, width + 1)
    byte grid, its last byte the separator; dropping the NULs leaves the
    lines. All float64 columns go through :func:`_sci_cells` at once; any
    other column is ``str()`` of each cell (``astype("S")``).
    """
    rows = len(columns[0])
    floats = [j for j, col in enumerate(columns) if col.dtype == np.float64]
    texts = {j: col.astype("S") for j, col in enumerate(columns)
             if j not in floats}
    width = max([20] + [cells.itemsize for cells in texts.values()])
    grid = np.zeros((rows, len(columns), width + 1), np.uint8)
    if floats:
        x = np.stack([columns[j] for j in floats], axis=1).reshape(-1)
        grid[:, floats, :20] = _sci_cells(x).reshape(rows, len(floats), 20)
    for j, cells in texts.items():
        grid[:, j, :cells.itemsize] = cells.view(np.uint8).reshape(
            rows, cells.itemsize)
    grid[:, :, width] = ord(",")
    grid[:, -1, width] = ord("\n")
    return grid.tobytes().translate(None, b"\0").decode()


# Cells per block of rows: each numpy temporary stays near 128 KiB, which
# the allocator reuses. Whole-table temporaries (~1 MB at 10^4 x 12) go
# back to the OS and are page-faulted in again by every array operation.
_BLOCK_CELLS = 1 << 14


def emit_csv(header, table: CsvTable, stream) -> None:
    """Write ``header`` and the columns of ``table`` to ``stream`` as CSV.

    Rows are formatted column-wise in blocks of about ``_BLOCK_CELLS``
    cells. Nothing is quoted: header names and text cells hold no comma,
    quote or newline.
    """
    step = max(1, _BLOCK_CELLS // len(table.columns))
    stream.write(",".join(header) + "\n")
    for start in range(0, len(table), step):
        stream.write(_csv_rows([col[start:start + step]
                                for col in table.columns]))


def emit(report: dict, fmt: str, out_path, quiet: bool,
         csv_payload=None) -> None:
    """Write the run report, or the CSV payload when the format asks for it,
    straight to ``out_path`` or stdout."""
    if fmt == "csv" and csv_payload is not None:
        header, table = csv_payload
        write = lambda stream: emit_csv(header, table, stream)
    else:
        text = json.dumps(report, indent=2, default=_json_default) + "\n"
        write = lambda stream: stream.write(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            write(fh)
        if not quiet:
            print(out_path)
    elif not quiet:
        write(sys.stdout)


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


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
        "delta_omega": relative_frequency_shift(spec, modal),
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
    return outputs, (list(SWEEP_COLUMNS), CsvTable(result.columns()))


def _cqad_config(cfg: RunConfig, spec) -> CqadConfig:
    si = cfg.si
    omega_q = si["cqad.omega_q_mhz"]
    if omega_q is None:
        omega_q = spec.omega_10
    omega_m = si["cqad.omega_m_mhz"]
    omega_d = si["cqad.omega_d_ghz"]
    if omega_d is None:
        omega_d = si["cqad.omega_r_ghz"] - omega_m  # red-detuned, delta = 0
    return CqadConfig(
        omega_q=omega_q, omega_m=omega_m, omega_r=si["cqad.omega_r_ghz"],
        omega_d=omega_d, g=si["cqad.g_mhz"],
        qubit_damping=quality_factor_damping(omega_q, si["cqad.qubit_quality"]),
        mech_damping=quality_factor_damping(omega_m, si["cqad.mech_quality"]),
        kappa_i=si["cqad.kappa_i_mhz"], kappa_e=si["cqad.kappa_e_mhz"],
        n_d=si["cqad.drive_photons"], participation=si["cqad.participation"],
        gap=si["cqad.gap_nm"], readout_x_zpf=si["cqad.readout_x_zpf_fm"])


def _dispersive_detuning(chain: CqadConfig) -> float:
    """Readout-mode minus qubit frequency (rad/s), the readout mode shifted by
    the hybridization joint (``JOINT_SHIFT_MHZ``). ``afq cqad`` reports it
    signed; it and ``afq oracle`` evaluate chi and J at its magnitude."""
    return chain.omega_m + JOINT_SHIFT_MHZ * MHZ - chain.omega_q


RESPONSE_COLUMNS = ("omega_over_2pi_hz", "re_reflection", "im_reflection",
                    "abs_reflection", "qubit_susc", "mech_susc", "mw_susc")


def cmd_cqad(cfg: RunConfig) -> tuple[dict, tuple]:
    *_, spec = cfg.design()
    chain = _cqad_config(cfg, spec)
    eff = adiabatic_elimination(chain)
    delta = _dispersive_detuning(chain)
    near = _near_resonance(delta, chain.g)
    if near:
        warnings.warn(f"{near}: chi and J diverge near resonance",
                      stacklevel=2)
    chi = dispersive_shift(chain.g, spec.eta, abs(delta))
    j_degenerate = bus_coupling(chain.g, chain.g, abs(delta), abs(delta))
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
                      resp.mech_susceptibility, resp.mw_susceptibility))
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
    chain = _cqad_config(cfg, spec)
    delta = abs(_dispersive_detuning(chain))
    chi_oracle = jc_dispersive_oracle(spec.energies[:3], spec.omega_10 - delta,
                                      chain.g)
    chi_formula = dispersive_shift(chain.g, spec.eta, delta)
    j_oracle = two_qubit_bus_oracle(spec.omega_10, spec.omega_10,
                                    spec.omega_10 + delta, chain.g, chain.g)
    j_formula = bus_coupling(chain.g, chain.g, delta, delta)
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


# each returns (outputs, (CSV header, CsvTable) or None for one CSV row)
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
        report = run_validation_suite(quiet=args.quiet)
        report["command"] = "validate"
        return _write(report, "json", args.out, True, None,
                      0 if report["failed"] == 0 else 1)

    fmt = args.format or ("csv" if args.command in ("sweep", "cqad") else "json")
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
    if csv_payload is None:     # the CSV is one row of the non-list outputs
        header = [k for k, v in outputs.items() if not isinstance(v, list)]
        csv_payload = header, CsvTable([outputs[k]] for k in header)
    report = {"command": args.command, "version": __version__,
              "config": cfg.display, "outputs": outputs,
              "warnings": sorted(str(w.message) for w in caught),
              "status": "ok"}
    return _write(report, fmt, args.out, args.quiet, csv_payload, 0)


def _write(report, fmt, out_path, quiet, csv_payload, code) -> int:
    """:func:`emit`, then ``code``; 2 (usage error) when the output cannot
    be written."""
    try:
        emit(report, fmt, out_path, quiet, csv_payload=csv_payload)
    except OSError as exc:
        print(f"afq: cannot write {out_path or '<stdout>'}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
