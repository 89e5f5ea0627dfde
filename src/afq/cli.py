"""Command-line front end.

Subcommands: ``bias``, ``spectrum``, ``sweep``, ``cqad``, ``oracle``,
``validate``. All take ``--config PATH`` (omitted: the bundled headline
design), ``--out PATH``, ``--format csv|json`` and ``--quiet``. Exit
codes: 0 success, 1 physics/validation failure, 2 usage or config error.

Outputs are deterministic: identical (config, command) pairs produce
byte-identical files. CSV cells carry 13 significant digits (the
12th-power terms make lower precision lossy on round-trip).
"""

from __future__ import annotations

import argparse
import csv
import io
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
from .errors import AfqError, ConfigError
from .explorer import SWEEP_COLUMNS, sweep
from .oracle import (GridSpec, grid_eigensolve, jc_dispersive_oracle,
                     total_potential, two_qubit_bus_oracle)
from .spectrum import relative_frequency_shift, thermal_occupancy
from .units import ANGSTROM, MHZ, MK, NM, PM, cycles, hbar

# readout-mode frequency shift from the hybridization joint (design input)
JOINT_SHIFT_MHZ = -2.7


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.12e}"
    return str(value)


def emit_csv(header, rows, stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])


def emit(report: dict, fmt: str, out_path, quiet: bool,
         csv_payload=None) -> None:
    """Write the run report (and CSV payload when the format asks for it)."""
    if fmt == "csv" and csv_payload is not None:
        header, rows = csv_payload
        buf = io.StringIO()
        emit_csv(header, rows, buf)
        text = buf.getvalue()
    else:
        text = json.dumps(report, indent=2, default=_json_default) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        if not quiet:
            print(out_path)
    elif not quiet:
        sys.stdout.write(text)


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def cmd_bias(cfg: RunConfig, args) -> tuple[dict, tuple | None]:
    pot, modal, gap, state, _ = cfg.design()
    snap = snap_in_threshold(modal, pot, (1.15 * pot.sigma, 2.0 * pot.sigma))
    outputs = {
        "auto_bias": cfg.display["bias.auto"],
        "gap_angstrom": gap / ANGSTROM,
        "gap_over_sigma": gap / pot.sigma,
        "equilibrium_offset_nm": state.equilibrium_offset / NM,
        "lj_stiffness_n_m": state.lj_stiffness,
        "k_eff_n_m": state.effective_stiffness,
        "omega_eff_mhz": cycles(state.omega_eff) / 1e6,
        "x_zpf_pm": state.x_zpf / PM,
        "snap_in_gap_angstrom": None if snap is None else snap / ANGSTROM,
    }
    header = list(outputs)
    return outputs, (header, [[outputs[k] for k in header]])


def cmd_spectrum(cfg: RunConfig, args) -> tuple[dict, tuple | None]:
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
        "alpha_coeffs_j": list(spec.alpha_coeffs),
    }
    header = [k for k in outputs if not isinstance(outputs[k], list)]
    row = [outputs[k] for k in header]
    return outputs, (header, [row])


def cmd_sweep(cfg: RunConfig, args) -> tuple[dict, tuple]:
    si = cfg.si
    result = sweep(cfg.sweep_spec())
    rows = list(zip(*result.columns()))
    flagged = int(np.count_nonzero(result.flag))
    outputs = {"rows": len(result), "flagged_rows": flagged,
               "length_points": si["sweep.length_points"],
               "x_points": si["sweep.x_points"]}
    return outputs, (list(SWEEP_COLUMNS), rows)


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


RESPONSE_COLUMNS = ("omega_over_2pi_hz", "re_reflection", "im_reflection",
                    "abs_reflection", "qubit_susc", "mech_susc", "mw_susc")


def cmd_cqad(cfg: RunConfig, args) -> tuple[dict, tuple]:
    *_, spec = cfg.design()
    chain = _cqad_config(cfg, spec)
    eff = adiabatic_elimination(chain)
    # dispersive figures against the joint-shifted readout mode
    omega_m_disp = chain.omega_m + JOINT_SHIFT_MHZ * MHZ
    delta = omega_m_disp - chain.omega_q
    chi = dispersive_shift(chain.g, spec.eta, delta)
    j_degenerate = bus_coupling(chain.g, chain.g, delta, delta)
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
    rows = list(zip(cycles(resp.frequencies),
                    resp.reflection.real, resp.reflection.imag,
                    np.abs(resp.reflection), resp.qubit_susceptibility,
                    resp.mech_susceptibility, resp.mw_susceptibility))
    return outputs, (list(RESPONSE_COLUMNS), rows)


def cmd_oracle(cfg: RunConfig, args) -> tuple[dict, tuple | None]:
    pot, modal, gap, state, spec = cfg.design()
    si = cfg.si
    grid = GridSpec(half_width=si["oracle.grid_half_width_zpf"],
                    right_clip=si["oracle.grid_right_clip"],
                    points=si["oracle.grid_points"])
    v_q = total_potential(modal, pot, gap)
    result = grid_eigensolve(v_q, modal.effective_mass, grid,
                             si["oracle.n_levels"], x_zpf=state.x_zpf,
                             gap=gap, check_convergence=False)
    ev = np.array(result.eigenvalues)
    w10_grid = (ev[1] - ev[0]) / hbar
    eta_grid = (ev[2] - 2 * ev[1] + ev[0]) / hbar
    # dispersive cross-checks at the design's eta
    chain = _cqad_config(cfg, spec)
    omega_m_disp = chain.omega_m + JOINT_SHIFT_MHZ * MHZ
    delta = abs(omega_m_disp - chain.omega_q)
    levels = (0.0, spec.energies[1] - spec.energies[0],
              spec.energies[2] - spec.energies[0])
    chi_oracle = jc_dispersive_oracle(levels, spec.omega_10 - delta, chain.g)
    chi_formula = dispersive_shift(chain.g, spec.eta, delta)
    j_oracle = two_qubit_bus_oracle(spec.omega_10, spec.omega_10,
                                    spec.omega_10 + delta, chain.g, chain.g)
    j_formula = bus_coupling(chain.g, chain.g, delta, delta)
    outputs = {
        "grid_points": grid.points,
        "grid_convergence_estimate": result.convergence_estimate,
        "grid_eigenvalues_j": ev.tolist(),
        "omega_10_grid_mhz": cycles(w10_grid) / 1e6,
        "omega_10_perturbative_mhz": cycles(spec.omega_10) / 1e6,
        "eta_grid_mhz": cycles(eta_grid) / 1e6,
        "eta_perturbative_mhz": cycles(spec.eta) / 1e6,
        "chi_oracle_khz": cycles(chi_oracle) / 1e3,
        "chi_formula_khz": cycles(chi_formula) / 1e3,
        "j_oracle_khz": cycles(j_oracle) / 1e3,
        "j_formula_khz": cycles(j_formula) / 1e3,
    }
    header = [k for k in outputs if not isinstance(outputs[k], list)]
    return outputs, (header, [[outputs[k] for k in header]])


COMMANDS = {"bias": cmd_bias, "spectrum": cmd_spectrum, "sweep": cmd_sweep,
            "cqad": cmd_cqad, "oracle": cmd_oracle}


def parse_cli(argv):
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
                      ("validate", "run the full self-validation suite")]:
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", default=None, metavar="PATH")
        p.add_argument("--out", default=None, metavar="PATH")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--quiet", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_cli(argv)
    try:
        cfg = load_config(args.config) if args.config else default_config()
    except ConfigError as exc:
        print(f"afq: config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        from .validate import run_validation_suite
        report = run_validation_suite(quiet=args.quiet)
        report["command"] = "validate"
        if args.out:
            emit(report, "json", args.out, quiet=True)
        return 0 if report["failed"] == 0 else 1

    fmt = args.format or ("csv" if args.command in ("sweep", "cqad") else "json")
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outputs, csv_payload = COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"afq: config error: {exc}", file=sys.stderr)
        return 2
    except AfqError as exc:
        print(f"afq: {exc}", file=sys.stderr)
        return 1
    report = {"command": args.command, "version": __version__,
              "config": cfg.display, "outputs": outputs,
              "warnings": sorted(str(w.message) for w in caught),
              "status": "ok"}
    emit(report, fmt, args.out, args.quiet, csv_payload=csv_payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
