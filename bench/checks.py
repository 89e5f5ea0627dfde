"""Correctness checks the benchmark applies to the program's outputs.

Each ``*_problem`` function returns None when the output is right and a
one-line description of what is wrong otherwise. The references are
in-harness library calls on the same configuration the program read.
"""

from __future__ import annotations

import hashlib
import io

import numpy as np

from afq import cli, validate
from afq.cantilever import bias_state, modal_params, snap_in_threshold
from afq.cqad import CqadConfig, frequency_response, quality_factor_damping
from afq.explorer import SWEEP_COLUMNS, SweepSpec, sweep
from afq.oracle import (GridSpec, grid_eigensolve, jc_dispersive_oracle,
                        total_potential, two_qubit_bus_oracle)
from afq.potential import taylor_coefficients
from afq.spectrum import perturbative_energies, thermal_occupancy
from afq.units import ANGSTROM, MHZ, PM, cycles, hbar

# `afq sweep` on the bundled design (ROADMAP item 1 gate)
DEFAULT_SWEEP_SHA256 = ("546b6239fb4910cabdc1de5c7ada38ae"
                        "9fa36db4a2f7c804ac23c349b8294b94")
DEFAULT_SWEEP_BYTES = 1_379_112
# the two deliberate acceptance failures (README "Known physics findings")
EXPECTED_VALIDATE_FAILURES = frozenset({"grid_oracle_agreement",
                                        "sweep_argmax_at_bias_point"})
# a parsed 13-significant-digit cell may differ from the exact value by
# half a unit in its last digit; the slack covers float parsing and
# round-half ties decided on the binary value
_HALF_UNIT = 0.5 + 1e-3
# JSON floats round-trip exactly; the slack covers BLAS reduction order
JSON_RTOL = 1e-9

HEADLINE = {"omega_10_mhz": (60.0, 1), "eta_mhz": (5.37, 2)}


def digest_problem(data: bytes) -> str | None:
    """The default-config sweep CSV must be byte-identical to the gate."""
    digest = hashlib.sha256(data).hexdigest()
    if len(data) != DEFAULT_SWEEP_BYTES or digest != DEFAULT_SWEEP_SHA256:
        return (f"default sweep CSV is {len(data)} bytes, sha256 "
                f"{digest[:12]}..; expected {DEFAULT_SWEEP_BYTES} bytes, "
                f"sha256 {DEFAULT_SWEEP_SHA256[:12]}..")
    return None


def columns_problem(text: str, header, columns) -> str | None:
    """CSV ``text`` must parse back to ``columns`` at 13 significant digits."""
    first, _, body = text.partition("\n")
    if first.split(",") != list(header):
        return f"CSV header {first[:60]!r} differs from {list(header)}"
    rows = body.count("\n")
    if rows != len(columns[0]):
        return f"CSV has {rows} rows, expected {len(columns[0])}"
    parsed = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    for j, name in enumerate(header):
        got, want = parsed[:, j], np.asarray(columns[j], dtype=float)
        nan = np.isnan(want)
        if not np.array_equal(nan, np.isnan(got)):
            return f"column {name}: NaN cells differ"
        got, want = got[~nan], want[~nan]
        with np.errstate(divide="ignore"):
            exp10 = np.floor(np.log10(np.abs(got)))
        unit = np.where(got == 0, 0.0, 10.0 ** (exp10 - 12))
        bad = np.abs(got - want) > _HALF_UNIT * unit
        if bad.any():
            i = int(np.argmax(bad))
            return (f"column {name}: {got[i]!r} is not {want[i]!r} at 13 "
                    "significant digits")
    return None


def sweep_spec(cfg) -> SweepSpec:
    """The grid `afq sweep` evaluates for config ``cfg``."""
    si = cfg.si
    return SweepSpec(
        lengths=tuple(np.linspace(si["sweep.length_min_nm"],
                                  si["sweep.length_max_nm"],
                                  si["sweep.length_points"])),
        gaps_over_sigma=tuple(np.linspace(si["sweep.x_over_sigma_min"],
                                          si["sweep.x_over_sigma_max"],
                                          si["sweep.x_points"])),
        width=si["cantilever.width_nm"], thickness=si["cantilever.thickness_nm"],
        material=cfg.material(), potential=cfg.potential(),
        temperature=si["sweep.temperature_mk"])


def sweep_csv_problem(text: str, cfg) -> str | None:
    return columns_problem(text, SWEEP_COLUMNS, sweep(sweep_spec(cfg)).columns())


def design_chain(cfg):
    """modal -> bias -> Taylor -> ladder for one configured design."""
    pot = cfg.potential()
    modal = modal_params(cfg.geometry(), cfg.material())
    gap = cfg.bias_gap(pot)
    state = bias_state(modal, pot, gap)
    spec = perturbative_energies(state, taylor_coefficients(pot, gap, 6),
                                 n_max=cfg.si["spectrum.n_max"])
    return pot, modal, gap, state, spec


def readout_chain(cfg, spec) -> CqadConfig:
    """The cQAD chain of a configured design (qubit at its own omega_10)."""
    si = cfg.si
    omega_q = si["cqad.omega_q_mhz"]
    if omega_q is None:
        omega_q = spec.omega_10
    omega_m = si["cqad.omega_m_mhz"]
    omega_d = si["cqad.omega_d_ghz"]
    if omega_d is None:
        omega_d = si["cqad.omega_r_ghz"] - omega_m
    return CqadConfig(
        omega_q=omega_q, omega_m=omega_m, omega_r=si["cqad.omega_r_ghz"],
        omega_d=omega_d, g=si["cqad.g_mhz"],
        qubit_damping=quality_factor_damping(omega_q, si["cqad.qubit_quality"]),
        mech_damping=quality_factor_damping(omega_m, si["cqad.mech_quality"]),
        kappa_i=si["cqad.kappa_i_mhz"], kappa_e=si["cqad.kappa_e_mhz"],
        n_d=si["cqad.drive_photons"], participation=si["cqad.participation"],
        gap=si["cqad.gap_nm"], readout_x_zpf=si["cqad.readout_x_zpf_fm"])


def response_csv_problem(text: str, cfg) -> str | None:
    *_, spec = design_chain(cfg)
    si = cfg.si
    grid = np.linspace(si["cqad.probe_min_mhz"], si["cqad.probe_max_mhz"],
                       si["cqad.probe_points"])
    resp = frequency_response(readout_chain(cfg, spec), grid)
    cols = (cycles(resp.frequencies), resp.reflection.real,
            resp.reflection.imag, np.abs(resp.reflection),
            resp.qubit_susceptibility, resp.mech_susceptibility,
            resp.mw_susceptibility)
    return columns_problem(text, cli.RESPONSE_COLUMNS, cols)


def expected_bias(cfg) -> dict:
    pot, modal, gap, state, _ = design_chain(cfg)
    snap = snap_in_threshold(modal, pot, (1.15 * pot.sigma, 2.0 * pot.sigma))
    return {"gap_angstrom": gap / ANGSTROM,
            "k_eff_n_m": state.effective_stiffness,
            "x_zpf_pm": state.x_zpf / PM,
            "snap_in_gap_angstrom": None if snap is None else snap / ANGSTROM}


def expected_spectrum(cfg) -> dict:
    _, modal, gap, state, spec = design_chain(cfg)
    return {"gap_m": gap, "omega_c_rad_s": modal.omega_c,
            "omega_10_rad_s": spec.omega_10, "eta_rad_s": spec.eta,
            "eta_r": spec.eta_r, "x_zpf_m": state.x_zpf,
            "n_thermal": thermal_occupancy(
                spec.omega_10, cfg.si["spectrum.temperature_mk"])}


def expected_oracle(cfg) -> dict:
    """Oracle figures; raises LabelingError where the CLI must refuse."""
    pot, modal, gap, state, spec = design_chain(cfg)
    si = cfg.si
    grid = GridSpec(half_width=si["oracle.grid_half_width_zpf"],
                    right_clip=si["oracle.grid_right_clip"],
                    points=si["oracle.grid_points"])
    ev = grid_eigensolve(total_potential(modal, pot, gap),
                         modal.effective_mass, grid, si["oracle.n_levels"],
                         x_zpf=state.x_zpf, gap=gap,
                         check_convergence=False).eigenvalues
    chain = readout_chain(cfg, spec)
    delta = abs(chain.omega_m + cli.JOINT_SHIFT_MHZ * MHZ - chain.omega_q)
    levels = (0.0, spec.energies[1] - spec.energies[0],
              spec.energies[2] - spec.energies[0])
    chi = jc_dispersive_oracle(levels, spec.omega_10 - delta, chain.g)
    j = two_qubit_bus_oracle(spec.omega_10, spec.omega_10,
                             spec.omega_10 + delta, chain.g, chain.g)
    return {"omega_10_grid_mhz": cycles((ev[1] - ev[0]) / hbar) / 1e6,
            "eta_grid_mhz": cycles((ev[2] - 2 * ev[1] + ev[0]) / hbar) / 1e6,
            "omega_10_perturbative_mhz": cycles(spec.omega_10) / 1e6,
            "chi_oracle_khz": cycles(chi) / 1e3,
            "j_oracle_khz": cycles(j) / 1e3}


def values_problem(outputs: dict, expected: dict,
                   rtol: float = JSON_RTOL) -> str | None:
    for key, want in expected.items():
        got = outputs.get(key)
        if want is None or got is None:
            if got is not want:
                return f"{key}: got {got!r}, expected {want!r}"
        elif not abs(got - want) <= rtol * abs(want):
            return f"{key}: got {got!r}, expected {want!r}"
    return None


def headline_problem(outputs: dict) -> str | None:
    """The bundled design still gives f_10 = 60.0 MHz and eta/2pi = 5.37 MHz."""
    for key, (want, digits) in HEADLINE.items():
        if round(outputs[key], digits) != want:
            return f"headline {key} = {outputs[key]!r}, expected {want}"
    return None


def validate_problem(returncode: int, stdout: str) -> str | None:
    """`afq validate` exits 1 with exactly the two deliberate failures."""
    failing = {line[5:].split(":", 1)[0] for line in stdout.splitlines()
               if line.startswith("FAIL ")}
    passing = [line for line in stdout.splitlines() if line.startswith("PASS ")]
    if returncode != 1 or failing != EXPECTED_VALIDATE_FAILURES:
        return (f"validate exited {returncode} with failing checks "
                f"{sorted(failing)}; expected exit 1 and "
                f"{sorted(EXPECTED_VALIDATE_FAILURES)}")
    ran, total = len(passing) + len(failing), len(validate.ALL_CHECKS)
    if ran != total:
        return f"validate ran {ran} checks, expected {total}"
    return None
