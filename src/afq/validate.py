"""Self-validation suite: every acceptance-grade check with its tolerance.

Each check returns a :class:`Check` with the measured numbers in the
detail string; the CLI ``validate`` subcommand writes one line per check
and exits nonzero if any fail. The same functions back the acceptance
test module, so the tolerances live in exactly one place.

Two checks are expected to fail on the headline design and are kept
honest rather than loosened:

* ``grid_oracle_agreement``: the exact effective potential is metastable
  at the curvature-free bias point (the cubic Taylor term moves the
  escape barrier inside the zero-point spread), so brute-force
  diagonalization cannot reproduce the odd-order-free perturbative
  ladder there. README "Known physics findings" has the numbers.
* ``sweep_argmax_at_bias_point``: for short, stiff cantilevers the
  signed-stiffness model keeps designs past the bias point stable, where
  the anharmonicity formula keeps growing; the per-length ridge then
  sits beyond the curvature-free gap.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass

import numpy as np

from .cantilever import CantileverGeometry, snap_in_threshold
from .cli import CsvTable, emit_csv
from .config import default_config
from .cqad import (CqadConfig, adiabatic_elimination, bus_coupling,
                   dispersive_shift, frequency_response, response_linewidth)
from .explorer import SWEEP_COLUMNS, FLAG_OK, sweep
from .oracle import (GRID_CONVERGENCE_TOL, GridSpec, fock_matrix_element,
                     grid_eigensolve, jc_dispersive_oracle, total_potential,
                     two_qubit_bus_oracle)
from .potential import find_bias_point
from .spectrum import thermal_occupancy
from .units import MHZ, PM, cycles, hbar

# occupancy comparisons carry the suite-wide +/- 0.05 band (the bound
# "n_th <= 1.0" is read at the same precision as the 1.01 +/- 0.05 check)
OCCUPANCY_TOL = 0.05


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str

    def __post_init__(self):    # numpy comparisons give numpy.bool
        object.__setattr__(self, "passed", bool(self.passed))


def check_bias_point() -> Check:
    pot = default_config().potential()
    found = find_bias_point(pot)
    closed = pot.inflection
    rel = abs(found / closed - 1.0)
    return Check("bias_point_closed_form", rel <= 1e-9,
                 f"x0 = {found / pot.sigma:.9f} sigma vs (26/7)^(1/6) = "
                 f"{closed / pot.sigma:.9f} sigma, rel err {rel:.2e} (tol 1e-9)")


def check_potential_derivatives() -> Check:
    pot = default_config().potential()
    xs = np.linspace(1.05 * pot.sigma, 3.0 * pot.sigma, 61)
    worst = 0.0
    h = 1e-3 * pot.sigma
    for n in range(1, 9):
        # 5-point central difference of the (n-1)th derivative
        a, b, c, d = (pot.derivative(xs + k * h, n - 1) for k in (-2, -1, 1, 2))
        fd = (a - 8 * b + 8 * c - d) / (12 * h)
        rel = np.abs(fd / pot.derivative(xs, n) - 1.0)
        worst = max(worst, float(rel.max()))
    return Check("potential_derivatives_vs_fd", worst <= 1e-6,
                 f"max rel deviation over n<=8, x in [1.05, 3] sigma: "
                 f"{worst:.2e} (tol 1e-6)")


def check_modal_identity() -> Check:
    _, modal, *_ = default_config().operating_point()
    rel = abs(modal.effective_mass * modal.omega_c**2
              / modal.spring_constant - 1.0)
    return Check("modal_mass_identity", rel <= 1e-14,
                 f"|m_eff w_c^2 / k - 1| = {rel:.2e} (tol 1e-14)")


def check_headline_design() -> Check:
    start = time.perf_counter()
    _, modal, _, state, spec = default_config().design()
    fc = cycles(modal.omega_c) / 1e6
    f10 = cycles(spec.omega_10) / 1e6
    feta = cycles(spec.eta) / 1e6
    xz = state.x_zpf / PM
    elapsed = time.perf_counter() - start
    ok = (abs(fc - 55.0) <= 1.0 and abs(xz - 2.14) <= 0.02
          and abs(f10 - 60.0) <= 1.0 and abs(spec.eta_r - 0.089) <= 0.003
          and 5.0 <= feta <= 5.5 and elapsed < 1.0)
    return Check("headline_design", ok,
                 f"f_c = {fc:.3f} MHz (55±1), x_zpf = {xz:.4f} pm (2.14±0.02), "
                 f"f_10 = {f10:.3f} MHz (60±1), eta_r = {spec.eta_r:.4f} "
                 f"(0.089±0.003), eta = {feta:.3f} MHz (5.0..5.5), "
                 f"{elapsed * 1e3:.0f} ms (< 1 s)")


def check_thermal_occupancy() -> Check:
    n60 = thermal_occupancy(60.0 * MHZ, 8e-3)
    n115 = thermal_occupancy(115.0 * MHZ, 8e-3)
    ok = abs(n60 - 2.30) <= OCCUPANCY_TOL and abs(n115 - 1.01) <= OCCUPANCY_TOL
    return Check("thermal_occupancy", ok,
                 f"n(60 MHz, 8 mK) = {n60:.4f} (2.30±0.05), "
                 f"n(115 MHz, 8 mK) = {n115:.4f} (1.01±0.05)")


def check_alternative_designs() -> Check:
    cfg = default_config()
    *_, spec_a = cfg.design(CantileverGeometry(345e-9, 10e-9, 12e-9))
    *_, spec_b = cfg.design(CantileverGeometry(457e-9, 18e-9, 24e-9))
    nth_a = thermal_occupancy(spec_a.omega_10, 8e-3)
    nth_b = thermal_occupancy(spec_b.omega_10, 8e-3)
    f10_a = cycles(spec_a.omega_10) / 1e6
    ok_a = (f10_a >= 115.0 and nth_a <= 1.0 + OCCUPANCY_TOL
            and abs(spec_a.eta_r - 0.023) <= 0.005)
    ok_b = nth_b <= 1.0 + OCCUPANCY_TOL and spec_b.eta_r <= 0.0015
    return Check("alternative_designs", ok_a and ok_b,
                 f"(10,12,345): f_10 = {f10_a:.2f} MHz (>=115), n_th = "
                 f"{nth_a:.4f} (<=1.0+{OCCUPANCY_TOL}), eta_r = "
                 f"{spec_a.eta_r:.4f} (2.3%±0.5pt); (18,24,457): n_th = "
                 f"{nth_b:.4f} (<=1.0+{OCCUPANCY_TOL}), eta_r = "
                 f"{spec_b.eta_r:.5f} (<=0.15%)")


def check_grid_oracle_agreement() -> Check:
    start = time.perf_counter()
    pot, modal, gap, state, spec = default_config().design()
    v_q = total_potential(modal, pot, gap)
    result = grid_eigensolve(v_q, modal.effective_mass, GridSpec(), 3,
                             x_zpf=state.x_zpf, gap=gap,
                             check_convergence=False)
    w10, eta = result.omega_10, result.eta
    dev_w = abs(w10 / spec.omega_10 - 1.0)
    dev_e = abs(eta / spec.eta - 1.0)
    elapsed = time.perf_counter() - start
    ok = (dev_w <= 0.01 and dev_e <= 0.03 and elapsed < 10.0
          and result.convergence_estimate <= GRID_CONVERGENCE_TOL)
    return Check("grid_oracle_agreement", ok,
                 f"f_10: grid {cycles(w10) / 1e6:.3f} vs perturbative "
                 f"{cycles(spec.omega_10) / 1e6:.3f} MHz (dev {dev_w:.2e}, "
                 f"tol 1e-2); eta: grid {cycles(eta) / 1e6:.3f} vs "
                 f"{cycles(spec.eta) / 1e6:.3f} MHz (dev {dev_e:.2e}, tol "
                 f"3e-2); convergence {result.convergence_estimate:.1e} "
                 f"(tol 1e-4); {elapsed:.2f} s (< 10 s)")


def check_matrix_elements() -> Check:
    worst = 0.0
    for n in range(6):
        e4 = fock_matrix_element(n, 4)
        e6 = fock_matrix_element(n, 6)
        worst = max(worst, abs(e4 - (6 * n**2 + 6 * n + 3)),
                    abs(e6 - (20 * n**3 + 30 * n**2 + 40 * n + 15)))
    return Check("fock_matrix_elements", worst <= 1e-9,
                 f"max |deviation| from 6n^2+6n+3 and 20n^3+30n^2+40n+15 "
                 f"for n = 0..5: {worst:.2e} (tol 1e-9)")


def _readout_config(delta_r_frac: float, g_big_over_delta_r: float,
                    kappa_frac: float) -> CqadConfig:
    omega_m = 67.0 * MHZ
    omega_r = 5e9 * 6.283185307179586
    delta_r = delta_r_frac * omega_m
    big_g = g_big_over_delta_r * delta_r
    participation, gap = 0.5, 60e-9
    x_zpf = 2.0 * gap * big_g / (participation * omega_r)  # n_d = 1
    return CqadConfig(omega_q=60.0 * MHZ, omega_m=omega_m, omega_r=omega_r,
                      omega_d=omega_r - delta_r, g=0.0, qubit_damping=0.0,
                      mech_damping=2e-6 * omega_m,
                      kappa_i=0.5 * kappa_frac * omega_m,
                      kappa_e=0.5 * kappa_frac * omega_m, n_d=1.0,
                      participation=participation, gap=gap,
                      readout_x_zpf=x_zpf)


def check_effective_readout() -> Check:
    # on-resonance Purcell identity
    cfg0 = _readout_config(1.0, 1e-4, 0.05)
    eff0 = adiabatic_elimination(cfg0)
    ident = abs(eff0.purcell_rate * cfg0.kappa
                / (4.0 * eff0.g_em_parametric**2) - 1.0)
    # full 3-mode linewidth vs reduced model at G/D_r = 0.05, kappa/w_m = 0.05
    cfg = _readout_config(0.2, 0.05, 0.05)
    eff = adiabatic_elimination(cfg)
    span = 8.0 * eff.total_damping
    grid = np.linspace(eff.omega_m_shifted - span, eff.omega_m_shifted + span,
                       20001)
    fwhm = response_linewidth(frequency_response(cfg, grid))
    dev = abs(fwhm / eff.total_damping - 1.0)
    ok = ident <= 1e-12 and dev <= 0.05
    return Check("effective_readout", ok,
                 f"Gamma_e(delta=0) vs 4G^2/kappa rel err {ident:.1e} "
                 f"(tol 1e-12); 3-mode FWHM {cycles(fwhm):.2f} Hz vs "
                 f"Gamma_i+Gamma_e {cycles(eff.total_damping):.2f} Hz "
                 f"(dev {dev:.2%}, tol 5%)")


def check_dispersive_physics() -> Check:
    g = 1.0 * MHZ
    delta = 4.35 * MHZ
    j_formula = bus_coupling(g, g, delta, delta)
    j_band = abs(cycles(j_formula) / 1e6 - 0.23) <= 0.01
    # oracle agreement at g/Delta <= 0.1
    gs = 0.4 * MHZ
    j_small = bus_coupling(gs, gs, delta, delta)
    wq = 60.0 * MHZ
    j_oracle = two_qubit_bus_oracle(wq, wq, wq + delta, gs, gs)
    j_dev = abs(j_oracle / j_small - 1.0)
    # chi: formula magnitude vs JC diagonalization at g/Delta <= 0.15
    eta = 5.34 * MHZ
    d_chi = 4.3 * MHZ
    gc = 0.6 * MHZ
    chi_f = dispersive_shift(gc, eta, d_chi)
    levels = (0.0, hbar * wq, hbar * (2 * wq + eta))
    chi_o = jc_dispersive_oracle(levels, wq - d_chi, gc)
    chi_dev = abs(abs(chi_o) / abs(chi_f) - 1.0)
    chi_paper = abs(cycles(dispersive_shift(1.0 * MHZ, eta, d_chi))) / 1e3
    chi_band = 110.0 <= chi_paper <= 170.0
    ok = j_band and j_dev <= 0.10 and chi_dev <= 0.10 and chi_band
    return Check("dispersive_physics", ok,
                 f"J(formula) = {cycles(j_formula) / 1e6:.4f} MHz (0.23±0.01); "
                 f"bus oracle dev {j_dev:.2%} at g/D = 0.092 (tol 10%); "
                 f"|chi| oracle-vs-formula dev {chi_dev:.2%} at g/D = 0.14 "
                 f"(tol 10%, magnitudes: signs differ for hardening "
                 f"anharmonicity); |chi| = {chi_paper:.1f} kHz (110..170)")


def check_design_sweep() -> Check:
    start = time.perf_counter()
    spec = default_config().sweep_spec()
    result = sweep(spec)
    elapsed = time.perf_counter() - start
    n_l = len(spec.lengths)      # the (L, x) grid, one length per row
    gap, eta_r, flag = (a.reshape(n_l, -1)
                        for a in (result.gap, result.eta_r, result.flag))
    nearest = int(np.argmin(np.abs(gap[0] - spec.potential.inflection)))
    with np.errstate(invalid="ignore"):
        argmax = np.nanargmax(np.where(flag == FLAG_OK, eta_r, np.nan), axis=1)
    bad = np.nonzero(argmax != nearest)[0]
    col = eta_r[:, nearest]
    monotone = bool(np.all(np.diff(col) > 0))
    table = CsvTable(result.axis_columns(), len(result))
    bufs = []
    for _ in range(2):
        buf = io.StringIO()
        emit_csv(list(SWEEP_COLUMNS), table, buf)
        bufs.append(buf.getvalue())
    identical = bufs[0] == bufs[1]
    ok = (elapsed < 30.0 and bad.size == 0 and monotone and identical
          and len(result) == 10000)
    detail = (f"{len(result)} rows in {elapsed:.2f} s (< 30 s); per-L argmax "
              f"at nearest-x0 column violated for {bad.size}/{n_l} lengths")
    if bad.size:
        ls = np.asarray(spec.lengths)[bad] * 1e9
        detail += (f" (L = {ls.min():.0f}..{ls.max():.0f} nm: ridge rides "
                   "the snap-in edge past x0)")
    detail += (f"; eta_r monotone in L at x0-column: {monotone}; "
               f"byte-identical CSV: {identical}")
    return Check("sweep_argmax_at_bias_point", ok, detail)


def check_snap_in_diagnostic() -> Check:
    pot, modal, *_ = default_config().operating_point()
    x_snap = snap_in_threshold(modal, pot, (1.15 * pot.sigma, 2.0 * pot.sigma))
    if x_snap is None:
        return Check("snap_in_margin", False,
                     "no stability boundary in [1.15, 2.0] sigma")
    margin_pm = (x_snap - pot.inflection) / 1e-12
    return Check("snap_in_margin", 0.0 < margin_pm < 1.0,
                 f"stability boundary {x_snap / pot.sigma:.6f} sigma, "
                 f"{margin_pm:.3f} pm above the bias point (zero-point "
                 f"spread is 2.14 pm)")


ALL_CHECKS = (check_bias_point, check_potential_derivatives,
              check_modal_identity, check_headline_design,
              check_thermal_occupancy, check_alternative_designs,
              check_grid_oracle_agreement, check_matrix_elements,
              check_effective_readout, check_dispersive_physics,
              check_design_sweep, check_snap_in_diagnostic)


def run_validation_suite() -> dict:
    """Run every named check; returns a report dict with per-check results."""
    start = time.perf_counter()
    results = [fn() for fn in ALL_CHECKS]
    runtime = time.perf_counter() - start
    failed = sum(1 for c in results if not c.passed)
    return {"checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                       for c in results],
            "passed": len(results) - failed, "failed": failed,
            "runtime_s": runtime}
