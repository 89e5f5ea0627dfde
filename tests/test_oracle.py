"""Brute-force validators: grid eigensolver, Fock machinery, JC and bus models."""

import warnings

import numpy as np
import pytest

from afq import (CantileverGeometry, GridSpec, LennardJones, MaterialParams,
                 bias_state, fock_eigensolve, fock_matrix_element,
                 grid_eigensolve, jc_dispersive_oracle, modal_params,
                 taylor_coefficients, total_potential, two_qubit_bus_oracle)
from afq.cqad import bus_coupling, dispersive_shift
from afq.errors import (DomainError, LabelingError, TruncationError)
from afq.units import MEV, ANGSTROM, MHZ, cycles, hbar

SILICON = MaterialParams(young_modulus=160e9, density=2329.0)
LJ = LennardJones(epsilon=17.4 * MEV, sigma=3.826 * ANGSTROM)
PAPER_MODAL = modal_params(CantileverGeometry(495e-9, 10e-9, 12e-9), SILICON)

M_EFF = PAPER_MODAL.effective_mass
OMEGA = PAPER_MODAL.omega_c
K_SPRING = PAPER_MODAL.spring_constant
X_ZPF = np.sqrt(hbar / (2 * M_EFF * OMEGA))
GAP = 100 * X_ZPF  # keeps the right clip out of the way in synthetic runs


def harmonic(dx):
    return 0.5 * K_SPRING * dx**2


def test_grid_harmonic_spectrum():
    res = grid_eigensolve(harmonic, M_EFF, GridSpec(), 3, x_zpf=X_ZPF, gap=GAP)
    exact = hbar * OMEGA * (np.arange(3) + 0.5)
    np.testing.assert_allclose(res.eigenvalues, exact, rtol=1e-6)
    assert res.convergence_estimate <= 1e-4


def test_grid_small_quartic_shift():
    # first-order shift of E_0 is 3 lam4 xz^4 (here 1e-4 hbar omega, small
    # enough that the 2nd-order correction stays inside the 1% band)
    lam4 = 1e-4 * hbar * OMEGA / X_ZPF**4
    res_h = grid_eigensolve(harmonic, M_EFF, GridSpec(), 1,
                            x_zpf=X_ZPF, gap=GAP)
    res_q = grid_eigensolve(lambda dx: harmonic(dx) + lam4 * dx**4, M_EFF,
                            GridSpec(), 1, x_zpf=X_ZPF, gap=GAP)
    shift = res_q.eigenvalues[0] - res_h.eigenvalues[0]
    assert shift == pytest.approx(3 * lam4 * X_ZPF**4, rel=0.01)


def test_grid_translation_invariance():
    c = 3.7 * X_ZPF

    def shifted(dx):
        return 0.5 * K_SPRING * (dx - c) ** 2

    base = grid_eigensolve(harmonic, M_EFF, GridSpec(), 4,
                           x_zpf=X_ZPF, gap=GAP)
    # same stencil on a domain translated with the potential
    spec = GridSpec()
    lo, hi = spec.domain(X_ZPF, GAP)
    from afq.oracle import _stencil_eigenvalues
    ev_t = (4 * _stencil_eigenvalues(shifted, M_EFF, lo + c, hi + c,
                                     2 * spec.points - 1, 4)
            - _stencil_eigenvalues(shifted, M_EFF, lo + c, hi + c,
                                   spec.points, 4)) / 3
    np.testing.assert_allclose(ev_t, base.eigenvalues, rtol=1e-8)


def test_grid_convergence_second_order():
    # doubling estimate shrinks ~4x per refinement (h^2 stencil)
    est = []
    for points in (1001, 2001):
        res = grid_eigensolve(harmonic, M_EFF, GridSpec(points=points), 3,
                              x_zpf=X_ZPF, gap=GAP)
        est.append(res.convergence_estimate)
    assert est[0] / est[1] == pytest.approx(4.0, abs=0.5)


def test_grid_right_clip_applies():
    spec = GridSpec(half_width=15.0, right_clip=0.9)
    lo, hi = spec.domain(1e-12, 10e-12)
    assert lo == -15e-12
    assert hi == 9e-12


def test_grid_validation():
    with pytest.raises(DomainError):
        GridSpec(points=200)
    with pytest.raises(DomainError):
        GridSpec(points=4000)
    with pytest.raises(DomainError):
        grid_eigensolve(harmonic, M_EFF, GridSpec(), 11, x_zpf=X_ZPF, gap=GAP)


def test_grid_nonconvergence_raises():
    from afq.errors import ConvergenceError
    with pytest.raises(ConvergenceError):
        grid_eigensolve(harmonic, M_EFF, GridSpec(points=201), 3,
                        x_zpf=X_ZPF, gap=GAP)


def test_ground_state_above_potential_minimum():
    res = grid_eigensolve(harmonic, M_EFF, GridSpec(), 3, x_zpf=X_ZPF,
                          gap=GAP)
    assert res.eigenvalues[0] > 0.0  # min of the harmonic well on the grid
    assert np.all(np.diff(res.eigenvalues) > 0)


def test_total_potential_zero_interaction_is_parabola():
    class _Zero:
        def value(self, x):
            return np.zeros_like(np.asarray(x, dtype=float)) + 0.0

        def derivative(self, x, n):
            return self.value(x)

    v_q = total_potential(PAPER_MODAL, _Zero(), 5 * ANGSTROM)
    dx = np.linspace(-5, 5, 11) * X_ZPF
    np.testing.assert_allclose(v_q(dx), 0.5 * K_SPRING * dx**2, atol=1e-40)


def test_total_potential_stationary_at_zero_and_walls():
    v_q = total_potential(PAPER_MODAL, LJ, LJ.inflection)
    h = 1e-3 * X_ZPF
    slope = (v_q(h) - v_q(-h)) / (2 * h)
    curv = (v_q(h) - 2 * v_q(0.0) + v_q(-h)) / h**2
    assert abs(slope) < 1e-6 * K_SPRING * X_ZPF  # linear terms cancel
    assert curv == pytest.approx(K_SPRING, rel=1e-3)
    # repulsive wall on the tip side
    assert v_q(0.99 * LJ.inflection) > v_q(0.0) + 1e4 * hbar * OMEGA


def test_full_potential_is_metastable_at_bias_point():
    # The quantitative reason the grid oracle cannot reproduce the
    # perturbative ladder at the headline design: the barrier against
    # escape (away from the tip) is only ~0.02 hbar omega high and sits
    # ~0.5 x_zpf from the minimum.
    v_q = total_potential(PAPER_MODAL, LJ, LJ.inflection)
    v0 = v_q(0.0)
    dx = np.linspace(-2.5e-12, -0.2e-12, 2001)
    barrier = (v_q(dx) - v0).max() / (hbar * OMEGA)
    assert 0.01 < barrier < 0.05
    assert v_q(-15 * X_ZPF) < v0 - 100 * hbar * OMEGA


@pytest.mark.parametrize("n", range(6))
def test_matrix_element_quartic(n):
    assert fock_matrix_element(n, 4, n + 12) == pytest.approx(
        6 * n**2 + 6 * n + 3, abs=1e-9)


@pytest.mark.parametrize("n", range(6))
def test_matrix_element_sextic(n):
    assert fock_matrix_element(n, 6, n + 15) == pytest.approx(
        20 * n**3 + 30 * n**2 + 40 * n + 15, abs=1e-9)


def test_matrix_element_quadratic_and_truncation():
    assert fock_matrix_element(0, 2, 12) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(TruncationError):
        fock_matrix_element(3, 6, 10)


def test_fock_eigensolve_matches_grid_on_polynomial_well():
    lam4 = 5e-4 * hbar * OMEGA / X_ZPF**4
    poly = {2: 0.5 * K_SPRING, 4: lam4}
    ev_fock = fock_eigensolve(M_EFF, OMEGA, poly, dim=80, n_levels=3)
    ev_grid = grid_eigensolve(lambda dx: 0.5 * K_SPRING * dx**2 + lam4 * dx**4,
                              M_EFF, GridSpec(), 3, x_zpf=X_ZPF, gap=GAP)
    np.testing.assert_allclose(ev_fock, ev_grid.eigenvalues, rtol=1e-7)


@pytest.mark.parametrize("dim", [120, 160])
def test_eighth_order_term_is_negligible_at_headline_design(dim):
    # the first-order ladder stops at lam6: adding lam8 to the even-order
    # polynomial moves the exact omega_10 by ~1.1e-7 relative
    x0 = LJ.inflection
    state = bias_state(PAPER_MODAL, LJ, x0)
    taylor = taylor_coefficients(LJ, x0, max_order=8)
    poly = {2: 0.5 * state.effective_stiffness, 4: taylor.lam(4),
            6: taylor.lam(6)}

    def omega_10(poly):
        ev = fock_eigensolve(M_EFF, state.omega_eff, poly, dim=dim,
                             n_levels=2)
        return (ev[1] - ev[0]) / hbar

    shift = omega_10({**poly, 8: taylor.lam(8)}) / omega_10(poly) - 1
    assert 0 < abs(shift) < 1e-6


# --- Jaynes-Cummings dispersive oracle -------------------------------------

W_Q = 60 * MHZ
ETA = 5.34 * MHZ
LEVELS = (0.0, hbar * W_Q, hbar * (2 * W_Q + ETA))


def test_jc_zero_coupling():
    chi = jc_dispersive_oracle(LEVELS, W_Q - 4.3 * MHZ, 0.0)
    assert abs(chi) < 1e-6  # rad/s; pure float noise of the diagonal solve


def test_jc_paper_neighborhood_magnitude():
    # frozen oracle value (this configuration sits outside the oracle's
    # own dispersive bound g/|Delta| = 0.23 > 0.2, hence the warning and
    # the widened magnitude band vs the closed form)
    with pytest.warns(UserWarning):
        chi = jc_dispersive_oracle(LEVELS, W_Q - 4.3 * MHZ, 1.0 * MHZ)
    assert cycles(chi) / 1e3 == pytest.approx(114.536, abs=0.1)
    formula = dispersive_shift(1.0 * MHZ, ETA, 4.3 * MHZ)
    assert abs(chi) / abs(formula) == pytest.approx(1.0, abs=0.15)
    # hardening anharmonicity: diagonalization and transmon-convention
    # closed form carry opposite signs
    assert chi * formula < 0


def test_jc_formula_agreement_in_dispersive_regime():
    # g/Delta = 0.14: magnitudes within 10%
    chi = jc_dispersive_oracle(LEVELS, W_Q - 4.3 * MHZ, 0.6 * MHZ)
    formula = dispersive_shift(0.6 * MHZ, ETA, 4.3 * MHZ)
    assert abs(chi / formula) == pytest.approx(1.0, abs=0.10)
    # g/Delta = 0.05: within 3%
    chi = jc_dispersive_oracle(LEVELS, W_Q - 4.3 * MHZ, 0.215 * MHZ)
    formula = dispersive_shift(0.215 * MHZ, ETA, 4.3 * MHZ)
    assert abs(chi / formula) == pytest.approx(1.0, abs=0.03)


def test_jc_g_squared_scaling():
    c1 = jc_dispersive_oracle(LEVELS, W_Q - 20 * MHZ, 1.0 * MHZ)
    c2 = jc_dispersive_oracle(LEVELS, W_Q - 20 * MHZ, 0.5 * MHZ)
    assert c1 / c2 == pytest.approx(4.0, rel=0.02)


def test_jc_truncation_stability():
    a = jc_dispersive_oracle(LEVELS, W_Q - 4.3 * MHZ, 0.6 * MHZ,
                             photon_truncation=12)
    b = jc_dispersive_oracle(LEVELS, W_Q - 4.3 * MHZ, 0.6 * MHZ,
                             photon_truncation=24)
    assert a == pytest.approx(b, rel=1e-9)


def test_jc_labeling_error_near_resonance():
    with pytest.raises(LabelingError):
        jc_dispersive_oracle(LEVELS, W_Q - 1.0 * MHZ, 1.0 * MHZ)
    with pytest.raises(DomainError):
        jc_dispersive_oracle(LEVELS, W_Q - 4.3 * MHZ, 0.5 * MHZ,
                             photon_truncation=5)


# --- two-qubit bus oracle ---------------------------------------------------

def test_bus_zero_coupling_levels_cross():
    assert two_qubit_bus_oracle(W_Q, W_Q, W_Q + 4.35 * MHZ, 0.0, 0.0) == 0.0


def test_bus_degenerate_paper_value():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        j = two_qubit_bus_oracle(W_Q, W_Q, W_Q + 4.35 * MHZ, 1.0 * MHZ,
                                 1.0 * MHZ)
    # frozen oracle value; the closed form gives 0.2299 MHz
    assert cycles(j) / 1e6 == pytest.approx(0.2095, abs=0.001)
    formula = bus_coupling(1.0 * MHZ, 1.0 * MHZ, 4.35 * MHZ, 4.35 * MHZ)
    assert cycles(formula) / 1e6 == pytest.approx(0.22989, abs=1e-4)
    assert j / formula == pytest.approx(1.0, abs=0.10)


def test_bus_formula_agreement_small_g():
    j = two_qubit_bus_oracle(W_Q, W_Q, W_Q + 4.35 * MHZ, 0.4 * MHZ, 0.4 * MHZ)
    formula = bus_coupling(0.4 * MHZ, 0.4 * MHZ, 4.35 * MHZ, 4.35 * MHZ)
    assert j / formula == pytest.approx(1.0, abs=0.10)


def test_bus_exchange_symmetry_dispersive():
    # genuine O((g/Delta)^2) asymmetry of the swept minimum; symmetric
    # within 1% deep in the dispersive regime
    ja = two_qubit_bus_oracle(W_Q, W_Q, W_Q + 5 * MHZ, 0.2 * MHZ, 0.3 * MHZ)
    jb = two_qubit_bus_oracle(W_Q, W_Q, W_Q + 5 * MHZ, 0.3 * MHZ, 0.2 * MHZ)
    assert ja == pytest.approx(jb, rel=0.01)


def test_bus_asymmetric_formula_value():
    formula = bus_coupling(1.0 * MHZ, 1.0 * MHZ, 4.0 * MHZ, 5.0 * MHZ)
    assert cycles(formula) / 1e6 == pytest.approx(0.225, abs=1e-3)
