"""Brute-force validators: grid eigensolver, Fock machinery, JC and bus models."""

import importlib.util
import sys
import warnings

import numpy as np
import pytest

from afq import (CantileverGeometry, GridSpec, LennardJones, MaterialParams,
                 bias_state, fock_eigensolve, fock_matrix_element,
                 grid_eigensolve, jc_dispersive_oracle, modal_params,
                 taylor_coefficients, total_potential, two_qubit_bus_oracle)
from afq import oracle
from afq.config import default_config
from afq.cqad import bus_coupling, dispersive_shift
from afq.errors import DomainError, LabelingError
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
    ev_t = (4 * BISECT(shifted, M_EFF, lo + c, hi + c, 2 * spec.points - 1, 4)
            - BISECT(shifted, M_EFF, lo + c, hi + c, spec.points, 4)) / 3
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
    with pytest.raises(DomainError, match="odd integer"):
        GridSpec(points=201.0)
    with pytest.raises(DomainError):
        grid_eigensolve(harmonic, M_EFF, GridSpec(), 11, x_zpf=X_ZPF, gap=GAP)


@pytest.mark.parametrize("n_levels", [1, 2, 3, 5])
def test_grid_reports_omega_10_and_eta_at_any_n_levels(n_levels):
    res = grid_eigensolve(harmonic, M_EFF, GridSpec(), n_levels, x_zpf=X_ZPF,
                          gap=GAP)
    ref = grid_eigensolve(harmonic, M_EFF, GridSpec(), 3, x_zpf=X_ZPF,
                          gap=GAP)
    e0, e1, e2 = ref.eigenvalues
    assert len(res.eigenvalues) == n_levels
    assert res.omega_10 == (e1 - e0) / hbar
    assert res.eta == (e2 - 2 * e1 + e0) / hbar
    assert res.omega_10 == pytest.approx(OMEGA, rel=1e-6)
    assert abs(res.eta) < 1e-6 * OMEGA       # harmonic: equal spacing


def test_grid_nonconvergence_raises():
    from afq.errors import ConvergenceError
    with pytest.raises(ConvergenceError):
        grid_eigensolve(harmonic, M_EFF, GridSpec(points=201), 3,
                        x_zpf=X_ZPF, gap=GAP)


# --- seeded refinement against bisection -----------------------------------

STURM = oracle._stencil_eigenvalues


def BISECT(v_q, m_eff, lo, hi, points, n_levels):
    """The lowest stencil eigenvalues on ``points`` grid points, bisected."""
    return STURM(*oracle._stencil(v_q, m_eff, lo, hi, points), n_levels)


def bisected_grids(monkeypatch):
    """The grid sizes that grid_eigensolve bisects, in call order."""
    sizes = []

    def counting(diag, t, n_levels, abstol=0.0):
        sizes.append(diag.size + 2)
        return STURM(diag, t, n_levels, abstol)

    monkeypatch.setattr(oracle, "_stencil_eigenvalues", counting)
    return sizes


def bisection_result(v_q, m_eff, spec, n_levels, x_zpf, gap):
    """What grid_eigensolve returns when both grids are bisected."""
    lo, hi = spec.domain(x_zpf, gap)
    n_solve = max(n_levels, 3)
    coarse = BISECT(v_q, m_eff, lo, hi, spec.points, n_solve)
    fine = BISECT(v_q, m_eff, lo, hi, 2 * spec.points - 1, n_solve)
    return ((4 * fine - coarse) / 3)[:n_levels], coarse[2] - coarse[0]


def audit_designs():
    """The bundled design and 40 seeded ones with L, w and t within
    +-30/20/20 % of 495/10/12 nm."""
    rng = np.random.default_rng(14)
    cfg = default_config()
    geometries = [None] + [
        CantileverGeometry(495e-9 * rng.uniform(0.7, 1.3),
                           10e-9 * rng.uniform(0.8, 1.2),
                           12e-9 * rng.uniform(0.8, 1.2)) for _ in range(40)]
    for geometry in geometries:
        pot, modal, gap, state, _ = cfg.design(geometry)
        yield (total_potential(modal, pot, gap), modal.effective_mass,
               state.x_zpf, gap)


def test_refined_grids_match_bisection(monkeypatch):
    refine = oracle._refine
    refined = []

    def recording(diag, t, seeds):
        levels = refine(diag, t, seeds)
        refined.append((diag.size + 2, levels))
        return levels

    monkeypatch.setattr(oracle, "_refine", recording)
    spec = GridSpec()
    for i, (v_q, m_eff, x_zpf, gap) in enumerate(audit_designs()):
        refined.clear()
        grid_eigensolve(v_q, m_eff, spec, 3, x_zpf=x_zpf, gap=gap,
                        check_convergence=False)
        assert [p for p, _ in refined] == [spec.points, 2 * spec.points - 1]
        lo, hi = spec.domain(x_zpf, gap)
        for points, levels in refined:
            assert levels is not None, f"design {i}, {points} points"
            ref = BISECT(v_q, m_eff, lo, hi, points, 3)
            assert np.abs(levels - ref).max() <= 1e-10 * (ref[2] - ref[0]), \
                f"design {i}, {points} points"


def test_seeds_off_by_the_seed_tolerance_still_certify():
    # the seed grid is bisected only to SEED_TOL hbar omega: seeds that far
    # from their level, either way, still lead to it on both refined grids
    spec = GridSpec()
    seed_points = (spec.points - 1) // 4 + 1
    for i, (v_q, m_eff, x_zpf, gap) in enumerate(audit_designs()):
        lo, hi = spec.domain(x_zpf, gap)
        seeds = BISECT(v_q, m_eff, lo, hi, seed_points, 5)
        tol = oracle.SEED_TOL * hbar**2 / (2 * m_eff * x_zpf**2)
        for points in (spec.points, 2 * spec.points - 1):
            diag, t = oracle._stencil(v_q, m_eff, lo, hi, points)
            ref = BISECT(v_q, m_eff, lo, hi, points, 5)
            for sign in (1, -1):
                levels = oracle._refine(diag, t, seeds + sign * tol)
                assert levels is not None, f"design {i}, {points} points"
                assert (np.abs(levels - ref).max()
                        <= 1e-10 * (ref[2] - ref[0])), \
                    f"design {i}, {points} points, offset {sign} tol"


@pytest.mark.parametrize("n_levels", range(1, 11))
def test_refinement_on_harmonic_well(monkeypatch, n_levels):
    ref, span = bisection_result(harmonic, M_EFF, GridSpec(), n_levels,
                                 X_ZPF, GAP)
    bisected = bisected_grids(monkeypatch)
    res = grid_eigensolve(harmonic, M_EFF, GridSpec(), n_levels, x_zpf=X_ZPF,
                          gap=GAP)
    assert bisected == [1001]       # the seed only: both grids certified
    np.testing.assert_allclose(res.eigenvalues, ref, rtol=0,
                               atol=1e-10 * span)
    np.testing.assert_allclose(res.eigenvalues,
                               hbar * OMEGA * (np.arange(n_levels) + 0.5),
                               rtol=1e-6)


@pytest.mark.parametrize("n_levels, bisected_sizes",
                         [(3, [51]), (5, [51]), (10, [51, 201])])
def test_smallest_grid_seeds_on_51_points(monkeypatch, n_levels,
                                          bisected_sizes):
    # GridSpec(points=201) seeds from 51 points. Three or five seeds there
    # lead to their levels; ten do not, the 201-point grid fails its
    # certificate and is bisected, and its levels seed the 401-point grid.
    spec = GridSpec(points=201)
    ref, span = bisection_result(harmonic, M_EFF, spec, n_levels, X_ZPF, GAP)
    bisected = bisected_grids(monkeypatch)
    res = grid_eigensolve(harmonic, M_EFF, spec, n_levels, x_zpf=X_ZPF,
                          gap=GAP, check_convergence=False)
    assert bisected == bisected_sizes
    np.testing.assert_allclose(res.eigenvalues, ref, rtol=0,
                               atol=1e-10 * span)


def double_well(dx):
    """Symmetric, barrier 20 hbar omega: the ground pair is split by ~6e-10
    of E_2 - E_0, inside the 1e-8 certificate margin."""
    b = 4 * X_ZPF
    a = 20 * hbar * OMEGA / b**4
    return a * (dx**2 - b**2) ** 2


def test_unresolved_tunnelling_pair_falls_back_to_bisection(monkeypatch):
    evaluated = []

    def counted(dx):
        evaluated.append(dx.size)
        return double_well(dx)

    ref, _ = bisection_result(double_well, M_EFF, GridSpec(), 3, X_ZPF, GAP)
    bisected = bisected_grids(monkeypatch)
    res = grid_eigensolve(counted, M_EFF, GridSpec(), 3, x_zpf=X_ZPF,
                          gap=GAP)
    assert bisected == [1001, 4001, 8001]
    # each grid's potential is evaluated once, for its refinement and its
    # bisection alike: the seed, the requested and the doubled grid
    assert evaluated == [999, 3999, 7999]
    np.testing.assert_array_equal(res.eigenvalues, ref)


def lapack_route_cases():
    """The audit designs and the tunnelling double well, whose grids are
    bisected to full precision, as (v_q, m_eff, x_zpf, gap)."""
    yield from audit_designs()
    yield double_well, M_EFF, X_ZPF, GAP


def solve_route_cases():
    return [grid_eigensolve(v_q, m_eff, GridSpec(), 5, x_zpf=x_zpf, gap=gap,
                            check_convergence=False)
            for v_q, m_eff, x_zpf, gap in lapack_route_cases()]


def assert_same_results(results, reference):
    for res, ref in zip(results, reference, strict=True):
        np.testing.assert_array_equal(res.eigenvalues, ref.eigenvalues)
        assert res.convergence_estimate == ref.convergence_estimate


def test_lapack_extension_matches_scipy_linalg_lapack_bit_for_bit(
        monkeypatch):
    fast = solve_route_cases()
    import scipy.linalg.lapack
    monkeypatch.setattr(oracle, "_lapack", lambda: scipy.linalg.lapack)
    assert_same_results(fast, solve_route_cases())


def _unloadable(spec):
    raise ImportError(f"cannot load {spec.name}")


@pytest.mark.parametrize("step, broken", [
    ("find_spec", lambda name, package=None: None),     # no scipy found
    ("module_from_spec", _unloadable)])                 # no extension loads
def test_lapack_falls_back_to_scipy_linalg_lapack(monkeypatch, step, broken):
    import scipy.linalg.lapack
    fast = solve_route_cases()
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(importlib.util, step, broken)
    oracle._lapack.cache_clear()
    try:
        assert oracle._lapack() is scipy.linalg.lapack
        fallback = solve_route_cases()
    finally:
        oracle._lapack.cache_clear()
    assert_same_results(fallback, fast)


@pytest.mark.parametrize("picks", [(0, 0, 2), (0, 2, 3)])
def test_certificate_refuses_colliding_or_skipping_seeds(picks):
    # (0, 0, 2): two seeds reach one level, so the levels are not separated;
    # (0, 2, 3): three distinct levels, but the Sturm count finds four
    spec = GridSpec()
    lo, hi = spec.domain(X_ZPF, GAP)
    diag, t = oracle._stencil(harmonic, M_EFF, lo, hi, spec.points)
    exact = BISECT(harmonic, M_EFF, lo, hi, spec.points, 4)
    assert oracle._refine(diag, t, exact[[0, 1, 2]]) is not None
    assert oracle._refine(diag, t, exact[list(picks)]) is None


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
    assert fock_matrix_element(n, 4) == pytest.approx(
        6 * n**2 + 6 * n + 3, abs=1e-9)


@pytest.mark.parametrize("n", range(6))
def test_matrix_element_sextic(n):
    assert fock_matrix_element(n, 6) == pytest.approx(
        20 * n**3 + 30 * n**2 + 40 * n + 15, abs=1e-9)


def test_matrix_element_quadratic():
    assert fock_matrix_element(0, 2) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("power", [2, 4, 6])
@pytest.mark.parametrize("n", range(6))
def test_matrix_element_basis_holds_every_path(n, power):
    # the derived basis of n + power // 2 + 1 levels gives the same bits
    # as the bases of n + 12, n + 15 and 12 levels the callers used to pass
    for dim in (n + 12, n + 15, 12):
        a = oracle._annihilation(dim)
        wide = np.linalg.matrix_power(a + a.T, power)[n, n]
        assert fock_matrix_element(n, power) == wide


@pytest.mark.parametrize("n, power", [(-1, 4), (0, -2), (3, -1)])
def test_matrix_element_refuses_negative_arguments(n, power):
    with pytest.raises(DomainError, match="n and power must be >= 0"):
        fock_matrix_element(n, power)


@pytest.mark.parametrize("dim", [0, 1, 4])
def test_fock_eigensolve_refuses_basis_smaller_than_n_levels(dim):
    with pytest.raises(DomainError, match="fewer than n_levels"):
        fock_eigensolve(M_EFF, OMEGA, {2: 0.5 * K_SPRING}, dim=dim,
                        n_levels=5)


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


def test_jc_labeling_error_near_resonance():
    with pytest.raises(LabelingError):
        jc_dispersive_oracle(LEVELS, W_Q - 1.0 * MHZ, 1.0 * MHZ)


def dense_jc_chi(qubit_levels, omega_cavity, g, n_ph=20):
    """chi from the full 3 x n_ph product basis, cavity truncated at n_ph
    Fock states: the reference for the block diagonalization."""
    e_q = np.asarray(qubit_levels, dtype=float)
    idx = lambda j, n: j * n_ph + n
    diag = np.concatenate([e_q[j] + hbar * omega_cavity * np.arange(n_ph)
                           for j in range(3)])
    h = np.diag(diag)
    for j in range(2):
        for n in range(n_ph - 1):
            amp = hbar * g * np.sqrt(j + 1) * np.sqrt(n + 1)
            h[idx(j + 1, n), idx(j, n + 1)] += amp
            h[idx(j, n + 1), idx(j + 1, n)] += amp
    evals, evecs = np.linalg.eigh(h)
    e = {}
    for key in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        weights = evecs[idx(*key)] ** 2     # each eigenstate's share of key
        if weights.max() < 0.5:
            raise LabelingError(
                f"eigenstate labeling ambiguous for product state {key}")
        e[key] = evals[np.argmax(weights)]
    return 0.5 * ((e[(1, 1)] - e[(1, 0)]) - (e[(0, 1)] - e[(0, 0)])) / hbar


def test_jc_blocks_match_dense_reference():
    # 300 seeded draws, E_0 = 0 as afq oracle passes: both signs of Delta
    # and eta, g/|Delta| in 0.05..0.45. Where Delta + eta is small the
    # |1,1> and |2,0> states mix, and both refuse to label them.
    rng = np.random.default_rng(15)
    refused = 0
    for _ in range(300):
        delta = rng.choice([-1, 1]) * rng.uniform(1, 20) * MHZ
        eta = rng.choice([-1, 1]) * rng.uniform(0.5, 10) * MHZ
        g = rng.uniform(0.05, 0.45) * abs(delta)
        levels = (0.0, hbar * W_Q, hbar * (2 * W_Q + eta))
        outcomes = []
        for chi in (jc_dispersive_oracle, dense_jc_chi):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    outcomes.append(chi(levels, W_Q - delta, g))
                except LabelingError:
                    outcomes.append(None)
        blocks, dense = outcomes
        assert (blocks is None) == (dense is None), (delta, eta, g)
        if blocks is None:
            refused += 1
        else:
            assert blocks == pytest.approx(dense, rel=1e-9, abs=0)
    assert 0 < refused < 150


def test_jc_one_excitation_labels_are_never_close():
    # from |Delta| = 2g upward, tan 2 theta = 2g/|Delta| <= 1: |1,0> keeps
    # at least cos^2(pi/8) of one eigenstate, so an argmax labels the block
    # and only the |1,1> weight check can refuse
    rng = np.random.default_rng(27)
    bound = np.cos(np.pi / 8) ** 2 - 1e-12
    for draw in range(200):
        eta = rng.choice([-1, 1]) * rng.uniform(0.5, 10) * MHZ
        omega_cavity = W_Q - rng.choice([-1, 1]) * rng.uniform(1, 20) * MHZ
        levels = (0.0, hbar * W_Q, hbar * (2 * W_Q + eta))
        # the detuning as the oracle computes it, so |Delta| = 2g is exact
        delta = (levels[1] - levels[0]) / hbar - omega_cavity
        g = abs(delta) / (2.0 if draw < 20 else rng.uniform(2, 20))
        hw, hg = hbar * omega_cavity, hbar * g      # the oracle's block
        _, v_one = np.linalg.eigh([[levels[1], hg], [hg, levels[0] + hw]])
        assert (v_one[0] ** 2).max() >= bound, (delta, eta, g)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                jc_dispersive_oracle(levels, omega_cavity, g)
            except LabelingError as exc:
                assert "product state (1, 1)" in str(exc), (delta, eta, g)


@pytest.mark.parametrize("levels, omega_cavity, g, name", [
    (LEVELS, W_Q - 4.3 * MHZ, np.nan, "g"),
    (LEVELS, np.nan, 0.5 * MHZ, "omega_cavity"),
    (LEVELS, W_Q - 4.3 * MHZ, np.inf, "g"),
    ((0.0, np.nan, LEVELS[2]), W_Q - 4.3 * MHZ, 0.5 * MHZ, "qubit_levels")])
def test_jc_refuses_non_finite_arguments(levels, omega_cavity, g, name):
    with pytest.raises(DomainError, match=f"^{name} must be finite"):
        jc_dispersive_oracle(levels, omega_cavity, g)


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


def _dense_bus_sweep(omega_q1, omega_q2, omega_bus, g1, g2):
    """The former bus oracle: one batched sweep of 4001 evenly spaced steps
    and a parabola through its discrete minimum, kept as a reference."""
    span = max(8.0 * (abs(g1) + abs(g2)), 2.0 * abs(omega_q1 - omega_q2),
               1e-6 * abs(omega_q2))
    h = np.zeros((4001, 3, 3))
    h[:, 0, 0] = np.linspace(omega_q2 - span, omega_q2 + span, 4001)
    h[:, 1, 1] = omega_q2
    h[:, 2, 2] = omega_bus
    h[:, 0, 2] = h[:, 2, 0] = g1
    h[:, 1, 2] = h[:, 2, 1] = g2
    evals = np.linalg.eigvalsh(h)
    order = np.argsort(np.abs(evals - omega_q2), axis=1)
    pair = np.take_along_axis(evals, order[:, :2], axis=1)
    gaps = np.abs(pair[:, 1] - pair[:, 0])
    i = int(np.argmin(gaps))
    assert 0 < i < 4000
    y0, y1, y2 = gaps[i - 1:i + 2]
    return 0.5 * (y1 - 0.125 * (y0 - y2) ** 2 / (y0 - 2.0 * y1 + y2))


VALIDATE_BUS = (W_Q, W_Q, W_Q + 4.35 * MHZ, 0.4 * MHZ, 0.4 * MHZ)


def _seeded_bus_designs(count, seed=5):
    """Bus cases with g/|Delta| between 0.05 and 0.15 for each coupling."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        delta = rng.uniform(3, 8) * MHZ * rng.choice([-1, 1])
        g1, g2 = rng.uniform(0.05, 0.15, 2) * abs(delta)
        w_q = rng.uniform(40, 140) * MHZ
        yield w_q, w_q, w_q + delta, g1, g2


def test_bus_zoom_scan_matches_dense_sweep():
    # the validate case, then seeded dispersive designs; the dense sweep's
    # own discretization error is up to ~2e-6 of J
    for case in [VALIDATE_BUS, *_seeded_bus_designs(60)]:
        assert two_qubit_bus_oracle(*case) == pytest.approx(
            _dense_bus_sweep(*case), rel=3e-6, abs=0), case


def test_bus_warns_at_exact_resonance():
    with pytest.warns(UserWarning, match="above the dispersive regime"):
        j = two_qubit_bus_oracle(W_Q, W_Q, W_Q, 1.0 * MHZ, 1.0 * MHZ)
    assert j > 0


@pytest.mark.parametrize("g1, g2", [(1.0 * MHZ, 0.0), (0.0, 1.0 * MHZ)],
                         ids=["g2_off", "g1_off"])
def test_bus_one_coupling_off_gives_zero(g1, g2):
    # qubit levels cross exactly, so the splitting closes to rounding
    with pytest.warns(UserWarning, match="above the dispersive regime"):
        j = two_qubit_bus_oracle(W_Q, W_Q, W_Q + 4.35 * MHZ, g1, g2)
    span = 8.0 * (g1 + g2)
    assert 0.0 <= j <= 1e-9 * span


@pytest.mark.parametrize("bus_offset, refused", [(0.1, True), (0.05, True),
                                                 (0.11, False), (0.2, False)])
def test_bus_refuses_minimum_at_range_end(bus_offset, refused):
    # at 0.11 MHz the minimum lies 0.4 % of the range inside its upper end
    args = (W_Q, W_Q, W_Q + bus_offset * MHZ, 1.0 * MHZ, 0.1 * MHZ)
    with pytest.warns(UserWarning, match="above the dispersive regime"):
        if refused:
            with pytest.raises(DomainError, match="no avoided crossing"):
                two_qubit_bus_oracle(*args)
        else:
            assert two_qubit_bus_oracle(*args) > 0


def test_bus_eigensolve_work_bound(monkeypatch):
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        solved.append(np.prod(np.shape(a)[:-2], dtype=int))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(oracle.np.linalg, "eigvalsh", counting)
    for case in [VALIDATE_BUS, *_seeded_bus_designs(5)]:
        solved.clear()
        two_qubit_bus_oracle(*case)
        assert 0 < sum(solved) <= 500


@pytest.mark.parametrize("name", ["omega_q1", "omega_q2", "omega_bus", "g1",
                                  "g2"])
def test_bus_refuses_non_finite_arguments(name):
    args = {"omega_q1": W_Q, "omega_q2": W_Q, "omega_bus": W_Q + 5 * MHZ,
            "g1": 0.2 * MHZ, "g2": 0.2 * MHZ, name: np.nan}
    with pytest.raises(DomainError, match=f"^{name} must be finite"):
        two_qubit_bus_oracle(**args)


def test_bus_asymmetric_formula_value():
    formula = bus_coupling(1.0 * MHZ, 1.0 * MHZ, 4.0 * MHZ, 5.0 * MHZ)
    assert cycles(formula) / 1e6 == pytest.approx(0.225, abs=1e-3)
