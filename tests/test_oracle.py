"""Brute-force validators: grid eigensolver, Fock machinery, JC and bus models."""

import importlib.util
import sys
import warnings
from collections import Counter, defaultdict
from types import SimpleNamespace

import numpy as np
import pytest

from afq import (CantileverGeometry, GridSpec, LennardJones, MaterialParams,
                 bias_state, fock_eigensolve, fock_matrix_element,
                 grid_eigensolve, jc_dispersive_oracle, modal_params,
                 taylor_coefficients, total_potential, two_qubit_bus_oracle)
from afq import oracle
from afq.config import PAPER_CONFIG, default_config, parse_config_text
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


@pytest.mark.parametrize("n_levels", [5.0, 3.0, True, False, "3", None])
def test_grid_refuses_n_levels_that_is_not_an_integer(n_levels):
    with pytest.raises(DomainError, match="n_levels"):
        grid_eigensolve(harmonic, M_EFF, GridSpec(), n_levels, x_zpf=X_ZPF,
                        gap=GAP)


def test_grid_takes_numpy_integer_n_levels():
    res = grid_eigensolve(harmonic, M_EFF, GridSpec(), np.int64(4),
                          x_zpf=X_ZPF, gap=GAP)
    ref = grid_eigensolve(harmonic, M_EFF, GridSpec(), 4, x_zpf=X_ZPF,
                          gap=GAP)
    assert res == ref


@pytest.mark.parametrize("n_levels", range(1, 11))
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
    # the bundled design too, bit for bit: the levels above E_2 must not
    # move the lowest three
    v_q, m_eff, x_zpf, gap = next(audit_designs())
    res, ref = (grid_eigensolve(v_q, m_eff, GridSpec(), n, x_zpf=x_zpf,
                                gap=gap, check_convergence=False)
                for n in (n_levels, 3))
    assert (res.omega_10, res.eta) == (ref.omega_10, ref.eta)


@pytest.mark.parametrize("points", [203, 801])
def test_small_grids_report_omega_10_and_eta_at_any_n_levels(points):
    # on small grids a level above E_2 often fails the certificate where the
    # lowest three pass: only the levels above E_2 are bisected then, so
    # omega_10 and eta stay, bit for bit, what three levels give
    spec = GridSpec(points=points)
    for i, (v_q, m_eff, x_zpf, gap) in enumerate(audit_designs()):
        ref = grid_eigensolve(v_q, m_eff, spec, 3, x_zpf=x_zpf, gap=gap,
                              check_convergence=False)
        for n_levels in range(1, 11):
            res = grid_eigensolve(v_q, m_eff, spec, n_levels, x_zpf=x_zpf,
                                  gap=gap, check_convergence=False)
            assert (res.omega_10, res.eta) == (ref.omega_10, ref.eta), \
                f"design {i}, {n_levels} levels"


def test_grid_nonconvergence_raises():
    from afq.errors import ConvergenceError
    with pytest.raises(ConvergenceError):
        grid_eigensolve(harmonic, M_EFF, GridSpec(points=201), 3,
                        x_zpf=X_ZPF, gap=GAP)


# --- seeded refinement against bisection -----------------------------------

_BISECTED = oracle._stencil_eigenvalues


def STURM(diag, t, n_levels, abstol=0.0):
    """The lowest ``n_levels`` stencil eigenvalues, the lowest three bisected
    apart from the rest, as grid_eigensolve bisects a grid."""
    return np.concatenate([_BISECTED(diag, t, first, last, abstol)
                           for first, last in ((1, min(n_levels, 3)),
                                               (4, n_levels))
                           if first <= last])


def BISECT(v_q, m_eff, lo, hi, points, n_levels):
    """The lowest stencil eigenvalues on ``points`` grid points, bisected."""
    return STURM(*oracle._stencil(v_q, m_eff, lo, hi, points), n_levels)


def bisected_grids(monkeypatch):
    """The grid sizes that grid_eigensolve bisects, in whole or in part, each
    once, in call order, as ``grids``, and the rows of each of its
    bisections by grid size, as ``rows``: a grid is the one whose stencil
    was built last, and the seed grid bisects on windows of its rows."""
    stencil = oracle._stencil
    work = SimpleNamespace(grids=[], rows=defaultdict(list), grid=None)

    def building(v_q, m_eff, lo, hi, points):
        work.grid = points
        return stencil(v_q, m_eff, lo, hi, points)

    def counting(diag, t, first, last, abstol=0.0):
        if work.grids[-1:] != [work.grid]:
            work.grids.append(work.grid)
        work.rows[work.grid].append(diag.size)
        return _BISECTED(diag, t, first, last, abstol)

    monkeypatch.setattr(oracle, "_stencil", building)
    monkeypatch.setattr(oracle, "_stencil_eigenvalues", counting)
    return work


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


def recorded_starts(monkeypatch):
    """The grid sizes on which _seed_vectors computes start vectors from the
    generic vector, in call order: a grid is the one whose stencil was
    built last."""
    stencil, seed_vectors = oracle._stencil, oracle._seed_vectors
    work = SimpleNamespace(sizes=[], grid=None)

    def building(v_q, m_eff, lo, hi, points):
        work.grid = points
        return stencil(v_q, m_eff, lo, hi, points)

    def recording(*args):
        work.sizes.append(work.grid)
        return seed_vectors(*args)

    monkeypatch.setattr(oracle, "_stencil", building)
    monkeypatch.setattr(oracle, "_seed_vectors", recording)
    return work.sizes


def recorded_refinements(monkeypatch):
    """(grid size, seeds, start vectors, result, stretches) of each _refine
    call."""
    calls = []
    refine = oracle._refine

    def recording(diag, t, seeds, starts, rows):
        found = refine(diag, t, seeds, starts, rows)
        calls.append((diag.size + 2, seeds, starts, found, rows))
        return found

    monkeypatch.setattr(oracle, "_refine", recording)
    return calls


def test_refined_grids_match_bisection(monkeypatch):
    refined = recorded_refinements(monkeypatch)
    generic = recorded_starts(monkeypatch)
    spec = GridSpec()
    for i, (v_q, m_eff, x_zpf, gap) in enumerate(audit_designs()):
        refined.clear()
        generic.clear()
        grid_eigensolve(v_q, m_eff, spec, 3, x_zpf=x_zpf, gap=gap,
                        check_convergence=False)
        # only the seed grid starts generic: both refined grids start warm
        assert generic == [(spec.points - 1) // 4 + 1]
        assert [p for p, *_ in refined] == [spec.points, 2 * spec.points - 1]
        lo, hi = spec.domain(x_zpf, gap)
        for points, _, _, found, _ in refined:
            assert found is not None, f"design {i}, {points} points"
            levels, _ = found
            ref = BISECT(v_q, m_eff, lo, hi, points, 3)
            assert np.abs(levels - ref).max() <= 1e-10 * (ref[2] - ref[0]), \
                f"design {i}, {points} points"


@pytest.mark.parametrize("points", [203, 801, 4001])
def test_lowest_three_take_the_same_rows_at_any_n_levels(monkeypatch, points):
    # the seed grid decides each group of levels in one pass: the lowest
    # three's bound and window on it, and their stretches on the finer
    # grids, are the same rows at 3 levels as at 10
    spec = GridSpec(points=points)
    seed_points = (points - 1) // (4 if points % 4 == 1 else 2) + 1
    bisected = bisected_grids(monkeypatch)
    refined = recorded_refinements(monkeypatch)
    for i, (v_q, m_eff, x_zpf, gap) in enumerate(audit_designs()):
        taken = []
        for n_levels in (3, 10):
            bisected.rows.clear()
            refined.clear()
            grid_eigensolve(v_q, m_eff, spec, n_levels, x_zpf=x_zpf, gap=gap,
                            check_convergence=False)
            taken.append((bisected.rows[seed_points][:2],
                          [(p, rows[:3]) for p, *_, rows in refined]))
        # at 10 levels the seed grid bisected levels 4 to 10 too, after a
        # bound on level 10 where the lowest three's window holds 10 rows
        assert len(bisected.rows[seed_points]) >= 3, f"design {i}"
        assert taken[0] == taken[1], f"design {i}"


def test_seeds_off_by_the_seed_tolerance_still_certify(monkeypatch):
    # the seed grid is bisected only to SEED_TOL hbar omega: seeds that far
    # from their level, either way, still lead to it on both refined grids,
    # on the stretches grid_eigensolve refines there, from one
    # inverse-iteration step at those seeds on each level's stretch of that
    # grid, and on the requested grid from such a step on the seed grid
    spec = GridSpec()
    seed_points = (spec.points - 1) // 4 + 1
    refined = recorded_refinements(monkeypatch)
    for i, (v_q, m_eff, x_zpf, gap) in enumerate(audit_designs()):
        refined.clear()
        grid_eigensolve(v_q, m_eff, spec, 5, x_zpf=x_zpf, gap=gap,
                        check_convergence=False)
        stretches = {points: rows for points, *_, rows in refined}
        # the seed grid's, whose end points the requested grid's scale by 4
        seed_rows = [slice(s.start // 4, (s.stop + 1) // 4 - 1)
                     for s in stretches[spec.points]]
        lo, hi = spec.domain(x_zpf, gap)
        seed_diag, seed_t = oracle._stencil(v_q, m_eff, lo, hi, seed_points)
        seeds = STURM(seed_diag, seed_t, 5)
        tol = oracle.SEED_TOL * hbar**2 / (2 * m_eff * x_zpf**2)
        for points in (spec.points, 2 * spec.points - 1):
            diag, t = oracle._stencil(v_q, m_eff, lo, hi, points)
            ref = BISECT(v_q, m_eff, lo, hi, points, 5)
            for sign in (1, -1):
                offset = seeds + sign * tol
                starts = [oracle._seed_vectors(diag, t, offset,
                                               stretches[points])]
                if points == spec.points:
                    vectors = oracle._seed_vectors(seed_diag, seed_t, offset,
                                                   seed_rows)
                    starts.append(oracle._doubled(oracle._doubled(vectors)))
                for kind, start in zip(("generic", "warm"), starts):
                    found = oracle._refine(diag, t, offset, start,
                                           stretches[points])
                    where = (f"design {i}, {points} points, offset {sign} "
                             f"tol, {kind}")
                    assert found is not None, where
                    levels, _ = found
                    assert (np.abs(levels - ref).max()
                            <= 1e-10 * (ref[2] - ref[0])), where


@pytest.mark.parametrize("n_levels", range(1, 11))
def test_refinement_on_harmonic_well(monkeypatch, n_levels):
    ref, span = bisection_result(harmonic, M_EFF, GridSpec(), n_levels,
                                 X_ZPF, GAP)
    bisected = bisected_grids(monkeypatch)
    res = grid_eigensolve(harmonic, M_EFF, GridSpec(), n_levels, x_zpf=X_ZPF,
                          gap=GAP)
    # the seed only, on windows of at most three quarters of its rows: both
    # refined grids are certified
    assert bisected.grids == [1001]
    assert max(bisected.rows[1001]) <= 0.75 * 999
    np.testing.assert_allclose(res.eigenvalues, ref, rtol=0,
                               atol=1e-10 * span)
    np.testing.assert_allclose(res.eigenvalues,
                               hbar * OMEGA * (np.arange(n_levels) + 0.5),
                               rtol=1e-6)


@pytest.mark.parametrize("n_levels, bisected_sizes",
                         [(n, {201: [51], 203: [102]}) for n in (3, 5, 10)])
def test_smallest_grid_seeds_on_51_points(monkeypatch, n_levels,
                                          bisected_sizes):
    # GridSpec(points=201) seeds from 51 points, every 4th, and points=203
    # from 102, every 2nd, bisected on windows of at most 0.7 of their rows.
    # Even ten seeds there, with their start vectors, lead to their levels
    # on the requested grid.
    for points, sizes in bisected_sizes.items():
        spec = GridSpec(points=points)
        ref, span = bisection_result(harmonic, M_EFF, spec, n_levels, X_ZPF,
                                     GAP)
        bisected = bisected_grids(monkeypatch)
        res = grid_eigensolve(harmonic, M_EFF, spec, n_levels, x_zpf=X_ZPF,
                              gap=GAP, check_convergence=False)
        assert bisected.grids == sizes
        assert max(bisected.rows[sizes[0]]) <= 0.7 * (sizes[0] - 2)
        np.testing.assert_allclose(res.eigenvalues, ref, rtol=0,
                                   atol=1e-10 * span)


@pytest.mark.parametrize("points", [203, 4003])
@pytest.mark.parametrize("n_levels", [3, 10])
def test_grid_of_3_mod_4_points_seeds_on_every_2nd_point_and_starts_warm(
        monkeypatch, points, n_levels):
    # with points % 4 == 3 an every-4th-point seed grid would be off the
    # requested grid, so the seed grid takes every 2nd point: each grid is
    # nested in the next, and both refined grids start from the previous
    # grid's vectors carried over by _doubled. Start vectors from the
    # generic vector are computed only on a bisected grid, the seed grid
    # always, and never on the doubled grid, which hands nothing on.
    spec = GridSpec(points=points)
    ref, span = bisection_result(harmonic, M_EFF, spec, n_levels, X_ZPF, GAP)
    bisected = bisected_grids(monkeypatch)
    generic = recorded_starts(monkeypatch)
    refined = recorded_refinements(monkeypatch)
    res = grid_eigensolve(harmonic, M_EFF, spec, n_levels, x_zpf=X_ZPF,
                          gap=GAP, check_convergence=False)
    assert bisected.grids[0] == (points - 1) // 2 + 1
    assert generic == [p for p in bisected.grids if p != 2 * points - 1]
    n_solve = max(n_levels, 3)
    assert [(p, starts.shape) for p, _, starts, *_ in refined] == [
        (points, (n_solve, points - 2)),
        (2 * points - 1, (n_solve, 2 * points - 3))]
    np.testing.assert_allclose(res.eigenvalues, ref, rtol=0,
                               atol=1e-10 * span)


def test_doubled_grid_refines_the_bisected_grids_seed_vectors(monkeypatch):
    # the requested grid's refinement is refused, so that grid is bisected
    # and hands on, for each level, one inverse-iteration step from the
    # generic vector on the stretch of that grid it was refused on, padded
    # with zeros: the doubled grid refines them, carried over by _doubled,
    # to its bisected levels
    spec = GridSpec()
    refine = oracle._refine
    seed_vectors = oracle._seed_vectors
    calls = []
    seeded = []

    def refusing_requested(diag, t, seeds, starts, rows):
        found = None
        if diag.size + 2 != spec.points:
            found = refine(diag, t, seeds, starts, rows)
        calls.append((diag.size + 2, seeds, starts, found, rows))
        return found

    def recording(diag, t, seeds, rows):
        vectors = seed_vectors(diag, t, seeds, rows)
        seeded.append((diag.size + 2, seeds, vectors, rows))
        return vectors

    bisected = bisected_grids(monkeypatch)
    monkeypatch.setattr(oracle, "_refine", refusing_requested)
    monkeypatch.setattr(oracle, "_seed_vectors", recording)
    for i, (v_q, m_eff, x_zpf, gap) in enumerate(audit_designs()):
        calls.clear()
        seeded.clear()
        bisected.grids.clear()
        bisected.rows.clear()
        grid_eigensolve(v_q, m_eff, spec, 5, x_zpf=x_zpf, gap=gap,
                        check_convergence=False)
        assert bisected.grids == [(spec.points - 1) // 4 + 1, spec.points]
        assert bisected.rows[spec.points] == [spec.points - 2] * 2
        (requested, *_, stretches), (doubled, seeds, starts, found, _) = calls
        assert (requested, doubled) == (spec.points, 2 * spec.points - 1)
        _, (handing, levels, rows, stepped) = seeded
        assert (handing, stepped) == (spec.points, stretches)
        for row, stretch in zip(rows, stretches):
            assert not (row[:stretch.start].any() or row[stretch.stop:].any())
        lo, hi = spec.domain(x_zpf, gap)
        np.testing.assert_array_equal(
            levels, BISECT(v_q, m_eff, lo, hi, spec.points, 5), f"design {i}")
        np.testing.assert_array_equal(seeds, levels, f"design {i}")
        np.testing.assert_array_equal(starts, oracle._doubled(rows),
                                      f"design {i}")
        assert found is not None, f"design {i}"
        ref = BISECT(v_q, m_eff, lo, hi, doubled, 5)
        assert (np.abs(found[0] - ref).max()
                <= 1e-10 * (ref[2] - ref[0])), f"design {i}"


def test_generic_vector_is_shared_and_refuses_writes():
    # each size is computed once per process and handed to every grid solve
    # that asks for it, so no caller may write into it
    v = oracle._generic_vector(999)
    assert v is oracle._generic_vector(999)
    assert not v.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        v[0] = 0.5
    # a hashed counter: a shorter vector is the same counters' prefix
    np.testing.assert_array_equal(oracle._generic_vector(51), v[:51])
    assert np.all((v >= 0) & (v < 1))


def test_stretch_cutting_through_the_ground_state_is_refused(monkeypatch):
    # stretches forced to end 4 x_zpf right of the harmonic well's centre,
    # where the ground state still has exp(-4) of its peak: the couplings
    # out of the stretch's end keep the residual above the certificate's
    # bound, so neither refined grid certifies, every grid is bisected, and
    # the levels are the bisected ones. Without those couplings both grids
    # would certify the stretch's own levels, 0.02 of the span too high.
    # The seed grid bisects on the same forced rows, which _reach gives its
    # windows too; the refused grids are bisected on every row.
    spec = GridSpec()
    lo, hi = spec.domain(X_ZPF, GAP)
    seed_points = (spec.points - 1) // 4 + 1
    cut = round((4 * X_ZPF - lo) / (hi - lo) * (seed_points - 1))
    monkeypatch.setattr(oracle, "_reach", lambda diag, t, sigma, floor:
                        (0, cut))
    refined = recorded_refinements(monkeypatch)
    bisected = bisected_grids(monkeypatch)
    ref, span = bisection_result(harmonic, M_EFF, spec, 3, X_ZPF, GAP)
    res = grid_eigensolve(harmonic, M_EFF, spec, 3, x_zpf=X_ZPF, gap=GAP)
    assert [(p, rows, found) for p, *_, found, rows in refined] == [
        (points, [slice(0, cut * scale - 1)] * 3, None)
        for points, scale in ((spec.points, 4), (2 * spec.points - 1, 8))]
    assert bisected.grids == [seed_points, spec.points, 2 * spec.points - 1]
    assert bisected.rows == {seed_points: [cut - 1] * 2,
                             spec.points: [spec.points - 2],
                             2 * spec.points - 1: [2 * spec.points - 3]}
    np.testing.assert_allclose(res.eigenvalues, ref, rtol=0,
                               atol=1e-10 * span)


def convex_beam():
    """206 x 15 x 8 nm at the cubic-free gap x_3 = 1.366109650946 sigma, as
    (v_q, m_eff, x_zpf, gap): k exceeds the largest softening -V'', so V_q
    is one convex well whose levels reach about 90 % of the grid."""
    cfg = parse_config_text(PAPER_CONFIG + "bias.x_over_sigma = "
                            "1.366109650946\n")
    pot, modal, gap, state, _ = cfg.design(
        CantileverGeometry(206e-9, 15e-9, 8e-9))
    return (total_potential(modal, pot, gap), modal.effective_mass,
            state.x_zpf, gap)


def test_convex_beam_matches_bisection():
    v_q, m_eff, x_zpf, gap = convex_beam()
    spec = GridSpec()
    for n_levels in (3, 5, 10):
        ref, span = bisection_result(v_q, m_eff, spec, n_levels, x_zpf, gap)
        res = grid_eigensolve(v_q, m_eff, spec, n_levels, x_zpf=x_zpf,
                              gap=gap)
        assert (np.abs(np.array(res.eigenvalues) - ref).max()
                <= 1e-10 * span), n_levels


@pytest.mark.parametrize("points", [203, 801, 4003])
def test_every_grid_size_matches_bisection(monkeypatch, points):
    # at ten levels small grids often bisect some levels: refined or
    # bisected, every level matches full bisection to 1e-10 of the span,
    # and no start vectors are computed on the doubled grid
    spec = GridSpec(points=points)
    generic = recorded_starts(monkeypatch)
    for i, (v_q, m_eff, x_zpf, gap) in enumerate(audit_designs()):
        for n_levels in (5, 10):
            ref, span = bisection_result(v_q, m_eff, spec, n_levels, x_zpf,
                                         gap)
            res = grid_eigensolve(v_q, m_eff, spec, n_levels, x_zpf=x_zpf,
                                  gap=gap, check_convergence=False)
            assert (np.abs(np.array(res.eigenvalues) - ref).max()
                    <= 1e-10 * span), f"design {i}, {n_levels} levels"
    assert 2 * points - 1 not in generic


def lapack_work(monkeypatch):
    """Counters of ``dgtsv`` solves, the rows they solve, ``dstebz`` calls
    and the rows they take, each keyed by the size of the grid whose stencil
    was built last: a refined grid solves and counts on stretches of
    itself, and the seed grid bisects on windows of itself."""
    lapack = oracle._lapack()
    stencil = oracle._stencil
    work = SimpleNamespace(solves=Counter(), rows=Counter(), counts=Counter(),
                           counted=Counter(), grid=None)

    def building(v_q, m_eff, lo, hi, points):
        work.grid = points
        return stencil(v_q, m_eff, lo, hi, points)

    def counting(dl, d, du, b):
        work.solves[work.grid] += 1
        work.rows[work.grid] += d.size
        return lapack.dgtsv(dl, d, du, b)

    def counting_stebz(d, *args):
        work.counts[work.grid] += 1
        work.counted[work.grid] += d.size
        return lapack.dstebz(d, *args)

    monkeypatch.setattr(oracle, "_stencil", building)
    monkeypatch.setattr(oracle, "_lapack", lambda: SimpleNamespace(
        dgtsv=counting, dstebz=counting_stebz))
    return work


def test_refinement_work_bound(monkeypatch):
    # warm starts: one inverse-iteration step a level on the seed grid, at
    # most 2.5 solves a level on the requested grid and 1.5 on the doubled,
    # on the default grid and on a points % 4 == 3 one, seeded on every 2nd
    # point; four bisections on the seed grid, for the lowest three levels
    # and the rest each a bound on the top one and the levels, on windows
    # of at most 0.2 of its rows in all, and one Sturm count on each grid
    # that certifies its levels, on at most 0.35 of its rows in all
    work = lapack_work(monkeypatch)
    designs = list(audit_designs())
    levels = 5 * len(designs)
    for spec, seed in ((GridSpec(), 1001), (GridSpec(points=4003), 2002)):
        work.solves.clear()
        work.counts.clear()
        work.counted.clear()
        for v_q, m_eff, x_zpf, gap in designs:
            grid_eigensolve(v_q, m_eff, spec, 5, x_zpf=x_zpf, gap=gap,
                            check_convergence=False)
        assert work.solves[2 * spec.points - 1] <= 1.5 * levels
        assert work.solves[spec.points] <= 2.5 * levels
        assert work.solves[seed] == levels
        assert work.counts == {seed: 4 * len(designs),
                               spec.points: len(designs),
                               2 * spec.points - 1: len(designs)}
        assert work.counted[seed] <= 0.2 * work.counts[seed] * (seed - 2)
        for points in (spec.points, 2 * spec.points - 1):
            assert (work.counted[points]
                    <= 0.35 * work.counts[points] * (points - 2)), points


def test_refinement_solves_on_the_rows_its_levels_reach(monkeypatch):
    # the lowest levels of the audit designs are wall states that reach a
    # small part of the grid: each refined grid's dgtsv solves run on fewer
    # than 0.35 of the rows that whole-grid solves would
    work = lapack_work(monkeypatch)
    spec = GridSpec()
    for v_q, m_eff, x_zpf, gap in audit_designs():
        grid_eigensolve(v_q, m_eff, spec, 5, x_zpf=x_zpf, gap=gap,
                        check_convergence=False)
    for points in (spec.points, 2 * spec.points - 1):
        assert (work.rows[points]
                <= 0.35 * work.solves[points] * (points - 2)), points


def test_doubling_is_fourth_order_at_the_walls_too():
    # sin(m pi x) on [0, 1] is odd about both walls, so the cubic midpoints
    # with the reflected points carry it to O(h^4) everywhere: halving h
    # cuts the error about 16-fold (4-fold would be linear interpolation)
    modes = np.array([1, 2, 5])
    errors = []
    for n in (99, 199):
        rows = np.sin(np.pi * np.outer(modes, np.linspace(0, 1, n + 2)[1:-1]))
        out = oracle._doubled(rows)
        np.testing.assert_array_equal(out[:, 1::2], rows)
        fine = np.linspace(0, 1, 2 * n + 3)[1:-1]
        errors.append(np.abs(out - np.sin(np.pi * np.outer(modes, fine)))
                      .max(axis=1))
    assert np.all(errors[0] / errors[1] > 14)


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
    # the seed grid on windows that hold both wells, about half its rows,
    # and both refused grids on every row
    assert bisected.grids == [1001, 4001, 8001]
    assert max(bisected.rows[1001]) <= 0.55 * 999
    assert (bisected.rows[4001], bisected.rows[8001]) == ([3999], [7999])
    # each grid's potential is evaluated once, for its refinement and its
    # bisection alike: the seed, the requested and the doubled grid
    assert evaluated == [999, 3999, 7999]
    np.testing.assert_array_equal(res.eigenvalues, ref)


def test_refinement_ends_at_the_first_level_it_cannot_accept(monkeypatch):
    # the double well's ground pair lies within 2 margin: level 1 stops next
    # to level 0 and is refused, which ends the refinement before level 2,
    # whose start vector neither refined grid solves from
    inverse_step, refine = oracle._inverse_step, oracle._refine
    level_2, refined = [], []       # (grid size, level 2's start vector)

    def recording_refine(diag, t, seeds, starts, rows):
        level_2[:] = [(diag.size + 2, starts[2])]
        found = refine(diag, t, seeds, starts, rows)
        level_2.clear()
        refined.append((diag.size + 2, found))
        return found

    def recording_step(diag, off, sigma, x):
        for points, start in level_2:
            if np.shares_memory(x, start):
                pytest.fail(f"a solve on level 2 of the {points}-point grid")
        return inverse_step(diag, off, sigma, x)

    monkeypatch.setattr(oracle, "_refine", recording_refine)
    monkeypatch.setattr(oracle, "_inverse_step", recording_step)
    grid_eigensolve(double_well, M_EFF, GridSpec(), 3, x_zpf=X_ZPF, gap=GAP)
    assert refined == [(4001, None), (8001, None)]


def counted_rows(monkeypatch):
    """The rows of each ``dstebz`` call, in call order."""
    lapack = oracle._lapack()
    rows = []

    def counting_stebz(d, *args):
        rows.append(d.size)
        return lapack.dstebz(d, *args)

    monkeypatch.setattr(oracle, "_lapack", lambda: SimpleNamespace(
        dgtsv=lapack.dgtsv, dstebz=counting_stebz))
    return rows


def every_row_count(diag, t, sigma):
    """The number of eigenvalues at or below ``sigma`` of the stencil with
    diagonal ``diag`` and off-diagonal -t, by a ``dstebz`` count of every
    row."""
    import scipy.linalg.lapack
    return scipy.linalg.lapack.dstebz(
        diag, np.full(diag.size - 1, -t), 1, diag.min() - 2.0 * t, sigma, 0,
        0, np.inf, b"E")[0]


def test_windowed_sturm_count_equals_the_whole_grids(monkeypatch):
    # at every sigma that _refine counts, the count on the hull of the
    # levels' stretches, its end diagonals lowered by the bound on the Schur
    # complement of the rows outside it, equals the count of every row. The
    # audit designs and the convex beam are counted, none on every row; the
    # double well's refinements end before any count.
    rows = counted_rows(monkeypatch)
    sturm_count = oracle._sturm_count
    counts = []

    def recording(diag, t, sigma, hull):
        rows.clear()
        found = sturm_count(diag, t, sigma, hull)
        counts.append((diag, t, sigma, *rows, found))
        return found

    monkeypatch.setattr(oracle, "_sturm_count", recording)
    cases = [*audit_designs(), convex_beam(), (double_well, M_EFF, X_ZPF, GAP)]
    for points in (203, 801, 4001, 4003):
        spec = GridSpec(points=points)
        for i, (v_q, m_eff, x_zpf, gap) in enumerate(cases):
            counts.clear()
            for n_levels in (1, 3, 5, 10):
                grid_eigensolve(v_q, m_eff, spec, n_levels, x_zpf=x_zpf,
                                gap=gap, check_convergence=False)
            where = f"case {i}, {points} points"
            assert bool(counts) == (v_q is not double_well), where
            for diag, t, sigma, counted, found in counts:
                assert found == every_row_count(diag, t, sigma), where
                assert counted < diag.size, where


def test_count_on_one_well_of_the_double_well_falls_back_to_every_row(
        monkeypatch):
    # stretches forced onto the right well: both refined grids are refused
    # and bisected, and the levels are the bisected ones. At levels 2 to 4
    # plus the margin (level 1's lies within the margin of level 2), a count
    # on that stretch finds the left well's rows within 2t of sigma, so it
    # counts every row, where the right well's rows alone would hold too few
    # levels.
    spec = GridSpec()
    seed_points = (spec.points - 1) // 4 + 1
    middle = (seed_points - 1) // 2         # dx = 0, the barrier's top
    monkeypatch.setattr(oracle, "_reach", lambda diag, t, sigma, floor:
                        (middle, seed_points - 1))
    ref, span = bisection_result(double_well, M_EFF, spec, 4, X_ZPF, GAP)
    res = grid_eigensolve(double_well, M_EFF, spec, 4, x_zpf=X_ZPF, gap=GAP)
    np.testing.assert_allclose(res.eigenvalues, ref, rtol=0,
                               atol=1e-10 * span)
    rows = counted_rows(monkeypatch)
    lo, hi = spec.domain(X_ZPF, GAP)
    for points, scale in ((spec.points, 4), (2 * spec.points - 1, 8)):
        diag, t = oracle._stencil(double_well, M_EFF, lo, hi, points)
        hull = slice(middle * scale, (seed_points - 1) * scale - 1)
        levels = BISECT(double_well, M_EFF, lo, hi, points, 4)
        for k in (2, 3, 4):
            sigma = levels[k - 1] + 1e-8 * (levels[2] - levels[0])
            rows.clear()
            assert oracle._sturm_count(diag, t, sigma, hull) == k
            assert rows == [diag.size], (points, k)
            d = diag[hull].copy()
            d[0] -= t * t / (diag[hull.start - 1] - sigma - t)
            assert every_row_count(d, t, sigma) < k, (points, k)


def test_seed_block_shorter_than_its_levels_bisects_them_on_every_row(
        monkeypatch):
    # a block of 2 rows around the potential's minimum holds no level 3 to
    # bound the lowest three's window with: the seed grid bisects them on
    # every row, and the levels above on the window that their bound, the
    # top level of every row, gives. Both refined grids still certify.
    reach = oracle._reach

    def two_rows(diag, t, sigma, floor):
        if sigma == diag.min() - 2.0 * t:   # the block around the minimum
            middle = int(np.argmin(diag))
            return middle, middle + 3
        return reach(diag, t, sigma, floor)

    monkeypatch.setattr(oracle, "_reach", two_rows)
    spec = GridSpec()
    seed_points = (spec.points - 1) // 4 + 1
    every_row = seed_points - 2
    bisected = bisected_grids(monkeypatch)
    generic = recorded_starts(monkeypatch)
    for n_levels in (3, 5):
        ref, span = bisection_result(harmonic, M_EFF, spec, n_levels, X_ZPF,
                                     GAP)
        bisected.grids.clear()
        bisected.rows.clear()
        generic.clear()
        res = grid_eigensolve(harmonic, M_EFF, spec, n_levels, x_zpf=X_ZPF,
                              gap=GAP)
        assert bisected.grids == [seed_points]
        rows = bisected.rows[seed_points]
        if n_levels == 3:
            assert rows == [every_row]
        else:   # levels 1-3, the bound on level 5, levels 4-5
            assert rows[:2] == [every_row] * 2 and len(rows) == 3
            assert rows[2] < every_row
        assert generic == [seed_points]
        np.testing.assert_allclose(res.eigenvalues, ref, rtol=0,
                                   atol=1e-10 * span)


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
    for seeds, certified in ((exact[[0, 1, 2]], True),
                             (exact[list(picks)], False)):
        every_row = [slice(0, diag.size)] * 3
        starts = oracle._seed_vectors(diag, t, seeds, every_row)
        found = oracle._refine(diag, t, seeds, starts, every_row)
        assert (found is not None) == certified


def test_ground_state_above_potential_minimum():
    res = grid_eigensolve(harmonic, M_EFF, GridSpec(), 3, x_zpf=X_ZPF,
                          gap=GAP)
    assert res.eigenvalues[0] > 0.0  # min of the harmonic well on the grid
    assert np.all(np.diff(res.eigenvalues) > 0)


def test_total_potential_zero_interaction_is_parabola():
    class _Zero:
        sigma = 1.0 * ANGSTROM     # the 5 angstrom gap is outside contact

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


def test_bus_coupling_does_not_depend_on_the_frequency_origin():
    # deep in the dispersive regime J is 4e-9 of the qubit frequency, so a
    # scan that rounds at the scale of omega rather than of the span and
    # Delta moves it when all three frequencies shift together
    args = (W_Q, W_Q, W_Q + 4.3 * MHZ, 1e-3 * MHZ, 1e-3 * MHZ)
    shift = 5e3 * MHZ
    j = two_qubit_bus_oracle(*args)
    shifted = two_qubit_bus_oracle(*(w + shift for w in args[:3]), *args[3:])
    assert shifted == pytest.approx(j, rel=1e-10, abs=0)


def test_bus_warns_at_exact_resonance():
    # the warning names its ratio and bound, as the JC oracle's does
    with pytest.warns(UserWarning, match=r"^g/\|Delta\| = inf > 0\.2: "
                      "above the dispersive regime$"):
        j = two_qubit_bus_oracle(W_Q, W_Q, W_Q, 1.0 * MHZ, 1.0 * MHZ)
    assert j > 0


@pytest.mark.parametrize("g1, g2", [(1.0 * MHZ, 0.0), (0.0, 1.0 * MHZ)],
                         ids=["g2_off", "g1_off"])
def test_bus_one_coupling_off_gives_zero(g1, g2):
    # qubit levels cross exactly, so the splitting closes to rounding
    with pytest.warns(UserWarning, match=r"^g/\|Delta\| = 0\.230 > 0\.2: "
                      "above the dispersive regime$"):
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
        assert sum(solved) == 12 * 33


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
