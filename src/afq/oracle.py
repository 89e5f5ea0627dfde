"""Brute-force validators for the perturbative spectrum and readout formulas.

Three independent machines, none of which share code paths with the
closed-form results they check:

* a position-grid Schroedinger eigensolver for the full biased-cantilever
  potential (3-point stencil, Dirichlet walls, one Richardson refinement
  from a grid doubling), run on three nested grids in turn: a seed grid
  2x or 4x coarser than the requested one, that grid and the doubled one.
  Sturm bisection solves the seed grid, which has nothing to start from;
  in one pass over each group of levels (the lowest three, then the rest)
  it also decides the rows that the finer grids refine that group on
  (:func:`grid_eigensolve`). Each finer grid refines the previous grid's
  levels by Rayleigh-quotient iteration from its eigenvectors, carried
  onto it by cubic midpoints, and must pass a certificate (small
  residuals, separated levels and a Sturm count) that they are its lowest
  ones, which holds for the whole grid (:func:`_refine`,
  :func:`_sturm_count`); a level that fails it is bisected to full
  precision on every row. One inverse-iteration step at each bisected
  level, on its stretch, gives the eigenvector that grid hands on;
* exact ladder-operator matrix elements and a truncated-Fock-basis
  diagonalizer for polynomial potentials;
* small dense diagonalizations for the dispersive shift and the bus
  coupling: the one- and two-excitation blocks of the three-level
  Jaynes-Cummings model, the one-excitation sector of two qubits on a bus.

The grid solver uses scipy's tridiagonal LAPACK routines (``dstebz``
bisection and counts, ``dgtsv`` solves), loaded on the first grid solve
from its LAPACK extension without the ``scipy.linalg`` package import
(``scipy.linalg.lapack`` is the fallback), so importing afq needs only numpy.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .cantilever import CantileverModal, bias_state
from .errors import ConvergenceError, DomainError, LabelingError
from .potential import LennardJones
from .units import MHZ, hbar

DISPERSIVE_RATIO_WARN = 0.2
GRID_CONVERGENCE_TOL = 1e-4
# seed bisection tolerance, in units of hbar omega = hbar^2 / (2 m x_zpf^2):
# Rayleigh-quotient iteration converges cubically from a seed this close
SEED_TOL = 1e-3
# cubic interpolation at a midpoint from the two points each side of it
_CUBIC_MIDPOINT = np.array([-1.0, 9.0, 9.0, -1.0]) / 16.0


@dataclass(frozen=True)
class GridSpec:
    """Discretization of the oscillation coordinate.

    The domain is [-half_width * x_zpf, min(half_width * x_zpf,
    right_clip * gap)]: symmetric in units of the zero-point motion,
    clipped on the tip side to stay clear of the repulsive singularity.
    """

    half_width: float = 15.0
    right_clip: float = 0.9
    points: int = 4001

    def __post_init__(self):
        if (not isinstance(self.points, (int, np.integer))
                or self.points < 201 or self.points % 2 == 0):
            raise DomainError(
                f"points must be an odd integer >= 201, got {self.points}")
        if not self.half_width > 0 or not 0 < self.right_clip < 1:
            raise DomainError("invalid grid extents")

    def domain(self, x_zpf: float, gap: float):
        lo = -self.half_width * x_zpf
        hi = min(self.half_width * x_zpf, self.right_clip * gap)
        if hi <= lo:
            raise DomainError("empty eigensolver domain")
        return lo, hi


@dataclass(frozen=True)
class OracleResult:
    """Eigensolver output: levels ascending, a grid-doubling error estimate,
    and omega_10 and eta (rad/s) from the three lowest levels."""

    eigenvalues: tuple
    convergence_estimate: float
    omega_10: float
    eta: float


def total_potential(modal: CantileverModal, potential: LennardJones,
                    x: float):
    """Effective oscillation potential V_q(dx) = k(x_c+dx)^2/2 + V(x-dx).

    ``dx`` is the cantilever displacement from its biased equilibrium,
    positive toward the tip. The linear terms cancel by the force
    balance, so dx = 0 is a stationary point of the returned callable.
    """
    state = bias_state(modal, potential, x)
    k = modal.spring_constant
    x_c = state.equilibrium_offset

    def v_q(dx):
        return 0.5 * k * (x_c + dx) ** 2 + potential.value(x - dx)

    return v_q


def _stencil(v_q, m_eff, lo, hi, points):
    """Diagonal and hopping t of the 3-point Hamiltonian on the interior
    of ``points`` evenly spaced grid points (the off-diagonal is -t)."""
    grid = np.linspace(lo, hi, points)
    h = grid[1] - grid[0]
    with np.errstate(all="ignore"):
        t = hbar**2 / (2.0 * m_eff * h**2)
        diag = np.asarray(v_q(grid[1:-1]), dtype=float) + 2.0 * t
    if not np.isfinite(diag).all():     # an infinite t, or V, on the grid
        raise DomainError(f"grid stencil on [{lo:.4g}, {hi:.4g}] m is not "
                          f"finite (hopping t = {t:.4g} J)")
    return diag, t


@functools.cache
def _lapack():
    """scipy's LAPACK extension (``dstebz``, ``dgtsv``), loaded once from its
    file under its scipy name, which a later ``import scipy.linalg`` reuses,
    without that package import; else it is ``scipy.linalg.lapack``."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    package = importlib.util.find_spec("scipy")
    spec = package and importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(path, "linalg")
               for path in package.submodule_search_locations])
    if spec is not None:
        try:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
        except (ImportError, OSError):
            pass
    import scipy.linalg.lapack
    return scipy.linalg.lapack


def _stencil_eigenvalues(diag, t, first, last, abstol=0.0):
    """Eigenvalues ``first`` to ``last`` (1-based) of a :func:`_stencil` by
    Sturm bisection (``dstebz``), each to within ``abstol`` (J); 0 bisects
    to machine precision."""
    off = np.full(diag.size - 1, -t)
    found, w, _, _, info = _lapack().dstebz(diag, off, 2, 0.0, 0.0, first,
                                            last, abstol, b"E")
    if info:
        raise ConvergenceError(f"dstebz bisection failed (info = {info})")
    return w[:found]


@functools.lru_cache(maxsize=8)
def _generic_vector(n: int) -> np.ndarray:
    """``n`` fixed values in [0, 1): SplitMix64 of the counters 1..n.

    Inverse iteration needs a start vector with a component along each
    eigenvector it converges to. A hashed counter is as generic as a
    random draw, with no regular pattern to line up with the stencil's
    modes, and is integer arithmetic in uint64 (wrapping): no
    random-number module is imported. Each size is computed once per
    process (a grid solve uses two) and handed out read-only.
    """
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    out = (z >> np.uint64(11)) * 2.0**-53
    out.flags.writeable = False
    return out


def _applied(diag, t, x):
    """T x for the :func:`_stencil` Hamiltonian T (off-diagonal -t)."""
    tx = diag * x
    tx[1:] -= t * x[:-1]
    tx[:-1] -= t * x[1:]
    return tx


def _inverse_step(diag, off, sigma, x):
    """(T - sigma)^-1 x scaled to unit length by one ``dgtsv`` solve, or None
    when T - sigma is singular to rounding (sigma is an eigenvalue)."""
    *_, y, info = _lapack().dgtsv(off, diag - sigma, off, x[:, None])
    if info:
        return None
    y = y[:, 0]
    return y / np.sqrt(y @ y)       # np.linalg.norm(y), without its overhead


def _seed_vectors(diag, t, seeds, rows):
    """One inverse-iteration step per seed on its slice in ``rows``, a
    stretch of the grid, from the generic vector there shifted to that
    seed: the start vectors, as unit rows padded with zeros, that a
    bisected grid hands on for the levels it bisected, or None."""
    off = np.full(diag.size - 1, -t)
    start = _generic_vector(diag.size)
    vectors = np.zeros((len(seeds), diag.size))
    for row, sigma, stretch in zip(vectors, seeds, rows):
        d = diag[stretch]
        x = _inverse_step(d, off[:d.size - 1], sigma, start[stretch])
        if x is None:
            return None
        row[stretch] = x
    return vectors


def _doubled(rows):
    """Rows of values at the n interior points of a grid with Dirichlet
    walls, carried onto the 2n + 1 interior points of the grid with half
    its spacing.

    The old points keep their values; each midpoint takes the cubic through
    its four nearest points, (9 (f_0 + f_1) - (f_-1 + f_2)) / 16, where a
    wall is 0 and the point past it is the odd reflection -f_1 of the first
    interior one. The rows are padded side by side into one flat array, so
    the midpoints of all of them are one convolution.
    """
    k, n = rows.shape
    padded = np.zeros((k, n + 4))       # -f_1, 0, f_1 .. f_n, 0, -f_n
    padded[:, 2:-2] = rows
    padded[:, 0] = -rows[:, 0]
    padded[:, -1] = -rows[:, -1]
    # entry 3 + i of the full convolution is the midpoint of flat i + 1, i + 2
    mid = np.convolve(padded.ravel(), _CUBIC_MIDPOINT)[3:].reshape(k, n + 4)
    out = np.empty((k, 2 * n + 1))
    out[:, ::2] = mid[:, :n + 1]
    out[:, 1::2] = rows
    return out


def _reach(diag, t, sigma, floor):
    """The grid points (a, b) between which lie the rows that the stencil
    eigenvectors of the levels below ``sigma`` reach above ``floor`` (of a
    unit amplitude); points 0 and diag.size + 1 are the walls. On a grid
    ``scale`` times finer, nested on this one, they are the rows
    ``slice(a * scale, b * scale - 1)``.

    A level oscillates on the rows where diag - sigma < 2t; past them its
    eigenvector decays by exp(-acosh((diag - sigma) / 2t)) a row. The
    stretch is those rows, widened on each side until that decay adds up
    past log(1 / floor), or to the wall. It is read off the potential, not
    off an eigenvector, whose rounding floor lies near 1e-16 of its largest
    entry on every row. On the seed grid it gives both the windows that
    grid's levels are bisected on (at sigma the potential's minimum, the
    block of rows around it) and the stretches the finer grids refine and
    count on (:func:`grid_eigensolve`).
    """
    arg = (diag - sigma) / (2.0 * t)
    # the rows below sigma, or the lowest one should there be none
    inside = np.flatnonzero(arg <= max(arg.min(), 1.0))
    first, last = inside[0], inside[-1]
    # each side takes its rows up to the first one whose decay passes need
    need = -np.log(floor)
    left, right = (np.searchsorted(np.cumsum(np.arccosh(side)), need, "right")
                   for side in (arg[:first][::-1], arg[last + 1:]))
    return max(first - left - 1, 0), min(last + right + 3, diag.size + 1)


def _sturm_count(diag, t, sigma, hull):
    """A bound from above on the number of stencil eigenvalues at or below
    ``sigma``, by one ``dstebz`` count on the rows ``hull`` (a slice), or
    that number, by a count of every row, where some row outside ``hull``
    has diag - sigma <= 2t.

    Where none has, each block of rows outside the hull, eliminated from
    its wall inward, leaves pivots p in (d - sigma - t, d - sigma], each
    above t, for d the diagonal at its row: T - sigma is positive definite
    there. By Sylvester's law of inertia T then has as many eigenvalues at
    or below sigma as the hull's own block with the diagonal at each end
    lowered by t^2 / p, for p the pivot of the row next to that end.
    Lowering it by t^2 / (d - sigma - t) instead, at least t^2 / p for any
    such p, can only add eigenvalues at or below sigma.
    """
    a, b = hull.start, hull.stop
    if min(diag[:a].min(initial=np.inf),
           diag[b:].min(initial=np.inf)) - sigma <= 2.0 * t:
        a, b = 0, diag.size
    d = diag[a:b].copy()
    if a > 0:
        d[0] -= t * t / (diag[a - 1] - sigma - t)
    if b < diag.size:
        d[-1] -= t * t / (diag[b] - sigma - t)
    return _lapack().dstebz(d, np.full(d.size - 1, -t), 1, d.min() - 2.0 * t,
                            sigma, 0, 0, np.inf, b"E")[0]


def _refine(diag, t, seeds, starts, rows):
    """The stencil eigenvalues next to ``seeds`` (ascending) and their unit
    eigenvectors as rows: all of them, or only the lowest three where only
    those are certified as the lowest eigenvalues, or None.

    Each level runs Rayleigh-quotient iteration on its slice in ``rows``, a
    stretch of the grid: solve (T_S - sigma) y = x with ``dgtsv`` for the
    stencil T_S on those rows, take x = y / |y| and move sigma to the
    Rayleigh quotient x.T_S x. It starts from the stretch of the level's row
    of ``starts``, with its Rayleigh quotient as the first shift, and hands
    on x padded with zeros. For that padded vector the squared whole-grid
    residual |(T - sigma) x|^2 is the stretch's own plus t^2 (x_first^2 +
    x_last^2), the couplings -t x out of its ends, less an end at a wall.
    Iteration stops once that residual is below a tenth of the margin 1e-8
    (seeds[2] - seeds[0]), so each interval sigma +- margin holds an
    eigenvalue of T. The margin follows the E_2 - E_0 span, not the top
    seed, so the lowest three levels stop where they would with any number
    of seeds. A level is accepted only above the last by more than 2
    margin, which makes the eigenvalues distinct; the first that is not, or
    that does not stop within 8 solves (as when its stretch cuts into it),
    ends the refinement. The lowest k levels are certified when
    :func:`_sturm_count` on the hull of their stretches finds at most k
    eigenvalues at or below level k + margin: that bounds the whole grid's
    count from above, and the k distinct levels bound it from below, so
    they are the lowest ones. k = 3 is tried only where k = len(seeds)
    fails: that certificate implies the lowest three's, which thus does
    not depend on the others.
    """
    off = np.full(diag.size - 1, -t)
    margin = 1e-8 * (seeds[2] - seeds[0])
    levels, vectors = [], []
    for level, (x, stretch) in enumerate(zip(starts, rows)):
        d, x = diag[stretch], x[stretch]
        # the hopping out of each end of the stretch, none at a wall
        t_lo = t if stretch.start > 0 else 0.0
        t_hi = t if stretch.stop < diag.size else 0.0
        sigma = x @ _applied(d, t, x) / (x @ x)
        # a certified level takes 1 to 2 solves at 4001 points, up to 7 at 801
        for _ in range(8):
            x = _inverse_step(d, off[:d.size - 1], sigma, x)
            if x is None:
                break
            tx = _applied(d, t, x)
            sigma = x @ tx
            r = tx - sigma * x
            if (r @ r + (t_lo * x[0]) ** 2 + (t_hi * x[-1]) ** 2
                    <= (0.1 * margin) ** 2):
                if not levels or sigma - levels[-1] > 2.0 * margin:
                    levels.append(sigma)
                    vectors.append(x)
                break
        if len(levels) == level:    # it did not stop, or not above the last
            break
    for k in dict.fromkeys((len(seeds), 3)):    # all, else the lowest 3
        hull = slice(min(s.start for s in rows[:k]),
                     max(s.stop for s in rows[:k]))
        if (len(levels) >= k
                and _sturm_count(diag, t, levels[k - 1] + margin, hull) == k):
            padded = np.zeros((k, diag.size))
            for row, stretch, x in zip(padded, rows, vectors):
                row[stretch] = x
            return np.array(levels[:k]), padded
    return None


def grid_eigensolve(v_q, m_eff: float, grid: GridSpec, n_levels: int, *,
                    x_zpf: float, gap: float,
                    check_convergence: bool = True) -> OracleResult:
    """Lowest eigenvalues of -(hbar^2/2m) d^2/ddx^2 + V_q(dx) on the grid.

    Dirichlet walls at the domain ends; the 3-point solve is repeated on
    a doubled grid and the two are Richardson-combined (the stencil is
    second order, so the combination cancels the leading h^2 error).
    ``convergence_estimate`` is the relative change of the E_2 - E_0
    span between the raw solves; above ``GRID_CONVERGENCE_TOL`` it raises
    :class:`ConvergenceError` unless ``check_convergence`` is false.

    Three grids of the domain are solved in turn: a seed grid of every 4th
    point of the ``points`` grid (51 points for the smallest ``GridSpec``),
    or every 2nd where ``points % 4 == 3``, so that each grid is nested in
    the next; the ``points`` grid; and the doubled grid. The seed grid is
    bisected to ``SEED_TOL`` hbar omega (hbar omega = hbar^2 /
    (2 m_eff x_zpf^2)), the lowest three levels apart from the rest, since
    where a bisection stops depends on the interval that it starts from.
    It decides each group of levels in one pass: (1) a bound on the group's
    top level, that level of the previous window, which by Cauchy
    interlacing lies at or above the grid's (for the lowest three, the
    block of rows around the potential's minimum; a window of fewer rows
    gives no bound, and so every row); (2) the group's window, the rows
    that the levels below the bound plus ``SEED_TOL`` reach
    (:func:`_reach`); (3) the bisection on that window; (4) the group's
    stretch, the rows that the levels below its top level plus a tenth of
    the E_2 - E_0 span reach, carried onto the finer grids by its end
    points, since the grids are nested.
    Each finer grid refines the previous grid's levels by :func:`_refine`
    on their stretches, from their eigenvectors carried onto it by
    :func:`_doubled`, and bisects to full precision, on every row, the
    levels that fail the certificate: those above E_2 alone where the
    lowest three pass, else all of them, as when two levels lie within
    2e-8 of the span of each other, or as when a stretch is too narrow for
    its level. A grid hands on its refined eigenvectors and, for each level
    it bisected, one inverse-iteration step on the level's stretch from the
    generic vector shifted to that level (:func:`_seed_vectors`). Either way
    every raw level is its grid's eigenvalue to within about 1e-10 of the
    span, and the lowest three take the same path whatever ``n_levels`` is.
    At least three levels are solved for ``omega_10`` and ``eta``;
    ``n_levels`` sets how many ``eigenvalues`` are returned.
    """
    if (isinstance(n_levels, bool)
            or not isinstance(n_levels, (int, np.integer))
            or not 1 <= n_levels <= 10):
        raise DomainError(f"n_levels must be in 1..10, got {n_levels}")
    lo, hi = grid.domain(x_zpf, gap)
    n_solve = max(n_levels, 3)
    step = 4 if grid.points % 4 == 1 else 2
    sizes = ((grid.points - 1) // step + 1, grid.points, 2 * grid.points - 1)
    abstol = SEED_TOL * hbar**2 / (2.0 * m_eff * x_zpf**2)
    raw, vectors, reach = [], None, []
    for points, scale in zip(sizes, (1, step, 2 * step)):
        diag, t = _stencil(v_q, m_eff, lo, hi, points)
        found = None
        if vectors is not None:     # the previous grid's, carried over
            while vectors.shape[1] < diag.size:
                vectors = _doubled(vectors)
            found = _refine(diag, t, raw[-1], vectors,
                            [slice(a * scale, b * scale - 1) for a, b in reach])
        levels, vectors = found or (np.empty(0), np.empty((0, diag.size)))
        if not raw:     # the seed grid's first bound: rows around the minimum
            a, b = _reach(diag, t, diag.min() - 2.0 * t, abstol / t)
            window = slice(a, b - 1)
        # bisect what is not certified, the lowest three apart from the rest
        for first, last in ((1, 3), (4, n_solve)):
            if not levels.size < first <= last:
                continue
            if raw:     # refused on a refined grid: every row, in full
                levels = np.append(levels, _stencil_eigenvalues(
                    diag, t, first, last))
                continue
            # the seed grid, steps (1) to (4) of the docstring
            bound = np.inf
            if window.stop - window.start >= last:
                bound = _stencil_eigenvalues(diag[window], t, last, last,
                                             abstol)[0]
            a, b = _reach(diag, t, bound + abstol, abstol / t)
            window = slice(a, b - 1)
            levels = np.append(levels, _stencil_eigenvalues(
                diag[window], t, first, last, abstol))
            # the stretch reaches to an amplitude whose coupling t x out of
            # it is a tenth of the residual bound on the doubled grid, where
            # t is largest
            span = levels[2] - levels[0]
            floor = 1e-10 * span / (t * (2 * step) ** 2)
            reach += [_reach(diag, t, levels[-1] + 0.1 * span,
                             floor)] * (last - first + 1)
        if points < sizes[-1] and len(vectors) < n_solve:
            rows = [slice(a * scale, b * scale - 1) for a, b in reach]
            bisected = _seed_vectors(diag, t, levels[len(vectors):],
                                     rows[len(vectors):])
            vectors = (None if bisected is None
                       else np.concatenate([vectors, bisected]))
        raw.append(levels)
    _, coarse, fine = raw
    span_c = coarse[2] - coarse[0]
    span_f = fine[2] - fine[0]
    estimate = abs(span_f - span_c) / abs(span_f)
    if check_convergence and estimate > GRID_CONVERGENCE_TOL:
        raise ConvergenceError(
            f"grid doubling moved E2 - E0 by {estimate:.3e} relative "
            f"(> {GRID_CONVERGENCE_TOL:g}); refine GridSpec.points")
    refined = (4.0 * fine - coarse) / 3.0
    e0, e1, e2 = refined[:3]
    return OracleResult(tuple(refined[:n_levels]), estimate,
                        float((e1 - e0) / hbar), float((e2 - 2 * e1 + e0) / hbar))


def _annihilation(dim: int) -> np.ndarray:
    """The annihilation operator a in a Fock basis truncated at ``dim`` levels."""
    a = np.zeros((dim, dim))
    a[np.arange(dim - 1), np.arange(1, dim)] = np.sqrt(np.arange(1, dim))
    return a


def fock_matrix_element(n: int, power: int) -> float:
    """<n| (a + a^dag)^power |n> by repeated matrix multiplication, exact in
    the Fock basis of n + power // 2 + 1 levels: a path of ``power`` ladder
    steps from n back to n climbs at most ``power // 2`` levels above n."""
    if n < 0 or power < 0:
        raise DomainError(f"n and power must be >= 0, got n = {n}, "
                          f"power = {power}")
    a = _annihilation(n + power // 2 + 1)
    return float(np.linalg.matrix_power(a + a.T, power)[n, n])


def fock_eigensolve(m_eff: float, omega_basis: float, poly: dict,
                    dim: int = 60, n_levels: int = 5) -> np.ndarray:
    """Diagonalize p^2/2m + sum_k c_k dx^k in a truncated Fock basis.

    ``poly`` maps polynomial order k to the coefficient c_k (SI). The
    basis is the harmonic oscillator of (m_eff, omega_basis). Cross-check
    companion to the grid solver; a hard repulsive wall is represented
    poorly here, polynomials are fine.
    """
    if dim < n_levels:
        raise DomainError(f"dim = {dim} holds fewer than n_levels = "
                          f"{n_levels} levels")
    xz = np.sqrt(hbar / (2.0 * m_eff * omega_basis))
    pz = hbar / (2.0 * xz)
    a = _annihilation(dim)
    a_plus_adag = a + a.T
    adag_minus_a = a.T - a
    p2 = -(pz**2) * adag_minus_a @ adag_minus_a
    h = p2 / (2.0 * m_eff)
    for order, coeff in sorted(poly.items()):
        if coeff == 0.0:
            continue
        h = h + coeff * xz**order * np.linalg.matrix_power(a_plus_adag, order)
    return np.linalg.eigvalsh(h)[:n_levels]


def _require_finite(**values):
    """Raise :class:`DomainError` naming the first argument with a NaN or
    infinite entry."""
    for name, value in values.items():
        if not np.isfinite(value).all():
            raise DomainError(f"{name} must be finite, got {value}")


def _near_resonance(delta: float, g: float):
    """``|Delta|/2pi = ... MHz < 2g/2pi = ... MHz`` when |Delta| < 2|g|
    (g != 0), else None.

    There the dispersive closed forms diverge and the JC eigenstates cannot
    be labeled: :func:`jc_dispersive_oracle` refuses and ``afq cqad`` warns.
    """
    if g != 0.0 and abs(delta) < 2.0 * abs(g):
        return (f"|Delta|/2pi = {abs(delta) / MHZ:.3f} MHz < "
                f"2g/2pi = {2 * abs(g) / MHZ:.3f} MHz")
    return None


def jc_dispersive_oracle(qubit_levels, omega_cavity: float, g: float) -> float:
    """Dispersive shift from exact diagonalization of the 3-level JC model.

    ``qubit_levels`` are the three lowest qubit energies (J); the coupling
    is excitation-conserving with harmonic-ratio matrix elements, so chi
    needs only |0,0> (E_g0 = qubit_levels[0]), the one-excitation block
    {|1,0>, |0,1>} and the two-excitation block {|1,1>, |0,2>, |2,0>},
    whose couplings are sqrt(2) hbar g. Returns

        chi = [(E_e1 - E_e0) - (E_g1 - E_g0)] / (2 hbar)

    with each product state labeling the eigenstate of its block that holds
    the largest share of it: one argmax per block. |Delta| >= 2g (refused
    below that) puts at least cos^2(pi/8) = 0.854 of |1,0> in one
    eigenstate, so only |1,1>, which mixes with |2,0> near Delta = -eta,
    can be ambiguous.
    """
    e_q = np.asarray(qubit_levels, dtype=float)
    if e_q.shape != (3,):
        raise DomainError("qubit_levels must be exactly three energies")
    _require_finite(qubit_levels=e_q, omega_cavity=omega_cavity, g=g)
    omega_10 = (e_q[1] - e_q[0]) / hbar
    delta = omega_10 - omega_cavity
    near = _near_resonance(delta, g)
    if near:
        raise LabelingError(f"{near}: labeling unreliable near resonance")
    if g != 0.0 and abs(g / delta) > DISPERSIVE_RATIO_WARN:
        warnings.warn(f"g/|Delta| = {abs(g / delta):.3f} > "
                      f"{DISPERSIVE_RATIO_WARN}: outside the dispersive regime",
                      stacklevel=2)

    hw = hbar * omega_cavity
    hg = hbar * g
    hg2 = hg * np.sqrt(2.0)
    e_one, v_one = np.linalg.eigh([[e_q[1], hg],             # |1,0>
                                   [hg, e_q[0] + hw]])       # |0,1>
    e_two, v_two = np.linalg.eigh([[e_q[1] + hw, hg2, hg2],  # |1,1>
                                   [hg2, e_q[0] + 2 * hw, 0.0],  # |0,2>
                                   [hg2, 0.0, e_q[2]]])      # |2,0>
    i10 = int(np.argmax(v_one[0] ** 2))     # |0,1> is the other eigenstate
    i11 = int(np.argmax(v_two[0] ** 2))
    if v_two[0, i11] ** 2 < 0.5:
        raise LabelingError(
            "eigenstate labeling ambiguous for product state (1, 1)")
    return 0.5 * ((e_two[i11] - e_one[i10])
                  - (e_one[1 - i10] - e_q[0])) / hbar


def two_qubit_bus_oracle(omega_q1: float, omega_q2: float, omega_bus: float,
                         g1: float, g2: float) -> float:
    """Bus-mediated coupling from the avoided crossing of two qubits.

    Diagonalizes the one-excitation sector of two qubits exchange-coupled
    to a single bus mode, in qubit 2's frame (qubit 2 at 0, the bus at
    omega_bus - omega_q2), while sweeping qubit 1 through qubit 2, and
    returns half the smallest splitting of the two qubit-like branches
    (the pair of eigenvalues nearest qubit 2) that the last scan samples.
    The sweep is a zoom scan: 33 evenly spaced qubit-1 detunings over
    [-span, span], then 33 over the two cells around the smallest
    splitting, and so on until the bracket stops shrinking or the 12th
    scan, which spans 16^-11 of the first one's range.
    :class:`DomainError` is raised when the second scan, which resolves
    1/1024 of the range, still puts the minimum at an end of the range.
    """
    _require_finite(omega_q1=omega_q1, omega_q2=omega_q2, omega_bus=omega_bus,
                    g1=g1, g2=g2)
    g_max = max(abs(g1), abs(g2))
    delta_min = min(abs(omega_bus - omega_q1), abs(omega_bus - omega_q2))
    if g_max > DISPERSIVE_RATIO_WARN * delta_min:
        ratio = g_max / delta_min if delta_min else np.inf
        warnings.warn(f"g/|Delta| = {ratio:.3f} > {DISPERSIVE_RATIO_WARN}: "
                      "above the dispersive regime", stacklevel=2)
    span = max(8.0 * (abs(g1) + abs(g2)), 2.0 * abs(omega_q1 - omega_q2),
               1e-6 * abs(omega_q2))
    h = np.zeros((33, 3, 3))
    h[:, 2, 2] = omega_bus - omega_q2
    h[:, 0, 2] = h[:, 2, 0] = g1
    h[:, 1, 2] = h[:, 2, 1] = g2
    ends = lo, hi = -span, span
    steps = np.arange(33.0)
    for scan in range(12):
        # np.linspace(lo, hi, 33), without its overhead
        w1 = steps * ((hi - lo) / 32) + lo
        w1[-1] = hi
        h[:, 0, 0] = w1
        e = np.linalg.eigvalsh(h)
        split = np.diff(e)
        # e1 is always one of the two eigenvalues nearest qubit 2, at 0
        gaps = np.where(abs(e[:, 0]) <= abs(e[:, 2]), split[:, 0], split[:, 1])
        i = int(np.argmin(gaps))
        if scan == 1 and w1[i] in ends:
            raise DomainError("no avoided crossing inside the sweep range")
        below, above = w1[max(i - 1, 0)], w1[min(i + 1, 32)]
        if above - below >= hi - lo:
            break
        lo, hi = below, above
    return 0.5 * gaps[i]
