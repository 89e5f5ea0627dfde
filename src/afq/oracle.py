"""Brute-force validators for the perturbative spectrum and readout formulas.

Three independent machines, none of which share code paths with the
closed-form results they check:

* a position-grid Schroedinger eigensolver for the full biased-cantilever
  potential (3-point stencil, Dirichlet walls, one Richardson refinement
  from a grid doubling). Sturm bisection solves a seed grid 4x coarser
  than the requested one, to 1e-3 hbar omega (``SEED_TOL``): the seeds
  only pick the shifts that Rayleigh-quotient iteration starts from, and
  it refines them on the requested grid and then on the doubled one.
  Each refined grid must pass a certificate (small residuals, separated
  levels and a Sturm count) that its levels are the lowest ones, or it is
  bisected instead, to full precision;
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
from .potential import SurfacePotential
from .units import hbar

DISPERSIVE_RATIO_WARN = 0.2
GRID_CONVERGENCE_TOL = 1e-4
# seed bisection tolerance, in units of hbar omega = hbar^2 / (2 m x_zpf^2):
# Rayleigh-quotient iteration converges cubically from a seed this close
SEED_TOL = 1e-3


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


def total_potential(modal: CantileverModal, potential: SurfacePotential,
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


def _stencil_eigenvalues(diag, t, n_levels, abstol=0.0):
    """Lowest ``n_levels`` eigenvalues of a :func:`_stencil` by Sturm bisection
    (``dstebz``), each to within ``abstol`` (J); 0 bisects to machine precision.

    The lowest three levels are bisected apart from any above them: where
    a bisection stops depends on the interval it starts from, which spans
    every level asked for. So the three levels that give omega_10 and eta
    do not depend on ``n_levels``.
    """
    dstebz = _lapack().dstebz
    off = np.full(diag.size - 1, -t)
    levels = []
    for first, last in ((1, min(n_levels, 3)), (4, n_levels)):
        if first <= last:
            found, w, _, _, info = dstebz(diag, off, 2, 0.0, 0.0, first, last,
                                          abstol, b"E")
            if info:
                raise ConvergenceError(f"dstebz bisection failed (info = "
                                       f"{info})")
            levels.append(w[:found])
    return np.concatenate(levels)


def _refine(diag, t, seeds):
    """The stencil eigenvalues next to ``seeds`` (ascending), or None when
    they cannot be certified as the lowest ``len(seeds)``.

    Each level runs inverse iteration from a fixed generic vector, shifted
    to its seed, that turns into Rayleigh-quotient iteration: solve
    (T - sigma) y = x with ``dgtsv``, take x = y / |y| and move sigma to
    the Rayleigh quotient x.T x. It stops once the residual |(T - sigma) x|
    is below a tenth of the margin 1e-8 (seeds[-1] - seeds[0]), so each
    interval sigma +- margin holds an eigenvalue. The levels are certified
    when they ascend with gaps above 2 margin, which makes those
    eigenvalues distinct, and a Sturm count (``dstebz``) finds exactly
    ``len(seeds)`` eigenvalues at or below the top level + margin, which
    makes them the lowest ones.
    """
    dgtsv, dstebz = _lapack().dgtsv, _lapack().dstebz
    off = np.full(diag.size - 1, -t)
    start = np.random.default_rng(0).random(diag.size)
    margin = 1e-8 * (seeds[-1] - seeds[0])
    levels = []
    for sigma in seeds:
        x = start
        for _ in range(8):      # a certified level takes 2 or 3 solves
            *_, y, info = dgtsv(off, diag - sigma, off, x[:, None])
            if info:    # singular: sigma is an eigenvalue to rounding
                return None
            x = y[:, 0] / np.linalg.norm(y)
            tx = diag * x
            tx[1:] -= t * x[:-1]
            tx[:-1] -= t * x[1:]
            sigma = x @ tx
            if np.linalg.norm(tx - sigma * x) <= 0.1 * margin:
                break
        else:
            return None
        levels.append(sigma)
    levels = np.array(levels)
    count, *_ = dstebz(diag, off, 1, diag.min() - 2.0 * t, levels[-1] + margin,
                       0, 0, np.inf, b"E")
    if count == levels.size and np.all(np.diff(levels) > 2.0 * margin):
        return levels
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

    One grid is bisected, the seed: the same domain on
    ``(points - 1) // 4 + 1`` points (51 for the smallest ``GridSpec``),
    to ``SEED_TOL`` hbar omega, hbar omega = hbar^2 / (2 m_eff x_zpf^2).
    :func:`_refine` refines the seed levels on the ``points`` grid and
    those on the doubled grid, and certifies each grid's levels as its
    lowest eigenvalues. A grid that fails the certificate, as when two
    levels lie within 2e-8 of the span of each other or a seed is too
    coarse to lead to its level, is bisected instead, to full precision.
    Either way every raw level is its grid's eigenvalue to within about
    1e-10 of the span.
    At least three levels are solved for ``omega_10`` and ``eta``;
    ``n_levels`` sets how many ``eigenvalues`` are returned.
    """
    if n_levels > 10 or n_levels < 1:
        raise DomainError(f"n_levels must be in 1..10, got {n_levels}")
    lo, hi = grid.domain(x_zpf, gap)
    n_solve = max(n_levels, 3)
    levels = _stencil_eigenvalues(
        *_stencil(v_q, m_eff, lo, hi, (grid.points - 1) // 4 + 1), n_solve,
        SEED_TOL * hbar**2 / (2.0 * m_eff * x_zpf**2))
    raw = []
    for points in (grid.points, 2 * grid.points - 1):
        diag, t = _stencil(v_q, m_eff, lo, hi, points)
        levels = _refine(diag, t, levels)
        if levels is None:     # not certified: bisect this grid
            levels = _stencil_eigenvalues(diag, t, n_solve)
        raw.append(levels)
    coarse, fine = raw
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
    """``|Delta| = ... < 2g = ...`` when |Delta| < 2|g| (g != 0), else None.

    There the dispersive closed forms diverge and the JC eigenstates cannot
    be labeled: :func:`jc_dispersive_oracle` refuses and ``afq cqad`` warns.
    """
    if g != 0.0 and abs(delta) < 2.0 * abs(g):
        return f"|Delta| = {abs(delta):.3e} < 2g = {2 * abs(g):.3e}"
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
    to a single bus mode while sweeping qubit 1 through qubit 2, and
    returns half the minimum splitting of the two qubit-like branches (the
    pair of eigenvalues nearest omega_q2). The sweep is a zoom scan: 33
    evenly spaced qubit-1 frequencies over the range, then 33 over the two
    cells around the smallest splitting, and so on until the bracket stops
    shrinking or 12 scans have narrowed it at least 16^12-fold; a parabola
    through the last minimum and its neighbours refines it.
    :class:`DomainError` is raised when the second scan, which resolves
    1/1024 of the range, still puts the minimum at an end of the range.
    """
    _require_finite(omega_q1=omega_q1, omega_q2=omega_q2, omega_bus=omega_bus,
                    g1=g1, g2=g2)
    if max(abs(g1), abs(g2)) > DISPERSIVE_RATIO_WARN * min(
            abs(omega_bus - omega_q1), abs(omega_bus - omega_q2)):
        warnings.warn("g/|Delta| above the dispersive regime", stacklevel=2)
    span = max(8.0 * (abs(g1) + abs(g2)), 2.0 * abs(omega_q1 - omega_q2),
               1e-6 * abs(omega_q2))
    h = np.zeros((33, 3, 3))
    h[:, 1, 1] = omega_q2
    h[:, 2, 2] = omega_bus
    h[:, 0, 2] = h[:, 2, 0] = g1
    h[:, 1, 2] = h[:, 2, 1] = g2
    ends = lo, hi = omega_q2 - span, omega_q2 + span
    for scan in range(12):
        w1 = h[:, 0, 0] = np.linspace(lo, hi, 33)
        e0, e1, e2 = np.linalg.eigvalsh(h).T
        # e1 is always one of the two eigenvalues nearest omega_q2
        gaps = np.where(abs(e0 - omega_q2) <= abs(e2 - omega_q2),
                        e1 - e0, e2 - e1)
        i = int(np.argmin(gaps))
        if scan == 1 and w1[i] in ends:
            raise DomainError("no avoided crossing inside the sweep range")
        below, above = w1[max(i - 1, 0)], w1[min(i + 1, 32)]
        if above - below >= hi - lo:
            break
        lo, hi = below, above
    # parabolic refinement of the minimum
    i = min(max(i, 1), 31)
    y0, y1, y2 = gaps[i - 1], gaps[i], gaps[i + 1]
    denom = y0 - 2.0 * y1 + y2
    gap_min = y1 if denom == 0 else y1 - 0.125 * (y0 - y2) ** 2 / denom
    return 0.5 * max(gap_min, 0.0)
