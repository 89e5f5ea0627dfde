"""Brute-force validators for the perturbative spectrum and readout formulas.

Three independent machines, none of which share code paths with the
closed-form results they check:

* a position-grid Schroedinger eigensolver for the full biased-cantilever
  potential (3-point stencil, Dirichlet walls, one Richardson refinement
  from a grid doubling);
* exact ladder-operator matrix elements and a truncated-Fock-basis
  diagonalizer for polynomial potentials;
* small dense diagonalizations of the Jaynes-Cummings and two-qubit-bus
  Hamiltonians for the dispersive shift and the bus-mediated coupling.

The grid solver uses scipy's tridiagonal LAPACK driver, imported on the
first grid solve, so importing afq needs only numpy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .cantilever import CantileverModal, bias_state
from .errors import (ConvergenceError, DomainError, LabelingError,
                     TruncationError)
from .potential import SurfacePotential
from .units import hbar

DISPERSIVE_RATIO_WARN = 0.2


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
        if self.points < 201 or self.points % 2 == 0:
            raise DomainError(f"points must be odd and >= 201, got {self.points}")
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
    """Eigensolver output: levels ascending plus a grid-doubling error estimate."""

    eigenvalues: tuple
    convergence_estimate: float


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


def _stencil_eigenvalues(v_q, m_eff, lo, hi, points, n_levels):
    from scipy.linalg import eigh_tridiagonal
    grid = np.linspace(lo, hi, points)
    h = grid[1] - grid[0]
    t = hbar**2 / (2.0 * m_eff * h**2)
    diag = np.asarray(v_q(grid[1:-1]), dtype=float) + 2.0 * t
    off = np.full(points - 3, -t)
    return eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                            select_range=(0, n_levels - 1))


def grid_eigensolve(v_q, m_eff: float, grid: GridSpec, n_levels: int, *,
                    x_zpf: float, gap: float,
                    check_convergence: bool = True) -> OracleResult:
    """Lowest eigenvalues of -(hbar^2/2m) d^2/ddx^2 + V_q(dx) on the grid.

    Dirichlet walls at the domain ends; the 3-point solve is repeated on
    a doubled grid and the two are Richardson-combined (the stencil is
    second order, so the combination cancels the leading h^2 error).
    ``convergence_estimate`` is the relative change of the E_2 - E_0
    span between the raw solves.
    """
    if n_levels > 10 or n_levels < 1:
        raise DomainError(f"n_levels must be in 1..10, got {n_levels}")
    lo, hi = grid.domain(x_zpf, gap)
    n_solve = max(n_levels, 3)
    coarse = _stencil_eigenvalues(v_q, m_eff, lo, hi, grid.points, n_solve)
    fine = _stencil_eigenvalues(v_q, m_eff, lo, hi, 2 * grid.points - 1, n_solve)
    span_c = coarse[2] - coarse[0]
    span_f = fine[2] - fine[0]
    estimate = abs(span_f - span_c) / abs(span_f)
    if check_convergence and estimate > 1e-4:
        raise ConvergenceError(
            f"grid doubling moved E2 - E0 by {estimate:.3e} relative "
            "(> 1e-4); refine GridSpec.points")
    refined = (4.0 * fine - coarse) / 3.0
    return OracleResult(eigenvalues=tuple(refined[:n_levels]),
                        convergence_estimate=estimate)


def _annihilation(dim: int) -> np.ndarray:
    """The annihilation operator a in a Fock basis truncated at ``dim`` levels."""
    a = np.zeros((dim, dim))
    a[np.arange(dim - 1), np.arange(1, dim)] = np.sqrt(np.arange(1, dim))
    return a


def ladder_sum_matrix(dim: int) -> np.ndarray:
    """(a + a^dag) in a Fock basis truncated at ``dim`` levels."""
    a = _annihilation(dim)
    return a + a.T


def fock_matrix_element(n: int, power: int, truncation: int) -> float:
    """<n| (a + a^dag)^power |n> by repeated matrix multiplication."""
    if truncation < n + power + 5:
        raise TruncationError(
            f"truncation {truncation} < n + power + 5 = {n + power + 5}")
    m = np.linalg.matrix_power(ladder_sum_matrix(truncation), power)
    return float(m[n, n])


def fock_eigensolve(m_eff: float, omega_basis: float, poly: dict,
                    dim: int = 60, n_levels: int = 5) -> np.ndarray:
    """Diagonalize p^2/2m + sum_k c_k dx^k in a truncated Fock basis.

    ``poly`` maps polynomial order k to the coefficient c_k (SI). The
    basis is the harmonic oscillator of (m_eff, omega_basis). Cross-check
    companion to the grid solver; a hard repulsive wall is represented
    poorly here, polynomials are fine.
    """
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


def _max_overlap_labels(evecs, indices):
    labels = {}
    taken = set()
    for key, row in indices.items():
        order = np.argsort(-np.abs(evecs[row, :]))
        pick = next((int(i) for i in order if int(i) not in taken), None)
        if pick is None or np.abs(evecs[row, pick]) ** 2 < 0.5:
            raise LabelingError(
                f"eigenstate labeling ambiguous for product state {key}")
        taken.add(pick)
        labels[key] = pick
    return labels


def jc_dispersive_oracle(qubit_levels, omega_cavity: float, g: float,
                         photon_truncation: int = 20) -> float:
    """Dispersive shift from exact diagonalization of the 3-level JC model.

    ``qubit_levels`` are the three lowest qubit energies (J); the cavity
    is truncated at ``photon_truncation`` Fock states; the coupling is
    excitation-conserving with harmonic-ratio matrix elements. Returns

        chi = [(E_e1 - E_e0) - (E_g1 - E_g0)] / (2 hbar)

    with eigenstates labeled by maximum overlap against the uncoupled
    product states.
    """
    e_q = np.asarray(qubit_levels, dtype=float)
    if e_q.shape != (3,):
        raise DomainError("qubit_levels must be exactly three energies")
    if photon_truncation < 10:
        raise DomainError("photon_truncation must be >= 10")
    omega_10 = (e_q[1] - e_q[0]) / hbar
    delta = omega_10 - omega_cavity
    if g != 0.0 and abs(delta) < 2.0 * abs(g):
        raise LabelingError(
            f"|Delta| = {abs(delta):.3e} < 2g = {2 * abs(g):.3e}: "
            "labeling unreliable near resonance")
    if g != 0.0 and abs(g / delta) > DISPERSIVE_RATIO_WARN:
        warnings.warn(f"g/|Delta| = {abs(g / delta):.3f} > "
                      f"{DISPERSIVE_RATIO_WARN}: outside the dispersive regime",
                      stacklevel=2)

    n_ph = photon_truncation
    dim = 3 * n_ph
    idx = lambda j, n: j * n_ph + n
    diag = np.empty(dim)
    for j in range(3):
        diag[j * n_ph:(j + 1) * n_ph] = e_q[j] + hbar * omega_cavity * np.arange(n_ph)
    h = np.diag(diag)
    for j in range(2):
        for n in range(n_ph - 1):
            amp = hbar * g * np.sqrt(j + 1) * np.sqrt(n + 1)
            h[idx(j + 1, n), idx(j, n + 1)] += amp
            h[idx(j, n + 1), idx(j + 1, n)] += amp
    evals, evecs = np.linalg.eigh(h)
    rows = {(j, n): idx(j, n) for (j, n) in [(0, 0), (0, 1), (1, 0), (1, 1)]}
    lab = _max_overlap_labels(evecs, rows)
    e = {key: evals[pick] for key, pick in lab.items()}
    return 0.5 * ((e[(1, 1)] - e[(1, 0)]) - (e[(0, 1)] - e[(0, 0)])) / hbar


def two_qubit_bus_oracle(omega_q1: float, omega_q2: float, omega_bus: float,
                         g1: float, g2: float) -> float:
    """Bus-mediated coupling from the avoided crossing of two qubits.

    Diagonalizes the one-excitation sector of two qubits exchange-coupled
    to a single bus mode while sweeping qubit 1 through qubit 2 in 4001
    evenly spaced steps; returns half the minimum splitting of the two
    qubit-like branches (the pair of eigenvalues nearest omega_q2), refined
    by parabolic interpolation around the discrete minimum.
    """
    deltas = [abs(omega_bus - omega_q1), abs(omega_bus - omega_q2)]
    gmax = max(abs(g1), abs(g2))
    if gmax > 0 and any(gmax / d > DISPERSIVE_RATIO_WARN for d in deltas if d > 0):
        warnings.warn("g/|Delta| above the dispersive regime", stacklevel=2)
    span = max(8.0 * (abs(g1) + abs(g2)), 2.0 * abs(omega_q1 - omega_q2),
               1e-6 * abs(omega_q2))
    w1 = np.linspace(omega_q2 - span, omega_q2 + span, 4001)
    h = np.zeros((w1.size, 3, 3))
    h[:, 0, 0] = w1
    h[:, 1, 1] = omega_q2
    h[:, 2, 2] = omega_bus
    h[:, 0, 2] = h[:, 2, 0] = g1
    h[:, 1, 2] = h[:, 2, 1] = g2
    evals = np.linalg.eigvalsh(h)
    dist = np.abs(evals - omega_q2)
    order = np.argsort(dist, axis=1)
    pair = np.take_along_axis(evals, order[:, :2], axis=1)
    gaps = np.abs(pair[:, 1] - pair[:, 0])
    i = int(np.argmin(gaps))
    if i in (0, w1.size - 1):
        raise DomainError("no avoided crossing inside the sweep range")
    # parabolic refinement of the minimum
    y0, y1, y2 = gaps[i - 1], gaps[i], gaps[i + 1]
    denom = y0 - 2.0 * y1 + y2
    gap_min = y1 if denom == 0 else y1 - 0.125 * (y0 - y2) ** 2 / denom
    return 0.5 * max(gap_min, 0.0)
