"""Design-space sweeps and constraint-driven design selection.

A sweep evaluates the full modal -> bias -> anharmonicity -> occupancy
chain on a (length, gap) grid in one vectorized pass. Grid points that
violate physics (contact region, snap-in) are flagged and kept: the
feasibility boundary is itself a result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cantilever import (CONTACT_GUARD, FLAG_CONTACT, FLAG_OK,  # noqa: F401
                         FLAG_SNAP_IN, MaterialParams, _modal_constants,
                         _operating_state)
from .errors import DomainError
from .potential import LennardJones, _taylor_term
from .spectrum import _first_order_ladder, thermal_occupancy

SWEEP_COLUMNS = ("length_m", "gap_m", "gap_over_sigma", "omega_c_rad_s",
                 "omega_10_rad_s", "eta_r", "eta_rad_s", "delta_omega",
                 "n_thermal", "x_zpf_m", "k_eff_n_m", "flag")


@dataclass(frozen=True)
class SweepSpec:
    """Grid definition for a (length, gap) design scan at fixed (w, t)."""

    lengths: tuple                 # m, strictly increasing
    gaps_over_sigma: tuple         # units of sigma, strictly increasing
    width: float
    thickness: float
    material: MaterialParams
    potential: LennardJones
    temperature: float             # K

    def __post_init__(self):
        ls = np.asarray(self.lengths, dtype=float)
        gs = np.asarray(self.gaps_over_sigma, dtype=float)
        if ls.size == 0 or gs.size == 0:
            raise DomainError("sweep grids must be non-empty")
        if np.any(np.diff(ls) <= 0) or np.any(np.diff(gs) <= 0):
            raise DomainError("sweep grids must be strictly increasing")
        if gs[0] <= CONTACT_GUARD:
            raise DomainError(
                f"gap grid must stay above the contact guard ({CONTACT_GUARD} sigma)")
        if self.temperature < 0:
            raise DomainError("temperature must be >= 0")


@dataclass(frozen=True)
class SweepResult:
    """Column arrays, one entry per grid point, lexicographic in (L, x)."""

    spec: SweepSpec
    length: np.ndarray
    gap: np.ndarray
    omega_c: np.ndarray
    omega_10: np.ndarray
    eta_r: np.ndarray
    eta: np.ndarray
    delta_omega: np.ndarray
    n_thermal: np.ndarray
    x_zpf: np.ndarray
    k_eff: np.ndarray
    flag: np.ndarray

    def __len__(self):
        return self.length.size

    def columns(self):
        """Column arrays in SWEEP_COLUMNS order."""
        sigma = self.spec.potential.sigma
        return (self.length, self.gap, self.gap / sigma, self.omega_c,
                self.omega_10, self.eta_r, self.eta, self.delta_omega,
                self.n_thermal, self.x_zpf, self.k_eff, self.flag)

    def take(self, indices) -> "SweepResult":
        pick = lambda a: a[indices]
        return SweepResult(self.spec, pick(self.length), pick(self.gap),
                           pick(self.omega_c), pick(self.omega_10),
                           pick(self.eta_r), pick(self.eta),
                           pick(self.delta_omega), pick(self.n_thermal),
                           pick(self.x_zpf), pick(self.k_eff),
                           pick(self.flag))


@dataclass(frozen=True)
class DesignConstraints:
    """Feasibility bounds for design filtering."""

    max_occupancy: float
    min_relative_anharmonicity: float = 0.0
    min_omega_10: float | None = None

    def __post_init__(self):
        if self.max_occupancy < 0 or self.min_relative_anharmonicity < 0:
            raise DomainError("constraint bounds must be >= 0")
        if self.min_omega_10 is not None and self.min_omega_10 < 0:
            raise DomainError("constraint bounds must be >= 0")


def _figures(length, gap, width, thickness, material, potential, temperature):
    """Vectorized figure-of-merit chain; NaN rows where physics fails.

    Returns the columns after (L, x, x/sigma), in SWEEP_COLUMNS order.
    """
    _, k, omega_c, m_eff = _modal_constants(length, width, thickness, material)
    _, k_eff, omega_eff, x_zpf, flag = _operating_state(k, m_eff, potential,
                                                        gap)
    _, _, omega_10, eta = _first_order_ladder(
        omega_eff, x_zpf, _taylor_term(potential, gap, 4),
        _taylor_term(potential, gap, 6))
    valid = flag == FLAG_OK
    eta_r = eta / omega_10
    delta_omega = np.abs(1.0 - omega_10 / omega_c)
    n_th = thermal_occupancy(np.where(valid, omega_10, 1.0),
                             np.full_like(omega_10, temperature))
    n_th = np.where(valid, n_th, np.nan)
    return (omega_c, omega_10, eta_r, eta, delta_omega, n_th, x_zpf,
            k_eff, flag)


def sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the design grid; rows ordered lexicographically by (L, x)."""
    ls = np.asarray(spec.lengths, dtype=float)
    gs = np.asarray(spec.gaps_over_sigma, dtype=float) * spec.potential.sigma
    length, gap = np.meshgrid(ls, gs, indexing="ij")
    length, gap = length.ravel(), gap.ravel()
    return SweepResult(spec, length, gap, *_figures(
        length, gap, spec.width, spec.thickness, spec.material,
        spec.potential, spec.temperature))


def feasible_designs(result: SweepResult,
                     constraints: DesignConstraints) -> SweepResult:
    """Rows satisfying all constraints, sorted by descending eta_r.

    Ties break lexicographically by (L, x). Flagged rows never qualify.
    An empty selection is a valid outcome.
    """
    ok = result.flag == FLAG_OK
    with np.errstate(invalid="ignore"):
        ok &= result.n_thermal <= constraints.max_occupancy
        ok &= result.eta_r >= constraints.min_relative_anharmonicity
        if constraints.min_omega_10 is not None:
            ok &= result.omega_10 >= constraints.min_omega_10
    idx = np.nonzero(ok)[0]
    order = np.lexsort((result.gap[idx], result.length[idx],
                        -result.eta_r[idx]))
    return result.take(idx[order])


def design_point(length, width, thickness, material, potential,
                 temperature, gap=None):
    """Figures of merit for a single design; ``gap`` defaults to the bias point.

    Returns a dict keyed like SWEEP_COLUMNS (minus the flag).
    """
    if gap is None:
        gap = potential.inflection
    *figures, flag = _figures(np.array([float(length)]),
                              np.array([float(gap)]), width, thickness,
                              material, potential, temperature)
    if flag[0] != FLAG_OK:
        raise DomainError(f"design point not in the valid regime (flag {flag[0]})")
    row = {"length_m": float(length), "gap_m": float(gap),
           "gap_over_sigma": float(gap) / potential.sigma}
    row.update((name, a.item()) for name, a in zip(SWEEP_COLUMNS[3:], figures))
    return row


def optimize_length(width, thickness, material, potential, temperature,
                    constraints: DesignConstraints,
                    length_bounds=(200e-9, 800e-9), gap=None,
                    granularity=1e-9):
    """Largest cantilever length satisfying the occupancy bound at the bias gap.

    Binary search on whole multiples of ``granularity``; relies on the
    verified monotonicity of both occupancy and anharmonicity in L. Also
    enforces ``min_omega_10`` (another upper bound on L) and
    ``min_relative_anharmonicity`` (a lower bound); raises DomainError
    when the constraint set is unsatisfiable.
    """
    if gap is None:
        gap = potential.inflection
    lo_n = int(np.ceil(length_bounds[0] / granularity))
    hi_n = int(np.floor(length_bounds[1] / granularity))
    if lo_n > hi_n:
        raise DomainError("empty length range")

    def row(n):
        return design_point(n * granularity, width, thickness, material,
                            potential, temperature, gap)

    def satisfies_upper(r):
        if r["n_thermal"] > constraints.max_occupancy:
            return False
        if (constraints.min_omega_10 is not None
                and r["omega_10_rad_s"] < constraints.min_omega_10):
            return False
        return True

    if not satisfies_upper(row(lo_n)):
        raise DomainError(
            "occupancy/frequency constraints unsatisfiable at the smallest "
            "allowed length")
    lo, hi = lo_n, hi_n
    if satisfies_upper(row(hi_n)):
        lo = hi_n
    else:
        while hi - lo > 1:  # invariant: row(lo) satisfies, row(hi) does not
            mid = (lo + hi) // 2
            if satisfies_upper(row(mid)):
                lo = mid
            else:
                hi = mid
    best = row(lo)
    if best["eta_r"] < constraints.min_relative_anharmonicity:
        raise DomainError(
            "anharmonicity floor unreachable under the occupancy bound")
    return lo * granularity, best
