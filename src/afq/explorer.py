"""Design-space sweeps and constraint-driven design selection.

A sweep evaluates the full modal -> bias -> anharmonicity -> occupancy
chain on a (length, gap) grid in one vectorized pass. Grid points that
violate physics (snap-in, first-order breakdown) are flagged and kept:
the feasibility boundary is itself a result. Contact gaps are refused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cantilever import (CONTACT_GUARD, MaterialParams, _check_dimensions,
                         _modal_constants, _operating_state)
from .errors import DomainError
from .potential import LennardJones, _taylor_term
from .spectrum import (_first_order_ladder, relative_frequency_shift,
                       thermal_occupancy)

FLAG_OK = 0            # regime of a sweep row, written in _figures
FLAG_SNAP_IN = 2       # k + V'' <= 0; 1 (contact) is refused before evaluation
FLAG_BREAKDOWN = 3     # stable, but the first-order ladder gives omega_10 <= 0

# (CSV header, SweepResult column) in CSV order; a new column is one entry
# plus its line in _figures. gap_over_sigma (None) is derived, not stored.
_SWEEP_TABLE = (
    ("length_m", "length"), ("gap_m", "gap"), ("gap_over_sigma", None),
    ("omega_c_rad_s", "omega_c"), ("omega_10_rad_s", "omega_10"),
    ("eta_r", "eta_r"), ("eta_rad_s", "eta"), ("delta_omega", "delta_omega"),
    ("n_thermal", "n_thermal"), ("x_zpf_m", "x_zpf"), ("k_eff_n_m", "k_eff"),
    ("flag", "flag"))
SWEEP_COLUMNS = tuple(header for header, _ in _SWEEP_TABLE)

def _named_columns(arrays, sigma):
    """(CSV header, array) pairs in _SWEEP_TABLE order."""
    return [(header, arrays["gap"] / sigma if name is None else arrays[name])
            for header, name in _SWEEP_TABLE]


def _row(arrays, i, sigma):
    """Row ``i`` as Python floats by SWEEP_COLUMNS header, without the flag."""
    return {header: a[i].item() for header, a in _named_columns(arrays, sigma)
            if header != "flag"}


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
        for name, axis in (("lengths", ls), ("gaps_over_sigma", gs)):
            if not np.all(np.isfinite(axis)):
                raise DomainError(f"sweep {name} must be finite")
        if ls.size == 0 or gs.size == 0:
            raise DomainError("sweep grids must be non-empty")
        if np.any(np.diff(ls) <= 0) or np.any(np.diff(gs) <= 0):
            raise DomainError("sweep grids must be strictly increasing")
        _check_dimensions(ls[0], self.width, self.thickness)
        if gs[0] <= CONTACT_GUARD:
            raise DomainError(
                f"gap grid must stay above the contact guard ({CONTACT_GUARD} sigma)")
        if not self.temperature >= 0:
            raise DomainError("temperature must be >= 0")


@dataclass(frozen=True)
class SweepResult:
    """Column arrays, one entry per grid point, lexicographic in (L, x).

    ``arrays`` maps each stored column name of ``_SWEEP_TABLE`` to its
    array; a column also reads as an attribute (``result.eta_r``).
    """

    spec: SweepSpec
    arrays: dict

    def __getattr__(self, name):
        try:
            return self.__dict__["arrays"][name]
        except KeyError:
            raise AttributeError(name) from None

    def __len__(self):
        return self.length.size

    def columns(self):
        """Column arrays in SWEEP_COLUMNS order."""
        return tuple(a for _, a in _named_columns(self.arrays,
                                                  self.spec.potential.sigma))

    def take(self, indices) -> "SweepResult":
        """The rows at ``indices`` (integers or a boolean mask), in order."""
        indices = np.asarray(indices)
        if indices.dtype == bool:
            indices = np.flatnonzero(indices)
        return SweepResult(self.spec, {name: np.take(a, indices)
                                       for name, a in self.arrays.items()})


@dataclass(frozen=True)
class DesignConstraints:
    """Feasibility bound for design filtering: the thermal occupancy."""

    max_occupancy: float

    def __post_init__(self):
        if not self.max_occupancy >= 0:
            raise DomainError("max_occupancy must be >= 0")


def _scatter(mask, values):
    """An array shaped like ``mask``: ``values`` where it is set, NaN elsewhere."""
    out = np.full(mask.shape, np.nan)
    out[mask] = values
    return out


def _figures(lengths, gaps, width, thickness, material, potential, temperature):
    """Vectorized figure-of-merit chain on the 1-D axes ``lengths`` x ``gaps``.

    Returns every stored SweepResult column by name, raveled in C order:
    row i is (lengths[i // n_x], gaps[i % n_x]). A stable row with a
    first-order omega_10 <= 0 is FLAG_BREAKDOWN, with NaN ladder figures;
    one whose omega_10 overflows to NaN stays FLAG_OK and carries it.

    Stability is one mask, decided at k + V'': a snap-in row never enters
    float arithmetic past it. The ladder and occupancy run on stable rows
    only, are scattered back (NaN elsewhere) and freed, so every full-grid
    array is an output column plus at most one transient.
    """
    length, gap = lengths[:, None], gaps[None, :]
    k, omega_c, m_eff = _modal_constants(length, width, thickness, material)
    _, k_eff, stable, omega_eff, x_zpf = _operating_state(k, m_eff, potential,
                                                          gap)
    flag = np.full(stable.shape, FLAG_SNAP_IN)
    omega_10, eta = _first_order_ladder(omega_eff, x_zpf, *(
        np.broadcast_to(_taylor_term(potential, gap, n), stable.shape)[stable]
        for n in (4, 6)))[2:]
    del omega_eff                  # freed before the full-grid columns
    broken = omega_10 <= 0
    flag[stable] = np.where(broken, FLAG_BREAKDOWN, FLAG_OK)
    omega_10[broken] = eta[broken] = np.nan
    n_th = _scatter(~broken, thermal_occupancy(omega_10[~broken], temperature))
    omega_10, eta = _scatter(stable, omega_10), _scatter(stable, eta)
    n_th, x_zpf = _scatter(stable, n_th), _scatter(stable, x_zpf)
    eta_r = eta / omega_10
    delta_omega = relative_frequency_shift(omega_10, omega_c)
    length, gap, omega_c, _ = np.broadcast_arrays(length, gap, omega_c, flag)
    return {name: a.ravel() for name, a in {
        "length": length, "gap": gap, "omega_c": omega_c,
        "omega_10": omega_10, "eta_r": eta_r, "eta": eta,
        "delta_omega": delta_omega, "n_thermal": n_th, "x_zpf": x_zpf,
        "k_eff": k_eff, "flag": flag}.items()}


def sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the design grid; rows ordered lexicographically by (L, x)."""
    return SweepResult(spec, _figures(
        np.asarray(spec.lengths, dtype=float),
        np.asarray(spec.gaps_over_sigma, dtype=float) * spec.potential.sigma,
        spec.width, spec.thickness, spec.material, spec.potential,
        spec.temperature))


def _fits(arrays, constraints: DesignConstraints):
    """Rows that are FLAG_OK and meet the occupancy bound."""
    with np.errstate(invalid="ignore"):
        return ((arrays["flag"] == FLAG_OK)
                & (arrays["n_thermal"] <= constraints.max_occupancy))


def _by_descending_eta_r(result: SweepResult, idx):
    """Order of the rows ``idx`` by descending eta_r, ties by (L, x).

    Distinct eta_r values have one order, which one single-key sort
    finds; only a tie pays for the three-key lexsort, about twice the
    cost on a box whose 10^6 rows all qualify. The keys are freed on
    return, so they add nothing to the peak of the caller's gather.
    """
    key = -np.take(result.eta_r, idx)
    order = np.argsort(key)
    ranked = np.take(key, order)
    if np.any(ranked[1:] == ranked[:-1]):   # a tie in eta_r: break it by (L, x)
        return np.lexsort((result.gap[idx], result.length[idx], key))
    return order


def feasible_designs(result: SweepResult,
                     constraints: DesignConstraints) -> SweepResult:
    """Rows satisfying the constraints with eta_r >= 0, by descending eta_r.

    A row qualifies when it fits as in :func:`optimize_length` and its
    anharmonicity hardens (eta_r >= 0 drops the softening rows past about
    1.49 sigma); flagged rows never do. Ties break lexicographically by
    (L, x). An empty selection is a valid outcome.
    """
    ok = _fits(result.arrays, constraints)
    with np.errstate(invalid="ignore"):
        ok &= result.eta_r >= 0.0
    idx = np.nonzero(ok)[0]
    idx = np.take(idx, _by_descending_eta_r(result, idx))
    return result.take(idx)


def design_point(length, width, thickness, material, potential,
                 temperature):
    """Figures of merit for a single design at the bias gap ``potential.inflection``.

    Returns a dict of Python floats keyed by the SWEEP_COLUMNS headers,
    in that order, without the flag. A design outside the stable regime
    raises DomainError; V''(x0) is rounding noise of either sign, so only
    a beam softer than that noise snaps in.
    """
    _check_dimensions(length, width, thickness)
    gap = potential.inflection
    arrays = _figures(np.array([float(length)]), np.array([gap]),
                      width, thickness, material, potential, temperature)
    if arrays["flag"][0] != FLAG_OK:   # x0 > 1.1 sigma and eta > 0 there
        raise DomainError(f"design point (L, x) = ({length:.4e}, {gap:.4e}) m"
                          f" is in the snap-in regime (flag {FLAG_SNAP_IN})")
    return _row(arrays, 0, potential.sigma)


def optimize_length(width, thickness, material, potential, temperature,
                    constraints: DesignConstraints):
    """Largest cantilever length satisfying the constraints at the bias gap.

    One vectorized evaluation at ``potential.inflection`` over the lattice
    200-800 nm in 1 nm steps; returns the longest length whose row fits
    (flag OK and ``max_occupancy``) and that row, keyed like
    :func:`design_point`. Its eta_r is > 0: at the inflection lambda_4
    and lambda_6 are positive for every Lennard-Jones potential. Raises
    DomainError when 200 nm does not fit.
    """
    _check_dimensions(width, thickness)
    lengths = np.arange(200, 801) / 1e9   # == n e-9; n * 1e-9 can be 1 ulp off
    arrays = _figures(lengths, np.array([potential.inflection]), width,
                      thickness, material, potential, temperature)
    fits = _fits(arrays, constraints)
    if not fits[0]:
        raise DomainError(
            "occupancy constraint unsatisfiable at the smallest allowed length")
    i = int(np.nonzero(fits)[0][-1])
    return lengths[i].item(), _row(arrays, i, potential.sigma)
