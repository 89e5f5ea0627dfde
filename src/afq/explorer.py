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

# (CSV header, SweepResult column, CSV kind) in CSV order; a new column is
# one entry plus its line in _figures. The kind is 0 for a column that
# follows L and 1 for one that follows x, each a (values, stride) lookup,
# "codes" for the flag, a (values, codes) lookup, else None: a float64
# array. gap_over_sigma (column None) is derived from gap, not stored.
_SWEEP_TABLE = (
    ("length_m", "length", 0), ("gap_m", "gap", 1),
    ("gap_over_sigma", None, 1), ("omega_c_rad_s", "omega_c", 0),
    ("omega_10_rad_s", "omega_10", None), ("eta_r", "eta_r", None),
    ("eta_rad_s", "eta", None), ("delta_omega", "delta_omega", None),
    ("n_thermal", "n_thermal", None), ("x_zpf_m", "x_zpf", None),
    ("k_eff_n_m", "k_eff", None), ("flag", "flag", "codes"))
SWEEP_COLUMNS = tuple(header for header, *_ in _SWEEP_TABLE)


def _column(arrays, name, sigma, rows):
    """The ``rows`` of the _SWEEP_TABLE column ``name`` of ``arrays``;
    gap_over_sigma (None) is derived from the same rows of gap."""
    if name is None:
        return arrays["gap"][rows] / sigma
    return arrays[name][rows]


def _row(arrays, i, sigma):
    """Row ``i`` as Python floats by SWEEP_COLUMNS header, without the flag."""
    return {header: _column(arrays, name, sigma, i).item()
            for header, name, _ in _SWEEP_TABLE if header != "flag"}


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
    array, float64 but for the int8 flag; a column also reads as an
    attribute (``result.eta_r``).
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
        sigma = self.spec.potential.sigma
        return tuple(_column(self.arrays, name, sigma, slice(None))
                     for _, name, _ in _SWEEP_TABLE)

    def axis_columns(self):
        """The columns of the full grid in SWEEP_COLUMNS order: an array,
        ``(values, stride)`` for a column that follows one grid axis, where
        row ``i`` holds ``values[(i // stride) % len(values)]``, or the flag
        as ``(np.arange(FLAG_BREAKDOWN + 1), flag)``, whose codes are the
        flag itself: row ``i`` holds ``values[flag[i]]``.

        Rows run lexicographically in (L, x): an L column takes one value
        per length, held by ``n_x`` consecutive rows, and an x column one
        value per gap, repeating every ``n_x`` rows.
        """
        n_x = len(self.spec.gaps_over_sigma)
        if len(self) != len(self.spec.lengths) * n_x:
            raise ValueError("axis_columns needs the full grid of a sweep")
        sigma = self.spec.potential.sigma
        # by axis: the rows of the first gap (one per length), and of the
        # first length (one per gap), with their strides
        axes = ((slice(None, None, n_x), n_x), (slice(n_x), 1))
        return tuple(
            (np.arange(FLAG_BREAKDOWN + 1), self.arrays[name]) if kind == "codes"
            else _column(self.arrays, name, sigma, slice(None)) if kind is None
            else (_column(self.arrays, name, sigma, axes[kind][0]),
                  axes[kind][1])
            for _, name, kind in _SWEEP_TABLE)

    def take(self, indices) -> "SweepResult":
        """The rows at integer ``indices``, in order, or under a bool mask."""
        indices = np.asarray(indices)
        return SweepResult(self.spec, {name: a[indices]
                                       for name, a in self.arrays.items()})


@dataclass(frozen=True)
class DesignConstraints:
    """Feasibility bound for design filtering: the thermal occupancy."""

    max_occupancy: float

    def __post_init__(self):
        if not self.max_occupancy >= 0:
            raise DomainError("max_occupancy must be >= 0")


def _figures(lengths, gaps, width, thickness, material, potential, temperature):
    """Vectorized figure-of-merit chain on the 1-D axes ``lengths`` x ``gaps``.

    Returns every stored SweepResult column by name, raveled in C order:
    row i is (lengths[i // n_x], gaps[i % n_x]). A stable row with a
    first-order omega_10 <= 0 is FLAG_BREAKDOWN, with NaN ladder figures;
    one whose omega_10 overflows to NaN stays FLAG_OK and carries it.

    Stability is one flat index of the stable rows, decided at k + V'': a
    snap-in row never enters float arithmetic past it. The chain runs on
    those rows alone, reading m_eff, omega_c, lambda_4 and lambda_6 off the
    1-D axes through the index, and each figure is written once into its
    NaN-filled column and freed, so every full-grid array is an output
    column plus at most one transient.
    """
    n_x = gaps.size
    k, omega_c, m_eff = _modal_constants(lengths[:, None], width, thickness,
                                         material)
    _, k_eff, idx, omega_eff, x_zpf = _operating_state(k, m_eff, potential,
                                                       gaps[None, :])
    at_x = idx - idx // n_x * n_x  # idx % n_x; numpy is slower at %
    lam4, lam6 = (_taylor_term(potential, gaps, n)[at_x] for n in (4, 6))
    del at_x
    omega_10, eta = _first_order_ladder(omega_eff, x_zpf, lam4, lam6)[1:]
    del omega_eff, lam4, lam6
    broken = omega_10 <= 0
    omega_10[broken] = eta[broken] = np.nan

    def column(values, rows=idx):
        """A grid column: ``values`` at the flat ``rows``, NaN elsewhere."""
        out = np.full(k_eff.size, np.nan)
        out[rows] = values
        return out

    figures = {"k_eff": k_eff.ravel(), "x_zpf": column(x_zpf)}
    del x_zpf
    figures["eta_r"] = column(eta / omega_10)
    figures["delta_omega"] = column(relative_frequency_shift(
        omega_10, omega_c.ravel()[idx // n_x]))
    figures["n_thermal"] = column(thermal_occupancy(
        omega_10[~broken], temperature), idx[~broken])
    figures["omega_10"], figures["eta"] = column(omega_10), column(eta)
    del omega_10, eta
    figures["flag"] = flag = np.full(k_eff.size, FLAG_SNAP_IN, np.int8)
    flag[idx], flag[idx[broken]] = FLAG_OK, FLAG_BREAKDOWN
    del idx, column                # before the three axis columns
    figures["length"], figures["gap"], figures["omega_c"] = (
        np.broadcast_to(a, k_eff.shape).ravel()
        for a in (lengths[:, None], gaps, omega_c))
    return {name: figures[name] for _, name, _ in _SWEEP_TABLE if name}


def sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the design grid; rows ordered lexicographically by (L, x)."""
    return SweepResult(spec, _figures(
        np.asarray(spec.lengths, dtype=float),
        np.asarray(spec.gaps_over_sigma, dtype=float) * spec.potential.sigma,
        spec.width, spec.thickness, spec.material, spec.potential,
        spec.temperature))


def _fits(arrays, constraints: DesignConstraints):
    """Index of the FLAG_OK rows that meet the occupancy bound."""
    idx = np.flatnonzero(arrays["flag"] == FLAG_OK)
    return idx[arrays["n_thermal"][idx] <= constraints.max_occupancy]


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
    idx = _fits(result.arrays, constraints)
    idx = idx[result.eta_r[idx] >= 0.0]
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
    if fits.size == 0 or fits[0] != 0:
        raise DomainError(
            "occupancy constraint unsatisfiable at the smallest allowed length")
    i = int(fits[-1])
    return lengths[i].item(), _row(arrays, i, potential.sigma)
