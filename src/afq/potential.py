"""The tip-surface interaction: the Lennard-Jones pair potential

    V(x) = 4 eps [ (sigma/x)^12 - (sigma/x)^6 ],

afq's one surface model, with closed-form derivatives of every order
(finite differences are far too noisy against the 12th-power term; they
appear only in tests).

The bias point and the Taylor terms depend on the surface alone, so each
process computes them once per surface: :func:`find_bias_point` and
:func:`taylor_coefficients` keep their last ``_MEMO_SIZE`` results, keyed
on the potential's value (a frozen ``LennardJones`` hashes and compares
by its class, epsilon and sigma, so a new object of equal value hits),
plus the expansion point and order for the Taylor terms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# results each memo keeps: one per surface (and bias gap) a process uses
_MEMO_SIZE = 32


def _falling_power_coeff(p: int, n: int) -> float:
    # d^n/dx^n x^(-p) = (-1)^n p (p+1) ... (p+n-1) x^(-p-n)
    return float(math.prod(range(p, p + n)))


@dataclass(frozen=True)
class LennardJones:
    """Lennard-Jones surface potential with depth ``epsilon`` and offset ``sigma``.

    Parameters are SI (J, m); use :mod:`afq.units` for meV/angstrom input.
    """

    epsilon: float
    sigma: float

    def __post_init__(self):
        if not self.epsilon > 0:
            raise DomainError(f"epsilon must be > 0, got {self.epsilon}")
        if not self.sigma > 0:
            raise DomainError(f"sigma must be > 0, got {self.sigma}")

    def _check(self, x):
        if np.any(np.asarray(x) <= 0):
            raise DomainError("x <= 0: contact/singular region")

    def value(self, x):
        """Potential energy at tip-surface distance ``x`` (scalar or array)."""
        return self.derivative(x, 0)

    def derivative(self, x, n: int):
        """n-th derivative of the potential at ``x``; ``derivative(x, 0) == value(x)``.

        A scalar ``x`` is evaluated as a size-1 array, so it gets the same
        bits as the array element (numpy's vectorized power can differ).
        """
        if n < 0:
            raise DomainError(f"derivative order must be >= 0, got {n}")
        if np.ndim(x) == 0:
            return self.derivative(np.array([x], dtype=float), n).item()
        self._check(x)
        s6 = (self.sigma / x) ** 6
        if n == 0:
            return 4.0 * self.epsilon * (s6 * s6 - s6)
        c12 = _falling_power_coeff(12, n)
        c6 = _falling_power_coeff(6, n)
        return 4.0 * self.epsilon * (-1.0) ** n * (c12 * s6 * s6 - c6 * s6) / x**n

    @property
    def inflection(self) -> float:
        """Closed-form zero of the curvature, (26/7)^(1/6) sigma."""
        return (26.0 / 7.0) ** (1.0 / 6.0) * self.sigma


@dataclass(frozen=True)
class TaylorCoefficients:
    """Expansion coefficients lambda_n = V^(n)(x)/n! about ``expansion_point``."""

    expansion_point: float
    coefficients: tuple

    @property
    def max_order(self) -> int:
        return len(self.coefficients) - 1

    def lam(self, n: int) -> float:
        return self.coefficients[n]


def _taylor_term(potential: LennardJones, x, n: int):
    """lambda_n = V^(n)(x) / n! at a scalar or array ``x``."""
    return potential.derivative(x, n) / math.factorial(n)


def taylor_coefficients(potential: LennardJones, x: float,
                        max_order: int = 6) -> TaylorCoefficients:
    """Taylor-expand a potential about ``x`` up to ``max_order``.

    lambda_n = V^(n)(x) / n!; the oscillator Hamiltonian picks these up
    with alternating sign since the gap shrinks as the cantilever moves
    toward the tip.
    """
    if max_order < 2:
        raise DomainError(f"max_order must be >= 2, got {max_order}")
    return _expansion(potential, x, max_order)


@functools.lru_cache(maxsize=_MEMO_SIZE, typed=True)
def _expansion(potential: LennardJones, x: float,
               max_order: int) -> TaylorCoefficients:
    """:func:`taylor_coefficients`, memoized; ``typed`` keeps a float ``x``
    apart from an equal numpy scalar, so each gets back its own type."""
    coeffs = tuple(_taylor_term(potential, x, n)
                   for n in range(max_order + 1))
    return TaylorCoefficients(expansion_point=x, coefficients=coeffs)


def _rightmost_root(f, lo, hi):
    """Rightmost sign change of a vectorized ``f`` on [lo, hi], to the nearest float.

    Scans 4096 evenly spaced points, keeps the rightmost cell whose ends
    differ in sign and rescans it until its ends are adjacent floats,
    then returns the end with the smaller |f|. None when the first scan
    finds no sign change.
    """
    while True:
        xs = np.linspace(lo, hi, 4096)
        fs = f(xs)
        change = np.nonzero(np.diff(np.signbit(fs)))[0]
        if change.size == 0:
            return None
        i = change[-1]
        lo, hi = xs[i], xs[i + 1]
        if np.nextafter(lo, hi) == hi:
            return float(xs[i + np.argmin(np.abs(fs[i:i + 2]))])


def find_bias_point(potential: LennardJones) -> float:
    """Zero of the second derivative in [1.05 sigma, 2 sigma], to the nearest float.

    This is the curvature-free bias distance (26/7)^(1/6) sigma = 1.2445
    sigma where the induced spring constant vanishes: the single zero of
    the Lennard-Jones V'', always inside that bracket.
    """
    return _bias_point(potential)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _bias_point(potential: LennardJones) -> float:
    """:func:`find_bias_point`, memoized."""
    sigma = potential.sigma
    return _rightmost_root(lambda x: potential.derivative(x, 2),
                           1.05 * sigma, 2.0 * sigma)
