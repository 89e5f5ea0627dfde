"""Tip-cantilever surface interaction potentials.

The concrete model is the Lennard-Jones pair potential

    V(x) = 4 eps [ (sigma/x)^12 - (sigma/x)^6 ],

with closed-form derivatives of every order (finite differences are far
too noisy against the 12th-power term; they appear only in tests). Any
other interaction model can be plugged in by implementing the
``SurfacePotential`` protocol with analytic derivatives up to the order
the caller requests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .errors import BracketError, DomainError


class SurfacePotential(Protocol):
    """An interaction potential evaluable to arbitrary derivative order."""

    def value(self, x): ...

    def derivative(self, x, n: int): ...


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
        if self.epsilon <= 0:
            raise DomainError(f"epsilon must be > 0, got {self.epsilon}")
        if self.sigma <= 0:
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
    def minimum(self) -> float:
        """Distance of the potential minimum, 2^(1/6) sigma."""
        return 2.0 ** (1.0 / 6.0) * self.sigma

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


def _taylor_term(potential: SurfacePotential, x, n: int):
    """lambda_n = V^(n)(x) / n! at a scalar or array ``x``."""
    return potential.derivative(x, n) / math.factorial(n)


def taylor_coefficients(potential: SurfacePotential, x: float,
                        max_order: int = 6) -> TaylorCoefficients:
    """Taylor-expand a potential about ``x`` up to ``max_order``.

    lambda_n = V^(n)(x) / n!; the oscillator Hamiltonian picks these up
    with alternating sign since the gap shrinks as the cantilever moves
    toward the tip.
    """
    if max_order < 2:
        raise DomainError(f"max_order must be >= 2, got {max_order}")
    coeffs = tuple(_taylor_term(potential, x, n)
                   for n in range(max_order + 1))
    return TaylorCoefficients(expansion_point=x, coefficients=coeffs)


def _bisect(f, lo, flo, hi, fhi, rtol):
    """Bisect the sign-change bracket [lo, hi] of ``f`` to hi - lo <= rtol |mid|.

    Returns (lo, flo, hi, fhi); an exact zero collapses the bracket onto it.
    """
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid, fm, mid, fm
        if np.sign(fm) == np.sign(flo):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
        if hi - lo <= rtol * abs(mid):
            break
    return lo, flo, hi, fhi


def find_bias_point(potential: SurfacePotential, bracket) -> float:
    """Root of the potential's second derivative within ``bracket``.

    Bisection to a tight interval followed by secant refinement; the
    result is accurate to a relative tolerance of 1e-12. For the
    Lennard-Jones model this is the curvature-free bias distance
    (26/7)^(1/6) sigma where the induced spring constant vanishes.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise BracketError(f"empty bracket [{lo}, {hi}]")
    f = lambda x: potential.derivative(x, 2)
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise BracketError(
            f"second derivative does not change sign over [{lo}, {hi}]")
    # bisection until the interval is small enough for a safe secant
    lo, flo, hi, fhi = _bisect(f, lo, flo, hi, fhi, 1e-6)
    # secant refinement
    a, b, fa, fb = lo, hi, flo, fhi
    for _ in range(60):
        if fb == fa:
            break
        c = b - fb * (b - a) / (fb - fa)
        if not lo <= c <= hi:
            c = 0.5 * (a + b)
        fc = f(c)
        a, fa, b, fb = b, fb, c, fc
        if abs(b - a) <= 1e-13 * abs(b):
            break
    return b
