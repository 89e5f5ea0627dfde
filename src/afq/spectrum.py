"""Perturbative anharmonic spectrum of the biased cantilever.

First-order perturbation theory on the quartic and sextic Taylor terms
gives a cubic-in-n level ladder

    E_n = alpha_0 + alpha_1 n + alpha_2 n^2 + alpha_3 n^3

with

    alpha_0 = 15 lam6 xz^6 + 3 lam4 xz^4 + hbar w_eff / 2 + V(x)
    alpha_1 = 40 lam6 xz^6 + 6 lam4 xz^4 + hbar w_eff
    alpha_2 = 30 lam6 xz^6 + 6 lam4 xz^4
    alpha_3 = 20 lam6 xz^6

(xz = zero-point motion). Odd Taylor orders vanish at first order and
are not resummed here; the brute-force validators in :mod:`afq.oracle`
quantify what that omission costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cantilever import BiasState, CantileverModal
from .errors import DomainError, OrderMismatchError, SingularModelError
from .potential import SurfacePotential, TaylorCoefficients
from .units import hbar, k_B


@dataclass(frozen=True)
class QubitSpectrum:
    """Energy ladder and anharmonicity figures of one design point.

    ``eta`` is stored as an angular frequency (rad/s); divide by 2 pi
    for the value in Hz.
    """

    energies: tuple            # J, n = 0..n_max
    omega_10: float            # rad/s
    omega_21: float            # rad/s
    eta: float                 # rad/s
    eta_r: float
    alpha_coeffs: tuple        # (alpha_0 .. alpha_3), J


def _first_order_ladder(omega_eff, x_zpf, lam4, lam6):
    """q4 = lam4 xz^4, q6 = lam6 xz^6, omega_10 and eta (rad/s); arrays in.

    The splittings come from the alpha coefficients, not from differencing
    absolute energies, which carry the deep potential offset and would
    lose digits against them.
    """
    q4 = lam4 * x_zpf**4
    q6 = lam6 * x_zpf**6
    quartic = 12.0 * q4                 # first-order quartic part of both
    omega_10 = omega_eff + (quartic + 90.0 * q6) / hbar
    eta = (quartic + 180.0 * q6) / hbar
    return q4, q6, omega_10, eta


def perturbative_energies(bias: BiasState, taylor: TaylorCoefficients,
                          n_max: int = 5) -> QubitSpectrum:
    """Anharmonic energy ladder at the bias point: the closed cubic-in-n
    form above, first order in the quartic and sextic Taylor terms.

    A first-order omega_10 <= 0 (the sweep's FLAG_BREAKDOWN) raises
    DomainError.
    """
    if not math.isclose(taylor.expansion_point, bias.gap, rel_tol=1e-12):
        raise OrderMismatchError(
            "Taylor coefficients expanded at "
            f"{taylor.expansion_point:.6e} m but bias gap is {bias.gap:.6e} m")
    if n_max < 2:
        raise DomainError(f"n_max must be >= 2, got {n_max}")
    if taylor.max_order < 6:
        raise OrderMismatchError(
            f"need Taylor coefficients to order 6, have {taylor.max_order}")

    q4, q6, omega_10, eta = (a.item() for a in _first_order_ladder(
        *np.atleast_1d(bias.omega_eff, bias.x_zpf, taylor.lam(4),
                       taylor.lam(6))))
    if omega_10 <= 0:
        raise DomainError(f"first-order breakdown at gap {bias.gap:.4e} m: "
                          f"omega_10 = {omega_10:.4e} rad/s <= 0")
    hw = hbar * bias.omega_eff
    a0 = 15.0 * q6 + 3.0 * q4 + 0.5 * hw + taylor.lam(0)
    a1 = 40.0 * q6 + 6.0 * q4 + hw
    a2 = 30.0 * q6 + 6.0 * q4
    a3 = 20.0 * q6
    ns = np.arange(n_max + 1)
    energies = a0 + a1 * ns + a2 * ns**2 + a3 * ns**3
    omega_21 = omega_10 + eta
    return QubitSpectrum(energies=tuple(energies), omega_10=omega_10,
                         omega_21=omega_21, eta=eta, eta_r=eta / omega_10,
                         alpha_coeffs=(a0, a1, a2, a3))


def relative_anharmonicity(bias: BiasState, potential: SurfacePotential):
    """Closed-form relative and absolute anharmonicity at the bias point.

    Returns (eta_r, eta, r0, r1) with

        r0 = 2 hbar w_eff / (xz^4 V''''(x))
        r1 = V^(6)(x) xz^2 / (4 V''''(x))
        eta_r = (1 + 2 r1) / (1 + r1 + r0)
        eta  = xz^4 V''''(x) (1 + 2 r1) / (2 hbar)
    """
    v4 = potential.derivative(bias.gap, 4)
    if v4 == 0.0:
        raise SingularModelError(
            "V''''(x) = 0: relative anharmonicity undefined at this gap")
    v6 = potential.derivative(bias.gap, 6)
    xz = bias.x_zpf
    r0 = 2.0 * hbar * bias.omega_eff / (xz**4 * v4)
    r1 = v6 * xz**2 / (4.0 * v4)
    eta_r = (1.0 + 2.0 * r1) / (1.0 + r1 + r0)
    eta = xz**4 * v4 * (1.0 + 2.0 * r1) / (2.0 * hbar)
    return eta_r, eta, r0, r1


def relative_frequency_shift(spectrum: QubitSpectrum,
                             modal: CantileverModal) -> float:
    """|1 - omega_10 / omega_c|, the surface-induced frequency pull."""
    if modal.omega_c <= 0:
        raise DomainError("omega_c must be > 0")
    return abs(1.0 - spectrum.omega_10 / modal.omega_c)


def thermal_occupancy(omega, temperature):
    """Bose-Einstein mean occupancy of a mode at ``omega`` and ``temperature``.

    T = 0 returns exactly 0; scalar inputs give a Python float.
    """
    omega = np.asarray(omega, dtype=float)
    temperature = np.asarray(temperature, dtype=float)
    if np.any(omega <= 0):
        raise DomainError("omega must be > 0")
    if np.any(temperature < 0):
        raise DomainError("temperature must be >= 0")
    with np.errstate(divide="ignore", over="ignore"):
        out = 1.0 / np.expm1(hbar * omega / (k_B * temperature))
    out = np.where(temperature == 0, 0.0, out)
    return out.item() if out.ndim == 0 else out
