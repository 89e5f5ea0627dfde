"""Perturbative anharmonic spectrum of the biased cantilever.

First-order perturbation theory on the quartic and sextic Taylor terms
gives a cubic-in-n level ladder, measured from the ground level E_0:

    E_n - E_0 = hbar [omega_10 n + eta n(n-1)/2] + 20 q6 n(n-1)(n-2)

with q4 = lam4 xz^4, q6 = lam6 xz^6 (xz = zero-point motion) and

    hbar omega_10 = hbar w_eff + 12 q4 + 90 q6
    hbar eta      = 12 q4 + 180 q6

Odd Taylor orders vanish at first order and are not resummed here; the
brute-force validators in :mod:`afq.oracle` quantify what that omission
costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cantilever import BiasState
from .errors import DomainError, OrderMismatchError
from .potential import TaylorCoefficients
from .units import hbar, k_B


@dataclass(frozen=True)
class QubitSpectrum:
    """Energy ladder and anharmonicity figures of one design point.

    ``eta`` is stored as an angular frequency (rad/s); divide by 2 pi
    for the value in Hz.
    """

    energies: tuple            # E_n - E_0 (J), n = 0..n_max; E_0 = 0.0
    omega_10: float            # rad/s
    omega_21: float            # rad/s
    eta: float                 # rad/s
    eta_r: float


def _first_order_ladder(omega_eff, x_zpf, lam4, lam6):
    """q6 = lam6 xz^6, omega_10 and eta (rad/s); arrays in.

    The closed forms of the module docstring, shared by the sweep and
    :func:`perturbative_energies`, which builds its levels from them.
    """
    q6 = lam6 * x_zpf**6
    quartic = 12.0 * (lam4 * x_zpf**4)  # 12 q4, first-order part of both
    omega_10 = omega_eff + (quartic + 90.0 * q6) / hbar
    eta = (quartic + 180.0 * q6) / hbar
    return q6, omega_10, eta


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

    q6, omega_10, eta = (a.item() for a in _first_order_ladder(
        *np.atleast_1d(bias.omega_eff, bias.x_zpf, taylor.lam(4),
                       taylor.lam(6))))
    if omega_10 <= 0:
        raise DomainError(f"first-order breakdown at gap {bias.gap:.4e} m: "
                          f"omega_10 = {omega_10:.4e} rad/s <= 0")
    ns = np.arange(n_max + 1)
    energies = (hbar * (omega_10 * ns + eta * (ns * (ns - 1) / 2))
                + 20.0 * q6 * (ns * (ns - 1) * (ns - 2)))
    return QubitSpectrum(energies=tuple(energies), omega_10=omega_10,
                         omega_21=omega_10 + eta, eta=eta,
                         eta_r=eta / omega_10)


def relative_frequency_shift(omega_10, omega_c):
    """|1 - omega_10 / omega_c|, the surface-induced pull; floats or arrays."""
    if np.any(np.asarray(omega_c) <= 0):
        raise DomainError("omega_c must be > 0")
    return np.abs(1.0 - omega_10 / omega_c)


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
