"""Cantilever lateral-mode mechanics and the biased operating state.

Modal constants follow the Euler-Bernoulli fundamental lateral mode of a
rectangular beam clamped at one end:

    I      = t w^3 / 12
    k      = 3 E I / L^3
    omega_c = 1.015 sqrt(E w^2 / (rho L^4))
    m_eff  = k / omega_c^2   (= 0.2427 rho L w t)

The 1.015 prefactor and the 0.2427 mass fraction are the mutually
consistent pair; the effective mass is always computed as k/omega_c^2 so
the identity holds to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContactRegimeError, DomainError, SnapInError
from .potential import LennardJones, _rightmost_root
from .units import hbar

# fundamental lateral mode frequency prefactor, (beta_1 L)^2 / sqrt(12)
MODE_FREQ_COEFF = 1.015

# gap below 1.1 sigma counts as contact
CONTACT_GUARD = 1.1


def _check_dimensions(*dims):
    """Reject beam dimensions that are not > 0: zero, negative or NaN."""
    if not all(d > 0 for d in dims):
        raise DomainError("geometry dimensions must be > 0")


@dataclass(frozen=True)
class MaterialParams:
    """Isotropic elastic constants used by the beam model."""

    young_modulus: float   # Pa
    density: float         # kg/m^3

    def __post_init__(self):
        if not (self.young_modulus > 0 and self.density > 0):
            raise DomainError("material constants must be > 0")


@dataclass(frozen=True)
class CantileverGeometry:
    """Beam dimensions; ``width`` is the lateral-oscillation dimension."""

    length: float
    width: float
    thickness: float

    def __post_init__(self):
        _check_dimensions(self.length, self.width, self.thickness)


@dataclass(frozen=True)
class CantileverModal:
    """Modal constants of the lateral mode; m_eff = k/omega_c^2 by construction."""

    spring_constant: float
    effective_mass: float
    omega_c: float


@dataclass(frozen=True)
class BiasState:
    """Operating point of the cantilever biased at gap ``x``.

    ``equilibrium_offset`` is the static deflection that balances the
    surface force against the spring; it is diagnostic only (the linear
    term cancels from the oscillation Hamiltonian and never enters the
    spectrum).
    """

    gap: float
    equilibrium_offset: float
    lj_stiffness: float        # signed V''(x)
    effective_stiffness: float
    omega_eff: float
    x_zpf: float


def _modal_constants(length, width, thickness, material):
    """k, omega_c and m_eff = k/omega_c^2 (any argument may be an array);
    DomainError unless each is finite and > 0."""
    with np.errstate(all="ignore"):
        try:
            inertia = thickness * width**3 / 12.0
            k = 3.0 * material.young_modulus * inertia / length**3
            omega_c = MODE_FREQ_COEFF * np.sqrt(
                material.young_modulus * width**2 / (material.density * length**4))
        except OverflowError:      # a Python-float power past 1.8e308
            k = omega_c = np.inf
        m_eff = k / omega_c**2
    for name, value in (("k", k), ("omega_c", omega_c), ("m_eff", m_eff)):
        lo, hi = np.min(value), np.max(value)
        if not (lo > 0 and hi < np.inf):
            raise DomainError(f"beam out of range: modal {name} = "
                              f"{hi if lo > 0 else lo:.4g}, not finite and > 0")
    return k, omega_c, m_eff


def _operating_state(k, m_eff, potential, gap):
    """V'', k_eff = k + V'', the flat C-order index of the stable elements
    (not k_eff <= 0), and omega_eff and x_zpf at them: a snap-in element
    never enters float arithmetic past k + V''. ``m_eff`` varies along the
    first axis of k_eff at most. Callers refuse contact gaps first."""
    v2 = potential.derivative(gap, 2)
    k_eff = k + v2
    idx = np.flatnonzero(~(k_eff <= 0))
    m_eff = np.ravel(m_eff)[idx // k_eff.shape[-1]]
    omega_eff = np.sqrt(k_eff.ravel()[idx] / m_eff)
    x_zpf = np.sqrt(hbar / (2.0 * m_eff * omega_eff))
    return v2, k_eff, idx, omega_eff, x_zpf


def modal_params(geometry: CantileverGeometry,
                 material: MaterialParams) -> CantileverModal:
    """Modal spring constant, frequency, and effective mass of the lateral mode."""
    k, omega_c, m_eff = _modal_constants(
        np.array([geometry.length], dtype=float), geometry.width,
        geometry.thickness, material)
    return CantileverModal(spring_constant=k.item(),
                           effective_mass=m_eff.item(),
                           omega_c=omega_c.item())


def bias_state(modal: CantileverModal, potential: LennardJones,
               x: float) -> BiasState:
    """Operating state at gap ``x``: force balance, stiffness, zero-point motion.

    Raises
    ------
    ContactRegimeError
        for x <= 1.1 sigma.
    SnapInError
        if the attractive force gradient exceeds the spring constant
        (k_eff <= 0), i.e. past the static pull-in instability.
    """
    if x <= CONTACT_GUARD * potential.sigma:
        raise ContactRegimeError(
            f"gap {x:.4e} m inside contact region (<= 1.1 sigma "
            f"= {CONTACT_GUARD * potential.sigma:.4e} m)")
    k = modal.spring_constant
    v2, k_eff, stable, omega_eff, x_zpf = _operating_state(
        k, modal.effective_mass, potential, np.array([x], dtype=float))
    if not stable.size:
        raise SnapInError(
            f"k_eff = {k_eff.item():.4e} N/m <= 0 at gap {x:.4e} m (snap-in: "
            "attractive gradient exceeds spring constant)")
    force = -potential.derivative(x, 1)          # surface force on the cantilever
    x_c = -force / k                             # k x_c + F = 0
    return BiasState(gap=x, equilibrium_offset=x_c, lj_stiffness=v2.item(),
                     effective_stiffness=k_eff.item(),
                     omega_eff=omega_eff.item(), x_zpf=x_zpf.item())


def snap_in_threshold(modal: CantileverModal, potential: LennardJones,
                      search):
    """Largest gap in ``search`` where k + V''(x) crosses zero, to the nearest float.

    Returns None when the combined stiffness never changes sign on 4096
    evenly spaced gaps over the interval (no instability in range).
    """
    return _rightmost_root(
        lambda x: modal.spring_constant + potential.derivative(x, 2),
        float(search[0]), float(search[1]))
