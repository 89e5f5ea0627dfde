"""Qubit-mechanics-microwave readout chain (circuit quantum acoustodynamics).

Three coupled modes in the drive rotating frame: the qubit ``a`` at
omega_q, the mechanical readout resonator ``b`` at omega_m (exchange
coupling g), and the driven microwave resonator ``c`` at detuning
Delta_r = omega_r - omega_d (parametric coupling G_EM = g_EM sqrt(n_d)).
The module provides the frequency-domain linear response of the full
3-mode chain, the adiabatic elimination of the microwave mode onto an
effective Purcell-damped mechanical resonator, and the dispersive-regime
closed forms (chi, J; :func:`dispersive_figures`). The qubit enters the
linear response as an oscillator; its nonlinearity shows up only
through the dispersive formulas and the diagonalization oracles.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularModelError
from .units import MHZ

# readout-mode frequency shift from the hybridization joint (design input)
JOINT_SHIFT_MHZ = -2.7


@dataclass(frozen=True)
class CqadConfig:
    """Parameters of the 3-mode chain. All frequencies/rates angular (rad/s).

    ``participation`` is the capacitance participation ratio C_m/C_tot of
    the vacuum-gap capacitor, ``gap`` its electrode spacing, and
    ``readout_x_zpf`` the zero-point motion of the mechanical readout
    mode (not the qubit's).
    """

    omega_q: float
    omega_m: float
    omega_r: float
    omega_d: float
    g: float
    qubit_damping: float      # gamma_i, qubit intrinsic
    mech_damping: float       # Gamma_i, mechanics intrinsic
    kappa_i: float
    kappa_e: float
    n_d: float                # intracavity drive photons
    participation: float
    gap: float
    readout_x_zpf: float

    def __post_init__(self):
        rates = (self.qubit_damping, self.mech_damping, self.kappa_i,
                 self.kappa_e)
        if not all(r >= 0 for r in rates):
            raise DomainError("damping rates must be >= 0")
        if not self.n_d >= 0:
            raise DomainError("drive photon number must be >= 0")
        if not 0 <= self.participation <= 1:
            raise DomainError("participation ratio must be in [0, 1]")
        if not self.gap > 0:
            raise DomainError("capacitor gap must be > 0")

    @property
    def kappa(self) -> float:
        return self.kappa_i + self.kappa_e

    @property
    def delta_r(self) -> float:
        return self.omega_r - self.omega_d


@dataclass(frozen=True)
class EffectiveReadout:
    """Reduced 2-mode parameters after eliminating the microwave mode."""

    g_em: float               # vacuum electromechanical coupling
    g_em_parametric: float    # G_EM = g_em sqrt(n_d)
    delta: float              # omega_m - Delta_r
    alpha: complex            # microwave amplitude per unit mechanical amplitude
    omega_m_shifted: float
    purcell_rate: float       # Gamma_e
    total_damping: float      # Gamma_i + Gamma_e


@dataclass(frozen=True)
class ResponseSpectrum:
    """Reflection and per-mode response magnitudes on a probe grid."""

    frequencies: np.ndarray           # rad/s, drive rotating frame
    reflection: np.ndarray            # complex S11 at the microwave port
    qubit_susceptibility: np.ndarray  # |a| per unit input
    mech_susceptibility: np.ndarray   # |b| per unit input
    mw_susceptibility: np.ndarray     # |c| per unit input


def electromech_coupling(cfg: CqadConfig) -> float:
    """Vacuum electromechanical rate g_EM = q omega_r X_zpf / (2 d)."""
    return cfg.participation * cfg.omega_r * cfg.readout_x_zpf / (2.0 * cfg.gap)


def parametric_coupling(g_em: float, n_d: float) -> float:
    """Drive-enhanced beamsplitter rate G_EM = g_EM sqrt(n_d)."""
    if not n_d >= 0:
        raise DomainError("photon number must be >= 0")
    return g_em * np.sqrt(n_d)


def adiabatic_elimination(cfg: CqadConfig) -> EffectiveReadout:
    """Eliminate the microwave mode: frequency pull and Purcell rate.

    With delta = omega_m - Delta_r and kappa the total microwave
    linewidth,

        alpha        = i G_EM / (i delta - kappa/2)
        omega_m_eff  = omega_m + 4 G_EM^2 delta / (4 delta^2 + kappa^2)
        Gamma_e      = 4 G_EM^2 kappa / (4 delta^2 + kappa^2)  (= |alpha|^2 kappa)

    Warns when G_EM/Delta_r exceeds 0.1 (elimination assumes the
    microwave mode is fast and weakly coupled).
    """
    g_em = electromech_coupling(cfg)
    big_g = parametric_coupling(g_em, cfg.n_d)
    if cfg.delta_r != 0 and abs(big_g / cfg.delta_r) > 0.1:
        warnings.warn(f"G_EM/Delta_r = {abs(big_g / cfg.delta_r):.3f} > 0.1: "
                      "adiabatic elimination marginal", stacklevel=2)
    delta = cfg.omega_m - cfg.delta_r
    kappa = cfg.kappa
    try:
        denom = 4.0 * delta**2 + kappa**2
    except OverflowError as exc:
        raise DomainError(f"4 delta^2 + kappa^2 overflows at delta = "
                          f"{delta:.4g} rad/s, kappa = {kappa:.4g} rad/s") from exc
    alpha = 1j * big_g / (1j * delta - 0.5 * kappa)
    gamma_e = 4.0 * big_g**2 * kappa / denom
    omega_shift = 4.0 * big_g**2 * delta / denom
    return EffectiveReadout(g_em=g_em, g_em_parametric=big_g, delta=delta,
                            alpha=alpha,
                            omega_m_shifted=cfg.omega_m + omega_shift,
                            purcell_rate=gamma_e,
                            total_damping=cfg.mech_damping + gamma_e)


def frequency_response(cfg: CqadConfig, omega_grid) -> ResponseSpectrum:
    """Linear response of the 3-mode chain on a probe frequency grid.

    Per probe frequency w (drive rotating frame) the response matrix is

        M = [[d_q, i g, 0],
             [i g, d_m, i G_EM],
             [0, i G_EM, d_c]],

    d_q = i(omega_q - w) + gamma_i/2, d_m = i(omega_m - w) + Gamma_i/2,
    d_c = i(Delta_r - w) + kappa/2.

    The reflection at the external microwave port is
    1 + sqrt(kappa_e) c with c driven through that port
    (c_out = c_in + sqrt(kappa_e) c); the per-mode susceptibilities are
    the diagonal of M^-1, i.e. each mode's response to a unit coherent
    drive on itself, dressed by the couplings. With everything
    uncoupled these reduce to the bare Lorentzians of widths gamma_i,
    Gamma_i, kappa.

    M is tridiagonal, so that diagonal is three cofactors over one
    determinant (the couplings square to -g^2 and -G_EM^2):

        det  = d_q d_m d_c + d_q G_EM^2 + d_c g^2
        M^-1_qq = (d_m d_c + G_EM^2) / det
        M^-1_mm = d_q d_c / det
        M^-1_cc = (d_q d_m + g^2) / det

    A probe point where det is exactly zero (a lossless chain probed at
    a normal mode) raises :class:`SingularModelError`; the grid must be
    non-empty and finite.
    """
    w = np.atleast_1d(np.asarray(omega_grid, dtype=float))
    if w.size == 0:
        raise DomainError("probe grid is empty")
    if not np.isfinite(w).all():
        raise DomainError("probe grid must be finite")
    big_g = parametric_coupling(electromech_coupling(cfg), cfg.n_d)
    d_q = 1j * (cfg.omega_q - w) + 0.5 * cfg.qubit_damping
    d_m = 1j * (cfg.omega_m - w) + 0.5 * cfg.mech_damping
    d_c = 1j * (cfg.delta_r - w) + 0.5 * cfg.kappa
    qm = d_q * d_m
    det = qm * d_c + d_q * big_g**2 + d_c * cfg.g**2
    if not det.all():
        raise SingularModelError(
            "lossless chain probed exactly at a normal mode")
    inv_cc = (qm + cfg.g**2) / det
    c_amp = -np.sqrt(cfg.kappa_e) * inv_cc
    reflection = 1.0 + np.sqrt(cfg.kappa_e) * c_amp
    return ResponseSpectrum(frequencies=w, reflection=reflection,
                            qubit_susceptibility=np.abs(
                                (d_m * d_c + big_g**2) / det),
                            mech_susceptibility=np.abs(d_q * d_c / det),
                            mw_susceptibility=np.abs(inv_cc))


def dispersive_shift(g: float, eta: float, delta_qc: float) -> float:
    """Closed-form dispersive shift chi = -g^2 eta / (Delta (Delta + eta)).

    ``delta_qc`` is Delta: :func:`dispersive_figures` passes the magnitude of
    the joint-shifted readout-mode minus qubit frequency. The poles
    Delta = 0 and Delta = -eta straddle resonance and are rejected.
    The sign convention is that of the transmon literature, where the
    anharmonicity is softening; for a hardening oscillator the level-repulsion
    calculation (:func:`afq.oracle.jc_dispersive_oracle`) gives the opposite
    sign with the same magnitude.
    """
    if delta_qc == 0.0 or delta_qc + eta == 0.0:
        raise SingularModelError(
            "dispersive shift undefined at Delta = 0 or Delta = -eta")
    try:
        return -g**2 * eta / (delta_qc * (delta_qc + eta))
    except OverflowError as exc:
        raise DomainError(f"dispersive shift overflows at g = {g:.4g} rad/s") from exc


def bus_coupling(g1: float, g2: float, delta1: float, delta2: float) -> float:
    """Bus-mediated qubit-qubit rate J = g1 g2 (1/Delta_1 + 1/Delta_2) / 2."""
    if delta1 == 0.0 or delta2 == 0.0:
        raise SingularModelError("bus coupling undefined at zero detuning")
    return 0.5 * g1 * g2 * (1.0 / delta1 + 1.0 / delta2)


def dispersive_figures(chain: CqadConfig, eta: float):
    """(Delta, chi, J) of ``afq cqad`` and ``afq oracle``: Delta is the readout
    mode, shifted by ``JOINT_SHIFT_MHZ``, minus the qubit (rad/s, signed);
    chi and the degenerate-pair J are taken at |Delta|."""
    delta = chain.omega_m + JOINT_SHIFT_MHZ * MHZ - chain.omega_q
    return (delta, dispersive_shift(chain.g, eta, abs(delta)),
            bus_coupling(chain.g, chain.g, abs(delta), abs(delta)))


def cooling_estimate(n_th: float, mech_damping: float,
                     purcell_rate: float) -> float:
    """Cold-bath mixing estimate n_th Gamma_i / (Gamma_i + Gamma_e).

    A rate-equation estimate of sideband cooling (the engineered channel
    is taken as zero temperature); the quantum back-action floor is not
    modeled.
    """
    if not (mech_damping >= 0 and purcell_rate >= 0):
        raise DomainError("rates must be >= 0")
    if purcell_rate == 0.0:
        return n_th
    return n_th * mech_damping / (mech_damping + purcell_rate)


def response_linewidth(spectrum: ResponseSpectrum) -> float:
    """FWHM of the mechanical response power |b|^2 on the probe grid.

    Interpolates the half-maximum crossings linearly; the peak must lie
    inside the grid with both crossings resolved.
    """
    w = spectrum.frequencies
    y = spectrum.mech_susceptibility**2
    i_pk = int(np.argmax(y))
    if i_pk in (0, y.size - 1):
        raise DomainError("mechanical peak not inside the probe grid")
    half = 0.5 * y[i_pk]
    above = y >= half
    i_lo = int(np.argmax(above))
    i_hi = int(y.size - 1 - np.argmax(above[::-1]))
    if i_lo == 0 or i_hi == y.size - 1:
        raise DomainError("half-maximum crossings outside the probe grid")

    def crossing(i, j):
        return w[i] + (half - y[i]) * (w[j] - w[i]) / (y[j] - y[i])

    return crossing(i_hi + 1, i_hi) - crossing(i_lo - 1, i_lo)


def quality_factor_damping(omega: float, quality: float) -> float:
    """Intrinsic damping rate omega/Q for a frequency-independent Q."""
    if not quality > 0:
        raise DomainError("quality factor must be > 0")
    return omega / quality
