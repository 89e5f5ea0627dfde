"""Modal constants and the biased operating state."""

import dataclasses

import numpy as np
import pytest

from afq import (CantileverGeometry, CqadConfig, DesignConstraints, GridSpec,
                 LennardJones, MaterialParams, SweepSpec, bias_state,
                 modal_params, snap_in_threshold, sweep)
from afq.errors import ContactRegimeError, DomainError, SnapInError
from afq.units import MEV, ANGSTROM, NM, PM, cycles

SILICON = MaterialParams(young_modulus=160e9, density=2329.0)
PAPER_GEOMETRY = CantileverGeometry(length=495e-9, width=10e-9,
                                    thickness=12e-9)
LJ = LennardJones(epsilon=17.4 * MEV, sigma=3.826 * ANGSTROM)


class _ZeroPotential:
    # a contact scale well below the 5 angstrom gaps the tests bias at
    sigma = 1.0 * ANGSTROM

    def value(self, x):
        return np.zeros_like(np.asarray(x, dtype=float)) + 0.0

    def derivative(self, x, n):
        return self.value(x)


def test_paper_modal_constants():
    modal = modal_params(PAPER_GEOMETRY, SILICON)
    assert modal.spring_constant == pytest.approx(3.958e-3, rel=1e-3)
    assert modal.effective_mass == pytest.approx(3.357e-20, rel=1e-3)
    # omega_c ~ 2 pi x 55 MHz (precisely 54.645 MHz)
    assert cycles(modal.omega_c) / 1e6 == pytest.approx(54.645, abs=0.001)


def test_effective_mass_identity_random_geometries():
    rng = np.random.default_rng(7)
    for _ in range(25):
        L, w, t = rng.uniform(50, 2000, 3) * NM
        modal = modal_params(CantileverGeometry(L, w, t), SILICON)
        assert modal.effective_mass * modal.omega_c**2 == pytest.approx(
            modal.spring_constant, rel=1e-14)
        # the closed-form mass fraction 0.2427 rho L w t
        assert modal.effective_mass == pytest.approx(
            0.2427 * SILICON.density * L * w * t, rel=1e-3)


def test_omega_scales_as_inverse_length_squared():
    base = modal_params(PAPER_GEOMETRY, SILICON)
    doubled = modal_params(CantileverGeometry(2 * 495e-9, 10e-9, 12e-9),
                           SILICON)
    assert doubled.omega_c == pytest.approx(base.omega_c / 4, rel=1e-12)


@pytest.mark.parametrize("length, width, message", [
    (1e291, 10e-9, "modal k = 0,"), (495e-9, 1e-309, "modal k = 0,"),
    (495e-9, 1e291, "modal k = inf,"), (1e-309, 10e-9, "modal k = inf,")])
def test_modal_constants_out_of_range(length, width, message):
    # the scalar chain and the sweep refuse the same beams
    with pytest.raises(DomainError, match=message):
        modal_params(CantileverGeometry(length, width, 12e-9), SILICON)
    spec = SweepSpec(lengths=tuple(sorted((200e-9, length))),
                     gaps_over_sigma=(1.2,), width=width, thickness=12e-9,
                     material=SILICON, potential=LJ, temperature=8e-3)
    with pytest.raises(DomainError, match=message):
        sweep(spec)


def test_bias_state_at_paper_design():
    modal = modal_params(PAPER_GEOMETRY, SILICON)
    state = bias_state(modal, LJ, LJ.inflection)
    # at the curvature-free point the induced stiffness vanishes
    assert state.effective_stiffness == pytest.approx(
        modal.spring_constant, rel=1e-12)
    assert state.omega_eff == pytest.approx(modal.omega_c, rel=1e-12)
    assert state.x_zpf / PM == pytest.approx(2.14, abs=0.02)
    # static deflection |V'(x0)|/k ~ 4.4 nm
    assert abs(state.equilibrium_offset) / NM == pytest.approx(4.41, abs=0.02)
    assert LJ.derivative(LJ.inflection, 1) == pytest.approx(1.75e-11, rel=0.01)


def test_bias_state_zero_potential_reproduces_isolated_oscillator():
    rng = np.random.default_rng(3)
    pot = _ZeroPotential()
    for _ in range(10):
        L, w, t = rng.uniform(100, 900, 3) * NM
        modal = modal_params(CantileverGeometry(L, w, t), SILICON)
        state = bias_state(modal, pot, 5 * ANGSTROM)
        assert state.equilibrium_offset == 0.0
        assert state.effective_stiffness == modal.spring_constant
        assert state.omega_eff == pytest.approx(modal.omega_c, rel=1e-15)


def test_x_zpf_decreases_with_frequency():
    modal = modal_params(PAPER_GEOMETRY, SILICON)
    # stiffer gaps (below x0) raise omega_eff and shrink x_zpf
    gaps = np.linspace(1.15, 1.244, 12) * LJ.sigma
    states = [bias_state(modal, LJ, g) for g in gaps]
    omegas = np.array([s.omega_eff for s in states])
    zpfs = np.array([s.x_zpf for s in states])
    assert np.all(np.diff(omegas) < 0)
    assert np.all(np.diff(zpfs) > 0)


def test_contact_guard():
    modal = modal_params(PAPER_GEOMETRY, SILICON)
    with pytest.raises(ContactRegimeError):
        bias_state(modal, LJ, 1.05 * LJ.sigma)


def test_contact_guard_holds_for_any_potential():
    # the guard reads sigma alone: a stand-in potential with no force at
    # all is still refused inside 1.1 sigma
    modal = modal_params(PAPER_GEOMETRY, SILICON)
    pot = _ZeroPotential()
    with pytest.raises(ContactRegimeError, match="inside contact region"):
        bias_state(modal, pot, 1.05 * pot.sigma)


def test_snap_in_error_past_stability_edge():
    modal = modal_params(PAPER_GEOMETRY, SILICON)
    with pytest.raises(SnapInError):
        bias_state(modal, LJ, 1.30 * LJ.sigma)


def test_snap_in_threshold_paper_design():
    modal = modal_params(PAPER_GEOMETRY, SILICON)
    x = snap_in_threshold(modal, LJ, (1.15 * LJ.sigma, 2.0 * LJ.sigma))
    assert x is not None
    # sign check on both sides of the root
    k = modal.spring_constant
    assert k + LJ.derivative(x * (1 - 1e-6), 2) > 0
    assert k + LJ.derivative(x * (1 + 1e-6), 2) < 0
    # no float is closer to the root: x and a neighbour straddle it, and
    # |k + V''| is no larger at x than at that neighbour
    stiffness = lambda y: k + LJ.derivative(y, 2)
    neighbours = [n for n in (np.nextafter(x, 0.0), np.nextafter(x, 1.0))
                  if np.signbit(stiffness(n)) != np.signbit(stiffness(x))]
    assert any(abs(stiffness(x)) <= abs(stiffness(n)) for n in neighbours)
    # the soft paper beam is stable only 0.57 pm past the bias point
    assert (x - LJ.inflection) / PM == pytest.approx(0.572, abs=0.01)


def test_snap_in_threshold_sentinels():
    stiff = modal_params(CantileverGeometry(100e-9, 40e-9, 40e-9), SILICON)
    assert stiff.spring_constant > 2.0  # exceeds max |V''| ~ 0.11 N/m
    assert snap_in_threshold(stiff, LJ,
                             (1.15 * LJ.sigma, 2.0 * LJ.sigma)) is None
    soft = modal_params(PAPER_GEOMETRY, SILICON)
    assert snap_in_threshold(soft, _ZeroPotential(),
                             (1.15 * LJ.sigma, 2.0 * LJ.sigma)) is None


_CQAD = CqadConfig(omega_q=3.8e8, omega_m=4.2e8, omega_r=3.1e10,
                   omega_d=3.1e10, g=6.3e6, qubit_damping=0.0,
                   mech_damping=4.2e4, kappa_i=6.3e5, kappa_e=5.7e6, n_d=1e4,
                   participation=0.5, gap=60e-9, readout_x_zpf=4e-15)
_SWEEP = SweepSpec(lengths=(495e-9,), gaps_over_sigma=(1.2,), width=10e-9,
                   thickness=12e-9, material=SILICON, potential=LJ,
                   temperature=8e-3)


NAN_GUARDS = [
    (SILICON, "young_modulus", "material constants must be > 0"),
    (SILICON, "density", "material constants must be > 0"),
    (LJ, "epsilon", "epsilon must be > 0"),
    (LJ, "sigma", "sigma must be > 0"),
    (_CQAD, "qubit_damping", "damping rates must be >= 0"),
    (_CQAD, "mech_damping", "damping rates must be >= 0"),
    (_CQAD, "kappa_i", "damping rates must be >= 0"),
    (_CQAD, "kappa_e", "damping rates must be >= 0"),
    (_CQAD, "n_d", "drive photon number must be >= 0"),
    (_CQAD, "gap", "capacitor gap must be > 0"),
    (_SWEEP, "temperature", "temperature must be >= 0"),
    (DesignConstraints(1.0), "max_occupancy", "max_occupancy must be >= 0"),
    (GridSpec(), "half_width", "invalid grid extents")]


@pytest.mark.parametrize("instance, field, message", NAN_GUARDS,
                         ids=[f"{type(i).__name__}.{f}" for i, f, _ in NAN_GUARDS])
def test_nan_parameter_rejected(instance, field, message):
    with pytest.raises(DomainError, match=message):
        dataclasses.replace(instance, **{field: float("nan")})
