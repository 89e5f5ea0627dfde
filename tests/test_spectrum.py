"""Perturbative spectrum, the paper's anharmonicity closed form, thermal
occupancy."""

import numpy as np
import pytest

from afq import (CantileverGeometry, LennardJones, MaterialParams,
                 bias_state, modal_params, perturbative_energies,
                 relative_frequency_shift, taylor_coefficients,
                 thermal_occupancy)
from afq.errors import DomainError, OrderMismatchError
from afq.potential import TaylorCoefficients
from afq.units import MEV, ANGSTROM, MHZ, MK, cycles, hbar

SILICON = MaterialParams(young_modulus=160e9, density=2329.0)
LJ = LennardJones(epsilon=17.4 * MEV, sigma=3.826 * ANGSTROM)


def paper_chain(length=495e-9, width=10e-9, thickness=12e-9):
    modal = modal_params(CantileverGeometry(length, width, thickness), SILICON)
    gap = LJ.inflection
    state = bias_state(modal, LJ, gap)
    taylor = taylor_coefficients(LJ, gap, max_order=6)
    return modal, state, taylor


def test_harmonic_limit():
    modal, state, _ = paper_chain()
    flat = TaylorCoefficients(expansion_point=state.gap,
                              coefficients=(0.0,) * 7)
    spec = perturbative_energies(state, flat, n_max=5)
    ns = np.arange(6)
    np.testing.assert_allclose(spec.energies, hbar * state.omega_eff * ns,
                               rtol=1e-15)
    assert spec.energies[0] == 0.0
    assert spec.eta == 0.0


def test_paper_design_frequencies():
    modal, state, taylor = paper_chain()
    spec = perturbative_energies(state, taylor, n_max=5)
    assert cycles(spec.omega_10) / 1e6 == pytest.approx(60.0, abs=1.0)
    assert cycles(spec.eta) / 1e6 == pytest.approx(5.366, abs=0.01)
    assert spec.eta_r == pytest.approx(0.0894, abs=0.0005)
    # decomposition: omega_eff contributes 54.645 MHz, quartic ~5.35 MHz
    quartic = 12 * taylor.lam(4) * state.x_zpf**4 / hbar
    assert cycles(spec.omega_10 - state.omega_eff - quartic) / 1e6 < 0.05


def test_levels_match_splittings():
    # levels are measured from E_0 = 0, so E_1 and E_2 - E_1 carry no
    # offset to lose digits against
    for length in (300e-9, 495e-9, 700e-9):
        _, state, taylor = paper_chain(length=length)
        spec = perturbative_energies(state, taylor, n_max=5)
        assert spec.energies[0] == 0.0
        assert spec.energies[1] == pytest.approx(hbar * spec.omega_10,
                                                 rel=1e-14, abs=0)
        assert spec.energies[2] - spec.energies[1] == pytest.approx(
            hbar * spec.omega_21, rel=1e-14, abs=0)
        # the sextic's n(n-1)(n-2) term: third differences of 6 * 20 q6
        q6 = taylor.lam(6) * state.x_zpf**6
        np.testing.assert_allclose(np.diff(spec.energies, 3), 120.0 * q6,
                                   rtol=1e-9)


def test_levels_harden():
    _, state, taylor = paper_chain()
    spec = perturbative_energies(state, taylor, n_max=5)
    diffs = np.diff(spec.energies)
    assert np.all(diffs > 0)
    assert np.all(np.diff(diffs) > 0)  # spacing grows with n


def paper_r_parameters(state, taylor):
    """The paper's r0 = hbar w_eff / (12 q4) and r1 = 7.5 q6 / q4, with
    q4 = lam4 xz^4 and q6 = lam6 xz^6."""
    q4 = taylor.lam(4) * state.x_zpf**4
    q6 = taylor.lam(6) * state.x_zpf**6
    return hbar * state.omega_eff / (12.0 * q4), 7.5 * q6 / q4


def test_closed_form_matches_level_ladder():
    # the paper's eta_r = (1 + 2 r1) / (1 + r1 + r0) restates the ladder's
    for length in (300e-9, 495e-9, 700e-9):
        _, state, taylor = paper_chain(length=length)
        spec = perturbative_energies(state, taylor, n_max=3)
        r0, r1 = paper_r_parameters(state, taylor)
        assert (1.0 + 2.0 * r1) / (1.0 + r1 + r0) == pytest.approx(
            spec.eta_r, rel=1e-12)


def test_r_parameters_paper_values():
    _, state, taylor = paper_chain()
    r0, r1 = paper_r_parameters(state, taylor)
    assert r0 == pytest.approx(10.2, abs=0.1)
    assert r1 == pytest.approx(1.8e-3, rel=0.05)
    spec = perturbative_energies(state, taylor, n_max=3)
    assert spec.eta_r == pytest.approx(0.089, abs=0.003)


def test_eta_r_vanishes_in_stiff_limit():
    # heavier/stiffer beams push r0 -> infinity and eta_r -> 0
    etas = []
    for length in (600e-9, 400e-9, 250e-9, 150e-9):
        _, state, taylor = paper_chain(length=length)
        etas.append(perturbative_energies(state, taylor).eta_r)
    assert np.all(np.diff(etas) < 0)
    assert etas[-1] < 1e-3
    assert etas[-1] < etas[0] / 50


def test_epsilon_scaling_of_eta():
    # at fixed x/sigma with omega_eff = omega_c, eta is linear in epsilon
    modal, state, taylor = paper_chain()
    base_eta = perturbative_energies(state, taylor).eta
    for c in (0.5, 2.0, 3.0):
        scaled = LennardJones(epsilon=c * LJ.epsilon, sigma=LJ.sigma)
        gap = scaled.inflection
        st = bias_state(modal, scaled, gap)
        eta = perturbative_energies(st, taylor_coefficients(scaled, gap)).eta
        assert eta == pytest.approx(c * base_eta, rel=1e-12)


def test_taylor_order_and_gap_mismatch_errors():
    _, state, taylor = paper_chain()
    with pytest.raises(OrderMismatchError):
        perturbative_energies(state, taylor_coefficients(LJ, state.gap, 4))
    with pytest.raises(OrderMismatchError):
        perturbative_energies(state, taylor_coefficients(LJ, 1.3 * LJ.sigma, 6))


def test_first_order_breakdown_raises():
    # stable (k_eff > 0) but next to snap-in: the first-order omega_10 is
    # negative, the state a sweep flags FLAG_BREAKDOWN
    modal = modal_params(CantileverGeometry(221.1055276382e-9, 10e-9, 12e-9),
                         SILICON)
    gap = 1.666834170854 * LJ.sigma
    state = bias_state(modal, LJ, gap)
    assert state.effective_stiffness > 0
    with pytest.raises(DomainError, match="first-order breakdown at gap "
                                          "6.3773e-10 m"):
        perturbative_energies(state, taylor_coefficients(LJ, gap, 6))


def test_relative_frequency_shift():
    modal, state, taylor = paper_chain()
    spec = perturbative_energies(state, taylor, n_max=2)
    assert relative_frequency_shift(spec, modal) == pytest.approx(0.098,
                                                                  abs=0.002)
    flat = TaylorCoefficients(expansion_point=state.gap,
                              coefficients=(0.0,) * 7)
    iso = perturbative_energies(state, flat, n_max=2)
    # zero potential: omega_10 = omega_eff = omega_c at this gap
    modal_eff = modal_params(CantileverGeometry(495e-9, 10e-9, 12e-9), SILICON)
    assert relative_frequency_shift(iso, modal_eff) < 1e-12


def test_thermal_occupancy_paper_values():
    assert thermal_occupancy(60 * MHZ, 8 * MK) == pytest.approx(2.308, abs=0.001)
    assert thermal_occupancy(115 * MHZ, 8 * MK) == pytest.approx(1.0065,
                                                                 abs=0.001)
    assert thermal_occupancy(60 * MHZ, 0.0) == 0.0


def test_thermal_occupancy_monotonicity():
    temps = np.linspace(1, 50, 30) * MK
    occs = np.array([thermal_occupancy(60 * MHZ, t) for t in temps])
    assert np.all(np.diff(occs) > 0)
    freqs = np.linspace(20, 200, 30) * MHZ
    occs = np.array([thermal_occupancy(f, 8 * MK) for f in freqs])
    assert np.all(np.diff(occs) < 0)


def test_thermal_occupancy_domain():
    with pytest.raises(DomainError):
        thermal_occupancy(-1.0, 8 * MK)
    with pytest.raises(DomainError):
        thermal_occupancy(60 * MHZ, -1.0)
