"""Electromechanical coupling, adiabatic elimination, 3-mode response."""

import tracemalloc

import numpy as np
import pytest

from afq import (CqadConfig, adiabatic_elimination, bus_coupling,
                 cooling_estimate, dispersive_shift, electromech_coupling,
                 frequency_response, parametric_coupling, response_linewidth)
from afq.config import PAPER_CONFIG, default_config, parse_config_text
from afq.cqad import dispersive_figures, quality_factor_damping
from afq.errors import DomainError, SingularModelError
from afq.units import GHZ, MHZ, NM, FM, cycles

TWO_PI = 2 * np.pi


def make_config(**overrides):
    base = dict(omega_q=60 * MHZ, omega_m=67 * MHZ, omega_r=5 * GHZ,
                omega_d=5 * GHZ - 67 * MHZ, g=0.0, qubit_damping=0.0,
                mech_damping=2e-6 * 67 * MHZ, kappa_i=0.5 * MHZ,
                kappa_e=0.5 * MHZ, n_d=1.0, participation=0.5, gap=60 * NM,
                readout_x_zpf=4 * FM)
    base.update(overrides)
    return CqadConfig(**base)


def test_electromech_coupling_value():
    # q = 0.5, omega_r = 2 pi x 5 GHz, X_zpf = 4 fm, d = 60 nm -> 83.3 Hz
    cfg = make_config()
    assert cycles(electromech_coupling(cfg)) == pytest.approx(83.33, abs=0.01)


def test_electromech_coupling_scalings():
    cfg = make_config()
    g0 = electromech_coupling(cfg)
    assert electromech_coupling(make_config(gap=120 * NM)) == pytest.approx(
        g0 / 2, rel=1e-14)
    assert electromech_coupling(make_config(participation=0.0)) == 0.0


def test_parametric_coupling():
    assert parametric_coupling(TWO_PI * 83.0, 0.0) == 0.0
    assert parametric_coupling(TWO_PI * 83.0, 1.0) == TWO_PI * 83.0
    assert parametric_coupling(TWO_PI * 83.0, 1e4) == pytest.approx(
        TWO_PI * 8.3e3, rel=1e-12)
    with pytest.raises(DomainError):
        parametric_coupling(1.0, -1.0)


def test_adiabatic_elimination_decoupled():
    eff = adiabatic_elimination(make_config(n_d=0.0))
    assert eff.g_em_parametric == 0.0
    assert eff.purcell_rate == 0.0
    cfg = make_config(n_d=0.0)
    assert eff.omega_m_shifted == cfg.omega_m
    assert eff.total_damping == cfg.mech_damping


def test_purcell_rate_on_resonance():
    # delta = 0: Gamma_e = 4 G^2 / kappa, no spring shift
    cfg = make_config(n_d=1e4)  # G = 2 pi x 8.33 kHz
    eff = adiabatic_elimination(cfg)
    assert eff.delta == pytest.approx(0.0, abs=1e-3)
    expected = 4 * eff.g_em_parametric**2 / cfg.kappa
    assert eff.purcell_rate == pytest.approx(expected, rel=1e-14)
    assert eff.omega_m_shifted == pytest.approx(cfg.omega_m, abs=1e-3)


def test_purcell_rate_paper_example():
    # delta = 0, G = 2 pi x 0.1 MHz, kappa = 2 pi x 1 MHz -> 2 pi x 0.04 MHz
    gap, q, omega_r = 60 * NM, 0.5, 5 * GHZ
    x_zpf = 2 * gap * 0.1 * MHZ / (q * omega_r)
    cfg = make_config(readout_x_zpf=x_zpf, n_d=1.0)
    eff = adiabatic_elimination(cfg)
    assert cycles(eff.g_em_parametric) / 1e6 == pytest.approx(0.1, rel=1e-12)
    assert cycles(eff.purcell_rate) / 1e6 == pytest.approx(0.04, rel=1e-9)


def test_purcell_symmetric_in_delta_and_spring_shift_odd():
    cfg = make_config()
    g_em = electromech_coupling(cfg)
    for d_mhz in (0.3, 1.0, 2.5):
        up = make_config(omega_d=cfg.omega_r - cfg.omega_m + d_mhz * MHZ)
        dn = make_config(omega_d=cfg.omega_r - cfg.omega_m - d_mhz * MHZ)
        e_up, e_dn = adiabatic_elimination(up), adiabatic_elimination(dn)
        assert e_up.purcell_rate == pytest.approx(e_dn.purcell_rate, rel=1e-12)
        s_up = e_up.omega_m_shifted - cfg.omega_m
        s_dn = e_dn.omega_m_shifted - cfg.omega_m
        assert s_up == pytest.approx(-s_dn, rel=1e-12)
    on = adiabatic_elimination(cfg)
    assert on.purcell_rate >= e_up.purcell_rate  # maximum at delta = 0


def test_elimination_warns_outside_its_regime():
    # G_EM comparable to Delta_r: the microwave mode is not fast anymore
    gap, q, omega_r = 60 * NM, 0.5, 5 * GHZ
    x_zpf = 2 * gap * (0.2 * 67 * MHZ) / (q * omega_r)
    cfg = make_config(readout_x_zpf=x_zpf, n_d=1.0)
    with pytest.warns(UserWarning, match="adiabatic elimination"):
        adiabatic_elimination(cfg)


def test_alpha_purcell_identity():
    for n_d in (1.0, 25.0, 1e4):
        cfg = make_config(n_d=n_d, omega_d=5 * GHZ - 66 * MHZ)
        eff = adiabatic_elimination(cfg)
        assert abs(eff.alpha) ** 2 * cfg.kappa == pytest.approx(
            eff.purcell_rate, rel=1e-12)


def test_uncoupled_response_lorentzians():
    cfg = make_config(n_d=0.0, qubit_damping=1e-4 * MHZ)
    kappa = cfg.kappa
    grid = np.linspace(cfg.delta_r - 6 * kappa, cfg.delta_r + 6 * kappa, 4001)
    resp = frequency_response(cfg, grid)
    # reflection dip of width kappa at Delta_r (critical coupling -> |r|=0)
    i_min = np.argmin(np.abs(resp.reflection))
    assert grid[i_min] == pytest.approx(cfg.delta_r, abs=kappa / 100)
    assert np.abs(resp.reflection[i_min]) < 1e-3
    band = np.abs(grid - cfg.delta_r) > 5 * kappa
    assert np.all(np.abs(resp.reflection[band]) > 0.98)
    # microwave susceptibility FWHM = kappa
    fwhm_c = _fwhm(grid, resp.mw_susceptibility**2)
    assert fwhm_c == pytest.approx(kappa, rel=0.01)
    # mechanical susceptibility peaks at omega_m with width Gamma_i
    grid_m = np.linspace(cfg.omega_m - 8 * cfg.mech_damping,
                         cfg.omega_m + 8 * cfg.mech_damping, 4001)
    resp_m = frequency_response(cfg, grid_m)
    fwhm_m = _fwhm(grid_m, resp_m.mech_susceptibility**2)
    assert fwhm_m == pytest.approx(cfg.mech_damping, rel=0.01)


def _fwhm(w, y):
    i = int(np.argmax(y))
    half = y[i] / 2
    above = y >= half
    lo = int(np.argmax(above))
    hi = int(y.size - 1 - np.argmax(above[::-1]))
    x_lo = w[lo - 1] + (half - y[lo - 1]) * (w[lo] - w[lo - 1]) / (y[lo] - y[lo - 1])
    x_hi = w[hi + 1] + (half - y[hi + 1]) * (w[hi] - w[hi + 1]) / (y[hi] - y[hi + 1])
    return x_hi - x_lo


def test_qubit_mechanics_normal_mode_splitting():
    # resonant qubit-mechanics coupling splits the response by 2g
    g = 1.0 * MHZ
    cfg = make_config(omega_q=67 * MHZ, g=g, n_d=0.0,
                      qubit_damping=0.02 * MHZ, mech_damping=0.02 * MHZ)
    grid = np.linspace(67 * MHZ - 4 * g, 67 * MHZ + 4 * g, 8001)
    resp = frequency_response(cfg, grid)
    y = resp.mech_susceptibility**2
    # two peaks at omega_m -+ g
    i_lo = np.argmax(y[grid < 67 * MHZ])
    i_hi = np.argmax(y[grid >= 67 * MHZ]) + np.count_nonzero(grid < 67 * MHZ)
    splitting = grid[i_hi] - grid[i_lo]
    assert splitting == pytest.approx(2 * g, rel=0.02)


def random_chain(rng):
    return make_config(g=rng.uniform(0, 2) * MHZ,
                       n_d=rng.uniform(0, 1e4),
                       qubit_damping=rng.uniform(0, 1) * MHZ,
                       mech_damping=rng.uniform(0, 1) * MHZ,
                       kappa_i=rng.uniform(0.1, 1) * MHZ,
                       kappa_e=rng.uniform(0.1, 1) * MHZ)


def test_reflection_passive_bound():
    rng = np.random.default_rng(11)
    for _ in range(5):
        cfg = random_chain(rng)
        grid = np.linspace(50 * MHZ, 90 * MHZ, 3001)
        resp = frequency_response(cfg, grid)
        assert np.abs(resp.reflection).max() <= 1 + 1e-9


def batched_inverse_response(cfg, w):
    """Reference: invert the full (n, 3, 3) response matrix per point."""
    big_g = parametric_coupling(electromech_coupling(cfg), cfg.n_d)
    m = np.zeros((w.size, 3, 3), dtype=complex)
    m[:, 0, 0] = 1j * (cfg.omega_q - w) + 0.5 * cfg.qubit_damping
    m[:, 1, 1] = 1j * (cfg.omega_m - w) + 0.5 * cfg.mech_damping
    m[:, 2, 2] = 1j * (cfg.delta_r - w) + 0.5 * cfg.kappa
    m[:, 0, 1] = m[:, 1, 0] = 1j * cfg.g
    m[:, 1, 2] = m[:, 2, 1] = 1j * big_g
    inv = np.linalg.inv(m)
    c_amp = -np.sqrt(cfg.kappa_e) * inv[:, 2, 2]
    return (1.0 + np.sqrt(cfg.kappa_e) * c_amp, np.abs(inv[:, 0, 0]),
            np.abs(inv[:, 1, 1]), np.abs(inv[:, 2, 2]))


def bundled_chain():
    run = default_config()
    *_, spec = run.design()
    grid = np.linspace(run.si["cqad.probe_min_mhz"],
                       run.si["cqad.probe_max_mhz"],
                       run.si["cqad.probe_points"])
    return run.readout_chain(spec.omega_10), grid


def assert_matches_batched_inverse(cfg, grid):
    resp = frequency_response(cfg, grid)
    got = (resp.reflection, resp.qubit_susceptibility,
           resp.mech_susceptibility, resp.mw_susceptibility)
    for g, ref in zip(got, batched_inverse_response(cfg, grid)):
        np.testing.assert_allclose(g, ref, rtol=1e-12, atol=0)


def test_closed_form_matches_batched_inverse_bundled_chain():
    cfg, grid = bundled_chain()
    assert grid.size == 2001
    assert_matches_batched_inverse(cfg, grid)


@pytest.mark.parametrize("seed", range(20))
def test_closed_form_matches_batched_inverse_random_chain(seed):
    cfg = random_chain(np.random.default_rng(seed))
    assert_matches_batched_inverse(cfg, np.linspace(50 * MHZ, 90 * MHZ, 3001))


def test_response_memory_is_per_point_vectors():
    # (n, 3, 3) complex matrices and their inverse alone cost 288 B/point
    cfg, _ = bundled_chain()
    grid = np.linspace(cfg.omega_q - 20 * MHZ, cfg.omega_q + 20 * MHZ, 100_000)
    tracemalloc.start()
    try:
        frequency_response(cfg, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / grid.size <= 240


def test_reduced_model_equivalence():
    # mechanical linewidth from the full chain vs Gamma_i + Gamma_e,
    # G/Delta_r = 0.05, kappa/omega_m = 0.05
    omega_m = 67 * MHZ
    delta_r = 0.2 * omega_m
    big_g = 0.05 * delta_r
    gap, q, omega_r = 60 * NM, 0.5, 5 * GHZ
    cfg = make_config(omega_d=omega_r - delta_r, kappa_i=0.025 * omega_m / 2,
                      kappa_e=0.025 * omega_m / 2,
                      mech_damping=2e-6 * omega_m,
                      readout_x_zpf=2 * gap * big_g / (q * omega_r), n_d=1.0)
    eff = adiabatic_elimination(cfg)
    span = 8 * eff.total_damping
    grid = np.linspace(eff.omega_m_shifted - span, eff.omega_m_shifted + span,
                       20001)
    fwhm = response_linewidth(frequency_response(cfg, grid))
    assert fwhm == pytest.approx(eff.total_damping, rel=0.05)


def test_response_grid_validation():
    with pytest.raises(DomainError):
        frequency_response(make_config(), [])
    lossless = make_config(n_d=0.0, kappa_i=0.0, kappa_e=0.0,
                           mech_damping=0.0)
    with pytest.raises(SingularModelError):
        frequency_response(lossless, [lossless.delta_r])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_response_refuses_non_finite_probe(bad):
    cfg = make_config()
    with pytest.raises(DomainError, match="probe grid must be finite"):
        frequency_response(cfg, [cfg.omega_m, bad, cfg.delta_r])


@pytest.mark.parametrize("call, message", [
    (lambda: parametric_coupling(1.0, np.nan), "photon number"),
    (lambda: cooling_estimate(2.3, np.nan, 1.0), "rates must be >= 0"),
    (lambda: cooling_estimate(2.3, 1.0, np.nan), "rates must be >= 0"),
    (lambda: quality_factor_damping(1.0, np.nan), "quality factor"),
], ids=["parametric_coupling.n_d", "cooling_estimate.mech_damping",
        "cooling_estimate.purcell_rate", "quality_factor_damping.quality"])
def test_nan_argument_rejected(call, message):
    with pytest.raises(DomainError, match=message):
        call()


def test_dispersive_shift_values():
    assert dispersive_shift(0.0, 5.34 * MHZ, 4.3 * MHZ) == 0.0
    chi = dispersive_shift(1.0 * MHZ, 5.34 * MHZ, 4.3 * MHZ)
    assert cycles(chi) / 1e6 == pytest.approx(-0.1288, abs=0.0005)
    assert chi < 0  # Delta > 0, eta > 0
    with pytest.raises(SingularModelError):
        dispersive_shift(1.0 * MHZ, 5.34 * MHZ, 0.0)
    with pytest.raises(SingularModelError):
        dispersive_shift(1.0 * MHZ, 5.34 * MHZ, -5.34 * MHZ)


def test_bus_coupling_values():
    j = bus_coupling(1.0 * MHZ, 1.0 * MHZ, 4.35 * MHZ, 4.35 * MHZ)
    assert cycles(j) / 1e6 == pytest.approx(0.22989, abs=1e-4)
    assert bus_coupling(0.0, 1.0 * MHZ, 4.0 * MHZ, 5.0 * MHZ) == 0.0
    j2 = bus_coupling(1.0 * MHZ, 1.0 * MHZ, 4.0 * MHZ, 5.0 * MHZ)
    assert cycles(j2) / 1e6 == pytest.approx(0.225, abs=1e-3)
    with pytest.raises(SingularModelError):
        bus_coupling(1.0, 1.0, 0.0, 5.0)


@pytest.mark.parametrize("length_nm, delta_mhz", [(495, 4.30), (420, None)])
def test_dispersive_figures_on_the_configured_chain(length_nm, delta_mhz):
    # the joint-shifted readout mode (67 - 2.7 MHz) lies above the bundled
    # qubit (60.0 MHz) and below the stiffer 420 nm one
    run = parse_config_text(PAPER_CONFIG.replace(
        "cantilever.length_nm = 495", f"cantilever.length_nm = {length_nm}"))
    *_, spec = run.design()
    chain = run.readout_chain(spec.omega_10)
    assert run.si["cqad.omega_q_mhz"] is run.si["cqad.omega_d_ghz"] is None
    assert chain.omega_q == spec.omega_10
    assert chain.omega_d == chain.omega_r - chain.omega_m     # red sideband
    delta, chi, j = dispersive_figures(chain, spec.eta)
    if delta_mhz is None:
        assert delta < 0
    else:
        assert cycles(delta) / 1e6 == pytest.approx(delta_mhz, abs=0.005)
    assert chi == dispersive_shift(chain.g, spec.eta, abs(delta))
    assert j == bus_coupling(chain.g, chain.g, abs(delta), abs(delta))


def test_cooling_estimate():
    assert cooling_estimate(2.3, 1.0, 0.0) == 2.3
    assert cooling_estimate(2.3, 1.0, 9.0) == pytest.approx(0.23, rel=1e-12)
    assert cooling_estimate(2.3, 1.0, np.inf) == 0.0
    with pytest.raises(DomainError):
        cooling_estimate(2.3, -1.0, 1.0)


def test_config_validation():
    with pytest.raises(DomainError):
        make_config(kappa_i=-1.0)
    with pytest.raises(DomainError):
        make_config(participation=1.5)
    with pytest.raises(DomainError):
        make_config(gap=0.0)
    cfg = make_config()
    assert cfg.kappa == cfg.kappa_i + cfg.kappa_e
