"""Lennard-Jones potential, derivatives, Taylor coefficients, bias point."""

import math

import numpy as np
import pytest

from afq import LennardJones, find_bias_point, taylor_coefficients
from afq.config import default_config
from afq.errors import DomainError
from afq.potential import _rightmost_root
from afq.units import MEV, ANGSTROM

EPS_SI = 17.4 * MEV
SIGMA_SI = 3.826 * ANGSTROM
X_MIN = 2.0 ** (1.0 / 6.0) * SIGMA_SI      # the potential minimum


@pytest.fixture
def lj():
    return LennardJones(epsilon=EPS_SI, sigma=SIGMA_SI)


def test_zero_crossing_at_sigma(lj):
    assert lj.value(lj.sigma) == pytest.approx(0.0, abs=1e-40)


def test_minimum_depth(lj):
    assert lj.value(X_MIN) == pytest.approx(-EPS_SI, rel=1e-14)
    assert lj.value(X_MIN) == pytest.approx(-17.4 * MEV, rel=1e-14)


def test_value_at_inflection_closed_form(lj):
    # 4 eps [(7/26)^2 - 7/26] = -(532/676) eps ~ -0.787 eps ~ -13.7 meV
    x0 = lj.inflection
    expected = 4.0 * EPS_SI * ((7 / 26) ** 2 - 7 / 26)
    assert lj.value(x0) == pytest.approx(expected, rel=1e-14)
    assert lj.value(x0) / EPS_SI == pytest.approx(-0.786982, abs=1e-6)
    assert lj.value(x0) / MEV == pytest.approx(-13.69, abs=0.01)


def test_force_vanishes_at_minimum(lj):
    assert abs(lj.derivative(X_MIN, 1)) < 1e-6 * EPS_SI / SIGMA_SI


def test_curvature_vanishes_at_inflection(lj):
    scale = EPS_SI / SIGMA_SI**2
    assert abs(lj.derivative(lj.inflection, 2)) < 1e-12 * scale


def test_curvature_at_minimum_closed_form(lj):
    # V'' at the minimum is 72 eps / x^2 ~ 1.09 N/m for silicon
    x = X_MIN
    assert lj.derivative(x, 2) == pytest.approx(72 * EPS_SI / x**2, rel=1e-13)
    assert lj.derivative(x, 2) == pytest.approx(1.088, abs=0.002)


def test_quartic_at_inflection_closed_form(lj):
    # V'''' (x0) = (4 eps / x0^4) (32760 (7/26)^2 - 3024 (7/26))
    x0 = lj.inflection
    expected = (4 * EPS_SI / x0**4) * (32760 * (7 / 26) ** 2 - 3024 * (7 / 26))
    assert lj.derivative(x0, 4) == pytest.approx(expected, rel=1e-13)
    assert expected == pytest.approx(3.39e20, rel=0.01)


def test_derivative_order_zero_is_value(lj):
    for x in (1.1 * SIGMA_SI, 2.0 * SIGMA_SI):
        assert lj.derivative(x, 0) == lj.value(x)


@pytest.mark.parametrize("n", range(1, 9))
def test_derivatives_match_finite_differences(lj, n):
    # 5-point central difference of the (n-1)th derivative, h = 1e-3 sigma
    h = 1e-3 * SIGMA_SI
    for x in np.linspace(1.05 * SIGMA_SI, 3.0 * SIGMA_SI, 23):
        f = lambda y: lj.derivative(y, n - 1)
        fd = (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)
        assert fd == pytest.approx(lj.derivative(x, n), rel=1e-6)


def test_curvature_sign_structure(lj):
    # V'' > 0 below the inflection, < 0 above, within [1.05, 3] sigma
    x0 = lj.inflection
    below = np.linspace(1.05 * SIGMA_SI, 0.999 * x0, 50)
    above = np.linspace(1.001 * x0, 3.0 * SIGMA_SI, 50)
    assert np.all(lj.derivative(below, 2) > 0)
    assert np.all(lj.derivative(above, 2) < 0)


def test_vectorized_evaluation(lj):
    xs = np.linspace(1.05 * SIGMA_SI, 3 * SIGMA_SI, 7)
    np.testing.assert_allclose(lj.value(xs),
                               [lj.value(x) for x in xs], rtol=1e-15)
    np.testing.assert_allclose(lj.derivative(xs, 3),
                               [lj.derivative(x, 3) for x in xs], rtol=1e-15)


def test_domain_errors(lj):
    with pytest.raises(DomainError):
        lj.value(0.0)
    with pytest.raises(DomainError):
        lj.value(-1e-10)
    with pytest.raises(DomainError):
        lj.derivative(1e-10, -1)
    with pytest.raises(DomainError):
        LennardJones(epsilon=-1.0, sigma=1.0)
    with pytest.raises(DomainError):
        LennardJones(epsilon=1.0, sigma=0.0)


def test_taylor_coefficients_definition(lj):
    x = 1.3 * SIGMA_SI
    t = taylor_coefficients(lj, x, max_order=8)
    assert t.max_order == 8
    assert t.lam(0) == lj.value(x)
    for n in range(9):
        assert t.lam(n) == pytest.approx(
            lj.derivative(x, n) / math.factorial(n), rel=1e-15)


def test_taylor_at_inflection(lj):
    x0 = lj.inflection
    t = taylor_coefficients(lj, x0, max_order=6)
    assert abs(t.lam(2)) < 1e-12 * abs(t.lam(0)) / SIGMA_SI**2
    # lam4 = V''''(x0)/24 ~ 1.41e19 J/m^4 for silicon parameters
    assert t.lam(4) == pytest.approx(1.41e19, rel=0.01)
    assert t.lam(4) > 0  # positive quartic makes the spectrum harden


def test_taylor_order_validation(lj):
    with pytest.raises(DomainError):
        taylor_coefficients(lj, SIGMA_SI * 1.2, max_order=1)


def test_find_bias_point_matches_closed_form(lj):
    x0 = find_bias_point(lj)
    assert x0 == pytest.approx(lj.inflection, rel=1e-12)
    assert x0 / ANGSTROM == pytest.approx(4.7613, abs=1e-3)
    assert x0 / SIGMA_SI == pytest.approx(1.24446, abs=1e-5)


def test_find_bias_point_epsilon_independent_sigma_scaling():
    # eps rescales V'' uniformly; the root scales linearly with sigma
    for eps in (1e-22, 3.7e-21, 2.5e-19):
        lj = LennardJones(epsilon=eps, sigma=1.0)
        assert find_bias_point(lj) == pytest.approx(
            (26 / 7) ** (1 / 6), rel=1e-12)
    for sigma in (0.5e-10, 1.0, 42.0):
        lj = LennardJones(epsilon=1e-21, sigma=sigma)
        assert find_bias_point(lj) == pytest.approx(
            (26 / 7) ** (1 / 6) * sigma, rel=1e-12)


def assert_nearest_float_root(f, x):
    """x and an adjacent float straddle a sign change of f, and
    |f(x)| <= |f(neighbour)|: no float is closer to the root."""
    fx = f(x)
    neighbours = [n for n in (np.nextafter(x, -np.inf), np.nextafter(x, np.inf))
                  if np.signbit(f(n)) != np.signbit(fx)]
    assert any(abs(fx) <= abs(f(n)) for n in neighbours), (x, fx)


def test_bundled_bias_point_is_the_closed_form():
    pot = default_config().potential()
    assert find_bias_point(pot) == pot.inflection


def test_bias_point_is_nearest_float_root():
    rng = np.random.default_rng(7)
    for eps, sigma in zip(rng.uniform(1, 100, 40) * MEV,
                          rng.uniform(2, 6, 40) * ANGSTROM):
        lj = LennardJones(epsilon=eps, sigma=sigma)
        x = find_bias_point(lj)
        assert_nearest_float_root(lambda y: lj.derivative(y, 2), x)


def test_rightmost_root_takes_the_last_sign_change():
    x = _rightmost_root(np.sin, 0.5, 10.0)
    assert x == pytest.approx(3 * np.pi, rel=1e-15)
    assert_nearest_float_root(np.sin, x)


def test_rightmost_root_none_without_sign_change():
    assert _rightmost_root(lambda x: x - 5.0, 0.0, 1.0) is None
