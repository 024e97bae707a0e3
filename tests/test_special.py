"""Branch consistency and symmetry of the stable hyperbolic helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbtscore.special import langevin_pair, log_cosh, log_sinhc


def langevin(x):
    return langevin_pair(x)[0]


def langevin_deriv(x):
    return langevin_pair(x)[1]


# extended-precision reference values, rounded to double
REFERENCE = {
    "log_sinhc": [(0.1, 0.0016661114635804605), (1.0, 0.16143936157119563),
                  (5.0, 2.6973695060455838)],
    "langevin": [(0.1, 0.03331113225398961), (1.0, 0.3130352854993313),
                 (5.0, 0.8000908039820194)],
    "langevin_deriv": [(0.1, 0.33266772338816501), (1.0, 0.27593833903368953),
                       (5.0, 0.03981838379059810)],
}


def test_log_cosh_values():
    pts = np.array([-700.0, -3.0, 0.0, 0.5, 3.0, 700.0])
    for x in pts:
        expected = abs(x) + math.log1p(math.exp(-2 * abs(x))) - math.log(2.0)
        assert log_cosh(x) == pytest.approx(expected, rel=1e-15, abs=1e-300)
    assert log_cosh(0.0) == 0.0


@pytest.mark.parametrize("name,fn", [
    ("log_sinhc", log_sinhc), ("langevin", langevin), ("langevin_deriv", langevin_deriv)])
def test_reference_values(name, fn):
    for x, expected in REFERENCE[name]:
        assert fn(x) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("fn,switch", [
    (log_sinhc, 0.5), (langevin, 0.2), (langevin_deriv, 0.2), (log_sinhc, 30.0)])
def test_branch_continuity(fn, switch):
    # a jump at the branch switch would show up as a spike in the second
    # differences of a fine uniform grid straddling it
    xs = switch + np.linspace(-1e-6, 1e-6, 21)
    ys = fn(xs)
    second = np.abs(np.diff(ys, n=2))
    scale = max(abs(ys[0]), abs(ys[-1]), 1e-3)
    assert second.max() < 1e-10 * scale


@given(st.floats(min_value=-700, max_value=700, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_symmetries(x):
    assert log_sinhc(x) == log_sinhc(-x)
    assert langevin(x) == -langevin(-x)
    assert langevin_deriv(x) == langevin_deriv(-x)
    assert log_cosh(x) == log_cosh(-x)
    assert log_sinhc(x) >= 0.0
    assert abs(langevin(x)) < 1.0 or abs(x) > 1e15


@given(st.floats(min_value=1e-6, max_value=500, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_langevin_derivative_consistency(x):
    h = 1e-5 * max(1.0, x)
    fd = (langevin(x + h) - langevin(x - h)) / (2 * h)
    assert langevin_deriv(x) == pytest.approx(fd, rel=1e-4, abs=1e-9)


def test_scalar_and_array_forms():
    assert isinstance(log_sinhc(1.0), float)
    out = log_sinhc(np.array([0.0, 1.0, 40.0]))
    assert out.shape == (3,)
    assert out[0] == 0.0


def test_log_sinhc_extreme_arguments():
    # log(sinh x / x) = x - log(2x) + log1p(-e^(-2x)) grows without bound
    assert log_sinhc(math.inf) == math.inf and log_sinhc(-math.inf) == math.inf
    big = np.array([700.0, 1e308])
    np.testing.assert_allclose(log_sinhc(big), big - np.log(2.0) - np.log(big), rtol=1e-15)
