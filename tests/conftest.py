"""Shared independent oracles for the test suite.

Every closed-form quantity in the package is checked against a second route
that never calls the production code path: adaptive quadrature for the
continuous families, direct log-sum-exp sums over (truncated) support grids
for the discrete ones. Keep it that way: these helpers must not import the
cumulant implementations.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gammaln

from gbtscore import Family, RootLaw

ALL_SPECS = (
    "bernoulli",
    "knary:K=5",
    "poisson:lambda=1.0",
    "gaussian:sigma0sq=1.0",
    "uniform",
    "beta:beta=2.5",
    "beta2",
)

BOUNDED_SPECS = ("bernoulli", "knary:K=5", "uniform", "beta:beta=2.5", "beta2")

_QUAD_KW = dict(epsabs=1e-15, epsrel=1e-13, limit=400)


def _quad(f, lo, hi):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, _ = integrate.quad(f, lo, hi, **_QUAD_KW)
    return value


def _moments_from_logweights(points, logw, theta):
    tilted = logw + theta * points
    peak = tilted.max()
    w = np.exp(tilted - peak)
    z = w.sum()
    mean = float((w * points).sum() / z)
    # centred second moment: E[r^2] - mean^2 cancels when the tilted law
    # sits on one support point (variance ~ e^-|theta| at large tilts)
    var = float((w * (points - mean) ** 2).sum() / z)
    base = logw.max() + math.log(np.exp(logw - logw.max()).sum())
    phi = float(peak + math.log(z) - base)
    return phi, mean, var


def _moments_from_weight(wfun, lo, hi, theta):
    shift = abs(theta)
    z = _quad(lambda r: math.exp(theta * r - shift) * wfun(r), lo, hi)
    m1 = _quad(lambda r: r * math.exp(theta * r - shift) * wfun(r), lo, hi)
    m2 = _quad(lambda r: r * r * math.exp(theta * r - shift) * wfun(r), lo, hi)
    z0 = _quad(wfun, lo, hi)
    mean = m1 / z
    return math.log(z / z0) + shift, mean, m2 / z - mean * mean


def poisson_grid(lam, theta_max, extra=60):
    peak = lam * math.exp(abs(theta_max))
    n = int(peak + 14.0 * math.sqrt(peak) + extra)
    k = np.arange(-n, n + 1, dtype=float)
    ak = np.abs(k)
    logw = -lam + ak * np.log(lam) - gammaln(ak + 1.0) - np.where(k != 0, math.log(2.0), 0.0)
    return k, logw


def oracle_moments(law: RootLaw, theta: float):
    """(Phi, Phi', Phi'') by quadrature / series, independent of production code."""
    fam = law.family
    if fam == Family.BERNOULLI:
        pts = np.array([-1.0, 1.0])
        return _moments_from_logweights(pts, np.log(np.full(2, 0.5)), theta)
    if fam == Family.KNARY:
        pts = 2.0 * np.arange(law.k) / (law.k - 1) - 1.0
        return _moments_from_logweights(pts, np.full(law.k, -math.log(law.k)), theta)
    if fam == Family.POISSON:
        pts, logw = poisson_grid(law.lam, theta)
        return _moments_from_logweights(pts, logw, theta)
    if fam == Family.GAUSSIAN:
        s0 = math.sqrt(law.sigma0_sq)
        center = law.sigma0_sq * theta
        lo, hi = center - 13.0 * s0 - 1.0, center + 13.0 * s0 + 1.0
        peak = theta * center - center * center / (2.0 * law.sigma0_sq)

        def h(r):
            return math.exp(theta * r - r * r / (2.0 * law.sigma0_sq) - peak)

        z = _quad(h, lo, hi)
        m1 = _quad(lambda r: r * h(r), lo, hi)
        m2 = _quad(lambda r: r * r * h(r), lo, hi)
        z0 = s0 * math.sqrt(2.0 * math.pi)
        mean = m1 / z
        return math.log(z / z0) + peak, mean, m2 / z - mean * mean
    if fam == Family.UNIFORM:
        return _moments_from_weight(lambda r: 0.5, -1.0, 1.0, theta)
    if fam == Family.BETA_TWO:
        return _moments_from_weight(lambda r: 0.75 * (1.0 - r * r), -1.0, 1.0, theta)
    b = law.beta
    if b >= 1.0:
        return _moments_from_weight(lambda r: (1.0 - r * r) ** (b - 1.0), -1.0, 1.0, theta)
    # endpoint singularity: substitute r = cos(pi u)
    shift = abs(theta)

    def weight(u):
        return math.pi * math.sin(math.pi * u) ** (2.0 * b - 1.0)

    z = _quad(lambda u: math.exp(theta * math.cos(math.pi * u) - shift) * weight(u), 0.0, 1.0)
    m1 = _quad(lambda u: math.cos(math.pi * u)
               * math.exp(theta * math.cos(math.pi * u) - shift) * weight(u), 0.0, 1.0)
    m2 = _quad(lambda u: math.cos(math.pi * u) ** 2
               * math.exp(theta * math.cos(math.pi * u) - shift) * weight(u), 0.0, 1.0)
    z0 = _quad(weight, 0.0, 1.0)
    mean = m1 / z
    return math.log(z / z0) + shift, mean, m2 / z - mean * mean


def pochhammer(a: float, n: int) -> float:
    value = 1.0
    for i in range(n):
        value *= a + i
    return value


def bounded_series_mgf(beta: float, theta: float, terms: int = 80) -> float:
    """Tilt normalizer of the symmetric [-1, 1] beta law from its Taylor series.

    Derived by rescaling the [0, 1] moment generating function
    1 + sum_k (prod_{n=0}^{k-1} (beta+n)/(2beta+n)) theta^k / k!
    to [-1, 1]: M(theta) = exp(-theta) * M01(2 theta).
    """
    m01 = 1.0
    for k in range(1, terms):
        m01 += pochhammer(beta, k) / pochhammer(2.0 * beta, k) * (2.0 * theta) ** k / math.factorial(k)
    return math.exp(-theta) * m01


@pytest.fixture(params=ALL_SPECS)
def any_law(request):
    from gbtscore import parse_model_spec
    return parse_model_spec(request.param)


@pytest.fixture(params=BOUNDED_SPECS)
def bounded_law(request):
    from gbtscore import parse_model_spec
    return parse_model_spec(request.param)
