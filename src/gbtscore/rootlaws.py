"""Comparison-model catalog.

A :class:`RootLaw` describes how two equally scored alternatives are
compared: a symmetric probability law on the comparison value. Tilting that
law by ``exp(theta * r)`` with the score difference ``theta`` gives the
conditional law of a comparison, and everything downstream (likelihoods,
gradients, expected comparisons) is driven by the law's cumulant generating
function ``Phi(theta) = log E[exp(theta * r)]`` and its first two
derivatives, which equal the tilted mean and tilted variance.
:meth:`RootLaw.cumulant` evaluates ``Phi``; :meth:`RootLaw.tilted_moments`
is the derivative entry point and returns ``(Phi', Phi'')`` from one shared
evaluation (one quadrature pass for ``beta``), which is what the solver
calls once per Newton iterate. ``cumulant_prime`` and
``cumulant_double_prime`` are views of it.

Catalog:

========== =========== ============= =================================
family      support     parameter     Phi(theta)
========== =========== ============= =================================
bernoulli   {-1, +1}    none          log cosh(theta)
knary       K grid pts  K >= 2        log(sinh(Kt/(K-1)) / (K sinh(t/(K-1))))
poisson     integers    lambda > 0    logaddexp(l e^t, l e^-t) - log 2 - l
gaussian    reals       sigma0^2 > 0  sigma0^2 theta^2 / 2
uniform     [-1, 1]     none          log(sinh(theta)/theta)
beta        [-1, 1]     beta > 0      numeric (Gauss-Jacobi quadrature)
beta2       [-1, 1]     none          log(3 (t cosh t - sinh t) / t^3)
========== =========== ============= =================================

Spec strings read ``family[:key=value]``. The table ``_FAMILIES`` is the one
place a family is defined (its kernels, support and parameter); every
:class:`RootLaw` member and :func:`parse_model_spec` look the family up there.

All laws are even, so Phi is even, Phi' odd, Phi'' even and positive; the
implementation reduces every evaluation to theta >= 0 to make those
symmetries exact in floating point.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import expit, roots_jacobi

from .errors import ParameterError
from .special import csch_sq, langevin_pair, log_cosh, log_sinhc

__all__ = ["Family", "RootLaw", "parse_model_spec"]

_LOG2 = float(np.log(2.0))
# tilts per Gauss-Jacobi exp table: nodes x 4096 doubles (~3 MB at 90 nodes)
# stays in cache, and one matmul per block forms every moment sum
_BETA_BLOCK = 4096


class Family(enum.Enum):
    BERNOULLI = "bernoulli"
    KNARY = "knary"
    POISSON = "poisson"
    GAUSSIAN = "gaussian"
    UNIFORM = "uniform"
    BETA = "beta"
    BETA_TWO = "beta2"


@dataclass(frozen=True)
class RootLaw:
    """Immutable comparison-model descriptor; safe to share across threads."""

    family: Family
    k: int | None = None
    lam: float | None = None
    sigma0_sq: float | None = None
    beta: float | None = None

    def __post_init__(self):
        kern = _FAMILIES[self.family]
        for other in _FAMILIES.values():
            if other.field not in (None, kern.field) and getattr(self, other.field) is not None:
                raise ParameterError(
                    f"model {self.family.value!r} takes no parameter {other.field!r}")
        if kern.field and not kern.valid(value := getattr(self, kern.field)):
            raise ParameterError(f"{self.family.value} requires {kern.rule}, got {value!r}")

    # ---------------------------------------------------------------- factories

    @classmethod
    def bernoulli(cls) -> "RootLaw":
        return cls(Family.BERNOULLI)

    @classmethod
    def knary(cls, k: int) -> "RootLaw":
        return cls(Family.KNARY, k=k)

    @classmethod
    def poisson(cls, lam: float) -> "RootLaw":
        return cls(Family.POISSON, lam=float(lam) if lam is not None else None)

    @classmethod
    def gaussian(cls, sigma0_sq: float) -> "RootLaw":
        return cls(Family.GAUSSIAN, sigma0_sq=float(sigma0_sq) if sigma0_sq is not None else None)

    @classmethod
    def uniform(cls) -> "RootLaw":
        return cls(Family.UNIFORM)

    @classmethod
    def beta_law(cls, beta: float) -> "RootLaw":
        return cls(Family.BETA, beta=float(beta) if beta is not None else None)

    @classmethod
    def beta_two(cls) -> "RootLaw":
        return cls(Family.BETA_TWO)

    # ---------------------------------------------------------------- descriptors

    @property
    def r_max(self) -> float:
        """Supremum of the support: 1 for the bounded families, inf otherwise."""
        return _FAMILIES[self.family].r_max

    @property
    def is_bounded(self) -> bool:
        return math.isfinite(self.r_max)

    @property
    def support_kind(self) -> str:
        return "discrete" if _FAMILIES[self.family].discrete else "continuous"

    @property
    def spec_string(self) -> str:
        """Canonical model-spec string, parseable by :func:`parse_model_spec`."""
        kern = _FAMILIES[self.family]
        return self.family.value + (f":{kern.key}={getattr(self, kern.field)}" if kern.key else "")

    def support_points(self) -> np.ndarray | None:
        """Support grid of the finite families (bernoulli, knary), else None.

        Poisson has no finite grid: its support is all the integers.
        """
        grid = _FAMILIES[self.family].grid
        return None if grid is None else grid(self)

    def contains(self, r):
        """Whether r lies in the support closure (interval for bounded laws).

        A scalar gives a bool, an array a boolean array of the same shape.
        Non-finite values are never contained.
        """
        arr = np.asarray(r, dtype=float)
        if self.is_bounded:
            inside = np.abs(arr) <= 1.0
        elif _FAMILIES[self.family].discrete:  # unbounded and discrete: the integers
            with np.errstate(invalid="ignore"):  # inf - inf
                inside = np.abs(arr - np.round(arr)) <= 1e-9
        else:
            inside = np.isfinite(arr)
        return bool(inside) if arr.ndim == 0 else inside

    # ---------------------------------------------------------------- cumulants

    def cumulant(self, theta):
        """Phi(theta); Phi(0) = 0 exactly, even, nonnegative, strictly convex."""
        a, _, scalar = self._split(theta)
        return _wrap(_FAMILIES[self.family].phi(a, self), scalar)

    def tilted_moments(self, theta):
        """(Phi'(theta), Phi''(theta)) from one shared evaluation.

        The tilted-law mean (odd, strictly increasing) and variance (even,
        strictly positive). Scalars give floats, arrays arrays.
        """
        a, s, scalar = self._split(theta)
        mean, var = _FAMILIES[self.family].moments(a, self)
        return _wrap(s * mean, scalar), _wrap(var, scalar)

    def cumulant_prime(self, theta):
        """Phi'(theta): the tilted-law mean; odd, strictly increasing."""
        return self.tilted_moments(theta)[0]

    def cumulant_double_prime(self, theta):
        """Phi''(theta): the tilted-law variance; even, strictly positive."""
        return self.tilted_moments(theta)[1]

    @staticmethod
    def _split(theta):
        arr = np.asarray(theta, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        return np.abs(arr), np.sign(arr), scalar and arr.shape == (1,)

    # ---------------------------------------------------------------- sampling

    def sample_comparison(self, theta, rng, size: int | None = None):
        """Draw from the tilted comparison law at score difference theta.

        ``theta`` scalar with ``size=None`` returns a float; ``size=n``
        returns n i.i.d. draws; an array ``theta`` (size must be None)
        returns one draw per entry; a non-finite tilt raises ParameterError.
        The random source is supplied by the caller so parallel
        reproducibility stays in the caller's hands.
        """
        arr = np.asarray(theta, dtype=float)
        if not np.isfinite(arr).all():
            raise ParameterError(f"tilt must be finite, got {arr[~np.isfinite(arr)].flat[0]}")
        sample = _FAMILIES[self.family].sample
        if arr.ndim == 0:
            th = np.full(1 if size is None else int(size), float(arr))
            out = sample(th, self, rng)
            return float(out[0]) if size is None else out
        if size is not None:
            raise ParameterError("size is only valid with a scalar theta")
        return sample(arr.ravel(), self, rng).reshape(arr.shape)


def _wrap(values, scalar):
    return float(values[0]) if scalar else values


# ------------------------------------------------------------------ kernels

def _bernoulli_moments(a, law):
    # tanh, not (1 - e) / (1 + e), keeps the mean's relative precision
    # at tiny tilts; sech^2 = 4e / (1 + e)^2 stays positive to |t| ~ 370
    e = np.exp(-2.0 * a)
    return np.tanh(a), 4.0 * e / ((1.0 + e) * (1.0 + e))


def _knary_moments(a, law):
    k, km1 = law.k, law.k - 1
    x = a / km1
    lang_k, deriv_k = langevin_pair(k * a / km1)
    lang_1, deriv_1 = langevin_pair(x)
    var = (k * k * deriv_k - deriv_1) / (km1 * km1)
    # the 1/x^2 terms of k^2 L'(kx) - L'(x) cancel analytically; past
    # langevin_pair's series cut-off the rest, csch^2(x) - k^2 csch^2(kx),
    # keeps the variance's relative precision at large tilts
    big = x >= 0.2
    if np.any(big):
        xb = x[big]
        var[big] = (csch_sq(xb) - k * k * csch_sq(k * xb)) / (km1 * km1)
    return (k * lang_k - lang_1) / km1, var


def _poisson_moments(a, law):
    p = law.lam * np.exp(a)
    q = law.lam * np.exp(-a)
    w = expit(p - q)
    spread = w * (1.0 - w)
    quad = np.where(spread > 0.0, spread * (p + q) * (p + q), 0.0)
    # the mean w p - (1 - w) q as lam sinh(a) + lam cosh(a) tanh(lam sinh(a)),
    # which does not cancel at tiny tilts
    half_gap = law.lam * np.sinh(a)
    return half_gap + 0.5 * (p + q) * np.tanh(half_gap), w * p + (1.0 - w) * q + quad


def _poisson_sample(th, law, rng):
    """Exact tilted draw: with probability expit(p - q) a +Poisson(p),
    else a -Poisson(q), where p = lam e^t and q = lam e^-t."""
    with np.errstate(over="ignore"):
        p = law.lam * np.exp(th)
        q = law.lam * np.exp(-th)
    up = rng.random(th.size) < expit(p - q)
    try:
        counts = rng.poisson(np.where(up, p, q))
    except ValueError:  # rate beyond numpy's Poisson range
        worst = float(th[np.argmax(np.abs(th))])
        raise ParameterError(
            f"tilt {worst:g} too large for Poisson sampling (lambda={law.lam:g})") from None
    return np.where(up, counts, -counts).astype(float)


# coefficients of 3 (t cosh t - sinh t) / t^3 = sum c_m t^(2m); c_m = 3(2m+2)/(2m+3)!
_BETA2_COEF = np.array([3.0 * (2 * m + 2) / math.factorial(2 * m + 3) for m in range(10)])


@lru_cache(maxsize=32)
def _jacobi_rule(beta: float, n: int):
    """Gauss-Jacobi nodes/weights for the weight (1-x^2)^(beta-1) on [-1, 1]."""
    x, w = roots_jacobi(n, beta - 1.0, beta - 1.0)
    return x, w, float(w.sum())


def _beta_rule_size(theta_max: float) -> int:
    # node count grows with the tilt so the integrand's boundary layer stays resolved
    return 80 + 2 * int(min(theta_max, 400.0))


def _beta_moments(a, law, full=True):
    """(Phi, Phi', Phi'') from tilted Gauss-Jacobi moments, theta >= 0.

    Phi alone (zeroth moment only) unless ``full``. Tilts go through in
    blocks of ``_BETA_BLOCK`` sharing one rule, sized by the largest tilt.
    """
    n = _beta_rule_size(float(a.max()) if a.size else 0.0)
    x, w, wsum = _jacobi_rule(law.beta, n)
    weights = np.stack([w, w * x, w * x * x]) if full else w[None, :]
    shift = (x - 1.0)[:, None]
    sums = np.empty((weights.shape[0], a.size))
    table = np.empty((n, min(a.size, _BETA_BLOCK)))
    for lo in range(0, a.size, _BETA_BLOCK):
        block = a[lo:lo + _BETA_BLOCK]
        expo = table[:, :block.size]
        np.multiply(shift, block, out=expo)
        np.exp(expo, out=expo)  # exponent <= 0: no overflow
        np.matmul(weights, expo, out=sums[:, lo:lo + _BETA_BLOCK])
    z = sums[0]
    phi = np.log(z) + a - math.log(wsum)
    if not full:
        return phi
    m1 = sums[1] / z
    return phi, m1, sums[2] / z - m1 * m1


def _beta2(a):
    """(Phi, Phi', Phi'') for the quadratic-weight law, theta >= 0.

    Series below 1, hyperbolic formulas to 500, then an asymptotic tail
    (the hyperbolic path would overflow past ~709).
    """
    phi = np.empty_like(a)
    phip = np.empty_like(a)
    phipp = np.empty_like(a)

    m = a < 1.0
    if np.any(m):
        p = a[m] * a[m]
        g = np.zeros_like(p)
        gp = np.zeros_like(p)   # g'(t) / t
        gpp = np.zeros_like(p)
        for i in range(len(_BETA2_COEF) - 1, -1, -1):
            c = _BETA2_COEF[i]
            g = g * p + c
            if i >= 1:
                gp = gp * p + 2 * i * c
                gpp = gpp * p + 2 * i * (2 * i - 1) * c
        t = a[m]
        ratio = t * gp / g
        phi[m] = np.log(g)
        phip[m] = ratio
        phipp[m] = gpp / g - ratio * ratio

    m = (a >= 1.0) & (a <= 500.0)
    if np.any(m):
        t = a[m]
        d = t * np.cosh(t) - np.sinh(t)
        r1 = t * np.sinh(t) / d
        phi[m] = np.log(3.0 * d / (t ** 3))
        phip[m] = r1 - 3.0 / t
        phipp[m] = (np.sinh(t) + t * np.cosh(t)) / d - r1 * r1 + 3.0 / (t * t)

    m = a > 500.0
    if np.any(m):
        t = a[m]
        phi[m] = t + math.log(1.5) + np.log(t - 1.0) - 3.0 * np.log(t)
        phip[m] = 1.0 + 1.0 / (t - 1.0) - 3.0 / t
        phipp[m] = 3.0 / (t * t) - 1.0 / ((t - 1.0) ** 2)

    return phi, phip, phipp


def _grid_sample(pts, th, rng):
    """Draws from equal-weight support points tilted by exp(theta * pts)."""
    logits = th[:, None] * pts[None, :]
    logits -= logits.max(axis=1, keepdims=True)
    cdf = np.cumsum(np.exp(logits), axis=1)
    u = rng.random(th.size) * cdf[:, -1]
    idx = (cdf < u[:, None]).sum(axis=1)
    return pts[np.minimum(idx, pts.size - 1)]


def _uniform_sample(th, law, rng):
    # exact inverse CDF of exp(theta r) on [-1, 1], reduced to theta >= 0
    u = rng.random(th.size)
    a = np.abs(th)
    s = np.where(th < 0, -1.0, 1.0)
    out = np.empty_like(a)
    tiny = a < 1e-8
    out[tiny] = 2.0 * u[tiny] - 1.0
    big = ~tiny
    ab, ub = a[big], u[big]
    out[big] = 1.0 + np.log(ub + (1.0 - ub) * np.exp(-2.0 * ab)) / ab
    return s * out


def _beta_rejection_sample(beta, th, rng):
    # propose from the untilted law, accept with exp(theta (r - sign)) <= 1
    out = np.empty_like(th)
    pending = np.arange(th.size)
    while pending.size:
        t = th[pending]
        r = 2.0 * rng.beta(beta, beta, size=pending.size) - 1.0
        accept = np.log(rng.random(pending.size)) < t * r - np.abs(t)
        out[pending[accept]] = r[accept]
        pending = pending[~accept]
    return out


def _positive(value):
    return value is not None and not isinstance(value, bool) and 0 < value < math.inf


@dataclass(frozen=True)
class _Kernel:
    """One family: its mathematics, its support and its spec-string parameter."""

    phi: Callable       # (a, law) -> Phi at a = |theta|
    moments: Callable   # (a, law) -> (Phi', Phi'') at a = |theta|
    sample: Callable    # (th, law, rng) -> one draw per tilt
    r_max: float = 1.0
    discrete: bool = False
    grid: Callable | None = None   # law -> finite support grid
    key: str | None = None         # spec-string key; None: the family takes no parameter
    field: str | None = None       # the RootLaw field that holds it
    convert: type = float          # spec-string value -> parameter
    valid: Callable = _positive    # parameter -> accepted?
    rule: str = ""                 # the accepted range, for the error message


# beta calls ``_beta_moments`` by name, so a rebound one (a test's counter) runs
_FAMILIES = {
    Family.BERNOULLI: _Kernel(
        lambda a, law: log_cosh(a), _bernoulli_moments,
        lambda th, law, rng: np.where(rng.random(th.size) < expit(2.0 * th), 1.0, -1.0),
        discrete=True, grid=lambda law: np.array([-1.0, 1.0])),
    Family.KNARY: _Kernel(
        lambda a, law: log_sinhc(law.k * a / (law.k - 1)) - log_sinhc(a / (law.k - 1)),
        _knary_moments, lambda th, law, rng: _grid_sample(law.support_points(), th, rng),
        discrete=True, grid=lambda law: 2.0 * np.arange(law.k) / (law.k - 1) - 1.0,
        key="K", field="k", convert=int,
        valid=lambda k: isinstance(k, int) and not isinstance(k, bool) and k >= 2,
        rule="integer K >= 2"),
    Family.POISSON: _Kernel(
        lambda a, law: np.logaddexp(law.lam * np.exp(a), law.lam * np.exp(-a)) - _LOG2 - law.lam,
        _poisson_moments, _poisson_sample, r_max=math.inf, discrete=True,
        key="lambda", field="lam", rule="finite lambda > 0"),
    Family.GAUSSIAN: _Kernel(
        lambda a, law: 0.5 * law.sigma0_sq * a * a,
        lambda a, law: (law.sigma0_sq * a, np.full_like(a, law.sigma0_sq)),
        lambda th, law, rng: rng.normal(law.sigma0_sq * th, math.sqrt(law.sigma0_sq),
                                        size=th.size),
        r_max=math.inf, key="sigma0sq", field="sigma0_sq", rule="finite sigma0sq > 0"),
    Family.UNIFORM: _Kernel(
        lambda a, law: log_sinhc(a), lambda a, law: langevin_pair(a), _uniform_sample),
    Family.BETA: _Kernel(
        lambda a, law: _beta_moments(a, law, full=False),
        lambda a, law: _beta_moments(a, law)[1:],
        lambda th, law, rng: _beta_rejection_sample(law.beta, th, rng),
        key="beta", field="beta", rule="finite beta > 0",
        # the Gauss-Jacobi rule needs the exponent beta - 1 > -1 in floating point
        valid=lambda b: _positive(b) and b - 1.0 > -1.0),
    Family.BETA_TWO: _Kernel(
        lambda a, law: _beta2(a)[0], lambda a, law: _beta2(a)[1:],
        lambda th, law, rng: _beta_rejection_sample(2.0, th, rng)),
}


def parse_model_spec(text: str) -> RootLaw:
    """Parse a model-spec string ``family[:key=value]``, e.g. ``knary:K=21``.

    Family names and parameter keys are case-insensitive; unknown families,
    unknown keys, missing or malformed parameters raise ParameterError.
    """
    if not isinstance(text, str) or not text.strip():
        raise ParameterError(f"empty model spec {text!r}")
    head, _, tail = text.strip().partition(":")
    name = head.strip().lower()
    try:
        family = Family(name)
    except ValueError:
        raise ParameterError(f"unknown model family {head.strip()!r}") from None
    kern = _FAMILIES[family]
    if kern.key is None:
        if tail.strip():
            raise ParameterError(f"model {name!r} takes no parameter, got {tail.strip()!r}")
        return RootLaw(family)
    given, eq, value = tail.partition("=")
    if not eq or given.strip().lower() != kern.key.lower():
        raise ParameterError(f"model {name!r} requires {kern.key}=<value>, got {tail.strip()!r}")
    value = value.strip()
    try:
        number = kern.convert(value)
    except ValueError:
        kind = "an integer" if kern.convert is int else "a number"
        raise ParameterError(f"parameter {kern.key!r} must be {kind}, got {value!r}") from None
    return RootLaw(family, **{kern.field: number})
