"""Numerically stable hyperbolic helpers.

The cumulant functions of the bounded comparison models reduce to a handful
of scalar functions (log(sinh x / x), the Langevin function, their
derivatives) that are 0/0 at the origin and overflow-prone for large
arguments. Each helper here evaluates a truncated Taylor series near zero
and a direct formula beyond it, written in terms of exp(-2|x|), which
underflows instead of overflowing. All accept scalars or ndarrays
elementwise.
"""

from __future__ import annotations

import numpy as np

_LOG2 = float(np.log(2.0))


def _unwrap(x, out):
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(out)
    return out


def log_cosh(x):
    """log(cosh x), exact at 0 and overflow-free: logaddexp(x, -x) - log 2."""
    return np.logaddexp(x, -x) - _LOG2


def log_sinhc(x):
    """log(sinh x / x); even, equals 0 at the origin.

    Series below 0.5; beyond it the identity
    |x| - log 2 - log|x| + log1p(-exp(-2|x|)), which never overflows.
    log_sinhc(inf) = inf.
    """
    ax = np.abs(np.asarray(x, dtype=float))
    small = ax < 0.5
    if np.all(small):
        # typical of knary's log_sinhc(t / (K - 1)) at large K: no tail work
        return _unwrap(x, _log_sinhc_series(ax))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = np.asarray(ax - _LOG2 - np.log(ax) + np.log1p(-np.exp(-2.0 * ax)))
    out[np.isinf(ax)] = np.inf
    if np.any(small):
        out[small] = _log_sinhc_series(ax[small])
    return _unwrap(x, out)


def _log_sinhc_series(a):
    p = a * a
    # sinh(x)/x - 1 = x^2/3! + x^4/5! + ...  (through x^14, exact at 0.5)
    s = p * (1 / 6 + p * (1 / 120 + p * (1 / 5040 + p * (1 / 362880
        + p * (1 / 39916800 + p * (1 / 6227020800 + p / 1307674368000))))))
    return np.log1p(s)


def langevin_pair(x):
    """(L(x), L'(x)) for the Langevin function L(x) = coth(x) - 1/x.

    L is odd, strictly increasing, with image (-1, 1); L'(x) = 1/x^2 - csch(x)^2
    is even and 1/3 at the origin. Series below 0.2; above it both share one
    e = exp(-2|x|) per argument: coth = (1 + e) / (1 - e) and
    csch^2 = 4e / (1 - e)^2. Large arguments underflow e to 0 and reach the
    limits L = 1, L' = 0 without overflow.
    """
    xs = np.asarray(x, dtype=float)
    ax = np.abs(xs)
    lang = np.empty_like(ax)
    deriv = np.empty_like(ax)

    small = ax < 0.2
    if np.any(small):
        a = ax[small]
        p = a * a
        # coth x - 1/x = sum 2^2n B_2n x^(2n-1) / (2n)! through B_14 (x^13),
        # and its derivative through x^12; the first terms left out are below
        # 1e-16 relative at the 0.2 cut-off
        lang[small] = a * (1 / 3 + p * (-1 / 45 + p * (2 / 945 + p * (-1 / 4725 + p * (
            2 / 93555 + p * (-1382 / 638512875 + p * (4 / 18243225)))))))
        deriv[small] = 1 / 3 + p * (-1 / 15 + p * (2 / 189 + p * (-1 / 675 + p * (
            2 / 10395 + p * (-1382 / 58046625 + p * (4 / 1403325))))))
    big = ~small
    if np.any(big):
        a = ax[big]
        e = np.exp(-2.0 * a)
        gap = 1.0 - e
        inv = 1.0 / a
        lang[big] = (1.0 + e) / gap - inv
        deriv[big] = inv * inv - 4.0 * e / (gap * gap)
    return _unwrap(x, lang * np.sign(xs)), _unwrap(x, deriv)


def csch_sq(x):
    """csch(x)^2 = 4e / (1 - e)^2 with e = exp(-2|x|), for x != 0; 0 at infinity."""
    e = np.exp(-2.0 * np.abs(x))
    return 4.0 * e / ((1.0 - e) * (1.0 - e))
