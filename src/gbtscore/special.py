"""Numerically stable hyperbolic helpers.

The cumulant functions of the bounded comparison models reduce to a handful
of scalar functions (log(sinh x / x), the Langevin function, their
derivatives) that are 0/0 at the origin and overflow-prone for large
arguments. Each helper here evaluates a truncated Taylor series near zero
and a direct formula beyond it, written either with an asymptotic tail or in
terms of exp(-2|x|), which underflows instead of overflowing. All accept
scalars or ndarrays elementwise.
"""

from __future__ import annotations

import numpy as np

_LOG2 = float(np.log(2.0))


def _dispatch(x, pieces):
    """Evaluate (mask_fn, value_fn) pieces on |x| and reassemble.

    ``pieces`` are tried in order on the absolute value; the first matching
    mask wins. Returns an array shaped like x (caller unwraps scalars).
    """
    ax = np.abs(np.asarray(x, dtype=float))
    out = np.empty_like(ax)
    remaining = np.ones(ax.shape, dtype=bool)
    for mask_fn, value_fn in pieces:
        m = remaining & mask_fn(ax)
        if np.any(m):
            out[m] = value_fn(ax[m])
        remaining &= ~m
    return out


def _unwrap(x, out):
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(out)
    return out


def log_cosh(x):
    """log(cosh x), exact at 0 and overflow-free: logaddexp(x, -x) - log 2."""
    return np.logaddexp(x, -x) - _LOG2


def log_sinhc(x):
    """log(sinh x / x); even, equals 0 at the origin.

    Series below 0.5, direct formula to 30, then the asymptotic form
    |x| - log(2|x|) + log1p(-exp(-2|x|)) which never overflows.
    """

    def series(a):
        p = a * a
        # sinh(x)/x - 1 = x^2/3! + x^4/5! + ...  (through x^14, exact at 0.5)
        s = p * (1 / 6 + p * (1 / 120 + p * (1 / 5040 + p * (1 / 362880
            + p * (1 / 39916800 + p * (1 / 6227020800 + p / 1307674368000))))))
        return np.log1p(s)

    out = _dispatch(x, [
        (lambda a: a < 0.5, series),
        (lambda a: a < 30.0, lambda a: np.log(np.sinh(a) / a)),
        (lambda a: np.isfinite(a), lambda a: a - np.log(2.0 * a) + np.log1p(-np.exp(-2.0 * a))),
        (lambda a: ~np.isfinite(a), lambda a: a),
    ])
    return _unwrap(x, out)


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
        lang[small] = a * (1 / 3 + p * (-1 / 45 + p * (2 / 945 + p * (-1 / 4725 + p * (2 / 93555)))))
        deriv[small] = 1 / 3 + p * (-1 / 15 + p * (2 / 189 + p * (-1 / 675 + p * (2 / 10395))))
    big = ~small
    if np.any(big):
        a = ax[big]
        e = np.exp(-2.0 * a)
        gap = 1.0 - e
        inv = 1.0 / a
        lang[big] = (1.0 + e) / gap - inv
        deriv[big] = inv * inv - 4.0 * e / (gap * gap)
    return _unwrap(x, lang * np.sign(xs)), _unwrap(x, deriv)
