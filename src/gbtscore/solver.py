"""Score estimation by damped Newton on the strongly convex posterior loss.

The loss over scores theta is

    (1 / 2 sigma^2) sum_a theta_a^2
        + sum_{pairs} Phi(theta_a - theta_b) - r_ab (theta_a - theta_b)

with each unordered pair counted once in canonical orientation (the value is
unchanged under an orientation flip because Phi is even and r antisymmetric).
The quadratic term makes the loss (1/sigma^2)-strongly convex, which gives a
certified stopping rule: for any iterate x,

    || x - theta* ||_2 <= 2 sigma^2 || grad(x) ||_2

so the solver stops when that bound drops below the requested tolerance and
reports it as ``certified_error``. The Gaussian comparison model also admits
a direct linear solve, kept as an independent path for cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.linalg import LinearOperator, cg as sparse_cg

from .comparisons import AlternativeSet, ComparisonMatrix
from .errors import MismatchError, ParameterError, SolverError
from .rootlaws import RootLaw

__all__ = [
    "PriorConfig",
    "SolverOptions",
    "ScoreVector",
    "SolveReport",
    "loss",
    "gradient",
    "hessian",
    "map_estimate",
    "map_estimate_gaussian",
    "connected_components",
]

_DENSE_LIMIT = 2000  # Cholesky below, Jacobi-preconditioned CG above
_ARMIJO_C = 1e-4


@dataclass(frozen=True)
class PriorConfig:
    """Variance of the i.i.d. centered Gaussian prior on scores.

    ``sigma_sq=math.inf`` selects the unregularized variant (no quadratic
    term). That loss is only shift-invariant-convex, so the solver then
    rejects data with no finite minimiser (``_closed_group``), pins the zero-sum
    gauge, and stops on the plain gradient norm instead of the certified bound.
    """

    sigma_sq: float = 1.0

    def __post_init__(self):
        if not self.sigma_sq > 0:
            raise ParameterError(f"prior variance must be positive, got {self.sigma_sq!r}")

    @property
    def inv_sigma_sq(self) -> float:
        return 0.0 if math.isinf(self.sigma_sq) else 1.0 / self.sigma_sq

    @property
    def is_regularized(self) -> bool:
        return math.isfinite(self.sigma_sq)


@dataclass(frozen=True)
class SolverOptions:
    """Newton stopping rule and record keeping.

    ``tolerance`` is the certified l2 bound at which a regularized solve stops
    (the plain gradient norm when unregularized); ``max_iterations`` caps the
    Newton steps; ``track_iterates`` keeps every iterate on the report. The
    linear solver is chosen by size: dense Cholesky up to ``_DENSE_LIMIT``
    alternatives, Jacobi-preconditioned CG above.
    """

    tolerance: float = 1e-8
    max_iterations: int = 200
    track_iterates: bool = False

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ParameterError(f"tolerance must be positive, got {self.tolerance!r}")
        if self.max_iterations < 1:
            raise ParameterError("max_iterations must be at least 1")


@dataclass(frozen=True, eq=False)
class ScoreVector:
    """Dense per-alternative scores."""

    alternatives: AlternativeSet
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (len(self.alternatives),):
            raise MismatchError(
                f"expected {len(self.alternatives)} scores, got shape {values.shape}")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def value_of(self, a: str) -> float:
        return float(self.values[self.alternatives.index_of(a)])

    def difference(self, a: str, b: str) -> float:
        return self.value_of(a) - self.value_of(b)

    def __eq__(self, other):
        return (isinstance(other, ScoreVector)
                and self.alternatives == other.alternatives
                and np.array_equal(self.values, other.values))


@dataclass
class SolveReport:
    """Convergence record; ``certified_error = 2 sigma^2 ||grad||_2``."""

    iterations: int
    final_gradient_norm: float
    certified_error: float
    converged: bool
    objective: float
    iterates: list[np.ndarray] | None = None


def _theta_array(matrix: ComparisonMatrix, theta) -> np.ndarray:
    if isinstance(theta, ScoreVector):
        if theta.alternatives != matrix.alternatives:
            raise MismatchError("score vector is over a different alternative set")
        return np.asarray(theta.values, dtype=float)
    arr = np.asarray(theta, dtype=float)
    if arr.shape != (len(matrix.alternatives),):
        raise MismatchError(
            f"expected {len(matrix.alternatives)} scores, got shape {arr.shape}")
    return arr


def loss(law: RootLaw, prior: PriorConfig, matrix: ComparisonMatrix, theta) -> float:
    """Posterior loss at theta (up to the constant normalizer)."""
    t = _theta_array(matrix, theta)
    i, j, r = matrix.index_arrays
    diff = t[i] - t[j]
    quad = 0.5 * prior.inv_sigma_sq * float(t @ t)
    return quad + float(np.sum(law.cumulant(diff) - r * diff))


def gradient(law: RootLaw, prior: PriorConfig, matrix: ComparisonMatrix, theta) -> np.ndarray:
    """Component a: theta_a / sigma^2 + sum_b (Phi'(theta_ab) - r_ab)."""
    t = _theta_array(matrix, theta)
    i, j, _ = matrix.index_arrays
    return _gradient(prior, matrix.index_arrays, t, law.cumulant_prime(t[i] - t[j]))


def _gradient(prior, index_arrays, t, mean):
    """The gradient from the edge means Phi'(theta_i - theta_j), of one problem
    or of ``_chord_solver``'s stack of them."""
    i, j, r = index_arrays
    edge = mean - r
    return prior.inv_sigma_sq * t + np.bincount(i, edge, t.size) - np.bincount(j, edge, t.size)


def hessian(law: RootLaw, prior: PriorConfig, matrix: ComparisonMatrix, theta):
    """Sparse symmetric Hessian: 1/sigma^2 + sum_b Phi'' on the diagonal,
    -Phi'' on compared pairs. Strictly diagonally dominant for finite sigma^2."""
    t = _theta_array(matrix, theta)
    i, j, _ = matrix.index_arrays
    return _hessian_matrix(prior, matrix, law.cumulant_double_prime(t[i] - t[j]), dense=False)


def _hessian_matrix(prior, matrix, weights, dense):
    """1/sigma^2 plus the incident pair weights on the diagonal, -weight on
    each compared pair; a dense array when ``dense``, else CSR."""
    a = len(matrix.alternatives)
    i, j, _ = matrix.index_arrays
    diag = prior.inv_sigma_sq + np.bincount(i, weights, a) + np.bincount(j, weights, a)
    if dense:
        # pairs are unique with i < j, so every key i*a + j is hit once
        h = np.bincount(i * a + j, -weights, a * a).reshape(a, a)
        h += h.T
        h.flat[::a + 1] = diag
        return h
    rows = np.concatenate([np.arange(a), i, j])
    cols = np.concatenate([np.arange(a), j, i])
    vals = np.concatenate([diag, -weights, -weights])
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(a, a))


def connected_components(matrix: ComparisonMatrix) -> list[list[int]]:
    """Index groups of the comparison graph, largest first (ties by lowest
    index), each ascending."""
    # imported on first use: csgraph's extension modules add ~1 MB to every
    # process, and only the regularization experiment needs this function
    from scipy.sparse.csgraph import connected_components as label_components

    a = len(matrix.alternatives)
    i, j, _ = matrix.index_arrays
    graph = scipy.sparse.coo_matrix((np.ones(i.size), (i, j)), shape=(a, a))
    _, labels = label_components(graph, directed=False)
    order = np.argsort(labels, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
    return sorted((g.tolist() for g in groups), key=lambda g: (-len(g), g[0]))


def _closed_group(law, prior, matrix):
    """None when finite scores exist (always under a finite prior), else the
    ascending indices of a group that won every comparison it has with the
    rest at ``+r_max``. Ford's condition: with an arc x -> y for each compared
    pair unless x beat y at ``+r_max``, such a group is a strongly connected
    component that no arc leaves."""
    if prior.is_regularized:
        return None
    from scipy.sparse.csgraph import connected_components as label_components

    i, j, r = matrix.index_arrays
    forward, backward = r < law.r_max, r > -law.r_max
    tail = np.concatenate([i[forward], j[backward]])
    head = np.concatenate([j[forward], i[backward]])
    a = len(matrix.alternatives)
    graph = scipy.sparse.coo_matrix((np.ones(tail.size), (tail, head)), shape=(a, a))
    count, labels = label_components(graph, connection="strong")
    if count == 1:
        return None
    exits = np.zeros(count, dtype=bool)
    exits[labels[tail][labels[tail] != labels[head]]] = True
    return np.flatnonzero(labels == labels[np.argmin(exits[labels])])


def _stopping_rule(prior, norm, tolerance):
    """Certified error ``2 sigma^2 ||g||`` (inf without a prior) at gradient
    norm(s) ``norm``, and whether it, or ``||g||`` without a prior, is <= tolerance."""
    if not prior.is_regularized:  # [()] makes a 0-d array a scalar
        return np.full(np.shape(norm), math.inf)[()], norm <= tolerance
    err = 2.0 * prior.sigma_sq * norm
    return err, err <= tolerance


def _newton_solver(prior, matrix, weights, rtol=1e-10):
    """``solve(rhs)`` for H x = rhs, rhs of shape (A,) or (A, K), H the Hessian
    for pair ``weights``, built, gauged and factored once: dense Cholesky up to
    ``_DENSE_LIMIT`` alternatives, CG column by column to residual ``rtol`` above."""
    a = len(matrix.alternatives)
    use_dense = a <= _DENSE_LIMIT
    # the likelihood Hessian annihilates constants; without a prior, pin the
    # gauge with a rank-one term (the gradient is orthogonal to constants, so
    # the Newton step is unchanged on the zero-sum subspace)
    gauge = not prior.is_regularized

    h = _hessian_matrix(prior, matrix, weights, use_dense)
    if use_dense:
        if gauge:
            h += h.diagonal().mean() / a
        try:
            factor = scipy.linalg.cho_factor(h, check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            raise SolverError(f"Cholesky factorization failed: {exc}") from exc
        return lambda rhs: scipy.linalg.cho_solve(factor, rhs, check_finite=False)

    diag = h.diagonal()
    scale = diag.mean() / a
    if gauge:
        op = LinearOperator((a, a), matvec=lambda x: h @ x + scale * np.sum(x))
    else:
        op = h
    pre = LinearOperator((a, a), matvec=lambda x: x / diag)

    def solve(rhs):
        if rhs.ndim == 2:
            return np.column_stack([solve(col) for col in rhs.T])
        sol, info = sparse_cg(op, rhs, rtol=rtol, atol=0.0, M=pre, maxiter=50 * a)
        if info != 0:
            raise SolverError(f"conjugate gradient did not converge (info={info})")
        return sol

    return solve


def map_estimate(law: RootLaw, prior: PriorConfig, matrix: ComparisonMatrix,
                 options: SolverOptions | None = None,
                 initial=None) -> tuple[ScoreVector, SolveReport]:
    """Minimize the posterior loss; returns the scores and a certified report.

    Newton starts from ``initial`` (a ScoreVector or an array over the
    matrix's alternatives, finite) when given, else from zero; under
    ``sigma_sq=inf`` the start is re-centred to zero sum. The stopping rule
    and the certificate use the true gradient at the returned point, so a
    start changes the Newton path, never what the report certifies.
    Deterministic in its inputs. Raises SolverError on data with no finite
    scores, and with the partial report on non-convergence or on NaN loss.
    """
    options = options or SolverOptions()
    if matrix.num_pairs < 1:
        raise ParameterError("cannot estimate scores from an empty comparison set")
    group = _closed_group(law, prior, matrix)
    if group is not None:
        ids = [matrix.alternatives.ids[k] for k in group[:5]] + ["..."] * (group.size > 5)
        raise SolverError(f"no finite scores under the unregularized prior: the group {ids} "
                          f"({group.size} of {len(matrix.alternatives)} alternatives) won "
                          "every comparison it has with the rest at +r_max")

    i, j, _ = matrix.index_arrays
    if initial is None:
        t = np.zeros(len(matrix.alternatives))
    else:
        t = _theta_array(matrix, initial)
        if not np.all(np.isfinite(t)):
            raise ParameterError("initial scores must be finite")
        if not prior.is_regularized:
            t = t - t.mean()
    current = loss(law, prior, matrix, t)
    trail: list[np.ndarray] | None = [] if options.track_iterates else None
    iterations = 0

    def fail(message: str) -> SolverError:
        report = SolveReport(iterations, gn, err, False, current, trail)
        return SolverError(message, report=report)

    while True:
        # one tilted_moments pass per accepted iterate feeds the gradient and
        # the Hessian; the line search's trial points need Phi alone (loss)
        mean, var = law.tilted_moments(t[i] - t[j])
        g = _gradient(prior, matrix.index_arrays, t, mean)
        gn = float(np.linalg.norm(g))
        if trail is not None:
            trail.append(t.copy())
        err, done = _stopping_rule(prior, gn, options.tolerance)
        if done:
            vec = ScoreVector(matrix.alternatives, t)
            return vec, SolveReport(iterations, gn, err, True, current, trail)
        if iterations >= options.max_iterations:
            raise fail(f"no convergence after {iterations} iterations "
                       f"(gradient norm {gn:.3e})")

        step = _newton_solver(prior, matrix, var)(-g)
        descent = float(g @ step)
        if not descent < 0:
            raise fail("Newton direction is not a descent direction")

        # Armijo backtracking from the full step; once the predicted decrease
        # falls below the loss's floating-point resolution the test carries no
        # information, so the full Newton step is taken (the strongly convex
        # pure-Newton regime) and the gradient-norm stop takes over
        scale = 1.0
        while True:
            cand = t + scale * step
            if not prior.is_regularized:
                cand -= cand.mean()
            value = loss(law, prior, matrix, cand)
            if math.isnan(value):
                raise fail("loss evaluated to NaN")
            below_resolution = current + _ARMIJO_C * scale * descent == current
            if (below_resolution and np.isfinite(value)) or \
                    value <= current + _ARMIJO_C * scale * descent:
                break
            scale *= 0.5
            if scale < 1e-18:
                raise fail("line search failed to make progress")
        t, current = cand, value
        iterations += 1


def _chord_solver(law, prior, matrix, base, options):
    """``resolve(edited)``: each edited matrix's (scores, certified error) by
    chord (simplified) Newton on one factor of ``matrix``'s Hessian at its
    solution ``base`` (an array). The edited problems run stacked as one over
    K * A alternatives (row k's indices offset by k * A), each starting from
    ``base`` and stopping on ``_stopping_rule`` with its own gradient; a row
    whose gradient norm turns non-finite, fails to halve in one step or
    outlasts ``max_iterations`` is re-solved by ``map_estimate`` from ``base``."""
    options = options or SolverOptions()
    i, j, _ = matrix.index_arrays
    solve = _newton_solver(prior, matrix, law.tilted_moments(base[i] - base[j])[1])

    def resolve(edited):
        results = [None] * len(edited)
        rows = np.arange(len(edited))
        t = np.tile(base, (rows.size, 1))
        last = np.full(rows.size, math.inf)
        stacked = None
        for iteration in range(options.max_iterations + 1):
            if stacked is None:  # the live rows' edges, restacked only when rows finish
                stacked = [np.concatenate(x) for x in zip(*(
                    (si + k * base.size, sj + k * base.size, sr)
                    for k, (si, sj, sr) in enumerate(edited[n].index_arrays for n in rows)))]
            flat = t.ravel()
            mean = law.cumulant_prime(flat[stacked[0]] - flat[stacked[1]])
            g = _gradient(prior, stacked, flat, mean).reshape(rows.size, base.size)
            norm = np.linalg.norm(g, axis=1)
            err, done = _stopping_rule(prior, norm, options.tolerance)
            going = ~done & np.isfinite(norm) & (norm <= 0.5 * last) \
                & (iteration < options.max_iterations)
            for k in np.flatnonzero(~going):
                if done[k]:
                    results[rows[k]] = (t[k], float(err[k]))
                else:
                    vec, rep = map_estimate(law, prior, edited[rows[k]], options, initial=base)
                    results[rows[k]] = (vec.values, rep.certified_error)
            if not going.any():
                return results
            stacked = stacked if going.all() else None
            rows, t, g, last = rows[going], t[going], g[going], norm[going]
            t = t + solve(-g.T).T

    return resolve


def map_estimate_gaussian(sigma0_sq: float, prior: PriorConfig,
                          matrix: ComparisonMatrix) -> ScoreVector:
    """Closed-form scores for the Gaussian comparison model.

    Solves (D - sigma0^2 Adj) theta = rbar with D the diagonal
    1/sigma^2 + sigma0^2 * degree and rbar the oriented row sums. The system
    is strictly diagonally dominant, hence always solvable.
    """
    if not sigma0_sq > 0:
        raise ParameterError(f"sigma0_sq must be positive, got {sigma0_sq!r}")
    if not prior.is_regularized:
        raise ParameterError("the closed-form Gaussian path requires a finite prior variance")
    if matrix.num_pairs < 1:
        raise ParameterError("cannot estimate scores from an empty comparison set")
    a = len(matrix.alternatives)
    i, j, r = matrix.index_arrays
    rbar = np.bincount(i, r, a) - np.bincount(j, r, a)
    # the system matrix is the Newton Hessian with every pair weight sigma0^2
    values = _newton_solver(prior, matrix, np.full(i.size, sigma0_sq), rtol=1e-12)(rbar)
    return ScoreVector(matrix.alternatives, values)
