"""Executable diagnostics for the estimator's structural guarantees.

Three facts about the score estimator are checked empirically here:

* monotonicity: raising any single comparison strictly raises the winner's
  score and strictly lowers the loser's;
* resilience: for bounded comparison models, one elementary edit moves the
  full score vector by at most ``4 sqrt(2) r_max sigma^2`` in l2 norm, and
  k edits by at most k times that (models with unbounded comparisons have no
  such constant, which the Gaussian scaling probe demonstrates);
* the neutral comparison: adding a new comparison with value
  ``Phi'(theta_a - theta_b)`` leaves the scores unchanged, larger values
  raise the winner, smaller ones lower it.

The Hessian depends on the scores only, not on the comparisons, so at the
base solution every single-entry edit has the base Hessian. The
monotonicity sweep therefore factors that Hessian once and runs chord
(simplified) Newton on the edited problems in blocks, each block one
stacked problem: one moments pass and one multi-right-hand-side solve per
iteration. For the Gaussian model the Hessian is constant and the first
chord step is the explicit ``M^{-1} rbar`` answer. A row whose gradient norm
turns non-finite, fails to halve in one step, or outlasts
``max_iterations`` is re-solved by Newton instead. This one engine serves
every prior and size (CG solves each row above the dense-solver limit).

Every edited re-solve, and the resilience probes, start Newton from the base
solution: the influence bound puts a bounded model's edited optimum within
``4 sqrt(2) r_max sigma^2`` per edit of that start. The certificate is the
same on every path: each edited problem stops on, and reports,
``2 sigma^2 ||grad||`` at its own returned point, with the gradient taken on
the edited data, wherever it started and however it stepped. The scaling
probes stay cold, since ``lam * R`` has no bounded distance from the base.

Strictness below numerical resolution cannot be decided, so monotone checks
are certified only when the observed margin exceeds ten times the combined
certified solver error of the two solves; smaller margins are reported as
inconclusive rather than failed.

The drivers name an entry by its sorted position in the matrix's
``index_arrays`` and read scores by alternative index; ids appear only in
what they report. Without a prior, data with no finite scores is never solved:
random bases are redrawn, resilience probes skip such an edit, as they skip
edits that cancel out, and the sweep skips such a step to ``+r_max``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .comparisons import ComparisonMatrix, _write_csv
from .errors import EditError, ParameterError
from .rootlaws import RootLaw
from .sim import default_alternatives, erdos_renyi_graph, synthesize_comparisons
from .solver import (PriorConfig, ScoreVector, SolverOptions, _closed_group, _gradient,
                     _newton_solver, _stopping_rule, map_estimate)

__all__ = [
    "MonotoneStepResult",
    "check_monotone_step",
    "monotonicity_sweep",
    "ProbeRecord",
    "ResilienceProbeConfig",
    "ResilienceProbe",
    "measure_resilience",
    "write_probe_csv",
    "neutral_comparison",
    "resilience_bound",
]

RESILIENCE_COEFFICIENT = 4.0 * math.sqrt(2.0)
# edge values per block of the batched monotonicity sweep: bigger blocks
# raise peak memory and gain little
_SWEEP_BLOCK = 8192


def resilience_bound(law: RootLaw, prior: PriorConfig) -> float:
    """4 sqrt(2) r_max sigma^2, or +inf when the comparison domain is unbounded."""
    if not law.is_bounded or not prior.is_regularized:
        return math.inf
    return RESILIENCE_COEFFICIENT * law.r_max * prior.sigma_sq


# ------------------------------------------------------------------ monotonicity

@dataclass(frozen=True)
class MonotoneStepResult:
    pair: tuple[str, str]
    delta: float
    margin: float          # change of the raised side's score
    margin_other: float    # change of the opposite side's score (negated expectation)
    certified_error: float  # summed certified error of both solves
    strictly_increased: bool
    conclusive: bool

    @property
    def passed(self) -> bool:
        return self.strictly_increased and self.conclusive


def _next_step(law: RootLaw, value: float, step: float) -> float | None:
    """The increase that takes value one admissible step up, or None at the top.

    Finite grids step to the next point and other discrete laws (Poisson) by
    one; a continuous value moves by ``step`` but at most halfway to the
    supremum, and within 1e-6 of it admits no increase.
    """
    pts = law.support_points()
    if pts is not None:
        above = pts[pts > value + 1e-12]
        return float(above[0] - value) if above.size else None
    if law.support_kind == "discrete":
        return 1.0
    room = law.r_max - value
    return None if room < 1e-6 else min(step, 0.5 * room)


def _step_result(matrix, base, a, b, delta, values, error):
    """The result of raising the comparison of a over b by delta, from the
    edited solve's scores and certified error."""
    base_vec, base_rep = base
    err = base_rep.certified_error + error
    if not math.isfinite(err):
        err = 0.0  # unregularized solves carry no certified bound
    margin = float(values[a] - base_vec.values[a])
    margin_other = float(values[b] - base_vec.values[b])
    ids = matrix.alternatives.ids
    return MonotoneStepResult(
        pair=(ids[a], ids[b]), delta=delta, margin=margin, margin_other=margin_other,
        certified_error=err,
        strictly_increased=margin > 10.0 * err,
        conclusive=abs(margin) > 10.0 * err)


def _monotone_step(law, prior, matrix, base, pos, forward, delta, options):
    """Re-solve with r_ij (r_ji unless forward) at sorted position pos raised by delta."""
    i, j, r = matrix.index_arrays
    a, b, sign = (i[pos], j[pos], 1.0) if forward else (j[pos], i[pos], -1.0)
    bumped = matrix._splice(pos, sign * (sign * float(r[pos]) + delta))
    new_vec, new_rep = map_estimate(law, prior, bumped, options, initial=base[0])
    return _step_result(matrix, base, a, b, delta, new_vec.values, new_rep.certified_error)


def check_monotone_step(law: RootLaw, prior: PriorConfig, matrix: ComparisonMatrix,
                        pair: tuple[str, str], delta: float,
                        options: SolverOptions | None = None) -> MonotoneStepResult:
    """Raise r_ab by delta, re-solve, and report how theta_a moved.

    For discrete models delta must step exactly to the next support point
    (the next integer for Poisson); continuous models must stay in the support.
    """
    value = matrix.value(*pair)  # raises if the pair is absent
    if not delta > 0:
        raise EditError(f"step must be positive, got {delta!r}")
    if law.support_kind == "discrete":
        step = _next_step(law, value, delta)
        if step is None:
            raise EditError(f"value {value!r} has no next support point")
        if abs(delta - step) > 1e-9:
            raise EditError(
                f"discrete step from {value!r} must reach the next support point "
                f"{value + step!r}, got {value + delta!r}")
    elif not law.contains(value + delta):
        raise EditError(f"step leaves the support: {value!r} + {delta!r} > {law.r_max}")
    pos, _, forward = matrix._locate(*pair)
    base = map_estimate(law, prior, matrix, options)
    return _monotone_step(law, prior, matrix, base, pos, forward, delta, options)


def monotonicity_sweep(law: RootLaw, prior: PriorConfig, matrix: ComparisonMatrix,
                       options: SolverOptions | None = None) -> list[MonotoneStepResult]:
    """Probe every admissible single-pair increase of the matrix.

    The base problem is solved once and shared. Entries already at the top
    of a bounded grid, or within 1e-6 of a bounded supremum, admit no
    increase and are skipped, as is, without a prior, a step to ``+r_max``
    that leaves no finite scores. Poisson values step by one, continuous ones
    by 0.25 (at most halfway to the supremum). The raised problems run chord
    Newton on the base factor, in blocks of about ``_SWEEP_BLOCK`` edge values.
    """
    options = options or SolverOptions()
    base = map_estimate(law, prior, matrix, options)
    i, j, r = matrix.index_arrays
    steps = []
    for pos, value in enumerate(r.tolist()):
        delta = _next_step(law, value, 0.25)
        if delta is not None:
            matrix._check_value(pos, value + delta)
            if prior.is_regularized or value + delta < law.r_max or \
                    _closed_group(law, prior, matrix._splice(pos, value + delta)) is None:
                steps.append((pos, delta))
    t0 = base[0].values
    solve = _newton_solver(prior, matrix, law.tilted_moments(t0[i] - t0[j])[1])
    block = max(1, _SWEEP_BLOCK // r.size)
    return [res for lo in range(0, len(steps), block)
            for res in _chord_block(law, prior, matrix, base, solve, steps[lo:lo + block],
                                    options)]


def _chord_block(law, prior, matrix, base, solve, steps, options):
    """The results of ``steps``, (sorted position, increase) pairs, by chord Newton.

    Each row of the block is the base problem with one entry raised. Every
    row starts from the base solution and steps with ``solve``, the base
    Hessian's one factor, which is each edited Hessian at that start. A row
    stops on the solver's stopping rule, the gradient taken on the edited
    data. A row whose gradient norm turns non-finite, fails to halve in one
    step or still misses the tolerance after ``max_iterations`` steps is
    re-solved by Newton instead.
    """
    i, j, r = matrix.index_arrays
    n_alt, n_edge = len(matrix.alternatives), r.size
    results = [None] * len(steps)
    rows = np.arange(len(steps))
    pos, deltas = zip(*steps)
    raised = np.tile(r, (rows.size, 1))
    raised[rows, pos] += deltas
    # the block as one problem over rows * A alternatives, row k's offset by k * A
    offsets = n_alt * np.arange(rows.size)[:, None]
    stacked_i, stacked_j = (i + offsets).ravel(), (j + offsets).ravel()
    t = np.tile(base[0].values, (rows.size, 1))
    last = np.full(rows.size, math.inf)
    for iteration in range(options.max_iterations + 1):
        size = rows.size * n_edge
        mean = law.cumulant_prime(t[:, i] - t[:, j])
        g = _gradient(prior, (stacked_i[:size], stacked_j[:size], raised.ravel()),
                      t.ravel(), mean.ravel()).reshape(rows.size, n_alt)
        norm = np.linalg.norm(g, axis=1)
        err, done = _stopping_rule(prior, norm, options.tolerance)
        going = ~done & np.isfinite(norm) & (norm <= 0.5 * last) \
            & (iteration < options.max_iterations)
        for k in np.flatnonzero(~going):
            p, delta = steps[rows[k]]
            results[rows[k]] = (
                _step_result(matrix, base, i[p], j[p], delta, t[k], float(err[k])) if done[k]
                else _monotone_step(law, prior, matrix, base, p, True, delta, options))
        if not going.any():
            return results
        rows, raised, t, g, last = rows[going], raised[going], t[going], g[going], norm[going]
        t = t + solve(-g.T).T


# ------------------------------------------------------------------ resilience

@dataclass(frozen=True)
class ProbeRecord:
    edit_kind: str
    pair: str
    delta_distance: int
    l2_change: float
    ratio: float
    bound: float


@dataclass(frozen=True)
class ResilienceProbeConfig:
    """Randomized probing plan for the resilience bound.

    ``edits_per_probe`` > 1 exercises the multi-edit bound; when
    ``scaling_factors`` is set the probes are global rescalings R -> lam R
    instead of random edits (the stress case for linear estimators).
    """

    n_probes: int = 200
    edits_per_probe: int = 1
    n_bases: int = 10
    seed: int = 0
    scaling_factors: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.n_probes < 1 or self.edits_per_probe < 1 or self.n_bases < 1:
            raise ParameterError("probe counts must be positive")


@dataclass
class ResilienceProbe:
    records: list[ProbeRecord] = field(default_factory=list)
    observed_ratio: float = 0.0
    bound: float = math.inf


def _random_value(law: RootLaw, rng) -> float:
    pts = law.support_points()
    if pts is not None:
        return float(pts[rng.integers(pts.size)])
    if law.is_bounded:
        return float(rng.uniform(-1.0, 1.0))
    # unbounded support (Gaussian, Poisson): draw from the untilted law itself
    return float(law.sample_comparison(0.0, rng))


def _random_edit(law: RootLaw, matrix: ComparisonMatrix, rng):
    """A random change, add or remove: its kind, its pair as ``"a|b"`` and the
    edited matrix. The k-th absent pair in row-major ``i < j`` order follows the
    present pairs with at most k absent pairs ranked below them, so no A x A
    table is needed."""
    ids = matrix.alternatives.ids
    n = len(ids)
    i, j, r = matrix.index_arrays
    n_absent = n * (n - 1) // 2 - i.size
    kinds = ["change"]
    if n_absent:
        kinds.append("add")
    if i.size > 1:
        kinds.append("remove")
    kind = kinds[rng.integers(len(kinds))]
    if kind == "add":
        k = int(rng.integers(n_absent))
        row_start = np.arange(n) * (2 * n - 1 - np.arange(n)) // 2  # rank of (i, i + 1)
        ranks = row_start[i] + j - i - 1
        rank = k + int(np.searchsorted(ranks - np.arange(i.size), k, side="right"))
        a = int(np.searchsorted(row_start, rank, side="right")) - 1
        b = a + 1 + rank - int(row_start[a])
        return kind, f"{ids[a]}|{ids[b]}", matrix._splice(rank - k, _random_value(law, rng),
                                                          (a, b))
    pos = int(rng.integers(i.size))
    pair = f"{ids[i[pos]]}|{ids[j[pos]]}"
    if kind == "remove":
        return kind, pair, matrix._splice(pos)
    while True:
        value = _random_value(law, rng)
        if value != r[pos]:
            return kind, pair, matrix._splice(pos, value)


def _random_base(law: RootLaw, prior: PriorConfig, rng) -> ComparisonMatrix:
    n = 10
    while True:
        pairs = erdos_renyi_graph(n, 0.6, rng)
        if not pairs[0].size:
            continue
        truth = ScoreVector(default_alternatives(n), rng.normal(size=n))
        base = synthesize_comparisons(law, truth, pairs, rng)
        if _closed_group(law, prior, base) is None:
            return base


def measure_resilience(law: RootLaw, prior: PriorConfig,
                       config: ResilienceProbeConfig,
                       options: SolverOptions | None = None,
                       base: ComparisonMatrix | None = None) -> ResilienceProbe:
    """Solve base/edited pairs and report max ||dTheta||_2 / edit distance.

    Probes edit randomly generated bases, or the supplied ``base`` dataset.
    Solver failures propagate. For bounded models the observed ratio is
    expected to stay strictly under the bound; callers decide whether to
    treat an excess as fatal.
    """
    rng = np.random.default_rng(config.seed)
    bound = resilience_bound(law, prior)
    fixed_base = base is not None
    if base is None:
        base = _random_base(law, prior, rng)
    probe = ResilienceProbe(bound=bound)

    if config.scaling_factors:
        base_vec, _ = map_estimate(law, prior, base, options)
        i, j, r = base.index_arrays
        for lam in config.scaling_factors:
            scaled = ComparisonMatrix(base.alternatives, law=base.law, indices=(i, j, lam * r))
            dist = base.edit_distance(scaled)
            if dist == 0:
                continue
            scaled_vec, _ = map_estimate(law, prior, scaled, options)
            change = float(np.linalg.norm(scaled_vec.values - base_vec.values))
            ratio = change / dist
            probe.records.append(ProbeRecord("scale", "*", dist, change, ratio, bound))
            probe.observed_ratio = max(probe.observed_ratio, ratio)
        return probe

    per_base = max(1, config.n_probes // config.n_bases)
    done = 0
    base_vec, _ = map_estimate(law, prior, base, options)
    while done < config.n_probes:
        edited = base
        kinds, pairs = [], []
        for _ in range(config.edits_per_probe):
            kind, pair, edited = _random_edit(law, edited, rng)
            kinds.append(kind)
            pairs.append(pair)
        dist = base.edit_distance(edited)
        if dist == 0 or _closed_group(law, prior, edited) is not None:
            continue
        edited_vec, _ = map_estimate(law, prior, edited, options, initial=base_vec)
        change = float(np.linalg.norm(edited_vec.values - base_vec.values))
        ratio = change / dist
        probe.records.append(ProbeRecord("+".join(kinds), ";".join(pairs), dist, change,
                                         ratio, bound))
        probe.observed_ratio = max(probe.observed_ratio, ratio)
        done += 1
        if not fixed_base and done % per_base == 0 and done < config.n_probes:
            base = _random_base(law, prior, rng)
            base_vec, _ = map_estimate(law, prior, base, options)
    return probe


def write_probe_csv(probe: ResilienceProbe, path) -> None:
    _write_csv(path, ["edit_kind", "pair", "delta_distance", "l2_change", "ratio", "bound"],
               ((rec.edit_kind, rec.pair, rec.delta_distance, repr(rec.l2_change),
                 repr(rec.ratio), repr(rec.bound)) for rec in probe.records))


# ------------------------------------------------------------------ new comparisons

def neutral_comparison(law: RootLaw, prior: PriorConfig, matrix: ComparisonMatrix,
                       pair: tuple[str, str],
                       options: SolverOptions | None = None) -> float:
    """The unique value whose addition as r_ab leaves the scores unchanged.

    Equals Phi' of the solved score difference. Any larger added value
    strictly raises a's score, any smaller one strictly lowers it. For
    discrete models the value need not be an attainable comparison.
    """
    a, b = pair
    if matrix.has_pair(a, b):
        raise EditError(f"pair ({a!r}, {b!r}) is already compared")
    solved, _ = map_estimate(law, prior, matrix, options)
    return float(law.cumulant_prime(solved.difference(a, b)))
