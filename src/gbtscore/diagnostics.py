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

The Hessian depends on the scores only, not on the comparisons: at the base
solution a changed value keeps the base Hessian, and an added or removed pair
moves it by one pair weight. Both drivers therefore factor that Hessian once
per base and pass their edited problems, in blocks, to the solver's one chord
(simplified) Newton engine, which serves every prior and size. For the
Gaussian model the first chord step of a changed value is the exact answer.
A row that stalls is re-solved by Newton from the base solution, which the
influence bound puts within ``4 sqrt(2) r_max sigma^2`` per edit of a bounded
model's edited optimum. Every edited problem stops on, and reports,
``2 sigma^2 ||grad||`` at its own returned point, with the gradient taken on
the edited data, however it got there. The scaling probes stay cold, since
``lam * R`` has no bounded distance from the base.

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
from .errors import EditError, ParameterError, SolverError
from .rootlaws import RootLaw
from .sim import default_alternatives, erdos_renyi_graph, synthesize_comparisons
from .solver import (PriorConfig, ScoreVector, SolverOptions, _chord_solver, _closed_group,
                     map_estimate)

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
# edge values per chord block of either driver: bigger ones raise memory, gain little
_CHORD_BLOCK = 8192
# random edits of a base skipped in a row before the probes give up on it
_MAX_SKIPS = 1000


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
    bumped = matrix._splice(pos, value + delta if forward else -(value + delta))
    new_vec, new_rep = map_estimate(law, prior, bumped, options, initial=base[0])
    a, b = map(matrix.alternatives.index_of, pair)
    return _step_result(matrix, base, a, b, delta, new_vec.values, new_rep.certified_error)


def monotonicity_sweep(law: RootLaw, prior: PriorConfig, matrix: ComparisonMatrix,
                       options: SolverOptions | None = None) -> list[MonotoneStepResult]:
    """Probe every admissible single-pair increase of the matrix.

    The base problem is solved once and shared. Entries already at the top
    of a bounded grid, or within 1e-6 of a bounded supremum, admit no
    increase and are skipped, as is, without a prior, a step to ``+r_max``
    that leaves no finite scores. Poisson values step by one, continuous ones
    by 0.25 (at most halfway to the supremum). The raised problems run chord
    Newton on the base factor, in blocks of about ``_CHORD_BLOCK`` edge values.
    """
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
    resolve = _chord_solver(law, prior, matrix, base[0].values, options)
    block = max(1, _CHORD_BLOCK // r.size)
    results = []
    for lo in range(0, len(steps), block):
        chunk = steps[lo:lo + block]
        raised = [matrix._splice(pos, float(r[pos]) + delta) for pos, delta in chunk]
        results += [_step_result(matrix, base, i[pos], j[pos], delta, *solved)
                    for (pos, delta), solved in zip(chunk, resolve(raised))]
    return results


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


def _random_probe(law: RootLaw, prior: PriorConfig, base: ComparisonMatrix, edits: int, rng):
    """``edits`` random edits of base (kinds and pairs joined, edit distance, edited
    matrix), drawn again if they cancel out or leave no finite scores."""
    for _ in range(_MAX_SKIPS):
        edited, kinds, pairs = base, [], []
        for _ in range(edits):
            kind, pair, edited = _random_edit(law, edited, rng)
            kinds.append(kind)
            pairs.append(pair)
        dist = base.edit_distance(edited)
        if dist and _closed_group(law, prior, edited) is None:
            return "+".join(kinds), ";".join(pairs), dist, edited
    raise SolverError(f"no edit of the base keeps finite scores ({_MAX_SKIPS} draws skipped)")


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
    Solver failures propagate, as does a base no edit of which keeps finite
    scores (SolverError). Callers decide whether an observed ratio at or over
    the bound, expected strictly under it for bounded models, is fatal.
    """
    rng = np.random.default_rng(config.seed)
    bound = resilience_bound(law, prior)
    per_base = config.n_probes if base is not None else max(1, config.n_probes // config.n_bases)
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

    done = 0
    while done < config.n_probes:
        if done:
            base = _random_base(law, prior, rng)
        base_vec, _ = map_estimate(law, prior, base, options)
        resolve = _chord_solver(law, prior, base, base_vec.values, options)
        stop = min(config.n_probes, done + per_base)
        while done < stop:
            drawn = [_random_probe(law, prior, base, config.edits_per_probe, rng)
                     for _ in range(min(stop - done, max(1, _CHORD_BLOCK // base.num_pairs)))]
            for (kind, pairs, dist, _), (values, _) in zip(drawn, resolve([d[3] for d in drawn])):
                change = float(np.linalg.norm(values - base_vec.values))
                probe.records.append(ProbeRecord(kind, pairs, dist, change, change / dist, bound))
                probe.observed_ratio = max(probe.observed_ratio, change / dist)
            done += len(drawn)
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
