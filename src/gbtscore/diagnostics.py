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

Every edited re-solve starts Newton from the base solution. For bounded
models the influence bound puts the edited optimum within
``4 sqrt(2) r_max sigma^2`` per edit of that start, and the first warm
Newton step is the one-step (influence-function) prediction of the edit's
effect, so a re-solve takes fewer steps than one from zero. The certificate
is unchanged: each solve stops on, and reports, ``2 sigma^2 ||grad||`` at its
own returned point, wherever it started. The scaling probes stay cold, since
``lam * R`` has no bounded distance from the base.

Strictness below numerical resolution cannot be decided, so monotone checks
are certified only when the observed margin exceeds ten times the combined
certified solver error of the two solves; smaller margins are reported as
inconclusive rather than failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .comparisons import ComparisonEdit, ComparisonMatrix, EditKind, _write_csv
from .errors import EditError, ParameterError
from .rootlaws import Family, RootLaw
from .sim import default_alternatives, erdos_renyi_graph, synthesize_comparisons
from .solver import PriorConfig, ScoreVector, SolverOptions, map_estimate

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

    Discrete grids step to the next point and Poisson values by one; a
    continuous value moves by ``step`` but at most halfway to the supremum,
    and within 1e-6 of it admits no increase.
    """
    if law.family == Family.POISSON:
        return 1.0
    pts = law.support_points()
    if pts is not None:
        above = pts[pts > value + 1e-12]
        return float(above[0] - value) if above.size else None
    room = law.r_max - value
    return None if room < 1e-6 else min(step, 0.5 * room)


def _monotone_step(law, prior, matrix, base, pair, value, delta, options):
    """Re-solve with r_ab raised from value by delta, warm from the base solve."""
    a, b = pair
    base_vec, base_rep = base
    bumped = matrix.apply_edit(ComparisonEdit(EditKind.CHANGE, (a, b), value + delta))
    new_vec, new_rep = map_estimate(law, prior, bumped, options, initial=base_vec)
    err = base_rep.certified_error + new_rep.certified_error
    if not math.isfinite(err):
        err = 0.0  # unregularized solves carry no certified bound
    margin = new_vec.value_of(a) - base_vec.value_of(a)
    margin_other = new_vec.value_of(b) - base_vec.value_of(b)
    return MonotoneStepResult(
        pair=(a, b), delta=delta, margin=margin, margin_other=margin_other,
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
    base = map_estimate(law, prior, matrix, options)
    return _monotone_step(law, prior, matrix, base, pair, value, delta, options)


def monotonicity_sweep(law: RootLaw, prior: PriorConfig, matrix: ComparisonMatrix,
                       options: SolverOptions | None = None) -> list[MonotoneStepResult]:
    """Probe every admissible single-pair increase of the matrix.

    The base problem is solved once and shared. Entries already at the top
    of a bounded grid, or within 1e-6 of a bounded supremum, admit no
    increase and are skipped. Poisson values step by one, continuous ones by
    0.25 (at most halfway to the supremum).
    """
    base = map_estimate(law, prior, matrix, options)
    results = []
    for a, b, value in matrix.iter_entries():
        delta = _next_step(law, value, 0.25)
        if delta is not None:
            results.append(_monotone_step(law, prior, matrix, base, (a, b), value,
                                          delta, options))
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


def _random_edit(law: RootLaw, matrix: ComparisonMatrix, rng) -> ComparisonEdit:
    # present pairs in sorted key order, absent ones in row-major i < j order
    ids = matrix.alternatives.ids
    present_i, present_j, _ = matrix.index_arrays
    upper_i, upper_j = np.triu_indices(len(ids), 1)
    compared = np.zeros((len(ids), len(ids)), dtype=bool)
    compared[present_i, present_j] = True
    absent = np.flatnonzero(~compared[upper_i, upper_j])
    kinds = [EditKind.CHANGE]
    if absent.size:
        kinds.append(EditKind.ADD)
    if present_i.size > 1:
        kinds.append(EditKind.REMOVE)
    kind = kinds[rng.integers(len(kinds))]
    if kind == EditKind.ADD:
        k = absent[rng.integers(absent.size)]
        pair = (ids[upper_i[k]], ids[upper_j[k]])
        return ComparisonEdit(EditKind.ADD, pair, _random_value(law, rng))
    k = rng.integers(present_i.size)
    pair = (ids[present_i[k]], ids[present_j[k]])
    if kind == EditKind.REMOVE:
        return ComparisonEdit(EditKind.REMOVE, pair)
    old = matrix.value(*pair)
    while True:
        value = _random_value(law, rng)
        if value != old:
            return ComparisonEdit(EditKind.CHANGE, pair, value)


def _random_base(law: RootLaw, rng) -> ComparisonMatrix:
    n = 10
    while True:
        pairs = erdos_renyi_graph(n, 0.6, rng)
        if pairs[0].size:
            break
    truth = ScoreVector(default_alternatives(n), rng.normal(size=n))
    return synthesize_comparisons(law, truth, pairs, rng)


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
        base = _random_base(law, rng)
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
        edits: list[ComparisonEdit] = []
        for _ in range(config.edits_per_probe):
            e = _random_edit(law, edited, rng)
            edits.append(e)
            edited = edited.apply_edit(e)
        dist = base.edit_distance(edited)
        if dist == 0:
            continue
        edited_vec, _ = map_estimate(law, prior, edited, options, initial=base_vec)
        change = float(np.linalg.norm(edited_vec.values - base_vec.values))
        ratio = change / dist
        kind = "+".join(e.kind.value for e in edits)
        pair = ";".join(f"{p[0]}|{p[1]}" for p in (e.pair for e in edits))
        probe.records.append(ProbeRecord(kind, pair, dist, change, ratio, bound))
        probe.observed_ratio = max(probe.observed_ratio, ratio)
        done += 1
        if not fixed_base and done % per_base == 0 and done < config.n_probes:
            base = _random_base(law, rng)
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
