"""Generative pipeline and the three reconstruction experiments.

The pipeline draws a random comparison graph, i.i.d. Gaussian ground-truth
scores, and one tilted comparison per edge, then measures how well the
estimator recovers the truth via the normalized squared error
``||theta_hat - theta_true||^2 / ||theta_true||^2``, averaged over seeds.

Experiments:

* sparsity: reconstruction error versus the edge probability of the graph;
* discretization: error of K-level comparison models fit to continuous
  uniform data, versus the matching continuous model;
* regularization: error versus the inverse prior variance, including the
  unregularized point (run on the giant connected component, where the
  maximum-likelihood scores are well defined).

Each sweep runs a fixed grid (the module constants below) on uniform
comparisons over unit-variance scores. Defaults are desk scale (50
alternatives, seeds 1..10); pass a larger ``n_alternatives`` for full-size
runs. Identical configs produce bit-identical results: every seed owns a
fresh generator and the draw order is fixed (graph, truth, comparisons).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .comparisons import AlternativeSet, ComparisonMatrix, _write_csv
from .errors import ParameterError, SolverError
from .rootlaws import RootLaw
from .solver import (PriorConfig, ScoreVector, SolverOptions,
                     connected_components, map_estimate)

__all__ = [
    "default_alternatives",
    "erdos_renyi_graph",
    "sample_ground_truth",
    "synthesize_comparisons",
    "norm_error",
    "restrict_matrix",
    "ExperimentConfig",
    "SweepPoint",
    "ExperimentResult",
    "run_experiment_sparsity",
    "run_experiment_discretization",
    "run_experiment_regularization",
]


def default_alternatives(n: int) -> AlternativeSet:
    """Zero-padded synthetic ids so lexicographic and index order agree."""
    width = max(4, len(str(n - 1)))
    return AlternativeSet.from_ids(f"a{i:0{width}d}" for i in range(n))


def erdos_renyi_graph(n: int, edge_prob: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Edges ``(i, j)`` of a random graph on n alternatives.

    Each unordered pair is kept independently with probability edge_prob.
    The edges come as int64 index arrays with ``i < j``, in row-major order.
    Consumes one uniform per candidate pair regardless of edge_prob, so runs
    with the same seed share randomness across sweep values.
    """
    if n < 2:
        raise ParameterError("need at least two alternatives")
    if not 0.0 <= edge_prob <= 1.0:
        raise ParameterError(f"edge probability must lie in [0, 1], got {edge_prob!r}")
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < edge_prob
    return iu[keep], ju[keep]


def sample_ground_truth(n: int, sigma_dagger_sq: float, rng) -> ScoreVector:
    """i.i.d. centered Gaussian scores with the given variance."""
    if not sigma_dagger_sq > 0:
        raise ParameterError(f"ground-truth variance must be positive, got {sigma_dagger_sq!r}")
    values = rng.normal(0.0, math.sqrt(sigma_dagger_sq), size=n)
    return ScoreVector(default_alternatives(n), values)


def synthesize_comparisons(law: RootLaw, truth: ScoreVector,
                           pairs, rng) -> ComparisonMatrix:
    """One conditionally independent tilted draw per edge at theta_i - theta_j.

    ``pairs = (i, j)`` are index arrays into ``truth.alternatives``, the
    format :func:`erdos_renyi_graph` returns.
    """
    alts = truth.alternatives
    i, j = (np.asarray(x, dtype=np.int64) for x in pairs)
    if np.any((i == j) | (np.minimum(i, j) < 0) | (np.maximum(i, j) >= len(alts))):
        raise ParameterError("pair indices out of range")
    draws = law.sample_comparison(truth.values[i] - truth.values[j], rng)
    return ComparisonMatrix(alts, law=law, indices=(i, j, draws))


def norm_error(estimate, truth) -> float:
    """||estimate - truth||^2 / ||truth||^2 (undefined for zero truth)."""
    est = estimate.values if isinstance(estimate, ScoreVector) else np.asarray(estimate, float)
    tru = truth.values if isinstance(truth, ScoreVector) else np.asarray(truth, float)
    if est.shape != tru.shape:
        raise ParameterError(f"shape mismatch: {est.shape} vs {tru.shape}")
    denom = float(tru @ tru)
    if denom == 0.0:
        raise ParameterError("norm error is undefined for a zero ground truth")
    diff = est - tru
    return float(diff @ diff) / denom


def restrict_matrix(matrix: ComparisonMatrix, indices) -> tuple[ComparisonMatrix, np.ndarray]:
    """Sub-matrix over the given alternative indices, plus the index array."""
    idx = np.array(sorted(int(i) for i in indices))
    sub = AlternativeSet.from_ids(matrix.alternatives.ids[i] for i in idx)
    position = np.full(len(matrix.alternatives), -1)
    position[idx] = np.arange(idx.size)
    i, j, r = matrix.index_arrays
    keep = (position[i] >= 0) & (position[j] >= 0)
    return ComparisonMatrix(sub, law=matrix.law,
                            indices=(position[i[keep]], position[j[keep]], r[keep])), idx


# ------------------------------------------------------------------ experiments

_SIGMA_DAGGER_SQ = 1.0
_GEN_LAW = RootLaw.uniform()
_EDGE_PROB_GRID = (0.05, 0.1, 0.2, 0.4, 0.8)
_FIT_LAWS = {**{str(k): RootLaw.knary(k) for k in (2, 3, 5, 9, 21)}, "uniform": RootLaw.uniform()}
_INV_SIGMA_SQ_GRID = (0.0, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0)


@dataclass(frozen=True)
class ExperimentConfig:
    n_alternatives: int = 50
    edge_prob: float = 0.2
    prior: PriorConfig = PriorConfig(1.0)
    seeds: tuple[int, ...] = tuple(range(1, 11))
    solver: SolverOptions = SolverOptions()

    def __post_init__(self):
        if self.n_alternatives < 2:
            raise ParameterError("need at least two alternatives")
        if not self.seeds:
            raise ParameterError("need at least one seed")


@dataclass(frozen=True)
class SweepPoint:
    param: str
    seeds: tuple[int, ...]
    values: tuple[float, ...]
    mean: float
    std: float

    @classmethod
    def from_values(cls, param: str, seeds, values) -> "SweepPoint":
        arr = np.asarray(values, dtype=float)
        std = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
        return cls(param, tuple(seeds), tuple(float(v) for v in arr),
                   float(np.mean(arr)), std)


@dataclass(frozen=True)
class ExperimentResult:
    name: str
    points: tuple[SweepPoint, ...]
    notes: tuple[str, ...] = ()
    failures: tuple[str, ...] = ()

    def point(self, param: str) -> SweepPoint:
        for p in self.points:
            if p.param == param:
                return p
        raise KeyError(param)

    def per_seed_rows(self):
        for p in self.points:
            for seed, value in zip(p.seeds, p.values):
                yield p.param, seed, value

    def summary_rows(self):
        for p in self.points:
            yield p.param, p.mean, p.std

    def write_csv(self, out_dir) -> list[str]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        per_seed = out / f"{self.name}_per_seed.csv"
        summary = out / f"{self.name}_summary.csv"
        _write_csv(per_seed, ["param", "seed", "norm_error"],
                   ((param, seed, repr(value)) for param, seed, value in self.per_seed_rows()))
        _write_csv(summary, ["param", "mean", "std"],
                   ((param, repr(mean), repr(std)) for param, mean, std in self.summary_rows()))
        return [str(per_seed), str(summary)]


def _fmt(x: float) -> str:
    return repr(float(x))


def _dataset(config: ExperimentConfig, seed: int, edge_prob: float):
    rng = np.random.default_rng(seed)
    pairs = erdos_renyi_graph(config.n_alternatives, edge_prob, rng)
    truth = sample_ground_truth(config.n_alternatives, _SIGMA_DAGGER_SQ, rng)
    matrix = synthesize_comparisons(_GEN_LAW, truth, pairs, rng)
    return truth, matrix


def _error(law, prior, matrix, options, truth) -> float:
    """norm_error of the MAP estimate against the truth values."""
    if matrix.num_pairs == 0:
        # with no comparisons the regularized optimum is exactly zero
        return norm_error(np.zeros(len(matrix.alternatives)), truth)
    vec, _ = map_estimate(law, prior, matrix, options)
    return norm_error(vec.values, truth)


def _sweep(name, config, key, labels, fits, notes=()) -> ExperimentResult:
    """Run every seed's fits, one SweepPoint per label, seeds in order.

    ``fits(seed)`` yields one thunk per label returning that point's error.
    A SolverError becomes a NaN and a failure line ``key=label seed=s: ...``.
    ``notes`` may be a list the fits append to while they run.
    """
    rows, failures = [], []
    for seed in config.seeds:
        row = []
        for label, fit in zip(labels, fits(seed)):
            try:
                row.append(fit())
            except SolverError as exc:
                failures.append(f"{key}={label} seed={seed}: {exc}")
                row.append(math.nan)
        rows.append(row)
    points = tuple(SweepPoint.from_values(label, config.seeds, [row[k] for row in rows])
                   for k, label in enumerate(labels))
    return ExperimentResult(name, points, notes=tuple(notes),
                            failures=tuple(failures))


def run_experiment_sparsity(config: ExperimentConfig) -> ExperimentResult:
    """Error versus graph density; fit model = generating model."""

    def fits(seed):
        for pc in _EDGE_PROB_GRID:
            truth, matrix = _dataset(config, seed, pc)
            yield partial(_error, _GEN_LAW, config.prior, matrix, config.solver,
                          truth.values)

    labels = [_fmt(pc) for pc in _EDGE_PROB_GRID]
    return _sweep("sparsity", config, "pc", labels, fits)


def run_experiment_discretization(config: ExperimentConfig) -> ExperimentResult:
    """K-level fits against the continuous fit on shared uniform data."""

    def fits(seed):
        truth, matrix = _dataset(config, seed, config.edge_prob)
        for law in _FIT_LAWS.values():
            yield partial(_error, law, config.prior, matrix, config.solver, truth.values)

    labels = list(_FIT_LAWS)
    return _sweep("discretization", config, "fit", labels, fits)


def run_experiment_regularization(config: ExperimentConfig) -> ExperimentResult:
    """Error versus inverse prior variance, 0 meaning no regularization.

    The unregularized point needs a connected graph, so it is evaluated on
    the giant component (noted in the result when that is a strict subset).
    """
    notes = []

    def fits(seed):
        truth, matrix = _dataset(config, seed, config.edge_prob)
        comps = connected_components(matrix)
        for inv in _INV_SIGMA_SQ_GRID:
            prior, sub_matrix, idx = PriorConfig(math.inf), matrix, slice(None)
            if inv > 0:
                prior = PriorConfig(1.0 / inv)
            elif len(comps) > 1:
                sub_matrix, idx = restrict_matrix(matrix, comps[0])
                notes.append(
                    f"seed={seed}: unregularized point restricted to the giant "
                    f"component ({len(comps[0])}/{len(matrix.alternatives)} alternatives)")
            yield partial(_error, _GEN_LAW, prior, sub_matrix, config.solver,
                          truth.values[idx])

    labels = [_fmt(inv) for inv in _INV_SIGMA_SQ_GRID]
    return _sweep("regularization", config, "inv_sigma_sq", labels, fits, notes)
