"""Acceptance suite: one test per headline guarantee, stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion with its runtime. Each test is self-contained and uses only the
independent oracles from conftest (quadrature, series, grid search,
high-precision reference solves).
"""

import math
import time

import numpy as np
import pytest

from conftest import ALL_SPECS, BOUNDED_SPECS, oracle_moments
from gbtscore import (AlternativeSet, ComparisonMatrix, PriorConfig,
                      ResilienceProbeConfig, RootLaw, SolverOptions,
                      connected_components, gradient, hessian, map_estimate,
                      map_estimate_gaussian, measure_resilience,
                      monotonicity_sweep, neutral_comparison,
                      parse_model_spec, run_experiment_discretization,
                      run_experiment_regularization, run_experiment_sparsity,
                      sample_ground_truth, synthesize_comparisons)
from gbtscore.sim import ExperimentConfig, erdos_renyi_graph

_LINES = []


def _record(num, budget, started, message):
    elapsed = time.time() - started
    line = f"[criterion {num:02d}] PASS in {elapsed:6.1f}s (budget {budget:.0f}s) - {message}"
    _LINES.append(line)
    print("\n" + line)
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def connected_instance(law, n, edge_prob, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    while True:
        pairs = erdos_renyi_graph(n, edge_prob, rng)
        truth = sample_ground_truth(n, scale, rng)
        matrix = synthesize_comparisons(law, truth, pairs, rng)
        if pairs[0].size and len(connected_components(matrix)) == 1:
            return matrix


def test_criterion_01_gaussian_closed_form():
    """Closed-form Gaussian solve agrees with the generic Newton path."""
    started = time.time()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(3, 101))
        edge_prob = min(1.0, float(rng.uniform(0.05, 0.4)) + 4.0 / n)
        sigma0_sq = float(rng.uniform(0.4, 2.0))
        sigma_sq = float(rng.uniform(0.4, 2.0))
        law = RootLaw.gaussian(sigma0_sq)
        pairs = erdos_renyi_graph(n, edge_prob, rng)
        if not pairs[0].size:
            continue
        truth = sample_ground_truth(n, 1.0, rng)
        matrix = synthesize_comparisons(law, truth, pairs, rng)
        prior = PriorConfig(sigma_sq)
        direct = map_estimate_gaussian(sigma0_sq, prior, matrix)
        newton, _ = map_estimate(law, prior, matrix)
        worst = max(worst, float(np.linalg.norm(direct.values - newton.values)))
        assert worst <= 1e-6

    two = ComparisonMatrix(AlternativeSet.from_ids(["x", "y"]), [("x", "y", 1.0)])
    vec = map_estimate_gaussian(1.0, PriorConfig(1.0), two)
    assert abs(vec.values[0] - 1.0 / 3.0) <= 1e-12
    assert abs(vec.values[1] + 1.0 / 3.0) <= 1e-12
    _record(1, 10, started, f"100 sparse instances, worst l2 gap {worst:.2e}; "
            "two-alternative instance exact to 1e-12")


def test_criterion_02_zero_sum_and_sup_norm():
    """Every solve is zero-sum; bounded families obey the degree box."""
    started = time.time()
    solves = 0
    for spec in ALL_SPECS:
        law = parse_model_spec(spec)
        for trial in range(12):
            rng = np.random.default_rng(2000 + 97 * trial)
            n = int(rng.integers(4, 26))
            sigma_sq = float(rng.uniform(0.4, 2.5))
            pairs = erdos_renyi_graph(n, 0.5, rng)
            if not pairs[0].size:
                continue
            truth = sample_ground_truth(n, 1.0, rng)
            matrix = synthesize_comparisons(law, truth, pairs, rng)
            prior = PriorConfig(sigma_sq)
            vec, report = map_estimate(law, prior, matrix)
            solves += 1
            assert report.converged
            assert abs(vec.values.sum()) <= 1e-8 * n
            if law.is_bounded:
                box = 2.0 * matrix.degrees * law.r_max * sigma_sq
                assert np.all(np.abs(vec.values) <= box + 1e-6)
    _record(2, 30, started, f"{solves} solves across all families")


def test_criterion_03_monotonicity():
    """Raising any single comparison strictly raises the winner's score."""
    started = time.time()
    options = SolverOptions(tolerance=1e-9)
    prior = PriorConfig(1.0)
    checks = 0
    for spec in ALL_SPECS:
        law = parse_model_spec(spec)
        for trial in range(50):
            rng = np.random.default_rng(3000 + trial)
            n = int(rng.integers(3, 9))
            matrix = connected_instance(law, n, 0.6, 31000 + 7 * trial)
            for res in monotonicity_sweep(law, prior, matrix, options):
                checks += 1
                assert res.strictly_increased and res.conclusive, (spec, trial, res)
                assert res.margin > 10.0 * res.certified_error
                assert res.margin_other < -10.0 * res.certified_error
    _record(3, 120, started, f"{checks} single-pair increases, zero violations")


def test_criterion_04_resilience():
    """Bounded families stay under 4*sqrt(2)*r_max*sigma^2 per edit;
    the linear Gaussian estimator blows past any such constant."""
    started = time.time()
    prior = PriorConfig(1.0)
    bound = 4.0 * math.sqrt(2.0)
    summary = []
    for spec in BOUNDED_SPECS:
        law = parse_model_spec(spec)
        probe = measure_resilience(
            law, prior, ResilienceProbeConfig(n_probes=200, n_bases=10, seed=4000))
        assert len(probe.records) == 200
        assert probe.bound == pytest.approx(bound, rel=1e-12)
        assert probe.observed_ratio < bound  # strict
        summary.append(f"{spec}:{probe.observed_ratio:.3f}")

    gaussian = RootLaw.gaussian(1.0)
    scaling = measure_resilience(
        gaussian, prior,
        ResilienceProbeConfig(seed=4001, scaling_factors=(10.0, 100.0, 10000.0)))
    ratios = [r.ratio for r in scaling.records]
    assert ratios == sorted(ratios)
    assert scaling.observed_ratio > 10.0 * bound
    _record(4, 120, started,
            "200 probes/family, max ratios " + " ".join(summary)
            + f"; gaussian scaling ratio {scaling.observed_ratio:.1f} > {10 * bound:.1f}")


def test_criterion_05_cumulant_oracle_equivalence():
    """Catalog cumulants match the quadrature/series oracle on a 401-point grid."""
    started = time.time()
    grid = np.linspace(-8.0, 8.0, 401)
    worst = 0.0
    for spec in ALL_SPECS:
        law = parse_model_spec(spec)
        phi = law.cumulant(grid)
        dphi = law.cumulant_prime(grid)
        ddphi = law.cumulant_double_prime(grid)
        for k, theta in enumerate(grid):
            o_phi, o_mean, o_var = oracle_moments(law, float(theta))
            for got, want in ((phi[k], o_phi), (dphi[k], o_mean), (ddphi[k], o_var)):
                rel = abs(got - want) / max(1.0, abs(want))
                worst = max(worst, rel)
                assert rel <= 1e-10, (spec, theta)
    two_level = RootLaw.knary(2).cumulant(grid)
    binary = RootLaw.bernoulli().cumulant(grid)
    assert np.abs(two_level - binary).max() <= 1e-12
    _record(5, 10, started, f"7 families x 401 tilts, worst relative error {worst:.2e}")


def test_criterion_06_moment_identities():
    """Tilted sampler moments match the cumulant derivatives to 5 SEs."""
    started = time.time()
    n = 100_000
    for fam_idx, spec in enumerate(ALL_SPECS):
        law = parse_model_spec(spec)
        for tilt_idx, tilt in enumerate((-2.0, 0.0, 2.0)):
            rng = np.random.default_rng(6000 + 101 * fam_idx + tilt_idx)
            draws = law.sample_comparison(tilt, rng, size=n)
            mean, var = law.cumulant_prime(tilt), law.cumulant_double_prime(tilt)
            z_mean = (draws.mean() - mean) / math.sqrt(var / n)
            assert abs(z_mean) <= 5.0, (spec, tilt, z_mean)
            sample_var = draws.var(ddof=1)
            fourth = float(np.mean((draws - draws.mean()) ** 4))
            se_var = math.sqrt(max(fourth - sample_var ** 2 * (n - 3) / (n - 1), 1e-300) / n)
            z_var = (sample_var - var) / se_var
            assert abs(z_var) <= 5.0, (spec, tilt, z_var)
    _record(6, 60, started, f"{len(ALL_SPECS)} families x 3 tilts x {n} draws")


def _grid_search_three(law, sigma_sq, values, bound, h):
    """Exhaustive minimization of the three-alternative loss on a cube grid."""
    r12, r13, r23 = values
    axis = np.arange(-bound, bound + h / 2.0, h)
    n = axis.size
    dvals = np.arange(-(n - 1), n) * h
    g12 = law.cumulant(dvals) - r12 * dvals
    g13 = law.cumulant(dvals) - r13 * dvals
    g23 = law.cumulant(dvals) - r23 * dvals
    quad = axis * axis / (2.0 * sigma_sq)
    offset = np.arange(n)[:, None] - np.arange(n)[None, :] + (n - 1)
    m12 = g12[offset]
    m13 = g13[offset]
    m23 = g23[offset]
    base = m12 + quad[:, None] + quad[None, :]
    best_value = math.inf
    best_index = None
    for k in range(n):
        plane = base + (m13[:, k])[:, None] + m23[:, k][None, :]
        flat = int(plane.argmin())
        value = plane.flat[flat] + quad[k]
        if value < best_value:
            best_value = value
            best_index = (flat // n, flat % n, k)
    i, j, k = best_index
    return np.array([axis[i], axis[j], axis[k]])


def test_criterion_07_grid_oracle_map():
    """Newton lands within h*sqrt(3) of the exhaustive grid minimizer."""
    started = time.time()
    h = 0.01
    sigma_sq = 0.25
    bound = 2.0 * 3 * 1.0 * sigma_sq  # 2 A r_max sigma^2
    alts = AlternativeSet.from_ids(["x", "y", "z"])
    instances = 0
    for fam_idx, spec in enumerate(BOUNDED_SPECS):
        law = parse_model_spec(spec)
        for trial in range(3):
            rng = np.random.default_rng(7000 + 31 * fam_idx + trial)
            raw = law.sample_comparison(rng.normal(scale=0.8, size=3), rng)
            matrix = ComparisonMatrix(
                alts, [("x", "y", raw[0]), ("x", "z", raw[1]), ("y", "z", raw[2])], law=law)
            newton, _ = map_estimate(law, PriorConfig(sigma_sq), matrix)
            grid_best = _grid_search_three(law, sigma_sq, raw, bound, h)
            gap = float(np.linalg.norm(newton.values - grid_best))
            assert gap <= h * math.sqrt(3.0), (spec, gap)
            instances += 1
    _record(7, 60, started, f"{instances} bounded-family instances, grid step {h}")


def test_criterion_08_neutral_comparison():
    """Adding the neutral value fixes the scores; off-neutral moves them."""
    started = time.time()
    tol = 1e-9
    options = SolverOptions(tolerance=tol)
    prior = PriorConfig(1.0)
    for spec in ("bernoulli", "uniform", "beta:beta=2.5", "beta2", "gaussian:sigma0sq=1.0"):
        law = parse_model_spec(spec)
        matrix = connected_instance(law, 6, 0.5, 8008)
        ids = matrix.alternatives.ids
        pair = next(((ids[i], ids[j]) for i in range(6) for j in range(i + 1, 6)
                     if not matrix.has_pair(ids[i], ids[j])), None)
        assert pair is not None
        base, _ = map_estimate(law, prior, matrix, options)
        value = neutral_comparison(law, prior, matrix, pair, options)
        entries = list(matrix.iter_entries())
        again, _ = map_estimate(law, prior,
                                matrix.with_entries(entries + [(*pair, value)]), options)
        assert np.abs(again.values - base.values).max() <= 10.0 * tol, spec

        room = 0.1 if not law.is_bounded else min(0.1, (1.0 - abs(value)) / 2.0)
        up, _ = map_estimate(law, prior,
                             matrix.with_entries(entries + [(*pair, value + room)]), options)
        down, _ = map_estimate(law, prior,
                               matrix.with_entries(entries + [(*pair, value - room)]), options)
        assert up.value_of(pair[0]) > base.value_of(pair[0])
        assert down.value_of(pair[0]) < base.value_of(pair[0])
    _record(8, 30, started, "neutral round trip <= 10 tol; off-neutral moves as predicted")


def test_criterion_09_m_matrix_structure():
    """Inverse Hessians are entrywise nonnegative with dominant diagonal."""
    started = time.time()
    rng = np.random.default_rng(9000)
    for trial in range(100):
        law = parse_model_spec(ALL_SPECS[trial % len(ALL_SPECS)])
        n = int(rng.integers(3, 13))
        pairs = erdos_renyi_graph(n, 0.6, rng)
        if not pairs[0].size:
            continue
        truth = sample_ground_truth(n, 1.0, rng)
        matrix = synthesize_comparisons(law, truth, pairs, rng)
        theta = rng.normal(scale=0.6, size=n)
        inverse = np.linalg.inv(
            hessian(law, PriorConfig(float(rng.uniform(0.5, 2.0))), matrix, theta).toarray())
        assert inverse.min() >= -1e-12
        for a in range(n):
            off = np.delete(inverse[a], a)
            if off.size:
                assert inverse[a, a] > off.max()
    _record(9, 30, started, "100 instances with up to 12 alternatives")


def test_criterion_10_experiments_desk_scale():
    """The three reconstruction sweeps reproduce the documented shapes."""
    started = time.time()
    config = ExperimentConfig()   # A=50, seeds 1..10

    sparsity = run_experiment_sparsity(config)
    assert not sparsity.failures
    means = [p.mean for p in sparsity.points]
    assert [p.param for p in sparsity.points] == ["0.05", "0.1", "0.2", "0.4", "0.8"]
    assert all(a > b for a, b in zip(means, means[1:])), means

    disc = run_experiment_discretization(config)
    assert not disc.failures
    k_points = disc.points[:-1]
    baseline = disc.points[-1]
    assert [p.param for p in k_points] == ["2", "3", "5", "9", "21"]
    assert baseline.param == "uniform"
    inversions = 0
    n_seeds = len(config.seeds)
    for left, right in zip(k_points, k_points[1:]):
        if left.mean < right.mean:
            inversions += 1
            combined = math.hypot(left.std, right.std) / math.sqrt(n_seeds)
            assert right.mean - left.mean <= combined, (left.param, right.param)
    assert inversions <= 1
    gap = abs(k_points[-1].mean - baseline.mean)
    assert gap <= 2.0 * baseline.std / math.sqrt(n_seeds)
    assert all(p.mean >= baseline.mean - 2.0 * baseline.std / math.sqrt(n_seeds)
               for p in k_points)

    reg = run_experiment_regularization(config)
    assert not reg.failures
    unregularized = reg.point("0.0").mean
    finite = [p.mean for p in reg.points if p.param != "0.0"]
    assert min(finite) <= unregularized

    _record(10, 600, started,
            f"sparsity strictly decreasing; K-curve -> uniform (gap {gap:.4f}); "
            f"best regularized {min(finite):.4f} <= unregularized {unregularized:.4f}")


def test_criterion_11_certified_stopping():
    """2 sigma^2 ||grad|| bounds the distance to a 1e-12 reference at every iterate."""
    started = time.time()
    solves = 0
    for spec in ALL_SPECS:
        law = parse_model_spec(spec)
        for trial in range(3):
            if solves >= 20:
                break
            rng = np.random.default_rng(11000 + 13 * trial)
            sigma_sq = float(rng.uniform(0.5, 2.0))
            prior = PriorConfig(sigma_sq)
            matrix = connected_instance(law, int(rng.integers(4, 10)), 0.7,
                                        11100 + 3 * trial)
            reference, _ = map_estimate(law, prior, matrix, SolverOptions(tolerance=1e-12))
            _, report = map_estimate(law, prior, matrix,
                                     SolverOptions(tolerance=1e-8, track_iterates=True))
            solves += 1
            assert report.iterates
            for iterate in report.iterates:
                certified = 2.0 * sigma_sq * float(np.linalg.norm(
                    gradient(law, prior, matrix, iterate)))
                distance = float(np.linalg.norm(iterate - reference.values))
                assert distance <= certified + 1e-11
    assert solves == 20
    _record(11, 60, started, "20 logged solves, bound held at every iterate")


def test_summary():
    print("\n" + "=" * 78)
    for line in _LINES:
        print(line)
    print("=" * 78)
