"""Solver: loss/gradient/Hessian identities, Newton path, Gaussian path."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALL_SPECS
from gbtscore import (AlternativeSet, ComparisonMatrix, MismatchError,
                      ParameterError, PriorConfig, RootLaw, ScoreVector, SolverError,
                      SolverOptions, connected_components, gradient, hessian,
                      loss, map_estimate, map_estimate_gaussian,
                      parse_model_spec)
from gbtscore import rootlaws, solver
from gbtscore.sim import (erdos_renyi_graph, sample_ground_truth,
                          synthesize_comparisons)

TIGHT = SolverOptions(tolerance=1e-10)


def random_instance(law, n, edge_prob, seed, truth_scale=1.0):
    rng = np.random.default_rng(seed)
    while True:
        pairs = erdos_renyi_graph(n, edge_prob, rng)
        if pairs[0].size:
            break
    truth = sample_ground_truth(n, truth_scale, rng)
    return synthesize_comparisons(law, truth, pairs, rng)


class TestLoss:
    def test_zero_scores_zero_loss(self):
        for spec in ALL_SPECS:
            law = parse_model_spec(spec)
            m = random_instance(law, 6, 0.8, 11)
            value = loss(law, PriorConfig(1.0), m, np.zeros(6))
            assert abs(value) < 1e-12

    def test_single_pair_frozen_value(self):
        # 0.25 + log(cosh 1) - 1 evaluated at 40-digit precision
        alts = AlternativeSet.from_ids(["p", "q"])
        m = ComparisonMatrix(alts, [("p", "q", 1.0)])
        value = loss(RootLaw.bernoulli(), PriorConfig(1.0), m, np.array([0.5, -0.5]))
        assert value == pytest.approx(-0.31621916951697281, rel=1e-14)

    def test_orientation_invariance(self):
        alts = AlternativeSet.from_ids(["p", "q", "s"])
        m1 = ComparisonMatrix(alts, [("p", "q", 0.7), ("q", "s", -0.2)])
        m2 = ComparisonMatrix(alts, [("q", "p", -0.7), ("s", "q", 0.2)])
        theta = np.array([0.3, -0.1, -0.2])
        for spec in ALL_SPECS:
            law = parse_model_spec(spec)
            if law.family.value == "poisson":
                continue  # 0.7 not an integer comparison
            assert loss(law, PriorConfig(2.0), m1, theta) == \
                loss(law, PriorConfig(2.0), m2, theta)

    def test_accepts_score_vector(self):
        alts = AlternativeSet.from_ids(["p", "q"])
        m = ComparisonMatrix(alts, [("p", "q", 1.0)])
        sv = ScoreVector(alts, np.array([0.5, -0.5]))
        assert loss(RootLaw.uniform(), PriorConfig(1.0), m, sv) == \
            loss(RootLaw.uniform(), PriorConfig(1.0), m, np.array([0.5, -0.5]))


class TestGradient:
    def test_zero_data_zero_gradient(self):
        alts = AlternativeSet.from_ids(["p", "q", "s"])
        m = ComparisonMatrix(alts, [("p", "q", 0.0), ("q", "s", 0.0)])
        g = gradient(RootLaw.uniform(), PriorConfig(1.0), m, np.zeros(3))
        assert np.array_equal(g, np.zeros(3))

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_finite_difference_match(self, spec):
        law = parse_model_spec(spec)
        m = random_instance(law, 7, 0.7, 23)
        rng = np.random.default_rng(1)
        theta = rng.normal(scale=0.5, size=7)
        g = gradient(law, PriorConfig(0.7), m, theta)
        h = 1e-5
        for c in range(7):
            e = np.zeros(7)
            e[c] = h
            fd = (loss(law, PriorConfig(0.7), m, theta + e)
                  - loss(law, PriorConfig(0.7), m, theta - e)) / (2 * h)
            assert g[c] == pytest.approx(fd, abs=1e-6)

    def test_component_sum_is_score_sum_over_variance(self):
        # pair terms cancel in the total, leaving sum(theta)/sigma^2
        law = RootLaw.beta_two()
        m = random_instance(law, 8, 0.6, 5)
        rng = np.random.default_rng(2)
        theta = rng.normal(size=8)
        total = gradient(law, PriorConfig(2.5), m, theta).sum()
        assert total == pytest.approx(theta.sum() / 2.5, abs=1e-12)


class TestHessian:
    def test_single_pair_binary_at_zero(self):
        alts = AlternativeSet.from_ids(["p", "q"])
        m = ComparisonMatrix(alts, [("p", "q", 1.0)])
        h = hessian(RootLaw.bernoulli(), PriorConfig(0.5), m, np.zeros(2)).toarray()
        assert np.allclose(h, [[3.0, -1.0], [-1.0, 3.0]], atol=1e-15)

    def test_gaussian_structure(self):
        # constant in theta: diagonal 1/sigma^2 + sigma0^2 deg, off-diagonal -sigma0^2
        law = RootLaw.gaussian(1.3)
        m = random_instance(law, 6, 0.8, 7)
        h0 = hessian(law, PriorConfig(2.0), m, np.zeros(6)).toarray()
        h1 = hessian(law, PriorConfig(2.0), m, np.arange(6.0)).toarray()
        assert np.allclose(h0, h1, atol=1e-15)
        assert np.allclose(np.diag(h0), 0.5 + 1.3 * m.degrees, atol=1e-12)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_finite_difference_and_dominance(self, spec):
        law = parse_model_spec(spec)
        m = random_instance(law, 6, 0.7, 31)
        rng = np.random.default_rng(3)
        theta = rng.normal(scale=0.4, size=6)
        pr = PriorConfig(1.5)
        h = hessian(law, pr, m, theta).toarray()
        assert np.array_equal(h, h.T)
        step = 1e-5
        for c in range(6):
            e = np.zeros(6)
            e[c] = step
            fd = (gradient(law, pr, m, theta + e) - gradient(law, pr, m, theta - e)) / (2 * step)
            assert np.abs(h[:, c] - fd).max() < 1e-5
        # strict diagonal dominance with margin 1/sigma^2
        off = np.abs(h).sum(axis=1) - np.abs(np.diag(h))
        assert np.all(np.diag(h) >= off + 1.0 / 1.5 - 1e-12)
        assert np.all(np.linalg.eigvalsh(h) > 0)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_dense_assembler_matches_sparse_hessian(data):
    n = data.draw(st.integers(2, 9))
    keep = data.draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                              max_size=n * (n - 1) // 2))
    if not any(keep):
        keep[0] = True
    spec = data.draw(st.sampled_from(ALL_SPECS))
    law = parse_model_spec(spec)
    value = 1.0 if law.family.value == "poisson" else 0.5
    alts = AlternativeSet.from_ids([f"a{k}" for k in range(n)])
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    m = ComparisonMatrix(alts, [(f"a{a}", f"a{b}", value)
                                for (a, b), k in zip(pairs, keep) if k], law=law)
    theta = np.array(data.draw(st.lists(st.floats(-20, 20), min_size=n, max_size=n)))
    prior = PriorConfig(data.draw(st.sampled_from([0.01, 1.0, 1e6, math.inf])))
    i, j, _ = m.index_arrays
    dense = solver._hessian_matrix(prior, m, law.cumulant_double_prime(theta[i] - theta[j]), True)
    np.testing.assert_allclose(dense, hessian(law, prior, m, theta).toarray(), rtol=0, atol=1e-12)


class TestMapEstimate:
    def test_beta_solve_runs_one_full_quadrature_per_iterate(self, monkeypatch):
        passes = []
        quadrature = rootlaws._beta_moments

        def counted(a, law, full=True):
            passes.append(full)
            return quadrature(a, law, full)

        monkeypatch.setattr(rootlaws, "_beta_moments", counted)
        law = RootLaw.beta_law(2.5)
        m = random_instance(law, 40, 0.3, 17, truth_scale=2.0)
        _, report = map_estimate(law, PriorConfig(1.0), m, TIGHT)
        assert report.iterations >= 3
        assert passes.count(True) == report.iterations + 1
        # Phi-only passes: the start point and at least one trial per iterate
        assert passes.count(False) >= report.iterations + 1

    def test_zero_comparisons_give_zero_scores(self):
        alts = AlternativeSet.from_ids(["p", "q", "s"])
        m = ComparisonMatrix(alts, [("p", "q", 0.0), ("q", "s", 0.0)])
        vec, report = map_estimate(RootLaw.uniform(), PriorConfig(1.0), m)
        assert np.array_equal(vec.values, np.zeros(3))
        assert report.converged and report.iterations == 0

    def test_two_alternative_binary_frozen_root(self):
        # 1-d reduction: theta + tanh(2 theta) = 1, root by 40-digit bisection
        alts = AlternativeSet.from_ids(["p", "q"])
        m = ComparisonMatrix(alts, [("p", "q", 1.0)])
        vec, _ = map_estimate(RootLaw.bernoulli(), PriorConfig(1.0), m, TIGHT)
        assert vec.values[0] == pytest.approx(0.3703871965311542, abs=1e-10)
        assert vec.values[1] == pytest.approx(-0.3703871965311542, abs=1e-10)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_zero_sum_and_sup_norm(self, spec):
        law = parse_model_spec(spec)
        for seed in range(4):
            m = random_instance(law, 9, 0.5, 100 + seed)
            prior = PriorConfig(1.0)
            vec, report = map_estimate(law, prior, m)
            assert report.converged
            assert abs(vec.values.sum()) <= 1e-8 * 9
            if law.is_bounded:
                box = 2.0 * m.degrees * law.r_max * prior.sigma_sq
                assert np.all(np.abs(vec.values) <= box + 1e-6)

    def test_isolated_alternative_gets_zero(self):
        alts = AlternativeSet.from_ids(["p", "q", "lonely"])
        m = ComparisonMatrix(alts, [("p", "q", 0.8)])
        vec, _ = map_estimate(RootLaw.uniform(), PriorConfig(1.0), m, TIGHT)
        assert abs(vec.value_of("lonely")) < 1e-12

    def test_deterministic(self):
        law = RootLaw.beta_law(2.5)
        m = random_instance(law, 8, 0.6, 55)
        v1, r1 = map_estimate(law, PriorConfig(1.0), m)
        v2, r2 = map_estimate(law, PriorConfig(1.0), m)
        assert np.array_equal(v1.values, v2.values)
        assert r1.iterations == r2.iterations

    def test_nonconvergence_carries_report(self):
        law = RootLaw.uniform()
        m = random_instance(law, 10, 0.5, 77)
        with pytest.raises(SolverError) as err:
            map_estimate(law, PriorConfig(1.0), m, SolverOptions(max_iterations=1, tolerance=1e-14))
        assert err.value.report is not None
        assert err.value.report.iterations == 1
        assert not err.value.report.converged

    def test_empty_matrix_rejected(self):
        alts = AlternativeSet.from_ids(["p", "q"])
        m = ComparisonMatrix(alts, [])
        with pytest.raises(ParameterError):
            map_estimate(RootLaw.uniform(), PriorConfig(1.0), m)

    def test_report_certifies_tolerance(self):
        law = RootLaw.knary(7)
        m = random_instance(law, 8, 0.7, 91)
        for tol in (1e-6, 1e-10):
            _, report = map_estimate(law, PriorConfig(1.0), m, SolverOptions(tolerance=tol))
            assert report.converged and report.certified_error <= tol
            assert report.certified_error == pytest.approx(
                2.0 * report.final_gradient_norm, rel=1e-12)

    def test_cg_matches_cholesky(self, monkeypatch):
        # both Newton linear solves, with and without the unregularized gauge
        law = RootLaw.uniform()
        m = random_instance(law, 30, 0.3, 13)
        priors = (PriorConfig(1.0), PriorConfig(math.inf))
        dense = [map_estimate(law, prior, m, TIGHT)[0] for prior in priors]
        cg_calls = []
        real_cg = solver.sparse_cg

        def counted_cg(*args, **kwargs):
            cg_calls.append(1)
            return real_cg(*args, **kwargs)

        monkeypatch.setattr(solver, "_DENSE_LIMIT", 10)
        monkeypatch.setattr(solver, "sparse_cg", counted_cg)
        for prior, v1 in zip(priors, dense):
            v2, report = map_estimate(law, prior, m, TIGHT)
            assert np.abs(v1.values - v2.values).max() < 1e-9
            assert report.iterations > 0
        assert len(cg_calls) > 0

    def test_unregularized_needs_connected_graph(self):
        alts = AlternativeSet.from_ids(["p", "q", "s", "t"])
        m = ComparisonMatrix(alts, [("p", "q", 0.5), ("s", "t", 0.25)])
        with pytest.raises(SolverError):
            map_estimate(RootLaw.uniform(), PriorConfig(math.inf), m)
        assert len(connected_components(m)) == 2

    def test_unregularized_is_large_variance_limit(self):
        law = RootLaw.uniform()
        m = random_instance(law, 7, 0.9, 17)
        free, rep = map_estimate(law, PriorConfig(math.inf), m, SolverOptions(tolerance=1e-12))
        assert abs(free.values.sum()) < 1e-9
        assert rep.final_gradient_norm <= 1e-12
        # certified tolerance scales with sigma^2, so loosen it accordingly
        big, _ = map_estimate(law, PriorConfig(1e6), m, SolverOptions(tolerance=1e-5))
        assert np.abs(free.values - big.values).max() < 1e-4


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_warm_start_agrees_with_cold(data):
    law = parse_model_spec(data.draw(st.sampled_from(ALL_SPECS)))
    n = data.draw(st.integers(2, 9))
    edge_prob = data.draw(st.floats(0.2, 1.0))
    m = random_instance(law, n, edge_prob, data.draw(st.integers(0, 10**6)))
    sigma_sq = data.draw(st.sampled_from([0.01, 1.0, 1e6]))
    # the certified bound 2 sigma^2 ||grad|| cannot drop far below sigma^2 times
    # the gradient's rounding floor, so the tolerance grows with sigma^2
    options = SolverOptions(tolerance=1e-8 * max(1.0, sigma_sq))
    start = np.array(data.draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n)))
    prior = PriorConfig(sigma_sq)
    cold, cold_rep = map_estimate(law, prior, m, options)
    warm, warm_rep = map_estimate(law, prior, m, options, initial=start)
    assert cold_rep.certified_error <= options.tolerance
    assert warm_rep.certified_error <= options.tolerance
    assert np.linalg.norm(warm.values - cold.values) <= 2.0 * options.tolerance


class TestWarmStart:
    def test_start_at_optimum_takes_no_step(self):
        law = RootLaw.knary(5)
        m = random_instance(law, 12, 0.5, 23)
        solved, report = map_estimate(law, PriorConfig(1.0), m, TIGHT)
        assert report.iterations > 0
        again, rep = map_estimate(law, PriorConfig(1.0), m, TIGHT, initial=solved)
        assert rep.iterations == 0 and rep.converged
        assert again == solved

    def test_mismatched_start_rejected(self):
        law = RootLaw.uniform()
        m = random_instance(law, 6, 0.8, 5)
        other = ScoreVector(AlternativeSet.from_ids([f"z{k}" for k in range(6)]), np.zeros(6))
        for bad in (other, np.zeros(5), np.zeros((6, 1))):
            with pytest.raises(MismatchError):
                map_estimate(law, PriorConfig(1.0), m, initial=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_rejected(self, bad):
        law = RootLaw.uniform()
        m = random_instance(law, 6, 0.8, 5)
        start = np.zeros(6)
        start[2] = bad
        with pytest.raises(ParameterError):
            map_estimate(law, PriorConfig(1.0), m, initial=start)

    def test_unregularized_start_is_recentred(self):
        law = RootLaw.uniform()
        m = random_instance(law, 7, 0.9, 17)
        options = SolverOptions(tolerance=1e-12)
        cold, _ = map_estimate(law, PriorConfig(math.inf), m, options)
        warm, rep = map_estimate(law, PriorConfig(math.inf), m, options,
                                 initial=cold.values + 5.0)
        assert abs(warm.values.sum()) < 1e-9
        assert rep.iterations <= 1
        assert np.abs(warm.values - cold.values).max() < 1e-9


def bfs_components(n, pairs):
    """Reference: breadth-first search from each unvisited index in order."""
    adjacent = [[] for _ in range(n)]
    for u, v in pairs:
        adjacent[u].append(v)
        adjacent[v].append(u)
    seen = [False] * n
    groups = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        group, queue = [], [start]
        while queue:
            u = queue.pop(0)
            group.append(u)
            for v in adjacent[u]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        groups.append(sorted(group))
    # largest first; equal sizes keep the order of their lowest index
    return sorted(groups, key=len, reverse=True)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_connected_components_match_bfs(data):
    n = data.draw(st.integers(1, 25))
    candidates = [(u, v) for u in range(n) for v in range(u + 1, n)]
    pairs = data.draw(st.lists(st.sampled_from(candidates), unique=True, max_size=30)
                      if candidates else st.just([]))
    alts = AlternativeSet.from_ids(f"x{k:02d}" for k in range(n))
    m = ComparisonMatrix(alts, law=None, indices=(
        np.array([u for u, _ in pairs], dtype=np.int64),
        np.array([v for _, v in pairs], dtype=np.int64),
        np.zeros(len(pairs))))
    assert connected_components(m) == bfs_components(n, pairs)


class TestGaussianClosedForm:
    def test_two_complete_frozen(self):
        alts = AlternativeSet.from_ids(["p", "q"])
        m = ComparisonMatrix(alts, [("p", "q", 1.0)])
        vec = map_estimate_gaussian(1.0, PriorConfig(1.0), m)
        assert vec.values[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert vec.values[1] == pytest.approx(-1.0 / 3.0, abs=1e-12)

    def test_complete_graph_row_sum_formula(self):
        n, s0, s2 = 6, 1.7, 0.6
        law = RootLaw.gaussian(s0)
        m = random_instance(law, n, 1.0, 3)
        vec = map_estimate_gaussian(s0, PriorConfig(s2), m)
        i, j, r = m.index_arrays
        rbar = np.zeros(n)
        np.add.at(rbar, i, r)
        np.add.at(rbar, j, -r)
        assert np.allclose(vec.values, rbar / (1.0 / s2 + s0 * n), atol=1e-12)

    def test_zero_rows_zero_scores(self):
        alts = AlternativeSet.from_ids(["p", "q", "s"])
        m = ComparisonMatrix(alts, [("p", "q", 0.0), ("q", "s", 0.0)])
        vec = map_estimate_gaussian(2.0, PriorConfig(1.0), m)
        assert np.array_equal(vec.values, np.zeros(3))

    def test_linear_in_data(self):
        law = RootLaw.gaussian(0.9)
        m = random_instance(law, 9, 0.4, 9)
        base = map_estimate_gaussian(0.9, PriorConfig(1.3), m)
        doubled = m.with_entries([(a, b, 2.0 * v) for a, b, v in m.iter_entries()])
        twice = map_estimate_gaussian(0.9, PriorConfig(1.3), doubled)
        assert np.abs(twice.values - 2.0 * base.values).max() < 1e-10

    def test_matches_newton(self):
        for seed in range(5):
            law = RootLaw.gaussian(1.0 + 0.2 * seed)
            m = random_instance(law, 12, 0.4, 200 + seed)
            direct = map_estimate_gaussian(law.sigma0_sq, PriorConfig(0.8), m)
            newton, _ = map_estimate(law, PriorConfig(0.8), m, TIGHT)
            assert np.abs(direct.values - newton.values).max() < 1e-8

    def test_sparse_path_matches_dense(self, monkeypatch):
        law = RootLaw.gaussian(1.4)
        m = random_instance(law, 30, 0.3, 5)
        dense = map_estimate_gaussian(1.4, PriorConfig(0.7), m)
        monkeypatch.setattr(solver, "_DENSE_LIMIT", 10)
        sparse = map_estimate_gaussian(1.4, PriorConfig(0.7), m)
        assert np.abs(dense.values - sparse.values).max() < 1e-10

    def test_cg_path_matches_certified_newton(self):
        # above the dense limit both solves run Jacobi-preconditioned CG
        law = RootLaw.gaussian(1.0)
        m = random_instance(law, 2100, 0.009, 17)
        assert len(m.alternatives) > solver._DENSE_LIMIT and m.num_pairs > 19_000
        direct = map_estimate_gaussian(1.0, PriorConfig(1.0), m)
        newton, _ = map_estimate(law, PriorConfig(1.0), m, SolverOptions(tolerance=1e-11))
        assert np.linalg.norm(direct.values - newton.values) < 1e-10


class TestCertifiedStopping:
    def test_bound_dominates_true_distance(self):
        law = RootLaw.uniform()
        prior = PriorConfig(1.0)
        m = random_instance(law, 10, 0.5, 41)
        reference, _ = map_estimate(law, prior, m, SolverOptions(tolerance=1e-12))
        _, report = map_estimate(law, prior, m,
                                 SolverOptions(tolerance=1e-8, track_iterates=True))
        for iterate in report.iterates:
            bound = 2.0 * prior.sigma_sq * np.linalg.norm(gradient(law, prior, m, iterate))
            distance = np.linalg.norm(iterate - reference.values)
            assert distance <= bound + 1e-11


class TestMMatrixStructure:
    def test_inverse_entries(self):
        # inverse of the diagonally dominant Hessian has nonnegative entries
        # with a strictly dominant diagonal
        rng = np.random.default_rng(6)
        for trial in range(20):
            spec = ALL_SPECS[trial % len(ALL_SPECS)]
            law = parse_model_spec(spec)
            n = int(rng.integers(3, 12))
            m = random_instance(law, n, 0.6, 300 + trial)
            theta = rng.normal(scale=0.5, size=n)
            h = hessian(law, PriorConfig(1.0), m, theta).toarray()
            inv = np.linalg.inv(h)
            assert inv.min() >= -1e-12
            for a in range(n):
                row = np.delete(inv[a], a)
                if row.size:
                    assert inv[a, a] > row.max()
