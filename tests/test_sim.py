"""Generative pipeline and experiment runners at reduced scale."""

import math

import numpy as np
import pytest

from conftest import ALL_SPECS
from gbtscore import (ExperimentConfig, ParameterError, PriorConfig, RootLaw,
                      ScoreVector, SolverOptions, connected_components,
                      default_alternatives, erdos_renyi_graph,
                      map_estimate, map_estimate_gaussian, norm_error,
                      parse_model_spec, restrict_matrix, run_experiment_discretization,
                      run_experiment_regularization, run_experiment_sparsity,
                      sample_ground_truth, synthesize_comparisons)

SMALL = ExperimentConfig(
    n_alternatives=14,
    seeds=(1, 2, 3),
    edge_prob=0.4,
    solver=SolverOptions(tolerance=1e-9),
)


EDGE = (np.array([0]), np.array([1]))


def edge_set(pairs):
    i, j = pairs
    return set(zip(i.tolist(), j.tolist()))


class TestGraph:
    def test_extremes(self):
        rng = np.random.default_rng(0)
        i, j = erdos_renyi_graph(10, 0.0, rng)
        assert i.size == j.size == 0
        i, j = erdos_renyi_graph(10, 1.0, rng)
        assert i.size == j.size == 45
        assert np.all(i < j)

    def test_seeded_graph_index_arrays(self):
        i, j = erdos_renyi_graph(12, 0.5, np.random.default_rng(9))
        assert i.dtype == j.dtype == np.int64
        assert i.tolist() == [0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 3, 3, 3, 3,
                              3, 4, 4, 4, 4, 5, 5, 5, 6, 6, 7, 7, 7, 10]
        assert j.tolist() == [2, 9, 10, 11, 2, 3, 7, 9, 11, 11, 4, 6, 8, 9,
                              10, 5, 6, 7, 10, 7, 8, 11, 7, 11, 9, 10, 11, 11]

    def test_edge_count_concentration(self):
        rng = np.random.default_rng(1)
        n, p = 60, 0.3
        count = erdos_renyi_graph(n, p, rng)[0].size
        total = n * (n - 1) // 2
        sd = math.sqrt(total * p * (1 - p))
        assert abs(count - total * p) < 5 * sd

    def test_edge_count_concentration_full_scale(self):
        # 500 alternatives at p=0.2: mean pair count 24950, binomial band
        rng = np.random.default_rng(2)
        count = erdos_renyi_graph(500, 0.2, rng)[0].size
        total = 500 * 499 // 2
        assert total * 0.2 == 24950
        sd = math.sqrt(total * 0.2 * 0.8)
        assert abs(count - 24950) < 5 * sd

    def test_deterministic(self):
        a = erdos_renyi_graph(12, 0.5, np.random.default_rng(9))
        b = erdos_renyi_graph(12, 0.5, np.random.default_rng(9))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_common_randomness_across_densities(self):
        # denser graphs contain the sparser ones drawn from the same seed
        lo = edge_set(erdos_renyi_graph(12, 0.2, np.random.default_rng(3)))
        hi = edge_set(erdos_renyi_graph(12, 0.7, np.random.default_rng(3)))
        assert lo <= hi


class TestGroundTruth:
    def test_moments(self):
        rng = np.random.default_rng(2)
        values = np.concatenate([
            sample_ground_truth(400, 2.0, rng).values for _ in range(5)])
        n = values.size
        assert abs(values.mean()) < 5 * math.sqrt(2.0 / n)
        assert values.var(ddof=1) == pytest.approx(2.0, rel=0.15)

    def test_reproducible(self):
        a = sample_ground_truth(20, 1.0, np.random.default_rng(4))
        b = sample_ground_truth(20, 1.0, np.random.default_rng(4))
        assert np.array_equal(a.values, b.values)

    def test_rejects_bad_variance(self):
        with pytest.raises(ParameterError):
            sample_ground_truth(10, 0.0, np.random.default_rng(0))


class TestSynthesis:
    def test_antisymmetry_and_law_attached(self):
        rng = np.random.default_rng(5)
        truth = sample_ground_truth(8, 1.0, rng)
        pairs = erdos_renyi_graph(8, 0.8, rng)
        m = synthesize_comparisons(RootLaw.knary(5), truth, pairs, rng)
        assert m.law == RootLaw.knary(5)
        for a, b, v in m.iter_entries():
            assert m.value(b, a) == -v

    def test_untilted_grid_draws_are_uniform(self):
        rng = np.random.default_rng(6)
        truth = ScoreVector(default_alternatives(2), np.zeros(2))
        law = RootLaw.knary(3)
        counts = {-1.0: 0, 0.0: 0, 1.0: 0}
        for _ in range(3000):
            m = synthesize_comparisons(law, truth, EDGE, rng)
            counts[m.value("a0000", "a0001")] += 1
        for c in counts.values():
            assert abs(c - 1000) < 5 * math.sqrt(3000 * (1 / 3) * (2 / 3))

    def test_per_edge_mean_matches_tilted_mean(self):
        rng = np.random.default_rng(7)
        law = RootLaw.uniform()
        truth = ScoreVector(default_alternatives(2), np.array([0.8, -0.4]))
        draws = [synthesize_comparisons(law, truth, EDGE, rng).value("a0000", "a0001")
                 for _ in range(4000)]
        expect = law.cumulant_prime(1.2)
        sd = math.sqrt(law.cumulant_double_prime(1.2) / 4000)
        assert abs(np.mean(draws) - expect) < 5 * sd

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_no_pairs_draw_nothing(self, spec):
        law = parse_model_spec(spec)
        truth = ScoreVector(default_alternatives(3), np.array([0.5, 0.0, -0.5]))
        rng = np.random.default_rng(11)
        state = rng.bit_generator.state
        none = np.array([], dtype=np.int64)
        m = synthesize_comparisons(law, truth, (none, none), rng)
        assert m.num_pairs == 0 and m.law == law
        assert rng.bit_generator.state == state


class TestNormError:
    def test_basic_values(self):
        truth = np.array([1.0, -1.0, 0.5])
        assert norm_error(truth, truth) == 0.0
        assert norm_error(np.zeros(3), truth) == 1.0
        assert norm_error(2.0 * truth, truth) == pytest.approx(1.0)

    def test_zero_truth_rejected(self):
        with pytest.raises(ParameterError):
            norm_error(np.ones(3), np.zeros(3))


class TestRestriction:
    def test_giant_component(self):
        alts = default_alternatives(5)
        ids = alts.ids
        from gbtscore import ComparisonMatrix
        m = ComparisonMatrix(alts, [(ids[0], ids[1], 0.5), (ids[1], ids[2], 0.25),
                                    (ids[3], ids[4], -0.5)])
        comps = connected_components(m)
        assert [len(c) for c in comps] == [3, 2]
        sub, idx = restrict_matrix(m, comps[0])
        assert list(idx) == [0, 1, 2]
        assert sub.num_pairs == 2


class TestRunners:
    def test_sparsity_shapes_and_reproducibility(self):
        r1 = run_experiment_sparsity(SMALL)
        r2 = run_experiment_sparsity(SMALL)
        assert r1 == r2
        assert [p.param for p in r1.points] == ["0.05", "0.1", "0.2", "0.4", "0.8"]
        assert all(len(p.values) == 3 for p in r1.points)
        assert not r1.failures
        assert r1.point("0.2").mean > r1.point("0.8").mean

    def test_discretization_baseline_last(self):
        r = run_experiment_discretization(SMALL)
        assert [p.param for p in r.points] == ["2", "3", "5", "9", "21", "uniform"]
        assert r.point("3").mean >= r.point("uniform").mean - 5 * r.point("uniform").std

    def test_regularization_includes_free_point(self):
        r = run_experiment_regularization(SMALL)
        assert [p.param for p in r.points] == ["0.0", "0.125", "0.25", "0.5", "1.0", "2.0", "4.0"]
        assert not r.failures
        assert all(np.isfinite(p.mean) for p in r.points)

    def test_gaussian_closed_form_matches_newton_error(self):
        # the two solution paths give the same reconstruction error
        rng = np.random.default_rng(11)
        law = RootLaw.gaussian(1.0)
        truth = sample_ground_truth(16, 1.0, rng)
        pairs = erdos_renyi_graph(16, 0.5, rng)
        m = synthesize_comparisons(law, truth, pairs, rng)
        prior = PriorConfig(1.0)
        direct = map_estimate_gaussian(1.0, prior, m)
        newton, _ = map_estimate(law, prior, m, SolverOptions(tolerance=1e-12))
        e1 = norm_error(direct, truth)
        e2 = norm_error(newton, truth)
        assert abs(e1 - e2) < 1e-10

    def test_csv_outputs(self, tmp_path):
        r = run_experiment_sparsity(SMALL)
        written = r.write_csv(tmp_path)
        per_seed = (tmp_path / "sparsity_per_seed.csv").read_text().strip().splitlines()
        summary = (tmp_path / "sparsity_summary.csv").read_text().strip().splitlines()
        assert per_seed[0] == "param,seed,norm_error"
        assert summary[0] == "param,mean,std"
        assert len(per_seed) == 1 + 5 * 3
        assert len(summary) == 1 + 5
        assert len(written) == 2

    def test_isolated_alternatives_scored_zero(self):
        # a vertex with no comparisons keeps score exactly at the prior mode
        from gbtscore import ComparisonMatrix
        alts = default_alternatives(4)
        ids = alts.ids
        m = ComparisonMatrix(alts, [(ids[0], ids[1], 0.5)], law=RootLaw.uniform())
        vec, _ = map_estimate(RootLaw.uniform(), PriorConfig(0.5), m)
        assert vec.value_of(ids[2]) == 0.0
        assert vec.value_of(ids[3]) == 0.0
