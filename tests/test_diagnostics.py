"""Diagnostics: monotone steps, resilience probes, neutral comparisons."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import ALL_SPECS, BOUNDED_SPECS
from gbtscore import (AlternativeSet, ComparisonEdit, ComparisonMatrix, EditError,
                      EditKind, Family, MonotoneStepResult, PriorConfig, ResilienceProbeConfig,
                      RootLaw, SolverOptions, SupportError, check_monotone_step,
                      hessian, map_estimate, measure_resilience,
                      monotonicity_sweep, neutral_comparison, parse_model_spec,
                      resilience_bound, write_probe_csv)
from gbtscore import diagnostics, solver
from gbtscore.sim import (default_alternatives, erdos_renyi_graph, sample_ground_truth,
                          synthesize_comparisons)

TIGHT = SolverOptions(tolerance=1e-11)


def instance(law, n, edge_prob, seed):
    rng = np.random.default_rng(seed)
    while True:
        pairs = erdos_renyi_graph(n, edge_prob, rng)
        if pairs[0].size:
            break
    truth = sample_ground_truth(n, 1.0, rng)
    return synthesize_comparisons(law, truth, pairs, rng)


def public_re_solve(law, prior, matrix, base, pair, delta, options):
    """The step raising ``pair`` by ``delta`` as a warm re-solve of the edit
    through the public API, from the base solve ``base``."""
    base_vec, base_rep = base
    value = matrix.value(*pair)
    bumped = matrix.apply_edit(ComparisonEdit(EditKind.CHANGE, pair, value + delta))
    new_vec, new_rep = map_estimate(law, prior, bumped, options, initial=base_vec)
    err = base_rep.certified_error + new_rep.certified_error
    if not math.isfinite(err):
        err = 0.0  # unregularized solves carry no certified bound
    margin = new_vec.value_of(pair[0]) - base_vec.value_of(pair[0])
    margin_other = new_vec.value_of(pair[1]) - base_vec.value_of(pair[1])
    return MonotoneStepResult(pair, delta, margin, margin_other, err,
                              margin > 10.0 * err, abs(margin) > 10.0 * err)


def re_solved_probes(law, prior, config, base=None, cold=False):
    """The probes of ``measure_resilience`` as per-probe Newton re-solves from
    the base solution (from zero when ``cold``), drawn from the same random
    stream: (kind, pair, distance, l2 change, certified error of the edited
    solve) for each probe."""
    rng = np.random.default_rng(config.seed)
    fixed = base is not None
    base = base if fixed else diagnostics._random_base(law, prior, rng)
    per_base = max(1, config.n_probes // config.n_bases)
    probes = []
    base_vec, _ = map_estimate(law, prior, base)
    while len(probes) < config.n_probes:
        edited, kinds, pairs = base, [], []
        for _ in range(config.edits_per_probe):
            kind, pair, edited = diagnostics._random_edit(law, edited, rng)
            kinds.append(kind)
            pairs.append(pair)
        dist = base.edit_distance(edited)
        if dist == 0 or solver._closed_group(law, prior, edited) is not None:
            continue
        vec, rep = map_estimate(law, prior, edited, initial=None if cold else base_vec)
        probes.append(("+".join(kinds), ";".join(pairs), dist,
                       float(np.linalg.norm(vec.values - base_vec.values)), rep.certified_error))
        if not fixed and len(probes) % per_base == 0 and len(probes) < config.n_probes:
            base = diagnostics._random_base(law, prior, rng)
            base_vec, _ = map_estimate(law, prior, base)
    return probes


class TestConditionalMoments:
    def test_zero_tilt_zero_mean(self):
        for spec in ALL_SPECS:
            mean, var = parse_model_spec(spec).tilted_moments(0.0)
            assert mean == 0.0 and var > 0.0

    def test_gaussian_moments(self):
        mean, var = RootLaw.gaussian(1.7).tilted_moments(0.4)
        assert mean == pytest.approx(1.7 * 0.4, rel=1e-15)
        assert var == 1.7

    def test_three_level_moments(self):
        z = math.exp(-1) + 1 + math.exp(1)
        mean = (math.exp(1) - math.exp(-1)) / z
        var = (math.exp(1) + math.exp(-1)) / z - mean ** 2
        got = RootLaw.knary(3).tilted_moments(1.0)
        assert got[0] == pytest.approx(mean, rel=1e-14)
        assert got[1] == pytest.approx(var, rel=1e-14)


class TestMonotoneStep:
    def test_binary_flip_raises_winner(self):
        alts = AlternativeSet.from_ids(["w", "l", "m"])
        m = ComparisonMatrix(alts, [("w", "l", -1.0), ("l", "m", 1.0)])
        res = check_monotone_step(RootLaw.bernoulli(), PriorConfig(1.0), m,
                                  ("w", "l"), 2.0, TIGHT)
        assert res.passed
        assert res.margin > 0.1
        assert res.margin_other < -10 * res.certified_error

    def test_zero_step_rejected(self):
        m = ComparisonMatrix(AlternativeSet.from_ids(["w", "l"]), [("w", "l", 0.5)])
        with pytest.raises(EditError):
            check_monotone_step(RootLaw.uniform(), PriorConfig(1.0), m, ("w", "l"), 0.0)

    def test_step_must_stay_in_support(self):
        m = ComparisonMatrix(AlternativeSet.from_ids(["w", "l"]), [("w", "l", 0.9)])
        with pytest.raises(EditError):
            check_monotone_step(RootLaw.uniform(), PriorConfig(1.0), m, ("w", "l"), 0.5)

    def test_discrete_step_must_hit_grid(self):
        m = ComparisonMatrix(AlternativeSet.from_ids(["w", "l"]), [("w", "l", 0.0)])
        law = RootLaw.knary(5)
        with pytest.raises(EditError):
            check_monotone_step(law, PriorConfig(1.0), m, ("w", "l"), 0.3)
        res = check_monotone_step(law, PriorConfig(1.0), m, ("w", "l"), 0.5, TIGHT)
        assert res.passed

    def test_absent_pair_rejected(self):
        m = ComparisonMatrix(AlternativeSet.from_ids(["w", "l", "m"]), [("w", "l", 0.5)])
        with pytest.raises(Exception):
            check_monotone_step(RootLaw.uniform(), PriorConfig(1.0), m, ("w", "m"), 0.1)

    def test_gaussian_margin_matches_inverse_hessian(self):
        # for the linear model the margin is exactly (n_aa - n_ab) * delta
        law = RootLaw.gaussian(1.3)
        m = instance(law, 6, 0.8, 19)
        prior = PriorConfig(0.9)
        base, _ = map_estimate(law, prior, m, TIGHT)
        inv = np.linalg.inv(hessian(law, prior, m, base.values).toarray())
        a, b, _ = next(m.iter_entries())
        ia, ib = m.alternatives.index_of(a), m.alternatives.index_of(b)
        res = check_monotone_step(law, prior, m, (a, b), 0.4, TIGHT)
        assert res.margin == pytest.approx((inv[ia, ia] - inv[ia, ib]) * 0.4, abs=1e-8)
        assert res.margin_other == pytest.approx((inv[ib, ia] - inv[ib, ib]) * 0.4, abs=1e-8)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_sweep_all_strict(self, spec):
        law = parse_model_spec(spec)
        for seed in range(3):
            m = instance(law, 6, 0.7, 400 + seed)
            for res in monotonicity_sweep(law, PriorConfig(1.0), m):
                assert res.passed, (spec, res)
                assert res.margin_other < 0.0
                assert law.contains(m.value(*res.pair) + res.delta), (spec, res)

    def test_poisson_steps_by_one_beyond_the_truncated_grid(self):
        # values far in the tail at lambda=1 still step by one
        law = RootLaw.poisson(1.0)
        m = ComparisonMatrix(AlternativeSet.from_ids(["a", "b", "c"]),
                             [("a", "b", 20.0), ("b", "c", -20.0)], law=law)
        results = monotonicity_sweep(law, PriorConfig(1.0), m)
        assert [r.pair for r in results] == [("a", "b"), ("b", "c")]
        assert all(r.delta == 1.0 and r.passed for r in results)
        assert check_monotone_step(law, PriorConfig(1.0), m, ("a", "b"), 1.0).passed
        with pytest.raises(EditError):
            check_monotone_step(law, PriorConfig(1.0), m, ("a", "b"), 2.0)

    def test_reversed_pairs_match_a_public_re_solve(self):
        # every entry raised in both orientations, against the edit through
        # the public API, warm from the same base solve
        law, prior = RootLaw.uniform(), PriorConfig(1.0)
        m = instance(law, 6, 0.6, 33)
        base = map_estimate(law, prior, m, TIGHT)
        checked = 0
        for a, b, stored in m.iter_entries():
            for pair, value in (((a, b), stored), ((b, a), -stored)):
                delta = diagnostics._next_step(law, value, 0.25)
                if delta is None:
                    continue
                expected = public_re_solve(law, prior, m, base, pair, delta, TIGHT)
                assert check_monotone_step(law, prior, m, pair, delta, TIGHT) == expected
                checked += 1
        assert checked > 2 * m.num_pairs - 2


def counted_solves(monkeypatch):
    """Lists that fill with the map_estimate calls of the diagnostics drivers
    (base solves) and of the chord engine (rows it re-solved by Newton), as
    (matrix, initial) pairs."""
    solves, fallbacks = [], []

    def counted(into):
        def solve(law, prior, matrix, options=None, initial=None):
            into.append((matrix, initial))
            return map_estimate(law, prior, matrix, options, initial=initial)
        return solve

    monkeypatch.setattr(diagnostics, "map_estimate", counted(solves))
    monkeypatch.setattr(solver, "map_estimate", counted(fallbacks))
    return solves, fallbacks


def counted_sweep(monkeypatch, law, prior, matrix, options=None):
    """The sweep's results, its map_estimate calls and the results of the
    rows it re-solved by Newton."""
    solves, fallbacks = counted_solves(monkeypatch)
    results = monotonicity_sweep(law, prior, matrix, options)
    i, j, r = matrix.index_arrays
    ids = matrix.alternatives.ids
    raised = set()
    for edited, _ in fallbacks:
        pos = int(np.flatnonzero(edited.index_arrays[2] != r)[0])
        raised.add((ids[i[pos]], ids[j[pos]]))
    solves += fallbacks
    return results, solves, [res for res in results if res.pair in raised]


class TestBatchedSweep:
    @pytest.mark.parametrize("sigma_sq", [1.0, 1e4])
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_matches_per_entry_re_solves(self, monkeypatch, spec, sigma_sq):
        law, prior = parse_model_spec(spec), PriorConfig(sigma_sq)
        m = instance(law, 12, 0.5, 29)
        results, solves, fallbacks = counted_sweep(monkeypatch, law, prior, m)
        # the base solve, plus one warm re-solve per row that fell back
        assert len(solves) == 1 + len(fallbacks)
        base = map_estimate(law, prior, m)
        assert len(results) > 15
        for res in results:
            want = public_re_solve(law, prior, m, base, res.pair, res.delta, None)
            assert (res.pair, res.delta, res.passed, res.conclusive) == \
                (want.pair, want.delta, want.passed, want.conclusive)
            assert abs(res.margin - want.margin) <= res.certified_error + want.certified_error
            assert abs(res.margin_other - want.margin_other) <= \
                res.certified_error + want.certified_error

    def test_solves_the_base_once(self, monkeypatch):
        law = RootLaw.knary(5)
        m = instance(law, 30, 0.2, 29)
        results, solves, fallbacks = counted_sweep(monkeypatch, law, PriorConfig(1.0), m)
        assert len(results) > 30 and all(res.passed for res in results)
        assert len(solves) == 1 and not fallbacks

    def test_gaussian_rows_certify_after_one_chord_step(self, monkeypatch):
        # a constant Hessian makes the first chord step the exact answer
        law = RootLaw.gaussian(1.0)
        m = instance(law, 30, 0.2, 29)
        tilts = []
        moments = RootLaw.cumulant_prime

        def counted(self, theta):
            tilts.append(np.shape(theta))
            return moments(self, theta)

        monkeypatch.setattr(RootLaw, "cumulant_prime", counted)
        results, solves, _ = counted_sweep(monkeypatch, law, PriorConfig(1e4), m)
        assert len(solves) == 1 and len(results) == m.num_pairs
        # one stacked block of every row: its start, and the check after one step
        assert tilts == [(len(results) * m.num_pairs,)] * 2

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_block_size_does_not_change_results(self, monkeypatch, spec):
        law, prior = parse_model_spec(spec), PriorConfig(1.0)
        m = instance(law, 30, 0.2, 31)
        assert m.num_pairs < diagnostics._CHORD_BLOCK < 100 * m.num_pairs  # one block
        batched = monotonicity_sweep(law, prior, m)
        monkeypatch.setattr(diagnostics, "_CHORD_BLOCK", 1)
        single = monotonicity_sweep(law, prior, m)
        if law.family != Family.BETA:
            assert batched == single
            return
        # beta sizes its quadrature rule by the largest tilt in the call
        for b, s in zip(batched, single, strict=True):
            assert (b.pair, b.delta, b.passed, b.conclusive) == \
                (s.pair, s.delta, s.passed, s.conclusive)
            assert abs(b.margin - s.margin) <= b.certified_error + s.certified_error

    def test_fallback_rows_are_re_solves(self, monkeypatch):
        law, prior = RootLaw.knary(5), PriorConfig(1e4)
        m = instance(law, 30, 0.2, 29)
        results, solves, fallbacks = counted_sweep(monkeypatch, law, prior, m)
        assert 0 < len(fallbacks) < len(results)
        assert all(res in results for res in fallbacks)
        base = map_estimate(law, prior, m)
        for res in fallbacks:
            assert res == public_re_solve(law, prior, m, base, res.pair, res.delta, None)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_unregularized_sweep_matches_per_entry_re_solves(self, monkeypatch, spec):
        law, prior = parse_model_spec(spec), PriorConfig(math.inf)
        seed = next(s for s in itertools.count(29)
                    if solver._closed_group(law, prior, instance(law, 12, 0.5, s)) is None)
        m = instance(law, 12, 0.5, seed)
        results, solves, fallbacks = counted_sweep(monkeypatch, law, prior, m)
        # the base solve, plus one warm re-solve per row that fell back
        assert len(results) > 10 and len(solves) == 1 + len(fallbacks) < 1 + len(results)
        base = map_estimate(law, prior, m)
        for res in results:
            want = public_re_solve(law, prior, m, base, res.pair, res.delta, None)
            assert (res.pair, res.delta, res.passed, res.conclusive) == \
                (want.pair, want.delta, want.passed, want.conclusive)
            # no certificate without a prior: both stop on ||grad|| <= 1e-8, and
            # the margins, of order 0.1, agree to 6e-8 on these instances
            assert abs(res.margin - want.margin) <= 1e-6
            assert abs(res.margin_other - want.margin_other) <= 1e-6

    def test_unregularized_sweep_skips_a_step_with_no_finite_scores(self):
        # raising a0 over a2 to +1 would leave a0 winning all it has at the top
        law = RootLaw.knary(5)
        m = ComparisonMatrix(AlternativeSet.from_ids(["a0", "a1", "a2"]),
                             [("a0", "a1", 1.0), ("a0", "a2", 0.5), ("a1", "a2", 0.5)], law=law)
        results = monotonicity_sweep(law, PriorConfig(math.inf), m)
        assert [res.pair for res in results] == [("a1", "a2")]
        assert all(res.passed for res in results)
        assert len(monotonicity_sweep(law, PriorConfig(1.0), m)) == 2

    @pytest.mark.parametrize("sigma_sq", [1.0, 1e4])
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_cg_path_matches_dense_re_solves(self, monkeypatch, spec, sigma_sq):
        law, prior = parse_model_spec(spec), PriorConfig(sigma_sq)
        m = instance(law, 12, 0.5, 29)
        cg_calls = []
        real_cg = solver.sparse_cg

        def counted_cg(*args, **kwargs):
            cg_calls.append(1)
            return real_cg(*args, **kwargs)

        monkeypatch.setattr(solver, "_DENSE_LIMIT", 2)
        monkeypatch.setattr(solver, "sparse_cg", counted_cg)
        results = monotonicity_sweep(law, prior, m)
        monkeypatch.undo()
        assert cg_calls and len(results) > 15
        base = map_estimate(law, prior, m)
        for res in results:
            want = public_re_solve(law, prior, m, base, res.pair, res.delta, None)
            assert (res.pair, res.delta, res.passed, res.conclusive) == \
                (want.pair, want.delta, want.passed, want.conclusive)
            assert abs(res.margin - want.margin) <= res.certified_error + want.certified_error
            assert abs(res.margin_other - want.margin_other) <= \
                res.certified_error + want.certified_error

    def test_unchanged_value_is_an_edit_error(self):
        # 1e17 + 0.25 rounds back to 1e17, which the splice rejects
        law = RootLaw.gaussian(1.0)
        m = ComparisonMatrix(AlternativeSet.from_ids(["a", "b", "c"]),
                             [("a", "b", 1.0), ("b", "c", 1e17)], law=law)
        with pytest.raises(EditError, match="must alter"):
            monotonicity_sweep(law, PriorConfig(1.0), m, SolverOptions(tolerance=1e30))


class TestResilience:
    @pytest.mark.parametrize("spec", BOUNDED_SPECS)
    def test_bounded_families_respect_bound(self, spec):
        law = parse_model_spec(spec)
        prior = PriorConfig(1.0)
        probe = measure_resilience(law, prior, ResilienceProbeConfig(n_probes=40, seed=8))
        assert probe.bound == pytest.approx(4.0 * math.sqrt(2.0))
        assert 0.0 < probe.observed_ratio < probe.bound
        assert len(probe.records) == 40
        assert all(r.delta_distance == 1 for r in probe.records)

    def test_edit_probes_warm_start_from_the_base(self, monkeypatch):
        # chord rows start at the base solution, and so does the Newton
        # re-solve of a row that stalls
        law, prior = RootLaw.knary(5), PriorConfig(1.0)
        base = instance(law, 30, 0.2, 29)
        config = ResilienceProbeConfig(n_probes=20, seed=3)
        solves, fallbacks = counted_solves(monkeypatch)
        probe = measure_resilience(law, prior, config, base=base)
        monkeypatch.undo()
        base_vec, _ = map_estimate(law, prior, base)
        assert [m for m, _ in solves] == [base] and 0 < len(fallbacks) < 20
        assert all(np.array_equal(initial, base_vec.values) for _, initial in fallbacks)
        warm = sum(map_estimate(law, prior, m, initial=x)[1].iterations for m, x in fallbacks)
        cold = sum(map_estimate(law, prior, m)[1].iterations for m, _ in fallbacks)
        assert warm < cold
        want = re_solved_probes(law, prior, config, base, cold=True)
        for rec, (kind, pair, dist, change, _) in zip(probe.records, want, strict=True):
            assert (rec.edit_kind, rec.pair, rec.delta_distance) == (kind, pair, dist)
            assert rec.l2_change == pytest.approx(change, rel=0.0, abs=4e-8)

    def test_multi_edit_probes(self):
        law = RootLaw.uniform()
        probe = measure_resilience(law, PriorConfig(1.0),
                                   ResilienceProbeConfig(n_probes=15, edits_per_probe=3, seed=9))
        assert max(r.delta_distance for r in probe.records) > 1
        assert probe.observed_ratio < probe.bound

    def test_bound_scales_with_prior_variance(self):
        law = RootLaw.uniform()
        assert resilience_bound(law, PriorConfig(2.0)) == pytest.approx(8.0 * math.sqrt(2.0))
        assert resilience_bound(RootLaw.gaussian(1.0), PriorConfig(1.0)) == math.inf
        assert resilience_bound(RootLaw.poisson(1.0), PriorConfig(1.0)) == math.inf
        assert resilience_bound(law, PriorConfig(math.inf)) == math.inf

    def test_gaussian_scaling_grows_without_bound(self):
        law = RootLaw.gaussian(1.0)
        probe = measure_resilience(
            law, PriorConfig(1.0),
            ResilienceProbeConfig(seed=8, scaling_factors=(10.0, 100.0, 1000.0)))
        ratios = [r.ratio for r in probe.records]
        assert ratios == sorted(ratios)
        assert ratios[-1] > 10.0 * ratios[0]
        assert probe.bound == math.inf

    def test_probe_csv_format(self, tmp_path):
        law = RootLaw.knary(21)
        probe = measure_resilience(law, PriorConfig(1.0),
                                   ResilienceProbeConfig(n_probes=5, seed=10))
        path = tmp_path / "probes.csv"
        write_probe_csv(probe, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "edit_kind,pair,delta_distance,l2_change,ratio,bound"
        assert len(lines) == 6


class TestResilienceChord:
    @pytest.mark.parametrize("cg", [False, True], ids=["dense", "cg"])
    @pytest.mark.parametrize("sigma_sq", [1.0, 1e4, math.inf])
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_matches_per_probe_re_solves(self, monkeypatch, spec, sigma_sq, cg):
        law, prior = parse_model_spec(spec), PriorConfig(sigma_sq)
        config = ResilienceProbeConfig(n_probes=12, n_bases=2, seed=4)
        if cg:
            monkeypatch.setattr(solver, "_DENSE_LIMIT", 2)
        solves, fallbacks = counted_solves(monkeypatch)
        probe = measure_resilience(law, prior, config)
        # one solve per base, plus one re-solve from its solution per row that stalled
        starts = [map_estimate(law, prior, m)[0].values for m, _ in solves]
        monkeypatch.undo()
        assert len(starts) == 2 and len(fallbacks) <= 12
        assert all(any(np.array_equal(x, s) for s in starts) for _, x in fallbacks)
        want = re_solved_probes(law, prior, config)
        for rec, (kind, pair, dist, change, err) in zip(probe.records, want, strict=True):
            assert (rec.edit_kind, rec.pair, rec.delta_distance) == (kind, pair, dist)
            # each chord row stops within the tolerance; without a prior there
            # is no certificate, and both stop on ||grad|| <= 1e-8
            slack = 1e-6 if math.isinf(sigma_sq) else SolverOptions().tolerance + err
            assert abs(rec.l2_change - change) <= slack

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_block_size_does_not_change_records(self, monkeypatch, spec):
        law, prior = parse_model_spec(spec), PriorConfig(1.0)
        base = instance(law, 12, 0.5, 29)
        config = ResilienceProbeConfig(n_probes=20, seed=6)
        batched = measure_resilience(law, prior, config, base=base)
        monkeypatch.setattr(diagnostics, "_CHORD_BLOCK", 1)
        single = measure_resilience(law, prior, config, base=base)
        if law.family != Family.BETA:
            assert batched == single
            return
        # beta sizes its quadrature rule by the largest tilt in the call
        for b, s in zip(batched.records, single.records, strict=True):
            assert (b.edit_kind, b.pair, b.delta_distance) == \
                (s.edit_kind, s.pair, s.delta_distance)
            assert abs(b.l2_change - s.l2_change) <= 2 * SolverOptions().tolerance


def table_random_edit(law, matrix, rng):
    """The A x A table enumeration of edits that ``_random_edit`` replaced:
    present pairs in sorted key order, absent ones in row-major i < j order."""
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
        return ComparisonEdit(EditKind.ADD, pair, diagnostics._random_value(law, rng))
    k = rng.integers(present_i.size)
    pair = (ids[present_i[k]], ids[present_j[k]])
    if kind == EditKind.REMOVE:
        return ComparisonEdit(EditKind.REMOVE, pair)
    old = matrix.value(*pair)
    while True:
        value = diagnostics._random_value(law, rng)
        if value != old:
            return ComparisonEdit(EditKind.CHANGE, pair, value)


class TestRandomEdits:
    @pytest.mark.parametrize("spec", ["uniform", "knary:K=3"])
    @pytest.mark.parametrize("n, edge_prob", [(2, 1.0), (6, 1.0), (12, 0.15), (30, 0.05)])
    def test_matches_the_table_enumeration(self, spec, n, edge_prob):
        law = parse_model_spec(spec)
        for seed in range(25):
            matrix = instance(law, n, edge_prob, seed)
            mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                edit = table_random_edit(law, matrix, theirs)
                kind, pair, edited = diagnostics._random_edit(law, matrix, mine)
                assert (kind, pair) == (edit.kind.value, "|".join(edit.pair))
                matrix = matrix.apply_edit(edit)
                assert edited == matrix
            assert mine.bit_generator.state == theirs.bit_generator.state

    def test_edit_allocates_no_alternatives_squared_table(self):
        # an A x A boolean table alone would take 16 MB here
        rng = np.random.default_rng(5)
        n = 4000
        lo, hi = np.sort(rng.integers(0, n, size=(2, 41_000)), axis=0)
        keys = np.unique((lo * n + hi)[lo < hi])
        law = RootLaw.uniform()
        m = ComparisonMatrix(default_alternatives(n), law=law,
                             indices=(keys // n, keys % n, rng.uniform(-1.0, 1.0, keys.size)))
        assert m.num_pairs > 39_000
        kinds = set()
        tracemalloc.start()
        try:
            for _ in range(10):
                tracemalloc.reset_peak()
                kind, _, _ = diagnostics._random_edit(law, m, rng)
                assert tracemalloc.get_traced_memory()[1] < 8_000_000, kind
                kinds.add(kind)
        finally:
            tracemalloc.stop()
        assert kinds == {"add", "remove", "change"}

    def test_every_edit_keeps_its_support_check(self):
        # Poisson data admits only integers; Gaussian edits are not
        base = instance(RootLaw.poisson(1.0), 8, 0.6, 3)
        gaussian = RootLaw.gaussian(1.0)
        with pytest.raises(SupportError):
            monotonicity_sweep(gaussian, PriorConfig(1.0), base)
        with pytest.raises(SupportError):
            measure_resilience(gaussian, PriorConfig(1.0),
                               ResilienceProbeConfig(n_probes=20, seed=0), base=base)


class TestNeutralComparison:
    def test_symmetric_instance_neutral_zero(self):
        alts = AlternativeSet.from_ids(["p", "q", "s"])
        # p and s both beat q by the same margin: exchangeable, so
        # theta_p = theta_s and the neutral value for the new pair is 0
        m = ComparisonMatrix(alts, [("p", "q", 0.5), ("q", "s", -0.5)])
        value = neutral_comparison(RootLaw.uniform(), PriorConfig(1.0), m, ("p", "s"), TIGHT)
        assert abs(value) < 1e-9

    def test_binary_neutral_is_tanh_of_difference(self):
        law = RootLaw.bernoulli()
        m = instance(law, 6, 0.6, 21)
        ids = m.alternatives.ids
        pair = None
        for i in range(6):
            for j in range(i + 1, 6):
                if not m.has_pair(ids[i], ids[j]):
                    pair = (ids[i], ids[j])
                    break
            if pair:
                break
        if pair is None:
            pytest.skip("random instance is complete")
        solved, _ = map_estimate(law, PriorConfig(1.0), m, TIGHT)
        value = neutral_comparison(law, PriorConfig(1.0), m, pair, TIGHT)
        assert value == pytest.approx(math.tanh(solved.difference(*pair)), abs=1e-10)

    def test_round_trip_and_direction(self):
        law = RootLaw.uniform()
        alts = AlternativeSet.from_ids(["p", "q", "s", "t"])
        m = ComparisonMatrix(alts, [("p", "q", 0.6), ("q", "s", -0.2), ("s", "t", 0.4),
                                    ("p", "t", 0.1)])
        prior = PriorConfig(1.0)
        pair = ("p", "s")
        base, _ = map_estimate(law, prior, m, TIGHT)
        value = neutral_comparison(law, prior, m, pair, TIGHT)
        with_neutral = m.with_entries(list(m.iter_entries()) + [(*pair, value)])
        again, _ = map_estimate(law, prior, with_neutral, TIGHT)
        assert np.abs(again.values - base.values).max() <= 10 * 1e-11

        up = m.with_entries(list(m.iter_entries()) + [(*pair, min(value + 0.1, 1.0))])
        up_vec, _ = map_estimate(law, prior, up, TIGHT)
        assert up_vec.value_of("p") > base.value_of("p")
        down = m.with_entries(list(m.iter_entries()) + [(*pair, max(value - 0.1, -1.0))])
        down_vec, _ = map_estimate(law, prior, down, TIGHT)
        assert down_vec.value_of("p") < base.value_of("p")

    def test_existing_pair_rejected(self):
        m = ComparisonMatrix(AlternativeSet.from_ids(["p", "q"]), [("p", "q", 0.5)])
        with pytest.raises(EditError):
            neutral_comparison(RootLaw.uniform(), PriorConfig(1.0), m, ("q", "p"))
