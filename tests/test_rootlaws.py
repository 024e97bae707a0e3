"""Model catalog: cumulant identities, parsing, support, samplers."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gbtscore
from conftest import ALL_SPECS, bounded_series_mgf, oracle_moments, pochhammer
from gbtscore import Family, ParameterError, RootLaw, parse_model_spec
from gbtscore.rootlaws import _beta_moments, _beta_rule_size, _jacobi_rule

GRID = np.linspace(-8.0, 8.0, 161)


def all_laws():
    return [parse_model_spec(s) for s in ALL_SPECS]


class TestParameters:
    @pytest.mark.parametrize("bad", [
        lambda: RootLaw.knary(1), lambda: RootLaw.knary(0),
        lambda: RootLaw.poisson(0.0), lambda: RootLaw.poisson(-1.0),
        lambda: RootLaw.gaussian(0.0), lambda: RootLaw.gaussian(-0.5),
        lambda: RootLaw.beta_law(0.0), lambda: RootLaw.beta_law(-2.0),
        lambda: RootLaw.poisson(math.inf), lambda: RootLaw.gaussian(math.inf),
        lambda: RootLaw.beta_law(math.inf), lambda: RootLaw.beta_law(1e-17),
        lambda: RootLaw(Family.BERNOULLI, k=3), lambda: RootLaw(Family.UNIFORM, beta=2.0),
        lambda: RootLaw(Family.KNARY, k=5, lam=1.0),
        lambda: RootLaw(Family.POISSON, lam=True), lambda: RootLaw(Family.GAUSSIAN, sigma0_sq=True),
        lambda: RootLaw(Family.BETA, beta=True),
    ])
    def test_invalid_parameters_rejected(self, bad):
        with pytest.raises(ParameterError):
            bad()

    # spec, r_max, support kind, support points, contains on CONTAINS_PROBES
    DESCRIPTORS = [
        ("bernoulli", 1.0, "discrete", [-1.0, 1.0], [1, 1, 1, 0, 0, 0, 0]),
        ("knary:K=5", 1.0, "discrete", [-1.0, -0.5, 0.0, 0.5, 1.0], [1, 1, 1, 0, 0, 0, 0]),
        ("poisson:lambda=1.0", math.inf, "discrete", None, [1, 0, 1, 1, 0, 0, 0]),
        ("gaussian:sigma0sq=2.0", math.inf, "continuous", None, [1, 1, 1, 1, 1, 0, 0]),
        ("uniform", 1.0, "continuous", None, [1, 1, 1, 0, 0, 0, 0]),
        ("beta:beta=0.5", 1.0, "continuous", None, [1, 1, 1, 0, 0, 0, 0]),
        ("beta2", 1.0, "continuous", None, [1, 1, 1, 0, 0, 0, 0]),
    ]
    CONTAINS_PROBES = [-1.0, 0.5, 1.0, 2.0, 2.5, math.nan, math.inf]

    @pytest.mark.parametrize("spec,r_max,kind,points,inside", DESCRIPTORS,
                             ids=[row[0] for row in DESCRIPTORS])
    def test_descriptors(self, spec, r_max, kind, points, inside):
        law = parse_model_spec(spec)
        assert law.r_max == r_max
        assert law.is_bounded == math.isfinite(r_max)
        assert law.support_kind == kind
        pts = law.support_points()
        assert pts is None if points is None else np.array_equal(pts, points)
        probes = self.CONTAINS_PROBES
        assert np.array_equal(law.contains(np.array(probes)), np.array(inside, dtype=bool))
        assert [law.contains(r) for r in probes] == [bool(x) for x in inside]


class TestParsing:
    @pytest.mark.parametrize("text,family", [
        ("bernoulli", Family.BERNOULLI),
        ("KNARY:k=21", Family.KNARY),
        ("Poisson:Lambda=1.0", Family.POISSON),
        ("gaussian:sigma0sq=1.0", Family.GAUSSIAN),
        ("uniform", Family.UNIFORM),
        ("beta:beta=2.5", Family.BETA),
        ("BETA2", Family.BETA_TWO),
    ])
    def test_case_insensitive(self, text, family):
        assert parse_model_spec(text).family == family

    def test_round_trip(self):
        for spec in ALL_SPECS:
            law = parse_model_spec(spec)
            assert parse_model_spec(law.spec_string) == law
        # README's catalog strings in mixed case, spaced around '=', against
        # the laws their factories build
        for text, law in [("Bernoulli", RootLaw.bernoulli()), ("kNary:k = 21", RootLaw.knary(21)),
                          ("POISSON:Lambda = 1.0", RootLaw.poisson(1.0)),
                          ("Gaussian:SIGMA0SQ =1.0", RootLaw.gaussian(1.0)),
                          ("UniForm", RootLaw.uniform()), ("Beta:Beta= 2.5", RootLaw.beta_law(2.5)),
                          ("BeTa2", RootLaw.beta_two())]:
            parsed = parse_model_spec(text)
            assert parsed == law and hash(parsed) == hash(law)
            assert parsed.spec_string.lower() == text.lower().replace(" ", "")

    @pytest.mark.parametrize("text", [
        "", "frobnitz", "knary", "knary:N=3", "knary:K=2,K=3", "knary:K=two",
        "poisson", "poisson:rate=1", "gaussian:sigma=1", "beta", "uniform:x=1",
        "knary:K=2.5",
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(ParameterError):
            parse_model_spec(text)


_SPEC_NUMBERS = st.one_of(
    st.floats().map(repr), st.integers().map(str),
    st.sampled_from(["inf", "-inf", "nan", "1e-17", "1e400", "0", "2.5", "1_0", " 3 "]),
    st.text(max_size=8))


@given(st.one_of(
    st.text(max_size=30),
    st.builds(lambda head, value: f"{head}={value}",
              st.sampled_from(["knary:K", "poisson:lambda", "gaussian:sigma0sq", "beta:beta",
                               "Beta:BETA", "uniform:x", "poisson:beta"]),
              _SPEC_NUMBERS)))
@settings(max_examples=300, deadline=None)
def test_parse_model_spec_raises_only_parameter_errors(text):
    try:
        law = parse_model_spec(text)
    except ParameterError:
        return
    params = [p for p in (law.lam, law.sigma0_sq, law.beta) if p is not None]
    assert all(0.0 < p < math.inf for p in params)
    assert parse_model_spec(law.spec_string) == law


class TestCumulantInvariants:
    """Structural facts: Phi(0)=0, even/odd symmetry, positivity, bounds."""

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_zero_at_origin(self, spec):
        law = parse_model_spec(spec)
        assert abs(law.cumulant(0.0)) <= 1e-15
        assert law.cumulant_prime(0.0) == 0.0

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_grid_invariants(self, spec):
        law = parse_model_spec(spec)
        phi = law.cumulant(GRID)
        assert np.all(phi >= -1e-15)
        assert np.abs(phi - law.cumulant(-GRID)).max() <= 1e-12
        dphi = law.cumulant_prime(GRID)
        assert np.array_equal(dphi, -law.cumulant_prime(-GRID))
        assert np.all(np.diff(dphi) > 0)  # strictly increasing
        ddphi = law.cumulant_double_prime(GRID)
        assert np.all(ddphi > 0)
        if law.is_bounded:
            assert np.all(np.abs(dphi) <= 1.0)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_finite_difference_consistency(self, spec):
        law = parse_model_spec(spec)
        h = 1e-5
        pts = np.linspace(-6.0, 6.0, 25)
        fd1 = (law.cumulant(pts + h) - law.cumulant(pts - h)) / (2 * h)
        assert np.abs(fd1 - law.cumulant_prime(pts)).max() <= 1e-6
        fd2 = (law.cumulant_prime(pts + h) - law.cumulant_prime(pts - h)) / (2 * h)
        assert np.abs(fd2 - law.cumulant_double_prime(pts)).max() <= 1e-6

    def test_bounded_saturation(self):
        # the mean map climbs monotonically toward the domain edge (1 is only
        # reached once the gap falls below float resolution)
        for spec in ("bernoulli", "knary:K=5", "uniform", "beta:beta=2.5", "beta2"):
            law = parse_model_spec(spec)
            pts = np.array([3.0, 5.0, 8.0, 12.0])
            vals = law.cumulant_prime(pts)
            assert np.all(np.diff(vals) > 0)
            assert vals[-1] > 0.8
            assert vals[-1] <= 1.0
            assert law.cumulant_prime(60.0) <= 1.0
            assert law.cumulant_prime(60.0) > 0.95


class TestCumulantValues:
    def test_bernoulli_at_zero(self):
        assert RootLaw.bernoulli().cumulant(0.0) == 0.0
        assert RootLaw.bernoulli().cumulant_double_prime(0.0) == 1.0

    def test_gaussian_closed_form(self):
        law = RootLaw.gaussian(1.0)
        assert law.cumulant(2.0) == 2.0
        law17 = RootLaw.gaussian(1.7)
        theta = np.linspace(-5, 5, 11)
        assert np.allclose(law17.cumulant(theta), 0.85 * theta ** 2, rtol=0, atol=0)
        assert np.all(law17.cumulant_double_prime(theta) == 1.7)

    def test_binary_equals_two_level(self):
        two = RootLaw.knary(2)
        bern = RootLaw.bernoulli()
        assert abs(two.cumulant(1.3) - bern.cumulant(1.3)) <= 1e-12
        assert np.abs(two.cumulant(GRID) - bern.cumulant(GRID)).max() <= 1e-12

    def test_uniform_frozen_values(self):
        # extended-precision evaluations of log(sinh t / t) and coth t - 1/t
        law = RootLaw.uniform()
        assert law.cumulant(1.0) == pytest.approx(0.16143936157119563, rel=1e-14)
        assert law.cumulant_prime(1.0) == pytest.approx(0.3130352854993313, rel=1e-14)
        assert law.cumulant_prime(0.0) == 0.0

    def test_bernoulli_mean_is_win_probability_margin(self):
        # at tilt t the mean tanh(t) matches p(+1) - p(-1) with p(+1) = e^t / (e^t + e^-t)
        for t in (0.0, 0.7, -1.3):
            p_win = math.exp(t) / (math.exp(t) + math.exp(-t))
            assert RootLaw.bernoulli().cumulant_prime(t) == pytest.approx(2 * p_win - 1, abs=1e-15)

    def test_beta3_frozen_tilted_variance(self):
        # adaptive quadrature of the two moment integrals at 40-digit precision
        law = RootLaw.beta_law(3.0)
        assert law.cumulant_double_prime(0.7) == pytest.approx(0.13959315029723859, rel=1e-13)
        assert law.cumulant_prime(0.7) == pytest.approx(0.09923198402246804, rel=1e-13)

    def test_three_level_tilted_pmf_moments(self):
        # tilted pmf at t=1 is proportional to (e^-1, 1, e) on {-1, 0, 1}
        law = RootLaw.knary(3)
        z = math.exp(-1) + 1 + math.exp(1)
        mean = (math.exp(1) - math.exp(-1)) / z
        second = (math.exp(1) + math.exp(-1)) / z
        assert law.cumulant(1.0) == pytest.approx(math.log(z / 3), rel=1e-14)
        assert law.cumulant_prime(1.0) == pytest.approx(mean, rel=1e-14)
        assert law.cumulant_double_prime(1.0) == pytest.approx(second - mean ** 2, rel=1e-14)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_oracle_equivalence(self, spec):
        law = parse_model_spec(spec)
        for theta in np.linspace(-8, 8, 33):
            phi, mean, var = oracle_moments(law, float(theta))
            # the normalizer itself is held to a tighter bar than its derivatives
            assert law.cumulant(theta) == pytest.approx(phi, rel=1e-12, abs=1e-12)
            assert law.cumulant_prime(theta) == pytest.approx(mean, rel=1e-10, abs=1e-10)
            assert law.cumulant_double_prime(theta) == pytest.approx(var, rel=1e-10, abs=1e-10)

    def test_beta_series_variants(self):
        """The printed product-index variants of the series disagree with
        quadrature; the rescaled series with the k-term Pochhammer product
        (bounded_series_mgf) matches it."""
        b, theta = 2.0, 1.7
        _, _, _ = oracle_moments(RootLaw.beta_law(b), theta)
        z_quad = math.exp(oracle_moments(RootLaw.beta_law(b), theta)[0])
        good = bounded_series_mgf(b, theta)
        assert good == pytest.approx(z_quad, rel=1e-12)
        assert RootLaw.beta_law(b).cumulant(theta) == pytest.approx(math.log(good), rel=1e-12)

        def even_series(prod_upper):
            total = 1.0
            for k in range(1, 40):
                total += (pochhammer(b, prod_upper(k)) / pochhammer(2 * b, prod_upper(k))
                          * theta ** (2 * k) / math.factorial(2 * k))
            return total

        variant_2k = even_series(lambda k: 2 * k + 1)   # product up to n = 2k
        variant_k = even_series(lambda k: k + 1)        # product up to n = k
        assert abs(variant_2k - z_quad) > 1e-3
        assert abs(variant_k - z_quad) > 1e-3

    def test_beta_one_matches_uniform_and_beta_two(self):
        theta = np.linspace(-6, 6, 13)
        assert np.allclose(RootLaw.beta_law(1.0).cumulant(theta),
                           RootLaw.uniform().cumulant(theta), rtol=0, atol=1e-12)
        assert np.allclose(RootLaw.beta_law(2.0).cumulant(theta),
                           RootLaw.beta_two().cumulant(theta), rtol=0, atol=1e-12)


# 0, a tiny tilt, every branch switch of the series/direct/asymptotic forms
# (0.2, 0.5, 1, 30, 500) and the edge of exp's range
MOMENT_POINTS = (0.0, 1e-12, 0.2, 0.5, 1.0, 3.0, 8.0, 30.0, 500.0, 700.0)


class TestTiltedMoments:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_matches_oracle(self, spec):
        law = parse_model_spec(spec)
        points = MOMENT_POINTS
        if law.family == Family.POISSON:
            # the oracle's integer grid grows like lambda e^|t|
            points = tuple(p for p in points if p <= 12.0) + (12.0,)
        for magnitude in points:
            for theta in (magnitude, -magnitude):
                _, mean, var = oracle_moments(law, theta)
                got_mean, got_var = law.tilted_moments(theta)
                assert isinstance(got_mean, float) and isinstance(got_var, float)
                assert got_mean == pytest.approx(mean, rel=1e-9, abs=1e-13)
                assert got_var == pytest.approx(var, rel=1e-9, abs=1e-13)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_array_form_and_views(self, spec):
        law = parse_model_spec(spec)
        theta = np.array([-30.0, -1.0, -1e-12, 0.0, 0.2, 0.5, 1.0, 30.0])
        mean, var = law.tilted_moments(theta)
        assert mean.shape == var.shape == theta.shape
        assert np.array_equal(mean, law.cumulant_prime(theta))
        assert np.array_equal(var, law.cumulant_double_prime(theta))
        assert np.array_equal(mean, -law.tilted_moments(-theta)[0])
        assert np.all(var >= 0.0)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_two_dimensional_tilts_match_row_by_row(self, spec):
        law = parse_model_spec(spec)
        # every row's largest tilt is in [2, 3), so beta sizes one rule for all
        theta = np.array([[-2.5, 0.0, 0.1, 1.7], [2.9, -1e-3, 0.6, -0.2],
                          [2.0, 1e-8, -1.4, 0.25]])
        mean, var = law.tilted_moments(theta)
        phi = law.cumulant(theta)
        assert mean.shape == var.shape == phi.shape == (3, 4)
        rows = [(*law.tilted_moments(row), law.cumulant(row)) for row in theta]
        # beta's moment sums are one matmul, whose rounding may depend on the
        # number of columns; its tiny-tilt mean is only good to ~1e-16 absolute
        tol = 1e-14 if law.family == Family.BETA else 0.0
        for got, want in zip((mean, var, phi), zip(*rows)):
            np.testing.assert_allclose(got, np.array(want), rtol=tol, atol=0.1 * tol)

    @pytest.mark.parametrize("theta", [30.0, 700.0])
    def test_knary_variance_keeps_relative_precision_at_large_tilts(self, theta):
        # Phi''(700) is about 2.5e-153, so only a relative test sees an
        # absolute error of 1e-21 (or one of 2e-19 at theta=30)
        law = RootLaw.knary(5)
        _, mean, var = oracle_moments(law, theta)
        got_mean, got_var = law.tilted_moments(theta)
        assert got_mean == pytest.approx(mean, rel=1e-12, abs=0.0)
        assert got_var == pytest.approx(var, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("spec", ["bernoulli", "knary:K=5", "poisson:lambda=1.0",
                                      "gaussian:sigma0sq=1.0", "uniform", "beta2"])
    def test_small_tilt_mean_keeps_relative_precision(self, spec):
        # Phi'(t) = Phi''(0) t + O(t^3): no cancellation at tiny tilts
        law = parse_model_spec(spec)
        slope = law.tilted_moments(0.0)[1]
        for t in (1e-12, 1e-9, 1e-6):
            assert law.tilted_moments(t)[0] == pytest.approx(slope * t, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("k", [3, 5, 21])
    def test_knary_matches_oracle_around_the_series_cut_off(self, k):
        # langevin_pair switches from its series at 0.2, reached by K x at
        # theta = 0.2 (K-1)/K and by x at theta = 0.2 (K-1), x = theta/(K-1)
        law = RootLaw.knary(k)
        for cut in (0.2 * (k - 1) / k, 0.2 * (k - 1)):
            for factor in (0.7, 0.9, 0.99, 0.999, 1.001, 1.01, 1.1, 1.3):
                theta = cut * factor
                _, mean, var = oracle_moments(law, theta)
                got_mean, got_var = law.tilted_moments(theta)
                assert got_mean == pytest.approx(mean, rel=1e-13, abs=0.0), theta
                assert got_var == pytest.approx(var, rel=1e-13, abs=0.0), theta

    @pytest.mark.parametrize("size", [4095, 4096, 4097, 2 * 4096 + 5])
    def test_blocked_quadrature_matches_unblocked(self, size):
        law = RootLaw.beta_law(2.5)
        a = np.abs(np.random.default_rng(size).normal(0.0, 3.0, size))
        x, w, wsum = _jacobi_rule(2.5, _beta_rule_size(a.max()))
        table = np.exp((x - 1.0)[:, None] * a)
        sums = np.stack([w, w * x, w * x * x]) @ table
        mean = sums[1] / sums[0]
        expected = (np.log(sums[0]) + a - math.log(wsum), mean, sums[2] / sums[0] - mean * mean,
                    np.log(w @ table) + a - math.log(wsum))
        got = (*_beta_moments(a, law), _beta_moments(a, law, full=False))
        for g, e in zip(got, expected):
            if size <= 4096:
                # one block: the very same products as the unblocked table
                assert np.array_equal(g, e)
            else:
                # BLAS may round a short tail block differently (a few ulp)
                np.testing.assert_allclose(g, e, rtol=1e-12, atol=1e-14)

    def test_beta_phi_matches_full_pass(self):
        law = RootLaw.beta_law(0.7)
        theta = np.linspace(-40.0, 40.0, 81)
        full = _beta_moments(np.abs(theta), law)[0]
        assert np.allclose(law.cumulant(theta), full, rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("spec", ["bernoulli", "knary:K=2", "knary:K=5", "knary:K=21",
                                      "poisson:lambda=1.0", "gaussian:sigma0sq=1.0",
                                      "uniform", "beta2"])
    def test_batch_independence(self, spec):
        # each tilt takes its branch (series cut-offs at 0.2 and 0.5, knary's at
        # (K - 1) times those, beta2's at 1 and 500) from its own value alone,
        # so its values do not depend on the tilts that share the call
        law = parse_model_spec(spec)
        km1 = law.k - 1 if law.k else 1
        edges = np.array([0.2, 0.5, 1.0, 500.0, 0.2 * km1, 0.5 * km1])
        near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
        tilts = np.concatenate([[0.0], near, np.geomspace(1e-8, 3e3, 31 - near.size)])
        tilts = np.concatenate([tilts, -tilts])
        others = np.array([1e-3, -1e-3, 30.0, -30.0, 1e4, -1e4])
        with np.errstate(all="ignore"):  # poisson overflows at 1e4
            for t in tilts:
                alone = (law.cumulant(np.array([t])), *law.tilted_moments(np.array([t])))
                batch = (law.cumulant(np.append(t, others)),
                         *law.tilted_moments(np.append(t, others)))
                for a, b in zip(alone, batch):
                    assert a.tobytes() == b[:1].tobytes(), (t, a, b[:1])


class TestSupportPoints:
    def test_five_level_grid(self):
        assert np.array_equal(RootLaw.knary(5).support_points(),
                              np.array([-1.0, -0.5, 0.0, 0.5, 1.0]))

    def test_binary_grid(self):
        assert np.array_equal(RootLaw.bernoulli().support_points(),
                              np.array([-1.0, 1.0]))

    def test_continuous_absent(self):
        for spec in ("uniform", "gaussian:sigma0sq=1.0", "beta:beta=2.5", "beta2",
                     "poisson:lambda=1.0"):
            assert parse_model_spec(spec).support_points() is None

    def test_contains(self):
        assert RootLaw.uniform().contains(1.0)
        assert not RootLaw.uniform().contains(1.0001)
        assert RootLaw.poisson(1.0).contains(-3.0)
        assert not RootLaw.poisson(1.0).contains(0.5)
        assert RootLaw.gaussian(1.0).contains(1e6)
        assert not RootLaw.gaussian(1.0).contains(math.inf)


class TestSampling:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    @pytest.mark.parametrize("tilt", [-2.0, 0.0, 2.0])
    def test_moments_match(self, spec, tilt):
        law = parse_model_spec(spec)
        rng = np.random.default_rng(ALL_SPECS.index(spec) * 17 + int(tilt) + 3)
        n = 20_000
        draws = law.sample_comparison(tilt, rng, size=n)
        mean, var = law.cumulant_prime(tilt), law.cumulant_double_prime(tilt)
        z = (draws.mean() - mean) / math.sqrt(var / n)
        assert abs(z) < 5.0
        assert draws.var(ddof=1) == pytest.approx(var, rel=0.1)

    @pytest.mark.parametrize("tilt", [20.0, -20.0])
    def test_poisson_samples_at_large_tilts(self, tilt):
        # lambda e^20 ~ 4.9e8: every draw sits on the tilt's side, and the
        # draws' mean matches Phi'(tilt)
        law = RootLaw.poisson(1.0)
        rng = np.random.default_rng(20)
        n = 2000
        draws = law.sample_comparison(tilt, rng, size=n)
        mean, var = law.tilted_moments(tilt)
        assert np.all(np.sign(draws) == math.copysign(1.0, tilt))
        assert np.all(draws == np.round(draws))
        assert abs(draws.mean() - mean) <= 5.0 * math.sqrt(var / n)

    def test_poisson_moments_at_tilt_8(self):
        law = RootLaw.poisson(1.0)
        rng = np.random.default_rng(8)
        n = 20_000
        draws = law.sample_comparison(8.0, rng, size=n)
        mean, var = law.tilted_moments(8.0)
        assert abs(draws.mean() - mean) <= 5.0 * math.sqrt(var / n)
        sample_var = draws.var(ddof=1)
        fourth = float(np.mean((draws - draws.mean()) ** 4))
        se_var = math.sqrt(max(fourth - sample_var ** 2 * (n - 3) / (n - 1), 1e-300) / n)
        assert abs(sample_var - var) <= 5.0 * se_var

    @pytest.mark.parametrize("tilt", [50.0, -800.0])
    def test_poisson_rate_beyond_numpy_range_rejected(self, tilt):
        # lambda e^50 ~ 5e21 exceeds numpy's Poisson range; e^800 overflows
        law = RootLaw.poisson(1.0)
        with pytest.raises(ParameterError, match=f"tilt {tilt:g}"):
            law.sample_comparison(np.array([0.5, tilt]), np.random.default_rng(0))

    @pytest.mark.parametrize("spec", ["bernoulli", "knary:K=5", "poisson:lambda=1.0",
                                      "gaussian:sigma0sq=1.0", "uniform"])
    @pytest.mark.parametrize("tilt", [math.nan, math.inf, -math.inf])
    def test_non_finite_tilt_rejected(self, spec, tilt):
        law = parse_model_spec(spec)
        with pytest.raises(ParameterError, match="tilt must be finite"):
            law.sample_comparison(np.array([0.5, tilt]), np.random.default_rng(0))
        with pytest.raises(ParameterError, match="tilt must be finite"):
            law.sample_comparison(tilt, np.random.default_rng(0), size=3)

    def test_non_finite_tilt_rejected_by_rejection_samplers(self):
        # the beta samplers' accept test is never true at a non-finite tilt,
        # so a missing check loops forever: run it in a child under a timeout
        code = (
            "import numpy as np\n"
            "from gbtscore import ParameterError, parse_model_spec\n"
            "for spec in ('beta:beta=2.5', 'beta2'):\n"
            "    for tilt in (float('nan'), float('inf'), float('-inf')):\n"
            "        try:\n"
            "            parse_model_spec(spec).sample_comparison(\n"
            "                np.array([0.5, tilt]), np.random.default_rng(0))\n"
            "        except ParameterError:\n"
            "            continue\n"
            "        raise SystemExit(f'{spec} sampled at tilt {tilt}')\n")
        src = str(Path(gbtscore.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=30)
        assert done.returncode == 0, done.stderr

    def test_untilted_binary_is_fair(self):
        rng = np.random.default_rng(0)
        draws = RootLaw.knary(2).sample_comparison(0.0, rng, size=20_000)
        assert set(np.unique(draws)) == {-1.0, 1.0}
        assert abs(draws.mean()) < 5.0 / math.sqrt(20_000)

    def test_three_level_tilted_pmf(self):
        rng = np.random.default_rng(1)
        law = RootLaw.knary(3)
        draws = law.sample_comparison(1.0, rng, size=60_000)
        z = math.exp(-1) + 1 + math.exp(1)
        for value, p in ((-1.0, math.exp(-1) / z), (0.0, 1 / z), (1.0, math.exp(1) / z)):
            freq = np.mean(draws == value)
            assert freq == pytest.approx(p, abs=5 * math.sqrt(p * (1 - p) / 60_000))

    def test_gaussian_shifted_law(self):
        # completing the square: the tilted law is normal with mean sigma0^2 * t
        rng = np.random.default_rng(2)
        law = RootLaw.gaussian(1.7)
        draws = law.sample_comparison(1.5, rng, size=50_000)
        assert draws.mean() == pytest.approx(1.7 * 1.5, abs=5 * math.sqrt(1.7 / 50_000))
        assert draws.var(ddof=1) == pytest.approx(1.7, rel=0.05)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_values_in_support(self, spec):
        law = parse_model_spec(spec)
        rng = np.random.default_rng(3)
        draws = law.sample_comparison(1.0, rng, size=500)
        assert all(law.contains(r) for r in draws)

    def test_call_shapes(self):
        law = RootLaw.uniform()
        rng = np.random.default_rng(4)
        assert isinstance(law.sample_comparison(0.3, rng), float)
        assert law.sample_comparison(0.3, rng, size=7).shape == (7,)
        tilts = np.array([[0.1, -0.4], [2.0, 0.0]])
        out = law.sample_comparison(tilts, rng)
        assert out.shape == tilts.shape
        with pytest.raises(ParameterError):
            law.sample_comparison(tilts, rng, size=3)

    def test_array_tilts_follow_their_own_means(self):
        law = RootLaw.bernoulli()
        rng = np.random.default_rng(5)
        tilts = np.repeat([-1.5, 1.5], 20_000)
        draws = law.sample_comparison(tilts, rng)
        lo, hi = draws[:20_000].mean(), draws[20_000:].mean()
        assert lo == pytest.approx(math.tanh(-1.5), abs=0.02)
        assert hi == pytest.approx(math.tanh(1.5), abs=0.02)


@given(st.floats(min_value=-40, max_value=40, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_cumulant_symmetry_property(theta):
    for law in (RootLaw.bernoulli(), RootLaw.knary(9), RootLaw.uniform(), RootLaw.beta_two()):
        assert law.cumulant(theta) == law.cumulant(-theta)
        assert law.cumulant_prime(theta) == -law.cumulant_prime(-theta)
        assert law.cumulant(theta) >= 0.0
        assert law.cumulant_double_prime(theta) >= 0.0
