from importlib import resources
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gspbias.config import load_config, parse_distribution
from gspbias.errors import GridMismatch, RankUnreachable
from gspbias.oracle import (
    CaseGrid,
    ScoreDistribution,
    check_splittable,
    conditional_density_profile,
    conditional_mean_profile,
    rank_prob_given_score,
    rank_table,
    split_histogram_densities,
    top_rank_decomposition,
)

U01 = ScoreDistribution.uniform(0.0, 1.0)

with resources.as_file(resources.files("gspbias") / "configs" / "theorems.cfg") as _path:
    PACKAGED_BETAS = sorted({spec for case in load_config(_path).payload.cases
                             for spec in case.dist_specs if spec.startswith("beta")})


def enumerated_rank_prob(F: np.ndarray, candidate: int, rank: int) -> np.ndarray:
    """Reference P(rank | s): sum over every set of rank-1 rivals that beat s."""
    rivals = [j for j in range(F.shape[0]) if j != candidate]
    out = np.zeros(F.shape[1])
    for beat_set in combinations(rivals, rank - 1):
        term = np.ones(F.shape[1])
        for j in rivals:
            term = term * ((1.0 - F[j]) if j in beat_set else F[j])
        out += term
    return out


uniforms = st.tuples(st.floats(0.0, 1.0), st.floats(0.01, 1.0)).map(
    lambda lw: ScoreDistribution.uniform(lw[0], lw[0] + lw[1]))
betas = st.tuples(st.floats(0.5, 8.0), st.floats(0.5, 60.0), st.floats(0.1, 2.0)).map(
    lambda abc: ScoreDistribution.scaled_beta(*abc))


class TestScoreDistribution:
    @pytest.mark.parametrize("dist", [
        U01,
        ScoreDistribution.uniform(0.2, 0.8),
        ScoreDistribution.scaled_beta(2, 38),
        ScoreDistribution.scaled_beta(3, 30, 1.4),
        ScoreDistribution.from_grid(np.linspace(0, 1, 201),
                                    np.exp(-0.5 * ((np.linspace(0, 1, 201) - 0.4) / 0.1) ** 2)),
    ])
    def test_pdf_normalized_and_cdf_monotone(self, dist):
        s = np.linspace(0, dist.upper, 20001)
        # trapezoid integration carries O(h) error at pdf jump points, so
        # the normalization check is loose; the CDF endpoints are exact
        total = np.trapezoid(dist.pdf(s), s)
        assert total == pytest.approx(1.0, abs=1e-4)
        cdf = dist.cdf(s)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[0] == pytest.approx(0.0, abs=1e-9)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-9)
        assert np.all(dist.pdf(s) >= 0)

    # the packaged shapes, and three whose density is not 0 at an end of the
    # support, where only the support mask keeps the density 0 beyond it
    @pytest.mark.parametrize("spec", PACKAGED_BETAS + ["beta:0.8:3:1.3", "beta:2:0.7",
                                                       "beta:1:1:2"])
    def test_beta_matches_scipy_stats(self, spec):
        """Bit for bit what scipy.stats.beta gives, on and off the support."""
        a, b, *rest = (float(x) for x in spec.split(":")[1:])
        scale = rest[0] if rest else 1.0
        dist = parse_distribution(spec)
        s = np.concatenate([np.linspace(-0.1 * scale, 1.1 * scale, 131_073),
                            [0.0, scale, -scale, 2.0 * scale]])
        u = np.concatenate([[0.0, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53],
                            np.random.default_rng(3).random(50_000)])
        np.testing.assert_array_equal(dist.pdf(s), stats.beta.pdf(s / scale, a, b) / scale)
        np.testing.assert_array_equal(dist.cdf(s), stats.beta.cdf(s / scale, a, b))
        np.testing.assert_array_equal(dist.ppf(u), stats.beta.ppf(u, a, b) * scale)

    def test_ppf_inverts_cdf(self):
        dist = ScoreDistribution.scaled_beta(2, 38, 1.2)
        u = np.linspace(0.01, 0.99, 99)
        np.testing.assert_allclose(dist.cdf(dist.ppf(u)), u, atol=1e-9)

    def test_negative_support_rejected(self):
        with pytest.raises(ValueError):
            ScoreDistribution.uniform(-0.5, 1.0)

    def test_from_histogram_matches_grid(self):
        left = np.array([0.0, 0.1, 0.2])
        right = left + 0.1
        count = np.array([10, 30, 10])
        dist = ScoreDistribution.from_histogram(left, right, count)
        assert dist.cdf(0.301) == pytest.approx(1.0, abs=1e-9)
        # mass concentrates in the middle bin
        assert dist.pdf(0.15) > dist.pdf(0.05)


class TestRankProbGivenScore:
    def test_no_competitors_always_rank_one(self):
        assert rank_prob_given_score([U01], 0, 1, 0.3) == pytest.approx(1.0)

    def test_two_iid_uniform(self):
        # the only rival is below s with probability s
        assert rank_prob_given_score([U01, U01], 0, 1, 0.7) == pytest.approx(0.7)
        assert rank_prob_given_score([U01, U01], 0, 2, 0.7) == pytest.approx(0.3)

    def test_three_iid_uniform_middle_rank(self):
        value = rank_prob_given_score([U01] * 3, 0, 2, 0.5)
        assert value == pytest.approx(2 * 0.5 * 0.5)

    def test_three_iid_uniform_against_monte_carlo(self):
        """Subset-sum probabilities match empirical rank frequencies."""
        rng = np.random.default_rng(31)
        draws = rng.random((1_000_000, 3))
        s = 0.35
        draws[:, 0] = s
        ranks = np.argsort(np.argsort(-draws, axis=1, kind="stable"), axis=1)[:, 0]
        for k in (1, 2, 3):
            expected = rank_prob_given_score([U01] * 3, 0, k, s)
            freq = np.mean(ranks == k - 1)
            se = np.sqrt(expected * (1 - expected) / len(draws))
            assert abs(freq - expected) < 4 * max(se, 1e-6)

    def test_normalization_over_ranks(self):
        dists = [ScoreDistribution.scaled_beta(2, 38),
                 ScoreDistribution.uniform(0, 0.2),
                 ScoreDistribution.scaled_beta(4, 40, 0.9)]
        grid = np.linspace(0, 1.0, 1000)
        total = sum(rank_prob_given_score(dists, 0, k, grid) for k in (1, 2, 3))
        np.testing.assert_allclose(total, 1.0, atol=1e-9)

    def test_thirteen_iid_uniform_closed_form(self):
        """No ad cap: 13 iid uniforms give binomial rank chances and
        E[score | rank k] = (m - k + 1) / (m + 1)."""
        m, s = 13, 0.37
        for k in range(1, m + 1):
            expected = comb(m - 1, k - 1) * (1 - s) ** (k - 1) * s ** (m - k)
            assert rank_prob_given_score([U01] * m, 0, k, s) == pytest.approx(expected,
                                                                              abs=1e-14)
        profile = conditional_mean_profile([U01] * m, 0)
        np.testing.assert_allclose(profile.marginals, 1 / m, atol=1e-12)
        np.testing.assert_allclose(profile.conditional_means,
                                   [(m - k + 1) / (m + 1) for k in range(1, m + 1)],
                                   atol=1e-12)

    def test_values_are_probabilities_and_marginal_matches_profile(self):
        grid = np.linspace(0, 1, 101)
        values = rank_prob_given_score([U01, U01], 0, 1, grid)
        assert np.all((0 <= values) & (values <= 1))
        marginals = conditional_mean_profile([U01, U01], 0).marginals
        assert marginals[0] == pytest.approx(0.5, abs=1e-9)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            rank_prob_given_score([U01, U01], 0, 3, 0.5)


class TestRankTable:
    @settings(max_examples=150, deadline=None)
    @given(dists=st.lists(st.one_of(uniforms, betas), min_size=1, max_size=8),
           s=st.lists(st.floats(0.0, 2.5), min_size=1, max_size=5),
           data=st.data())
    def test_recursion_matches_enumeration(self, dists, s, data):
        candidate = data.draw(st.integers(0, len(dists) - 1))
        F = np.vstack([d.cdf(np.asarray(s)) for d in dists])
        table = rank_table(F, candidate)
        for rank in range(1, len(dists) + 1):
            np.testing.assert_allclose(table[rank - 1],
                                       enumerated_rank_prob(F, candidate, rank),
                                       rtol=0, atol=1e-12)

    def test_case_grid_matches_plain_list(self):
        dists = [ScoreDistribution.scaled_beta(2, 38), ScoreDistribution.uniform(0, 0.12),
                 ScoreDistribution.scaled_beta(4, 40, 0.9)]
        grid = CaseGrid(dists)
        assert len(grid) == 3
        for i in range(3):
            from_list = conditional_mean_profile(dists, i)
            from_grid = conditional_mean_profile(grid, i)
            np.testing.assert_array_equal(from_grid.marginals, from_list.marginals)
            np.testing.assert_array_equal(from_grid.conditional_means,
                                          from_list.conditional_means)
            assert top_rank_decomposition(grid, i) == top_rank_decomposition(dists, i)


class TestConditionalScoreMean:
    def test_two_iid_uniform_order_statistic_means(self):
        means = conditional_mean_profile([U01, U01], 0).conditional_means
        np.testing.assert_allclose(means, [2 / 3, 1 / 3], atol=1e-9)

    def test_non_overlapping_supports_are_deterministic(self):
        """With disjoint supports the rank is fixed, so conditioning changes nothing.

        Tolerance reflects the fixed grid's O(h) behavior at pdf jumps that
        fall between quadrature nodes.
        """
        low = ScoreDistribution.uniform(0.0, 0.4)
        high = ScoreDistribution.uniform(0.6, 1.0)
        low_means = conditional_mean_profile([low, high], 0).conditional_means
        high_means = conditional_mean_profile([low, high], 1).conditional_means
        assert low_means[1] == pytest.approx(0.2, abs=2e-5)
        assert high_means[0] == pytest.approx(0.8, abs=2e-5)
        # rank 1 is unreachable for the low ad, rank 2 for the high one
        assert np.isnan(low_means[0]) and np.isnan(high_means[1])

    def test_four_iid_beta_means_nonincreasing_in_rank(self):
        dists = [ScoreDistribution.scaled_beta(2, 38)] * 4
        profile = conditional_mean_profile(dists, 0)
        means = profile.conditional_means
        assert np.all(np.diff(means) <= 1e-9)
        # cross-check against Monte Carlo with 4-sigma bands
        rng = np.random.default_rng(32)
        draws = rng.beta(2, 38, size=(400_000, 4))
        ranks = np.argsort(np.argsort(-draws, axis=1, kind="stable"), axis=1)[:, 0]
        for k in range(4):
            sel = draws[ranks == k, 0]
            se = sel.std(ddof=1) / np.sqrt(len(sel))
            assert abs(sel.mean() - means[k]) < 4 * se

    def test_marginals_sum_to_one(self):
        dists = [ScoreDistribution.scaled_beta(2, 38),
                 ScoreDistribution.scaled_beta(3, 37, 1.2)]
        profile = conditional_mean_profile(dists, 0)
        assert profile.marginals.sum() == pytest.approx(1.0, abs=1e-6)
        # exactly one of the two ads is on top
        other = conditional_mean_profile(dists, 1)
        assert profile.marginals[0] + other.marginals[0] == pytest.approx(1.0, abs=1e-6)


class TestCheckSplittable:
    def test_identical_grids_split_at_first_bin(self):
        f = np.array([0.2, 0.5, 0.3])
        verdict = check_splittable(f, f.copy())
        assert verdict.splittable and verdict.split_index == 0

    def test_equal_variance_bells_cross_at_mean_midpoint(self):
        x = np.linspace(0, 0.1, 2001)
        sd = 0.01
        f = np.exp(-0.5 * ((x - 0.05) / sd) ** 2)
        g = np.exp(-0.5 * ((x - 0.045) / sd) ** 2)
        verdict = check_splittable(f, g)
        assert verdict.splittable
        assert x[verdict.split_index] == pytest.approx(0.0475, abs=x[1] - x[0])

    def test_triple_crossing_not_splittable(self):
        x = np.linspace(0, 1, 801)
        g = np.exp(-0.5 * ((x - 0.5) / 0.15) ** 2)
        f = 0.62 * (np.exp(-0.5 * ((x - 0.3) / 0.08) ** 2)
                    + np.exp(-0.5 * ((x - 0.7) / 0.08) ** 2))
        diff_signs = np.sign(f - g)
        crossings = np.count_nonzero(np.diff(diff_signs[diff_signs != 0]))
        assert crossings >= 3  # construction sanity: direct scan sees 3+ sign changes
        assert not check_splittable(f, g).splittable

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatch):
            check_splittable(np.ones(5), np.ones(6))

    def test_histogram_wrapper_requires_shared_edges(self):
        edges = np.linspace(0, 1, 11)
        with pytest.raises(GridMismatch):
            split_histogram_densities(edges, np.ones(10), edges + 0.01, np.ones(10))

    def test_histogram_wrapper_tolerates_sampling_noise(self):
        rng = np.random.default_rng(33)
        a = rng.normal(0.05, 0.003, 20000)
        b = rng.normal(0.045, 0.003, 20000)
        edges = np.linspace(0.03, 0.07, 41)
        ca, _ = np.histogram(a, edges)
        cb, _ = np.histogram(b, edges)
        verdict = split_histogram_densities(edges, ca, edges, cb)
        assert verdict.splittable


SIX_AD_FIELD = [ScoreDistribution.scaled_beta(2, 38), ScoreDistribution.scaled_beta(3, 37),
                ScoreDistribution.scaled_beta(2.5, 40, 1.2), ScoreDistribution.uniform(0, 0.12),
                ScoreDistribution.scaled_beta(2, 30, 0.8), ScoreDistribution.uniform(0.01, 0.09)]


class TestTopRankDecomposition:
    @pytest.mark.parametrize("dists", [
        [U01, U01],
        [ScoreDistribution.scaled_beta(2, 38), ScoreDistribution.scaled_beta(3, 37, 1.2),
         ScoreDistribution.uniform(0, 0.12)],
        SIX_AD_FIELD,
    ])
    def test_zero_residual_and_monotone_parts(self, dists):
        grid = CaseGrid(dists)
        for i in range(len(dists)):
            dec = top_rank_decomposition(grid, i)
            assert abs(dec.residual) < 1e-6
            assert dec.plus_monotone and dec.minus_monotone

    def test_leave_one_out_sum_from_ranks_one_and_two(self):
        """sum_l prod_{j != l} F_j over the rivals equals P2 + (m - 1) P1."""
        s = np.linspace(0, 1.3, 2001)
        F = np.vstack([d.cdf(s) for d in SIX_AD_FIELD])
        for i in range(len(SIX_AD_FIELD)):
            rivals = [j for j in range(len(SIX_AD_FIELD)) if j != i]
            loo = sum(np.prod(F[[j for j in rivals if j != l]], axis=0) for l in rivals)
            p1, p2 = rank_table(F, i)[:2]
            np.testing.assert_allclose(p2 + len(rivals) * p1, loo, rtol=0, atol=1e-14)

    def test_single_ad_unsupported(self):
        with pytest.raises(RankUnreachable):
            top_rank_decomposition([U01], 0)


class TestHistogramInterop:
    def test_oracle_consumes_emitted_histogram_files(self, tmp_path):
        """Histogram CSVs written by the metrics side round-trip into a usable
        score distribution for the oracle."""
        from gspbias.metrics import build_histogram
        from gspbias.reports import read_histogram_csv, write_histogram_csv

        rng = np.random.default_rng(34)
        samples = rng.beta(2, 38, 50_000)
        hist = build_histogram(samples, 0.002)
        path = tmp_path / "scores.csv"
        write_histogram_csv(path, hist)
        left, right, count = read_histogram_csv(path)
        dist = ScoreDistribution.from_histogram(left, right, count)
        grid = np.linspace(0, dist.upper, 4001)
        assert np.trapezoid(dist.pdf(grid), grid) == pytest.approx(1.0, abs=1e-3)
        # windowed mean of the rebuilt density tracks the sample mean
        est_mean = np.trapezoid(grid * dist.pdf(grid), grid)
        assert est_mean == pytest.approx(samples.mean(), abs=2e-3)


class TestConditionalDensityProfile:
    def test_rows_integrate_to_one_and_split(self):
        dists = [ScoreDistribution.scaled_beta(2, 38)] * 3
        s, dens = conditional_density_profile(dists, 0)
        for k in range(3):
            assert np.trapezoid(dens[k], s) == pytest.approx(1.0, abs=1e-6)
        for k in range(2):
            assert check_splittable(dens[k], dens[k + 1], 0.0).splittable
