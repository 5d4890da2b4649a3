import statistics
import warnings
from importlib import resources
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import _ufuncs

from gspbias.config import load_config, parse_distribution
from gspbias.engine import sample_rank_stats
from gspbias.errors import GridMismatch, RankUnreachable
from gspbias.oracle import (
    _CDF_REL_ERR,
    _NEWTON_TOL,
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

    def test_shared_table_matches_own_tables(self):
        """One table serves all three profiles with the bytes each builds alone."""
        grid = CaseGrid([ScoreDistribution.scaled_beta(2, 38), ScoreDistribution.uniform(0, 0.12),
                         ScoreDistribution.scaled_beta(4, 40, 0.9)])
        for i in range(3):
            table = rank_table(grid.cdf, i)
            own, shared = conditional_mean_profile(grid, i), conditional_mean_profile(grid, i, table)
            np.testing.assert_array_equal(shared.marginals, own.marginals)
            np.testing.assert_array_equal(shared.conditional_means, own.conditional_means)
            assert top_rank_decomposition(grid, i, table=table) == top_rank_decomposition(grid, i)
            nodes, dens = conditional_density_profile(grid, i, table)
            assert dens is table  # normalized in place
            np.testing.assert_array_equal(dens, conditional_density_profile(grid, i)[1])


# u values the grid draws must also get right: zero, far below the grid's
# first CDF node, and the largest uniform Generator.random returns
EXTREME_U = [0.0, 5e-324, 1e-300, 1e-12, 2.0 ** -53, 0.5, 1 - 1e-12, 1 - 2.0 ** -53]
_SPREAD = np.random.default_rng(8)
SPREAD_U = np.concatenate([_SPREAD.random(2000),
                           np.exp(_SPREAD.uniform(np.log(1e-300), 0.0, 500)),
                           np.minimum(1 - np.exp(_SPREAD.uniform(np.log(2.0 ** -53), 0.0, 500)),
                                      1 - 2.0 ** -53)])


class TestCaseGridPpf:
    @settings(max_examples=40, deadline=None)
    @given(a=st.floats(0.2, 80.0), b=st.floats(0.2, 80.0), scale=st.floats(0.05, 3.0),
           stretch=st.floats(1.0, 3.0),
           u=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=50))
    def test_draws_match_exact_inverse(self, a, b, scale, stretch, u):
        beta = ScoreDistribution.scaled_beta(a, b, scale)
        # a uniform rival stretches the case grid past the beta's scale
        grid = CaseGrid([ScoreDistribution.uniform(0.0, scale * stretch), beta])
        u = np.concatenate([u, EXTREME_U, SPREAD_U])
        with warnings.catch_warnings():
            # boost's root finder gives up on some shapes at u = 1e-300, with a
            # warning, in the exact inverse that both sides then call
            warnings.filterwarnings("ignore", "Error in function boost", RuntimeWarning)
            drawn = grid.ppf(1, u)
            exact = _ufuncs._beta_ppf(u, a, b) * scale
        np.testing.assert_allclose(drawn, exact, rtol=0, atol=1e-7)

    def test_uniform_ads_keep_closed_form(self):
        uniform = ScoreDistribution.uniform(0.2, 0.7)
        grid = CaseGrid([uniform, ScoreDistribution.scaled_beta(2, 38)])
        np.testing.assert_array_equal(grid.ppf(0, SPREAD_U), uniform.ppf(SPREAD_U))

    def test_packaged_betas_stay_on_the_newton_path(self, monkeypatch):
        """Lattice uniforms on the packaged betas fall back to the exact inverse
        only in the outermost cells."""
        for spec in PACKAGED_BETAS:
            dist = parse_distribution(spec)
            grid = CaseGrid([dist])
            fallbacks = []
            monkeypatch.setattr(dist, "_ppf", lambda v, f=dist._ppf: fallbacks.append(v) or f(v))
            u = np.random.default_rng(3).random(200_000)
            grid.ppf(0, u)
            assert sum(len(v) for v in fallbacks) <= 2, spec

    def test_packaged_betas_make_no_betainc_call(self, monkeypatch):
        """Once the grid is built, its beta draws never evaluate the beta CDF."""
        for spec in PACKAGED_BETAS:
            grid = CaseGrid([parse_distribution(spec)])
            calls = []
            monkeypatch.setattr(_ufuncs, "betainc",
                                lambda *args, f=_ufuncs.betainc: calls.append(args) or f(*args))
            grid.ppf(0, np.random.default_rng(4).random(200_000))
            assert not calls, spec
            grid.dists[0].cdf(0.05)  # the counter does see a CDF evaluation
            assert len(calls) == 1
            monkeypatch.undo()

    @pytest.mark.parametrize("spec", PACKAGED_BETAS + [
        "beta:0.3:0.5", "beta:0.2:30:2", "beta:60:0.4:0.7", "beta:80:80:0.05", "beta:1:1:3"])
    def test_safe_cells_meet_the_newton_tolerance(self, spec):
        """A draw from a safe cell leaves a CDF residual, over the density, of at
        most _NEWTON_TOL of the ad's scale plus what CDF rounding allows."""
        dist = parse_distribution(spec)
        a, b, scale = dist.params
        # a uniform rival stretches the case grid past the beta's scale
        grid = CaseGrid([dist, ScoreDistribution.uniform(0.0, 1.5 * scale)])
        u = np.concatenate([SPREAD_U, np.random.default_rng(5).random(100_000)])
        from_safe = grid.safe[0][np.searchsorted(grid.cdf[0], u, side="right")]
        assert from_safe.mean() > 0.5
        with warnings.catch_warnings():
            # boost's root finder gives up on some shapes at u = 1e-300, in the
            # exact inverse that unsafe cells call
            warnings.filterwarnings("ignore", "Error in function boost", RuntimeWarning)
            x = grid.ppf(0, u)[from_safe] / scale
        pdf = _ufuncs._beta_pdf(x, a, b)
        residual = np.abs(_ufuncs.betainc(a, b, x) - u[from_safe]) / pdf
        assert np.all(residual <= _NEWTON_TOL + _CDF_REL_ERR / pdf), residual.max()

    @pytest.mark.parametrize("a, b, upper", [
        (0.5, 3.0, 1.0), (3.0, 0.5, 1.0), (0.3, 0.4, 1.0), (2.0, 38.0, 1.0),
        # a density positive and finite at a support end that is a grid node
        (1.0, 3.0, 0.8), (3.0, 1.0, 0.8)])
    def test_outermost_and_singular_cells_take_the_exact_inverse(self, a, b, upper):
        dist = ScoreDistribution.scaled_beta(a, b, 0.8)
        grid = CaseGrid([dist, ScoreDistribution.uniform(0.0, upper)])
        F, safe = grid.cdf[0], grid.safe[0]
        first = np.flatnonzero(F > 0.0)[0]       # cell `first` starts at a node with F = 0
        top = np.flatnonzero(F < 1.0)[-1] + 1    # cell `top` ends at a node with F = 1
        assert not safe[first] and not safe[top:].any()
        # next to a singular end the density is unbounded and the error rule fails
        assert a >= 1.0 or not safe[first + 1]
        assert b >= 1.0 or not safe[top - 1]
        u = np.concatenate([[0.0, 5e-324, 1e-300, 1.0 - 2.0 ** -53],
                            np.linspace(0.0, F[first], 50, endpoint=False),
                            np.minimum(np.linspace(F[top - 1], 1.0, 50), 1.0 - 2.0 ** -53)])
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "Error in function boost", RuntimeWarning)
            drawn, n_exact = grid.draw(0, u)
            exact = dist.ppf(u)
        assert n_exact == len(u)
        np.testing.assert_array_equal(drawn, exact)


# A 16-ad field of mixed betas and staggered uniforms, and its seed, fixed
# before the test was first run.
SIXTEEN_ADS = ["beta:2:38", "uniform:0:0.1", "beta:3:37:1.2", "uniform:0.01:0.08",
               "beta:2.5:40:0.8", "uniform:0:0.12", "beta:4:60:1.1", "uniform:0.02:0.1",
               "beta:2:30:0.8", "uniform:0:0.09", "beta:5:45:1.5", "uniform:0.005:0.11",
               "beta:4:36:0.9", "uniform:0.03:0.07", "beta:3:30:1.1", "uniform:0:0.1"]
SIXTEEN_SEED = 16
MC_FAMILY_FALSE_ALARM = 1e-4  # bench/run.py's Bonferroni gate


def test_monte_carlo_agrees_with_quadrature_at_sixteen_ads():
    grid = CaseGrid([parse_distribution(spec) for spec in SIXTEEN_ADS])
    mc = sample_rank_stats(grid, 1 << 18, SIXTEEN_SEED)
    deviations = []
    for i in range(len(grid)):
        means = conditional_mean_profile(grid, i).conditional_means
        reachable = means[~np.isnan(means)]
        assert np.all(np.diff(reachable) <= 1e-6), i  # E[score | rank] never rises
        for k in np.flatnonzero(mc.counts[i] >= 1000):
            deviations.append(abs(mc.means[i, k] - means[k]) / mc.std_errors[i, k])
    bound = statistics.NormalDist().inv_cdf(1 - MC_FAMILY_FALSE_ALARM / (2 * len(deviations)))
    assert len(deviations) >= 100
    assert max(deviations) <= bound


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
