import numpy as np
import pytest
from scipy import special

from gspbias.errors import NoData
from gspbias.estimators import (
    CountWindow,
    PoolHyperParams,
    binomial_estimate,
    fit_pool,
    naive_contextual_estimate,
    pooled_estimate,
)


class TestBinomialEstimate:
    def test_zero_clicks(self):
        assert binomial_estimate(0, 5000) == 0.0

    def test_all_clicks(self):
        assert binomial_estimate(5000, 5000) == 1.0

    def test_zero_impressions_raises(self):
        with pytest.raises(NoData):
            binomial_estimate(0, 0)

    def test_clicks_above_impressions_raises(self):
        with pytest.raises(ValueError):
            binomial_estimate(6, 5)

    def test_unbiased_under_binomial_clicks(self):
        """Averaged over many draws the estimate centers on the true rate."""
        rng = np.random.default_rng(21)
        p, n, reps = 0.05, 5000, 20000
        draws = rng.binomial(n, p, reps)
        estimates = np.array([binomial_estimate(int(c), n) for c in draws[:200]])
        assert np.all((0 <= estimates) & (estimates <= 1))
        mean = draws.mean() / n
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(mean - p) < 4 * sigma / np.sqrt(reps)


class TestCountWindow:
    def test_direct_aggregation(self):
        w = CountWindow(14)
        w.advance_to(0)
        w.add(0, (1, 1, 1), 2, 100)
        w.advance_to(1)
        w.add(1, (1, 1, 1), 1, 100)
        assert naive_contextual_estimate(w, 1, 1, 1) == pytest.approx(3 / 200)

    def test_eviction_leaves_no_data(self):
        w = CountWindow(14)
        w.advance_to(0)
        w.add(0, (1, 1, 1), 2, 100)
        w.advance_to(20)  # day 0 left the window
        with pytest.raises(NoData):
            naive_contextual_estimate(w, 1, 1, 1)

    def test_streaming_matches_bruteforce_log(self):
        """After 30 streamed days the window equals a sum over the last 14 only."""
        rng = np.random.default_rng(22)
        log = []  # (day, key, clicks, impressions)
        w = CountWindow(14)
        keys = [(ad, site, pos) for ad in (1, 2) for site in (1, 2) for pos in (1,)]
        for day in range(31):
            w.advance_to(day)
            for key in keys:
                n = int(rng.integers(0, 50))
                c = int(rng.binomial(n, 0.05)) if n else 0
                if n:
                    w.add(day, key, c, n)
                    log.append((day, key, c, n))
        for key in keys:
            c_ref = sum(c for d, k, c, n in log if k == key and 17 <= d <= 30)
            n_ref = sum(n for d, k, c, n in log if k == key and 17 <= d <= 30)
            assert w.totals(key) == (c_ref, n_ref)
            if n_ref:
                assert naive_contextual_estimate(w, *key) == pytest.approx(c_ref / n_ref)

    def test_same_day_order_does_not_matter(self):
        events = [((1, 1, 1), 1, 30), ((1, 1, 1), 0, 20), ((2, 1, 1), 2, 40)]
        w1, w2 = CountWindow(7), CountWindow(7)
        for w, order in ((w1, events), (w2, events[::-1])):
            w.advance_to(5)
            for key, c, n in order:
                w.add(5, key, c, n)
        assert w1.totals((1, 1, 1)) == w2.totals((1, 1, 1))
        assert w1.totals((2, 1, 1)) == w2.totals((2, 1, 1))

    def test_add_outside_window_rejected(self):
        w = CountWindow(3)
        w.advance_to(10)
        with pytest.raises(ValueError):
            w.add(7, (1, 1, 1), 0, 5)
        with pytest.raises(ValueError):
            w.add(11, (1, 1, 1), 0, 5)

    def test_ad_totals_pool_contexts(self):
        w = CountWindow(7)
        w.advance_to(0)
        w.add(0, (1, 1, 1), 1, 10)
        w.add(0, (1, 2, 1), 2, 30)
        w.add(0, (2, 1, 1), 0, 5)
        assert w.ad_totals() == {1: (3, 40), 2: (0, 5)}


def grid_mle_mean(counts):
    """Brute-force beta-binomial fit: grid search over (alpha, beta)."""
    alphas = np.linspace(0.1, 20, 120)
    betas = np.linspace(1, 400, 160)
    best, best_ll = None, -np.inf
    c = np.array([x[0] for x in counts], dtype=float)
    n = np.array([x[1] for x in counts], dtype=float)
    for a in alphas:
        for b in betas:
            ll = np.sum(special.betaln(a + c, b + n - c) - special.betaln(a, b))
            if ll > best_ll:
                best_ll, best = ll, (a, b)
    return best[0] / (best[0] + best[1])


class TestFitPool:
    def test_zero_variance_falls_back(self):
        hyper = fit_pool({1: (5, 100), 2: (5, 100), 3: (5, 100)})
        assert (hyper.alpha, hyper.beta) == (1.0, 19.0)

    def test_no_data_raises(self):
        with pytest.raises(NoData):
            fit_pool({})
        with pytest.raises(NoData):
            fit_pool({1: (0, 0)})

    def test_two_ad_mean_matches_grid_mle(self):
        """Moment fit's prior mean agrees with a brute-force likelihood grid."""
        counts = {1: (200, 5000), 2: (300, 5000)}
        hyper = fit_pool(counts)
        assert hyper.prior_mean == pytest.approx(0.05, abs=1e-12)
        assert grid_mle_mean(list(counts.values())) == pytest.approx(0.05, abs=0.01)

    def test_recovery_of_generating_prior(self):
        """Fitted pseudo-counts land near the prior that generated the ads."""
        rng = np.random.default_rng(23)
        a_true, b_true, n = 2.0, 38.0, 5000
        ctrs = rng.beta(a_true, b_true, 200)
        totals = {i: (int(rng.binomial(n, p)), n) for i, p in enumerate(ctrs)}
        hyper = fit_pool(totals)
        assert hyper.alpha == pytest.approx(a_true, rel=0.25)
        assert hyper.beta == pytest.approx(b_true, rel=0.25)

    def test_positive_params_enforced(self):
        with pytest.raises(ValueError):
            PoolHyperParams(0.0, 19.0)


class TestPooledEstimate:
    def test_prior_mean_with_no_data(self):
        assert pooled_estimate(0, 0, PoolHyperParams(1, 19)) == pytest.approx(0.05)

    def test_large_sample_shrinkage_negligible(self):
        assert pooled_estimate(250, 5000, PoolHyperParams(1, 19)) == pytest.approx(251 / 5020)

    def test_monotone_convergence_to_proportion(self):
        """With c/n fixed, the estimate approaches the raw proportion monotonically."""
        hyper = PoolHyperParams(1, 19)
        p = 0.08
        values = [pooled_estimate(int(p * n), n, hyper) for n in (50, 100, 500, 1000, 5000, 50000)]
        gaps = [abs(v - p) for v in values]
        assert all(g1 >= g2 for g1, g2 in zip(gaps, gaps[1:]))

    def test_between_prior_and_proportion(self):
        rng = np.random.default_rng(24)
        hyper = PoolHyperParams(2, 38)
        for _ in range(500):
            n = int(rng.integers(1, 1000))
            c = int(rng.integers(0, n + 1))
            est = pooled_estimate(c, n, hyper)
            lo, hi = sorted((hyper.prior_mean, c / n))
            assert lo <= est <= hi
            if c / n != hyper.prior_mean:
                assert lo < est < hi
