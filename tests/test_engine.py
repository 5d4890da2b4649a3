import numpy as np
import pytest

from gspbias.auction import ScoredAd, gsp_price, rank_ads
from gspbias.engine import (
    AbConfig,
    AdSpec,
    BucketSpec,
    Context,
    CpcStudyConfig,
    ESTIMATOR_CODES,
    STREAM_AB,
    conditional_rank_samples,
    estimate_matrix,
    run_ab_experiment,
    run_cpc_study,
    sample_rank_stats,
)
from gspbias import rng
from gspbias.errors import RankUnreachable
from gspbias.estimators import CountWindow
from gspbias.oracle import ScoreDistribution


def study(trials=2000, seed=99, ctrs=(0.05, 0.04), n=(5000, 5000), bids=(1.0, 1.0),
          threads=1, setting_index=0):
    return CpcStudyConfig(name="t", impressions=n, true_ctrs=ctrs, bids=bids,
                          trials=trials, seed=seed, setting_index=setting_index,
                          threads=threads)


class TestCpcStudy:
    def test_zero_variance_ctrs(self):
        """Certain clicks make every estimate 1 and every price the bid ratio."""
        trials = run_cpc_study(study(trials=50, ctrs=(1.0, 1.0), n=(10, 10)))
        for t in trials:
            assert t.estimates == (1.0, 1.0)
            assert t.cpc == pytest.approx(1.0)
            assert not t.degenerate
            assert t.ranking == (0, 1)  # tie resolved to the lower index

    def test_trial_results_are_self_consistent(self):
        for t in run_cpc_study(study(trials=500)):
            assert sorted(t.ranking) == [0, 1]
            assert t.winner == t.ranking[0]
            assert t.ranks[t.ranking[0]] == 1 and t.ranks[t.ranking[1]] == 2
            if not t.degenerate:
                top, second = t.ranking
                assert t.cpc == pytest.approx(t.estimates[second] / t.estimates[top])
                assert t.cpc <= 1.0 + 1e-12  # unit bids: price capped by the bid

    def test_matches_scalar_auction_ops(self):
        """The vectorized study agrees with rank_ads/gsp_price trial by trial."""
        for t in run_cpc_study(study(trials=200, bids=(1.5, 0.7))):
            scored = [ScoredAd.from_bid(i, b, e)
                      for i, (b, e) in enumerate(zip((1.5, 0.7), t.estimates))]
            assert list(t.ranking) == rank_ads(scored)
            if not t.degenerate:
                assert t.cpc == pytest.approx(gsp_price(list(t.ranking), scored))

    def test_trial_stream_is_position_independent(self):
        """Trial t sees the same draws no matter how many trials run."""
        short = run_cpc_study(study(trials=64))
        long = run_cpc_study(study(trials=512))
        for a, b in zip(short, long):
            assert a == b

    def test_thread_count_does_not_change_results(self):
        one = run_cpc_study(study(trials=700, threads=1))
        four = run_cpc_study(study(trials=700, threads=4))
        assert one == four

    def test_settings_use_distinct_streams(self):
        a = run_cpc_study(study(trials=50, setting_index=0))
        b = run_cpc_study(study(trials=50, setting_index=1))
        assert any(x.estimates != y.estimates for x, y in zip(a, b))

    def test_degenerate_trials_flagged(self):
        """Tiny impression counts make all-zero estimates likely; they are flagged."""
        trials = run_cpc_study(study(trials=4000, ctrs=(0.05, 0.05), n=(2, 2)))
        degen = [t for t in trials if t.degenerate]
        assert degen, "expected some all-zero-estimate trials at n=2"
        for t in degen:
            assert t.estimates[t.ranking[0]] == 0.0
            assert t.cpc == 0.0

    def test_mean_binomial_estimates_unbiased(self):
        trials = run_cpc_study(study(trials=20000))
        est = np.array([t.estimates for t in trials])
        for j, (p, n) in enumerate(zip((0.05, 0.04), (5000, 5000))):
            se = np.sqrt(p * (1 - p) / n / len(trials))
            assert abs(est[:, j].mean() - p) < 4 * se


class TestConditionalRankSamples:
    def test_deterministic_ranking_keeps_all_trials(self):
        """Far-apart CTRs at high impression counts pin the ranking."""
        trials = run_cpc_study(study(trials=2000, ctrs=(0.9, 0.01), n=(20000, 20000)))
        top = conditional_rank_samples(trials, 0, 1)
        assert len(top) == len(trials)
        with pytest.raises(RankUnreachable):
            conditional_rank_samples(trials, 0, 2)

    def test_rank_conditioning_orders_means(self):
        trials = run_cpc_study(study(trials=20000, ctrs=(0.05, 0.05)))
        win = conditional_rank_samples(trials, 0, 1)
        lose = conditional_rank_samples(trials, 0, 2)
        assert win.mean() > 0.05 > lose.mean()

    def test_bid_scales_scores(self):
        trials = run_cpc_study(study(trials=300))
        s1 = conditional_rank_samples(trials, 0, 1, bid=1.0)
        s2 = conditional_rank_samples(trials, 0, 1, bid=2.0)
        np.testing.assert_allclose(s2, 2 * s1)

    def test_nearly_deterministic_ranking_leaves_means_unconditional(self):
        """When estimate spreads don't overlap, conditioning on rank is inert."""
        trials = run_cpc_study(study(trials=20000, ctrs=(0.05, 0.04),
                                     n=(20000, 20000), setting_index=8))
        for ad, rank, target in ((0, 1, 0.05), (1, 2, 0.04)):
            samples = conditional_rank_samples(trials, ad, rank)
            se = samples.std(ddof=1) / np.sqrt(len(samples))
            assert abs(samples.mean() - target) < 2 * se


def ab_config(**overrides):
    base = dict(
        ads=tuple(AdSpec(i + 1, 1.0, 0.04 + 0.01 * (i % 3)) for i in range(5)),
        contexts=(Context(1, 1, 1.0), Context(1, 2, 0.7), Context(2, 1, 1.2)),
        buckets=(BucketSpec("A", "naive"), BucketSpec("B", "pooled")),
        days=6, traffic_per_day=4000, epsilon=0.1, window_days=3,
        burn_in_days=3, seed=77,
    )
    base.update(overrides)
    return AbConfig(**base)


class TestAbExperiment:
    def test_record_conservation(self):
        cfg = ab_config()
        logs = run_ab_experiment(cfg)
        for log in logs.values():
            assert len(log) == cfg.days * cfg.traffic_per_day
            counts = np.bincount(log.day, minlength=cfg.days)
            assert (counts == cfg.traffic_per_day).all()

    def test_click_and_price_consistency(self):
        logs = run_ab_experiment(ab_config())
        for log in logs.values():
            assert set(np.unique(log.click)) <= {0, 1}
            # exploration traffic is never charged
            assert (log.cpc[log.random_mode] == 0).all()
            assert (log.pred_ctr >= 0).all() and (log.pred_ctr <= 1).all()

    def test_epsilon_one_uniform_displays(self):
        cfg = ab_config(epsilon=1.0, days=1, traffic_per_day=10000, burn_in_days=0)
        logs = run_ab_experiment(cfg)
        for log in logs.values():
            assert log.random_mode.all()
            m = len(cfg.ads)
            freq = np.bincount(log.ad_id - 1, minlength=m) / len(log)
            band = 4 * np.sqrt((1 / m) * (1 - 1 / m) / len(log))
            np.testing.assert_allclose(freq, 1 / m, atol=band)

    def test_identical_estimators_identical_logs(self):
        cfg = ab_config(buckets=(BucketSpec("A", "pooled"), BucketSpec("B", "pooled")))
        logs = run_ab_experiment(cfg)
        for field in ("day", "site", "pos", "ad_id", "random_mode",
                      "pred_ctr", "bid", "cpc", "click"):
            np.testing.assert_array_equal(getattr(logs["A"], field),
                                          getattr(logs["B"], field))

    def test_after_day_splits_burn_in(self):
        cfg = ab_config()
        log = run_ab_experiment(cfg)["A"]
        tail = log.after_day(cfg.burn_in_days)
        assert len(tail) == (cfg.days - cfg.burn_in_days) * cfg.traffic_per_day
        assert tail.day.min() == cfg.burn_in_days

    def test_matches_scalar_replay(self):
        """Replaying the per-access uniforms through the scalar auction ops
        reproduces the vectorized day exactly."""
        cfg = ab_config(days=2, traffic_per_day=300, burn_in_days=0)
        logs = run_ab_experiment(cfg)
        true_ctr = cfg.true_ctr_matrix()
        for bucket_pos, bucket in enumerate(cfg.buckets):
            log = logs[bucket.name]
            window = CountWindow(cfg.window_days)
            cursor = 0
            for day in range(cfg.days):
                window.advance_to(day)
                est = estimate_matrix(bucket.estimator, window, cfg)
                key = rng.stream_key(cfg.seed, STREAM_AB,
                                     ESTIMATOR_CODES[bucket.estimator], day)
                u = rng.unit_uniforms(key, 0, cfg.traffic_per_day)
                day_counts = {}
                for a in range(cfg.traffic_per_day):
                    ctx = min(int(u[a, 0] * len(cfg.contexts)), len(cfg.contexts) - 1)
                    scored = [ScoredAd.from_bid(ad.id, ad.bid, est[i, ctx])
                              for i, ad in enumerate(cfg.ads)]
                    if u[a, 1] < cfg.epsilon:
                        widx = min(int(u[a, 2] * len(cfg.ads)), len(cfg.ads) - 1)
                        mode, cpc = "random", 0.0
                    else:
                        ranking = rank_ads(scored)
                        widx = ranking[0] - 1
                        top_est = est[widx, ctx]
                        mode = "greedy"
                        cpc = gsp_price(ranking, scored) if top_est > 0 else 0.0
                    click = int(u[a, 3] < true_ctr[widx, ctx])
                    log_mode = "random" if log.random_mode[cursor] else "greedy"
                    assert (log.day[cursor], log.ad_id[cursor], log_mode) == (day, widx + 1, mode)
                    assert log.site[cursor] == cfg.contexts[ctx].site
                    assert log.pred_ctr[cursor] == pytest.approx(est[widx, ctx], abs=0)
                    assert log.cpc[cursor] == pytest.approx(cpc, rel=1e-12)
                    assert log.click[cursor] == click
                    cursor += 1
                    ck = (widx, ctx)
                    imp, clk = day_counts.get(ck, (0, 0))
                    day_counts[ck] = (imp + 1, clk + click)
                for (widx, ctx), (imp, clk) in day_counts.items():
                    window.add(day, (cfg.ads[widx].id, cfg.contexts[ctx].site,
                                     cfg.contexts[ctx].pos), clk, imp)


class TestRankContexts:
    def test_all_zero_estimates_price_zero(self):
        """An auction whose every estimate is zero has nothing to price with."""
        from gspbias.engine import rank_contexts
        bids = np.array([1.0, 2.0, 0.5])
        est = np.zeros((3, 2))
        top, second, cpc = rank_contexts(bids, est)
        np.testing.assert_array_equal(top, [0, 0])  # tie falls to the lowest id
        np.testing.assert_array_equal(cpc, [0.0, 0.0])

    def test_zero_runner_up_prices_zero(self):
        from gspbias.engine import rank_contexts
        bids = np.array([1.0, 1.0])
        est = np.array([[0.1], [0.0]])
        top, second, cpc = rank_contexts(bids, est)
        assert top[0] == 0 and cpc[0] == 0.0


class TestSampleRankStats:
    def test_block_accumulation_thread_invariant(self):
        dists = [ScoreDistribution.uniform(0, 1)] * 3
        one = sample_rank_stats(dists, 200_000, seed=5, threads=1)
        four = sample_rank_stats(dists, 200_000, seed=5, threads=4)
        np.testing.assert_array_equal(one.means, four.means)
        np.testing.assert_array_equal(one.counts, four.counts)
        np.testing.assert_array_equal(one.std_errors, four.std_errors)

    def test_uniform_pair_against_known_order_statistics(self):
        dists = [ScoreDistribution.uniform(0, 1)] * 2
        stats = sample_rank_stats(dists, 400_000, seed=6)
        for i in range(2):
            assert abs(stats.means[i, 0] - 2 / 3) < 4 * stats.std_errors[i, 0]
            assert abs(stats.means[i, 1] - 1 / 3) < 4 * stats.std_errors[i, 1]
        np.testing.assert_allclose(stats.counts.sum(axis=1), 400_000)
