import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    rank_contexts,
    run_ab_experiment,
    run_cpc_study,
    sample_rank_stats,
)
from gspbias import rng
from gspbias.errors import DegeneratePrice, RankUnreachable
from gspbias.estimators import CountWindow
from gspbias.oracle import ScoreDistribution


def study(trials=2000, seed=99, ctrs=(0.05, 0.04), n=(5000, 5000), bids=(1.0, 1.0),
          threads=1, setting_index=0):
    return CpcStudyConfig(name="t", impressions=n, true_ctrs=ctrs, bids=bids,
                          trials=trials, seed=seed, setting_index=setting_index,
                          threads=threads)


def assert_tables_equal(a, b, rows=slice(None)):
    """Table ``a`` equals rows ``rows`` of table ``b``, column by column."""
    for col in ("estimates", "order", "cpc", "degenerate"):
        np.testing.assert_array_equal(getattr(a, col), getattr(b, col)[rows], err_msg=col)


class TestCpcStudy:
    def test_zero_variance_ctrs(self):
        """Certain clicks make every estimate 1 and every price the bid ratio."""
        trials = run_cpc_study(study(trials=50, ctrs=(1.0, 1.0), n=(10, 10)))
        assert len(trials) == 50
        assert (trials.estimates == 1.0).all()
        np.testing.assert_allclose(trials.cpc, 1.0)
        assert not trials.degenerate.any()
        assert (trials.order == [0, 1]).all()  # tie resolved to the lower index

    def test_trial_results_are_self_consistent(self):
        trials = run_cpc_study(study(trials=500))
        est, order = trials.estimates, trials.order
        assert est.shape == order.shape == (500, 2)
        assert trials.cpc.shape == trials.degenerate.shape == (500,)
        assert (np.sort(order, axis=1) == [0, 1]).all()
        rows = np.arange(500)
        ok = ~trials.degenerate
        top, second = order[:, 0], order[:, 1]
        np.testing.assert_allclose(trials.cpc[ok], est[rows, second][ok] / est[rows, top][ok])
        assert (trials.cpc[ok] <= 1.0 + 1e-12).all()  # unit bids: price capped by the bid

    def test_matches_scalar_auction_ops(self):
        """The vectorized study agrees with rank_ads/gsp_price trial by trial."""
        trials = run_cpc_study(study(trials=200, bids=(1.5, 0.7)))
        for est, order, cpc, degenerate in zip(trials.estimates.tolist(), trials.order.tolist(),
                                               trials.cpc.tolist(), trials.degenerate.tolist()):
            scored = [ScoredAd.from_bid(i, b, e)
                      for i, (b, e) in enumerate(zip((1.5, 0.7), est))]
            assert order == rank_ads(scored)
            if not degenerate:
                assert cpc == pytest.approx(gsp_price(order, scored))

    def test_trial_stream_is_position_independent(self):
        """Trial t sees the same draws no matter how many trials run."""
        short = run_cpc_study(study(trials=64))
        long = run_cpc_study(study(trials=512))
        assert_tables_equal(short, long, rows=slice(64))

    def test_thread_count_does_not_change_results(self):
        one = run_cpc_study(study(trials=700, threads=1))
        four = run_cpc_study(study(trials=700, threads=4))
        assert_tables_equal(one, four)

    def test_settings_use_distinct_streams(self):
        a = run_cpc_study(study(trials=50, setting_index=0))
        b = run_cpc_study(study(trials=50, setting_index=1))
        assert (a.estimates != b.estimates).any()

    def test_degenerate_trials_flagged(self):
        """Tiny impression counts make all-zero estimates likely; they are flagged."""
        trials = run_cpc_study(study(trials=4000, ctrs=(0.05, 0.05), n=(2, 2)))
        degen = trials.degenerate
        assert degen.any(), "expected some all-zero-estimate trials at n=2"
        top_est = trials.estimates[np.arange(len(trials)), trials.order[:, 0]]
        assert (top_est[degen] == 0.0).all()
        assert (trials.cpc[degen] == 0.0).all()

    def test_mean_binomial_estimates_unbiased(self):
        trials = run_cpc_study(study(trials=20000))
        est = trials.estimates
        for j, (p, n) in enumerate(zip((0.05, 0.04), (5000, 5000))):
            se = np.sqrt(p * (1 - p) / n / len(trials))
            assert abs(est[:, j].mean() - p) < 4 * se


class TestConditionalRankSamples:
    def test_deterministic_ranking_keeps_all_trials(self):
        """Far-apart CTRs at high impression counts pin the ranking."""
        trials = run_cpc_study(study(trials=2000, ctrs=(0.9, 0.01), n=(20000, 20000)))
        top = conditional_rank_samples(trials, 0, 1)
        assert len(top) == len(trials)
        for rank in (0, 2, 3):  # 0 and 3 are no rank of a two-ad auction
            with pytest.raises(RankUnreachable):
                conditional_rank_samples(trials, 0, rank)

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
        bids = np.array([1.0, 2.0, 0.5])
        est = np.zeros((2, 3))
        order, cpc, degenerate = rank_contexts(bids, est)
        np.testing.assert_array_equal(order[:, 0], [0, 0])  # tie falls to the lowest id
        np.testing.assert_array_equal(cpc, [0.0, 0.0])
        np.testing.assert_array_equal(degenerate, [True, True])

    def test_zero_runner_up_prices_zero(self):
        bids = np.array([1.0, 1.0])
        est = np.array([[0.1, 0.0]])
        order, cpc, degenerate = rank_contexts(bids, est)
        assert order[0, 0] == 0 and cpc[0] == 0.0 and not degenerate[0]

    # a small pool makes ties and all-zero rows common
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), m=st.integers(1, 8))
    def test_matches_scalar_reference(self, data, m):
        """Row by row, the kernel ranks like rank_ads and prices like gsp_price."""
        pool = st.sampled_from([0.0, 0.0, 0.01, 0.05, 0.1, 1 / 3, 1.0])
        bids = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 7.0]),
                                  min_size=m, max_size=m))
        est = data.draw(st.lists(st.lists(pool, min_size=m, max_size=m),
                                 min_size=1, max_size=6))
        order, cpc, degenerate = rank_contexts(np.array(bids), np.array(est))
        assert order.shape == (len(est), m)
        assert cpc.shape == degenerate.shape == (len(est),)
        for row, ranking, price, degen in zip(est, order.tolist(), cpc.tolist(),
                                              degenerate.tolist()):
            scored = [ScoredAd.from_bid(i, b, e) for i, (b, e) in enumerate(zip(bids, row))]
            assert ranking == rank_ads(scored)
            if m == 1:
                assert price == 0.0 and not degen
            try:
                expected = gsp_price(ranking, scored)
            except DegeneratePrice:
                assert degen and price == 0.0
            else:
                assert not degen and price == expected


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
