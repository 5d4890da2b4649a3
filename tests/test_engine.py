import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import _ufuncs

from gspbias.engine import (
    BLOCK,
    AbConfig,
    AdSpec,
    BucketSpec,
    Context,
    CpcStudyConfig,
    ESTIMATOR_CODES,
    MAX_IMPRESSIONS,
    STREAM_AB,
    STREAM_CPC,
    STREAM_MC,
    _PAIRWISE_MAX_ADS,
    _PAIRWISE_ROW_FACTOR,
    _PPF_FLOOR,
    BinomialInverse,
    _mc_block,
    estimate_matrix,
    rank_contexts,
    run_ab_experiment,
    run_cpc_study,
    sample_rank_stats,
    score_ranks,
    worker_map,
)
from gspbias import rng
from gspbias.config import parse_distribution
from gspbias.errors import InvalidValue, RepeatedContext
from gspbias.estimators import CountWindow
from gspbias.oracle import CaseGrid, CaseSampler, ScoreDistribution
from reference import (
    DegeneratePrice,
    ScoredAd,
    gsp_price,
    mc_block_trial_major,
    rank_ads,
    record_columns,
    run_logged,
)


def study(trials=2000, seed=99, ctrs=(0.05, 0.04), n=(5000, 5000), bids=(1.0, 1.0),
          setting_index=0):
    return CpcStudyConfig(name="t", impressions=n, true_ctrs=ctrs, bids=bids,
                          trials=trials, seed=seed, setting_index=setting_index)


def assert_tables_equal(a, b, rows=slice(None)):
    """Table ``a`` equals rows ``rows`` of table ``b``, column by column."""
    for col in ("estimates", "rank", "order", "cpc", "degenerate"):
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

    def test_rank_inverts_order(self):
        """Each trial's rank column is the inverse permutation of its order."""
        trials = run_cpc_study(study(trials=500, ctrs=(0.05, 0.05), n=(200, 200)))
        rows = np.arange(500)[:, None]
        assert (trials.rank[rows, trials.order] == [0, 1]).all()
        assert (trials.order[rows, trials.rank] == [0, 1]).all()
        assert (trials.order != [0, 1]).any(), "expected some trials won by ad 1"

    def test_trial_stream_is_position_independent(self):
        """Trial t sees the same draws no matter how many trials run."""
        short = run_cpc_study(study(trials=64))
        long = run_cpc_study(study(trials=512))
        assert_tables_equal(short, long, rows=slice(64))

    @pytest.mark.parametrize("bids", [(1.0, -1.0), (math.inf, 1.0), (1.0, math.nan)])
    def test_bad_bids_rejected(self, bids):
        with pytest.raises(ValueError, match="bids") as info:
            study(bids=bids)
        assert info.value.field == "bids"

    def test_zero_bids_allowed(self):
        assert study(bids=(0.0, 0.0)).bids == (0.0, 0.0)

    @pytest.mark.parametrize("n", [(0, 5000), (5000, MAX_IMPRESSIONS + 1), (10 ** 300, 1)])
    def test_impressions_outside_range_rejected(self, n):
        """A count past MAX_IMPRESSIONS would need a CDF table too large to hold."""
        with pytest.raises(InvalidValue, match="impressions") as info:
            study(n=n)
        assert info.value.field == "impressions"

    @pytest.mark.parametrize("ctrs", [(0.0, 0.05), (0.05, 0.0), (0.05, 1.5), ()])
    def test_ctrs_outside_unit_interval_rejected(self, ctrs):
        """A zero CTR leaves the bias factor and the expected CPC undefined."""
        with pytest.raises(InvalidValue, match="true_ctrs") as info:
            study(ctrs=ctrs, n=(5000,) * len(ctrs), bids=(1.0,) * len(ctrs))
        assert info.value.field == "true_ctrs"

    def test_thread_count_does_not_change_results(self):
        """The builtin map and a 3-worker pool give the same bytes, with one
        block, a block one short, a block and one more, and part of a block."""
        with worker_map(3) as pool:
            for trials in (1, BLOCK - 1, BLOCK + 1, 700):
                cfg = study(trials=trials)
                assert_tables_equal(run_cpc_study(cfg), run_cpc_study(cfg, pool))

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


LATTICE = 2.0 ** -53  # Generator.random returns multiples of this in [0, 1)


def binom_ppf(u, n, p):
    """scipy's binom.ppf; boost warns where it cannot place the top few u."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return stats.binom.ppf(u, n, p)


def ppf_is_reference(u, k, n, p):
    """Where scipy's binom.ppf must agree with the table's k for u.

    binom.ppf places u with boost's own evaluation of the CDF (on the
    complement for u > 1/2) and a root finder, so it may land on the
    neighbouring k where that evaluation and the table's round differently.
    Measured, and left out here:

    - u within 2**-10 of the step's height from either end of the CDF step
      [cdf(k - 1), cdf(k)] that holds it: up to 2**-40 of u in the middle of
      the distribution, and the top few uniforms below 1, where the CDF at
      several k rounds to u itself;
    - steps that start in the deep tail, 0 < cdf(k - 1) < 1e-280: at n = 71,
      p = 0.99999, binom.ppf(1e-300) is 8 although cdf(8) = 1.1e-305;
    - p within 1e-9 of 0 or 1, but not at them: at n = 101, p = 1.9e-16,
      binom.ppf(1 - 173 * 2**-53) is 0 although cdf(0) = 1 - 1.93e-14.
    """
    if 0.0 < p < 1e-9 or 1.0 - 1e-9 < p < 1.0:
        return np.zeros(np.shape(u), dtype=bool)
    upper = _ufuncs._binom_cdf(k, n, p)
    lower = np.where(k > 0, _ufuncs._binom_cdf(k - 1, n, p), 0.0)
    band = 2.0 ** -10 * (upper - lower)
    return (upper - u > band) & (u - lower > band) & ((lower == 0.0) | (lower >= 1e-280))


class TestBinomialInverse:
    @settings(max_examples=400, deadline=None)
    @given(n=st.one_of(st.integers(1, 50_000), st.sampled_from([5000, 20000])),
           p=st.one_of(st.sampled_from([0.0, 1.0, 0.04, 0.045, 0.05]),
                       st.floats(0.0, 1.0)),
           data=st.data())
    def test_matches_binom_ppf(self, n, p, data):
        """The inverse gives the smallest k with cdf(k) >= u, and binom.ppf's
        k wherever that is a reference (``ppf_is_reference``)."""
        inverse = BinomialInverse(n, p)
        top = 2 ** 53
        steps = np.round(inverse.cdf / LATTICE).astype(np.int64)
        index = st.one_of(
            st.integers(0, top - 1),                          # anywhere
            st.integers(top - 64, top - 1),                   # just below the top
            st.integers(0, 64),                               # u = 0 (clamped) and just above
            st.builds(lambda c, d: int(min(max(c + d, 0), top - 1)),
                      st.sampled_from(steps.tolist()), st.integers(-3, 3)),  # at CDF steps
        )
        u = np.array(data.draw(st.lists(index, min_size=1, max_size=40))) * LATTICE
        k = inverse(u)
        u = np.maximum(u, _PPF_FLOOR)
        assert (k <= n).all()
        assert (_ufuncs._binom_cdf(k, n, p) >= u).all()
        above = k > 0
        assert (_ufuncs._binom_cdf(k[above] - 1, n, p) < u[above]).all()
        checked = ppf_is_reference(u, k, n, p)
        np.testing.assert_array_equal(k[checked], binom_ppf(u[checked], n, p))

    def test_floor_and_top(self):
        """u = 0 is read as _PPF_FLOOR; at the largest uniform, where the CDF
        at several k rounds to u, binom.ppf answers a larger k."""
        for n, p in ((5000, 0.05), (20000, 0.05), (5000, 0.0), (5000, 1.0)):
            assert BinomialInverse(n, p)(0.0) == binom_ppf(_PPF_FLOOR, n, p)
        top = 1.0 - LATTICE
        assert (BinomialInverse(5000, 0.05)(top), binom_ppf(top, 5000, 0.05)) == (385, 386)

    def test_billion_impressions_stay_windowed(self):
        n, p = 10 ** 9, 0.05
        inverse = BinomialInverse(n, p)
        hi = inverse.lo + len(inverse.cdf) - 1
        assert len(inverse.cdf) < 100 * math.sqrt(n * p * (1 - p))  # not n + 1 entries
        assert _ufuncs._binom_cdf(inverse.lo - 1, n, p) < _PPF_FLOOR
        assert inverse.cdf[-1] >= 1.0 - LATTICE and hi < n
        u = np.random.default_rng(5).random(2000)
        np.testing.assert_array_equal(inverse(u), binom_ppf(np.maximum(u, _PPF_FLOOR), n, p))

    def test_study_draws_match_binom_ppf(self):
        """Every trial's estimate is binom.ppf of its own uniform over n."""
        cfg = study(trials=3000, ctrs=(0.05, 0.04), n=(5000, 20000), setting_index=2)
        trials = run_cpc_study(cfg)
        u = rng.unit_uniforms(rng.stream_key(cfg.seed, STREAM_CPC, 2), 0, cfg.trials)
        for j, (n, p) in enumerate(zip(cfg.impressions, cfg.true_ctrs)):
            expected = binom_ppf(np.maximum(u[:, j], _PPF_FLOOR), n, p) / n
            np.testing.assert_array_equal(trials.estimates[:, j], expected)


def rank_samples(trials, ad, rank):
    """Ad ``ad``'s estimates over the trials where it held ``rank``."""
    return trials.estimates[trials.order[:, rank - 1] == ad, ad]


class TestConditionalRankSamples:
    def test_deterministic_ranking_keeps_all_trials(self):
        """Far-apart CTRs at high impression counts pin the ranking."""
        trials = run_cpc_study(study(trials=2000, ctrs=(0.9, 0.01), n=(20000, 20000)))
        assert len(rank_samples(trials, 0, 1)) == len(trials)
        assert len(rank_samples(trials, 0, 2)) == 0

    def test_rank_conditioning_orders_means(self):
        trials = run_cpc_study(study(trials=20000, ctrs=(0.05, 0.05)))
        win = rank_samples(trials, 0, 1)
        lose = rank_samples(trials, 0, 2)
        assert win.mean() > 0.05 > lose.mean()

    def test_nearly_deterministic_ranking_leaves_means_unconditional(self):
        """When estimate spreads don't overlap, conditioning on rank is inert."""
        trials = run_cpc_study(study(trials=20000, ctrs=(0.05, 0.04),
                                     n=(20000, 20000), setting_index=8))
        for ad, rank, target in ((0, 1, 0.05), (1, 2, 0.04)):
            samples = rank_samples(trials, ad, rank)
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


class TestAbConfigValidation:
    """Built in code, the plan keeps the rules config load enforces."""

    @pytest.mark.parametrize("multiplier", [math.nan, -2.0, math.inf])
    def test_bad_multiplier_rejected(self, multiplier):
        with pytest.raises(ValueError, match="multiplier"):
            Context(1, 1, multiplier)

    @pytest.mark.parametrize("bid, base_ctr, field", [
        (-0.5, 0.05, "bid"), (math.nan, 0.05, "bid"), (math.inf, 0.05, "bid"),
        (1.0, -0.01, "base_ctr"), (1.0, 1.5, "base_ctr"), (1.0, math.nan, "base_ctr"),
    ])
    def test_bad_ad_rejected(self, bid, base_ctr, field):
        with pytest.raises(ValueError, match=field) as info:
            AdSpec(1, bid, base_ctr)
        assert info.value.field == field

    @pytest.mark.parametrize("bid, base_ctr", [(0.0, 0.0), (-0.0, 1.0), (1e300, 0.5)])
    def test_edge_ads_allowed(self, bid, base_ctr):
        assert AdSpec(1, bid, base_ctr).bid == bid

    def test_repeated_site_and_pos_rejected(self):
        contexts = (Context(1, 1, 1.0), Context(2, 1, 0.7), Context(1, 1, 1.2))
        with pytest.raises(RepeatedContext) as info:
            ab_config(contexts=contexts)
        assert info.value.index == 2
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("field, value", [
        ("epsilon", -0.1), ("epsilon", 1.5), ("epsilon", math.nan),
        ("days", 0), ("traffic_per_day", 0), ("traffic_per_day", -3), ("window_days", 0),
        ("burn_in_days", -1), ("burn_in_days", 7),  # days is 6
    ])
    def test_bad_plan_value_rejected(self, field, value):
        with pytest.raises(InvalidValue, match=field) as info:
            ab_config(**{field: value})
        assert info.value.field == field

    def test_zero_multiplier_allowed(self):
        assert ab_config(contexts=(Context(1, 1, 0.0),)).true_ctr_matrix().max() == 0.0


class TestAbExperiment:
    @pytest.mark.parametrize("window_days", [1, 2, 3])
    def test_estimates_read_the_days_before_today(self, window_days):
        """Day d's estimates read the counts of days d - window_days + 1 ..
        d - 1 and no other: ``advance_to(d)`` empties today's slot before the
        day is served, so a one-day window serves the prior every day."""
        cfg = ab_config(days=6, traffic_per_day=600, window_days=window_days)
        tables = run_ab_experiment(cfg, lambda bucket, block: None)
        for bucket in cfg.buckets:
            bucket_tables = tables[bucket.name]
            for day in range(cfg.days):
                read = slice(max(0, day - window_days + 1), day)
                clicks = bucket_tables.clicks[read].sum(axis=(0, 1))
                imps = bucket_tables.impressions[read].sum(axis=(0, 1))
                counts = SimpleNamespace(totals=lambda: (clicks, imps),
                                         ad_totals=lambda: (clicks.sum(axis=1), imps.sum(axis=1)))
                np.testing.assert_array_equal(bucket_tables.estimates[day],
                                              estimate_matrix(bucket.estimator, counts))
            if window_days == 1:
                assert (bucket_tables.estimates == 0.05).all()  # the prior mean

    def test_record_conservation(self):
        cfg = ab_config()
        _tables, logs = run_logged(cfg)
        for log in logs.values():
            assert len(log) == cfg.days * cfg.traffic_per_day
            counts = np.bincount(log.day, minlength=cfg.days)
            assert (counts == cfg.traffic_per_day).all()

    def test_click_and_price_consistency(self):
        _tables, logs = run_logged(ab_config())
        for log in logs.values():
            assert set(np.unique(log.click)) <= {0, 1}
            # exploration traffic is never charged
            columns = record_columns(log)
            assert (columns.cpc[log.random_mode] == 0).all()
            assert (columns.pred_ctr >= 0).all() and (columns.pred_ctr <= 1).all()

    def test_epsilon_one_uniform_displays(self):
        cfg = ab_config(epsilon=1.0, days=1, traffic_per_day=10000, burn_in_days=0)
        _tables, logs = run_logged(cfg)
        for log in logs.values():
            assert log.random_mode.all()
            m = len(cfg.ads)
            freq = np.bincount(record_columns(log).ad_id - 1, minlength=m) / len(log)
            band = 4 * np.sqrt((1 / m) * (1 - 1 / m) / len(log))
            np.testing.assert_allclose(freq, 1 / m, atol=band)

    def test_identical_estimators_identical_logs(self):
        cfg = ab_config(buckets=(BucketSpec("A", "pooled"), BucketSpec("B", "pooled")))
        _tables, logs = run_logged(cfg)
        for field in ("day", "site", "pos", "ad_id", "random_mode",
                      "pred_ctr", "bid", "cpc", "click"):
            np.testing.assert_array_equal(getattr(record_columns(logs["A"]), field),
                                          getattr(record_columns(logs["B"]), field))

    def test_day_tables_split_burn_in(self):
        """Each day's tables count that day's accesses, so the slab from the
        first evaluation day on holds exactly the evaluation traffic."""
        cfg = ab_config()
        tables = run_ab_experiment(cfg, lambda bucket, block: None)
        for t in tables.values():
            per_day = t.impressions.sum(axis=(1, 2, 3))
            np.testing.assert_array_equal(per_day, cfg.traffic_per_day)
            for first_day in range(cfg.days + 2):
                evaluated = max(cfg.days - first_day, 0) * cfg.traffic_per_day
                assert t.impressions[first_day:].sum() == evaluated
            assert (t.clicks <= t.impressions).all()

    def test_blocks_share_the_day_tables(self):
        """Each day is served in the fixed BLOCK cuts, in order; every block
        reads the bucket's own day tables, copying none."""
        cfg = ab_config(days=2, traffic_per_day=2 * BLOCK + 5, burn_in_days=0)
        blocks = []
        tables = run_ab_experiment(cfg, lambda bucket, block: blocks.append((bucket, block)))
        cuts = [hi - lo for lo, hi in rng.fixed_blocks(0, cfg.traffic_per_day, BLOCK)]
        assert cuts == [BLOCK, BLOCK, 5]
        assert [(bucket, int(block.day[0]), len(block)) for bucket, block in blocks] == [
            (bucket.name, day, n) for bucket in cfg.buckets
            for day in range(cfg.days) for n in cuts]
        for bucket, block in blocks:
            assert (block.day == block.day[0]).all() and block.tables.bucket == bucket
            assert block.tables is tables[bucket]

    def test_matches_scalar_replay(self):
        """Replaying the per-access uniforms through the scalar auction ops
        reproduces the vectorized day exactly."""
        cfg = ab_config(days=2, traffic_per_day=300, burn_in_days=0)
        _tables, logs = run_logged(cfg)
        true_ctr = cfg.true_ctr_matrix()
        for bucket_pos, bucket in enumerate(cfg.buckets):
            log = logs[bucket.name]
            columns = record_columns(log)
            counts = np.zeros((cfg.days, 2, len(cfg.ads), len(cfg.contexts)), dtype=np.int64)
            window = CountWindow(cfg.window_days, counts, counts.copy())
            cursor = 0
            for day in range(cfg.days):
                window.advance_to(day)
                est = estimate_matrix(bucket.estimator, window)
                key = rng.stream_key(cfg.seed, STREAM_AB,
                                     ESTIMATOR_CODES[bucket.estimator], day)
                u = rng.unit_uniforms(key, 0, cfg.traffic_per_day)
                served = []  # (mode, ad index, context, click) per access
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
                    assert ((log.day[cursor], columns.ad_id[cursor], log_mode)
                            == (day, widx + 1, mode))
                    assert columns.site[cursor] == cfg.contexts[ctx].site
                    assert columns.pred_ctr[cursor] == pytest.approx(est[widx, ctx], abs=0)
                    assert columns.cpc[cursor] == pytest.approx(cpc, rel=1e-12)
                    assert log.click[cursor] == click
                    cursor += 1
                    served.append((int(mode == "random"), widx, ctx, click))
                window.add(*map(np.array, zip(*served)))


class TestRankContexts:
    def test_all_zero_estimates_price_zero(self):
        """An auction whose every estimate is zero has nothing to price with."""
        bids = np.array([1.0, 2.0, 0.5])
        est = np.zeros((2, 3))
        _rank, order, cpc, degenerate = rank_contexts(bids, est)
        np.testing.assert_array_equal(order[:, 0], [0, 0])  # tie falls to the lowest id
        np.testing.assert_array_equal(cpc, [0.0, 0.0])
        np.testing.assert_array_equal(degenerate, [True, True])

    def test_zero_runner_up_prices_zero(self):
        bids = np.array([1.0, 1.0])
        est = np.array([[0.1, 0.0]])
        _rank, order, cpc, degenerate = rank_contexts(bids, est)
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
        _rank, order, cpc, degenerate = rank_contexts(np.array(bids), np.array(est))
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


def tied_scores(data, shape) -> np.ndarray:
    """Scores from a 3-value set, so that ties are forced, in the given shape."""
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    return np.random.default_rng(seed).choice([0.1, 0.5, 0.9], size=shape)


def rows_around_the_rule(data, m) -> int:
    """A row count below 40, or within 3 of where column-contiguous scores
    of m columns switch from the argsort to pairwise comparisons."""
    switch = _PAIRWISE_ROW_FACTOR * m * m
    return data.draw(st.one_of(st.integers(1, 40), st.integers(max(switch - 3, 1), switch + 3)))


class TestScoreRanks:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), m=st.integers(1, _PAIRWISE_MAX_ADS + 5))
    def test_match_stable_argsort_on_both_sides_of_the_switch(self, data, m):
        """Up to _PAIRWISE_MAX_ADS columns the ranks come from pairwise
        comparisons, above it from an argsort, or from pairwise comparisons
        again on column-contiguous scores with _PAIRWISE_ROW_FACTOR * m^2
        rows or more; with scores from a 3-value set, ties are forced and go
        to the lower column, in either memory order."""
        scores = tied_scores(data, (rows_around_the_rule(data, m), m))
        order = np.argsort(-scores, axis=1, kind="stable")
        expected = np.empty_like(order)
        np.put_along_axis(expected, order, np.arange(m), axis=1)
        np.testing.assert_array_equal(score_ranks(scores), expected)
        np.testing.assert_array_equal(score_ranks(np.asfortranarray(scores)), expected)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), m=st.integers(1, _PAIRWISE_MAX_ADS + 3))
    def test_ad_major_view_ranks_as_its_copy(self, data, m):
        """On the transpose of an (ads, draws) array the ranks equal those of
        its contiguous copy, ties included, and come back in its memory order,
        on both sides of the row count where pairwise comparisons take over."""
        x = tied_scores(data, (m, rows_around_the_rule(data, m)))
        rank = score_ranks(x.T)
        np.testing.assert_array_equal(rank, score_ranks(np.ascontiguousarray(x.T)))
        assert rank.T.flags.c_contiguous


# every path of a draw: uniforms, Hermite betas and, from three ads on, the
# exact inverse, in the outermost cell of a beta whose density is positive at 0
BLOCK_FIELD = [parse_distribution(spec, "dists") for spec in (
    "uniform:0:0.12", "beta:5:45:1.5", "beta:1:3:0.09", "beta:60:60:0.05", "beta:2:38",
    "uniform:0.01:0.08", "beta:3:37:1.2", "uniform:0:0.1", "beta:2:38")]


class TestMcBlock:
    @pytest.mark.parametrize("m", [1, 2, 3, 6, 9])
    def test_moments_match_the_trial_major_reference(self, m):
        """A block's counts, sums and squared sums, and its exact-draw count,
        equal the trial-major reference's bit for bit, for a full block and a
        short last one, on both rank branches (m = 9 takes the argsort)."""
        sampler = CaseSampler(CaseGrid(BLOCK_FIELD[:m]))
        key = rng.stream_key(5, STREAM_MC, m)
        exact = 0
        for lo, hi in [(0, BLOCK), (BLOCK, BLOCK + 3001)]:
            got = _mc_block(sampler, key, lo, hi)
            expected = mc_block_trial_major(sampler, key, lo, hi)
            for a, b in zip(got[:3], expected[:3]):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert got[3] == expected[3]
            exact += got[3]
        assert (exact > 0) == (m >= 3)


class TestSampleRankStats:
    def test_block_accumulation_thread_invariant(self):
        grid = CaseGrid([ScoreDistribution.uniform(0, 1)] * 3)
        one = sample_rank_stats(grid, 200_000, seed=5)
        with worker_map(4) as pool:
            four = sample_rank_stats(grid, 200_000, seed=5, map=pool)
        np.testing.assert_array_equal(one.means, four.means)
        np.testing.assert_array_equal(one.counts, four.counts)
        np.testing.assert_array_equal(one.std_errors, four.std_errors)

    def test_beta_field_thread_invariant(self):
        """Grid draws and bincount moments give the same bytes for any thread
        count, with the grid itself built on the builtin map or on workers."""
        dists = [ScoreDistribution.scaled_beta(2, 38), ScoreDistribution.scaled_beta(3, 37, 1.2),
                 ScoreDistribution.uniform(0, 0.1)]
        runs = [sample_rank_stats(CaseGrid(dists), 100_000, seed=5)]
        for threads in (4, 2):
            with worker_map(threads) as pool:
                runs.append(sample_rank_stats(CaseGrid(dists, pool), 100_000, seed=5, map=pool))
        for other in runs[1:]:
            np.testing.assert_array_equal(runs[0].means, other.means)
            np.testing.assert_array_equal(runs[0].counts, other.counts)
            np.testing.assert_array_equal(runs[0].std_errors, other.std_errors)
        np.testing.assert_array_equal(runs[0].counts.sum(axis=0), 100_000)

    def test_exact_draw_count_sums_the_blocks(self):
        """exact_draws adds up every block's fallbacks, the same for any thread
        count; a beta with a < 1 sends its first cell's draws there."""
        dists = [ScoreDistribution.scaled_beta(0.3, 2.0), ScoreDistribution.uniform(0, 1)]
        grid = CaseGrid(dists)
        key = rng.stream_key(5, STREAM_MC, 0)
        u = rng.unit_uniforms(key, 0, 100_000)[:, 0]
        sampler = CaseSampler(grid)
        expected = sum(sampler.draw(0, u[lo:lo + BLOCK])[1] for lo in range(0, 100_000, BLOCK))
        assert expected > 0
        assert sample_rank_stats(grid, 100_000, seed=5).exact_draws == expected
        with worker_map(3) as pool:
            assert sample_rank_stats(grid, 100_000, seed=5, map=pool).exact_draws == expected
        assert sample_rank_stats(CaseGrid(dists[1:]), 1000, seed=5).exact_draws == 0

    def test_no_draws_is_rejected(self):
        grid = CaseGrid([ScoreDistribution.uniform(0, 1)] * 2)
        with pytest.raises(InvalidValue, match="draws must be >= 1, got 0"):
            sample_rank_stats(grid, 0, seed=5)

    def test_uniform_pair_against_known_order_statistics(self):
        grid = CaseGrid([ScoreDistribution.uniform(0, 1)] * 2)
        stats = sample_rank_stats(grid, 400_000, seed=6)
        for i in range(2):
            assert abs(stats.means[i, 0] - 2 / 3) < 4 * stats.std_errors[i, 0]
            assert abs(stats.means[i, 1] - 1 / 3) < 4 * stats.std_errors[i, 1]
        np.testing.assert_allclose(stats.counts.sum(axis=1), 400_000)
