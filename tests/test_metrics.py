import dataclasses
import math

import numpy as np
import pytest

from gspbias.engine import (
    BLOCK,
    AbConfig,
    AdSpec,
    BucketSpec,
    Context,
    CpcStudyConfig,
    TrialTable,
    run_ab_experiment,
    run_cpc_study,
)
from gspbias.errors import HistogramTooWide, RankUnreachable, UndefinedCalibration, UndefinedRatio
from gspbias.metrics import (
    align_histograms,
    MAX_HISTOGRAM_BINS,
    CoMoments,
    Moments,
    build_histogram,
    c_relative,
    cpc_block_stats,
    rtv_rtc,
)
from gspbias import metrics
from reference import (
    _mean_se,
    after_day,
    bias_report,
    c_relative_log_se,
    c_relative_per_access,
    cpc_summary,
    cpc_trials,
    histogram_overlap,
    log_from_rows,
    mass_split,
    record_columns,
    run_logged,
    rtv_rtc_per_access,
    selection_bias,
    symmetry_z,
    tables_from_log,
)


def run_setting(ctrs, n, trials=20000, seed=314, idx=0):
    cfg = CpcStudyConfig(name="x", impressions=(n, n), true_ctrs=ctrs,
                         bids=(1.0, 1.0), trials=trials, seed=seed, setting_index=idx)
    return cpc_trials(cfg)


def take(trials, rows):
    """The trials at ``rows`` as a table of their own."""
    return TrialTable(trials.estimates[rows], trials.rank[rows], trials.order[rows],
                      trials.cpc[rows], trials.degenerate[rows])


def rank_estimates(trials, rank):
    """Each trial's estimate at ``rank``, in trial order."""
    return trials.estimates[np.arange(len(trials)), trials.order[:, rank - 1]]


def rank_histograms(trials, width=0.0005):
    """Each rank's histogram of unit-bid scores, best rank first."""
    return [build_histogram(rank_estimates(trials, rank), width)
            for rank in range(1, trials.order.shape[1] + 1)]


@pytest.fixture(scope="module")
def trials_competitive():
    # both ads identical: noisy ranking, strongest ordering effect
    return run_setting((0.05, 0.05), 5000)


@pytest.fixture(scope="module")
def trials_separated():
    # far-apart CTRs at high impressions: ranking effectively deterministic
    return run_setting((0.9, 0.01), 20000, trials=2000, idx=1)


@pytest.fixture(scope="module")
def trials_tight():
    # close CTRs but tight estimates: ranking still near-deterministic
    return run_setting((0.05, 0.04), 20000, idx=4)


def make_log(preds, clicks, random_mode, bids=None, cpcs=None, bucket="T"):
    n = len(preds)
    return log_from_rows(preds, np.ones(n) if bids is None else bids,
                         np.zeros(n) if cpcs is None else cpcs, random_mode, clicks, bucket)


def make_tables(*args, **kwargs):
    """The day tables of ``make_log``'s log."""
    return tables_from_log(make_log(*args, **kwargs))


def test_log_from_rows_reads_back_each_row():
    rows = {"pred_ctr": [0.1, 0.2, 0.3, 0.0], "bid": [4.0, 6.0, 4.0, 1.0],
            "cpc": [2.0, 0.0, 9.0, 0.0], "random_mode": [False, True, False, True],
            "click": [1, 0, 0, 1]}
    columns = record_columns(log_from_rows(*rows.values()))
    for name, want in rows.items():
        np.testing.assert_array_equal(getattr(columns, name), want)
    with pytest.raises(ValueError):
        log_from_rows([0.1], [1.0], [0.5], [True], [1])


class TestMeanSe:
    @pytest.mark.parametrize("x", [[0.05, 0.045, 0.051, 0.0], [1 / 3, 2.0, -7.5, 1e-3, 0.1],
                                   [3.0, 3.0]])
    def test_equals_the_unscaled_moments(self, x):
        """On moderate values the power-of-two units change no bit."""
        x = np.array(x)
        assert _mean_se(x) == (float(x.mean()), float(x.std(ddof=1) / np.sqrt(len(x))))

    def test_finite_where_squares_overflow(self):
        x = np.array([1e200, 2e200, 4e200])
        with np.errstate(over="ignore"):
            assert np.isinf(x.std(ddof=1))  # the unscaled squares reach 1e400
        mean, se = _mean_se(x)
        assert mean == pytest.approx(7e200 / 3)
        assert se == pytest.approx(np.std([1.0, 2.0, 4.0], ddof=1) / np.sqrt(3) * 1e200)


class TestSelectionBias:
    def test_competitive_setting_orders_factors(self, trials_competitive):
        b1 = selection_bias(trials_competitive, (0.05, 0.05), 1)
        b2 = selection_bias(trials_competitive, (0.05, 0.05), 2)
        assert b1.value > 1 > b2.value
        gap_samples = (rank_estimates(trials_competitive, 1)
                       - rank_estimates(trials_competitive, 2)) / 0.05
        gap_se = gap_samples.std(ddof=1) / np.sqrt(len(gap_samples))
        assert b1.value - b2.value > 5 * gap_se

    def test_deterministic_ranking_unbiased(self, trials_separated):
        for rank in (1, 2):
            b = selection_bias(trials_separated, (0.9, 0.01), rank)
            assert abs(b.value - 1.0) < 2 * b.se

    def test_tight_estimates_leave_factors_unbiased(self, trials_tight):
        for rank in (1, 2):
            b = selection_bias(trials_tight, (0.05, 0.04), rank)
            assert abs(b.value - 1.0) < 2 * b.se

    def test_too_few_trials(self, trials_competitive):
        with pytest.raises(RankUnreachable):
            selection_bias(take(trials_competitive, slice(50)), (0.05, 0.05), 1)


class TestCpcSummary:
    def test_competitive_setting_prices_below_expectation(self, trials_competitive):
        s = cpc_summary(trials_competitive, (0.05, 0.05), (1.0, 1.0))
        assert s.expected_cpc == pytest.approx(1.0)
        assert s.mean_observed_cpc < 1.0
        assert s.ratio == pytest.approx(s.mean_observed_cpc)

    def test_zero_variance(self):
        trials = run_setting((1.0, 1.0), 10, trials=200, idx=2)
        s = cpc_summary(trials, (1.0, 1.0), (1.0, 1.0))
        assert (s.expected_cpc, s.mean_observed_cpc, s.ratio) == (1.0, 1.0, 1.0)

    def test_degenerate_trials_excluded_but_counted(self):
        trials = run_setting((0.05, 0.05), 2, trials=2000, idx=3)
        s = cpc_summary(trials, (0.05, 0.05), (1.0, 1.0))
        assert s.degenerate_trials == int(trials.degenerate.sum()) > 0
        kept = trials.cpc[~trials.degenerate]
        assert s.mean_observed_cpc == pytest.approx(np.mean(kept))

    def test_all_degenerate_trials_yield_nan_summary(self):
        trials = run_setting((0.01, 0.01), 1, trials=200, idx=5)
        degen = take(trials, trials.degenerate)
        assert len(degen)
        s = cpc_summary(degen, (0.01, 0.01), (1.0, 1.0))
        assert np.isnan(s.mean_observed_cpc) and s.observed_se is None
        assert s.degenerate_trials == len(degen)

    def test_ratio_of_expectations_tracks_mean_price(self, trials_competitive):
        """The two price summaries differ only by correlated-ratio curvature,
        which the combined delta-method errors absorb at this trial count."""
        s = cpc_summary(trials_competitive, (0.05, 0.05), (1.0, 1.0))
        combined = np.sqrt(s.observed_se ** 2 + s.ratio_of_means_se ** 2)
        assert abs(s.ratio_of_means - s.mean_observed_cpc) < 3 * combined


# three ads at small impression counts, so that some trials are degenerate
# and each rank is held by every ad; bids differ, so prices and scores do too
# (setting, price and score bin widths) whose blocks merge against the whole
# table: three ads with degenerate trials, and bids far apart, where prices
# and the runner-up's scores sit hundreds of binary orders below the top bid
MERGE_STUDIES = {
    "three-ads": (CpcStudyConfig(name="m", impressions=(40, 60, 50),
                                 true_ctrs=(0.05, 0.04, 0.06), bids=(1.0, 1.5, 0.8),
                                 trials=1, seed=271, setting_index=3), (0.01, 0.0005)),
    "bids-1e200-1": (CpcStudyConfig(name="w", impressions=(5000, 5000),
                                    true_ctrs=(0.05, 0.05), bids=(1e200, 1.0),
                                    trials=1, seed=272, setting_index=0), (0.01, 1e194)),
    "bids-1e200-1e-200": (CpcStudyConfig(name="v", impressions=(5000, 5000),
                                         true_ctrs=(0.05, 0.05), bids=(1e200, 1e-200),
                                         trials=1, seed=273, setting_index=1), (0.01, 1e194)),
}


def assert_close(merged, whole, exact):
    """Two report values equal, within 1e-12 relative, or to the bit when
    ``exact``; None and NaN only where the other is the same."""
    if isinstance(whole, float) and math.isnan(whole):
        assert math.isnan(merged)
    elif exact or not isinstance(whole, float):
        assert merged == whole
    else:
        assert merged == pytest.approx(whole, rel=1e-12, abs=0.0)


class TestCpcStats:
    @pytest.mark.parametrize("study", MERGE_STUDIES)
    @pytest.mark.parametrize("trials", [1, 99, 100, BLOCK, BLOCK + 1, 40_000])
    def test_merged_statistics_match_whole_table(self, trials, study):
        """Blocks reduced and merged in order give the whole table's summary,
        bias report and histograms: the floats within 1e-12 relative, and to
        the bit in one block; the counts and histograms exactly."""
        cfg, widths = MERGE_STUDIES[study]
        cfg = dataclasses.replace(cfg, trials=trials)
        stats = run_cpc_study(cfg, lambda block: cpc_block_stats(
            block, cfg.true_ctrs, cfg.bids, widths))
        table = cpc_trials(cfg)
        exact = trials <= BLOCK
        whole = cpc_summary(table, cfg.true_ctrs, cfg.bids)
        if study == "three-ads":
            assert whole.degenerate_trials > 0 or trials < BLOCK
        for name, value in vars(metrics.cpc_summary(stats, cfg.true_ctrs, cfg.bids)).items():
            assert_close(value, getattr(whole, name), exact)
        ok = ~table.degenerate
        hists = [build_histogram(table.cpc[ok], widths[0])] if ok.any() else []
        ranked = np.take_along_axis(table.estimates * cfg.bids, table.order, axis=1)
        rank_hists = [build_histogram(col, widths[1]) for col in ranked.T]
        hists += rank_hists
        merged = ([stats.cpc_hist] if stats.cpc_hist is not None else []) + list(stats.rank_hists)
        assert len(merged) == len(hists)
        for got, want in zip(merged, hists):
            np.testing.assert_array_equal(got.edges, want.edges)
            np.testing.assert_array_equal(got.counts, want.counts)
        if trials < 100:
            with pytest.raises(RankUnreachable) as want:
                bias_report(table, cfg.true_ctrs, cfg.bids, rank_hists)
            with pytest.raises(RankUnreachable) as got:
                metrics.bias_report(stats)
            assert str(got.value) == str(want.value)
            return
        report = metrics.bias_report(stats)
        want = bias_report(table, cfg.true_ctrs, cfg.bids, rank_hists)
        assert report.adjacent_splittable == want.adjacent_splittable
        for got_rank, want_rank in zip(report.per_rank, want.per_rank, strict=True):
            for name, value in vars(got_rank).items():
                assert_close(value, getattr(want_rank, name), exact)

    @pytest.mark.parametrize("cut", [1, 2, 7, 500, 999])
    def test_moments_merge_like_one_sample(self, cut):
        """Chan's merge of two parts of paired samples equals the moments
        and co-moment of the whole, in the whole's units, though the parts
        reach different powers of two."""
        rng = np.random.default_rng(cut)
        x = rng.gamma(2.0, 0.3, 1000)
        y = 0.4 * x + rng.gamma(1.0, 0.01, 1000)
        merged = CoMoments.of(x[:cut], y[:cut]).merge(CoMoments.of(x[cut:], y[cut:]))
        whole = CoMoments.of(x, y)
        for got, want in ((merged.x, whole.x), (merged.y, whole.y)):
            assert (got.n, got.scale) == (want.n, want.scale)
            assert got.mean == pytest.approx(want.mean, rel=1e-13)
            assert got.m2 == pytest.approx(want.m2, rel=1e-12)
        assert merged.c == pytest.approx(whole.c, rel=1e-12)

    @pytest.mark.parametrize("low", [1.0, 1e-200, 0.0])
    def test_moments_merge_across_magnitudes(self, low):
        """Parts hundreds of binary orders apart, in either order, merge to
        the whole sample's mean and standard error."""
        u = np.random.default_rng(7).random(300)
        x = np.concatenate([u[:200] * 1e200, u[200:] * low])
        want = _mean_se(x)
        for a, b in ((x[:200], x[200:]), (x[200:], x[:200])):
            mean, se = Moments.of(a).merge(Moments.of(b)).mean_se()
            assert mean == pytest.approx(want[0], rel=1e-13)
            assert se == pytest.approx(want[1], rel=1e-12)

    @pytest.mark.parametrize("factor", [1.0, 4.0, 2.0 ** 40, 1e200, 1e-200])
    def test_moments_units_leave_the_bits(self, factor):
        """One sample's moments, at any magnitude, scale back to numpy's own
        mean and standard error of the values, bit for bit."""
        x = np.random.default_rng(5).random(777) * 3.0 * factor
        assert Moments.of(x).mean_se() == _mean_se(x)


class TestCalibration:
    def test_direct_arithmetic(self):
        tables = make_tables(preds=[0.1, 0.2, 0.3, 0.1, 0.1],
                             clicks=[0, 1, 0, 1, 0],
                             random_mode=[False, False, False, True, True])
        rep = c_relative(tables, 0)
        assert rep.calibration_greedy == pytest.approx(0.6)
        assert rep.calibration_random == pytest.approx(0.2)
        assert rep.c_relative == pytest.approx(3.0)

    def test_bid_weighting_neutral_under_equal_bids(self):
        rng = np.random.default_rng(41)
        n = 4000
        preds = rng.uniform(0.01, 0.2, n)
        clicks = rng.binomial(1, preds)
        modes = rng.random(n) < 0.5
        rep = c_relative(make_tables(preds, clicks, modes), 0)
        assert rep.bid_weighted_c_relative == pytest.approx(rep.c_relative, rel=1e-12)

    def test_zero_random_clicks_undefined(self):
        tables = make_tables(preds=[0.1, 0.1], clicks=[1, 0], random_mode=[False, True])
        with pytest.raises(UndefinedCalibration):
            c_relative(tables, 0)

    @pytest.mark.parametrize("random_preds, random_clicks, random_bids", [
        ([0.0, 0.0], [1, 1], [1.0, 1.0]),   # no predicted clicks
        ([0.1, 0.0], [0, 1], [0.0, 1.0]),   # predicted clicks on a zero bid only
    ])
    def test_zero_random_predictions_undefined(self, random_preds, random_clicks, random_bids):
        """Random traffic with clicks but no predicted clicks, or no
        bid-weighted predicted value, leaves the ratio undefined, not infinite."""
        log = make_log(preds=[0.1, *random_preds], clicks=[1, *random_clicks],
                       random_mode=[False, True, True], bids=[1.0, *random_bids])
        with pytest.raises(UndefinedCalibration):
            c_relative(tables_from_log(log), 0)
        with pytest.raises(UndefinedCalibration):
            c_relative_per_access(log)

    def test_calibrated_predictor_near_one(self):
        """When predictions equal the click probabilities and selection carries
        no information, the greedy/random calibration ratio is one up to noise."""
        rng = np.random.default_rng(42)
        n = 200_000
        preds = rng.uniform(0.02, 0.15, n)
        clicks = rng.binomial(1, preds)
        modes = rng.random(n) < 0.5
        log = make_log(preds, clicks, modes)
        rep = c_relative(tables_from_log(log), 0)
        se = c_relative_log_se(log)
        assert abs(np.log(rep.c_relative)) < 3 * se
        assert se < 0.05


class TestRtvRtc:
    def test_direct_arithmetic(self):
        a = make_tables(preds=[0.1] * 3, clicks=[1, 1, 0], random_mode=[False] * 3,
                        bids=[4.0, 6.0, 9.0], cpcs=[2.0, 3.0, 9.0])
        b = make_tables(preds=[0.1] * 3, clicks=[1, 1, 0], random_mode=[False] * 3,
                        bids=[5.0, 5.4, 9.0], cpcs=[2.5, 3.0, 9.0])
        rel = rtv_rtc(a, b, 0)
        assert rel.rtv == pytest.approx(10.4 / 10.0)
        assert rel.rtc == pytest.approx(5.5 / 5.0)

    def test_random_mode_records_excluded(self):
        a = make_tables(preds=[0.1, 0.1], clicks=[1, 1], random_mode=[False, True],
                        bids=[2.0, 50.0], cpcs=[1.0, 0.0])
        rel = rtv_rtc(a, a, 0)
        assert rel.rtv == 1.0 and rel.rtc == 1.0

    def test_identical_buckets_exactly_one(self):
        cfg = AbConfig(
            ads=tuple(AdSpec(i + 1, 1.0 + 0.1 * i, 0.05) for i in range(3)),
            contexts=(Context(1, 1, 1.0),),
            buckets=(BucketSpec("A", "naive"), BucketSpec("B", "naive")),
            days=4, traffic_per_day=3000, epsilon=0.2, window_days=2,
            burn_in_days=2, seed=9)
        tables = run_ab_experiment(cfg, lambda bucket, block: None)
        rel = rtv_rtc(tables["A"], tables["B"], 2)
        assert rel.rtv == 1.0 and rel.rtc == 1.0

    def test_zero_denominator_undefined(self):
        a = make_tables(preds=[0.1], clicks=[0], random_mode=[False])
        with pytest.raises(UndefinedRatio):
            rtv_rtc(a, a, 0)


def random_ab_config(seed, traffic):
    """A small A/B plan drawn from ``seed``: 1-4 ads, 1-3 contexts, 2-3 days."""
    r = np.random.default_rng(seed)
    m, n_ctx = int(r.integers(1, 5)), int(r.integers(1, 4))
    estimators = ("naive", "pooled")
    return AbConfig(
        ads=tuple(AdSpec(i + 1, float(r.uniform(0.5, 2.0)), float(r.uniform(0.02, 0.3)))
                  for i in range(m)),
        contexts=tuple(Context(1, pos, float(r.uniform(0.5, 1.5)))
                       for pos in range(1, n_ctx + 1)),
        buckets=(BucketSpec("A", estimators[r.integers(2)]),
                 BucketSpec("B", estimators[r.integers(2)])),
        days=int(r.integers(2, 4)), traffic_per_day=traffic,
        epsilon=float(r.uniform(0.05, 0.5)), window_days=int(r.integers(1, 3)),
        burn_in_days=0, seed=seed)


def outcome(metric, *args):
    """The metric's report, or the type of the undefined-metric error it raised."""
    try:
        return metric(*args)
    except (UndefinedCalibration, UndefinedRatio) as exc:
        return type(exc)


def assert_same_outcome(got, want):
    """Equal counts and floats within rel 1e-12: the day tables sum the
    same terms as the per-access reference, in another order."""
    if isinstance(want, type):
        assert got is want
        return
    for name, value in vars(want).items():
        if isinstance(value, int):
            assert getattr(got, name) == value, name
        else:
            assert getattr(got, name) == pytest.approx(value, rel=1e-12, abs=0), name


class TestTablesMatchPerAccess:
    """c_relative and rtv_rtc read the day tables; the per-access sums over
    the whole-run logs are their reference."""

    @pytest.mark.parametrize("traffic", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_served_runs(self, seed, traffic):
        cfg = random_ab_config(seed, traffic)
        tables, logs = run_logged(cfg)
        for name, log in logs.items():
            counted = tables_from_log(log)
            np.testing.assert_array_equal(tables[name].impressions, counted.impressions)
            np.testing.assert_array_equal(tables[name].clicks, counted.clicks)
        for first_day in range(cfg.days + 1):
            tail = {name: after_day(log, first_day) for name, log in logs.items()}
            for name in logs:
                assert_same_outcome(outcome(c_relative, tables[name], first_day),
                                    outcome(c_relative_per_access, tail[name]))
            assert_same_outcome(outcome(rtv_rtc, tables["A"], tables["B"], first_day),
                                outcome(rtv_rtc_per_access, tail["A"], tail["B"]))
        if traffic >= BLOCK:  # enough clicks that the comparison covers defined values
            assert not isinstance(outcome(c_relative, tables["A"], 0), type)

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_row_logs(self, seed):
        r = np.random.default_rng(seed)
        n = 3000
        logs = []
        for bucket in "AB":
            modes = r.random(n) < 0.3
            preds = r.uniform(0.01, 0.3, n)
            logs.append(make_log(preds, r.binomial(1, preds), modes,
                                 bids=r.choice([0.5, 1.25, 2.0], n),
                                 cpcs=np.where(modes, 0.0, r.uniform(0.1, 2.0, n)),
                                 bucket=bucket))
        tables = [tables_from_log(log) for log in logs]
        for first_day in (0, 1, n // 2, n - 1, n):
            tail = [after_day(log, first_day) for log in logs]
            for t, log in zip(tables, tail):
                assert_same_outcome(outcome(c_relative, t, first_day),
                                    outcome(c_relative_per_access, log))
            assert_same_outcome(outcome(rtv_rtc, *tables, first_day),
                                outcome(rtv_rtc_per_access, *tail))


class TestHistograms:
    def test_lattice_binning(self):
        h = build_histogram([0.5, 0.5, 1.0], 0.5)
        np.testing.assert_allclose(h.edges, [0.5, 1.0, 1.5])
        np.testing.assert_array_equal(h.counts, [2, 1])
        assert h.counts.sum() == 3

    def test_total_conservation(self):
        rng = np.random.default_rng(43)
        samples = rng.normal(0.05, 0.01, 5000)
        h = build_histogram(samples, 0.001)
        assert h.counts.sum() == 5000

    def test_alignment_and_overlap(self):
        h1 = build_histogram([0.0, 0.1, 0.2], 0.1)
        h2 = build_histogram([0.2, 0.3], 0.1)
        edges, c1, c2 = align_histograms(h1, h2)
        assert len(edges) == len(c1) + 1 == len(c2) + 1
        assert histogram_overlap(h1, h2) == pytest.approx(1 / 3)

    @pytest.mark.parametrize("samples, width", [
        ([0.0, 1e200], 0.01), ([1e200, 1e200], 0.01), ([0.0, 1e308], 0.01),
        ([0.0, MAX_HISTOGRAM_BINS * 0.5], 0.5)], ids=["span", "index", "overflow", "past-cap"])
    def test_span_beyond_cap_raises(self, samples, width):
        with pytest.raises(HistogramTooWide, match=f"bin width {width}"):
            build_histogram(samples, width)

    def test_span_at_cap_builds(self):
        h = build_histogram([0.0, (MAX_HISTOGRAM_BINS - 0.5) * 0.5], 0.5)
        assert len(h.counts) == MAX_HISTOGRAM_BINS and h.counts.sum() == 2

    @pytest.mark.parametrize("cut", [1, 40, 99])
    def test_merge_equals_one_build(self, cut):
        """Histograms of two parts merge into the histogram of the whole, its
        edges and counts exactly, whichever part reaches further."""
        samples = np.random.default_rng(cut).normal(0.05, 0.02, 100)
        parts = build_histogram(samples[:cut], 0.003), build_histogram(samples[cut:], 0.003)
        whole = build_histogram(samples, 0.003)
        for merged in (parts[0].merge(parts[1]), parts[1].merge(parts[0])):
            np.testing.assert_array_equal(merged.edges, whole.edges)
            np.testing.assert_array_equal(merged.counts, whole.counts)

    def test_merge_beyond_cap_raises(self):
        """Two histograms within the cap each, but past it together."""
        h1, h2 = build_histogram([0.0], 0.5), build_histogram([MAX_HISTOGRAM_BINS * 0.5], 0.5)
        with pytest.raises(HistogramTooWide, match="bin width 0.5"):
            h1.merge(h2)
        top = build_histogram([(MAX_HISTOGRAM_BINS - 0.5) * 0.5], 0.5)
        assert len(h1.merge(top).counts) == MAX_HISTOGRAM_BINS

    def test_disjoint_samples_no_overlap(self):
        h1 = build_histogram(np.linspace(0, 0.9, 100), 0.1)
        h2 = build_histogram(np.linspace(2, 2.9, 100), 0.1)
        assert histogram_overlap(h1, h2) == 0.0

    def test_competitive_price_distribution_left_skewed(self, trials_competitive):
        cpcs = trials_competitive.cpc[~trials_competitive.degenerate]
        below, at_or_above = mass_split(cpcs, 1.0)
        assert below > at_or_above
        assert symmetry_z(cpcs) < -3.0

    def test_separated_rank_histograms_disjoint(self, trials_tight):
        top = rank_estimates(trials_tight, 1)
        second = rank_estimates(trials_tight, 2)
        overlap = histogram_overlap(build_histogram(top, 0.0005),
                                    build_histogram(second, 0.0005))
        assert overlap < 0.01


class TestBiasReport:
    def test_report_shape_and_splittability(self, trials_competitive):
        rep = bias_report(trials_competitive, (0.05, 0.05), (1.0, 1.0),
                          rank_histograms(trials_competitive))
        assert len(rep.per_rank) == 2
        assert rep.per_rank[0].bias_factor > rep.per_rank[1].bias_factor
        assert rep.per_rank[0].conditional_score_mean > rep.per_rank[1].conditional_score_mean
        assert len(rep.adjacent_splittable) == 1
        assert rep.adjacent_splittable[0] is True

    def test_eq5_style_consistency(self, trials_competitive):
        """Bias-ratio-corrected expected price matches the mean observed price
        within combined delta-method errors in the exchangeable setting."""
        ctrs = (0.05, 0.05)
        b1 = selection_bias(trials_competitive, ctrs, 1)
        b2 = selection_bias(trials_competitive, ctrs, 2)
        s = cpc_summary(trials_competitive, ctrs, (1.0, 1.0))
        predicted = (b2.value / b1.value) * (ctrs[1] / ctrs[0])
        combined = np.sqrt(s.observed_se ** 2 + s.ratio_of_means_se ** 2)
        assert abs(predicted - s.mean_observed_cpc) < 3 * combined
