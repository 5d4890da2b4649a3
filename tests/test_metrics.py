import numpy as np
import pytest

from gspbias.engine import (
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
    bias_report,
    MAX_HISTOGRAM_BINS,
    build_histogram,
    c_relative,
    c_relative_log_se,
    cpc_summary,
    histogram_overlap,
    mass_split,
    rtv_rtc,
    selection_bias,
)
from reference import log_from_rows, symmetry_z


def run_setting(ctrs, n, trials=20000, seed=314, idx=0):
    cfg = CpcStudyConfig(name="x", impressions=(n, n), true_ctrs=ctrs,
                         bids=(1.0, 1.0), trials=trials, seed=seed, setting_index=idx)
    return run_cpc_study(cfg)


def take(trials, rows):
    """The trials at ``rows`` as a table of their own."""
    return TrialTable(trials.estimates[rows], trials.order[rows],
                      trials.cpc[rows], trials.degenerate[rows])


def rank_estimates(trials, rank):
    """Each trial's estimate at ``rank``, in trial order."""
    return trials.estimates[np.arange(len(trials)), trials.order[:, rank - 1]]


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


def test_log_from_rows_reads_back_each_row():
    rows = {"pred_ctr": [0.1, 0.2, 0.3, 0.0], "bid": [4.0, 6.0, 4.0, 1.0],
            "cpc": [2.0, 0.0, 9.0, 0.0], "random_mode": [False, True, False, True],
            "click": [1, 0, 0, 1]}
    log = log_from_rows(*rows.values())
    for name, want in rows.items():
        np.testing.assert_array_equal(getattr(log, name), want)
    with pytest.raises(ValueError):
        log_from_rows([0.1], [1.0], [0.5], [True], [1])


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
        s = cpc_summary(trials_competitive, (0.05, 0.05))
        assert s.expected_cpc == pytest.approx(1.0)
        assert s.mean_observed_cpc < 1.0
        assert s.ratio == pytest.approx(s.mean_observed_cpc)

    def test_zero_variance(self):
        trials = run_setting((1.0, 1.0), 10, trials=200, idx=2)
        s = cpc_summary(trials, (1.0, 1.0))
        assert (s.expected_cpc, s.mean_observed_cpc, s.ratio) == (1.0, 1.0, 1.0)

    def test_degenerate_trials_excluded_but_counted(self):
        trials = run_setting((0.05, 0.05), 2, trials=2000, idx=3)
        s = cpc_summary(trials, (0.05, 0.05))
        assert s.degenerate_trials > 0
        assert s.trials_used == len(trials) - s.degenerate_trials
        kept = trials.cpc[~trials.degenerate]
        assert s.mean_observed_cpc == pytest.approx(np.mean(kept))

    def test_all_degenerate_trials_yield_nan_summary(self):
        trials = run_setting((0.01, 0.01), 1, trials=200, idx=5)
        degen = take(trials, trials.degenerate)
        assert len(degen)
        s = cpc_summary(degen, (0.01, 0.01))
        assert s.trials_used == 0
        assert np.isnan(s.mean_observed_cpc) and s.observed_se is None
        assert s.degenerate_trials == len(degen)

    def test_ratio_of_expectations_tracks_mean_price(self, trials_competitive):
        """The two price summaries differ only by correlated-ratio curvature,
        which the combined delta-method errors absorb at this trial count."""
        s = cpc_summary(trials_competitive, (0.05, 0.05))
        combined = np.sqrt(s.observed_se ** 2 + s.ratio_of_means_se ** 2)
        assert abs(s.ratio_of_means - s.mean_observed_cpc) < 3 * combined


class TestCalibration:
    def test_direct_arithmetic(self):
        log = make_log(preds=[0.1, 0.2, 0.3, 0.1, 0.1],
                       clicks=[0, 1, 0, 1, 0],
                       random_mode=[False, False, False, True, True])
        rep = c_relative(log)
        assert rep.calibration_greedy == pytest.approx(0.6)
        assert rep.calibration_random == pytest.approx(0.2)
        assert rep.c_relative == pytest.approx(3.0)

    def test_bid_weighting_neutral_under_equal_bids(self):
        rng = np.random.default_rng(41)
        n = 4000
        preds = rng.uniform(0.01, 0.2, n)
        clicks = rng.binomial(1, preds)
        modes = rng.random(n) < 0.5
        rep = c_relative(make_log(preds, clicks, modes))
        assert rep.bid_weighted_c_relative == pytest.approx(rep.c_relative, rel=1e-12)

    def test_zero_random_clicks_undefined(self):
        log = make_log(preds=[0.1, 0.1], clicks=[1, 0], random_mode=[False, True])
        with pytest.raises(UndefinedCalibration):
            c_relative(log)

    def test_calibrated_predictor_near_one(self):
        """When predictions equal the click probabilities and selection carries
        no information, the greedy/random calibration ratio is one up to noise."""
        rng = np.random.default_rng(42)
        n = 200_000
        preds = rng.uniform(0.02, 0.15, n)
        clicks = rng.binomial(1, preds)
        modes = rng.random(n) < 0.5
        log = make_log(preds, clicks, modes)
        rep = c_relative(log)
        se = c_relative_log_se(log)
        assert abs(np.log(rep.c_relative)) < 3 * se
        assert se < 0.05


class TestRtvRtc:
    def test_direct_arithmetic(self):
        a = make_log(preds=[0.1] * 3, clicks=[1, 1, 0], random_mode=[False] * 3,
                     bids=[4.0, 6.0, 9.0], cpcs=[2.0, 3.0, 9.0])
        b = make_log(preds=[0.1] * 3, clicks=[1, 1, 0], random_mode=[False] * 3,
                     bids=[5.0, 5.4, 9.0], cpcs=[2.5, 3.0, 9.0])
        rel = rtv_rtc(a, b)
        assert rel.rtv == pytest.approx(10.4 / 10.0)
        assert rel.rtc == pytest.approx(5.5 / 5.0)

    def test_random_mode_records_excluded(self):
        a = make_log(preds=[0.1, 0.1], clicks=[1, 1], random_mode=[False, True],
                     bids=[2.0, 50.0], cpcs=[1.0, 0.0])
        rel = rtv_rtc(a, a)
        assert rel.rtv == 1.0 and rel.rtc == 1.0

    def test_identical_buckets_exactly_one(self):
        cfg = AbConfig(
            ads=tuple(AdSpec(i + 1, 1.0 + 0.1 * i, 0.05) for i in range(3)),
            contexts=(Context(1, 1, 1.0),),
            buckets=(BucketSpec("A", "naive"), BucketSpec("B", "naive")),
            days=4, traffic_per_day=3000, epsilon=0.2, window_days=2,
            burn_in_days=2, seed=9)
        logs = run_ab_experiment(cfg)
        rel = rtv_rtc(logs["A"].after_day(2), logs["B"].after_day(2))
        assert rel.rtv == 1.0 and rel.rtc == 1.0

    def test_zero_denominator_undefined(self):
        a = make_log(preds=[0.1], clicks=[0], random_mode=[False])
        with pytest.raises(UndefinedRatio):
            rtv_rtc(a, a)


class TestHistograms:
    def test_lattice_binning(self):
        h = build_histogram([0.5, 0.5, 1.0], 0.5)
        np.testing.assert_allclose(h.edges, [0.5, 1.0, 1.5])
        np.testing.assert_array_equal(h.counts, [2, 1])
        assert h.total == 3

    def test_total_conservation(self):
        rng = np.random.default_rng(43)
        samples = rng.normal(0.05, 0.01, 5000)
        h = build_histogram(samples, 0.001)
        assert h.total == 5000

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
        assert len(h.counts) == MAX_HISTOGRAM_BINS and h.total == 2

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
        rep = bias_report(trials_competitive, (0.05, 0.05))
        assert len(rep.per_rank) == 2
        assert rep.per_rank[0].bias_factor > rep.per_rank[1].bias_factor
        assert rep.per_rank[0].conditional_score_mean > rep.per_rank[1].conditional_score_mean
        assert rep.degenerate_trials == 0
        assert len(rep.adjacent_splittable) == 1
        assert rep.adjacent_splittable[0] is True

    def test_eq5_style_consistency(self, trials_competitive):
        """Bias-ratio-corrected expected price matches the mean observed price
        within combined delta-method errors in the exchangeable setting."""
        ctrs = (0.05, 0.05)
        b1 = selection_bias(trials_competitive, ctrs, 1)
        b2 = selection_bias(trials_competitive, ctrs, 2)
        s = cpc_summary(trials_competitive, ctrs)
        predicted = (b2.value / b1.value) * (ctrs[1] / ctrs[0])
        combined = np.sqrt(s.observed_se ** 2 + s.ratio_of_means_se ** 2)
        assert abs(predicted - s.mean_observed_cpc) < 3 * combined
