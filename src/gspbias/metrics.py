"""Bias factors, price summaries, calibration ratios, and histograms.

The bias factor at rank k is the mean ratio of the rank-k CTR estimate to
the true CTR of whichever ad realized that rank, so a factor above one says
the slot's estimates run hot.  Calibration ratios compare predicted to
realized clicks on greedy top-slot traffic versus uniformly explored
traffic; their quotient is one exactly when estimate quality does not
depend on how the ad earned its display.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import BucketTables, TrialTable, rank_contexts
from .errors import (
    GridMismatch,
    HistogramTooWide,
    RankUnreachable,
    UndefinedCalibration,
    UndefinedRatio,
)
from .oracle import SplitVerdict, check_splittable

MIN_BIAS_TRIALS = 100
MAX_HISTOGRAM_BINS = 1 << 20  # bins one histogram may span


def _pow2(x: np.ndarray) -> float:
    """A power of two above every magnitude in x, so that the squares of
    x / _pow2(x) stay finite.  Division by it is exact, so moments taken
    over the scaled values and scaled back match the unscaled ones bit for
    bit wherever those do not overflow."""
    peak = float(np.max(np.abs(x)))
    return math.ldexp(1.0, min(math.frexp(peak)[1], 1023)) if 0.0 < peak < math.inf else 1.0


def _mean_se(x: np.ndarray) -> tuple[float, float | None]:
    """The mean of x and its standard error, None below two values; the
    deviations are taken in units of _pow2(x), so the SE is the unscaled
    one bit for bit wherever that does not overflow."""
    c = _pow2(x)
    se = float((x / c).std(ddof=1) / np.sqrt(len(x))) * c if len(x) > 1 else None
    return float(x.mean()), se


@dataclass(frozen=True)
class BiasFactor:
    rank: int
    value: float
    se: float


def selection_bias(trials: TrialTable, true_ctrs: tuple[float, ...], rank: int) -> BiasFactor:
    """Multiplicative bias of the rank-k CTR estimate against the true CTR.

    Each trial's rank-k estimate is divided by the true CTR of the ad holding
    rank k in that trial, then averaged.
    """
    n = len(trials)
    if n < MIN_BIAS_TRIALS:
        raise RankUnreachable(f"rank {rank} has {n} trials, need >= {MIN_BIAS_TRIALS}")
    holders = trials.order[:, rank - 1]
    ratios = trials.estimates[np.arange(n), holders] / np.asarray(true_ctrs)[holders]
    value, se = _mean_se(ratios)
    return BiasFactor(rank=rank, value=value, se=se)


@dataclass(frozen=True)
class CpcSummary:
    """Observed price against the price implied by the true CTRs."""

    expected_cpc: float
    mean_observed_cpc: float
    ratio: float
    observed_se: float | None
    ratio_of_means: float        # mean runner-up score / mean winner estimate
    ratio_of_means_se: float | None
    degenerate_trials: int


def cpc_summary(trials: TrialTable, true_ctrs: tuple[float, ...],
                bids: tuple[float, ...]) -> CpcSummary:
    """Average realized price over non-degenerate trials, and its true target:
    the price of the one auction ranked on the true CTRs."""
    expected = float(rank_contexts(np.asarray(bids), np.asarray([true_ctrs]))[2][0])
    ok = ~trials.degenerate
    used = int(ok.sum())
    degenerate = len(trials) - used
    if not used:
        return CpcSummary(expected_cpc=expected, mean_observed_cpc=float("nan"),
                          ratio=float("nan"), observed_se=None,
                          ratio_of_means=float("nan"), ratio_of_means_se=None,
                          degenerate_trials=degenerate)
    mean_cpc, se = _mean_se(trials.cpc[ok])
    # numerator/denominator of the per-trial price, averaged separately
    est, ranking, rows = trials.estimates[ok], trials.order[ok], np.arange(used)
    top_est = est[rows, ranking[:, 0]]
    if len(true_ctrs) > 1:
        runner_score = est[rows, ranking[:, 1]] * np.asarray(bids)[ranking[:, 1]]
    else:
        runner_score = np.zeros(used)
    mx, my = runner_score.mean(), top_est.mean()
    rom, rom_se = float("nan"), None
    if my > 0:
        rom = float(mx / my)
        if used > 1:
            # each side in units of its own power of two, which the relative
            # variances below do not depend on
            cx, cy = _pow2(runner_score), _pow2(top_est)
            x, y = runner_score / cx, top_est / cy
            mx, my = mx / cx, my / cy
            vx = x.var(ddof=1) / used
            if mx == 0:
                # every runner-up score is zero: the delta method's limit as mx -> 0
                rom_se = float(np.sqrt(vx) / my) * (cx / cy)
            else:
                vy = y.var(ddof=1) / used
                cxy = float(np.cov(x, y, ddof=1)[0, 1]) / used
                rom_se = abs(rom) * float(
                    np.sqrt(max(vx / mx ** 2 + vy / my ** 2 - 2 * cxy / (mx * my), 0.0)))
    return CpcSummary(
        expected_cpc=expected, mean_observed_cpc=mean_cpc,
        ratio=mean_cpc / expected if expected > 0 else float("nan"),
        observed_se=se, ratio_of_means=rom, ratio_of_means_se=rom_se,
        degenerate_trials=degenerate,
    )


@dataclass(frozen=True)
class CalibrationReport:
    """Predicted-over-realized click ratios on greedy vs explored traffic."""

    calibration_greedy: float
    calibration_random: float
    c_relative: float
    bid_weighted_greedy: float
    bid_weighted_random: float
    bid_weighted_c_relative: float
    greedy_clicks: int
    random_clicks: int


def _bids(tables: BucketTables) -> np.ndarray:
    return np.array([ad.bid for ad in tables.ads])


def c_relative(tables: BucketTables, first_day: int) -> CalibrationReport:
    """Calibration on greedy displays over calibration on random displays,
    over the days from ``first_day`` on.

    A display's predicted CTR is its day's estimate for its (ad, context),
    so each traffic kind's predicted clicks are its impression counts
    weighted by the estimates; the sums run over the day tables, whose shape
    does not depend on the traffic.  Raises UndefinedCalibration when either
    traffic kind has no clicks or no clicked bid value, or when the random
    traffic's predicted clicks or bid-weighted predicted value is zero.
    """
    imp, clk = tables.impressions[first_day:], tables.clicks[first_day:]
    est = tables.estimates[first_day:, None]   # broadcast over the two modes
    bid = _bids(tables)[:, None]
    modes = (0, 2, 3)  # sum all but the mode axis: [greedy, random]
    clicks = clk.sum(axis=modes)
    g_clicks, r_clicks = int(clicks[0]), int(clicks[1])
    if g_clicks == 0 or r_clicks == 0:
        raise UndefinedCalibration(
            f"need clicks on both traffic kinds, got greedy={g_clicks}, random={r_clicks}")
    pred = (imp * est).sum(axis=modes)
    w_den = (clk * bid).sum(axis=modes)
    if w_den[0] == 0.0 or w_den[1] == 0.0:
        raise UndefinedCalibration("bid-weighted clicked value is zero on one traffic kind")
    w_pred = (imp * (est * bid)).sum(axis=modes)
    cal_g, cal_r = float(pred[0] / g_clicks), float(pred[1] / r_clicks)
    wcal_g, wcal_r = float(w_pred[0] / w_den[0]), float(w_pred[1] / w_den[1])
    if cal_r == 0.0 or wcal_r == 0.0:
        raise UndefinedCalibration("random traffic has zero predicted clicks "
                                   "or zero bid-weighted predicted value")
    return CalibrationReport(
        calibration_greedy=cal_g, calibration_random=cal_r,
        c_relative=cal_g / cal_r,
        bid_weighted_greedy=wcal_g, bid_weighted_random=wcal_r,
        bid_weighted_c_relative=wcal_g / wcal_r,
        greedy_clicks=g_clicks, random_clicks=r_clicks,
    )


@dataclass(frozen=True)
class RelativeMetrics:
    """Bucket-B-over-bucket-A clicked value and clicked cost, greedy traffic only."""

    rtv: float
    rtc: float


def _greedy_value_and_cost(tables: BucketTables, first_day: int) -> tuple[float, float]:
    clicks = tables.clicks[first_day:, 0]   # (days, ads, contexts), greedy displays
    return (float((clicks * _bids(tables)[:, None]).sum()),
            float((clicks * tables.prices[first_day:, None]).sum()))


def rtv_rtc(tables_a: BucketTables, tables_b: BucketTables, first_day: int) -> RelativeMetrics:
    """Clicked value and clicked cost of bucket B over bucket A's, over the
    days from ``first_day`` on."""
    (value_a, cost_a), (value_b, cost_b) = (_greedy_value_and_cost(t, first_day)
                                            for t in (tables_a, tables_b))
    if value_a == 0.0:
        raise UndefinedRatio("bucket A has zero clicked bid value")
    if cost_a == 0.0:
        raise UndefinedRatio("bucket A has zero clicked cost")
    return RelativeMetrics(rtv=value_b / value_a, rtc=cost_b / cost_a)


@dataclass(frozen=True)
class Histogram:
    """Counts over half-open bins [edge_i, edge_{i+1}) on a width-aligned lattice."""

    edges: np.ndarray
    counts: np.ndarray

    @property
    def width(self) -> float:
        return float(self.edges[1] - self.edges[0])


def build_histogram(samples, bin_width: float) -> Histogram:
    """Histogram whose edges are consecutive multiples of ``bin_width``.

    Anchoring edges to the width lattice means two histograms built with the
    same width are always alignable bin-for-bin.  Raises HistogramTooWide
    when the samples span more than MAX_HISTOGRAM_BINS bins, or lattice
    indices that are not exact integers.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("samples must be non-empty")
    if bin_width <= 0:
        raise ValueError("bin width must be positive")
    with np.errstate(over="ignore"):
        k = np.floor(samples / bin_width)
    lo, hi = k.min(), k.max()
    if not (-2.0 ** 53 <= lo and hi <= 2.0 ** 53 and hi - lo < MAX_HISTOGRAM_BINS):
        raise HistogramTooWide(f"samples from {samples.min()} to {samples.max()} at bin width "
                               f"{bin_width} span more than {MAX_HISTOGRAM_BINS} bins")
    k_min, k_max = int(lo), int(hi)
    counts = np.bincount((k - lo).astype(np.int64), minlength=k_max - k_min + 1)
    edges = (k_min + np.arange(k_max - k_min + 2)) * bin_width
    return Histogram(edges=edges, counts=counts)


def align_histograms(h1: Histogram, h2: Histogram) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Common edges plus zero-padded counts for two same-width histograms."""
    if not np.isclose(h1.width, h2.width, rtol=1e-12, atol=0):
        raise GridMismatch(f"bin widths differ: {h1.width} vs {h2.width}")
    w = h1.width
    k1, k2 = round(h1.edges[0] / w), round(h2.edges[0] / w)
    lo = min(k1, k2)
    hi = max(k1 + len(h1.counts), k2 + len(h2.counts))
    c1 = np.zeros(hi - lo, dtype=np.int64)
    c2 = np.zeros(hi - lo, dtype=np.int64)
    c1[k1 - lo:k1 - lo + len(h1.counts)] = h1.counts
    c2[k2 - lo:k2 - lo + len(h2.counts)] = h2.counts
    return (lo + np.arange(hi - lo + 1)) * w, c1, c2


def split_histogram_densities(edges, counts_f, counts_g) -> SplitVerdict:
    """Splittability of two histograms over the same bin edges, at 3x the
    pooled per-bin sampling standard error of the density estimates."""
    counts_f = np.asarray(counts_f, dtype=float)
    counts_g = np.asarray(counts_g, dtype=float)
    widths = np.diff(np.asarray(edges, dtype=float))
    n_f, n_g = counts_f.sum(), counts_g.sum()
    dens_f = counts_f / (n_f * widths)
    dens_g = counts_g / (n_g * widths)
    var_f = dens_f / (n_f * widths)
    var_g = dens_g / (n_g * widths)
    tolerance = 3.0 * float(np.sqrt(np.mean(var_f + var_g)))
    return check_splittable(dens_f, dens_g, tolerance)


@dataclass(frozen=True)
class RankBiasSummary:
    rank: int
    bias_factor: float
    bias_se: float | None
    conditional_score_mean: float
    conditional_score_se: float | None
    samples: int


@dataclass(frozen=True)
class BiasReport:
    """Per-rank bias diagnostics for one study setting."""

    per_rank: tuple[RankBiasSummary, ...]
    adjacent_splittable: tuple[bool, ...]   # rank k vs k+1 ordered-score histograms


def bias_report(trials: TrialTable, true_ctrs: tuple[float, ...],
                bids: tuple[float, ...], rank_hists: list[Histogram]) -> BiasReport:
    """Assemble bias factors, ordered-score moments, and splittability
    verdicts; ``rank_hists[k]`` is the histogram of rank k + 1's scores."""
    m = len(true_ctrs)
    per_rank = []
    for rank in range(1, m + 1):
        factor = selection_bias(trials, true_ctrs, rank)
        # grouped by ad, then in trial order
        scores = np.concatenate([trials.estimates[trials.rank[:, i] == rank - 1, i] * bids[i]
                                 for i in range(m)])
        mean, se = _mean_se(scores)
        per_rank.append(RankBiasSummary(
            rank=rank, bias_factor=factor.value, bias_se=factor.se,
            conditional_score_mean=mean, conditional_score_se=se, samples=len(scores),
        ))
    splittable = []
    for k in range(m - 1):
        edges, c_better, c_worse = align_histograms(rank_hists[k], rank_hists[k + 1])
        # the better rank's scores should sit below the worse rank's density
        # at low scores and above it at high scores, crossing once
        verdict = split_histogram_densities(edges, c_better, c_worse)
        splittable.append(verdict.splittable)
    return BiasReport(per_rank=tuple(per_rank), adjacent_splittable=tuple(splittable))
