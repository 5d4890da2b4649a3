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

from .engine import ImpressionLog, TrialTable
from .errors import (
    GridMismatch,
    HistogramTooWide,
    RankUnreachable,
    UndefinedCalibration,
    UndefinedRatio,
)

MIN_BIAS_TRIALS = 100
MAX_HISTOGRAM_BINS = 1 << 20  # bins one histogram may span


def _pow2(x: np.ndarray) -> float:
    """A power of two above every magnitude in x, so that the squares of
    x / _pow2(x) stay finite.  Division by it is exact, so moments taken
    over the scaled values and scaled back match the unscaled ones bit for
    bit wherever those do not overflow."""
    peak = float(np.max(np.abs(x)))
    return math.ldexp(1.0, min(math.frexp(peak)[1], 1023)) if 0.0 < peak < math.inf else 1.0


def _true_ranking(true_ctrs, bids) -> list[int]:
    scores = [b * c for b, c in zip(bids, true_ctrs)]
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))


@dataclass(frozen=True)
class BiasFactor:
    rank: int
    value: float
    se: float
    trials_used: int


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
    se = float(ratios.std(ddof=1) / np.sqrt(n))
    return BiasFactor(rank=rank, value=float(ratios.mean()), se=se, trials_used=n)


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
    trials_used: int


def cpc_summary(trials: TrialTable, true_ctrs: tuple[float, ...],
                bids: tuple[float, ...] | None = None) -> CpcSummary:
    """Average realized price over non-degenerate trials, and its true target."""
    bids = bids if bids is not None else (1.0,) * len(true_ctrs)
    order = _true_ranking(true_ctrs, bids)
    if len(true_ctrs) > 1:
        expected = (bids[order[1]] * true_ctrs[order[1]]) / true_ctrs[order[0]]
    else:
        expected = 0.0
    ok = ~trials.degenerate
    used = int(ok.sum())
    degenerate = len(trials) - used
    if not used:
        return CpcSummary(expected_cpc=expected, mean_observed_cpc=float("nan"),
                          ratio=float("nan"), observed_se=None,
                          ratio_of_means=float("nan"), ratio_of_means_se=None,
                          degenerate_trials=degenerate, trials_used=0)
    cpcs = trials.cpc[ok]
    mean_cpc = float(cpcs.mean())
    c = _pow2(cpcs)
    se = float((cpcs / c).std(ddof=1) / np.sqrt(used)) * c if used > 1 else None
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
        degenerate_trials=degenerate, trials_used=used,
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
    greedy_count: int
    random_count: int
    greedy_clicks: int
    random_clicks: int


def c_relative(log: ImpressionLog) -> CalibrationReport:
    """Calibration on greedy displays over calibration on random displays."""
    random = log.random_mode
    greedy = ~random
    click, pred, bid = log.click, log.pred_ctr, log.bid
    g_clicks = int(click[greedy].sum())
    r_clicks = int(click[random].sum())
    if g_clicks == 0 or r_clicks == 0:
        raise UndefinedCalibration(
            f"need clicks on both traffic kinds, got greedy={g_clicks}, random={r_clicks}")
    cal_g = float(pred[greedy].sum() / g_clicks)
    cal_r = float(pred[random].sum() / r_clicks)
    wg_den = float((bid[greedy] * click[greedy]).sum())
    wr_den = float((bid[random] * click[random]).sum())
    if wg_den == 0.0 or wr_den == 0.0:
        raise UndefinedCalibration("bid-weighted clicked value is zero on one traffic kind")
    wcal_g = float((bid[greedy] * pred[greedy]).sum() / wg_den)
    wcal_r = float((bid[random] * pred[random]).sum() / wr_den)
    return CalibrationReport(
        calibration_greedy=cal_g, calibration_random=cal_r,
        c_relative=cal_g / cal_r,
        bid_weighted_greedy=wcal_g, bid_weighted_random=wcal_r,
        bid_weighted_c_relative=wcal_g / wcal_r,
        greedy_count=int(greedy.sum()), random_count=int(random.sum()),
        greedy_clicks=g_clicks, random_clicks=r_clicks,
    )


def c_relative_log_se(log: ImpressionLog) -> float:
    """Delta-method standard error of log C_relative.

    Treats records as independent and propagates each record's influence on
    the two calibration ratios; greedy and random groups are disjoint so
    their contributions add.
    """
    pred, click = log.pred_ctr, log.click
    se_sq = 0.0
    for mask in (~log.random_mode, log.random_mode):
        p_sum = float(pred[mask].sum())
        c_sum = float(click[mask].sum())
        if p_sum <= 0 or c_sum <= 0:
            raise UndefinedCalibration("cannot form a standard error without clicks")
        influence = pred[mask] / p_sum - click[mask] / c_sum
        se_sq += float((influence ** 2).sum())
    return float(np.sqrt(se_sq))


@dataclass(frozen=True)
class RelativeMetrics:
    """Bucket-B-over-bucket-A clicked value and clicked cost, greedy traffic only."""

    rtv: float
    rtc: float


def _greedy_value_and_cost(log: ImpressionLog) -> tuple[float, float]:
    greedy = ~log.random_mode
    click = log.click[greedy]
    return float((click * log.bid[greedy]).sum()), float((click * log.cpc[greedy]).sum())


def rtv_rtc(log_a: ImpressionLog, log_b: ImpressionLog) -> RelativeMetrics:
    (value_a, cost_a), (value_b, cost_b) = map(_greedy_value_and_cost, (log_a, log_b))
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
    def total(self) -> int:
        return int(self.counts.sum())

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


def histogram_overlap(h1: Histogram, h2: Histogram) -> float:
    """Shared mass: sum over bins of min(fraction_1, fraction_2)."""
    _edges, c1, c2 = align_histograms(h1, h2)
    return float(np.minimum(c1 / c1.sum(), c2 / c2.sum()).sum())


def mass_split(samples, threshold: float) -> tuple[float, float]:
    """Fractions of samples strictly below / at-or-above ``threshold``."""
    samples = np.asarray(samples, dtype=float)
    below = float((samples < threshold).mean())
    return below, 1.0 - below


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
    degenerate_trials: int


def bias_report(trials: TrialTable, true_ctrs: tuple[float, ...],
                bids: tuple[float, ...] | None = None,
                hist_width: float = 0.0005) -> BiasReport:
    """Assemble bias factors, ordered-score moments, and splittability verdicts."""
    from .oracle import split_histogram_densities  # local import to avoid a cycle

    bids = bids if bids is not None else (1.0,) * len(true_ctrs)
    m = len(true_ctrs)
    per_rank = []
    rank_scores = []
    for rank in range(1, m + 1):
        factor = selection_bias(trials, true_ctrs, rank)
        holders = trials.order[:, rank - 1]
        # grouped by ad, then in trial order
        scores = np.concatenate([trials.estimates[holders == i, i] * bids[i]
                                 for i in range(m)])
        rank_scores.append(scores)
        c = _pow2(scores)
        per_rank.append(RankBiasSummary(
            rank=rank, bias_factor=factor.value, bias_se=factor.se,
            conditional_score_mean=float(scores.mean()),
            conditional_score_se=(float((scores / c).std(ddof=1) / np.sqrt(len(scores))) * c
                                  if len(scores) > 1 else None),
            samples=len(scores),
        ))
    splittable = []
    for k in range(m - 1):
        h_better = build_histogram(rank_scores[k], hist_width)
        h_worse = build_histogram(rank_scores[k + 1], hist_width)
        edges, c_better, c_worse = align_histograms(h_better, h_worse)
        # the better rank's scores should sit below the worse rank's density
        # at low scores and above it at high scores, crossing once
        verdict = split_histogram_densities(edges, c_better, edges, c_worse)
        splittable.append(verdict.splittable)
    return BiasReport(
        per_rank=tuple(per_rank),
        adjacent_splittable=tuple(splittable),
        degenerate_trials=int(trials.degenerate.sum()),
    )
