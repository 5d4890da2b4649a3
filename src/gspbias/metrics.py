"""Bias factors, price summaries, calibration ratios, and histograms.

The bias factor at rank k is the mean ratio of the rank-k CTR estimate to
the true CTR of whichever ad realized that rank, so a factor above one says
the slot's estimates run hot.  Calibration ratios compare predicted to
realized clicks on greedy top-slot traffic versus uniformly explored
traffic; their quotient is one exactly when estimate quality does not
depend on how the ad earned its display.

simulate-cpc reduces each block of a setting's trials to a ``CpcStats``:
counts, moments in power-of-two units and lattice histograms, which merge
block by block in a size that does not grow with the trial count.
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
    """Counts over the half-open bins [k w, (k + 1) w) of the lattice of
    width w = ``bin_width``, one per k from ``lo`` on."""

    lo: int
    bin_width: float
    counts: np.ndarray

    @property
    def edges(self) -> np.ndarray:
        return (self.lo + np.arange(len(self.counts) + 1)) * self.bin_width

    @property
    def width(self) -> float:
        return self.bin_width

    def merge(self, other: Histogram) -> Histogram:
        """Both histograms' counts, added bin for bin on their common
        lattice.  Raises HistogramTooWide when the two span more than
        MAX_HISTOGRAM_BINS bins together."""
        lo = min(self.lo, other.lo)
        hi = max(self.lo + len(self.counts), other.lo + len(other.counts))
        w = self.bin_width
        if hi - lo > MAX_HISTOGRAM_BINS:
            raise HistogramTooWide(f"bins from {lo * w} to {hi * w} at bin width {w} "
                                   f"span more than {MAX_HISTOGRAM_BINS} bins")
        _edges, c1, c2 = align_histograms(self, other)
        return Histogram(lo, w, c1 + c2)


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
    return Histogram(lo=k_min, bin_width=bin_width, counts=counts)


def align_histograms(h1: Histogram, h2: Histogram) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Common edges plus zero-padded counts for two same-width histograms."""
    if not np.isclose(h1.width, h2.width, rtol=1e-12, atol=0):
        raise GridMismatch(f"bin widths differ: {h1.width} vs {h2.width}")
    lo = min(h1.lo, h2.lo)
    hi = max(h1.lo + len(h1.counts), h2.lo + len(h2.counts))
    c1 = np.zeros(hi - lo, dtype=np.int64)
    c2 = np.zeros(hi - lo, dtype=np.int64)
    c1[h1.lo - lo:h1.lo - lo + len(h1.counts)] = h1.counts
    c2[h2.lo - lo:h2.lo - lo + len(h2.counts)] = h2.counts
    return (lo + np.arange(hi - lo + 1)) * h1.bin_width, c1, c2


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


def _pow2(x: np.ndarray) -> float:
    """A power of two above every magnitude in x, so that the squares of
    x / _pow2(x) stay finite."""
    peak = float(np.max(np.abs(x)))
    return math.ldexp(1.0, min(math.frexp(peak)[1], 1023)) if 0.0 < peak < math.inf else 1.0


def _shift(scale: float, to: float) -> int:
    """The power of two that takes values in units of ``scale`` to units of ``to``."""
    return math.frexp(scale)[1] - math.frexp(to)[1]


@dataclass(frozen=True)
class Moments:
    """The count of a sample and its mean and sum of squared deviations
    (M2) in units of ``scale``, a power of two above every magnitude in it,
    so that the squares stay finite.  Division by it is exact, so the mean
    and standard error scaled back are numpy's unscaled ones bit for bit
    wherever those neither overflow nor fall below the smallest normal."""

    n: int
    mean: float
    m2: float
    scale: float

    @classmethod
    def of(cls, x: np.ndarray) -> Moments:
        """The moments of x as numpy's ``x.std`` takes them, in units of
        ``_pow2(x)``."""
        if not len(x):
            return cls(0, 0.0, 0.0, 1.0)
        scale = _pow2(x)
        x = x / scale
        mean = x.mean()
        x -= mean
        return cls(len(x), float(mean), float((x * x).sum()), scale)

    def in_units(self, scale: float) -> Moments:
        """These moments in units of ``scale``, a power of two at least
        ``self.scale``: exact but where a value falls below the smallest
        normal, and then negligible beside the values of that scale."""
        k = _shift(self.scale, scale)
        return Moments(self.n, math.ldexp(self.mean, k), math.ldexp(self.m2, 2 * k), scale)

    def merge(self, other: Moments) -> Moments:
        """Both samples' moments, ``other``'s values after these (Chan,
        Golub & LeVeque 1979), in the larger of the two units."""
        if not (self.n and other.n):
            return other if other.n else self
        scale = max(self.scale, other.scale)
        a, b = self.in_units(scale), other.in_units(scale)
        n = a.n + b.n
        delta = b.mean - a.mean
        return Moments(n, a.mean + delta * b.n / n,
                       a.m2 + b.m2 + delta * delta * a.n * b.n / n, scale)

    def mean_se(self) -> tuple[float, float | None]:
        """The mean and its standard error, None below two values."""
        se = (float(np.sqrt(self.m2 / (self.n - 1)) / np.sqrt(self.n)) * self.scale
              if self.n > 1 else None)
        return self.mean * self.scale, se


@dataclass(frozen=True)
class CoMoments:
    """The ``Moments`` of paired samples x and y, and their co-moment ``c``,
    the sum of the products of their deviations, in units of
    x.scale * y.scale."""

    x: Moments
    y: Moments
    c: float

    @classmethod
    def of(cls, x: np.ndarray, y: np.ndarray) -> CoMoments:
        """The moments of x and y as their ``std`` takes them, and the
        co-moment as ``np.cov`` takes it: one product of the centred rows."""
        if not len(x):
            return cls(Moments.of(x), Moments.of(y), 0.0)
        scale_x, scale_y = _pow2(x), _pow2(y)
        xy = np.stack([x / scale_x, y / scale_y])
        mean = xy.mean(axis=1)
        xy -= mean[:, None]
        m2 = (xy * xy).sum(axis=1)
        n = len(x)
        return cls(Moments(n, float(mean[0]), float(m2[0]), scale_x),
                   Moments(n, float(mean[1]), float(m2[1]), scale_y),
                   float(np.dot(xy, xy.T)[0, 1]))

    def in_units(self, scale_x: float, scale_y: float) -> CoMoments:
        """These moments with x in units of ``scale_x`` and y in units of
        ``scale_y``, as ``Moments.in_units`` takes each side."""
        k = _shift(self.x.scale, scale_x) + _shift(self.y.scale, scale_y)
        return CoMoments(self.x.in_units(scale_x), self.y.in_units(scale_y), math.ldexp(self.c, k))

    def merge(self, other: CoMoments) -> CoMoments:
        """Both samples' moments, ``other``'s pairs after these, each side
        in the larger of its two units."""
        na, nb = self.x.n, other.x.n
        if not (na and nb):
            return other if nb else self
        scale_x, scale_y = max(self.x.scale, other.x.scale), max(self.y.scale, other.y.scale)
        a, b = self.in_units(scale_x, scale_y), other.in_units(scale_x, scale_y)
        dx, dy = b.x.mean - a.x.mean, b.y.mean - a.y.mean
        return CoMoments(a.x.merge(b.x), a.y.merge(b.y),
                         a.c + b.c + dx * dy * na * nb / (na + nb))


@dataclass(frozen=True)
class CpcStats:
    """What simulate-cpc reports of a run of one setting's trials, in a
    size that does not grow with the trial count.  Counts add, moments
    merge and histogram counts add on their lattice, so two runs of
    consecutive trials ``merge`` into the statistics of both."""

    trials: int
    degenerate: int
    cpc: Moments             # the non-degenerate trials' prices
    price_parts: CoMoments   # their runner-up scores (x) and winner estimates (y)
    ratios: tuple[Moments, ...]   # per rank: the estimate over its holder's true CTR
    scores: tuple[Moments, ...]   # per rank: bid x estimate, grouped by ad
    cpc_hist: Histogram | None    # None while every trial is degenerate
    rank_hists: tuple[Histogram, ...]  # per rank: bid x estimate

    def merge(self, other: CpcStats) -> CpcStats:
        """The statistics of these trials, then ``other``'s."""
        cpc_hist = self.cpc_hist or other.cpc_hist
        if self.cpc_hist is not None and other.cpc_hist is not None:
            cpc_hist = self.cpc_hist.merge(other.cpc_hist)
        return CpcStats(
            trials=self.trials + other.trials, degenerate=self.degenerate + other.degenerate,
            cpc=self.cpc.merge(other.cpc), price_parts=self.price_parts.merge(other.price_parts),
            ratios=tuple(a.merge(b) for a, b in zip(self.ratios, other.ratios)),
            scores=tuple(a.merge(b) for a, b in zip(self.scores, other.scores)),
            cpc_hist=cpc_hist,
            rank_hists=tuple(a.merge(b) for a, b in zip(self.rank_hists, other.rank_hists)))


def cpc_block_stats(trials: TrialTable, true_ctrs: tuple[float, ...], bids: tuple[float, ...],
                    widths: tuple[float, float], histogram=build_histogram) -> CpcStats:
    """The ``CpcStats`` of one block of trials, the reduce of
    ``run_cpc_study``; ``widths`` are the bin widths of the price and score
    histograms, which ``histogram`` builds.  Each quantity's moments are
    taken in units of a power of two above its largest magnitude in the
    block, and merge into the larger units."""
    n, m = trials.estimates.shape
    ok = ~trials.degenerate
    used = int(ok.sum())
    cpcs = trials.cpc[ok]
    # column k: the estimate at rank k + 1, and its holder's bid and true CTR
    ranked = np.take_along_axis(trials.estimates, trials.order, axis=1)
    bid, ctr = np.asarray(bids)[trials.order], np.asarray(true_ctrs)[trials.order]
    # numerator/denominator of the per-trial price, averaged separately
    runner_score = ranked[ok, 1] * bid[ok, 1] if m > 1 else np.zeros(used)
    # each rank's scores grouped by ad, then in trial order
    scores = tuple(Moments.of(np.concatenate([trials.estimates[trials.rank[:, i] == k, i] * bids[i]
                                              for i in range(m)]))
                   for k in range(m))
    return CpcStats(
        trials=n, degenerate=n - used, cpc=Moments.of(cpcs),
        price_parts=CoMoments.of(runner_score, ranked[ok, 0]),
        ratios=tuple(Moments.of(col) for col in (ranked / ctr).T), scores=scores,
        cpc_hist=histogram(cpcs, widths[0]) if used else None,
        rank_hists=tuple(histogram(col, widths[1]) for col in (ranked * bid).T))


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


def cpc_summary(stats: CpcStats, true_ctrs: tuple[float, ...],
                bids: tuple[float, ...]) -> CpcSummary:
    """Average realized price over non-degenerate trials, and its true target:
    the price of the one auction ranked on the true CTRs."""
    expected = float(rank_contexts(np.asarray(bids), np.asarray([true_ctrs]))[2][0])
    used = stats.cpc.n
    if not used:
        return CpcSummary(expected_cpc=expected, mean_observed_cpc=float("nan"),
                          ratio=float("nan"), observed_se=None,
                          ratio_of_means=float("nan"), ratio_of_means_se=None,
                          degenerate_trials=stats.degenerate)
    mean_cpc, se = stats.cpc.mean_se()
    # each side in its own units, which the relative variances below do not depend on
    x, y = stats.price_parts.x, stats.price_parts.y
    rom, rom_se = float("nan"), None
    if y.mean > 0:
        rom = float(x.mean * x.scale / (y.mean * y.scale))
        if used > 1:
            vx = x.m2 / (used - 1) / used
            if x.mean == 0:
                # every runner-up score is zero: the delta method's limit as mx -> 0
                rom_se = float(np.sqrt(vx) / y.mean) * (x.scale / y.scale)
            else:
                vy = y.m2 / (used - 1) / used
                # np.cov's normalization: the co-moment times 1 / (n - 1)
                cxy = stats.price_parts.c * (1 / (used - 1)) / used
                rom_se = abs(rom) * float(np.sqrt(max(
                    vx / x.mean ** 2 + vy / y.mean ** 2 - 2 * cxy / (x.mean * y.mean), 0.0)))
    return CpcSummary(
        expected_cpc=expected, mean_observed_cpc=mean_cpc,
        ratio=mean_cpc / expected if expected > 0 else float("nan"),
        observed_se=se, ratio_of_means=rom, ratio_of_means_se=rom_se,
        degenerate_trials=stats.degenerate,
    )


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


def bias_report(stats: CpcStats) -> BiasReport:
    """Assemble bias factors, ordered-score moments, and splittability
    verdicts.  The bias factor at rank k is the mean, over trials, of the
    rank-k estimate over the true CTR of the ad holding rank k.  Raises
    RankUnreachable below MIN_BIAS_TRIALS trials."""
    if stats.trials < MIN_BIAS_TRIALS:
        raise RankUnreachable(f"rank 1 has {stats.trials} trials, need >= {MIN_BIAS_TRIALS}")
    per_rank = []
    for rank, (ratios, scores) in enumerate(zip(stats.ratios, stats.scores), 1):
        factor, factor_se = ratios.mean_se()
        mean, se = scores.mean_se()
        per_rank.append(RankBiasSummary(
            rank=rank, bias_factor=factor, bias_se=factor_se,
            conditional_score_mean=mean, conditional_score_se=se, samples=scores.n,
        ))
    hists = stats.rank_hists
    splittable = []
    for k in range(len(hists) - 1):
        edges, c_better, c_worse = align_histograms(hists[k], hists[k + 1])
        # the better rank's scores should sit below the worse rank's density
        # at low scores and above it at high scores, crossing once
        verdict = split_histogram_densities(edges, c_better, c_worse)
        splittable.append(verdict.splittable)
    return BiasReport(per_rank=tuple(per_rank), adjacent_splittable=tuple(splittable))
