"""Deterministic Monte Carlo drivers for the two studies.

``run_cpc_study`` repeats one auction between ads whose CTR estimates are
binomial click proportions, recording the realized price each time.
``run_ab_experiment`` serves multi-day synthetic traffic to two buckets that
differ only in their CTR estimator, logging one impression record per access.
``sample_rank_stats`` draws independent scores for the theorem check and
reduces them to per-(ad, rank) moments; beta scores invert the CDF rows of
the case's ``oracle.CaseGrid`` by one Hermite-interpolant Newton step,
exact to within 1e-9 of each ad's scale.

All randomness is addressed by counter-based streams (see ``rng``): trial t
of a study and access a of a bucket-day each own a fixed slice of their
stream, so results are bit-identical for any worker count or chunking, and
every random quantity is an inverse-CDF transform of those uniforms.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Literal

import numpy as np

from . import rng
from .errors import EmptyAuction, InvalidValue, NoData, RankUnreachable, RepeatedContext
from .estimators import (
    FALLBACK_HYPER,
    CountWindow,
    PoolHyperParams,
    fit_pool,
    naive_contextual_estimate,
    pooled_estimate,
)
from .oracle import CaseGrid, ScoreDistribution

STREAM_CPC = 0
STREAM_AB = 1
STREAM_MC = 2

# binom.ppf maps u = 0 to -1, so u is clamped just above zero.  BinomialInverse
# gives the smallest k with cdf(k) >= u; boost's binom.ppf gives the same k
# except where u lies within rounding of a CDF value.  On the uniforms
# Generator.random returns that is u = 1 - 2**-53, its largest, where the CDF
# at several k rounds to u (binom.ppf 386, the table 385, at n = 5000,
# p = 0.05; n = 20000 also differs at 1 - 2**-52), and u = 0 for settings
# whose CDF crosses the floor in the far tail, where boost's root finder is
# inexact (no packaged setting does).  Each such u has chance 2**-53 per draw.
_PPF_FLOOR = 1e-300
_CDF_TOP = 1.0 - 2.0 ** -53  # the largest uniform Generator.random returns


# ---------------------------------------------------------------------------
# Repeated-auction price study
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CpcStudyConfig:
    """One parameter setting of the repeated two-(or more-)ad price study."""

    name: str
    impressions: tuple[int, ...]
    true_ctrs: tuple[float, ...]
    bids: tuple[float, ...]
    trials: int
    seed: int
    setting_index: int = 0
    threads: int = 1

    def __post_init__(self):
        m = len(self.true_ctrs)
        if m == 0:
            raise EmptyAuction("study needs at least one ad")
        if len(self.impressions) != m or len(self.bids) != m:
            raise ValueError("impressions, true_ctrs, and bids must have equal length")
        if any(n < 1 for n in self.impressions):
            raise InvalidValue("impressions", f"must be >= 1, got {self.impressions}")
        if any(not 0.0 <= p <= 1.0 for p in self.true_ctrs):
            raise InvalidValue("true_ctrs", f"must lie in [0, 1], got {self.true_ctrs}")
        if any(not 0.0 <= b < math.inf for b in self.bids):
            raise InvalidValue("bids", f"must be finite and >= 0, got {self.bids}")
        if self.trials < 1:
            raise InvalidValue("trials", f"must be >= 1, got {self.trials}")


# Named for its first caller, ab-run's per-context auctions; bench/tracer.py
# patches it by this name.
def rank_contexts(bids: np.ndarray, est: np.ndarray):
    """Rank and price one auction per row of ``est`` (ads on columns).

    Returns ``(order, cpc, degenerate)``: ad indices best first by bid x
    estimate, score ties falling to the lower index as in ``rank_ads``; the
    winner's GSP price, the runner-up's score over the winner's estimate; and
    whether the winner's estimate is zero with rivals present, the case where
    ``gsp_price`` raises DegeneratePrice.  Such an auction has no finite price
    and prices at 0.  A single ad has no runner-up: it prices at 0 and is
    never degenerate.
    """
    scores = est * bids
    order = np.argsort(-scores, axis=1, kind="stable")
    n, m = est.shape
    if m == 1:
        return order, np.zeros(n), np.zeros(n, dtype=bool)
    rows = np.arange(n)
    top_est = est[rows, order[:, 0]]
    degenerate = top_est == 0.0
    runner_score = scores[rows, order[:, 1]]
    cpc = np.where(degenerate, 0.0, runner_score / np.where(degenerate, 1.0, top_est))
    return order, cpc, degenerate


@dataclass
class TrialTable:
    """All trials of one setting in columns; row t is trial t."""

    estimates: np.ndarray = field(repr=False)   # (trials, ads)
    order: np.ndarray = field(repr=False)       # (trials, ads) ad indices, best first
    cpc: np.ndarray = field(repr=False)         # (trials,) 0.0 on degenerate trials
    degenerate: np.ndarray = field(repr=False)  # (trials,) excluded from price averages

    def __len__(self) -> int:
        return len(self.cpc)


class BinomialInverse:
    """Inverse CDF of binomial(n, p) from a table of its CDF.

    ``cdf[i]`` is the CDF at ``lo + i``, from the boost CDF that scipy's
    ``binom.ppf`` inverts.  The table covers only the counts a uniform in
    [_PPF_FLOOR, 1) can map to: it starts at mean +- 40 sd and widens until
    cdf(lo - 1) < _PPF_FLOOR and cdf(hi) >= the largest uniform, so its
    size grows as sqrt(n), not n.
    """

    def __init__(self, n: int, p: float):
        from scipy.special import _ufuncs  # loaded only by the price study

        cdf = _ufuncs._binom_cdf
        mean = n * p
        margin = 40.0 * math.sqrt(mean * (1.0 - p)) + 1.0
        while True:
            lo = max(0, math.floor(mean - margin))
            hi = min(n, math.ceil(mean + margin))
            if ((lo == 0 or cdf(lo - 1, n, p) < _PPF_FLOOR)
                    and (hi == n or cdf(hi, n, p) >= _CDF_TOP)):
                break
            margin *= 2.0
        self.lo = lo
        self.cdf = cdf(np.arange(lo, hi + 1, dtype=float), n, p)

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """The smallest count k with cdf(k) >= u, for uniforms u in [0, 1)."""
        return self.lo + np.searchsorted(self.cdf, np.maximum(u, _PPF_FLOOR), side="left")


def _cpc_chunk(config: CpcStudyConfig, inverses, key: np.ndarray, lo: int, hi: int):
    m = len(config.true_ctrs)
    blocks = math.ceil(m / rng.DOUBLES_PER_BLOCK)
    u = rng.unit_uniforms(key, lo, hi - lo, blocks_per_unit=blocks)
    est = np.empty((hi - lo, m))
    for j, inverse in enumerate(inverses):
        est[:, j] = inverse(u[:, j]) / config.impressions[j]
    return (est, *rank_contexts(np.asarray(config.bids), est))


def run_cpc_study(config: CpcStudyConfig) -> TrialTable:
    """All trials of one setting, in trial order.

    Trial t's draws come from blocks owned by unit t of the stream keyed
    (seed, study, setting), so its result does not depend on the other
    trials, the chunking, or the thread count.
    """
    key = rng.stream_key(config.seed, STREAM_CPC, config.setting_index)
    inverses = [BinomialInverse(n, p) for n, p in zip(config.impressions, config.true_ctrs)]
    ranges = rng.split_ranges(config.trials, max(1, config.threads) * 4)
    if config.threads > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            chunks = list(pool.map(lambda r: _cpc_chunk(config, inverses, key, *r), ranges))
    else:
        chunks = [_cpc_chunk(config, inverses, key, lo, hi) for lo, hi in ranges]
    est, order, cpc, degenerate = (np.concatenate(col) for col in zip(*chunks))
    return TrialTable(estimates=est, order=order, cpc=cpc, degenerate=degenerate)


def conditional_rank_samples(trials: TrialTable, ad_index: int, rank: int,
                             bid: float = 1.0) -> np.ndarray:
    """Scores (bid x estimate) of one ad over the trials where it held ``rank``."""
    if not len(trials):
        raise RankUnreachable("no trials")
    if 1 <= rank <= trials.order.shape[1]:
        picked = trials.estimates[trials.order[:, rank - 1] == ad_index, ad_index] * bid
        if picked.size:
            return picked
    raise RankUnreachable(f"ad {ad_index} never realized rank {rank}")


# ---------------------------------------------------------------------------
# Two-bucket traffic experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdSpec:
    id: int
    bid: float
    base_ctr: float

    def __post_init__(self):
        if not 0.0 <= self.bid < math.inf:
            raise InvalidValue("bid", f"must be finite and >= 0, got {self.bid}")
        if not 0.0 <= self.base_ctr <= 1.0:
            raise InvalidValue("base_ctr", f"must lie in [0, 1], got {self.base_ctr}")


@dataclass(frozen=True)
class Context:
    site: int
    pos: int
    multiplier: float

    def __post_init__(self):
        if not 0.0 <= self.multiplier < math.inf:
            raise InvalidValue("multiplier", f"must be finite and >= 0, got {self.multiplier}")


EstimatorName = Literal["naive", "pooled"]

# Bucket streams are keyed by estimator identity, not bucket label: two
# buckets configured identically replay identical traffic (exact A/A
# symmetry), while buckets with different estimators draw independently.
ESTIMATOR_CODES: dict[str, int] = {"naive": 0, "pooled": 1}


@dataclass(frozen=True)
class BucketSpec:
    name: str
    estimator: EstimatorName


@dataclass(frozen=True)
class AbConfig:
    """Multi-day two-bucket experiment plan.

    Ads are kept sorted by id so that score ties resolve to the lowest id in
    the vectorized ranking exactly as in ``rank_ads``.  Per-context true CTR
    is base_ctr x multiplier, clipped to [0, 1].
    """

    ads: tuple[AdSpec, ...]
    contexts: tuple[Context, ...]
    buckets: tuple[BucketSpec, ...]
    days: int
    traffic_per_day: int
    epsilon: float
    window_days: int
    burn_in_days: int
    seed: int

    def __post_init__(self):
        if not self.ads:
            raise EmptyAuction("no ads configured")
        if not self.contexts:
            raise ValueError("no contexts configured")
        first = {}
        for i, c in enumerate(self.contexts):
            # the logs name a context only by (site, pos), so a repeat could not be told apart
            if first.setdefault((c.site, c.pos), i) != i:
                raise RepeatedContext(i, f"(site, pos) = ({c.site}, {c.pos}) repeats "
                                         "an earlier context")
        if not self.buckets:
            raise ValueError("no buckets configured")
        ids = [ad.id for ad in self.ads]
        if len(set(ids)) != len(ids):
            raise ValueError("ad ids must be unique")
        if list(ids) != sorted(ids):
            object.__setattr__(self, "ads", tuple(sorted(self.ads, key=lambda a: a.id)))
        names = [b.name for b in self.buckets]
        if len(set(names)) != len(names):
            raise ValueError("bucket names must be unique")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if self.days < 1 or self.traffic_per_day < 1 or self.window_days < 1:
            raise ValueError("days, traffic_per_day, and window_days must be >= 1")
        if not 0 <= self.burn_in_days <= self.days:
            raise ValueError("burn_in_days must lie in [0, days]")

    def true_ctr_matrix(self) -> np.ndarray:
        base = np.array([ad.base_ctr for ad in self.ads])
        mult = np.array([c.multiplier for c in self.contexts])
        return np.clip(np.outer(base, mult), 0.0, 1.0)


@dataclass
class ImpressionLog:
    """One bucket's impressions as access codes, in access order.

    Access i was served on ``day[i]`` (never decreasing) in context ``ctx[i]``
    to ad index ``winner[i]``, explored when ``random_mode[i]``.  Those codes
    fix every other field of its record, read from the specs and the day
    tables: the (ads, contexts) estimates and each context's greedy price.
    """

    bucket: str
    ads: tuple[AdSpec, ...] = field(repr=False)
    contexts: tuple[Context, ...] = field(repr=False)
    estimates: np.ndarray = field(repr=False)    # (days, ads, contexts)
    prices: np.ndarray = field(repr=False)       # (days, contexts)
    day: np.ndarray = field(repr=False)
    ctx: np.ndarray = field(repr=False)
    winner: np.ndarray = field(repr=False)
    random_mode: np.ndarray = field(repr=False)
    click: np.ndarray = field(repr=False)

    # the other fields, one whole-column gather per read; explored displays
    # are never charged
    site = property(lambda self: np.array([c.site for c in self.contexts])[self.ctx])
    pos = property(lambda self: np.array([c.pos for c in self.contexts])[self.ctx])
    ad_id = property(lambda self: np.array([ad.id for ad in self.ads])[self.winner])
    bid = property(lambda self: np.array([ad.bid for ad in self.ads])[self.winner])
    pred_ctr = property(lambda self: self.estimates[self.day, self.winner, self.ctx])
    cpc = property(lambda self: np.where(self.random_mode, 0.0, self.prices[self.day, self.ctx]))

    def __len__(self) -> int:
        return len(self.day)

    def take(self, rows) -> "ImpressionLog":
        """The accesses at ``rows`` (a slice or index array), sharing the day tables."""
        return replace(
            self, day=self.day[rows], ctx=self.ctx[rows], winner=self.winner[rows],
            random_mode=self.random_mode[rows], click=self.click[rows])

    def after_day(self, first_day: int) -> "ImpressionLog":
        """Records from ``first_day`` on (evaluation split after burn-in), as views."""
        return self.take(slice(int(np.searchsorted(self.day, first_day)), None))


def estimate_matrix(estimator: EstimatorName, window: CountWindow) -> np.ndarray:
    """Serve-time CTR estimates, shape (ads, contexts), from the window state."""
    clicks, impressions = window.totals()
    if estimator == "naive":
        return naive_contextual_estimate(clicks, impressions)
    if estimator == "pooled":
        try:
            hyper = fit_pool(*window.ad_totals())
        except NoData:
            hyper = PoolHyperParams(*FALLBACK_HYPER)
        return pooled_estimate(clicks, impressions, hyper)
    raise ValueError(f"unknown estimator {estimator!r}")


def _serve_day(config: AbConfig, estimator_code: int, day: int,
               est: np.ndarray, true_ctr: np.ndarray):
    """Vectorized traffic for one bucket-day: context prices, then access codes.

    Access a reads block a of the stream keyed (seed, experiment,
    estimator, day); its four uniforms drive, in order: context draw,
    explore coin, uniform ad pick, click draw.
    """
    m, n_ctx = est.shape
    bids = np.array([ad.bid for ad in config.ads])
    order, prices, _degenerate = rank_contexts(bids, est.T)
    key = rng.stream_key(config.seed, STREAM_AB, estimator_code, day)
    u = rng.unit_uniforms(key, 0, config.traffic_per_day)
    ctx = np.minimum((u[:, 0] * n_ctx).astype(np.int64), n_ctx - 1)
    explore = u[:, 1] < config.epsilon
    pick = np.minimum((u[:, 2] * m).astype(np.int64), m - 1)
    winner = np.where(explore, pick, order[ctx, 0])
    click = (u[:, 3] < true_ctr[winner, ctx]).astype(np.int8)
    return prices, ctx, explore, winner, click


def run_ab_experiment(config: AbConfig) -> dict[str, ImpressionLog]:
    """Serve every configured day to every bucket and return the full logs.

    Buckets share the traffic plan (same per-day access count) but draw from
    distinct streams and hold independent count windows.  Each bucket-day:
    refresh estimates from the window, resolve every context's auction,
    serve the day's accesses, then fold the day's counts into the window.
    """
    true_ctr = config.true_ctr_matrix()
    m, n_ctx = true_ctr.shape
    days, traffic = config.days, config.traffic_per_day
    n = days * traffic
    logs: dict[str, ImpressionLog] = {}
    for bucket in config.buckets:
        window = CountWindow(config.window_days, m, n_ctx)
        log = ImpressionLog(
            bucket.name, config.ads, config.contexts,
            estimates=np.empty((days, m, n_ctx)), prices=np.empty((days, n_ctx)),
            day=np.repeat(np.arange(days), traffic), ctx=np.empty(n, np.int64),
            winner=np.empty(n, np.int64), random_mode=np.empty(n, bool),
            click=np.empty(n, np.int8))
        for day in range(days):
            window.advance_to(day)
            est = log.estimates[day] = estimate_matrix(bucket.estimator, window)
            rows = slice(day * traffic, (day + 1) * traffic)
            (log.prices[day], log.ctx[rows], log.random_mode[rows], log.winner[rows],
             log.click[rows]) = _serve_day(config, ESTIMATOR_CODES[bucket.estimator],
                                           day, est, true_ctr)
            cell = log.winner[rows] * n_ctx + log.ctx[rows]
            imp = np.bincount(cell, minlength=m * n_ctx).reshape(m, n_ctx)
            clk = np.bincount(cell[log.click[rows] == 1], minlength=m * n_ctx).reshape(m, n_ctx)
            window.add(day, clk, imp)
        logs[bucket.name] = log
    return logs


# ---------------------------------------------------------------------------
# Monte Carlo rank sampling against the quadrature oracle
# ---------------------------------------------------------------------------

_MC_BLOCK = 1 << 14  # fixed accumulation block so sums ignore the thread count


@dataclass(frozen=True)
class RankSampleStats:
    """Conditional-on-rank sample moments from independent score draws.

    Arrays are (ads, ranks); entries with zero count are NaN.
    ``exact_draws`` counts the beta draws that took the exact inverse CDF
    instead of the grid's Hermite step (``CaseGrid.draw``).
    """

    counts: np.ndarray
    means: np.ndarray
    std_errors: np.ndarray
    exact_draws: int = 0


def _mc_block(grid: CaseGrid, key: np.ndarray, lo: int, hi: int):
    """Counts, sums and sums of squares of one block's draws, (ads, ranks) each,
    and the number of draws that took the exact inverse CDF.

    One argsort ranks each row; its ranks are scattered into one code per
    draw, ad * m + rank, and three bincounts over the codes give the moments.
    """
    m = len(grid)
    blocks = math.ceil(m / rng.DOUBLES_PER_BLOCK)
    u = rng.unit_uniforms(key, lo, hi - lo, blocks_per_unit=blocks)
    draws = np.empty((hi - lo, m))
    exact = 0
    for j in range(m):
        draws[:, j], n_exact = grid.draw(j, u[:, j])
        exact += n_exact
    del u
    order = np.argsort(-draws, axis=1, kind="stable")
    code = np.empty_like(order)
    np.put_along_axis(code, order, np.arange(m), axis=1)  # 0-based rank of each ad
    del order
    code += np.arange(0, m * m, m)
    code = code.ravel()
    count = np.bincount(code, minlength=m * m)
    total = np.bincount(code, weights=draws.ravel(), minlength=m * m)
    np.square(draws, out=draws)
    total_sq = np.bincount(code, weights=draws.ravel(), minlength=m * m)
    return count.reshape(m, m), total.reshape(m, m), total_sq.reshape(m, m), exact


def sample_rank_stats(dists: list[ScoreDistribution] | CaseGrid, draws: int, seed: int,
                      case_index: int = 0, threads: int = 1) -> RankSampleStats:
    """Monte Carlo conditional score means per (ad, rank), with standard errors.

    Draw t owns unit t of the stream keyed (seed, sampling, case); partial
    moments accumulate over fixed-size blocks merged in block order, so the
    result is bit-identical for any thread count.  Scores are drawn through
    the case's ``CaseGrid`` (``CaseGrid.draw``); given a list, the sampler
    builds that grid itself.
    """
    grid = dists if isinstance(dists, CaseGrid) else CaseGrid(dists)
    key = rng.stream_key(seed, STREAM_MC, case_index)
    ranges = [(lo, min(lo + _MC_BLOCK, draws)) for lo in range(0, draws, _MC_BLOCK)]
    if threads > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda r: _mc_block(grid, key, *r), ranges))
    else:
        parts = [_mc_block(grid, key, lo, hi) for lo, hi in ranges]
    m = len(grid)
    count = np.zeros((m, m))
    total = np.zeros((m, m))
    total_sq = np.zeros((m, m))
    exact = 0
    for c, t, t2, n_exact in parts:
        count += c
        total += t
        total_sq += t2
        exact += n_exact
    with np.errstate(divide="ignore", invalid="ignore"):
        means = np.where(count > 0, total / np.maximum(count, 1), np.nan)
        variance = np.where(count > 1,
                            (total_sq - count * means ** 2) / np.maximum(count - 1, 1),
                            np.nan)
        std_errors = np.sqrt(np.maximum(variance, 0.0) / np.maximum(count, 1))
    std_errors = np.where(count > 1, std_errors, np.nan)
    return RankSampleStats(counts=count, means=means, std_errors=std_errors,
                           exact_draws=exact)
