"""Deterministic Monte Carlo drivers for the two studies.

``run_cpc_study`` repeats one auction between ads whose CTR estimates are
binomial click proportions, recording the realized price each time.
``run_ab_experiment`` serves multi-day synthetic traffic to two buckets that
differ only in their CTR estimator, logging one impression record per access.

All randomness is addressed by counter-based streams (see ``rng``): trial t
of a study and access a of a bucket-day each own a fixed slice of their
stream, so results are bit-identical for any worker count or chunking, and
every random quantity is an inverse-CDF transform of those uniforms.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Literal

import numpy as np
from scipy import stats

from . import rng
from .errors import EmptyAuction, NoData, RankUnreachable
from .estimators import (
    FALLBACK_HYPER,
    CountWindow,
    PoolHyperParams,
    fit_pool,
    naive_contextual_estimate,
    pooled_estimate,
)
from .oracle import ScoreDistribution

STREAM_CPC = 0
STREAM_AB = 1
STREAM_MC = 2

_PPF_FLOOR = 1e-300  # binom.ppf maps u=0 to -1; clamp just above zero instead


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
            raise ValueError("impressions per estimate must be >= 1")
        if any(not 0.0 <= p <= 1.0 for p in self.true_ctrs):
            raise ValueError("true CTRs must lie in [0, 1]")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


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


def _cpc_chunk(config: CpcStudyConfig, key: np.ndarray, lo: int, hi: int):
    m = len(config.true_ctrs)
    blocks = math.ceil(m / rng.DOUBLES_PER_BLOCK)
    u = rng.unit_uniforms(key, lo, hi - lo, blocks_per_unit=blocks)
    est = np.empty((hi - lo, m))
    for j in range(m):
        counts = stats.binom.ppf(np.maximum(u[:, j], _PPF_FLOOR),
                                 config.impressions[j], config.true_ctrs[j])
        est[:, j] = counts / config.impressions[j]
    return (est, *rank_contexts(np.asarray(config.bids), est))


def run_cpc_study(config: CpcStudyConfig) -> TrialTable:
    """All trials of one setting, in trial order.

    Trial t's draws come from blocks owned by unit t of the stream keyed
    (seed, study, setting), so its result does not depend on the other
    trials, the chunking, or the thread count.
    """
    key = rng.stream_key(config.seed, STREAM_CPC, config.setting_index)
    ranges = rng.split_ranges(config.trials, max(1, config.threads) * 4)
    if config.threads > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            chunks = list(pool.map(lambda r: _cpc_chunk(config, key, *r), ranges))
    else:
        chunks = [_cpc_chunk(config, key, lo, hi) for lo, hi in ranges]
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


@dataclass(frozen=True)
class Context:
    site: int
    pos: int
    multiplier: float


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
    """Column-oriented impression records for one bucket, in access order."""

    bucket: str
    day: np.ndarray = field(repr=False)
    site: np.ndarray = field(repr=False)
    pos: np.ndarray = field(repr=False)
    ad_id: np.ndarray = field(repr=False)
    random_mode: np.ndarray = field(repr=False)
    pred_ctr: np.ndarray = field(repr=False)
    bid: np.ndarray = field(repr=False)
    cpc: np.ndarray = field(repr=False)
    click: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.day)

    def after_day(self, first_day: int) -> "ImpressionLog":
        """Records from ``first_day`` on (evaluation split after burn-in)."""
        keep = self.day >= first_day
        return ImpressionLog(
            bucket=self.bucket, day=self.day[keep], site=self.site[keep],
            pos=self.pos[keep], ad_id=self.ad_id[keep],
            random_mode=self.random_mode[keep], pred_ctr=self.pred_ctr[keep],
            bid=self.bid[keep], cpc=self.cpc[keep], click=self.click[keep],
        )


def estimate_matrix(estimator: EstimatorName, window: CountWindow,
                    config: AbConfig) -> np.ndarray:
    """Serve-time CTR estimates, shape (ads, contexts), from the window state."""
    m, n_ctx = len(config.ads), len(config.contexts)
    est = np.empty((m, n_ctx))
    if estimator == "naive":
        for i, ad in enumerate(config.ads):
            for c, ctx in enumerate(config.contexts):
                try:
                    est[i, c] = naive_contextual_estimate(window, ad.id, ctx.site, ctx.pos)
                except NoData:
                    est[i, c] = PoolHyperParams(*FALLBACK_HYPER).prior_mean
    elif estimator == "pooled":
        try:
            hyper = fit_pool(window.ad_totals())
        except NoData:
            hyper = PoolHyperParams(*FALLBACK_HYPER)
        for i, ad in enumerate(config.ads):
            for c, ctx in enumerate(config.contexts):
                counts = window.totals((ad.id, ctx.site, ctx.pos))
                est[i, c] = pooled_estimate(counts[0], counts[1], hyper)
    else:
        raise ValueError(f"unknown estimator {estimator!r}")
    return est


def _serve_day(config: AbConfig, estimator_code: int, day: int,
               est: np.ndarray, true_ctr: np.ndarray):
    """Vectorized traffic for one bucket-day.

    Access a reads block a of the stream keyed (seed, experiment,
    estimator, day); its four uniforms drive, in order: context draw,
    explore coin, uniform ad pick, click draw.
    """
    m, n_ctx = est.shape
    bids = np.array([ad.bid for ad in config.ads])
    order, cpc_ctx, _degenerate = rank_contexts(bids, est.T)
    key = rng.stream_key(config.seed, STREAM_AB, estimator_code, day)
    u = rng.unit_uniforms(key, 0, config.traffic_per_day)
    ctx = np.minimum((u[:, 0] * n_ctx).astype(np.int64), n_ctx - 1)
    explore = u[:, 1] < config.epsilon
    pick = np.minimum((u[:, 2] * m).astype(np.int64), m - 1)
    winner = np.where(explore, pick, order[ctx, 0])
    click = (u[:, 3] < true_ctr[winner, ctx]).astype(np.int8)
    return ctx, explore, winner, click, np.where(explore, 0.0, cpc_ctx[ctx]), est[winner, ctx]


def run_ab_experiment(config: AbConfig) -> dict[str, ImpressionLog]:
    """Serve every configured day to every bucket and return the full logs.

    Buckets share the traffic plan (same per-day access count) but draw from
    distinct streams and hold independent count windows.  Each bucket-day:
    refresh estimates from the window, resolve every context's auction,
    serve the day's accesses, then fold the day's counts into the window.
    """
    true_ctr = config.true_ctr_matrix()
    ids = np.array([ad.id for ad in config.ads])
    bids = np.array([ad.bid for ad in config.ads])
    sites = np.array([c.site for c in config.contexts])
    poss = np.array([c.pos for c in config.contexts])
    logs: dict[str, ImpressionLog] = {}
    for bucket in config.buckets:
        window = CountWindow(config.window_days)
        cols: dict[str, list[np.ndarray]] = {k: [] for k in
                                             ("day", "ctx", "explore", "winner", "click", "cpc", "pred")}
        for day in range(config.days):
            window.advance_to(day)
            est = estimate_matrix(bucket.estimator, window, config)
            ctx, explore, winner, click, cpc, pred = _serve_day(
                config, ESTIMATOR_CODES[bucket.estimator], day, est, true_ctr)
            imp = np.zeros((len(ids), len(sites)), dtype=np.int64)
            clk = np.zeros_like(imp)
            np.add.at(imp, (winner, ctx), 1)
            np.add.at(clk, (winner, ctx), click)
            for i, c in zip(*np.nonzero(imp)):
                window.add(day, (int(ids[i]), int(sites[c]), int(poss[c])),
                           int(clk[i, c]), int(imp[i, c]))
            cols["day"].append(np.full(len(ctx), day, dtype=np.int64))
            cols["ctx"].append(ctx)
            cols["explore"].append(explore)
            cols["winner"].append(winner)
            cols["click"].append(click)
            cols["cpc"].append(cpc)
            cols["pred"].append(pred)
        ctx_all = np.concatenate(cols["ctx"])
        winner_all = np.concatenate(cols["winner"])
        logs[bucket.name] = ImpressionLog(
            bucket=bucket.name,
            day=np.concatenate(cols["day"]),
            site=sites[ctx_all],
            pos=poss[ctx_all],
            ad_id=ids[winner_all],
            random_mode=np.concatenate(cols["explore"]),
            pred_ctr=np.concatenate(cols["pred"]),
            bid=bids[winner_all],
            cpc=np.concatenate(cols["cpc"]),
            click=np.concatenate(cols["click"]).astype(np.int64),
        )
    return logs


# ---------------------------------------------------------------------------
# Monte Carlo rank sampling against the quadrature oracle
# ---------------------------------------------------------------------------

_MC_BLOCK = 1 << 16  # fixed accumulation block so sums ignore the thread count


@dataclass(frozen=True)
class RankSampleStats:
    """Conditional-on-rank sample moments from independent score draws.

    Arrays are (ads, ranks); entries with zero count are NaN.
    """

    counts: np.ndarray
    means: np.ndarray
    std_errors: np.ndarray


def _mc_block(dists: list[ScoreDistribution], key: np.ndarray, lo: int, hi: int):
    m = len(dists)
    blocks = math.ceil(m / rng.DOUBLES_PER_BLOCK)
    u = rng.unit_uniforms(key, lo, hi - lo, blocks_per_unit=blocks)
    draws = np.empty((hi - lo, m))
    for j, dist in enumerate(dists):
        draws[:, j] = dist.ppf(u[:, j])
    order = np.argsort(-draws, axis=1, kind="stable")
    ranks = np.argsort(order, axis=1)  # 0-based rank of each ad
    count = np.zeros((m, m))
    total = np.zeros((m, m))
    total_sq = np.zeros((m, m))
    for k in range(m):
        mask = ranks == k
        count[:, k] = mask.sum(axis=0)
        total[:, k] = np.where(mask, draws, 0.0).sum(axis=0)
        total_sq[:, k] = np.where(mask, draws * draws, 0.0).sum(axis=0)
    return count, total, total_sq


def sample_rank_stats(dists: list[ScoreDistribution], draws: int, seed: int,
                      case_index: int = 0, threads: int = 1) -> RankSampleStats:
    """Monte Carlo conditional score means per (ad, rank), with standard errors.

    Draw t owns unit t of the stream keyed (seed, sampling, case); partial
    moments accumulate over fixed-size blocks merged in block order, so the
    result is bit-identical for any thread count.
    """
    key = rng.stream_key(seed, STREAM_MC, case_index)
    ranges = [(lo, min(lo + _MC_BLOCK, draws)) for lo in range(0, draws, _MC_BLOCK)]
    if threads > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda r: _mc_block(dists, key, *r), ranges))
    else:
        parts = [_mc_block(dists, key, lo, hi) for lo, hi in ranges]
    m = len(dists)
    count = np.zeros((m, m))
    total = np.zeros((m, m))
    total_sq = np.zeros((m, m))
    for c, t, t2 in parts:
        count += c
        total += t
        total_sq += t2
    with np.errstate(divide="ignore", invalid="ignore"):
        means = np.where(count > 0, total / np.maximum(count, 1), np.nan)
        variance = np.where(count > 1,
                            (total_sq - count * means ** 2) / np.maximum(count - 1, 1),
                            np.nan)
        std_errors = np.sqrt(np.maximum(variance, 0.0) / np.maximum(count, 1))
    std_errors = np.where(count > 1, std_errors, np.nan)
    return RankSampleStats(counts=count, means=means, std_errors=std_errors)
