"""Deterministic Monte Carlo drivers for the two studies.

``run_cpc_study`` repeats one auction between ads whose CTR estimates are
binomial click proportions, one fixed block of trials at a time: each
block is drawn, handed to a caller's writer as a ``TrialTable`` and reduced
by the caller's reduce, in the calling thread, and the reductions merge in
block order, so memory does not grow with the trial count.
``run_ab_experiment`` serves multi-day synthetic traffic to two buckets that
differ only in their CTR estimator, one fixed block of accesses at a time:
each block goes to a caller's writer as an ``ImpressionLog`` and is then
counted into small per-day tables, so memory does not grow with traffic.
``sample_rank_stats`` draws independent scores for the theorem check and
reduces them to per-(ad, rank) moments, one ad-major block at a time; beta
scores invert the CDF rows of the case's ``oracle.CaseGrid`` by one
Hermite-interpolant Newton step, exact to within 1e-9 of each ad's scale,
through an ``oracle.CaseSampler`` whose tables live only while it draws.

All randomness is addressed by counter-based streams (see ``rng``): trial t
of a study and access a of a bucket-day each own a fixed slice of their
stream, so results are bit-identical for any worker count or chunking, and
every random quantity is an inverse-CDF transform of those uniforms.  The
Monte Carlo rank sampling runs one task per fixed block of BLOCK draws
through the ``map`` it is given: the command's ``worker_map`` for a case
with a beta ad, the builtin ``map`` otherwise.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from . import rng
from .errors import EmptyAuction, InvalidValue, NoData, RepeatedContext
from .estimators import (
    FALLBACK_HYPER,
    CountWindow,
    PoolHyperParams,
    fit_pool,
    naive_contextual_estimate,
    pooled_estimate,
)
from .oracle import CaseGrid, CaseSampler, special_kernels

STREAM_CPC = 0
STREAM_AB = 1
STREAM_MC = 2
BLOCK = 1 << 14  # trials per simulate-cpc block, draws per parallel task, accesses per ab-run block
# the most impressions an estimate may count: a BinomialInverse table holds
# about 80 binomial sd of counts, at most about 1.9M entries (15 MB) here
MAX_IMPRESSIONS = 1 << 31

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


@contextmanager
def worker_map(threads: int):
    """The ``map`` that runs a command's parallel steps on ``threads`` threads.

    For one thread it is the builtin ``map``.  For more, each call runs its
    tasks on the calling thread and up to ``threads - 1`` helpers started
    for that call, no more helpers than tasks beyond the first; each thread
    takes the next task index until none is left.  The call returns the
    results in task order, once every thread has stopped, and raises the
    first exception any of them raised.  So no thread idles between calls,
    and none outlives its call.
    """
    if threads <= 1:
        yield map
        return

    def run(fn, *iterables) -> list:
        tasks = list(zip(*iterables))
        results = [None] * len(tasks)
        order = iter(range(len(tasks)))
        claim = threading.Lock()
        errors = []

        def work() -> None:
            while not errors:
                with claim:
                    i = next(order, None)
                if i is None:
                    return
                try:
                    results[i] = fn(*tasks[i])
                except BaseException as exc:  # re-raised in the caller
                    errors.append(exc)

        helpers = [threading.Thread(target=work) for _ in range(min(threads, len(tasks)) - 1)]
        for helper in helpers:
            helper.start()
        work()
        for helper in helpers:
            helper.join()
        if errors:
            raise errors[0]
        return results

    yield run


# ---------------------------------------------------------------------------
# Repeated-auction price study
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CpcStudyConfig:
    """One parameter setting of the repeated two-(or more-)ad price study;
    a single impression count or bid stands for every ad's."""

    name: str
    impressions: tuple[int, ...]
    true_ctrs: tuple[float, ...]
    bids: tuple[float, ...]
    trials: int
    seed: int
    setting_index: int = 0

    def __post_init__(self):
        m = len(self.true_ctrs)
        if m == 0:
            raise InvalidValue("true_ctrs", "needs at least one CTR")
        for name in ("impressions", "bids"):
            values = getattr(self, name)
            if len(values) == 1:
                object.__setattr__(self, name, values * m)
            elif len(values) != m:
                raise InvalidValue(name, f"needs 1 or {m} values, got {len(values)}")
        if any(not 1 <= n <= MAX_IMPRESSIONS for n in self.impressions):
            raise InvalidValue("impressions",
                               f"must lie in [1, {MAX_IMPRESSIONS}], got {self.impressions}")
        if any(not 0.0 < p <= 1.0 for p in self.true_ctrs):
            # a zero CTR leaves its bias factor and the expected CPC undefined
            raise InvalidValue("true_ctrs", f"must lie in (0, 1], got {self.true_ctrs}")
        if any(not 0.0 <= b < math.inf for b in self.bids):
            raise InvalidValue("bids", f"must be finite and >= 0, got {self.bids}")
        if self.trials < 1:
            raise InvalidValue("trials", f"must be >= 1, got {self.trials}")


_PAIRWISE_MAX_ADS = 7  # pairwise comparison beats the argsort below 8 ads
# ...and on column-contiguous scores (an ad-major block's transpose) from
# _PAIRWISE_ROW_FACTOR * m^2 rows on.  Measured on 2 vCPUs, pairwise against
# the argsort: 0.95 against 3.3 ms on 16,384 x 8, 8.8 against 13.0 ms on
# 16,384 x 24; pairwise breaks even at 5-11 m^2 rows for m = 8 to 48, and
# loses on row-major scores.  ab-run's 12 x 40 auctions stay on the argsort.
_PAIRWISE_ROW_FACTOR = 16


def score_ranks(scores: np.ndarray) -> np.ndarray:
    """Each entry's 0-based rank in its row of ``scores``, the number of
    columns that beat it: i < j beats j when s_i >= s_j, and j beats i when
    s_j > s_i, so a higher score ranks first and a tie goes to the lower
    column, as in a stable argsort of -s.  The m (m - 1) / 2 comparisons
    are cheaper than that argsort up to _PAIRWISE_MAX_ADS columns, and on
    column-contiguous scores with at least _PAIRWISE_ROW_FACTOR * m^2
    rows, where each comparison reads and writes contiguous columns and
    needs no copy of the scores, no order and no scatter.  The ranks take
    the memory order of ``scores``."""
    n, m = scores.shape
    rank = np.empty_like(scores, dtype=np.intp)
    if m > _PAIRWISE_MAX_ADS and not (scores.flags.f_contiguous
                                      and n >= _PAIRWISE_ROW_FACTOR * m * m):
        order = np.argsort(-scores, axis=1, kind="stable")
        np.put_along_axis(rank, order, np.arange(m), axis=1)
        return rank
    # column j starts at j, as if each of the j columns before it beat it
    rank[:] = np.arange(m)
    j_wins = np.empty(n, dtype=bool)
    for j in range(1, m):
        for i in range(j):
            np.greater(scores[:, j], scores[:, i], out=j_wins)
            rank[:, i] += j_wins
            rank[:, j] -= j_wins
    return rank


# Named for its first caller, ab-run's per-context auctions; bench/tracer.py
# patches it by this name.
def rank_contexts(bids: np.ndarray, est: np.ndarray):
    """Rank and price one auction per row of ``est`` (ads on columns).

    Returns ``(rank, order, cpc, degenerate)``: each ad's 0-based rank by
    bid x estimate (``score_ranks``) and the ad indices best first; the
    winner's GSP price, the runner-up's score over the winner's estimate;
    and whether the winner's estimate is zero with rivals present.  Such an
    auction has no finite price and prices at 0.  A single ad has no
    runner-up: it prices at 0 and is never degenerate.
    """
    scores = est * bids
    rank = score_ranks(scores)
    n, m = est.shape
    order = np.empty_like(rank)
    np.put_along_axis(order, rank, np.arange(m), axis=1)
    if m == 1:
        return rank, order, np.zeros(n), np.zeros(n, dtype=bool)
    rows = np.arange(n)
    top_est = est[rows, order[:, 0]]
    degenerate = top_est == 0.0
    runner_score = scores[rows, order[:, 1]]
    cpc = np.where(degenerate, 0.0, runner_score / np.where(degenerate, 1.0, top_est))
    return rank, order, cpc, degenerate


@dataclass
class TrialTable:
    """Consecutive trials of one setting in columns; row r is trial first + r."""

    estimates: np.ndarray = field(repr=False)   # (trials, ads)
    rank: np.ndarray = field(repr=False)        # (trials, ads) 0-based rank of each ad
    order: np.ndarray = field(repr=False)       # (trials, ads) ad indices, best first
    cpc: np.ndarray = field(repr=False)         # (trials,) 0.0 on degenerate trials
    degenerate: np.ndarray = field(repr=False)  # (trials,) excluded from price averages
    first: int = 0

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
        cdf = special_kernels()._binom_cdf
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


def cpc_blocks(config: CpcStudyConfig) -> Iterator[TrialTable]:
    """The setting's trials, one BLOCK at a time, in trial order.

    Trial t's draws come from blocks owned by unit t of the stream keyed
    (seed, study, setting), so its result does not depend on the other
    trials or on the cut into blocks.
    """
    key = rng.stream_key(config.seed, STREAM_CPC, config.setting_index)
    inverses = [BinomialInverse(n, p) for n, p in zip(config.impressions, config.true_ctrs)]
    bids = np.asarray(config.bids)
    m = len(inverses)
    blocks = math.ceil(m / rng.DOUBLES_PER_BLOCK)
    for lo, hi in rng.fixed_blocks(0, config.trials, BLOCK):
        u = rng.unit_uniforms(key, lo, hi - lo, blocks_per_unit=blocks)
        est = np.empty((hi - lo, m))
        for j, inverse in enumerate(inverses):
            est[:, j] = inverse(u[:, j]) / config.impressions[j]
        yield TrialTable(est, *rank_contexts(bids, est), first=lo)


def run_cpc_study(config: CpcStudyConfig, reduce: Callable[[TrialTable], object],
                  write: Callable[[TrialTable], object] | None = None):
    """One setting's trials reduced: ``reduce`` of each block of
    ``cpc_blocks``, merged in block order by the reductions' ``merge``.

    Each block goes to ``write``, when given, before it is reduced.  The
    blocks run in turn in the calling thread: a block is many short numpy
    calls that hold the interpreter lock between them, so worker threads
    added time and memory and saved none.  Memory holds a block or two and
    the merged reduction, whatever the trial count.
    """
    merged = None
    for block in cpc_blocks(config):
        if write is not None:
            write(block)
        part = reduce(block)
        merged = part if merged is None else merged.merge(part)
    return merged


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
    the vectorized ranking.  Per-context true CTR is base_ctr x multiplier,
    clipped to [0, 1].
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
            raise InvalidValue("epsilon", f"must lie in [0, 1], got {self.epsilon}")
        for name in ("days", "traffic_per_day", "window_days"):
            if getattr(self, name) < 1:
                raise InvalidValue(name, f"must be >= 1, got {getattr(self, name)}")
        if not 0 <= self.burn_in_days <= self.days:
            raise InvalidValue("burn_in_days", f"must lie in [0, days], got {self.burn_in_days}")

    def true_ctr_matrix(self) -> np.ndarray:
        base = np.array([ad.base_ctr for ad in self.ads])
        mult = np.array([c.multiplier for c in self.contexts])
        return np.clip(np.outer(base, mult), 0.0, 1.0)


@dataclass
class BucketTables:
    """What one bucket's traffic leaves for its metrics, per day, whatever the
    traffic: the (ads, contexts) estimates served, each context's greedy
    price, and the impressions and clicks per (mode, ad, context), mode 0
    greedy and 1 explored."""

    bucket: str
    ads: tuple[AdSpec, ...] = field(repr=False)
    contexts: tuple[Context, ...] = field(repr=False)
    estimates: np.ndarray = field(repr=False)    # (days, ads, contexts)
    prices: np.ndarray = field(repr=False)       # (days, contexts)
    impressions: np.ndarray = field(repr=False)  # (days, 2, ads, contexts)
    clicks: np.ndarray = field(repr=False)       # (days, 2, ads, contexts)


@dataclass
class ImpressionLog:
    """A run of one bucket's impressions as access codes, in access order.

    Access i was served on ``day[i]`` (never decreasing) in context ``ctx[i]``
    to ad index ``winner[i]``, explored when ``random_mode[i]``.  Those codes
    fix every other field of its record, read from the bucket's ``tables``:
    the specs, the (ads, contexts) estimates and each context's greedy
    price.  ``run_ab_experiment`` hands each served block over as one,
    referencing the bucket's day tables.
    """

    tables: BucketTables
    day: np.ndarray = field(repr=False)
    ctx: np.ndarray = field(repr=False)
    winner: np.ndarray = field(repr=False)
    random_mode: np.ndarray = field(repr=False)
    click: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.day)


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


def _serve_block(config: AbConfig, tables: BucketTables, key: np.ndarray, day: int,
                 lo: int, hi: int, best: np.ndarray, true_ctr: np.ndarray) -> ImpressionLog:
    """Accesses lo .. hi - 1 of one bucket-day, ``best`` holding each context's
    greedy winner.

    Access a reads unit a of the day's stream ``key``; its four uniforms
    drive, in order: context draw, explore coin, uniform ad pick, click draw.
    """
    m, n_ctx = true_ctr.shape
    u = rng.unit_uniforms(key, lo, hi - lo)
    ctx = np.minimum((u[:, 0] * n_ctx).astype(np.int64), n_ctx - 1)
    explore = u[:, 1] < config.epsilon
    pick = np.minimum((u[:, 2] * m).astype(np.int64), m - 1)
    winner = np.where(explore, pick, best[ctx])
    click = (u[:, 3] < true_ctr[winner, ctx]).astype(np.int8)
    return ImpressionLog(tables, day=np.full(hi - lo, day, dtype=np.int64), ctx=ctx,
                         winner=winner, random_mode=explore, click=click)


def run_ab_experiment(config: AbConfig,
                      write: Callable[[str, ImpressionLog], object]) -> dict[str, BucketTables]:
    """Serve every configured day to every bucket, one BLOCK of accesses at a
    time, and return each bucket's day tables.

    Buckets share the traffic plan (same per-day access count) but draw from
    distinct streams.  Each bucket-day: refresh estimates from the bucket's
    ``CountWindow``, a view of its day tables, and resolve every context's
    auction; then for each block, serve it, call ``write(bucket_name, block)``
    with its ``ImpressionLog`` and count it into the day's tables.  No array
    grows with the traffic.  Day d's estimates read days d - window_days + 1
    .. d - 1 only, so a one-day window serves the prior.
    """
    true_ctr = config.true_ctr_matrix()
    m, n_ctx = true_ctr.shape
    days = config.days
    bids = np.array([ad.bid for ad in config.ads])
    out: dict[str, BucketTables] = {}
    for bucket in config.buckets:
        tables = BucketTables(
            bucket.name, config.ads, config.contexts,
            estimates=np.empty((days, m, n_ctx)), prices=np.empty((days, n_ctx)),
            impressions=np.zeros((days, 2, m, n_ctx), np.int64),
            clicks=np.zeros((days, 2, m, n_ctx), np.int64))
        window = CountWindow(config.window_days, tables.clicks, tables.impressions)
        for day in range(days):
            window.advance_to(day)
            est = tables.estimates[day] = estimate_matrix(bucket.estimator, window)
            _rank, order, tables.prices[day], _degenerate = rank_contexts(bids, est.T)
            key = rng.stream_key(config.seed, STREAM_AB, ESTIMATOR_CODES[bucket.estimator], day)
            for lo, hi in rng.fixed_blocks(0, config.traffic_per_day, BLOCK):
                block = _serve_block(config, tables, key, day, lo, hi, order[:, 0], true_ctr)
                write(bucket.name, block)
                window.add(block.random_mode, block.winner, block.ctx, block.click)
        out[bucket.name] = tables
    return out


# ---------------------------------------------------------------------------
# Monte Carlo rank sampling against the quadrature oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankSampleStats:
    """Conditional-on-rank sample moments from independent score draws.

    Arrays are (ads, ranks); entries with zero count are NaN.
    ``exact_draws`` counts the beta draws that took the exact inverse CDF
    instead of the grid's Hermite step (``CaseSampler.draw``), and
    ``table_bytes`` is what the sampler's draw tables held.
    """

    counts: np.ndarray
    means: np.ndarray
    std_errors: np.ndarray
    exact_draws: int = 0
    table_bytes: int = 0


def _mc_block(sampler: CaseSampler, key: np.ndarray, lo: int, hi: int):
    """Counts, sums and sums of squares of one block's draws, (ads, ranks) each,
    and the number of draws that took the exact inverse CDF.

    The block is ad-major: ad j's uniforms are copied once into row j of
    one array, each row is drawn whole and replaced by its draws, and the
    ranks (``score_ranks`` on the transpose) come back in the same order.
    Each draw of each ad gets one code, ad * m + rank with rank 0-based,
    and three bincounts over the codes give the moments; a code's bin sums
    one ad's draws in draw order, as a trial-major layout would.
    """
    m = len(sampler.grid)
    blocks = math.ceil(m / rng.DOUBLES_PER_BLOCK)
    # draws before u, so that freeing u frees the top of the drawing thread's malloc
    # heap; the other order leaves 2 MB more resident on an 8-ad field
    draws = np.empty((m, hi - lo))
    u = rng.unit_uniforms(key, lo, hi - lo, blocks_per_unit=blocks)
    np.copyto(draws, u[:, :m].T)
    del u
    exact = 0
    for j, row in enumerate(draws):
        row[:], n_exact = sampler.draw(j, row)
        exact += n_exact
    code = score_ranks(draws.T).T
    code += np.arange(0, m * m, m)[:, None]
    code = code.ravel()
    count = np.bincount(code, minlength=m * m)
    total = np.bincount(code, weights=draws.ravel(), minlength=m * m)
    np.square(draws, out=draws)
    total_sq = np.bincount(code, weights=draws.ravel(), minlength=m * m)
    return count.reshape(m, m), total.reshape(m, m), total_sq.reshape(m, m), exact


def sample_rank_stats(grid: CaseGrid, draws: int, seed: int,
                      case_index: int = 0, map=map) -> RankSampleStats:
    """Monte Carlo conditional score means per (ad, rank), with standard errors.

    Draw t owns unit t of the stream keyed (seed, sampling, case); partial
    moments accumulate over BLOCK-draw blocks merged in block order, so the
    result is bit-identical for any thread count.  Scores are drawn through
    a ``CaseSampler`` of the case's ``CaseGrid``, built here, so its draw
    tables are gone on return; its safe-cell flag slices and the blocks run
    through ``map``: the builtin ``map`` runs them in turn, and a
    ``worker_map``'s runs each call's tasks on its threads, the calling
    thread among them, and returns in task order.
    """
    if draws < 1:
        raise InvalidValue("draws", f"must be >= 1, got {draws}")
    key = rng.stream_key(seed, STREAM_MC, case_index)
    sampler = CaseSampler(grid, map)
    parts = list(map(lambda r: _mc_block(sampler, key, *r), rng.fixed_blocks(0, draws, BLOCK)))
    count, total, total_sq, exact = (sum(p) for p in zip(*parts))
    with np.errstate(divide="ignore", invalid="ignore"):
        means = np.where(count > 0, total / np.maximum(count, 1), np.nan)
        variance = np.where(count > 1,
                            (total_sq - count * means ** 2) / np.maximum(count - 1, 1),
                            np.nan)
        # where count < 2 the variance is NaN, and np.maximum and sqrt keep it NaN
        std_errors = np.sqrt(np.maximum(variance, 0.0) / np.maximum(count, 1))
    return RankSampleStats(counts=count, means=means, std_errors=std_errors,
                           exact_draws=exact, table_bytes=sampler.nbytes)
