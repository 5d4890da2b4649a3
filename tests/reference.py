"""Reference helpers that only the tests use.

The package's commands never need these, so they live here and may import
``scipy.stats``, which no module of the package loads.
"""

import math
import weakref
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
from scipy import stats

from gspbias.config import TheoremCase, load_config
from gspbias.engine import (
    AdSpec,
    BucketTables,
    Context,
    ImpressionLog,
    TrialTable,
    cpc_blocks,
    rank_contexts,
    run_ab_experiment,
    score_ranks,
)
from gspbias.errors import (
    EmptyAuction,
    GspBiasError,
    RankUnreachable,
    UndefinedCalibration,
    UndefinedRatio,
)
from gspbias.metrics import (
    MIN_BIAS_TRIALS,
    BiasReport,
    CalibrationReport,
    CpcSummary,
    RankBiasSummary,
    RelativeMetrics,
    align_histograms,
    split_histogram_densities,
)
from gspbias import oracle, rng
from gspbias.oracle import (
    MASS_FLOOR,
    RankDecomposition,
    RankProfile,
    SplitVerdict,
)


def symmetry_z(samples) -> float:
    """Skewness z-statistic; |z| > 3 rejects symmetry at the 3-sigma level."""
    stat, _pvalue = stats.skewtest(np.asarray(samples, dtype=float))
    return float(stat)


def log_from_rows(pred, bid, cpc, random_mode, click, bucket="T") -> ImpressionLog:
    """A code-form log whose row i reads back the given per-row values.

    Row i is served on day i in one context (site 1, pos 1), and each
    distinct bid is one ad, ids 1, 2, ... in bid order.  An explored row is
    never charged, so its cpc must be 0.
    """
    pred = np.asarray(pred, dtype=np.float64)
    random_mode = np.asarray(random_mode, dtype=bool)
    cpc = np.asarray(cpc, dtype=np.float64)
    if (cpc[random_mode] != 0.0).any():
        raise ValueError("explored rows are never charged")
    bids, winner = np.unique(np.asarray(bid, dtype=np.float64), return_inverse=True)
    n = len(pred)
    estimates = np.zeros((n, len(bids), 1))
    estimates[np.arange(n), winner, 0] = pred
    counts = np.zeros((n, 2, len(bids), 1), dtype=np.int64)
    tables = BucketTables(bucket, tuple(AdSpec(i + 1, b, 0.0) for i, b in enumerate(bids.tolist())),
                          (Context(1, 1, 1.0),), estimates, cpc.reshape(n, 1),
                          impressions=counts, clicks=counts)
    return ImpressionLog(
        tables, day=np.arange(n, dtype=np.int64), ctx=np.zeros(n, dtype=np.int64),
        winner=winner.astype(np.int64), random_mode=random_mode,
        click=np.asarray(click, dtype=np.int64))


def record_columns(log) -> SimpleNamespace:
    """Every field of the log's impression records, one array each (the
    bucket name once), read from its codes and day tables; explored
    displays are never charged."""
    t = log.tables
    return SimpleNamespace(
        day=log.day, bucket=t.bucket,
        site=np.array([c.site for c in t.contexts])[log.ctx],
        pos=np.array([c.pos for c in t.contexts])[log.ctx],
        ad_id=np.array([ad.id for ad in t.ads])[log.winner],
        random_mode=log.random_mode,
        pred_ctr=t.estimates[log.day, log.winner, log.ctx],
        bid=np.array([ad.bid for ad in t.ads])[log.winner],
        cpc=np.where(log.random_mode, 0.0, t.prices[log.day, log.ctx]),
        click=log.click)


def take(log, rows) -> ImpressionLog:
    """The log's accesses at ``rows`` (a slice or index array), with the same tables."""
    return replace(log, day=log.day[rows], ctx=log.ctx[rows], winner=log.winner[rows],
                   random_mode=log.random_mode[rows], click=log.click[rows])


def join_blocks(blocks) -> ImpressionLog:
    """One log of the given blocks' accesses, in order; they share day tables."""
    columns = ("day", "ctx", "winner", "random_mode", "click")
    return replace(blocks[0], **{name: np.concatenate([getattr(b, name) for b in blocks])
                                 for name in columns})


def run_logged(config):
    """``run_ab_experiment`` keeping every block it serves: each bucket's day
    tables, and each bucket's blocks joined into one whole-run log."""
    blocks = {bucket.name: [] for bucket in config.buckets}
    tables = run_ab_experiment(config, lambda bucket, block: blocks[bucket].append(block))
    return tables, {name: join_blocks(parts) for name, parts in blocks.items()}


def after_day(log, first_day):
    """The log's records from ``first_day`` on (the evaluation split after burn-in)."""
    return take(log, log.day >= first_day)


def tables_from_log(log) -> BucketTables:
    """The day tables a log's accesses count into: impressions and clicks per
    (day, mode, ad, context), mode 0 greedy and 1 explored."""
    t = log.tables
    shape = (len(t.estimates), 2, len(t.ads), len(t.contexts))
    impressions = np.zeros(shape, dtype=np.int64)
    clicks = np.zeros(shape, dtype=np.int64)
    cell = (log.day, log.random_mode.astype(np.intp), log.winner, log.ctx)
    np.add.at(impressions, cell, 1)
    np.add.at(clicks, cell, log.click)
    return replace(t, impressions=impressions, clicks=clicks)


def c_relative_per_access(log) -> CalibrationReport:
    """``metrics.c_relative`` summed over the log's accesses, one term each."""
    random = log.random_mode
    greedy = ~random
    columns = record_columns(log)
    click, pred, bid = log.click, columns.pred_ctr, columns.bid
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
    if cal_r == 0.0 or wcal_r == 0.0:
        raise UndefinedCalibration("random traffic predicts no clicks or no bid-weighted value")
    return CalibrationReport(
        calibration_greedy=cal_g, calibration_random=cal_r,
        c_relative=cal_g / cal_r,
        bid_weighted_greedy=wcal_g, bid_weighted_random=wcal_r,
        bid_weighted_c_relative=wcal_g / wcal_r,
        greedy_clicks=g_clicks, random_clicks=r_clicks,
    )


def c_relative_log_se(log) -> float:
    """Delta-method standard error of log C_relative.

    Treats records as independent and propagates each record's influence on
    the two calibration ratios; greedy and random groups are disjoint so
    their contributions add.
    """
    pred, click = record_columns(log).pred_ctr, log.click
    se_sq = 0.0
    for mask in (~log.random_mode, log.random_mode):
        p_sum = float(pred[mask].sum())
        c_sum = float(click[mask].sum())
        if p_sum <= 0 or c_sum <= 0:
            raise UndefinedCalibration("cannot form a standard error without clicks")
        influence = pred[mask] / p_sum - click[mask] / c_sum
        se_sq += float((influence ** 2).sum())
    return float(np.sqrt(se_sq))


def _greedy_value_and_cost(log) -> tuple[float, float]:
    greedy = ~log.random_mode
    click, columns = log.click[greedy], record_columns(log)
    return (float((click * columns.bid[greedy]).sum()),
            float((click * columns.cpc[greedy]).sum()))


def rtv_rtc_per_access(log_a, log_b) -> RelativeMetrics:
    """``metrics.rtv_rtc`` summed over the logs' accesses, one term each."""
    (value_a, cost_a), (value_b, cost_b) = map(_greedy_value_and_cost, (log_a, log_b))
    if value_a == 0.0:
        raise UndefinedRatio("bucket A has zero clicked bid value")
    if cost_a == 0.0:
        raise UndefinedRatio("bucket A has zero clicked cost")
    return RelativeMetrics(rtv=value_b / value_a, rtc=cost_b / cost_a)


def cpc_trials(config) -> TrialTable:
    """All trials of one setting as one table: the blocks that
    ``run_cpc_study`` reduces, joined in trial order."""
    blocks = list(cpc_blocks(config))
    columns = ("estimates", "rank", "order", "cpc", "degenerate")
    return TrialTable(*(np.concatenate([getattr(b, name) for b in blocks]) for name in columns))


# The whole-table metrics that ``metrics.CpcStats`` replaced: the oracle its
# merged statistics are checked against.

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


def bias_report(trials: TrialTable, true_ctrs: tuple[float, ...],
                bids: tuple[float, ...], rank_hists) -> BiasReport:
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


def histogram_overlap(h1, h2) -> float:
    """Shared mass: sum over bins of min(fraction_1, fraction_2)."""
    _edges, c1, c2 = align_histograms(h1, h2)
    return float(np.minimum(c1 / c1.sum(), c2 / c2.sum()).sum())


def mass_split(samples, threshold: float) -> tuple[float, float]:
    """Fractions of samples strictly below / at-or-above ``threshold``."""
    samples = np.asarray(samples, dtype=float)
    below = float((samples < threshold).mean())
    return below, 1.0 - below


def load_case(tmp_path, specs) -> TheoremCase:
    """The one case of a verify-theorems config whose ads have ``specs``, as
    ``load_config`` reads it."""
    path = tmp_path / "case.cfg"
    path.write_text("[config]\nschema_version = 1\ncommand = verify-theorems\n[verify]\n"
                    f"[case.x]\ndists = {', '.join(specs)}\n", encoding="utf-8")
    return load_config(path).payload.cases[0]


def rank_probs(dists, candidate, s):
    """The rank table at the scores s: row k-1 holds P(candidate holds rank k | s)."""
    return rank_table_whole_rows(
        np.vstack([d.cdf(np.atleast_1d(np.asarray(s, float))) for d in dists]), candidate)


def read_histogram_csv(path):
    """Read a (bin_left, bin_right, count) histogram file back as three lists."""
    lefts, rights, counts = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header != ["bin_left", "bin_right", "count"]:
            raise ValueError(f"{path}: unexpected histogram header {header}")
        for line in fh:
            left, right, count = line.strip().split(",")
            lefts.append(float(left))
            rights.append(float(right))
            counts.append(int(count))
    return lefts, rights, counts


def rank_table_whole_rows(F, candidate):
    """The Poisson-binomial rank table folded over whole CDF rows at once:
    row k-1 holds P(candidate holds rank k | s), rivals folded in index order."""
    out = np.zeros(F.shape)
    out[0] = 1.0
    seen = 0
    for j, Fj in enumerate(F):
        if j == candidate:
            continue
        seen += 1
        beats = 1.0 - Fj
        for k in range(seen, 0, -1):
            out[k] *= Fj
            out[k] += out[k - 1] * beats
        out[0] *= Fj
    return out


def uniform_field_profile(dists, candidate):
    """A candidate's rank masses and score moments, E[score; rank = k], in a
    field of uniforms, exactly: on each piece between the sorted support
    endpoints every CDF is linear, so each integrand is a polynomial of
    degree at most m, which Gauss-Legendre with m + 4 points integrates
    exactly."""
    m = len(dists)
    low, high = dists[candidate].params
    ends = sorted({x for d in dists for x in d.params if low < x < high} | {low, high})
    x, wx = np.polynomial.legendre.leggauss(m + 4)
    masses, moments = np.zeros(m), np.zeros(m)
    for a, b in zip(ends[:-1], ends[1:]):
        s = (a + b) / 2 + (b - a) / 2 * x
        weights = (b - a) / 2 * wx / (high - low)
        table = rank_table_whole_rows(np.vstack([d.cdf(s) for d in dists]), candidate)
        masses += table @ weights
        moments += table @ (weights * s)
    return masses, moments


def whole_row_checks(grid) -> dict:
    """The rank table and the four oracle checks as first written, over
    whole rows: CDF and density rows evaluated in one call each, the
    candidate's quadrature weights (``CaseGrid.quadrature``) taken over the
    whole grid, whole-row temporaries and whole-row ``np.sum``.  Keyed by
    the names ``gspbias.cli`` calls them by, so that a command's checks can
    be run through them."""
    F = np.vstack([d.cdf(grid.s) for d in grid.dists])

    def density(candidate):
        return grid.dists[candidate].pdf(grid.s)

    def quadrature(candidate):
        return grid.quadrature(candidate, 0, len(grid.s))

    def mean_profile(grid, candidate, table):
        marginals = np.empty(len(table))
        means = np.full(len(table), np.nan)
        w, dens = quadrature(candidate)
        wd = w * dens
        wsd = w * grid.s * dens
        for k, pk in enumerate(table):
            mass = float(np.sum(wd * pk))
            marginals[k] = mass
            if mass >= MASS_FLOOR:
                means[k] = float(np.sum(wsd * pk)) / mass
        return RankProfile(marginals=marginals, conditional_means=means)

    def decomposition(grid, candidate, table, marginals):
        if len(grid) < 2:
            raise RankUnreachable("single ad has no adjacent rank")
        mass1, mass2 = marginals[:2]
        if mass2 < MASS_FLOOR:
            raise RankUnreachable(f"rank 2 mass {mass2:.3e} too small for the contrast")
        alpha = mass1 / mass2
        rivals = len(grid) - 1
        p1, p2 = table[:2]
        plus_part = p1 + alpha * (rivals * p1)
        minus_part = alpha * (p2 + rivals * p1)
        w, dens = quadrature(candidate)
        residual = float(np.sum(w * dens * (plus_part - minus_part)))
        return RankDecomposition(residual, bool(np.all(np.diff(plus_part) >= -1e-12)),
                                 bool(np.all(np.diff(minus_part) >= -1e-12)))

    def density_profile(grid, candidate, table, marginals):
        for pk, mass in zip(table, marginals):
            pk[:] = density(candidate) * pk / mass if mass >= MASS_FLOOR else np.nan
        return table

    def splittable(f, g, tolerance=0.0):
        split = split_index_by_accumulation(f, g, tolerance)
        return SplitVerdict(split is not None, split)

    return {"rank_table": lambda grid, candidate: rank_table_whole_rows(F, candidate),
            "conditional_mean_profile": mean_profile,
            "top_rank_decomposition": decomposition,
            "conditional_density_profile": density_profile,
            "check_splittable": splittable}


def watch_draw_tables(monkeypatch) -> list:
    """Weak references to every guide table and safe-cell flag array the
    oracle builds from here on, in build order."""
    refs = []
    for name in ("_guide_table", "_hermite_safe_cells"):
        def built(*args, f=getattr(oracle, name)):
            out = f(*args)
            refs.append(weakref.ref(out))
            return out
        monkeypatch.setattr(oracle, name, built)
    return refs


def split_index_by_accumulation(f, g, tolerance):
    """``oracle.check_splittable``'s split index from whole prefix and suffix
    scans, or None: the smallest v with f <= g + tolerance at every index
    below v and f >= g - tolerance at every index from v on, v < len(f)."""
    f, g = np.asarray(f, dtype=float), np.asarray(g, dtype=float)
    below_ok = f <= g + tolerance
    above_ok = f >= g - tolerance
    # prefix_ok[v]: every bin strictly below v is admissible pre-split
    prefix_ok = np.concatenate(([True], np.logical_and.accumulate(below_ok)[:-1]))
    suffix_ok = np.logical_and.accumulate(above_ok[::-1])[::-1]
    valid = prefix_ok & suffix_ok
    return int(np.argmax(valid)) if valid.any() else None


def hermite_safe_cells_whole_rows(params, s, F, f, tol, cdf_rel_err):
    """``oracle._hermite_safe_cells`` computed over whole rows at once: safe[i]
    flags the cell between nodes i-1 and i whose Hermite-Newton error estimate
    is at most tol * scale."""
    a, b, scale = params
    safe = np.zeros(len(s), dtype=bool)
    first = int(np.searchsorted(F, 0.0, side="right"))
    last = int(np.searchsorted(F, 1.0, side="left")) - 1
    if last <= first:
        return safe
    f = f[first:last + 1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv_x = scale / s[first:last + 1]
        inv_1mx = 1.0 / (1.0 - s[first:last + 1] / scale)
        p, q = (a - 1.0) * inv_x, (b - 1.0) * inv_1mx
        psi = p - q
        dpsi = -(p * inv_x + q * inv_1mx)
        d2psi = 2.0 * (p * inv_x * inv_x - q * inv_1mx * inv_1mx)
        d1 = np.abs(psi) * f
        d3 = np.abs(d2psi + psi * (3.0 * dpsi + psi * psi)) * f
        f0 = np.minimum(f[:-1], f[1:])
        m1 = np.maximum(d1[:-1], d1[1:]) / f0
        m3 = np.maximum(d3[:-1], d3[1:]) / f0
        h4 = (s[1] / scale) ** 4 * scale
        err = h4 * (m3 / 384.0 + m1 ** 3 / 128.0) + cdf_rel_err / f0
    safe[first + 1:last + 1] = err <= tol * scale
    return safe


def hermite_draw(sampler, j, u):
    """``CaseSampler.draw`` as first written, with whole-array temporaries and
    the bracket from ``np.searchsorted``: ad j's scores at the uniforms u, and
    how many took the exact inverse.  The sampler's draws must equal these
    bit for bit."""
    grid, dist = sampler.grid, sampler.grid.dists[j]
    if dist.kind == "uniform":
        return dist.ppf(u), 0
    (F, f), (safe, _guide), h = grid.rows[dist], sampler.tables[dist], grid.s[1]
    i = np.searchsorted(F, u, side="right")
    f_lo = F[i - 1]
    rise = F[i] - f_lo
    d_lo, d_hi = f[i - 1] * h, f[i] * h
    c2 = 3.0 * rise - 2.0 * d_lo - d_hi
    c3 = d_lo + d_hi - 2.0 * rise
    gap = u - f_lo
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = gap / rise
        t -= (t * (d_lo + t * (c2 + t * c3)) - gap) / (d_lo + t * (2.0 * c2 + 3.0 * t * c3))
        drawn = grid.s[i - 1] + t * h
    keep = safe[i] & (t >= 0.0) & (t <= 1.0)
    n_exact = len(u) - int(np.count_nonzero(keep))
    if n_exact:
        drawn[~keep] = dist.ppf(u[~keep])
    return drawn, n_exact


def mc_block_trial_major(sampler, key, lo, hi):
    """``engine._mc_block`` as first written: draws in a (draws, ads) array,
    one strided column per ad, from ``hermite_draw``; returns the (ads,
    ranks) counts, sums and sums of squares and the exact-inverse count."""
    m = len(sampler.grid)
    u = rng.unit_uniforms(key, lo, hi - lo, blocks_per_unit=math.ceil(m / rng.DOUBLES_PER_BLOCK))
    draws = np.empty((hi - lo, m))
    exact = 0
    for j in range(m):
        draws[:, j], n_exact = hermite_draw(sampler, j, u[:, j])
        exact += n_exact
    code = (score_ranks(draws) + np.arange(0, m * m, m)).ravel()
    count = np.bincount(code, minlength=m * m)
    total = np.bincount(code, weights=draws.ravel(), minlength=m * m)
    total_sq = np.bincount(code, weights=np.square(draws).ravel(), minlength=m * m)
    return count.reshape(m, m), total.reshape(m, m), total_sq.reshape(m, m), exact


# ---------------------------------------------------------------------------
# The scalar auction: one auction at a time, from score ranking to the
# second-price CPC and the win event.  ``engine.rank_contexts`` is checked
# against it row by row.
#
# Ads are ranked by score = bid x estimated CTR, the top ad is displayed, and
# it pays the runner-up's score divided by its own estimated CTR per click.
# ``build_selection_event`` expresses "candidate i ranks first" as a system of
# linear constraints A y >= 0 on the vector of estimated CTRs, which is the
# object the bias analysis conditions on.
# ---------------------------------------------------------------------------

class InvalidScore(GspBiasError):
    """A ranking score is NaN, infinite, or negative."""


class DegeneratePrice(GspBiasError):
    """The winner's estimated CTR is zero, so the second-price quotient is undefined."""


@dataclass(frozen=True)
class Ad:
    """One advertiser's entry: identifier, per-click bid, and true CTR."""

    id: int
    bid: float
    true_ctr: float

    def __post_init__(self):
        if not (self.bid >= 0 and math.isfinite(self.bid)):
            raise ValueError(f"ad {self.id}: bid must be finite and >= 0, got {self.bid}")
        if not (0.0 <= self.true_ctr <= 1.0):
            raise ValueError(f"ad {self.id}: true_ctr must lie in [0, 1], got {self.true_ctr}")


@dataclass(frozen=True)
class ScoredAd:
    """An ad with its serve-time CTR estimate and ranking score.

    The score is fixed at construction as bid x estimated_ctr and is never
    recomputed downstream.
    """

    ad_id: int
    estimated_ctr: float
    score: float

    def __post_init__(self):
        if not (0.0 <= self.estimated_ctr <= 1.0):
            raise ValueError(f"ad {self.ad_id}: estimated_ctr must lie in [0, 1]")
        if math.isnan(self.score) or self.score < 0 or math.isinf(self.score):
            raise InvalidScore(f"ad {self.ad_id}: score {self.score}")

    @classmethod
    def from_bid(cls, ad_id: int, bid: float, estimated_ctr: float) -> "ScoredAd":
        return cls(ad_id=ad_id, estimated_ctr=estimated_ctr, score=bid * estimated_ctr)


@dataclass(frozen=True)
class AuctionOutcome:
    """Resolved auction: ranking (ids, best first), winner, and its CPC."""

    ranking: tuple[int, ...]
    winner_id: int
    cpc: float
    winner_score: float
    runner_up_score: float


@dataclass(frozen=True)
class SelectionEvent:
    """Linear constraints A y >= 0 under which one candidate ranks first.

    ``y`` lists estimated CTRs with the candidate first, followed by the
    remaining participants in their input order (``participant_ids`` records
    that ordering).  Row r encodes candidate_bid * y[0] >= bid_r * y[r + 1].
    """

    matrix: np.ndarray
    candidate_id: int
    participant_ids: tuple[int, ...]

    def contains(self, y) -> bool:
        """Whether the estimate vector (candidate first) satisfies A y >= 0."""
        return bool(np.all(self.matrix @ np.asarray(y, dtype=float) >= 0.0))


def _check_scored(scored: list[ScoredAd]) -> None:
    if not scored:
        raise EmptyAuction("no participants")
    for ad in scored:
        if math.isnan(ad.score) or ad.score < 0:
            raise InvalidScore(f"ad {ad.ad_id}: score {ad.score}")
    ids = [ad.ad_id for ad in scored]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate ad ids in auction: {sorted(ids)}")


def rank_ads(scored: list[ScoredAd]) -> list[int]:
    """Rank ad ids by score, highest first; equal scores break by ascending id."""
    _check_scored(scored)
    return [ad.ad_id for ad in sorted(scored, key=lambda a: (-a.score, a.ad_id))]


def gsp_price(ranking: list[int], scored: list[ScoredAd]) -> float:
    """Winner's cost per click: runner-up score / winner's estimated CTR.

    A single-participant auction has no runner-up and prices at 0.  A winner
    with estimated CTR 0 facing competition has no finite price and raises
    DegeneratePrice rather than propagating infinity.
    """
    _check_scored(scored)
    by_id = {ad.ad_id: ad for ad in scored}
    winner = by_id[ranking[0]]
    if len(ranking) == 1:
        return 0.0
    if winner.estimated_ctr == 0.0:
        raise DegeneratePrice(f"winner ad {winner.ad_id} has estimated CTR 0")
    runner_up = by_id[ranking[1]]
    return runner_up.score / winner.estimated_ctr


def run_auction(scored: list[ScoredAd]) -> AuctionOutcome:
    """Rank, price, and package a full auction outcome."""
    ranking = rank_ads(scored)
    by_id = {ad.ad_id: ad for ad in scored}
    cpc = gsp_price(ranking, scored)
    runner_up_score = by_id[ranking[1]].score if len(ranking) > 1 else 0.0
    return AuctionOutcome(
        ranking=tuple(ranking),
        winner_id=ranking[0],
        cpc=cpc,
        winner_score=by_id[ranking[0]].score,
        runner_up_score=runner_up_score,
    )


def build_selection_event(ads: list[Ad], candidate_id: int) -> SelectionEvent:
    """Constraint matrix for the event that ``candidate_id`` attains rank 1.

    Requires at least two participants.  With the ascending-id tie break,
    membership of a tie-free estimate vector in {y : A y >= 0} coincides with
    the candidate winning the auction; boundary points (score ties) satisfy
    the weak inequalities for every tied candidate.
    """
    if len(ads) < 2:
        raise EmptyAuction(f"selection event needs >= 2 ads, got {len(ads)}")
    ids = [ad.id for ad in ads]
    if candidate_id not in ids:
        raise ValueError(f"candidate {candidate_id} not among participants {ids}")
    candidate = next(ad for ad in ads if ad.id == candidate_id)
    others = [ad for ad in ads if ad.id != candidate_id]
    m = len(ads)
    matrix = np.zeros((m - 1, m))
    for row, rival in enumerate(others):
        matrix[row, 0] = candidate.bid
        matrix[row, row + 1] = -rival.bid
    return SelectionEvent(
        matrix=matrix,
        candidate_id=candidate_id,
        participant_ids=(candidate_id,) + tuple(ad.id for ad in others),
    )
