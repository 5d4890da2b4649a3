"""Reference helpers that only the tests use.

The package's commands never need these, so they live here and may import
``scipy.stats``, which no module of the package loads.
"""

import numpy as np
from scipy import stats

from gspbias.engine import AdSpec, Context, ImpressionLog
from gspbias.oracle import rank_table


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
    return ImpressionLog(
        bucket=bucket, ads=tuple(AdSpec(i + 1, b, 0.0) for i, b in enumerate(bids.tolist())),
        contexts=(Context(1, 1, 1.0),), estimates=estimates, prices=cpc.reshape(n, 1),
        day=np.arange(n, dtype=np.int64), ctx=np.zeros(n, dtype=np.int64),
        winner=winner.astype(np.int64), random_mode=random_mode,
        click=np.asarray(click, dtype=np.int64))


def rank_probs(dists, candidate, s):
    """``rank_table`` at the scores s: row k-1 holds P(candidate holds rank k | s)."""
    return rank_table(np.vstack([d.cdf(np.atleast_1d(np.asarray(s, float))) for d in dists]),
                      candidate)


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
