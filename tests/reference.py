"""Reference helpers that only the tests use.

The package's commands never need these, so they live here and may import
``scipy.stats``, which no module of the package loads.
"""

import numpy as np
from scipy import stats

from gspbias.engine import AdSpec, Context, ImpressionLog


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
