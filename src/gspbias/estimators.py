"""CTR estimators and the trailing window of day counts they read.

Two serving models are provided.  The naive estimator is the raw click
proportion per (ad, context) cell over a trailing window of recent days,
read in place from the bucket's per-day count tables (``CountWindow``).
The pooled estimator shrinks each cell's proportion toward a prior fitted
across all ads at once, so sparsely observed cells borrow strength from the
population instead of reporting extreme proportions.  Both work on whole
(ads, contexts) count matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoData

FALLBACK_HYPER = (1.0, 19.0)  # prior mean 0.05, matching the simulated CTR scale


class CountWindow:
    """The trailing window of one bucket's day tables that its estimates read.

    ``clicks`` and ``impressions`` are the bucket's int64 ``(days, 2, ads,
    contexts)`` tables, referenced, not copied.  ``add`` counts into the head
    day; the totals sum days head - L + 1 .. head - 1 over days and modes.
    """

    def __init__(self, length_days: int, clicks: np.ndarray, impressions: np.ndarray):
        if length_days < 1:
            raise ValueError("window length must be >= 1 day")
        self.length_days = length_days
        self.clicks, self.impressions = clicks, impressions
        self.head = 0

    def advance_to(self, day: int) -> None:
        """Move the window head to ``day``."""
        if day < self.head:
            raise ValueError(f"cannot move window backwards ({self.head} -> {day})")
        self.head = day

    def add(self, mode: np.ndarray, ad: np.ndarray, ctx: np.ndarray,
            click: np.ndarray) -> None:
        """Count accesses into the head day: access i showed ad ``ad[i]`` in
        context ``ctx[i]``, explored when ``mode[i]``, and was clicked when
        ``click[i]`` is 1.  A cell outside the tables raises ValueError."""
        imps, clicks = self.impressions[self.head], self.clicks[self.head]
        cell = np.ravel_multi_index((mode, ad, ctx), imps.shape)
        imps += np.bincount(cell, minlength=imps.size).reshape(imps.shape)
        clicks += np.bincount(cell[click == 1], minlength=imps.size).reshape(imps.shape)

    def _days(self) -> slice:
        return slice(max(0, self.head - self.length_days + 1), self.head)

    def totals(self) -> tuple[np.ndarray, np.ndarray]:
        """In-window (clicks, impressions), each of shape (ads, contexts)."""
        days = self._days()
        return self.clicks[days].sum(axis=(0, 1)), self.impressions[days].sum(axis=(0, 1))

    def ad_totals(self) -> tuple[np.ndarray, np.ndarray]:
        """In-window (clicks, impressions) per ad, summed over contexts."""
        days = self._days()
        return self.clicks[days].sum(axis=(0, 1, 3)), self.impressions[days].sum(axis=(0, 1, 3))

    # only bench/tracer.py calls this, patching it by name; the (ad, context)
    # cells that hold in-window impressions
    def keys(self) -> np.ndarray:
        return np.argwhere(self.totals()[1] > 0)


def naive_contextual_estimate(clicks: np.ndarray, impressions: np.ndarray) -> np.ndarray:
    """Windowed click proportion c / n per cell; the fallback prior mean where n == 0."""
    return np.where(impressions > 0, clicks / np.maximum(impressions, 1),
                    PoolHyperParams(*FALLBACK_HYPER).prior_mean)


@dataclass(frozen=True)
class PoolHyperParams:
    """Pseudo-count prior (alpha, beta) shared by all ads."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError(f"alpha and beta must be positive, got ({self.alpha}, {self.beta})")

    @property
    def prior_mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)


def fit_pool(clicks: np.ndarray, impressions: np.ndarray) -> PoolHyperParams:
    """Fit the shared prior from every ad's windowed totals by moments.

    ``clicks`` and ``impressions`` hold one entry per ad, in ad-id order; ads
    without impressions are left out.  Matches the mean and variance of the
    per-ad proportions to a beta-binomial model, subtracting the within-ad
    binomial sampling variance so only across-ad spread shapes the prior.
    Degenerate moment systems (no spread beyond sampling noise, an extreme
    mean, or one impression per ad) fall back to the documented default
    prior.
    """
    seen = impressions >= 1
    if not seen.any():
        raise NoData("no ad has any impressions")
    n = impressions[seen].astype(float)
    props = clicks[seen] / n
    mu = float(props.mean())
    sampling = float(np.mean(1.0 / n))
    # sampling == 1 when every ad has one impression: sampling noise then
    # accounts for any spread and leaves nothing to fit
    if len(props) < 2 or not 0.0 < mu < 1.0 or sampling == 1.0:
        return PoolHyperParams(*FALLBACK_HYPER)
    spread = float(props.var(ddof=1))
    rho = (spread / (mu * (1.0 - mu)) - sampling) / (1.0 - sampling)
    if not 0.0 < rho < 1.0:
        return PoolHyperParams(*FALLBACK_HYPER)
    concentration = 1.0 / rho - 1.0
    return PoolHyperParams(alpha=mu * concentration, beta=(1.0 - mu) * concentration)


def pooled_estimate(clicks, impressions, hyper: PoolHyperParams):
    """Shrunken proportion (c + alpha) / (n + alpha + beta) per element; prior mean at n = 0."""
    if np.any(clicks < 0) or np.any(clicks > impressions):
        raise ValueError("clicks outside [0, impressions]")
    return (clicks + hyper.alpha) / (impressions + hyper.alpha + hyper.beta)
