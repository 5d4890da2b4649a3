"""CTR estimators and the sliding count window they read.

Two serving models are provided.  The naive estimator is the raw click
proportion per (ad, context) cell over a sliding window of recent days.
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
    """Per-day click/impression counts per (ad, context) cell over the trailing L days.

    Two ``int64`` arrays of shape (L, ads, contexts) form a ring of day slots;
    day d lives in slot d % L.  Advancing to a new day zeroes the slot of
    every day that enters the window, so each slot holds exactly one day in
    (head - L, head] and evicted days can never contribute to a total.
    Counts may only be added for days currently inside the window.
    """

    def __init__(self, length_days: int, ads: int, contexts: int):
        if length_days < 1:
            raise ValueError("window length must be >= 1 day")
        self.length_days = length_days
        self.clicks = np.zeros((length_days, ads, contexts), dtype=np.int64)
        self.impressions = np.zeros_like(self.clicks)
        self._current_day = -1

    def advance_to(self, day: int) -> None:
        """Move the window head to ``day``, evicting days that fall out."""
        if day < self._current_day:
            raise ValueError(f"cannot move window backwards ({self._current_day} -> {day})")
        first = max(self._current_day + 1, day - self.length_days + 1)
        slots = np.arange(first, day + 1) % self.length_days
        self.clicks[slots] = 0
        self.impressions[slots] = 0
        self._current_day = day

    def add(self, day: int, clicks: np.ndarray, impressions: np.ndarray) -> None:
        """Fold one day's (ads, contexts) click and impression counts into its slot."""
        if day > self._current_day or day <= self._current_day - self.length_days:
            raise ValueError(f"day {day} outside window ending at {self._current_day}")
        if clicks.shape != self.clicks.shape[1:] or impressions.shape != clicks.shape:
            raise ValueError(f"counts must have shape {self.clicks.shape[1:]}, "
                             f"got {clicks.shape} and {impressions.shape}")
        if np.any(clicks < 0) or np.any(clicks > impressions):
            raise ValueError("clicks outside [0, impressions]")
        slot = day % self.length_days
        self.clicks[slot] += clicks
        self.impressions[slot] += impressions

    def totals(self) -> tuple[np.ndarray, np.ndarray]:
        """In-window (clicks, impressions), each of shape (ads, contexts)."""
        return self.clicks.sum(axis=0), self.impressions.sum(axis=0)

    def ad_totals(self) -> tuple[np.ndarray, np.ndarray]:
        """In-window (clicks, impressions) per ad, summed over contexts."""
        return self.clicks.sum(axis=(0, 2)), self.impressions.sum(axis=(0, 2))

    # only bench/tracer.py calls this, patching it by name; the (ad, context)
    # cells that hold in-window impressions
    def keys(self) -> np.ndarray:
        return np.argwhere(self.impressions.sum(axis=0) > 0)


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
