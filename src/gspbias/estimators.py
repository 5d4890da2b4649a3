"""CTR estimators and the sliding count window they read.

Two serving models are provided.  The naive estimator is the raw click
proportion per (ad, site, position) key over a sliding window of recent
days.  The pooled estimator shrinks each key's proportion toward a prior
fitted across all ads at once, so sparsely observed keys borrow strength
from the population instead of reporting extreme proportions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoData

Key = tuple[int, int, int]  # (ad_id, site, pos)

DEFAULT_WINDOW_DAYS = 14
FALLBACK_HYPER = (1.0, 19.0)  # prior mean 0.05, matching the simulated CTR scale


def binomial_estimate(clicks: int, impressions: int) -> float:
    """Click proportion clicks / impressions.

    Unbiased for the true CTR when clicks are binomial at fixed impression
    count.  Zero impressions carry no information: raises NoData and leaves
    the fallback to the caller.
    """
    if impressions == 0:
        raise NoData("zero impressions")
    if not 0 <= clicks <= impressions:
        raise ValueError(f"clicks {clicks} outside [0, {impressions}]")
    return clicks / impressions


class CountWindow:
    """Per-day click/impression counts per key over the trailing L days.

    A ring of L day buckets; advancing to a new day clears the slot that day
    reuses, so evicted days can never contribute to a total.  Counts may only
    be added for days currently inside the window.
    """

    def __init__(self, length_days: int = DEFAULT_WINDOW_DAYS):
        if length_days < 1:
            raise ValueError("window length must be >= 1 day")
        self.length_days = length_days
        self._day_tags: list[int | None] = [None] * length_days
        self._buckets: list[dict[Key, list[int]]] = [dict() for _ in range(length_days)]
        self._current_day = -1

    @property
    def current_day(self) -> int:
        return self._current_day

    def advance_to(self, day: int) -> None:
        """Move the window head to ``day``, evicting days that fall out."""
        if day < self._current_day:
            raise ValueError(f"cannot move window backwards ({self._current_day} -> {day})")
        for d in range(max(self._current_day + 1, day - self.length_days + 1), day + 1):
            slot = d % self.length_days
            self._day_tags[slot] = d
            self._buckets[slot] = {}
        self._current_day = day

    def add(self, day: int, key: Key, clicks: int, impressions: int) -> None:
        if not 0 <= clicks <= impressions:
            raise ValueError(f"clicks {clicks} outside [0, {impressions}]")
        if day > self._current_day or day <= self._current_day - self.length_days:
            raise ValueError(f"day {day} outside window ending at {self._current_day}")
        slot = day % self.length_days
        cell = self._buckets[slot].setdefault(key, [0, 0])
        cell[0] += clicks
        cell[1] += impressions

    def _live_slots(self):
        for slot, tag in enumerate(self._day_tags):
            if tag is not None and tag > self._current_day - self.length_days:
                yield slot

    def totals(self, key: Key) -> tuple[int, int]:
        """(clicks, impressions) for ``key`` summed over in-window days."""
        c = n = 0
        for slot in self._live_slots():
            cell = self._buckets[slot].get(key)
            if cell is not None:
                c += cell[0]
                n += cell[1]
        return c, n

    def ad_totals(self) -> dict[int, tuple[int, int]]:
        """In-window (clicks, impressions) per ad, aggregated over contexts."""
        out: dict[int, list[int]] = {}
        for slot in self._live_slots():
            for (ad_id, _site, _pos), (c, n) in self._buckets[slot].items():
                cell = out.setdefault(ad_id, [0, 0])
                cell[0] += c
                cell[1] += n
        return {ad: (c, n) for ad, (c, n) in out.items()}

    def keys(self) -> set[Key]:
        seen: set[Key] = set()
        for slot in self._live_slots():
            seen.update(self._buckets[slot].keys())
        return seen


def naive_contextual_estimate(window: CountWindow, ad_id: int, site: int, pos: int) -> float:
    """Windowed click proportion for one (ad, site, pos) key."""
    c, n = window.totals((ad_id, site, pos))
    if n == 0:
        raise NoData(f"no impressions in window for key {(ad_id, site, pos)}")
    return c / n


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


def fit_pool(ad_totals: dict[int, tuple[int, int]]) -> PoolHyperParams:
    """Fit the shared prior from every ad's windowed totals by moments.

    Matches the mean and variance of the per-ad proportions to a
    beta-binomial model, subtracting the within-ad binomial sampling
    variance so only across-ad spread shapes the prior.  Degenerate moment
    systems (no spread beyond sampling noise, or an extreme mean) fall back
    to the documented default prior.
    """
    counts = np.array([[c, n] for c, n in ad_totals.values() if n >= 1], dtype=float)
    if counts.size == 0:
        raise NoData("no ad has any impressions")
    props = counts[:, 0] / counts[:, 1]
    mu = float(props.mean())
    if len(props) < 2 or not 0.0 < mu < 1.0:
        return PoolHyperParams(*FALLBACK_HYPER)
    spread = float(props.var(ddof=1))
    sampling = float(np.mean(1.0 / counts[:, 1]))
    rho = (spread / (mu * (1.0 - mu)) - sampling) / (1.0 - sampling)
    if not 0.0 < rho < 1.0:
        return PoolHyperParams(*FALLBACK_HYPER)
    concentration = 1.0 / rho - 1.0
    return PoolHyperParams(alpha=mu * concentration, beta=(1.0 - mu) * concentration)


def pooled_estimate(clicks: int, impressions: int, hyper: PoolHyperParams) -> float:
    """Shrunken proportion (c + alpha) / (n + alpha + beta); prior mean at n = 0."""
    if not 0 <= clicks <= impressions:
        raise ValueError(f"clicks {clicks} outside [0, {impressions}]")
    return (clicks + hyper.alpha) / (impressions + hyper.alpha + hyper.beta)
