"""Closed-form oracle for rank probabilities under independent ranking scores.

When the m scores are drawn independently, the number of rivals that beat
candidate i at score s is a Poisson-binomial count with success chances
1 - F_j(s), F_j the rival score CDFs.  ``rank_table`` gives the whole
distribution P(rank = k | s), k = 1..m, by folding in one rival at a time,
P_k <- P_k F_j + P_{k-1} (1 - F_j) (Hong 2013, CSDA 59:41-51), instead of
summing over the C(m-1, k-1) sets of rivals that beat s.  Conditional score
moments follow by fixed composite-Simpson quadrature against the
candidate's own density.

A ``CaseGrid`` holds the Simpson nodes and weights and every ad's CDF and
PDF row on them, each evaluated once per case.  The same rows serve the
case's Monte Carlo draws: ``CaseGrid.draw`` brackets a beta uniform in the
ad's CDF row and takes one Newton step on the cubic Hermite interpolant of
that cell's CDF and PDF node values (Hörmann & Leydold 2003, ACM TOMACS
13(4)), so a draw evaluates no special function.  Which cells may keep
that step is decided once per beta ad, when the grid is built; the rest
take the exact inverse, ``_beta_ppf``.  The grid rows themselves come from
``betainc`` and ``_beta_pdf``.  One candidate's rank table costs
O(m^2 * grid) operations and is built once, then read by the mean profile,
the decomposition and, last, the density profile, which normalizes it in
place.  A case holds O(m * grid) floats (the CDF and PDF rows plus one
candidate's table), so there is no cap on m.

Quadrature accuracy is ~1e-12 relative for smooth densities; a density
jump interior to the shared grid (e.g. a uniform whose endpoints are not
grid nodes) degrades it to O(1/intervals), about 1e-5 relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, RankUnreachable

SIMPSON_INTERVALS = 2 ** 17
MASS_FLOOR = 1e-12
# A grid cell keeps its Hermite-Newton draws only when their estimated error,
# in units of the ad's scale, is at most _NEWTON_TOL (``_hermite_safe_cells``);
# _CDF_REL_ERR bounds the error of the CDF row values that the estimate allows for.
_NEWTON_TOL = 1e-9
_CDF_REL_ERR = 1e-14


class ScoreDistribution:
    """A non-negative score distribution with PDF, CDF, and inverse-CDF access.

    Three kinds are supported: uniform on [a, b] with a >= 0, a beta
    distribution stretched to [0, scale], and an empirical density sampled
    on a point grid (CDF accumulated by the trapezoid rule and normalized).
    """

    def __init__(self, kind: str, upper: float, pdf, cdf, ppf, label: str,
                 params: tuple = ()):
        self.kind = kind
        self.upper = upper
        self._pdf = pdf
        self._cdf = cdf
        self._ppf = ppf
        self.label = label
        self.params = params  # (a, b, scale) for a scaled beta

    def __repr__(self):
        return f"ScoreDistribution({self.label})"

    def pdf(self, s):
        return self._pdf(np.asarray(s, dtype=float))

    def cdf(self, s):
        return self._cdf(np.asarray(s, dtype=float))

    def ppf(self, u):
        """Inverse CDF; maps uniforms on [0, 1) to score draws."""
        return self._ppf(np.asarray(u, dtype=float))

    @classmethod
    def uniform(cls, low: float, high: float) -> "ScoreDistribution":
        if not 0.0 <= low < high < math.inf:
            raise ValueError("uniform support must satisfy 0 <= low < high < inf, "
                             f"got [{low}, {high}]")
        width = high - low

        def pdf(s):
            return np.where((s >= low) & (s <= high), 1.0 / width, 0.0)

        def cdf(s):
            return np.clip((s - low) / width, 0.0, 1.0)

        def ppf(u):
            return low + u * width

        return cls("uniform", high, pdf, cdf, ppf, f"uniform({low}, {high})")

    @classmethod
    def scaled_beta(cls, a: float, b: float, scale: float = 1.0) -> "ScoreDistribution":
        if not all(0.0 < x < math.inf for x in (a, b, scale)):
            raise ValueError("scaled_beta needs finite positive parameters, "
                             f"got ({a}, {b}, {scale})")

        # the kernels scipy.stats.beta dispatches to, bit for bit, imported on
        # first use so that loading a config does not import scipy
        def pdf(s):
            from scipy.special import _ufuncs
            x = s / scale
            with np.errstate(over="ignore"):  # a < 1 or b < 1: infinite at an end
                inside = _ufuncs._beta_pdf(np.clip(x, 0.0, 1.0), a, b)
            return np.where((x >= 0.0) & (x <= 1.0), inside, 0.0) / scale

        def cdf(s):
            from scipy.special import _ufuncs
            return _ufuncs.betainc(a, b, np.clip(s / scale, 0.0, 1.0))

        def ppf(u):
            from scipy.special import _ufuncs
            return _ufuncs._beta_ppf(u, a, b) * scale

        return cls("scaled-beta", scale, pdf, cdf, ppf, f"beta({a}, {b}, scale={scale})",
                   (a, b, scale))

    @classmethod
    def from_grid(cls, points, densities) -> "ScoreDistribution":
        points = np.asarray(points, dtype=float)
        densities = np.asarray(densities, dtype=float)
        if points.ndim != 1 or points.shape != densities.shape or len(points) < 2:
            raise ValueError("grid needs matching 1-d points and densities, length >= 2")
        if np.any(np.diff(points) <= 0):
            raise ValueError("grid points must be strictly increasing")
        if points[0] < 0:
            raise ValueError("scores are non-negative; grid starts below 0")
        if np.any(densities < 0):
            raise ValueError("densities must be non-negative")
        steps = np.diff(points)
        cum = np.concatenate([[0.0], np.cumsum(steps * (densities[1:] + densities[:-1]) / 2.0)])
        total = cum[-1]
        if total <= 0:
            raise ValueError("grid density integrates to zero")
        densities = densities / total
        cum = cum / total

        def pdf(s):
            return np.interp(s, points, densities, left=0.0, right=0.0)

        def cdf(s):
            return np.interp(s, points, cum, left=0.0, right=1.0)

        def ppf(u):
            return np.interp(u, cum, points)

        return cls("empirical-grid", float(points[-1]), pdf, cdf, ppf,
                   f"grid({len(points)} pts on [{points[0]}, {points[-1]}])")

    @classmethod
    def from_histogram(cls, bin_left, bin_right, count) -> "ScoreDistribution":
        """Adapt a (bin_left, bin_right, count) histogram to a density grid."""
        bin_left = np.asarray(bin_left, dtype=float)
        bin_right = np.asarray(bin_right, dtype=float)
        count = np.asarray(count, dtype=float)
        if not (len(bin_left) == len(bin_right) == len(count)) or len(count) == 0:
            raise ValueError("histogram columns must be equal-length and non-empty")
        widths = bin_right - bin_left
        if np.any(widths <= 0):
            raise ValueError("histogram bins must have positive width")
        total = count.sum()
        if total <= 0:
            raise ValueError("histogram holds no mass")
        mids = (bin_left + bin_right) / 2.0
        dens = count / (total * widths)
        return cls.from_grid(mids, dens)


class CaseGrid:
    """The Simpson grid of one case, with every ad's CDF and PDF row on it.

    Each row is evaluated once, when the grid is built; every oracle
    function that takes a case's distributions also accepts its CaseGrid,
    and so does the Monte Carlo sampler, which draws through ``draw``.
    ``len(grid)`` is the ad count m.
    """

    def __init__(self, dists: list[ScoreDistribution]):
        self.dists = dists
        upper = max(d.upper for d in dists)
        self.s = np.linspace(0.0, upper, SIMPSON_INTERVALS + 1)
        w = np.ones_like(self.s)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        self.w = w * ((upper / SIMPSON_INTERVALS) / 3.0)
        self.cdf = np.vstack([d.cdf(self.s) for d in dists])
        self.pdf = np.vstack([d.pdf(self.s) for d in dists])
        # one flag per cell, for beta ads only, set before any draw
        self.safe = [_hermite_safe_cells(d.params, self.s, F, f) if d.kind == "scaled-beta"
                     else None for d, F, f in zip(dists, self.cdf, self.pdf)]

    def __len__(self) -> int:
        return len(self.cdf)

    def ppf(self, j: int, u: np.ndarray) -> np.ndarray:
        """Ad j's scores at uniforms u in [0, 1); ``draw`` without the count."""
        return self.draw(j, u)[0]

    def draw(self, j: int, u: np.ndarray) -> tuple[np.ndarray, int]:
        """Ad j's scores at uniforms u in [0, 1), and how many took the exact inverse.

        Uniform ads invert in closed form.  A beta ad brackets u between two
        nodes of its CDF row, F[i-1] <= u < F[i], starts from the linear
        interpolant and takes one Newton step on the cubic Hermite
        interpolant of the cell, built from the node values of the CDF and
        PDF rows: H(t) = F0 + t (f0 h + t (c2 + t c3)) for t in [0, 1].  A
        draw takes the exact inverse instead when its cell is not marked
        safe (see ``_hermite_safe_cells``) or its step leaves the cell.
        """
        dist, safe = self.dists[j], self.safe[j]
        if safe is None:
            return dist.ppf(u), 0
        F, f, h = self.cdf[j], self.pdf[j], self.s[1]
        # sorted keys let searchsorted narrow each search from the last one,
        # and the row gathers then walk each row in order
        by_u = np.argsort(u)
        us = u[by_u]
        i = np.searchsorted(F, us, side="right")  # the cell between nodes i-1 and i
        f_lo = F[i - 1]
        rise = F[i] - f_lo
        d_lo, d_hi = f[i - 1] * h, f[i] * h
        c2 = 3.0 * rise - 2.0 * d_lo - d_hi
        c3 = d_lo + d_hi - 2.0 * rise
        gap = us - f_lo
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t = gap / rise  # the linear start
            t -= (t * (d_lo + t * (c2 + t * c3)) - gap) / (d_lo + t * (2.0 * c2 + 3.0 * t * c3))
            drawn = self.s[i - 1] + t * h
        keep = safe[i] & (t >= 0.0) & (t <= 1.0)
        n_exact = len(us) - int(np.count_nonzero(keep))
        if n_exact:
            exact = ~keep
            drawn[exact] = dist.ppf(us[exact])
        out = np.empty_like(drawn)
        out[by_u] = drawn
        return out, n_exact


def _hermite_safe_cells(params: tuple, s: np.ndarray, F: np.ndarray,
                        f: np.ndarray) -> np.ndarray:
    """safe[i]: a draw in the cell between nodes i-1 and i may keep its Hermite step.

    A cell is safe when its CDF node values lie strictly inside (0, 1), so
    it is not an outermost cell; its density is positive and finite at both
    nodes, which also excludes the singular ends when a < 1 or b < 1; and
    its estimated error, in score units, is at most _NEWTON_TOL * scale.
    With h the cell width and f0 the smaller node density, the estimate sums
    the Hermite remainder h^4/384 max|f'''| / f0; the Newton term, a linear
    start at most h^2 max|f'| / (8 f0) from the root, squared, times
    max|f'| / (2 f0); and the CDF rounding term _CDF_REL_ERR / f0.  The
    maxima are taken over the two nodes, with the derivatives in closed form
    from psi = f'/f = ((a-1)/x - (b-1)/(1-x)) / scale: f'''/f is
    psi'' + 3 psi psi' + psi^3.
    """
    a, b, scale = params
    safe = np.zeros(len(s), dtype=bool)
    # nodes first..last hold 0 < F < 1; only the cells between them can be safe
    first = int(np.searchsorted(F, 0.0, side="right"))
    last = int(np.searchsorted(F, 1.0, side="left")) - 1
    if last <= first:
        return safe
    f = f[first:last + 1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv_x = scale / s[first:last + 1]
        inv_1mx = 1.0 / (1.0 - s[first:last + 1] / scale)
        p, q = (a - 1.0) * inv_x, (b - 1.0) * inv_1mx
        psi = p - q  # psi and its derivatives in x = s / scale; h4 holds the scale
        dpsi = -(p * inv_x + q * inv_1mx)
        d2psi = 2.0 * (p * inv_x * inv_x - q * inv_1mx * inv_1mx)
        d1 = np.abs(psi) * f
        d3 = np.abs(d2psi + psi * (3.0 * dpsi + psi * psi)) * f
        f0 = np.minimum(f[:-1], f[1:])
        m1 = np.maximum(d1[:-1], d1[1:]) / f0
        m3 = np.maximum(d3[:-1], d3[1:]) / f0
        h4 = (s[1] / scale) ** 4 * scale  # h^4 / scale^3
        err = h4 * (m3 / 384.0 + m1 ** 3 / 128.0) + _CDF_REL_ERR / f0
    # a zero or infinite node density leaves err infinite or NaN: never safe
    safe[first + 1:last + 1] = err <= _NEWTON_TOL * scale
    return safe


def _case_grid(dists: list[ScoreDistribution] | CaseGrid) -> CaseGrid:
    return dists if isinstance(dists, CaseGrid) else CaseGrid(dists)


def rank_table(F: np.ndarray, candidate: int) -> np.ndarray:
    """P(candidate holds rank k | score s) in row k-1, from the CDF rows F at s.

    Poisson-binomial recursion (Hong 2013): rivals are folded in one at a
    time, and after j of them row k holds the chance that exactly k of those
    j beat s, P_k <- P_k F_j + P_{k-1} (1 - F_j).
    """
    out = np.zeros(F.shape)
    out[0] = 1.0
    seen = 0
    for j, Fj in enumerate(F):
        if j == candidate:
            continue
        seen += 1
        beats = 1.0 - Fj
        for k in range(seen, 0, -1):  # top down: row k-1 still holds its old value
            out[k] *= Fj
            out[k] += out[k - 1] * beats
        out[0] *= Fj
    return out


def _validate(dists, candidate: int, rank: int) -> None:
    m = len(dists)
    if m == 0:
        raise ValueError("need at least one distribution")
    if not 0 <= candidate < m:
        raise ValueError(f"candidate index {candidate} outside 0..{m - 1}")
    if not 1 <= rank <= m:
        raise ValueError(f"rank {rank} outside 1..{m}")


def rank_prob_given_score(dists: list[ScoreDistribution], candidate: int,
                          rank: int, s) -> np.ndarray | float:
    """P(candidate attains ``rank`` | its score equals s), s scalar or array."""
    _validate(dists, candidate, rank)
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    F = np.vstack([d.cdf(s_arr) for d in dists])
    out = rank_table(F, candidate)[rank - 1]
    return float(out[0]) if np.isscalar(s) or np.asarray(s).ndim == 0 else out


@dataclass(frozen=True)
class RankProfile:
    """Quadrature results for one candidate: per-rank mass and conditional mean."""

    candidate: int
    marginals: np.ndarray      # P(rank = k), index k-1
    conditional_means: np.ndarray  # E[score | rank = k], NaN where unreachable


def conditional_mean_profile(dists: list[ScoreDistribution] | CaseGrid,
                             candidate: int, table: np.ndarray | None = None) -> RankProfile:
    """P(rank = k) and E[score | rank = k] for every rank k, by Simpson quadrature.

    ``table`` is the candidate's ``rank_table`` on the case grid, when the
    caller already holds it.
    """
    _validate(dists, candidate, 1)
    grid = _case_grid(dists)
    s, w, density = grid.s, grid.w, grid.pdf[candidate]
    if table is None:
        table = rank_table(grid.cdf, candidate)
    marginals = np.empty(len(table))
    means = np.full(len(table), np.nan)
    for k, pk in enumerate(table):
        mass = float(np.sum(w * density * pk))
        marginals[k] = mass
        if mass >= MASS_FLOOR:
            means[k] = float(np.sum(w * s * density * pk)) / mass
    return RankProfile(candidate=candidate, marginals=marginals, conditional_means=means)


def conditional_density_profile(dists: list[ScoreDistribution] | CaseGrid, candidate: int,
                                table: np.ndarray | None = None
                                ) -> tuple[np.ndarray, np.ndarray]:
    """Conditional score densities given each rank, on the Simpson grid.

    Returns (grid, matrix) where row k-1 is the density of the candidate's
    score conditional on attaining rank k; rows for ranks with negligible
    mass are NaN.  A given ``table`` (the candidate's ``rank_table``) is
    normalized in place and returned as the matrix.
    """
    _validate(dists, candidate, 1)
    grid = _case_grid(dists)
    w, density = grid.w, grid.pdf[candidate]
    out = rank_table(grid.cdf, candidate) if table is None else table
    for k, pk in enumerate(out):
        mass = float(np.sum(w * density * pk))
        if mass >= MASS_FLOOR:
            out[k] = density * pk / mass
        else:
            out[k] = np.nan
    return grid.s, out


@dataclass(frozen=True)
class SplitVerdict:
    """Outcome of the single-crossing test between two density grids."""

    splittable: bool
    split_index: int | None
    tolerance: float


def check_splittable(f, g, tolerance: float = 0.0) -> SplitVerdict:
    """Test whether f crosses g exactly once, from below to above.

    Returns the smallest index v with f <= g + tol strictly below v and
    f >= g - tol at and above v, or a negative verdict if no such v exists.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != g.shape or f.ndim != 1:
        raise GridMismatch(f"grids differ in shape: {f.shape} vs {g.shape}")
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    below_ok = f <= g + tolerance   # admissible as a pre-split bin
    above_ok = f >= g - tolerance   # admissible as a post-split bin
    # prefix_ok[v]: every bin strictly below v is admissible pre-split
    prefix_ok = np.concatenate(([True], np.logical_and.accumulate(below_ok)[:-1]))
    suffix_ok = np.logical_and.accumulate(above_ok[::-1])[::-1]
    valid = prefix_ok & suffix_ok
    if not valid.any():
        return SplitVerdict(False, None, tolerance)
    return SplitVerdict(True, int(np.argmax(valid)), tolerance)


def split_histogram_densities(edges_f, counts_f, edges_g, counts_g) -> SplitVerdict:
    """Splittability of two histograms sharing bin edges, at 3x the pooled
    per-bin sampling standard error of the density estimates."""
    edges_f = np.asarray(edges_f, dtype=float)
    edges_g = np.asarray(edges_g, dtype=float)
    if edges_f.shape != edges_g.shape or not np.allclose(edges_f, edges_g, atol=0, rtol=0):
        raise GridMismatch("histograms do not share bin edges")
    counts_f = np.asarray(counts_f, dtype=float)
    counts_g = np.asarray(counts_g, dtype=float)
    widths = np.diff(edges_f)
    n_f, n_g = counts_f.sum(), counts_g.sum()
    dens_f = counts_f / (n_f * widths)
    dens_g = counts_g / (n_g * widths)
    var_f = dens_f / (n_f * widths)
    var_g = dens_g / (n_g * widths)
    tolerance = 3.0 * float(np.sqrt(np.mean(var_f + var_g)))
    return check_splittable(dens_f, dens_g, tolerance)


@dataclass(frozen=True)
class RankDecomposition:
    """Top-two-rank contrast split into two monotone parts of equal weight.

    P(rank 1 | s) - alpha * P(rank 2 | s) with alpha = P(rank 1)/P(rank 2)
    equals plus_part(s) - minus_part(s) where both parts are non-decreasing
    in s and integrate to the same value against the candidate's density.
    ``residual`` is that integral difference (ideally zero) and the
    monotonicity flags report grid-level checks of the two parts.
    """

    residual: float
    plus_monotone: bool
    minus_monotone: bool


def top_rank_decomposition(dists: list[ScoreDistribution] | CaseGrid, candidate: int,
                           monotone_slack: float = 1e-12,
                           table: np.ndarray | None = None) -> RankDecomposition:
    """Build the two monotone parts and verify their zero-integral property.

    With P1, P2 the rank-1 and rank-2 rows of the rank table and m ads, the
    rivals' all-below product is P1 and its leave-one-out sum is
    sum_l prod_{j != l} F_j = P2 + (m - 1) P1, so plus_part is
    (1 + alpha (m - 1)) P1 and minus_part is alpha (P2 + (m - 1) P1).
    ``table`` is the candidate's ``rank_table``, when the caller holds it.
    """
    _validate(dists, candidate, 2 if len(dists) >= 2 else 1)
    if len(dists) < 2:
        raise RankUnreachable("rank 2 does not exist with a single ad")
    grid = _case_grid(dists)
    w, density = grid.w, grid.pdf[candidate]
    p1, p2 = (rank_table(grid.cdf, candidate) if table is None else table)[:2]
    mass1 = float(np.sum(w * density * p1))
    mass2 = float(np.sum(w * density * p2))
    if mass2 < MASS_FLOOR:
        raise RankUnreachable(f"rank 2 mass {mass2:.3e} too small for the contrast")
    alpha = mass1 / mass2
    rivals = len(grid) - 1
    plus_part = p1 + alpha * (rivals * p1)
    minus_part = alpha * (p2 + rivals * p1)
    residual = float(np.sum(w * density * (plus_part - minus_part)))
    plus_monotone = bool(np.all(np.diff(plus_part) >= -monotone_slack))
    minus_monotone = bool(np.all(np.diff(minus_part) >= -monotone_slack))
    return RankDecomposition(residual=residual,
                             plus_monotone=plus_monotone,
                             minus_monotone=minus_monotone)
