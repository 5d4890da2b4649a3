"""Closed-form oracle for rank probabilities under independent ranking scores.

When the m scores are drawn independently, the number of rivals that beat
candidate i at score s is a Poisson-binomial count with success chances
1 - F_j(s), F_j the rival score CDFs.  A candidate's rank table gives the
whole distribution P(rank = k | s), k = 1..m, by folding in one rival at a
time, P_k <- P_k F_j + P_{k-1} (1 - F_j) (Hong 2013, CSDA 59:41-51),
instead of summing over the C(m-1, k-1) sets of rivals that beat s.
Conditional score moments follow by fixed composite-Simpson quadrature
against the candidate's own density.

A ``CaseGrid`` holds the Simpson nodes and weights and, in ``rows``, the
CDF and PDF rows of each distinct beta distribution in the case, keyed by
the distribution.  A uniform has no rows: its CDF and density are
evaluated a leaf at a time where the fold and the checks read them, with
the bits of a whole-row evaluation.  The Monte Carlo draws go through a
``CaseSampler``, which holds the draw tables, keyed the same way, and
lives only while the draws run: ``CaseSampler.draw`` brackets a beta
uniform in the ad's CDF row through a guide table of the row (Chen & Asau
1974), with no sort of the uniforms, and takes one Newton step on the
cubic Hermite interpolant of that cell's CDF and PDF node values (Hörmann
& Leydold 2003, ACM TOMACS 13(4)), so a draw evaluates no special
function.  Which cells may keep that step is decided once per beta
distribution, when the sampler is built; the rest take the exact inverse,
``_beta_ppf``.  A draw call takes a contiguous row of one ad's uniforms,
gathers each node value it needs once, with intp indices, and works the
step in a few reused rows.  The grid rows themselves come from
``betainc`` and ``_beta_pdf``, called only at the nodes inside the
distribution's support; past it a row holds the 1 and 0 the kernels
return there.

One candidate's rank table costs O(m^2 * grid) operations, and no table
is ever held whole: a ``RankWalk`` folds a case's candidates' tables one
leaf of numpy's own pairwise split (``_pairwise_sum``) at a time, at most
NODE_SLICE + 1 nodes, reading each rival's CDF slice of the leaf once for
every candidate and skipping the runs where a rival's CDF is exactly 0 or
exactly 1.  The checks walk a case twice: walk 1 sums each candidate's
rank masses and moments (``conditional_mean_profile``); walk 2, which needs
the masses, feeds each leaf's table to the decomposition
(``top_rank_decomposition``), then normalizes it in place to the
conditional densities (``conditional_density_profile``), which
``check_splittable`` scans a pair of ranks at a time.  The fold, the
normalization and the scan are elementwise, so any cut gives their bits,
and the scan carries its state from leaf to leaf in a ``SplitScan``.
numpy's order matters only where sums are made, and summed a leaf at a
time along ``_pairwise_sum`` they are the whole-row ``np.sum`` bit for
bit, so every check result is what whole rows give.  While its checks run,
a case holds its beta rows and O(m * NODE_SLICE) floats, so there is no
cap on m.

The grid rows and the safe-cell flags are filled a node slice at a time,
one task per slice, through a ``map`` callable: the builtin ``map`` runs
the slices in turn, and an ``engine.worker_map``'s runs each call's slices
on its threads, the calling thread among them.  Each slice writes its own
part of a preallocated array, so a thread's temporaries are slice-sized
whatever the grid size, and the kernels are elementwise, so the bytes do
not depend on the slicing or on the threads.  Only beta distributions have
rows and flags, so a uniform-only case hands the ``map`` no task.  The rank
tables are folded a leaf at a time too, but always in the calling thread:
a fold is many small in-place row operations, and on more threads each
one's hand-off between them costs more than the arithmetic it shares.

The check functions take the case's ``CaseGrid`` first.  The density
profile and the decomposition take a candidate's rank table on a leaf, or
on the whole grid, and the rank masses its mean profile summed, so each
mass is summed once.

Quadrature accuracy is ~1e-12 relative for smooth integrands.  A uniform
candidate's density jumps at its low and high cost nothing, wherever they
fall: ``CaseGrid.quadrature`` gives it weights that integrate over [low,
high] exactly.  What remains at a uniform candidate are its rivals' CDF
kinks, where Simpson's rule is off by at most h^2 / 6 times the slope jump
of the integrand, h the grid step: on an 8-uniform field with supports in
[0, 0.12] the worst conditional mean is 6e-12 relative, and the worst rank
mass 4e-11, off the exact integrals.  A beta candidate keeps the grid's
Simpson weights, so a density that does not vanish at a scale inside the
grid (b = 1) still costs O(1/intervals) there.  A beta with a < 1 or b < 1
has an infinite density at an end of its support and is out of scope of
these claims; configs reject it.
"""

from __future__ import annotations

import importlib
import importlib.util
import math
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch, RankUnreachable
from .rng import fixed_blocks

SIMPSON_INTERVALS = 2 ** 17
MASS_FLOOR = 1e-12
DECOMPOSITION_TOL = 1e-6  # the largest |residual| a passing decomposition may have
# A grid cell keeps its Hermite-Newton draws only when their estimated error,
# in units of the ad's scale, is at most _NEWTON_TOL (``_hermite_safe_cells``);
# _CDF_REL_ERR bounds the error of the CDF row values that the estimate allows for.
_NEWTON_TOL = 1e-9
_CDF_REL_ERR = 1e-14
NODE_SLICE = 1 << 14  # grid nodes per task when rows are filled; a leaf holds one more at most
# antiderivatives of the quadratics through a Simpson panel's nodes t = 0, 1, 2
_LAGRANGE_INTEGRALS = (lambda t: t ** 3 / 6.0 - 0.75 * t * t + t,
                       lambda t: t * t - t ** 3 / 3.0,
                       lambda t: t ** 3 / 6.0 - 0.25 * t * t)

_KERNELS = "scipy.special._ufuncs"
_kernel_lock = threading.Lock()


def special_kernels():
    """scipy's compiled special-function kernels, ``scipy.special._ufuncs``.

    When nothing has imported ``scipy.special`` yet, the extension is loaded
    under an unexecuted placeholder of the package, which is removed again,
    so the package ``__init__`` (about 0.3 s and 13 MB, most of it cloning
    numpy for scipy's array-API layer) does not run; a later ``import
    scipy.special`` runs it and reuses the loaded extension.  A scipy whose
    ``_ufuncs`` needs its package ``__init__`` gets the ordinary import.
    Either way the kernels are the same module object, so results do not
    depend on the path taken.
    """
    with _kernel_lock:
        if _KERNELS not in sys.modules and "scipy.special" not in sys.modules:
            spec = importlib.util.find_spec("scipy.special")
            sys.modules["scipy.special"] = importlib.util.module_from_spec(spec)
            try:
                importlib.import_module(_KERNELS)
            except ImportError:
                pass  # the ordinary import below
            finally:
                del sys.modules["scipy.special"]
    # import_module, not sys.modules: it waits for a module that another
    # thread is still initializing
    return importlib.import_module(_KERNELS)


@dataclass(frozen=True)
class ScoreDistribution:
    """A non-negative score distribution, as a value, with PDF, CDF and
    inverse-CDF access.

    Two kinds are supported: ``uniform`` on [low, high] with low >= 0,
    params (low, high), and ``scaled-beta``, a beta distribution stretched
    to [0, scale], params (a, b, scale).  Equal kinds and params are equal,
    hashable values, so ads with the same distribution share work however
    they were built; building one checks its kind, param count and ranges
    (ValueError).  The beta methods call the kernels scipy.stats.beta
    dispatches to, bit for bit, loaded on first use so that loading a
    config does not import scipy.
    """

    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        if len(self.params) != {"uniform": 2, "scaled-beta": 3}.get(self.kind):
            raise ValueError("a distribution is uniform (low, high) or scaled-beta "
                             f"(a, b, scale), got {self.kind!r} with {len(self.params)} params")
        if self.kind == "uniform" and not 0.0 <= self.params[0] < self.params[1] < math.inf:
            raise ValueError("uniform support must satisfy 0 <= low < high < inf, "
                             "got [{}, {}]".format(*self.params))
        if self.kind == "scaled-beta" and not all(0.0 < x < math.inf for x in self.params):
            raise ValueError("scaled_beta needs finite positive parameters, "
                             "got ({}, {}, {})".format(*self.params))

    @classmethod
    def uniform(cls, low: float, high: float) -> "ScoreDistribution":
        return cls("uniform", (low, high))

    @classmethod
    def scaled_beta(cls, a: float, b: float, scale: float = 1.0) -> "ScoreDistribution":
        return cls("scaled-beta", (a, b, scale))

    @property
    def upper(self) -> float:
        """The top of the support: a uniform's high, a beta's scale."""
        return self.params[-1]

    def pdf(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "uniform":
            low, high = self.params
            return np.where((s >= low) & (s <= high), 1.0 / (high - low), 0.0)
        a, b, scale = self.params
        x = s / scale
        with np.errstate(over="ignore"):  # a < 1 or b < 1: infinite at an end
            inside = special_kernels()._beta_pdf(np.clip(x, 0.0, 1.0), a, b)
        return np.where((x >= 0.0) & (x <= 1.0), inside, 0.0) / scale

    def cdf(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "uniform":
            low, high = self.params
            return np.clip((s - low) / (high - low), 0.0, 1.0)
        a, b, scale = self.params
        return special_kernels().betainc(a, b, np.clip(s / scale, 0.0, 1.0))

    def ppf(self, u):
        """Inverse CDF; maps uniforms on [0, 1) to score draws."""
        u = np.asarray(u, dtype=float)
        if self.kind == "uniform":
            low, high = self.params
            return low + u * (high - low)
        a, b, scale = self.params
        return special_kernels()._beta_ppf(u, a, b) * scale


class CaseGrid:
    """The Simpson grid of one case, with each beta distribution's CDF and PDF rows on it.

    ``rows`` maps each distinct beta distribution of the case to its (CDF,
    PDF) rows, evaluated once, when the grid is built, at the nodes up to
    its ``upper`` (the case's grid may run past a beta's scale; there the
    rows hold CDF 1 and PDF 0, the kernels' own values).  Distributions are
    values, so ads with equal distributions read one pair of rows.  A
    uniform has no entry: ``RankWalk`` evaluates its CDF, and ``density``
    its PDF, on the nodes a caller reads, a leaf at a time.  The oracle
    functions and the Monte Carlo sampler (``CaseSampler``) read the case
    through it.  ``len(grid)`` is the ad count m, and ``map`` runs the node
    slices of the rows.
    """

    def __init__(self, dists: list[ScoreDistribution], map=map):
        self.dists = dists
        upper = max(d.upper for d in dists)
        self.s = np.linspace(0.0, upper, SIMPSON_INTERVALS + 1)
        w = np.ones_like(self.s)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        self.w = w * ((upper / SIMPSON_INTERVALS) / 3.0)
        # in order of first appearance
        self.rows = {d: (np.empty(len(self.s)), np.empty(len(self.s)))
                     for d in dict.fromkeys(dists) if d.kind == "scaled-beta"}

        def fill(task: tuple[ScoreDistribution, int, int]) -> None:
            d, lo, hi = task  # nodes lo..hi-1 of d's rows
            cdf, pdf = self.rows[d]
            # past the support the kernels return CDF 1 and PDF 0, so they are
            # called up to it: s <= upper exactly where s / upper <= 1, their own
            # test, since no double above upper divides by it to 1
            cut = lo + int(np.searchsorted(self.s[lo:hi], d.upper, side="right"))
            cdf[cut:hi] = 1.0
            pdf[cut:hi] = 0.0
            if cut > lo:  # a slice wholly past the support calls no kernel
                cdf[lo:cut] = d.cdf(self.s[lo:cut])
                pdf[lo:cut] = d.pdf(self.s[lo:cut])

        list(map(fill, [(d, lo, hi) for d in self.rows
                        for lo, hi in fixed_blocks(0, len(self.s), NODE_SLICE)]))

    def __len__(self) -> int:
        return len(self.dists)

    def density(self, j: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Ad j's PDF at nodes lo..hi-1: a view of a beta's stored row, a
        uniform's evaluated here on those nodes, with the bits of the whole
        row, since the uniform PDF is elementwise."""
        d = self.dists[j]
        return self.rows[d][1][lo:hi] if d in self.rows else d.pdf(self.s[lo:hi])

    def quadrature(self, j: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray | float]:
        """Weights and density at nodes lo..hi-1 whose products integrate
        against ad j's density.

        A beta's are the grid's Simpson weights and its PDF row.  A uniform's
        density is its constant 1 / (high - low), and its weights integrate
        over [low, high] only: Simpson's on the panels inside it and, on the
        one or two panels that it cuts, the integrals of the panel's three
        Lagrange quadratics over the part inside, so the density's jumps cost
        no accuracy wherever they fall.
        """
        d = self.dists[j]
        if d.kind != "uniform":
            return self.w[lo:hi], self.density(j, lo, hi)
        low, high = d.params
        s, h = self.s, self.s[1]
        # nodes first..last, both even, bound the panels inside [low, high]
        first = int(np.searchsorted(s, low, side="left"))
        first += first % 2
        last = int(np.searchsorted(s, high, side="right")) - 1
        last -= last % 2
        w = np.zeros(hi - lo)
        if first < last:
            a, b = max(first, lo), min(last + 1, hi)
            w[a - lo:max(a, b) - lo] = self.w[a:b]  # empty where the leaf misses them
            for end in (first, last):  # each end node has one panel's h / 3
                if lo <= end < hi:
                    w[end - lo] = self.w[0]
        if first > last:  # [low, high] lies inside the one panel from node last
            cut = [(last, (low - s[last]) / h, (high - s[last]) / h)]
        else:  # cut panels from nodes first - 2 and last, in units of h
            cut = [(first - 2, (low - s[first - 2]) / h, 2.0)] if low < s[first] else []
            cut += [(last, 0.0, (high - s[last]) / h)] if high > s[last] else []
        for p, t0, t1 in cut:
            for q, integral in enumerate(_LAGRANGE_INTEGRALS):
                if lo <= p + q < hi:
                    w[p + q - lo] += h * (integral(t1) - integral(t0))
        return w, 1.0 / (high - low)

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays the grid holds: nodes, weights and rows."""
        return self.s.nbytes + self.w.nbytes + sum(F.nbytes + f.nbytes
                                                   for F, f in self.rows.values())


class CaseSampler:
    """A case grid's Monte Carlo draw path: ``tables`` maps each beta
    distribution of the grid's ``rows`` to its (safe-cell flags, guide
    table), one flag per grid cell and a guide table of its CDF row.

    The safe-cell flags are built a node slice at a time through ``map`` and
    each guide table in one serial pass; they live as long as the sampler,
    which ``sample_rank_stats`` holds only while it draws.
    """

    def __init__(self, grid: CaseGrid, map=map):
        self.grid = grid
        self.tables = {d: (_hermite_safe_cells(d.params, grid.s, F, f, map), _guide_table(F))
                       for d, (F, f) in grid.rows.items()}

    @property
    def nbytes(self) -> int:
        """Bytes of the tables the sampler holds."""
        return sum(safe.nbytes + guide.nbytes for safe, guide in self.tables.values())

    def draw(self, j: int, u: np.ndarray) -> tuple[np.ndarray, int]:
        """Ad j's scores at uniforms u in [0, 1), and how many took the exact inverse.

        Uniform ads invert in closed form.  A beta ad brackets u between two
        nodes of its CDF row, F[i-1] <= u < F[i], through the row's guide
        table (``_bracket``), starts from the linear interpolant and takes
        one Newton step on the cubic Hermite interpolant of the cell, built
        from the node values of the CDF and PDF rows:
        H(t) = F0 + t (f0 h + t (c2 + t c3)) for t in [0, 1].  A draw takes
        the exact inverse instead when its cell is not marked safe (see
        ``_hermite_safe_cells``) or its step leaves the cell.  Each node
        value is gathered once, and the step is worked in place in six rows,
        each holding several quantities in turn.  Every operation groups its
        operands as the commented formula does, and floating-point addition
        and multiplication commute exactly, so the bits are the formula's;
        on a contiguous u each operation is one sequential pass.
        """
        grid, dist = self.grid, self.grid.dists[j]
        if dist not in self.tables:
            return dist.ppf(u), 0
        (F, f), (safe, guide), h = grid.rows[dist], self.tables[dist], grid.s[1]
        i = _bracket(F, guide, u)  # the cell between nodes i-1 and i
        # "clip" clips nothing, every index being a node; with it, take
        # writes straight into its out row
        rise, d_lo, d_hi, gap, c2, work = (np.empty(len(u)) for _ in range(6))
        keep = safe.take(i, mode="clip")
        F.take(i, out=rise, mode="clip")
        f.take(i, out=d_hi, mode="clip")
        i -= 1
        F.take(i, out=gap, mode="clip")
        f.take(i, out=d_lo, mode="clip")
        rise -= gap  # F[i] - F[i-1]
        np.subtract(u, gap, out=gap)  # u - F[i-1]
        d_lo *= h
        d_hi *= h
        np.multiply(3.0, rise, out=c2)
        c2 -= np.multiply(2.0, d_lo, out=work)
        c2 -= d_hi  # 3 rise - 2 d_lo - d_hi
        c3 = d_hi
        c3 += d_lo
        c3 -= np.multiply(2.0, rise, out=work)  # d_lo + d_hi - 2 rise
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t = np.divide(gap, rise, out=rise)  # the linear start
            step = np.multiply(t, c3, out=work)
            step += c2
            step *= t
            step += d_lo
            step *= t
            step -= gap  # t (d_lo + t (c2 + t c3)) - gap
            slope = np.multiply(3.0, t, out=gap)
            slope *= c3
            slope += np.multiply(2.0, c2, out=c2)
            slope *= t
            slope += d_lo  # d_lo + t (2 c2 + 3 t c3)
            step /= slope
            t -= step
            drawn = grid.s.take(i, out=c2, mode="clip")
            drawn += np.multiply(t, h, out=work)  # s[i-1] + t h
        keep &= t >= 0.0
        keep &= t <= 1.0
        n_exact = len(u) - int(np.count_nonzero(keep))
        if n_exact:
            exact = ~keep
            drawn[exact] = dist.ppf(u[exact])
        return drawn, n_exact


def _guide_table(F: np.ndarray) -> np.ndarray:
    """guide[b]: how many entries of the CDF row F are <= b / K, b = 0..K-1.

    K is SIMPSON_INTERVALS, a power of 2, so F * K and u * K are exact and
    F <= b / K holds exactly when ceil(F * K) <= b.
    """
    K = SIMPSON_INTERVALS
    keys = np.ceil(F * K).astype(np.intp)
    return np.cumsum(np.bincount(keys, minlength=K + 1)[:K], dtype=np.int32)


def _bracket(F: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(F, u, side="right")`` for u in [0, 1), exactly.

    F is a non-decreasing CDF row whose last entry exceeds every u, and
    guide its ``_guide_table``.  u's bucket floor(u * K) gives a start at
    most the answer (the entries <= floor(u * K) / K <= u); one step
    forward settles almost every draw (over 99% on the packaged betas), and
    the draws still short, where more than one node of F shares u's bucket,
    take ``np.searchsorted``.  The indices are intp, which numpy gathers
    without converting them, and every gather writes into one reused row.
    """
    node = np.multiply(u, SIMPSON_INTERVALS)
    i = node.astype(np.intp)
    i[:] = guide.take(i, mode="clip")  # "clip" clips nothing: every index is in range
    ahead = np.less_equal(F.take(i, out=node, mode="clip"), u)
    i += ahead
    short = np.flatnonzero(np.less_equal(F.take(i, out=node, mode="clip"), u, out=ahead))
    if len(short):
        i[short] = np.searchsorted(F, u[short], side="right")
    return i


def _hermite_safe_cells(params: tuple, s: np.ndarray, F: np.ndarray,
                        f: np.ndarray, map=map) -> np.ndarray:
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
    psi'' + 3 psi psi' + psi^3.  The cells are flagged a node slice at a
    time through ``map``, each slice reading one node before its first cell.
    """
    a, b, scale = params
    safe = np.zeros(len(s), dtype=bool)
    # nodes first..last hold 0 < F < 1; only the cells between them can be safe
    first = int(np.searchsorted(F, 0.0, side="right"))
    last = int(np.searchsorted(F, 1.0, side="left")) - 1
    h4 = (s[1] / scale) ** 4 * scale  # h^4 / scale^3

    def flag(cells: tuple[int, int]) -> None:  # cells lo..hi-1, from nodes lo-1..hi-1
        lo, hi = cells
        x, fx = s[lo - 1:hi], f[lo - 1:hi]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            inv_x = scale / x
            inv_1mx = 1.0 / (1.0 - x / scale)
            p, q = (a - 1.0) * inv_x, (b - 1.0) * inv_1mx
            psi = p - q  # psi and its derivatives in x = s / scale; h4 holds the scale
            dpsi = -(p * inv_x + q * inv_1mx)
            d2psi = 2.0 * (p * inv_x * inv_x - q * inv_1mx * inv_1mx)
            d1 = np.abs(psi) * fx
            d3 = np.abs(d2psi + psi * (3.0 * dpsi + psi * psi)) * fx
            f0 = np.minimum(fx[:-1], fx[1:])
            m1 = np.maximum(d1[:-1], d1[1:]) / f0
            m3 = np.maximum(d3[:-1], d3[1:]) / f0
            err = h4 * (m3 / 384.0 + m1 ** 3 / 128.0) + _CDF_REL_ERR / f0
        # a zero or infinite node density leaves err infinite or NaN: never safe
        safe[lo:hi] = err <= _NEWTON_TOL * scale

    list(map(flag, fixed_blocks(first + 1, last + 1, NODE_SLICE)))
    return safe


def _pairwise_sum(leaf, lo: int, hi: int):
    """The sum over nodes lo..hi-1 as numpy's pairwise ``np.sum`` adds it.

    numpy splits a run of n terms at n // 2 rounded down to a multiple of 8,
    and adds the left half's sum to the right half's.  This splits the same
    way down to runs of at most NODE_SLICE + 1 nodes, the leaves, calls
    ``leaf(lo, hi)`` on each in node order and adds the results as numpy
    adds its halves, left first.  numpy splits every run longer than 128
    terms, and a leaf is longer than that, so the runs above the leaves
    split as in the whole row's ``np.sum``, and a leaf whose result is its
    ``np.sum`` gives the whole row's ``np.sum`` bit for bit.  A result may
    be an array, added elementwise with the same rounding.  On the
    131,073-node grid the leaves are seven of 16,384 nodes and one of
    16,385.
    """
    n = hi - lo
    if n <= NODE_SLICE + 1:
        return leaf(lo, hi)
    half = n // 2 - (n // 2) % 8
    left = _pairwise_sum(leaf, lo, lo + half)
    return left + _pairwise_sum(leaf, lo + half, hi)


class RankWalk:
    """The rank tables of a case's candidates, one ``_pairwise_sum`` leaf at a time.

    Row k-1 of a candidate's table holds P(candidate holds rank k | score s).
    It is the Poisson-binomial recursion (Hong 2013): the rivals are folded
    in one at a time, in ad order, and after j of them row k holds the
    chance that exactly k of those j beat s, P_k <- P_k F_j + P_{k-1}
    (1 - F_j).  Where F_j is exactly 0 that leaves each row the one below
    it, P_k <- P_{k-1} and P_0 <- 0, and where it is exactly 1 it leaves
    every row as it is: every table entry is a finite non-negative double,
    so those are the bits the multiply-adds give there.  So each fold
    shifts the rows over a rival's leading run of exact 0s, skips its
    trailing run of exact 1s and multiplies only in between.  For the same
    reason a fold touches only the rows that can be nonzero on the leaf:
    the rows above one per rival folded that is below 1 somewhere on the
    leaf, and below one per rival exactly 0 on the whole leaf, are exactly 0
    there, and a multiply-add of two zero rows is exactly 0.  A uniform's
    runs end at the nodes s <= low and s >= high, where its clipped CDF is
    exactly 0 and 1; a beta's are the leading exact 0s and trailing exact
    1s of its CDF row, found once per row, so nothing assumes a row is
    monotone.

    ``run(read)`` reads each rival distribution's CDF on a leaf once for
    every candidate: a uniform's is evaluated between its runs, a beta's is
    a view of its row.  It then folds each candidate's table on the leaf in
    turn, into one buffer that the next candidate overwrites, so no table
    exists whole and a walk holds O(m * NODE_SLICE) floats.
    """

    def __init__(self, grid: CaseGrid, candidates: list[int]):
        self.grid, self.candidates = grid, candidates
        self.table = np.empty((len(grid), NODE_SLICE + 1))
        self.beats, self.product = np.empty((2, NODE_SLICE + 1))  # 1 - F_j, and each product
        s = grid.s
        self.runs = {}  # rival distribution -> (first node past its 0s, first node of its 1s)
        self.cdfs = {}  # rival distribution -> (first leaf node past its 0s, CDF up to its 1s)
        for j, d in enumerate(grid.dists):
            if d in self.runs or set(candidates) == {j}:  # ad j is no candidate's rival
                continue
            if d.kind == "uniform":
                low, high = d.params
                self.runs[d] = (int(np.searchsorted(s, low, side="right")),
                                int(np.searchsorted(s, high, side="left")))
            else:
                F = grid.rows[d][0]
                zeros = _first_false(F == 0.0)
                self.runs[d] = zeros, max(zeros, len(F) - _first_false(F[::-1] == 1.0))

    def run(self, read):
        """``read(slot, lo, hi, table)`` for each leaf, in node order, and each
        candidate ``self.candidates[slot]`` in turn, with ``table`` the
        candidate's rank table on nodes lo..hi-1; ``read`` may change it.
        Returns, for each slot, the sum of its ``read`` results over the
        leaves, added in numpy's pairwise order (``_pairwise_sum``)."""

        def leaf(lo: int, hi: int) -> np.ndarray:
            for d, (zeros, ones) in self.runs.items():
                a, b = min(max(zeros, lo), hi), min(max(ones, lo), hi)
                if d.kind != "uniform":
                    F = self.grid.rows[d][0][a:b]
                else:
                    F = d.cdf(self.grid.s[a:b]) if a < b else np.empty(0)
                self.cdfs[d] = a - lo, F
            return np.array([read(slot, lo, hi, self._fold(i, hi - lo))
                             for slot, i in enumerate(self.candidates)])

        return _pairwise_sum(leaf, 0, len(self.grid.s))

    def _fold(self, candidate: int, n: int) -> np.ndarray:
        table = self.table[:, :n]
        table[0] = 1.0
        table[1:] = 0.0
        low = high = 0  # the rows below low and above high are exactly 0 on the whole leaf
        for j, d in enumerate(self.grid.dists):
            if j == candidate:
                continue
            start, F = self.cdfs[d]
            if not (start or len(F)):  # F_j = 1 on the whole leaf changes no row
                continue
            high += 1
            if start:  # F_j = 0: row k takes row k-1, top down, and row low is 0
                for k in range(high, low, -1):
                    table[k, :start] = table[k - 1, :start]
                table[low, :start] = 0.0
                low += start == n
            if len(F):  # past them F_j = 1, which leaves every row as it is
                part = table[:, start:start + len(F)]
                beats = np.subtract(1.0, F, out=self.beats[:len(F)])
                product = self.product[:len(F)]
                for k in range(high, low, -1):  # top down: row k-1 still holds its old value
                    part[k] *= F
                    part[k] += np.multiply(part[k - 1], beats, out=product)
                part[low] *= F  # row low - 1 is 0
        return table


@dataclass(frozen=True)
class RankProfile:
    """Quadrature results for one candidate: per-rank mass and conditional mean."""

    marginals: np.ndarray      # P(rank = k), index k-1
    conditional_means: np.ndarray  # E[score | rank = k], NaN where unreachable


def conditional_mean_profile(grid: CaseGrid, candidates: list[int]) -> list[RankProfile]:
    """Each candidate's P(rank = k) and E[score | rank = k] for every rank k,
    by Simpson quadrature against its density, summed over its rank table a
    leaf at a time (one ``RankWalk``)."""

    def sums(slot: int, lo: int, hi: int, table: np.ndarray) -> np.ndarray:
        # row 0 the masses, row 1 the moments
        w, density = grid.quadrature(candidates[slot], lo, hi)
        # numpy multiplies left to right, so w * density * pk is wd * pk bit for bit
        wd = w * density
        wsd = np.multiply(w, grid.s[lo:hi])
        wsd *= density
        product = np.empty_like(wd)  # each rank's integrand, in turn
        return np.array([[np.sum(np.multiply(weights, pk, out=product)) for pk in table]
                         for weights in (wd, wsd)])

    profiles = []
    for marginals, moments in RankWalk(grid, candidates).run(sums):
        means = np.full(len(grid), np.nan)
        reached = marginals >= MASS_FLOOR
        means[reached] = moments[reached] / marginals[reached]
        profiles.append(RankProfile(marginals=marginals, conditional_means=means))
    return profiles


def conditional_density_profile(grid: CaseGrid, candidate: int, table: np.ndarray,
                                marginals: np.ndarray, lo: int = 0) -> np.ndarray:
    """Conditional score densities given each rank, at the nodes from ``lo`` on.

    ``table`` is the candidate's rank table on nodes lo..lo+n-1, a leaf's or
    the whole grid's, and ``marginals`` its rank masses from
    ``conditional_mean_profile``.  The table is normalized in place and
    returned: row k-1 becomes the density of the candidate's score
    conditional on attaining rank k, and rows for ranks with negligible mass
    are NaN.  It is elementwise, so a leaf's rows are the whole rows' bits.
    """
    density = grid.density(candidate, lo, lo + table.shape[1])
    for pk, mass in zip(table, marginals):
        if mass >= MASS_FLOOR:
            np.multiply(density, pk, out=pk)
            pk /= mass
        else:
            pk[:] = np.nan
    return table


@dataclass(frozen=True)
class SplitVerdict:
    """Outcome of the single-crossing test between two density grids."""

    splittable: bool
    split_index: int | None


class SplitScan:
    """``check_splittable``'s state between the slices of f and g it reads:
    how many entries it has read, the split so far (one past the last entry
    inadmissible post-split, f below g) and the first entry inadmissible
    pre-split (f above g), None until one is read."""

    def __init__(self):
        self.length, self.split, self.below = 0, 0, None

    @property
    def verdict(self) -> SplitVerdict:
        """The verdict on every entry read so far: every entry below the split
        is admissible pre-split, and at least one entry lies at or above it."""
        below = self.length if self.below is None else self.below
        if self.split > min(below, self.length - 1):
            return SplitVerdict(False, None)
        return SplitVerdict(True, self.split)


def check_splittable(f, g, tolerance: float = 0.0, scan: SplitScan | None = None) -> SplitVerdict:
    """Test whether f crosses g exactly once, from below to above.

    Returns the smallest index v with f <= g + tol strictly below v and
    f >= g - tol at and above v, or a negative verdict if no such v exists.
    f and g are compared NODE_SLICE entries at a time.  Given a ``scan``,
    f and g continue the rows it has read, the verdict is on the joined
    rows, and the scan reads f and g too, so a walk can test rows a leaf at
    a time.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != g.shape or f.ndim != 1:
        raise GridMismatch(f"grids differ in shape: {f.shape} vs {g.shape}")
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    scan = SplitScan() if scan is None else scan
    for lo, hi in fixed_blocks(0, len(f), NODE_SLICE):
        bound = np.subtract(g[lo:hi], tolerance)
        trailing = _first_false((f[lo:hi] >= bound)[::-1])  # admissible post-split at its end
        if trailing < hi - lo:
            scan.split = scan.length + hi - trailing
        if scan.below is None:
            np.add(g[lo:hi], tolerance, out=bound)
            leading = _first_false(f[lo:hi] <= bound)  # admissible pre-split at its start
            if leading < hi - lo:
                scan.below = scan.length + lo + leading
    scan.length += len(f)
    return scan.verdict


def _first_false(ok: np.ndarray) -> int:
    """The index of ok's first False entry, or len(ok) when it has none."""
    first = int(np.argmin(ok)) if len(ok) else 0
    return first if first < len(ok) and not ok[first] else len(ok)


@dataclass(frozen=True)
class RankDecomposition:
    """Top-two-rank contrast split into two monotone parts of equal weight,
    and its verdict.

    P(rank 1 | s) - alpha * P(rank 2 | s) with alpha = P(rank 1)/P(rank 2)
    equals plus_part(s) - minus_part(s) where both parts are non-decreasing
    in s and integrate to the same value against the candidate's density.
    ``residual`` is that integral difference (ideally zero) and the
    monotonicity flags report grid-level checks of the two parts; ``passed``
    holds when |residual| <= DECOMPOSITION_TOL and both parts are monotone.
    """

    residual: float
    plus_monotone: bool
    minus_monotone: bool
    passed: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(abs(self.residual) <= DECOMPOSITION_TOL
                                                and self.plus_monotone and self.minus_monotone))


class DecompositionScan:
    """``top_rank_decomposition``'s state between the leaves of one
    candidate's rank table: alpha = P(rank 1) / P(rank 2), from the rank
    masses ``marginals``, whether each part has been non-decreasing so far,
    and the parts at the last node read.  A case whose contrast is not
    defined, one ad or a rank-2 mass below MASS_FLOOR, raises
    RankUnreachable."""

    def __init__(self, grid: CaseGrid, marginals: np.ndarray):
        if len(grid) < 2:
            raise RankUnreachable("single ad has no adjacent rank")
        mass1, mass2 = marginals[:2]
        if mass2 < MASS_FLOOR:
            raise RankUnreachable(f"rank 2 mass {mass2:.3e} too small for the contrast")
        self.alpha = mass1 / mass2
        self.rivals = len(grid) - 1
        self.monotone = [True, True]
        self.before = None

    def result(self, residual) -> RankDecomposition:
        """The decomposition of every leaf read, given the sum of their
        residual shares in ``_pairwise_sum`` order."""
        return RankDecomposition(float(residual), *self.monotone)


def top_rank_decomposition(grid: CaseGrid, candidate: int, table: np.ndarray,
                           scan: DecompositionScan, lo: int = 0):
    """Build the two monotone parts at the nodes from ``lo`` on, and return
    these nodes' share of their zero-integral residual.

    With P1, P2 the rank-1 and rank-2 rows of ``table``, the candidate's
    rank table on nodes lo..lo+n-1, a leaf's or the whole grid's, and m
    ads, the rivals' all-below product is P1 and its leave-one-out sum is
    sum_l prod_{j != l} F_j = P2 + (m - 1) P1, so plus_part is
    (1 + alpha (m - 1)) P1 and minus_part is alpha (P2 + (m - 1) P1).  The
    parts count as non-decreasing where no step falls by more than 1e-12,
    the round-off of the products; ``scan`` carries the verdicts and the
    last node's parts from leaf to leaf, so a leaf's first step is taken
    from the previous leaf's last node.  The steps and the residual's
    integrand share the two rows the parts are built in.  Summed in
    ``_pairwise_sum`` order, the leaves' shares are the whole rows' sum.
    """
    p1, p2 = table[:2]
    minus_part = np.multiply(scan.rivals, p1)
    plus_part = np.multiply(scan.alpha, minus_part)
    np.add(p1, plus_part, out=plus_part)  # p1 + alpha * (rivals * p1)
    np.add(p2, minus_part, out=minus_part)
    np.multiply(scan.alpha, minus_part, out=minus_part)  # alpha * (p2 + rivals * p1)
    for q, part in enumerate((plus_part, minus_part)):
        scan.monotone[q] = bool(scan.monotone[q] and np.all(part[1:] - part[:-1] >= -1e-12)
                                and (scan.before is None or part[0] - scan.before[q] >= -1e-12))
    scan.before = plus_part[-1], minus_part[-1]
    np.subtract(plus_part, minus_part, out=minus_part)
    weighted = np.multiply(*grid.quadrature(candidate, lo, lo + len(p1)), out=plus_part)
    return np.sum(np.multiply(weighted, minus_part, out=minus_part))
