import json
import os
import statistics
import subprocess
import sys
import tracemalloc
import warnings
from collections import defaultdict
from contextlib import contextmanager
from functools import partial
from importlib import resources
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import _ufuncs

import gspbias
from gspbias.config import load_config, parse_distribution
from gspbias import cli, oracle
from gspbias.engine import sample_rank_stats, worker_map
from gspbias.errors import GridMismatch, RankUnreachable
from gspbias.metrics import split_histogram_densities
from gspbias.rng import fixed_blocks
from gspbias.oracle import (
    _CDF_REL_ERR,
    _NEWTON_TOL,
    DECOMPOSITION_TOL,
    SIMPSON_INTERVALS,
    CaseGrid,
    CaseSampler,
    RankDecomposition,
    ScoreDistribution,
    SplitVerdict,
    _bracket,
    _guide_table,
    check_splittable,
    conditional_density_profile,
    conditional_mean_profile,
)
from reference import (
    cumulative,
    decomposition_by_leaves,
    hermite_draw,
    hermite_safe_cells_whole_rows,
    load_case,
    rank_probs,
    rank_table,
    rank_table_whole_rows,
    split_index_by_accumulation,
    uniform_field_profile,
    watch_draw_tables,
    whole_row_decomposition,
    whole_row_records,
)

U01 = ScoreDistribution.uniform(0.0, 1.0)

with resources.as_file(resources.files("gspbias") / "configs" / "theorems.cfg") as _path:
    PACKAGED_BETAS = sorted({spec for case in load_config(_path).payload.cases
                             for spec in case.dist_specs if spec.startswith("beta")})


def mean_profile(dists, candidate):
    """The candidate's conditional_mean_profile on a grid of its own."""
    return conditional_mean_profile(CaseGrid(dists), [candidate])[0]


def table_and_marginals(grid, candidate):
    """The candidate's whole rank table on the grid and its mean profile's rank masses."""
    return rank_table(grid, candidate), conditional_mean_profile(grid, [candidate])[0].marginals


def enumerated_rank_prob(F: np.ndarray, candidate: int, rank: int) -> np.ndarray:
    """Reference P(rank | s): sum over every set of rank-1 rivals that beat s."""
    rivals = [j for j in range(F.shape[0]) if j != candidate]
    out = np.zeros(F.shape[1])
    for beat_set in combinations(rivals, rank - 1):
        term = np.ones(F.shape[1])
        for j in rivals:
            term = term * ((1.0 - F[j]) if j in beat_set else F[j])
        out += term
    return out


uniforms = st.tuples(st.floats(0.0, 1.0), st.floats(0.01, 1.0)).map(
    lambda lw: ScoreDistribution.uniform(lw[0], lw[0] + lw[1]))
betas = st.tuples(st.floats(0.5, 8.0), st.floats(0.5, 60.0), st.floats(0.1, 2.0)).map(
    lambda abc: ScoreDistribution.scaled_beta(*abc))


class TestScoreDistribution:
    @pytest.mark.parametrize("dist", [
        U01,
        ScoreDistribution.uniform(0.2, 0.8),
        ScoreDistribution.scaled_beta(2, 38),
        ScoreDistribution.scaled_beta(3, 30, 1.4),
    ])
    def test_pdf_normalized_and_cdf_monotone(self, dist):
        s = np.linspace(0, dist.upper, 20001)
        # trapezoid integration carries O(h) error at pdf jump points, so
        # the normalization check is loose; the CDF endpoints are exact
        total = np.trapezoid(dist.pdf(s), s)
        assert total == pytest.approx(1.0, abs=1e-4)
        cdf = dist.cdf(s)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[0] == pytest.approx(0.0, abs=1e-9)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-9)
        assert np.all(dist.pdf(s) >= 0)

    # the packaged shapes, and three whose density is not 0 at an end of the
    # support, where only the support mask keeps the density 0 beyond it
    @pytest.mark.parametrize("spec", PACKAGED_BETAS + ["beta:0.8:3:1.3", "beta:2:0.7",
                                                       "beta:1:1:2"])
    def test_beta_matches_scipy_stats(self, spec):
        """Bit for bit what scipy.stats.beta gives, on and off the support."""
        a, b, *rest = (float(x) for x in spec.split(":")[1:])
        scale = rest[0] if rest else 1.0
        dist = parse_distribution(spec, "dists")
        s = np.concatenate([np.linspace(-0.1 * scale, 1.1 * scale, 131_073),
                            [0.0, scale, -scale, 2.0 * scale]])
        u = np.concatenate([[0.0, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53],
                            np.random.default_rng(3).random(50_000)])
        np.testing.assert_array_equal(dist.pdf(s), stats.beta.pdf(s / scale, a, b) / scale)
        np.testing.assert_array_equal(dist.cdf(s), stats.beta.cdf(s / scale, a, b))
        np.testing.assert_array_equal(dist.ppf(u), stats.beta.ppf(u, a, b) * scale)

    def test_ppf_inverts_cdf(self):
        dist = ScoreDistribution.scaled_beta(2, 38, 1.2)
        u = np.linspace(0.01, 0.99, 99)
        np.testing.assert_allclose(dist.cdf(dist.ppf(u)), u, atol=1e-9)

    def test_negative_support_rejected(self):
        with pytest.raises(ValueError):
            ScoreDistribution.uniform(-0.5, 1.0)

    @pytest.mark.parametrize("kind, params, message", [
        ("uniform", (0.8, 0.2), "uniform support must satisfy"),
        ("scaled-beta", (2.0, 0.0, 1.0), "scaled_beta needs finite positive parameters"),
        ("normal", (0.0, 1.0), "got 'normal' with 2 params"),
        ("uniform", (0.0, 1.0, 2.0), "got 'uniform' with 3 params"),
        ("scaled-beta", (2.0, 38.0), "got 'scaled-beta' with 2 params"),
    ])
    def test_direct_construction_is_checked(self, kind, params, message):
        """Built directly, not through ``uniform`` or ``scaled_beta``, a
        distribution still holds only a known kind with params in range."""
        with pytest.raises(ValueError, match=message):
            ScoreDistribution(kind, params)


# A scipy whose _ufuncs imports only under scipy.special's executed __init__:
# the first import of _ufuncs fails, as it would under the placeholder.
FALLBACK_PROBE = """
import json, sys
class NeedsPackageInit:
    refused = False
    @classmethod
    def find_spec(cls, name, path=None, target=None):
        if name == "scipy.special._ufuncs" and not cls.refused:
            cls.refused = True
            raise ImportError("scipy.special._ufuncs needs its package init")
        return None
sys.meta_path.insert(0, NeedsPackageInit)
from gspbias.oracle import special_kernels
kernels = special_kernels()
package = sys.modules.get("scipy.special")
print(json.dumps({"refused": NeedsPackageInit.refused,
                  "package_ran": hasattr(package, "betainc"),
                  "same": kernels is sys.modules["scipy.special._ufuncs"],
                  "cdf": float(kernels.betainc(2.0, 38.0, 0.1))}))
"""


class TestSpecialKernels:
    def test_ordinary_import_when_the_bare_one_fails(self):
        """The accessor still returns the kernels, and no placeholder package
        is left in sys.modules: scipy.special is the executed package."""
        src = str(Path(gspbias.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", FALLBACK_PROBE], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result == {"refused": True, "package_ran": True, "same": True,
                          "cdf": float(_ufuncs.betainc(2.0, 38.0, 0.1))}

    def test_kernels_are_scipy_specials(self):
        assert oracle.special_kernels() is _ufuncs


class TestRankProbGivenScore:
    """P(rank k | score s), row k-1 of a rank table, against closed forms.

    These pin the reference fold, ``rank_probs`` (``rank_table_whole_rows``),
    which ``TestRankTable::test_recursion_matches_enumeration`` ties to
    ``RankWalk``'s leaf tables bit for bit; the 13-uniform closed form also
    reads those tables, joined (``reference.rank_table``)."""

    def test_no_competitors_always_rank_one(self):
        assert rank_probs([U01], 0, 0.3)[0, 0] == pytest.approx(1.0)

    def test_two_iid_uniform(self):
        # the only rival is below s with probability s
        table = rank_probs([U01, U01], 0, 0.7)
        assert table[0, 0] == pytest.approx(0.7)
        assert table[1, 0] == pytest.approx(0.3)

    def test_three_iid_uniform_middle_rank(self):
        value = rank_probs([U01] * 3, 0, 0.5)[1, 0]
        assert value == pytest.approx(2 * 0.5 * 0.5)

    def test_three_iid_uniform_against_monte_carlo(self):
        """Subset-sum probabilities match empirical rank frequencies."""
        rng = np.random.default_rng(31)
        draws = rng.random((1_000_000, 3))
        s = 0.35
        draws[:, 0] = s
        ranks = np.argsort(np.argsort(-draws, axis=1, kind="stable"), axis=1)[:, 0]
        table = rank_probs([U01] * 3, 0, s)
        for k in (1, 2, 3):
            expected = table[k - 1, 0]
            freq = np.mean(ranks == k - 1)
            se = np.sqrt(expected * (1 - expected) / len(draws))
            assert abs(freq - expected) < 4 * max(se, 1e-6)

    def test_normalization_over_ranks(self):
        dists = [ScoreDistribution.scaled_beta(2, 38),
                 ScoreDistribution.uniform(0, 0.2),
                 ScoreDistribution.scaled_beta(4, 40, 0.9)]
        grid = np.linspace(0, 1.0, 1000)
        total = rank_probs(dists, 0, grid).sum(axis=0)
        np.testing.assert_allclose(total, 1.0, atol=1e-9)

    def test_thirteen_iid_uniform_closed_form(self):
        """No ad cap: 13 iid uniforms give binomial rank chances and
        E[score | rank k] = (m - k + 1) / (m + 1)."""
        m = 13
        grid = CaseGrid([U01] * m)
        node = round(0.37 * SIMPSON_INTERVALS)
        s = grid.s[node]
        for table in (rank_probs([U01] * m, 0, s)[:, 0], rank_table(grid, 0)[:, node]):
            for k in range(1, m + 1):
                expected = comb(m - 1, k - 1) * (1 - s) ** (k - 1) * s ** (m - k)
                assert table[k - 1] == pytest.approx(expected, abs=1e-14)
        profile = mean_profile([U01] * m, 0)
        np.testing.assert_allclose(profile.marginals, 1 / m, atol=1e-12)
        np.testing.assert_allclose(profile.conditional_means,
                                   [(m - k + 1) / (m + 1) for k in range(1, m + 1)],
                                   atol=1e-12)

    def test_values_are_probabilities_and_marginal_matches_profile(self):
        grid = np.linspace(0, 1, 101)
        values = rank_probs([U01, U01], 0, grid)[0]
        assert np.all((0 <= values) & (values <= 1))
        marginals = mean_profile([U01, U01], 0).marginals
        assert marginals[0] == pytest.approx(0.5, abs=1e-9)


# fields whose runs of exact CDF 0s and 1s end where the fold must get them
# right: beside U(0, 1), whose nodes are k / SIMPSON_INTERVALS, uniform ends on
# nodes (0.125 and 0.375 on leaf edges) and one ulp off them, either side;
# duplicate ads; and a beta row whose betainc reaches an exact 1 before its scale
RUN_FIELDS = {
    "ends-on-nodes": [U01, ScoreDistribution.uniform(0.25, 0.75),
                      ScoreDistribution.uniform(0.125, 0.375)],
    "ends-an-ulp-off": [U01,
                        ScoreDistribution.uniform(np.nextafter(0.25, 0), np.nextafter(0.75, 1)),
                        ScoreDistribution.uniform(np.nextafter(0.125, 1),
                                                  np.nextafter(0.375, 0))],
    "duplicates": [ScoreDistribution.scaled_beta(2, 38), ScoreDistribution.scaled_beta(2, 38),
                   ScoreDistribution.uniform(0.0, 0.12), ScoreDistribution.uniform(0.0, 0.12)],
    "beta-exact-one": [U01, ScoreDistribution.scaled_beta(2, 38),
                       ScoreDistribution.scaled_beta(3, 37, 0.5)],
}


class TestRankTable:
    @settings(max_examples=150, deadline=None)
    @given(dists=st.lists(st.one_of(uniforms, betas), min_size=1, max_size=8),
           nodes=st.lists(st.integers(0, SIMPSON_INTERVALS), min_size=1, max_size=5),
           data=st.data())
    def test_recursion_matches_enumeration(self, dists, nodes, data):
        """At any nodes of the case grid, the fold is the sum over rival
        subsets, and the whole table is the whole-row fold's, bit for bit."""
        candidate = data.draw(st.integers(0, len(dists) - 1))
        grid = CaseGrid(dists)
        F = np.vstack([cumulative(grid, j) for j in range(len(dists))])
        whole = rank_table(grid, candidate)
        assert whole.tobytes() == rank_table_whole_rows(F, candidate).tobytes()
        table, F = whole[:, nodes], F[:, nodes]
        for rank in range(1, len(dists) + 1):
            np.testing.assert_allclose(table[rank - 1],
                                       enumerated_rank_prob(F, candidate, rank),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dists", RUN_FIELDS.values(), ids=RUN_FIELDS.keys())
    def test_run_skipping_fold_matches_whole_rows(self, dists):
        """Shifting the rows over a rival's exact CDF 0s and skipping its
        exact 1s gives every candidate's table of the whole-row fold bit for
        bit, signed zeros included, on fields whose runs end on nodes, one
        ulp off them, at leaf edges and, for a beta, before its scale."""
        grid = CaseGrid(dists)
        F = np.vstack([d.cdf(grid.s) for d in dists])
        for i in range(len(dists)):
            np.testing.assert_array_equal(rank_table(grid, i).view(np.int64),
                                          rank_table_whole_rows(F, i).view(np.int64))
        beta_rows = [grid.rows[d][0][grid.s < d.upper] for d in grid.rows]
        assert all((row == 1.0).any() for row in beta_rows)

    def test_shared_table_matches_own_tables(self):
        """One table serves the decomposition and then the density profile:
        the decomposition leaves it as built, so the density profile reads
        the bytes a table of its own would hold, and normalizes it in place."""
        grid = CaseGrid([ScoreDistribution.scaled_beta(2, 38), ScoreDistribution.uniform(0, 0.12),
                         ScoreDistribution.scaled_beta(4, 40, 0.9)])
        for i in range(3):
            table, marginals = table_and_marginals(grid, i)
            decomposition_by_leaves(grid, i, table, marginals)
            np.testing.assert_array_equal(table, rank_table(grid, i))
            dens = conditional_density_profile(grid, i, table, marginals)
            assert dens is table
            density = grid.dists[i].pdf(grid.s)
            wd = np.multiply(*grid.quadrature(i, 0, len(grid.s)))
            own = rank_table(grid, i)
            for k in range(3):
                np.testing.assert_array_equal(dens[k], density * own[k]
                                              / float(np.sum(wd * own[k])))


# u values the grid draws must also get right: zero, far below the grid's
# first CDF node, and the largest uniform Generator.random returns
EXTREME_U = [0.0, 5e-324, 1e-300, 1e-12, 2.0 ** -53, 0.5, 1 - 1e-12, 1 - 2.0 ** -53]
_SPREAD = np.random.default_rng(8)
SPREAD_U = np.concatenate([_SPREAD.random(2000),
                           np.exp(_SPREAD.uniform(np.log(1e-300), 0.0, 500)),
                           np.minimum(1 - np.exp(_SPREAD.uniform(np.log(2.0 ** -53), 0.0, 500)),
                                      1 - 2.0 ** -53)])


class TestCaseGridPpf:
    @settings(max_examples=40, deadline=None)
    @given(a=st.floats(0.2, 80.0), b=st.floats(0.2, 80.0), scale=st.floats(0.05, 3.0),
           stretch=st.floats(1.0, 3.0),
           u=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=50))
    def test_draws_match_exact_inverse(self, a, b, scale, stretch, u):
        beta = ScoreDistribution.scaled_beta(a, b, scale)
        # a uniform rival stretches the case grid past the beta's scale
        sampler = CaseSampler(CaseGrid([ScoreDistribution.uniform(0.0, scale * stretch), beta]))
        u = np.concatenate([u, EXTREME_U, SPREAD_U])
        with warnings.catch_warnings():
            # boost's root finder gives up on some shapes at u = 1e-300, with a
            # warning, in the exact inverse that both sides then call
            warnings.filterwarnings("ignore", "Error in function boost", RuntimeWarning)
            drawn = sampler.draw(1, u)[0]
            exact = _ufuncs._beta_ppf(u, a, b) * scale
        np.testing.assert_allclose(drawn, exact, rtol=0, atol=1e-7)

    def test_uniform_ads_keep_closed_form(self):
        uniform = ScoreDistribution.uniform(0.2, 0.7)
        sampler = CaseSampler(CaseGrid([uniform, ScoreDistribution.scaled_beta(2, 38)]))
        np.testing.assert_array_equal(sampler.draw(0, SPREAD_U)[0], uniform.ppf(SPREAD_U))

    def test_packaged_betas_stay_on_the_newton_path(self, monkeypatch):
        """Lattice uniforms on the packaged betas fall back to the exact inverse
        only in the outermost cells."""
        fallbacks = []
        monkeypatch.setattr(ScoreDistribution, "ppf", lambda self, v, f=ScoreDistribution.ppf:
                            fallbacks.append(v) or f(self, v))
        for spec in PACKAGED_BETAS:
            sampler = CaseSampler(CaseGrid([parse_distribution(spec, "dists")]))
            fallbacks.clear()
            u = np.random.default_rng(3).random(200_000)
            sampler.draw(0, u)
            assert sum(len(v) for v in fallbacks) <= 2, spec

    def test_packaged_betas_make_no_betainc_call(self, monkeypatch):
        """Once the grid and its sampler are built, its beta draws never
        evaluate the beta CDF."""
        for spec in PACKAGED_BETAS:
            grid = CaseGrid([parse_distribution(spec, "dists")])
            sampler = CaseSampler(grid)
            calls = []
            monkeypatch.setattr(_ufuncs, "betainc",
                                lambda *args, f=_ufuncs.betainc: calls.append(args) or f(*args))
            sampler.draw(0, np.random.default_rng(4).random(200_000))
            assert not calls, spec
            grid.dists[0].cdf(0.05)  # the counter does see a CDF evaluation
            assert len(calls) == 1
            monkeypatch.undo()

    @pytest.mark.parametrize("spec", PACKAGED_BETAS + [
        "beta:0.3:0.5", "beta:0.2:30:2", "beta:60:0.4:0.7", "beta:80:80:0.05", "beta:1:1:3"])
    def test_safe_cells_meet_the_newton_tolerance(self, spec):
        """A draw from a safe cell leaves a CDF residual, over the density, of at
        most _NEWTON_TOL of the ad's scale plus what CDF rounding allows."""
        dist = parse_distribution(spec, "dists")
        a, b, scale = dist.params
        # a uniform rival stretches the case grid past the beta's scale
        grid = CaseGrid([dist, ScoreDistribution.uniform(0.0, 1.5 * scale)])
        sampler = CaseSampler(grid)
        u = np.concatenate([SPREAD_U, np.random.default_rng(5).random(100_000)])
        from_safe = sampler.tables[dist][0][np.searchsorted(grid.rows[dist][0], u,
                                                            side="right")]
        assert from_safe.mean() > 0.5
        with warnings.catch_warnings():
            # boost's root finder gives up on some shapes at u = 1e-300, in the
            # exact inverse that unsafe cells call
            warnings.filterwarnings("ignore", "Error in function boost", RuntimeWarning)
            x = sampler.draw(0, u)[0][from_safe] / scale
        pdf = _ufuncs._beta_pdf(x, a, b)
        residual = np.abs(_ufuncs.betainc(a, b, x) - u[from_safe]) / pdf
        assert np.all(residual <= _NEWTON_TOL + _CDF_REL_ERR / pdf), residual.max()

    @pytest.mark.parametrize("a, b, upper", [
        (0.5, 3.0, 1.0), (3.0, 0.5, 1.0), (0.3, 0.4, 1.0), (2.0, 38.0, 1.0),
        # a density positive and finite at a support end that is a grid node
        (1.0, 3.0, 0.8), (3.0, 1.0, 0.8)])
    def test_outermost_and_singular_cells_take_the_exact_inverse(self, a, b, upper):
        dist = ScoreDistribution.scaled_beta(a, b, 0.8)
        grid = CaseGrid([dist, ScoreDistribution.uniform(0.0, upper)])
        sampler = CaseSampler(grid)
        F, safe = grid.rows[dist][0], sampler.tables[dist][0]
        first = np.flatnonzero(F > 0.0)[0]       # cell `first` starts at a node with F = 0
        top = np.flatnonzero(F < 1.0)[-1] + 1    # cell `top` ends at a node with F = 1
        assert not safe[first] and not safe[top:].any()
        # next to a singular end the density is unbounded and the error rule fails
        assert a >= 1.0 or not safe[first + 1]
        assert b >= 1.0 or not safe[top - 1]
        u = np.concatenate([[0.0, 5e-324, 1e-300, 1.0 - 2.0 ** -53],
                            np.linspace(0.0, F[first], 50, endpoint=False),
                            np.minimum(np.linspace(F[top - 1], 1.0, 50), 1.0 - 2.0 ** -53)])
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "Error in function boost", RuntimeWarning)
            drawn, n_exact = sampler.draw(0, u)
            exact = dist.ppf(u)
        assert n_exact == len(u)
        np.testing.assert_array_equal(drawn, exact)


K = SIMPSON_INTERVALS
# CDF values: exact multiples of 1/K, their neighbours, and anything in [0, 1]
cdf_values = st.one_of(st.integers(0, K).map(lambda k: k / K),
                       st.integers(1, K - 1).map(lambda k: np.nextafter(k / K, 0.0)),
                       st.floats(0.0, 1.0))


class TestGuideBracket:
    @settings(max_examples=80, deadline=None)
    @given(runs=st.lists(st.tuples(cdf_values, st.integers(1, 6)), max_size=40),
           zeros=st.integers(1, 5), ones=st.integers(1, 5))
    # two values in one guide bucket, the upper a flat run: after one step
    # forward, u can equal the node it stands on, and is still short
    @example(runs=[(0.5, 1), (0.5 + 1e-9, 2)], zeros=1, ones=1)
    def test_matches_searchsorted(self, runs, zeros, ones):
        """Monotone rows with flat runs and plateaus at 0 and 1 bracket every
        u exactly as searchsorted does, at every k/K and next to each node."""
        values = np.array([v for v, _ in runs], dtype=float)
        F = np.sort(np.concatenate([np.zeros(zeros), np.repeat(values, [n for _, n in runs]),
                                    np.ones(ones)]))
        inner = F[F < 1.0]
        u = np.concatenate([np.arange(K) / K, [0.0, 5e-324, 1.0 - 2.0 ** -53], inner,
                            np.nextafter(inner, 0.0).clip(0.0), np.nextafter(inner, 1.0)])
        u = u[u < 1.0]
        np.testing.assert_array_equal(_bracket(F, _guide_table(F), u),
                                      np.searchsorted(F, u, side="right"))

    def test_guide_counts_nodes_at_or_below_each_bucket(self):
        F = np.array([0.0, 0.0, 0.5 / K, 1.0 / K, 1.0 / K, 3.5 / K, 0.5, 1.0])
        guide = _guide_table(F)
        assert guide.dtype == np.int32 and len(guide) == K
        np.testing.assert_array_equal(guide[:5], [2, 5, 5, 5, 6])
        assert guide[K // 2] == 7 and guide[-1] == 7


def draw_test_uniforms(F, nodes, floats) -> np.ndarray:
    """Uniforms in [0, 1) for a draw test on the CDF row F: 0, the smallest
    and largest doubles of [0, 1), the row at the given node indices and its
    neighbours, the row in its tails, where nodes crowd into one guide
    bucket, and the given floats."""
    inner = np.flatnonzero((F > 0.0) & (F < 1.0))
    tails = np.concatenate([inner[:30], inner[-30:]])
    at = F[np.concatenate([np.asarray(nodes, dtype=np.intp), tails])]
    u = np.concatenate([[0.0, 5e-324, 1.0 - 2.0 ** -53], at, np.nextafter(at, 0.0),
                        np.nextafter(at, 1.0), floats])
    return u[(u >= 0.0) & (u < 1.0)]


def crowded(F, guide, u) -> np.ndarray:
    """Which uniforms have more than one node of F in their guide bucket
    below them, so that the bracket's step leaves them to searchsorted."""
    return np.searchsorted(F, u, side="right") - guide[(u * K).astype(np.intp)] > 1


class TestDrawArithmetic:
    """``CaseSampler.draw`` gives the reference formula's bits (``hermite_draw``)."""

    @settings(max_examples=30, deadline=None)
    @given(a=st.floats(0.3, 80.0), b=st.floats(0.3, 80.0), scale=st.floats(0.05, 3.0),
           stretch=st.floats(1.0, 3.0), nodes=st.lists(st.integers(0, K), max_size=40),
           floats=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=40))
    def test_matches_the_reference_formula(self, a, b, scale, stretch, nodes, floats):
        # a uniform rival stretches the case grid past the beta's scale
        sampler = CaseSampler(CaseGrid([ScoreDistribution.uniform(0.0, scale * stretch),
                                        ScoreDistribution.scaled_beta(a, b, scale)]))
        u = draw_test_uniforms(cumulative(sampler.grid, 1), nodes, floats)
        with warnings.catch_warnings():
            # boost's root finder gives up on some shapes near u = 0, with a
            # warning, in the exact inverse that both sides then call
            warnings.filterwarnings("ignore", "Error in function boost", RuntimeWarning)
            drawn, n_exact = sampler.draw(1, u)
            expected, n_expected = hermite_draw(sampler, 1, u)
        assert n_exact == n_expected
        assert drawn.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dist", [parse_distribution(spec, "dists") for spec in PACKAGED_BETAS]
                             + [ScoreDistribution.scaled_beta(0.5, 3.0, 0.8),
                                ScoreDistribution.scaled_beta(60.0, 60.0, 0.01)],
                             ids=lambda d: ":".join(f"{p:g}" for p in d.params))
    def test_reaches_every_path(self, dist):
        """On the packaged betas, one with a singular end and a narrow one, the
        test uniforms reach the searchsorted fallback and the exact inverse,
        and a strided column draws as its contiguous copy does."""
        grid = CaseGrid([dist, U01])
        sampler = CaseSampler(grid)
        F, guide = grid.rows[dist][0], sampler.tables[dist][1]
        u = draw_test_uniforms(F, range(0, K + 1, 997),
                               np.random.default_rng(7).random(20_000))
        assert crowded(F, guide, u).any()
        columns = np.stack([u, u])
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "Error in function boost", RuntimeWarning)
            drawn, n_exact = sampler.draw(0, u)
            expected, n_expected = hermite_draw(sampler, 0, u)
            strided = sampler.draw(0, columns.T[:, 1])[0]
        assert n_exact == n_expected > 0
        assert drawn.tobytes() == expected.tobytes() == strided.tobytes()


def record_row_calls(monkeypatch) -> dict:
    """Every CDF and PDF evaluation from here on: the nodes of each call,
    listed under (distribution, method name)."""
    calls = defaultdict(list)
    for name in ("cdf", "pdf"):
        f = getattr(ScoreDistribution, name)
        monkeypatch.setattr(ScoreDistribution, name,
                            lambda d, s, f=f, name=name: calls[d, name].append(s) or f(d, s))
    return calls


class TestCaseGridRows:
    def test_repeated_specs_evaluate_each_distribution_once(self, monkeypatch, tmp_path):
        """Ads with the same spec have equal distributions, and the grid
        evaluates each beta's CDF and PDF once at each node up to its
        support's top, slice by slice, and a uniform's not at all, giving
        the rows and draw tables separately parsed ads would get."""
        case = load_case(tmp_path, ("beta:2:38", "uniform:0:1", "beta:2:38",
                                    "beta:3:37:1.2", "uniform:0:1", "beta:2:38"))
        dists = case.dists
        assert dists[0] == dists[2] == dists[5] and dists[1] == dists[4]
        calls = record_row_calls(monkeypatch)
        grid = CaseGrid(dists)
        assert set(calls) == {(d, name) for d in dists if d.kind == "scaled-beta"
                              for name in ("cdf", "pdf")}
        for (d, _name), nodes in calls.items():
            np.testing.assert_array_equal(np.concatenate(nodes), grid.s[grid.s <= d.upper])
        own = CaseGrid([parse_distribution(spec, "dists") for spec in case.dist_specs])
        mine, theirs = CaseSampler(grid), CaseSampler(own)
        assert len(grid) == len(own) == len(dists)
        betas = [dists[0], dists[3]]  # each beta once, in order of first appearance
        assert list(grid.rows) == list(own.rows) == list(mine.tables) == list(theirs.tables) \
            == betas
        for d in betas:
            for rows, other in ((grid.rows[d], own.rows[d]), (mine.tables[d], theirs.tables[d])):
                for row, expected in zip(rows, other, strict=True):
                    np.testing.assert_array_equal(row, expected)


    @pytest.mark.parametrize("dists", [
        [ScoreDistribution.uniform(0, 1), ScoreDistribution.uniform(0, 1)],
        [parse_distribution(spec, "dists") for spec in ("uniform:0:1", "uniform:0.0:1.0")],
        [parse_distribution(spec, "dists") for spec in ("beta:2:38", "beta:2:38:1")],
    ], ids=["built-twice", "uniform-spellings", "beta-spellings"])
    def test_equal_distributions_share_rows_by_value(self, monkeypatch, dists):
        """Two equal distributions built apart share one set of row objects:
        a beta's CDF and PDF are evaluated once per node slice, and a
        uniform, which stores no row, is not evaluated."""
        assert dists[0] == dists[1] and dists[0] is not dists[1]
        calls = record_row_calls(monkeypatch)
        grid = CaseGrid(dists)
        beta = dists[0].kind == "scaled-beta"
        assert set(calls) == ({(dists[0], "cdf"), (dists[0], "pdf")} if beta else set())
        slices = len(fixed_blocks(0, len(grid.s), oracle.NODE_SLICE))
        for nodes in calls.values():
            assert len(nodes) == slices
            np.testing.assert_array_equal(np.concatenate(nodes), grid.s)
        assert list(grid.rows) == ([dists[0]] if beta else [])
        if beta:
            F, f = grid.rows[dists[0]]
            assert cumulative(grid, 0).base is cumulative(grid, 1).base is F
            assert grid.density(0).base is grid.density(1).base is f

    @pytest.mark.parametrize("dists", [
        # scales at a node of the uniform's grid, k / K, and one double either
        # side, for a density positive at the top of its support
        [U01, ScoreDistribution.scaled_beta(2.0, 1.0, 0.25)],
        [U01, ScoreDistribution.scaled_beta(2.0, 1.0, np.nextafter(0.25, 1.0))],
        [U01, ScoreDistribution.scaled_beta(2.0, 1.0, np.nextafter(0.25, 0.0))],
        # the beta's support ends in the first node slice; the later ones lie past it
        [ScoreDistribution.scaled_beta(2.0, 38.0, 0.05), U01],
        [ScoreDistribution.scaled_beta(3.0, 1.0, 0.4), ScoreDistribution.uniform(0.1, 0.9)],
        [ScoreDistribution.scaled_beta(1.0, 3.0, 0.4), U01,
         ScoreDistribution.scaled_beta(3.0, 1.0, 0.7)],
    ], ids=["at-node", "above-node", "below-node", "slices-past", "beta-3-1", "beta-1-3"])
    def test_rows_past_the_support_equal_the_kernels(self, monkeypatch, dists):
        """Where the case's grid runs past a beta's scale, the rows still equal
        the whole-row CDF and PDF bit for bit, and no CDF or PDF call is given
        a node past its distribution's support, by the kernels' own test.  A
        uniform's CDF and PDF, evaluated a node slice at a time, equal its
        whole-row CDF and PDF too."""
        calls = record_row_calls(monkeypatch)
        grid = CaseGrid(dists)
        monkeypatch.undo()
        assert calls and all(len(s) and (s / d.upper <= 1.0).all()
                             for (d, _name), nodes in calls.items() for s in nodes)
        assert grid.s[-1] > min(d.upper for d in dists)
        slices = fixed_blocks(0, len(grid.s), oracle.NODE_SLICE)
        for j, d in enumerate(dists):
            for rows, whole in ((partial(cumulative, grid), d.cdf), (grid.density, d.pdf)):
                sliced = np.concatenate([rows(j, lo, hi) for lo, hi in slices])
                assert rows(j).tobytes() == sliced.tobytes() == whole(grid.s).tobytes()

    def test_equal_specs_share_row_objects(self, tmp_path):
        """However a distribution is spelled, a beta's ads hold one CDF row
        object, one PDF row object and one set of draw tables, a uniform's
        hold none, and the grid's bytes count each row once."""
        case = load_case(tmp_path, ("uniform:0:1", "beta:2:38", "uniform:0.0:1.0",
                                    "beta:2:38:1", "beta:3:37:1.2"))
        grid = CaseGrid(case.dists)
        sampler = CaseSampler(grid)
        dists = case.dists
        assert list(grid.rows) == list(sampler.tables) == [dists[1], dists[4]]
        assert dists[1] == dists[3] and dists[0] == dists[2]
        for rows in (partial(cumulative, grid), grid.density):
            assert rows(1).base is rows(3).base is not rows(4).base
            assert rows(0).base is None and rows(2).base is None  # evaluated, not stored
        # nodes, weights, and two beta CDF rows and PDF rows
        assert grid.nbytes == 6 * len(grid.s) * 8
        assert sampler.nbytes == 2 * (len(grid.s) + SIMPSON_INTERVALS * 4)

    def test_uniform_ads_store_no_pdf_row(self):
        """A uniform ad's density is evaluated on demand, bit for bit the
        distribution's PDF on the nodes; a beta ad's is a view of its stored
        row."""
        dists = [ScoreDistribution.uniform(0.01, 0.08), ScoreDistribution.scaled_beta(2, 38),
                 ScoreDistribution.uniform(0.0, 0.12)]
        grid = CaseGrid(dists)
        assert list(grid.rows) == [dists[1]]
        assert grid.density(1).base is grid.rows[dists[1]][1]
        for j, d in enumerate(dists):
            assert grid.density(j).tobytes() == d.pdf(grid.s).tobytes()

    def test_draw_tables_die_with_the_sampling(self, monkeypatch):
        """No guide table or safe-cell flag array outlives ``sample_rank_stats``."""
        alive = watch_draw_tables(monkeypatch)
        dists = [ScoreDistribution.scaled_beta(2, 38), ScoreDistribution.uniform(0, 0.1),
                 ScoreDistribution.scaled_beta(2, 38)]
        grid = CaseGrid(dists)
        for threads in (1, 2):
            alive.clear()
            with worker_map(threads) as map:
                stats = sample_rank_stats(grid, 40_000, seed=3, map=map)
            assert len(alive) == 2 and all(ref() is None for ref in alive)
            assert stats.table_bytes == len(grid.s) + SIMPSON_INTERVALS * 4


# a uniform, a beta and a scaled beta, with the beta's tails, its flanks and
# a slice edge inside the uniform's support
SLICED_FIELD = ["uniform:0.01:0.08", "beta:2:38", "beta:3:37:1.2", "beta:2:38"]


@contextmanager
def contended_workers(threads):
    """``worker_map(threads)`` with the interpreter switching threads as often
    as it can, so that workers writing one array interleave."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with worker_map(threads) as map:
            yield map
    finally:
        sys.setswitchinterval(interval)


class TestNodeSlices:
    """Rows, safe-cell flags, guide tables and rank tables filled a node slice
    at a time, in turn or on more workers than cores, equal their whole-row
    results."""

    @pytest.mark.parametrize("node_slice", [oracle.NODE_SLICE, 1000])
    @pytest.mark.parametrize("threads", [1, 4])
    def test_case_grid_matches_whole_rows(self, monkeypatch, tmp_path, node_slice, threads):
        dists = load_case(tmp_path, SLICED_FIELD).dists
        monkeypatch.setattr(oracle, "NODE_SLICE", node_slice)
        with contended_workers(threads) as map:
            grid = CaseGrid(dists, map)
            sampler = CaseSampler(grid, map)
        monkeypatch.undo()
        s = grid.s
        betas = [d for d in dict.fromkeys(dists) if d.kind == "scaled-beta"]
        assert list(grid.rows) == list(sampler.tables) == betas
        for j, d in enumerate(dists):
            F, f = d.cdf(s), d.pdf(s)
            np.testing.assert_array_equal(cumulative(grid, j), F)
            np.testing.assert_array_equal(grid.density(j), f)
            if d not in betas:
                continue
            np.testing.assert_array_equal(grid.rows[d][1], f)
            whole = hermite_safe_cells_whole_rows(d.params, s, F, f, _NEWTON_TOL, _CDF_REL_ERR)
            assert whole.any() and not whole.all()
            np.testing.assert_array_equal(sampler.tables[d][0], whole)
            np.testing.assert_array_equal(sampler.tables[d][1], _guide_table(F))

    @pytest.mark.parametrize("node_slice", [oracle.NODE_SLICE, 1000])
    @pytest.mark.parametrize("threads", [1, 4])
    def test_rank_table_matches_whole_row_fold(self, monkeypatch, node_slice, threads):
        """As a command runs them: the grid rows filled on its workers, then each
        candidate's table folded slice by slice in the calling thread, equal to
        the whole-row fold over rows evaluated in one call each."""
        dists = [parse_distribution(spec, "dists") for spec in SLICED_FIELD]
        monkeypatch.setattr(oracle, "NODE_SLICE", node_slice)
        with contended_workers(threads) as map:
            grid = CaseGrid(dists, map)
        F = np.vstack([d.cdf(grid.s) for d in dists])
        for i in range(len(grid)):
            np.testing.assert_array_equal(rank_table(grid, i), rank_table_whole_rows(F, i))


# A 16-ad field of mixed betas and staggered uniforms, and its seed, fixed
# before the test was first run.
SIXTEEN_ADS = ["beta:2:38", "uniform:0:0.1", "beta:3:37:1.2", "uniform:0.01:0.08",
               "beta:2.5:40:0.8", "uniform:0:0.12", "beta:4:60:1.1", "uniform:0.02:0.1",
               "beta:2:30:0.8", "uniform:0:0.09", "beta:5:45:1.5", "uniform:0.005:0.11",
               "beta:4:36:0.9", "uniform:0.03:0.07", "beta:3:30:1.1", "uniform:0:0.1"]
SIXTEEN_SEED = 16
MC_FAMILY_FALSE_ALARM = 1e-4  # bench/run.py's Bonferroni gate


def test_monte_carlo_agrees_with_quadrature_at_sixteen_ads():
    grid = CaseGrid([parse_distribution(spec, "dists") for spec in SIXTEEN_ADS])
    mc = sample_rank_stats(grid, 1 << 18, SIXTEEN_SEED)
    deviations = []
    for i, profile in enumerate(conditional_mean_profile(grid, list(range(len(grid))))):
        means = profile.conditional_means
        reachable = means[~np.isnan(means)]
        assert np.all(np.diff(reachable) <= 1e-6), i  # E[score | rank] never rises
        for k in np.flatnonzero(mc.counts[i] >= 1000):
            deviations.append(abs(mc.means[i, k] - means[k]) / mc.std_errors[i, k])
    bound = statistics.NormalDist().inv_cdf(1 - MC_FAMILY_FALSE_ALARM / (2 * len(deviations)))
    assert len(deviations) >= 100
    assert max(deviations) <= bound


class TestLeafChecks:
    """The checks walk a candidate's rank table a leaf at a time, with the
    bytes of whole-row checks and leaf-sized temporaries."""

    @pytest.mark.parametrize("node_slice", [oracle.NODE_SLICE, 1000])
    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([1, 8, 9, 16_385, 33_003, 131_073]),
           seed=st.integers(0, 2 ** 32 - 1),
           head=st.lists(st.floats(-1e300, 1e300), max_size=9))
    @example(n=33_003, seed=0, head=[])  # n // 2, 16,501, is no multiple of 8
    def test_leaf_sums_add_up_to_numpy_sum(self, node_slice, n, seed, head):
        """The leaves cover the nodes in order, and their ``np.sum``s, added
        along numpy's own pairwise split, give the whole row's ``np.sum`` bit
        for bit, on values of mixed sign and magnitude: numpy behaviour the
        checks' bytes rest on.  33,003 nodes split off 16,496, not 16,501."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
        x[:len(head)] = head[:n]
        leaves = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "NODE_SLICE", node_slice)
            total = oracle._pairwise_sum(lambda lo, hi: leaves.append((lo, hi))
                                         or np.sum(x[lo:hi]), 0, n)
        assert [lo for lo, _ in leaves] == [0] + [hi for _, hi in leaves[:-1]]
        assert leaves[-1][1] == n and all(hi - lo <= node_slice + 1 for lo, hi in leaves)
        assert total.tobytes() == np.sum(x).tobytes()

    def test_grid_leaves(self):
        """On the Simpson grid the leaves are visited left to right: seven of
        16,384 nodes and one of 16,385, and the leaf results are added as
        numpy adds its halves, left first."""
        calls = []
        total = oracle._pairwise_sum(lambda lo, hi: calls.append((lo, hi)) or [(lo, hi)],
                                     0, SIMPSON_INTERVALS + 1)
        edges = [16_384 * i for i in range(8)] + [SIMPSON_INTERVALS + 1]
        assert calls == total == list(zip(edges[:-1], edges[1:]))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 1500), spots=st.tuples(*[st.lists(st.integers(0, 1499), max_size=3)] * 3),
           tolerance=st.sampled_from([0.0, 0.25]))
    # the split, 301, lies in the second leaf and the first bin inadmissible
    # before it, 450, in the third: each counts from the row's start
    @example(n=500, spots=([450], [300], []), tolerance=0.0)
    def test_split_across_leaves(self, n, spots, tolerance):
        """With node slices of 200, the split is still the whole-scan
        split wherever the bins inadmissible before it (f above g), after it
        (f below g) or on both sides (NaN) fall."""
        f, g = np.full(n, 0.5), np.full(n, 0.5)
        for (value, other), at in zip(((1.0, 0.0), (0.0, 1.0), (np.nan, 0.5)), spots):
            at = [i % n for i in at]
            f[at], g[at] = value, other
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "NODE_SLICE", 200)
            verdict = check_splittable(f, g, tolerance)
        expected = split_index_by_accumulation(f, g, tolerance)
        assert verdict == SplitVerdict(expected is not None, expected)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 1500), spots=st.tuples(*[st.lists(st.integers(0, 1499), max_size=3)] * 3),
           cuts=st.lists(st.integers(0, 1500), max_size=4), tolerance=st.sampled_from([0.0, 0.25]))
    # the split, 301, lies in the first call's rows and the first bin
    # inadmissible before it, 450, in the second's
    @example(n=500, spots=([450], [300], []), cuts=[400], tolerance=0.0)
    def test_split_across_calls(self, n, spots, cuts, tolerance):
        """f and g fed to ``check_splittable`` in pieces, with one
        ``SplitScan`` across the calls, as a walk feeds its leaves, give the
        whole scan's split on the joined rows."""
        f, g = np.full(n, 0.5), np.full(n, 0.5)
        for (value, other), at in zip(((1.0, 0.0), (0.0, 1.0), (np.nan, 0.5)), spots):
            at = [i % n for i in at]
            f[at], g[at] = value, other
        edges = [0, *sorted(min(cut, n) for cut in cuts), n]
        scan = oracle.SplitScan()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "NODE_SLICE", 200)
            for lo, hi in zip(edges[:-1], edges[1:]):
                verdict = check_splittable(f[lo:hi], g[lo:hi], tolerance, scan)
        expected = split_index_by_accumulation(f, g, tolerance)
        assert verdict == scan.verdict == SplitVerdict(expected is not None, expected)

    @pytest.mark.parametrize("drop", [16_384, 16_385, 60_000, 114_688])
    def test_decomposition_steps_across_leaf_edges(self, drop):
        """Both parts fall where a table's rows halve, and the decomposition
        sees the fall whether it lies inside a leaf or at a leaf's first node,
        16,384 and 114,688 here, as the whole-row decomposition does."""
        grid = CaseGrid([U01, U01])
        table, marginals = table_and_marginals(grid, 0)
        table[:, drop:] *= 0.5
        expected = whole_row_decomposition(grid, 0, table, marginals)
        assert not (expected.plus_monotone or expected.minus_monotone)
        assert decomposition_by_leaves(grid, 0, table, marginals) == expected

    @settings(max_examples=25, deadline=None)
    @given(dists=st.lists(st.one_of(uniforms, betas), min_size=1, max_size=9))
    @example(dists=[U01])
    @example(dists=[ScoreDistribution.uniform(0.0, 0.4), ScoreDistribution.uniform(0.6, 1.0),
                    ScoreDistribution.scaled_beta(0.5, 3.0, 0.3)])
    # beside U(0, 1), whose nodes are k / SIMPSON_INTERVALS: one uniform's cut
    # panels start a node before leaf edges, its low just below node
    # 2 NODE_SLICE and its high just below 3 NODE_SLICE, so each cut panel's
    # three nodes span two leaves; another's high lies just past node
    # 5 NODE_SLICE, so its last cut panel starts at a leaf's first node
    @example(dists=[U01,
                    ScoreDistribution.uniform((2 * oracle.NODE_SLICE - 2 / 3) / SIMPSON_INTERVALS,
                                              (3 * oracle.NODE_SLICE - 2 / 3) / SIMPSON_INTERVALS),
                    ScoreDistribution.uniform(0.1, (5 * oracle.NODE_SLICE + 1 / 3) / SIMPSON_INTERVALS)])
    @example(dists=RUN_FIELDS["ends-on-nodes"])
    @example(dists=RUN_FIELDS["ends-an-ulp-off"])
    @example(dists=RUN_FIELDS["duplicates"])
    @example(dists=RUN_FIELDS["beta-exact-one"])
    def test_records_match_whole_row_checks(self, dists):
        """Every candidate's quadrature record, from the case's two walks over
        leaf tables, is byte for byte the one whole-row checks give, on fields
        of mixed uniforms and betas with disjoint supports (unreachable
        ranks, NaN rows) and singular beta ends."""
        grid = CaseGrid(dists)
        with warnings.catch_warnings():
            # a beta density infinite at a support end meets zero weights and
            # probabilities there, and both sides warn of the NaNs they make
            warnings.simplefilter("ignore", RuntimeWarning)
            leafwise = [json.dumps(r) for r in cli._quadrature_checks(grid, list(range(len(dists))))]
            whole = [json.dumps(r) for r in whole_row_records(grid)]
        assert leafwise == whole

    @pytest.mark.parametrize("specs", [
        ["uniform:0:0.1", "uniform:0.01:0.08", "uniform:0:0.12", "uniform:0.02:0.1"],
        ["uniform:0.01:0.08", "beta:2:38", "beta:3:37:1.2", "uniform:0:0.1"],
    ], ids=["uniforms", "mixed"])
    def test_checks_hold_one_table_and_leaf_rows(self, specs):
        """A case's checks allocate one leaf-sized rank table, one leaf of
        each uniform rival's CDF and at most eight more leaf-sized rows, less
        than one whole rank table; a grid stores no row for a uniform."""
        dists = [parse_distribution(spec, "dists") for spec in specs]
        grid = CaseGrid(dists)
        beta_rows = 2 * len({d for d in dists if d.kind == "scaled-beta"})
        assert grid.nbytes == (2 + beta_rows) * len(grid.s) * 8
        uniforms = len({d for d in dists if d.kind == "uniform"})
        leaf = (oracle.NODE_SLICE + 1) * 8
        for candidates in ([0], list(range(len(dists)))):
            tracemalloc.start()
            try:
                cli._quadrature_checks(grid, candidates)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(dists) * leaf < peak <= (len(dists) + uniforms + 8) * leaf, peak / leaf
            assert peak < len(dists) * len(grid.s) * 8


class TestConditionalScoreMean:
    def test_two_iid_uniform_order_statistic_means(self):
        means = mean_profile([U01, U01], 0).conditional_means
        np.testing.assert_allclose(means, [2 / 3, 1 / 3], atol=1e-9)

    def test_non_overlapping_supports_are_deterministic(self):
        """With disjoint supports the rank is fixed, so conditioning changes nothing.

        Tolerance reflects the fixed grid's O(h) behavior at pdf jumps that
        fall between quadrature nodes.
        """
        low = ScoreDistribution.uniform(0.0, 0.4)
        high = ScoreDistribution.uniform(0.6, 1.0)
        low_means = mean_profile([low, high], 0).conditional_means
        high_means = mean_profile([low, high], 1).conditional_means
        assert low_means[1] == pytest.approx(0.2, abs=2e-5)
        assert high_means[0] == pytest.approx(0.8, abs=2e-5)
        # rank 1 is unreachable for the low ad, rank 2 for the high one
        assert np.isnan(low_means[0]) and np.isnan(high_means[1])

    @settings(max_examples=25, deadline=None)
    @given(dists=st.lists(uniforms, min_size=2, max_size=10))
    @example(dists=[parse_distribution(spec, "dists") for spec in
                    ("uniform:0:0.1", "uniform:0.01:0.08", "uniform:0:0.12", "uniform:0.02:0.1",
                     "uniform:0:0.09", "uniform:0.005:0.11", "uniform:0.03:0.07", "uniform:0:0.1")])
    @example(dists=[U01, ScoreDistribution.uniform(0.2, 0.8)])
    def test_uniform_fields_match_exact_integrals(self, dists):
        """A uniform candidate's rank masses and conditional means are within
        1e-10 relative of the exact integrals (theorems-wide and u2_skewed
        are examples), plus what its rivals' CDF kinks may cost: its own
        density jumps cost nothing.  Simpson's rule, or a cut panel's
        quadratics, across a kink where an integrand's slope jumps by J is
        off by at most h^2 J / 6, and rival j's kinks change the slope of
        P(rank k | s) by at most 1 / width_j, and that of s P(rank k | s) by
        at most s / width_j.  A kink counts where the panels the candidate
        reads can hold it, within 2 h of its support."""
        grid = CaseGrid(dists)
        h = grid.s[1]
        for i, d in enumerate(dists):
            low, high = d.params
            masses, moments = uniform_field_profile(dists, i)
            kinks = [(x, 1.0 / (r.params[1] - r.params[0])) for j, r in enumerate(dists)
                     if j != i for x in r.params if low - 2 * h <= x <= high + 2 * h]
            cost = h * h / 6.0 / (high - low)
            mass_slack = cost * sum(jump for _, jump in kinks)
            moment_slack = cost * sum((x + 2 * h) * jump for x, jump in kinks)
            profile = conditional_mean_profile(grid, [i])[0]
            error = np.abs(profile.marginals - masses)
            assert np.all(error <= 1e-10 * masses + mass_slack), (i, error / masses)
            # where the mass is known to within half of itself, and so bounds the mean
            reached = ~np.isnan(profile.conditional_means) & (masses > 2 * mass_slack)
            means = moments[reached] / masses[reached]
            mean_slack = (moment_slack + means * mass_slack) / (masses[reached] - mass_slack)
            error = np.abs(profile.conditional_means[reached] - means)
            assert np.all(error <= 1e-10 * means + mean_slack), (i, error / means)

    def test_four_iid_beta_means_nonincreasing_in_rank(self):
        dists = [ScoreDistribution.scaled_beta(2, 38)] * 4
        profile = mean_profile(dists, 0)
        means = profile.conditional_means
        assert np.all(np.diff(means) <= 1e-9)
        # cross-check against Monte Carlo with 4-sigma bands
        rng = np.random.default_rng(32)
        draws = rng.beta(2, 38, size=(400_000, 4))
        ranks = np.argsort(np.argsort(-draws, axis=1, kind="stable"), axis=1)[:, 0]
        for k in range(4):
            sel = draws[ranks == k, 0]
            se = sel.std(ddof=1) / np.sqrt(len(sel))
            assert abs(sel.mean() - means[k]) < 4 * se

    def test_marginals_sum_to_one(self):
        dists = [ScoreDistribution.scaled_beta(2, 38),
                 ScoreDistribution.scaled_beta(3, 37, 1.2)]
        profile = mean_profile(dists, 0)
        assert profile.marginals.sum() == pytest.approx(1.0, abs=1e-6)
        # exactly one of the two ads is on top
        other = mean_profile(dists, 1)
        assert profile.marginals[0] + other.marginals[0] == pytest.approx(1.0, abs=1e-6)


class TestCheckSplittable:
    def test_identical_grids_split_at_first_bin(self):
        f = np.array([0.2, 0.5, 0.3])
        verdict = check_splittable(f, f.copy())
        assert verdict.splittable and verdict.split_index == 0

    def test_equal_variance_bells_cross_at_mean_midpoint(self):
        x = np.linspace(0, 0.1, 2001)
        sd = 0.01
        f = np.exp(-0.5 * ((x - 0.05) / sd) ** 2)
        g = np.exp(-0.5 * ((x - 0.045) / sd) ** 2)
        verdict = check_splittable(f, g)
        assert verdict.splittable
        assert x[verdict.split_index] == pytest.approx(0.0475, abs=x[1] - x[0])

    def test_triple_crossing_not_splittable(self):
        x = np.linspace(0, 1, 801)
        g = np.exp(-0.5 * ((x - 0.5) / 0.15) ** 2)
        f = 0.62 * (np.exp(-0.5 * ((x - 0.3) / 0.08) ** 2)
                    + np.exp(-0.5 * ((x - 0.7) / 0.08) ** 2))
        diff_signs = np.sign(f - g)
        crossings = np.count_nonzero(np.diff(diff_signs[diff_signs != 0]))
        assert crossings >= 3  # construction sanity: direct scan sees 3+ sign changes
        assert not check_splittable(f, g).splittable

    @settings(max_examples=400, deadline=None)
    @given(pairs=st.lists(st.tuples(*[st.sampled_from([0.0, 0.25, 0.5, 1.0, np.nan])] * 2),
                          max_size=12),
           tolerance=st.sampled_from([0.0, 0.25, 0.5, 2.0]))
    def test_matches_prefix_and_suffix_scans(self, pairs, tolerance):
        """The split from the two failure positions is the whole-scan split,
        with ties, NaNs, empty rows and a positive tolerance."""
        f = np.array([p[0] for p in pairs], dtype=float)
        g = np.array([p[1] for p in pairs], dtype=float)
        verdict = check_splittable(f, g, tolerance)
        expected = split_index_by_accumulation(f, g, tolerance)
        assert verdict == SplitVerdict(expected is not None, expected)

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatch):
            check_splittable(np.ones(5), np.ones(6))

    def test_histogram_wrapper_tolerates_sampling_noise(self):
        rng = np.random.default_rng(33)
        a = rng.normal(0.05, 0.003, 20000)
        b = rng.normal(0.045, 0.003, 20000)
        edges = np.linspace(0.03, 0.07, 41)
        ca, _ = np.histogram(a, edges)
        cb, _ = np.histogram(b, edges)
        verdict = split_histogram_densities(edges, ca, cb)
        assert verdict.splittable


SIX_AD_FIELD = [ScoreDistribution.scaled_beta(2, 38), ScoreDistribution.scaled_beta(3, 37),
                ScoreDistribution.scaled_beta(2.5, 40, 1.2), ScoreDistribution.uniform(0, 0.12),
                ScoreDistribution.scaled_beta(2, 30, 0.8), ScoreDistribution.uniform(0.01, 0.09)]


class TestTopRankDecomposition:
    @pytest.mark.parametrize("dists", [
        [U01, U01],
        [ScoreDistribution.scaled_beta(2, 38), ScoreDistribution.scaled_beta(3, 37, 1.2),
         ScoreDistribution.uniform(0, 0.12)],
        SIX_AD_FIELD,
    ])
    def test_zero_residual_and_monotone_parts(self, dists):
        grid = CaseGrid(dists)
        for i in range(len(dists)):
            dec = decomposition_by_leaves(grid, i, *table_and_marginals(grid, i))
            assert abs(dec.residual) < 1e-6
            assert dec.plus_monotone and dec.minus_monotone and dec.passed

    @pytest.mark.parametrize("residual, plus, minus, passed", [
        (DECOMPOSITION_TOL, True, True, True),
        (-DECOMPOSITION_TOL, True, True, True),
        (np.nextafter(DECOMPOSITION_TOL, 1.0), True, True, False),
        (0.0, False, True, False),
        (0.0, True, False, False),
    ])
    def test_verdict(self, residual, plus, minus, passed):
        """A decomposition passes when |residual| <= DECOMPOSITION_TOL and
        both parts are monotone."""
        assert RankDecomposition(residual, plus, minus).passed is passed

    def test_leave_one_out_sum_from_ranks_one_and_two(self):
        """sum_l prod_{j != l} F_j over the rivals equals P2 + (m - 1) P1."""
        s = np.linspace(0, 1.3, 2001)
        F = np.vstack([d.cdf(s) for d in SIX_AD_FIELD])
        for i in range(len(SIX_AD_FIELD)):
            rivals = [j for j in range(len(SIX_AD_FIELD)) if j != i]
            loo = sum(np.prod(F[[j for j in rivals if j != l]], axis=0) for l in rivals)
            p1, p2 = rank_table_whole_rows(F, i)[:2]
            np.testing.assert_allclose(p2 + len(rivals) * p1, loo, rtol=0, atol=1e-14)

    def test_single_ad_unsupported(self):
        grid = CaseGrid([U01])
        with pytest.raises(RankUnreachable, match="single ad has no adjacent rank"):
            decomposition_by_leaves(grid, 0, *table_and_marginals(grid, 0))


class TestConditionalDensityProfile:
    def test_rows_integrate_to_one_and_split(self):
        grid = CaseGrid([ScoreDistribution.scaled_beta(2, 38)] * 3)
        s, dens = grid.s, conditional_density_profile(grid, 0, *table_and_marginals(grid, 0))
        for k in range(3):
            assert np.trapezoid(dens[k], s) == pytest.approx(1.0, abs=1e-6)
        for k in range(2):
            assert check_splittable(dens[k], dens[k + 1], 0.0).splittable
