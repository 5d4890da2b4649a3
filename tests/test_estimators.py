import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from gspbias.engine import estimate_matrix
from gspbias.errors import NoData
from gspbias.estimators import (
    FALLBACK_HYPER,
    CountWindow,
    PoolHyperParams,
    fit_pool,
    naive_contextual_estimate,
    pooled_estimate,
)

PRIOR_MEAN = PoolHyperParams(*FALLBACK_HYPER).prior_mean


# ---------------------------------------------------------------------------
# Reference: the ring of per-day dicts keyed (ad_id, site, pos) and the
# per-key estimator loops that the window over the day tables and the
# whole-matrix estimators replaced.
# ---------------------------------------------------------------------------

class DictWindow:
    def __init__(self, length_days):
        self.length_days = length_days
        self._day_tags = [None] * length_days
        self._buckets = [dict() for _ in range(length_days)]
        self._current_day = -1

    def advance_to(self, day):
        for d in range(max(self._current_day + 1, day - self.length_days + 1), day + 1):
            slot = d % self.length_days
            self._day_tags[slot] = d
            self._buckets[slot] = {}
        self._current_day = day

    def add(self, day, key, clicks, impressions):
        cell = self._buckets[day % self.length_days].setdefault(key, [0, 0])
        cell[0] += clicks
        cell[1] += impressions

    def _live_slots(self):
        for slot, tag in enumerate(self._day_tags):
            if tag is not None and tag > self._current_day - self.length_days:
                yield slot

    def totals(self, key):
        c = n = 0
        for slot in self._live_slots():
            cell = self._buckets[slot].get(key)
            if cell is not None:
                c += cell[0]
                n += cell[1]
        return c, n

    def ad_totals(self):
        out = {}
        for slot in self._live_slots():
            for (ad_id, _site, _pos), (c, n) in self._buckets[slot].items():
                cell = out.setdefault(ad_id, [0, 0])
                cell[0] += c
                cell[1] += n
        return {ad: (c, n) for ad, (c, n) in out.items()}


def reference_fit_pool(ad_totals):
    counts = np.array([[c, n] for c, n in ad_totals.values() if n >= 1], dtype=float)
    if counts.size == 0:
        raise NoData("no ad has any impressions")
    props = counts[:, 0] / counts[:, 1]
    mu = float(props.mean())
    sampling = float(np.mean(1.0 / counts[:, 1]))
    # the dict-era fit divided by zero below when every ad had one impression
    if len(props) < 2 or not 0.0 < mu < 1.0 or sampling == 1.0:
        return PoolHyperParams(*FALLBACK_HYPER)
    spread = float(props.var(ddof=1))
    rho = (spread / (mu * (1.0 - mu)) - sampling) / (1.0 - sampling)
    if not 0.0 < rho < 1.0:
        return PoolHyperParams(*FALLBACK_HYPER)
    concentration = 1.0 / rho - 1.0
    return PoolHyperParams(alpha=mu * concentration, beta=(1.0 - mu) * concentration)


def reference_estimate_matrix(estimator, window, ids, contexts):
    est = np.empty((len(ids), len(contexts)))
    if estimator == "naive":
        for i, ad_id in enumerate(ids):
            for c, (site, pos) in enumerate(contexts):
                clicks, n = window.totals((ad_id, site, pos))
                est[i, c] = clicks / n if n else PRIOR_MEAN
    else:
        try:
            # in ad-id order, as the window sums them
            hyper = reference_fit_pool(dict(sorted(window.ad_totals().items())))
        except NoData:
            hyper = PoolHyperParams(*FALLBACK_HYPER)
        for i, ad_id in enumerate(ids):
            for c, (site, pos) in enumerate(contexts):
                clicks, n = window.totals((ad_id, site, pos))
                est[i, c] = (clicks + hyper.alpha) / (n + hyper.alpha + hyper.beta)
    return est


def day_counts(data, ads, contexts):
    """One day's (clicks, impressions) per (mode, ad, context); small pools
    keep empty cells common."""
    size = 2 * ads * contexts
    imp = np.array(data.draw(st.lists(st.sampled_from([0, 0, 1, 3, 40]),
                                      min_size=size, max_size=size)),
                   dtype=np.int64).reshape(2, ads, contexts)
    clk = np.array([data.draw(st.integers(0, int(n))) for n in imp.ravel()],
                   dtype=np.int64).reshape(imp.shape)
    return clk, imp


def accesses(clicks, impressions, seed=0):
    """Access columns (mode, ad, context, click), in a shuffled order, that
    count to the given per-(mode, ad, context) clicks and impressions."""
    n = impressions.ravel()
    cell = np.repeat(np.arange(n.size), n)
    nth = np.arange(cell.size) - np.repeat(np.cumsum(n) - n, n)
    click = (nth < np.repeat(clicks.ravel(), n)).astype(np.int8)
    order = np.random.default_rng(seed).permutation(cell.size)
    return (*np.unravel_index(cell[order], impressions.shape), click[order])


def window(length, days, ads=1, contexts=1):
    """A window over fresh zero day tables of the given size."""
    clicks = np.zeros((days, 2, ads, contexts), dtype=np.int64)
    return CountWindow(length, clicks, np.zeros_like(clicks))


def one_cell(clicks, impressions, ads=1, contexts=1, ad=0, ctx=0, mode=0):
    """Access columns for one (mode, ad, context) cell."""
    clk = np.zeros((2, ads, contexts), dtype=np.int64)
    imp = np.zeros_like(clk)
    clk[mode, ad, ctx], imp[mode, ad, ctx] = clicks, impressions
    return accesses(clk, imp)


class TestCountWindow:
    def test_direct_aggregation(self):
        w = window(14, 3)
        w.advance_to(0)
        w.add(*one_cell(2, 100))
        w.advance_to(1)
        w.add(*one_cell(1, 100, mode=1))
        w.advance_to(2)
        assert naive_contextual_estimate(*w.totals())[0, 0] == pytest.approx(3 / 200)

    def test_eviction_leaves_no_data(self):
        """Day 0 is read through head L - 1 and not from head L on."""
        w = window(14, 21)
        w.advance_to(0)
        w.add(*one_cell(2, 100))
        w.advance_to(13)
        assert w.totals()[1][0, 0] == 100
        w.advance_to(14)
        assert w.totals()[1][0, 0] == 0
        w.advance_to(20)
        clicks, impressions = w.totals()
        assert impressions[0, 0] == 0
        assert naive_contextual_estimate(clicks, impressions)[0, 0] == PRIOR_MEAN

    def test_streaming_matches_bruteforce_log(self):
        """After 31 streamed days the window equals a sum over the 13 days
        before the head only."""
        rng = np.random.default_rng(22)
        log = []  # (day, clicks, impressions), each (2, ads, contexts)
        w = window(14, 32, 2, 2)
        for day in range(31):
            w.advance_to(day)
            imp = rng.integers(0, 50, size=(2, 2, 2))
            clk = rng.binomial(imp, 0.05)
            w.add(*accesses(clk, imp, seed=day))
            log.append((day, clk.sum(axis=0), imp.sum(axis=0)))
        w.advance_to(31)
        c_ref = sum(c for d, c, n in log if 18 <= d <= 30)
        n_ref = sum(n for d, c, n in log if 18 <= d <= 30)
        clicks, impressions = w.totals()
        np.testing.assert_array_equal(clicks, c_ref)
        np.testing.assert_array_equal(impressions, n_ref)
        seen = n_ref > 0
        np.testing.assert_allclose(naive_contextual_estimate(clicks, impressions)[seen],
                                   c_ref[seen] / n_ref[seen])

    def test_same_day_order_does_not_matter(self):
        events = [one_cell(1, 30, 2), one_cell(0, 20, 2, mode=1), one_cell(2, 40, 2, ad=1)]
        w1, w2 = window(7, 7, 2), window(7, 7, 2)
        for w, order in ((w1, events), (w2, events[::-1])):
            w.advance_to(5)
            for cols in order:
                w.add(*cols)
            w.advance_to(6)
        np.testing.assert_array_equal(w1.clicks, w2.clicks)
        np.testing.assert_array_equal(w1.impressions, w2.impressions)
        for a, b in zip(w1.totals(), w2.totals()):
            np.testing.assert_array_equal(a, b)

    def test_ad_totals_pool_contexts(self):
        w = window(7, 2, 2, 2)
        w.advance_to(0)
        w.add(*accesses(np.array([[[1, 2], [0, 0]], [[0, 0], [0, 0]]]),
                        np.array([[[10, 20], [5, 0]], [[0, 10], [0, 0]]])))
        w.advance_to(1)
        clicks, impressions = w.ad_totals()
        assert clicks.tolist() == [3, 0] and impressions.tolist() == [40, 5]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), length=st.integers(1, 4), ads=st.integers(1, 3),
           contexts=st.integers(1, 3))
    def test_matches_per_day_log(self, data, length, ads, contexts):
        """Random day tables read through random head jumps against
        brute-force sums over the days before the head; adds land in the
        head day, and an out-of-range cell raises ValueError and counts
        nothing."""
        days = 8 * length + 1
        tables = [day_counts(data, ads, contexts) for _ in range(days)]
        clicks = np.array([c for c, n in tables])
        impressions = np.array([n for c, n in tables])
        w = CountWindow(length, clicks, impressions)
        head = 0
        for _ in range(data.draw(st.integers(1, 8))):
            # gaps reach 2L, past the whole window
            head = min(days - 1, head + data.draw(st.integers(0, 2 * length)))
            w.advance_to(head)
            c_ref = np.zeros((ads, contexts), dtype=np.int64)
            n_ref = np.zeros_like(c_ref)
            for day in range(head - length + 1, head):
                if day >= 0:
                    c_ref += clicks[day, 0] + clicks[day, 1]
                    n_ref += impressions[day, 0] + impressions[day, 1]
            got_clicks, got_impressions = w.totals()
            np.testing.assert_array_equal(got_clicks, c_ref)
            np.testing.assert_array_equal(got_impressions, n_ref)
            ad_clicks, ad_impressions = w.ad_totals()
            np.testing.assert_array_equal(ad_clicks, c_ref.sum(axis=1))
            np.testing.assert_array_equal(ad_impressions, n_ref.sum(axis=1))
            assert set(map(tuple, w.keys().tolist())) == set(zip(*np.nonzero(n_ref)))
            want_clicks, want_impressions = clicks.copy(), impressions.copy()
            if data.draw(st.booleans()):
                clk, imp = day_counts(data, ads, contexts)
                w.add(*accesses(clk, imp))
                want_clicks[head] += clk
                want_impressions[head] += imp
            else:
                # one clicked access with one coordinate just outside the tables
                cell = [np.zeros(1, dtype=np.intp) for _ in range(3)]
                axis = data.draw(st.integers(0, 2))
                cell[axis][0] = data.draw(st.sampled_from([-1, (2, ads, contexts)[axis]]))
                with pytest.raises(ValueError):
                    w.add(*cell, np.ones(1, dtype=np.int8))
            np.testing.assert_array_equal(clicks, want_clicks)
            np.testing.assert_array_equal(impressions, want_impressions)

    def test_window_cannot_move_backwards(self):
        w = window(3, 5)
        w.advance_to(4)
        with pytest.raises(ValueError):
            w.advance_to(3)


class TestEstimateMatrix:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), length=st.integers(1, 4), ads=st.integers(1, 5),
           contexts=st.integers(1, 3), estimator=st.sampled_from(["naive", "pooled"]))
    def test_matches_per_key_reference(self, data, length, ads, contexts, estimator):
        """Whole-matrix estimates equal the per-key loops over the dict window."""
        ids = list(range(3, 3 + 2 * ads, 2))
        sites_pos = [(1 + c % 2, 1 + c // 2) for c in range(contexts)]
        dense, ref = window(length, 6 * (length + 1), ads, contexts), DictWindow(length)
        day = -1
        for _ in range(data.draw(st.integers(1, 6))):
            day += data.draw(st.integers(1, length + 1))
            dense.advance_to(day)
            ref.advance_to(day)
            got = estimate_matrix(estimator, dense)
            want = reference_estimate_matrix(estimator, ref, ids, sites_pos)
            assert (got == want).all()
            clk, imp = day_counts(data, ads, contexts)
            dense.add(*accesses(clk, imp))
            clk, imp = clk.sum(axis=0), imp.sum(axis=0)
            for i, c in zip(*np.nonzero(imp)):
                ref.add(day, (ids[i], *sites_pos[c]), int(clk[i, c]), int(imp[i, c]))

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError):
            estimate_matrix("oracle", window(2, 1))


def grid_mle_mean(counts):
    """Brute-force beta-binomial fit: grid search over (alpha, beta)."""
    alphas = np.linspace(0.1, 20, 120)
    betas = np.linspace(1, 400, 160)
    best, best_ll = None, -np.inf
    c = np.array([x[0] for x in counts], dtype=float)
    n = np.array([x[1] for x in counts], dtype=float)
    for a in alphas:
        for b in betas:
            ll = np.sum(special.betaln(a + c, b + n - c) - special.betaln(a, b))
            if ll > best_ll:
                best_ll, best = ll, (a, b)
    return best[0] / (best[0] + best[1])


class TestFitPool:
    def test_zero_variance_falls_back(self):
        hyper = fit_pool(np.array([5, 5, 5]), np.array([100, 100, 100]))
        assert (hyper.alpha, hyper.beta) == (1.0, 19.0)

    def test_one_impression_per_ad_falls_back(self):
        """Sampling variance 1 leaves no across-ad spread to fit (and no 0 divisor)."""
        hyper = fit_pool(np.array([0, 1, 1, 0]), np.array([1, 1, 1, 0]))
        assert (hyper.alpha, hyper.beta) == FALLBACK_HYPER

    def test_no_data_raises(self):
        with pytest.raises(NoData):
            fit_pool(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        with pytest.raises(NoData):
            fit_pool(np.array([0]), np.array([0]))

    def test_two_ad_mean_matches_grid_mle(self):
        """Moment fit's prior mean agrees with a brute-force likelihood grid."""
        counts = [(200, 5000), (300, 5000)]
        hyper = fit_pool(*np.array(counts).T)
        assert hyper.prior_mean == pytest.approx(0.05, abs=1e-12)
        assert grid_mle_mean(counts) == pytest.approx(0.05, abs=0.01)

    def test_recovery_of_generating_prior(self):
        """Fitted pseudo-counts land near the prior that generated the ads."""
        rng = np.random.default_rng(23)
        a_true, b_true, n = 2.0, 38.0, 5000
        ctrs = rng.beta(a_true, b_true, 200)
        clicks = np.array([int(rng.binomial(n, p)) for p in ctrs])
        hyper = fit_pool(clicks, np.full(len(ctrs), n))
        assert hyper.alpha == pytest.approx(a_true, rel=0.25)
        assert hyper.beta == pytest.approx(b_true, rel=0.25)

    def test_positive_params_enforced(self):
        with pytest.raises(ValueError):
            PoolHyperParams(0.0, 19.0)


class TestPooledEstimate:
    def test_prior_mean_with_no_data(self):
        assert pooled_estimate(0, 0, PoolHyperParams(1, 19)) == pytest.approx(0.05)

    def test_large_sample_shrinkage_negligible(self):
        assert pooled_estimate(250, 5000, PoolHyperParams(1, 19)) == pytest.approx(251 / 5020)

    def test_monotone_convergence_to_proportion(self):
        """With c/n fixed, the estimate approaches the raw proportion monotonically."""
        hyper = PoolHyperParams(1, 19)
        p = 0.08
        n = np.array([50, 100, 500, 1000, 5000, 50000])
        gaps = np.abs(pooled_estimate((p * n).astype(np.int64), n, hyper) - p)
        assert (gaps[:-1] >= gaps[1:]).all()

    def test_between_prior_and_proportion(self):
        rng = np.random.default_rng(24)
        hyper = PoolHyperParams(2, 38)
        n = rng.integers(1, 1000, size=500)
        c = rng.integers(0, n + 1)
        est = pooled_estimate(c, n, hyper)
        lo = np.minimum(hyper.prior_mean, c / n)
        hi = np.maximum(hyper.prior_mean, c / n)
        assert ((lo <= est) & (est <= hi)).all()
        moved = c / n != hyper.prior_mean
        assert ((lo < est) & (est < hi))[moved].all()

    @pytest.mark.parametrize("clicks, impressions", [(6, 5), (-1, 0)])
    def test_clicks_outside_range_rejected(self, clicks, impressions):
        with pytest.raises(ValueError):
            pooled_estimate(np.array([[0, clicks]]), np.array([[0, impressions]]),
                            PoolHyperParams(1, 19))
