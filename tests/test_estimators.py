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
# per-key estimator loops that the dense window and the whole-matrix
# estimators replaced.
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
            # in ad-id order, as the dense window sums them
            hyper = reference_fit_pool(dict(sorted(window.ad_totals().items())))
        except NoData:
            hyper = PoolHyperParams(*FALLBACK_HYPER)
        for i, ad_id in enumerate(ids):
            for c, (site, pos) in enumerate(contexts):
                clicks, n = window.totals((ad_id, site, pos))
                est[i, c] = (clicks + hyper.alpha) / (n + hyper.alpha + hyper.beta)
    return est


def day_counts(data, ads, contexts):
    """One day's (clicks, impressions) matrices; small pools keep empty cells common."""
    imp = np.array(data.draw(st.lists(st.sampled_from([0, 0, 1, 3, 40]),
                                      min_size=ads * contexts, max_size=ads * contexts)),
                   dtype=np.int64).reshape(ads, contexts)
    clk = np.array([data.draw(st.integers(0, int(n))) for n in imp.ravel()],
                   dtype=np.int64).reshape(ads, contexts)
    return clk, imp


def one_cell(clicks, impressions, ads=1, contexts=1, ad=0, ctx=0):
    clk = np.zeros((ads, contexts), dtype=np.int64)
    imp = np.zeros_like(clk)
    clk[ad, ctx], imp[ad, ctx] = clicks, impressions
    return clk, imp


class TestCountWindow:
    def test_direct_aggregation(self):
        w = CountWindow(14, 1, 1)
        w.advance_to(0)
        w.add(0, *one_cell(2, 100))
        w.advance_to(1)
        w.add(1, *one_cell(1, 100))
        assert naive_contextual_estimate(*w.totals())[0, 0] == pytest.approx(3 / 200)

    def test_eviction_leaves_no_data(self):
        w = CountWindow(14, 1, 1)
        w.advance_to(0)
        w.add(0, *one_cell(2, 100))
        w.advance_to(20)  # day 0 left the window
        clicks, impressions = w.totals()
        assert impressions[0, 0] == 0
        assert naive_contextual_estimate(clicks, impressions)[0, 0] == PRIOR_MEAN

    def test_streaming_matches_bruteforce_log(self):
        """After 30 streamed days the window equals a sum over the last 14 only."""
        rng = np.random.default_rng(22)
        log = []  # (day, clicks, impressions), each (ads, contexts)
        w = CountWindow(14, 2, 2)
        for day in range(31):
            w.advance_to(day)
            imp = rng.integers(0, 50, size=(2, 2))
            clk = rng.binomial(imp, 0.05)
            w.add(day, clk, imp)
            log.append((day, clk, imp))
        c_ref = sum(c for d, c, n in log if 17 <= d <= 30)
        n_ref = sum(n for d, c, n in log if 17 <= d <= 30)
        clicks, impressions = w.totals()
        np.testing.assert_array_equal(clicks, c_ref)
        np.testing.assert_array_equal(impressions, n_ref)
        seen = n_ref > 0
        np.testing.assert_allclose(naive_contextual_estimate(clicks, impressions)[seen],
                                   c_ref[seen] / n_ref[seen])

    def test_same_day_order_does_not_matter(self):
        events = [one_cell(1, 30, 2), one_cell(0, 20, 2), one_cell(2, 40, 2, ad=1)]
        w1, w2 = CountWindow(7, 2, 1), CountWindow(7, 2, 1)
        for w, order in ((w1, events), (w2, events[::-1])):
            w.advance_to(5)
            for clk, imp in order:
                w.add(5, clk, imp)
        for a, b in zip(w1.totals(), w2.totals()):
            np.testing.assert_array_equal(a, b)

    def test_add_outside_window_rejected(self):
        w = CountWindow(3, 1, 1)
        w.advance_to(10)
        with pytest.raises(ValueError):
            w.add(7, *one_cell(0, 5))
        with pytest.raises(ValueError):
            w.add(11, *one_cell(0, 5))

    def test_ad_totals_pool_contexts(self):
        w = CountWindow(7, 2, 2)
        w.advance_to(0)
        w.add(0, np.array([[1, 2], [0, 0]]), np.array([[10, 30], [5, 0]]))
        clicks, impressions = w.ad_totals()
        assert clicks.tolist() == [3, 0] and impressions.tolist() == [40, 5]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), length=st.integers(1, 4), ads=st.integers(1, 3),
           contexts=st.integers(1, 3))
    def test_matches_per_day_log(self, data, length, ads, contexts):
        """Jumps, late adds and rejected adds against a brute-force per-day log."""
        w = CountWindow(length, ads, contexts)
        log = []  # (day, clicks, impressions)
        head = data.draw(st.integers(0, 2 * length))
        w.advance_to(head)
        for _ in range(data.draw(st.integers(1, 8))):
            action = data.draw(st.sampled_from(["advance", "add", "reject"]))
            if action == "advance":
                # gaps reach 2L, past the whole window
                head += data.draw(st.integers(0, 2 * length))
                w.advance_to(head)
            elif action == "add":
                day = head - data.draw(st.integers(0, length - 1))
                clk, imp = day_counts(data, ads, contexts)
                w.add(day, clk, imp)
                log.append((day, clk, imp))
            else:
                clk, imp = day_counts(data, ads, contexts)
                day = head
                bad = data.draw(st.sampled_from(["late", "future", "clicks", "negative",
                                                 "shape"]))
                if bad == "late":
                    day = head - length - data.draw(st.integers(0, length))
                elif bad == "future":
                    day = head + 1
                elif bad == "clicks":
                    clk[0, 0] = imp[0, 0] + 1
                elif bad == "negative":
                    clk[-1, -1], imp[-1, -1] = -1, -1
                else:
                    clk, imp = np.zeros((ads, contexts + 1), dtype=np.int64), imp
                with pytest.raises(ValueError):
                    w.add(day, clk, imp)
            live = [(c, n) for d, c, n in log if head - length < d <= head]
            c_ref = sum((c for c, n in live), np.zeros((ads, contexts), dtype=np.int64))
            n_ref = sum((n for c, n in live), np.zeros((ads, contexts), dtype=np.int64))
            clicks, impressions = w.totals()
            np.testing.assert_array_equal(clicks, c_ref)
            np.testing.assert_array_equal(impressions, n_ref)
            ad_clicks, ad_impressions = w.ad_totals()
            np.testing.assert_array_equal(ad_clicks, c_ref.sum(axis=1))
            np.testing.assert_array_equal(ad_impressions, n_ref.sum(axis=1))
            assert set(map(tuple, w.keys().tolist())) == set(zip(*np.nonzero(n_ref)))

    def test_window_cannot_move_backwards(self):
        w = CountWindow(3, 1, 1)
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
        dense, ref = CountWindow(length, ads, contexts), DictWindow(length)
        day = -1
        for _ in range(data.draw(st.integers(1, 6))):
            day += data.draw(st.integers(1, length + 1))
            dense.advance_to(day)
            ref.advance_to(day)
            got = estimate_matrix(estimator, dense)
            want = reference_estimate_matrix(estimator, ref, ids, sites_pos)
            assert (got == want).all()
            clk, imp = day_counts(data, ads, contexts)
            dense.add(day, clk, imp)
            for i, c in zip(*np.nonzero(imp)):
                ref.add(day, (ids[i], *sites_pos[c]), int(clk[i, c]), int(imp[i, c]))

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError):
            estimate_matrix("oracle", CountWindow(2, 1, 1))


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
