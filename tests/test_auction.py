import numpy as np
import pytest

from gspbias.errors import EmptyAuction
from reference import (
    Ad,
    DegeneratePrice,
    InvalidScore,
    ScoredAd,
    build_selection_event,
    gsp_price,
    rank_ads,
    run_auction,
)


def scored(*pairs):
    return [ScoredAd(ad_id=i, estimated_ctr=e, score=s) for i, s, e in pairs]


class TestRankAds:
    def test_two_distinct_scores(self):
        ads = scored((1, 0.05, 0.05), (2, 0.04, 0.04))
        assert rank_ads(ads) == [1, 2]

    def test_singleton(self):
        assert rank_ads(scored((7, 0.03, 0.03))) == [7]

    def test_tie_broken_by_ascending_id(self):
        ads = scored((2, 0.05, 0.05), (1, 0.05, 0.05))
        assert rank_ads(ads) == [1, 2]

    def test_empty_raises(self):
        with pytest.raises(EmptyAuction):
            rank_ads([])

    def test_nan_score_raises(self):
        bad = ScoredAd.__new__(ScoredAd)
        object.__setattr__(bad, "ad_id", 1)
        object.__setattr__(bad, "estimated_ctr", 0.5)
        object.__setattr__(bad, "score", float("nan"))
        with pytest.raises(InvalidScore):
            rank_ads([bad])

    def test_negative_score_rejected_at_construction(self):
        with pytest.raises(InvalidScore):
            ScoredAd(ad_id=1, estimated_ctr=0.5, score=-0.1)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            rank_ads(scored((1, 0.05, 0.05), (1, 0.04, 0.04)))


class TestGspPrice:
    def test_unit_bids_price_is_estimate_ratio(self):
        ads = [ScoredAd.from_bid(1, 1.0, 0.05), ScoredAd.from_bid(2, 1.0, 0.04)]
        assert gsp_price(rank_ads(ads), ads) == pytest.approx(0.8)

    def test_equal_scores_price_equals_winner_bid(self):
        ads = [ScoredAd.from_bid(1, 1.0, 0.05), ScoredAd.from_bid(2, 1.0, 0.05)]
        assert gsp_price(rank_ads(ads), ads) == pytest.approx(1.0)

    def test_heterogeneous_bids(self):
        # bids (2, 1), estimates (0.03, 0.05): scores (0.06, 0.05)
        ads = [ScoredAd.from_bid(1, 2.0, 0.03), ScoredAd.from_bid(2, 1.0, 0.05)]
        ranking = rank_ads(ads)
        assert ranking == [1, 2]
        assert gsp_price(ranking, ads) == pytest.approx(0.05 / 0.03)

    def test_single_participant_prices_zero(self):
        ads = [ScoredAd.from_bid(3, 2.0, 0.1)]
        assert gsp_price(rank_ads(ads), ads) == 0.0

    def test_zero_winner_estimate_raises(self):
        ads = [ScoredAd.from_bid(1, 1.0, 0.0), ScoredAd.from_bid(2, 1.0, 0.0)]
        with pytest.raises(DegeneratePrice):
            gsp_price(rank_ads(ads), ads)


class TestAuctionProperties:
    def test_price_dominance(self):
        """The winner never pays more than its own bid."""
        rng = np.random.default_rng(11)
        for _ in range(2000):
            m = rng.integers(2, 6)
            bids = rng.uniform(0.1, 5.0, m)
            ests = rng.uniform(0.001, 0.2, m)
            ads = [ScoredAd.from_bid(i, bids[i], ests[i]) for i in range(m)]
            outcome = run_auction(ads)
            winner_bid = bids[outcome.winner_id]
            assert outcome.cpc <= winner_bid * (1 + 1e-12)

    def test_bid_scale_covariance(self):
        """Scaling every bid by lambda keeps the ranking and scales the price."""
        rng = np.random.default_rng(12)
        for _ in range(500):
            m = rng.integers(2, 6)
            bids = rng.uniform(0.1, 5.0, m)
            ests = rng.uniform(0.001, 0.2, m)
            lam = rng.uniform(0.25, 4.0)
            base = [ScoredAd.from_bid(i, bids[i], ests[i]) for i in range(m)]
            scaled = [ScoredAd.from_bid(i, lam * bids[i], ests[i]) for i in range(m)]
            r1, r2 = rank_ads(base), rank_ads(scaled)
            assert r1 == r2
            np.testing.assert_allclose(gsp_price(r2, scaled), lam * gsp_price(r1, base),
                                       rtol=1e-9)

    def test_expected_cost_identity(self):
        """price x winner estimate equals the runner-up score."""
        rng = np.random.default_rng(13)
        for _ in range(500):
            m = rng.integers(2, 6)
            ads = [ScoredAd.from_bid(i, rng.uniform(0.1, 5.0), rng.uniform(0.01, 0.2))
                   for i in range(m)]
            outcome = run_auction(ads)
            np.testing.assert_allclose(outcome.cpc * ads[outcome.winner_id].estimated_ctr,
                                       outcome.runner_up_score, rtol=1e-12)


class TestSelectionEvent:
    def test_two_ads_single_constraint(self):
        ads = [Ad(1, 1.0, 0.05), Ad(2, 1.0, 0.04)]
        event = build_selection_event(ads, 1)
        np.testing.assert_array_equal(event.matrix, [[1.0, -1.0]])
        assert event.contains([0.05, 0.04])

    def test_three_ads_matrix_layout(self):
        ads = [Ad(1, 1.0, 0.05), Ad(2, 2.0, 0.04), Ad(3, 1.0, 0.03)]
        event = build_selection_event(ads, 1)
        np.testing.assert_array_equal(event.matrix, [[1.0, -2.0, 0.0], [1.0, 0.0, -1.0]])
        assert event.participant_ids == (1, 2, 3)

    def test_candidate_reordered_first(self):
        ads = [Ad(1, 1.0, 0.05), Ad(2, 2.0, 0.04), Ad(3, 1.5, 0.03)]
        event = build_selection_event(ads, 2)
        np.testing.assert_array_equal(event.matrix, [[2.0, -1.0, 0.0], [2.0, 0.0, -1.5]])
        assert event.participant_ids == (2, 1, 3)

    def test_single_ad_raises(self):
        with pytest.raises(EmptyAuction):
            build_selection_event([Ad(1, 1.0, 0.05)], 1)

    def test_unknown_candidate_raises(self):
        with pytest.raises(ValueError):
            build_selection_event([Ad(1, 1.0, 0.05), Ad(2, 1.0, 0.04)], 9)

    def test_membership_matches_ranking_on_random_auctions(self):
        """A y >= 0 holds exactly when the candidate tops the ranking (no ties)."""
        rng = np.random.default_rng(14)
        for _ in range(2000):
            m = int(rng.integers(2, 6))
            bids = rng.uniform(0.1, 5.0, m)
            ests = rng.uniform(0.001, 0.2, m)
            ads = [Ad(i + 1, float(bids[i]), 0.05) for i in range(m)]
            scored_ads = [ScoredAd.from_bid(i + 1, float(bids[i]), float(ests[i]))
                          for i in range(m)]
            winner = rank_ads(scored_ads)[0]
            for candidate in range(1, m + 1):
                event = build_selection_event(ads, candidate)
                y = [ests[candidate - 1]] + [ests[j] for j in range(m) if j != candidate - 1]
                assert event.contains(y) == (candidate == winner)


class TestTypeInvariants:
    def test_ad_validation(self):
        with pytest.raises(ValueError):
            Ad(1, -1.0, 0.05)
        with pytest.raises(ValueError):
            Ad(1, 1.0, 1.5)

    def test_scored_ad_estimate_range(self):
        with pytest.raises(ValueError):
            ScoredAd(ad_id=1, estimated_ctr=1.2, score=0.5)

    def test_from_bid_stores_exact_product(self):
        ad = ScoredAd.from_bid(4, 1.7, 0.055)
        assert ad.score == 1.7 * 0.055
