"""Selection-bias simulation lab for score-ranked second-price ad auctions."""

from .auction import (
    Ad,
    AuctionOutcome,
    ScoredAd,
    SelectionEvent,
    build_selection_event,
    gsp_price,
    rank_ads,
    run_auction,
)
from .engine import (
    AbConfig,
    AdSpec,
    BucketSpec,
    Context,
    CpcStudyConfig,
    ImpressionLog,
    TrialTable,
    conditional_rank_samples,
    run_ab_experiment,
    run_cpc_study,
    sample_rank_stats,
)
from .estimators import (
    CountWindow,
    PoolHyperParams,
    binomial_estimate,
    fit_pool,
    naive_contextual_estimate,
    pooled_estimate,
)
from .metrics import (
    BiasReport,
    CalibrationReport,
    Histogram,
    bias_report,
    build_histogram,
    c_relative,
    cpc_summary,
    histogram_overlap,
    rtv_rtc,
    selection_bias,
)
from .oracle import (
    CaseGrid,
    ScoreDistribution,
    SplitVerdict,
    check_splittable,
    conditional_mean_profile,
    rank_prob_given_score,
    top_rank_decomposition,
)

__version__ = "0.1.0"

__all__ = [
    "Ad", "AuctionOutcome", "ScoredAd", "SelectionEvent",
    "build_selection_event", "gsp_price", "rank_ads", "run_auction",
    "AbConfig", "AdSpec", "BucketSpec", "Context", "CpcStudyConfig",
    "ImpressionLog", "TrialTable",
    "conditional_rank_samples", "run_ab_experiment", "run_cpc_study",
    "sample_rank_stats",
    "CountWindow", "PoolHyperParams",
    "binomial_estimate", "fit_pool", "naive_contextual_estimate",
    "pooled_estimate",
    "BiasReport", "CalibrationReport", "Histogram",
    "bias_report", "build_histogram", "c_relative", "cpc_summary",
    "histogram_overlap", "rtv_rtc", "selection_bias",
    "CaseGrid", "ScoreDistribution", "SplitVerdict", "check_splittable",
    "conditional_mean_profile", "rank_prob_given_score", "top_rank_decomposition",
    "__version__",
]
