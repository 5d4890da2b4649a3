"""Selection-bias simulation lab for score-ranked second-price ad auctions."""

from .engine import (
    AbConfig,
    AdSpec,
    BucketSpec,
    BucketTables,
    Context,
    CpcStudyConfig,
    ImpressionLog,
    TrialTable,
    cpc_blocks,
    run_ab_experiment,
    run_cpc_study,
    sample_rank_stats,
)
from .estimators import (
    CountWindow,
    PoolHyperParams,
    fit_pool,
    naive_contextual_estimate,
    pooled_estimate,
)
from .metrics import (
    BiasReport,
    CalibrationReport,
    CpcStats,
    Histogram,
    bias_report,
    build_histogram,
    c_relative,
    cpc_block_stats,
    cpc_summary,
    rtv_rtc,
)
from .oracle import (
    CaseGrid,
    ScoreDistribution,
    SplitVerdict,
    check_splittable,
    conditional_mean_profile,
    rank_table,
    top_rank_decomposition,
)

__version__ = "0.1.0"

__all__ = [
    "AbConfig", "AdSpec", "BucketSpec", "BucketTables", "Context", "CpcStudyConfig",
    "ImpressionLog", "TrialTable",
    "cpc_blocks", "run_ab_experiment", "run_cpc_study", "sample_rank_stats",
    "CountWindow", "PoolHyperParams",
    "fit_pool", "naive_contextual_estimate", "pooled_estimate",
    "BiasReport", "CalibrationReport", "CpcStats", "Histogram",
    "bias_report", "build_histogram", "c_relative", "cpc_block_stats", "cpc_summary",
    "rtv_rtc",
    "CaseGrid", "ScoreDistribution", "SplitVerdict", "check_splittable",
    "conditional_mean_profile", "rank_table", "top_rank_decomposition",
    "__version__",
]
