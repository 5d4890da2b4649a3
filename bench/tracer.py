"""Run one gspbias command in process with span tracing around each layer.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 -X importtime bench/tracer.py SPANS.json -- simulate-cpc --out DIR ...

Wrappers are installed from this file only, at the name each caller looks
up: functions ``gspbias.cli`` imports by name are patched on ``gspbias.cli``;
the estimators and kernels ``gspbias.engine`` calls are patched on
``gspbias.engine``; ``CountWindow`` and ``ScoreDistribution`` methods on
their classes; ``gspbias.rng.unit_uniforms`` on its module; and ``ppf`` on
the ``scipy.stats.binom`` instance.  Each call records a span
``(name, start, end, parent)``; spans and counters stay in memory and are
written to SPANS.json when the command returns.  The traced run is meant
for ``--threads 1``: spans nest on one stack.

Counters that are computed from array shapes or config (enumeration
multiplications, CDF grid reuse, uniforms read) repeat exactly between runs.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

_IMPORT_START = time.perf_counter()
# imported first so that -X importtime gives it a top-level line of its own;
# gspbias imports it lazily through ``from scipy import stats`` otherwise
import scipy.stats  # noqa: E402
from gspbias import cli, engine, estimators, oracle, rng  # noqa: E402
from gspbias.errors import NoData  # noqa: E402
from gspbias.estimators import FALLBACK_HYPER  # noqa: E402
_IMPORT_END = time.perf_counter()

_spans: list = [("setup.import", _IMPORT_START, _IMPORT_END, -1)]
_stack: list[int] = []
counters: Counter = Counter()
_grids: set = set()
_case = [0]


def _traced(name: str, fn, count=None, on_nodata=None):
    def wrapper(*args, **kwargs):
        idx = len(_spans)
        _spans.append(None)
        parent = _stack[-1] if _stack else -1
        _stack.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except NoData:
            if on_nodata is not None:
                on_nodata()
            raise
        finally:
            _spans[idx] = (name, start, time.perf_counter(), parent)
            _stack.pop()
        if count is not None:
            count(args, kwargs, result)
        return result
    return wrapper


def _patch(owner, attr: str, name: str, count=None, on_nodata=None) -> None:
    setattr(owner, attr, _traced(name, getattr(owner, attr), count, on_nodata))


# --- counter hooks: (args, kwargs, result) of the wrapped call ---------------

def _count_uniforms(args, kwargs, result):
    counters["rng.uniforms"] += result.size


def _count_draws(args, kwargs, result):
    counters["engine.invcdf.draws"] += result.size


def _count_cpc(args, kwargs, result):
    config = args[0]
    counters["engine.cpc_study.trials"] += config.trials
    counters["rng.used"] += config.trials * len(config.true_ctrs)


def _count_rank_stats(args, kwargs, result):
    dists, draws = args[0], args[1]
    counters["engine.rank_stats.draws"] += draws
    counters["rng.used"] += draws * len(dists)
    # the oracle evaluates a case's CDF grids after its Monte Carlo draws
    _case[0] = kwargs.get("case_index", 0)


def _count_ab(args, kwargs, result):
    config = args[0]
    accesses = config.days * config.traffic_per_day * len(config.buckets)
    counters["engine.ab.accesses"] += accesses
    counters["rng.used"] += accesses * 4  # context, explore coin, pick, click


def _count_cdf(args, kwargs, result):
    counters["oracle.cdf.points"] += result.size
    counters["oracle.cdf.evaluations"] += 1
    _grids.add((_case[0], id(args[0]), result.size))


def _count_profile(args, kwargs, result):
    # sum over ranks k of C(m-1, k-1) rival subsets, each m-1 grid products
    m = len(args[0])
    counters["oracle.enum_mults"] += 2 ** (m - 1) * (m - 1) * (oracle.SIMPSON_INTERVALS + 1)


def _count_decomposition(args, kwargs, result):
    # ranks 1 and 2 by enumeration, (m-1)(m-1) + (m-1); the full product,
    # m-1; the leave-one-out products, (m-1)(m-2); their weighted sum, m-1
    m = len(args[0])
    counters["oracle.enum_mults"] += 2 * m * (m - 1) * (oracle.SIMPSON_INTERVALS + 1)


def _count_fit_pool(args, kwargs, result):
    if (result.alpha, result.beta) == FALLBACK_HYPER:
        counters["estimators.fit_pool.fallbacks"] += 1


def _fit_pool_nodata():
    counters["estimators.fit_pool.fallbacks"] += 1
    counters["estimators.nodata"] += 1


def _estimate_nodata():
    counters["estimators.nodata"] += 1


def install() -> None:
    """Wrap every layer boundary the three commands cross."""
    for attr in ("write_csv", "write_histogram_csv", "write_impressions_csv",
                 "write_impressions_jsonl", "write_json", "write_trials_csv",
                 "write_trials_jsonl"):
        _patch(cli, attr, "reports")
    _patch(cli.ArtifactSet, "write_manifest", "reports")
    _patch(cli, "load_config", "config.load")
    _patch(cli, "run_cpc_study", "engine.cpc_study", _count_cpc)
    _patch(cli, "sample_rank_stats", "engine.rank_stats", _count_rank_stats)
    _patch(cli, "run_ab_experiment", "engine.ab", _count_ab)
    _patch(cli, "cpc_summary", "metrics.cpc_summary")
    _patch(cli, "bias_report", "metrics.bias_report")
    _patch(cli, "build_histogram", "metrics.histogram")
    _patch(cli, "c_relative", "metrics.calibration")
    _patch(cli, "rtv_rtc", "metrics.calibration")
    _patch(cli, "conditional_mean_profile", "oracle.mean_profile", _count_profile)
    _patch(cli, "conditional_density_profile", "oracle.density_profile", _count_profile)
    _patch(cli, "top_rank_decomposition", "oracle.decomposition", _count_decomposition)
    _patch(cli, "check_splittable", "oracle.splittable")
    _patch(engine, "fit_pool", "estimators.fit_pool", _count_fit_pool, _fit_pool_nodata)
    _patch(engine, "naive_contextual_estimate", "estimators.estimate",
           on_nodata=_estimate_nodata)
    _patch(engine, "pooled_estimate", "estimators.estimate")
    _patch(engine, "estimate_matrix", "engine.estimate_matrix")
    _patch(engine, "rank_contexts", "engine.rank_contexts")
    for attr in ("advance_to", "add", "totals", "ad_totals", "keys"):
        _patch(estimators.CountWindow, attr, "estimators.window")
    _patch(oracle.ScoreDistribution, "ppf", "engine.invcdf", _count_draws)
    _patch(oracle.ScoreDistribution, "cdf", "oracle.cdf", _count_cdf)
    _patch(oracle.ScoreDistribution, "pdf", "oracle.pdf")
    _patch(rng, "unit_uniforms", "rng", _count_uniforms)
    _patch(scipy.stats.binom, "ppf", "engine.invcdf", _count_draws)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    install()
    code = _traced("cli", cli.main)(argv[2:])
    counters["oracle.cdf.distinct_grids"] = len(_grids)
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump({"exit_code": code, "counters": counters, "spans": _spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
