"""Command-line front end for the three reproduction runs.

Subcommands: ``simulate-cpc`` (repeated-auction price study), ``verify-theorems``
(quadrature oracle vs Monte Carlo rank sampling), ``ab-run`` (two-bucket
traffic experiment).  Each writes its artifacts plus a manifest into --out.

Exit codes: 0 success, 1 verification failure, 2 I/O error, 3 config error
(or another domain error that the config's values lead to).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    CpcSuite,
    LoadedConfig,
    TheoremSuite,
    config_dict,
    load_config,
)
from .engine import (
    AbConfig,
    CpcStudyConfig,
    run_ab_experiment,
    run_cpc_study,
    sample_rank_stats,
)
from .errors import (
    ConfigError,
    GspBiasError,
    RankUnreachable,
    UndefinedCalibration,
    UndefinedRatio,
)
from .metrics import bias_report, build_histogram, c_relative, cpc_summary, rtv_rtc
from .oracle import (
    CaseGrid,
    check_splittable,
    conditional_density_profile,
    conditional_mean_profile,
    rank_table,
    top_rank_decomposition,
)
from .reports import (
    ArtifactSet,
    write_csv,
    write_histogram_csv,
    write_impressions_csv,
    write_impressions_jsonl,
    write_json,
    write_trials_csv,
    write_trials_jsonl,
)

ENV_SEED = "GSPBIAS_SEED"
DEFAULT_CONFIGS = {
    "simulate-cpc": "table2.cfg",
    "verify-theorems": "theorems.cfg",
    "ab-run": "ab.cfg",
}

MEAN_INEQUALITY_SLACK = 1e-6
DECOMPOSITION_TOL = 1e-6
MC_AGREEMENT_SIGMA = 4.0
MIN_MC_COUNT = 1000


def _load(args, command: str) -> LoadedConfig:
    if args.config is not None:
        loaded = load_config(args.config)
    else:
        packaged = resources.files("gspbias").joinpath("configs", DEFAULT_CONFIGS[command])
        with resources.as_file(packaged) as path:
            loaded = load_config(path)
    if loaded.command != command:
        raise ConfigError("config.command",
                          f"config is for {loaded.command!r}, invoked {command!r}")
    return loaded


def _resolve_seed(cli_seed: int | None, config_seed: int | None) -> int:
    if cli_seed is None and config_seed is not None:
        return config_seed  # config load holds it >= 0
    source, raw = "--seed", cli_seed
    if cli_seed is None:
        source, raw = ENV_SEED, os.environ.get(ENV_SEED)
    if raw is None:
        raise ConfigError("seed", f"no seed given; use --seed, a config seed, or {ENV_SEED}")
    try:
        seed = int(raw)
    except ValueError:
        raise ConfigError("seed", f"{ENV_SEED} is not an integer: {raw!r}") from None
    if seed < 0:
        raise ConfigError("seed", f"{source} must be >= 0, got {seed}")
    return seed


def _nn(x) -> float | None:
    """NaN/inf to None so reports serialize cleanly."""
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


# ---------------------------------------------------------------------------
# simulate-cpc
# ---------------------------------------------------------------------------

def cmd_simulate_cpc(args) -> int:
    t0 = time.monotonic()
    loaded = _load(args, "simulate-cpc")
    suite: CpcSuite = loaded.payload
    seed = _resolve_seed(args.seed, loaded.seed)
    n_trials = args.trials if args.trials is not None else suite.trials
    arts = ArtifactSet(args.out)
    bids = np.asarray(suite.bids)
    table_rows = []
    settings_payload = {}
    for idx, setting in enumerate(suite.settings):
        cfg = CpcStudyConfig(
            name=setting.name, impressions=setting.impressions,
            true_ctrs=setting.true_ctrs, bids=suite.bids,
            trials=n_trials, seed=seed, setting_index=idx, threads=args.threads,
        )
        trials = run_cpc_study(cfg)
        summary = cpc_summary(trials, setting.true_ctrs, suite.bids)
        mean, ratio = _nn(summary.mean_observed_cpc), _nn(summary.ratio)
        # an undefined value is an empty cell, as in calibration_table.csv
        table_rows.append((f"({setting.name})", summary.expected_cpc,
                           "" if mean is None else mean, "" if ratio is None else ratio))
        cpcs = trials.cpc[~trials.degenerate]
        if cpcs.size:
            write_histogram_csv(arts.path(f"cpc_hist_{setting.name}.csv"),
                                build_histogram(cpcs, suite.cpc_hist_width))
        for rank in range(1, len(setting.true_ctrs) + 1):
            holders = trials.order[:, rank - 1]
            ordered = trials.estimates[np.arange(len(trials)), holders] * bids[holders]
            write_histogram_csv(arts.path(f"ordstat_hist_{setting.name}_rank{rank}.csv"),
                                build_histogram(ordered, suite.score_hist_width))
        entry = {
            "expected_cpc": summary.expected_cpc,
            "mean_observed_cpc": mean,
            "ratio": ratio,
            "observed_se": _nn(summary.observed_se),
            "ratio_of_means": _nn(summary.ratio_of_means),
            "ratio_of_means_se": _nn(summary.ratio_of_means_se),
            "degenerate_trials": summary.degenerate_trials,
            "trials": n_trials,
        }
        if summary.trials_used == 0:
            entry["ratio_undefined_reason"] = ("every trial is degenerate (top estimate 0), "
                                               "so no price was observed")
        elif ratio is None:
            entry["ratio_undefined_reason"] = ("expected CPC is 0 "
                                               "(no runner-up, or its true score is 0)")
        try:
            rep = bias_report(trials, setting.true_ctrs, suite.bids, suite.score_hist_width)
            entry["per_rank"] = [{
                "rank": r.rank,
                "bias_factor": r.bias_factor,
                "bias_se": _nn(r.bias_se),
                "conditional_score_mean": r.conditional_score_mean,
                "conditional_score_se": _nn(r.conditional_score_se),
                "samples": r.samples,
            } for r in rep.per_rank]
            entry["adjacent_splittable"] = list(rep.adjacent_splittable)
        except RankUnreachable as exc:
            entry["per_rank"] = None
            entry["unavailable_reason"] = str(exc)
        settings_payload[setting.name] = entry
        if args.emit_trials:
            if args.format in ("csv", "both"):
                write_trials_csv(arts.path(f"trials_{setting.name}.csv"), trials)
            if args.format in ("json", "both"):
                write_trials_jsonl(arts.path(f"trials_{setting.name}.jsonl"), trials)
    write_csv(arts.path("table2.csv"),
              ["setting", "expected_cpc", "mean_observed_cpc", "ratio"], table_rows)
    write_json(arts.path("bias_report.json"),
               {"seed": seed, "settings": settings_payload})
    arts.write_manifest("simulate-cpc", config_dict(loaded, seed), seed,
                        time.monotonic() - t0, __version__, args.threads)
    return 0


# ---------------------------------------------------------------------------
# verify-theorems
# ---------------------------------------------------------------------------

def _verify_case(grid: CaseGrid, mc, case_pass_state: dict) -> list[dict]:
    m = len(grid)
    candidates = []
    for i in range(m):
        # one rank table per candidate; the density profile, last, normalizes it in place
        table = rank_table(grid.cdf, i)
        profile = conditional_mean_profile(grid, i, table)
        qmeans = profile.conditional_means
        ineq_checked = ineq_skipped = 0
        ineq_ok = True
        for k in range(m - 1):
            if np.isnan(qmeans[k]) or np.isnan(qmeans[k + 1]):
                ineq_skipped += 1
                continue
            ineq_checked += 1
            if not qmeans[k] >= qmeans[k + 1] - MEAN_INEQUALITY_SLACK:
                ineq_ok = False
        mc_checked = mc_skipped = 0
        mc_ok = True
        max_sigma = 0.0
        for k in range(m):
            count = mc.counts[i, k]
            if np.isnan(qmeans[k]) or count < MIN_MC_COUNT or np.isnan(mc.std_errors[i, k]):
                mc_skipped += 1
                continue
            mc_checked += 1
            sigma = abs(mc.means[i, k] - qmeans[k]) / mc.std_errors[i, k]
            max_sigma = max(max_sigma, sigma)
            if sigma > MC_AGREEMENT_SIGMA:
                mc_ok = False
        if m >= 2:
            try:
                dec = top_rank_decomposition(grid, i, table=table)
                dec_ok = (abs(dec.residual) <= DECOMPOSITION_TOL
                          and dec.plus_monotone and dec.minus_monotone)
                dec_entry = {"residual": dec.residual,
                             "plus_monotone": dec.plus_monotone,
                             "minus_monotone": dec.minus_monotone,
                             "passed": dec_ok}
            except RankUnreachable as exc:
                dec_ok = True
                dec_entry = {"skipped": str(exc)}
        else:
            dec_ok = True
            dec_entry = {"skipped": "single ad has no adjacent rank"}
        nodes, dens = conditional_density_profile(grid, i, table)
        split_entries = []
        split_ok = True
        for k in range(m - 1):
            if np.isnan(dens[k]).any() or np.isnan(dens[k + 1]).any():
                split_entries.append({"ranks": [k + 1, k + 2], "skipped": "rank unreachable"})
                continue
            verdict = check_splittable(dens[k], dens[k + 1], 0.0)
            entry = {"ranks": [k + 1, k + 2], "splittable": verdict.splittable}
            if verdict.splittable:
                entry["split_at"] = float(nodes[verdict.split_index])
            else:
                split_ok = False
            split_entries.append(entry)
        cand_pass = ineq_ok and mc_ok and dec_ok and split_ok
        case_pass_state["ok"] = case_pass_state["ok"] and cand_pass
        candidates.append({
            "candidate": i,
            "marginals": [float(x) for x in profile.marginals],
            "quadrature_means": [_nn(x) for x in qmeans],
            "mc_means": [_nn(x) for x in mc.means[i]],
            "mc_std_errors": [_nn(x) for x in mc.std_errors[i]],
            "mc_counts": [int(x) for x in mc.counts[i]],
            "mean_inequality": {"passed": ineq_ok, "checked": ineq_checked,
                                "skipped": ineq_skipped},
            "mc_agreement": {"passed": mc_ok, "max_sigma": max_sigma,
                             "checked": mc_checked, "skipped": mc_skipped},
            "decomposition": dec_entry,
            "splittability": {"passed": split_ok, "pairs": split_entries},
            "passed": cand_pass,
        })
    return candidates


def cmd_verify_theorems(args) -> int:
    t0 = time.monotonic()
    loaded = _load(args, "verify-theorems")
    suite: TheoremSuite = loaded.payload
    seed = _resolve_seed(args.seed, loaded.seed)
    draws = args.trials if args.trials is not None else suite.mc_draws
    arts = ArtifactSet(args.out)
    cases_payload = []
    case_runs = []  # for the manifest
    all_pass = True
    for idx, case in enumerate(suite.cases):
        t_grid = time.monotonic()
        grid = CaseGrid(case.distributions())  # CDF and PDF rows, dropped when the case ends
        t_mc = time.monotonic()
        mc = sample_rank_stats(grid, draws, seed, case_index=idx, threads=args.threads)
        t_check = time.monotonic()
        state = {"ok": True}
        candidates = _verify_case(grid, mc, state)
        del grid
        case_runs.append({"name": case.name, "exact_draws": mc.exact_draws,
                          "grid_seconds": round(t_mc - t_grid, 3),
                          "mc_seconds": round(t_check - t_mc, 3),
                          "check_seconds": round(time.monotonic() - t_check, 3)})
        all_pass = all_pass and state["ok"]
        cases_payload.append({
            "name": case.name,
            "dists": list(case.dist_specs),
            "ads": len(candidates),
            "passed": state["ok"],
            "candidates": candidates,
        })
    write_json(arts.path("theorem_report.json"), {
        "seed": seed,
        "mc_draws": draws,
        "passed": all_pass,
        "cases": cases_payload,
    })
    arts.write_manifest("verify-theorems", config_dict(loaded, seed), seed,
                        time.monotonic() - t0, __version__, args.threads, cases=case_runs)
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# ab-run
# ---------------------------------------------------------------------------

def cmd_ab_run(args) -> int:
    t0 = time.monotonic()
    loaded = _load(args, "ab-run")
    seed = _resolve_seed(args.seed, loaded.seed)
    cfg: AbConfig = dataclasses.replace(loaded.payload, seed=seed)
    arts = ArtifactSet(args.out)
    logs = run_ab_experiment(cfg)
    eval_logs = {name: log.after_day(cfg.burn_in_days) for name, log in logs.items()}
    models = {}
    table_rows = []
    for bucket in cfg.buckets:
        entry: dict = {"estimator": bucket.estimator,
                       "records": len(logs[bucket.name]),
                       "evaluation_records": len(eval_logs[bucket.name])}
        try:
            rep = c_relative(eval_logs[bucket.name])
            entry.update({
                "calibration_greedy": rep.calibration_greedy,
                "calibration_random": rep.calibration_random,
                "c_relative": rep.c_relative,
                "bid_weighted_greedy": rep.bid_weighted_greedy,
                "bid_weighted_random": rep.bid_weighted_random,
                "bid_weighted_c_relative": rep.bid_weighted_c_relative,
                "greedy_clicks": rep.greedy_clicks,
                "random_clicks": rep.random_clicks,
            })
            table_rows.append((bucket.name, rep.c_relative, rep.bid_weighted_c_relative))
        except UndefinedCalibration as exc:
            entry.update({"c_relative": None, "undefined_reason": str(exc)})
            table_rows.append((bucket.name, "", ""))
        models[bucket.name] = entry
        if args.format in ("csv", "both"):
            write_impressions_csv(arts.path(f"impressions_{bucket.name}.csv"),
                                  logs[bucket.name])
        if args.format in ("json", "both"):
            write_impressions_jsonl(arts.path(f"impressions_{bucket.name}.jsonl"),
                                    logs[bucket.name])
    write_csv(arts.path("calibration_table.csv"),
              ["model", "non_weighted", "bid_weighted"], table_rows)
    write_json(arts.path("calibration_report.json"), {
        "seed": seed,
        "evaluation_first_day": cfg.burn_in_days,
        "models": models,
    })
    base, comp = cfg.buckets[0].name, cfg.buckets[1].name
    try:
        rel = rtv_rtc(eval_logs[base], eval_logs[comp])
        rel_payload = {"rtv": rel.rtv, "rtc": rel.rtc}
    except UndefinedRatio as exc:
        rel_payload = {"rtv": None, "rtc": None, "undefined_reason": str(exc)}
    rel_payload.update({"baseline_bucket": base, "comparison_bucket": comp})
    write_json(arts.path("rtv_rtc.json"), rel_payload)
    arts.write_manifest("ab-run", config_dict(loaded, seed), seed,
                        time.monotonic() - t0, __version__, args.threads)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gspbias",
        description="Selection-bias simulation lab for score-ranked second-price auctions.",
    )
    parser.add_argument("--version", action="version", version=f"gspbias {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("simulate-cpc", cmd_simulate_cpc,
         "Run the repeated-auction price study and write its tables and histograms"),
        ("verify-theorems", cmd_verify_theorems,
         "Check quadrature conditional means against Monte Carlo rank sampling"),
        ("ab-run", cmd_ab_run,
         "Run the two-bucket traffic experiment and write calibration metrics"),
    ]
    for name, func, help_text in specs:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", type=Path, default=None,
                        help="config file (defaults to the packaged config)")
        sp.add_argument("--out", type=Path, required=True, help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help=f"master seed (overrides config; {ENV_SEED} is the fallback)")
        sp.add_argument("--trials", type=int, default=None,
                        help="override trial/draw count")
        sp.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                        help="worker threads; never affects output bytes")
        sp.add_argument("--format", choices=("csv", "json", "both"), default="csv",
                        help="record log format")
        if name == "simulate-cpc":
            sp.add_argument("--emit-trials", action="store_true",
                            help="also write per-trial logs")
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.trials is not None and args.trials < 1:
        print("config error: trials must be >= 1", file=sys.stderr)
        return 3
    if args.threads < 1:
        print("config error: threads must be >= 1", file=sys.stderr)
        return 3
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except GspBiasError as exc:  # a domain error from config values, never exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
