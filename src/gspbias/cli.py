"""Command-line front end for the three reproduction runs.

Subcommands: ``simulate-cpc`` (repeated-auction price study), ``verify-theorems``
(quadrature oracle vs Monte Carlo rank sampling), ``ab-run`` (two-bucket
traffic experiment).  Each writes its artifacts plus a manifest into --out.

Exit codes: 0 success, 1 verification failure, 2 I/O error, 3 config error
(also a rejected command line, or another domain error that the config's
values lead to).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import os
import sys
import time
from importlib import resources
from pathlib import Path

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import numpy as np

from . import __version__
from .config import CpcSuite, LoadedConfig, TheoremSuite, load_config
from .engine import (
    BLOCK,
    AbConfig,
    run_ab_experiment,
    run_cpc_study,
    sample_rank_stats,
    worker_map,
)
from .errors import (
    ConfigError,
    GspBiasError,
    RankUnreachable,
    UndefinedCalibration,
    UndefinedRatio,
)
from .metrics import (
    bias_report,
    build_histogram,
    c_relative,
    cpc_block_stats,
    cpc_summary,
    rtv_rtc,
)
from .oracle import (
    CaseGrid,
    check_splittable,
    conditional_density_profile,
    conditional_mean_profile,
    rank_table,
    special_kernels,
    top_rank_decomposition,
)
from .reports import (
    ArtifactSet,
    open_impressions,
    open_trials,
    record_codes,
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
MC_AGREEMENT_SIGMA = 4.0
MIN_MC_COUNT = 1000


def _load(args) -> LoadedConfig:
    command = args.command
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


def _record(value):
    """A result as its report record: a dataclass by field name, dicts by
    key, tuples and numpy arrays as lists, and a float that is not finite
    as None, so reports serialize cleanly."""
    if dataclasses.is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {key: _record(v) for key, v in value.items()}
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (tuple, list)):
        return [_record(v) for v in value]
    if isinstance(value, float):
        return float(value) if math.isfinite(value) else None
    return value


def _load_kernels() -> float:
    """Load scipy's special-function kernels; the seconds that took, timed
    apart so that no setting's or case's time includes the first import."""
    t_import = time.monotonic()
    special_kernels()
    return round(time.monotonic() - t_import, 3)


# ---------------------------------------------------------------------------
# simulate-cpc
# ---------------------------------------------------------------------------

def cmd_simulate_cpc(args, suite: CpcSuite, seed: int, arts: ArtifactSet) -> tuple[int, dict]:
    """Each setting's trials, one block at a time in the calling thread:
    each block's rows are appended to the trial logs, and the block is
    reduced to ``CpcStats`` and merged, so the tables, histograms and bias
    report come from merged statistics."""
    table_rows = []
    settings_payload = {}
    setting_runs = []  # for the manifest
    kernel_import_seconds = _load_kernels()
    widths = (suite.cpc_hist_width, suite.score_hist_width)
    for setting in suite.settings:
        t_setting = time.monotonic()
        cfg = dataclasses.replace(setting, seed=seed, trials=(
            setting.trials if args.trials is None else args.trials))
        with contextlib.ExitStack() as files:
            sinks = []  # (file, writer) pairs
            for fmt, suffix, writer in (("csv", "csv", write_trials_csv),
                                        ("json", "jsonl", write_trials_jsonl)):
                if args.emit_trials and (args.format or "csv") in (fmt, "both"):
                    path = arts.path(f"trials_{cfg.name}.{suffix}")
                    sinks.append((files.enter_context(
                        open_trials(path, fmt, len(cfg.true_ctrs))), writer))

            def write(block) -> None:
                for sink, writer in sinks:
                    writer(sink, block)

            # build_histogram by this module's name, which bench/tracer.py wraps
            stats = run_cpc_study(cfg, lambda block: cpc_block_stats(
                block, cfg.true_ctrs, cfg.bids, widths, build_histogram), write)
        summary = cpc_summary(stats, cfg.true_ctrs, cfg.bids)
        entry = {**_record(summary), "trials": cfg.trials}
        mean, ratio = entry["mean_observed_cpc"], entry["ratio"]
        # an undefined value is an empty cell, as in calibration_table.csv
        table_rows.append((f"({cfg.name})", summary.expected_cpc,
                           "" if mean is None else mean, "" if ratio is None else ratio))
        if stats.cpc_hist is not None:
            write_histogram_csv(arts.path(f"cpc_hist_{cfg.name}.csv"), stats.cpc_hist)
        for rank, hist in enumerate(stats.rank_hists, 1):
            write_histogram_csv(arts.path(f"ordstat_hist_{cfg.name}_rank{rank}.csv"), hist)
        if summary.degenerate_trials == cfg.trials:
            entry["ratio_undefined_reason"] = ("every trial is degenerate (top estimate 0), "
                                               "so no price was observed")
        elif ratio is None:
            entry["ratio_undefined_reason"] = ("expected CPC is 0 "
                                               "(no runner-up, or its true score is 0)")
        if summary.observed_se is None:  # so is ratio_of_means_se
            entry["se_undefined_reason"] = (
                "standard errors need at least 2 non-degenerate trials, got "
                f"{cfg.trials - summary.degenerate_trials}")
        try:
            entry.update(_record(bias_report(stats)))
        except RankUnreachable as exc:
            entry["per_rank"] = None
            entry["unavailable_reason"] = str(exc)
        settings_payload[cfg.name] = entry
        setting_runs.append({"name": cfg.name, "trials": cfg.trials,
                             "seconds": round(time.monotonic() - t_setting, 3)})
    write_csv(arts.path("table2.csv"),
              ["setting", "expected_cpc", "mean_observed_cpc", "ratio"], table_rows)
    write_json(arts.path("bias_report.json"),
               {"seed": seed, "settings": settings_payload})
    return 0, {"kernel_import_seconds": kernel_import_seconds, "settings": setting_runs}


# ---------------------------------------------------------------------------
# verify-theorems
# ---------------------------------------------------------------------------

def _verdict(ok: np.ndarray, made: np.ndarray, **fields) -> dict:
    """A counted check: ``made`` marks the comparisons that could be made and
    ``ok`` holds the outcome of each one made; the others count as skipped."""
    checked = int(np.count_nonzero(made))
    return {"passed": bool(np.all(ok)), "checked": checked, "skipped": made.size - checked,
            **fields}


def _mc_agreement(reference, means, std_errors, counts) -> dict:
    """Monte Carlo means against ``reference``, rank by rank: each agrees
    within MC_AGREEMENT_SIGMA standard errors, compared where the reference
    is defined, the standard error is defined and above 0, and at least
    MIN_MC_COUNT draws held the rank."""
    made = ~np.isnan(reference) & (counts >= MIN_MC_COUNT) & (std_errors > 0)
    sigma = np.abs(means[made] - reference[made]) / std_errors[made]
    return _verdict(sigma <= MC_AGREEMENT_SIGMA, made, max_sigma=np.max(sigma, initial=0.0))


def _mass_agreement(reference, counts, draws: int) -> dict:
    """Monte Carlo rank counts against the rank masses ``reference``, rank
    by rank: z = (count / N - p) / sqrt(p (1 - p) / N) within
    MC_AGREEMENT_SIGMA, for N draws, compared where N p and N (1 - p) are
    both at least MIN_MC_COUNT.  A scale error in a rank-table row cancels
    in the conditional means and densities, but not here."""
    made = (draws * reference >= MIN_MC_COUNT) & (draws * (1.0 - reference) >= MIN_MC_COUNT)
    p = reference[made]
    sigma = np.abs(counts[made] / draws - p) / np.sqrt(p * (1.0 - p) / draws)
    return _verdict(sigma <= MC_AGREEMENT_SIGMA, made, max_sigma=np.max(sigma, initial=0.0))


def _quadrature_checks(grid: CaseGrid, i: int) -> dict:
    """Candidate i's quadrature record: its rank masses, conditional means
    and the verdicts on them.  Its rank table is built once and dies on
    return, so a case holds one candidate's at a time; the checks read it
    a leaf at a time."""
    # the density profile, last, normalizes the table in place
    table = rank_table(grid, i)
    profile = conditional_mean_profile(grid, i, table)
    # rank k against rank k + 1, where both are reachable
    better, worse = profile.conditional_means[:-1], profile.conditional_means[1:]
    reached = ~(np.isnan(better) | np.isnan(worse))
    try:
        decomposition = top_rank_decomposition(grid, i, table, profile.marginals)
    except RankUnreachable as exc:
        decomposition = {"skipped": str(exc)}
    dens = conditional_density_profile(grid, i, table, profile.marginals)
    pairs = [{"ranks": (k, k + 1)} for k in range(1, len(grid))]
    for k, pair in enumerate(pairs):  # ranks k + 1 and k + 2
        if np.isnan(dens[k]).any() or np.isnan(dens[k + 1]).any():
            pair["skipped"] = "rank unreachable"
            continue
        verdict = check_splittable(dens[k], dens[k + 1], 0.0)
        pair["splittable"] = verdict.splittable
        if verdict.splittable:
            pair["split_at"] = grid.s[verdict.split_index]
    return _record({
        "marginals": profile.marginals,
        "quadrature_means": profile.conditional_means,
        "mean_inequality": _verdict(
            better[reached] >= worse[reached] - MEAN_INEQUALITY_SLACK, reached),
        "decomposition": decomposition,
        "splittability": {"passed": all(p.get("splittable", True) for p in pairs),
                          "pairs": pairs},
    })


def _peak_rss() -> dict:
    """The process's peak resident set so far, in MB, or why it is unknown.

    Linux's ``VmHWM`` is this process's own peak; its ``ru_maxrss`` starts at
    the peak of the process that launched it, so that is only the fallback.
    """
    with contextlib.suppress(OSError), open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):  # "VmHWM:   13660 kB"
                return {"peak_rss_mb": round(int(line.split()[1]) / 2 ** 10, 1)}
    if resource is None:
        return {"peak_rss_mb": None,
                "peak_rss_reason": "the resource module is not available on this platform"}
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in bytes on macOS and in KiB on Linux and the BSDs
    return {"peak_rss_mb": round(peak / (2 ** 20 if sys.platform == "darwin" else 2 ** 10), 1)}


def cmd_verify_theorems(args, suite: TheoremSuite, seed: int,
                        arts: ArtifactSet) -> tuple[int, dict]:
    """Each case: its grid, its Monte Carlo moments, then its candidates'
    checks.  A candidate's quadrature checks depend on its own distribution
    and on its rivals' in the order the rank table folds them in, so they
    run once per distinct pair of those.  Beta work alone goes to the worker
    map: grid slices and safe-cell flags exist only for beta rows, and a
    case's MC blocks go there only when it has a beta row: a uniform block
    is short numpy calls that hold the interpreter lock, so it gains little
    on threads, and its freed arrays stay resident in a helper's own malloc
    heap.  Rank tables are folded in the calling thread."""
    draws = args.trials if args.trials is not None else suite.mc_draws
    cases_payload = []
    case_runs = []  # for the manifest
    kernel_import_seconds = 0.0
    if any(d.kind == "scaled-beta" for case in suite.cases for d in case.dists):
        kernel_import_seconds = _load_kernels()
    with worker_map(args.threads) as pmap:
        for idx, case in enumerate(suite.cases):
            t_grid = time.monotonic()
            # the rows, dropped when the case ends; the draw tables live only in the MC
            grid = CaseGrid(case.dists, pmap)
            t_mc = time.monotonic()
            mc_map = pmap if grid.rows else map
            mc = sample_rank_stats(grid, draws, seed, case_index=idx, map=mc_map)
            grid_mb = round((grid.nbytes + mc.table_bytes) / 2 ** 20, 3)
            t_check = time.monotonic()
            checks = {}
            candidates = []
            for i, own in enumerate(case.dists):
                key = own, case.dists[:i] + case.dists[i + 1:]
                if key not in checks:
                    checks[key] = _quadrature_checks(grid, i)
                means, errors, counts = mc.means[i], mc.std_errors[i], mc.counts[i]
                reference = np.array(checks[key]["quadrature_means"], dtype=float)
                masses = np.array(checks[key]["marginals"], dtype=float)
                candidate = _record({
                    "candidate": i, **checks[key], "mc_means": means, "mc_std_errors": errors,
                    "mc_counts": counts,
                    "mc_agreement": _mc_agreement(reference, means, errors, counts),
                    "mass_agreement": _mass_agreement(masses, counts, draws)})
                # it passes when each of its verdicts does; a skipped one has no "passed"
                candidates.append({**candidate, "passed": all(
                    v.get("passed", True) for v in candidate.values() if isinstance(v, dict))})
            del grid
            case_runs.append({"name": case.name, "exact_draws": mc.exact_draws,
                              "quadrature_candidates": len(checks), "grid_mb": grid_mb,
                              # a one-task call of the worker map runs in the calling thread
                              "mc_threads": (min(args.threads, math.ceil(draws / BLOCK))
                                             if mc_map is pmap else 1),
                              "grid_seconds": round(t_mc - t_grid, 3),
                              "mc_seconds": round(t_check - t_mc, 3),
                              "check_seconds": round(time.monotonic() - t_check, 3),
                              **_peak_rss()})
            cases_payload.append({
                "name": case.name,
                "dists": list(case.dist_specs),
                "ads": len(candidates),
                "passed": all(c["passed"] for c in candidates),
                "candidates": candidates,
            })
    all_pass = all(case["passed"] for case in cases_payload)
    comparisons = sum(c[name]["checked"] for case in cases_payload for c in case["candidates"]
                      for name in ("mc_agreement", "mass_agreement"))
    write_json(arts.path("theorem_report.json"), {
        "seed": seed,
        "mc_draws": draws,
        "mc_comparisons": comparisons,
        # comparisons past MC_AGREEMENT_SIGMA by chance alone, were they independent normals
        "mc_expected_exceedances": comparisons * math.erfc(MC_AGREEMENT_SIGMA / math.sqrt(2)),
        "passed": all_pass,
        "cases": cases_payload,
    })
    return (0 if all_pass else 1), {"cases": case_runs,
                                    "kernel_import_seconds": kernel_import_seconds}


# ---------------------------------------------------------------------------
# ab-run
# ---------------------------------------------------------------------------

def cmd_ab_run(args, plan: AbConfig, seed: int, arts: ArtifactSet) -> tuple[int, dict]:
    """Serve both buckets, writing each block of impressions as it is served,
    then report calibration and relative value from the day tables."""
    cfg = dataclasses.replace(plan, seed=seed)
    written = {}  # bucket name -> when its last block was written
    write_seconds = dict.fromkeys((bucket.name for bucket in cfg.buckets), 0.0)
    with contextlib.ExitStack() as files:
        sinks = {bucket.name: [] for bucket in cfg.buckets}  # (file, writer) pairs
        for bucket in cfg.buckets:
            for fmt, suffix, writer in (("csv", "csv", write_impressions_csv),
                                        ("json", "jsonl", write_impressions_jsonl)):
                if args.format in (fmt, "both"):
                    path = arts.path(f"impressions_{bucket.name}.{suffix}")
                    sinks[bucket.name].append(
                        (files.enter_context(open_impressions(path, fmt)), writer))

        def write(bucket: str, block) -> None:
            t_write = time.monotonic()
            code = record_codes(block)
            for sink, writer in sinks[bucket]:
                writer(sink, block, code)
            written[bucket] = time.monotonic()
            write_seconds[bucket] += written[bucket] - t_write

        t_serve = time.monotonic()
        tables = run_ab_experiment(cfg, write)
    first_day = cfg.burn_in_days
    bucket_runs = []  # for the manifest
    models = {}
    table_rows = []
    for bucket in cfg.buckets:
        bucket_tables = tables[bucket.name]
        records = int(bucket_tables.impressions.sum())
        # buckets run in turn: each one's time runs from the last block of the one before
        bucket_runs.append({"name": bucket.name, "records": records,
                            "seconds": round(written[bucket.name] - t_serve, 3),
                            "write_seconds": round(write_seconds[bucket.name], 3)})
        t_serve = written[bucket.name]
        entry: dict = {"estimator": bucket.estimator, "records": records,
                       "evaluation_records": int(bucket_tables.impressions[first_day:].sum())}
        try:
            rep = c_relative(bucket_tables, first_day)
            entry.update(_record(rep))
            table_rows.append((bucket.name, rep.c_relative, rep.bid_weighted_c_relative))
        except UndefinedCalibration as exc:
            entry.update({"c_relative": None, "undefined_reason": str(exc)})
            table_rows.append((bucket.name, "", ""))
        models[bucket.name] = entry
    write_csv(arts.path("calibration_table.csv"),
              ["model", "non_weighted", "bid_weighted"], table_rows)
    write_json(arts.path("calibration_report.json"), {
        "seed": seed,
        "evaluation_first_day": first_day,
        "models": models,
    })
    base, comp = cfg.buckets[0].name, cfg.buckets[1].name
    try:
        rel_payload = _record(rtv_rtc(tables[base], tables[comp], first_day))
    except UndefinedRatio as exc:
        rel_payload = {"rtv": None, "rtc": None, "undefined_reason": str(exc)}
    rel_payload.update({"baseline_bucket": base, "comparison_bucket": comp})
    write_json(arts.path("rtv_rtc.json"), rel_payload)
    return 0, {"buckets": bucket_runs}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _UsageError(Exception):
    """A command line argparse rejects; its text is the usage and the reason."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on a usage error, the I/O error code; raise so that main exits 3
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}config error: {message}")


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, each with only the flags its command reads."""
    parser = _Parser(
        prog="gspbias",
        description="Selection-bias simulation lab for score-ranked second-price auctions.",
    )
    parser.add_argument("--version", action="version", version=f"gspbias {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("simulate-cpc", cmd_simulate_cpc,
         "Run the repeated-auction price study and write its tables and histograms",
         "override the study's trial count"),
        ("verify-theorems", cmd_verify_theorems,
         "Check quadrature conditional means against Monte Carlo rank sampling",
         "override the Monte Carlo draw count"),
        ("ab-run", cmd_ab_run,
         "Run the two-bucket traffic experiment and write calibration metrics", None),
    ]
    for name, func, help_text, trials_help in specs:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", type=Path, default=None,
                        help="config file (defaults to the packaged config)")
        sp.add_argument("--out", type=Path, required=True, help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help=f"master seed (overrides config; {ENV_SEED} is the fallback)")
        if trials_help is not None:
            sp.add_argument("--trials", type=int, default=None, help=trials_help)
        sp.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                        help="threads that share the work, the calling thread among "
                             "them; never affects output bytes")
        if name != "verify-theorems":
            # None until given for simulate-cpc: main rejects it without --emit-trials
            sp.add_argument("--format", choices=("csv", "json", "both"),
                            default="csv" if name == "ab-run" else None,
                            help="record log format (simulate-cpc: with --emit-trials)")
        if name == "simulate-cpc":
            sp.add_argument("--emit-trials", action="store_true",
                            help="also write per-trial logs")
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    """Run one command: load its config, resolve the seed, call the command
    with ``(args, payload, seed, artifacts)``, then write the manifest with
    the command's own fields and the run's duration.  Returns the exit code."""
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 3
    if getattr(args, "trials", None) is not None and args.trials < 1:
        print("config error: trials must be >= 1", file=sys.stderr)
        return 3
    if args.threads < 1:
        print("config error: threads must be >= 1", file=sys.stderr)
        return 3
    if args.command == "simulate-cpc" and args.format is not None and not args.emit_trials:
        print("config error: --format applies only with --emit-trials", file=sys.stderr)
        return 3
    try:
        t0 = time.monotonic()
        loaded = _load(args)
        seed = _resolve_seed(args.seed, loaded.seed)
        arts = ArtifactSet(args.out)
        code, manifest_extra = args.func(args, loaded.payload, seed, arts)
        arts.write_manifest(args.command, {**_record(loaded), "seed": seed}, seed,
                            time.monotonic() - t0, __version__, args.threads, **manifest_extra)
        return code
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
