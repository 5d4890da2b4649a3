"""Acceptance suite: one test per release criterion, run at stated tolerance.

Each test prints one ``ACCEPTANCE n ...: PASS/FAIL`` line (visible with
``pytest -s`` and in captured output on failure); the pytest verdict per
test is the machine-readable version of the same line.
"""

import dataclasses
import time
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from gspbias.cli import main
from gspbias.config import load_config
from gspbias.engine import (
    CpcStudyConfig,
    run_ab_experiment,
    sample_rank_stats,
)
from gspbias.metrics import build_histogram, c_relative
from gspbias.oracle import CaseGrid, ScoreDistribution, conditional_mean_profile
from reference import (
    Ad,
    ScoredAd,
    build_selection_event,
    c_relative_log_se,
    cpc_summary,
    cpc_trials,
    histogram_overlap,
    log_from_rows,
    mass_split,
    rank_ads,
    selection_bias,
    symmetry_z,
    tables_from_log,
)

TABLE2_MEANS = {"a": 0.934, "b": 0.894, "c": 0.803, "d": 0.966, "e": 0.900, "f": 0.800}
TABLE2_RATIOS = {"a": 0.934, "b": 0.993, "c": 1.00, "d": 0.966, "e": 1.00, "f": 1.00}
MEAN_TOL = 0.01
RATIO_TOL = 0.012


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def packaged(name: str):
    with resources.as_file(resources.files("gspbias") / "configs" / name) as p:
        return load_config(p)


@pytest.fixture(scope="module")
def table2_run():
    loaded = packaged("table2.cfg")
    suite = loaded.payload
    start = time.monotonic()
    results = {}
    for setting in suite.settings:
        trials = cpc_trials(dataclasses.replace(setting, seed=loaded.seed))
        results[setting.name] = (setting, trials,
                                 cpc_summary(trials, setting.true_ctrs, setting.bids))
    return results, time.monotonic() - start


@pytest.fixture(scope="module")
def ab_run():
    loaded = packaged("ab.cfg")
    cfg = dataclasses.replace(loaded.payload, seed=loaded.seed)
    tables = run_ab_experiment(cfg, lambda bucket, block: None)
    return cfg, tables


def test_criterion_1_table2_means(table2_run):
    results, elapsed = table2_run
    worst = max(abs(results[s][2].mean_observed_cpc - TABLE2_MEANS[s]) for s in TABLE2_MEANS)
    trials_ok = all(len(results[s][1]) == 20000 for s in TABLE2_MEANS)
    report("1 table2-means",
           worst <= MEAN_TOL and trials_ok and elapsed < 5.0,
           f"max |mean - target| = {worst:.4f} (tol {MEAN_TOL}), runtime {elapsed:.2f}s")


def test_criterion_2_table2_ratios(table2_run):
    results, _ = table2_run
    worst = max(abs(results[s][2].ratio - TABLE2_RATIOS[s]) for s in TABLE2_RATIOS)
    report("2 table2-ratios", worst <= RATIO_TOL,
           f"max |ratio - target| = {worst:.4f} (tol {RATIO_TOL})")


def test_criterion_3_theorem_verification():
    loaded = packaged("theorems.cfg")
    suite = loaded.payload
    sizes = sorted({len(c.dist_specs) for c in suite.cases})
    assert len(suite.cases) >= 10 and sizes == [2, 3, 4, 6]
    start = time.monotonic()
    worst_sigma = 0.0
    monotone_ok = True
    for idx, case in enumerate(suite.cases):
        dists = case.dists
        grid = CaseGrid(dists)
        mc = sample_rank_stats(grid, suite.mc_draws, loaded.seed, case_index=idx)
        for i, profile in enumerate(conditional_mean_profile(grid, list(range(len(dists))))):
            qmeans = profile.conditional_means
            for k in range(len(dists) - 1):
                if not (np.isnan(qmeans[k]) or np.isnan(qmeans[k + 1])):
                    monotone_ok &= qmeans[k] >= qmeans[k + 1] - 1e-6
            for k in range(len(dists)):
                if np.isnan(qmeans[k]) or mc.counts[i, k] < 1000:
                    continue
                worst_sigma = max(worst_sigma,
                                  abs(mc.means[i, k] - qmeans[k]) / mc.std_errors[i, k])
    elapsed = time.monotonic() - start
    report("3 theorem-verification",
           monotone_ok and worst_sigma <= 4.0 and elapsed < 60.0,
           f"{len(suite.cases)} cases, mc_draws={suite.mc_draws}, "
           f"monotone={monotone_ok}, worst |quad-mc| = {worst_sigma:.2f} SE, "
           f"runtime {elapsed:.1f}s")


def test_criterion_4_closed_form_pair():
    dists = [ScoreDistribution.uniform(0, 1), ScoreDistribution.uniform(0, 1)]
    grid = CaseGrid(dists)
    means = conditional_mean_profile(grid, [0])[0].conditional_means
    err = max(abs(means[0] - 2 / 3), abs(means[1] - 1 / 3))
    report("4 uniform-pair-closed-form", err <= 1e-4,
           f"means = ({means[0]:.6f}, {means[1]:.6f}), max err {err:.2e}")


def test_criterion_5_selection_bias_factors(table2_run):
    results, _ = table2_run
    setting, trials, _summary = results["a"]
    b1 = selection_bias(trials, setting.true_ctrs, 1)
    b2 = selection_bias(trials, setting.true_ctrs, 2)
    rows = np.arange(len(trials))
    gaps = (trials.estimates[rows, trials.order[:, 0]]
            - trials.estimates[rows, trials.order[:, 1]]) / 0.05
    gap_se = gaps.std(ddof=1) / np.sqrt(len(gaps))
    ordered = b1.value >= b2.value and (b1.value - b2.value) > 5 * gap_se
    sep_cfg = CpcStudyConfig(name="sep", impressions=(20000, 20000),
                             true_ctrs=(0.01, 0.9), bids=(1.0, 1.0),
                             trials=20000, seed=packaged("table2.cfg").seed,
                             setting_index=97)
    sep_trials = cpc_trials(sep_cfg)
    s1 = selection_bias(sep_trials, (0.01, 0.9), 1)
    s2 = selection_bias(sep_trials, (0.01, 0.9), 2)
    unbiased = abs(s1.value - 1) <= 2 * s1.se and abs(s2.value - 1) <= 2 * s2.se
    report("5 bias-factors",
           ordered and unbiased,
           f"competitive: b1={b1.value:.4f} b2={b2.value:.4f} gap/SE="
           f"{(b1.value - b2.value) / gap_se:.0f}; separated: "
           f"b1={s1.value:.5f}+-{s1.se:.5f} b2={s2.value:.5f}+-{s2.se:.5f}")


def test_criterion_6_polytope_equivalence():
    rng = np.random.default_rng(2024)
    agree = 0
    total = 10_000
    for _ in range(total):
        m = int(rng.integers(2, 6))
        bids = rng.uniform(0.1, 5.0, m)
        ests = rng.uniform(0.001, 0.2, m)
        ads = [Ad(i + 1, float(bids[i]), 0.05) for i in range(m)]
        scored = [ScoredAd.from_bid(i + 1, float(bids[i]), float(ests[i]))
                  for i in range(m)]
        winner = rank_ads(scored)[0]
        event = build_selection_event(ads, winner)
        widx = winner - 1
        y = [ests[widx]] + [ests[j] for j in range(m) if j != widx]
        member = event.contains(y)
        others_out = all(
            not build_selection_event(ads, c + 1).contains(
                [ests[c]] + [ests[j] for j in range(m) if j != c])
            for c in range(m) if c + 1 != winner)
        agree += int(member and others_out)
    report("6 polytope-equivalence", agree == total, f"{agree}/{total} agreements")


def test_criterion_7_calibration_properties(ab_run):
    # null case: calibrated predictions, selection carries no information
    rng = np.random.default_rng(77)
    n = 400_000
    preds = rng.uniform(0.02, 0.15, n)
    null_log = log_from_rows(
        bucket="N", pred=preds, bid=np.ones(n), cpc=np.zeros(n),
        random_mode=rng.random(n) < 0.5,
        click=rng.binomial(1, preds).astype(np.int64),
    )
    null_rep = c_relative(tables_from_log(null_log), 0)
    null_se = c_relative_log_se(null_log)
    null_ok = abs(np.log(null_rep.c_relative)) <= 3 * null_se
    # desk experiment: estimator with per-key noise inflates greedy calibration
    cfg, tables = ab_run
    total_accesses = sum(int(t.impressions.sum()) for t in tables.values())
    by_est = {b.estimator: c_relative(tables[b.name], cfg.burn_in_days)
              for b in cfg.buckets}
    chain_ok = by_est["naive"].c_relative > by_est["pooled"].c_relative > 1.0
    # directional desk outcome: the pooled bucket collects more clicked value
    from gspbias.metrics import rtv_rtc
    rel = rtv_rtc(tables[cfg.buckets[0].name], tables[cfg.buckets[1].name],
                  cfg.burn_in_days)
    report("7 calibration-properties",
           null_ok and chain_ok and rel.rtv > 1.0 and total_accesses >= 1_000_000,
           f"null C_rel={null_rep.c_relative:.4f} (|log|<=3SE={null_ok}); "
           f"naive={by_est['naive'].c_relative:.4f} > "
           f"pooled={by_est['pooled'].c_relative:.4f} > 1; "
           f"RTV={rel.rtv:.4f}; accesses={total_accesses}")


SMALL_CPC = """
[config]
schema_version = 1
command = simulate-cpc
[study]
seed = 5150
trials = 2000
[setting.a]
impressions = 5000
true_ctrs = 0.05, 0.05
"""

SMALL_THEOREMS = """
[config]
schema_version = 1
command = verify-theorems
[verify]
seed = 5150
mc_draws = 50000
[case.pair]
dists = uniform:0:1, beta:2:38
"""

SMALL_AB = """
[config]
schema_version = 1
command = ab-run
[experiment]
seed = 5150
days = 4
burn_in_days = 2
window_days = 2
traffic_per_day = 1200
epsilon = 0.1
[bucket.A]
estimator = naive
[bucket.B]
estimator = pooled
[context.1]
site = 1
pos = 1
multiplier = 1.0
[ad.1]
bid = 1.0
base_ctr = 0.05
[ad.2]
bid = 1.1
base_ctr = 0.06
"""


def test_criterion_8_thread_determinism(tmp_path):
    both = ("--format", "both")  # verify-theorems writes one report, with no --format
    combos = [("simulate-cpc", SMALL_CPC, ("--emit-trials", *both)),
              ("verify-theorems", SMALL_THEOREMS, ()), ("ab-run", SMALL_AB, both)]
    identical = []
    for command, text, extra in combos:
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text(text, encoding="utf-8")
        outs = []
        for tag, threads in (("t1", "1"), ("tN", "3")):
            out = tmp_path / f"{command}-{tag}"
            rc = main([command, "--config", str(cfg), "--out", str(out),
                       "--threads", threads, *extra])
            assert rc == 0
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir() if p.name != "manifest.json")
        same = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
                   for n in names)
        identical.append((command, same, len(names)))
    ok = all(same for _c, same, _n in identical)
    report("8 thread-determinism", ok,
           "; ".join(f"{c}: {'identical' if s else 'DIFFERS'} ({n} files)"
                     for c, s, n in identical))


def test_criterion_9_figure_shapes(table2_run):
    results, _ = table2_run
    trials_a = results["a"][1]
    cpc_a = trials_a.cpc[~trials_a.degenerate]
    below, at_or_above = mass_split(cpc_a, 1.0)
    z = symmetry_z(cpc_a)
    skew_ok = below > at_or_above and abs(z) > 3.0
    trials_f = results["f"][1]
    rows = np.arange(len(trials_f))
    top = trials_f.estimates[rows, trials_f.order[:, 0]]
    second = trials_f.estimates[rows, trials_f.order[:, 1]]
    overlap = histogram_overlap(build_histogram(top, 0.0005),
                                build_histogram(second, 0.0005))
    report("9 figure-shapes", skew_ok and overlap < 0.01,
           f"(a): mass<1 = {below:.3f} vs {at_or_above:.3f}, symmetry z = {z:.1f}; "
           f"(f): rank histogram overlap = {overlap:.4%}")
