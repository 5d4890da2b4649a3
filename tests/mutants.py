#!/usr/bin/env python3
"""Mutation gate: each mutant is one exact edit of a file under ``src/``,
and the tests named for it must fail on the edited copy.

    python3 tests/mutants.py

For each mutant, two at a time, ``src/``, ``tests/`` and
``pyproject.toml`` are copied to a fresh temporary directory and the one
edit is applied there.  All three are copied because pytest's
``pythonpath = ["src"]`` is read from the rootdir, so only a copied
``pyproject.toml`` puts the mutated ``src`` ahead of the unmutated one.
Only the mutant's target tests run, stopping at the first failure.  A
mutant is killed when pytest reports a failed test (exit code 1).  A
survivor, and a mutant whose tests could not run at all, is reported by
name, and the runner then exits 1.  ``MUTANTS.json``, at the repository
root, records for each mutant whether it was killed, pytest's exit code
and the seconds taken.

pytest does not collect this file: its name does not start with ``test_``.
``tests/test_mutants.py`` checks, in tier-1, that every mutant's old text
occurs exactly once in ``src/``, so that the list cannot rot silently.
The comments group the mutants by the change whose tests they check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str   # occurs exactly once in src/
    new: str
    targets: tuple[str, ...]  # pytest node ids


ORACLE, ENGINE, CLI = "src/gspbias/oracle.py", "src/gspbias/engine.py", "src/gspbias/cli.py"
REPORTS, ESTIMATORS = "src/gspbias/reports.py", "src/gspbias/estimators.py"
METRICS = "src/gspbias/metrics.py"
T_ORACLE, T_ENGINE, T_CLI = "tests/test_oracle.py", "tests/test_engine.py", "tests/test_cli.py"
LEAF_CHECKS = T_ORACLE + "::TestLeafChecks"
EXACT_UNIFORMS = T_ORACLE + "::TestConditionalScoreMean::test_uniform_fields_match_exact_integrals"
T_METRICS = "tests/test_metrics.py"
MERGED_STATS = T_METRICS + "::TestCpcStats::test_merged_statistics_match_whole_table"

MUTANTS = [
    # ab-run formats each record once per bucket-day (line tables)
    Mutant("line-table-kept-across-days", REPORTS,
           "            sink.lines = np.empty(size, dtype=object)\n"
           "            sink.known = np.zeros(size, dtype=bool)\n",
           "            if sink.known is None:\n"
           "                sink.lines = np.empty(size, dtype=object)\n"
           "                sink.known = np.zeros(size, dtype=bool)\n",
           ("tests/test_reports.py::TestLineTable::test_day_change_clears_the_table",)),
    Mutant("every-code-formatted", REPORTS,
           "        new = np.flatnonzero(new & ~sink.known)\n",
           "        new = np.flatnonzero(new)\n",
           ("tests/test_reports.py::TestLineTable"
            "::test_formats_each_record_once_per_day_in_a_bounded_table",)),
    # each grid row held once, and only while something reads it
    Mutant("sampler-kept-on-grid", ENGINE,
           "    sampler = CaseSampler(grid, map)\n",
           "    sampler = grid.sampler = CaseSampler(grid, map)\n",
           (T_ORACLE + "::TestCaseGridRows::test_draw_tables_die_with_the_sampling",
            T_CLI + "::TestVerifyTheorems::test_no_draw_table_alive_during_the_checks")),
    # ad-major Monte Carlo blocks and kernels only on the support
    Mutant("regrouped-newton-denominator", ORACLE,
           "            slope *= t\n            slope += d_lo  # d_lo + t (2 c2 + 3 t c3)\n",
           "            slope += d_lo\n            slope *= t  # (d_lo + 2 c2 + 3 t c3) t\n",
           (T_ORACLE + "::TestDrawArithmetic::test_reaches_every_path",)),
    Mutant("support-cut-left", ORACLE,
           'np.searchsorted(self.s[lo:hi], d.upper, side="right")',
           'np.searchsorted(self.s[lo:hi], d.upper, side="left")',
           (T_ORACLE + "::TestCaseGridRows::test_rows_past_the_support_equal_the_kernels",)),
    Mutant("negative-zero-past-support", ORACLE,
           "            pdf[cut:hi] = 0.0\n",
           "            pdf[cut:hi] = -0.0\n",
           (T_ORACLE + "::TestCaseGridRows::test_rows_past_the_support_equal_the_kernels",)),
    Mutant("bracket-strict-short-check", ORACLE,
           'np.less_equal(F.take(i, out=node, mode="clip"), u, out=ahead)',
           'np.less(F.take(i, out=node, mode="clip"), u, out=ahead)',
           (T_ORACLE + "::TestGuideBracket::test_matches_searchsorted",)),
    Mutant("reversed-draws-in-block", ENGINE,
           "        row[:], n_exact = sampler.draw(j, row)\n",
           "        row[::-1], n_exact = sampler.draw(j, row)\n",
           (T_ENGINE + "::TestMcBlock::test_moments_match_the_trial_major_reference",)),
    # the checks walk one rank table in leaf-sized rows
    Mutant("split-below-without-offset", ORACLE,
           "                below = lo + leading\n",
           "                below = leading\n",
           (LEAF_CHECKS + "::test_split_across_leaves",)),
    Mutant("split-trailing-offset", ORACLE,
           "            split = hi - trailing\n",
           "            split = hi - lo - trailing\n",
           (LEAF_CHECKS + "::test_split_across_leaves",)),
    Mutant("pairwise-sum-left-fold", ORACLE,
           "    half = n // 2 - (n // 2) % 8\n",
           "    half = (n - 1) // NODE_SLICE * NODE_SLICE\n",
           (LEAF_CHECKS + "::test_leaf_sums_add_up_to_numpy_sum",)),
    Mutant("pairwise-split-unrounded", ORACLE,
           "    half = n // 2 - (n // 2) % 8\n",
           "    half = n // 2\n",
           (LEAF_CHECKS + "::test_leaf_sums_add_up_to_numpy_sum",)),
    Mutant("decomposition-edge-step-dropped", ORACLE,
           "(before is None or part[0] - before[q] >= -1e-12)",
           "(True or part[0] - before[q] >= -1e-12)",
           (LEAF_CHECKS + "::test_decomposition_steps_across_leaf_edges",)),
    Mutant("argsort-ties-to-higher-column", ENGINE,
           '        order = np.argsort(-scores, axis=1, kind="stable")\n',
           '        order = m - 1 - np.argsort(-scores[:, ::-1], axis=1, kind="stable")\n',
           (T_ENGINE + "::TestScoreRanks",)),
    # the oracle holds each idea once, and exact uniform support edges
    Mutant("pairwise-sum-right-first", ORACLE,
           "    left = _pairwise_sum(leaf, lo, lo + half)\n"
           "    return left + _pairwise_sum(leaf, lo + half, hi)\n",
           "    right = _pairwise_sum(leaf, lo + half, hi)\n"
           "    return _pairwise_sum(leaf, lo, lo + half) + right\n",
           (LEAF_CHECKS + "::test_grid_leaves",
            LEAF_CHECKS + "::test_decomposition_steps_across_leaf_edges")),
    Mutant("uniform-run-end-full-weight", ORACLE,
           "                    w[end - lo] = self.w[0]\n",
           "                    w[end - lo] = self.w[end]\n",
           (EXACT_UNIFORMS,)),
    Mutant("uniform-lagrange-coefficient", ORACLE,
           "lambda t: t ** 3 / 6.0 - 0.75 * t * t + t",
           "lambda t: t ** 3 / 6.0 - 0.7 * t * t + t",
           (EXACT_UNIFORMS,)),
    Mutant("cut-panel-leaf-start-dropped", ORACLE,
           "                if lo <= p + q < hi:\n",
           "                if lo < p + q < hi:\n",
           (LEAF_CHECKS + "::test_records_match_whole_row_checks",)),
    # a scaled rank row, ties sent the wrong way, the window bound and the MC gate
    Mutant("rank-one-row-scaled", ORACLE,
           "            part[0] *= Fj\n    return out\n",
           "            part[0] *= Fj\n        part[0] *= 1.01\n    return out\n",
           (T_ORACLE + "::TestNodeSlices::test_rank_table_matches_whole_row_fold",)),
    Mutant("pairwise-ties-to-higher-column", ENGINE,
           "            np.greater(scores[:, j], scores[:, i], out=j_wins)\n",
           "            np.greater_equal(scores[:, j], scores[:, i], out=j_wins)\n",
           (T_ENGINE + "::TestScoreRanks",)),
    Mutant("window-reads-full-days", ESTIMATORS,
           "slice(max(0, self.head - self.length_days + 1), self.head)",
           "slice(max(0, self.head - self.length_days), self.head)",
           ("tests/test_estimators.py::TestCountWindow",)),
    Mutant("mc-agreement-sigma-plus-one", CLI,
           "MC_AGREEMENT_SIGMA = 4.0\n",
           "MC_AGREEMENT_SIGMA = 5.0\n",
           (T_CLI + "::TestMcAgreement", T_CLI + "::TestMassAgreement")),
    # simulate-cpc reduces each block of trials and merges the reductions in order
    Mutant("chan-merge-without-delta-term", METRICS,
           "                       a.m2 + b.m2 + delta * delta * a.n * b.n / n, scale)",
           "                       a.m2 + b.m2, scale)",
           (MERGED_STATS, T_METRICS + "::TestCpcStats::test_moments_merge_like_one_sample")),
    Mutant("co-moment-merge-wrong-sign", METRICS,
           "                         a.c + b.c + dx * dy * na * nb / (na + nb))",
           "                         a.c + b.c - dx * dy * na * nb / (na + nb))",
           (MERGED_STATS,)),
    Mutant("histogram-merge-drops-last-bin", METRICS,
           "        return Histogram(lo, w, c1 + c2)\n",
           "        return Histogram(lo, w, (c1 + c2)[:-1])\n",
           (T_METRICS + "::TestHistograms::test_merge_equals_one_build", MERGED_STATS)),
    Mutant("moments-merge-ignores-units", METRICS,
           "        a, b = self.in_units(scale), other.in_units(scale)\n",
           "        a, b = self, other\n",
           (T_METRICS + "::TestCpcStats::test_moments_merge_like_one_sample",
            T_METRICS + "::TestCpcStats::test_moments_merge_across_magnitudes")),
    Mutant("co-moment-merge-ignores-units", METRICS,
           "math.ldexp(self.c, k))",
           "self.c)",
           (T_METRICS + "::TestCpcStats::test_moments_merge_like_one_sample",)),
    Mutant("cpc-blocks-out-of-order", ENGINE,
           "    for lo, hi in rng.fixed_blocks(0, config.trials, BLOCK):\n",
           "    for lo, hi in rng.fixed_blocks(0, config.trials, BLOCK)[::-1]:\n",
           (T_ENGINE + "::TestCpcStudy::test_blocks_cut_the_trials_in_order",
            "tests/test_reports.py::TestTrialWriters::test_block_logs_match_whole_table")),
    Mutant("histograms-past-the-traced-name", CLI,
           "block, cfg.true_ctrs, cfg.bids, widths, build_histogram), write)",
           "block, cfg.true_ctrs, cfg.bids, widths), write)",
           (T_CLI + "::test_bench_tracer_records_simulate_cpc_spans",)),
    # --threads N is N working threads, and only beta work goes on them
    Mutant("worker-map-completion-order", ENGINE,
           "                    results[i] = fn(*tasks[i])\n",
           "                    results[results.index(None)] = fn(*tasks[i])\n",
           (T_ENGINE + "::TestWorkerMap::test_uneven_tasks_come_back_in_task_order",)),
    Mutant("worker-map-helper-exception-dropped", ENGINE,
           "                    errors.append(exc)\n",
           "                    if threading.current_thread() is threading.main_thread():\n"
           "                        errors.append(exc)\n",
           (T_ENGINE + "::TestWorkerMap::test_exception_reaches_the_caller",)),
    Mutant("uniform-blocks-on-the-worker-map", CLI,
           "            mc_map = pmap if grid.rows else map\n",
           "            mc_map = pmap\n",
           (T_CLI + "::test_uniform_field_memory_does_not_grow_with_threads",)),
    Mutant("zero-standard-error-compared", CLI,
           "(counts >= MIN_MC_COUNT) & (std_errors > 0)",
           "(counts >= MIN_MC_COUNT) & ~np.isnan(std_errors)",
           (T_CLI + "::TestMcAgreement::test_zero_standard_error_is_skipped",)),
]


def _copy_tree(into: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")


def run_mutant(mutant: Mutant) -> dict:
    """Apply one mutant to a fresh copy and run its targets there."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="gspbias-mutant-") as tmp:
        copy = Path(tmp)
        _copy_tree(copy)
        path = copy / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: old text occurs {text.count(mutant.old)} "
                             f"times in {mutant.file}, not once")
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *mutant.targets], cwd=copy, env=env, capture_output=True, text=True)
    tail = (proc.stdout.strip().splitlines() or [""])[-1]
    return {"name": mutant.name, "file": mutant.file, "targets": list(mutant.targets),
            "killed": proc.returncode == 1, "exit_code": proc.returncode,
            "pytest": tail, "seconds": round(time.perf_counter() - start, 2)}


def main() -> int:
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(run_mutant, MUTANTS))
    survivors = [r["name"] for r in results if not r["killed"]]
    summary = {"mutants": len(results), "killed": len(results) - len(survivors),
               "survivors": survivors, "seconds": round(time.perf_counter() - start, 1),
               "results": results}
    (ROOT / "MUTANTS.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    for r in results:
        print(f"{'killed ' if r['killed'] else 'SURVIVED'} {r['name']} ({r['seconds']} s): "
              f"{r['pytest']}")
    print(f"{summary['killed']}/{summary['mutants']} killed in {summary['seconds']} s")
    return 0 if not survivors else 1


if __name__ == "__main__":
    sys.exit(main())
