"""Self-test of the benchmark harness.

    python3 -m pytest bench/test_harness.py

Checks that the computed per-layer counters repeat exactly between two
traced runs and equal hand-derived values on tiny configs, that the
verify-theorems gate tells a chance 4-sigma verdict from a defect, that every
metric BENCHMARK.json names is printed with its unit, and that the benchmark
refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
GRID = 2 ** 17 + 1  # Simpson grid points of the oracle
COMPUTED = ("oracle.enum_mults", "oracle.cdf.reuse_ratio", "rng.used_ratio",
            "reports.bytes", "estimators.nodata")

U2_CFG = """\
[config]
schema_version = 1
command = verify-theorems

[verify]
seed = 7
mc_draws = 4096

[case.u2]
dists = uniform:0:1, uniform:0:1
"""

# Two days, two ads, one context.  On day 0 the window is empty, so the
# naive bucket has no data for either ad and the pooled bucket cannot fit
# its prior; on day 1 both ads have day-0 impressions (epsilon 0.5 over 200
# accesses explores each ad many times).
AB_CFG = """\
[config]
schema_version = 1
command = ab-run

[experiment]
seed = 3
days = 2
burn_in_days = 1
window_days = 14
traffic_per_day = 200
epsilon = 0.5

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
base_ctr = 0.3

[ad.2]
bid = 0.8
base_ctr = 0.4
"""


def traced_metrics(tmp_path: Path, config_text: str, command: str) -> list[dict]:
    config = tmp_path / f"{command}.cfg"
    config.write_text(config_text, encoding="utf-8")
    session = run.Session("cpc-table2", None, tmp_path)
    session.workload = run.Workload(command, str(config), (), lambda out, code: None)
    rounds = []
    for _ in range(2):
        t1, t2, traced = session.command(1), session.command(2), session.command(1, traced=True)
        rounds.append(run.layer_metrics(t1, t2, traced))
    assert session.failures == []
    return rounds


def output_bytes(tmp_path: Path, config_text: str, command: str) -> int:
    config = tmp_path / "direct.cfg"
    config.write_text(config_text, encoding="utf-8")
    out = tmp_path / "direct"
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    subprocess.run([sys.executable, "-m", "gspbias.cli", command, "--config", str(config),
                    "--out", str(out), "--threads", "1"], check=True, env=env, timeout=120)
    return sum(p.stat().st_size for p in out.iterdir() if p.name != "manifest.json")


def test_theorem_counters_repeat_and_match_hand_values(tmp_path):
    first, second = traced_metrics(tmp_path, U2_CFG, "verify-theorems")
    for name in COMPUTED:
        assert first[name] == second[name], name
    # per candidate: two profiles of 2^(m-1)(m-1) grid products and a
    # decomposition of 2m(m-1); m = 2 gives 2 + 2 + 4 = 8, for 2 candidates
    assert first["oracle.enum_mults"] == 16 * GRID
    # 2 distinct CDF grids; each candidate evaluates both in 3 oracle calls
    assert first["oracle.cdf.reuse_ratio"] == 2 / 12
    # 2 ads read 2 of the 4 uniforms in their Philox block
    assert first["rng.used_ratio"] == 0.5
    assert first["rng.uniforms"] == 4 * 4096
    assert first["engine.invcdf.draws"] == 2 * 4096
    assert first["estimators.nodata"] == 0
    assert first["reports.bytes"] == output_bytes(tmp_path, U2_CFG, "verify-theorems")


def test_ab_counters_repeat_and_match_hand_values(tmp_path):
    first, second = traced_metrics(tmp_path, AB_CFG, "ab-run")
    for name in COMPUTED:
        assert first[name] == second[name], name
    # day 0: naive has no data for 2 ads x 1 context; pooled cannot fit its prior
    assert first["estimators.nodata"] == 3
    assert first["rng.used_ratio"] == 1.0
    assert first["engine.ab.accesses"] == 2 * 2 * 200
    assert first["oracle.enum_mults"] == 0
    assert first["reports.bytes"] == output_bytes(tmp_path, AB_CFG, "ab-run")


def write_report(out: Path, max_sigma: float, decomposition_ok: bool = True) -> None:
    candidate = {"mean_inequality": {"passed": True}, "splittability": {"passed": True},
                 "decomposition": {"passed": decomposition_ok},
                 "mc_agreement": {"passed": max_sigma <= 4.0, "max_sigma": max_sigma,
                                  "checked": 163}}
    report = {"passed": max_sigma <= 4.0 and decomposition_ok,
              "cases": [{"candidates": [candidate]}]}
    (out / "theorem_report.json").write_text(json.dumps(report), encoding="utf-8")


def test_theorem_gate_separates_chance_from_defects(tmp_path):
    write_report(tmp_path, 3.2)
    assert run.check_theorems(tmp_path, 0) is None
    # the CLI's uncorrected 4-sigma verdict fails by chance: a note, not a failure
    write_report(tmp_path, 4.11)
    assert "verdict failed" in run.check_theorems(tmp_path, 1)
    with pytest.raises(run.CheckFailed):
        run.check_theorems(tmp_path, 0)
    write_report(tmp_path, 7.0)
    with pytest.raises(run.CheckFailed):
        run.check_theorems(tmp_path, 1)
    write_report(tmp_path, 1.0, decomposition_ok=False)
    with pytest.raises(run.CheckFailed):
        run.check_theorems(tmp_path, 1)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(trace, kind):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "cpc-table2", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
               if not line.startswith("run ")}
    assert printed["fail_ratio"] == "ratio"
    for name, unit in wanted.items():
        assert printed[name] == unit, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cpc-table2",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
