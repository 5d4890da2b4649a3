#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise it as one perf-history entry.

    python3 bench/record.py --seeds 1-10 --out bench/history/BENCH_<label>.json

For every workload in BENCHMARK.json this runs ``bench/run.py --trace 0``
and then ``--trace 1`` once per seed, one run at a time.  It prints, by
name and with units, the median and quartiles of every end-to-end metric,
the spread (third minus first quartile, over the median) against the
metric's bound, and the fail ratio; then the traced per-layer split: the
median of each per-layer metric over the seeds, and for
``trace.overhead_s`` the median of the paired differences of every traced
round of every seed.  With ``--out`` it also writes all of that, with the
environment, as a JSON history entry named by its file.  With
``--update-digests`` it adds the output digest of every seed that has no
reference yet to ``bench/digests.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DIGESTS = BENCH / "digests.json"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: (its ``run`` info line, its final result line)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    info = next(json.loads(line[4:]) for line in lines if line.startswith("run "))
    info["run_s"] = time.perf_counter() - start
    return info, json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values),
            "samples": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--out", type=Path, default=None, help="history entry to write")
    parser.add_argument("--update-digests", action="store_true")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("need at least two seeds for quartiles")

    digests = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    entry: dict = {"date": time.strftime("%Y-%m-%d"),
                   "run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            info, result = run_once(name, seed, spec["run_seconds"], 0)
            runs.append((info, result))
            if args.update_digests and len(info["digest"]) == 1:
                digests.setdefault(name, {}).setdefault(str(seed), info["digest"][0])
            print(f"  {name} seed {seed} ({info['run_s']:.1f} s): " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        traced = [run_once(name, seed, spec["run_seconds"], 1) for seed in seeds]
        every = runs + traced
        attempted = sum(r["attempted"] for _i, r in every)
        failed = sum(r["failed"] for _i, r in every)
        row = {"why": runs[0][0]["why"], "attempted": attempted, "failed": failed,
               "run_s": [round(i["run_s"], 2) for i, _r in runs],
               "fail_ratio": failed / attempted,
               "digest_status": sorted({i["digest_status"] for i, _r in every}),
               "notes": [n for i, _r in every for n in i["notes"]],
               "end_to_end": {}}
        entry.setdefault("env", {k: v for k, v in runs[0][0]["env"].items() if k != "seed"})
        for metric in spec["end_to_end"]:
            stats = summarise([r["metrics"][metric["name"]]["value"] for _i, r in runs])
            row["end_to_end"][metric["name"]] = {"unit": metric["unit"],
                                                 "bound": metric["bound"], **stats}
        layers = [i for i, _r in traced if i["values"]]
        values = {k: statistics.median(i["values"][k] for i in layers) for k in layers[0]["values"]}
        values["trace.overhead_s"] = statistics.median(
            d for i in layers for d in i["samples"]["trace.overhead_s"])
        row["per_layer"] = {"run_s": [round(i["run_s"], 2) for i, _r in traced],
                            "values": values}
        entry["workloads"][name] = row
        print_row(name, row)

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(entry, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if args.update_digests:
        DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    failed = sum(r["failed"] for r in entry["workloads"].values())
    return 1 if failed else 0


def print_row(name: str, row: dict) -> None:
    print(f"\n{name}: {row['why']}")
    for metric, s in row["end_to_end"].items():
        flag = "" if s["spread"] < s["bound"] / 3 else "  <-- spread above a third of bound"
        print(f"  {metric:<14} median {s['median']:10.4f} {s['unit']:<3} "
              f"q1 {s['q1']:10.4f}  q3 {s['q3']:10.4f}  spread {s['spread']:.4f} "
              f"(bound {s['bound']}, n={s['n']}){flag}")
    print(f"  {'fail_ratio':<14} {row['fail_ratio']:.4f} ratio "
          f"({row['failed']} failed / {row['attempted']} attempted)")
    print(f"  digest: {'; '.join(row['digest_status'])}")
    for note in row["notes"]:
        print(f"  note: {note}")
    layers = row.get("per_layer", {}).get("values", {})
    times = {k: v for k, v in layers.items() if k.endswith(".self_s") and v > 0}
    wall = layers.get("trace.wall_s")
    if wall:
        print(f"  traced split (medians over seeds; share of trace.wall_s {wall:.3f} s, "
              f"coverage {layers['trace.coverage']:.3f}, "
              f"overhead {layers['trace.overhead_s']:.3f} s):")
        for key, value in sorted(times.items(), key=lambda kv: -kv[1]):
            print(f"    {key:<34} {value:8.4f} s  {value / wall:6.1%}")


if __name__ == "__main__":
    sys.exit(main())
