"""Artifact writers: CSV tables, histogram files, JSON reports, run manifests.

All text files are UTF-8 with LF line endings and a mandatory header row for
CSV.  Floats are written with shortest round-trip formatting so identical
runs produce identical bytes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from .engine import ImpressionLog, TrialResult
from .metrics import Histogram


def _fmt(value) -> str:
    # numpy scalars repr as np.float64(...); coerce to the plain float repr
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header: list[str], rows: Iterable[Iterable]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_histogram_csv(path: Path, hist: Histogram) -> None:
    rows = ((float(hist.edges[i]), float(hist.edges[i + 1]), int(hist.counts[i]))
            for i in range(len(hist.counts)))
    write_csv(path, ["bin_left", "bin_right", "count"], rows)


def read_histogram_csv(path: Path) -> tuple[list[float], list[float], list[int]]:
    """Read the (bin_left, bin_right, count) schema back; shared with the oracle."""
    lefts, rights, counts = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header != ["bin_left", "bin_right", "count"]:
            raise ValueError(f"{path}: unexpected histogram header {header}")
        for line in fh:
            left, right, count = line.strip().split(",")
            lefts.append(float(left))
            rights.append(float(right))
            counts.append(int(count))
    return lefts, rights, counts


def write_trials_csv(path: Path, trials: list[TrialResult]) -> None:
    if not trials:
        raise ValueError("no trials to write")
    m = len(trials[0].estimates)
    header = (["trial", "winner", "cpc", "degenerate"]
              + [f"estimate_{i}" for i in range(m)]
              + [f"rank_{i}" for i in range(m)])
    rows = ([t.trial, t.winner, t.cpc, int(t.degenerate)]
            + [t.estimates[i] for i in range(m)]
            + [t.ranks[i] for i in range(m)]
            for t in trials)
    write_csv(path, header, rows)


def write_trials_jsonl(path: Path, trials: list[TrialResult]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for t in trials:
            fh.write(json.dumps({
                "trial": t.trial, "winner": t.winner, "cpc": t.cpc,
                "degenerate": t.degenerate, "estimates": list(t.estimates),
                "ranking": list(t.ranking), "ranks": list(t.ranks),
            }, sort_keys=True) + "\n")


IMPRESSION_HEADER = ["day", "bucket", "site", "pos", "ad_id", "mode",
                     "pred_ctr", "bid", "cpc", "click"]


def write_impressions_csv(path: Path, log: ImpressionLog) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(IMPRESSION_HEADER) + "\n")
        day, site, pos = log.day.tolist(), log.site.tolist(), log.pos.tolist()
        ad_id, click = log.ad_id.tolist(), log.click.tolist()
        pred, bid, cpc = log.pred_ctr.tolist(), log.bid.tolist(), log.cpc.tolist()
        for i in range(len(day)):
            mode = "random" if log.random_mode[i] else "greedy"
            fh.write(f"{day[i]},{log.bucket},{site[i]},{pos[i]},"
                     f"{ad_id[i]},{mode},{pred[i]!r},{bid[i]!r},"
                     f"{cpc[i]!r},{click[i]}\n")


def write_impressions_jsonl(path: Path, log: ImpressionLog) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(len(log)):
            fh.write(json.dumps({
                "day": int(log.day[i]), "bucket": log.bucket,
                "site": int(log.site[i]), "pos": int(log.pos[i]),
                "ad_id": int(log.ad_id[i]),
                "mode": "random" if log.random_mode[i] else "greedy",
                "pred_ctr": float(log.pred_ctr[i]), "bid": float(log.bid[i]),
                "cpc": float(log.cpc[i]), "click": int(log.click[i]),
            }, sort_keys=True) + "\n")


class ArtifactSet:
    """Tracks files written during one command run and emits the manifest."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.names: list[str] = []

    def path(self, name: str) -> Path:
        self.names.append(name)
        return self.out_dir / name

    def write_manifest(self, command: str, config: dict, seed: int,
                       duration_seconds: float, version: str) -> Path:
        manifest_path = self.out_dir / "manifest.json"
        write_json(manifest_path, {
            "command": command,
            "tool_version": version,
            "seed": seed,
            "config": config,
            "outputs": sorted(self.names) + ["manifest.json"],
            "duration_seconds": round(duration_seconds, 3),
        })
        return manifest_path
