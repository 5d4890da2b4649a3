"""Artifact writers: CSV tables, histogram files, JSON reports, run manifests.

All text files are UTF-8 with LF line endings and a mandatory header row for
CSV.  Floats are written with shortest round-trip formatting so identical
runs produce identical bytes.

The impression writers format each distinct record of a log once.  An A/B
log repeats heavily, since (day, context, ad, mode) fixes the predicted CTR,
bid and CPC, so a 504,000-row bucket holds about 16,000 distinct records.
The writers group identical rows by a stable sort over every column (floats
by their bits), format one line per group, then write the file
``CHUNK_ROWS`` rows at a time by indexing that table with each row's record
id.  Beyond the log itself, memory is the record table, a few integer
arrays of log length and one chunk of text, whatever the log length.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

import numpy as np

from .engine import ImpressionLog, TrialTable
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


def _trial_columns(trials: TrialTable):
    """Per-row lists: winner, cpc, degenerate, estimates, ranking, rank of each ad."""
    ranks = np.argsort(trials.order, axis=1) + 1  # 1-based realized rank of each ad
    return zip(trials.order[:, 0].tolist(), trials.cpc.tolist(), trials.degenerate.tolist(),
               trials.estimates.tolist(), trials.order.tolist(), ranks.tolist())


def write_trials_csv(path: Path, trials: TrialTable) -> None:
    if not len(trials):
        raise ValueError("no trials to write")
    m = trials.estimates.shape[1]
    header = (["trial", "winner", "cpc", "degenerate"]
              + [f"estimate_{i}" for i in range(m)]
              + [f"rank_{i}" for i in range(m)])
    rows = ([t, winner, cpc, int(degenerate), *estimates, *ranks]
            for t, (winner, cpc, degenerate, estimates, _ranking, ranks)
            in enumerate(_trial_columns(trials)))
    write_csv(path, header, rows)


def write_trials_jsonl(path: Path, trials: TrialTable) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for t, (winner, cpc, degenerate, estimates, ranking, ranks) in enumerate(
                _trial_columns(trials)):
            fh.write(json.dumps({
                "trial": t, "winner": winner, "cpc": cpc,
                "degenerate": degenerate, "estimates": estimates,
                "ranking": ranking, "ranks": ranks,
            }, sort_keys=True) + "\n")


IMPRESSION_HEADER = ["day", "bucket", "site", "pos", "ad_id", "mode",
                     "pred_ctr", "bid", "cpc", "click"]


# rows joined into one write by the impression writers
CHUNK_ROWS = 65536


def _distinct_records(log: ImpressionLog) -> tuple[np.ndarray, np.ndarray]:
    """Group identical records: (first row of each distinct record, record id per row).

    Floats compare by their bits, so ``-0.0`` and ``0.0`` stay apart.
    """
    floats = (log.pred_ctr, log.bid, log.cpc)
    keys = [log.day, log.site, log.pos, log.ad_id, log.random_mode, log.click,
            *(np.asarray(col, dtype=np.float64).view(np.int64) for col in floats)]
    order = np.lexsort(keys)
    starts = np.zeros(len(order), dtype=bool)
    starts[:1] = True
    for key in keys:
        ranked = key[order]
        starts[1:] |= ranked[1:] != ranked[:-1]
    ids = np.empty(len(order), dtype=np.int64)
    ids[order] = np.cumsum(starts) - 1
    return order[starts], ids


def _write_records(path: Path, header: str, table: list[str], ids: np.ndarray) -> None:
    lines = np.array(table, dtype=object)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header)
        for start in range(0, len(ids), CHUNK_ROWS):
            fh.write("".join(lines[ids[start:start + CHUNK_ROWS]].tolist()))


def write_impressions_csv(path: Path, log: ImpressionLog) -> None:
    first, ids = _distinct_records(log)
    columns = (log.day, log.site, log.pos, log.ad_id, log.random_mode,
               log.pred_ctr, log.bid, log.cpc, log.click)
    table = [f"{day},{log.bucket},{site},{pos},{ad_id},"
             f"{'random' if random_mode else 'greedy'},{pred!r},{bid!r},{cpc!r},{click}\n"
             for day, site, pos, ad_id, random_mode, pred, bid, cpc, click
             in zip(*(col[first].tolist() for col in columns))]
    _write_records(path, ",".join(IMPRESSION_HEADER) + "\n", table, ids)


def write_impressions_jsonl(path: Path, log: ImpressionLog) -> None:
    first, ids = _distinct_records(log)
    table = [json.dumps({
        "day": int(log.day[i]), "bucket": log.bucket,
        "site": int(log.site[i]), "pos": int(log.pos[i]),
        "ad_id": int(log.ad_id[i]),
        "mode": "random" if log.random_mode[i] else "greedy",
        "pred_ctr": float(log.pred_ctr[i]), "bid": float(log.bid[i]),
        "cpc": float(log.cpc[i]), "click": int(log.click[i]),
    }, sort_keys=True) + "\n" for i in first.tolist()]
    _write_records(path, "", table, ids)


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
