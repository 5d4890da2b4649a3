"""Artifact writers: CSV tables, histogram files, JSON reports, run manifests.

All text files are UTF-8 with LF line endings and a mandatory header row for
CSV.  Floats are written with shortest round-trip formatting so identical
runs produce identical bytes.

The impression writers format each distinct record of a log once.  An
access's (day, context, ad, mode, click) codes fix every field of its
record, so a 504,000-row A/B bucket holds about 16,000 distinct records.
The writers pack the codes into one integer per access, find the distinct
ones with ``np.unique``, format one line per distinct record, then write
``CHUNK_ROWS`` rows at a time by indexing that table with each access's
record id.  Beyond the log, memory is the table, a few integer arrays of
log length and one chunk of text, whatever the log length.
"""

from __future__ import annotations

import json
import platform
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


def _distinct_records(log: ImpressionLog) -> tuple[ImpressionLog, np.ndarray]:
    """The log's distinct records, each at its first access, and the record id of each access."""
    n_ctx, m = len(log.contexts), len(log.ads)
    # the day tables hold days x ads x contexts entries, so the code cannot overflow
    code = (((log.day * n_ctx + log.ctx) * m + log.winner) * 2 + log.random_mode) * 2 + log.click
    _codes, first, ids = np.unique(code, return_index=True, return_inverse=True)
    return log.take(first), ids


def _write_impressions(path: Path, header: str, log: ImpressionLog, line) -> None:
    """Write ``header``, then one line per access; ``line`` formats a distinct record."""
    records, ids = _distinct_records(log)
    columns = (records.day, records.site, records.pos, records.ad_id, records.random_mode,
               records.pred_ctr, records.bid, records.cpc, records.click)
    table = np.array([line(*row) for row in zip(*(col.tolist() for col in columns))],
                     dtype=object)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header)
        for start in range(0, len(ids), CHUNK_ROWS):
            fh.write("".join(table[ids[start:start + CHUNK_ROWS]].tolist()))


def write_impressions_csv(path: Path, log: ImpressionLog) -> None:
    def line(day, site, pos, ad_id, random_mode, pred, bid, cpc, click):
        return (f"{day},{log.bucket},{site},{pos},{ad_id},"
                f"{'random' if random_mode else 'greedy'},{pred!r},{bid!r},{cpc!r},{click}\n")

    _write_impressions(path, ",".join(IMPRESSION_HEADER) + "\n", log, line)


def write_impressions_jsonl(path: Path, log: ImpressionLog) -> None:
    def line(day, site, pos, ad_id, random_mode, pred, bid, cpc, click):
        return json.dumps({
            "day": day, "bucket": log.bucket, "site": site, "pos": pos, "ad_id": ad_id,
            "mode": "random" if random_mode else "greedy",
            "pred_ctr": pred, "bid": bid, "cpc": cpc, "click": click,
        }, sort_keys=True) + "\n"

    _write_impressions(path, "", log, line)


def _dist_version(name: str) -> str | None:
    # read from package metadata, so that recording scipy's version does not
    # import it; importlib.metadata itself loads only when a manifest is written
    from importlib import metadata
    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return None


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
                       duration_seconds: float, version: str, threads: int,
                       cases: list[dict] | None = None) -> Path:
        """Write manifest.json; ``cases`` holds one timing entry per theorem case."""
        manifest_path = self.out_dir / "manifest.json"
        extra = {} if cases is None else {"cases": cases}
        write_json(manifest_path, {
            "command": command,
            "tool_version": version,
            "seed": seed,
            "threads": threads,
            "environment": {"python": platform.python_version(),
                            "numpy": _dist_version("numpy"),
                            "scipy": _dist_version("scipy")},
            "config": config,
            "outputs": sorted(self.names) + ["manifest.json"],
            "duration_seconds": round(duration_seconds, 3),
            **extra,
        })
        return manifest_path
