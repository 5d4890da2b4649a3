"""Artifact writers: CSV tables, histogram files, JSON reports, run manifests.

All text files are UTF-8 with LF line endings and a mandatory header row for
CSV.  Floats are written with shortest round-trip formatting so identical
runs produce identical bytes.

The trial writers work in columns: each distinct value of a column is
formatted once (``_text``; a 20,000-trial packaged setting has about 115
distinct estimates per ad), and ``_write_rows`` joins ``CHUNK_ROWS`` rows of
that text with the format's fixed separators per write.

The impression writers append one block of a bucket's accesses at a time
to a file opened once per bucket (``open_impressions``), and format each
distinct record of the block once.  An access's (day, context, ad, mode,
click) codes fix every field of its record, so a 16,384-access block of
the packaged A/B run holds a few hundred distinct records.  The writers
pack the codes into one integer per access, find the distinct ones by
marking the codes present (``_distinct_records``), format one line per
distinct record, then write ``CHUNK_ROWS`` rows at a time by indexing that
table with each access's record id.  Memory is a few integer arrays of
block length, the table and one chunk of text, whatever the run's length.
"""

from __future__ import annotations

import json
import platform
import sys
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


# rows joined into one write by the trial and impression writers
CHUNK_ROWS = 65536


def _text(values: np.ndarray, fmt) -> np.ndarray:
    """``fmt`` of each element of ``values``, called once per distinct value,
    as an object array of the same shape.  Floats are told apart by their
    bits, so 0.0 and -0.0 keep their own text."""
    values = np.ascontiguousarray(values)
    keys = values.view(np.uint64) if values.dtype == np.float64 else values
    distinct, ids = np.unique(keys.ravel(), return_inverse=True)
    if values.dtype == np.float64:
        distinct = distinct.view(np.float64)
    table = np.array([fmt(v) for v in distinct.tolist()], dtype=object)
    return table[ids].reshape(values.shape)


def _write_rows(fh, separators: list[str], columns: list[np.ndarray]) -> None:
    """One line per row: ``separators[0]``, then each column's text followed by
    the next separator, ``CHUNK_ROWS`` rows per write."""
    rows = len(columns[0])
    cells = np.empty((min(rows, CHUNK_ROWS), 2 * len(columns) + 1), dtype=object)
    cells[:, 0::2] = separators
    for start in range(0, rows, CHUNK_ROWS):
        block = cells[:min(CHUNK_ROWS, rows - start)]
        for i, column in enumerate(columns):
            block[:, 2 * i + 1] = column[start:start + CHUNK_ROWS]
        fh.write("".join(block.ravel().tolist()))


def write_trials_csv(path: Path, trials: TrialTable) -> None:
    if not len(trials):
        raise ValueError("no trials to write")
    m = trials.estimates.shape[1]
    header = (["trial", "winner", "cpc", "degenerate"]
              + [f"estimate_{i}" for i in range(m)]
              + [f"rank_{i}" for i in range(m)])
    columns = [_text(np.arange(len(trials)), str), _text(trials.order[:, 0], str),
               _text(trials.cpc, repr), _text(trials.degenerate.astype(np.int8), str),
               *_text(trials.estimates, repr).T, *_text(trials.rank + 1, str).T]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        _write_rows(fh, ["", *[","] * (len(columns) - 1), "\n"], columns)


def write_trials_jsonl(path: Path, trials: TrialTable) -> None:
    # json.dumps(..., sort_keys=True) of each trial's record, whose keys are fixed
    m = trials.estimates.shape[1]
    ranking = _text(trials.order, str)
    columns = [_text(trials.cpc, json.dumps), _text(trials.degenerate, json.dumps),
               *_text(trials.estimates, json.dumps).T, *ranking.T,
               *_text(trials.rank + 1, str).T, _text(np.arange(len(trials)), str),
               ranking[:, 0]]
    items = [", "] * (m - 1)  # between the m items of a list
    separators = ['{"cpc": ', ', "degenerate": ', ', "estimates": [', *items,
                  '], "ranking": [', *items, '], "ranks": [', *items,
                  '], "trial": ', ', "winner": ', "}\n"]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        _write_rows(fh, separators, columns)


IMPRESSION_HEADER = ["day", "bucket", "site", "pos", "ad_id", "mode",
                     "pred_ctr", "bid", "cpc", "click"]


def _distinct_records(log: ImpressionLog) -> tuple[ImpressionLog, np.ndarray]:
    """The log's distinct records in code order, and the record id of each access.

    Codes count days from the log's first, so they lie below 4 x its days x
    ads x contexts; the codes present are marked over that range and
    numbered by a running count, in one pass with no sort.
    """
    n_ctx, m = len(log.tables.contexts), len(log.tables.ads)
    day = log.day - log.day[0] if len(log) else log.day  # days never decrease
    # the day tables hold days x ads x contexts entries, so the code cannot overflow
    code = (((day * n_ctx + log.ctx) * m + log.winner) * 2 + log.random_mode) * 2 + log.click
    number = np.cumsum(np.bincount(code) > 0)
    ids = number[code] - 1
    # accesses that share an id share every field, so any one of them stands for the record
    rep = np.empty(number[-1] if len(number) else 0, dtype=np.intp)
    rep[ids] = np.arange(len(ids))
    return log.take(rep), ids


def open_impressions(path: Path, fmt: str):
    """One bucket's impression file, open for the writers to append blocks to:
    UTF-8 with LF line endings, and for ``fmt`` "csv" its header row written."""
    fh = open(path, "w", encoding="utf-8", newline="\n")
    if fmt == "csv":
        fh.write(",".join(IMPRESSION_HEADER) + "\n")
    return fh


def _write_impressions(fh, log: ImpressionLog, line) -> None:
    """Append one line per access to ``fh``; ``line`` formats a distinct record."""
    records, ids = _distinct_records(log)
    columns = (records.day, records.site, records.pos, records.ad_id, records.random_mode,
               records.pred_ctr, records.bid, records.cpc, records.click)
    table = np.array([line(*row) for row in zip(*(col.tolist() for col in columns))],
                     dtype=object)
    for start in range(0, len(ids), CHUNK_ROWS):
        fh.write("".join(table[ids[start:start + CHUNK_ROWS]].tolist()))


def write_impressions_csv(fh, log: ImpressionLog) -> None:
    def line(day, site, pos, ad_id, random_mode, pred, bid, cpc, click):
        return (f"{day},{log.bucket},{site},{pos},{ad_id},"
                f"{'random' if random_mode else 'greedy'},{pred!r},{bid!r},{cpc!r},{click}\n")

    _write_impressions(fh, log, line)


def write_impressions_jsonl(fh, log: ImpressionLog) -> None:
    def line(day, site, pos, ad_id, random_mode, pred, bid, cpc, click):
        return json.dumps({
            "day": day, "bucket": log.bucket, "site": site, "pos": pos, "ad_id": ad_id,
            "mode": "random" if random_mode else "greedy",
            "pred_ctr": pred, "bid": bid, "cpc": cpc, "click": click,
        }, sort_keys=True) + "\n"

    _write_impressions(fh, log, line)


def _scipy_version() -> str | None:
    """scipy's version; from its package metadata when the command has not
    loaded scipy, so that recording the version does not import it."""
    scipy = sys.modules.get("scipy")
    if scipy is not None:
        return scipy.__version__
    from importlib import metadata
    try:
        return metadata.version("scipy")
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
                       **extra) -> Path:
        """Write manifest.json; ``extra`` holds a command's own top-level fields,
        such as verify-theorems' per-case timings."""
        manifest_path = self.out_dir / "manifest.json"
        write_json(manifest_path, {
            "command": command,
            "tool_version": version,
            "seed": seed,
            "threads": threads,
            "environment": {"python": platform.python_version(),
                            "numpy": np.__version__,
                            "scipy": _scipy_version()},
            "config": config,
            "outputs": sorted(self.names) + ["manifest.json"],
            "duration_seconds": round(duration_seconds, 3),
            **extra,
        })
        return manifest_path
