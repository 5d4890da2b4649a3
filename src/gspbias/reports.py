"""Artifact writers: CSV tables, histogram files, JSON reports, run manifests.

All text files are UTF-8 with LF line endings and a mandatory header row for
CSV.  Floats are written with shortest round-trip formatting so identical
runs produce identical bytes.

The trial writers append one block of a setting's trials at a time to a
log opened once per setting and format (``open_trials``).  They work in
columns: each distinct value of a column is formatted once per block
(``_text``; a packaged setting's estimates take about 115 distinct values
per ad), and ``_write_rows`` joins ``CHUNK_ROWS`` rows of that text with
the format's fixed separators per write.

The impression writers append one block of a bucket's accesses at a time
to a file opened once per bucket and format (``open_impressions``).  An
access's record code (``record_codes``: its context, ad, mode and click)
fixes its whole line on a given day, so each file keeps one line per code,
4 x ads x contexts in all, and clears them when the day changes.  A block
marks the codes it holds and formats only those the table lacks, so each
record is formatted once per bucket-day (about 570 of 18,000 accesses a
day in the packaged A/B run).  A line joins per-field text made once per
file (bucket, site, pos, ad_id, bid, mode, click) or day (day, pred_ctr,
cpc) with the format's fixed separators: commas for CSV, and for JSONL the
keys in sorted order, each value's text from ``json.dumps``, so that a line
equals ``json.dumps(record, sort_keys=True)``.  Lines are kept as UTF-8
bytes and written ``CHUNK_ROWS`` at a time.  Memory is the table, a few
integer arrays of block length and one chunk of text, whatever the run's
length.
"""

from __future__ import annotations

import importlib.util
import json
import math
import platform
import sys
from pathlib import Path
from typing import Iterable

import numpy as np

from .engine import BucketTables, ImpressionLog, TrialTable
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
    edges = hist.edges
    rows = ((float(edges[i]), float(edges[i + 1]), int(hist.counts[i]))
            for i in range(len(hist.counts)))
    write_csv(path, ["bin_left", "bin_right", "count"], rows)


# rows joined into one write by the trial and impression writers; joining a
# megabyte or more per write (65,536 rows, or a whole 16,384-access block)
# measured slower on the packaged runs than chunks of a few hundred KB
CHUNK_ROWS = 2048


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


def open_trials(path: Path, fmt: str, ads: int):
    """One setting's trial log, open for the ``fmt`` writer to append blocks
    of trials to: UTF-8 with LF line endings, and for "csv" its header row
    written."""
    fh = open(path, "w", encoding="utf-8", newline="\n")
    if fmt == "csv":
        fh.write(",".join(["trial", "winner", "cpc", "degenerate"]
                          + [f"estimate_{i}" for i in range(ads)]
                          + [f"rank_{i}" for i in range(ads)]) + "\n")
    return fh


def _trial_numbers(trials: TrialTable) -> np.ndarray:
    return _text(np.arange(trials.first, trials.first + len(trials)), str)


def write_trials_csv(fh, trials: TrialTable) -> None:
    """Append one CSV row per trial to the log ``fh`` (``open_trials``)."""
    columns = [_trial_numbers(trials), _text(trials.order[:, 0], str),
               _text(trials.cpc, repr), _text(trials.degenerate.astype(np.int8), str),
               *_text(trials.estimates, repr).T, *_text(trials.rank + 1, str).T]
    _write_rows(fh, ["", *[","] * (len(columns) - 1), "\n"], columns)


def write_trials_jsonl(fh, trials: TrialTable) -> None:
    """Append one JSON line per trial to the log ``fh`` (``open_trials``):
    json.dumps(..., sort_keys=True) of each trial's record, whose keys are
    fixed."""
    m = trials.estimates.shape[1]
    ranking = _text(trials.order, str)
    columns = [_text(trials.cpc, json.dumps), _text(trials.degenerate, json.dumps),
               *_text(trials.estimates, json.dumps).T, *ranking.T,
               *_text(trials.rank + 1, str).T, _trial_numbers(trials), ranking[:, 0]]
    items = [", "] * (m - 1)  # between the m items of a list
    separators = ['{"cpc": ', ', "degenerate": ', ', "estimates": [', *items,
                  '], "ranking": [', *items, '], "ranks": [', *items,
                  '], "trial": ', ', "winner": ', "}\n"]
    _write_rows(fh, separators, columns)


IMPRESSION_HEADER = ["day", "bucket", "site", "pos", "ad_id", "mode",
                     "pred_ctr", "bid", "cpc", "click"]


def record_codes(log: ImpressionLog) -> np.ndarray:
    """Each access's record code, ((ctx * ads + winner) * 2 + mode) * 2 + click,
    which with its day fixes the access's whole line; codes lie below
    4 x ads x contexts."""
    return ((log.ctx * len(log.tables.ads) + log.winner) * 2 + log.random_mode) * 2 + log.click


class ImpressionFile:
    """One bucket's impression file, open for one format's writer to append
    blocks of the bucket's log to.  It keeps the text of the fields of its
    current day tables and day, and ``lines``, each record code's line as
    UTF-8 bytes, set where ``known``: the codes formatted on that day so far."""

    def __init__(self, path: Path, header: str):
        self.fh = open(path, "wb")
        self.fh.write(header.encode())
        self.tables = self.specs = self.day = self.pieces = self.lines = self.known = None

    def __enter__(self) -> "ImpressionFile":
        return self

    def __exit__(self, *exc) -> None:
        self.fh.close()


def open_impressions(path: Path, fmt: str) -> ImpressionFile:
    """One bucket's impression file, open for the ``fmt`` writer to append
    blocks to: UTF-8 with LF line endings, and for "csv" its header row written."""
    return ImpressionFile(path, ",".join(IMPRESSION_HEADER) + "\n" if fmt == "csv" else "")


def _axes(values, shape, text) -> np.ndarray:
    """``text`` of each value, laid along the axes of the record code,
    (ctx, ad, mode, click), that the values vary with."""
    return np.array([text(v) for v in values], dtype=object).reshape(shape)


def _spec_fields(tables: BucketTables, text) -> dict[str, np.ndarray]:
    """The fields that do not change with the day, as ``_axes``."""
    n_ctx, m = len(tables.contexts), len(tables.ads)
    ctx, ad = (n_ctx, 1, 1, 1), (1, m, 1, 1)
    return {"bucket": _axes([tables.bucket], 1, text),
            "site": _axes([c.site for c in tables.contexts], ctx, text),
            "pos": _axes([c.pos for c in tables.contexts], ctx, text),
            "ad_id": _axes([ad.id for ad in tables.ads], ad, text),
            "mode": _axes(["greedy", "random"], (1, 1, 2, 1), text),
            "bid": _axes(np.array([ad.bid for ad in tables.ads]).tolist(), ad, text),
            "click": _axes([0, 1], (1, 1, 1, 2), text)}


def _day_fields(tables: BucketTables, day: int, text) -> dict[str, np.ndarray]:
    """The fields of ``day``'s records that the day changes, as ``_axes``;
    explored displays are never charged."""
    n_ctx, m = len(tables.contexts), len(tables.ads)
    cpc = np.stack([tables.prices[day], np.zeros(n_ctx)], axis=1)
    return {"day": _axes([day], 1, text),
            "pred_ctr": _text(tables.estimates[day].T, text).reshape(n_ctx, m, 1, 1),
            "cpc": _axes(cpc.ravel().tolist(), (n_ctx, 1, 2, 1), text)}


def _lines(pieces: list[np.ndarray], shape, codes: np.ndarray) -> list[bytes]:
    """The UTF-8 line of each record code: its text from each of the day's
    pieces, laid along the code's axes of ``shape``, joined."""
    at = np.unravel_index(codes, shape)
    columns = [np.broadcast_to(piece, shape)[at].tolist() for piece in pieces]
    return ["".join(line).encode() for line in zip(*columns)]


def _append(sink: ImpressionFile, log: ImpressionLog, code, fmt) -> None:
    """Append one line per access of ``log`` to ``sink``.  ``code`` holds each
    access's record code (``record_codes``), and ``fmt`` is the line format:
    the ``text`` of one value, the field names in line order, and the
    separators before each field and at the line's end.

    Each record is formatted once per file and day: the file keeps one line
    per code, 4 x ads x contexts in all, and clears them when the day changes.
    """
    if not len(log):
        return
    text, names, separators = fmt
    tables = log.tables
    shape = (len(tables.contexts), len(tables.ads), 2, 2)
    size = math.prod(shape)
    if sink.tables is not tables:
        sink.tables, sink.specs, sink.day = tables, _spec_fields(tables, text), None
    cuts = [0, *(np.flatnonzero(np.diff(log.day)) + 1).tolist(), len(log)]
    for lo, hi in zip(cuts, cuts[1:]):  # one day at a time
        day = int(log.day[lo])
        if sink.day != day:
            fields = {**sink.specs, **_day_fields(tables, day, text)}
            sink.day = day
            sink.pieces = [sep + fields[name] for sep, name in zip(separators, names)]
            sink.pieces[-1] = sink.pieces[-1] + separators[-1]
            sink.lines = np.empty(size, dtype=object)
            sink.known = np.zeros(size, dtype=bool)
        new = np.zeros(size, dtype=bool)
        new[code[lo:hi]] = True
        new = np.flatnonzero(new & ~sink.known)
        sink.lines[new] = _lines(sink.pieces, shape, new)
        sink.known[new] = True
        for start in range(lo, hi, CHUNK_ROWS):
            sink.fh.write(b"".join(sink.lines[code[start:min(start + CHUNK_ROWS, hi)]].tolist()))


_CSV = (_fmt, IMPRESSION_HEADER, ["", *[","] * (len(IMPRESSION_HEADER) - 1), "\n"])
# json.dumps(record, sort_keys=True): the same fields in key order
_JSONL = (json.dumps, sorted(IMPRESSION_HEADER),
          [("{" if i == 0 else ", ") + json.dumps(name) + ": "
           for i, name in enumerate(sorted(IMPRESSION_HEADER))] + ["}\n"])


def write_impressions_csv(sink: ImpressionFile, log: ImpressionLog, code: np.ndarray) -> None:
    """Append ``log``'s lines to a file opened by ``open_impressions`` for "csv"."""
    _append(sink, log, code, _CSV)


def write_impressions_jsonl(sink: ImpressionFile, log: ImpressionLog, code: np.ndarray) -> None:
    """Append ``log``'s lines to a file opened by ``open_impressions`` for "json"."""
    _append(sink, log, code, _JSONL)


def _scipy_version() -> str | None:
    """scipy's version: ``scipy.__version__`` when the command has loaded
    scipy, else the ``version`` of scipy's ``version.py``, the module that
    attribute comes from, run alone so that scipy's package init never runs."""
    scipy = sys.modules.get("scipy")
    if scipy is not None:
        return scipy.__version__
    package = importlib.util.find_spec("scipy")
    if package is None:
        return None
    spec = importlib.util.spec_from_file_location(
        "scipy.version", Path(package.submodule_search_locations[0]) / "version.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.version


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
