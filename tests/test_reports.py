import contextlib
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gspbias import reports
from gspbias.engine import (
    BLOCK,
    AbConfig,
    AdSpec,
    BucketSpec,
    BucketTables,
    Context,
    ImpressionLog,
    TrialTable,
    run_ab_experiment,
)
from gspbias.reports import (
    IMPRESSION_HEADER,
    open_impressions,
    record_codes,
    write_impressions_csv,
    write_impressions_jsonl,
    write_trials_csv,
    write_trials_jsonl,
)
from reference import join_blocks, record_columns, take


def reference_csv(path, log):
    """One formatted line per access: the writer the record table replaced."""
    log = record_columns(log)
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


def reference_jsonl(path, log):
    log = record_columns(log)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        day, site, pos = log.day.tolist(), log.site.tolist(), log.pos.tolist()
        ad_id, click = log.ad_id.tolist(), log.click.tolist()
        pred, bid, cpc = log.pred_ctr.tolist(), log.bid.tolist(), log.cpc.tolist()
        for i in range(len(day)):
            fh.write(json.dumps({
                "day": day[i], "bucket": log.bucket, "site": site[i], "pos": pos[i],
                "ad_id": ad_id[i], "mode": "random" if log.random_mode[i] else "greedy",
                "pred_ctr": pred[i], "bid": bid[i], "cpc": cpc[i], "click": click[i],
            }, sort_keys=True) + "\n")


# day-table values: both zeros, which compare equal as floats but print
# differently, the smallest subnormal and two long reprs
VALUE = st.sampled_from([0.0, -0.0, 5e-324, 1 / 3, 0.04123456789012345])
# the second name needs JSON escapes: a quote, a backslash and a non-ASCII letter
BUCKET = st.sampled_from(["A", 'b"\\é'])


def code_log(bucket, ads, contexts, estimates, prices, rows):
    """A log from (day, ctx, winner, random_mode, click) rows, days non-decreasing."""
    cols = list(zip(*rows)) if rows else [()] * 5
    estimates = np.array(estimates, dtype=np.float64).reshape(-1, len(ads), len(contexts))
    counts = np.zeros((len(estimates), 2, len(ads), len(contexts)), dtype=np.int64)
    tables = BucketTables(bucket, ads, contexts, estimates,
                          np.array(prices, dtype=np.float64).reshape(-1, len(contexts)),
                          impressions=counts, clicks=counts)
    return ImpressionLog(
        tables, day=np.array(cols[0], dtype=np.int64), ctx=np.array(cols[1], dtype=np.int64),
        winner=np.array(cols[2], dtype=np.int64), random_mode=np.array(cols[3], dtype=bool),
        click=np.array(cols[4], dtype=np.int8))


@st.composite
def code_logs(draw):
    m, n_ctx, days = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    ids = sorted(draw(st.lists(st.sampled_from([1, 2, 7, 29]), min_size=m, max_size=m,
                               unique=True)))
    ads = tuple(AdSpec(i, draw(VALUE), 0.05) for i in ids)
    places = draw(st.lists(st.tuples(st.sampled_from([1, 2]), st.sampled_from([1, 3])),
                           min_size=n_ctx, max_size=n_ctx, unique=True))
    contexts = tuple(Context(site, pos, 1.0) for site, pos in places)
    estimates = draw(st.lists(VALUE, min_size=days * m * n_ctx, max_size=days * m * n_ctx))
    prices = draw(st.lists(VALUE, min_size=days * n_ctx, max_size=days * n_ctx))
    # small pools so that records repeat; explore rows included
    rows = draw(st.lists(st.tuples(st.integers(0, days - 1), st.integers(0, n_ctx - 1),
                                   st.integers(0, m - 1), st.booleans(), st.integers(0, 1)),
                         max_size=60))
    rows.sort(key=lambda row: row[0])
    return code_log(draw(BUCKET), ads, contexts, estimates, prices, rows)


def signed_zero_log(repeats=1):
    """Two days whose tables differ only in the sign of zeros, then an explore row."""
    rows = [(0, 0, 0, False, 1), (1, 0, 0, False, 1), (1, 1, 1, True, 0)]
    rows = sorted(rows * repeats, key=lambda row: row[0])
    return code_log('b"\\é', (AdSpec(2, -0.0, 0.05), AdSpec(7, 1 / 3, 0.05)),
                    (Context(1, 1, 1.0), Context(2, 3, 1.0)),
                    [[[0.0, 5e-324], [-0.0, 1 / 3]], [[-0.0, 5e-324], [0.0, 1 / 3]]],
                    [[0.0, -0.0], [-0.0, 0.04123456789012345]], rows)


WRITERS = (("csv", write_impressions_csv, reference_csv),
           ("json", write_impressions_jsonl, reference_jsonl))


def assert_writers_match_reference(log, block=None):
    """The writers, given the log whole or in consecutive ``block``-row
    pieces, write the per-row reference's bytes."""
    block = block or max(len(log), 1)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for fmt, writer, reference in WRITERS:
            with open_impressions(out / "new", fmt) as fh:
                for start in range(0, len(log), block):
                    part = take(log, slice(start, start + block))
                    writer(fh, part, record_codes(part))
            reference(out / "ref", log)
            assert (out / "new").read_bytes() == (out / "ref").read_bytes(), writer.__name__


class TestImpressionWriters:
    @settings(max_examples=150, deadline=None)
    @given(log=code_logs(), chunk=st.sampled_from([1, 3, reports.CHUNK_ROWS]),
           block=st.sampled_from([1, 7, None]))
    @example(log=signed_zero_log(), chunk=3, block=None)
    def test_match_per_row_reference(self, log, chunk, block):
        with mock.patch.object(reports, "CHUNK_ROWS", chunk):
            assert_writers_match_reference(log, block)

    @pytest.mark.parametrize("traffic", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    def test_served_blocks_match_per_row_reference(self, tmp_path, traffic):
        """Each bucket's blocks, written as run_ab_experiment serves them, make
        the file the per-row reference writes from the whole run's log."""
        cfg = AbConfig(ads=(AdSpec(1, 1.0, 0.05), AdSpec(4, 1.3, 0.2), AdSpec(9, 0.7, 0.1)),
                       contexts=(Context(1, 1, 1.0), Context(2, 1, 0.6)),
                       buckets=(BucketSpec("A", "naive"), BucketSpec("B", "pooled")),
                       days=2, traffic_per_day=traffic, epsilon=0.2, window_days=1,
                       burn_in_days=0, seed=8)
        blocks = {bucket.name: [] for bucket in cfg.buckets}
        with contextlib.ExitStack() as files:
            sinks = {(bucket.name, fmt): files.enter_context(
                open_impressions(tmp_path / f"{bucket.name}.{fmt}", fmt))
                for bucket in cfg.buckets for fmt, _writer, _reference in WRITERS}

            def write(bucket, block):
                blocks[bucket].append(block)
                for fmt, writer, _reference in WRITERS:
                    writer(sinks[bucket, fmt], block, record_codes(block))

            run_ab_experiment(cfg, write)
        for name, parts in blocks.items():
            log = join_blocks(parts)
            assert len(log) == cfg.days * traffic
            for fmt, _writer, reference in WRITERS:
                reference(tmp_path / "ref", log)
                assert ((tmp_path / f"{name}.{fmt}").read_bytes()
                        == (tmp_path / "ref").read_bytes()), (name, fmt)

    def test_log_longer_than_a_chunk(self):
        """One full chunk at the module's own chunk size, then a partial one."""
        log = signed_zero_log(reports.CHUNK_ROWS // 3 + 1)
        assert len(log) > reports.CHUNK_ROWS
        assert_writers_match_reference(log)


class TestLineTable:
    """Each file formats a record once per day, from a table of 4 x ads x
    contexts lines that the next day clears."""

    def test_day_change_clears_the_table(self, tmp_path):
        """Days 0 and 1 share a record code, and their tables differ only in
        the sign of zeros: each day's line carries its own day's values."""
        log = signed_zero_log()
        code = record_codes(log)
        assert code[0] == code[1] and log.day[0] != log.day[1]
        expected = {"csv": ['0,b"\\é,1,1,2,greedy,0.0,-0.0,0.0,1',
                            '1,b"\\é,1,1,2,greedy,-0.0,-0.0,-0.0,1'],
                    "json": [{"pred_ctr": "0.0", "cpc": "0.0"},
                             {"pred_ctr": "-0.0", "cpc": "-0.0"}]}
        for fmt, writer, _reference in WRITERS:
            with open_impressions(tmp_path / fmt, fmt) as sink:
                writer(sink, log, code)
            lines = (tmp_path / fmt).read_text(encoding="utf-8").splitlines()
            if fmt == "csv":
                assert lines[1:3] == expected["csv"]
            else:  # the zeros' text, as json.loads would lose their sign
                for line, values in zip(lines[:2], expected["json"]):
                    for key, text in values.items():
                        assert f'"{key}": {text},' in line

    @pytest.mark.parametrize("block", [3, 4])
    def test_block_across_a_day_boundary(self, block):
        """Days 0, 0, 1, 1, 1 in blocks of ``block`` rows: the first block
        spans the day change, and the second goes on with day 1, whose
        lines the first one began."""
        rows = [(0, 0, 0, False, 1), (0, 1, 1, True, 0), (1, 0, 0, False, 1),
                (1, 1, 1, True, 0), (1, 0, 0, False, 1)]
        log = code_log("A", (AdSpec(1, 0.5, 0.05), AdSpec(2, 1 / 3, 0.05)),
                       (Context(1, 1, 1.0), Context(1, 2, 1.0)),
                       [[[0.1, 0.2], [0.3, 0.4]], [[0.5, -0.0], [0.0, 1 / 3]]],
                       [[0.25, 0.5], [-0.0, 0.75]], rows)
        assert_writers_match_reference(log, block)

    @settings(max_examples=100, deadline=None)
    @given(log=code_logs(), block=st.sampled_from([1, 7, None]))
    @example(log=signed_zero_log(5), block=4)
    def test_formats_each_record_once_per_day_in_a_bounded_table(self, tmp_path_factory,
                                                                 log, block):
        """Lines formatted equal the distinct (day, code) pairs of the log,
        and the table never holds more than 4 x ads x contexts lines."""
        size = 4 * len(log.tables.ads) * len(log.tables.contexts)
        pairs = len(set(zip(log.day.tolist(), record_codes(log).tolist())))
        block = block or max(len(log), 1)
        out = tmp_path_factory.mktemp("lines")
        real = reports._lines
        for fmt, writer, _reference in WRITERS:
            formatted = []

            def counted(pieces, shape, codes):
                formatted.extend(codes.tolist())
                return real(pieces, shape, codes)

            with mock.patch.object(reports, "_lines", counted), \
                    open_impressions(out / fmt, fmt) as sink:
                for start in range(0, len(log), block):
                    part = take(log, slice(start, start + block))
                    writer(sink, part, record_codes(part))
                    assert len(sink.lines) == size and sink.known.sum() <= size
            assert len(formatted) == pairs, fmt


def trial_rows(trials):
    """Trial t's winner, cpc, degenerate flag, estimates, ranking and ranks, one row at a time."""
    for t in range(len(trials)):
        ranking = [int(i) for i in trials.order[t]]
        ranks = [0] * len(ranking)
        for k, i in enumerate(ranking):
            ranks[i] = k + 1
        yield (t, ranking[0], float(trials.cpc[t]), bool(trials.degenerate[t]),
               [float(e) for e in trials.estimates[t]], ranking, ranks)


def reference_trials_csv(path, trials):
    """One formatted line per trial: the writer the column table replaced."""
    m = trials.estimates.shape[1]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["trial", "winner", "cpc", "degenerate"]
                          + [f"estimate_{i}" for i in range(m)]
                          + [f"rank_{i}" for i in range(m)]) + "\n")
        for t, winner, cpc, degenerate, estimates, _ranking, ranks in trial_rows(trials):
            fh.write(",".join([str(t), str(winner), repr(cpc), str(int(degenerate))]
                              + [repr(e) for e in estimates] + [str(r) for r in ranks]) + "\n")


def reference_trials_jsonl(path, trials):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for t, winner, cpc, degenerate, estimates, ranking, ranks in trial_rows(trials):
            fh.write(json.dumps({
                "trial": t, "winner": winner, "cpc": cpc, "degenerate": degenerate,
                "estimates": estimates, "ranking": ranking, "ranks": ranks,
            }, sort_keys=True) + "\n")


@st.composite
def trial_tables(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 30))
    value = st.sampled_from([0.0, -0.0, 0.05, 1 / 3, 1.0, 5e-324, 0.04123456789012345])
    order = np.array(draw(st.lists(st.permutations(range(m)), min_size=n, max_size=n)),
                     dtype=np.int64).reshape(n, m)
    return TrialTable(
        estimates=np.array(draw(st.lists(st.lists(value, min_size=m, max_size=m),
                                         min_size=n, max_size=n))).reshape(n, m),
        rank=np.argsort(order, axis=1), order=order,
        cpc=np.array(draw(st.lists(value, min_size=n, max_size=n))),
        degenerate=np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))),
    )


def assert_trial_writers_match_reference(trials):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for writer, reference in ((write_trials_csv, reference_trials_csv),
                                  (write_trials_jsonl, reference_trials_jsonl)):
            writer(out / "new", trials)
            reference(out / "ref", trials)
            assert (out / "new").read_bytes() == (out / "ref").read_bytes(), writer.__name__


class TestTrialWriters:
    @settings(max_examples=150, deadline=None)
    @given(trials=trial_tables(), chunk=st.sampled_from([1, 3, reports.CHUNK_ROWS]))
    def test_match_per_row_reference(self, trials, chunk):
        with mock.patch.object(reports, "CHUNK_ROWS", chunk):
            assert_trial_writers_match_reference(trials)

    def test_table_longer_than_a_chunk(self):
        """One full chunk at the module's own chunk size, then a partial one,
        with signed zeros, a subnormal and long reprs among the values."""
        n = reports.CHUNK_ROWS + 3
        values = np.array([0.0, -0.0, 5e-324, 1 / 3, 0.04123456789012345, 0.05])
        order = np.array([[0, 1, 2], [2, 0, 1], [1, 2, 0]])[np.arange(n) % 3]
        trials = TrialTable(estimates=values[np.arange(3 * n).reshape(n, 3) % 5],
                            rank=np.argsort(order, axis=1), order=order,
                            cpc=values[np.arange(n) % 6],
                            degenerate=np.arange(n) % 7 == 0)
        assert_trial_writers_match_reference(trials)
