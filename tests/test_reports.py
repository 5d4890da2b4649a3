import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gspbias import reports
from gspbias.engine import ImpressionLog, TrialTable
from gspbias.reports import (
    IMPRESSION_HEADER,
    write_impressions_csv,
    write_impressions_jsonl,
    write_trials_csv,
    write_trials_jsonl,
)


def reference_csv(path, log):
    """One formatted line per access: the writer the record table replaced."""
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


# small pools so that rows repeat; cpc holds both zeros, which compare equal
# as floats but print differently
ROW = st.tuples(
    st.sampled_from([0, 1, 29]), st.sampled_from([1, 2]), st.sampled_from([1, 3]),
    st.sampled_from([1, 2, 7]), st.booleans(),
    st.sampled_from([0.0, 0.05, 1 / 3, 5e-324]), st.sampled_from([0.9, 1.0, 1.2]),
    st.sampled_from([0.0, -0.0, 0.04123456789012345, 1.0]), st.sampled_from([0, 1]),
)
# the second name needs JSON escapes: a quote, a backslash and a non-ASCII letter
BUCKET = st.sampled_from(["A", 'b"\\é'])


def make_log(bucket, rows):
    cols = list(zip(*rows)) if rows else [()] * 9
    ints = [np.array(c, dtype=np.int64) for c in cols[:4]]
    return ImpressionLog(
        bucket, *ints, random_mode=np.array(cols[4], dtype=bool),
        pred_ctr=np.array(cols[5], dtype=np.float64),
        bid=np.array(cols[6], dtype=np.float64),
        cpc=np.array(cols[7], dtype=np.float64),
        click=np.array(cols[8], dtype=np.int64),
    )


def assert_writers_match_reference(log):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for writer, reference in ((write_impressions_csv, reference_csv),
                                  (write_impressions_jsonl, reference_jsonl)):
            writer(out / "new", log)
            reference(out / "ref", log)
            assert (out / "new").read_bytes() == (out / "ref").read_bytes(), writer.__name__


SIGNED_ZEROS = [(0, 1, 1, 2, False, 0.05, 1.0, cpc, 1) for cpc in (0.0, -0.0, 0.0, -0.0)]


class TestImpressionWriters:
    @settings(max_examples=150, deadline=None)
    @given(bucket=BUCKET, rows=st.lists(ROW, max_size=60),
           chunk=st.sampled_from([1, 3, reports.CHUNK_ROWS]))
    @example(bucket='b"\\é', rows=SIGNED_ZEROS, chunk=3)
    def test_match_per_row_reference(self, bucket, rows, chunk):
        with mock.patch.object(reports, "CHUNK_ROWS", chunk):
            assert_writers_match_reference(make_log(bucket, rows))

    def test_log_longer_than_a_chunk(self):
        """One full chunk at the module's own chunk size, then a partial one."""
        rows = (SIGNED_ZEROS + [(1, 2, 3, 7, True, 1 / 3, 0.9, 0.0, 0)]) * (
            reports.CHUNK_ROWS // (len(SIGNED_ZEROS) + 1) + 1)
        assert len(rows) > reports.CHUNK_ROWS
        assert_writers_match_reference(make_log('b"\\é', rows))


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
    return TrialTable(
        estimates=np.array(draw(st.lists(st.lists(value, min_size=m, max_size=m),
                                         min_size=n, max_size=n))).reshape(n, m),
        order=np.array(draw(st.lists(st.permutations(range(m)), min_size=n, max_size=n)),
                       dtype=np.int64).reshape(n, m),
        cpc=np.array(draw(st.lists(value, min_size=n, max_size=n))),
        degenerate=np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))),
    )


class TestTrialWriters:
    @settings(max_examples=150, deadline=None)
    @given(trials=trial_tables())
    def test_match_per_row_reference(self, trials):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            for writer, reference in ((write_trials_csv, reference_trials_csv),
                                      (write_trials_jsonl, reference_trials_jsonl)):
                writer(out / "new", trials)
                reference(out / "ref", trials)
                assert (out / "new").read_bytes() == (out / "ref").read_bytes(), writer.__name__
