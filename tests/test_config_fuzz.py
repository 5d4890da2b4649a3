"""Config fuzzing: INI texts for every command, built from valid and invalid
field values, keep the CLI's exit-code and output contract.

Each config's fields are drawn from a pool that starts with the valid
value and goes on to negative, zero, NaN, infinite, huge, empty,
wrong-count and malformed ones, or leaves the field out; a whole section
may be left out too.  One test tries each value and each left-out section
alone, the Hypothesis test combinations of them.  Whatever the config, the
run must exit 0, 1, 2 or 3, print no traceback, write only strict JSON and
JSON lines (no NaN or Infinity), and exit 1 only from a verify-theorems run
whose report says ``"passed": false``.  The valid values keep every run
small.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from gspbias.cli import main

OMIT = None  # a pool entry that leaves the field out

# command -> section -> key -> pool; each pool's first entry is the valid value
FIELDS = {
    "simulate-cpc": {
        "study": {
            "seed": ["3", "-1", "x", OMIT],
            "trials": ["150", "0", "-1", "1", "nan", "", OMIT],
            "bids": ["1.0", "0", "-1", "nan", "inf", "", "1.0, 2.0", "1, 2, 3", "1e200"],
            "cpc_hist_width": ["0.01", "0", "-0.01", "nan", "inf", "1e-300"],
            "score_hist_width": ["0.0005", "0", "nan", "inf", "1e-300", "abc"],
        },
        "setting.a": {
            "impressions": ["200", "0", "-5", "nan", "inf", "2.5", "1e300", "", "100, 200",
                            "1, 2, 3"],
            "true_ctrs": ["0.05, 0.05", "0, 0.05", "1.5, 0.05", "nan, 0.05", "", "0.05",
                          "0.05, 0.04, 0.03", "1, 1", OMIT],
        },
        "setting.b": {
            "impressions": ["300", "1", "0"],
            "true_ctrs": ["0.05, 0.04", "0.05", "inf, 0.04", OMIT],
        },
    },
    "verify-theorems": {
        "verify": {
            "seed": ["5", "-1", "2.5", OMIT],
            "mc_draws": ["3000", "0", "-1", "1", "2", "nan", ""],
        },
        "case.a": {
            "dists": ["beta:2:38, uniform:0:0.1", "", "beta:0.5:2", "gamma:1:2", "uniform:1:0",
                      "uniform:0:inf", "beta:nan:2", "beta:2", "beta:2:2:0", "beta:2:38:-1",
                      "beta:2:38, beta:2:38", "uniform:0:0", OMIT],
        },
        "case.b": {
            "dists": ["uniform:0:1, uniform:0:1", "uniform:0:1", "uniform:-1:1", OMIT],
        },
    },
    "ab-run": {
        "experiment": {
            "seed": ["11", "-1", OMIT],
            "days": ["3", "0", "-1", "1", "x"],
            "burn_in_days": ["1", "0", "-1", "3", "4", OMIT],
            "window_days": ["2", "0", "1", "-1", OMIT],
            "traffic_per_day": ["300", "0", "1", "-1", ""],
            "epsilon": ["0.2", "0", "1", "-0.1", "1.5", "nan", "inf"],
        },
        "bucket.A": {"estimator": ["naive", "pooled", "other", ""]},
        "bucket.B": {"estimator": ["pooled", "naive", OMIT]},
        "context.1": {
            "site": ["1", "x"],
            "pos": ["1", "2"],  # 2 repeats context.2's (site, pos)
            "multiplier": ["1.0", "0", "-1", "nan", "inf"],
        },
        "context.2": {"site": ["1"], "pos": ["2"], "multiplier": ["0.8", "0", OMIT]},
        "ad.1": {
            "bid": ["1.0", "0", "-1", "nan", "inf"],
            "base_ctr": ["0.05", "0", "1", "-0.1", "1.5", "nan"],
        },
        "ad.2": {"bid": ["1.2", "0", OMIT], "base_ctr": ["0.06", "0", "inf"]},
    },
}


# every output kind each command can write
EXTRA_FLAGS = {"simulate-cpc": ["--format", "both", "--emit-trials"],
               "verify-theorems": [], "ab-run": ["--format", "both"]}


def config_text(command, values, dropped=()) -> str:
    """The config of ``command`` with ``values[(section, key)]`` in place of
    the valid values and the sections in ``dropped`` left out."""
    lines = ["[config]", "schema_version = 1", f"command = {command}"]
    for section, fields in FIELDS[command].items():
        if section in dropped:
            continue
        lines.append(f"[{section}]")
        for key, pool in fields.items():
            value = values.get((section, key), pool[0])
            if value is not OMIT:
                lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _strict(token):
    raise ValueError(f"non-standard JSON constant {token}")


def check_contract(command, text):
    """Run ``command`` on ``text`` and check the exit-code and output contract."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "run.cfg", Path(tmp) / "out"
        cfg.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg), "--out", str(out), "--threads", "1",
                         *EXTRA_FLAGS[command]])
        assert code in (0, 1, 2, 3), text
        assert "Traceback" not in err.getvalue(), text
        reports = {}
        for path in sorted(out.glob("*.json")) if out.exists() else ():
            reports[path.name] = json.loads(path.read_text(), parse_constant=_strict)
        for path in sorted(out.glob("*.jsonl")) if out.exists() else ():
            for line in path.read_text().splitlines():
                json.loads(line, parse_constant=_strict)
        if code == 1:
            assert command == "verify-theorems", text
            assert reports["theorem_report.json"]["passed"] is False, text
    return code


def test_each_value_alone():
    """Every pool value in an otherwise valid config, and every section left
    out, one at a time."""
    for command, sections in FIELDS.items():
        assert check_contract(command, config_text(command, {})) == 0
        for section, fields in sections.items():
            check_contract(command, config_text(command, {}, dropped={section}))
            for key, pool in fields.items():
                for value in pool[1:]:
                    check_contract(command, config_text(command, {(section, key): value}))


@st.composite
def configs(draw):
    """A command and a config for it with any number of fields changed."""
    command = draw(st.sampled_from(sorted(FIELDS)))
    values, dropped = {}, set()
    for section, fields in FIELDS[command].items():
        if draw(st.integers(0, 9)) == 0:
            dropped.add(section)
        for key, pool in fields.items():
            # the valid value most of the time, so runs get past the loader
            if draw(st.integers(0, 5)) == 0:
                values[(section, key)] = draw(st.sampled_from(pool))
    return command, config_text(command, values, dropped)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=configs())
def test_value_combinations(case):
    check_contract(*case)
