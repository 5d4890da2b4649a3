import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import numpy as np
import pytest

import gspbias
from gspbias.cli import _mass_agreement, _mc_agreement, _quadrature_checks, _record, main
from gspbias.config import load_config, parse_distribution
from gspbias.engine import BLOCK, sample_rank_stats
from gspbias.errors import ConfigError
from gspbias.oracle import SIMPSON_INTERVALS, CaseGrid
from gspbias.reports import _scipy_version
from reference import load_case, read_histogram_csv, watch_draw_tables

SMALL_CPC = """
[config]
schema_version = 1
command = simulate-cpc

[study]
seed = 123
trials = 2000
bids = 1.0

[setting.a]
impressions = 5000
true_ctrs = 0.05, 0.05

[setting.c]
impressions = 5000
true_ctrs = 0.05, 0.04
"""

SMALL_THEOREMS = """
[config]
schema_version = 1
command = verify-theorems

[verify]
seed = 5
mc_draws = 40000

[case.pair]
dists = uniform:0:1, uniform:0:1

[case.solo]
dists = beta:2:38
"""

UNIFORM_THEOREMS = SMALL_THEOREMS.replace("dists = beta:2:38", "dists = uniform:0:0.5")

# Disjoint supports pin the pair's ranking, so its impossible ranks are skipped.
DISJOINT_THEOREMS = SMALL_THEOREMS.replace("dists = uniform:0:1, uniform:0:1",
                                           "dists = uniform:0:0.4, uniform:0.6:1")

# theorems-wide's field: eight staggered uniforms, no two exchangeable.
WIDE_THEOREMS = """
[config]
schema_version = 1
command = verify-theorems

[verify]
seed = 7
mc_draws = 8192

[case.u8_staggered]
dists = {}
""".format("uniform:0:0.1, uniform:0.01:0.08, uniform:0:0.12, uniform:0.02:0.1, "
           "uniform:0:0.09, uniform:0.005:0.11, uniform:0.03:0.07, uniform:0:0.1")

# nine mixed beta and uniform ads: the argsort rank branch, Hermite draws and,
# on the narrow beta's flanks, exact-inverse draws, on a grid past every
# other ad's support (the last beta's scale is 1.5)
MIXED_THEOREMS = WIDE_THEOREMS.split("[case.")[0] + """[case.mixed9]
dists = beta:2:38, uniform:0:0.12, beta:60:60:0.05, beta:3:1:0.1, uniform:0.01:0.08, \
beta:1:3:0.09, beta:1.5:20:0.2, uniform:0:0.1, beta:5:45:1.5
"""

HUGE_BID_CPC = """
[config]
schema_version = 1
command = simulate-cpc

[study]
seed = 123
trials = 200
bids = 1e200, 1e200

[setting.a]
impressions = 50
true_ctrs = 0.05, 0.05
"""

SMALL_AB = """
[config]
schema_version = 1
command = ab-run

[experiment]
seed = 17
days = 4
burn_in_days = 2
window_days = 2
traffic_per_day = 1500
epsilon = 0.15

[bucket.A]
estimator = naive

[bucket.B]
estimator = pooled

[context.1]
site = 1
pos = 1
multiplier = 1.0

[context.2]
site = 1
pos = 2
multiplier = 0.8

[ad.1]
bid = 1.0
base_ctr = 0.05

[ad.2]
bid = 1.2
base_ctr = 0.06

[ad.3]
bid = 0.9
base_ctr = 0.04
"""


# One ad in one context, so every display is that ad; at --seed 18 every
# prediction bucket A serves to its random traffic is 0.
ONE_AD_AB = """
[config]
schema_version = 1
command = ab-run

[experiment]
seed = 17
days = 3
burn_in_days = 1
window_days = 2
traffic_per_day = 20
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
base_ctr = 0.05
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


def run_cli_process(*argv):
    """The CLI in a child interpreter, which shows its stderr and exit code whole."""
    src = str(Path(gspbias.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "gspbias.cli", *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=120)


class TestConfigLoading:
    def test_small_cpc_roundtrip(self, tmp_path):
        loaded = load_config(write_cfg(tmp_path, SMALL_CPC))
        assert loaded.command == "simulate-cpc"
        assert loaded.seed == 123
        assert [s.name for s in loaded.payload.settings] == ["a", "c"]
        assert loaded.payload.settings[0].impressions == (5000, 5000)

    def test_missing_file_is_io_error(self, tmp_path):
        assert run_cli("simulate-cpc", "--config", tmp_path / "absent.cfg",
                       "--out", tmp_path / "out") == 2

    def test_unparseable_file_is_io_error(self, tmp_path):
        bad = write_cfg(tmp_path, "just some text\nwithout sections\n")
        assert run_cli("simulate-cpc", "--config", bad, "--out", tmp_path / "out") == 2

    def test_invalid_value_exit_code_and_field_path(self, tmp_path, capsys):
        bad = SMALL_CPC.replace("true_ctrs = 0.05, 0.05", "true_ctrs = 0.05, 1.4")
        rc = run_cli("simulate-cpc", "--config", write_cfg(tmp_path, bad),
                     "--out", tmp_path / "out")
        assert rc == 3
        assert "setting.a.true_ctrs" in capsys.readouterr().err

    def test_wrong_command_config_rejected(self, tmp_path):
        rc = run_cli("ab-run", "--config", write_cfg(tmp_path, SMALL_CPC),
                     "--out", tmp_path / "out")
        assert rc == 3

    def test_schema_version_checked(self, tmp_path):
        bad = SMALL_CPC.replace("schema_version = 1", "schema_version = 9")
        assert run_cli("simulate-cpc", "--config", write_cfg(tmp_path, bad),
                       "--out", tmp_path / "out") == 3

    def test_ab_requires_two_buckets(self, tmp_path):
        bad = SMALL_AB.replace("[bucket.B]\nestimator = pooled\n", "")
        assert run_cli("ab-run", "--config", write_cfg(tmp_path, bad),
                       "--out", tmp_path / "out") == 3

    @pytest.mark.parametrize("section", ["ad", "context"])
    def test_ab_needs_ads_and_contexts(self, tmp_path, capsys, section):
        blocks = SMALL_AB.split("\n\n")
        text = "\n\n".join(b for b in blocks if not b.startswith(f"[{section}."))
        assert run_cli("ab-run", "--config", write_cfg(tmp_path, text),
                       "--out", tmp_path / "out") == 3
        assert f"config error: {section}:" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, field", [
        ("multiplier = 0.8", "multiplier = nan", "context.2.multiplier"),
        ("multiplier = 0.8", "multiplier = -0.1", "context.2.multiplier"),
        ("multiplier = 0.8", "multiplier = inf", "context.2.multiplier"),
        ("pos = 2", "pos = 1", "context.2:"),  # same (site, pos) as context.1
    ], ids=["nan", "negative", "inf", "duplicate"])
    def test_bad_context_rejected(self, tmp_path, capsys, old, new, field):
        assert old in SMALL_AB
        rc = run_cli("ab-run", "--config", write_cfg(tmp_path, SMALL_AB.replace(old, new)),
                     "--out", tmp_path / "out")
        assert rc == 3
        assert f"config error: {field}" in capsys.readouterr().err

    def test_repeated_ad_id_names_its_section(self, tmp_path, capsys):
        """[ad.1] and [ad.01] give one ad id; the error is on the second."""
        text = SMALL_AB + "\n[ad.01]\nbid = 1.0\nbase_ctr = 0.05\n"
        rc = run_cli("ab-run", "--config", write_cfg(tmp_path, text), "--out", tmp_path / "out")
        assert rc == 3
        assert "config error: ad.01: ad id 1 repeats [ad.1]\n" in capsys.readouterr().err

    def test_thirteen_ad_case_loads(self, tmp_path):
        """The oracle has no ad cap, so a 13-ad field loads and is verified."""
        staggered = ", ".join(f"uniform:{0.01 * i}:{0.5 + 0.02 * i}" for i in range(13))
        cfg = write_cfg(tmp_path, SMALL_THEOREMS.replace(
            "dists = uniform:0:1, uniform:0:1", "dists = " + staggered))
        out = tmp_path / "wide"
        assert run_cli("verify-theorems", "--config", cfg, "--out", out,
                       "--trials", "20000") in (0, 1)
        report = json.loads((out / "theorem_report.json").read_text())
        wide = {c["name"]: c for c in report["cases"]}["pair"]
        assert wide["ads"] == 13
        for cand in wide["candidates"]:
            # density jumps between grid nodes cost ~1e-5 of quadrature accuracy
            assert sum(cand["marginals"]) == pytest.approx(1.0, abs=1e-4)
            assert cand["mean_inequality"]["passed"]

    @pytest.mark.parametrize("ctrs", ["0.0, 0.05", "0.0, 0.0"])
    def test_zero_ctr_rejected(self, tmp_path, capsys, ctrs):
        bad = SMALL_CPC.replace("true_ctrs = 0.05, 0.05", f"true_ctrs = {ctrs}")
        rc = run_cli("simulate-cpc", "--config", write_cfg(tmp_path, bad),
                     "--out", tmp_path / "out")
        assert rc == 3
        assert "setting.a.true_ctrs" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("cpc_hist_width", "0.0"),
                                              ("score_hist_width", "-0.001"),
                                              ("cpc_hist_width", "inf"),
                                              ("score_hist_width", "inf"),
                                              ("cpc_hist_width", "nan"),
                                              ("score_hist_width", "nan")])
    def test_nonpositive_hist_width_rejected(self, tmp_path, capsys, field, value):
        """A width must be finite and > 0; an infinite one made nan bins."""
        bad = SMALL_CPC.replace("bids = 1.0", f"bids = 1.0\n{field} = {value}")
        rc = run_cli("simulate-cpc", "--config", write_cfg(tmp_path, bad),
                     "--out", tmp_path / "out")
        assert rc == 3
        assert f"study.{field}" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("study.bids", "-1.0"), ("study.bids", "inf"), ("study.bids", "1.0, nan"),
        ("ad.2.bid", "-0.5"), ("ad.2.bid", "nan"), ("ad.2.bid", "inf"),
    ])
    def test_negative_bid_rejected(self, tmp_path, capsys, field, value):
        """Negative and non-finite bids are config errors naming the field."""
        if field == "study.bids":
            command, text = "simulate-cpc", SMALL_CPC.replace("bids = 1.0", f"bids = {value}")
        else:
            command, text = "ab-run", SMALL_AB.replace("bid = 1.2", f"bid = {value}")
        rc = run_cli(command, "--config", write_cfg(tmp_path, text), "--out", tmp_path / "out")
        assert rc == 3
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, message", [
        ("impressions = 5000\ntrue_ctrs = 0.05, 0.05", "impressions = 1, 2, 3\n"
         "true_ctrs = 0.05, 0.05", "setting.a.impressions: impressions needs 1 or 2 values, "
         "got 3"),
        ("bids = 1.0", "bids = 1.0, 1.0, 1.0", "study.bids: bids needs 1 or 2 values, got 3"),
    ], ids=["impressions", "bids"])
    def test_per_ad_lists_need_one_value_or_one_per_ad(self, tmp_path, capsys, old, new,
                                                       message):
        assert old in SMALL_CPC
        rc = run_cli("simulate-cpc", "--config",
                     write_cfg(tmp_path, SMALL_CPC.replace(old, new)), "--out", tmp_path / "out")
        assert rc == 3
        assert f"config error: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "2.7", "5000, -inf"])
    def test_impressions_must_be_whole_numbers(self, tmp_path, capsys, value):
        bad = SMALL_CPC.replace("impressions = 5000\ntrue_ctrs = 0.05, 0.04",
                                f"impressions = {value}\ntrue_ctrs = 0.05, 0.04")
        rc = run_cli("simulate-cpc", "--config", write_cfg(tmp_path, bad),
                     "--out", tmp_path / "out")
        assert rc == 3
        assert "setting.c.impressions" in capsys.readouterr().err

    def test_distribution_specs(self):
        assert parse_distribution("uniform:0:1", "dists").kind == "uniform"
        assert parse_distribution("beta:2:38:1.5", "dists").upper == 1.5
        with pytest.raises(ConfigError):
            parse_distribution("gamma:1:2", "dists")

    @pytest.mark.parametrize("spec", ["uniform:0:inf", "beta:nan:2", "beta:2:2:inf"])
    def test_non_finite_distribution_rejected(self, tmp_path, capsys, spec):
        bad = SMALL_THEOREMS.replace("dists = beta:2:38", f"dists = {spec}")
        rc = run_cli("verify-theorems", "--config", write_cfg(tmp_path, bad),
                     "--out", tmp_path / "out", "--trials", "1000")
        assert rc == 3
        err = capsys.readouterr().err
        assert "dists" in err and "Traceback" not in err

    @pytest.mark.parametrize("spec", ["beta:nan:3", "gauss:1:2"])
    def test_bad_distribution_names_its_case(self, tmp_path, capsys, spec):
        bad = SMALL_THEOREMS.replace("[case.solo]\ndists = beta:2:38", f"[case.x]\ndists = {spec}")
        rc = run_cli("verify-theorems", "--config", write_cfg(tmp_path, bad),
                     "--out", tmp_path / "out", "--trials", "1000")
        assert rc == 3
        err = capsys.readouterr().err
        assert "case.x.dists" in err and spec in err

    @pytest.mark.parametrize("spec", ["beta:0.4:3", "beta:3:0.5:0.8"])
    def test_singular_beta_rejected(self, tmp_path, spec):
        """A beta shape below 1 puts an infinite density at an end of the
        support, where Simpson quadrature needs a finite one."""
        bad = SMALL_THEOREMS.replace("dists = beta:2:38", f"dists = {spec}")
        out = tmp_path / "out"
        proc = run_cli_process("verify-theorems", "--config", write_cfg(tmp_path, bad),
                               "--out", out, "--trials", "1000", "--threads", "1")
        assert proc.returncode == 3
        assert "case.solo.dists" in proc.stderr and "Traceback" not in proc.stderr
        assert not (out / "theorem_report.json").exists()

    def test_packaged_defaults_parse(self):
        from importlib import resources
        for name, command in (("table2.cfg", "simulate-cpc"),
                              ("theorems.cfg", "verify-theorems"),
                              ("ab.cfg", "ab-run")):
            with resources.as_file(resources.files("gspbias") / "configs" / name) as p:
                loaded = load_config(p)
            assert loaded.command == command
            assert loaded.seed is not None


class TestUsageErrors:
    """A command line argparse rejects exits 3, the config-error code, with the
    usage and the reason on stderr and no traceback."""

    @pytest.mark.parametrize("argv", [
        ("ab-run", "--trials", "200"),
        ("verify-theorems", "--format", "json"),
        ("simulate-cpc", "--format", "xml"),
        ("ab-run", "--seed", "one"),
        ("no-such-command",),
        ("simulate-cpc", None),
    ], ids=["ab-run-trials", "verify-theorems-format", "bad-choice", "bad-int",
            "unknown-command", "missing-out"])
    def test_exits_three(self, tmp_path, argv):
        argv = [a for a in argv if a is not None] + (["--out", tmp_path / "out"]
                                                     if None not in argv else [])
        proc = run_cli_process(*argv)
        assert proc.returncode == 3
        assert "usage: gspbias" in proc.stderr and "config error: " in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()


class TestSeedResolution:
    def test_cli_seed_overrides_config(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_CPC)
        run_cli("simulate-cpc", "--config", cfg, "--out", tmp_path / "o1", "--seed", "9")
        manifest = json.loads((tmp_path / "o1" / "manifest.json").read_text())
        assert manifest["seed"] == 9

    def test_env_seed_used_as_fallback(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, SMALL_CPC.replace("seed = 123\n", ""))
        monkeypatch.setenv("GSPBIAS_SEED", "456")
        assert run_cli("simulate-cpc", "--config", cfg, "--out", tmp_path / "o2",
                       "--trials", "50") == 0
        manifest = json.loads((tmp_path / "o2" / "manifest.json").read_text())
        assert manifest["seed"] == 456

    def test_negative_cli_seed_is_config_error(self, tmp_path, capsys):
        rc = run_cli("simulate-cpc", "--config", write_cfg(tmp_path, SMALL_CPC),
                     "--out", tmp_path / "o4", "--seed", "-1", "--trials", "50")
        assert rc == 3
        err = capsys.readouterr().err
        assert "seed" in err and "Traceback" not in err

    def test_negative_env_seed_is_config_error(self, tmp_path, monkeypatch, capsys):
        cfg = write_cfg(tmp_path, SMALL_CPC.replace("seed = 123\n", ""))
        monkeypatch.setenv("GSPBIAS_SEED", "-3")
        assert run_cli("simulate-cpc", "--config", cfg, "--out", tmp_path / "o5",
                       "--trials", "50") == 3
        err = capsys.readouterr().err
        assert "GSPBIAS_SEED" in err and "Traceback" not in err

    def test_no_seed_anywhere_is_config_error(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, SMALL_CPC.replace("seed = 123\n", ""))
        monkeypatch.delenv("GSPBIAS_SEED", raising=False)
        assert run_cli("simulate-cpc", "--config", cfg, "--out", tmp_path / "o3") == 3


class TestSimulateCpc:
    def test_artifacts_written_and_listed(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_CPC)
        out = tmp_path / "out"
        assert run_cli("simulate-cpc", "--config", cfg, "--out", out) == 0
        names = {p.name for p in out.iterdir()}
        assert {"table2.csv", "bias_report.json", "manifest.json",
                "cpc_hist_a.csv", "cpc_hist_c.csv",
                "ordstat_hist_a_rank1.csv", "ordstat_hist_a_rank2.csv",
                "ordstat_hist_c_rank1.csv", "ordstat_hist_c_rank2.csv"} <= names
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["outputs"]) == sorted(names)
        assert manifest["seed"] == 123
        table = (out / "table2.csv").read_text().splitlines()
        assert table[0] == "setting,expected_cpc,mean_observed_cpc,ratio"
        assert table[1].startswith("(a),1.0,")
        left, right, count = read_histogram_csv(out / "cpc_hist_a.csv")
        assert sum(count) == 2000

    def test_single_trial_marks_se_unavailable(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_CPC)
        out = tmp_path / "single"
        assert run_cli("simulate-cpc", "--config", cfg, "--out", out,
                       "--trials", "1") == 0
        report = json.loads((out / "bias_report.json").read_text())
        entry = report["settings"]["a"]
        assert entry["observed_se"] is None
        assert entry["per_rank"] is None  # too few trials for bias factors

    def test_same_seed_reproduces_bytes(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_CPC)
        for out in ("r1", "r2"):
            run_cli("simulate-cpc", "--config", cfg, "--out", tmp_path / out)
        for name in ("table2.csv", "bias_report.json", "cpc_hist_a.csv"):
            assert ((tmp_path / "r1" / name).read_bytes()
                    == (tmp_path / "r2" / name).read_bytes())

    def test_emit_trials_formats(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_CPC)
        outs = {}
        for threads in (1, 3):
            outs[threads] = out = tmp_path / f"fmt{threads}"
            assert run_cli("simulate-cpc", "--config", cfg, "--out", out, "--trials", "20",
                           "--emit-trials", "--format", "both", "--threads", threads) == 0
        out = outs[1]
        assert (out / "trials_a.csv").exists()
        lines = (out / "trials_a.jsonl").read_text().splitlines()
        assert len(lines) == 20
        assert json.loads(lines[0])["trial"] == 0
        for name in ("trials_a.csv", "trials_a.jsonl", "trials_c.csv", "trials_c.jsonl"):
            assert (out / name).read_bytes() == (outs[3] / name).read_bytes(), name

    def test_format_needs_emit_trials(self, tmp_path, capsys):
        """--format sets only the trial log format, so alone it is rejected."""
        out = tmp_path / "fmt"
        assert run_cli("simulate-cpc", "--config", write_cfg(tmp_path, SMALL_CPC),
                       "--out", out, "--trials", "20", "--format", "json") == 3
        assert "config error: --format applies only with --emit-trials\n" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_emit_trials_alone_writes_csv(self, tmp_path):
        out = tmp_path / "csv"
        assert run_cli("simulate-cpc", "--config", write_cfg(tmp_path, SMALL_CPC),
                       "--out", out, "--trials", "20", "--emit-trials") == 0
        assert {p.name for p in out.glob("trials_*")} == {"trials_a.csv", "trials_c.csv"}

    def test_histogram_beyond_bin_cap_exits_three(self, tmp_path):
        """Bids of 1e200 put prices ~1e202 bins of width 0.01 from zero: a
        config error naming the width, not an OverflowError traceback."""
        cfg = write_cfg(tmp_path, HUGE_BID_CPC)
        proc = run_cli_process("simulate-cpc", "--config", cfg, "--out", tmp_path / "huge",
                               "--threads", "1")
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert "bin width 0.01" in proc.stderr

    def test_huge_bids_keep_their_standard_errors(self, tmp_path):
        """Bids of 1e200 with histogram widths to match: squaring raw prices
        would overflow, so the moments run on power-of-two-scaled values."""
        text = HUGE_BID_CPC.replace("trials = 200", "trials = 2000").replace(
            "bids = 1e200, 1e200",
            "bids = 1e200, 1e200\ncpc_hist_width = 1e198\nscore_hist_width = 1e196")
        out = tmp_path / "huge"
        proc = run_cli_process("simulate-cpc", "--config", write_cfg(tmp_path, text),
                               "--out", out, "--threads", "1")
        assert proc.returncode == 0
        assert "RuntimeWarning" not in proc.stderr
        setting = json.loads((out / "bias_report.json").read_text())["settings"]["a"]
        errors = [setting["observed_se"], setting["ratio_of_means_se"],
                  *(r["conditional_score_se"] for r in setting["per_rank"])]
        assert len(errors) == 4
        for se in errors:
            assert isinstance(se, float) and math.isfinite(se) and se > 0.0

    @pytest.mark.parametrize("bids", ["0.0", "1.0, 0.0"])
    def test_zero_runner_up_bid_leaves_ratio_undefined(self, tmp_path, bids):
        """A zero expected CPC gives an empty ratio cell and a reason, not NaN."""
        cfg = write_cfg(tmp_path, SMALL_CPC.replace("bids = 1.0", f"bids = {bids}"))
        out = tmp_path / "zero"
        assert run_cli("simulate-cpc", "--config", cfg, "--out", out, "--trials", "300") == 0
        table = (out / "table2.csv").read_text().splitlines()
        assert table[1:] == ["(a),0.0,0.0,", "(c),0.0,0.0,"]
        for entry in json.loads((out / "bias_report.json").read_text())["settings"].values():
            assert entry["ratio"] is None
            assert "expected CPC is 0" in entry["ratio_undefined_reason"]
            assert entry["ratio_of_means"] == 0.0
            assert entry["ratio_of_means_se"] == 0.0  # the delta method's limit at mx = 0

    def test_single_trial_gives_standard_errors_a_reason(self, tmp_path):
        """One trial leaves both standard errors undefined: null, with a reason.
        Two trials define them, and the reason is not written."""
        cfg = write_cfg(tmp_path, SMALL_CPC.replace("0.05, 0.04", "0.05, 0.045"))
        for trials in (1, 2):
            out = tmp_path / str(trials)
            assert run_cli("simulate-cpc", "--config", cfg, "--out", out,
                           "--trials", trials, "--seed", "1") == 0
            entry = json.loads((out / "bias_report.json").read_text())["settings"]["c"]
            if trials == 1:
                assert entry["observed_se"] is None and entry["ratio_of_means_se"] is None
                assert entry["se_undefined_reason"] == (
                    "standard errors need at least 2 non-degenerate trials, got 1")
            else:
                assert entry["observed_se"] > 0.0 and entry["ratio_of_means_se"] > 0.0
                assert "se_undefined_reason" not in entry


class TestVerifyTheorems:
    def test_report_structure_and_pass(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_THEOREMS)
        out = tmp_path / "thm"
        assert run_cli("verify-theorems", "--config", cfg, "--out", out) == 0
        report = json.loads((out / "theorem_report.json").read_text())
        assert report["passed"] is True
        by_name = {c["name"]: c for c in report["cases"]}
        pair = by_name["pair"]["candidates"][0]
        assert pair["quadrature_means"][0] == pytest.approx(2 / 3, abs=1e-4)
        assert pair["mean_inequality"]["checked"] == 1
        # means: both ranks of each pair candidate and the solo ad's one rank;
        # masses: both ranks of each pair candidate, not the solo ad's mass of 1
        assert report["mc_comparisons"] == sum(
            c[name]["checked"] for case in report["cases"] for c in case["candidates"]
            for name in ("mc_agreement", "mass_agreement")) == 9
        assert report["mc_expected_exceedances"] == 9 * math.erfc(4.0 / math.sqrt(2))
        solo = by_name["solo"]["candidates"][0]
        assert solo["mean_inequality"] == {"passed": True, "checked": 0, "skipped": 0}
        assert "skipped" in solo["decomposition"]

    def test_single_ad_case(self, tmp_path):
        """A one-ad case has no adjacent rank: its decomposition is skipped with
        the oracle's reason and it has no splittability pairs."""
        out = tmp_path / "solo"
        assert run_cli("verify-theorems", "--config", write_cfg(tmp_path, SMALL_THEOREMS),
                       "--out", out, "--trials", "2000") == 0
        report = json.loads((out / "theorem_report.json").read_text())
        (solo,) = {c["name"]: c for c in report["cases"]}["solo"]["candidates"]
        assert solo["decomposition"] == {"skipped": "single ad has no adjacent rank"}
        assert solo["splittability"] == {"passed": True, "pairs": []}
        assert solo["passed"] is True

    def test_unreachable_ranks_skipped_not_failed(self, tmp_path):
        """Disjoint supports pin the ranking; the impossible ranks are skipped."""
        cfg = write_cfg(tmp_path, DISJOINT_THEOREMS)
        out = tmp_path / "skip"
        assert run_cli("verify-theorems", "--config", cfg, "--out", out) == 0
        report = json.loads((out / "theorem_report.json").read_text())
        assert report["passed"] is True
        low_ad = {c["name"]: c for c in report["cases"]}["pair"]["candidates"][0]
        assert low_ad["quadrature_means"][0] is None   # never wins
        assert low_ad["mean_inequality"]["skipped"] == 1
        assert low_ad["mc_counts"][0] == 0

    def test_failed_verdict_exits_one(self, tmp_path, monkeypatch):
        import gspbias.cli as cli_mod
        from gspbias.engine import RankSampleStats

        real = cli_mod.sample_rank_stats

        def skewed(grid, draws, seed, case_index=0, map=map):
            stats = real(grid, draws, seed, case_index=case_index, map=map)
            return RankSampleStats(counts=stats.counts,
                                   means=stats.means + 1.0,     # force disagreement
                                   std_errors=stats.std_errors)

        monkeypatch.setattr(cli_mod, "sample_rank_stats", skewed)
        cfg = write_cfg(tmp_path, SMALL_THEOREMS)
        out = tmp_path / "thmfail"
        assert run_cli("verify-theorems", "--config", cfg, "--out", out) == 1
        report = json.loads((out / "theorem_report.json").read_text())
        assert report["passed"] is False

    def test_unsplittable_pair_fails(self, tmp_path, monkeypatch):
        """A pair whose densities do not cross once is reported with no split
        point; its candidates and the run fail, and the run exits 1."""
        import gspbias.cli as cli_mod
        from gspbias.oracle import SplitVerdict

        monkeypatch.setattr(cli_mod, "check_splittable",
                            lambda f, g, tolerance=0.0, scan=None: SplitVerdict(False, None))
        out = tmp_path / "nosplit"
        assert run_cli("verify-theorems", "--config", write_cfg(tmp_path, SMALL_THEOREMS),
                       "--out", out, "--trials", "2000") == 1
        report = json.loads((out / "theorem_report.json").read_text())
        assert report["passed"] is False
        pair = {c["name"]: c for c in report["cases"]}["pair"]
        assert pair["passed"] is False
        for cand in pair["candidates"]:
            assert cand["splittability"] == {"passed": False,
                                             "pairs": [{"ranks": [1, 2], "splittable": False}]}
            assert cand["passed"] is False

    def test_one_rank_table_per_candidate(self, tmp_path, monkeypatch):
        """Each walk folds one leaf table per distinct candidate on each leaf."""
        from gspbias import oracle

        real = oracle.RankWalk._fold
        candidates = []

        def counted(walk, candidate, n):
            candidates.append(candidate)
            return real(walk, candidate, n)

        monkeypatch.setattr(oracle.RankWalk, "_fold", counted)
        cfg = write_cfg(tmp_path, SMALL_THEOREMS)
        assert run_cli("verify-theorems", "--config", cfg, "--out", tmp_path / "tables",
                       "--trials", "2000") == 0
        # case pair: its two iid candidates share one table; case solo: candidate 0;
        # each case walks its grid's eight leaves twice
        assert candidates == [0] * 2 * 8 * 2


    def test_no_draw_table_alive_during_the_checks(self, tmp_path, monkeypatch):
        """Every guide table and safe-cell flag array of a case is gone by the
        time its checks start."""
        import gspbias.cli as cli_mod

        alive = watch_draw_tables(monkeypatch)
        seen = []

        def checked(grid, candidates, real=cli_mod.conditional_mean_profile):
            seen.append([ref() is None for ref in alive])
            return real(grid, candidates)

        monkeypatch.setattr(cli_mod, "conditional_mean_profile", checked)
        text = SMALL_THEOREMS.replace("dists = beta:2:38", "dists = beta:2:38, beta:3:37:1.2")
        assert run_cli("verify-theorems", "--config", write_cfg(tmp_path, text), "--out",
                       tmp_path / "thm", "--trials", "2000", "--threads", "2") == 0
        # the pair's checks, then the solo case's, after its four draw tables
        assert len(alive) == 4 and seen == [[], [True] * 4]

    def test_uniform_density_evaluated_a_leaf_at_a_time(self, monkeypatch):
        """A uniform candidate's density is evaluated a leaf at a time, once
        at each node, by the density normalisation: the mean profile and the
        decomposition read its constant density through
        ``CaseGrid.quadrature``.  A beta candidate's is not evaluated at all."""
        from gspbias.oracle import NODE_SLICE, ScoreDistribution

        dists = [ScoreDistribution.uniform(0.0, 0.1), ScoreDistribution.scaled_beta(2, 38),
                 ScoreDistribution.uniform(0.01, 0.08)]
        grid = CaseGrid(dists)
        calls = []
        real = ScoreDistribution.pdf
        monkeypatch.setattr(ScoreDistribution, "pdf",
                            lambda d, s: calls.append((d, s)) or real(d, s))
        for i, d in enumerate(dists):
            calls.clear()
            _quadrature_checks(grid, [i])
            if d.kind == "scaled-beta":
                assert calls == []
                continue
            assert {c for c, _ in calls} == {d}
            assert all(len(s) <= NODE_SLICE + 1 for _, s in calls)
            np.testing.assert_array_equal(np.concatenate([s for _, s in calls]), grid.s)


class TestMcAgreement:
    def test_compares_where_defined_and_counted(self):
        """A rank is compared where its reference and standard error are
        defined and at least MIN_MC_COUNT draws held it, and agrees within
        MC_AGREEMENT_SIGMA standard errors, the bound included."""
        nan = float("nan")
        reference = np.array([1.0, 1.0, nan, 1.0, 1.0])
        means = np.array([1.5, 0.75, 1.0, 9.0, 9.0])
        errors = np.array([0.125, 0.25, 0.1, 0.1, nan])
        counts = np.array([1000, 5000, 5000, 999, 5000])
        assert _mc_agreement(reference, means, errors, counts) == {
            "passed": True, "checked": 2, "skipped": 3,
            "skip_reasons": {"no_reference": 1, "few_draws": 1, "no_standard_error": 1},
            "max_sigma": 4.0}
        means[0] = np.nextafter(1.5, 2.0)
        assert _mc_agreement(reference, means, errors, counts)["passed"] is False

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_standard_error_is_skipped(self):
        """A rank whose standard error is 0 has no sigma, so it is skipped
        like an undercounted one, with no divide warning, whether its mean
        equals the reference or not."""
        reference = np.array([1.0, 1.0, 2.0])
        means = np.array([1.25, 1.0, 3.0])
        errors = np.array([0.125, 0.0, 0.0])
        counts = np.array([5000, 5000, 5000])
        assert _mc_agreement(reference, means, errors, counts) == {
            "passed": True, "checked": 1, "skipped": 2,
            "skip_reasons": {"no_reference": 0, "few_draws": 0, "no_standard_error": 2},
            "max_sigma": 2.0}


class TestMassAgreement:
    def test_compares_where_both_counts_are_large(self):
        """A rank mass p is compared where N p and N (1 - p) are both at least
        MIN_MC_COUNT, and agrees when its count is within MC_AGREEMENT_SIGMA
        binomial standard errors, the bound included."""
        nan = float("nan")
        reference = np.array([0.5, 0.125, 0.05, nan, 0.96875])
        counts = np.array([8448, 2048, 900, 10, 16000])
        # 8448 / 2^14 = 0.5 + 4 * sqrt(0.25 / 2^14), exactly
        assert _mass_agreement(reference, counts, 1 << 14) == {
            "passed": True, "checked": 2, "skipped": 3,
            "skip_reasons": {"too_rare": 2, "too_common": 1}, "max_sigma": 4.0}
        counts[0] += 1
        assert _mass_agreement(reference, counts, 1 << 14)["passed"] is False

    def test_scaled_rank_row_exits_one(self, tmp_path, monkeypatch):
        """A rank table whose rank-1 row is 1% high cancels in the conditional
        means, the densities and the decomposition, but not in the rank-1 mass
        of two iid uniforms at 262,144 draws: 0.505, about 5.1 standard errors
        from 1/2.  The two ads' rank-1 counts add up to the draws, so their
        noise moves one z up by what it takes off the other, and the run
        exits 1 on the mass agreement alone, whatever the seed."""
        from gspbias.oracle import RankWalk

        cfg = write_cfg(tmp_path, SMALL_THEOREMS)
        reports = []
        for scale in (1.0, 1.01):
            def scaled(walk, candidate, n, real=RankWalk._fold, scale=scale):
                table = real(walk, candidate, n)
                table[0] *= scale
                return table

            monkeypatch.setattr(RankWalk, "_fold", scaled)
            out = tmp_path / str(scale)
            code = run_cli("verify-theorems", "--config", cfg, "--out", out,
                           "--trials", "262144")
            reports.append((code, json.loads((out / "theorem_report.json").read_text())))
        assert reports[0][0] == 0 and reports[1][0] == 1
        pair = {c["name"]: c for c in reports[1][1]["cases"]}["pair"]["candidates"]
        failed = {name for cand in pair for name, v in cand.items()
                  if isinstance(v, dict) and v.get("passed") is False}
        assert failed == {"mass_agreement"}
        assert max(cand["mass_agreement"]["max_sigma"] for cand in pair) > 5.0


class TestQuadratureDeduplication:
    """A candidate's quadrature checks run once per distinct (own distribution,
    rivals in order) pair, compared by value, and each shared entry is the
    candidate's own."""

    @pytest.mark.parametrize("specs, owners", [
        (("beta:2:38", "beta:2:38", "uniform:0:0.1"), [0, 0, 2]),
        # same distribution, but the rivals come in another order
        (("beta:2:38", "uniform:0:0.1", "beta:2:38"), [0, 1, 2]),
    ])
    def test_keys_and_entries(self, tmp_path, specs, owners):
        dists = load_case(tmp_path, specs).dists
        keys = [(dists[i], dists[:i] + dists[i + 1:]) for i in range(len(dists))]
        assert [keys.index(key) for key in keys] == owners
        text = SMALL_THEOREMS.replace("dists = beta:2:38", "dists = " + ", ".join(specs))
        out = tmp_path / "dedup"
        assert run_cli("verify-theorems", "--config", write_cfg(tmp_path, text), "--out", out,
                       "--trials", "20000", "--threads", "2") == 0
        report = json.loads((out / "theorem_report.json").read_text())
        candidates = {c["name"]: c for c in report["cases"]}["solo"]["candidates"]
        grid = CaseGrid(dists)
        records = _quadrature_checks(grid, list(range(len(dists))))
        for cand, record in zip(candidates, records, strict=True):
            own = json.loads(json.dumps(record))
            assert {name: cand[name] for name in own} == own
        runs = json.loads((out / "manifest.json").read_text())["cases"]
        assert [c["quadrature_candidates"] for c in runs] == [1, len(set(owners))]

    @pytest.mark.parametrize("specs, canonical", [
        ("uniform:0:1, uniform:0.0:1.0", "uniform:0:1, uniform:0:1"),
        ("beta:2:38, beta:2:38:1", "beta:2:38, beta:2:38"),
    ])
    def test_spellings_of_one_distribution_share_a_check(self, tmp_path, specs, canonical):
        """Specs spelled apart that give equal distributions run one quadrature
        check, and report what the canonical spelling reports."""
        reports = {}
        for text in (specs, canonical):
            cfg = SMALL_THEOREMS.replace("dists = beta:2:38", "dists = " + text)
            out = tmp_path / str(len(reports))
            assert run_cli("verify-theorems", "--config", write_cfg(tmp_path, cfg), "--out", out,
                           "--trials", "2000") == 0
            runs = json.loads((out / "manifest.json").read_text())["cases"]
            assert [c["quadrature_candidates"] for c in runs] == [1, 1]
            report = json.loads((out / "theorem_report.json").read_text())
            reports[text] = {c["name"]: c for c in report["cases"]}["solo"]["candidates"]
        assert reports[specs] == reports[canonical]


class TestAbRun:
    def test_artifacts_and_reports(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_AB)
        out = tmp_path / "ab"
        assert run_cli("ab-run", "--config", cfg, "--out", out, "--format", "both") == 0
        names = {p.name for p in out.iterdir()}
        assert {"impressions_A.csv", "impressions_B.csv",
                "impressions_A.jsonl", "impressions_B.jsonl",
                "calibration_report.json", "calibration_table.csv",
                "rtv_rtc.json", "manifest.json"} <= names
        lines = (out / "impressions_A.csv").read_text().splitlines()
        assert lines[0] == "day,bucket,site,pos,ad_id,mode,pred_ctr,bid,cpc,click"
        assert len(lines) == 1 + 4 * 1500
        assert "np.float" not in lines[1]  # plain float formatting
        row = lines[1].split(",")
        assert row[1] == "A" and row[5] in ("greedy", "random")
        assert 0.0 <= float(row[6]) <= 1.0
        report = json.loads((out / "calibration_report.json").read_text())
        assert set(report["models"]) == {"A", "B"}
        assert report["models"]["A"]["estimator"] == "naive"

    def test_epsilon_zero_surfaces_undefined_calibration(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_AB.replace("epsilon = 0.15", "epsilon = 0.0"))
        out = tmp_path / "ab0"
        assert run_cli("ab-run", "--config", cfg, "--out", out) == 0
        report = json.loads((out / "calibration_report.json").read_text())
        for model in report["models"].values():
            assert model["c_relative"] is None
            assert "undefined_reason" in model

    def test_zero_random_predictions_surface_undefined_calibration(self, tmp_path):
        """Random traffic with clicks but only zero predictions has no
        calibration to divide by: a null with its reason, not a traceback."""
        out = tmp_path / "one_ad"
        assert run_cli("ab-run", "--config", write_cfg(tmp_path, ONE_AD_AB), "--out", out,
                       "--seed", "18") == 0
        model = json.loads((out / "calibration_report.json").read_text())["models"]["A"]
        assert model["c_relative"] is None
        assert "zero predicted clicks" in model["undefined_reason"]

    def test_burn_in_covering_every_day_leaves_empty_evaluation(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_AB.replace("burn_in_days = 2", "burn_in_days = 4"))
        out = tmp_path / "ab_burn"
        assert run_cli("ab-run", "--config", cfg, "--out", out, "--format", "both") == 0
        report = json.loads((out / "calibration_report.json").read_text())
        for model in report["models"].values():
            assert model["records"] == 4 * 1500 and model["evaluation_records"] == 0
            assert model["c_relative"] is None and model["undefined_reason"]
        assert (out / "calibration_table.csv").read_text().splitlines()[1:] == ["A,,", "B,,"]
        rel = json.loads((out / "rtv_rtc.json").read_text())
        assert rel["rtv"] is None and rel["rtc"] is None and rel["undefined_reason"]
        assert len((out / "impressions_A.jsonl").read_text().splitlines()) == 4 * 1500

    def test_identical_estimators_rtv_rtc_one(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_AB.replace("estimator = pooled",
                                                   "estimator = naive"))
        out = tmp_path / "aa"
        assert run_cli("ab-run", "--config", cfg, "--out", out) == 0
        rel = json.loads((out / "rtv_rtc.json").read_text())
        assert rel["rtv"] == 1.0 and rel["rtc"] == 1.0
        assert ((out / "impressions_A.csv").read_text().replace(",A,", ",B,")
                == (out / "impressions_B.csv").read_text())

    def test_thread_counts_write_the_same_bytes(self, tmp_path):
        """Days of two blocks each: every output matches at --threads 1 and 3."""
        cfg = write_cfg(tmp_path, SMALL_AB.replace("traffic_per_day = 1500",
                                                   f"traffic_per_day = {BLOCK + 1}"))
        digests = []
        for threads in (1, 3):
            out = tmp_path / f"t{threads}"
            assert run_cli("ab-run", "--config", cfg, "--out", out, "--format", "both",
                           "--threads", threads) == 0
            digests.append(output_digests(out))
        assert digests[0] == digests[1] and len(digests[0]) == 7


# Runs argv in a child and prints its exit code and ru_maxrss.  Linux counts
# in a child's peak RSS the memory of the process it was started from, so
# this bare interpreter, not the test process, starts the CLI.
RSS_PROBE = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
_pid, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


# Holds about 200 MB, every page written, while it runs argv as a child.
BIG_LAUNCHER = """
import json, subprocess, sys
held = b"\\x01" * (200 << 20)
print(json.dumps(subprocess.run(sys.argv[1:]).returncode))
"""


def peak_rss(argv) -> int:
    """The peak RSS of the CLI run on argv in a child interpreter, in the
    units of ru_maxrss."""
    src = str(Path(gspbias.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", RSS_PROBE, sys.executable, "-m", "gspbias.cli",
                           *map(str, argv)], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    code, rss = map(int, proc.stdout.split())
    assert code == 0
    return rss


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4 for a child's peak RSS")
def test_ab_run_memory_does_not_grow_with_traffic(tmp_path):
    """Ten times the accesses, the same peak RSS within 10%: ab-run holds one
    block of accesses at a time, whatever traffic_per_day is."""
    rss = []
    for traffic in (20_000, 200_000):
        text = SMALL_AB.replace("days = 4", "days = 2").replace(
            "traffic_per_day = 1500", f"traffic_per_day = {traffic}")
        out = tmp_path / "out"
        rss.append(peak_rss(["ab-run", "--config", write_cfg(tmp_path, text), "--out", out,
                             "--threads", "1"]))
        shutil.rmtree(out)
    assert rss[1] <= 1.1 * rss[0], rss


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4 for a child's peak RSS")
def test_cpc_memory_does_not_grow_with_trials(tmp_path):
    """A hundred times the trials, the same peak RSS within 10%: simulate-cpc
    reduces one block of trials at a time, whatever --trials is."""
    cfg = write_cfg(tmp_path, SMALL_CPC.split("[setting.c]")[0])
    rss = []
    for trials in (20_000, 2_000_000):
        out = tmp_path / "out"
        rss.append(peak_rss(["simulate-cpc", "--config", cfg, "--out", out,
                             "--trials", trials, "--threads", "1"]))
        shutil.rmtree(out)
    assert rss[1] <= 1.1 * rss[0], rss


def test_uniform_field_memory_does_not_grow_with_threads(tmp_path):
    """An all-uniform 8-ad field's Monte Carlo blocks stay in the calling
    thread, so at --threads 2 the case peaks within 1 MB of --threads 1: no
    helper thread keeps freed block arrays resident in a heap of its own."""
    cfg = write_cfg(tmp_path, WIDE_THEOREMS)
    cases = []
    for threads in (1, 2):  # eight MC blocks
        out = tmp_path / f"t{threads}"
        proc = run_cli_process("verify-theorems", "--config", cfg, "--out", out,
                               "--trials", 131072, "--threads", threads)
        assert proc.returncode == 0, proc.stderr
        cases += json.loads((out / "manifest.json").read_text())["cases"]
    peaks = [case["peak_rss_mb"] for case in cases]
    assert peaks[1] <= peaks[0] + 1.0, peaks
    assert [case["mc_threads"] for case in cases] == [1, 1]


def output_digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.iterdir() if p.name != "manifest.json"}


class TestAbOutputBytes:
    """ab-run output bytes pinned across versions, not only across thread counts.

    A change that moves any of these digests must say which outputs moved
    and why in CHANGES.md, then update them here.
    """

    def test_small_config_both_formats(self, tmp_path):
        out = tmp_path / "small"
        assert run_cli("ab-run", "--config", write_cfg(tmp_path, SMALL_AB), "--out", out,
                       "--format", "both") == 0
        assert output_digests(out) == {
            "calibration_report.json":
                "de8e1446c4b27ea5e6020f33a4d2a728a8da486df8287291f7d68e17a38660cf",
            "calibration_table.csv":
                "2165d3fb80ffb047a4f55970207f32119e2e2a24a18d50f32c9f662409c7bc31",
            "impressions_A.csv":
                "c7d0bf0d5935798c5a2301a2a3adf1af4562b5b905d531656f23a7f5f5c2553e",
            "impressions_A.jsonl":
                "96568f704e1c7a46bbb0d143e8338172c22dddde715b7e3c036c3764437b76d0",
            "impressions_B.csv":
                "cbdfd84c8ff3b38104c18bd5a90959c12674611244fb118421a0fdc80e86db3d",
            "impressions_B.jsonl":
                "dfc8fcd9a5dd098994a8b904e739674c7bcf8a8064bdc484a1d33766a739faa9",
            "rtv_rtc.json":
                "9a5006d8c17f036d3257d43a61af0e699c565710e4803fe14ad1f751ada7d005",
        }

    def test_packaged_config_seed_1_csv(self, tmp_path):
        out = tmp_path / "packaged"
        assert run_cli("ab-run", "--out", out, "--seed", "1", "--format", "csv") == 0
        assert output_digests(out) == {
            "calibration_report.json":
                "d53f6d5d0c3c58164e08aa0b403bb8ee5fd1e2268b23e0c89ff2026d16a09d88",
            "calibration_table.csv":
                "e26e9a477328fa6655843733b8318f06371d7c3bb833789f73f012f9e3ad5c4a",
            "impressions_A.csv":
                "6ddd684a9a810b771207b97f5a87ff7c5f41f1fe1215c4f0c30006c438316aa7",
            "impressions_B.csv":
                "f14ff1da8113bec7e90debf3d1b03f2b892bc28ad6befed32fe6733ac8319fa9",
            "rtv_rtc.json":
                "a1e552560da71d81daeecf5d2cc9c14b1cebee4e9aa504e1dda0f6adaf376549",
        }

    def test_packaged_config_seed_1_both_formats(self, tmp_path):
        """The packaged run's JSONL logs at full scale, next to the same CSV bytes."""
        out = tmp_path / "packaged"
        assert run_cli("ab-run", "--out", out, "--seed", "1", "--format", "both") == 0
        assert output_digests(out) == {
            "calibration_report.json":
                "d53f6d5d0c3c58164e08aa0b403bb8ee5fd1e2268b23e0c89ff2026d16a09d88",
            "calibration_table.csv":
                "e26e9a477328fa6655843733b8318f06371d7c3bb833789f73f012f9e3ad5c4a",
            "impressions_A.csv":
                "6ddd684a9a810b771207b97f5a87ff7c5f41f1fe1215c4f0c30006c438316aa7",
            "impressions_A.jsonl":
                "0c4d40341a450176e4104b25b2ab7d528a5be55e63065495d868b97164be2d03",
            "impressions_B.csv":
                "f14ff1da8113bec7e90debf3d1b03f2b892bc28ad6befed32fe6733ac8319fa9",
            "impressions_B.jsonl":
                "14cdb939b7109d2e43463902a58b3b9e7301dc8a522bbd4834d17974d9dd7b9c",
            "rtv_rtc.json":
                "a1e552560da71d81daeecf5d2cc9c14b1cebee4e9aa504e1dda0f6adaf376549",
        }


class TestCpcOutputBytes:
    """simulate-cpc output bytes, trial logs included, pinned across versions.

    A change that moves any of these digests must say which outputs moved
    and why in CHANGES.md, then update them here.
    """

    def test_small_config_both_formats(self, tmp_path):
        out = tmp_path / "small"
        assert run_cli("simulate-cpc", "--config", write_cfg(tmp_path, SMALL_CPC), "--out", out,
                       "--emit-trials", "--format", "both") == 0
        assert output_digests(out) == {
            "bias_report.json":
                "e40ebd41a12e94edb519e71caddf626109414d525f59a76a8a37392f100df54b",
            "cpc_hist_a.csv":
                "1a93dd474a28356c1d931d19f3373fb87ed238b013c6f145ec7c6eeba94bc608",
            "cpc_hist_c.csv":
                "d5f8534f870b334b3cbffd705c1fe41a3559faf3a2a8ceb30093fb4dd77887a9",
            "ordstat_hist_a_rank1.csv":
                "824bf9726b3ac42c732366777a80dd0fb5059e7daaed68b4f160ac7e17388fba",
            "ordstat_hist_a_rank2.csv":
                "cb6c1e75dc3676dbda84cbeb2f84e587977bfa5656749a8166971762d30d4e49",
            "ordstat_hist_c_rank1.csv":
                "b1a35f458123a5a84731d7a7dfd0858e4c0453b115dc4468d8e225dedcbf8dfe",
            "ordstat_hist_c_rank2.csv":
                "b68e89e57e2cfa7c6a1de9223ff72cd5411b7afe783d827e92b1b25e54d33b24",
            "table2.csv":
                "764a76394512961a776fd7e5740f68a009629f248594e8618c3a48479e5bfafd",
            "trials_a.csv":
                "0b57a3d0e2cae54b4ca0e099247a70e742ec2f32b7f8960886d0c1c50635d536",
            "trials_a.jsonl":
                "e0c07f57a51c663cfc1d645b409dc6408b6e85038bef4f44ff29b9ede09d56e2",
            "trials_c.csv":
                "eb0d0806460d9000b00bbc5aa17235c13a24fe909b745ac32aa1facd057f1fa3",
            "trials_c.jsonl":
                "1af1284e0928be13ad641f700612b0ffdc88a5b5118a448d88e7a3250ebec5c1",
        }

    def test_packaged_config_2000_trials(self, tmp_path):
        """All 32 outputs of the six packaged settings, as one digest of their digests."""
        out = tmp_path / "packaged"
        assert run_cli("simulate-cpc", "--out", out, "--trials", "2000",
                       "--emit-trials", "--format", "both") == 0
        digests = output_digests(out)
        assert len(digests) == 32
        assert (hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()
                == "2f816212dd03a164da4bdafc845ae6d88b211c38c98f7f0717a0ac59c49b0d3a")


class TestTheoremOutputBytes:
    """verify-theorems report bytes pinned across versions and thread counts.

    A change that moves this digest must say which fields moved and why in
    CHANGES.md, then update it here.
    """

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_small_config(self, tmp_path, threads):
        out = tmp_path / "thm"
        assert run_cli("verify-theorems", "--config", write_cfg(tmp_path, SMALL_THEOREMS),
                       "--out", out, "--threads", threads) == 0
        assert output_digests(out) == {
            "theorem_report.json":
                "9c25a7e96d516559d4249de30e0421b2596be5556d68f31ff82d37c604041856",
        }

    @pytest.mark.parametrize("threads", [1, 2])
    def test_skip_shapes(self, tmp_path, threads):
        """Disjoint supports in the pair: both decomposition skip reasons,
        unreachable splittability pairs, null quadrature and Monte Carlo
        means, and skipped Monte Carlo comparisons."""
        out = tmp_path / "skip"
        assert run_cli("verify-theorems", "--config", write_cfg(tmp_path, DISJOINT_THEOREMS),
                       "--out", out, "--threads", threads) == 0
        assert output_digests(out) == {
            "theorem_report.json":
                "5306568add26227f53a30c5432cd3ad41d7b70e36ab8bea73791a5154ad0beec",
        }

    @pytest.mark.parametrize("threads", [1, 2])
    def test_wide_uniform_field(self, tmp_path, threads):
        """theorems-wide's eight staggered uniforms at 8,192 draws: every
        rank of every candidate, through the uniform rows alone."""
        out = tmp_path / "wide"
        assert run_cli("verify-theorems", "--config", write_cfg(tmp_path, WIDE_THEOREMS),
                       "--out", out, "--threads", threads) == 0
        assert output_digests(out) == {
            "theorem_report.json":
                "424d3ff76c2b092ab131e319cbf545b5235128b77c5410dc180615cdec4d5cd4",
        }

    @pytest.mark.parametrize("threads", [1, 2])
    def test_mixed_nine_ad_field(self, tmp_path, threads):
        """Nine mixed beta and uniform ads at 8,192 draws: the argsort rank
        branch, the Hermite draws and exact-inverse fallbacks under one digest."""
        out = tmp_path / "mixed"
        assert run_cli("verify-theorems", "--config", write_cfg(tmp_path, MIXED_THEOREMS),
                       "--out", out, "--threads", threads) == 0
        assert output_digests(out) == {
            "theorem_report.json":
                "316998639995db4d0c0ea56f2e0271919d5f532f8af68de526a02bd87192fd6d",
        }

    @pytest.mark.parametrize("threads", [1, 2])
    def test_packaged_config(self, tmp_path, threads):
        """The whole packaged report, Monte Carlo moments included."""
        out = tmp_path / "pk"
        assert run_cli("verify-theorems", "--out", out, "--trials", "65536",
                       "--threads", threads) == 0
        assert output_digests(out) == {
            "theorem_report.json":
                "9a67c7af4f6ea03dd75f0e3e9a3ab598b2d267c381bce57b46291e1e52dc281b",
        }

    def test_packaged_cases_without_monte_carlo_moments(self, tmp_path):
        """The packaged cases' quadrature fields, mc_counts and verdicts, with
        mc_means, mc_std_errors and max_sigma set aside: a change to how the
        draws are computed may move those in the last digits, not these."""
        out = tmp_path / "pk"
        assert run_cli("verify-theorems", "--out", out, "--trials", "65536",
                       "--threads", "2") == 0
        report = json.loads((out / "theorem_report.json").read_text())
        for case in report["cases"]:
            for cand in case["candidates"]:
                del cand["mc_means"], cand["mc_std_errors"], cand["mc_agreement"]["max_sigma"]
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        assert digest == "998fbb53b118488e5d2958fabdf6e05bbcd09fd9354697a22eb4274f5a0655c0"


class TestManifestReproducibility:
    def test_manifest_names_every_output(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_AB)
        out = tmp_path / "man"
        run_cli("ab-run", "--config", cfg, "--out", out)
        manifest = json.loads((out / "manifest.json").read_text())
        on_disk = {p.name for p in out.iterdir()}
        assert set(manifest["outputs"]) == on_disk
        assert manifest["config"]["payload"]["days"] == 4

    @pytest.mark.parametrize("command, name, extra, seed", [
        ("simulate-cpc", "table2.cfg", ("--trials", "200", "--seed", "9"), 9),
        ("verify-theorems", "theorems.cfg", ("--trials", "2000"), None),
        ("ab-run", "ab.cfg", (), None),
    ], ids=["simulate-cpc", "verify-theorems", "ab-run"])
    def test_manifest_config_is_the_loaded_payload(self, tmp_path, command, name, extra, seed):
        """The manifest's config block is the loaded config's record, with the
        resolved seed on top; the run plans keep the loader's seed 0."""
        loaded = load_config(Path(gspbias.__file__).parent / "configs" / name)
        out = tmp_path / "man"
        assert run_cli(command, "--out", out, "--threads", "1", *extra) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["payload"] == json.loads(json.dumps(_record(loaded.payload)))
        assert config["seed"] == (loaded.seed if seed is None else seed)
        assert config["command"] == command

    @pytest.mark.parametrize("command, cfg, extra", [
        ("simulate-cpc", SMALL_CPC, ("--trials", "200")),
        ("verify-theorems", SMALL_THEOREMS, ("--trials", "200")),
        ("verify-theorems", UNIFORM_THEOREMS, ("--trials", "200")),
        ("ab-run", SMALL_AB, ()),
    ], ids=["simulate-cpc", "verify-theorems", "verify-theorems-uniform", "ab-run"])
    def test_manifest_records_run_environment(self, tmp_path, command, cfg, extra):
        out = tmp_path / "env"
        assert run_cli(command, "--config", write_cfg(tmp_path, cfg), "--out", out,
                       *extra, "--threads", "3") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["threads"] == 3
        assert manifest["environment"] == {"python": platform.python_version(),
                                           "numpy": np.__version__,
                                           "scipy": metadata.version("scipy")}

    def test_theorem_manifest_times_each_case(self, tmp_path):
        """verify-theorems records, per case, its exact-inverse draw count, the
        seconds spent on the grid, the Monte Carlo draws and the checks, how
        many distinct quadrature checks ran, how many threads drew its Monte
        Carlo blocks, the peak RSS right after its Monte Carlo and the peak
        RSS so far, which the checks can only raise."""
        # a narrow beta spans few grid cells; draws on its steep flanks take the exact inverse
        dists = "beta:60:60:0.01, uniform:0:1"
        text = SMALL_THEOREMS.replace("beta:2:38", dists)
        out = tmp_path / "thm"
        assert run_cli("verify-theorems", "--config", write_cfg(tmp_path, text), "--out", out,
                       "--threads", "2") == 0
        cases = json.loads((out / "manifest.json").read_text())["cases"]
        assert [c["name"] for c in cases] == ["pair", "solo"]
        grid = CaseGrid([parse_distribution(spec, "dists") for spec in dists.split(", ")])
        expected = sample_rank_stats(grid, 40000, 5, case_index=1).exact_draws
        assert [c["exact_draws"] for c in cases] == [0, expected] and expected > 0
        # the iid pair needs one quadrature check, the two distinct ads two
        assert [c["quadrature_candidates"] for c in cases] == [1, 2]
        # the uniform pair's blocks stay in the calling thread; the beta case's
        # three blocks run on both threads
        assert [c["mc_threads"] for c in cases] == [1, 2]
        for c in cases:
            assert min(c["grid_seconds"], c["mc_seconds"], c["check_seconds"]) >= 0.0
            assert isinstance(c["peak_rss_mb"], float) and c["peak_rss_mb"] > 0.0
            assert isinstance(c["mc_peak_rss_mb"], float)
            assert 0.0 < c["mc_peak_rss_mb"] <= c["peak_rss_mb"]

    def test_theorem_manifest_counts_grid_bytes(self, tmp_path):
        """Each case's grid_mb counts each array its grid and draw tables hold
        once: eight iid uniforms, and theorems-wide's eight uniforms, hold
        nodes and weights and no row; a beta ad adds its CDF and PDF rows,
        its safe-cell flags and its int32 guide table."""
        iid = ", ".join(["uniform:0:1"] * 8)
        text = (WIDE_THEOREMS.replace("mc_draws = 8192", "mc_draws = 2000")
                + f"\n[case.iid]\ndists = {iid}\n[case.solo]\ndists = beta:2:38\n")
        out = tmp_path / "thm"
        assert run_cli("verify-theorems", "--config", write_cfg(tmp_path, text), "--out", out,
                       "--threads", "1") == 0
        cases = json.loads((out / "manifest.json").read_text())["cases"]
        nodes = SIMPSON_INTERVALS + 1
        rows = {"u8_staggered": 2 * nodes * 8, "iid": 2 * nodes * 8,
                "solo": 4 * nodes * 8 + nodes + SIMPSON_INTERVALS * 4}
        assert {c["name"]: c["grid_mb"] for c in cases} == {
            name: round(size / 2 ** 20, 3) for name, size in rows.items()}

    def test_theorem_manifest_peak_is_the_run_own(self, tmp_path):
        """Started from a process holding about 200 MB, verify-theorems records
        its own peak RSS, not its launcher's."""
        out = tmp_path / "thm"
        assert run_probe(BIG_LAUNCHER, [
            sys.executable, "-m", "gspbias.cli", "verify-theorems", "--config",
            write_cfg(tmp_path, SMALL_THEOREMS), "--out", out, "--trials", "2000",
            "--threads", "1"]) == 0
        cases = json.loads((out / "manifest.json").read_text())["cases"]
        peaks = [c["peak_rss_mb"] for c in cases]
        assert len(peaks) == 2 and all(0.0 < peak < 150.0 for peak in peaks), peaks

    def test_cpc_manifest_times_each_setting(self, tmp_path):
        """simulate-cpc records the kernels' import apart from the settings,
        then each setting's name, trial count and seconds."""
        out = tmp_path / "cpc"
        assert run_cli("simulate-cpc", "--config", write_cfg(tmp_path, SMALL_CPC),
                       "--out", out, "--trials", "300") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["kernel_import_seconds"] >= 0.0
        assert [(s["name"], s["trials"]) for s in manifest["settings"]] == [("a", 300),
                                                                            ("c", 300)]
        assert all(s["seconds"] >= 0.0 for s in manifest["settings"])

    def test_ab_manifest_times_each_bucket(self, tmp_path):
        """ab-run records each bucket's name, records served, seconds and the
        part of them spent in the impression writers, in config order."""
        out = tmp_path / "ab"
        assert run_cli("ab-run", "--config", write_cfg(tmp_path, SMALL_AB), "--out", out,
                       "--format", "both") == 0
        buckets = json.loads((out / "manifest.json").read_text())["buckets"]
        assert [(b["name"], b["records"]) for b in buckets] == [("A", 4 * 1500),
                                                                ("B", 4 * 1500)]
        assert all(0.0 <= b["write_seconds"] <= b["seconds"] for b in buckets)

    def test_rerun_with_manifest_seed_reproduces(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_AB)
        run_cli("ab-run", "--config", cfg, "--out", tmp_path / "m1")
        seed = json.loads((tmp_path / "m1" / "manifest.json").read_text())["seed"]
        run_cli("ab-run", "--config", cfg, "--out", tmp_path / "m2", "--seed", str(seed))
        for name in ("impressions_A.csv", "impressions_B.csv",
                     "calibration_report.json", "rtv_rtc.json"):
            assert ((tmp_path / "m1" / name).read_bytes()
                    == (tmp_path / "m2" / name).read_bytes())


# Prints the scipy modules loaded once cli.main returns, and whether the
# thread pool's module is (argv: the command line).
IMPORT_PROBE = """
import json, sys
from gspbias.cli import main
rc = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps({"rc": rc, "scipy": sorted(m for m in sys.modules
                                          if m == "scipy" or m.startswith("scipy.")),
                  "futures": "concurrent.futures" in sys.modules,
                  "logging": "logging" in sys.modules}))
"""

MODULES_PROBE = """
import json, sys
import gspbias.cli
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "gspbias")))
"""

# Prints, for each CaseGrid the command builds, whether the beta kernels were
# loaded by then.
KERNEL_PROBE = """
import json, sys
from gspbias import cli
real = cli.CaseGrid
loaded = []
def grid(*args):
    loaded.append("scipy.special._ufuncs" in sys.modules)
    return real(*args)
cli.CaseGrid = grid
print(json.dumps({"rc": cli.main(sys.argv[1:]), "loaded": loaded}))
"""

# Runs cli.main, then imports scipy.special and scipy.stats in the same
# process; prints whether they use the kernels the command loaded.
HEALTH_PROBE = """
import json, sys
from gspbias.cli import main
rc = main(sys.argv[1:])
import scipy.special, scipy.stats
print(json.dumps({"rc": rc,
                  "same": scipy.special.betainc is scipy.special._ufuncs.betainc,
                  "cdf": [float(scipy.stats.beta.cdf(0.1, 2, 38)),
                          float(scipy.special.betainc(2, 38, 0.1))]}))
"""

# Prints scipy's version as the manifest records it in a process that has
# not loaded scipy, the scipy modules loaded afterwards, and the version in
# scipy's package metadata.
VERSION_PROBE = """
import json, sys
from gspbias.reports import _scipy_version
version = _scipy_version()
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
from importlib import metadata
print(json.dumps({"version": version, "scipy": loaded, "metadata": metadata.version("scipy")}))
"""


def run_probe(probe, argv):
    """``probe`` in a child interpreter on argv; the JSON of its last line."""
    src = str(Path(gspbias.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", probe, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


class TestImportBoundary:
    """scipy.stats costs about a second to import and no command needs it;
    ab-run, loading the CLI and a verify-theorems run without beta ads need
    no scipy at all, and no run opens a thread pool, so none loads
    concurrent.futures or logging."""

    @pytest.mark.parametrize("command, cfg, extra", [
        (None, None, ()),
        ("simulate-cpc", SMALL_CPC, ("--trials", "200")),
        ("verify-theorems", SMALL_THEOREMS, ("--trials", "2000")),
        ("ab-run", SMALL_AB, ()),
        ("verify-theorems", UNIFORM_THEOREMS, ("--trials", "2000")),
    ], ids=["import", "simulate-cpc", "verify-theorems", "ab-run", "verify-theorems-uniform"])
    def test_scipy_modules_loaded(self, tmp_path, command, cfg, extra):
        argv = [] if command is None else [
            command, "--config", write_cfg(tmp_path, cfg), "--out", tmp_path / "out",
            "--threads", "1", *extra]
        result = run_probe(IMPORT_PROBE, argv)
        assert result["rc"] in (0, 1)
        assert "scipy.stats" not in result["scipy"]
        assert not result["futures"] and not result["logging"]
        if command in (None, "ab-run") or cfg is UNIFORM_THEOREMS:
            assert result["scipy"] == []
        else:  # the binomial and beta kernels, without scipy.special's __init__
            assert "scipy.special._ufuncs" in result["scipy"]
            assert "scipy.special" not in result["scipy"]
        if command == "verify-theorems":  # the beta kernels' import time, 0.0 if not loaded
            seconds = json.loads((tmp_path / "out" / "manifest.json").read_text())[
                "kernel_import_seconds"]
            assert (seconds > 0.0) == (cfg is SMALL_THEOREMS)

    @pytest.mark.parametrize("command, cfg, extra", [
        ("ab-run", SMALL_AB, ()),
        ("simulate-cpc", SMALL_CPC, ("--trials", "200")),
        ("verify-theorems", SMALL_THEOREMS, ("--trials", "40000")),
    ], ids=["ab-run", "simulate-cpc", "verify-theorems"])
    def test_thread_pool_loaded_only_for_a_pool(self, tmp_path, command, cfg, extra):
        """No command opens a thread pool, so even at --threads 2 none loads
        concurrent.futures or logging: ab-run and simulate-cpc use no
        threads, and verify-theorems' beta case starts its helper threads
        with ``threading`` alone."""
        result = run_probe(IMPORT_PROBE, [
            command, "--config", write_cfg(tmp_path, cfg), "--out", tmp_path / "out",
            "--threads", "2", *extra])
        assert result["rc"] == 0 and not result["futures"] and not result["logging"]
        if command == "verify-theorems":
            runs = json.loads((tmp_path / "out" / "manifest.json").read_text())["cases"]
            assert [c["mc_threads"] for c in runs] == [1, 2]

    def test_scipy_version_without_loading_scipy(self):
        """The manifest's scipy version, read where scipy is not loaded, is
        the version in scipy's package metadata, and loads no scipy module."""
        result = run_probe(VERSION_PROBE, [])
        assert result["version"] == result["metadata"] and result["scipy"] == []
        assert _scipy_version() == metadata.version("scipy")  # scipy loaded here

    def test_cli_loads_every_package_module(self):
        """Every module of the package is one the CLI imports, so none is
        reached by the tests alone."""
        package = Path(gspbias.__file__).parent
        modules = {"gspbias"} | {f"gspbias.{p.stem}" for p in package.glob("*.py")
                                 if p.stem != "__init__"}
        assert set(run_probe(MODULES_PROBE, [])) == modules

    def test_beta_kernels_load_before_the_first_grid(self, tmp_path):
        """The first case is uniform-only and the second has a beta ad: the
        kernels are loaded before either grid is built, so their import time
        is not the beta case's grid time."""
        result = run_probe(KERNEL_PROBE, [
            "verify-theorems", "--config", write_cfg(tmp_path, SMALL_THEOREMS),
            "--out", tmp_path / "out", "--trials", "2000", "--threads", "1"])
        assert result == {"rc": 0, "loaded": [True, True]}

    def test_scipy_special_imports_after_a_command(self, tmp_path):
        """After simulate-cpc loaded the kernels alone, importing scipy.special
        and scipy.stats runs their package init on the same kernels."""
        result = run_probe(HEALTH_PROBE, [
            "simulate-cpc", "--config", write_cfg(tmp_path, SMALL_CPC),
            "--out", tmp_path / "out", "--trials", "200", "--threads", "1"])
        assert result["rc"] == 0 and result["same"]
        assert result["cdf"][0] == result["cdf"][1]

    def test_kernels_loaded_alone_write_the_same_bytes(self, tmp_path):
        """pytest has imported scipy.special, so in process the kernels come
        through the ordinary import; a child loads them alone.  Both runs
        write the same bytes."""
        for command, cfg, extra in (
                ("simulate-cpc", SMALL_CPC, ("--emit-trials", "--format", "both")),
                ("verify-theorems", SMALL_THEOREMS, ())):
            argv = [command, "--config", write_cfg(tmp_path, cfg, f"{command}.cfg"),
                    "--threads", "2", *extra]
            child, here = tmp_path / f"child-{command}", tmp_path / f"here-{command}"
            result = run_probe(IMPORT_PROBE, [*argv, "--out", child])
            assert result["rc"] == 0 and "scipy.special" not in result["scipy"]
            assert run_cli(*argv, "--out", here) == 0
            assert output_digests(child) == output_digests(here), command


# Installs every wrapper of the benchmark's tracer (argv: the bench directory).
TRACER_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer
tracer.install()
print(json.dumps("installed"))
"""


def test_bench_tracer_installs():
    """bench/tracer.py wraps package names by attribute; each one it patches
    still exists, so a traced benchmark run can start."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    assert run_probe(TRACER_PROBE, [bench]) == "installed"


def traced_span_names(tmp_path, command, cfg):
    """The span names of one ``--threads 1`` run of ``command`` under
    bench/tracer.py in a child, after asserting that it exits 0."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    spans = tmp_path / "spans.json"
    src = str(Path(gspbias.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, bench / "tracer.py", spans, "--", command,
                           "--config", cfg, "--out", tmp_path / "out", "--threads", "1"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {span[0] for span in json.loads(spans.read_text())["spans"]}


def test_bench_tracer_records_distribution_spans(tmp_path):
    """A traced verify-theorems run exits 0 and records spans from the
    wrappers the tracer puts on ``ScoreDistribution``'s methods, so they
    still fire on the grid rows and the uniform ad's draws, and from those
    on the oracle checks that ``gspbias.cli`` calls."""
    text = SMALL_THEOREMS.replace("mc_draws = 40000", "mc_draws = 2000").split("[case.pair]")[0]
    cfg = write_cfg(tmp_path, text + "[case.pair]\ndists = beta:2:38, uniform:0:0.1\n")
    names = traced_span_names(tmp_path, "verify-theorems", cfg)
    assert {"oracle.cdf", "oracle.pdf", "engine.invcdf"} <= names
    # the four checks' wrappers sit on cli's names, so the checks must call through them
    assert {"oracle.mean_profile", "oracle.density_profile", "oracle.decomposition",
            "oracle.splittable"} <= names


def test_bench_tracer_records_ab_run_spans(tmp_path):
    """A traced two-day, two-ad ab-run exits 0 and records spans from the
    wrappers the tracer puts on the window, the estimate matrix and the run."""
    text = SMALL_AB.replace("days = 4", "days = 2").replace("burn_in_days = 2", "burn_in_days = 1")
    names = traced_span_names(tmp_path, "ab-run", write_cfg(tmp_path, text.split("[ad.3]")[0]))
    assert {"estimators.window", "engine.estimate_matrix", "engine.ab"} <= names


def test_bench_tracer_records_simulate_cpc_spans(tmp_path):
    """A traced two-setting simulate-cpc run exits 0 and records spans from
    the wrappers the tracer puts on the study, the ranking, the metrics
    and the writers, so each is still called through the name it wraps."""
    cfg = write_cfg(tmp_path, SMALL_CPC.replace("trials = 2000", "trials = 300"))
    names = traced_span_names(tmp_path, "simulate-cpc", cfg)
    assert {"engine.cpc_study", "engine.rank_contexts", "metrics.cpc_summary",
            "metrics.bias_report", "metrics.histogram", "reports"} <= names


def test_every_exported_name_resolves():
    for name in gspbias.__all__:
        assert hasattr(gspbias, name), name
