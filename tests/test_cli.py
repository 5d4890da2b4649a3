import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import numpy as np
import pytest

import gspbias
from gspbias.cli import main
from gspbias.config import load_config, parse_distribution
from gspbias.engine import sample_rank_stats
from gspbias.errors import ConfigError
from gspbias.oracle import CaseGrid
from gspbias.reports import read_histogram_csv

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
                                              ("score_hist_width", "-0.001")])
    def test_nonpositive_hist_width_rejected(self, tmp_path, capsys, field, value):
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

    @pytest.mark.parametrize("value", ["nan", "inf", "2.7", "5000, -inf"])
    def test_impressions_must_be_whole_numbers(self, tmp_path, capsys, value):
        bad = SMALL_CPC.replace("impressions = 5000\ntrue_ctrs = 0.05, 0.04",
                                f"impressions = {value}\ntrue_ctrs = 0.05, 0.04")
        rc = run_cli("simulate-cpc", "--config", write_cfg(tmp_path, bad),
                     "--out", tmp_path / "out")
        assert rc == 3
        assert "setting.c.impressions" in capsys.readouterr().err

    def test_distribution_specs(self):
        assert parse_distribution("uniform:0:1").kind == "uniform"
        assert parse_distribution("beta:2:38:1.5").upper == 1.5
        with pytest.raises(ConfigError):
            parse_distribution("gamma:1:2")

    @pytest.mark.parametrize("spec", ["uniform:0:inf", "beta:nan:2", "beta:2:2:inf"])
    def test_non_finite_distribution_rejected(self, tmp_path, capsys, spec):
        bad = SMALL_THEOREMS.replace("dists = beta:2:38", f"dists = {spec}")
        rc = run_cli("verify-theorems", "--config", write_cfg(tmp_path, bad),
                     "--out", tmp_path / "out", "--trials", "1000")
        assert rc == 3
        err = capsys.readouterr().err
        assert "dists" in err and "Traceback" not in err

    def test_packaged_defaults_parse(self):
        from importlib import resources
        for name, command in (("table2.cfg", "simulate-cpc"),
                              ("theorems.cfg", "verify-theorems"),
                              ("ab.cfg", "ab-run")):
            with resources.as_file(resources.files("gspbias") / "configs" / name) as p:
                loaded = load_config(p)
            assert loaded.command == command
            assert loaded.seed is not None


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
        solo = by_name["solo"]["candidates"][0]
        assert solo["mean_inequality"] == {"passed": True, "checked": 0, "skipped": 0}
        assert "skipped" in solo["decomposition"]

    def test_unreachable_ranks_skipped_not_failed(self, tmp_path):
        """Disjoint supports pin the ranking; the impossible ranks are skipped."""
        cfg_text = SMALL_THEOREMS.replace(
            "dists = uniform:0:1, uniform:0:1",
            "dists = uniform:0:0.4, uniform:0.6:1")
        cfg = write_cfg(tmp_path, cfg_text)
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

        def skewed(dists, draws, seed, case_index=0, threads=1):
            stats = real(dists, draws, seed, case_index=case_index, threads=threads)
            return RankSampleStats(counts=stats.counts,
                                   means=stats.means + 1.0,     # force disagreement
                                   std_errors=stats.std_errors)

        monkeypatch.setattr(cli_mod, "sample_rank_stats", skewed)
        cfg = write_cfg(tmp_path, SMALL_THEOREMS)
        out = tmp_path / "thmfail"
        assert run_cli("verify-theorems", "--config", cfg, "--out", out) == 1
        report = json.loads((out / "theorem_report.json").read_text())
        assert report["passed"] is False

    def test_one_rank_table_per_candidate(self, tmp_path, monkeypatch):
        import gspbias.cli as cli_mod
        from gspbias import oracle

        real = oracle.rank_table
        candidates = []

        def counted(F, candidate):
            candidates.append(candidate)
            return real(F, candidate)

        monkeypatch.setattr(oracle, "rank_table", counted)
        monkeypatch.setattr(cli_mod, "rank_table", counted)
        cfg = write_cfg(tmp_path, SMALL_THEOREMS)
        assert run_cli("verify-theorems", "--config", cfg, "--out", tmp_path / "tables",
                       "--trials", "2000") == 0
        assert candidates == [0, 1, 0]  # case pair: candidates 0 and 1; case solo: 0


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
                "88e142d5d910c253297ba9ed4c3f921f98c658b33a5e76d4d589bb6f93c7220e",
            "calibration_table.csv":
                "7c81c0df46bfc69ffb41a33b9bcb60d3c82b791ad5a4eb8da05550820d38dc7c",
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
                "4ba2207bdbb93eaa2369e4c294b2172f55b6e9b0e032f904fae42c3456a7ad4a",
            "calibration_table.csv":
                "22f558801c91a186cc8db18918d96f9b9815c7d132a4ad7fcf2c6bf57575b1f7",
            "impressions_A.csv":
                "6ddd684a9a810b771207b97f5a87ff7c5f41f1fe1215c4f0c30006c438316aa7",
            "impressions_B.csv":
                "f14ff1da8113bec7e90debf3d1b03f2b892bc28ad6befed32fe6733ac8319fa9",
            "rtv_rtc.json":
                "ff665a39ab49e0f298f1026270cdc0e29a973d5fb9fccd45665e80d03d8369e8",
        }


class TestTheoremOutputBytes:
    """verify-theorems report bytes pinned across versions and thread counts.

    A change that moves this digest must say which fields moved and why in
    CHANGES.md, then update it here.
    """

    @pytest.mark.parametrize("threads", [1, 2])
    def test_small_config(self, tmp_path, threads):
        out = tmp_path / "thm"
        assert run_cli("verify-theorems", "--config", write_cfg(tmp_path, SMALL_THEOREMS),
                       "--out", out, "--threads", threads) == 0
        assert output_digests(out) == {
            "theorem_report.json":
                "0610fea7292af00d644e3ac7f11b14ed858b5e369d5b77b4ddf15212c23b7620",
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
        assert digest == "b40c397f04480e92c751b7d05e87c9c55a30f5fbb6bc8ed4ec414482ab11e2be"


class TestManifestReproducibility:
    def test_manifest_names_every_output(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_AB)
        out = tmp_path / "man"
        run_cli("ab-run", "--config", cfg, "--out", out)
        manifest = json.loads((out / "manifest.json").read_text())
        on_disk = {p.name for p in out.iterdir()}
        assert set(manifest["outputs"]) == on_disk
        assert manifest["config"]["experiment"]["days"] == 4

    def test_manifest_records_run_environment(self, tmp_path):
        out = tmp_path / "env"
        run_cli("ab-run", "--config", write_cfg(tmp_path, SMALL_AB), "--out", out,
                "--threads", "3")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["threads"] == 3
        assert manifest["environment"] == {"python": platform.python_version(),
                                           "numpy": np.__version__,
                                           "scipy": metadata.version("scipy")}

    def test_theorem_manifest_times_each_case(self, tmp_path):
        """verify-theorems records, per case, its exact-inverse draw count and
        the seconds spent on the grid, the Monte Carlo draws and the checks."""
        # b < 1: the draws next to the beta's singular upper end take the exact inverse
        dists = "beta:3:0.5:0.8, uniform:0:1"
        text = SMALL_THEOREMS.replace("beta:2:38", dists)
        out = tmp_path / "thm"
        assert run_cli("verify-theorems", "--config", write_cfg(tmp_path, text), "--out", out,
                       "--threads", "2") == 0
        cases = json.loads((out / "manifest.json").read_text())["cases"]
        assert [c["name"] for c in cases] == ["pair", "solo"]
        grid = CaseGrid([parse_distribution(spec) for spec in dists.split(", ")])
        expected = sample_rank_stats(grid, 40000, 5, case_index=1).exact_draws
        assert [c["exact_draws"] for c in cases] == [0, expected] and expected > 0
        for c in cases:
            assert min(c["grid_seconds"], c["mc_seconds"], c["check_seconds"]) >= 0.0

    def test_rerun_with_manifest_seed_reproduces(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_AB)
        run_cli("ab-run", "--config", cfg, "--out", tmp_path / "m1")
        seed = json.loads((tmp_path / "m1" / "manifest.json").read_text())["seed"]
        run_cli("ab-run", "--config", cfg, "--out", tmp_path / "m2", "--seed", str(seed))
        for name in ("impressions_A.csv", "impressions_B.csv",
                     "calibration_report.json", "rtv_rtc.json"):
            assert ((tmp_path / "m1" / name).read_bytes()
                    == (tmp_path / "m2" / name).read_bytes())


# Prints the scipy modules loaded once cli.main returns (argv: the command line).
IMPORT_PROBE = """
import json, sys
from gspbias.cli import main
rc = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps({"rc": rc, "scipy": sorted(m for m in sys.modules
                                          if m == "scipy" or m.startswith("scipy."))}))
"""


class TestImportBoundary:
    """scipy.stats costs about a second to import and no command needs it;
    ab-run and loading the CLI need no scipy at all."""

    @pytest.mark.parametrize("command, cfg, extra", [
        (None, None, ()),
        ("simulate-cpc", SMALL_CPC, ("--trials", "200")),
        ("verify-theorems", SMALL_THEOREMS, ("--trials", "2000")),
        ("ab-run", SMALL_AB, ()),
    ], ids=["import", "simulate-cpc", "verify-theorems", "ab-run"])
    def test_scipy_modules_loaded(self, tmp_path, command, cfg, extra):
        argv = [] if command is None else [
            command, "--config", str(write_cfg(tmp_path, cfg)), "--out", str(tmp_path / "out"),
            "--threads", "1", *extra]
        src = str(Path(gspbias.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *argv], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["rc"] in (0, 1)
        assert "scipy.stats" not in result["scipy"]
        if command in (None, "ab-run"):
            assert result["scipy"] == []
        else:  # the binomial and beta inverses load scipy.special
            assert "scipy.special" in result["scipy"]
