import json
from pathlib import Path

import numpy as np
import pytest

from gspbias.cli import main
from gspbias.config import load_config, parse_distribution
from gspbias.errors import ConfigError
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

    def test_identical_estimators_rtv_rtc_one(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_AB.replace("estimator = pooled",
                                                   "estimator = naive"))
        out = tmp_path / "aa"
        assert run_cli("ab-run", "--config", cfg, "--out", out) == 0
        rel = json.loads((out / "rtv_rtc.json").read_text())
        assert rel["rtv"] == 1.0 and rel["rtc"] == 1.0
        assert ((out / "impressions_A.csv").read_text().replace(",A,", ",B,")
                == (out / "impressions_B.csv").read_text())


class TestManifestReproducibility:
    def test_manifest_names_every_output(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_AB)
        out = tmp_path / "man"
        run_cli("ab-run", "--config", cfg, "--out", out)
        manifest = json.loads((out / "manifest.json").read_text())
        on_disk = {p.name for p in out.iterdir()}
        assert set(manifest["outputs"]) == on_disk
        assert manifest["config"]["experiment"]["days"] == 4

    def test_rerun_with_manifest_seed_reproduces(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_AB)
        run_cli("ab-run", "--config", cfg, "--out", tmp_path / "m1")
        seed = json.loads((tmp_path / "m1" / "manifest.json").read_text())["seed"]
        run_cli("ab-run", "--config", cfg, "--out", tmp_path / "m2", "--seed", str(seed))
        for name in ("impressions_A.csv", "impressions_B.csv",
                     "calibration_report.json", "rtv_rtc.json"):
            assert ((tmp_path / "m1" / name).read_bytes()
                    == (tmp_path / "m2" / name).read_bytes())
