"""Metamorphic relations: how each command's outputs must move when its
config moves by a symmetry of the problem.

verify-theorems:

- **Power-of-two scale.** Multiplying every support by 2^k is exact in
  floating point, so every score-valued field (quadrature and Monte Carlo
  means, Monte Carlo standard errors, split points) scales by 2^k bit for
  bit, and every other field (rank masses, decomposition residuals, counts,
  sigmas and verdicts) is unchanged.
- **Shift.** Adding c to every uniform support adds c to every quadrature
  and Monte Carlo mean, and leaves the rank masses, standard errors,
  counts and verdicts as they were, within what c's own rounding allows:
  the case's grid spans its supports, and the draws' squares are taken
  about each ad's lower end.
- **Relabelling.** Reversing a case's ads reverses its candidates'
  quadrature fields.  They are not equal bit for bit, because the rank
  tables fold the rivals in another order, so they are compared within
  1e-12 relative, and no quadrature verdict may move.  The Monte Carlo
  fields are not covered: each ad takes its uniform column by position, so
  reversing the ads gives other draws.

simulate-cpc and ab-run:

- **Power-of-two scale.** Bids and both histogram widths times 2^k scale
  simulate-cpc's prices, scores and bin edges by 2^k bit for bit and
  leave its ratios, bias factors and counts as they were; every bid times
  2^k leaves ab-run's calibration and relative-value reports byte for
  byte, since their ratios' numerators and denominators scale alike.
- **Prefixes.** Trial t reads unit t of its setting's stream, and day d's
  traffic reads only days up to d, so a shorter run writes a prefix of a
  longer run's trial and impression logs.
"""

import csv
import json
import re
from importlib import resources

import numpy as np
import pytest

from gspbias.cli import main

# uniforms from 0 and not, an iid pair, a beta cut by the grid and a beta
# reaching past every other ad's support
SCALE_FIELDS = {
    "pair": ["uniform:0:1", "uniform:0:1"],
    "mixed": ["beta:2:38", "uniform:0.01:0.12", "beta:3:37:1.2", "uniform:0:0.09"],
}
# theorems-wide's eight staggered uniforms, and nine mixed betas and uniforms
RELABEL_FIELDS = {
    "wide": ["uniform:0:0.1", "uniform:0.01:0.08", "uniform:0:0.12", "uniform:0.02:0.1",
             "uniform:0:0.09", "uniform:0.005:0.11", "uniform:0.03:0.07", "uniform:0:0.1"],
    "mixed9": ["beta:2:38", "uniform:0:0.12", "beta:60:60:0.05", "beta:3:1:0.1",
               "uniform:0.01:0.08", "beta:1:3:0.09", "beta:1.5:20:0.2", "uniform:0:0.1",
               "beta:5:45:1.5"],
}
SCORE_FIELDS = ("quadrature_means", "mc_means", "mc_std_errors")
QUADRATURE_FIELDS = ("marginals", "quadrature_means", "mean_inequality", "decomposition",
                     "splittability")


def scaled_spec(spec: str, factor: float) -> str:
    """The spec with its support multiplied by ``factor``: a uniform's ends,
    a beta's scale."""
    kind, *params = spec.split(":")
    values = [float(p) for p in params]
    if kind == "uniform":
        values = [v * factor for v in values]
    else:
        values = values[:2] + [(values[2] if len(values) == 3 else 1.0) * factor]
    return ":".join([kind, *map(repr, values)])


def run_report(tmp_path, fields: dict, draws: int) -> dict:
    """verify-theorems' report on one case per field, at ``draws`` draws."""
    text = "[config]\nschema_version = 1\ncommand = verify-theorems\n[verify]\nseed = 7\n"
    text += "".join(f"[case.{name}]\ndists = {', '.join(specs)}\n"
                    for name, specs in fields.items())
    cfg = tmp_path / f"run{len(list(tmp_path.iterdir()))}.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = cfg.with_suffix("")
    assert main(["verify-theorems", "--config", str(cfg), "--out", str(out),
                 "--trials", str(draws), "--threads", "1"]) in (0, 1)
    return json.loads((out / "theorem_report.json").read_text())


def scaled(value, factor: float):
    """A report value with every number multiplied by ``factor``."""
    if isinstance(value, list):
        return [scaled(v, factor) for v in value]
    return None if value is None else value * factor


@pytest.mark.parametrize("k", [20, -20])
def test_power_of_two_scale(tmp_path, k):
    """At 65,536 draws, every support times 2^k scales the score-valued
    fields exactly and leaves every other field of the report as it was."""
    factor = 2.0 ** k
    base = run_report(tmp_path, SCALE_FIELDS, 1 << 16)
    moved = run_report(tmp_path, {name: [scaled_spec(s, factor) for s in specs]
                                  for name, specs in SCALE_FIELDS.items()}, 1 << 16)
    assert base["passed"] is True
    for case, other in zip(base["cases"], moved["cases"], strict=True):
        case.pop("dists")
        other.pop("dists")
        for cand, theirs in zip(case["candidates"], other["candidates"], strict=True):
            for name in SCORE_FIELDS:
                assert scaled(cand.pop(name), factor) == theirs.pop(name), name
            for pair, their_pair in zip(cand["splittability"]["pairs"],
                                        theirs["splittability"]["pairs"], strict=True):
                if "split_at" in pair:
                    assert pair.pop("split_at") * factor == their_pair.pop("split_at")
        assert case == other


# uniform fields whose supports sit a few grid steps apart once shifted:
# an iid pair, two and three staggered supports, and four wider ones
SHIFT_FIELDS = {
    "iid": ["uniform:0:0.01", "uniform:0:0.01"],
    "pair": ["uniform:0:0.01", "uniform:0.005:0.015"],
    "staggered": ["uniform:0:0.001", "uniform:0.0004:0.0014", "uniform:0.0008:0.0012"],
    "wide": ["uniform:0:0.1", "uniform:0.01:0.08", "uniform:0:0.12", "uniform:0.02:0.1"],
}
VERDICTS = ("mean_inequality", "mc_agreement", "mass_agreement")


def shifted_spec(spec: str, c: float) -> str:
    """A uniform spec with both ends moved up by c."""
    kind, low, high = spec.split(":")
    return f"{kind}:{float(low) + c!r}:{float(high) + c!r}"


@pytest.mark.parametrize("c", [100.0, 1000.0, 1e6])
def test_shift(tmp_path, c):
    """At 65,536 draws, every support moved up by c moves every quadrature
    and Monte Carlo mean up by c, within 64 ulps of c, and leaves the rank
    masses within 1e-6, the standard errors within 1e-3 relative (the
    shifted means carry c's rounding into the squares' differences), the
    counts, the residuals within 1e-12 and every verdict as they were."""
    base = run_report(tmp_path, SHIFT_FIELDS, 1 << 16)
    moved = run_report(tmp_path, {name: [shifted_spec(s, c) for s in specs]
                                  for name, specs in SHIFT_FIELDS.items()}, 1 << 16)
    assert base["passed"] is moved["passed"] is True
    assert base["mc_comparisons"] == moved["mc_comparisons"]
    ulps = c * 2.0 ** -46
    for case, other in zip(base["cases"], moved["cases"], strict=True):
        for mine, theirs in zip(case["candidates"], other["candidates"], strict=True):
            for name in ("quadrature_means", "mc_means"):
                np.testing.assert_allclose(np.array(theirs[name], dtype=float) - c,
                                           np.array(mine[name], dtype=float), rtol=0, atol=ulps)
            np.testing.assert_allclose(theirs["marginals"], mine["marginals"], rtol=0, atol=1e-6)
            np.testing.assert_allclose(np.array(theirs["mc_std_errors"], dtype=float),
                                       np.array(mine["mc_std_errors"], dtype=float), rtol=1e-3)
            assert theirs["mc_counts"] == mine["mc_counts"]
            assert abs(theirs["decomposition"]["residual"]
                       - mine["decomposition"]["residual"]) <= 1e-12
            assert theirs["decomposition"]["passed"] is mine["decomposition"]["passed"] is True
            for name in VERDICTS:
                assert {**theirs[name], "max_sigma": None} == {**mine[name], "max_sigma": None}
            assert ([p.get("splittable") for p in theirs["splittability"]["pairs"]]
                    == [p.get("splittable") for p in mine["splittability"]["pairs"]])


def quadrature(candidates: list) -> list:
    """The quadrature fields of each candidate."""
    return [{name: cand[name] for name in QUADRATURE_FIELDS} for cand in candidates]


def assert_close(mine, theirs, path=""):
    """Numbers within 1e-12 relative (decomposition residuals, which are
    round-off about 0, within 1e-12 absolute); every other value equal,
    except a split point, which may move with the round-off of two
    densities that touch."""
    if isinstance(mine, dict):
        assert mine.keys() == theirs.keys(), path
        for key in mine:
            if key != "split_at":
                assert_close(mine[key], theirs[key], f"{path}.{key}")
    elif isinstance(mine, list):
        assert len(mine) == len(theirs), path
        for i, (a, b) in enumerate(zip(mine, theirs)):
            assert_close(a, b, f"{path}[{i}]")
    elif isinstance(mine, float) and not isinstance(theirs, bool):
        slack = 1e-12 if path.endswith("residual") else 1e-12 * abs(mine)
        assert theirs is not None and abs(mine - theirs) <= slack, (path, mine, theirs)
    else:
        assert mine == theirs, (path, mine, theirs)


def test_relabelling(tmp_path):
    """Reversing each case's ads reverses its candidates' quadrature fields
    within 1e-12 relative, and moves no quadrature verdict."""
    base = run_report(tmp_path, RELABEL_FIELDS, 2000)
    flipped = run_report(tmp_path, {name: specs[::-1] for name, specs in RELABEL_FIELDS.items()},
                         2000)
    for case, other in zip(base["cases"], flipped["cases"], strict=True):
        mine = quadrature(case["candidates"])
        assert_close(mine, quadrature(other["candidates"])[::-1], case["name"])
        for cand in mine:
            assert cand["mean_inequality"]["passed"] and cand["splittability"]["passed"]
            assert cand["decomposition"]["passed"]


def packaged(name: str) -> str:
    """A packaged config's text."""
    return resources.files("gspbias").joinpath("configs", name).read_text(encoding="utf-8")


def run_command(tmp_path, command: str, text: str, *flags: str) -> "Path":
    """``command`` on the config ``text`` at one thread; its output directory."""
    cfg = tmp_path / f"run{len(list(tmp_path.iterdir()))}.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = cfg.with_suffix("")
    assert main([command, "--config", str(cfg), "--out", str(out), "--threads", "1",
                 *flags]) == 0
    return out


def times(factor: float, *keys: str):
    """A substitution for ``re.sub`` that multiplies the number after each
    of ``keys`` by ``factor``."""
    def scale(match):
        return f"{match[1]}{float(match[2]) * factor!r}"
    return re.compile(rf"^((?:{'|'.join(keys)}) *= *)([0-9.e+-]+)", re.M), scale


# bias_report.json's fields in price or score units (ratio_of_means is the
# mean runner-up score over the mean winner estimate); every other field is
# a count, a ratio of like units or a verdict
CPC_SCALED = {"expected_cpc", "mean_observed_cpc", "observed_se", "ratio_of_means",
              "ratio_of_means_se", "conditional_score_mean", "conditional_score_se"}


def assert_scaled(mine, theirs, factor: float, key=None):
    """``theirs`` is ``mine`` with every CPC_SCALED number times ``factor``."""
    if isinstance(mine, dict):
        assert mine.keys() == theirs.keys()
        for k in mine:
            assert_scaled(mine[k], theirs[k], factor, k)
    elif isinstance(mine, list):
        assert len(mine) == len(theirs), key
        for a, b in zip(mine, theirs):
            assert_scaled(a, b, factor, key)
    elif key in CPC_SCALED:
        assert mine * factor == theirs, key
    else:
        assert mine == theirs, key


def read_csv(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("k", [40, -40])
def test_simulate_cpc_power_of_two_scale(tmp_path, k):
    """At 40,000 trials, so over several blocks, bids and both histogram
    widths times 2^k scale every price, score and bin edge exactly, and
    leave every ratio, bias factor and count as it was."""
    factor = 2.0 ** k
    text = packaged("table2.cfg")
    base = run_command(tmp_path, "simulate-cpc", text, "--trials", "40000")
    moved = run_command(tmp_path, "simulate-cpc",
                        re.sub(*times(factor, "bids", "cpc_hist_width", "score_hist_width"),
                               text), "--trials", "40000")
    mine, theirs = (json.loads((out / "bias_report.json").read_text()) for out in (base, moved))
    assert_scaled(mine, theirs, factor)
    for path in base.glob("*.csv"):
        rows, their_rows = read_csv(path), read_csv(moved / path.name)
        assert rows[0] == their_rows[0] and len(rows) == len(their_rows), path.name
        scaled_columns = {"expected_cpc", "mean_observed_cpc", "bin_left", "bin_right"}
        for row, their_row in zip(rows[1:], their_rows[1:]):
            for name, a, b in zip(rows[0], row, their_row):
                if name in scaled_columns:
                    assert float(a) * factor == float(b), (path.name, name)
                else:
                    assert a == b, (path.name, name)


def test_simulate_cpc_trial_log_prefix(tmp_path):
    """Every setting's trial log at 20,000 trials is the first 20,000 rows
    of its log at 40,000."""
    text = packaged("table2.cfg")
    short, long = (run_command(tmp_path, "simulate-cpc", text, "--trials", str(n),
                               "--emit-trials") for n in (20000, 40000))
    logs = sorted(path.name for path in short.glob("trials_*.csv"))
    assert len(logs) == 6
    for name in logs:
        head = (short / name).read_text().splitlines(keepends=True)
        assert len(head) == 20001
        assert head == (long / name).read_text().splitlines(keepends=True)[:20001], name


AB_REPORTS = ("calibration_report.json", "rtv_rtc.json")


@pytest.mark.parametrize("k", [30, -30])
def test_ab_run_power_of_two_scale(tmp_path, k):
    """Every bid times 2^k leaves the calibration and relative-value
    reports byte for byte, at 3,000 accesses a day."""
    text = re.sub(r"^traffic_per_day *=.*$", "traffic_per_day = 3000", packaged("ab.cfg"),
                  flags=re.M)
    base = run_command(tmp_path, "ab-run", text)
    moved = run_command(tmp_path, "ab-run", re.sub(*times(2.0 ** k, "bid"), text))
    for name in AB_REPORTS:
        assert (base / name).read_bytes() == (moved / name).read_bytes(), name


def test_ab_run_impression_log_prefix(tmp_path):
    """At 3,000 accesses a day, both buckets' impression logs over 20 days
    are a prefix of their logs over 28, with the same burn-in and window."""
    text = re.sub(r"^traffic_per_day *=.*$", "traffic_per_day = 3000", packaged("ab.cfg"),
                  flags=re.M)
    short, long = (run_command(tmp_path, "ab-run", re.sub(r"^days *=.*$", f"days = {days}",
                                                          text, flags=re.M))
                   for days in (20, 28))
    logs = sorted(path.name for path in short.glob("impressions_*.csv"))
    assert logs == ["impressions_A.csv", "impressions_B.csv"]
    for name in logs:
        head = (short / name).read_bytes()
        assert len(head.splitlines()) == 20 * 3000 + 1
        assert (long / name).read_bytes().startswith(head), name
