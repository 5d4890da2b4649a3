"""Metamorphic relations of verify-theorems: how its report must move when
the config moves by a symmetry of the problem.

- **Power-of-two scale.** Multiplying every support by 2^k is exact in
  floating point, so every score-valued field (quadrature and Monte Carlo
  means, Monte Carlo standard errors, split points) scales by 2^k bit for
  bit, and every other field (rank masses, decomposition residuals, counts,
  sigmas and verdicts) is unchanged.
- **Relabelling.** Reversing a case's ads reverses its candidates'
  quadrature fields.  They are not equal bit for bit, because the rank
  tables fold the rivals in another order, so they are compared within
  1e-12 relative, and no quadrature verdict may move.  The Monte Carlo
  fields are not covered: each ad takes its uniform column by position, so
  reversing the ads gives other draws.
"""

import json

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
