"""Run-configuration files: INI sections with a documented schema.

Every config carries ``[config] schema_version`` and ``command``; the
remaining sections depend on the command.  See the annotated files under
``gspbias/configs/`` for the full schema.  Validation failures raise
ConfigError with the dotted path of the offending field.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

from .engine import AbConfig, AdSpec, BucketSpec, Context, CpcStudyConfig
from .errors import ConfigError, InvalidValue, RepeatedContext
from .oracle import ScoreDistribution

SCHEMA_VERSION = 1
COMMANDS = ("simulate-cpc", "verify-theorems", "ab-run")


@dataclass(frozen=True)
class CpcSetting:
    name: str
    impressions: tuple[int, ...]
    true_ctrs: tuple[float, ...]


@dataclass(frozen=True)
class CpcSuite:
    settings: tuple[CpcSetting, ...]
    bids: tuple[float, ...]
    trials: int
    cpc_hist_width: float
    score_hist_width: float


@dataclass(frozen=True)
class TheoremCase:
    name: str
    dist_specs: tuple[str, ...]

    def distributions(self) -> list[ScoreDistribution]:
        return [parse_distribution(spec) for spec in self.dist_specs]


@dataclass(frozen=True)
class TheoremSuite:
    cases: tuple[TheoremCase, ...]
    mc_draws: int


@dataclass(frozen=True)
class LoadedConfig:
    command: str
    seed: int | None
    payload: CpcSuite | TheoremSuite | AbConfig
    source: str


def parse_distribution(spec: str) -> ScoreDistribution:
    """Parse ``uniform:LOW:HIGH`` or ``beta:A:B[:SCALE]`` into a distribution."""
    parts = [p.strip() for p in spec.split(":")]
    kind = parts[0].lower()
    try:
        if kind == "uniform" and len(parts) == 3:
            return ScoreDistribution.uniform(float(parts[1]), float(parts[2]))
        if kind == "beta" and len(parts) in (3, 4):
            scale = float(parts[3]) if len(parts) == 4 else 1.0
            return ScoreDistribution.scaled_beta(float(parts[1]), float(parts[2]), scale)
    except ValueError as exc:
        raise ConfigError("dists", f"bad distribution {spec!r}: {exc}") from exc
    raise ConfigError("dists", f"unrecognized distribution spec {spec!r}")


class _Section:
    """Typed accessors over one INI section, raising ConfigError with paths."""

    def __init__(self, name: str, values: configparser.SectionProxy):
        self.name = name
        self.values = values

    def _raw(self, key: str, default=None):
        if key in self.values:
            return self.values[key]
        if default is not None:
            return default
        raise ConfigError(f"{self.name}.{key}", "missing required field")

    def get_int(self, key: str, default=None, minimum: int | None = None) -> int:
        raw = self._raw(key, default)
        try:
            value = int(str(raw))
        except ValueError:
            raise ConfigError(f"{self.name}.{key}", f"expected integer, got {raw!r}") from None
        if minimum is not None and value < minimum:
            raise ConfigError(f"{self.name}.{key}", f"must be >= {minimum}, got {value}")
        return value

    def get_float(self, key: str, default=None) -> float:
        raw = self._raw(key, default)
        try:
            return float(str(raw))
        except ValueError:
            raise ConfigError(f"{self.name}.{key}", f"expected number, got {raw!r}") from None

    def get_floats(self, key: str, default=None) -> tuple[float, ...]:
        raw = self._raw(key, default)
        try:
            return tuple(float(tok) for tok in str(raw).split(",") if tok.strip())
        except ValueError:
            raise ConfigError(f"{self.name}.{key}", f"expected number list, got {raw!r}") from None

    def get_str(self, key: str, default=None, choices: tuple[str, ...] | None = None) -> str:
        value = str(self._raw(key, default)).strip()
        if choices is not None and value not in choices:
            raise ConfigError(f"{self.name}.{key}", f"must be one of {choices}, got {value!r}")
        return value

    def get_strs(self, key: str) -> tuple[str, ...]:
        return tuple(tok.strip() for tok in str(self._raw(key)).split(",") if tok.strip())


def _sections(parser: configparser.ConfigParser, prefix: str) -> list[_Section]:
    return [_Section(name, parser[name]) for name in parser.sections()
            if name.startswith(prefix + ".")]


def load_config(path: str | Path) -> LoadedConfig:
    """Read and validate one configuration file."""
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    with open(path, "r", encoding="utf-8") as fh:  # OSError propagates: I/O failure
        try:
            parser.read_file(fh)
        except configparser.Error as exc:
            raise OSError(f"cannot parse {path}: {exc}") from exc
    if "config" not in parser:
        raise ConfigError("config", "missing [config] section")
    meta = _Section("config", parser["config"])
    version = meta.get_int("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError("config.schema_version",
                          f"expected {SCHEMA_VERSION}, got {version}")
    command = meta.get_str("command", choices=COMMANDS)
    if command == "simulate-cpc":
        payload, seed = _load_cpc(parser)
    elif command == "verify-theorems":
        payload, seed = _load_theorems(parser)
    else:
        payload, seed = _load_ab(parser)
    return LoadedConfig(command=command, seed=seed, payload=payload, source=str(path))


def _seed_of(section: _Section) -> int | None:
    if "seed" in section.values:
        return section.get_int("seed", minimum=0)
    return None


def _load_cpc(parser) -> tuple[CpcSuite, int | None]:
    if "study" not in parser:
        raise ConfigError("study", "missing [study] section")
    study = _Section("study", parser["study"])
    trials = study.get_int("trials", minimum=1)
    bids = study.get_floats("bids", default="1.0")
    settings = []
    for sec in _sections(parser, "setting"):
        name = sec.name.split(".", 1)[1]
        ctrs = sec.get_floats("true_ctrs")
        if not ctrs:
            raise ConfigError(f"{sec.name}.true_ctrs", "at least one CTR required")
        if any(not 0.0 < c <= 1.0 for c in ctrs):
            # a zero CTR leaves its bias factor and the expected CPC undefined
            raise ConfigError(f"{sec.name}.true_ctrs", f"CTRs must lie in (0, 1], got {ctrs}")
        counts = sec.get_floats("impressions")
        if not all(n.is_integer() for n in counts):  # also rejects nan and inf
            raise ConfigError(f"{sec.name}.impressions", f"must be whole numbers, got {counts}")
        imps = tuple(int(n) for n in counts)
        if len(imps) == 1:
            imps = imps * len(ctrs)
        if len(imps) != len(ctrs):
            raise ConfigError(f"{sec.name}.impressions",
                              f"need 1 or {len(ctrs)} values, got {len(imps)}")
        settings.append(CpcSetting(name=name, impressions=imps, true_ctrs=ctrs))
    if not settings:
        raise ConfigError("setting", "at least one [setting.NAME] section required")
    n_ads = len(settings[0].true_ctrs)
    if any(len(s.true_ctrs) != n_ads for s in settings):
        raise ConfigError("setting", "all settings must have the same ad count")
    suite_bids = bids * n_ads if len(bids) == 1 else bids
    if len(suite_bids) != n_ads:
        raise ConfigError("study.bids", f"need 1 or {n_ads} values, got {len(bids)}")
    for idx, s in enumerate(settings):
        try:  # the study's own rules, with the CLI's trials and seed left aside
            CpcStudyConfig(name=s.name, impressions=s.impressions, true_ctrs=s.true_ctrs,
                           bids=suite_bids, trials=trials, seed=0, setting_index=idx)
        except InvalidValue as exc:
            section = "study" if exc.field in ("bids", "trials") else f"setting.{s.name}"
            raise ConfigError(f"{section}.{exc.field}", str(exc)) from exc
    cpc_width = study.get_float("cpc_hist_width", default="0.01")
    score_width = study.get_float("score_hist_width", default="0.0005")
    for key, width in (("cpc_hist_width", cpc_width), ("score_hist_width", score_width)):
        if not width > 0:
            raise ConfigError(f"study.{key}", f"must be > 0, got {width}")
    suite = CpcSuite(settings=tuple(settings), bids=suite_bids, trials=trials,
                     cpc_hist_width=cpc_width, score_hist_width=score_width)
    return suite, _seed_of(study)


def _load_theorems(parser) -> tuple[TheoremSuite, int | None]:
    if "verify" not in parser:
        raise ConfigError("verify", "missing [verify] section")
    verify = _Section("verify", parser["verify"])
    cases = []
    for sec in _sections(parser, "case"):
        name = sec.name.split(".", 1)[1]
        specs = sec.get_strs("dists")
        if not specs:
            raise ConfigError(f"{sec.name}.dists", "at least one distribution required")
        for spec in specs:
            parse_distribution(spec)  # validate eagerly for a good error path
        cases.append(TheoremCase(name=name, dist_specs=specs))
    if not cases:
        raise ConfigError("case", "at least one [case.NAME] section required")
    suite = TheoremSuite(cases=tuple(cases),
                         mc_draws=verify.get_int("mc_draws", default="1000000", minimum=1))
    return suite, _seed_of(verify)


def _load_ab(parser) -> tuple[AbConfig, int | None]:
    if "experiment" not in parser:
        raise ConfigError("experiment", "missing [experiment] section")
    exp = _Section("experiment", parser["experiment"])
    days = exp.get_int("days", minimum=1)
    buckets = []
    for sec in _sections(parser, "bucket"):
        name = sec.name.split(".", 1)[1]
        buckets.append(BucketSpec(name=name,
                                  estimator=sec.get_str("estimator", choices=("naive", "pooled"))))
    if len(buckets) != 2:
        raise ConfigError("bucket", f"exactly two [bucket.NAME] sections required, got {len(buckets)}")
    context_sections = _sections(parser, "context")
    contexts = []
    for sec in context_sections:
        try:
            contexts.append(Context(site=sec.get_int("site"), pos=sec.get_int("pos"),
                                    multiplier=sec.get_float("multiplier")))
        except InvalidValue as exc:
            raise ConfigError(f"{sec.name}.{exc.field}", str(exc)) from exc
    if not contexts:
        raise ConfigError("context", "at least one [context.N] section required")
    ads = []
    for sec in _sections(parser, "ad"):
        try:
            ad_id = int(sec.name.split(".", 1)[1])
        except ValueError:
            raise ConfigError(sec.name, "ad section suffix must be the integer ad id") from None
        try:
            ads.append(AdSpec(id=ad_id, bid=sec.get_float("bid"),
                              base_ctr=sec.get_float("base_ctr")))
        except InvalidValue as exc:
            raise ConfigError(f"{sec.name}.{exc.field}", str(exc)) from exc
    if not ads:
        raise ConfigError("ad", "at least one [ad.N] section required")
    try:
        config = AbConfig(
            ads=tuple(ads),
            contexts=tuple(contexts),
            buckets=tuple(buckets),
            days=days,
            traffic_per_day=exp.get_int("traffic_per_day", minimum=1),
            epsilon=exp.get_float("epsilon"),
            window_days=exp.get_int("window_days", default="14", minimum=1),
            burn_in_days=exp.get_int("burn_in_days", default=str(days // 2), minimum=0),
            seed=0,  # engine seed is injected by the CLI after resolution
        )
    except RepeatedContext as exc:
        raise ConfigError(context_sections[exc.index].name, str(exc)) from exc
    except ValueError as exc:
        raise ConfigError("experiment", str(exc)) from exc
    return config, _seed_of(exp)


def config_dict(loaded: LoadedConfig, seed: int) -> dict:
    """JSON-ready view of a resolved configuration, for the run manifest."""
    payload = loaded.payload
    out: dict = {"command": loaded.command, "seed": seed, "source": loaded.source}
    if isinstance(payload, CpcSuite):
        out["study"] = {
            "trials": payload.trials,
            "bids": list(payload.bids),
            "cpc_hist_width": payload.cpc_hist_width,
            "score_hist_width": payload.score_hist_width,
            "settings": [{"name": s.name, "impressions": list(s.impressions),
                          "true_ctrs": list(s.true_ctrs)} for s in payload.settings],
        }
    elif isinstance(payload, TheoremSuite):
        out["verify"] = {
            "mc_draws": payload.mc_draws,
            "cases": [{"name": c.name, "dists": list(c.dist_specs)} for c in payload.cases],
        }
    else:
        out["experiment"] = {
            "days": payload.days,
            "traffic_per_day": payload.traffic_per_day,
            "epsilon": payload.epsilon,
            "window_days": payload.window_days,
            "burn_in_days": payload.burn_in_days,
            "buckets": [{"name": b.name, "estimator": b.estimator} for b in payload.buckets],
            "contexts": [{"site": c.site, "pos": c.pos, "multiplier": c.multiplier}
                         for c in payload.contexts],
            "ads": [{"id": a.id, "bid": a.bid, "base_ctr": a.base_ctr} for a in payload.ads],
        }
    return out
