"""Run-configuration files: INI sections with a documented schema.

Every config carries ``[config] schema_version`` and ``command``; the
remaining sections depend on the command.  See the annotated files under
``gspbias/configs/`` for the full schema.  Validation failures raise
ConfigError with the dotted path of the offending field.
"""

from __future__ import annotations

import configparser
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .engine import AbConfig, AdSpec, BucketSpec, Context, CpcStudyConfig
from .errors import ConfigError, InvalidValue, RepeatedContext
from .oracle import ScoreDistribution

SCHEMA_VERSION = 1
COMMANDS = ("simulate-cpc", "verify-theorems", "ab-run")


@dataclass(frozen=True)
class CpcSuite:
    # one study per [setting.NAME], with the file's trials and seed 0; the
    # CLI replaces both
    settings: tuple[CpcStudyConfig, ...]
    cpc_hist_width: float
    score_hist_width: float


@dataclass(frozen=True)
class TheoremCase:
    name: str
    dist_specs: tuple[str, ...]
    dists: tuple[ScoreDistribution, ...]  # one per ad


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


def parse_distribution(spec: str, field: str) -> ScoreDistribution:
    """Parse ``uniform:LOW:HIGH`` or ``beta:A:B[:SCALE]`` into a distribution;
    a bad spec raises ConfigError on ``field``."""
    parts = [p.strip() for p in spec.split(":")]
    kind = parts[0].lower()
    try:
        if kind == "uniform" and len(parts) == 3:
            return ScoreDistribution.uniform(float(parts[1]), float(parts[2]))
        if kind == "beta" and len(parts) in (3, 4):
            scale = float(parts[3]) if len(parts) == 4 else 1.0
            return ScoreDistribution.scaled_beta(float(parts[1]), float(parts[2]), scale)
    except ValueError as exc:
        raise ConfigError(field, f"bad distribution {spec!r}: {exc}") from exc
    raise ConfigError(field, f"unrecognized distribution spec {spec!r}")


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


@contextmanager
def _fields_of(section: str, **owners: str):
    """An InvalidValue raised in the block, as a ConfigError on
    ``<section>.<field>``, or on ``<owners[field]>.<field>`` for a field
    read from another section."""
    try:
        yield
    except InvalidValue as exc:
        raise ConfigError(f"{owners.get(exc.field, section)}.{exc.field}", str(exc)) from exc


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
    trials = study.get_int("trials")
    bids = study.get_floats("bids", default="1.0")
    settings = []
    for idx, sec in enumerate(_sections(parser, "setting")):
        ctrs = sec.get_floats("true_ctrs")
        counts = sec.get_floats("impressions")
        if not all(n.is_integer() for n in counts):  # also rejects nan and inf
            raise ConfigError(f"{sec.name}.impressions", f"must be whole numbers, got {counts}")
        if settings and len(ctrs) != len(settings[0].true_ctrs):
            raise ConfigError("setting", "all settings must have the same ad count")
        with _fields_of(sec.name, bids="study", trials="study"):
            settings.append(CpcStudyConfig(
                name=sec.name.split(".", 1)[1], impressions=tuple(int(n) for n in counts),
                true_ctrs=ctrs, bids=bids, trials=trials, seed=0, setting_index=idx))
    if not settings:
        raise ConfigError("setting", "at least one [setting.NAME] section required")
    cpc_width = study.get_float("cpc_hist_width", default="0.01")
    score_width = study.get_float("score_hist_width", default="0.0005")
    for key, width in (("cpc_hist_width", cpc_width), ("score_hist_width", score_width)):
        if not 0.0 < width < math.inf:
            raise ConfigError(f"study.{key}", f"must be finite and > 0, got {width}")
    suite = CpcSuite(settings=tuple(settings), cpc_hist_width=cpc_width,
                     score_hist_width=score_width)
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
        dists = []
        for spec in specs:
            dist = parse_distribution(spec, f"{sec.name}.dists")
            # Simpson quadrature needs a density that is finite on the closed support
            if dist.kind == "scaled-beta" and min(dist.params[:2]) < 1.0:
                raise ConfigError(f"{sec.name}.dists",
                                  f"beta shapes must be >= 1, got {spec!r}")
            dists.append(dist)
        cases.append(TheoremCase(name=name, dist_specs=specs, dists=tuple(dists)))
    if not cases:
        raise ConfigError("case", "at least one [case.NAME] section required")
    suite = TheoremSuite(cases=tuple(cases),
                         mc_draws=verify.get_int("mc_draws", default="1000000", minimum=1))
    return suite, _seed_of(verify)


def _load_ab(parser) -> tuple[AbConfig, int | None]:
    if "experiment" not in parser:
        raise ConfigError("experiment", "missing [experiment] section")
    exp = _Section("experiment", parser["experiment"])
    days = exp.get_int("days")
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
        with _fields_of(sec.name):
            contexts.append(Context(site=sec.get_int("site"), pos=sec.get_int("pos"),
                                    multiplier=sec.get_float("multiplier")))
    if not contexts:
        raise ConfigError("context", "at least one [context.N] section required")
    ads = []
    sections = {}  # ad id -> the section that first gave it
    for sec in _sections(parser, "ad"):
        try:
            ad_id = int(sec.name.split(".", 1)[1])
        except ValueError:
            raise ConfigError(sec.name, "ad section suffix must be the integer ad id") from None
        if sections.setdefault(ad_id, sec.name) != sec.name:
            raise ConfigError(sec.name, f"ad id {ad_id} repeats [{sections[ad_id]}]")
        with _fields_of(sec.name):
            ads.append(AdSpec(id=ad_id, bid=sec.get_float("bid"),
                              base_ctr=sec.get_float("base_ctr")))
    if not ads:
        raise ConfigError("ad", "at least one [ad.N] section required")
    try:
        with _fields_of("experiment"):
            config = AbConfig(
                ads=tuple(ads),
                contexts=tuple(contexts),
                buckets=tuple(buckets),
                days=days,
                traffic_per_day=exp.get_int("traffic_per_day"),
                epsilon=exp.get_float("epsilon"),
                window_days=exp.get_int("window_days", default="14"),
                burn_in_days=exp.get_int("burn_in_days", default=str(days // 2)),
                seed=0,  # engine seed is injected by the CLI after resolution
            )
    except RepeatedContext as exc:
        raise ConfigError(context_sections[exc.index].name, str(exc)) from exc
    except ValueError as exc:
        raise ConfigError("experiment", str(exc)) from exc
    return config, _seed_of(exp)

