"""Scenario configuration: one YAML tree drives every CLI subcommand.

The schema, with every key and default, is the "Configuration" block of
README.md. Each section is built from its dataclass by one builder: the
section's keys are the dataclass's fields, its defaults the field defaults
and its value types the field annotations. Value rules live only in each
dataclass's ``__post_init__``, whose messages start with the field name, so
the builder can report them with their dotted path, e.g.
``fl.optimizer.lr: must be > 0, got -0.1``. Unknown keys are rejected at
every level with the full dotted path (silent typos are the main failure
mode of experiment configs).
"""

from __future__ import annotations

import collections.abc
import re
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from typing import get_args, get_origin, get_type_hints

import yaml

from .data import CsvSchema, load_csv
from .errors import ConfigError, IoError
from .fedcore import ClusterConfig, FLConfig
from .model import ModelSpec
from .population import PopulationSpec, generate_population
from .privacy import DpConfig

# Every comparable method -> the engine mode it trains in (None: no engine).
# A ``*_personalized`` method fine-tunes its base method's result per client.
METHODS = {
    "local_only": None,
    "centralized": None,
    "fedavg": "global",
    "fedavg_personalized": "global",
    "hc": "hc",
    "hc_personalized": "hc",
    "ifca": "ifca",
    "ifca_personalized": "ifca",
}

# A number with an exponent, such as 1e-3 or 1.5e1: YAML 1.1 reads these as
# strings when the mantissa has no dot or the exponent no sign.
EXPONENT_NUMBER = re.compile(r"[-+]?[0-9]+(\.[0-9]*)?[eE][-+]?[0-9]+")

TOP_LEVEL_KEYS = (
    "seed", "output_dir", "population", "ingest", "model", "fl",
    "dp", "cluster", "personalization", "methods",
)


@dataclass(frozen=True)
class ModelSettings:
    kind: str = "linear"
    lag: int = 24
    horizon: int = 1
    hidden: int = 16

    def __post_init__(self) -> None:
        if not self.lag >= 1:
            raise ConfigError(f"lag: must be >= 1, got {self.lag}")
        self.spec(0)

    def spec(self, n_covariates: int) -> ModelSpec:
        """The model over ``lag`` past values plus ``n_covariates``
        covariates. ModelSpec holds the rules on kind, horizon and hidden
        size; its errors are reported under their YAML keys."""
        try:
            return ModelSpec(
                self.kind,
                self.lag + n_covariates,
                self.horizon,
                self.hidden if self.kind == "mlp" else 0,
            )
        except ConfigError as exc:
            raise ConfigError(str(exc).replace("hidden_dim:", "hidden:", 1)) from None


@dataclass(frozen=True)
class IngestSettings:
    path: str
    forward_fill: bool = False
    schema: CsvSchema = field(default_factory=CsvSchema)


@dataclass(frozen=True)
class PersonalizationConfig:
    epochs: int = 5
    lr_scale: float = 0.1

    def __post_init__(self) -> None:
        if not self.epochs >= 0:
            raise ConfigError(f"epochs: must be >= 0, got {self.epochs}")
        if not self.lr_scale > 0:
            raise ConfigError(f"lr_scale: must be > 0, got {self.lr_scale}")


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    output_dir: str
    population: PopulationSpec | None
    ingest: IngestSettings | None
    model: ModelSettings
    fl: FLConfig
    cluster: ClusterConfig
    personalization: PersonalizationConfig
    methods: tuple[str, ...]
    population_seed_pinned: bool = False

    def cluster_for(self, method: str) -> ClusterConfig:
        """ClusterConfig for one federated method (mode forced to match)."""
        try:
            return replace(self.cluster, mode=METHODS[method])
        except ConfigError as exc:
            raise ConfigError(f"cluster.{exc}") from None


def with_seed(scenario: ScenarioConfig, seed: int) -> ScenarioConfig:
    """Re-seed a scenario: training streams always follow; the population
    follows too unless its seed was pinned explicitly in the config."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    population = scenario.population
    if population is not None and not scenario.population_seed_pinned:
        population = replace(population, seed=seed)
    return replace(
        scenario,
        seed=seed,
        population=population,
        fl=replace(scenario.fl, seed=seed),
    )


def load_datasets(scenario: ScenarioConfig):
    """Materialize the scenario's client datasets (generate or ingest)."""
    if scenario.population is not None:
        return generate_population(scenario.population)
    ingest = scenario.ingest
    return load_csv(ingest.path, ingest.schema, ingest.forward_fill)


# ---- strict tree walking ----------------------------------------------------


def _mapping(raw, path: str) -> dict:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(raw).__name__}")
    return raw


def _reject_unknown(raw: dict, path: str, allowed) -> None:
    for key in raw:
        if key not in allowed:
            where = f"{path}.{key}" if path else str(key)
            raise ConfigError(
                f"unknown config key {where!r}; expected one of {tuple(allowed)}"
            )


def _value(value, hint, path: str):
    """``value`` checked against the annotation ``hint``: a number (never a
    bool; an int must be integral; a string matching EXPONENT_NUMBER is read
    as one), a string, a bool, a mapping of such values, or a nested
    dataclass; ``X | None`` also takes None."""
    options = get_args(hint)
    if type(None) in options:
        if value is None:
            return None
        (hint,) = [option for option in options if option is not type(None)]
    if is_dataclass(hint):
        return _build(hint, value, path)
    if get_origin(hint) is collections.abc.Mapping:
        return {
            key: _value(item, options[1], f"{path}.{key}")
            for key, item in _mapping(value, path).items()
        }
    if hint in (int, float):
        if isinstance(value, str) and EXPONENT_NUMBER.fullmatch(value):
            value = float(value)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        if hint is int and isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return hint(value)
    if not isinstance(value, hint):
        raise ConfigError(f"{path}: expected a {hint.__name__}, got {value!r}")
    return value


def _build(cls, raw, path: str, extra=(), **given):
    """``cls`` from the YAML mapping ``raw`` found at ``path``.

    The accepted keys are cls's fields minus the ``given`` ones, which the
    caller supplies, plus ``extra`` keys the caller reads itself. Absent keys
    take the field default. A rule of cls failing reports its field's path.
    """
    raw = _mapping(raw, path)
    keys = [f for f in fields(cls) if f.name not in given]
    _reject_unknown(raw, path, [f.name for f in keys] + list(extra))
    hints = get_type_hints(cls)
    for f in keys:
        if f.name in raw:
            given[f.name] = _value(raw[f.name], hints[f.name], f"{path}.{f.name}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{path}.{f.name}: required")
    try:
        return cls(**given)
    except ConfigError as exc:
        raise ConfigError(f"{path}.{exc}") from None


def _ingest(raw) -> IngestSettings:
    raw = _mapping(raw, "ingest")
    covariates = _value(
        raw.get("covariates"), get_type_hints(CsvSchema)["covariates"], "ingest.covariates"
    )
    schema = _build(CsvSchema, raw.get("columns"), "ingest.columns", covariates=covariates)
    return _build(IngestSettings, raw, "ingest", extra=("columns", "covariates"), schema=schema)


def _parse_methods(raw) -> tuple[str, ...]:
    if raw is None:
        return tuple(METHODS)
    if not isinstance(raw, list) or not raw:
        raise ConfigError("methods: expected a nonempty list")
    for m in raw:
        if m not in METHODS:
            raise ConfigError(
                f"methods: unknown method {m!r}; expected from {tuple(METHODS)}"
            )
    if len(set(raw)) != len(raw):
        raise ConfigError("methods: duplicates not allowed")
    return tuple(raw)


def scenario_from_tree(tree: dict) -> ScenarioConfig:
    """Validate a parsed YAML tree into a ScenarioConfig."""
    tree = _mapping(tree, "top level")
    _reject_unknown(tree, "", TOP_LEVEL_KEYS)
    seed = _value(tree.get("seed", 0), int, "seed")
    if seed < 0:
        raise ConfigError(f"seed: must be >= 0, got {seed}")
    output_dir = _value(tree.get("output_dir", "out"), str, "output_dir")
    if not output_dir:
        raise ConfigError("output_dir: must be nonempty")

    has_population = tree.get("population") is not None
    if has_population == (tree.get("ingest") is not None):
        raise ConfigError("exactly one of 'population' or 'ingest' must be configured")
    population, pinned, ingest = None, False, None
    if has_population:
        raw = _mapping(tree["population"], "population")
        pinned = "seed" in raw
        population = _build(PopulationSpec, {"seed": seed, **raw}, "population")
    else:
        ingest = _ingest(tree["ingest"])

    methods = _parse_methods(tree.get("methods"))
    dp = _build(DpConfig, tree["dp"], "dp") if tree.get("dp") is not None else None
    return ScenarioConfig(
        seed=seed,
        output_dir=output_dir,
        population=population,
        ingest=ingest,
        model=_build(ModelSettings, tree.get("model"), "model"),
        fl=_build(FLConfig, tree.get("fl"), "fl", seed=seed, dp=dp),
        cluster=_build(ClusterConfig, tree.get("cluster"), "cluster"),
        personalization=_build(
            PersonalizationConfig, tree.get("personalization"), "personalization"
        ),
        methods=methods,
        population_seed_pinned=pinned,
    )


def load_tree(path: str) -> dict:
    """Read and YAML-parse a config file without validating it."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from None
    try:
        tree = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from None
    return tree if tree is not None else {}


def parse_config(path: str) -> ScenarioConfig:
    return scenario_from_tree(load_tree(path))
