"""Scenario configuration: one YAML tree drives every CLI subcommand.

Unknown keys are rejected at every level with the full dotted path (silent
typos are the main failure mode of experiment configs), and invalid values
are reported with their field path, e.g. ``fl.optimizer.lr``.

Schema (defaults in parentheses; exactly one of population/ingest):

    seed: 0                     master seed; every random stream derives from it
    output_dir: out
    population:                 synthetic data
      n_clients, archetypes, heterogeneity (0.0), days (28), feeders (1),
      der_mix ({fixed_load: 1.0}), ar_coeff (0.7), noise_scale (0.08),
      seed (master; setting it pins the data across --seeds),
      changepoint: {day, magnitude}
    ingest:                     external smart-meter CSV
      path, forward_fill (false),
      columns: {timestamp, client_id, value_kw}, covariates: {name: column}
    model:
      kind (linear), lag (24), horizon (1), hidden (16; mlp only)
    fl:
      rounds (50), local_epochs (1), batch_size (0 = full), participation (1.0),
      early_stop_patience (0 = off), eval_every (10),
      optimizer: {kind (sgd), lr (0.1), beta (0.9; momentum only)}
    dp:                         optional; absent = privacy disabled
      clip_norm (.inf), sigma (0.0)
    cluster:
      mode (global), tau (0.0), warmup (5), k (0), recluster_every (0)
    personalization:
      epochs (5), lr_scale (0.1)
    methods: [all eight]
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import yaml

from .data import CsvSchema, load_csv
from .errors import ConfigError, IoError
from .fedcore import ClusterConfig, FLConfig
from .optim import OptimizerConfig
from .population import PopulationSpec, ShiftChangepoint, generate_population
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


@dataclass(frozen=True)
class ModelSettings:
    kind: str = "linear"
    lag: int = 24
    horizon: int = 1
    hidden: int = 16


@dataclass(frozen=True)
class IngestSettings:
    path: str
    forward_fill: bool = False
    schema: CsvSchema = field(default_factory=CsvSchema)


@dataclass(frozen=True)
class PersonalizationConfig:
    epochs: int = 5
    lr_scale: float = 0.1


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

    def cluster_for(self, base_method: str) -> ClusterConfig:
        """ClusterConfig for one federated method (mode forced to match)."""
        return replace(self.cluster, mode=METHODS[base_method])


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


def _check_mapping(raw, path: str) -> dict:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(raw).__name__}")
    return raw


def _reject_unknown(raw: dict, path: str, allowed) -> None:
    for key in raw:
        if key not in allowed:
            where = f"{path}.{key}" if path else str(key)
            raise ConfigError(f"unknown config key {where!r}")


def _get_num(raw: dict, key: str, path: str, default, kind=float):
    value = raw.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number, got {value!r}")
    if kind is int:
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"{path}.{key}: expected an integer, got {value!r}")
        return int(value)
    return float(value)


def _get_str(raw: dict, key: str, path: str, default):
    value = raw.get(key, default)
    if not isinstance(value, str):
        raise ConfigError(f"{path}.{key}: expected a string, got {value!r}")
    return value


def _get_bool(raw: dict, key: str, path: str, default):
    value = raw.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{path}.{key}: expected a boolean, got {value!r}")
    return value


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{path}: {message}")


def _parse_population(raw: dict, master_seed: int) -> tuple[PopulationSpec, bool]:
    path = "population"
    allowed = {
        "n_clients", "archetypes", "heterogeneity", "days", "feeders",
        "der_mix", "ar_coeff", "noise_scale", "seed", "changepoint",
    }
    _reject_unknown(raw, path, allowed)
    pinned = "seed" in raw
    changepoint = None
    if raw.get("changepoint") is not None:
        cp = _check_mapping(raw["changepoint"], f"{path}.changepoint")
        _reject_unknown(cp, f"{path}.changepoint", {"day", "magnitude"})
        changepoint = ShiftChangepoint(
            day=_get_num(cp, "day", f"{path}.changepoint", 0, int),
            magnitude=_get_num(cp, "magnitude", f"{path}.changepoint", 0.0),
        )
    der_mix = raw.get("der_mix", {"fixed_load": 1.0})
    der_mix = _check_mapping(der_mix, f"{path}.der_mix")
    _require("n_clients" in raw, f"{path}.n_clients", "required")
    try:
        spec = PopulationSpec(
            n_clients=_get_num(raw, "n_clients", path, None, int),
            archetypes=_get_num(raw, "archetypes", path, 1, int),
            heterogeneity=_get_num(raw, "heterogeneity", path, 0.0),
            days=_get_num(raw, "days", path, 28, int),
            der_mix=der_mix,
            feeders=_get_num(raw, "feeders", path, 1, int),
            changepoint=changepoint,
            seed=_get_num(raw, "seed", path, master_seed, int),
            ar_coeff=_get_num(raw, "ar_coeff", path, 0.7),
            noise_scale=_get_num(raw, "noise_scale", path, 0.08),
        )
    except ConfigError as exc:
        if str(exc).startswith(path):
            raise
        raise ConfigError(f"{path}: {exc}") from None
    return spec, pinned


def _parse_ingest(raw: dict) -> IngestSettings:
    path = "ingest"
    _reject_unknown(raw, path, {"path", "forward_fill", "columns", "covariates"})
    _require("path" in raw, f"{path}.path", "required")
    columns = _check_mapping(raw.get("columns"), f"{path}.columns")
    _reject_unknown(columns, f"{path}.columns", {"timestamp", "client_id", "value_kw"})
    covariates = _check_mapping(raw.get("covariates"), f"{path}.covariates")
    for name, column in covariates.items():
        if not isinstance(column, str):
            raise ConfigError(f"{path}.covariates.{name}: expected a column name")
    schema = CsvSchema(
        timestamp=_get_str(columns, "timestamp", f"{path}.columns", "timestamp"),
        client_id=_get_str(columns, "client_id", f"{path}.columns", "client_id"),
        value_kw=_get_str(columns, "value_kw", f"{path}.columns", "value_kw"),
        covariates=dict(covariates),
    )
    return IngestSettings(
        path=_get_str(raw, "path", path, None),
        forward_fill=_get_bool(raw, "forward_fill", path, False),
        schema=schema,
    )


def _parse_model(raw: dict) -> ModelSettings:
    path = "model"
    _reject_unknown(raw, path, {"kind", "lag", "horizon", "hidden"})
    kind = _get_str(raw, "kind", path, "linear")
    _require(kind in ("linear", "mlp"), f"{path}.kind", f"unknown kind {kind!r}")
    lag = _get_num(raw, "lag", path, 24, int)
    _require(lag >= 1, f"{path}.lag", "must be >= 1")
    horizon = _get_num(raw, "horizon", path, 1, int)
    _require(horizon >= 1, f"{path}.horizon", "must be >= 1")
    hidden = _get_num(raw, "hidden", path, 16, int)
    if kind == "mlp":
        _require(hidden >= 1, f"{path}.hidden", "must be >= 1 for mlp")
    return ModelSettings(kind=kind, lag=lag, horizon=horizon, hidden=hidden)


def _parse_optimizer(raw: dict) -> OptimizerConfig:
    path = "fl.optimizer"
    _reject_unknown(raw, path, {"kind", "lr", "beta"})
    kind = _get_str(raw, "kind", path, "sgd")
    _require(kind in ("sgd", "momentum"), f"{path}.kind", f"unknown kind {kind!r}")
    lr = _get_num(raw, "lr", path, 0.1)
    _require(lr > 0, f"{path}.lr", "must be > 0")
    beta = _get_num(raw, "beta", path, 0.9)
    _require(0.0 <= beta < 1.0, f"{path}.beta", "must be in [0,1)")
    return OptimizerConfig(kind=kind, lr=lr, beta=beta)


def _parse_fl(raw: dict, master_seed: int, dp: DpConfig | None) -> FLConfig:
    path = "fl"
    allowed = {
        "rounds", "local_epochs", "batch_size", "participation",
        "early_stop_patience", "eval_every", "optimizer",
    }
    _reject_unknown(raw, path, allowed)
    rounds = _get_num(raw, "rounds", path, 50, int)
    _require(rounds >= 1, f"{path}.rounds", "must be >= 1")
    local_epochs = _get_num(raw, "local_epochs", path, 1, int)
    _require(local_epochs >= 0, f"{path}.local_epochs", "must be >= 0")
    batch_size = _get_num(raw, "batch_size", path, 0, int)
    _require(batch_size >= 0, f"{path}.batch_size", "must be >= 0")
    participation = _get_num(raw, "participation", path, 1.0)
    _require(0.0 < participation <= 1.0, f"{path}.participation", "must be in (0,1]")
    patience = _get_num(raw, "early_stop_patience", path, 0, int)
    _require(patience >= 0, f"{path}.early_stop_patience", "must be >= 0")
    eval_every = _get_num(raw, "eval_every", path, 10, int)
    _require(eval_every >= 0, f"{path}.eval_every", "must be >= 0")
    optimizer = _parse_optimizer(_check_mapping(raw.get("optimizer"), "fl.optimizer"))
    return FLConfig(
        rounds=rounds,
        local_epochs=local_epochs,
        batch_size=batch_size,
        participation=participation,
        optimizer=optimizer,
        early_stop_patience=patience,
        seed=master_seed,
        dp=dp,
        eval_every=eval_every,
    )


def _parse_dp(raw: dict) -> DpConfig:
    path = "dp"
    _reject_unknown(raw, path, {"clip_norm", "sigma"})
    clip_norm = _get_num(raw, "clip_norm", path, math.inf)
    _require(clip_norm > 0, f"{path}.clip_norm", "must be > 0")
    sigma = _get_num(raw, "sigma", path, 0.0)
    _require(sigma >= 0, f"{path}.sigma", "must be >= 0")
    _require(
        sigma == 0 or math.isfinite(clip_norm),
        f"{path}.clip_norm",
        "must be finite when sigma > 0 (noise stddev is sigma * clip_norm)",
    )
    return DpConfig(clip_norm=clip_norm, sigma=sigma)


def _parse_cluster(raw: dict, methods: tuple[str, ...]) -> ClusterConfig:
    path = "cluster"
    _reject_unknown(raw, path, {"mode", "tau", "warmup", "k", "recluster_every"})
    mode = _get_str(raw, "mode", path, "global")
    _require(mode in ("global", "hc", "ifca"), f"{path}.mode", f"unknown mode {mode!r}")
    tau = _get_num(raw, "tau", path, 0.0)
    warmup = _get_num(raw, "warmup", path, 5, int)
    k = _get_num(raw, "k", path, 0, int)
    recluster = _get_num(raw, "recluster_every", path, 0, int)
    _require(recluster >= 0, f"{path}.recluster_every", "must be >= 0")
    if mode == "hc":
        _require(tau > 0, f"{path}.tau", "must be > 0 when hc is used")
        _require(warmup >= 1, f"{path}.warmup", "must be >= 1 when hc is used")
    if mode == "ifca":
        _require(k >= 1, f"{path}.k", "must be >= 1 when ifca is used")
    # Methods merely defaulted to the full set are validated when they run,
    # so a minimal config stays valid; explicitly requested clustered
    # methods go through require_cluster_settings before training starts.
    _require(tau >= 0, f"{path}.tau", "must be >= 0")
    _require(warmup >= 0, f"{path}.warmup", "must be >= 0")
    _require(k >= 0, f"{path}.k", "must be >= 0")
    return ClusterConfig(mode=mode, tau=tau, warmup=warmup, k=k, recluster_every=recluster)


def require_cluster_settings(cluster: ClusterConfig, methods: Sequence[str]) -> None:
    """Fail fast before training when requested methods lack cluster knobs."""
    if any(m.startswith("hc") for m in methods):
        if not cluster.tau > 0:
            raise ConfigError("cluster.tau: must be > 0 when hc is used")
        if cluster.warmup < 1:
            raise ConfigError("cluster.warmup: must be >= 1 when hc is used")
    if any(m.startswith("ifca") for m in methods) and cluster.k < 1:
        raise ConfigError("cluster.k: must be >= 1 when ifca is used")


def _parse_personalization(raw: dict) -> PersonalizationConfig:
    path = "personalization"
    _reject_unknown(raw, path, {"epochs", "lr_scale"})
    epochs = _get_num(raw, "epochs", path, 5, int)
    _require(epochs >= 0, f"{path}.epochs", "must be >= 0")
    lr_scale = _get_num(raw, "lr_scale", path, 0.1)
    _require(lr_scale > 0, f"{path}.lr_scale", "must be > 0")
    return PersonalizationConfig(epochs=epochs, lr_scale=lr_scale)


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
    tree = _check_mapping(tree, "top level")
    allowed = {
        "seed", "output_dir", "population", "ingest", "model", "fl",
        "dp", "cluster", "personalization", "methods",
    }
    _reject_unknown(tree, "", allowed)
    seed = _get_num(tree, "seed", "top-level", 0, int)
    _require(seed >= 0, "seed", "must be >= 0")
    output_dir = _get_str(tree, "output_dir", "top-level", "out")
    _require(bool(output_dir), "output_dir", "must be nonempty")

    has_population = tree.get("population") is not None
    has_ingest = tree.get("ingest") is not None
    if has_population == has_ingest:
        raise ConfigError("exactly one of 'population' or 'ingest' must be configured")
    population, pinned = (None, False)
    ingest = None
    if has_population:
        population, pinned = _parse_population(
            _check_mapping(tree["population"], "population"), seed
        )
    else:
        ingest = _parse_ingest(_check_mapping(tree["ingest"], "ingest"))

    methods = _parse_methods(tree.get("methods"))
    dp = _parse_dp(_check_mapping(tree["dp"], "dp")) if tree.get("dp") is not None else None
    model = _parse_model(_check_mapping(tree.get("model"), "model"))
    fl = _parse_fl(_check_mapping(tree.get("fl"), "fl"), seed, dp)
    cluster = _parse_cluster(_check_mapping(tree.get("cluster"), "cluster"), methods)
    personalization = _parse_personalization(
        _check_mapping(tree.get("personalization"), "personalization")
    )
    return ScenarioConfig(
        seed=seed,
        output_dir=output_dir,
        population=population,
        ingest=ingest,
        model=model,
        fl=fl,
        cluster=cluster,
        personalization=personalization,
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
