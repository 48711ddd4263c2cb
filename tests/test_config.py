"""Scenario parsing: strict keys, field-path diagnostics, defaults."""

import ast
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

from fedforecast.config import (
    load_datasets,
    parse_config,
    scenario_from_tree,
    with_seed,
)
from fedforecast.errors import ConfigError, IoError
from fedforecast.model import ModelSpec


def minimal_tree(**overrides):
    tree = {
        "seed": 1,
        "output_dir": "out",
        "population": {"n_clients": 3, "archetypes": 1, "days": 8},
    }
    tree.update(overrides)
    return tree


def test_minimal_config_fills_defaults():
    sc = scenario_from_tree(minimal_tree())
    assert sc.model.kind == "linear"
    assert sc.model.lag == 24
    assert sc.model.horizon == 1
    assert sc.fl.rounds == 50
    assert sc.fl.optimizer.kind == "sgd"
    assert sc.fl.dp is None
    assert sc.cluster.mode == "global"
    assert sc.personalization.epochs == 5
    assert len(sc.methods) == 8


def test_typo_key_named_in_error():
    tree = minimal_tree(fl={"leraning_rate": 0.1})
    with pytest.raises(ConfigError) as err:
        scenario_from_tree(tree)
    assert "leraning_rate" in str(err.value)


def test_negative_lr_cites_field_path():
    tree = minimal_tree(fl={"optimizer": {"lr": -0.1}})
    with pytest.raises(ConfigError) as err:
        scenario_from_tree(tree)
    assert "fl.optimizer.lr" in str(err.value)


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError) as err:
        scenario_from_tree(minimal_tree(verbosity=3))
    assert "verbosity" in str(err.value)


def test_unknown_nested_key_includes_path():
    with pytest.raises(ConfigError) as err:
        scenario_from_tree(minimal_tree(population={"n_clients": 3, "foo": 1}))
    assert "population.foo" in str(err.value)


def test_population_or_ingest_exactly_one():
    with pytest.raises(ConfigError):
        scenario_from_tree({"seed": 1, "output_dir": "out"})
    tree = minimal_tree(ingest={"path": "x.csv"})
    with pytest.raises(ConfigError):
        scenario_from_tree(tree)


@pytest.mark.parametrize("mode", ["global", "hc", "ifca", "spiral"])
def test_cluster_mode_is_not_a_key(mode):
    # The method sets the mode, so the file cannot.
    with pytest.raises(ConfigError) as err:
        scenario_from_tree(minimal_tree(cluster={"mode": mode, "tau": 0.5, "k": 2}))
    assert str(err.value).startswith("unknown config key 'cluster.mode'; ")


@pytest.mark.parametrize("population", [{"n_clients": 3}, None], ids=["population", "ingest"])
def test_population_seed_pinned_is_not_a_key(population):
    ingest = None if population else {"path": "x.csv"}
    tree = minimal_tree(population=population, ingest=ingest, population_seed_pinned=True)
    with pytest.raises(ConfigError) as err:
        scenario_from_tree(tree)
    assert str(err.value).startswith("unknown config key 'population_seed_pinned'; ")


def test_top_level_rules_live_in_the_dataclass():
    sc = scenario_from_tree(minimal_tree())
    with pytest.raises(ConfigError, match="^methods: unknown method 'gossip'; "):
        replace(sc, methods=("gossip",))
    with pytest.raises(ConfigError) as err:
        with_seed(sc, -1)
    assert str(err.value) == "seed: must be >= 0, got -1"


@pytest.mark.parametrize(
    "methods, cluster, path",
    [
        (["hc"], {}, "cluster.tau"),
        (["hc"], {"tau": 0.5, "warmup": 0}, "cluster.warmup"),
        (["ifca_personalized"], {}, "cluster.k"),
    ],
    ids=["hc-tau", "hc-warmup", "ifca-k"],
)
def test_clustered_methods_preflight_before_training(methods, cluster, path):
    from fedforecast.evaluation import run_methods

    sc = scenario_from_tree(minimal_tree(methods=methods, cluster=cluster))
    with pytest.raises(ConfigError) as err:
        run_methods(load_datasets(sc), sc)
    assert str(err.value).startswith(f"{path}: "), str(err.value)


def test_cluster_values_accepted_when_configured():
    tree = minimal_tree(
        methods=["hc", "ifca", "fedavg"],
        cluster={"tau": 0.5, "warmup": 2, "k": 2},
    )
    sc = scenario_from_tree(tree)
    assert sc.cluster.tau == 0.5
    assert sc.cluster.k == 2
    assert sc.cluster_for("hc").mode == "hc"
    assert sc.cluster_for("ifca").mode == "ifca"
    assert sc.cluster_for("fedavg").mode == "global"


def test_duplicate_methods_rejected():
    with pytest.raises(ConfigError):
        scenario_from_tree(minimal_tree(methods=["fedavg", "fedavg"]))


def test_dp_block_parsed():
    tree = minimal_tree(dp={"clip_norm": 2.0, "sigma": 0.1})
    sc = scenario_from_tree(tree)
    assert sc.fl.dp is not None
    assert sc.fl.dp.clip_norm == 2.0
    assert sc.fl.dp.sigma == 0.1


def test_dp_sigma_needs_finite_clip():
    with pytest.raises(ConfigError):
        scenario_from_tree(minimal_tree(dp={"sigma": 0.5}))


def test_type_errors_cite_paths():
    with pytest.raises(ConfigError) as err:
        scenario_from_tree(minimal_tree(fl={"rounds": "many"}))
    assert "fl.rounds" in str(err.value)
    with pytest.raises(ConfigError) as err:
        scenario_from_tree(minimal_tree(model="linear"))
    assert "model" in str(err.value)


def test_with_seed_reseeds_fl_and_population():
    sc = scenario_from_tree(minimal_tree())
    assert (sc.fl.seed, sc.population.seed, sc.population_seed_pinned) == (1, 1, False)
    moved = with_seed(sc, 9)
    assert moved.seed == 9
    assert moved.fl.seed == 9
    assert moved.population.seed == 9
    assert moved == scenario_from_tree(minimal_tree(seed=9))


def test_with_seed_respects_pinned_population():
    tree = minimal_tree()
    tree["population"]["seed"] = 77
    sc = scenario_from_tree(tree)
    assert (sc.fl.seed, sc.population.seed, sc.population_seed_pinned) == (1, 77, True)
    moved = with_seed(sc, 9)
    assert moved.fl.seed == 9
    assert moved.population.seed == 77


def test_with_seed_reseeds_an_ingest_scenario():
    sc = scenario_from_tree(minimal_tree(population=None, ingest={"path": "x.csv"}))
    moved = with_seed(sc, 9)
    assert (moved.seed, moved.fl.seed, moved.population) == (9, 9, None)


def test_parse_config_reads_yaml_file(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(
        "seed: 4\n"
        f"output_dir: {tmp_path}/out\n"
        "population:\n  n_clients: 2\n  archetypes: 1\n  days: 8\n"
        "model:\n  lag: 6\n"
    )
    sc = parse_config(str(path))
    assert sc.seed == 4
    assert sc.model.lag == 6
    datasets = load_datasets(sc)
    assert len(datasets) == 2


def test_parse_config_missing_file():
    with pytest.raises(IoError):
        parse_config("/nonexistent/scenario.yaml")


def test_parse_config_non_mapping(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("- just\n- a\n- list\n")
    with pytest.raises(ConfigError):
        parse_config(str(path))


def test_invalid_yaml_is_one_line_naming_the_problem_and_its_place(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("seed: [1")
    with pytest.raises(ConfigError) as caught:
        parse_config(str(path))
    assert str(caught.value) == (
        f"config {path} is not valid YAML: "
        "line 1, column 9: expected ',' or ']', but got '<stream end>'"
    )


# One bad value per rule, with the dotted path its error must start with.
# Each case overrides sections of minimal_tree(); population=None swaps the
# population for an ingest block.
INGEST = {"population": None}
BAD_VALUES = [
    ({"seed": -1}, "seed"),
    ({"seed": "x"}, "seed"),
    ({"output_dir": ""}, "output_dir"),
    ({"output_dir": 5}, "output_dir"),
    ({"population": {"archetypes": 1}}, "population.n_clients"),
    ({"population": {"n_clients": 0}}, "population.n_clients"),
    ({"population": {"n_clients": 2.5}}, "population.n_clients"),
    ({"population": {"n_clients": 3, "archetypes": 4}}, "population.archetypes"),
    ({"population": {"n_clients": 3, "archetypes": 0}}, "population.archetypes"),
    ({"population": {"n_clients": 3, "heterogeneity": 1.5}}, "population.heterogeneity"),
    ({"population": {"n_clients": 3, "heterogeneity": float("nan")}}, "population.heterogeneity"),
    ({"population": {"n_clients": 3, "days": 0}}, "population.days"),
    ({"population": {"n_clients": 3, "feeders": 0}}, "population.feeders"),
    ({"population": {"n_clients": 3, "seed": -1}}, "population.seed"),
    ({"population": {"n_clients": 3, "ar_coeff": 1.0}}, "population.ar_coeff"),
    ({"population": {"n_clients": 3, "ar_coeff": float("nan")}}, "population.ar_coeff"),
    ({"population": {"n_clients": 3, "noise_scale": -0.1}}, "population.noise_scale"),
    ({"population": {"n_clients": 3, "noise_scale": float("nan")}}, "population.noise_scale"),
    ({"population": {"n_clients": 3, "der_mix": ["pv"]}}, "population.der_mix"),
    ({"population": {"n_clients": 3, "der_mix": {"solar": 1.0}}}, "population.der_mix"),
    ({"population": {"n_clients": 3, "der_mix": {"pv": 0.5}}}, "population.der_mix"),
    ({"population": {"n_clients": 3, "der_mix": {"pv": -0.5, "hvac": 1.5}}}, "population.der_mix.pv"),
    ({"population": {"n_clients": 3, "der_mix": {"pv": "half"}}}, "population.der_mix.pv"),
    ({"population": {"n_clients": 3, "der_mix": {"pv": True}}}, "population.der_mix.pv"),
    ({"population": {"n_clients": 3, "der_mix": {"pv": float("nan")}}}, "population.der_mix.pv"),
    ({"population": {"n_clients": 3, "changepoint": 4}}, "population.changepoint"),
    ({"population": {"n_clients": 3, "changepoint": {"day": -1}}}, "population.changepoint.day"),
    (
        {"population": {"n_clients": 3, "changepoint": {"day": 2, "magnitude": -1.0}}},
        "population.changepoint.magnitude",
    ),
    (
        {"population": {"n_clients": 3, "changepoint": {"magnitude": float("nan")}}},
        "population.changepoint.magnitude",
    ),
    ({**INGEST, "ingest": {"forward_fill": True}}, "ingest.path"),
    ({**INGEST, "ingest": {"path": 5}}, "ingest.path"),
    ({**INGEST, "ingest": {"path": "x.csv", "forward_fill": "yes"}}, "ingest.forward_fill"),
    ({**INGEST, "ingest": {"path": "x.csv", "columns": {"timestamp": 5}}}, "ingest.columns.timestamp"),
    ({**INGEST, "ingest": {"path": "x.csv", "covariates": {"temp": 5}}}, "ingest.covariates.temp"),
    ({**INGEST, "ingest": {"path": "x.csv", "covariates": ["temp"]}}, "ingest.covariates"),
    ({"model": {"kind": "rnn"}}, "model.kind"),
    ({"model": {"lag": 0}}, "model.lag"),
    ({"model": {"horizon": 0}}, "model.horizon"),
    ({"model": {"kind": "mlp", "hidden": 0}}, "model.hidden"),
    ({"fl": {"rounds": 0}}, "fl.rounds"),
    ({"fl": {"rounds": True}}, "fl.rounds"),
    ({"fl": {"local_epochs": -1}}, "fl.local_epochs"),
    ({"fl": {"batch_size": -1}}, "fl.batch_size"),
    ({"fl": {"participation": 0.0}}, "fl.participation"),
    ({"fl": {"participation": 1.5}}, "fl.participation"),
    ({"fl": {"participation": float("nan")}}, "fl.participation"),
    ({"fl": {"early_stop_patience": -1}}, "fl.early_stop_patience"),
    ({"fl": {"eval_every": -1}}, "fl.eval_every"),
    ({"fl": {"optimizer": [1]}}, "fl.optimizer"),
    ({"fl": {"optimizer": {"kind": "adam"}}}, "fl.optimizer.kind"),
    ({"fl": {"optimizer": {"lr": 0.0}}}, "fl.optimizer.lr"),
    ({"fl": {"optimizer": {"lr": float("nan")}}}, "fl.optimizer.lr"),
    ({"fl": {"optimizer": {"beta": 1.0}}}, "fl.optimizer.beta"),
    ({"fl": {"optimizer": {"beta": float("nan")}}}, "fl.optimizer.beta"),
    ({"dp": {"clip_norm": 0.0}}, "dp.clip_norm"),
    ({"dp": {"clip_norm": float("nan")}}, "dp.clip_norm"),
    ({"dp": {"clip_norm": 1.0, "sigma": -0.1}}, "dp.sigma"),
    ({"dp": {"clip_norm": 1.0, "sigma": float("nan")}}, "dp.sigma"),
    ({"dp": {"sigma": 0.5}}, "dp.clip_norm"),
    ({"cluster": {"tau": -0.5}}, "cluster.tau"),
    ({"cluster": {"tau": float("nan")}}, "cluster.tau"),
    ({"cluster": {"warmup": -1}}, "cluster.warmup"),
    ({"cluster": {"k": -1}}, "cluster.k"),
    ({"cluster": {"recluster_every": -1}}, "cluster.recluster_every"),
    ({"personalization": {"epochs": -1}}, "personalization.epochs"),
    ({"personalization": {"lr_scale": 0.0}}, "personalization.lr_scale"),
    ({"personalization": {"lr_scale": float("nan")}}, "personalization.lr_scale"),
    ({"methods": []}, "methods"),
    ({"methods": ["gossip"]}, "methods"),
    ({"methods": ["fedavg", "fedavg"]}, "methods"),
]


@pytest.mark.parametrize(
    "overrides, path", BAD_VALUES, ids=[f"{p}-{i}" for i, (_, p) in enumerate(BAD_VALUES)]
)
def test_bad_value_names_its_dotted_path(overrides, path):
    with pytest.raises(ConfigError) as err:
        scenario_from_tree(minimal_tree(**overrides))
    assert str(err.value).startswith(f"{path}: "), str(err.value)


def test_model_settings_build_the_model_spec():
    mlp = scenario_from_tree(minimal_tree(model={"kind": "mlp", "lag": 6, "horizon": 2, "hidden": 5}))
    assert mlp.model.spec(2) == ModelSpec("mlp", 8, 2, 5)
    # A linear model ignores the hidden size, so any value is accepted.
    linear = scenario_from_tree(minimal_tree(model={"lag": 6, "hidden": 0}))
    assert linear.model.spec(2) == ModelSpec("linear", 8, 1, 0)


def test_accepted_values_keep_their_types():
    tree = minimal_tree(
        population={"n_clients": 3, "der_mix": {"pv": 1}, "changepoint": {}},
        model={"lag": 6.0},
        cluster={"tau": 1},
    )
    sc = scenario_from_tree(tree)
    assert sc.population.der_mix == {"pv": 1.0}
    assert isinstance(sc.population.der_mix["pv"], float)
    assert sc.population.archetypes == 1
    assert (sc.population.changepoint.day, sc.population.changepoint.magnitude) == (0, 0.0)
    assert sc.model.lag == 6 and isinstance(sc.model.lag, int)
    assert sc.cluster.tau == 1.0 and isinstance(sc.cluster.tau, float)


def test_exponent_without_a_dot_is_a_number():
    # YAML 1.1 reads 1e-3 as the string '1e-3'; number fields take it as one.
    tree = yaml.safe_load(
        "fl: {rounds: 2e1, optimizer: {lr: 1e-3}}\n"
        "dp: {clip_norm: +5E-1, sigma: 0e0}\n"
        "output_dir: 1e3\n"
    )
    assert tree["fl"]["optimizer"]["lr"] == "1e-3"
    sc = scenario_from_tree(minimal_tree(**tree))
    assert sc.fl.optimizer.lr == 1e-3
    assert sc.fl.rounds == 20 and isinstance(sc.fl.rounds, int)
    assert sc.fl.dp.clip_norm == 0.5
    assert sc.output_dir == "1e3"  # a string field keeps the text


def test_exponent_with_a_dot_but_no_sign_is_a_number():
    # YAML 1.1 also reads 1.5e1 and 1.0e3 as strings (1.0e-3 is a float).
    tree = yaml.safe_load("fl: {rounds: 1.5e1, optimizer: {lr: 1.0e3}}\ndp: {clip_norm: 2.E0}\n")
    assert tree["fl"]["rounds"] == "1.5e1"
    sc = scenario_from_tree(minimal_tree(**tree))
    assert sc.fl.rounds == 15 and isinstance(sc.fl.rounds, int)
    assert sc.fl.optimizer.lr == 1000.0
    assert sc.fl.dp.clip_norm == 2.0


@pytest.mark.parametrize(
    "fl, message",
    [
        ({"rounds": "1e-1"}, "fl.rounds: expected an integer, got 0.1"),
        ({"rounds": "1.55e1"}, "fl.rounds: expected an integer, got 15.5"),
        ({"rounds": ".5e1"}, "fl.rounds: expected a number, got '.5e1'"),
        ({"optimizer": {"lr": "1e-3x"}}, "fl.optimizer.lr: expected a number, got '1e-3x'"),
        ({"optimizer": {"lr": "-1e-3"}}, "fl.optimizer.lr: must be > 0, got -0.001"),
    ],
)
def test_exponent_strings_still_checked(fl, message):
    with pytest.raises(ConfigError) as exc:
        scenario_from_tree(minimal_tree(fl=fl))
    assert str(exc.value) == message


README = Path(__file__).resolve().parents[1] / "README.md"

# Every section the README's schema block lists keys for; ingest.covariates
# and population.der_mix map free names, so they are not sections.
SECTIONS = [
    "", "population", "population.changepoint", "ingest", "ingest.columns",
    "model", "fl", "fl.optimizer", "dp", "cluster", "personalization",
]


def readme_schema() -> dict:
    text = README.read_text(encoding="utf-8").split("## Configuration", 1)[1]
    return yaml.safe_load(text.split("```yaml\n", 1)[1].split("```", 1)[0])


@pytest.mark.parametrize("section", SECTIONS)
def test_readme_schema_lists_exactly_the_accepted_keys(section):
    listed = readme_schema()
    tree = minimal_tree() if not section.startswith("ingest") else {"ingest": {"path": "x.csv"}}
    node = tree
    for key in filter(None, section.split(".")):
        listed = listed[key]
        node = node.setdefault(key, {})
    node["no_such_key"] = 1
    with pytest.raises(ConfigError, match="unknown config key") as err:
        scenario_from_tree(tree)
    accepted = ast.literal_eval(str(err.value).split("expected one of ", 1)[1])
    assert sorted(listed) == sorted(accepted)
