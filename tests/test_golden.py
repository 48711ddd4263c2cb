"""Golden outputs: SHA-256 of every artifact over a small scenario matrix.

Each scenario runs all eight methods and hashes the rendered comparison
JSON, each method's per-round CSV and each federated method's run JSON.
The expected hashes live in ``golden_hashes.json`` next to this file, and
beside them ``golden_values.json`` holds the numbers a reader needs to see
how far a changed artifact moved: per method, the mean, median and feeder
MAE and RMSE, bytes_total and rounds_to_best_val, and for a federated
method the last round's n_clusters and val_loss. A refactor that claims
"same outputs" must leave both untouched; a change that alters outputs on
purpose says so and regenerates both with

    PYTHONPATH=src python tests/test_golden.py

The hashes pin float64 results to the last bit, so they hold for one numpy
build and platform; reruns on that platform are byte-identical.
"""

import copy
import hashlib
import json
import os

import numpy as np
import pytest

from helpers import check_rounds_against_reference, reference_centralized
from fedforecast.config import load_datasets, scenario_from_tree
from fedforecast.evaluation import ComparisonTable, _Harness, run_methods
from fedforecast.fedcore import ROUND_CSV_HEADER, run_result_json_obj
from fedforecast.serialize import fmt_float, to_csv_text, to_json_text

HERE = os.path.dirname(os.path.abspath(__file__))
HASHES_PATH = os.path.join(HERE, "golden_hashes.json")
VALUES_PATH = os.path.join(HERE, "golden_values.json")

BASE = {
    "seed": 0,
    "population": {
        "n_clients": 6,
        "archetypes": 2,
        "heterogeneity": 0.3,
        "days": 10,
        "der_mix": {"fixed_load": 0.5, "pv": 0.5},
    },
    "model": {"kind": "linear", "lag": 6},
    "fl": {"rounds": 6, "eval_every": 2},
    "cluster": {"tau": 0.05, "warmup": 2, "k": 2},
}

# name -> overrides merged into BASE, one block at a time.
SCENARIOS = {
    "linear": {},
    "mlp": {"model": {"kind": "mlp", "hidden": 4}},
    "dp": {"dp": {"clip_norm": 0.5, "sigma": 0.2}},
    "participation": {"fl": {"participation": 0.5}},
    "minibatch": {
        "fl": {
            "batch_size": 16,
            "local_epochs": 2,
            "optimizer": {"kind": "momentum", "lr": 0.01},
        }
    },
    "hc_recluster": {"cluster": {"recluster_every": 2}},
    "ifca_k3": {"cluster": {"k": 3}},
    # Minibatch noise makes every path plateau within a few rounds.
    "early_stop": {
        "fl": {
            "rounds": 30,
            "batch_size": 16,
            "optimizer": {"lr": 0.05},
            "early_stop_patience": 2,
        }
    },
}


# Not hashed: extra scenarios on which the batched engine round is checked
# against the per-handle reference, round by round.
REFERENCE_ONLY = {
    "ifca_dp_sampled": {
        "dp": {"clip_norm": 0.5, "sigma": 0.2},
        "fl": {"participation": 0.5},
        "cluster": {"k": 3},
    },
}


def scenario_tree(name: str) -> dict:
    tree = copy.deepcopy(BASE)
    for key, block in {**SCENARIOS, **REFERENCE_ONLY}[name].items():
        tree.setdefault(key, {}).update(block)
    return tree


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_scenario(name: str):
    scenario = scenario_from_tree(scenario_tree(name))
    return scenario, run_methods(load_datasets(scenario), scenario)


def artifact_hashes(scenario, outcomes) -> dict[str, str]:
    table = ComparisonTable(
        rows=tuple(outcomes[m].row for m in sorted(outcomes)), seed=scenario.seed
    )
    hashes = {"comparison.json": _sha(to_json_text(table.to_json_obj()))}
    for method in sorted(outcomes):
        outcome = outcomes[method]
        hashes[f"{method}.csv"] = _sha(to_csv_text(ROUND_CSV_HEADER, outcome.trace_rows))
        if outcome.run_result is not None:
            hashes[f"{method}.json"] = _sha(
                to_json_text(run_result_json_obj(outcome.run_result))
            )
    return hashes


def golden_values(outcomes) -> dict[str, dict]:
    """Per method, the numbers behind its artifacts; floats are written
    with fmt_float, so the file is exact."""
    values = {}
    for method in sorted(outcomes):
        row, result = outcomes[method].row, outcomes[method].run_result
        entry = {
            f"{block}_{rate}": fmt_float(getattr(getattr(row, block), rate))
            for block in ("mean", "median", "feeder")
            for rate in ("mae", "rmse")
        }
        entry["bytes_total"] = row.bytes_total
        entry["rounds_to_best_val"] = fmt_float(row.rounds_to_best_val)
        if result is not None:
            entry["n_clusters"] = result.reports[-1].n_clusters
            entry["val_loss"] = fmt_float(result.reports[-1].val_loss)
        values[method] = entry
    return values


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=1, sort_keys=True)
        handle.write("\n")


@pytest.fixture(scope="module")
def runs():
    return {name: run_scenario(name) for name in SCENARIOS}


def test_expected_hashes_cover_every_scenario():
    with open(HASHES_PATH, encoding="utf-8") as handle:
        assert sorted(json.load(handle)) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_outputs_match_golden_hashes(runs, name):
    with open(HASHES_PATH, encoding="utf-8") as handle:
        expected = json.load(handle)[name]
    actual = artifact_hashes(*runs[name])
    changed = sorted(
        k for k in expected.keys() | actual.keys() if expected.get(k) != actual.get(k)
    )
    assert not changed, f"scenario {name}: artifacts changed: {changed}"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_outputs_match_golden_values(runs, name):
    with open(VALUES_PATH, encoding="utf-8") as handle:
        expected = json.load(handle)
    assert sorted(expected) == sorted(SCENARIOS)
    assert golden_values(runs[name][1]) == expected[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS) + sorted(REFERENCE_ONLY))
def test_batched_rounds_equal_per_handle_reference(monkeypatch, name):
    checked = check_rounds_against_reference(monkeypatch)
    scenario, outcomes = run_scenario(name)
    # Personalized methods share their base method's run.
    fed = {id(o.run_result): o.run_result for o in outcomes.values() if o.run_result}
    assert len(checked) == sum(len(run.reports) for run in fed.values()) > 0


@pytest.mark.parametrize("name", ["dp", "minibatch", "early_stop"])
def test_centralized_equals_its_own_round_loop(name):
    # dp: the pooled model trains without DP, as the reference does.
    scenario = scenario_from_tree(scenario_tree(name))
    harness = _Harness(load_datasets(scenario), scenario)
    trained = harness.trained("centralized")
    params, trace = reference_centralized(harness.clients, harness.spec, scenario.fl)
    assert all(m.values.tobytes() == params.values.tobytes() for m in trained.models.values())
    assert repr([row[1] for row in trained.trace_rows]) == repr(trace)
    assert trained.rounds_to_best_val == float(np.argmin(trace) + 1)
    assert trained.result is None


def test_scenarios_exercise_what_they_name(runs):
    # A golden over a scenario that never reaches its feature pins nothing.
    hc = runs["hc_recluster"][1]["hc"].run_result
    clustering_counts = [r.n_clusters for r in hc.reports[2:]]
    assert max(clustering_counts) > 1
    assert len(set(clustering_counts)) > 1, "reclustering should regroup"

    ifca = runs["ifca_k3"][1]["ifca"].run_result
    assert len(ifca.models) == 3
    chosen = [set(r.assignment.values()) for r in ifca.reports]
    assert any(len(c) > 1 for c in chosen)
    assert any(len(c) < 3 for c in chosen), "some round should leave a model idle"

    part = runs["participation"][1]["fedavg"].run_result
    assert all(len(r.participants) == 3 for r in part.reports)

    stop = runs["early_stop"][1]
    assert len(stop["fedavg"].run_result.reports) < 30
    assert len(stop["centralized"].trace_rows) < 30
    assert len(stop["local_only"].trace_rows) < 30


if __name__ == "__main__":
    current = {name: run_scenario(name) for name in SCENARIOS}
    _write_json(HASHES_PATH, {name: artifact_hashes(*run) for name, run in current.items()})
    _write_json(VALUES_PATH, {name: golden_values(run[1]) for name, run in current.items()})
    print(f"wrote {HASHES_PATH} and {VALUES_PATH}")
