"""Workload definitions for the fedforecast benchmark.

Each workload is one scenario tree (the YAML schema of ``fedforecast.config``)
plus the methods it compares. The workload seed becomes the scenario seed and
the population follows it, except on a workload with a ``fixed_seed``.
``stress`` names the layers a workload is built to load, ``spare`` the layers
it should leave nearly idle; the traced run checks the ``predictions`` and
prints the result.

This module imports nothing outside the standard library, so the benchmark
driver can build scenario files without importing numpy.
"""

from __future__ import annotations

import copy
import math
import os

# Population knobs shared by all three workloads; only size differs.
DER_MIX = {"fixed_load": 0.4, "pv": 0.2, "ev_charger": 0.2, "hvac": 0.1, "battery": 0.1}
POPULATION = {"archetypes": 4, "heterogeneity": 0.3, "der_mix": DER_MIX}
# generate_population attaches these covariates to every client; the ingest
# workload reads them back from the same-named CSV columns.
COVARIATES = ("irradiance", "temperature")

LAYERS = (
    "config", "population", "data", "model", "optim", "clients",
    "privacy", "seeds", "fedcore", "cluster", "evaluation", "serialize",
)

WORKLOADS = {
    "fleet-dp-ingest": {
        "why": (
            "paper headline comparison at fleet scale with DP on, read from CSV: "
            "per-client path, pooled centralized matmul and CSV ingestion"
        ),
        "population": {"n_clients": 100, "days": 56},
        "ingest": True,
        "model": {"kind": "linear", "lag": 24},
        "fl": {
            "rounds": 50,
            "participation": 0.5,
            "optimizer": {"kind": "momentum", "lr": 0.05},
        },
        "dp": {"clip_norm": 1.0, "sigma": 0.5},
        "cluster": {},
        "methods": ["local_only", "centralized", "fedavg", "fedavg_personalized"],
        "stress": ["clients", "model", "optim", "privacy", "seeds", "data"],
        "spare": ["cluster"],
    },
    "hc-recluster": {
        "why": (
            "two hc_partition calls at n=120 dominate and local training is light: "
            "an hc-scaling change shows here, a client-batching change should not"
        ),
        # One fixed scenario, whatever the workload seed: the run time is
        # mostly hc_partition, which grows with the number of merges it makes,
        # and that number follows the seed. Over seeds 1-8 the two calls made
        # 29 to 42 merges; with the population pinned, the training seed alone
        # still moved it between 30 and 38 (seeds 101-110), about a fifth of
        # the run time.
        "fixed_seed": 11,
        "population": {"n_clients": 120, "days": 14},
        "ingest": False,
        "model": {"kind": "linear", "lag": 24},
        "fl": {"rounds": 12, "participation": 1.0},
        "dp": None,
        "cluster": {"tau": 0.01, "warmup": 2, "recluster_every": 5},
        "methods": ["hc", "hc_personalized"],
        "stress": ["cluster"],
        "spare": ["clients", "optim", "privacy"],
    },
    "ifca-mlp-minibatch": {
        "why": (
            "about 29k small minibatch loss_and_grad + optim.step calls, k-model "
            "ifca_assign and per-batch shuffle streams: the small-call side of clients/model"
        ),
        "population": {"n_clients": 40, "days": 28},
        "ingest": False,
        "model": {"kind": "mlp", "lag": 24, "hidden": 16, "horizon": 4},
        # 12 rounds, not 30: a comparison takes about 2 s instead of 5 s, so a
        # 40 s run holds several cold and several warm comparisons to take
        # medians over. The per-round work, and so the layer mix, is the same.
        "fl": {
            "rounds": 12,
            "batch_size": 32,
            "local_epochs": 2,
            "optimizer": {"kind": "sgd", "lr": 0.05},
        },
        "dp": None,
        "cluster": {"k": 4},
        "methods": ["fedavg", "ifca", "ifca_personalized"],
        "stress": ["model", "optim", "clients", "seeds", "cluster"],
        "spare": ["privacy", "data"],
    },
}

# Layer-mix predictions the traced run checks, as (description, workload,
# predicate over the per-layer metrics of that workload).
PREDICTIONS = (
    (
        "cluster.hc_partition_s is most of the comparison",
        "hc-recluster",
        lambda m: m["cluster.hc_partition_s"] > 0.5 * m["trace.compare_s"],
    ),
    (
        "cluster.hc_partition_calls is 0",
        "fleet-dp-ingest",
        lambda m: m["cluster.hc_partition_calls"] == 0,
    ),
    (
        "cluster.hc_partition_calls is 0",
        "ifca-mlp-minibatch",
        lambda m: m["cluster.hc_partition_calls"] == 0,
    ),
    (
        "privacy.privatize_calls > 0",
        "fleet-dp-ingest",
        lambda m: m["privacy.privatize_calls"] > 0,
    ),
    (
        "privacy.privatize_calls is 0",
        "hc-recluster",
        lambda m: m["privacy.privatize_calls"] == 0,
    ),
    (
        "privacy.privatize_calls is 0",
        "ifca-mlp-minibatch",
        lambda m: m["privacy.privatize_calls"] == 0,
    ),
    (
        "model.loss_and_grad_s + optim.step_s is most of the comparison",
        "ifca-mlp-minibatch",
        lambda m: m["model.loss_and_grad_s"] + m["optim.step_s"] > 0.5 * m["trace.compare_s"],
    ),
)

# Smoke-test size: the same code paths on a population small enough to run
# each workload in a few seconds.
SMALL = {"n_clients": 8, "days": 14, "rounds": 3}
HC_PROBE_SIZES = (50, 100, 150)
HC_PROBE_SIZES_SMALL = (5, 10, 15)


def _sized(name: str, small: bool) -> dict:
    spec = copy.deepcopy(WORKLOADS[name])
    if small:
        spec["population"]["n_clients"] = SMALL["n_clients"]
        spec["population"]["days"] = SMALL["days"]
        spec["fl"]["rounds"] = SMALL["rounds"]
        if spec["cluster"].get("warmup"):
            spec["cluster"].update(warmup=1, recluster_every=1)
    return spec


def csv_path(workdir: str, name: str) -> str:
    """Where an ingesting workload's CSV is written and read back."""
    return os.path.join(workdir, f"{name}.csv")


def population_tree(name: str, small: bool = False) -> dict:
    """The population block of a workload (no seed: it follows the scenario)."""
    return {**POPULATION, **_sized(name, small)["population"]}


def scenario_tree(name: str, seed: int, workdir: str, small: bool = False) -> dict:
    """Scenario tree for ``fedforecast.config.scenario_from_tree``."""
    spec = _sized(name, small)
    tree = {
        "seed": spec.get("fixed_seed", seed),
        "output_dir": "out",
        "model": spec["model"],
        "fl": spec["fl"],
        "cluster": spec["cluster"],
        "methods": spec["methods"],
    }
    if spec["ingest"]:
        path = csv_path(workdir, name)
        tree["ingest"] = {"path": path, "covariates": {c: c for c in COVARIATES}}
    else:
        tree["population"] = population_tree(name, small)
    if spec["dp"] is not None:
        tree["dp"] = spec["dp"]
    return tree


def expectations(name: str, small: bool = False) -> dict:
    """Closed-form facts the outputs of one comparison must satisfy."""
    spec = _sized(name, small)
    model, fl, cluster = spec["model"], spec["fl"], spec["cluster"]
    d = model["lag"] + len(COVARIATES)
    h = model.get("horizon", 1)
    if model["kind"] == "linear":
        param_count = h * d + h
    else:
        m = model["hidden"]
        param_count = m * d + m + h * m + h
    return {
        "methods": sorted(spec["methods"]),
        "n_clients": spec["population"]["n_clients"],
        "rounds": fl["rounds"],
        "participation": fl.get("participation", 1.0),
        "param_count": param_count,
        # 16-byte header plus float64 values, as documented in fedcore.
        "param_bytes": 16 + 8 * param_count,
        "k": cluster.get("k", 0),
        "warmup": cluster.get("warmup", 0),
        "recluster_every": cluster.get("recluster_every", 0),
    }


def expected_participants(expect: dict, base: str, round_index: int) -> int:
    """Participants the engine must select in one round of a base FL method."""
    n = expect["n_clients"]
    sampled = math.ceil(expect["participation"] * n)
    if base != "hc":
        return sampled
    warmup, every = expect["warmup"], expect["recluster_every"]
    if round_index <= warmup:
        return sampled
    since = round_index - warmup - 1
    if since == 0 or (every > 0 and since % every == 0):
        return n
    return sampled
