"""Federated engine: aggregation, metering, round loop, early stopping.

The identity tests (single-client and pooled-gradient) are the core
correctness oracles: federation must reduce to plain training in the
degenerate cases where both are defined.
"""

import inspect
import re
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    population_clients,
    population_spec,
    reference_fedavg,
    reference_routed_round,
    same_round,
    synthetic_linear_client,
)
from fedforecast import fedcore
from fedforecast.clients import FederatedClient, train_local
from fedforecast.data import SupervisedSet, prepare_client
from fedforecast.errors import (
    ConfigError,
    EmptyAggregationError,
    NumericError,
    ShapeError,
)
from fedforecast.fedcore import (
    ClusterConfig,
    ClientUpdate,
    FLConfig,
    ROUND_CSV_HEADER,
    fedavg_aggregate,
    round_csv_rows,
    run_result_json_obj,
    run_training,
    select_participants,
)
from fedforecast.model import (
    ModelParams,
    ModelSpec,
    init_params,
    loss_and_grad,
    param_message_bytes,
)
from fedforecast.optim import OptimizerConfig
from fedforecast.population import PopulationSpec, generate_population
from fedforecast.privacy import DpConfig
from fedforecast.seeds import derive_seed
from fedforecast.serialize import to_json_text


def sgd_config(**kwargs):
    defaults = dict(rounds=3, optimizer=OptimizerConfig(kind="sgd", lr=0.05), seed=0)
    defaults.update(kwargs)
    return FLConfig(**defaults)


# -------------------------------------------------------------- aggregation


def one_model(values, counts):
    """fedavg_aggregate of rows that all route to one model, its one row."""
    (out,) = fedavg_aggregate(values, counts, [0] * len(counts))
    return out


def test_aggregate_equal_weights():
    out = one_model(np.array([[1.0, 3.0], [3.0, 5.0]]), np.array([2, 2]))
    np.testing.assert_allclose(out, [2.0, 4.0])


def test_aggregate_sample_weighted():
    out = one_model(np.array([[0.0, 0.0], [3.0, 3.0]]), np.array([1, 3]))
    np.testing.assert_allclose(out, [2.25, 2.25])


def test_aggregate_single_update_identity():
    values = np.array([[1.5, -2.5]])
    np.testing.assert_array_equal(one_model(values, np.array([7])), values[0])


def test_aggregate_empty_rejected():
    for prior in (None, np.ones((2, 2))):
        with pytest.raises(EmptyAggregationError, match="^no updates to aggregate$"):
            fedavg_aggregate(np.empty((0, 2)), np.array([], dtype=np.int64), [], prior)
    # Without a prior, every model up to the largest index needs a row.
    with pytest.raises(EmptyAggregationError, match="^no updates to aggregate for model 1$"):
        fedavg_aggregate(np.ones((2, 2)), np.array([1, 1]), [0, 2])


@pytest.mark.parametrize(
    "other",
    [ModelSpec("linear", input_dim=1, horizon=2), ModelSpec("linear", input_dim=4, horizon=1)],
    ids=["same-size", "other-size"],
)
def test_aggregate_spec_mismatch_rejected(other):
    # The round's spec is linear with 3 inputs and 1 step, 4 params; c002's
    # handle returns its update under ``other``: 1 input and 2 steps, also 4
    # params, or 4 inputs, 5 params. Either is rejected, naming the client.
    datasets = generate_population(PopulationSpec(n_clients=3, archetypes=2, days=7, seed=0))
    splits = [prepare_client(ds, 1, 1) for ds in datasets]

    class OtherSpecClient(FederatedClient):
        def local_update(self, broadcast, config, round_index):
            update = super().local_update(broadcast, config, round_index)
            values = np.resize(update.new_params.values, other.param_count)
            return replace(update, new_params=ModelParams(other, values))

    clients = [FederatedClient(s) for s in splits[:2]] + [OtherSpecClient(splits[2])]
    spec = population_spec(lag=1)
    assert spec.param_count == 4 and clients[2].client_id == "c002"
    expected = f"local_update for c002 has spec {other}, expected {spec}"
    for mode in fedcore.MODES:
        cluster = ClusterConfig(mode=mode, tau=0.5, warmup=1, k=2)
        with pytest.raises(ShapeError, match=re.escape(expected)):
            run_training(clients, spec, sgd_config(), mode, cluster)


def test_a_non_finite_aggregate_raises_the_params_error():
    # Updates of the largest double from 1, 2 and 2 samples: their weighted
    # mean rounds past it to inf. The round's one isfinite check on its
    # models raises the error ModelParams raised on the object path, and
    # the engine lets numpy print no warning before it; the object FedAvg
    # of the reference does.
    biggest = np.finfo(float).max
    datasets = generate_population(PopulationSpec(n_clients=3, archetypes=2, days=7, seed=0))

    class Saturating(FederatedClient):
        def local_update(self, broadcast, config, round_index):
            values = np.full(broadcast.spec.param_count, biggest)
            n = 1 if self.client_id == "c000" else 2
            return ClientUpdate(self.client_id, ModelParams(broadcast.spec, values), n)

    clients = [Saturating(prepare_client(ds, 6, 1)) for ds in datasets]
    spec = population_spec()
    by_id = {c.client_id: c for c in clients}
    state = fedcore.ServerState("global", spec, init_params(spec, 0).values[None], {})
    text = "parameter vector contains non-finite values"
    for round_fn, warned in ((fedcore._routed_round, "error"), (reference_routed_round, "ignore")):
        with warnings.catch_warnings(), pytest.raises(NumericError, match=f"^{text}$"):
            warnings.simplefilter(warned)
            round_fn(state, by_id, dict.fromkeys(sorted(by_id), 0), sgd_config(), 1)
    with warnings.catch_warnings(), pytest.raises(NumericError, match=f"^round 1: {text}$"):
        warnings.simplefilter("error")
        run_training(clients, spec, sgd_config())


def test_aggregate_matches_manual_weighted_mean():
    rng = np.random.default_rng(0)
    rows, counts = [], []
    for _ in range(6):
        rows.append(rng.normal(size=5))
        counts.append(int(rng.integers(1, 9)))
    values, counts = np.array(rows), np.array(counts)
    manual = sum((n / counts.sum()) * v for n, v in zip(counts, values))
    np.testing.assert_allclose(one_model(values, counts), manual, atol=1e-12)


def test_aggregate_of_identical_params_is_identity():
    values = np.array([0.3, -0.7, 1.1])
    out = one_model(np.tile(values, (4, 1)), np.arange(1, 5))
    np.testing.assert_allclose(out, values, atol=1e-15)


def test_aggregate_equals_the_object_reference_bitwise():
    # The engine adds each model's weighted rows one at a time in client id
    # order, as the object FedAvg did, whatever the stack's memory layout.
    # A reduction such as np.add.reduce(w[:, None] * V, axis=0) adds the
    # rows in order only when they are C-contiguous; over column-major rows
    # it sums pairwise and rounds differently. Each case draws P <= 27
    # params, 1-12 rows in shuffled id order and 1-10^4 samples a row, one
    # scale from 1e-300 to 1e300, and, every other case, column-major rows.
    rng = np.random.default_rng(26)
    for case in range(2400):
        p, r = int(rng.integers(2, 28)), int(rng.integers(1, 13))
        spec = ModelSpec("linear", input_dim=p - 1, horizon=1)
        values = rng.normal(size=(r, p)) * 10.0 ** rng.uniform(-300, 300)
        counts = rng.integers(1, 10_001, size=r)
        ids = [f"c{i:02d}" for i in rng.permutation(r)]
        updates = [
            ClientUpdate(cid, ModelParams(spec, v), int(n)) for cid, v, n in zip(ids, values, counts)
        ]
        in_id_order = np.argsort(ids)
        rows = values[in_id_order]
        if case % 2:
            rows = np.asfortranarray(rows)
        got = one_model(rows, counts[in_id_order])
        assert got.tobytes() == reference_fedavg(updates).values.tobytes(), case


def test_one_pass_fedavg_equals_the_object_reference_per_model_bitwise():
    # One call averages every model of a round. Each case routes 1-240 rows,
    # in client id order, and checks each model against reference_fedavg of
    # its own updates; a model no row routes to keeps its prior row. Routes
    # are random (some models empty), all singletons, one model holding
    # every row, or 80-120 models; counts reach 2**40 (their sums stay exact
    # doubles), values span 1e-300 to 1e300 as above, and every other stack
    # is column-major.
    rng = np.random.default_rng(28)
    for case in range(400):
        p = int(rng.integers(2, 28))
        spec = ModelSpec("linear", input_dim=p - 1, horizon=1)
        route = case % 4
        if route == 0:
            k, r = int(rng.integers(1, 20)), int(rng.integers(1, 151))
            models = rng.integers(0, k, size=r)
        elif route == 1:
            k = r = int(rng.integers(1, 151))
            models = rng.permutation(r)
        elif route == 2:
            k, r = int(rng.integers(1, 5)), int(rng.integers(1, 151))
            models = np.full(r, rng.integers(0, k))
        else:
            k = int(rng.integers(80, 121))
            r = int(rng.integers(k, 2 * k + 1))
            models = rng.integers(0, k, size=r)
        values = rng.normal(size=(r, p)) * 10.0 ** rng.uniform(-300, 300)
        if case % 2:
            values = np.asfortranarray(values)
        counts = rng.integers(1, 2**40, size=r)
        prior = rng.normal(size=(k, p))
        got = fedavg_aggregate(values, counts, models.tolist(), prior)
        assert got.shape == (k, p)
        for j in range(k):
            updates = [
                ClientUpdate(f"c{i:03d}", ModelParams(spec, values[i]), int(counts[i]))
                for i in np.flatnonzero(models == j)
            ]
            want = reference_fedavg(updates).values if updates else prior[j]
            assert got[j].tobytes() == want.tobytes(), (case, j)
        if len(set(models.tolist())) == k:  # without a prior, every model has rows
            assert fedavg_aggregate(values, counts, models).tobytes() == got.tobytes(), case


def test_a_regroup_into_many_clusters_and_the_round_after_equal_the_reference():
    # At tau 0.01 the 64 clients regroup into 51 clusters, 40 of them
    # singletons; the next round, at participation 0.5, leaves some cluster
    # models without a participant, so they keep their params.
    datasets = generate_population(PopulationSpec(n_clients=64, archetypes=3, days=5, seed=3))
    by_id = {c.client_id: c for c in FederatedClient.fleet(datasets, 6, 1)}
    spec = population_spec()
    state = fedcore.ServerState("hc", spec, init_params(spec, 0).values[None], {})
    route = dict.fromkeys(sorted(by_id), 0)
    got = fedcore._routed_round(state, by_id, route, sgd_config(), 1, 0.01)
    assert same_round(got, reference_routed_round(state, by_id, route, sgd_config(), 1, 0.01))
    state, report = got
    sizes = np.bincount(list(state.assignment.values()))
    assert report.n_clusters == 51 and sizes.max() > 1 and (sizes == 1).sum() == 40
    config = sgd_config(participation=0.5)
    ids = fedcore.select_participants(list(by_id), 0.5, config.seed, 2)
    route = {cid: state.assignment[cid] for cid in ids}
    assert len(set(route.values())) < report.n_clusters
    got = fedcore._routed_round(state, by_id, route, config, 2)
    assert same_round(got, reference_routed_round(state, by_id, route, config, 2))


# ------------------------------------------------------------ participation


def test_select_participants_ceil_rule():
    ids = ["c3", "c1", "c2", "c0"]
    assert len(select_participants(ids, 0.5, 0, 1)) == 2
    assert len(select_participants(ids, 0.51, 0, 1)) == 3
    assert select_participants(ids, 1.0, 0, 1) == ["c0", "c1", "c2", "c3"]
    assert len(select_participants(ids, 1e-12, 0, 1)) == 1
    # P*N off an integer by float error only: 0.07 * 100 is 7.000000000000001
    # and 0.29 * 100 is 28.999999999999996.
    cases = [(0.07, 100, 7), (0.14, 50, 7), (0.28, 25, 7), (0.29, 100, 29), (0.071, 100, 8)]
    for participation, n, count in cases:
        ids = [f"c{i:03d}" for i in range(n)]
        assert len(select_participants(ids, participation, 0, 1)) == count, (participation, n)


def test_select_participants_deterministic_and_round_varying():
    ids = [f"c{i}" for i in range(10)]
    a = select_participants(ids, 0.3, 7, 4)
    b = select_participants(ids, 0.3, 7, 4)
    assert a == b == sorted(a)
    rounds = {tuple(select_participants(ids, 0.3, 7, r)) for r in range(8)}
    assert len(rounds) > 1


# ------------------------------------------------------------- round loop


def test_run_reports_and_byte_formulas():
    clients = population_clients(n_clients=4, days=7, seed=1)
    spec = population_spec()
    result = run_training(clients, spec, sgd_config(rounds=3, participation=0.5))
    assert len(result.reports) == 3
    pb = param_message_bytes(spec)
    for report in result.reports:
        assert len(report.participants) == 2  # ceil(0.5 * 4)
        assert len(report.train_losses) == 2
        assert report.bytes_up == 2 * pb
        assert report.bytes_down == 2 * pb
    assert result.bytes_up_total == 3 * 2 * pb


def test_ifca_broadcast_bytes_scale_with_k():
    clients = population_clients(n_clients=4, days=7, seed=1)
    spec = population_spec()
    result = run_training(
        clients,
        spec,
        sgd_config(rounds=2),
        mode="ifca",
        cluster=ClusterConfig(mode="ifca", k=3),
    )
    pb = param_message_bytes(spec)
    for report in result.reports:
        assert report.bytes_up == 4 * pb
        assert report.bytes_down == 4 * 3 * pb
        assert report.n_clusters == 3
        assert set(report.assignment) == {c.client_id for c in clients}


def test_ifca_empty_cluster_retains_initial_params():
    clients = population_clients(n_clients=2, days=7, seed=3)
    spec = population_spec()
    config = sgd_config(rounds=1)
    result = run_training(
        clients, spec, config, mode="ifca", cluster=ClusterConfig(mode="ifca", k=3)
    )
    chosen = set(result.reports[0].assignment.values())
    assert len(chosen) < 3  # 2 clients cannot fill 3 clusters
    for j in range(3):
        if j not in chosen:
            init = init_params(spec, derive_seed(config.seed, "init", j))
            np.testing.assert_array_equal(result.models[j].values, init.values)


@pytest.mark.parametrize(
    "mode, recluster_every, schedule",
    [
        ("global", 0, "rrrrrrr"),
        ("ifca", 2, "rrrrrrr"),
        ("hc", 0, "rrCrrrr"),
        ("hc", 2, "rrCrCrC"),
        ("hc", 3, "rrCrrCr"),
    ],
)
def test_run_training_picks_each_round_function(monkeypatch, mode, recluster_every, schedule):
    # r: a run_round without regroup_tau, C: one with regroup_tau=cluster.tau
    # (a clustering round); hc warms up for 2 rounds. Each round is called
    # through the module, where a tracer can wrap it.
    cluster = ClusterConfig(mode=mode, tau=0.5, warmup=2, k=2, recluster_every=recluster_every)
    called = []
    run_round = fedcore.run_round

    def record(state, by_id, config, round_index, regroup_tau=None):
        assert regroup_tau in (None, cluster.tau)
        called.append("r" if regroup_tau is None else "C")
        return run_round(state, by_id, config, round_index, regroup_tau)

    monkeypatch.setattr(fedcore, "run_round", record)
    clients = population_clients(n_clients=4, days=7, seed=2)
    run_training(clients, population_spec(), sgd_config(rounds=7), mode, cluster)
    assert "".join(called) == schedule


def test_repeated_client_id_rejected_before_any_round(monkeypatch):
    def no_round(*args, **kwargs):
        raise AssertionError("a round ran")

    monkeypatch.setattr(fedcore, "_routed_round", no_round)
    clients = population_clients(n_clients=3, days=7)
    repeated = clients + [clients[1]]
    message = f"duplicate client_id {clients[1].client_id!r}"
    for mode in fedcore.MODES:
        cluster = ClusterConfig(mode=mode, tau=0.5, warmup=1, k=2)
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_training(repeated, population_spec(), sgd_config(), mode, cluster)
    models = {c.client_id: init_params(population_spec(), 0) for c in clients}
    with pytest.raises(ConfigError, match=re.escape(message)):
        fedcore.personalize(repeated, models, 1, 0.01)


@pytest.mark.parametrize("eval_every, evaluated_rounds", [(0, 0), (3, 0), (2, 1)])
def test_ifca_final_route_chosen_once(monkeypatch, eval_every, evaluated_rounds):
    # Each round's participants choose once; the last report's all-client
    # loss and the final assignment share one more choice per client.
    # An evaluation on the last round (eval_every 3) is that same choice.
    # Each route is one batch call.
    calls, batches = [], []
    choose = FederatedClient.choose_cluster_batch

    def counted(handles, spec, models):
        calls.extend(h.client_id for h in handles)
        batches.append(len(handles))
        return choose(handles, spec, models)

    monkeypatch.setattr(FederatedClient, "choose_cluster_batch", staticmethod(counted))
    clients = population_clients(n_clients=4, days=7, seed=1)
    result = run_training(
        clients,
        population_spec(),
        sgd_config(rounds=3, eval_every=eval_every),
        mode="ifca",
        cluster=ClusterConfig(mode="ifca", k=2),
    )
    assert len(result.reports) == 3
    assert len(calls) == 4 * (3 + evaluated_rounds + 1)
    assert batches == [4] * (3 + evaluated_rounds + 1)


def test_hc_tau_extremes_control_cluster_count():
    clients = population_clients(n_clients=4, days=7, seed=2)
    spec = population_spec()
    single = run_training(
        clients,
        spec,
        sgd_config(rounds=3),
        mode="hc",
        cluster=ClusterConfig(mode="hc", tau=1e9, warmup=1),
    )
    assert single.reports[-1].n_clusters == 1
    singletons = run_training(
        clients,
        spec,
        sgd_config(rounds=3),
        mode="hc",
        cluster=ClusterConfig(mode="hc", tau=1e-12, warmup=1),
    )
    assert singletons.reports[-1].n_clusters == 4
    # one-shot: the assignment set in round 2 persists through round 3
    assert singletons.reports[1].assignment == singletons.reports[2].assignment
    assert singletons.assignment == singletons.reports[-1].assignment


def test_hc_warmup_rounds_are_global():
    clients = population_clients(n_clients=4, days=7, seed=2)
    result = run_training(
        clients,
        population_spec(),
        sgd_config(rounds=2),
        mode="hc",
        cluster=ClusterConfig(mode="hc", tau=0.5, warmup=5),
    )
    # training ended inside the warm-up window: still one model, no assignment
    assert all(r.n_clusters == 1 for r in result.reports)
    assert len(result.models) == 1


def test_patience_two_constant_val_stops_after_round_three():
    clients = population_clients(n_clients=3, days=7, seed=0)
    config = sgd_config(rounds=50, local_epochs=0, early_stop_patience=2)
    result = run_training(clients, population_spec(), config)
    assert len(result.reports) == 3


def test_all_client_val_attached_every_eval_and_at_end():
    clients = population_clients(n_clients=3, days=7, seed=0)
    result = run_training(
        clients, population_spec(), sgd_config(rounds=5, eval_every=2)
    )
    flags = [r.all_client_val_loss is not None for r in result.reports]
    assert flags == [False, True, False, True, True]


def test_divergent_run_raises_numeric_error_naming_round():
    clients = population_clients(n_clients=3, days=7, seed=0)
    config = sgd_config(rounds=200, optimizer=OptimizerConfig(kind="sgd", lr=1e4))
    with pytest.raises(NumericError) as err:
        run_training(clients, population_spec(), config)
    assert "round" in str(err.value)


def test_run_twice_identical_serialization():
    clients = population_clients(n_clients=4, days=7, seed=5)
    spec = population_spec()
    config = sgd_config(rounds=4, participation=0.75, seed=9)
    a = run_training(clients, spec, config)
    b = run_training(clients, spec, config)
    assert to_json_text(run_result_json_obj(a)) == to_json_text(run_result_json_obj(b))


def test_round_csv_rows_shape():
    clients = population_clients(n_clients=3, days=7, seed=0)
    result = run_training(clients, population_spec(), sgd_config(rounds=3))
    rows = round_csv_rows(result)
    assert len(rows) == 3
    assert len(ROUND_CSV_HEADER) == 6
    assert [r[0] for r in rows] == [1, 2, 3]
    assert all(len(r) == len(ROUND_CSV_HEADER) for r in rows)


def test_rounds_to_best_val_first_minimum():
    clients = population_clients(n_clients=3, days=7, seed=0)
    result = run_training(clients, population_spec(), sgd_config(rounds=6))
    losses = [r.val_loss for r in result.reports]
    assert result.rounds_to_best_val == int(np.argmin(losses)) + 1
    tied = replace(result, reports=tuple(replace(r, val_loss=1.0) for r in result.reports[1:]))
    assert tied.rounds_to_best_val == 2


# --------------------------------------------------------------- identities


def test_single_client_federation_equals_local_training():
    clients = population_clients(n_clients=1, archetypes=1, days=10, seed=4)
    spec = population_spec()
    config = sgd_config(rounds=8, local_epochs=2, batch_size=16, seed=3)
    fed = run_training(clients, spec, config)
    init = init_params(spec, derive_seed(config.seed, "init", 0))
    local_params = train_local(clients, init, config)[0][clients[0].client_id]
    fed_values = fed.models[0].values
    rel = np.linalg.norm(fed_values - local_params.values) / max(
        1.0, np.linalg.norm(local_params.values)
    )
    assert rel <= 1e-12


def test_one_round_equals_pooled_gradient_step():
    # With E=1, full batch, and one shared scaler, FedAvg's weighted mean of
    # per-client gradient steps is exactly one gradient step on the pooled
    # training set (the classical reduction).
    datasets = [
        synthetic_linear_client(f"c{i}", [0.6, -0.2], 0.4, 60 + 10 * i, 0.05, seed=i)
        for i in range(3)
    ]
    from fedforecast.data import Scaler

    shared = Scaler(mean=1.0, std=0.5)
    lag, horizon = 2, 1
    splits = [
        prepare_client(ds, lag, horizon, value_scaler=shared) for ds in datasets
    ]
    clients = [FederatedClient(s) for s in splits]
    spec = ModelSpec(kind="linear", input_dim=lag, horizon=horizon)
    lr = 0.1
    config = FLConfig(
        rounds=1,
        local_epochs=1,
        batch_size=0,
        optimizer=OptimizerConfig(kind="sgd", lr=lr),
        seed=21,
    )
    fed = run_training(clients, spec, config)

    init = init_params(spec, derive_seed(config.seed, "init", 0))
    pooled_inputs = np.vstack([s.train.inputs for s in splits])
    pooled_targets = np.vstack([s.train.targets for s in splits])
    _, grad = loss_and_grad(init, pooled_inputs, pooled_targets)
    expected = init.values - lr * grad
    assert np.linalg.norm(fed.models[0].values - expected) <= 1e-9


# Metamorphic identities: each pair of runs must agree bit for bit on the
# models, the per-round losses and the byte totals. assignment and mode
# legitimately differ between the modes, so they are not compared.
IDENTITY_CONFIGS = {
    "full": dict(rounds=6),
    "sampled_dp": dict(
        rounds=6, participation=0.5, dp=DpConfig(clip_norm=0.5, sigma=0.3)
    ),
    "minibatch": dict(rounds=6, local_epochs=2, batch_size=16),
}


def assert_same_training(a, b):
    assert len(a.models) == len(b.models)
    for ma, mb in zip(a.models, b.models):
        assert ma.values.tobytes() == mb.values.tobytes()
    assert [r.val_loss for r in a.reports] == [r.val_loss for r in b.reports]
    assert [r.train_losses for r in a.reports] == [r.train_losses for r in b.reports]
    assert a.bytes_up_total == b.bytes_up_total
    assert a.bytes_down_total == b.bytes_down_total


@pytest.mark.parametrize("name", sorted(IDENTITY_CONFIGS))
def test_ifca_with_one_model_equals_fedavg(name):
    clients = population_clients(n_clients=6, archetypes=2, days=10, seed=1)
    config = sgd_config(**IDENTITY_CONFIGS[name])
    fedavg = run_training(clients, population_spec(), config)
    ifca = run_training(
        clients, population_spec(), config, mode="ifca",
        cluster=ClusterConfig(mode="ifca", k=1),
    )
    assert_same_training(ifca, fedavg)


@pytest.mark.parametrize("recluster_every", [0, 2])
@pytest.mark.parametrize("name", ["full", "minibatch"])
def test_hc_that_never_splits_equals_fedavg(name, recluster_every):
    clients = population_clients(n_clients=6, archetypes=2, days=10, seed=1)
    config = sgd_config(**IDENTITY_CONFIGS[name])
    fedavg = run_training(clients, population_spec(), config)
    hc = run_training(
        clients, population_spec(), config, mode="hc",
        cluster=ClusterConfig(
            mode="hc", tau=1e9, warmup=2, recluster_every=recluster_every
        ),
    )
    assert_same_training(hc, fedavg)


@pytest.mark.parametrize("mode", ["global", "hc", "ifca"])
def test_client_input_order_is_irrelevant(mode):
    clients = population_clients(n_clients=6, archetypes=2, days=10, seed=1)
    config = sgd_config(rounds=6, participation=0.5)
    cluster = ClusterConfig(mode=mode, tau=0.05, warmup=2, k=2, recluster_every=2)
    forward = run_training(clients, population_spec(), config, mode, cluster)
    backward = run_training(clients[::-1], population_spec(), config, mode, cluster)
    if mode == "hc":
        assert max(r.n_clusters for r in forward.reports) > 1
    assert_same_training(forward, backward)
    assert to_json_text(run_result_json_obj(forward)) == to_json_text(
        run_result_json_obj(backward)
    )


# ------------------------------------------------------------- api surface


# Server entry points that take a C x P or K x P parameter stack, and the
# argument that holds it: models and updates are params, not samples, so
# these may be arrays.
PARAMETER_STACKS = {
    ("fedavg_aggregate", "values"),
    ("fedavg_aggregate", "prior"),
    ("_per_client", "values"),
    ("_one", "row"),
    ("_val_loss", "values"),
}


def test_server_api_never_accepts_raw_samples():
    # Server-side entry points must consume client handles, parameter stacks
    # and counts, never supervised sample arrays: raw data stays client-side.
    server_entry_points = [
        fedcore.fedavg_aggregate,
        fedcore.run_round,
        fedcore._route,
        fedcore._routed_round,
        fedcore._per_client,
        fedcore._one,
        fedcore._val_loss,
        fedcore.personalize,
        fedcore.run_training,
        fedcore.select_participants,
    ]
    for fn in server_entry_points:
        for name, param in inspect.signature(fn).parameters.items():
            annotation = str(param.annotation)
            assert "SupervisedSet" not in annotation, f"{fn.__name__}({name})"
            if (fn.__name__, name) not in PARAMETER_STACKS:
                assert "ndarray" not in annotation, f"{fn.__name__}({name})"
    for fn_name, name in PARAMETER_STACKS:
        assert "ndarray" in str(inspect.signature(getattr(fedcore, fn_name)).parameters[name].annotation)


def store_arrays(clients):
    """Every sample array of the handles' stores."""
    return [a for c in clients for pair in c._store.values() for a in pair]


@pytest.mark.parametrize("mode", ["hc", "ifca"])
def test_no_fedcore_call_is_given_a_view_of_client_samples(mode):
    # Behavioural side of the boundary: under sys.setprofile, every argument
    # of every call of a fedcore function (an array, or an array held by a
    # container or by ModelParams) shares no memory with a handle's samples.
    datasets = generate_population(PopulationSpec(n_clients=6, archetypes=2, days=7, seed=2))
    clients = FederatedClient.fleet(datasets, 6, 1)
    samples = store_arrays(clients)
    checked = []

    def arrays(value):
        if isinstance(value, ModelParams):
            value = value.values
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (list, tuple)):
            for item in value:
                yield from arrays(item)
        elif isinstance(value, dict):
            for item in value.values():
                yield from arrays(item)

    def profile(frame, event, arg):
        if event != "call" or frame.f_globals.get("__name__") != "fedforecast.fedcore":
            return
        code = frame.f_code
        names = code.co_varnames[: code.co_argcount + code.co_kwonlyargcount + bool(code.co_flags & 4)]
        for name in names:
            for array in arrays(frame.f_locals.get(name)):
                checked.append(code.co_name)
                for sample in samples:
                    assert not np.shares_memory(array, sample), (code.co_name, name)

    cluster = ClusterConfig(mode=mode, tau=0.05, warmup=1, k=2, recluster_every=1)
    sys.setprofile(profile)
    try:
        run_training(clients, population_spec(), sgd_config(rounds=3), mode, cluster)
    finally:
        sys.setprofile(None)
    assert {"fedavg_aggregate", "_per_client", "_val_loss"} <= set(checked)


def test_client_handle_exposes_no_raw_arrays():
    client = population_clients(n_clients=1, archetypes=1, days=7)[0]
    for name in dir(client):
        if name.startswith("_"):
            continue
        member = inspect.getattr_static(type(client), name, None)
        if member is None:
            value = getattr(client, name)
            assert not isinstance(value, (np.ndarray, SupervisedSet)), name
        elif isinstance(member, property):
            value = getattr(client, name)
            assert not isinstance(value, (np.ndarray, SupervisedSet)), name


def test_client_update_carries_only_params_and_scalars():
    client = population_clients(n_clients=1, archetypes=1, days=7)[0]
    out = client.local_update(
        init_params(population_spec(), 0), sgd_config(rounds=1), round_index=1
    )
    assert isinstance(out.new_params, ModelParams)
    assert isinstance(out.n_samples, int)
    assert isinstance(out.train_loss, float)
    assert isinstance(out.client_id, str)


def test_local_update_batch_takes_handles_and_returns_only_updates():
    # The batch takes handles and a C x P stack of broadcast params, and
    # returns only what updates carry: the C x P new params, the C sample
    # counts and the C train losses, row i being handles[i]'s update alone.
    batch = FederatedClient.local_update_batch
    params = inspect.signature(batch).parameters
    assert list(params) == ["handles", "spec", "values", "config", "round_index"]
    for name, param in params.items():
        annotation = str(param.annotation)
        assert "SupervisedSet" not in annotation, name
        assert "ndarray" not in annotation or name == "values", name
    assert "SupervisedSet" not in str(inspect.signature(batch).return_annotation)
    clients = population_clients(n_clients=3, days=7)[::-1]
    spec = population_spec()
    values = np.stack([init_params(spec, j).values for j in range(3)])
    new, counts, losses = batch(clients, spec, values, sgd_config(), 1)
    assert new.shape == values.shape and counts.shape == losses.shape == (3,)
    for i, client in enumerate(clients):
        update = client.local_update(ModelParams(spec, values[i]), sgd_config(), 1)
        assert new[i].tobytes() == update.new_params.values.tobytes()
        assert (counts[i], losses[i]) == (update.n_samples, update.train_loss) == (
            client.n_train_samples, update.train_loss
        )


BATCH_METHODS = {
    "val_loss_batch": (["handles", "spec", "values"], ()),
    "fine_tune_batch": (["handles", "spec", "values", "epochs", "lr"], (3, 0.1)),
    "choose_cluster_batch": (["handles", "spec", "models"], ()),
}


@pytest.mark.parametrize("method", sorted(BATCH_METHODS))
def test_batch_methods_take_handles_and_params_and_return_only_scalars_or_params(method):
    names, args = BATCH_METHODS[method]
    assert isinstance(inspect.getattr_static(FederatedClient, method), staticmethod)
    batch = getattr(FederatedClient, method)
    params = inspect.signature(batch).parameters
    assert list(params) == names
    for name, param in params.items():
        annotation = str(param.annotation)
        assert "SupervisedSet" not in annotation, name
        # Only the parameter stack may be an array.
        assert "ndarray" not in annotation or name == names[2], name
    assert "SupervisedSet" not in str(inspect.signature(batch).return_annotation)
    clients = population_clients(n_clients=3, days=7)
    spec = population_spec()
    models = np.stack([init_params(spec, j).values for j in range(3)])
    # choose_cluster_batch takes each handle's K models.
    stack = np.broadcast_to(models, (3, *models.shape)) if names[2] == "models" else models
    out = batch(clients[::-1], spec, stack, *args)
    # One entry per handle: a scalar, or one row of params.
    for column in out if isinstance(out, tuple) else (out,):
        assert column.shape in ((3,), (3, spec.param_count)), column.shape


# ------------------------------------------------------- mixed federations


class RecordingClient(FederatedClient):
    """Overrides local_update, val_loss, choose_cluster and fine_tune, so
    the engine calls them on its own handle."""

    def __init__(self, splits):
        super().__init__(splits)
        self.rounds = []
        self.val_losses = 0
        self.choices = 0
        self.fine_tunes = 0

    def local_update(self, broadcast, config, round_index):
        update = super().local_update(broadcast, config, round_index)
        self.rounds.append(round_index)
        return update

    def val_loss(self, params):
        self.val_losses += 1
        return super().val_loss(params)

    def choose_cluster(self, models):
        self.choices += 1
        return super().choose_cluster(models)

    def fine_tune(self, params, epochs, lr):
        self.fine_tunes += 1
        return super().fine_tune(params, epochs, lr)


def final_models(result, clients):
    """Each client's model at the end of a run, by id."""
    if result.cluster.mode == "global":
        return {c.client_id: result.models[0] for c in clients}
    return {cid: result.models[j] for cid, j in result.assignment.items()}


@pytest.mark.parametrize("mode", ["global", "hc", "ifca"])
def test_mixed_federation_equals_all_plain(mode):
    datasets = generate_population(PopulationSpec(n_clients=6, archetypes=2, days=10, seed=1))
    splits = [prepare_client(ds, 6, 1) for ds in datasets]
    plain = [FederatedClient(s) for s in splits]
    mixed = [RecordingClient(s) if i % 2 else FederatedClient(s) for i, s in enumerate(splits)]
    for method in ("local_update", "val_loss", "choose_cluster", "fine_tune"):
        assert fedcore._batch_owner(RecordingClient, method) is None
        assert fedcore._batch_owner(FederatedClient, method) is FederatedClient
    config = sgd_config(**IDENTITY_CONFIGS["sampled_dp"])
    cluster = ClusterConfig(mode=mode, tau=0.05, warmup=2, k=2, recluster_every=2)
    want = run_training(plain, population_spec(), config, mode, cluster)
    got = run_training(mixed, population_spec(), config, mode, cluster)
    assert_same_training(got, want)
    assert to_json_text(run_result_json_obj(got)) == to_json_text(run_result_json_obj(want))
    evaluations = sum(r.all_client_val_loss is not None for r in got.reports)
    for client in mixed[1::2]:
        joined = [r.round_index for r in got.reports if client.client_id in r.participants]
        assert client.rounds == joined and joined
        assert client.val_losses == len(joined) + evaluations
        assert client.choices == (len(joined) + evaluations if mode == "ifca" else 0)
    tuned = fedcore.personalize(mixed, final_models(got, mixed), 3, 0.05)
    plain_tuned = fedcore.personalize(plain, final_models(want, plain), 3, 0.05)
    assert list(tuned) == list(plain_tuned) == [c.client_id for c in mixed]
    assert [m.values.tobytes() for m in tuned.values()] == [
        m.values.tobytes() for m in plain_tuned.values()
    ]
    assert [c.fine_tunes for c in mixed[1::2]] == [1, 1, 1]


# ----------------------------------------------------------- config checks


def test_mode_config_cross_checks():
    clients = population_clients(n_clients=2, days=7)
    spec = population_spec()
    with pytest.raises(ConfigError):
        run_training(clients, spec, sgd_config(), mode="ifca",
                     cluster=ClusterConfig(mode="ifca", k=0))
    with pytest.raises(ConfigError):
        run_training(clients, spec, sgd_config(), mode="hc",
                     cluster=ClusterConfig(mode="hc", tau=0.0))
    with pytest.raises(ConfigError):
        run_training(clients, spec, sgd_config(), mode="spiral")
