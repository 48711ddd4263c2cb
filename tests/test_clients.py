"""Client-side training: epoch schedules, fine-tuning, local baselines."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import (
    check_rounds_against_reference,
    population_clients,
    population_spec,
    reference_fine_tune,
    reference_local_update,
    reference_routed_round,
    reference_run_epochs,
    reference_train_local,
    same_round,
)
from fedforecast import clients as clients_module
from fedforecast import cluster as cluster_module
from fedforecast import fedcore
from fedforecast.clients import FederatedClient, run_epochs, train_local
from fedforecast.data import (
    ClientDataset,
    CsvSchema,
    SupervisedSet,
    TimeSeries,
    load_csv,
    prepare_client,
    save_csv,
)
from fedforecast.errors import InsufficientDataError, NumericError, ShapeError
from fedforecast.fedcore import ClusterConfig, FLConfig, ServerState, run_training
from fedforecast.model import ModelParams, ModelSpec, init_params, loss, loss_and_grad
from fedforecast.optim import OptimizerConfig
from fedforecast.population import PopulationSpec, generate_population
from fedforecast.privacy import DpConfig
from fedforecast.seeds import rng_for


def config(**kwargs):
    defaults = dict(rounds=3, optimizer=OptimizerConfig(kind="sgd", lr=0.05), seed=1)
    defaults.update(kwargs)
    return FLConfig(**defaults)


def one_client(**kwargs):
    defaults = dict(n_clients=1, archetypes=1, days=10, seed=6)
    defaults.update(kwargs)
    return population_clients(**defaults)[0]


def test_zero_epochs_returns_broadcast_bit_identical():
    client = one_client()
    broadcast = init_params(population_spec(), 0)
    out = client.local_update(broadcast, config(local_epochs=0), round_index=1)
    assert np.array_equal(out.new_params.values, broadcast.values)
    assert out.n_samples == client.n_train_samples


def test_one_full_batch_epoch_is_one_gradient_step():
    client = one_client()
    broadcast = init_params(population_spec(), 0)
    lr = 0.07
    cfg = config(local_epochs=1, batch_size=0, optimizer=OptimizerConfig(kind="sgd", lr=lr))
    out = client.local_update(broadcast, cfg, round_index=2)
    # oracle: recompute the full-batch analytic gradient on this client's
    # training split, reached through the public update delta
    train_loss, grad = _full_batch_oracle(client, broadcast)
    np.testing.assert_allclose(
        out.new_params.values, broadcast.values - lr * grad, atol=1e-12
    )
    assert out.train_loss == pytest.approx(train_loss)


def _full_batch_oracle(client, broadcast):
    # The oracle intentionally reaches into the private split: tests verify
    # the engine's arithmetic, not its privacy conventions.
    split = client._train
    return loss_and_grad(broadcast, split.inputs, split.targets)


def test_local_update_deterministic():
    client = one_client()
    broadcast = init_params(population_spec(), 3)
    cfg = config(local_epochs=3, batch_size=8)
    a = client.local_update(broadcast, cfg, round_index=5)
    b = client.local_update(broadcast, cfg, round_index=5)
    c = client.local_update(broadcast, cfg, round_index=6)
    assert np.array_equal(a.new_params.values, b.new_params.values)
    assert not np.array_equal(a.new_params.values, c.new_params.values)


def test_minibatches_cover_all_samples():
    # Minibatch training with B >= n collapses to the full-batch path.
    client = one_client()
    broadcast = init_params(population_spec(), 0)
    big_b = config(local_epochs=1, batch_size=10_000)
    full = config(local_epochs=1, batch_size=0)
    a = client.local_update(broadcast, big_b, round_index=1)
    b = client.local_update(broadcast, full, round_index=1)
    assert np.array_equal(a.new_params.values, b.new_params.values)


def test_active_dp_perturbs_update():
    client = one_client()
    broadcast = init_params(population_spec(), 0)
    plain = client.local_update(broadcast, config(local_epochs=1), round_index=1)
    noisy = client.local_update(
        broadcast,
        config(local_epochs=1, dp=DpConfig(clip_norm=1.0, sigma=0.5)),
        round_index=1,
    )
    assert not np.array_equal(plain.new_params.values, noisy.new_params.values)


def test_dp_clip_bounds_update_delta():
    client = one_client()
    broadcast = init_params(population_spec(), 0)
    c = 1e-3
    out = client.local_update(
        broadcast,
        config(local_epochs=5, dp=DpConfig(clip_norm=c, sigma=0.0)),
        round_index=1,
    )
    delta = out.new_params.values - broadcast.values
    assert np.linalg.norm(delta) <= c + 1e-9


# ---------------------------------------------------------------- fine-tune


def test_fine_tune_zero_epochs_identity():
    client = one_client()
    params = init_params(population_spec(), 0)
    out = client.fine_tune(params, epochs=0, lr=0.1)
    assert np.array_equal(out.values, params.values)


def test_fine_tune_loss_never_increases():
    client = one_client()
    params = init_params(population_spec(), 0)
    split = client._train
    losses = [loss(params, split.inputs, split.targets)]
    current = params
    for _ in range(6):
        current = client.fine_tune(current, epochs=1, lr=0.5)
        losses.append(loss(current, split.inputs, split.targets))
    for before, after in zip(losses, losses[1:]):
        assert after <= before + 1e-15


def test_fine_tune_backtracks_huge_lr():
    # An absurd step size must not blow the loss up; backtracking halves it.
    client = one_client()
    params = init_params(population_spec(), 0)
    split = client._train
    before = loss(params, split.inputs, split.targets)
    after = loss(
        client.fine_tune(params, epochs=3, lr=1e6), split.inputs, split.targets
    )
    assert after <= before + 1e-15


def test_fine_tune_diverges_across_disjoint_clients():
    clients = population_clients(n_clients=2, archetypes=2, days=10, seed=8)
    shared = init_params(population_spec(), 0)
    a = clients[0].fine_tune(shared, epochs=5, lr=0.1)
    b = clients[1].fine_tune(shared, epochs=5, lr=0.1)
    assert not np.array_equal(a.values, b.values)


@pytest.mark.parametrize("epochs", [0, 1])
def test_fine_tune_needs_samples(epochs):
    client = FederatedClient(replace(population_splits(2)[0], train=_EmptySplit()))
    params = init_params(population_spec(), 0)
    with pytest.raises(InsufficientDataError, match="^fine_tune needs training samples$"):
        client.fine_tune(params, epochs=epochs, lr=0.1)


class _EmptySplit:
    inputs = np.empty((0, 3))
    targets = np.empty((0, 1))
    sample_timestamps = np.empty(0, dtype=np.int64)
    n_samples = 0


# The split each client computation reads; train_local reads both.
READS = {
    "local_update": ("train",),
    "val_loss": ("val",),
    "choose_cluster": ("train",),
    "train_local": ("train", "val"),
}


@pytest.mark.parametrize("split", ["train", "val"])
@pytest.mark.parametrize("method", list(READS))
def test_an_empty_split_is_insufficient_data(split, method):
    splits = population_splits(2)[0]
    client = FederatedClient(replace(splits, **{split: _EmptySplit()}))
    params = init_params(population_spec(), 0)
    calls = {
        "local_update": lambda: client.local_update(params, config(), 1),
        "val_loss": lambda: client.val_loss(params),
        "choose_cluster": lambda: client.choose_cluster([params]),
        "train_local": lambda: train_local([client], params, config(rounds=2)),
    }
    if split not in READS[method]:
        calls[method]()
        return
    message = f"^client {splits.client_id} has no {split} samples$"
    with pytest.raises(InsufficientDataError, match=message):
        calls[method]()


# -------------------------------------------------------------- local runs


def test_train_local_trace_and_best_round():
    client = one_client()
    cfg = config(rounds=6)
    init = init_params(population_spec(), 0)
    models, traces = train_local([client], init, cfg)
    params, trace = models[client.client_id], traces[client.client_id]
    assert type(trace) is tuple and len(trace) == 6
    assert all(type(v) is float for v in trace)
    assert not np.array_equal(params.values, init.values)


def test_train_local_early_stops():
    client = one_client()
    cfg = config(rounds=50, local_epochs=0, early_stop_patience=2)
    _, traces = train_local([client], init_params(population_spec(), 0), cfg)
    assert len(traces[client.client_id]) == 3


def test_train_local_divergence_names_client_and_round():
    client = one_client()
    cfg = config(rounds=50, optimizer=OptimizerConfig(kind="sgd", lr=1e4))
    with pytest.raises(NumericError, match=rf"round \d+: client {client.client_id} "):
        train_local([client], init_params(population_spec(), 0), cfg)


# ------------------------------------- the stacked kernel against its oracle
#
# The references in helpers.py train one client at a time, one validated
# ModelParams and one gathered batch per step. The kernel must reproduce
# them bitwise, on stacks, in lockstep and as a stack of one.

LAG, HORIZON = 6, 2
MODELS = {"linear": 0, "mlp": 4}
OPTIMIZERS = {
    # Step sizes large enough that validation losses wobble, so clients
    # under patience 2 stop at different rounds, stack mates included.
    "sgd": OptimizerConfig(kind="sgd", lr=0.5),
    "momentum": OptimizerConfig(kind="momentum", lr=0.2, beta=0.9),
}
DPS = {
    "dp-off": None,
    "clip": DpConfig(clip_norm=0.1),
    "clip-noise": DpConfig(clip_norm=0.1, sigma=0.5),
}


@pytest.fixture(scope="module")
def staggered_datasets(tmp_path_factory):
    """Ingested meters that start at different hours: their series lengths,
    and so their (train, validation) sample counts, form two stacks of two
    and two of one."""
    datasets = generate_population(PopulationSpec(n_clients=6, archetypes=3, days=8, seed=2))
    cut = []
    for ds, start in zip(datasets, (0, 0, 24, 24, 48, 5)):
        series = TimeSeries(ds.series.start_epoch_hours + start, ds.series.values[start:])
        covariates = {name: cov[start:] for name, cov in ds.covariates.items()}
        cut.append(ClientDataset(ds.client_id, series, covariates))
    path = str(tmp_path_factory.mktemp("staggered") / "meters.csv")
    save_csv(cut, path)
    schema = CsvSchema(covariates={name: name for name in datasets[0].covariates})
    return load_csv(path, schema)


@pytest.fixture(scope="module")
def staggered(staggered_datasets):
    """Handles over the staggered meters, one store per series length."""
    return FederatedClient.fleet(staggered_datasets, LAG, HORIZON)


def matrix_config(optimizer, batch_size, dp, local_epochs, patience=0):
    return FLConfig(
        rounds=6,
        local_epochs=local_epochs,
        batch_size=batch_size,
        optimizer=OPTIMIZERS[optimizer],
        dp=DPS[dp],
        early_stop_patience=patience,
        seed=4,
    )


def matrix_spec(kind):
    return population_spec(lag=LAG, horizon=HORIZON, kind=kind, hidden=MODELS[kind])


kinds = pytest.mark.parametrize("kind", list(MODELS))
batches = pytest.mark.parametrize("batch_size", [0, 16], ids=["full", "minibatch"])
optimizers = pytest.mark.parametrize("optimizer", list(OPTIMIZERS))
dps = pytest.mark.parametrize("dp", list(DPS))
epochs = pytest.mark.parametrize("local_epochs", [0, 1, 2], ids=lambda e: f"E{e}")


@kinds
@batches
@optimizers
@pytest.mark.parametrize("local_epochs", [1, 2], ids=lambda e: f"E{e}")
def test_kernel_stack_equals_each_model_alone(staggered, kind, batch_size, optimizer, local_epochs):
    spec = matrix_spec(kind)
    cfg = matrix_config(optimizer, batch_size, "dp-off", local_epochs)
    pair = staggered[:2]
    assert pair[0].n_train_samples == pair[1].n_train_samples
    values = np.stack([init_params(spec, seed).values for seed in (1, 2)])
    streams = [(c.client_id, 3) for c in pair]
    out, losses = run_epochs(
        values,
        np.stack([c._train.inputs for c in pair]),
        np.stack([c._train.targets for c in pair]),
        spec,
        cfg,
        streams,
    )
    for i, client in enumerate(pair):
        want, want_loss = reference_run_epochs(
            values[i], client._train.inputs, client._train.targets, spec, cfg, streams[i]
        )
        assert np.array_equal(out[i], want)
        assert losses[i] == want_loss


@kinds
def test_momentum_is_sgd_for_one_full_batch_epoch(staggered, kind):
    # run_epochs starts every call at zero velocity, so its first full-batch
    # step is p - lr*(beta*0 + g): SGD's, bitwise. The second step differs.
    spec = matrix_spec(kind)
    pair = staggered[:2]
    values = np.stack([init_params(spec, seed).values for seed in (1, 2)])
    x = np.stack([c._train.inputs for c in pair])
    y = np.stack([c._train.targets for c in pair])
    streams = [(c.client_id, 3) for c in pair]

    def trained(optimizer, local_epochs):
        cfg = FLConfig(rounds=1, local_epochs=local_epochs, batch_size=0, optimizer=optimizer)
        return run_epochs(values, x, y, spec, cfg, streams)[0]

    sgd = OptimizerConfig(kind="sgd", lr=0.2)
    momentum = OptimizerConfig(kind="momentum", lr=0.2, beta=0.9)
    assert trained(momentum, 1).tobytes() == trained(sgd, 1).tobytes()
    assert not np.array_equal(trained(momentum, 2), trained(sgd, 2))


@kinds
@batches
@optimizers
@dps
@epochs
def test_local_update_equals_reference(staggered, kind, batch_size, optimizer, dp, local_epochs):
    spec = matrix_spec(kind)
    cfg = matrix_config(optimizer, batch_size, dp, local_epochs)
    broadcast = init_params(spec, 5)
    for client in staggered:
        got = client.local_update(broadcast, cfg, round_index=2)
        want = reference_local_update(client._train, broadcast, cfg, 2, client.client_id)
        assert np.array_equal(got.new_params.values, want.new_params.values)
        assert got.train_loss == want.train_loss
        assert got.n_samples == want.n_samples


@kinds
@batches
@optimizers
@dps
@epochs
@pytest.mark.parametrize("patience", [0, 2], ids=lambda p: f"patience{p}")
def test_lockstep_train_local_equals_one_client_at_a_time(
    staggered, kind, batch_size, optimizer, dp, local_epochs, patience
):
    spec = matrix_spec(kind)
    cfg = matrix_config(optimizer, batch_size, dp, local_epochs, patience)
    init = init_params(spec, 1)
    models, traces = train_local(staggered, init, cfg)
    assert list(models) == list(traces) == [c.client_id for c in staggered]
    for client in staggered:
        want_params, want_trace = reference_train_local(client, init, cfg)
        assert np.array_equal(models[client.client_id].values, want_params.values)
        assert traces[client.client_id] == want_trace


@pytest.mark.parametrize("patience", [0, 2], ids=lambda p: f"patience{p}")
def test_lockstep_gathers_a_stack_again_only_after_a_handle_left(staggered, monkeypatch, patience):
    gathered = []
    stacks = clients_module._stacks

    def recorded(handles, split, *args):
        gathered.append((tuple(h.client_id for h in handles), split))
        return stacks(handles, split, *args)

    monkeypatch.setattr(clients_module, "_stacks", recorded)
    cfg = matrix_config("momentum", 16, "dp-off", 1, patience)
    _, traces = train_local(staggered, init_params(matrix_spec("mlp"), 1), cfg)
    # The stacks of every handle before round 1, then after round r those of
    # the handles left, when some left in round r and some are left.
    lives = [tuple(c.client_id for c in staggered)]
    for r in range(1, cfg.rounds):
        left = tuple(cid for cid in lives[0] if len(traces[cid]) > r)
        if 0 < len(left) < sum(len(traces[cid]) >= r for cid in lives[0]):
            lives.append(left)
    assert gathered == [(ids, split) for ids in lives for split in ("train", "val")]
    assert (len(lives) > 1) == (patience > 0)


def test_train_local_privatizes_all_stacks_of_a_round_in_one_call(staggered, monkeypatch):
    privatized = []
    privatize_rows = clients_module.privatize_rows

    def counted(deltas, *args):
        privatized.append(len(deltas))
        return privatize_rows(deltas, *args)

    monkeypatch.setattr(clients_module, "privatize_rows", counted)
    cfg = matrix_config("sgd", 0, "clip-noise", 1)
    train_local(staggered, init_params(matrix_spec("linear"), 1), cfg)
    # Four stacks, one call per round over all six clients.
    assert privatized == [len(staggered)] * cfg.rounds


def test_oracle_matrix_has_buckets_and_staggered_stops(staggered):
    counts = [(c.n_train_samples, c.n_val_samples) for c in staggered]
    stacks = [counts.count(key) for key in dict.fromkeys(counts)]
    assert sum(size > 1 for size in stacks) >= 2
    cfg = matrix_config("momentum", 16, "dp-off", 1, patience=2)
    _, traces = train_local(staggered, init_params(matrix_spec("mlp"), 1), cfg)
    lengths = [len(t) for t in traces.values()]
    # Both two-client stacks lose one client before the other.
    assert lengths[0] != lengths[1] and lengths[2] != lengths[3]


def _diverging_clients():
    """c002's smooth series diverges before c001's at a large step size;
    c000's white noise does not diverge within the run."""
    rng = np.random.default_rng(0)
    t = np.arange(200.0)
    series = {
        "c000": rng.normal(size=200),
        "c001": np.sin(t / 6) + 0.3 * rng.normal(size=200),
        "c002": np.sin(t / 24) + 0.01 * rng.normal(size=200),
    }
    return [
        FederatedClient(prepare_client(ClientDataset(cid, TimeSeries(0, v)), LAG, 1))
        for cid, v in series.items()
    ]


def _raised(fn, *args):
    with pytest.raises(NumericError) as info:
        fn(*args)
    return info.value


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "lr, local_epochs, first",
    [(10.0, 1, "round 78: client c001 validation loss"), (1e308, 2, "parameter vector")],
    ids=["val-loss", "params"],
)
def test_lockstep_divergence_raises_the_sequential_error(lr, local_epochs, first):
    clients = _diverging_clients()
    spec = ModelSpec("linear", LAG, 1)
    cfg = FLConfig(
        rounds=80,
        local_epochs=local_epochs,
        optimizer=OptimizerConfig(kind="sgd", lr=lr),
        seed=1,
    )
    init = init_params(spec, 0)
    if lr == 10.0:
        # The later client diverges in an earlier round than c001.
        late = _raised(reference_train_local, clients[2], init, cfg)
        assert str(late).startswith("round 74: client c002 ")

    def one_after_another():
        for client in clients:
            reference_train_local(client, init, cfg)

    want = _raised(one_after_another)
    got = _raised(train_local, clients, init, cfg)
    assert str(want).startswith(first)
    assert (type(got), str(got)) == (type(want), str(want))


# ------------------------------- batched engine rounds against the reference
#
# fedcore trains plain handles through FederatedClient.local_update_batch;
# helpers.reference_routed_round calls local_update on each handle instead.


@pytest.mark.parametrize("mode", ["global", "hc", "ifca"])
def test_engine_rounds_on_staggered_clients_equal_the_reference(staggered, monkeypatch, mode):
    counts = [c.n_train_samples for c in staggered]
    # Several buckets, two of them with more than one client.
    assert sum(counts.count(n) > 1 for n in set(counts)) >= 2
    checked = check_rounds_against_reference(monkeypatch)
    cfg = matrix_config("momentum", 16, "clip-noise", 2)
    cluster = ClusterConfig(mode=mode, tau=0.05, warmup=2, k=2, recluster_every=2)
    result = run_training(staggered, matrix_spec("mlp"), cfg, mode, cluster)
    assert checked == [r.round_index for r in result.reports] == list(range(1, 7))


def test_bucket_over_the_byte_budget_trains_as_several_stacks(monkeypatch):
    clients = population_clients(n_clients=5, days=7, seed=3)
    train = clients[0]._train
    monkeypatch.setattr(
        clients_module, "STACK_BYTES", 2 * (train.inputs.nbytes + train.targets.nbytes)
    )
    stack_sizes = []
    kernel = clients_module.run_epochs

    def counted(values, *args):
        stack_sizes.append(values.shape[0])
        return kernel(values, *args)

    monkeypatch.setattr(clients_module, "run_epochs", counted)
    checked = check_rounds_against_reference(monkeypatch)
    cfg = config(rounds=2, batch_size=8, local_epochs=2, dp=DpConfig(clip_norm=0.1, sigma=0.5))
    run_training(clients, population_spec(), cfg)
    assert checked == [1, 2]
    # Per round: the batched round's stacks, then the reference's five calls.
    assert stack_sizes == [2, 2, 1, 1, 1, 1, 1, 1] * 2


def recorded_stack_sizes(monkeypatch, module, name, position):
    """Make ``module.<name>`` record the length of its argument at
    ``position`` (a stack's rows) on every call; returns the record."""
    sizes = []
    fn = getattr(module, name)

    def recorded(*args):
        sizes.append(len(args[position]))
        return fn(*args)

    monkeypatch.setattr(module, name, recorded)
    return sizes


def two_rows_of_bytes(monkeypatch, handle, split="train"):
    """Set STACK_BYTES to two rows of ``handle``'s samples of ``split``."""
    samples = getattr(handle, f"_{split}")
    monkeypatch.setattr(
        clients_module, "STACK_BYTES", 2 * (samples.inputs.nbytes + samples.targets.nbytes)
    )


# Store row orders of twelve clients: in id order the engine's stack is a
# view of the store, in the other orders a gather.
STORE_ORDERS = {
    "views": list(range(12)),
    "reversed": list(range(12))[::-1],
    "interleaved": list(range(0, 12, 2)) + list(range(1, 12, 2)),
}


@pytest.mark.parametrize("trainer", ["run_training", "train_local"])
@pytest.mark.parametrize("order", list(STORE_ORDERS))
@pytest.mark.parametrize("batch_size", [0, 8], ids=["full", "minibatch"])
def test_a_round_is_budgeted_by_what_its_stacks_allocate(monkeypatch, order, batch_size, trainer):
    # A view trained in minibatches costs only the minibatch samples of each
    # row, so all twelve rows fit in two rows' bytes; a gather copies whole
    # rows, and a full-batch step touches them, so those take two per stack.
    # An engine round and a lockstep round stack alike.
    datasets = generate_population(PopulationSpec(n_clients=12, archetypes=3, days=5, seed=8))
    handles = FederatedClient.fleet([datasets[i] for i in STORE_ORDERS[order]], LAG, HORIZON)
    assert 12 * 8 <= 2 * handles[0].n_train_samples
    two_rows_of_bytes(monkeypatch, handles[0])
    sizes = recorded_stack_sizes(monkeypatch, clients_module, "run_epochs", 0)
    cfg = replace(matrix_config("momentum", batch_size, "clip-noise", 2), rounds=2)
    batched = [12] if order == "views" and batch_size else [2] * 6
    if trainer == "run_training":
        checked = check_rounds_against_reference(monkeypatch)
        run_training(handles, matrix_spec("mlp"), cfg)
        assert checked == [1, 2]
        # Per round: the batched round's stacks, then the reference's twelve calls.
        assert sizes == (batched + [1] * 12) * 2
        return
    # In id order, as the engine takes them: a view only in the views order.
    in_order = sorted(handles, key=lambda h: h.client_id)
    init = init_params(matrix_spec("mlp"), 1)
    models, traces = train_local(in_order, init, cfg)
    assert sizes == batched * 2
    for client in in_order:
        want_params, want_trace = reference_train_local(client, init, cfg)
        assert np.array_equal(models[client.client_id].values, want_params.values)
        assert traces[client.client_id] == want_trace


@pytest.mark.parametrize("method", ["val_loss_batch", "fine_tune_batch", "choose_cluster_batch"])
def test_full_batch_calls_on_a_view_keep_the_budget(wide, monkeypatch, method):
    two_rows_of_bytes(monkeypatch, wide[0], "val" if method == "val_loss_batch" else "train")
    spec = matrix_spec("mlp")
    models = np.stack([init_params(spec, seed).values for seed in range(2)])
    if method == "val_loss_batch":
        sizes = recorded_stack_sizes(monkeypatch, clients_module, "stack_loss", 1)
        FederatedClient.val_loss_batch(wide, spec, np.tile(models[0], (12, 1)))
    elif method == "fine_tune_batch":
        sizes = recorded_stack_sizes(monkeypatch, clients_module, "_fine_tune_stack", 1)
        FederatedClient.fine_tune_batch(wide, spec, np.tile(models[0], (12, 1)), 1, 0.1)
    else:
        sizes = recorded_stack_sizes(monkeypatch, cluster_module, "ifca_assign", 0)
        FederatedClient.choose_cluster_batch(wide, spec, np.broadcast_to(models, (12, *models.shape)))
    assert sizes == [2] * 6


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("first, second", [("params", "delta"), ("delta", "params")])
def test_batched_round_raises_the_first_failing_participants_error(monkeypatch, first, second):
    # A kernel that makes c001 and c003 fail the given checks: "params"
    # returns non-finite params, "delta" params whose delta from the 1e308
    # broadcast overflows. Each check's text names no client, so the two
    # participants fail different checks, in both orders.
    clients = population_clients(n_clients=4, days=7, seed=0)
    failing = {"c001": first, "c003": second}
    kernel = clients_module.run_epochs

    def diverging(values, inputs, targets, spec, cfg, streams):
        new, losses = kernel(values, inputs, targets, spec, cfg, streams)
        new = new.copy()
        for c, (cid, _) in enumerate(streams):
            if failing.get(cid) == "params":
                new[c] = np.inf
            elif failing.get(cid) == "delta":
                new[c] = -values[c]
        return new, losses

    monkeypatch.setattr(clients_module, "run_epochs", diverging)
    spec = population_spec()
    state = ServerState(
        "ifca", spec, np.stack([init_params(spec, 0).values, np.full(spec.param_count, 1e308)]), {}
    )
    by_id = {c.client_id: c for c in clients}
    route = {cid: int(cid in failing) for cid in sorted(by_id)}
    cfg = config(dp=DpConfig(clip_norm=1.0))
    args = (state, by_id, route, cfg, 1)
    want = _raised(reference_routed_round, *args)
    got = _raised(fedcore._routed_round, *args)
    texts = {"params": "parameter vector contains", "delta": "cannot clip a non-finite"}
    assert str(want).startswith(texts[first])
    assert (type(got), str(got)) == (type(want), str(want))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("diverging", [None, "params", "delta"])
def test_dp_round_over_several_stacks_privatizes_once_as_the_reference(monkeypatch, diverging):
    # Seven participants in stacks of at most two; c004, in the third stack,
    # fails the given check ("params": non-finite params, "delta": a delta
    # from its 1e308 broadcast that overflows) or none.
    clients = population_clients(n_clients=7, days=7, seed=3)
    train = clients[0]._train
    monkeypatch.setattr(
        clients_module, "STACK_BYTES", 2 * (train.inputs.nbytes + train.targets.nbytes)
    )
    kernel = clients_module.run_epochs
    stack_sizes = []

    def kernel_with_divergence(values, inputs, targets, spec, cfg, streams):
        new, losses = kernel(values, inputs, targets, spec, cfg, streams)
        stack_sizes.append(len(streams))
        new = new.copy()
        for c, (cid, _) in enumerate(streams):
            if cid == "c004" and diverging == "params":
                new[c] = np.inf
            elif cid == "c004" and diverging == "delta":
                new[c] = -values[c]
        return new, losses

    monkeypatch.setattr(clients_module, "run_epochs", kernel_with_divergence)
    privatized = []
    privatize_rows = clients_module.privatize_rows

    def counted(deltas, *args):
        privatized.append(len(deltas))
        return privatize_rows(deltas, *args)

    monkeypatch.setattr(clients_module, "privatize_rows", counted)
    spec = population_spec()
    state = ServerState(
        "ifca", spec, np.stack([init_params(spec, 0).values, np.full(spec.param_count, 1e308)]), {}
    )
    by_id = {c.client_id: c for c in clients}
    route = {cid: int(cid == "c004" and diverging == "delta") for cid in sorted(by_id)}
    cfg = config(batch_size=8, local_epochs=2, dp=DpConfig(clip_norm=0.1, sigma=0.5))
    args = (state, by_id, route, cfg, 1)
    if diverging is None:
        got = fedcore._routed_round(*args)
    else:
        got = _raised(fedcore._routed_round, *args)
    # c004's failed row is not privatized.
    assert stack_sizes == [2, 2, 2, 1] and privatized == [7 if diverging is None else 6]
    if diverging is None:
        assert same_round(got, reference_routed_round(*args))
    else:
        want = _raised(reference_routed_round, *args)
        texts = {"params": "parameter vector contains", "delta": "cannot clip a non-finite"}
        assert str(want).startswith(texts[diverging])
        assert (type(got), str(got)) == (type(want), str(want))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("diverging", ["params", "delta"])
def test_lockstep_dp_round_with_a_failing_row_equals_the_reference(staggered, monkeypatch, diverging):
    # c001, in a stack of two, fails the given check in round 2 ("params":
    # non-finite params, "delta": params whose delta from its round-1 params
    # overflows) in the kernel and in the reference alike; the others train
    # on. The first weight of init is 1e308: it saturates a tanh unit, so
    # it takes no gradient and leaves every loss finite, and its negation
    # overflows the delta.
    def diverge(new, values, cid, round_index):
        if cid == "c001" and round_index == 2:
            new[:] = np.inf if diverging == "params" else -values

    kernel = clients_module.run_epochs

    def kernel_with_divergence(values, inputs, targets, spec, cfg, streams):
        new, losses = kernel(values, inputs, targets, spec, cfg, streams)
        new = new.copy()
        for c, labels in enumerate(streams):
            diverge(new[c], values[c], *labels)
        return new, losses

    reference = helpers.reference_run_epochs

    def reference_with_divergence(values, inputs, targets, spec, cfg, labels):
        new, train_loss = reference(values, inputs, targets, spec, cfg, labels)
        diverge(new, values, *labels)
        return new, train_loss

    privatized = []
    rows: dict[str, list[np.ndarray]] = {}  # each client's new params, round by round
    failures: list[list[str]] = []  # the clients each round failed
    privatize_rows, train_round = clients_module.privatize_rows, clients_module._train_round

    def counted(deltas, *args):
        privatized.append(len(deltas))
        return privatize_rows(deltas, *args)

    def recorded(values, stacks, spec, config, round_index, ids):
        new, losses, failed = train_round(values, stacks, spec, config, round_index, ids)
        for i, cid in enumerate(ids):
            rows.setdefault(cid, []).append(new[i].copy())
        failures.append([ids[i] for i in sorted(failed)])
        return new, losses, failed

    monkeypatch.setattr(clients_module, "run_epochs", kernel_with_divergence)
    monkeypatch.setattr(helpers, "reference_run_epochs", reference_with_divergence)
    monkeypatch.setattr(clients_module, "privatize_rows", counted)
    monkeypatch.setattr(clients_module, "_train_round", recorded)
    spec = matrix_spec("mlp")
    values = init_params(spec, 1).values.copy()
    values[0] = 1e308
    init = ModelParams(spec, values)
    cfg = matrix_config("momentum", 16, "clip-noise", 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _raised(train_local, staggered, init, cfg)
    # A failed row is neither clipped nor noised: clipping it would multiply
    # by its non-finite norm.
    assert not [w for w in caught if "invalid value" in str(w.message)]

    def one_after_another():
        for client in staggered:
            reference_train_local(client, init, cfg)

    want = _raised(one_after_another)
    texts = {"params": "parameter vector contains", "delta": "cannot clip a non-finite"}
    assert str(want).startswith(texts[diverging])
    assert (type(got), str(got)) == (type(want), str(want))
    # One call per round: all six rows until c001 fails in round 2, then five.
    assert privatized == [6, 5, 5, 5, 5, 5]
    assert failures == [[], ["c001"], [], [], [], []]
    # Each survivor's rows, to its last, are its reference's, round by round.
    for client in staggered:
        if client.client_id != "c001":
            want_params, want_trace = reference_train_local(client, init, cfg)
            got_rows = rows[client.client_id]
            assert got_rows[-1].tobytes() == want_params.values.tobytes()
            assert tuple(client.val_loss(ModelParams(spec, r))[0] for r in got_rows) == want_trace


def test_batch_orders_are_the_rng_for_draws_of_every_epoch():
    streams = [("c000", 3), ("c001", 3), ("c002", 7)]
    orders = clients_module._batch_orders(9, streams, 3, 50)
    for c, labels in enumerate(streams):
        rng = rng_for(9, "batches", *labels)
        for epoch in range(3):
            assert np.array_equal(orders[epoch, c], rng.permutation(50))


# ------------------------------ sample stores and batched per-client paths
#
# FederatedClient.fleet holds the staggered handles' samples in one store
# per series length; val_loss_batch and fine_tune_batch must equal the
# per-handle paths and the one-client references bitwise, whether a stack
# is a view of a store, a gather from one, or stacked from lone handles.


def assert_same_splits(handle, splits, scaler):
    """The handle's three splits, their store rows and its value scaler are,
    bitwise, those of a reference_prepare_client."""
    for name, want in zip(("train", "val", "test"), splits):
        got = getattr(handle, f"_{name}")
        store = tuple(a[handle._row] for a in handle._store[name])
        wants = (want.inputs, want.targets, want.sample_timestamps, want.inputs, want.targets)
        for a, b in zip((*got, *store), wants):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), (handle.client_id, name)
    assert repr(handle._value_scaler) == repr(scaler)


def test_fleet_holds_each_clients_samples_once_in_a_store_per_length(
    staggered_datasets, staggered
):
    for got, ds in zip(staggered, staggered_datasets):
        assert got.client_id == ds.client_id
        assert_same_splits(got, *helpers.reference_prepare_client(ds, LAG, HORIZON))
        x, y = got._store["train"]
        assert np.shares_memory(got._train.inputs, x) and np.shares_memory(got._train.targets, y)
    assert len({id(c._store) for c in staggered}) == 4
    assert staggered[0]._store is staggered[1]._store
    assert (staggered[0]._row, staggered[1]._row) == (0, 1)


@st.composite
def fleets(draw):
    """Datasets of two or three series lengths in shuffled order, with 0-2
    shared covariates, maybe a constant series, one whose last value
    overflows when scaled, or one too short to split; and a lag/horizon."""
    lag, horizon = draw(st.sampled_from([(1, 1), (3, 1), (6, 2), (2, 5)]))
    lengths = draw(st.lists(st.integers(lag + horizon - 1, 70), min_size=2, max_size=3, unique=True))
    n_covs = draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    datasets = []
    for c in range(draw(st.integers(1, 8))):
        length = draw(st.sampled_from(lengths))
        values = rng.normal(rng.uniform(-5, 5), rng.uniform(0.01, 10), size=length)
        kind = draw(st.sampled_from(["plain"] * 12 + ["constant", "overflow"]))
        if kind == "constant":
            values[:] = values[0]  # std 0 becomes 1.0
        elif kind == "overflow":  # the last (test) value, scaled by a std below 1
            values = rng.normal(size=length) * 0.1
            values[-1] = -np.finfo(float).max
        covs = {f"x{j}": rng.normal(size=length) * 10.0 ** rng.uniform(-3, 3) for j in range(n_covs)}
        series = TimeSeries(int(rng.integers(0, 10_000)), values)
        datasets.append(ClientDataset(f"c{c}", series, covs, archetype_id=c % 3))
    return draw(st.permutations(datasets)), lag, horizon


def reference_fleet(datasets, lag, horizon):
    """reference_prepare_client of each dataset, or the (type, text) of the
    first error in datasets order."""
    out = []
    for ds in datasets:
        try:
            out.append(helpers.reference_prepare_client(ds, lag, horizon))
        except (InsufficientDataError, NumericError) as exc:
            return type(exc), str(exc)
    return out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow, as before
@settings(max_examples=200, deadline=None)
@given(fleets())
def test_a_fleet_built_in_one_pass_per_store_equals_the_oracle_bitwise(fleet):
    datasets, lag, horizon = fleet
    want = reference_fleet(datasets, lag, horizon)
    try:
        handles = FederatedClient.fleet(datasets, lag, horizon)
    except (InsufficientDataError, NumericError) as exc:
        assert (type(exc), str(exc)) == want
        return
    assert not isinstance(want, tuple), want
    for handle, ds, (splits, scaler) in zip(handles, datasets, want):
        assert (handle.client_id, handle.archetype_id) == (ds.client_id, ds.archetype_id)
        assert_same_splits(handle, splits, scaler)
    stores = {len(ds.series): h._store for ds, h in zip(datasets, handles)}
    assert all(h._store is stores[len(ds.series)] for ds, h in zip(datasets, handles))


def test_a_fleet_raises_the_first_failing_client_in_datasets_order():
    # c1 is too short to split, c2 (in c0's store) overflows when scaled
    # and c3 leaves an empty val split: whatever the order of the stores,
    # the fleet raises the first failure in datasets order.
    rng = np.random.default_rng(3)
    overflowing = rng.normal(size=40) * 0.1
    overflowing[-1] = np.finfo(float).max
    datasets = {
        "c0": ClientDataset("c0", TimeSeries(0, rng.normal(size=40))),
        "c1": ClientDataset("c1", TimeSeries(0, rng.normal(size=8))),
        "c2": ClientDataset("c2", TimeSeries(0, overflowing)),
        "c3": ClientDataset("c3", TimeSeries(0, rng.normal(size=11))),
    }
    short = "client c1: 8 values yield 2 samples; need >= 3 to split"
    cases = {
        ("c0", "c1", "c2", "c3"): (InsufficientDataError, short),
        ("c0", "c2", "c1", "c3"): (NumericError, "supervised set contains non-finite values"),
        ("c3", "c2", "c1", "c0"): (InsufficientDataError, "client c3: 5 samples leave an empty split"),
    }
    for order, (kind, text) in cases.items():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(kind) as err:
                FederatedClient.fleet([datasets[cid] for cid in order], 6, 1)
        assert str(err.value) == text, order


@pytest.mark.parametrize(
    "other",
    [{"x0": 1.0}, {"x0": 1.0, "x1": 2.0, "x2": 3.0}, {"x0": 1.0, "x9": 2.0}],
    ids=["fewer", "more", "other-names"],
)
def test_a_fleet_rejects_clients_of_another_covariate_layout(other):
    # Two 100-hour meters at lag 6. Another count of covariates used to
    # reach numpy's broadcast error; other names of the same count were
    # mixed into one column without a word.
    values = np.linspace(0.0, 1.0, 100)
    first = ClientDataset("a", TimeSeries(0, values), {"x0": values, "x1": values})
    second = ClientDataset("b", TimeSeries(0, values), {name: values * v for name, v in other.items()})
    text = "client b covariates differ; the federation needs one shared input layout"
    with pytest.raises(ShapeError, match=f"^{text}$"):
        FederatedClient.fleet([first, second], 6, 1)


def test_pooled_samples_are_a_view_of_one_store_and_a_copy_of_several(staggered):
    # The pooled handle is one client whose samples are a one-row store.
    one_store = staggered[:2]
    for handles in (one_store, staggered):
        pooled = FederatedClient.pooled(handles, "centralized")
        assert pooled.client_id == "centralized"
        for split in ("train", "val"):
            sets = [getattr(h, f"_{split}") for h in handles]
            x, y = getattr(pooled, f"_{split}")[:2]
            assert np.array_equal(x, np.concatenate([s.inputs for s in sets]))
            assert np.array_equal(y, np.concatenate([s.targets for s in sets]))
            stacked = clients_module._rows([pooled], split)
            assert all(np.shares_memory(a, b) for a, b in zip(stacked, (x, y)))
            assert [a.shape[0] for a in stacked] == [1, 1]
            store_x = handles[0]._store[split][0]
            assert np.shares_memory(x, store_x) == (handles is one_store)
        assert pooled.n_train_samples == sum(h.n_train_samples for h in handles)
        assert pooled.n_val_samples == sum(h.n_val_samples for h in handles)


def test_batched_evaluation_rejects_a_model_of_another_shape(staggered):
    wrong = init_params(ModelSpec("linear", LAG + 5, HORIZON), 0)
    with pytest.raises(ShapeError):
        staggered[0].val_loss(wrong)
    with pytest.raises(ShapeError):
        staggered[0].fine_tune(wrong, 2, 0.1)


def handle_orders(staggered_datasets, staggered):
    """Batches of handles whose stacks are store views (in order), store
    gathers (reversed, interleaved) and stacked lone handles (mixed)."""
    lone = FederatedClient(prepare_client(staggered_datasets[0], LAG, HORIZON))
    return {
        "views": staggered,
        "reversed": staggered[::-1],
        "interleaved": staggered[::2] + staggered[1::2],
        "mixed": [lone] + staggered[1:],
    }


stack_budgets = pytest.mark.parametrize("stack_bytes", [None, 1], ids=["budget", "one-row-stacks"])


@kinds
@stack_budgets
def test_val_loss_batch_equals_each_handle_alone(
    staggered_datasets, staggered, monkeypatch, kind, stack_bytes
):
    if stack_bytes is not None:
        monkeypatch.setattr(clients_module, "STACK_BYTES", stack_bytes)
    models = [init_params(matrix_spec(kind), seed) for seed in range(3)]
    for handles in handle_orders(staggered_datasets, staggered).values():
        # Rows routed to different models.
        params = [models[i % 3] for i in range(len(handles))]
        losses, counts = FederatedClient.val_loss_batch(
            handles, params[0].spec, np.stack([m.values for m in params])
        )
        for handle, model, got in zip(handles, params, zip(losses.tolist(), counts.tolist())):
            want = (loss(model, handle._val.inputs, handle._val.targets), handle.n_val_samples)
            assert got == want == handle.val_loss(model)


@kinds
@stack_budgets
@pytest.mark.parametrize("lr", [0.05, 20.0], ids=["small-steps", "backtracking"])
def test_fine_tune_batch_equals_the_reference(
    staggered_datasets, staggered, monkeypatch, kind, stack_bytes, lr
):
    if stack_bytes is not None:
        monkeypatch.setattr(clients_module, "STACK_BYTES", stack_bytes)
    models = [init_params(matrix_spec(kind), seed) for seed in range(3)]
    for handles in handle_orders(staggered_datasets, staggered).values():
        params = [models[i % 3] for i in range(len(handles))]
        values = np.stack([m.values for m in params])
        got = FederatedClient.fine_tune_batch(handles, params[0].spec, values, 4, lr)
        assert got.shape == values.shape
        for handle, model, row in zip(handles, params, got):
            want = reference_fine_tune(model, handle._train, 4, lr).values.tobytes()
            assert row.tobytes() == want
            assert handle.fine_tune(model, 4, lr).values.tobytes() == want


@kinds
@stack_budgets
def test_choose_cluster_batch_equals_each_handle_alone(
    staggered_datasets, staggered, monkeypatch, kind, stack_bytes
):
    if stack_bytes is not None:
        monkeypatch.setattr(clients_module, "STACK_BYTES", stack_bytes)
    a, b, nan = (init_params(matrix_spec(kind), seed) for seed in range(3))
    stack_loss = cluster_module.stack_loss

    def nan_under_nan(spec, values, x, y):
        """Every row's loss under the model nan reads NaN."""
        losses = stack_loss(spec, values, x, y)
        return np.where((values == nan.values).all(axis=1), np.nan, losses)

    monkeypatch.setattr(cluster_module, "stack_loss", nan_under_nan)
    # a and b repeat, so the lower of the two ties with its copy; NaN comes
    # first, where nothing beats it, and in the middle, where it never wins.
    # Each row chooses among its own sequence of K = 4 models.
    sequences = [(a, b, a, b), (nan, a, b, a), (b, nan, a, a)]
    for handles in handle_orders(staggered_datasets, staggered).values():
        models = [sequences[i % 3] for i in range(len(handles))]
        stack = np.stack([[m.values for m in sequence] for sequence in models])
        got = FederatedClient.choose_cluster_batch(handles, a.spec, stack)
        assert got.shape == (len(handles),)
        for handle, sequence, chosen in zip(handles, models, got.tolist()):
            train = handle._train
            losses = [math.nan if m is nan else loss(m, train.inputs, train.targets) for m in sequence]
            want = 0
            for j in range(1, len(losses)):
                if losses[j] < losses[want]:
                    want = j
            assert chosen == want == handle.choose_cluster(sequence)


def population_splits(n_clients=3):
    datasets = generate_population(PopulationSpec(n_clients=n_clients, archetypes=2, days=7, seed=3))
    return [prepare_client(ds, 6, 1) for ds in datasets]


def scaled_train(splits, factor):
    """``splits`` with its train inputs multiplied by ``factor``."""
    train = splits.train
    return replace(
        splits, train=SupervisedSet(train.inputs * factor, train.targets, train.sample_timestamps)
    )


def test_a_row_at_the_backtracking_floor_stops_while_its_stack_mates_go_on(monkeypatch):
    # Inputs scaled by 1e10 make the loss so steep that every step size down
    # to the 1e-18 floor overshoots: that row stops in its first epoch.
    splits = population_splits()
    splits[1] = scaled_train(splits[1], 1e10)
    handles = [FederatedClient(s) for s in splits]
    params = init_params(population_spec(), 0)
    stack_sizes = []
    kernel = clients_module._fine_tune_stack

    def counted(spec, values, *args):
        stack_sizes.append(len(values))
        return kernel(spec, values, *args)

    monkeypatch.setattr(clients_module, "_fine_tune_stack", counted)
    got = FederatedClient.fine_tune_batch(handles, params.spec, np.tile(params.values, (3, 1)), 3, 0.1)
    assert stack_sizes == [3]
    for handle, row in zip(handles, got):
        want = reference_fine_tune(params, handle._train, 3, 0.1)
        assert row.tobytes() == want.values.tobytes()
    assert np.array_equal(got[1], params.values)  # the steep row
    for mate, row in zip(handles[::2], got[::2]):
        one_epoch = reference_fine_tune(params, mate._train, 1, 0.1)
        assert not np.array_equal(row, one_epoch.values)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "layout",
    [("ok", "huge", "ok", "empty"), ("ok", "empty", "huge"), ("huge", "ok", "huge")],
    ids=["non-finite-first", "empty-first", "two-non-finite"],
)
def test_fine_tune_batch_raises_the_first_failing_clients_error(layout):
    # "huge": train inputs scaled by 1e150, so the first candidate at lr
    # 1e10 overflows; "empty": no train samples; "ok" backtracks and passes.
    splits = population_splits(len(layout))
    kinds_of = {
        "ok": lambda s: s,
        "huge": lambda s: scaled_train(s, 1e150),
        "empty": lambda s: replace(s, train=_EmptySplit()),
    }
    handles = [FederatedClient(kinds_of[kind](s)) for kind, s in zip(layout, splits)]
    spec = population_spec()
    params = [init_params(spec, j) for j in range(len(handles))]

    def one_after_another():
        for handle, model in zip(handles, params):
            reference_fine_tune(model, handle._train, 3, 1e10)

    with pytest.raises((NumericError, InsufficientDataError)) as want:
        one_after_another()
    with pytest.raises((NumericError, InsufficientDataError)) as got:
        FederatedClient.fine_tune_batch(handles, spec, np.stack([p.values for p in params]), 3, 1e10)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
    first = next(kind for kind in layout if kind != "ok")
    assert type(want.value) is {"huge": NumericError, "empty": InsufficientDataError}[first]


# ------------------------------------------- the kernel writing in place
#
# run_epochs gathers minibatches, computes activations and gradients and
# steps the optimizer in arrays it allocates once per call. Every row must
# still equal helpers.reference_run_epochs bitwise, whatever layout its
# samples come in, and the arrays passed in must come back untouched.


@pytest.fixture(scope="module")
def wide():
    """Twelve handles of one series length, so one fleet store of 12 rows."""
    datasets = generate_population(PopulationSpec(n_clients=12, archetypes=3, days=5, seed=8))
    handles = FederatedClient.fleet(datasets, LAG, HORIZON)
    assert len({h._store["train"][0].ctypes.data for h in handles}) == 1
    return handles


def sample_layouts(handles):
    """The handles' train samples as a store view, a gather from the store
    and a copy that is not C-contiguous, each C x n x d and C x n x h."""
    view = clients_module._rows(handles, "train")
    assert all(np.shares_memory(a, b) for a, b in zip(view, handles[0]._store["train"]))
    reordered = handles[1:] + handles[:1]
    gather = tuple(a[[h._row for h in reordered]] for a in handles[0]._store["train"])
    assert not np.shares_memory(gather[0], handles[0]._store["train"][0])
    strided = tuple(np.asfortranarray(a) for a in view)
    assert not strided[0].flags.c_contiguous
    return {"view": (handles, view), "gather": (reordered, gather), "strided": (handles, strided)}


def batch_sizes(n):
    """A batch size that leaves a ragged last batch, n itself and above n."""
    ragged = next(b for b in (7, 11, 13) if n % b)
    return {"ragged": ragged, "n": n, "above-n": n + 5}


@kinds
@optimizers
@pytest.mark.parametrize("batch", ["ragged", "n", "above-n"])
def test_kernel_in_place_equals_the_reference_on_every_layout(wide, kind, optimizer, batch):
    spec = matrix_spec(kind)
    n = wide[0].n_train_samples
    cfg = matrix_config(optimizer, batch_sizes(n)[batch], "dp-off", local_epochs=2)
    # A stack of one and one of ten rows in the same test, each row its own model.
    for rows in (wide[3:4], wide[:10]):
        for name, (handles, (x, y)) in sample_layouts(rows).items():
            values = np.stack([init_params(spec, seed).values for seed in range(len(handles))])
            streams = [(h.client_id, 4) for h in handles]
            before = [a.copy() for a in (values, x, y)]
            out, losses = run_epochs(values, x, y, spec, cfg, streams)
            for arg, kept in zip((values, x, y), before):
                assert arg.tobytes() == kept.tobytes(), name
            assert not np.shares_memory(out, values)
            for c, handle in enumerate(handles):
                want, want_loss = reference_run_epochs(
                    values[c], handle._train.inputs, handle._train.targets, spec, cfg, streams[c]
                )
                assert out[c].tobytes() == want.tobytes(), (name, len(rows), c)
                assert losses[c] == want_loss


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@optimizers
def test_a_row_overflowing_mid_epoch_fails_alone(optimizer):
    # Train inputs scaled by 1e100 overflow within a few steps of the first
    # epoch; the reference then rejects the non-finite params in its loop.
    splits = population_splits(4)
    splits[2] = scaled_train(splits[2], 1e100)
    handles = [FederatedClient(s) for s in splits]
    x = np.stack([h._train.inputs for h in handles])
    y = np.stack([h._train.targets for h in handles])
    spec = population_spec()
    values = np.stack([init_params(spec, seed).values for seed in range(4)])
    ids = [h.client_id for h in handles]
    cfg = config(batch_size=16, local_epochs=2, optimizer=OPTIMIZERS[optimizer])
    new, losses, failed = clients_module._train_round(values, [([0, 1, 2, 3], x, y)], spec, cfg, 5, ids)
    assert list(failed) == [2]
    for c, handle in enumerate(handles):
        args = (values[c], handle._train.inputs, handle._train.targets, spec, cfg, (ids[c], 5))
        if c == 2:
            want = _raised(reference_run_epochs, *args)
            assert (type(failed[2]), str(failed[2])) == (type(want), str(want))
            continue
        want, want_loss = reference_run_epochs(*args)
        assert new[c].tobytes() == want.tobytes()
        assert losses[c] == want_loss
