"""Shared fixtures for the engine-level tests, and the one-at-a-time
reference implementations that faster code is tested against."""

import csv
import math
from dataclasses import replace
from typing import Mapping

import numpy as np

from fedforecast import evaluation, fedcore
from fedforecast.clients import FederatedClient, run_epochs
from fedforecast.data import (
    IDENTITY_SCALER,
    ClientDataset,
    CsvSchema,
    SupervisedSet,
    TimeSeries,
    _parse_epoch_hour,
    _parse_float,
    fit_scaler,
    prepare_client,
)
from fedforecast.errors import (
    GapError,
    InsufficientDataError,
    IoError,
    EmptyAggregationError,
    ParseError,
    SchemaError,
    ShapeError,
)
from fedforecast.cluster import hc_partition
from fedforecast.fedcore import ClientUpdate, EarlyStop, RoundReport
from fedforecast.model import (
    ModelParams,
    ModelSpec,
    init_params,
    loss,
    loss_and_grad,
    param_message_bytes,
)
from fedforecast.optim import make_state, step
from fedforecast.population import PopulationSpec, generate_population
from fedforecast.privacy import privatize_delta
from fedforecast.seeds import derive_seed, rng_for

# Generated populations always carry irradiance and temperature covariates.
POPULATION_COVARIATES = 2


def population_spec(lag=6, horizon=1, kind="linear", hidden=0):
    """ModelSpec matching clients built by population_clients."""
    return ModelSpec(
        kind=kind,
        input_dim=lag + POPULATION_COVARIATES,
        horizon=horizon,
        hidden_dim=hidden,
    )


def population_clients(lag=6, horizon=1, **spec_kwargs):
    """FederatedClient handles over a small generated population."""
    defaults = dict(n_clients=4, archetypes=2, days=7, seed=0)
    defaults.update(spec_kwargs)
    datasets = generate_population(PopulationSpec(**defaults))
    return [FederatedClient(prepare_client(ds, lag, horizon)) for ds in datasets]


def synthetic_linear_client(client_id, weights, bias, n_values, noise_std, seed, lag=None):
    """Client whose series follows values[t] = w . values[t-lag:t] + b + noise.

    Handy for recovery tests: a linear model with matching lag can fit it
    exactly up to the noise floor.
    """
    rng = np.random.default_rng(seed)
    weights = np.asarray(weights, dtype=float)
    lag = lag if lag is not None else weights.size
    values = list(rng.normal(1.0, 0.3, size=lag))
    for _ in range(n_values - lag):
        window = np.array(values[-lag:])
        nxt = float(weights @ window) + bias + rng.normal(0.0, noise_std)
        values.append(nxt)
    series = TimeSeries(start_epoch_hours=0, values=np.array(values))
    return ClientDataset(client_id=client_id, series=series)


def assignments_match(a, b) -> bool:
    """True when two assignments are equal up to cluster-label permutation."""
    if set(a) != set(b):
        return False
    forward: dict[int, int] = {}
    backward: dict[int, int] = {}
    for cid in a:
        la, lb = a[cid], b[cid]
        if forward.setdefault(la, lb) != lb:
            return False
        if backward.setdefault(lb, la) != la:
            return False
    return True


def reference_hc_partition(deltas: Mapping[str, np.ndarray], tau: float) -> dict[str, int]:
    """The rescanning average-linkage partition ``hc_partition`` replaced.

    Every merge recomputes the mean cross distance of every cluster pair,
    so it costs about n^3; tests compare ``hc_partition`` against it for
    exact equality, ties included.

    Returns a total map client_id -> cluster_id. Cluster ids are assigned in
    ascending order of each cluster's smallest member client_id, so the
    labeling is independent of the input enumeration order.
    """
    if not deltas:
        raise InsufficientDataError("hc_partition needs at least one client")
    ids = sorted(deltas)
    vectors = []
    for cid in ids:
        vec = np.asarray(deltas[cid], dtype=np.float64).ravel()
        if vectors and vec.shape != vectors[0].shape:
            raise ShapeError(
                f"delta for {cid} has length {vec.shape[0]}, "
                f"expected {vectors[0].shape[0]}"
            )
        vectors.append(vec)
    n = len(ids)
    point_dist = reference_pairwise_distances(vectors)

    clusters: list[list[int]] = [[i] for i in range(n)]
    while len(clusters) > 1:
        best = None
        best_dist = np.inf
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                cross = point_dist[np.ix_(clusters[a], clusters[b])]
                d = float(np.mean(cross))
                if d < best_dist - 1e-15:
                    best_dist = d
                    best = (a, b)
        if best is None or best_dist > tau:
            break
        a, b = best
        clusters[a] = clusters[a] + clusters[b]
        del clusters[b]

    clusters.sort(key=lambda members: min(members))
    assignment: dict[str, int] = {}
    for label, members in enumerate(clusters):
        for idx in members:
            assignment[ids[idx]] = label
    return assignment


def reference_pairwise_distances(vectors) -> np.ndarray:
    """The n(n-1)/2 ``np.linalg.norm`` calls hc_partition used to make."""
    n = len(vectors)
    point_dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = float(np.linalg.norm(vectors[i] - vectors[j]))
            point_dist[i, j] = point_dist[j, i] = d
    return point_dist


def reference_build_supervised(series, covariates, lag, horizon, scaler, covariate_scalers=None):
    """The per-row windowing loop ``data.build_supervised`` replaced."""
    values = series.values
    n = len(series) - lag - horizon + 1
    names = sorted(covariates)
    cov_scalers = covariate_scalers or {}
    scaled = scaler.transform(values)
    inputs = np.empty((n, lag + len(names)), dtype=np.float64)
    targets = np.empty((n, horizon), dtype=np.float64)
    for s in range(n):
        t = lag + s
        inputs[s, :lag] = scaled[t - lag : t]
        targets[s] = scaled[t : t + horizon]
    for j, name in enumerate(names):
        col = cov_scalers.get(name, IDENTITY_SCALER).transform(covariates[name])
        inputs[:, lag + j] = col[lag : lag + n]
    stamps = series.timestamps()[lag : lag + n]
    return SupervisedSet(inputs, targets, stamps)


def reference_prepare_client(dataset, lag, horizon):
    """One client's splits as prepare_client composed them before the fleet
    windowed a store in one pass: fit_scaler on the raw prefix the train
    samples cover, reference_build_supervised, then the chronological
    0.7/0.15 split, with the same error texts. Returns the (train, val,
    test) SupervisedSets and the value scaler."""
    n = len(dataset.series) - lag - horizon + 1
    if n < 3:
        raise InsufficientDataError(
            f"client {dataset.client_id}: {len(dataset.series)} values yield {n} samples; "
            f"need >= 3 to split"
        )
    n_train, n_val = math.floor(0.7 * n), math.floor(0.15 * n)
    prefix = lag + n_train + horizon - 1
    scaler = fit_scaler(dataset.series.values[:prefix])
    cov_scalers = {name: fit_scaler(cov[:prefix]) for name, cov in dataset.covariates.items()}
    sset = reference_build_supervised(
        dataset.series, dataset.covariates, lag, horizon, scaler, cov_scalers
    )
    if n_val < 1:
        raise InsufficientDataError(f"client {dataset.client_id}: {n} samples leave an empty split")
    bounds = (0, n_train, n_train + n_val, n)
    splits = tuple(
        SupervisedSet(sset.inputs[lo:hi], sset.targets[lo:hi], sset.sample_timestamps[lo:hi])
        for lo, hi in zip(bounds, bounds[1:])
    )
    return splits, scaler


def reference_load_csv(path, schema=None, forward_fill=False):
    """The row-at-a-time CSV loader ``data.load_csv`` replaced, with its two
    declared message changes: errors name the file line (``line_num``, which
    counts skipped blank lines), and a short row gets its own error. As in
    ``csv.DictReader``, each row is read as a header-name -> cell dict."""
    schema = schema or CsvSchema()
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from None
    with handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        required = [schema.timestamp, schema.client_id, schema.value_kw]
        required += [schema.covariates[name] for name in sorted(schema.covariates)]
        for column in required:
            if column not in header:
                raise SchemaError(f"missing required column {column!r} in {path}")
            if header.count(column) > 1:
                raise SchemaError(
                    f"column {column!r} appears {header.count(column)} times in {path}"
                )
        rows: dict[str, list[tuple[int, float, tuple[float, ...]]]] = {}
        for cells in reader:
            if not cells:
                continue
            line_no = reader.line_num
            if len(cells) < len(header):
                raise ParseError(
                    f"line {line_no}: expected {len(header)} columns, got {len(cells)}"
                )
            row = dict(zip(header, cells))
            cid = row[schema.client_id].strip()
            if not cid:
                raise ParseError(f"line {line_no}: empty client id")
            hour = _parse_epoch_hour(row[schema.timestamp].strip(), line_no)
            value = _parse_float(row[schema.value_kw], schema.value_kw, line_no)
            covs = tuple(
                _parse_float(row[schema.covariates[name]], schema.covariates[name], line_no)
                for name in sorted(schema.covariates)
            )
            rows.setdefault(cid, []).append((hour, value, covs))
    if not rows:
        raise InsufficientDataError(f"{path} contains no data rows")

    names = sorted(schema.covariates)
    datasets = []
    for cid in sorted(rows):
        entries = rows[cid]
        filled: list[tuple[int, float, tuple[float, ...]]] = []
        for i, entry in enumerate(entries):
            if i > 0:
                prev = filled[-1]
                if entry[0] <= prev[0]:
                    raise GapError(
                        f"client {cid}: non-monotone timestamp at hour {entry[0]} "
                        f"(after {prev[0]})"
                    )
                if entry[0] > prev[0] + 1:
                    if not forward_fill:
                        raise GapError(
                            f"client {cid}: missing hour {prev[0] + 1} "
                            f"(gap of {entry[0] - prev[0] - 1})"
                        )
                    for hole in range(prev[0] + 1, entry[0]):
                        filled.append((hole, prev[1], prev[2]))
            filled.append(entry)
        series = TimeSeries(
            start_epoch_hours=filled[0][0],
            values=np.array([e[1] for e in filled], dtype=np.float64),
        )
        covariates = {
            name: np.array([e[2][j] for e in filled], dtype=np.float64)
            for j, name in enumerate(names)
        }
        datasets.append(ClientDataset(cid, series, covariates, archetype_id=-1))
    return datasets


def reference_run_epochs(values, inputs, targets, spec, config, stream_labels):
    """One model's local epochs, one (mini-)batch gather and validated
    ModelParams per step: the loop the stacked kernel replaced."""
    n = inputs.shape[0]
    epochs = config.local_epochs
    if epochs == 0:
        return values, loss(ModelParams(spec, values), inputs, targets)
    # The step writes into values; callers pass rows of their own arrays.
    values = np.array(values, dtype=np.float64)
    batch = config.batch_size
    full_batch = batch == 0 or batch >= n
    rng = None if full_batch else rng_for(config.seed, "batches", *stream_labels)
    opt_state = make_state(config.optimizer, values.shape[0])
    final_epoch_loss = np.nan
    for _ in range(epochs):
        if full_batch:
            order = [np.arange(n)]
        else:
            perm = rng.permutation(n)
            order = [perm[i : i + batch] for i in range(0, n, batch)]
        loss_sum = 0.0
        for idx in order:
            batch_loss, grad = loss_and_grad(
                ModelParams(spec, values), inputs[idx], targets[idx]
            )
            values, opt_state = step(opt_state, values, grad)
            loss_sum += batch_loss * idx.shape[0]
        final_epoch_loss = loss_sum / n
    return values, float(final_epoch_loss)


def reference_local_update(train, broadcast, config, round_index, client_id) -> ClientUpdate:
    """One client's round through ``reference_run_epochs``."""
    if config.local_epochs == 0:
        train_loss = loss(broadcast, train.inputs, train.targets)
        new_params = broadcast
    else:
        values, train_loss = reference_run_epochs(
            broadcast.values.copy(),
            train.inputs,
            train.targets,
            broadcast.spec,
            config,
            (client_id, round_index),
        )
        new_params = ModelParams(broadcast.spec, values)
    if config.dp is not None and config.dp.active:
        delta = new_params.values - broadcast.values
        delta = privatize_delta(delta, config.dp, config.seed, round_index, client_id)
        new_params = ModelParams(broadcast.spec, broadcast.values + delta)
    return ClientUpdate(
        client_id=client_id,
        new_params=new_params,
        n_samples=train.n_samples,
        train_loss=train_loss,
    )


def reference_fine_tune(params, train, epochs, lr):
    """One client's personalization, one validated ModelParams per loss: the
    loop clients.fine_tune ran before personalization went through stacks.
    Each epoch proposes p - lr*g and halves lr (carried into later epochs)
    until the train loss does not rise or lr reaches 1e-18; then it stops
    if the loss still rises."""
    if train.n_samples < 1:
        raise InsufficientDataError("fine_tune needs training samples")
    if epochs == 0:
        return params
    values = params.values
    spec = params.spec
    step_size = lr
    for _ in range(epochs):
        current_loss, grad = loss_and_grad(ModelParams(spec, values), train.inputs, train.targets)
        candidate = values - step_size * grad
        candidate_loss = loss(ModelParams(spec, candidate), train.inputs, train.targets)
        while candidate_loss > current_loss and step_size > 1e-18:
            step_size /= 2.0
            candidate = values - step_size * grad
            candidate_loss = loss(ModelParams(spec, candidate), train.inputs, train.targets)
        if candidate_loss > current_loss:
            break
        values = candidate
    return ModelParams(spec, values)


def reference_train_local(client, init, config):
    """Isolated local training of one client, round after round.
    Returns (final params, tuple of per-round val losses)."""
    params = init
    stopper = EarlyStop(
        config.early_stop_patience, f"client {client.client_id} validation loss"
    )
    trace: list[float] = []
    for round_index in range(1, config.rounds + 1):
        params = reference_local_update(
            client._train, params, config, round_index, client.client_id
        ).new_params
        val, _ = client.val_loss(params)
        stop = stopper.update(round_index, val)
        trace.append(val)
        if stop:
            break
    return params, tuple(trace)


def reference_centralized(clients, spec, config):
    """The centralized baseline's own round loop, which the harness ran
    before centralized trained through ``clients.train_local``: the
    kernel on a stack of one over the samples of ``clients`` concatenated
    (the harness's own handles, each scaled by its own client's scalers),
    validated with ``loss`` under an EarlyStop rule, without DP.
    Returns (params, val trace)."""
    train_x = np.concatenate([c._train.inputs for c in clients])
    train_y = np.concatenate([c._train.targets for c in clients])
    val_x = np.concatenate([c._val.inputs for c in clients])
    val_y = np.concatenate([c._val.targets for c in clients])
    # A stack of one model over the pooled samples.
    values = init_params(spec, derive_seed(config.seed, "init", 0)).values[None]
    trace: list[float] = []
    stopper = EarlyStop(config.early_stop_patience, "centralized validation loss")
    for round_index in range(1, config.rounds + 1):
        values, _ = run_epochs(
            values, train_x[None], train_y[None], spec, config,
            [("centralized", round_index)],
        )
        val = loss(ModelParams(spec, values[0]), val_x, val_y)
        stop = stopper.update(round_index, val)
        trace.append(val)
        if stop:
            break
    return ModelParams(spec, values[0]), trace


def reference_fedavg(updates) -> ModelParams:
    """The object FedAvg the engine's array FedAvg replaced: the
    sample-count-weighted mean of ClientUpdate values, each update's spec
    checked, summed in ascending client_id order."""
    if len(updates) == 0:
        raise EmptyAggregationError("no updates to aggregate")
    ordered = sorted(updates, key=lambda u: u.client_id)
    spec = ordered[0].new_params.spec
    for u in ordered:
        if u.new_params.spec != spec:
            raise ShapeError(
                f"update for {u.client_id} has spec {u.new_params.spec}, expected {spec}"
            )
    total = sum(u.n_samples for u in ordered)
    acc = np.zeros(spec.param_count)
    for u in ordered:
        acc += (u.n_samples / total) * u.new_params.values
    return ModelParams(spec, acc)


def reference_routed_round(state, by_id, route, config, round_index, regroup_tau=None):
    """The routed round on objects, with every participant's
    ``local_update`` called on its handle, one at a time in id order: the
    body ``fedcore._routed_round`` had before it trained plain handles as
    stacks and kept the round's updates and models as arrays."""
    spec = state.spec
    models = [ModelParams(spec, v) for v in state.values]
    participants = list(route)
    updates = {
        cid: by_id[cid].local_update(models[route[cid]], config, round_index)
        for cid in participants
    }
    n_models = len(models)
    assignment = route if state.mode == "ifca" else state.assignment
    if regroup_tau is not None:
        deltas = {
            cid: u.new_params.values - models[route[cid]].values
            for cid, u in updates.items()
        }
        route = assignment = dict(sorted(hc_partition(deltas, regroup_tau).items()))
        n_models = max(route.values()) + 1
    groups: dict[int, list[ClientUpdate]] = {}
    for cid in participants:
        groups.setdefault(route[cid], []).append(updates[cid])
    models = [
        reference_fedavg(groups[j]) if j in groups else models[j]
        for j in range(n_models)
    ]
    val = fedcore._weighted_val_loss(
        [by_id[cid].val_loss(models[route[cid]]) for cid in participants]
    )
    pb = param_message_bytes(spec)
    fanout = len(state.values) if state.mode == "ifca" else 1
    report = RoundReport(
        round_index=round_index,
        participants=tuple(participants),
        train_losses={cid: updates[cid].train_loss for cid in participants},
        val_loss=val,
        bytes_up=len(participants) * pb,
        bytes_down=len(participants) * fanout * pb,
        assignment=dict(assignment),
        n_clusters=n_models,
    )
    values = np.stack([m.values for m in models])
    return replace(state, values=values, assignment=assignment), report


def check_rounds_against_reference(monkeypatch) -> list[int]:
    """Make every ``fedcore._routed_round`` also run ``reference_routed_round``
    on the same inputs and assert both give bitwise equal states and
    reports. Returns the list the checked rounds' indices are appended to."""
    batched = fedcore._routed_round
    checked: list[int] = []

    def both(state, by_id, route, config, round_index, regroup_tau=None):
        got = batched(state, by_id, route, config, round_index, regroup_tau)
        want = reference_routed_round(state, by_id, route, config, round_index, regroup_tau)
        assert same_round(got, want), f"round {round_index} differs from the reference"
        checked.append(round_index)
        return got

    monkeypatch.setattr(fedcore, "_routed_round", both)
    return checked


def check_personalization_against_reference(monkeypatch) -> list[str]:
    """Make every ``personalize`` call of the comparison harness also run
    ``reference_fine_tune`` on each client and assert both give bitwise
    equal params. Returns the list the checked client ids are appended to."""
    batched = evaluation.personalize
    checked: list[str] = []

    def both(clients, models, epochs, lr):
        got = batched(clients, models, epochs, lr)
        assert list(got) == [c.client_id for c in clients]
        for client in clients:
            want = reference_fine_tune(models[client.client_id], client._train, epochs, lr)
            assert got[client.client_id].values.tobytes() == want.values.tobytes(), client.client_id
            checked.append(client.client_id)
        return got

    monkeypatch.setattr(evaluation, "personalize", both)
    return checked


def same_round(a, b) -> bool:
    """Bitwise equality of two (ServerState, RoundReport) round results;
    repr prints each float exactly, and -0.0 apart from 0.0."""
    (state_a, report_a), (state_b, report_b) = a, b
    return (
        state_a.values.shape == state_b.values.shape
        and state_a.values.tobytes() == state_b.values.tobytes()
        and (state_a.mode, state_a.spec) == (state_b.mode, state_b.spec)
        and dict(state_a.assignment) == dict(state_b.assignment)
        and repr(report_a) == repr(report_b)
    )
