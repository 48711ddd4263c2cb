"""Client-side computations over private data splits.

Everything that touches raw samples lives here (or in the pure model/data
modules); the server engine only ever sees ClientUpdate values, losses, and
sample counts through the FederatedClient handle. A local update runs the
configured epochs of (mini-)batch optimization from the broadcast params,
applies update-level DP when enabled, and ships back new params.

run_epochs is the one training kernel. It steps a stack of models, each on
its own samples. One round of local updates is two steps: _train_stack, the
kernel and its finiteness check, on each stack of clients, then _privatize,
update-level DP of every delta of the round in one call. Their callers:

* FederatedClient.local_update_batch, which the engine calls once per
  round: participants of equal train sample counts train as stacks of at
  most STACK_BYTES of samples, then all of them are privatized at once;
* local_update, the per-handle hook, on a stack of one;
* train_lockstep, the one isolated-training loop: train_local runs it on
  all stacks of clients of equal sample counts at once, and the
  centralized baseline on a stack of one model over the pooled samples.

Batch order is shuffled deterministically from (config seed, client id,
round index); with batch_size 0 the full batch is used and no shuffling
happens, so one epoch is exactly one full-batch gradient step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ClientSplits, SupervisedSet
from .errors import InsufficientDataError, NumericError
from .fedcore import ClientUpdate, EarlyStop, FLConfig
from .model import (
    ModelParams,
    loss,
    loss_and_grad,
    predict_batch,
    stack_loss,
    stack_loss_and_grad,
)
from .optim import make_state, step
from .privacy import privatize_delta, privatize_rows
from .seeds import rng_for
from . import cluster as _cluster

# Bytes of train samples (inputs plus targets) one stack of the engine's
# round may hold. A larger bucket trains as several stacks, which bounds the
# copies, minibatches and activations a round allocates at once.
STACK_BYTES = 1 << 20


def run_epochs(
    values: np.ndarray,
    inputs: np.ndarray,
    targets: np.ndarray,
    spec,
    config: FLConfig,
    streams,
) -> tuple[np.ndarray, np.ndarray]:
    """The training kernel: config.local_epochs of (mini-)batch steps on a
    stack of C models at once.

    values is C x P, inputs C x n x d and targets C x n x h; model c trains
    on its own samples only, so every slice equals training that model
    alone. Minibatch order comes from model c's batch-shuffle stream,
    labelled ("batches", *streams[c]); full-batch steps use the arrays as
    given, without copying, and each minibatch is gathered on its own.
    Returns the new C x P values and each model's mean train loss of its
    final epoch (losses measured pre-step); with zero epochs, the values
    unchanged and their loss.
    """
    c, n = inputs.shape[:2]
    if config.local_epochs == 0:
        return values, stack_loss(spec, values, inputs, targets)
    batch = config.batch_size
    full_batch = batch == 0 or batch >= n
    rngs = None if full_batch else [rng_for(config.seed, "batches", *s) for s in streams]
    rows = np.arange(c)[:, None]
    opt_state = make_state(config.optimizer, values.shape)
    for _ in range(config.local_epochs):
        if full_batch:
            batches = [(inputs, targets)]
        else:
            perm = np.stack([rng.permutation(n) for rng in rngs])
            idxs = (perm[:, i : i + batch] for i in range(0, n, batch))
            batches = ((inputs[rows, idx], targets[rows, idx]) for idx in idxs)
        loss_sum = 0.0
        for x, y in batches:
            batch_loss, grad = stack_loss_and_grad(spec, values, x, y)
            values, opt_state = step(opt_state, values, grad)
            loss_sum += batch_loss * x.shape[1]
        final_epoch_loss = loss_sum / n
    return values, final_epoch_loss


def _train_stack(values, inputs, targets, spec, config: FLConfig, round_index, ids):
    """The kernel's round of local epochs on a stack of clients, row c being
    client ids[c] from values[c] on inputs[c] and targets[c], and its
    finiteness check.

    Returns the new C x P params, the C train losses, and, for each row whose
    new params are not finite, the NumericError the one-client code raises.
    """
    new, losses = run_epochs(values, inputs, targets, spec, config, [(cid, round_index) for cid in ids])
    failed: dict[int, NumericError] = {}
    _reject(~np.all(np.isfinite(new), axis=1), failed, lambda i: ModelParams(spec, new[i]))
    return new, losses, failed


def _privatize(values, new, spec, config: FLConfig, round_index, ids, failed: dict):
    """Update-level DP of every row's delta new[c] - values[c], row c being
    client ids[c], in one privatize_rows call. Records in ``failed`` the
    NumericError of each row not yet failed whose delta or privatized params
    are not finite. Returns the privatized params; without DP, ``new``.
    """
    if config.dp is None:
        return new
    delta = new - values
    _reject(
        ~np.all(np.isfinite(delta), axis=1),
        failed,
        lambda i: privatize_delta(delta[i], config.dp, config.seed, round_index, ids[i]),
    )
    new = values + privatize_rows(delta, config.dp, config.seed, round_index, ids)
    _reject(~np.all(np.isfinite(new), axis=1), failed, lambda i: ModelParams(spec, new[i]))
    return new


def _reject(bad: np.ndarray, failed: dict, check) -> None:
    """Record, for each flagged row i not yet failed, the NumericError
    ``check(i)`` raises."""
    for i in np.flatnonzero(bad).tolist():
        if i not in failed:
            try:
                check(i)
            except NumericError as exc:
                failed[i] = exc


def local_update(
    train: SupervisedSet,
    broadcast: ModelParams,
    config: FLConfig,
    round_index: int,
    client_id: str,
) -> ClientUpdate:
    """One client's contribution for one round: _train_stack and _privatize
    on a stack of one. This is the per-handle hook behind
    FederatedClient.local_update.

    local_epochs = 0 returns the broadcast params bit-identical, with the
    train loss evaluated at those params. When DP is active the update delta
    is clipped/noised before the new params are reconstructed.
    """
    if train.n_samples < 1:
        raise InsufficientDataError(f"client {client_id} has no training samples")
    spec = broadcast.spec
    values = broadcast.values[None]
    ids = [client_id]
    new, losses, failed = _train_stack(
        values, train.inputs[None], train.targets[None], spec, config, round_index, ids
    )
    new = _privatize(values, new, spec, config, round_index, ids, failed)
    if failed:
        raise failed[0]
    return ClientUpdate(
        client_id=client_id,
        new_params=ModelParams(spec, new[0]),
        n_samples=train.n_samples,
        train_loss=float(losses[0]),
    )


def fine_tune(
    params: ModelParams, train: SupervisedSet, epochs: int, lr: float
) -> ModelParams:
    """Personalize via full-batch gradient descent with backtracking.

    Each epoch proposes p - lr*g and halves lr until the train loss does not
    increase (the halved lr carries into later epochs), so the loss trace is
    non-increasing. epochs = 0 returns params unchanged.
    """
    if train.n_samples < 1:
        raise InsufficientDataError("fine_tune needs training samples")
    if epochs == 0:
        return params
    values = params.values
    spec = params.spec
    step_size = lr
    for _ in range(epochs):
        current_loss, grad = loss_and_grad(
            ModelParams(spec, values), train.inputs, train.targets
        )
        candidate = values - step_size * grad
        candidate_loss = loss(ModelParams(spec, candidate), train.inputs, train.targets)
        while candidate_loss > current_loss and step_size > 1e-18:
            step_size /= 2.0
            candidate = values - step_size * grad
            candidate_loss = loss(
                ModelParams(spec, candidate), train.inputs, train.targets
            )
        if candidate_loss > current_loss:
            break
        values = candidate
    return ModelParams(spec, values)


class FederatedClient:
    """Holds one client's private splits; exposes only aggregate quantities.

    The train/val/test sets are private attributes by convention and by the
    engine's API-surface contract: server code receives this handle and may
    call only the methods below, none of which return raw samples.
    """

    def __init__(self, splits: ClientSplits):
        self.client_id = splits.client_id
        self.feeder_id = splits.feeder_id
        self.archetype_id = splits.archetype_id
        self.der_class = splits.der_class
        self.flex_class = splits.flex_class
        self._train = splits.train
        self._val = splits.val
        self._test = splits.test
        self._value_scaler = splits.value_scaler

    @property
    def n_train_samples(self) -> int:
        return self._train.n_samples

    @property
    def n_val_samples(self) -> int:
        return self._val.n_samples

    def local_update(
        self, broadcast: ModelParams, config: FLConfig, round_index: int
    ) -> ClientUpdate:
        return local_update(self._train, broadcast, config, round_index, self.client_id)

    @staticmethod
    def local_update_batch(
        handles, broadcasts, config: FLConfig, round_index: int
    ) -> dict[str, ClientUpdate]:
        """local_update of every handle, handles[i] from broadcasts[i],
        keyed by client id in id order.

        Handles of equal train sample counts train as stacks of at most
        STACK_BYTES of samples through _train_stack; then one _privatize
        call applies DP to every update of the round, which sets up all of
        the round's noise streams at once. Bitwise equal to calling each
        handle alone. When some fail, the error local_update raises for the
        first of them in id order is raised.
        """
        if not handles:
            return {}
        order = sorted(range(len(handles)), key=lambda i: handles[i].client_id)
        handles = [handles[i] for i in order]
        ids = [h.client_id for h in handles]
        spec = broadcasts[order[0]].spec
        values = np.stack([broadcasts[i].values for i in order])
        new = np.empty_like(values)
        losses = np.empty(len(ids))
        failed: dict[int, NumericError] = {}
        buckets: dict[int, list[int]] = {}
        for i, handle in enumerate(handles):
            buckets.setdefault(handle.n_train_samples, []).append(i)
        for bucket in buckets.values():
            train = handles[bucket[0]]._train
            size = max(1, STACK_BYTES // (train.inputs.nbytes + train.targets.nbytes))
            for start in range(0, len(bucket), size):
                rows = bucket[start : start + size]
                new[rows], losses[rows], stack_failed = _train_stack(
                    values[rows],
                    np.stack([handles[i]._train.inputs for i in rows]),
                    np.stack([handles[i]._train.targets for i in rows]),
                    spec,
                    config,
                    round_index,
                    [ids[i] for i in rows],
                )
                failed.update((rows[c], exc) for c, exc in stack_failed.items())
        new = _privatize(values, new, spec, config, round_index, ids, failed)
        if failed:
            raise failed[min(failed)]
        return {
            cid: ClientUpdate(cid, ModelParams(spec, new[i]), handles[i].n_train_samples, float(losses[i]))
            for i, cid in enumerate(ids)
        }

    def train_loss(self, params: ModelParams) -> float:
        return loss(params, self._train.inputs, self._train.targets)

    def val_loss(self, params: ModelParams) -> tuple[float, int]:
        """(mean val loss under params, number of val samples)."""
        return (
            loss(params, self._val.inputs, self._val.targets),
            self._val.n_samples,
        )

    def choose_cluster(self, models) -> int:
        """Self-select the cluster model with the lowest own-train loss."""
        return _cluster.ifca_assign(self._train, models)

    def fine_tune(self, params: ModelParams, epochs: int, lr: float) -> ModelParams:
        return fine_tune(params, self._train, epochs, lr)

    def test_forecast(self, params: ModelParams):
        """Denormalized (kW) test predictions and actuals, both n x h."""
        pred = self._value_scaler.inverse(predict_batch(params, self._test.inputs))
        actual = self._value_scaler.inverse(self._test.targets)
        return pred, actual, self._test.sample_timestamps


@dataclass(frozen=True)
class LocalTrace:
    """Per-round validation trace of an isolated local training run."""

    val_losses: tuple[float, ...]
    best_round: int


def train_local(
    clients, init: ModelParams, config: FLConfig
) -> tuple[dict[str, ModelParams], dict[str, LocalTrace]]:
    """Isolated local training of every client: the same per-round schedule
    as federation, minus any communication, each client under its own
    EarlyStop rule. Returns each client's final params and trace by id.

    Clients with equal (train, validation) sample counts train in lockstep
    as one stack, and all stacks train together through train_lockstep.
    Results are bitwise those of training each client alone. A client that
    diverges is dropped, and after training the error of the first such
    client in ``clients`` order is raised, as training them one after
    another would raise it.
    """
    buckets: dict[tuple[int, int], list[FederatedClient]] = {}
    for client in clients:
        buckets.setdefault((client.n_train_samples, client.n_val_samples), []).append(client)
    models, traces, errors = train_lockstep(
        [
            (
                [c.client_id for c in bucket],
                np.stack([c._train.inputs for c in bucket]),
                np.stack([c._train.targets for c in bucket]),
                np.stack([c._val.inputs for c in bucket]),
                np.stack([c._val.targets for c in bucket]),
            )
            for bucket in buckets.values()
        ],
        init,
        config,
    )
    ids = [client.client_id for client in clients]
    for cid in ids:
        if cid in errors:
            raise errors[cid]
    return {cid: models[cid] for cid in ids}, {cid: traces[cid] for cid in ids}


def train_lockstep(stacks, init: ModelParams, config: FLConfig):
    """Isolated training of stacks of models, each model from init under its
    own EarlyStop rule. A stack is (ids, x, y, val_x, val_y), row c being
    model ids[c] on train samples x[c], y[c] and validation samples
    val_x[c], val_y[c]. Each round trains every stack through _train_stack,
    then privatizes the rows of all stacks in one _privatize call. A row
    leaves its stack when it stops or fails.

    Returns three dicts by id: the final params and LocalTrace of each row
    that trained to its end, and the NumericError of each row that failed.
    """
    spec = init.spec
    values = [np.tile(init.values, (len(stack[0]), 1)) for stack in stacks]
    stoppers = {
        cid: EarlyStop(config.early_stop_patience, f"client {cid} validation loss")
        for stack in stacks
        for cid in stack[0]
    }
    trace: dict[str, list[float]] = {cid: [] for cid in stoppers}
    models: dict[str, ModelParams] = {}
    traces: dict[str, LocalTrace] = {}
    errors: dict[str, NumericError] = {}
    for round_index in range(1, config.rounds + 1):
        ids: list[str] = []
        news = []
        failed: dict[int, NumericError] = {}
        for (stack_ids, x, y, _, _), stack_values in zip(stacks, values):
            new, _, stack_failed = _train_stack(stack_values, x, y, spec, config, round_index, stack_ids)
            for i, exc in stack_failed.items():
                failed[len(ids) + i] = exc
            ids += stack_ids
            news.append(new)
        new = _privatize(np.concatenate(values), np.concatenate(news), spec, config, round_index, ids, failed)
        start = 0
        kept_stacks, kept_values = [], []
        for stack in stacks:
            stack_ids, x, y, val_x, val_y = stack
            rows = new[start : start + len(stack_ids)]
            val = stack_loss(spec, rows, val_x, val_y).tolist()
            keep = []
            for i, cid in enumerate(stack_ids):
                if start + i in failed:
                    errors[cid] = failed[start + i]
                    continue
                try:
                    stop = stoppers[cid].update(round_index, val[i])
                except NumericError as exc:
                    errors[cid] = exc
                    continue
                trace[cid].append(val[i])
                if stop or round_index == config.rounds:
                    models[cid] = ModelParams(spec, rows[i].copy())
                    best_round = int(np.argmin(np.asarray(trace[cid]))) + 1
                    traces[cid] = LocalTrace(tuple(trace[cid]), best_round)
                else:
                    keep.append(i)
            start += len(stack_ids)
            if len(keep) == len(stack_ids):
                kept_stacks.append(stack)
                kept_values.append(rows)
            elif keep:
                kept_stacks.append(([stack_ids[i] for i in keep], x[keep], y[keep], val_x[keep], val_y[keep]))
                kept_values.append(rows[keep])
        if not kept_stacks:
            break
        stacks, values = kept_stacks, kept_values
    return models, traces, errors
