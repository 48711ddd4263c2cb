"""Client-side computations over private data splits.

Everything that touches raw samples lives here (or in the pure model/data
modules); the server engine only ever sees ClientUpdate values, losses, and
sample counts through the FederatedClient handle. local_update runs the
configured epochs of (mini-)batch optimization from the broadcast params,
applies update-level DP when enabled, and ships back new params.

Batch order is shuffled deterministically from (config seed, client id,
round index); with batch_size 0 the full batch is used and no shuffling
happens, so one epoch is exactly one full-batch gradient step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ClientSplits, SupervisedSet
from .errors import InsufficientDataError
from .fedcore import ClientUpdate, EarlyStop, FLConfig
from .model import ModelParams, loss, loss_and_grad, predict_batch
from .optim import make_state, step
from .privacy import privatize_delta
from .seeds import rng_for
from . import cluster as _cluster


def run_epochs(
    values: np.ndarray,
    inputs: np.ndarray,
    targets: np.ndarray,
    spec,
    config: FLConfig,
    stream_labels: tuple,
) -> tuple[np.ndarray, float]:
    """Run config.local_epochs of (mini-)batch steps; returns new values and
    the mean train loss of the final epoch (losses measured pre-step)."""
    n = inputs.shape[0]
    epochs = config.local_epochs
    if epochs == 0:
        return values, loss(ModelParams(spec, values), inputs, targets)
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


def local_update(
    train: SupervisedSet,
    broadcast: ModelParams,
    config: FLConfig,
    round_index: int,
    client_id: str,
) -> ClientUpdate:
    """One client's contribution for one round.

    local_epochs = 0 returns the broadcast params bit-identical, with the
    train loss evaluated at those params. When DP is active the update delta
    is clipped/noised before the new params are reconstructed.
    """
    if train.n_samples < 1:
        raise InsufficientDataError(f"client {client_id} has no training samples")
    if config.local_epochs == 0:
        train_loss = loss(broadcast, train.inputs, train.targets)
        new_params = broadcast
    else:
        values, train_loss = run_epochs(
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

    @property
    def n_test_samples(self) -> int:
        return self._test.n_samples

    def local_update(
        self, broadcast: ModelParams, config: FLConfig, round_index: int
    ) -> ClientUpdate:
        return local_update(self._train, broadcast, config, round_index, self.client_id)

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
    client: FederatedClient, init: ModelParams, config: FLConfig
) -> tuple[ModelParams, LocalTrace]:
    """Isolated local training: the same per-round schedule as federation,
    minus any communication. Early stopping is the engine's EarlyStop rule."""
    params = init
    stopper = EarlyStop(
        config.early_stop_patience, f"client {client.client_id} validation loss"
    )
    trace: list[float] = []
    for round_index in range(1, config.rounds + 1):
        params = client.local_update(params, config, round_index).new_params
        val, _ = client.val_loss(params)
        stop = stopper.update(round_index, val)
        trace.append(val)
        if stop:
            break
    best_round = int(np.argmin(np.asarray(trace))) + 1
    return params, LocalTrace(tuple(trace), best_round)
