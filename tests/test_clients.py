"""Client-side training: epoch schedules, fine-tuning, local baselines."""

import numpy as np
import pytest

from helpers import population_clients, population_spec
from fedforecast.clients import fine_tune, train_local
from fedforecast.errors import InsufficientDataError, NumericError
from fedforecast.fedcore import FLConfig
from fedforecast.model import init_params, loss, loss_and_grad
from fedforecast.optim import OptimizerConfig
from fedforecast.privacy import DpConfig


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


def test_fine_tune_needs_samples():
    params = init_params(population_spec(lag=1), 0)
    with pytest.raises(InsufficientDataError):
        fine_tune(params, _EmptySplit(), epochs=1, lr=0.1)


class _EmptySplit:
    inputs = np.empty((0, 3))
    targets = np.empty((0, 1))
    n_samples = 0


# -------------------------------------------------------------- local runs


def test_train_local_trace_and_best_round():
    client = one_client()
    cfg = config(rounds=6)
    init = init_params(population_spec(), 0)
    params, trace = train_local(client, init, cfg)
    assert len(trace.val_losses) == 6
    assert trace.best_round == int(np.argmin(trace.val_losses)) + 1
    assert not np.array_equal(params.values, init.values)


def test_train_local_early_stops():
    client = one_client()
    cfg = config(rounds=50, local_epochs=0, early_stop_patience=2)
    _, trace = train_local(client, init_params(population_spec(), 0), cfg)
    assert len(trace.val_losses) == 3


def test_train_local_divergence_names_client_and_round():
    client = one_client()
    cfg = config(rounds=50, optimizer=OptimizerConfig(kind="sgd", lr=1e4))
    with pytest.raises(NumericError, match=rf"round \d+: client {client.client_id} "):
        train_local(client, init_params(population_spec(), 0), cfg)
