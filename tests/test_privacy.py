"""Update privatization: clipping, deterministic Gaussian noise, identities."""

import numpy as np
import pytest

from helpers import population_clients, population_spec
from fedforecast.errors import ConfigError, NumericError
from fedforecast.fedcore import FLConfig, run_result_json_obj, run_training
from fedforecast.optim import OptimizerConfig
from fedforecast.privacy import (
    DpConfig,
    add_gaussian_noise,
    clip_update,
    privatize_delta,
    privatize_rows,
)
from fedforecast.serialize import to_json_text


# ---------------------------------------------------------------- clipping


def test_clip_norm_exactly_at_bound_unchanged():
    delta = np.array([3.0, 4.0])
    out = clip_update(delta, 5.0)
    np.testing.assert_array_equal(out, delta)


def test_clip_scales_down_to_bound():
    np.testing.assert_allclose(clip_update(np.array([6.0, 8.0]), 5.0), [3.0, 4.0])


def test_clip_infinite_bound_is_identity():
    delta = np.array([1e6, -2e6, 3e6])
    np.testing.assert_array_equal(clip_update(delta, np.inf), delta)


def test_clip_norm_bounded_property():
    rng = np.random.default_rng(0)
    for _ in range(50):
        delta = rng.normal(scale=rng.uniform(0.1, 100), size=int(rng.integers(1, 20)))
        c = float(rng.uniform(0.01, 10))
        assert np.linalg.norm(clip_update(delta, c)) <= c + 1e-9


def test_clip_rejects_non_finite():
    with pytest.raises(NumericError):
        clip_update(np.array([np.nan, 1.0]), 1.0)
    with pytest.raises(NumericError):
        clip_update(np.array([np.inf]), 1.0)


def test_clip_rejects_bad_bound():
    with pytest.raises(ConfigError):
        clip_update(np.array([1.0]), 0.0)


# ------------------------------------------------------------------- noise


def test_zero_sigma_is_bitwise_passthrough():
    delta = np.array([0.1, -0.2, 0.3])
    out = add_gaussian_noise(delta, 0.0, master_seed=1, round_index=0, client_id="c0")
    assert out is delta or np.array_equal(out, delta)


def test_noise_deterministic_per_stream():
    delta = np.zeros(8)
    a = add_gaussian_noise(delta, 1.0, master_seed=5, round_index=3, client_id="c1")
    b = add_gaussian_noise(delta, 1.0, master_seed=5, round_index=3, client_id="c1")
    c = add_gaussian_noise(delta, 1.0, master_seed=5, round_index=3, client_id="c2")
    d = add_gaussian_noise(delta, 1.0, master_seed=5, round_index=4, client_id="c1")
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_noise_sample_statistics():
    draws = add_gaussian_noise(
        np.zeros(100_000), 1.0, master_seed=0, round_index=0, client_id="c0"
    )
    assert abs(draws.mean()) < 0.02
    assert abs(draws.std() - 1.0) < 0.02


def test_privatize_clips_then_noises():
    delta = np.array([6.0, 8.0])
    dp = DpConfig(clip_norm=5.0, sigma=0.0)
    np.testing.assert_allclose(
        privatize_delta(delta, dp, master_seed=0, round_index=0, client_id="c0"),
        [3.0, 4.0],
    )
    noisy = privatize_delta(
        delta,
        DpConfig(clip_norm=5.0, sigma=0.5),
        master_seed=0,
        round_index=0,
        client_id="c0",
    )
    expected = np.array([3.0, 4.0]) + add_gaussian_noise(
        np.zeros(2), 2.5, master_seed=0, round_index=0, client_id="c0"
    )
    np.testing.assert_allclose(noisy, expected)


@pytest.mark.parametrize(
    "dp",
    [
        DpConfig(),
        DpConfig(clip_norm=1.0),
        DpConfig(clip_norm=1.0, sigma=0.7),
        DpConfig(clip_norm=50.0, sigma=2.0),
    ],
    ids=["inactive", "clip", "clip-noise", "noise-within-bound"],
)
def test_privatize_rows_is_privatize_delta_of_each_row(dp):
    deltas = np.random.default_rng(3).normal(scale=2.0, size=(4, 37))
    ids = ["c003", "c000", "c017", "c002"]
    for c, cid in enumerate(ids):
        want = privatize_delta(deltas[c], dp, master_seed=9, round_index=4, client_id=cid)
        # A stack of one, and the row within the stack.
        one = privatize_rows(deltas[c : c + 1], dp, 9, 4, [cid])
        many = privatize_rows(deltas, dp, 9, 4, ids)
        assert one.shape == (1, 37)
        assert one[0].tobytes() == want.tobytes() == many[c].tobytes()


def test_sigma_without_finite_clip_rejected():
    with pytest.raises(ConfigError):
        DpConfig(clip_norm=np.inf, sigma=0.5)


def test_reconstruction_commutes_with_aggregation():
    # Aggregating (broadcast + privatized delta) equals broadcast plus the
    # weighted mean of privatized deltas: noising deltas and noising params
    # agree because aggregation is affine.
    rng = np.random.default_rng(7)
    broadcast = rng.normal(size=6)
    deltas = [rng.normal(size=6) for _ in range(3)]
    weights = np.array([2.0, 1.0, 5.0])
    weights = weights / weights.sum()
    dp = DpConfig(clip_norm=1.0, sigma=0.3)
    noisy = [
        privatize_delta(d, dp, master_seed=1, round_index=2, client_id=f"c{i}")
        for i, d in enumerate(deltas)
    ]
    via_params = sum(w * (broadcast + nd) for w, nd in zip(weights, noisy))
    via_deltas = broadcast + sum(w * nd for w, nd in zip(weights, noisy))
    np.testing.assert_allclose(via_params, via_deltas, atol=1e-12)


# --------------------------------------------------- engine-level identity


def test_inactive_dp_is_bit_identical_to_disabled():
    clients = population_clients(n_clients=3, days=7, seed=2)
    spec = population_spec(lag=6)
    base = FLConfig(
        rounds=5,
        local_epochs=1,
        optimizer=OptimizerConfig(kind="sgd", lr=0.05),
        seed=11,
    )
    inactive = FLConfig(
        rounds=5,
        local_epochs=1,
        optimizer=OptimizerConfig(kind="sgd", lr=0.05),
        seed=11,
        dp=DpConfig(clip_norm=np.inf, sigma=0.0),
    )
    plain = run_training(clients, spec, base)
    gated = run_training(clients, spec, inactive)
    assert to_json_text(run_result_json_obj(plain)) == to_json_text(
        run_result_json_obj(gated)
    )


def test_active_clip_changes_trajectory():
    clients = population_clients(n_clients=3, days=7, seed=2)
    spec = population_spec(lag=6)
    base = FLConfig(
        rounds=5, optimizer=OptimizerConfig(kind="sgd", lr=0.05), seed=11
    )
    tight = FLConfig(
        rounds=5,
        optimizer=OptimizerConfig(kind="sgd", lr=0.05),
        seed=11,
        dp=DpConfig(clip_norm=1e-4, sigma=0.0),
    )
    plain = run_training(clients, spec, base)
    clipped = run_training(clients, spec, tight)
    assert not np.array_equal(plain.models[0].values, clipped.models[0].values)
