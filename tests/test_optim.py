"""Optimizer steps: hand-checked values and algebraic properties."""

import numpy as np
import pytest

from fedforecast.errors import ConfigError, ShapeError
from fedforecast.optim import (
    OptimizerConfig,
    make_state,
    momentum_step,
    sgd_step,
    step,
)


def test_sgd_hand_value():
    np.testing.assert_allclose(sgd_step(np.array([1.0]), np.array([2.0]), 0.1), [0.8])


def test_sgd_zero_gradient_is_identity():
    p = np.array([1.0, -2.0, 3.0])
    np.testing.assert_array_equal(sgd_step(p, np.zeros(3), 0.5), p)


def test_sgd_linearity():
    rng = np.random.default_rng(0)
    p = rng.normal(size=6)
    g1 = rng.normal(size=6)
    g2 = rng.normal(size=6)
    two_steps = sgd_step(sgd_step(p, g1, 0.3), g2, 0.3)
    one_step = sgd_step(p, g1 + g2, 0.3)
    np.testing.assert_allclose(two_steps, one_step, atol=1e-15)


def test_momentum_hand_values():
    state = make_state(OptimizerConfig(kind="momentum", lr=0.1, beta=0.9), 1)
    p = np.array([0.0])
    p, state = momentum_step(state, p, np.array([1.0]))
    np.testing.assert_allclose(state.velocity, [1.0])
    np.testing.assert_allclose(p, [-0.1])
    p, state = momentum_step(state, p, np.array([1.0]))
    np.testing.assert_allclose(state.velocity, [1.9])
    np.testing.assert_allclose(p, [-0.29])


def test_zero_beta_momentum_equals_sgd():
    rng = np.random.default_rng(1)
    for _ in range(10):
        p = rng.normal(size=4)
        g = rng.normal(size=4)
        state = make_state(OptimizerConfig(kind="momentum", lr=0.2, beta=0.0), 4)
        stepped, _ = momentum_step(state, p, g)
        np.testing.assert_array_equal(stepped, sgd_step(p, g, 0.2))


def test_step_dispatch():
    p = np.array([1.0])
    g = np.array([1.0])
    s_sgd = make_state(OptimizerConfig(kind="sgd", lr=0.1), 1)
    p1, _ = step(s_sgd, p, g)
    np.testing.assert_allclose(p1, [0.9])
    s_mom = make_state(OptimizerConfig(kind="momentum", lr=0.1, beta=0.9), 1)
    p2, s2 = step(s_mom, p, g)
    np.testing.assert_allclose(p2, [0.9])
    assert s2.velocity is not None


def test_length_mismatch_rejected():
    with pytest.raises(ShapeError):
        sgd_step(np.zeros(3), np.zeros(2), 0.1)
    state = make_state(OptimizerConfig(kind="momentum", lr=0.1, beta=0.5), 3)
    with pytest.raises(ShapeError):
        momentum_step(state, np.zeros(3), np.zeros(2))


def test_config_validation():
    with pytest.raises(ConfigError):
        OptimizerConfig(kind="adam", lr=0.1)
    with pytest.raises(ConfigError):
        OptimizerConfig(kind="sgd", lr=0.0)
    with pytest.raises(ConfigError):
        OptimizerConfig(kind="momentum", lr=0.1, beta=1.0)


@pytest.mark.parametrize("kind", ["sgd", "momentum"])
def test_in_place_steps_equal_the_pure_steps_bitwise(kind):
    # Several steps on a stack of vectors, the velocity carried between
    # them; both equal the textbook arithmetic p - lr*g and beta*v + g.
    rng = np.random.default_rng(2)
    config = OptimizerConfig(kind=kind, lr=0.37, beta=0.85)
    pure_params = rng.normal(size=(3, 5))
    params = pure_params.copy()
    textbook_params, textbook_velocity = pure_params.copy(), np.zeros((3, 5))
    pure_state = make_state(config, params.shape)
    state = make_state(config, params.shape)
    for _ in range(6):
        grad = rng.normal(size=(3, 5))
        kept = grad.copy()
        pure_params, pure_state = step(pure_state, pure_params, grad)
        assert grad.tobytes() == kept.tobytes()
        stepped, state = step(state, params, grad, in_place=True)
        assert stepped is params
        if kind == "momentum":
            textbook_velocity = config.beta * textbook_velocity + kept
            textbook_params = textbook_params - config.lr * textbook_velocity
            assert state.velocity.tobytes() == pure_state.velocity.tobytes()
            assert state.velocity.tobytes() == textbook_velocity.tobytes()
        else:
            textbook_params = textbook_params - config.lr * kept
        assert params.tobytes() == pure_params.tobytes() == textbook_params.tobytes()


def test_pure_steps_leave_their_arguments_untouched():
    rng = np.random.default_rng(3)
    params, grad = rng.normal(size=4), rng.normal(size=4)
    state = make_state(OptimizerConfig(kind="momentum", lr=0.1, beta=0.5), 4)
    state.velocity[:] = rng.normal(size=4)
    kept = [a.copy() for a in (params, grad, state.velocity)]
    momentum_step(state, params, grad)
    sgd_step(params, grad, 0.1)
    for arg, before in zip((params, grad, state.velocity), kept):
        assert arg.tobytes() == before.tobytes()
