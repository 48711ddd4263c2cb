"""Optimizer steps: hand-checked values and algebraic properties.

A step writes into its params, velocity and gradient, so each check here
steps copies of its arrays."""

import numpy as np
import pytest

from fedforecast.errors import ConfigError, ShapeError
from fedforecast.optim import OptimizerConfig, make_state, step


def stepped(config, params, grad, state=None):
    """One step of copies of params and grad; returns (new params, state)."""
    if state is None:
        state = make_state(config, np.shape(params))
    return step(state, np.array(params, dtype=np.float64), np.array(grad, dtype=np.float64))


def sgd(params, grad, lr):
    return stepped(OptimizerConfig("sgd", lr), params, grad)[0]


def test_sgd_hand_value():
    np.testing.assert_allclose(sgd([1.0], [2.0], 0.1), [0.8])


def test_sgd_zero_gradient_is_identity():
    p = np.array([1.0, -2.0, 3.0])
    np.testing.assert_array_equal(sgd(p, np.zeros(3), 0.5), p)


def test_sgd_linearity():
    rng = np.random.default_rng(0)
    p = rng.normal(size=6)
    g1 = rng.normal(size=6)
    g2 = rng.normal(size=6)
    two_steps = sgd(sgd(p, g1, 0.3), g2, 0.3)
    one_step = sgd(p, g1 + g2, 0.3)
    np.testing.assert_allclose(two_steps, one_step, atol=1e-15)


def test_momentum_hand_values():
    config = OptimizerConfig(kind="momentum", lr=0.1, beta=0.9)
    p, state = stepped(config, [0.0], [1.0])
    np.testing.assert_allclose(state.velocity, [1.0])
    np.testing.assert_allclose(p, [-0.1])
    p, state = stepped(config, p, [1.0], state)
    np.testing.assert_allclose(state.velocity, [1.9])
    np.testing.assert_allclose(p, [-0.29])


def test_zero_beta_momentum_equals_sgd():
    rng = np.random.default_rng(1)
    for _ in range(10):
        p = rng.normal(size=4)
        g = rng.normal(size=4)
        momentum, _ = stepped(OptimizerConfig(kind="momentum", lr=0.2, beta=0.0), p, g)
        np.testing.assert_array_equal(momentum, sgd(p, g, 0.2))


def test_step_dispatch():
    p1, _ = stepped(OptimizerConfig(kind="sgd", lr=0.1), [1.0], [1.0])
    np.testing.assert_allclose(p1, [0.9])
    p2, s2 = stepped(OptimizerConfig(kind="momentum", lr=0.1, beta=0.9), [1.0], [1.0])
    np.testing.assert_allclose(p2, [0.9])
    assert s2.velocity is not None


def test_length_mismatch_rejected():
    for kind in ("sgd", "momentum"):
        state = make_state(OptimizerConfig(kind=kind, lr=0.1, beta=0.5), 3)
        with pytest.raises(ShapeError):
            step(state, np.zeros(3), np.zeros(2))


def test_config_validation():
    with pytest.raises(ConfigError):
        OptimizerConfig(kind="adam", lr=0.1)
    with pytest.raises(ConfigError):
        OptimizerConfig(kind="sgd", lr=0.0)
    with pytest.raises(ConfigError):
        OptimizerConfig(kind="momentum", lr=0.1, beta=1.0)


@pytest.mark.parametrize("kind", ["sgd", "momentum"])
def test_steps_are_in_place_and_bitwise_the_textbook_arithmetic(kind):
    # Several steps on a stack of vectors, the velocity carried between
    # them; each equals p - lr*g, or beta*v + g and p - lr*v, bitwise.
    rng = np.random.default_rng(2)
    config = OptimizerConfig(kind=kind, lr=0.37, beta=0.85)
    params = rng.normal(size=(3, 5))
    textbook_params, textbook_velocity = params.copy(), np.zeros((3, 5))
    state = make_state(config, params.shape)
    for _ in range(6):
        grad = rng.normal(size=(3, 5))
        kept = grad.copy()
        new, state = step(state, params, grad)
        assert new is params
        if kind == "momentum":
            textbook_velocity = config.beta * textbook_velocity + kept
            textbook_params = textbook_params - config.lr * textbook_velocity
            assert state.velocity.tobytes() == textbook_velocity.tobytes()
        else:
            textbook_params = textbook_params - config.lr * kept
        assert params.tobytes() == textbook_params.tobytes()
