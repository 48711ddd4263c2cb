"""First-order optimizers used inside client local training.

Plain SGD and classical heavy-ball momentum. Steps are pure functions of
(state, params, grad), or write in place for a training loop that keeps its
arrays; velocity is zero-initialized per FL round because clients keep no
state between rounds. Steps are elementwise, so params may be one vector or a
C x P stack of vectors stepped together.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, ShapeError

OPTIMIZER_KINDS = ("sgd", "momentum")


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "sgd"
    lr: float = 0.1
    beta: float = 0.9

    def __post_init__(self) -> None:
        if self.kind not in OPTIMIZER_KINDS:
            raise ConfigError(f"kind: must be one of {OPTIMIZER_KINDS}, got {self.kind!r}")
        if not self.lr > 0:
            raise ConfigError(f"lr: must be > 0, got {self.lr}")
        if not 0.0 <= self.beta < 1.0:
            raise ConfigError(f"beta: must be in [0,1), got {self.beta}")


@dataclass(frozen=True)
class OptimizerState:
    """Per-client, per-round optimizer state; velocity used by momentum only."""

    config: OptimizerConfig
    velocity: np.ndarray | None = field(default=None, repr=False)


def make_state(config: OptimizerConfig, shape) -> OptimizerState:
    """Fresh state for params of ``shape`` (a length or a stack shape)."""
    if config.kind == "momentum":
        return OptimizerState(config, np.zeros(shape))
    return OptimizerState(config)


def _check_lengths(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"vector lengths differ: {a.shape} vs {b.shape}")


def step(state: OptimizerState, params: np.ndarray, grad: np.ndarray, in_place: bool = False):
    """One optimizer step; returns (new params, new state). In place, the
    new params and velocity are written into ``params`` and the state's
    velocity, and ``grad`` is scratch; the pure form runs the same
    arithmetic on copies. Either is bitwise p - lr*g (sgd), or
    v' = beta*v + g and p - lr*v' (momentum)."""
    config = state.config
    if not in_place:
        params = np.array(params, dtype=np.float64)
        grad = np.array(grad, dtype=np.float64)
        _check_lengths(params, grad)
        if config.kind == "momentum":
            velocity = np.zeros_like(params) if state.velocity is None else state.velocity.copy()
            _check_lengths(velocity, grad)
            state = OptimizerState(config, velocity)
    if config.kind == "momentum":
        velocity = state.velocity
        velocity *= config.beta
        velocity += grad
        np.multiply(velocity, config.lr, out=grad)
    else:
        grad *= config.lr
    params -= grad
    return params, state


def sgd_step(params: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
    return step(OptimizerState(OptimizerConfig("sgd", lr)), params, grad)[0]


def momentum_step(
    state: OptimizerState, params: np.ndarray, grad: np.ndarray
) -> tuple[np.ndarray, OptimizerState]:
    """Heavy ball: v' = beta*v + g, p' = p - lr*v'."""
    return step(OptimizerState(replace(state.config, kind="momentum"), state.velocity), params, grad)
