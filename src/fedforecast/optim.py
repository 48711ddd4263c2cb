"""First-order optimizers used inside client local training.

Plain SGD and classical heavy-ball momentum. A step writes in place into
the params and the state's velocity, for a training loop that keeps its
arrays; velocity is zero-initialized per FL round because clients keep no
state between rounds. Steps are elementwise, so params may be one vector or a
C x P stack of vectors stepped together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def step(state: OptimizerState, params: np.ndarray, grad: np.ndarray):
    """One optimizer step, in place; returns (params, state). The new params
    and velocity are written into ``params`` and the state's velocity, and
    ``grad`` is scratch. Bitwise p - lr*g (sgd), or v' = beta*v + g and
    p - lr*v' (momentum). Raises ShapeError when params and grad differ in
    shape."""
    if params.shape != grad.shape:
        raise ShapeError(f"vector lengths differ: {params.shape} vs {grad.shape}")
    config = state.config
    if config.kind == "momentum":
        velocity = state.velocity
        velocity *= config.beta
        velocity += grad
        np.multiply(velocity, config.lr, out=grad)
    else:
        grad *= config.lr
    params -= grad
    return params, state
