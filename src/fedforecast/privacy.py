"""Update-level differential-privacy mechanics.

Clients clip their update delta (new params minus broadcast params) to an L2
norm bound C, then add i.i.d. Gaussian noise with stddev sigma*C drawn from
a stream derived deterministically from (master seed, "dp", client, round).
The server reconstructs params as broadcast + noisy delta; by linearity of
the weighted average this equals noising the params directly.

``privatize_delta`` is the definition for one update. ``privatize_rows``
privatizes a stack of updates bitwise as ``privatize_delta`` does each one;
the client layer calls it once per round on every participant's delta, so
the round's noise streams are set up together by ``seeds.streams``.

No (epsilon, delta) accounting is performed; runs report the raw
(C, sigma, rounds, participation) tuple instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .model import row_norms
from .seeds import rng_for, streams

# The one error text of an update delta that holds a non-finite value.
NON_FINITE_UPDATE = "cannot clip a non-finite update"


@dataclass(frozen=True)
class DpConfig:
    """clip_norm = inf disables clipping; sigma = 0 disables noise."""

    clip_norm: float = math.inf
    sigma: float = 0.0

    def __post_init__(self) -> None:
        if not self.clip_norm > 0:
            raise ConfigError(f"clip_norm: must be > 0, got {self.clip_norm}")
        if not self.sigma >= 0:
            raise ConfigError(f"sigma: must be >= 0, got {self.sigma}")
        if self.sigma > 0 and not math.isfinite(self.clip_norm):
            raise ConfigError(
                "clip_norm: must be finite when sigma > 0 (noise stddev is sigma * clip_norm)"
            )

    @property
    def active(self) -> bool:
        return math.isfinite(self.clip_norm) or self.sigma > 0


def clip_rows(deltas: np.ndarray, clip_norm: float) -> np.ndarray:
    """Scale each row of a C x P stack of finite deltas to L2 norm clip_norm
    when it exceeds it; rows within the bound are multiplied by exactly 1.

    A row clips bitwise as it does alone; an overflowing (inf) norm clips
    the row to zero.
    """
    if not math.isfinite(clip_norm):
        return deltas
    return deltas * (clip_norm / np.maximum(row_norms(deltas), clip_norm))[:, None]


def clip_update(delta: np.ndarray, clip_norm: float) -> np.ndarray:
    """Scale delta to L2 norm clip_norm when it exceeds it; else return as-is."""
    delta = np.asarray(delta, dtype=np.float64)
    if not clip_norm > 0:
        raise ConfigError(f"clip_norm must be > 0, got {clip_norm}")
    if not np.all(np.isfinite(delta)):
        raise NumericError(NON_FINITE_UPDATE)
    return clip_rows(delta[None], clip_norm)[0]


def _noise_stream(client_id: str, round_index: int) -> tuple:
    """The labels of a client's DP noise stream in a round."""
    return ("dp", client_id, round_index)


def add_gaussian_noise(
    delta: np.ndarray,
    noise_std: float,
    master_seed: int,
    round_index: int,
    client_id: str,
) -> np.ndarray:
    """Add zero-mean Gaussian noise from the (round, client) stream.

    noise_std = 0 is a bit-identical passthrough.
    """
    delta = np.asarray(delta, dtype=np.float64)
    if not noise_std >= 0:
        raise ConfigError(f"noise_std must be >= 0, got {noise_std}")
    if noise_std == 0:
        return delta
    rng = rng_for(master_seed, *_noise_stream(client_id, round_index))
    return delta + rng.normal(0.0, noise_std, size=delta.shape)


def privatize_delta(
    delta: np.ndarray,
    config: DpConfig,
    master_seed: int,
    round_index: int,
    client_id: str,
) -> np.ndarray:
    """Clip then noise one update delta per the config."""
    delta = clip_update(delta, config.clip_norm)
    if config.sigma > 0:
        delta = add_gaussian_noise(
            delta, config.sigma * config.clip_norm, master_seed, round_index, client_id
        )
    return delta


def privatize_rows(
    deltas: np.ndarray,
    config: DpConfig,
    master_seed: int,
    round_index: int,
    client_ids,
) -> np.ndarray:
    """``privatize_delta`` of each row of a C x P stack of finite deltas,
    row c being client_ids[c]'s update, noised from that client's stream.
    The C noise streams are set up together by ``seeds.streams``."""
    deltas = clip_rows(deltas, config.clip_norm)
    if config.sigma > 0:
        std = config.sigma * config.clip_norm
        paths = [_noise_stream(cid, round_index) for cid in client_ids]
        noise = np.empty_like(deltas)
        for row, rng in zip(noise, streams(master_seed, paths)):
            row[:] = rng.normal(0.0, std, size=row.shape)
        deltas = deltas + noise
    return deltas
