"""Shared fixtures for the engine-level tests."""

import numpy as np

from fedforecast.clients import FederatedClient
from fedforecast.data import ClientDataset, TimeSeries, prepare_client
from fedforecast.model import ModelSpec
from fedforecast.population import PopulationSpec, generate_population

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
