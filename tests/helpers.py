"""Shared fixtures for the engine-level tests."""

from typing import Mapping

import numpy as np

from fedforecast.clients import FederatedClient
from fedforecast.data import ClientDataset, TimeSeries, prepare_client
from fedforecast.errors import InsufficientDataError, ShapeError
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


def reference_hc_partition(deltas: Mapping[str, np.ndarray], tau: float) -> dict[str, int]:
    """The rescanning average-linkage partition ``hc_partition`` replaced.

    Every merge recomputes the mean cross distance of every cluster pair,
    so it costs about n^3; tests compare ``hc_partition`` against it for
    exact equality, ties included.

    Returns a total map client_id -> cluster_id. Cluster ids are assigned in
    ascending order of each cluster's smallest member client_id, so the
    labeling is independent of the input enumeration order.
    """
    if not deltas:
        raise InsufficientDataError("hc_partition needs at least one client")
    ids = sorted(deltas)
    vectors = []
    for cid in ids:
        vec = np.asarray(deltas[cid], dtype=np.float64).ravel()
        if vectors and vec.shape != vectors[0].shape:
            raise ShapeError(
                f"delta for {cid} has length {vec.shape[0]}, "
                f"expected {vectors[0].shape[0]}"
            )
        vectors.append(vec)
    n = len(ids)
    point_dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = float(np.linalg.norm(vectors[i] - vectors[j]))
            point_dist[i, j] = point_dist[j, i] = d

    clusters: list[list[int]] = [[i] for i in range(n)]
    while len(clusters) > 1:
        best = None
        best_dist = np.inf
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                cross = point_dist[np.ix_(clusters[a], clusters[b])]
                d = float(np.mean(cross))
                if d < best_dist - 1e-15:
                    best_dist = d
                    best = (a, b)
        if best is None or best_dist > tau:
            break
        a, b = best
        clusters[a] = clusters[a] + clusters[b]
        del clusters[b]

    clusters.sort(key=lambda members: min(members))
    assignment: dict[str, int] = {}
    for label, members in enumerate(clusters):
        for idx in members:
            assignment[ids[idx]] = label
    return assignment
