"""Clustered-FL strategy primitives.

Two strategies are supported by the engine:

* one-shot hierarchical clustering (``hc``): after a few warm-up FedAvg
  rounds, clients are grouped by the Euclidean distance between their local
  weight deltas (local params minus the broadcast params), average linkage,
  merging until the minimum inter-cluster distance exceeds a threshold tau;
  afterwards each cluster trains independently;
* iterative cluster self-selection (``ifca``): the server keeps k models,
  every round each participant picks the model with the lowest loss on its
  own training split and contributes its update to that cluster only.

This module holds the pure decision functions; the round orchestration
lives in the engine.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .errors import InsufficientDataError, ShapeError
from .model import ModelParams, loss


def hc_partition(deltas: Mapping[str, np.ndarray], tau: float) -> dict[str, int]:
    """Agglomerative average-linkage partition of client weight deltas.

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


def ifca_assign(train, models: Sequence[ModelParams]) -> int:
    """Index of the cluster model with the lowest mean loss on ``train``.

    Ties break toward the lowest index.
    """
    if len(models) < 1:
        raise InsufficientDataError("ifca_assign needs at least one model")
    if train.n_samples < 1:
        raise InsufficientDataError("ifca_assign needs training samples")
    losses = [loss(m, train.inputs, train.targets) for m in models]
    best = 0
    for j in range(1, len(losses)):
        if losses[j] < losses[best]:
            best = j
    return best

