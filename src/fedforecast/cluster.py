"""Clustered-FL strategy primitives.

Two strategies are supported by the engine:

* hierarchical clustering (``hc``): after a few warm-up FedAvg rounds,
  clients are grouped by the Euclidean distance between their local weight
  deltas (local params minus the broadcast params), average linkage, merging
  until the minimum inter-cluster distance exceeds a threshold tau; each
  cluster then trains on its own, and the clients are regrouped every
  ``recluster_every`` rounds when that is > 0;
* iterative cluster self-selection (``ifca``): the server keeps k models,
  every round each participant picks the model with the lowest loss on its
  own training split and contributes its update to that cluster only.

This module holds the pure decision functions; the round orchestration
lives in the engine.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .errors import InsufficientDataError, ShapeError
from .model import ModelSpec, _check_batch, row_norms, stack_loss
from .model import loss  # noqa: F401  (perfbench/tracer.py wraps cluster.loss)


def hc_partition(deltas: Mapping[str, np.ndarray], tau: float) -> dict[str, int]:
    """Agglomerative average-linkage partition of client weight deltas.

    Returns a total map client_id -> cluster_id. Cluster ids are assigned in
    ascending order of each cluster's smallest member client_id, so the
    labeling is independent of the input enumeration order.

    Each merge takes the first closest pair in a scan over pairs (a, b), a
    before b, in order of smallest member, where a later pair wins only when
    closer by more than 1e-15; merging stops once that distance exceeds tau.
    Cost: O(n^2) memory and, per merge, an O(n^2) vectorized scan plus one
    block mean per other cluster.
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
    point_dist = _point_distances(np.array(vectors))

    # A cluster lives at its smallest member's index, so the upper triangle of
    # ``avg`` in row-major order is the scan order; other entries are inf.
    members = {i: [i] for i in range(n)}
    avg = np.where(np.triu(np.ones((n, n), dtype=bool), 1), point_dist, np.inf)
    while len(members) > 1:
        # The scan, skipping rows whose minimum cannot replace the best.
        row_min = np.fmin.reduce(avg, axis=1)
        best, pair, start = np.inf, None, 0
        while (hit := np.flatnonzero(row_min[start:] < best - 1e-15)).size:
            a, b = start + hit[0], -1
            while (hit := np.flatnonzero(avg[a, b + 1 :] < best - 1e-15)).size:
                b += 1 + hit[0]
                best = avg[a, b]
            pair, start = (a, b), a + 1
        if pair is None or best > tau:
            break
        a, b = pair
        members[a] += members.pop(b)
        avg[b] = avg[:, b] = np.inf
        # Row a's blocks, copied in the layout np.ix_ gives, so each mean
        # sums in the same order and is bitwise the rescan's value.
        rows = point_dist[members[a]]
        cols = point_dist.take(members[a], axis=1)
        for c, other in members.items():
            if c != a:
                block = cols[other] if c < a else rows.take(other, axis=1)
                avg[min(a, c), max(a, c)] = np.mean(block)

    assignment: dict[str, int] = {}
    for label, rep in enumerate(members):
        for idx in members[rep]:
            assignment[ids[idx]] = label
    return assignment


def _point_distances(vectors: np.ndarray) -> np.ndarray:
    """Symmetric n x n Euclidean distances between the rows of ``vectors``.

    Row i's differences to every later row are taken at once, and every
    entry is bitwise ``np.linalg.norm(v_i - v_j)``.
    """
    n = vectors.shape[0]
    dist = np.zeros((n, n))
    for i in range(n - 1):
        dist[i, i + 1 :] = dist[i + 1 :, i] = row_norms(vectors[i] - vectors[i + 1 :])
    return dist


def ifca_assign(inputs, targets, spec: ModelSpec, models: np.ndarray) -> list[int]:
    """For each row c of a stack (inputs C x n x d, targets C x n x h), the
    index of the model of models[c] (C x K x P, K models of ``spec`` per
    row) with the lowest mean loss on its samples.

    The losses are K stack_loss calls, model j of every row at once; each
    equals ``loss`` of that model on that row. A later model wins a row
    only when its loss is strictly lower, so ties go to the lowest index
    and a NaN loss never wins (unlike np.argmin).
    """
    if models.shape[1] < 1:
        raise InsufficientDataError("ifca_assign needs at least one model")
    _check_batch(spec, inputs[0], targets[0])
    rows = np.arange(len(inputs))
    losses = np.array([stack_loss(spec, models[:, j], inputs, targets) for j in range(models.shape[1])])
    best = np.zeros(len(inputs), dtype=np.int64)
    for j in range(1, len(losses)):
        best[losses[j] < losses[best, rows]] = j
    return best.tolist()
