"""Clustering primitives: threshold agglomeration and loss-based selection.

The agglomerative routine is cross-checked against scipy's average-linkage
implementation, which shares no code with ours.
"""

import numpy as np
import pytest
from scipy.cluster.hierarchy import fcluster, linkage

from helpers import assignments_match
from fedforecast.cluster import hc_partition, ifca_assign
from fedforecast.data import SupervisedSet
from fedforecast.errors import InsufficientDataError, ShapeError
from fedforecast.model import ModelParams, ModelSpec


def test_hand_worked_partition():
    deltas = {
        "a": np.array([0.0, 0.0]),
        "b": np.array([0.0, 0.01]),
        "c": np.array([5.0, 5.0]),
    }
    assert hc_partition(deltas, tau=1.0) == {"a": 0, "b": 0, "c": 1}


def test_tau_above_diameter_single_cluster():
    deltas = {f"c{i}": np.array([float(i), 0.0]) for i in range(5)}
    assert set(hc_partition(deltas, tau=100.0).values()) == {0}


def test_tau_below_all_distances_singletons():
    deltas = {f"c{i}": np.array([float(3 * i)]) for i in range(4)}
    out = hc_partition(deltas, tau=1e-9)
    assert sorted(out.values()) == [0, 1, 2, 3]
    # ids ascend with the smallest member client_id
    assert out == {"c0": 0, "c1": 1, "c2": 2, "c3": 3}


def test_single_client():
    assert hc_partition({"only": np.array([1.0])}, tau=1.0) == {"only": 0}


def test_enumeration_order_irrelevant():
    rng = np.random.default_rng(0)
    vectors = {f"c{i}": rng.normal(size=4) for i in range(8)}
    forward = hc_partition(vectors, tau=2.0)
    reversed_view = hc_partition(dict(reversed(list(vectors.items()))), tau=2.0)
    assert forward == reversed_view


def test_mismatched_lengths_rejected():
    with pytest.raises(ShapeError):
        hc_partition({"a": np.array([1.0]), "b": np.array([1.0, 2.0])}, tau=1.0)


def test_matches_scipy_average_linkage():
    rng = np.random.default_rng(42)
    for trial in range(20):
        n = int(rng.integers(2, 12))
        dim = int(rng.integers(1, 5))
        points = rng.normal(scale=2.0, size=(n, dim))
        tau = float(rng.uniform(0.5, 6.0))
        ids = [f"c{i:02d}" for i in range(n)]
        ours = hc_partition(dict(zip(ids, points)), tau=tau)
        z = linkage(points, method="average", metric="euclidean")
        flat = fcluster(z, t=tau, criterion="distance")
        theirs = dict(zip(ids, (int(x) for x in flat)))
        assert assignments_match(ours, theirs), f"trial {trial}: {ours} vs {theirs}"


# --------------------------------------------------------- cluster selection


def linear_params(w, b=0.0):
    spec = ModelSpec(kind="linear", input_dim=1, horizon=1)
    return ModelParams(spec, np.array([w, b], dtype=float))


def doubling_data():
    x = np.linspace(-1, 1, 12).reshape(-1, 1)
    return SupervisedSet(x, 2.0 * x, np.arange(12))


def test_single_model_selected():
    assert ifca_assign(doubling_data(), [linear_params(2.0)]) == 0


def test_identical_models_tie_to_lowest_index():
    models = [linear_params(1.0), linear_params(1.0)]
    assert ifca_assign(doubling_data(), models) == 0


def test_matching_generator_wins():
    models = [linear_params(-2.0), linear_params(2.0)]
    assert ifca_assign(doubling_data(), models) == 1


def test_duplicated_data_leaves_choice_unchanged():
    data = doubling_data()
    doubled = SupervisedSet(
        np.vstack([data.inputs, data.inputs]),
        np.vstack([data.targets, data.targets]),
        np.arange(24),
    )
    models = [linear_params(-2.0), linear_params(2.0), linear_params(1.9)]
    assert ifca_assign(data, models) == ifca_assign(doubled, models)


def test_empty_supervised_sets_unrepresentable():
    # ifca_assign requires samples; the type itself enforces that.
    with pytest.raises(InsufficientDataError):
        SupervisedSet(np.empty((0, 1)), np.empty((0, 1)), np.empty(0, dtype=int))


# ------------------------------------------------------- assignment matching


def test_assignments_match_up_to_permutation():
    a = {"x": 0, "y": 0, "z": 1}
    b = {"x": 1, "y": 1, "z": 0}
    c = {"x": 0, "y": 1, "z": 1}
    assert assignments_match(a, b)
    assert not assignments_match(a, c)
    assert not assignments_match(a, {"x": 0, "y": 0})
