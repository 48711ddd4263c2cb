"""Clustering primitives: threshold agglomeration and loss-based selection.

The agglomerative routine is cross-checked against scipy's average-linkage
implementation, which shares no code with ours, and label for label against
the rescanning implementation it replaced (``helpers.reference_hc_partition``).
"""

import numpy as np
import pytest
from scipy.cluster.hierarchy import fcluster, linkage

from helpers import assignments_match, reference_hc_partition, reference_pairwise_distances
from fedforecast import cluster as cluster_module
from fedforecast.cluster import _point_distances, hc_partition, ifca_assign
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


def scipy_cases():
    """(points, tau) pairs: small random inputs, then planted clusters of up
    to 300 points cut between and inside the clusters."""
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        dim = int(rng.integers(1, 5))
        points = rng.normal(scale=2.0, size=(n, dim))
        yield points, float(rng.uniform(0.5, 6.0))
    rng = np.random.default_rng(43)
    for n, k in ((60, 3), (150, 5), (300, 8)):
        centers = rng.normal(scale=20.0, size=(k, 4))
        points = centers[rng.integers(0, k, size=n)] + rng.normal(size=(n, 4))
        for tau in (0.8, 2.5, 10.0):
            yield points, tau


def test_matches_scipy_average_linkage():
    for trial, (points, tau) in enumerate(scipy_cases()):
        ids = [f"c{i:03d}" for i in range(len(points))]
        ours = hc_partition(dict(zip(ids, points)), tau=tau)
        z = linkage(points, method="average", metric="euclidean")
        flat = fcluster(z, t=tau, criterion="distance")
        theirs = dict(zip(ids, (int(x) for x in flat)))
        assert assignments_match(ours, theirs), f"trial {trial}: {ours} vs {theirs}"


def tie_heavy_inputs(kind):
    """Point sets of up to 40 clients; all but the gaussian ones have many
    equal or nearly equal pairwise distances."""
    rng = np.random.default_rng(["grid", "jittered", "duplicates", "gaussian"].index(kind))
    for _ in range(20):
        n = int(rng.integers(2, 41))
        dim = int(rng.integers(1, 4))
        if kind == "grid":
            yield rng.integers(0, 4, size=(n, dim)).astype(float)
        elif kind == "jittered":  # distances a few ulps apart: near-ties
            grid = rng.integers(0, 4, size=(n, dim)).astype(float)
            yield grid + rng.integers(-3, 4, size=(n, dim)) * 2.0**-52
        elif kind == "duplicates":
            sites = rng.integers(0, 3, size=(max(1, n // 4), dim)).astype(float)
            yield sites[rng.integers(0, len(sites), size=n)]
        else:
            yield rng.normal(size=(n, dim))


@pytest.mark.parametrize("kind", ["grid", "jittered", "duplicates", "gaussian"])
def test_matches_rescanning_reference_exactly(kind):
    # Same labels, not just the same partition: the scan-order tie-break and
    # the stop at tau must both agree, so tau is also set to a realised
    # point distance.
    rng = np.random.default_rng(100)
    for trial, points in enumerate(tie_heavy_inputs(kind)):
        ids = [f"c{i:02d}" for i in range(len(points))]
        deltas = dict(zip(ids, points))
        realised = sorted({float(np.linalg.norm(p - q)) for p in points for q in points})
        for tau in (realised[int(rng.integers(len(realised)))], 1.2, 1e12):
            expected = reference_hc_partition(deltas, tau)
            assert hc_partition(deltas, tau) == expected, f"trial {trial}, tau {tau}"


@pytest.mark.parametrize("kind", ["grid", "jittered", "duplicates", "gaussian", "wide"])
def test_point_distances_equal_pairwise_norms_bitwise(kind):
    if kind == "wide":  # model-sized deltas over many magnitudes
        rng = np.random.default_rng(7)
        inputs = (
            rng.normal(size=(int(rng.integers(2, 30)), int(rng.integers(20, 400))))
            * 10.0 ** int(rng.integers(-8, 8))
            for _ in range(20)
        )
    else:
        inputs = tie_heavy_inputs(kind)
    for trial, points in enumerate(inputs):
        want = reference_pairwise_distances(list(points))
        assert np.array_equal(_point_distances(points), want), f"trial {trial}"


_A, _B = [1.0, 1.0, 1.0], [0.0, 2.0, 2.0]
_ULP = 2.0**-52


@pytest.mark.parametrize(
    "points, tau, split",
    [
        # Seven clients at one point and two at another sqrt(3) away: the
        # mean of the 14 equal cross distances rounds just above sqrt(3), so
        # a running sum of cross distances would merge what the rescan keeps
        # apart.
        ([_A, _A, _B, _A, _A, _A, _B, _A, _A], float(np.sqrt(3.0)), {2, 6}),
        # Two groups on a line, 1 apart up to a few ulps, and tau 1: the mean
        # of the cross distances rounds to at most 1 only when the block is
        # summed in the rescan's row-major order.
        (
            [[1.0], [2 + 2 * _ULP], [2 - _ULP], [1 - _ULP], [2 - _ULP], [2 + 2 * _ULP], [1 - _ULP], [2.0]],
            1.0,
            set(),
        ),
    ],
    ids=["running-sum", "block-order"],
)
def test_cluster_means_round_as_in_the_rescan(points, tau, split):
    deltas = {f"c{i}": np.array(p) for i, p in enumerate(points)}
    expected = {f"c{i}": int(i in split) for i in range(len(points))}
    assert reference_hc_partition(deltas, tau) == expected
    assert hc_partition(deltas, tau) == expected


# --------------------------------------------------------- cluster selection


def linear_params(w, b=0.0):
    spec = ModelSpec(kind="linear", input_dim=1, horizon=1)
    return ModelParams(spec, np.array([w, b], dtype=float))


def doubling_data():
    x = np.linspace(-1, 1, 12).reshape(-1, 1)
    return SupervisedSet(x, 2.0 * x, np.arange(12))


def choose(data, models):
    """ifca_assign on a stack of one: ``data``'s samples."""
    return ifca_assign(data.inputs[None], data.targets[None], models)[0]


def test_single_model_selected():
    assert choose(doubling_data(), [linear_params(2.0)]) == 0


def test_identical_models_tie_to_lowest_index():
    models = [linear_params(1.0), linear_params(1.0)]
    assert choose(doubling_data(), models) == 0


def test_matching_generator_wins():
    models = [linear_params(-2.0), linear_params(2.0)]
    assert choose(doubling_data(), models) == 1


def test_duplicated_data_leaves_choice_unchanged():
    data = doubling_data()
    doubled = SupervisedSet(
        np.vstack([data.inputs, data.inputs]),
        np.vstack([data.targets, data.targets]),
        np.arange(24),
    )
    models = [linear_params(-2.0), linear_params(2.0), linear_params(1.9)]
    assert choose(data, models) == choose(doubled, models)


def test_stacked_choice_ties_to_the_lowest_index_and_never_picks_nan(monkeypatch):
    # Model j's losses on the four rows, one stack_loss call per model.
    table = np.array([
        [1.0, np.nan, 2.0, 1.0],
        [1.0, 0.5, np.nan, 0.5],
        [0.5, 0.5, 1.0, np.nan],
    ])
    calls = iter(table)
    monkeypatch.setattr(cluster_module, "stack_loss", lambda *args: next(calls))
    data = doubling_data()
    x, y = (np.broadcast_to(a, (4, *a.shape)) for a in (data.inputs, data.targets))
    # Row 1's NaN comes first, where nothing beats it (np.argmin gives 0 too);
    # in rows 2 and 3 it never wins, where np.argmin would pick it.
    assert ifca_assign(x, y, [linear_params(1.0)] * 3) == [2, 0, 2, 1]


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
