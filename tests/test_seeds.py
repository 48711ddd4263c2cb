"""Seed derivation: stable, label-sensitive, collision-free in practice."""

import numpy as np
import pytest

from fedforecast import seeds
from fedforecast.seeds import derive_seed, rng_for, streams


def test_same_labels_same_seed():
    assert derive_seed(42, "init", 0) == derive_seed(42, "init", 0)


def test_any_label_change_changes_seed():
    base = derive_seed(42, "init", 0)
    assert derive_seed(43, "init", 0) != base
    assert derive_seed(42, "participation", 0) != base
    assert derive_seed(42, "init", 1) != base


def test_label_order_matters():
    assert derive_seed(0, "a", "b") != derive_seed(0, "b", "a")


def test_seed_fits_in_64_bits():
    for labels in [(), ("x",), ("dp", 3, 7)]:
        value = derive_seed(123, *labels)
        assert 0 <= value < 2**64


def test_no_collisions_over_small_grid():
    seen = set()
    for master in range(4):
        for label in ("init", "participation", "batches", "dp"):
            for i in range(50):
                seen.add(derive_seed(master, label, i))
    assert len(seen) == 4 * 4 * 50


def test_rng_streams_reproducible_and_distinct():
    a1 = rng_for(7, "batches", "c001", 3).standard_normal(5)
    a2 = rng_for(7, "batches", "c001", 3).standard_normal(5)
    b = rng_for(7, "batches", "c002", 3).standard_normal(5)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


# ------------------------------------------- streams: rng_for, batched


def assert_streams_equal_rng_for(master, paths):
    n = 0
    for path, got in zip(paths, streams(master, paths)):
        want = rng_for(master, *path)
        assert got.bit_generator.state == want.bit_generator.state, path
        assert got.normal(size=27).tobytes() == want.normal(size=27).tobytes(), path
        assert np.array_equal(got.permutation(50), want.permutation(50)), path
        n += 1
    assert n == len(paths)


def test_streams_equal_rng_for_over_ten_thousand_paths():
    paths = [("dp", f"c{i:03d}", r) for i in range(250) for r in range(10)]
    paths += [(), ("init", 0), ("glorot", "mlp"), ("batches", "c001", 3), ("weather", "F7")]
    for master in (0, 1, 2**31 + 5, 12345678901234567890):
        assert_streams_equal_rng_for(master, paths)
    assert 4 * len(paths) >= 10_000


@pytest.mark.parametrize("seed", [0, 1, 2, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1])
def test_streams_equal_default_rng_at_edge_seeds(monkeypatch, seed):
    # Seeds below 2**32 hash one entropy word, larger ones two; label paths
    # cannot pick a seed, so the path's one label is taken as the seed.
    monkeypatch.setattr(seeds, "derive_seed", lambda master, value: value)
    assert_streams_equal_rng_for(0, [(seed,)])
    assert rng_for(0, seed).bit_generator.state == np.random.default_rng(seed).bit_generator.state


def test_streams_of_no_paths_yield_nothing():
    assert list(streams(3, [])) == []
