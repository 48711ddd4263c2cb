"""Synthetic DER population: determinism, physics constraints, archetypes."""

import numpy as np
import pytest

from fedforecast.errors import ConfigError
from fedforecast.population import (
    PopulationSpec,
    ShiftChangepoint,
    generate_population,
)


def pearson(a, b):
    """Hand-rolled correlation so the check shares nothing with the generator."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a = a - a.mean()
    b = b - b.mean()
    return float((a * b).sum() / np.sqrt((a * a).sum() * (b * b).sum()))


def mean_daily_profile(dataset):
    return dataset.series.values.reshape(-1, 24).mean(axis=0)


def test_same_spec_same_output():
    spec = PopulationSpec(n_clients=4, archetypes=2, days=7, seed=9)
    a = generate_population(spec)
    b = generate_population(spec)
    for x, y in zip(a, b):
        assert x.client_id == y.client_id
        assert np.array_equal(x.series.values, y.series.values)
        for name in x.covariates:
            assert np.array_equal(x.covariates[name], y.covariates[name])


def test_different_seed_different_values():
    base = PopulationSpec(n_clients=2, archetypes=1, days=7, seed=0)
    other = PopulationSpec(n_clients=2, archetypes=1, days=7, seed=1)
    a = generate_population(base)
    b = generate_population(other)
    assert not np.array_equal(a[0].series.values, b[0].series.values)


def test_population_shape_and_ids():
    spec = PopulationSpec(n_clients=5, archetypes=2, days=3, seed=0)
    pop = generate_population(spec)
    assert [ds.client_id for ds in pop] == ["c000", "c001", "c002", "c003", "c004"]
    assert all(len(ds.series) == 3 * 24 for ds in pop)
    assert [ds.archetype_id for ds in pop] == [0, 1, 0, 1, 0]
    assert all(set(ds.covariates) == {"irradiance", "temperature"} for ds in pop)


def test_all_values_non_negative():
    spec = PopulationSpec(
        n_clients=8,
        archetypes=2,
        days=14,
        der_mix={"fixed_load": 0.25, "pv": 0.25, "ev_charger": 0.25, "hvac": 0.25},
        seed=3,
    )
    for ds in generate_population(spec):
        assert np.all(ds.series.values >= 0.0)


def test_pv_exactly_zero_at_night():
    spec = PopulationSpec(
        n_clients=4, archetypes=1, days=14, der_mix={"pv": 1.0}, seed=5
    )
    for ds in generate_population(spec):
        hod = ds.series.timestamps() % 24
        night = (hod <= 6) | (hod >= 18)
        assert np.all(ds.series.values[night] == 0.0)
        assert np.any(ds.series.values[~night] > 0.0)


def test_archetype_profiles_correlate_within_not_across():
    spec = PopulationSpec(
        n_clients=10,
        archetypes=2,
        heterogeneity=0.0,
        days=28,
        noise_scale=0.0,
        seed=0,
    )
    pop = generate_population(spec)
    profiles = [mean_daily_profile(ds) for ds in pop]
    within, across = [], []
    for i in range(len(pop)):
        for j in range(i + 1, len(pop)):
            r = pearson(profiles[i], profiles[j])
            if pop[i].archetype_id == pop[j].archetype_id:
                within.append(r)
            else:
                across.append(r)
    assert min(within) > 0.9
    assert max(across) < 0.5


def test_heterogeneity_spreads_same_archetype_clients():
    tight = PopulationSpec(
        n_clients=6, archetypes=1, heterogeneity=0.0, days=14, noise_scale=0.0, seed=2
    )
    loose = PopulationSpec(
        n_clients=6, archetypes=1, heterogeneity=1.0, days=14, noise_scale=0.0, seed=2
    )

    def spread(pop):
        profiles = np.array([mean_daily_profile(ds) for ds in pop])
        return float(profiles.std(axis=0).mean())

    assert spread(generate_population(tight)) < spread(generate_population(loose))


def test_der_mix_counts_largest_remainder():
    spec = PopulationSpec(
        n_clients=10,
        archetypes=2,
        days=2,
        der_mix={"fixed_load": 0.5, "pv": 0.3, "ev_charger": 0.2},
        seed=0,
    )
    pop = generate_population(spec)
    counts = {}
    for ds in pop:
        counts[ds.der_class] = counts.get(ds.der_class, 0) + 1
    assert counts == {"fixed_load": 5, "pv": 3, "ev_charger": 2}


def test_changepoint_scales_later_days():
    base = PopulationSpec(
        n_clients=1, archetypes=1, days=6, noise_scale=0.0, seed=4
    )
    shifted = PopulationSpec(
        n_clients=1,
        archetypes=1,
        days=6,
        noise_scale=0.0,
        seed=4,
        changepoint=ShiftChangepoint(day=3, magnitude=0.5),
    )
    v0 = generate_population(base)[0].series.values
    v1 = generate_population(shifted)[0].series.values
    np.testing.assert_array_equal(v1[: 3 * 24], v0[: 3 * 24])
    np.testing.assert_allclose(v1[3 * 24 :], 1.5 * v0[3 * 24 :], atol=1e-12)


def test_feeders_partition_clients():
    spec = PopulationSpec(n_clients=5, archetypes=1, days=2, feeders=2, seed=0)
    pop = generate_population(spec)
    assert [ds.feeder_id for ds in pop] == ["F0", "F1", "F0", "F1", "F0"]


def test_invalid_specs_rejected():
    with pytest.raises(ConfigError):
        PopulationSpec(n_clients=2, archetypes=3, days=2)  # k > n
    with pytest.raises(ConfigError):
        PopulationSpec(n_clients=2, archetypes=1, days=2, der_mix={"pv": 0.5})
    with pytest.raises(ConfigError):
        PopulationSpec(n_clients=2, archetypes=1, days=2, der_mix={"spaceship": 1.0})
    with pytest.raises(ConfigError):
        PopulationSpec(n_clients=2, archetypes=1, days=2, heterogeneity=1.5)
    with pytest.raises(ConfigError):
        PopulationSpec(n_clients=0, archetypes=1, days=2)
