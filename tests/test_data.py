"""Data pipeline: scaling, windowing, splitting, CSV ingestion and export."""

import numpy as np
import pytest

from helpers import reference_build_supervised
from fedforecast.data import (
    ClientDataset,
    CsvSchema,
    IDENTITY_SCALER,
    Scaler,
    TimeSeries,
    build_supervised,
    fit_scaler,
    load_csv,
    prepare_client,
    save_csv,
    split_dataset,
    train_raw_length,
)
from fedforecast.errors import (
    GapError,
    InsufficientDataError,
    IoError,
    ParseError,
    SchemaError,
)


def series(values, start=0):
    return TimeSeries(start_epoch_hours=start, values=np.asarray(values, dtype=float))


# ------------------------------------------------------------------ scaler


def test_fit_scaler_hand_values():
    s = fit_scaler(np.array([0.0, 2.0]))
    assert s.mean == pytest.approx(1.0)
    assert s.std == pytest.approx(1.0)


def test_fit_scaler_degenerate_std_becomes_one():
    s = fit_scaler(np.array([5.0, 5.0, 5.0]))
    assert s.mean == pytest.approx(5.0)
    assert s.std == 1.0


def test_scaler_round_trip():
    rng = np.random.default_rng(0)
    x = rng.normal(3.0, 2.5, size=50)
    s = fit_scaler(x)
    np.testing.assert_allclose(s.inverse(s.transform(x)), x, atol=1e-12)


def test_fit_scaler_empty_rejected():
    with pytest.raises(InsufficientDataError):
        fit_scaler(np.array([]))


# ------------------------------------------------------------- windowing


def test_build_supervised_lag2_h1():
    out = build_supervised(series([1, 2, 3, 4]), {}, 2, 1, IDENTITY_SCALER)
    np.testing.assert_array_equal(out.inputs, [[1, 2], [2, 3]])
    np.testing.assert_array_equal(out.targets, [[3], [4]])
    np.testing.assert_array_equal(out.sample_timestamps, [2, 3])


def test_build_supervised_lag1_h2():
    out = build_supervised(series([1, 2, 3, 4]), {}, 1, 2, IDENTITY_SCALER)
    np.testing.assert_array_equal(out.inputs, [[1], [2]])
    np.testing.assert_array_equal(out.targets, [[2, 3], [3, 4]])


def test_build_supervised_too_short():
    with pytest.raises(InsufficientDataError):
        build_supervised(series([1, 2, 3]), {}, 2, 2, IDENTITY_SCALER)


def test_build_supervised_sample_count_formula():
    rng = np.random.default_rng(1)
    for _ in range(30):
        length = int(rng.integers(2, 40))
        lag = int(rng.integers(1, 10))
        horizon = int(rng.integers(1, 6))
        n = length - lag - horizon + 1
        values = rng.normal(size=length)
        if n < 1:
            with pytest.raises(InsufficientDataError):
                build_supervised(series(values), {}, lag, horizon, IDENTITY_SCALER)
        else:
            out = build_supervised(series(values), {}, lag, horizon, IDENTITY_SCALER)
            assert out.n_samples == n


def test_covariates_appended_in_sorted_name_order():
    covs = {
        "temperature": np.array([10.0, 11, 12, 13]),
        "irradiance": np.array([0.0, 0.25, 0.5, 0.75]),
    }
    out = build_supervised(series([1, 2, 3, 4]), covs, 2, 1, IDENTITY_SCALER)
    # columns: lag window, then irradiance, then temperature (sorted names)
    np.testing.assert_array_equal(out.inputs, [[1, 2, 0.5, 12], [2, 3, 0.75, 13]])


def test_values_scaled_covariates_use_their_own_scalers():
    value_scaler = Scaler(mean=2.0, std=2.0)
    covs = {"temperature": np.array([10.0, 20, 30, 40])}
    out = build_supervised(
        series([1, 2, 3, 4]),
        covs,
        2,
        1,
        value_scaler,
        {"temperature": Scaler(mean=30.0, std=10.0)},
    )
    np.testing.assert_allclose(out.inputs[0], [-0.5, 0.0, 0.0])
    np.testing.assert_allclose(out.targets[0], [0.5])


# --------------------------------------------------------------- splitting


def test_split_100_into_70_15_15():
    out = build_supervised(series(np.arange(102.0)), {}, 2, 1, IDENTITY_SCALER)
    assert out.n_samples == 100
    train, val, test = split_dataset(out)
    assert (train.n_samples, val.n_samples, test.n_samples) == (70, 15, 15)


def test_split_10_into_7_1_2():
    out = build_supervised(series(np.arange(12.0)), {}, 2, 1, IDENTITY_SCALER)
    assert out.n_samples == 10
    train, val, test = split_dataset(out)
    assert (train.n_samples, val.n_samples, test.n_samples) == (7, 1, 2)


def test_split_chronological_order():
    out = build_supervised(series(np.arange(30.0)), {}, 3, 2, IDENTITY_SCALER)
    train, val, test = split_dataset(out)
    assert train.sample_timestamps[-1] < val.sample_timestamps[0]
    assert val.sample_timestamps[-1] < test.sample_timestamps[0]


def test_split_too_small_rejected():
    out = build_supervised(series([1.0, 2, 3, 4]), {}, 2, 1, IDENTITY_SCALER)
    with pytest.raises(InsufficientDataError):
        split_dataset(out)


def test_prepare_client_scaler_sees_only_train_prefix():
    # Huge spike in the test region must not shift the fitted mean.
    values = np.ones(50)
    values[-3:] = 1000.0
    lag, horizon = 2, 1
    prefix = train_raw_length(50, lag, horizon)
    assert prefix < 47  # the spike is outside the prefix
    ds = ClientDataset(client_id="c0", series=series(values))
    splits = prepare_client(ds, lag, horizon)
    assert splits.value_scaler.mean == pytest.approx(1.0)
    assert splits.value_scaler.std == 1.0


# --------------------------------------------------------------------- csv


def write(tmp_path, text, name="meters.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_csv_two_rows(tmp_path):
    path = write(
        tmp_path,
        "timestamp,client_id,value_kw\n"
        "2024-01-01T00:00:00+00:00,c0,1.5\n"
        "2024-01-01T01:00:00+00:00,c0,2.5\n",
    )
    (ds,) = load_csv(path)
    assert ds.client_id == "c0"
    np.testing.assert_array_equal(ds.series.values, [1.5, 2.5])
    assert ds.archetype_id == -1


def test_load_csv_gap_names_client_and_hour(tmp_path):
    path = write(
        tmp_path,
        "timestamp,client_id,value_kw\n"
        "2024-01-01T00:00:00+00:00,c7,1\n"
        "2024-01-01T01:00:00+00:00,c7,2\n"
        "2024-01-01T03:00:00+00:00,c7,3\n",
    )
    with pytest.raises(GapError) as err:
        load_csv(path)
    missing_hour = int(np.datetime64("2024-01-01T02", "h").astype(int))
    assert "c7" in str(err.value)
    assert str(missing_hour) in str(err.value)


def test_load_csv_forward_fill_bridges_gap(tmp_path):
    path = write(
        tmp_path,
        "timestamp,client_id,value_kw\n"
        "2024-01-01T00:00:00+00:00,c0,1\n"
        "2024-01-01T03:00:00+00:00,c0,4\n",
    )
    (ds,) = load_csv(path, forward_fill=True)
    np.testing.assert_array_equal(ds.series.values, [1, 1, 1, 4])


def test_load_csv_non_monotone_rejected(tmp_path):
    path = write(
        tmp_path,
        "timestamp,client_id,value_kw\n"
        "2024-01-01T01:00:00+00:00,c0,1\n"
        "2024-01-01T00:00:00+00:00,c0,2\n",
    )
    with pytest.raises(GapError):
        load_csv(path)


def test_load_csv_interleaved_clients(tmp_path):
    path = write(
        tmp_path,
        "timestamp,client_id,value_kw\n"
        "2024-01-01T00:00:00+00:00,b,10\n"
        "2024-01-01T00:00:00+00:00,a,20\n"
        "2024-01-01T01:00:00+00:00,b,11\n"
        "2024-01-01T01:00:00+00:00,a,21\n",
    )
    datasets = load_csv(path)
    assert [ds.client_id for ds in datasets] == ["a", "b"]
    np.testing.assert_array_equal(datasets[0].series.values, [20, 21])
    np.testing.assert_array_equal(datasets[1].series.values, [10, 11])


def test_load_csv_missing_column(tmp_path):
    path = write(tmp_path, "timestamp,value_kw\n2024-01-01T00:00:00+00:00,1\n")
    with pytest.raises(SchemaError) as err:
        load_csv(path)
    assert "client_id" in str(err.value)


def test_load_csv_bad_value_reports_line(tmp_path):
    path = write(
        tmp_path,
        "timestamp,client_id,value_kw\n"
        "2024-01-01T00:00:00+00:00,c0,1.0\n"
        "2024-01-01T01:00:00+00:00,c0,oops\n",
    )
    with pytest.raises(ParseError) as err:
        load_csv(path)
    assert "line 3" in str(err.value)


def test_load_csv_bad_timestamp_reports_line(tmp_path):
    path = write(tmp_path, "timestamp,client_id,value_kw\nnot-a-date,c0,1.0\n")
    with pytest.raises(ParseError) as err:
        load_csv(path)
    assert "line 2" in str(err.value)


def test_load_csv_sub_hour_timestamp_rejected(tmp_path):
    path = write(
        tmp_path, "timestamp,client_id,value_kw\n2024-01-01T00:30:00+00:00,c0,1\n"
    )
    with pytest.raises(ParseError):
        load_csv(path)


def test_load_csv_missing_file():
    with pytest.raises(IoError):
        load_csv("/nonexistent/meters.csv")


def test_load_csv_custom_schema_with_covariates(tmp_path):
    path = write(
        tmp_path,
        "ts,meter,kw,temp_c\n"
        "2024-01-01T00:00:00+00:00,m1,1.0,15.5\n"
        "2024-01-01T01:00:00+00:00,m1,2.0,16.5\n",
    )
    schema = CsvSchema(
        timestamp="ts",
        client_id="meter",
        value_kw="kw",
        covariates={"temperature": "temp_c"},
    )
    (ds,) = load_csv(path, schema)
    np.testing.assert_array_equal(ds.covariates["temperature"], [15.5, 16.5])


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    datasets = [
        ClientDataset(
            client_id=f"c{i}",
            series=series(np.abs(rng.normal(2.0, 1.0, size=30)), start=1000),
            covariates={"temperature": rng.normal(15, 5, size=30)},
        )
        for i in range(3)
    ]
    path = str(tmp_path / "export.csv")
    save_csv(datasets, path)
    back = load_csv(path, CsvSchema(covariates={"temperature": "temperature"}))
    assert len(back) == 3
    for orig, loaded in zip(datasets, back):
        assert loaded.client_id == orig.client_id
        assert loaded.series.start_epoch_hours == orig.series.start_epoch_hours
        np.testing.assert_array_equal(loaded.series.values, orig.series.values)
        np.testing.assert_array_equal(
            loaded.covariates["temperature"], orig.covariates["temperature"]
        )


@pytest.mark.parametrize("seed", range(5))
def test_windows_equal_the_per_row_loop_bitwise(seed):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        lag, horizon = int(rng.integers(1, 30)), int(rng.integers(1, 6))
        n_values = lag + horizon + int(rng.integers(0, 200))
        names = [f"cov{j}" for j in range(int(rng.integers(0, 4)))]
        covs = {name: rng.normal(size=n_values) * 5 for name in names}
        cov_scalers = {name: Scaler(float(rng.normal()), 0.5) for name in names[:1]}
        args = (
            series(rng.normal(3.0, 2.0, size=n_values), start=int(rng.integers(0, 99))),
            covs,
            lag,
            horizon,
            Scaler(float(rng.normal()), float(rng.uniform(0.1, 3.0))),
            cov_scalers,
        )
        got, want = build_supervised(*args), reference_build_supervised(*args)
        assert np.array_equal(got.inputs, want.inputs)
        assert np.array_equal(got.targets, want.targets)
        assert np.array_equal(got.sample_timestamps, want.sample_timestamps)
