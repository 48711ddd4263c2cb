"""Data pipeline: scaling, windowing, splitting, CSV ingestion and export."""

import csv
import io
from datetime import datetime, timedelta, timezone
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import reference_build_supervised, reference_load_csv
from fedforecast import data
from fedforecast.population import PopulationSpec, generate_population
from fedforecast.data import (
    ClientDataset,
    CsvSchema,
    IDENTITY_SCALER,
    Scaler,
    TimeSeries,
    fit_scaler,
    load_csv,
    prepare_client,
    save_csv,
    train_raw_length,
)
from fedforecast.errors import (
    FedForecastError,
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


def windows(
    values, lag, horizon, covariates=None, value_scaler=IDENTITY_SCALER, covariate_scalers=None, start=0
):
    """prepare_client's train, val and test samples of one series under
    explicit scalers (a covariate without one is left as it is), joined
    back in time order: (inputs, targets, sample timestamps)."""
    dataset = ClientDataset("c0", series(values, start), covariates or {})
    splits = prepare_client(dataset, lag, horizon, value_scaler, covariate_scalers or {})
    sets = (splits.train, splits.val, splits.test)
    names = ("inputs", "targets", "sample_timestamps")
    return tuple(np.concatenate([getattr(s, name) for s in sets]) for name in names)


def test_windows_lag2_h1():
    inputs, targets, stamps = windows(range(1, 11), 2, 1)
    np.testing.assert_array_equal(inputs, [[t, t + 1] for t in range(1, 9)])
    np.testing.assert_array_equal(targets, [[t + 2] for t in range(1, 9)])
    np.testing.assert_array_equal(stamps, range(2, 10))


def test_windows_lag1_h2():
    inputs, targets, _ = windows(range(1, 11), 1, 2)
    np.testing.assert_array_equal(inputs, [[t] for t in range(1, 9)])
    np.testing.assert_array_equal(targets, [[t + 1, t + 2] for t in range(1, 9)])


def test_windows_too_short():
    with pytest.raises(InsufficientDataError, match="need >= 3 to split$"):
        windows([1, 2, 3], 2, 2)


def test_windows_sample_count_formula():
    # n = len - lag - horizon + 1 samples, split 0.7 / 0.15 / rest: fewer
    # than 7 leave an empty split.
    rng = np.random.default_rng(1)
    for _ in range(30):
        length = int(rng.integers(2, 40))
        lag = int(rng.integers(1, 10))
        horizon = int(rng.integers(1, 6))
        n = length - lag - horizon + 1
        values = rng.normal(size=length)
        if n < 7:
            with pytest.raises(InsufficientDataError):
                windows(values, lag, horizon)
        else:
            assert len(windows(values, lag, horizon)[0]) == n


def test_covariates_appended_in_sorted_name_order():
    covs = {
        "temperature": np.arange(10.0, 20.0),
        "irradiance": np.arange(10) / 4,
    }
    inputs, _, _ = windows(range(1, 11), 2, 1, covs)
    # columns: lag window, then irradiance, then temperature (sorted names)
    np.testing.assert_array_equal(inputs[:2], [[1, 2, 0.5, 12], [2, 3, 0.75, 13]])


def test_values_scaled_covariates_use_their_own_scalers():
    value_scaler = Scaler(mean=2.0, std=2.0)
    covs = {"temperature": np.arange(10.0, 110.0, 10.0), "wind": np.arange(5.0, 15.0)}
    inputs, targets, _ = windows(
        range(1, 11), 2, 1, covs, value_scaler, {"temperature": Scaler(mean=30.0, std=10.0)}
    )
    # wind has no scaler of its own and is left as it is.
    np.testing.assert_allclose(inputs[0], [-0.5, 0.0, 0.0, 7.0])
    np.testing.assert_allclose(targets[0], [0.5])


# --------------------------------------------------------------- splitting


def split_sizes(splits):
    return splits.train.n_samples, splits.val.n_samples, splits.test.n_samples


def test_split_100_into_70_15_15():
    splits = prepare_client(ClientDataset("c0", series(np.arange(102.0))), 2, 1)
    assert split_sizes(splits) == (70, 15, 15)


def test_split_10_into_7_1_2():
    splits = prepare_client(ClientDataset("c0", series(np.arange(12.0))), 2, 1)
    assert split_sizes(splits) == (7, 1, 2)


def test_split_chronological_order():
    splits = prepare_client(ClientDataset("c0", series(np.arange(30.0))), 3, 2)
    assert splits.train.sample_timestamps[-1] < splits.val.sample_timestamps[0]
    assert splits.val.sample_timestamps[-1] < splits.test.sample_timestamps[0]


def test_split_too_small_rejected():
    # Two samples cannot split; five leave the validation split empty.
    for n_values, text in ((4, "4 values yield 2 samples; need >= 3 to split"),
                           (7, "5 samples leave an empty split")):
        with pytest.raises(InsufficientDataError, match=f"^client c0: {text}$"):
            prepare_client(ClientDataset("c0", series(np.arange(float(n_values)))), 2, 1)


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


def test_prepare_client_names_a_client_too_short_to_split():
    ds = ClientDataset(client_id="m7", series=series(np.ones(20)))
    with pytest.raises(InsufficientDataError) as err:
        prepare_client(ds, lag=24, horizon=1)
    assert str(err.value) == "client m7: 20 values yield -4 samples; need >= 3 to split"


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


def test_load_csv_reports_file_lines_past_blank_lines(tmp_path):
    path = write(
        tmp_path,
        "timestamp,client_id,value_kw\n"
        "2024-01-01T00:00:00+00:00,c0,1.0\n"
        "\n"
        "\n"
        "2024-01-01T01:00:00+00:00,c0,oops\n",
    )
    with pytest.raises(ParseError) as err:
        load_csv(path)
    assert str(err.value) == "line 5: bad value_kw value 'oops'"


def test_load_csv_short_row_names_the_column_counts(tmp_path):
    path = write(
        tmp_path,
        "timestamp,client_id,value_kw\n"
        "2024-01-01T00:00:00+00:00,c0,1.0\n"
        "2024-01-01T01:00:00+00:00,c0\n",
    )
    with pytest.raises(ParseError) as err:
        load_csv(path)
    assert str(err.value) == "line 3: expected 3 columns, got 2"


def test_load_csv_earlier_bad_value_wins_over_later_bad_timestamp(tmp_path):
    # Each row's values are parsed as the row is read: the error is the
    # first bad cell in file order.
    path = write(
        tmp_path,
        "timestamp,client_id,value_kw\n"
        "2024-01-01T00:00:00+00:00,c0,inf\n"
        "not-a-date,c0,1.0\n",
    )
    with pytest.raises(ParseError) as err:
        load_csv(path)
    assert str(err.value) == "line 2: non-finite value_kw value 'inf'"


@pytest.mark.parametrize(
    "row, message",
    [
        ("nan,oops, ,bad", "line 2: empty client id"),
        ("nan,oops,c0,bad", "line 2: bad timestamp 'bad'"),
        ("nan,oops,c0,2024-01-01T00:00:00", "line 2: bad value_kw value 'oops'"),
        ("nan,1,c0,2024-01-01T00:00:00", "line 2: non-finite temp value 'nan'"),
    ],
)
def test_load_csv_checks_a_row_by_role_not_position(tmp_path, row, message):
    # Within a row: client id, timestamp, value, then covariates.
    path = write(tmp_path, f"temp,value_kw,client_id,timestamp\n{row}\n")
    with pytest.raises(ParseError) as err:
        load_csv(path, CsvSchema(covariates={"temperature": "temp"}))
    assert str(err.value).startswith(message)


def test_load_csv_duplicate_read_column_rejected(tmp_path):
    path = write(
        tmp_path,
        "timestamp,client_id,value_kw,value_kw\n2024-01-01T00:00:00+00:00,c0,1,2\n",
    )
    with pytest.raises(SchemaError) as err:
        load_csv(path)
    assert str(err.value) == f"column 'value_kw' appears 2 times in {path}"


def test_load_csv_ignores_unread_columns_in_any_order(tmp_path):
    path = write(
        tmp_path,
        "note,value_kw,note,client_id,timestamp,extra\n"
        "a,1.5,b,c0,2024-01-01T00:00:00+00:00,x\n"
        "a,2.5,b,c0,2024-01-01T01:00:00+00:00,x,surplus\n",
    )
    (ds,) = load_csv(path)
    np.testing.assert_array_equal(ds.series.values, [1.5, 2.5])


def test_load_csv_reads_a_z_suffix_as_utc(tmp_path):
    path = write(
        tmp_path,
        "timestamp,client_id,value_kw\n"
        "2024-01-01T00:00:00Z,c0,1\n"
        "2024-01-01T01:00:00+00:00,c0,2\n",
    )
    (ds,) = load_csv(path)
    assert ds.series.start_epoch_hours == int(np.datetime64("2024-01-01T00", "h").astype(int))
    np.testing.assert_array_equal(ds.series.values, [1, 2])


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


def test_load_csv_non_whole_hour_offset_rejected(tmp_path):
    # 00:00+05:30 is 18:30 UTC: hour-aligned on its local clock only.
    path = write(
        tmp_path, "timestamp,client_id,value_kw\n2024-01-01T00:00:00+05:30,c0,1\n"
    )
    with pytest.raises(ParseError) as err:
        load_csv(path)
    assert str(err.value) == (
        "line 2: timestamp '2024-01-01T00:00:00+05:30' is not hour-aligned"
    )


def test_load_csv_whole_utc_hour_with_half_hour_offset_accepted(tmp_path):
    path = write(
        tmp_path,
        "timestamp,client_id,value_kw\n"
        "2024-01-01T05:30:00+05:30,c0,1\n"
        "2024-01-01T01:00:00+00:00,c0,2\n",
    )
    (ds,) = load_csv(path)
    assert ds.series.start_epoch_hours == int(np.datetime64("2024-01-01T00", "h").astype(int))


def write_bytes(tmp_path, data: bytes) -> str:
    path = tmp_path / "meters.csv"
    path.write_bytes(data)
    return str(path)


def hourly_rows(hours, client_id="c0"):
    """CSV rows of value 1 for the given epoch hours."""
    stamps = (datetime.fromtimestamp(h * 3600, timezone.utc).isoformat() for h in hours)
    return "".join(f"{stamp},{client_id},1\n" for stamp in stamps)


@pytest.mark.parametrize("line", [2, 3, 2000])
def test_load_csv_non_utf8_byte_names_its_line(tmp_path, line):
    # Latin-1 encodes y-diaeresis as the byte 0xff, which UTF-8 never uses.
    rows = hourly_rows(range(line - 2)) + hourly_rows([line - 2], "c\xff")
    data = ("timestamp,client_id,value_kw\n" + rows + hourly_rows([line - 1])).encode("latin-1")
    assert data.count(b"\xff") == 1 and data[: data.index(b"\xff")].count(b"\n") == line - 1
    with pytest.raises(ParseError) as err:
        load_csv(write_bytes(tmp_path, data))
    assert str(err.value) == f"line {line}: text is not UTF-8 (invalid start byte)"


def test_load_csv_bad_cell_before_a_non_utf8_byte_comes_first(tmp_path):
    # Text is decoded in blocks of a few kB, so the block that holds the bad
    # byte also holds the bad cell a few rows before it.
    rows = hourly_rows(range(1000)) + "2024-01-01T00:30:00+00:00,c0,1\n" + hourly_rows([1001])
    data = ("timestamp,client_id,value_kw\n" + rows).encode() + b"\xff,c0,1\n"
    with pytest.raises(ParseError) as err:
        load_csv(write_bytes(tmp_path, data))
    assert str(err.value) == "line 1002: timestamp '2024-01-01T00:30:00+00:00' is not hour-aligned"


def test_load_csv_unreadable_csv_line_names_it(tmp_path):
    field = "c" * (csv.field_size_limit() + 1)
    rows = hourly_rows([0]) + hourly_rows([1], field)
    path = write(tmp_path, "timestamp,client_id,value_kw\n" + rows)
    with pytest.raises(ParseError) as err:
        load_csv(path)
    assert str(err.value).startswith("line 3: field larger than field limit")


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
        n_values = lag + horizon + 6 + int(rng.integers(0, 200))
        names = [f"cov{j}" for j in range(int(rng.integers(0, 4)))]
        covs = {name: rng.normal(size=n_values) * 5 for name in names}
        cov_scalers = {name: Scaler(float(rng.normal()), 0.5) for name in names[:1]}
        values, start = rng.normal(3.0, 2.0, size=n_values), int(rng.integers(0, 99))
        scaler = Scaler(float(rng.normal()), float(rng.uniform(0.1, 3.0)))
        got = windows(values, lag, horizon, covs, scaler, cov_scalers, start)
        want = reference_build_supervised(
            series(values, start), covs, lag, horizon, scaler, cov_scalers
        )
        assert np.array_equal(got[0], want.inputs)
        assert np.array_equal(got[1], want.targets)
        assert np.array_equal(got[2], want.sample_timestamps)


# ------------------------------------------------- load_csv against its oracle


def loaded(loader, path, schema, forward_fill):
    """The datasets, or the (type, text) of the error raised."""
    try:
        return loader(path, schema, forward_fill=forward_fill)
    except FedForecastError as exc:
        return type(exc), str(exc)


def assert_same_load(got, want):
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
        return
    assert [ds.client_id for ds in got] == [ds.client_id for ds in want]
    for a, b in zip(got, want):
        assert type(a.series.start_epoch_hours) is int
        assert a.series.start_epoch_hours == b.series.start_epoch_hours
        assert a.series.values.tobytes() == b.series.values.tobytes()
        assert list(a.covariates) == list(b.covariates)
        for name in a.covariates:
            assert a.covariates[name].tobytes() == b.covariates[name].tobytes()
        assert (a.der_class, a.feeder_id, a.archetype_id) == (
            b.der_class, b.feeder_id, b.archetype_id
        )


EPOCH = datetime(2024, 1, 1, tzinfo=timezone.utc)
# Replacement cells by column role: bad, non-finite, and odd but valid forms.
BAD_CELLS = {
    "timestamp": ["not-a-date", "", "2024-01-01T00:30:00+00:00", "Z", " 2024-01-01T05:00:00 "],
    "client_id": ["", "   ", " c0 ", "c9"],
    "value": ["oops", "", "nan", "inf", "-Infinity", "1e999", " 2.5 ", "1_0", "1__0", "-0.0"],
}


@st.composite
def meter_files(draw):
    """A small meter CSV: permuted columns, interleaved clients, gaps and
    reversals, blank lines, a few bad cells, maybe a short or a long row,
    LF or CRLF line ends, maybe none after the last line, and maybe every
    cell quoted."""
    n_covs = draw(st.integers(0, 2))
    columns = ["timestamp", "client_id", "value_kw"] + [f"cov{j}" for j in range(n_covs)]
    columns += draw(st.sampled_from([[], ["note"]]))
    header = draw(st.permutations(columns))
    z_suffix = draw(st.booleans())
    hours = []
    for c in range(draw(st.integers(1, 3))):
        steps = draw(st.lists(st.sampled_from([1, 1, 1, 1, 1, 2, 3]), max_size=10))
        if steps and draw(st.sampled_from([False] * 3 + [True])):
            steps[draw(st.integers(0, len(steps) - 1))] = draw(st.sampled_from([0, -1]))
        hours.append(list(accumulate([draw(st.integers(0, 48))] + steps)))
    turns = draw(st.permutations([c for c, hs in enumerate(hours) for _ in hs]))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    rows, taken = [], [0] * len(hours)
    for c in turns:
        stamp = (EPOCH + timedelta(hours=hours[c][taken[c]])).isoformat()
        taken[c] += 1
        cell = {
            "timestamp": stamp.replace("+00:00", "Z") if z_suffix else stamp,
            "client_id": f"c{c}",
            "note": "n",
        }
        for name in columns[2:2 + 1 + n_covs]:
            cell[name] = repr(draw(finite))
        rows.append([cell[name] for name in header])
    for _ in range(draw(st.sampled_from([0, 0, 1, 2])) if rows else 0):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(header) - 1))
        role = header[j] if header[j] in ("timestamp", "client_id") else "value"
        rows[i][j] = draw(st.sampled_from(BAD_CELLS[role]))
    if rows and draw(st.sampled_from([False] * 7 + [True])):
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = rows[i][: draw(st.integers(1, len(header) - 1))]
    if rows and draw(st.sampled_from([False] * 7 + [True])):
        rows[draw(st.integers(0, len(rows) - 1))].append("surplus")
    line_end = draw(st.sampled_from(["\n", "\r\n"]))
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL] * 3 + [csv.QUOTE_ALL]))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=line_end, quoting=quoting)
    for row in [header] + rows:
        writer.writerow(row)
        if draw(st.sampled_from([False] * 7 + [True])):
            out.write(line_end)
    text = out.getvalue()
    if draw(st.booleans()):
        text = text.removesuffix(line_end)  # no line end after the last line
    schema = CsvSchema(covariates={f"x{j}": f"cov{j}" for j in range(n_covs)})
    return text, schema


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(meter_files(), st.booleans(), st.integers(16, 400))
def test_load_csv_equals_the_row_loop(tmp_path, monkeypatch, meter_file, forward_fill, block):
    # Blocks of a few hundred characters, so most files span several.
    monkeypatch.setattr(data, "BLOCK_CHARS", block)
    text, schema = meter_file
    path = write_bytes(tmp_path, text.encode())
    got = loaded(load_csv, path, schema, forward_fill)
    assert_same_load(got, loaded(reference_load_csv, path, schema, forward_fill))


def fleet_csv(tmp_path):
    """A generated 12-meter fleet saved as CSV, and the schema that reads it."""
    datasets = generate_population(
        PopulationSpec(
            n_clients=12, archetypes=3, days=14, der_mix={"fixed_load": 0.5, "pv": 0.5}, seed=4
        )
    )
    path = str(tmp_path / "fleet.csv")
    save_csv(datasets, path)
    return path, CsvSchema(covariates={name: name for name in datasets[0].covariates})


@pytest.mark.parametrize("forward_fill", [False, True])
def test_load_csv_equals_the_row_loop_on_a_generated_fleet(tmp_path, forward_fill):
    path, schema = fleet_csv(tmp_path)
    got = load_csv(path, schema, forward_fill=forward_fill)
    assert_same_load(got, reference_load_csv(path, schema, forward_fill=forward_fill))
    assert len(got) == 12


def row_reads(monkeypatch) -> list:
    """Records each call of the row reader, data._read_columns."""
    calls = []
    read_columns = data._read_columns

    def counted(*args):
        calls.append(args)
        return read_columns(*args)

    monkeypatch.setattr(data, "_read_columns", counted)
    return calls


@pytest.mark.parametrize("line_end", ["\n", "\r\n"])
def test_load_csv_reads_a_clean_fleet_by_blocks(tmp_path, monkeypatch, line_end):
    path, schema = fleet_csv(tmp_path)
    with open(path, newline="") as handle:
        text = handle.read()
    assert text.count("\n") > 4000 and len(text) > 4 * data.BLOCK_CHARS
    path = write_bytes(tmp_path, text.replace("\n", line_end).encode())
    calls = row_reads(monkeypatch)
    got = load_csv(path, schema)
    assert calls == []
    assert_same_load(got, reference_load_csv(path, schema))


def test_load_csv_reads_a_quoted_fleet_by_rows(tmp_path, monkeypatch):
    path, schema = fleet_csv(tmp_path)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    out = io.StringIO()
    csv.writer(out, quoting=csv.QUOTE_ALL).writerows(rows)
    path = write_bytes(tmp_path, out.getvalue().encode())
    calls = row_reads(monkeypatch)
    got = load_csv(path, schema)
    assert len(calls) == 1
    assert_same_load(got, reference_load_csv(path, schema))


# Ways to spoil a (timestamp, client id, value) row other than its value.
ROW_ERRORS = {
    "short-row": lambda row: row[:2],
    "empty-id": lambda row: [row[0], " ", row[2]],
    "bad-timestamp": lambda row: ["not-a-date", *row[1:]],
}


@pytest.mark.parametrize("value", ["oops", "nan"])
@pytest.mark.parametrize("offset", [-1, 1], ids=["before", "after"])
@pytest.mark.parametrize("spoil", list(ROW_ERRORS))
def test_load_csv_quoted_file_raises_the_earlier_lines_error(tmp_path, monkeypatch, spoil, offset, value):
    # A bad value on line 4 and another kind of error on line 3 or 5 of a
    # file the row reader reads: the earlier line's error is raised.
    rows = [[(EPOCH + timedelta(hours=h)).isoformat(), "c0", "1.5"] for h in range(6)]
    rows[2][2] = value  # line 4
    rows[2 + offset] = ROW_ERRORS[spoil](rows[2 + offset])
    out = io.StringIO()
    csv.writer(out, quoting=csv.QUOTE_ALL).writerows([["timestamp", "client_id", "value_kw"], *rows])
    path = write_bytes(tmp_path, out.getvalue().encode())
    calls = row_reads(monkeypatch)
    got = loaded(load_csv, path, None, False)
    assert len(calls) == 1
    assert got == loaded(reference_load_csv, path, None, False)
    assert got[0] is ParseError and got[1].startswith(f"line {min(4, 4 + offset)}: ")


def test_load_csv_short_row_is_an_error_though_a_long_row_makes_up_its_width(tmp_path):
    # Three cells and five: eight, as two rows of four would hold.
    path = write(
        tmp_path,
        "timestamp,client_id,value_kw,note\n"
        "2024-01-01T00:00:00+00:00,c0,1\n"
        "x,2024-01-01T01:00:00+00:00,c0,2,n\n",
    )
    with pytest.raises(ParseError) as err:
        load_csv(path)
    assert str(err.value) == "line 2: expected 4 columns, got 3"


@pytest.mark.parametrize(
    "row", ["2024-01-01T01:00:00+00:00,c\r0,2", "2024-01-01T01:00:00+00:00,c0,2\r"]
)
def test_load_csv_lone_carriage_return_ends_a_line(tmp_path, row):
    text = "timestamp,client_id,value_kw\n2024-01-01T00:00:00+00:00,c0,1\n" + row + "\n"
    path = write_bytes(tmp_path, text.encode())
    got = loaded(load_csv, path, None, False)
    assert_same_load(got, loaded(reference_load_csv, path, None, False))


def test_load_csv_bad_value_in_a_later_block_names_its_line(tmp_path, monkeypatch):
    rows = hourly_rows(range(5000)).split("\n")
    rows[4000] = rows[4000].replace(",1", ",oops")
    text = "timestamp,client_id,value_kw\n" + "\n".join(rows)
    assert text.index("oops") > data.BLOCK_CHARS
    calls = row_reads(monkeypatch)
    with pytest.raises(ParseError) as err:
        load_csv(write(tmp_path, text))
    assert str(err.value) == "line 4002: bad value_kw value 'oops'"
    assert len(calls) == 1


def test_load_csv_nul_byte_is_read_as_the_csv_module_reads_it(tmp_path):
    # Python 3.11's csv module reads a NUL as a character of its cell; 3.10
    # raises "line contains NUL". Either way the file line is named.
    rows = hourly_rows(range(3000)).split("\n")
    rows[2500] = rows[2500] + "\0"
    text = "timestamp,client_id,value_kw\n" + "\n".join(rows)
    try:
        list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        expected = f"line 2502: {exc}"
    else:
        expected = "line 2502: bad value_kw value '1\\x00'"
    with pytest.raises(ParseError) as err:
        load_csv(write(tmp_path, text))
    assert str(err.value) == expected
