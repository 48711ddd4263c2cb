"""Client datasets and the raw-series-to-supervised-set pipeline.

The pipeline is deliberately rigid about time-series hygiene:

* chronological splits only, never shuffled;
* the scaler is fitted on the raw values covered by *training* samples only,
  and the pipeline API offers no way to refit it on validation or test data;
* CSV ingestion refuses gapped or non-monotone timestamps unless the caller
  explicitly opts into forward-filling.

All series are hourly (step_hours = 1 for v1) and timestamps are integer
epoch hours (hours since 1970-01-01T00:00Z).
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from typing import Mapping

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    GapError,
    InsufficientDataError,
    IoError,
    NumericError,
    ParseError,
    SchemaError,
    ShapeError,
)

DER_CLASSES = ("fixed_load", "hvac", "ev_charger", "battery", "pv")

TRAIN_FRAC = 0.7
VAL_FRAC = 0.15


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Regularly sampled kW signal with an epoch-hour origin."""

    start_epoch_hours: int
    values: np.ndarray
    step_hours: int = 1

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ShapeError(f"series values must be 1-D, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise NumericError("series contains non-finite values")
        if self.step_hours < 1:
            raise ShapeError(f"step_hours must be >= 1, got {self.step_hours}")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def timestamps(self) -> np.ndarray:
        """Epoch hour of every sample."""
        n = len(self)
        return self.start_epoch_hours + self.step_hours * np.arange(n, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class ClientDataset:
    """One client's series plus aligned covariates and metadata."""

    client_id: str
    series: TimeSeries
    covariates: Mapping[str, np.ndarray] = field(default_factory=dict)
    der_class: str = "fixed_load"
    feeder_id: str = "F0"
    archetype_id: int = -1

    def __post_init__(self) -> None:
        if self.der_class not in DER_CLASSES:
            raise ShapeError(f"unknown der_class {self.der_class!r}")
        if self.archetype_id < -1:
            raise ShapeError(f"archetype_id must be >= -1, got {self.archetype_id}")
        clean: dict[str, np.ndarray] = {}
        for name in sorted(self.covariates):
            cov = np.asarray(self.covariates[name], dtype=np.float64)
            if cov.shape != (len(self.series),):
                raise ShapeError(
                    f"covariate {name!r} has length {cov.shape}, "
                    f"series has {len(self.series)}"
                )
            if not np.all(np.isfinite(cov)):
                raise NumericError(f"covariate {name!r} contains non-finite values")
            clean[name] = cov
        object.__setattr__(self, "covariates", clean)


@dataclass(frozen=True, eq=False)
class SupervisedSet:
    """Scaled supervised samples: inputs n x d, targets n x h, time-ordered."""

    inputs: np.ndarray
    targets: np.ndarray
    sample_timestamps: np.ndarray

    def __post_init__(self) -> None:
        inputs = np.asarray(self.inputs, dtype=np.float64)
        targets = np.asarray(self.targets, dtype=np.float64)
        stamps = np.asarray(self.sample_timestamps, dtype=np.int64)
        if inputs.ndim != 2 or targets.ndim != 2:
            raise ShapeError("inputs and targets must be 2-D")
        n = inputs.shape[0]
        if n < 1:
            raise InsufficientDataError("supervised set has no samples")
        if targets.shape[0] != n or stamps.shape != (n,):
            raise ShapeError(
                f"row counts differ: inputs {inputs.shape}, targets {targets.shape}, "
                f"timestamps {stamps.shape}"
            )
        if not (np.all(np.isfinite(inputs)) and np.all(np.isfinite(targets))):
            raise NumericError("supervised set contains non-finite values")
        if n > 1 and not np.all(np.diff(stamps) > 0):
            raise ShapeError("sample timestamps must be strictly increasing")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "sample_timestamps", stamps)

    @property
    def n_samples(self) -> int:
        return int(self.inputs.shape[0])


@dataclass(frozen=True)
class Scaler:
    """Per-signal standardizer; std is never below 1e-12 by construction."""

    mean: float
    std: float

    def transform(self, values: np.ndarray) -> np.ndarray:
        return (np.asarray(values, dtype=np.float64) - self.mean) / self.std

    def inverse(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=np.float64) * self.std + self.mean


IDENTITY_SCALER = Scaler(0.0, 1.0)


def fit_scaler(values: np.ndarray) -> Scaler:
    """Population mean/std of the given (train-split) values.

    A std below 1e-12 collapses to 1.0 so constant series stay usable.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise InsufficientDataError("cannot fit a scaler on zero values")
    std = float(np.std(values))
    if std < 1e-12:
        std = 1.0
    return Scaler(float(np.mean(values)), std)


def build_supervised(
    series: TimeSeries,
    covariates: Mapping[str, np.ndarray],
    lag: int,
    horizon: int,
    scaler: Scaler,
    covariate_scalers: Mapping[str, Scaler] | None = None,
) -> SupervisedSet:
    """Sliding-window supervised samples from one series.

    Sample t uses the scaled values over [t-lag, t) plus each covariate's
    value at time t (covariates ordered by sorted name), and predicts the
    scaled values over [t, t+horizon). Yields n = len - lag - horizon + 1
    samples.
    """
    if lag < 1 or horizon < 1:
        raise InsufficientDataError(f"lag and horizon must be >= 1, got {lag}, {horizon}")
    values = series.values
    n = len(series) - lag - horizon + 1
    if n < 1:
        raise InsufficientDataError(
            f"series of length {len(series)} too short for lag {lag} + horizon {horizon}"
        )
    names = sorted(covariates)
    cov_scalers = covariate_scalers or {}
    scaled = scaler.transform(values)
    windows = sliding_window_view(scaled, lag + horizon)
    inputs = np.empty((n, lag + len(names)), dtype=np.float64)
    inputs[:, :lag] = windows[:, :lag]
    targets = windows[:, lag:].copy()
    for j, name in enumerate(names):
        cov = np.asarray(covariates[name], dtype=np.float64)
        if cov.shape != (len(series),):
            raise ShapeError(f"covariate {name!r} not aligned to series")
        col = cov_scalers.get(name, IDENTITY_SCALER).transform(cov)
        inputs[:, lag + j] = col[lag : lag + n]
    stamps = series.timestamps()[lag : lag + n]
    return SupervisedSet(inputs, targets, stamps)


def split_dataset(sset: SupervisedSet) -> tuple[SupervisedSet, SupervisedSet, SupervisedSet]:
    """Chronological train/val/test split: floor(0.7n), floor(0.15n), rest."""
    n = sset.n_samples
    if n < 3:
        raise InsufficientDataError(f"need >= 3 samples to split, got {n}")
    n_train = math.floor(TRAIN_FRAC * n)
    n_val = math.floor(VAL_FRAC * n)
    if n_train < 1 or n_val < 1 or n - n_train - n_val < 1:
        raise InsufficientDataError(f"{n} samples leave an empty split")

    def piece(lo: int, hi: int) -> SupervisedSet:
        return SupervisedSet(
            sset.inputs[lo:hi], sset.targets[lo:hi], sset.sample_timestamps[lo:hi]
        )

    return piece(0, n_train), piece(n_train, n_train + n_val), piece(n_train + n_val, n)


@dataclass(frozen=True, eq=False)
class ClientSplits:
    """Prepared per-client training material plus the scalers used."""

    client_id: str
    train: SupervisedSet
    val: SupervisedSet
    test: SupervisedSet
    value_scaler: Scaler
    covariate_scalers: Mapping[str, Scaler]
    feeder_id: str
    archetype_id: int
    der_class: str


def train_raw_length(n_values: int, lag: int, horizon: int) -> int:
    """Raw-value prefix length covered by the training samples."""
    n = n_values - lag - horizon + 1
    if n < 3:
        raise InsufficientDataError(
            f"{n_values} values yield {n} samples; need >= 3 to split"
        )
    n_train = math.floor(TRAIN_FRAC * n)
    return lag + n_train + horizon - 1


def prepare_client(
    dataset: ClientDataset,
    lag: int,
    horizon: int,
    value_scaler: Scaler | None = None,
    covariate_scalers: Mapping[str, Scaler] | None = None,
) -> ClientSplits:
    """Scale, window, and split one client's series.

    Scalers default to statistics of the raw prefix covered by training
    samples; passing explicit scalers is how the pooled/centralized path
    shares statistics. Validation/test values never influence the fit.
    """
    try:
        prefix = train_raw_length(len(dataset.series), lag, horizon)
        if value_scaler is None:
            value_scaler = fit_scaler(dataset.series.values[:prefix])
        if covariate_scalers is None:
            covariate_scalers = {
                name: fit_scaler(cov[:prefix]) for name, cov in dataset.covariates.items()
            }
        sset = build_supervised(
            dataset.series, dataset.covariates, lag, horizon, value_scaler, covariate_scalers
        )
        train, val, test = split_dataset(sset)
    except InsufficientDataError as exc:
        raise InsufficientDataError(f"client {dataset.client_id}: {exc}") from None
    return ClientSplits(
        client_id=dataset.client_id,
        train=train,
        val=val,
        test=test,
        value_scaler=value_scaler,
        covariate_scalers=dict(covariate_scalers),
        feeder_id=dataset.feeder_id,
        archetype_id=dataset.archetype_id,
        der_class=dataset.der_class,
    )


@dataclass(frozen=True)
class CsvSchema:
    """Column-name map for smart-meter CSV files.

    ``covariates`` maps canonical covariate names to their CSV columns.
    """

    timestamp: str = "timestamp"
    client_id: str = "client_id"
    value_kw: str = "value_kw"
    covariates: Mapping[str, str] = field(default_factory=dict)


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_HOUR = timedelta(hours=1)


def _parse_epoch_hour(text: str, line_no: int) -> int:
    try:
        # Python 3.10's fromisoformat rejects a "Z" suffix that 3.11 reads as UTC.
        stamp = datetime.fromisoformat(text[:-1] + "+00:00" if text.endswith("Z") else text)
    except ValueError as exc:
        raise ParseError(f"line {line_no}: bad timestamp {text!r}: {exc}") from None
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    # Aligned on the UTC clock, so an offset such as +05:30 is not.
    since = stamp - _EPOCH
    if since % _HOUR:
        raise ParseError(f"line {line_no}: timestamp {text!r} is not hour-aligned")
    return since // _HOUR


def _parse_float(text: str, column: str, line_no: int) -> float:
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise ParseError(f"line {line_no}: bad {column} value {text!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"line {line_no}: non-finite {column} value {text!r}")
    return value


def _value_arrays(cells: list[list[str]], columns: list[str], lines) -> list[np.ndarray]:
    """Each column of value cells as one float64 array.

    numpy parses a str with float(), so it accepts exactly what _parse_float
    does. If any cell fails or is non-finite, the cells are rechecked row by
    row, in column order within a row, and the first bad one's ParseError is
    raised.
    """
    arrays = []
    try:
        for col in cells:
            arrays.append(np.array(col, dtype=np.float64))
            if not np.isfinite(arrays[-1]).all():
                raise ValueError
    except ValueError:
        for i, line_no in enumerate(lines):
            for col, column in zip(cells, columns):
                _parse_float(col[i], column, line_no)
    return arrays


def _read_columns(reader, header: list[str], schema: CsvSchema, value_columns: list[str]):
    """Stream the data rows of ``reader`` into columns.

    Returns the code of each (stripped) client id, and per data row its
    client code, epoch hour and, as one float64 array per value column, its
    values. Each distinct timestamp or client id text is parsed once. Errors
    are those of the first bad cell in file order.
    """
    width = len(header)
    ts_at, cid_at = header.index(schema.timestamp), header.index(schema.client_id)
    cells: list[list[str]] = [[] for _ in value_columns]
    sinks = [(col.append, header.index(c)) for col, c in zip(cells, value_columns)]
    hour_of: dict[str, int] = {}  # timestamp text -> epoch hour
    code_of_text: dict[str, int] = {}  # client id text -> client code
    code_of: dict[str, int] = {}  # stripped client id -> client code
    hours: list[int] = []
    codes: list[int] = []
    lines = array("q")  # file line of each data row
    error: ParseError | None = None
    try:
        for row in reader:
            line_no = reader.line_num
            if len(row) < width:
                if not row:
                    continue
                raise ParseError(f"line {line_no}: expected {width} columns, got {len(row)}")
            code = code_of_text.get(row[cid_at])
            if code is None:
                cid = row[cid_at].strip()
                if not cid:
                    raise ParseError(f"line {line_no}: empty client id")
                code = code_of_text[row[cid_at]] = code_of.setdefault(cid, len(code_of))
            hour = hour_of.get(row[ts_at])
            if hour is None:
                hour = hour_of[row[ts_at]] = _parse_epoch_hour(row[ts_at].strip(), line_no)
            codes.append(code)
            hours.append(hour)
            lines.append(line_no)
            for append, at in sinks:
                append(row[at])
    except csv.Error as exc:
        error = ParseError(f"line {reader.line_num}: {exc}")
    except ParseError as exc:
        error = exc
    # A bad value on a row before the one that stopped the stream comes first.
    values = _value_arrays(cells, value_columns, lines)
    if error is not None:
        raise error
    return code_of, np.array(codes, dtype=np.intp), np.array(hours, dtype=np.int64), values


def _read_table(lines, path: str, schema: CsvSchema, value_columns: list[str]):
    """The header checks, then _read_columns, over an iterable of lines."""
    reader = csv.reader(lines)
    try:
        header = next(reader, [])
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from None
    for column in [schema.timestamp, schema.client_id] + value_columns:
        if column not in header:
            raise SchemaError(f"missing required column {column!r} in {path}")
        if header.count(column) > 1:
            raise SchemaError(f"column {column!r} appears {header.count(column)} times in {path}")
    return _read_columns(reader, header, schema, value_columns)


def _utf8_lines(raw):
    """The lines of a binary file as text; a line that is not UTF-8 raises
    ParseError naming it. No multi-byte UTF-8 sequence holds a newline byte,
    so decoding line by line decodes as decoding the whole file does."""
    for line_no, line in enumerate(raw, 1):
        try:
            yield line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"line {line_no}: text is not UTF-8 ({exc.reason})") from None


def load_csv(
    path: str, schema: CsvSchema | None = None, forward_fill: bool = False
) -> list[ClientDataset]:
    """Ingest a smart-meter CSV into per-client datasets.

    Columns are found by header name, in any order; a column the schema
    reads must appear exactly once. Blank lines are skipped, a row with
    fewer cells than the header is rejected, and parse errors name the
    file line (first bad cell in file order; within a row the client id,
    then the timestamp, the value and the covariates). Text that is not
    UTF-8 and lines the csv module cannot read are parse errors too.

    Per client, timestamps must be strictly increasing in file order and
    hourly-contiguous; a missing hour raises GapError naming the client and
    the first missing hour unless ``forward_fill`` repeats the last row
    across the hole. Returned datasets are sorted by client_id and carry
    archetype_id = -1 (ground truth unknown for ingested data).
    """
    schema = schema or CsvSchema()
    names = sorted(schema.covariates)
    value_columns = [schema.value_kw] + [schema.covariates[name] for name in names]
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from None
    try:
        with handle:
            code_of, codes, hours, values = _read_table(handle, path, schema, value_columns)
    except UnicodeDecodeError:
        # Text is decoded ahead in blocks, so rows before the bad byte may
        # not have been read: reading again line by line raises the first
        # error in file order.
        with open(path, "rb") as raw:
            _read_table(_utf8_lines(raw), path, schema, value_columns)
        raise ParseError(f"{path} is not UTF-8 text") from None
    if not code_of:
        raise InsufficientDataError(f"{path} contains no data rows")

    order = np.argsort(codes, kind="stable")  # rows by client, in file order
    bounds = np.concatenate(([0], np.cumsum(np.bincount(codes))))
    datasets = []
    for cid in sorted(code_of):
        rows = order[bounds[code_of[cid]] : bounds[code_of[cid] + 1]]
        stamps = hours[rows]
        step = np.diff(stamps)
        wrong = np.flatnonzero(step <= 0 if forward_fill else step != 1)
        if wrong.size:
            i = wrong[0]
            if step[i] <= 0:
                raise GapError(
                    f"client {cid}: non-monotone timestamp at hour {stamps[i + 1]} "
                    f"(after {stamps[i]})"
                )
            raise GapError(
                f"client {cid}: missing hour {stamps[i] + 1} (gap of {step[i] - 1})"
            )
        if forward_fill:
            # Every hour takes the last row at or before it.
            latest = np.zeros(stamps[-1] - stamps[0] + 1, dtype=np.intp)
            latest[stamps - stamps[0]] = np.arange(rows.size)
            rows = rows[np.maximum.accumulate(latest)]
        datasets.append(
            ClientDataset(
                client_id=cid,
                series=TimeSeries(int(stamps[0]), values[0][rows]),
                covariates={name: col[rows] for name, col in zip(names, values[1:])},
                archetype_id=-1,
            )
        )
    return datasets


def _iso_hour(epoch_hours: int) -> str:
    return datetime.fromtimestamp(epoch_hours * 3600, tz=timezone.utc).isoformat()


def save_csv(datasets, path: str, schema: CsvSchema | None = None) -> None:
    """Export datasets to the ingestion schema (round-trip partner of load_csv)."""
    schema = schema or CsvSchema()
    names = sorted({name for ds in datasets for name in ds.covariates})
    for ds in datasets:
        if sorted(ds.covariates) != names:
            raise ShapeError(
                f"client {ds.client_id} covariates {sorted(ds.covariates)} "
                f"differ from {names}; export needs a uniform column set"
            )
    columns = [schema.timestamp, schema.client_id, schema.value_kw]
    columns += [schema.covariates.get(name, name) for name in names]
    try:
        handle = open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from None
    with handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for ds in sorted(datasets, key=lambda d: d.client_id):
            stamps = ds.series.timestamps()
            for i in range(len(ds.series)):
                row = [
                    _iso_hour(int(stamps[i])),
                    ds.client_id,
                    format(ds.series.values[i], ".17g"),
                ]
                row += [format(ds.covariates[name][i], ".17g") for name in names]
                writer.writerow(row)
