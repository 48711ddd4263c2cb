"""Client datasets and the raw-series-to-supervised-set pipeline.

The pipeline is deliberately rigid about time-series hygiene:

* chronological splits only, never shuffled;
* the scaler is fitted on the raw values covered by *training* samples only,
  and the pipeline API offers no way to refit it on validation or test data;
* CSV ingestion refuses gapped or non-monotone timestamps unless the caller
  explicitly opts into forward-filling.

There is one windowing pass, _window: it scales each signal of C series of
one length in one reused C x L buffer and writes each split's sliding
windows straight into that split's C x n x d inputs and C x n x h targets.
window_clients runs it over the clients of one fleet store, fitting every
client's scalers on its own train prefix at once; prepare_client and
build_supervised are its batch of one.

All series are hourly, and timestamps are integer epoch hours (hours since
1970-01-01T00:00Z).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from typing import Mapping, NamedTuple, Sequence

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
SPLITS = ("train", "val", "test")

# The one error text of samples that hold a non-finite value.
NON_FINITE_SAMPLES = "supervised set contains non-finite values"

# Characters of text load_csv's block reader splits at a time.
BLOCK_CHARS = 1 << 16


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Hourly kW signal with an epoch-hour origin."""

    start_epoch_hours: int
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ShapeError(f"series values must be 1-D, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise NumericError("series contains non-finite values")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def timestamps(self) -> np.ndarray:
        """Epoch hour of every sample."""
        return self.start_epoch_hours + np.arange(len(self), dtype=np.int64)


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
            raise NumericError(NON_FINITE_SAMPLES)
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


def _window(signals, lag: int, horizon: int, bounds, scalers, prefix: int = 0):
    """The one windowing pass: the samples of C rows of 1 + k signals of one
    length L, signal 0 a row's values and signals 1..k its covariates by
    sorted name (signals[s][c] is row c's signal s).

    Each signal of every row is copied into one reused C x L buffer and
    scaled there in place, by scalers[s] or, where that is None, each row by
    fit_scaler of its first ``prefix`` values (np.mean and np.std along the
    rows are fit_scaler's, bitwise). Sample t takes the scaled values over
    [t, t + lag), then each covariate's value at t + lag, as inputs, and the
    values over [t + lag, t + lag + horizon) as targets. The samples from
    bounds[i] to bounds[i + 1] are written straight into part i's
    C x m x (lag + k) inputs and C x m x horizon targets.

    Returns the parts, the value Scaler of each row, and for each row
    whether every value its samples hold is finite.
    """
    c, length = len(signals[0]), len(signals[0][0])
    n, k = length - lag - horizon + 1, len(signals) - 1
    parts = [
        (np.empty((c, hi - lo, lag + k)), np.empty((c, hi - lo, horizon)))
        for lo, hi in zip(bounds, bounds[1:])
    ]
    buffer = np.empty((c, length))
    finite = np.ones(c, dtype=bool)
    for s, (rows, scaler) in enumerate(zip(signals, scalers)):
        for row, values in zip(buffer, rows):
            row[:] = values
        if scaler is None:
            mean, std = np.mean(buffer[:, :prefix], axis=1), np.std(buffer[:, :prefix], axis=1)
            std[std < 1e-12] = 1.0
            buffer -= mean[:, None]
            buffer /= std[:, None]
        else:
            buffer -= scaler.mean
            buffer /= scaler.std
        if s == 0:
            if scaler is None:
                value_scalers = list(map(Scaler, mean.tolist(), std.tolist()))
            else:
                value_scalers = [scaler] * c
            finite &= np.isfinite(buffer).all(axis=1)
            windows = sliding_window_view(buffer, lag + horizon, axis=1)
            for (x, y), lo, hi in zip(parts, bounds, bounds[1:]):
                x[:, :, :lag] = windows[:, lo:hi, :lag]
                y[:] = windows[:, lo:hi, lag:]
        else:
            finite &= np.isfinite(buffer[:, lag : lag + n]).all(axis=1)
            for (x, _), lo, hi in zip(parts, bounds, bounds[1:]):
                x[:, :, lag + s - 1] = buffer[:, lag + lo : lag + hi]
    return parts, value_scalers, finite


def build_supervised(
    series: TimeSeries,
    covariates: Mapping[str, np.ndarray],
    lag: int,
    horizon: int,
    scaler: Scaler,
    covariate_scalers: Mapping[str, Scaler] | None = None,
) -> SupervisedSet:
    """Sliding-window supervised samples from one series: _window's pass
    over a batch of one, as one part.

    Sample t uses the scaled values over [t-lag, t) plus each covariate's
    value at time t (covariates ordered by sorted name; a covariate without
    a scaler is left as it is), and predicts the scaled values over
    [t, t+horizon). Yields n = len - lag - horizon + 1 samples.
    """
    if lag < 1 or horizon < 1:
        raise InsufficientDataError(f"lag and horizon must be >= 1, got {lag}, {horizon}")
    n = len(series) - lag - horizon + 1
    if n < 1:
        raise InsufficientDataError(
            f"series of length {len(series)} too short for lag {lag} + horizon {horizon}"
        )
    names = sorted(covariates)
    cov_scalers = covariate_scalers or {}
    signals = [[series.values]]
    for name in names:
        cov = np.asarray(covariates[name], dtype=np.float64)
        if cov.shape != (len(series),):
            raise ShapeError(f"covariate {name!r} not aligned to series")
        signals.append([cov])
    scalers = [scaler] + [cov_scalers.get(name, IDENTITY_SCALER) for name in names]
    ((inputs, targets),), _, _ = _window(signals, lag, horizon, (0, n), scalers)
    return SupervisedSet(inputs[0], targets[0], series.timestamps()[lag : lag + n])


@dataclass(frozen=True, eq=False)
class ClientSplits:
    """Prepared per-client training material plus the value scaler used."""

    client_id: str
    train: SupervisedSet
    val: SupervisedSet
    test: SupervisedSet
    value_scaler: Scaler
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


class Windows(NamedTuple):
    """The supervised samples of C clients of one series length (see
    window_clients), row c being client c."""

    store: dict[str, tuple[np.ndarray, np.ndarray]]  # split -> (C x m x d, C x m x h)
    stamps: dict[str, np.ndarray]  # split -> C x m sample epoch hours
    value_scalers: list[Scaler]
    failed: dict[int, Exception]  # row -> the error prepare_client raises


def window_clients(
    datasets: Sequence[ClientDataset],
    lag: int,
    horizon: int,
    value_scaler: Scaler | None = None,
    covariate_scalers: Mapping[str, Scaler] | None = None,
) -> Windows:
    """prepare_client of C clients whose series share one length and whose
    covariates share their names, in one _window pass over one C x L buffer
    that writes each split's samples straight into the split's store.

    A client whose windows hold a non-finite value fails with
    SupervisedSet's error; a series too short to split fails every client,
    naming each (then the store is empty). Failed rows are in ``failed``,
    and their samples are not to be used.
    """
    length = len(datasets[0].series)
    names = sorted(datasets[0].covariates)
    try:
        prefix = train_raw_length(length, lag, horizon)
        if lag < 1 or horizon < 1:
            raise InsufficientDataError(f"lag and horizon must be >= 1, got {lag}, {horizon}")
    except InsufficientDataError as exc:
        return Windows({}, {}, [], {
            c: InsufficientDataError(f"client {ds.client_id}: {exc}") for c, ds in enumerate(datasets)
        })
    n = length - lag - horizon + 1
    n_train, n_val = math.floor(TRAIN_FRAC * n), math.floor(VAL_FRAC * n)
    bounds = (0, n_train, n_train + n_val, n)  # chronological train, val, test
    signals = [[ds.series.values for ds in datasets]]
    signals += [[ds.covariates[name] for ds in datasets] for name in names]
    scalers = [value_scaler] + [
        None if covariate_scalers is None else covariate_scalers.get(name, IDENTITY_SCALER)
        for name in names
    ]
    parts, value_scalers, finite = _window(signals, lag, horizon, bounds, scalers, prefix)
    # Each row fails as prepare_client failed: non-finite samples, then an empty split.
    failed: dict[int, Exception] = {
        c: NumericError(NON_FINITE_SAMPLES) for c in np.flatnonzero(~finite).tolist()
    }
    if min(np.diff(bounds)) < 1:
        for c, ds in enumerate(datasets):
            text = f"client {ds.client_id}: {n} samples leave an empty split"
            failed.setdefault(c, InsufficientDataError(text))
    starts = np.array([ds.series.start_epoch_hours for ds in datasets], dtype=np.int64)
    stamps = starts[:, None] + np.arange(lag, lag + n)
    return Windows(
        dict(zip(SPLITS, parts)),
        {name: stamps[:, lo:hi] for name, lo, hi in zip(SPLITS, bounds, bounds[1:])},
        value_scalers,
        failed,
    )


def prepare_client(
    dataset: ClientDataset,
    lag: int,
    horizon: int,
    value_scaler: Scaler | None = None,
    covariate_scalers: Mapping[str, Scaler] | None = None,
) -> ClientSplits:
    """Scale, window, and split one client's series: window_clients over a
    batch of one.

    Scalers default to statistics of the raw prefix covered by training
    samples; explicit scalers replace that fit, for a caller that shares
    statistics across clients (a covariate the explicit mapping lacks is
    left unscaled). Validation/test values never influence the fit.
    """
    windows = window_clients([dataset], lag, horizon, value_scaler, covariate_scalers)
    if windows.failed:
        raise windows.failed[0]
    train, val, test = (
        SupervisedSet(*(a[0] for a in windows.store[name]), windows.stamps[name][0])
        for name in SPLITS
    )
    return ClientSplits(
        client_id=dataset.client_id,
        train=train,
        val=val,
        test=test,
        value_scaler=windows.value_scalers[0],
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


def _read_columns(reader, header: list[str], schema: CsvSchema, value_columns: list[str]):
    """Read the data rows of ``reader`` into columns, parsing each row as it
    is read: its width, client id, timestamp, then each value cell.

    Returns the code of each (stripped) client id, and per data row its
    client code, epoch hour and, as one float64 array per value column, its
    values. Each distinct timestamp text is parsed once. Errors are those of
    the first bad cell in file order. This is the reader of the files
    _read_blocks declines (quoted ones, and those with a bad cell), and the
    one source of the loader's parse errors and their file lines.
    """
    width = len(header)
    ts_at, cid_at = header.index(schema.timestamp), header.index(schema.client_id)
    value_at = [(header.index(c), c) for c in value_columns]
    hour_of: dict[str, int] = {}  # timestamp text -> epoch hour
    code_of: dict[str, int] = {}  # stripped client id -> client code
    hours: list[int] = []
    codes: list[int] = []
    values: list[list[float]] = [[] for _ in value_columns]
    try:
        for row in reader:
            line_no = reader.line_num
            if len(row) < width:
                if not row:
                    continue
                raise ParseError(f"line {line_no}: expected {width} columns, got {len(row)}")
            cid = row[cid_at].strip()
            if not cid:
                raise ParseError(f"line {line_no}: empty client id")
            hour = hour_of.get(row[ts_at])
            if hour is None:
                hour = hour_of[row[ts_at]] = _parse_epoch_hour(row[ts_at].strip(), line_no)
            codes.append(code_of.setdefault(cid, len(code_of)))
            hours.append(hour)
            for col, (at, column) in zip(values, value_at):
                col.append(_parse_float(row[at], column, line_no))
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from None
    return (
        code_of,
        np.array(codes, dtype=np.intp),
        np.array(hours, dtype=np.int64),
        [np.array(col, dtype=np.float64) for col in values],
    )


def _check_header(header: list[str], path: str, schema: CsvSchema, value_columns: list[str]):
    for column in [schema.timestamp, schema.client_id] + value_columns:
        if column not in header:
            raise SchemaError(f"missing required column {column!r} in {path}")
        if header.count(column) > 1:
            raise SchemaError(f"column {column!r} appears {header.count(column)} times in {path}")


def _read_table(lines, path: str, schema: CsvSchema, value_columns: list[str]):
    """The header checks, then _read_columns, over an iterable of lines."""
    reader = csv.reader(lines)
    try:
        header = next(reader, [])
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from None
    _check_header(header, path, schema, value_columns)
    return _read_columns(reader, header, schema, value_columns)


def _unsplittable(text: str) -> bool:
    """Whether the csv module may read text otherwise than a split at commas
    and newlines does: a quote, a NUL or a carriage return."""
    return '"' in text or "\0" in text or "\r" in text


def _read_blocks(handle, path: str, schema: CsvSchema, value_columns: list[str]):
    """_read_table's result for a clean file, read BLOCK_CHARS of text at a
    time and split into cells by column; None for a file it declines.

    It declines, from the first block that holds one, a quote, a NUL or a
    lone CR (CRLF reads as LF), a line longer than the csv field limit, a
    non-blank row whose width is not the header's, an empty client id, a
    bad timestamp, or a bad or non-finite value: whatever the csv module
    could read otherwise, and every parse error. The caller then reads the
    file again from the start with _read_table.
    """
    limit = csv.field_size_limit()
    line = handle.readline()
    line = line[:-2] if line.endswith("\r\n") else line.removesuffix("\n")
    if _unsplittable(line) or len(line) > limit:
        return None
    header = line.split(",") if line else []
    _check_header(header, path, schema, value_columns)
    width = len(header)
    ts_at, cid_at = header.index(schema.timestamp), header.index(schema.client_id)
    value_at = [header.index(c) for c in value_columns]
    hour_of: dict[str, int] = {}  # timestamp text -> epoch hour
    code_of_text: dict[str, int] = {}  # client id text -> client code
    code_of: dict[str, int] = {}  # stripped client id -> client code
    codes = [np.empty(0, dtype=np.intp)]
    hours = [np.empty(0, dtype=np.int64)]
    values = [[np.empty(0, dtype=np.float64)] for _ in value_columns]

    def take(text: str) -> bool:
        """Append the rows of text, whole lines, to the columns; False to decline."""
        if "\r" in text:
            text = text.replace("\r\n", "\n")
        if _unsplittable(text):
            return False
        rows = list(filter(None, text.split("\n")))
        if not rows:
            return True
        if len(text) > limit and max(map(len, rows)) > limit:
            return False
        # Each row's cells, then a "\n" cell: the rows are all of the
        # header's width when the n - 1 "\n" cells fall every width + 1.
        cells = ",\n,".join(rows).split(",")
        stride = width + 1
        if len(cells) != stride * len(rows) - 1:
            return False
        if cells[width::stride].count("\n") != len(rows) - 1:
            return False
        stamps, ids = cells[ts_at::stride], cells[cid_at::stride]
        for cell in dict.fromkeys(ids):  # new ids get codes in file order
            if cell not in code_of_text:
                cid = cell.strip()
                if not cid:
                    return False
                code_of_text[cell] = code_of.setdefault(cid, len(code_of))
        try:
            for cell in set(stamps).difference(hour_of):
                # The line number is unused: a declined file is read again.
                hour_of[cell] = _parse_epoch_hour(cell.strip(), 0)
            columns = [np.array(cells[at::stride], dtype=np.float64) for at in value_at]
        except (ParseError, ValueError):
            return False
        if not all(np.isfinite(col).all() for col in columns):
            return False
        codes.append(np.fromiter(map(code_of_text.__getitem__, ids), np.intp, len(ids)))
        hours.append(np.fromiter(map(hour_of.__getitem__, stamps), np.int64, len(stamps)))
        for parts, col in zip(values, columns):
            parts.append(col)
        return True

    tail = ""  # the line the last block cut
    while block := handle.read(BLOCK_CHARS):
        text = tail + block
        cut = text.rfind("\n") + 1
        text, tail = text[:cut], text[cut:]
        # A cut line already over the limit is declined before more of it is read.
        if len(tail) > limit or not take(text):
            return None
    if not take(tail):
        return None
    return (
        code_of,
        np.concatenate(codes),
        np.concatenate(hours),
        [np.concatenate(parts) for parts in values],
    )


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

    A file without quotes, with LF or CRLF line ends, is read a block at a
    time by column (_read_blocks). A file it declines (a quote, a lone CR,
    a row wider or narrower than the header, a bad cell) is read again from
    the start by the csv module, each row parsed as it is read
    (_read_columns), which gives the same datasets and names the errors.

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
            columns = _read_blocks(handle, path, schema, value_columns)
            if columns is None:
                handle.seek(0)
                columns = _read_table(handle, path, schema, value_columns)
    except UnicodeDecodeError:
        # Text is decoded ahead in blocks, so rows before the bad byte may
        # not have been read: reading again line by line raises the first
        # error in file order.
        with open(path, "rb") as raw:
            _read_table(_utf8_lines(raw), path, schema, value_columns)
        raise ParseError(f"{path} is not UTF-8 text") from None
    code_of, codes, hours, values = columns
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
