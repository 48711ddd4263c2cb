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
from dataclasses import dataclass, field
from datetime import datetime, timezone
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
FLEX_CLASSES = ("shiftable", "curtailable", "non_interruptible")

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
    flex_class: str = "non_interruptible"
    feeder_id: str = "F0"
    archetype_id: int = -1

    def __post_init__(self) -> None:
        if self.der_class not in DER_CLASSES:
            raise ShapeError(f"unknown der_class {self.der_class!r}")
        if self.flex_class not in FLEX_CLASSES:
            raise ShapeError(f"unknown flex_class {self.flex_class!r}")
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


def split_dataset(
    sset: SupervisedSet, train_frac: float = TRAIN_FRAC, val_frac: float = VAL_FRAC
) -> tuple[SupervisedSet, SupervisedSet, SupervisedSet]:
    """Chronological train/val/test split: floor(0.7n), floor(0.15n), rest."""
    n = sset.n_samples
    if n < 3:
        raise InsufficientDataError(f"need >= 3 samples to split, got {n}")
    if not (0 < train_frac < 1 and 0 < val_frac < 1 and train_frac + val_frac < 1):
        raise InsufficientDataError(
            f"invalid split fractions {train_frac}/{val_frac}"
        )
    n_train = math.floor(train_frac * n)
    n_val = math.floor(val_frac * n)
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
    flex_class: str


def train_raw_length(n_values: int, lag: int, horizon: int, train_frac: float = TRAIN_FRAC) -> int:
    """Raw-value prefix length covered by the training samples."""
    n = n_values - lag - horizon + 1
    if n < 3:
        raise InsufficientDataError(
            f"{n_values} values yield {n} samples; need >= 3 to split"
        )
    n_train = math.floor(train_frac * n)
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
        flex_class=dataset.flex_class,
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


def _parse_epoch_hour(text: str, line_no: int) -> int:
    try:
        stamp = datetime.fromisoformat(text)
    except ValueError as exc:
        raise ParseError(f"line {line_no}: bad timestamp {text!r}: {exc}") from None
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    if stamp.minute or stamp.second or stamp.microsecond:
        raise ParseError(f"line {line_no}: timestamp {text!r} is not hour-aligned")
    return int(stamp.timestamp()) // 3600


def _parse_float(text: str, column: str, line_no: int) -> float:
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise ParseError(f"line {line_no}: bad {column} value {text!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"line {line_no}: non-finite {column} value {text!r}")
    return value


def load_csv(
    path: str, schema: CsvSchema | None = None, forward_fill: bool = False
) -> list[ClientDataset]:
    """Ingest a smart-meter CSV into per-client datasets.

    Per client, timestamps must be strictly increasing in file order and
    hourly-contiguous; a missing hour raises GapError naming the client and
    the first missing hour unless ``forward_fill`` repeats the last row
    across the hole. Returned datasets are sorted by client_id and carry
    archetype_id = -1 (ground truth unknown for ingested data).
    """
    schema = schema or CsvSchema()
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from None
    with handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        required = [schema.timestamp, schema.client_id, schema.value_kw]
        required += [schema.covariates[name] for name in sorted(schema.covariates)]
        for column in required:
            if column not in header:
                raise SchemaError(f"missing required column {column!r} in {path}")
        rows: dict[str, list[tuple[int, float, tuple[float, ...]]]] = {}
        for line_no, row in enumerate(reader, start=2):
            cid = (row.get(schema.client_id) or "").strip()
            if not cid:
                raise ParseError(f"line {line_no}: empty client id")
            hour = _parse_epoch_hour((row.get(schema.timestamp) or "").strip(), line_no)
            value = _parse_float(row.get(schema.value_kw), schema.value_kw, line_no)
            covs = tuple(
                _parse_float(row.get(schema.covariates[name]), schema.covariates[name], line_no)
                for name in sorted(schema.covariates)
            )
            rows.setdefault(cid, []).append((hour, value, covs))
    if not rows:
        raise InsufficientDataError(f"{path} contains no data rows")

    names = sorted(schema.covariates)
    datasets = []
    for cid in sorted(rows):
        entries = rows[cid]
        filled: list[tuple[int, float, tuple[float, ...]]] = []
        for i, entry in enumerate(entries):
            if i > 0:
                prev = filled[-1]
                if entry[0] <= prev[0]:
                    raise GapError(
                        f"client {cid}: non-monotone timestamp at hour {entry[0]} "
                        f"(after {prev[0]})"
                    )
                if entry[0] > prev[0] + 1:
                    if not forward_fill:
                        raise GapError(
                            f"client {cid}: missing hour {prev[0] + 1} "
                            f"(gap of {entry[0] - prev[0] - 1})"
                        )
                    for hole in range(prev[0] + 1, entry[0]):
                        filled.append((hole, prev[1], prev[2]))
            filled.append(entry)
        series = TimeSeries(
            start_epoch_hours=filled[0][0],
            values=np.array([e[1] for e in filled], dtype=np.float64),
        )
        covariates = {
            name: np.array([e[2][j] for e in filled], dtype=np.float64)
            for j, name in enumerate(names)
        }
        datasets.append(
            ClientDataset(
                client_id=cid,
                series=series,
                covariates=covariates,
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
