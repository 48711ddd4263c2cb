"""Forecast metrics, feeder aggregation, and the multi-method comparison
harness.

The harness trains each requested method on identical chronological splits
and evaluates on denormalized kW test values:

* ``local_only``: every client trains alone (same schedule, zero bytes);
* ``centralized``: one model on the pooled samples under a pooled scaler;
* ``fedavg`` / ``hc`` / ``ifca``: the federated engine in the matching mode;
* ``*_personalized``: the federated result fine-tuned per client.

Base federated runs are executed once and shared with their personalized
variants, which is safe because runs are pure functions of (config, seed).
Rows are byte-deterministic in the scenario seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .clients import FederatedClient, run_epochs, train_local
from .config import METHODS, ScenarioConfig, require_cluster_settings
from .data import ClientDataset, TimeSeries, fit_scaler, prepare_client, train_raw_length
from .errors import (
    AlignmentError,
    ConfigError,
    InsufficientDataError,
    ShapeError,
)
from .fedcore import (
    EarlyStop,
    RunResult,
    round_csv_rows,
    run_training,
)
from .model import ModelParams, ModelSpec, init_params, loss
from .seeds import derive_seed

MAPE_EXCLUDE_BELOW = 1e-8
NRMSE_MIN_DENOM = 1e-12


@dataclass(frozen=True)
class Metrics:
    """Point-forecast errors in physical units (kW); mape in percent.

    mape is None when every point was excluded (|actual| < 1e-8); nrmse is
    None when mean |actual| is below 1e-12.
    """

    mae: float
    rmse: float
    mape: float | None
    nrmse: float | None
    excluded_points: int


def compute_metrics(pred, actual) -> Metrics:
    pred = np.asarray(pred, dtype=np.float64).ravel()
    actual = np.asarray(actual, dtype=np.float64).ravel()
    if pred.shape != actual.shape:
        raise ShapeError(f"pred has {pred.shape[0]} points, actual {actual.shape[0]}")
    if pred.shape[0] == 0:
        raise InsufficientDataError("cannot compute metrics on zero points")
    err = pred - actual
    mae = float(np.mean(np.abs(err)))
    rmse = float(math.sqrt(np.mean(err * err)))
    keep = np.abs(actual) >= MAPE_EXCLUDE_BELOW
    excluded = int(actual.shape[0] - np.count_nonzero(keep))
    if np.any(keep):
        mape = float(100.0 * np.mean(np.abs(err[keep]) / np.abs(actual[keep])))
    else:
        mape = None
    denom = float(np.mean(np.abs(actual)))
    nrmse = rmse / denom if denom >= NRMSE_MIN_DENOM else None
    return Metrics(mae=mae, rmse=rmse, mape=mape, nrmse=nrmse, excluded_points=excluded)


def aggregate_forecast(
    series_by_client: Mapping[str, TimeSeries], feeder_by_client: Mapping[str, str]
) -> dict[str, TimeSeries]:
    """Pointwise per-feeder sum of member series (predictions or actuals)."""
    groups: dict[str, list[str]] = {}
    for cid in sorted(series_by_client):
        if cid not in feeder_by_client:
            raise AlignmentError(f"client {cid} has no feeder assignment")
        groups.setdefault(feeder_by_client[cid], []).append(cid)
    out: dict[str, TimeSeries] = {}
    for feeder in sorted(groups):
        members = groups[feeder]
        head = series_by_client[members[0]]
        total = np.array(head.values, dtype=np.float64)
        for cid in members[1:]:
            series = series_by_client[cid]
            if (
                len(series) != len(head)
                or series.start_epoch_hours != head.start_epoch_hours
                or series.step_hours != head.step_hours
            ):
                raise AlignmentError(
                    f"feeder {feeder}: series for {cid} is not aligned with {members[0]}"
                )
            total += series.values
        out[feeder] = TimeSeries(head.start_epoch_hours, total, head.step_hours)
    return out


@dataclass(frozen=True)
class MethodRow:
    method: str
    mean: Metrics
    median: Metrics
    feeder: Metrics
    n_train_samples: int
    bytes_up: int
    bytes_down: int
    rounds_to_best_val: float

    @property
    def bytes_total(self) -> int:
        return self.bytes_up + self.bytes_down


@dataclass(frozen=True, eq=False)
class MethodOutcome:
    """Everything the CLI needs about one executed method."""

    method: str
    row: MethodRow
    per_client: Mapping[str, Metrics]
    trace_rows: list
    run_result: RunResult | None


COMPARISON_CSV_HEADER = [
    "method",
    "mean_mae",
    "mean_rmse",
    "mean_mape",
    "mean_nrmse",
    "median_mae",
    "median_rmse",
    "median_mape",
    "median_nrmse",
    "feeder_mae",
    "feeder_rmse",
    "feeder_mape",
    "feeder_nrmse",
    "excluded_points",
    "n_train_samples",
    "bytes_up",
    "bytes_down",
    "bytes_total",
    "rounds_to_best_val",
]


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple[MethodRow, ...]
    seed: int

    def csv_rows(self) -> list[list]:
        out = []
        for row in self.rows:
            out.append(
                [
                    row.method,
                    row.mean.mae,
                    row.mean.rmse,
                    row.mean.mape,
                    row.mean.nrmse,
                    row.median.mae,
                    row.median.rmse,
                    row.median.mape,
                    row.median.nrmse,
                    row.feeder.mae,
                    row.feeder.rmse,
                    row.feeder.mape,
                    row.feeder.nrmse,
                    row.mean.excluded_points,
                    row.n_train_samples,
                    row.bytes_up,
                    row.bytes_down,
                    row.bytes_total,
                    row.rounds_to_best_val,
                ]
            )
        return out

    def to_json_obj(self) -> dict:
        return {
            "seed": self.seed,
            "rows": [row_json_obj(row) for row in self.rows],
        }


def _metrics_json_obj(m: Metrics) -> dict:
    return {
        "mae": m.mae,
        "rmse": m.rmse,
        "mape": m.mape,
        "nrmse": m.nrmse,
        "excluded_points": m.excluded_points,
    }


def row_json_obj(row: MethodRow) -> dict:
    return {
        "method": row.method,
        "mean": _metrics_json_obj(row.mean),
        "median": _metrics_json_obj(row.median),
        "feeder": _metrics_json_obj(row.feeder),
        "n_train_samples": row.n_train_samples,
        "bytes_up": row.bytes_up,
        "bytes_down": row.bytes_down,
        "bytes_total": row.bytes_total,
        "rounds_to_best_val": row.rounds_to_best_val,
    }


def _mean_metrics(items: Sequence[Metrics]) -> Metrics:
    mapes = [m.mape for m in items if m.mape is not None]
    nrmses = [m.nrmse for m in items if m.nrmse is not None]
    return Metrics(
        mae=float(np.mean([m.mae for m in items])),
        rmse=float(np.mean([m.rmse for m in items])),
        mape=float(np.mean(mapes)) if mapes else None,
        nrmse=float(np.mean(nrmses)) if nrmses else None,
        excluded_points=int(sum(m.excluded_points for m in items)),
    )


def _median_metrics(items: Sequence[Metrics]) -> Metrics:
    mapes = [m.mape for m in items if m.mape is not None]
    nrmses = [m.nrmse for m in items if m.nrmse is not None]
    return Metrics(
        mae=float(np.median([m.mae for m in items])),
        rmse=float(np.median([m.rmse for m in items])),
        mape=float(np.median(mapes)) if mapes else None,
        nrmse=float(np.median(nrmses)) if nrmses else None,
        excluded_points=int(sum(m.excluded_points for m in items)),
    )


def _base_method(method: str) -> str:
    return method.removesuffix("_personalized")


class _Harness:
    """Shared state for one comparison run over one dataset draw."""

    def __init__(self, datasets: Sequence[ClientDataset], scenario: ScenarioConfig):
        self.scenario = scenario
        self.datasets = sorted(datasets, key=lambda d: d.client_id)
        names = sorted(self.datasets[0].covariates)
        for ds in self.datasets:
            if sorted(ds.covariates) != names:
                raise ShapeError(
                    f"client {ds.client_id} covariates differ; the federation "
                    f"needs one shared input layout"
                )
        m = scenario.model
        self.spec = ModelSpec(
            m.kind, m.lag + len(names), m.horizon, m.hidden if m.kind == "mlp" else 0
        )
        self.fl = scenario.fl
        self.splits = [
            prepare_client(ds, m.lag, m.horizon) for ds in self.datasets
        ]
        self.clients = [FederatedClient(s) for s in self.splits]
        self.n_train_total = sum(c.n_train_samples for c in self.clients)
        self._fl_runs: dict[str, RunResult] = {}
        self._pooled: tuple[list, list[FederatedClient]] | None = None
        self._local_models: dict[str, ModelParams] | None = None
        self._local_traces = None
        self._centralized = None

    # ---- method execution -------------------------------------------------

    def fl_run(self, base: str) -> RunResult:
        if base not in self._fl_runs:
            if len(self.clients) < 2:
                raise ConfigError(f"method {base} needs at least 2 clients")
            self._fl_runs[base] = run_training(
                self.clients,
                self.spec,
                self.fl,
                mode=METHODS[base],
                cluster=self.scenario.cluster_for(base),
            )
        return self._fl_runs[base]

    def local_models(self):
        if self._local_models is None:
            init = init_params(self.spec, derive_seed(self.fl.seed, "init", 0))
            self._local_models, self._local_traces = train_local(self.clients, init, self.fl)
        return self._local_models, self._local_traces

    def _pooled_material(self):
        """Per-client splits under the pooled scaler, plus eval handles."""
        if self._pooled is None:
            lag, horizon = self.scenario.model.lag, self.scenario.model.horizon
            prefixes = [
                train_raw_length(len(ds.series), lag, horizon) for ds in self.datasets
            ]
            value_scaler = fit_scaler(
                np.concatenate(
                    [ds.series.values[:p] for ds, p in zip(self.datasets, prefixes)]
                )
            )
            names = sorted(self.datasets[0].covariates)
            cov_scalers = {
                name: fit_scaler(
                    np.concatenate(
                        [ds.covariates[name][:p] for ds, p in zip(self.datasets, prefixes)]
                    )
                )
                for name in names
            }
            splits = [
                prepare_client(ds, lag, horizon, value_scaler, cov_scalers)
                for ds in self.datasets
            ]
            self._pooled = (splits, [FederatedClient(s) for s in splits])
        return self._pooled

    def pooled_clients(self) -> list[FederatedClient]:
        return self._pooled_material()[1]

    def centralized(self):
        """(params, val trace) of one model trained on the pooled samples."""
        if self._centralized is None:
            splits, _ = self._pooled_material()
            train_x = np.concatenate([s.train.inputs for s in splits])
            train_y = np.concatenate([s.train.targets for s in splits])
            val_x = np.concatenate([s.val.inputs for s in splits])
            val_y = np.concatenate([s.val.targets for s in splits])
            # A stack of one model over the pooled samples.
            values = init_params(self.spec, derive_seed(self.fl.seed, "init", 0)).values[None]
            trace: list[float] = []
            stopper = EarlyStop(self.fl.early_stop_patience, "centralized validation loss")
            for round_index in range(1, self.fl.rounds + 1):
                values, _ = run_epochs(
                    values, train_x[None], train_y[None], self.spec, self.fl,
                    [("centralized", round_index)],
                )
                val = loss(ModelParams(self.spec, values[0]), val_x, val_y)
                stop = stopper.update(round_index, val)
                trace.append(val)
                if stop:
                    break
            self._centralized = (ModelParams(self.spec, values[0]), trace)
        return self._centralized

    def models_for(self, method: str) -> dict[str, ModelParams]:
        base = _base_method(method)
        if base == "local_only":
            return dict(self.local_models()[0])
        if base == "centralized":
            params, _ = self.centralized()
            return {c.client_id: params for c in self.clients}
        result = self.fl_run(base)
        if result.mode == "global":
            models = {c.client_id: result.models[0] for c in self.clients}
        else:
            models = {
                cid: result.models[j] for cid, j in result.assignment.items()
            }
        if method.endswith("_personalized"):
            pers = self.scenario.personalization
            lr = pers.lr_scale * self.fl.optimizer.lr
            models = {
                client.client_id: client.fine_tune(
                    models[client.client_id], pers.epochs, lr
                )
                for client in self.clients
            }
        return models

    # ---- evaluation --------------------------------------------------------

    def eval_clients(self, method: str) -> list[FederatedClient]:
        return self.pooled_clients() if _base_method(method) == "centralized" else self.clients

    def outcome(self, method: str) -> MethodOutcome:
        models = self.models_for(method)
        eval_clients = self.eval_clients(method)
        per_client: dict[str, Metrics] = {}
        preds: dict[str, np.ndarray] = {}
        actuals: dict[str, np.ndarray] = {}
        stamps: dict[str, np.ndarray] = {}
        feeders: dict[str, str] = {}
        for client in eval_clients:
            pred, actual, ts = client.test_forecast(models[client.client_id])
            per_client[client.client_id] = compute_metrics(pred, actual)
            preds[client.client_id] = pred
            actuals[client.client_id] = actual
            stamps[client.client_id] = ts
            feeders[client.client_id] = client.feeder_id

        feeder_metrics = []
        groups: dict[str, list[str]] = {}
        for cid in sorted(preds):
            groups.setdefault(feeders[cid], []).append(cid)
        for feeder in sorted(groups):
            members = groups[feeder]
            head = members[0]
            for cid in members[1:]:
                if preds[cid].shape != preds[head].shape or not np.array_equal(
                    stamps[cid], stamps[head]
                ):
                    raise AlignmentError(
                        f"feeder {feeder}: test windows of {cid} and {head} differ"
                    )
            pred_sum = np.sum([preds[cid] for cid in members], axis=0)
            actual_sum = np.sum([actuals[cid] for cid in members], axis=0)
            feeder_metrics.append(compute_metrics(pred_sum, actual_sum))

        client_metrics = [per_client[cid] for cid in sorted(per_client)]
        row = MethodRow(
            method=method,
            mean=_mean_metrics(client_metrics),
            median=_median_metrics(client_metrics),
            feeder=_mean_metrics(feeder_metrics),
            n_train_samples=self.n_train_total,
            bytes_up=self._bytes(method, "up"),
            bytes_down=self._bytes(method, "down"),
            rounds_to_best_val=self._rounds_to_best(method),
        )
        return MethodOutcome(
            method=method,
            row=row,
            per_client=per_client,
            trace_rows=self._trace_rows(method),
            run_result=self._fl_runs.get(_base_method(method)),
        )

    def _bytes(self, method: str, direction: str) -> int:
        base = _base_method(method)
        if base in ("local_only", "centralized"):
            return 0
        result = self.fl_run(base)
        return result.bytes_up_total if direction == "up" else result.bytes_down_total

    def _rounds_to_best(self, method: str) -> float:
        base = _base_method(method)
        if base == "local_only":
            _, traces = self.local_models()
            weights = {c.client_id: c.n_train_samples for c in self.clients}
            total = sum(weights.values())
            return float(
                sum(traces[cid].best_round * weights[cid] for cid in traces) / total
            )
        if base == "centralized":
            _, trace = self.centralized()
            return float(int(np.argmin(np.asarray(trace))) + 1)
        return float(self.fl_run(base).rounds_to_best_val)

    def _trace_rows(self, method: str) -> list:
        base = _base_method(method)
        if base == "centralized":
            _, trace = self.centralized()
            return [
                [i + 1, v, 0, 0, 1, 0] for i, v in enumerate(trace)
            ]
        if base == "local_only":
            _, traces = self.local_models()
            weights = {c.client_id: c.n_val_samples for c in self.clients}
            longest = max(len(t.val_losses) for t in traces.values())
            rows = []
            for r in range(longest):
                active = [cid for cid in sorted(traces) if r < len(traces[cid].val_losses)]
                total = sum(weights[cid] for cid in active)
                val = sum(traces[cid].val_losses[r] * weights[cid] for cid in active) / total
                rows.append([r + 1, val, 0, 0, len(active), 0])
            return rows
        return round_csv_rows(self.fl_run(base))


def run_methods(
    datasets: Sequence[ClientDataset],
    scenario: ScenarioConfig,
    methods: Sequence[str] | None = None,
) -> dict[str, MethodOutcome]:
    methods = list(methods if methods is not None else scenario.methods)
    for method in methods:
        if method not in METHODS:
            raise ConfigError(
                f"unknown method {method!r}; expected one of {tuple(METHODS)}"
            )
    require_cluster_settings(scenario.cluster, methods)
    harness = _Harness(datasets, scenario)
    return {method: harness.outcome(method) for method in sorted(set(methods))}


def run_comparison(
    datasets: Sequence[ClientDataset], scenario: ScenarioConfig
) -> ComparisonTable:
    """Train and evaluate every requested method on one dataset draw."""
    outcomes = run_methods(datasets, scenario)
    rows = tuple(outcomes[m].row for m in sorted(outcomes))
    return ComparisonTable(rows=rows, seed=scenario.seed)
