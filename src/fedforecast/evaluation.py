"""Forecast metrics, feeder aggregation, and the multi-method comparison
harness.

The harness trains each requested method on identical chronological splits
and evaluates on denormalized kW test values:

* ``local_only``: every client trains alone (same schedule, zero bytes);
* ``centralized``: one model on the pooled samples under a pooled scaler,
  trained as a stack of one by the same loop as ``local_only``, without DP;
* ``fedavg`` / ``hc`` / ``ifca``: the federated engine in the matching mode;
* ``*_personalized``: the base method's models fine-tuned per client.

Each base method is trained once into one record (models, scored clients,
trace rows, rounds to best validation, engine result), which its
personalized variant shares; that is safe because runs are pure functions
of (config, seed). Rows are byte-deterministic in the scenario seed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from functools import reduce
from typing import Mapping, Sequence

import numpy as np

from .clients import FederatedClient, pooled, train_local, train_lockstep
from .clients import run_epochs  # noqa: F401  (perfbench/tracer.py wraps evaluation.run_epochs)
from .config import METHODS, ScenarioConfig
from .data import ClientDataset, fit_scaler, train_raw_length
from .data import prepare_client  # noqa: F401  (perfbench/tracer.py wraps evaluation.prepare_client)
from .errors import AlignmentError, ConfigError, InsufficientDataError, ShapeError
from .fedcore import RunResult, personalize, round_csv_rows, run_training
from .model import ModelParams, init_params
from .model import loss  # noqa: F401  (perfbench/tracer.py wraps evaluation.loss)
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


def row_json_obj(row: MethodRow) -> dict:
    return {
        "method": row.method,
        "mean": asdict(row.mean),
        "median": asdict(row.median),
        "feeder": asdict(row.feeder),
        "n_train_samples": row.n_train_samples,
        "bytes_up": row.bytes_up,
        "bytes_down": row.bytes_down,
        "bytes_total": row.bytes_total,
        "rounds_to_best_val": row.rounds_to_best_val,
    }


def _reduce_metrics(items: Sequence[Metrics], reduce) -> Metrics:
    """Each metric reduced over ``items`` by ``reduce`` (np.mean or
    np.median); absent mapes and nrmses are left out, excluded points summed."""
    mapes = [m.mape for m in items if m.mape is not None]
    nrmses = [m.nrmse for m in items if m.nrmse is not None]
    return Metrics(
        mae=float(reduce([m.mae for m in items])),
        rmse=float(reduce([m.rmse for m in items])),
        mape=float(reduce(mapes)) if mapes else None,
        nrmse=float(reduce(nrmses)) if nrmses else None,
        excluded_points=int(sum(m.excluded_points for m in items)),
    )


def _shared_rows(windows: Sequence[np.ndarray]) -> list | None:
    """For each window of test sample timestamps, the rows whose timestamps
    every window has (all rows when the windows are equal); None when the
    windows share none."""
    if all(np.array_equal(w, windows[0]) for w in windows[1:]):
        return [slice(None)] * len(windows)
    shared = reduce(np.intersect1d, windows)
    return [np.isin(w, shared) for w in windows] if shared.size else None


def _base_method(method: str) -> str:
    return method.removesuffix("_personalized")


@dataclass(frozen=True, eq=False)
class _Trained:
    """One trained base method, which its personalized variant shares."""

    models: Mapping[str, ModelParams]  # by client id
    eval_clients: Sequence[FederatedClient]  # whose test forecasts are scored
    trace_rows: list
    rounds_to_best_val: float
    result: RunResult | None  # the engine's run; None when no bytes were sent


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
        self.spec = m.spec(len(names))
        self.fl = scenario.fl
        self.clients = FederatedClient.fleet(self.datasets, m.lag, m.horizon)
        self.n_train_total = sum(c.n_train_samples for c in self.clients)
        self._trained: dict[str, _Trained] = {}

    # ---- method execution -------------------------------------------------

    def trained(self, base: str) -> _Trained:
        """The record of a base method, trained on first use."""
        if base not in self._trained:
            build = {"local_only": self._local_only, "centralized": self._centralized}
            self._trained[base] = build.get(base, self._federated)(base)
        return self._trained[base]

    def _init(self) -> ModelParams:
        return init_params(self.spec, derive_seed(self.fl.seed, "init", 0))

    def _federated(self, base: str) -> _Trained:
        if len(self.clients) < 2:
            raise ConfigError(f"method {base} needs at least 2 clients")
        result = run_training(
            self.clients,
            self.spec,
            self.fl,
            mode=METHODS[base],
            cluster=self.scenario.cluster_for(base),
        )
        if result.mode == "global":
            models = {c.client_id: result.models[0] for c in self.clients}
        else:
            models = {cid: result.models[j] for cid, j in result.assignment.items()}
        rows = round_csv_rows(result)
        return _Trained(models, self.clients, rows, float(result.rounds_to_best_val), result)

    def _local_only(self, base: str) -> _Trained:
        models, traces = train_local(self.clients, self._init(), self.fl)
        val_weights = {c.client_id: c.n_val_samples for c in self.clients}
        rows = []
        for r in range(max(len(t.val_losses) for t in traces.values())):
            active = [cid for cid in sorted(traces) if r < len(traces[cid].val_losses)]
            total = sum(val_weights[cid] for cid in active)
            val = sum(traces[cid].val_losses[r] * val_weights[cid] for cid in active) / total
            rows.append([r + 1, val, 0, 0, len(active), 0])
        weights = {c.client_id: c.n_train_samples for c in self.clients}
        best = sum(traces[cid].best_round * weights[cid] for cid in traces)
        return _Trained(models, self.clients, rows, float(best / sum(weights.values())), None)

    def _centralized(self, base: str) -> _Trained:
        """One model on every client's samples, each client's split scaled
        by scalers fit on the pooled train prefixes; DP is not applied."""
        lag, horizon = self.scenario.model.lag, self.scenario.model.horizon
        prefixes = [train_raw_length(len(ds.series), lag, horizon) for ds in self.datasets]

        def pooled_scaler(columns):
            return fit_scaler(np.concatenate([c[:p] for c, p in zip(columns, prefixes)]))

        value_scaler = pooled_scaler([ds.series.values for ds in self.datasets])
        cov_scalers = {
            name: pooled_scaler([ds.covariates[name] for ds in self.datasets])
            for name in sorted(self.datasets[0].covariates)
        }
        clients = FederatedClient.fleet(self.datasets, lag, horizon, value_scaler, cov_scalers)
        # One stack of one model over the pooled samples: [None] views of
        # the clients' store when they share one.
        samples = [a[None] for split in ("train", "val") for a in pooled(clients, split)]
        models, traces, errors = train_lockstep(
            [([base], *samples)], self._init(), replace(self.fl, dp=None)
        )
        if errors:
            raise errors[base]
        trace = traces[base]
        return _Trained(
            dict.fromkeys((ds.client_id for ds in self.datasets), models[base]),
            clients,
            [[i + 1, v, 0, 0, 1, 0] for i, v in enumerate(trace.val_losses)],
            float(trace.best_round),
            None,
        )

    def models_for(self, method: str) -> dict[str, ModelParams]:
        models = dict(self.trained(_base_method(method)).models)
        if method.endswith("_personalized"):
            pers = self.scenario.personalization
            lr = pers.lr_scale * self.fl.optimizer.lr
            models = personalize(self.clients, models, pers.epochs, lr)
        return models

    # ---- evaluation --------------------------------------------------------

    def eval_clients(self, method: str) -> Sequence[FederatedClient]:
        return self.trained(_base_method(method)).eval_clients

    def outcome(self, method: str) -> MethodOutcome:
        models = self.models_for(method)
        trained = self.trained(_base_method(method))
        per_client: dict[str, Metrics] = {}
        preds: dict[str, np.ndarray] = {}
        actuals: dict[str, np.ndarray] = {}
        stamps: dict[str, np.ndarray] = {}
        feeders: dict[str, str] = {}
        for client in trained.eval_clients:
            pred, actual, ts = client.test_forecast(models[client.client_id])
            per_client[client.client_id] = compute_metrics(pred, actual)
            preds[client.client_id] = pred
            actuals[client.client_id] = actual
            stamps[client.client_id] = ts
            feeders[client.client_id] = client.feeder_id

        # A feeder whose members share no test hour is left out of the
        # feeder mean.
        feeder_metrics = []
        groups: dict[str, list[str]] = {}
        for cid in sorted(preds):
            groups.setdefault(feeders[cid], []).append(cid)
        for feeder in sorted(groups):
            members = groups[feeder]
            rows = _shared_rows([stamps[cid] for cid in members])
            if rows is None:
                continue
            pred_sum = np.sum([preds[cid][r] for cid, r in zip(members, rows)], axis=0)
            actual_sum = np.sum([actuals[cid][r] for cid, r in zip(members, rows)], axis=0)
            feeder_metrics.append(compute_metrics(pred_sum, actual_sum))
        if not feeder_metrics:
            raise AlignmentError(
                f"no feeder has a test hour shared by all its members "
                f"(feeders {', '.join(sorted(groups))})"
            )

        client_metrics = [per_client[cid] for cid in sorted(per_client)]
        result = trained.result
        row = MethodRow(
            method=method,
            mean=_reduce_metrics(client_metrics, np.mean),
            median=_reduce_metrics(client_metrics, np.median),
            feeder=_reduce_metrics(feeder_metrics, np.mean),
            n_train_samples=self.n_train_total,
            bytes_up=result.bytes_up_total if result is not None else 0,
            bytes_down=result.bytes_down_total if result is not None else 0,
            rounds_to_best_val=trained.rounds_to_best_val,
        )
        return MethodOutcome(
            method=method,
            row=row,
            per_client=per_client,
            trace_rows=trained.trace_rows,
            run_result=result,
        )


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
        if METHODS[method] is not None:
            scenario.cluster_for(method)  # fail before training, not midway
    harness = _Harness(datasets, scenario)
    return {method: harness.outcome(method) for method in sorted(set(methods))}


def run_comparison(
    datasets: Sequence[ClientDataset], scenario: ScenarioConfig
) -> ComparisonTable:
    """Train and evaluate every requested method on one dataset draw."""
    outcomes = run_methods(datasets, scenario)
    rows = tuple(outcomes[m].row for m in sorted(outcomes))
    return ComparisonTable(rows=rows, seed=scenario.seed)
