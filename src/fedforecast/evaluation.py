"""Forecast metrics, feeder aggregation, and the multi-method comparison
harness.

The harness trains each requested method on identical chronological splits
of one fleet of client handles, and every method scores those clients on
their denormalized kW test values:

* ``local_only``: every client trains alone (same schedule, zero bytes);
* ``centralized``: the pooled-data reference, one model on every client's
  own scaled samples, trained by ``train_local`` as one pooled client
  handle and scored by every client. In the identity regime (full
  participation, one full-batch epoch) it equals fedavg; outside it, its gap
  to fedavg measures client drift;
* ``fedavg`` / ``hc`` / ``ifca``: the federated engine in the matching mode;
* ``*_personalized``: the base method's models fine-tuned per client.

The two isolated baselines send no bytes, so they train without DP.
Each base method is trained once into one record (models, trace rows,
rounds to best validation, engine result), which its personalized variant
shares; that is safe because runs are pure functions of (config, seed).
Rows are byte-deterministic in the scenario seed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from functools import reduce
from typing import Mapping, Sequence

import numpy as np

from .clients import FederatedClient, train_local
from .clients import run_epochs  # noqa: F401  (perfbench/tracer.py wraps evaluation.run_epochs)
from .config import METHODS, ScenarioConfig
from .data import ClientDataset
from .data import prepare_client  # noqa: F401  (perfbench/tracer.py wraps evaluation.prepare_client)
from .errors import AlignmentError, ConfigError, InsufficientDataError, ShapeError
from .fedcore import RunResult, _client_map, _weighted_val_loss, personalize, round_csv_rows, run_training
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


# One comparison row's schema: the CSV columns are the rates of each block,
# mean's excluded points, then the totals; the JSON row is ``asdict(row)``.
_BLOCKS = ("mean", "median", "feeder")
_RATES = ("mae", "rmse", "mape", "nrmse")
_TOTALS = ("n_train_samples", "bytes_up", "bytes_down", "bytes_total", "rounds_to_best_val")

COMPARISON_CSV_HEADER = [
    "method",
    *(f"{block}_{rate}" for block in _BLOCKS for rate in _RATES),
    "excluded_points",
    *_TOTALS,
]


@dataclass(frozen=True)
class MethodRow:
    """One method's line of the comparison table. Its fields, in order, are
    the JSON row (``asdict``); ``bytes_total`` is bytes_up + bytes_down."""

    method: str
    mean: Metrics
    median: Metrics
    feeder: Metrics
    n_train_samples: int
    bytes_up: int
    bytes_down: int
    bytes_total: int = field(init=False)
    rounds_to_best_val: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "bytes_total", self.bytes_up + self.bytes_down)


@dataclass(frozen=True, eq=False)
class MethodOutcome:
    """Everything the CLI needs about one executed method."""

    method: str
    row: MethodRow
    per_client: Mapping[str, Metrics]
    trace_rows: list
    run_result: RunResult | None


@dataclass(frozen=True)
class ComparisonTable:
    """Every method's row for one seed, in method order: ``csv_rows`` gives
    the cells under COMPARISON_CSV_HEADER, ``to_json_obj`` the JSON table."""

    rows: tuple[MethodRow, ...]
    seed: int

    def csv_rows(self) -> list[list]:
        return [
            [
                row.method,
                *(getattr(getattr(row, block), rate) for block in _BLOCKS for rate in _RATES),
                row.mean.excluded_points,
                *(getattr(row, name) for name in _TOTALS),
            ]
            for row in self.rows
        ]

    def to_json_obj(self) -> dict:
        return {"seed": self.seed, "rows": [asdict(row) for row in self.rows]}


def _reduce_metrics(items: Sequence[Metrics], reduce) -> Metrics:
    """Each rate reduced over ``items`` by ``reduce`` (np.mean or
    np.median), absent values left out (None when none is present);
    excluded points summed."""
    rates = {}
    for rate in _RATES:
        present = [getattr(m, rate) for m in items if getattr(m, rate) is not None]
        rates[rate] = float(reduce(present)) if present else None
    return Metrics(**rates, excluded_points=int(sum(m.excluded_points for m in items)))


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
    trace_rows: list
    rounds_to_best_val: float
    result: RunResult | None  # the engine's run; None when no bytes were sent


class _Harness:
    """Shared state for one comparison run over one dataset draw."""

    def __init__(self, datasets: Sequence[ClientDataset], scenario: ScenarioConfig):
        if not datasets:
            raise ConfigError("run_methods needs at least one client")
        self.scenario = scenario
        datasets = sorted(datasets, key=lambda d: d.client_id)
        _client_map(datasets)  # the engine's duplicate-id check, for every method
        names = sorted(datasets[0].covariates)
        for ds in datasets:
            if sorted(ds.covariates) != names:
                raise ShapeError(
                    f"client {ds.client_id} covariates differ; the federation "
                    f"needs one shared input layout"
                )
        m = scenario.model
        self.spec = m.spec(len(names))
        self.fl = scenario.fl
        self.clients = FederatedClient.fleet(datasets, m.lag, m.horizon)
        self.n_train_total = sum(c.n_train_samples for c in self.clients)
        self._trained: dict[str, _Trained] = {}

    # ---- method execution -------------------------------------------------

    def trained(self, base: str) -> _Trained:
        """The record of a base method, trained on first use."""
        if base not in self._trained:
            build = self._federated if METHODS[base] else self._isolated
            self._trained[base] = build(base)
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
        # A global run's assignment is empty: every client has model 0.
        models = {
            c.client_id: result.models[result.assignment.get(c.client_id, 0)] for c in self.clients
        }
        rows = round_csv_rows(result)
        return _Trained(models, rows, float(result.rounds_to_best_val), result)

    def _isolated(self, base: str) -> _Trained:
        """local_only trains each client alone; centralized trains one model
        on every client's train samples pooled, each scaled by its own
        client's scalers, and every client scores that model. Neither sends
        a byte, so DP does not apply."""
        pooled = base == "centralized"
        handles = [FederatedClient.pooled(self.clients, base)] if pooled else self.clients
        models, traces = train_local(handles, self._init(), replace(self.fl, dp=None))
        if pooled:
            models = dict.fromkeys((c.client_id for c in self.clients), models[base])
        rows = []
        for r in range(max(map(len, traces.values()))):
            active = [h for h in handles if r < len(traces[h.client_id])]
            pairs = [(traces[h.client_id][r], h.n_val_samples) for h in active]
            # The pooled trace is its own row: (v * n) / n is not always v.
            val = pairs[0][0] if pooled else _weighted_val_loss(pairs)
            rows.append([r + 1, val, 0, 0, len(active), 0])
        # A handle's best round is the first with its lowest val loss.
        best = sum((int(np.argmin(traces[h.client_id])) + 1) * h.n_train_samples for h in handles)
        return _Trained(models, rows, float(best / sum(h.n_train_samples for h in handles)), None)

    def models_for(self, method: str) -> dict[str, ModelParams]:
        models = dict(self.trained(_base_method(method)).models)
        if method.endswith("_personalized"):
            pers = self.scenario.personalization
            lr = pers.lr_scale * self.fl.optimizer.lr
            models = personalize(self.clients, models, pers.epochs, lr)
        return models

    # ---- evaluation --------------------------------------------------------

    def outcome(self, method: str) -> MethodOutcome:
        models = self.models_for(method)
        trained = self.trained(_base_method(method))
        per_client: dict[str, Metrics] = {}
        feeders: dict[str, list[tuple]] = {}  # members' (pred, actual, stamps), in id order
        for client in self.clients:
            pred, actual, ts = client.test_forecast(models[client.client_id])
            per_client[client.client_id] = compute_metrics(pred, actual)
            feeders.setdefault(client.feeder_id, []).append((pred, actual, ts))

        # A feeder whose members share no test hour is left out of the
        # feeder mean.
        feeder_metrics = []
        for feeder in sorted(feeders):
            preds, actuals, stamps = zip(*feeders[feeder])
            rows = _shared_rows(stamps)
            if rows is not None:
                sums = [np.sum([x[r] for x, r in zip(xs, rows)], axis=0) for xs in (preds, actuals)]
                feeder_metrics.append(compute_metrics(*sums))
        if not feeder_metrics:
            raise AlignmentError(
                f"no feeder has a test hour shared by all its members "
                f"(feeders {', '.join(sorted(feeders))})"
            )

        client_metrics = list(per_client.values())
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
