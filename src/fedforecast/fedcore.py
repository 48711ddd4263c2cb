"""The federated simulation engine.

The server-side loop: deterministic participant selection, broadcast,
sample-weighted FedAvg aggregation, per-round validation, early stopping,
and exact communication metering. ``run_training`` picks the function
that runs each round from the mode and the hc schedule. Every mode runs one
routed round: the public round functions only pick the participants, and
``_route`` gives each its model index (in ifca mode its lowest-loss model,
else its assignment, model 0 before any clustering). ``run_round`` trains
sampled participants (the FedAvg model, also the hc warm-up);
``ifca_round`` broadcasts all k models to them; ``hc_clustering_round``
trains every client, then regroups them with hc_partition over their
weight deltas; ``hc_cluster_round`` trains sampled participants by that
assignment, so each cluster trains independently.

Privacy boundary: nothing in this module touches raw samples. Server
functions consume client handles only through their narrow methods
(local_update, val_loss, fine_tune, choose_cluster, n_*_samples and the
static batch methods local_update_batch, val_loss_batch, fine_tune_batch
and choose_cluster_batch) and operate on ClientUpdate values, losses,
params and model indices; an API-surface test enforces this. A batch method
serves many handles in one call: it takes handles and their params (or
model sequences) and returns ClientUpdate values, losses, params or model
indices. ``_per_client`` calls it for every handle whose class does not
override the per-handle method, and that method on the others.

Byte meters are closed-form and exact:

    param_bytes = param_count * 8 + 16          (16-byte blob header)
    bytes_up    = participants * param_bytes
    bytes_down  = participants * models_broadcast * param_bytes

where models_broadcast is k in ifca mode and 1 otherwise.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .cluster import hc_partition
from .errors import ConfigError, EmptyAggregationError, NumericError, ShapeError
from .model import ModelParams, ModelSpec, init_params, param_message_bytes
from .optim import OptimizerConfig
from .privacy import DpConfig
from .seeds import derive_seed, rng_for

MODES = ("global", "hc", "ifca")

IMPROVEMENT_EPS = 1e-6


class EarlyStop:
    """The early-stopping rule shared by every training loop.

    A round improves when its validation loss beats the best so far by at
    least IMPROVEMENT_EPS; training stops after ``patience`` consecutive
    rounds without improvement (0 disables). A non-finite loss means the
    run diverged and raises NumericError naming the round and ``what``.
    """

    def __init__(self, patience: int, what: str = "validation loss"):
        self.patience = patience
        self.what = what
        self.best = math.inf
        self.stale = 0

    def update(self, round_index: int, val_loss: float) -> bool:
        """Record one round's loss; True when training should stop."""
        if not math.isfinite(val_loss):
            raise NumericError(
                f"round {round_index}: {self.what} is {val_loss}; training diverged"
            )
        if self.best - val_loss >= IMPROVEMENT_EPS:
            self.best, self.stale = val_loss, 0
        else:
            self.stale += 1
        return 0 < self.patience <= self.stale


@dataclass(frozen=True)
class FLConfig:
    rounds: int = 50
    local_epochs: int = 1
    batch_size: int = 0
    participation: float = 1.0
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    early_stop_patience: int = 0
    eval_every: int = 10
    seed: int = 0
    dp: DpConfig | None = None

    def __post_init__(self) -> None:
        for name in ("local_epochs", "batch_size", "early_stop_patience", "eval_every", "seed"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name}: must be >= 0, got {getattr(self, name)}")
        if not self.rounds >= 1:
            raise ConfigError(f"rounds: must be >= 1, got {self.rounds}")
        if not 0.0 < self.participation <= 1.0:
            raise ConfigError(f"participation: must be in (0,1], got {self.participation}")
        if self.dp is not None and not self.dp.active:
            # clip_norm=inf with sigma=0 is a no-op; normalize so runs with
            # and without the privacy block are indistinguishable end to end.
            object.__setattr__(self, "dp", None)


@dataclass(frozen=True)
class ClusterConfig:
    """Clustering knobs; tau/warmup apply to hc, k to ifca."""

    mode: str = "global"
    tau: float = 0.0
    warmup: int = 5
    k: int = 0
    recluster_every: int = 0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode: must be one of {MODES}, got {self.mode!r}")
        for name in ("tau", "warmup", "k", "recluster_every"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name}: must be >= 0, got {getattr(self, name)}")
        if self.mode == "hc" and not self.tau > 0:
            raise ConfigError(f"tau: must be > 0 when hc is used, got {self.tau}")
        if self.mode == "hc" and not self.warmup >= 1:
            raise ConfigError(f"warmup: must be >= 1 when hc is used, got {self.warmup}")
        if self.mode == "ifca" and not self.k >= 1:
            raise ConfigError(f"k: must be >= 1 when ifca is used, got {self.k}")


@dataclass(frozen=True, eq=False)
class ClientUpdate:
    """What a client sends back: new params, its sample count, and loss."""

    client_id: str
    new_params: ModelParams
    n_samples: int
    train_loss: float = math.nan

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ShapeError(f"update n_samples must be >= 1, got {self.n_samples}")


@dataclass(frozen=True)
class RoundReport:
    """One round's outcome; its fields, in order, are a report of the run
    JSON (``asdict``, with round_index written as round). participants,
    train_losses and assignment are in client id order."""

    round_index: int
    participants: tuple[str, ...]
    train_losses: Mapping[str, float]
    val_loss: float
    bytes_up: int
    bytes_down: int
    assignment: Mapping[str, int]
    n_clusters: int
    all_client_val_loss: float | None = None


@dataclass(frozen=True)
class ServerState:
    mode: str
    models: tuple[ModelParams, ...]
    assignment: Mapping[str, int]


@dataclass(frozen=True, eq=False)
class RunResult:
    """One engine run; its mode is ``cluster.mode``, its seed ``config.seed``."""

    models: tuple[ModelParams, ...]
    assignment: Mapping[str, int]
    reports: tuple[RoundReport, ...]
    config: FLConfig
    cluster: ClusterConfig

    @property
    def rounds_to_best_val(self) -> int:
        """1-based index of the first round with the lowest validation loss."""
        return min(self.reports, key=lambda r: r.val_loss).round_index

    @property
    def bytes_up_total(self) -> int:
        return sum(r.bytes_up for r in self.reports)

    @property
    def bytes_down_total(self) -> int:
        return sum(r.bytes_down for r in self.reports)


def select_participants(
    client_ids: Sequence[str], participation: float, seed: int, round_index: int
) -> list[str]:
    """ceil(P*N) distinct clients, deterministic in (seed, round), id-sorted."""
    ids = sorted(client_ids)
    count = math.ceil(participation * len(ids))
    perm = rng_for(seed, "participation", round_index).permutation(len(ids))
    return sorted(ids[j] for j in perm[:count])


def fedavg_aggregate(updates: Sequence[ClientUpdate]) -> ModelParams:
    """Sample-count-weighted mean, summed in ascending client_id order."""
    if len(updates) == 0:
        raise EmptyAggregationError("no updates to aggregate")
    ordered = sorted(updates, key=lambda u: u.client_id)
    spec = ordered[0].new_params.spec
    for u in ordered:
        if u.new_params.spec != spec:
            raise ShapeError(
                f"update for {u.client_id} has spec {u.new_params.spec}, expected {spec}"
            )
    total = sum(u.n_samples for u in ordered)
    acc = np.zeros(spec.param_count)
    for u in ordered:
        acc += (u.n_samples / total) * u.new_params.values
    return ModelParams(spec, acc)


def _weighted_val_loss(pairs: list[tuple[float, int]]) -> float:
    total = sum(n for _, n in pairs)
    if total == 0:
        raise EmptyAggregationError("no validation samples among participants")
    return sum(loss * n for loss, n in pairs) / total


def _client_map(clients) -> dict[str, object]:
    by_id: dict[str, object] = {}
    for c in clients:
        if c.client_id in by_id:
            raise ConfigError(f"duplicate client_id {c.client_id!r}")
        by_id[c.client_id] = c
    return by_id


def _participants(by_id: Mapping[str, object], config: FLConfig, round_index: int):
    return select_participants(list(by_id), config.participation, config.seed, round_index)


def run_round(
    state: ServerState, by_id: Mapping[str, object], config: FLConfig, round_index: int
) -> tuple[ServerState, RoundReport]:
    """One global FedAvg round (also the hc warm-up round)."""
    route = _route(state, by_id, _participants(by_id, config, round_index))
    return _routed_round(state, by_id, route, config, round_index)


def ifca_round(
    state: ServerState, by_id: Mapping[str, object], config: FLConfig, round_index: int
) -> tuple[ServerState, RoundReport]:
    """One iterative cluster-self-selection round: each participant trains
    from, and reports to, the model with its lowest own-train loss."""
    route = _route(state, by_id, _participants(by_id, config, round_index))
    return _routed_round(state, by_id, route, config, round_index)


def hc_clustering_round(
    state: ServerState, by_id: Mapping[str, object], config: FLConfig, tau: float, round_index: int
) -> tuple[ServerState, RoundReport]:
    """The (re)clustering round: every client participates, with no
    participation draw, so the new assignment is a total map."""
    route = _route(state, by_id, sorted(by_id))
    return _routed_round(state, by_id, route, config, round_index, regroup_tau=tau)


def hc_cluster_round(
    state: ServerState, by_id: Mapping[str, object], config: FLConfig, round_index: int
) -> tuple[ServerState, RoundReport]:
    """Post-clustering hc round: independent FedAvg inside each cluster."""
    route = _route(state, by_id, _participants(by_id, config, round_index))
    return _routed_round(state, by_id, route, config, round_index)


def _routed_round(
    state: ServerState,
    by_id: Mapping[str, object],
    route: Mapping[str, int],
    config: FLConfig,
    round_index: int,
    regroup_tau: float | None = None,
) -> tuple[ServerState, RoundReport]:
    """Train each participant (in id order) from its routed model, regroup
    the updates when ``regroup_tau`` is given, FedAvg per model (a model no
    update routes to keeps its params), validate each participant under its
    routed model, and meter the bytes."""
    participants = list(route)
    broadcasts = {cid: state.models[route[cid]] for cid in participants}
    updates = _per_client(by_id, "local_update", broadcasts, config, round_index)
    n_models = len(state.models)
    assignment = route if state.mode == "ifca" else state.assignment
    if regroup_tau is not None:
        deltas = {
            cid: u.new_params.values - state.models[route[cid]].values
            for cid, u in updates.items()
        }
        route = assignment = dict(sorted(hc_partition(deltas, regroup_tau).items()))
        n_models = max(route.values()) + 1
    groups: dict[int, list[ClientUpdate]] = {}
    for cid in participants:
        groups.setdefault(route[cid], []).append(updates[cid])
    models = tuple(
        fedavg_aggregate(groups[j]) if j in groups else state.models[j]
        for j in range(n_models)
    )
    routed = {cid: models[route[cid]] for cid in participants}
    val = _weighted_val_loss(list(_per_client(by_id, "val_loss", routed).values()))
    pb = param_message_bytes(state.models[0].spec)
    fanout = len(state.models) if state.mode == "ifca" else 1
    report = RoundReport(
        round_index=round_index,
        participants=tuple(participants),
        train_losses={cid: updates[cid].train_loss for cid in participants},
        val_loss=val,
        bytes_up=len(participants) * pb,
        bytes_down=len(participants) * fanout * pb,
        assignment=dict(assignment),
        n_clusters=n_models,
    )
    return replace(state, models=models, assignment=assignment), report


def _per_client(by_id, method: str, params: Mapping[str, object], *args) -> dict:
    """``by_id[cid].<method>(params[cid], *args)`` for each id of ``params``,
    by id in that order.

    Handles whose ``method`` is defined by a class that also defines
    ``<method>_batch`` go through one call of that static method per such
    class; the others (say, a subclass that overrides ``method``) are called
    one at a time, after the batches, whose failure is raised before any of
    them runs.
    """
    owners: dict[type, type | None] = {}
    batches: dict[type, list[str]] = {}
    for cid in params:
        cls = type(by_id[cid])
        if cls not in owners:
            owners[cls] = _batch_owner(cls, method)
        if owners[cls] is not None:
            batches.setdefault(owners[cls], []).append(cid)
    out = {}
    for owner, ids in batches.items():
        batch = getattr(owner, f"{method}_batch")
        out.update(batch([by_id[cid] for cid in ids], [params[cid] for cid in ids], *args))
    for cid in params:
        if cid not in out:
            out[cid] = getattr(by_id[cid], method)(params[cid], *args)
    return {cid: out[cid] for cid in params}


def _batch_owner(cls: type, method: str) -> type | None:
    """The class whose ``<method>_batch`` serves handles of ``cls``: the
    nearest class in its MRO that defines ``method``, if that class also
    defines ``<method>_batch``; else None."""
    for base in cls.__mro__:
        if method in vars(base):
            return base if f"{method}_batch" in vars(base) else None
    return None


def _route(state: ServerState, by_id: Mapping[str, object], ids: Sequence[str]) -> dict[str, int]:
    """The model index of each client of ``ids`` under ``state``, in that
    order: in ifca mode each client self-selects its lowest-loss model
    through choose_cluster (batched by _per_client), else it gets its
    assignment (model 0 before any clustering)."""
    if state.mode == "ifca":
        return _per_client(by_id, "choose_cluster", dict.fromkeys(ids, state.models))
    return {cid: state.assignment.get(cid, 0) for cid in ids}


def _all_client_val_loss(
    state: ServerState, by_id: Mapping[str, object], route: Mapping[str, int]
) -> float:
    """Diagnostic sample-weighted validation loss over every client, each
    under its model in ``route``."""
    routed = {cid: state.models[j] for cid, j in route.items()}
    return _weighted_val_loss(list(_per_client(by_id, "val_loss", routed).values()))


def personalize(
    clients, models: Mapping[str, ModelParams], epochs: int, lr: float
) -> dict[str, ModelParams]:
    """Each client's fine_tune of its model models[client_id] (the
    personalized variant of a method), by id in ``clients`` order, batched
    by the rule of local updates."""
    by_id = _client_map(clients)
    return _per_client(by_id, "fine_tune", {cid: models[cid] for cid in by_id}, epochs, lr)


def run_training(
    clients,
    model_spec: ModelSpec,
    config: FLConfig,
    mode: str = "global",
    cluster: ClusterConfig | None = None,
) -> RunResult:
    """Execute up to ``config.rounds`` federated rounds in the given mode.

    Early-stops on the participant-weighted validation loss under the
    EarlyStop rule. Raises NumericError naming the round when losses or
    parameters diverge to non-finite values.
    """
    if len(clients) < 1:
        raise ConfigError("run_training needs at least one client")
    by_id = _client_map(clients)
    cluster = replace(cluster or ClusterConfig(), mode=mode)

    models = tuple(
        init_params(model_spec, derive_seed(config.seed, "init", j))
        for j in range(cluster.k if mode == "ifca" else 1)
    )
    state = ServerState(mode, models, {})

    reports: list[RoundReport] = []
    stopper = EarlyStop(config.early_stop_patience)
    for round_index in range(1, config.rounds + 1):
        # hc: warm-up rounds, then a clustering round, repeated every recluster_every (0: never).
        since, every = round_index - cluster.warmup - 1, cluster.recluster_every
        try:
            if mode == "ifca":
                state, report = ifca_round(state, by_id, config, round_index)
            elif mode == "global" or since < 0:
                state, report = run_round(state, by_id, config, round_index)
            elif since == 0 or (every > 0 and since % every == 0):
                state, report = hc_clustering_round(state, by_id, config, cluster.tau, round_index)
            else:
                state, report = hc_cluster_round(state, by_id, config, round_index)
        except NumericError as exc:
            raise NumericError(f"round {round_index}: {exc}") from None
        stop = stopper.update(round_index, report.val_loss) or round_index == config.rounds
        # The last round is always evaluated: its route is the assignment.
        if stop or (config.eval_every > 0 and round_index % config.eval_every == 0):
            route = _route(state, by_id, sorted(by_id))
            report = replace(report, all_client_val_loss=_all_client_val_loss(state, by_id, route))
        reports.append(report)
        if stop:
            break

    return RunResult(
        models=state.models,
        assignment={} if mode == "global" else route,
        reports=tuple(reports),
        config=config,
        cluster=cluster,
    )


def run_result_json_obj(result: RunResult) -> dict:
    """JSON-ready view of a run; it holds no timing, so reruns are
    byte-identical."""
    return {
        "mode": result.cluster.mode,
        "seed": result.config.seed,
        "model_spec": asdict(result.models[0].spec),
        "config": asdict(result.config),
        "cluster": asdict(result.cluster),
        "n_models": len(result.models),
        "assignment": dict(sorted(result.assignment.items())),
        "rounds_to_best_val": result.rounds_to_best_val,
        "bytes_up_total": result.bytes_up_total,
        "bytes_down_total": result.bytes_down_total,
        "reports": [
            {"round" if k == "round_index" else k: v for k, v in asdict(r).items()}
            for r in result.reports
        ],
    }


ROUND_CSV_HEADER = [
    "round",
    "val_loss",
    "bytes_up",
    "bytes_down",
    "n_participants",
    "n_clusters",
]


def round_csv_rows(result: RunResult) -> list[list]:
    return [
        [
            r.round_index,
            r.val_loss,
            r.bytes_up,
            r.bytes_down,
            len(r.participants),
            r.n_clusters,
        ]
        for r in result.reports
    ]
