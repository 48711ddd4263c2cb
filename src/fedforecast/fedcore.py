"""The federated simulation engine.

The server-side loop: deterministic participant selection, broadcast,
sample-weighted FedAvg aggregation (one ``fedavg_aggregate`` call a round
averages every routed model), per-round validation, early stopping, and
exact communication metering. Every mode runs the same routed round,
``run_round``: it draws the participants (every client in an hc clustering
round), ``_route`` gives each its model index (in ifca mode its lowest-loss
model, else its assignment, model 0 before any clustering) and
``_routed_round`` trains them from it. So the FedAvg model (also the hc
warm-up) trains sampled participants, ifca broadcasts all k models to them,
and an hc cluster round trains each cluster independently. ``run_training``
passes ``cluster.tau`` on the hc schedule's clustering rounds, where every
client trains and hc_partition regroups them over their weight deltas. The
names ``ifca_round``, ``hc_clustering_round`` and ``hc_cluster_round`` are
one alias line of ``run_round``, kept for the traced benchmark.

Privacy boundary: nothing in this module touches raw samples. Server
functions consume client handles only through their narrow methods
(local_update, val_loss, fine_tune, choose_cluster, n_*_samples) and their
static batch methods; an API-surface test enforces this. The server's K
models are one K x P array (ServerState), and a round stays in arrays: each
batch method takes handles, the spec and a params stack (row i for handle
i) and returns arrays of one entry per handle: local_update_batch new
params, sample counts and train losses, val_loss_batch losses and counts,
choose_cluster_batch model indices, fine_tune_batch new params.
``_per_client`` calls it for every handle whose class does not override
the per-handle method, and that method, on ModelParams, on the others;
what they return (say, a ClientUpdate) is stacked in. ``_val_loss`` is the
one sample-weighted validation of routed clients: of the participants in
each round, of every client at an evaluation.

Byte meters are closed-form and exact:

    param_bytes = param_count * 8 + 16          (16-byte blob header)
    bytes_up    = participants * param_bytes
    bytes_down  = participants * models_broadcast * param_bytes

where models_broadcast is k in ifca mode and 1 otherwise.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from functools import cache
from typing import Mapping, Sequence

import numpy as np

from .cluster import hc_partition
from .errors import ConfigError, EmptyAggregationError, NumericError, ShapeError
from .model import NON_FINITE_PARAMS, ModelParams, ModelSpec, init_params, param_message_bytes
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
    """Clustering knobs; tau, warmup and recluster_every (0: never) apply to hc, k to ifca."""

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


@dataclass(frozen=True, eq=False)
class ServerState:
    """The server's K models, row j of the K x P values being model j, and
    each clustered client's model index."""

    mode: str
    spec: ModelSpec
    values: np.ndarray
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
    """ceil(P*N) distinct clients, deterministic in (seed, round), id-sorted.
    P*N is rounded to 9 decimals first, so 0.07 * 100 = 7.000000000000001
    selects 7 of 100 clients, not 8; at least one is selected."""
    ids = sorted(client_ids)
    count = max(1, math.ceil(round(participation * len(ids), 9)))
    perm = rng_for(seed, "participation", round_index).permutation(len(ids))
    return sorted(ids[j] for j in perm[:count])


def fedavg_aggregate(
    values: np.ndarray, counts: Sequence[int], models: Sequence[int], prior: np.ndarray | None = None
) -> np.ndarray:
    """The FedAvg of every model of a round in one pass: row j is the
    sample-count-weighted mean of the rows i of values routed to it
    (models[i] == j, row i of counts[i] samples). A model no row routes to
    keeps its row of the K x P ``prior``; without a prior there are
    max(models) + 1 models, each routed to.

    Each model adds its weighted rows to zero one at a time, in the order
    of values (client id order): a reduction over the rows may sum columns
    pairwise, rounding otherwise. np.add.at is unbuffered and applies its
    indices in order, so it is that row loop.
    """
    counts, models = np.asarray(counts), np.asarray(models, dtype=np.intp)
    if len(counts) == 0:
        raise EmptyAggregationError("no updates to aggregate")
    k = int(models.max()) + 1 if prior is None else len(prior)
    sizes = np.bincount(models, minlength=k)
    if prior is None and not sizes.all():
        raise EmptyAggregationError(f"no updates to aggregate for model {int(np.argmin(sizes))}")
    totals = np.zeros(k, dtype=counts.dtype)
    np.add.at(totals, models, counts)
    out = np.zeros((k, values.shape[1]))
    # An overflow is the caller's NumericError, not a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(out, models, (counts / totals[models])[:, None] * values)
    if prior is not None:
        out[sizes == 0] = prior[sizes == 0]
    return out


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


def run_round(
    state: ServerState,
    by_id: Mapping[str, object],
    config: FLConfig,
    round_index: int,
    regroup_tau: float | None = None,
) -> tuple[ServerState, RoundReport]:
    """One routed FedAvg round of every mode. Its participants are drawn by
    select_participants, or, when ``regroup_tau`` is given (an hc
    clustering round), are every client, so the new assignment is a total
    map."""
    if regroup_tau is None:
        ids = select_participants(list(by_id), config.participation, config.seed, round_index)
    else:
        ids = sorted(by_id)
    route = _route(state, by_id, ids)
    return _routed_round(state, by_id, route, config, round_index, regroup_tau)


# Names only for the traced benchmark, which wraps them on this module;
# run_training calls run_round.
ifca_round = hc_clustering_round = hc_cluster_round = run_round  # perfbench/tracer.py wraps


def _routed_round(
    state: ServerState,
    by_id: Mapping[str, object],
    route: Mapping[str, int],
    config: FLConfig,
    round_index: int,
    regroup_tau: float | None = None,
) -> tuple[ServerState, RoundReport]:
    """Train each participant (in id order) from its routed model, regroup
    them over their deltas when ``regroup_tau`` is given, FedAvg every
    model in one fedavg_aggregate call (a model no participant routes to
    keeps its params; a non-finite one raises NumericError), validate each
    under its routed model, and meter."""
    participants = list(route)
    broadcast = state.values[list(route.values())]
    new, counts, losses = _per_client(
        by_id, "local_update", participants, state.spec, broadcast, config, round_index
    )
    assignment = route if state.mode == "ifca" else state.assignment
    prior = state.values
    if regroup_tau is not None:
        deltas = dict(zip(participants, new - broadcast))
        route = assignment = dict(sorted(hc_partition(deltas, regroup_tau).items()))
        prior = None  # the regrouped clusters are new models, each with members
    values = fedavg_aggregate(new, counts, [route[cid] for cid in participants], prior)
    if not np.isfinite(values).all():
        raise NumericError(NON_FINITE_PARAMS)
    val = _val_loss(by_id, state.spec, values, route)
    pb = param_message_bytes(state.spec)
    fanout = len(state.values) if state.mode == "ifca" else 1
    report = RoundReport(
        round_index=round_index,
        participants=tuple(participants),
        train_losses=dict(zip(participants, losses.tolist())),
        val_loss=val,
        bytes_up=len(participants) * pb,
        bytes_down=len(participants) * fanout * pb,
        assignment=dict(assignment),
        n_clusters=len(values),
    )
    return replace(state, values=values, assignment=assignment), report


def _per_client(by_id, method: str, ids: Sequence[str], spec: ModelSpec, values: np.ndarray, *args):
    """``<method>`` of each client ids[i] from row i of values (K models a
    row in choose_cluster), as its batch method returns it: arrays of one
    entry per client, in ids order. Handles whose ``method`` is defined by a
    class that also defines ``<method>_batch`` go through one call of that
    static method per such class; the others (say, a subclass that
    overrides ``method``) go one at a time through ``_one``, after the
    batches, whose failure is raised before any of them runs."""
    groups: dict[type | None, list[int]] = {}
    for i, cid in enumerate(ids):
        groups.setdefault(_batch_owner(type(by_id[cid]), method), []).append(i)
    parts = []
    for owner, rows in sorted(groups.items(), key=lambda group: group[0] is None):
        if owner is None:
            out = zip(*(_one(by_id[ids[i]], method, spec, values[i], *args) for i in rows))
            out = tuple(map(np.array, out))
        else:
            part = values if len(rows) == len(ids) else values[rows]
            out = getattr(owner, f"{method}_batch")([by_id[ids[i]] for i in rows], spec, part, *args)
        parts.append((rows, out if isinstance(out, tuple) else (out,)))
    columns = parts[0][1]
    if len(parts) > 1:
        order = np.argsort(np.concatenate([rows for rows, _ in parts]))
        columns = tuple(np.concatenate(c)[order] for c in zip(*(cols for _, cols in parts)))
    return columns if len(columns) > 1 else columns[0]


def _one(handle, method: str, spec: ModelSpec, row: np.ndarray, *args) -> tuple:
    """``handle.<method>`` at the edge: row goes in as ModelParams (a K x P
    row as its K models), the result comes back as this client's entries of
    the batch method's columns; params of another spec raise ShapeError."""
    params = ModelParams(spec, row) if row.ndim == 1 else tuple(ModelParams(spec, r) for r in row)
    out = getattr(handle, method)(params, *args)
    if isinstance(out, ClientUpdate):
        out = (out.new_params, out.n_samples, out.train_loss)
    first, *rest = out if isinstance(out, tuple) else (out,)
    if not isinstance(first, ModelParams):
        return (first, *rest)
    if first.spec != spec:
        raise ShapeError(f"{method} for {handle.client_id} has spec {first.spec}, expected {spec}")
    return (first.values, *rest)


@cache
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
    through choose_cluster (batched by _per_client, over a broadcast of the
    K models), else it gets its assignment (model 0 before any clustering)."""
    if state.mode == "ifca":
        models = np.broadcast_to(state.values, (len(ids), *state.values.shape))
        return dict(zip(ids, _per_client(by_id, "choose_cluster", ids, state.spec, models).tolist()))
    return {cid: state.assignment.get(cid, 0) for cid in ids}


def _val_loss(
    by_id: Mapping[str, object], spec: ModelSpec, values: np.ndarray, route: Mapping[str, int]
) -> float:
    """Sample-weighted validation loss over the clients of ``route``, each
    under its routed model, row route[cid] of the K x P values."""
    losses, counts = _per_client(by_id, "val_loss", list(route), spec, values[list(route.values())])
    return _weighted_val_loss(list(zip(losses.tolist(), counts.tolist())))


def personalize(
    clients, models: Mapping[str, ModelParams], epochs: int, lr: float
) -> dict[str, ModelParams]:
    """Each client's fine_tune of its model models[client_id] (the
    personalized variant of a method), by id in ``clients`` order, batched
    by the rule of local updates."""
    by_id = _client_map(clients)
    spec, values = models[clients[0].client_id].spec, np.stack([models[c].values for c in by_id])
    new = _per_client(by_id, "fine_tune", list(by_id), spec, values, epochs, lr)
    return {cid: ModelParams(spec, row) for cid, row in zip(by_id, new)}


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

    values = np.stack([
        init_params(model_spec, derive_seed(config.seed, "init", j)).values
        for j in range(cluster.k if mode == "ifca" else 1)
    ])
    state = ServerState(mode, model_spec, values, {})

    reports: list[RoundReport] = []
    stopper = EarlyStop(config.early_stop_patience)
    for round_index in range(1, config.rounds + 1):
        # hc: warm-up rounds, then a clustering round, repeated every recluster_every (0: never).
        since, every = round_index - cluster.warmup - 1, cluster.recluster_every
        regroup = mode == "hc" and (since == 0 or (since > 0 and every > 0 and since % every == 0))
        try:
            state, report = run_round(
                state, by_id, config, round_index, cluster.tau if regroup else None
            )
        except NumericError as exc:
            raise NumericError(f"round {round_index}: {exc}") from None
        stop = stopper.update(round_index, report.val_loss) or round_index == config.rounds
        # The last round is always evaluated: its route is the assignment.
        if stop or (config.eval_every > 0 and round_index % config.eval_every == 0):
            route = _route(state, by_id, sorted(by_id))
            val = _val_loss(by_id, state.spec, state.values, route)
            report = replace(report, all_client_val_loss=val)
        reports.append(report)
        if stop:
            break

    return RunResult(
        models=tuple(ModelParams(state.spec, row) for row in state.values),
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
