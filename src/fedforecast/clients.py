"""Client-side computations over private data splits.

Everything that touches raw samples lives here (or in the pure model/data
modules); the server engine only ever sees parameter stacks, losses, sample
counts and model indices through the FederatedClient handle. A local update
runs the configured epochs of (mini-)batch optimization from the broadcast
params, applies update-level DP when enabled, and ships back new params.

Samples live in stores. FederatedClient.fleet groups the clients by series
length, so by split sizes, and has data.window_clients window each group,
each client under its own scalers, in one pass that writes the group's one
store: C x n x d inputs and C x n x h targets per split. It is the one
fleet of a comparison.
Each handle's splits are views of its row; a lone FederatedClient(splits)
is a store of one. _stacks is the one place that makes handles into
stacks: every kernel call, train_local's included, gets a batch of handles as
its stacks of equal sample counts, a view when the rows are consecutive
rows of one store, one gather otherwise. STACK_BYTES bounds what a stack allocates,
not its size: a gathered row costs its samples, and so does a row of a
full-batch call, while a view trained in minibatches costs only the samples
of a row one kernel step gathers, so a minibatch round's view is usually
one stack. FederatedClient.pooled is one handle over the fleet's samples,
a view of one store or one copy.

run_epochs is the one training kernel. It steps a stack of models, each on
its own samples, into arrays it allocates once per call: a gather buffer
per minibatch length, one model.Workspace for the activations and
gradients, and a copy of the values the optimizer steps in place. Its one
caller is _train_round, a round of local updates of C clients: they train
as stacks through run_epochs into one C x P result, which is checked for
finiteness and, under update-level DP, privatized in one privatize_rows
call. _train_round's two callers:

* FederatedClient.local_update_batch, over the handles' _stacks: the
  engine calls it once per round and keeps its C x P result as it is, and
  FederatedClient.local_update is its batch of one;
* train_local, the one isolated trainer: it takes the live handles'
  _stacks, once and again only after one leaves. The local_only baseline
  trains the fleet so, and the centralized baseline one pooled handle over
  it.

Every per-client computation has one stacked path, a static batch method
that takes handles, the spec and a params stack (row i for handles[i]) and
returns arrays of one entry per handle; its per-handle method, on
ModelParams, is its batch of one: local_update_batch (above), val_loss_batch
(one stack_loss per stack, each row under its own model),
choose_cluster_batch (one cluster.ifca_assign per stack, the one choice
rule: k stack_loss calls, model j of every row at once) and fine_tune_batch
(personalization through _fine_tune_stack, the one backtracking loop).

Batch order is shuffled deterministically from (config seed, client id,
round index); with batch_size 0 the full batch is used and no shuffling
happens, so one epoch is exactly one full-batch gradient step.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .data import SPLITS, ClientDataset, ClientSplits, window_clients
from .errors import InsufficientDataError, NumericError, ShapeError
from .fedcore import ClientUpdate, EarlyStop, FLConfig
from .model import (
    NON_FINITE_PARAMS,
    ModelParams,
    ModelSpec,
    Workspace,
    _check_batch,
    predict_batch,
    stack_loss,
    stack_loss_and_grad,
)
from .model import loss, loss_and_grad  # noqa: F401  (perfbench/tracer.py wraps both)
from .optim import make_state, step
from .privacy import NON_FINITE_UPDATE, privatize_rows
from .privacy import privatize_delta  # noqa: F401  (perfbench/tracer.py wraps clients.privatize_delta)
from .seeds import rng_for  # noqa: F401  (perfbench/tracer.py wraps clients.rng_for)
from . import cluster as _cluster
from . import seeds as _seeds

# Bytes of samples (inputs plus targets) one stack may allocate for: those
# it copies, or those one step touches (see _stacks, where every stack,
# train_local's included, is made). A larger bucket runs as several stacks,
# which bounds the copies, minibatches and activations a call allocates at
# once.
STACK_BYTES = 1 << 20

# Personalization halves a row's step size at most down to this.
BACKTRACK_FLOOR = 1e-18


def run_epochs(
    values: np.ndarray,
    inputs: np.ndarray,
    targets: np.ndarray,
    spec,
    config: FLConfig,
    streams,
) -> tuple[np.ndarray, np.ndarray]:
    """The training kernel: config.local_epochs of (mini-)batch steps on a
    stack of C models at once.

    values is C x P, inputs C x n x d and targets C x n x h; model c trains
    on its own samples only, so every slice equals training that model
    alone. Minibatch order comes from model c's batch-shuffle stream,
    labelled ("batches", *streams[c]) (see _batch_orders); full-batch steps
    use the arrays as given. Each step writes in place into what the call
    allocates once (see the module docstring); the arguments are left as
    they were. Returns the new C x P values and each model's mean train loss
    of its final epoch (losses measured pre-step); with zero epochs, the
    values unchanged and their loss.
    """
    c, n = inputs.shape[:2]
    if config.local_epochs == 0:
        return values, stack_loss(spec, values, inputs, targets)
    batch = config.batch_size if 0 < config.batch_size < n else n
    values, workspace = values.copy(), Workspace(spec)
    opt_state = make_state(config.optimizer, values.shape)
    x, y = inputs, targets
    if batch < n:
        # Flat indices into the C*n samples: model c's sample i is c*n + i.
        orders = _batch_orders(config.seed, streams, config.local_epochs, n) + np.arange(0, c * n, n)[:, None]
        flat = [a.reshape(c * n, a.shape[2]) for a in (inputs, targets)]
        gathers = {b: [np.empty((c, b, a.shape[1])) for a in flat] for b in {batch, n % batch or batch}}
    for epoch in range(config.local_epochs):
        loss_sum = 0.0
        for i in range(0, n, batch):
            if batch < n:
                idx = orders[epoch, :, i : i + batch]
                x, y = (
                    np.take(a, idx, axis=0, out=out, mode="clip")
                    for a, out in zip(flat, gathers[idx.shape[1]])
                )
            batch_loss, grad = stack_loss_and_grad(spec, values, x, y, workspace)
            values, opt_state = step(opt_state, values, grad)
            loss_sum += batch_loss * x.shape[1]
        final_epoch_loss = loss_sum / n
    return values, final_epoch_loss


def _batch_orders(seed: int, streams, epochs: int, n: int) -> np.ndarray:
    """epochs x C x n: model c's shuffles of its n samples, one per epoch,
    drawn in turn from the stream rng_for(seed, "batches", *streams[c]).
    seeds.streams seeds every model's stream in one pass."""
    orders = np.empty((epochs, len(streams), n), dtype=np.int64)
    paths = [("batches", *labels) for labels in streams]
    for c, rng in enumerate(_seeds.streams(seed, paths)):
        for epoch in range(epochs):
            orders[epoch, c] = rng.permutation(n)
    return orders


def _train_round(values, stacks, spec, config: FLConfig, round_index, ids):
    """One round of local updates of C clients, row c being client ids[c]
    from values[c]. Each stack (rows, inputs, targets) trains the rows of
    values it names (a list of indices), row by row on its
    inputs and targets, through run_epochs; then, under DP, the delta of
    every row that has not failed is privatized in one privatize_rows call.

    Returns the new C x P params, the C train losses, and, by row index,
    the NumericError of each row whose new params or privatized params are
    not finite (ModelParams' text, NON_FINITE_PARAMS), or whose delta is
    (no update can be clipped then). A failed row is not privatized.
    """
    new = np.empty_like(values)
    losses = np.empty(len(ids))
    for rows, x, y in stacks:
        new[rows], losses[rows] = run_epochs(
            values[rows], x, y, spec, config, [(ids[i], round_index) for i in rows]
        )
    failed = {i: NumericError(NON_FINITE_PARAMS) for i in _non_finite(new)}
    if config.dp is None:
        return new, losses, failed
    delta = new - values
    for i in _non_finite(delta):
        failed.setdefault(i, NumericError(NON_FINITE_UPDATE))
    ok = [i for i in range(len(ids)) if i not in failed]
    new[ok] = values[ok] + privatize_rows(
        delta[ok], config.dp, config.seed, round_index, [ids[i] for i in ok]
    )
    for i in _non_finite(new):
        failed.setdefault(i, NumericError(NON_FINITE_PARAMS))
    return new, losses, failed


def _non_finite(rows: np.ndarray) -> list[int]:
    """The indices of the rows of a stack that hold a non-finite value."""
    return np.flatnonzero(~np.all(np.isfinite(rows), axis=1)).tolist()


def _fine_tune_stack(spec, values, inputs, targets, epochs: int, lr: float):
    """The backtracking loop on a stack: row c personalizes values[c] on
    inputs[c] and targets[c], with a step size of its own, from lr.

    Each epoch proposes p - s*g and halves s until the train loss does not
    rise or s reaches BACKTRACK_FLOOR; s carries into later epochs. A row
    whose loss would still rise stops there, while its stack-mates go on.
    Returns the new C x P values and, for each row whose candidate params
    are not finite, a NumericError of ModelParams' text; such a row stops
    too.
    """
    _check_batch(spec, inputs[0], targets[0])
    values = values.copy()
    steps = np.full(len(values), float(lr))
    live = np.arange(len(values))  # rows still training; x, y hold their samples
    x, y = inputs, targets
    failed: dict[int, NumericError] = {}
    for _ in range(epochs):
        base = values[live]
        current, grad = stack_loss_and_grad(spec, base, x, y)
        step_size = steps[live]
        candidate = base - step_size[:, None] * grad
        candidate_loss = np.zeros(len(live))
        stopped: dict[int, NumericError] = {}
        pending = np.arange(len(live))
        while pending.size:
            finite = np.all(np.isfinite(candidate[pending]), axis=1)
            stopped.update((i, NumericError(NON_FINITE_PARAMS)) for i in pending[~finite].tolist())
            pending = pending[finite]
            part = slice(None) if len(pending) == len(live) else pending
            candidate_loss[pending] = stack_loss(spec, candidate[pending], x[part], y[part])
            rose = candidate_loss[pending] > current[pending]
            pending = pending[rose & (step_size[pending] > BACKTRACK_FLOOR)]
            step_size[pending] /= 2.0
            candidate[pending] = base[pending] - step_size[pending, None] * grad[pending]
        failed.update((int(live[i]), exc) for i, exc in stopped.items())
        accept = ~(candidate_loss > current)
        accept[list(stopped)] = False
        values[live[accept]] = candidate[accept]
        steps[live] = step_size
        if not accept.all():
            live, x, y = live[accept], x[accept], y[accept]
            if not live.size:
                break
    return values, failed


class _Split(NamedTuple):
    """One client's samples of one split: views of its store row."""

    inputs: np.ndarray
    targets: np.ndarray
    sample_timestamps: np.ndarray

    @property
    def n_samples(self) -> int:
        return len(self.inputs)


def _consecutive(handles) -> slice | None:
    """The rows of handles as a slice of their store, when they are
    consecutive rows of one store, in order; else None."""
    store, first = handles[0]._store, handles[0]._row
    for i, handle in enumerate(handles):
        if handle._store is not store or handle._row != first + i:
            return None
    return slice(first, first + len(handles))


def _rows(handles, split: str) -> tuple[np.ndarray, np.ndarray]:
    """The inputs and targets of ``split`` of handles of equal sample counts,
    stacked, row c being handles[c]: a view when they are consecutive rows
    of one store, one gather when they are other rows of one store, else
    their rows stacked."""
    part = _consecutive(handles)
    store = handles[0]._store
    if part is not None:
        return tuple(a[part] for a in store[split])
    if all(h._store is store for h in handles):
        rows = [h._row for h in handles]
        return tuple(a[rows] for a in store[split])
    sets = [getattr(h, f"_{split}") for h in handles]
    return np.stack([s.inputs for s in sets]), np.stack([s.targets for s in sets])


def _stacks(handles, split: str, batch_size: int = 0):
    """The samples of ``split`` of handles as stacks: handles of equal
    sample counts n, in order, in chunks that allocate at most STACK_BYTES.
    A row costs its samples, which a gather copies and a full-batch step
    touches; in a bucket of consecutive store rows (a view) trained in
    minibatches of 0 < batch_size < n, only the batch_size samples one
    kernel step gathers. Yields (indices into handles, inputs, targets) per
    stack. A handle without samples of ``split`` raises
    InsufficientDataError before any stack is yielded."""
    buckets: dict[int, list[int]] = {}
    for i, handle in enumerate(handles):
        n = getattr(handle, f"_{split}").n_samples
        if n == 0:
            raise InsufficientDataError(f"client {handle.client_id} has no {split} samples")
        buckets.setdefault(n, []).append(i)
    for n, bucket in buckets.items():
        first = getattr(handles[bucket[0]], f"_{split}")
        touched = n
        if 0 < batch_size < n and _consecutive([handles[i] for i in bucket]) is not None:
            touched = batch_size
        row = first.inputs[:touched].nbytes + first.targets[:touched].nbytes
        size = max(1, STACK_BYTES // row)
        for start in range(0, len(bucket), size):
            indices = bucket[start : start + size]
            yield (indices, *_rows([handles[i] for i in indices], split))


class FederatedClient:
    """Holds one client's private splits; exposes only aggregate quantities.

    The train/val/test sets are private attributes by convention and by the
    engine's API-surface contract: server code receives this handle and may
    call only the methods below, none of which return raw samples. The
    handle's samples are row ``row`` of ``store``, a dict of (C x n x d
    inputs, C x n x h targets) per split name: a fleet store, or, for a
    handle made of its ClientSplits, a store of one that holds views of
    them.
    """

    def __init__(self, splits: ClientSplits):
        sets = {name: getattr(splits, name) for name in SPLITS}
        store = {name: (s.inputs[None], s.targets[None]) for name, s in sets.items()}
        stamps = {name: s.sample_timestamps[None] for name, s in sets.items()}
        self._bind(splits, store, stamps, 0, splits.value_scaler)

    def _bind(self, source, store, stamps, row: int, value_scaler) -> None:
        """Make this the handle of row ``row`` of ``store``, its sample
        timestamps row ``row`` of ``stamps`` (split name -> C x m), with the
        id and metadata of ``source`` (its ClientSplits or ClientDataset)."""
        self.client_id = source.client_id
        self.feeder_id = source.feeder_id
        self.archetype_id = source.archetype_id
        self.der_class = source.der_class
        self._store = store
        self._row = row
        self._train, self._val, self._test = (
            _Split(*(a[row] for a in store[name]), stamps[name][row]) for name in SPLITS
        )
        self._value_scaler = value_scaler

    @classmethod
    def fleet(cls, datasets: Sequence[ClientDataset], lag: int, horizon: int) -> list:
        """One handle per dataset, in order, each client's samples scaled by
        its own scalers as prepare_client(dataset, lag, horizon) scales them.
        This is the one fleet every method trains and scores. Series of
        equal length give equal split sizes, so their clients share one
        store, rows in order, which one window_clients pass writes: the
        samples are held once, in the store. Every client must have the
        covariate names of the first, so that the fleet has one input
        layout. When some clients fail, the error of the first of them in
        datasets order is raised."""
        names = sorted(datasets[0].covariates) if datasets else []
        for ds in datasets:
            if sorted(ds.covariates) != names:
                raise ShapeError(
                    f"client {ds.client_id} covariates differ; the federation "
                    f"needs one shared input layout"
                )
        groups: dict[int, list[int]] = {}
        for i, ds in enumerate(datasets):
            groups.setdefault(len(ds.series), []).append(i)
        stores = [
            (members, window_clients([datasets[i] for i in members], lag, horizon))
            for members in groups.values()
        ]
        failed = {members[c]: exc for members, windows in stores for c, exc in windows.failed.items()}
        if failed:
            raise failed[min(failed)]
        handles = [None] * len(datasets)
        for members, (store, stamps, scalers, _) in stores:
            for row, i in enumerate(members):
                handles[i] = cls.__new__(cls)
                handles[i]._bind(datasets[i], store, stamps, row, scalers[row])
        return handles

    @classmethod
    def pooled(cls, handles, client_id: str):
        """One handle, ``client_id``, whose train and val samples are those
        of every handle concatenated in order, each as its own client scaled
        it (the centralized baseline's samples), in a one-row store of its
        own: a view when the handles are consecutive rows of one store, else
        one copy. It has no test split: the handles score its model."""
        part, pooled = _consecutive(handles), cls.__new__(cls)
        pooled.client_id, pooled._store, pooled._row = client_id, {}, 0
        for split in ("train", "val"):
            if part is not None:
                arrays = tuple(a[part].reshape(1, -1, a.shape[2]) for a in handles[0]._store[split])
            else:
                pairs = zip(*(getattr(h, f"_{split}")[:2] for h in handles))  # (inputs, targets)
                arrays = tuple(np.concatenate(a)[None] for a in pairs)
            pooled._store[split] = arrays
            setattr(pooled, f"_{split}", _Split(*(a[0] for a in arrays), None))
        return pooled

    @property
    def n_train_samples(self) -> int:
        return self._train.n_samples

    @property
    def n_val_samples(self) -> int:
        return self._val.n_samples

    def local_update(self, broadcast: ModelParams, config: FLConfig, round_index: int) -> ClientUpdate:
        """This client's update in round ``round_index``, trained from broadcast."""
        spec = broadcast.spec
        new, counts, losses = self.local_update_batch([self], spec, broadcast.values[None], config, round_index)
        return ClientUpdate(self.client_id, ModelParams(spec, new[0]), int(counts[0]), float(losses[0]))

    @staticmethod
    def local_update_batch(
        handles, spec: ModelSpec, values: np.ndarray, config: FLConfig, round_index: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """local_update of every handle, handles[i] from values[i]: the C x P
        new params, C train sample counts and C train losses. One
        _train_round over the handles' _stacks, so one privatize_rows call
        applies DP to every update of the round and sets up all of its noise
        streams at once. Bitwise equal to calling each handle alone. When
        some fail, the error of the first of them in handles order is raised.
        """
        ids = [h.client_id for h in handles]
        new, losses, failed = _train_round(
            values, _stacks(handles, "train", config.batch_size), spec, config, round_index, ids
        )
        if failed:
            raise failed[min(failed)]
        return new, np.array([h.n_train_samples for h in handles]), losses

    def val_loss(self, params: ModelParams) -> tuple[float, int]:
        """(mean val loss under params, number of val samples)."""
        losses, counts = self.val_loss_batch([self], params.spec, params.values[None])
        return float(losses[0]), int(counts[0])

    @staticmethod
    def val_loss_batch(handles, spec: ModelSpec, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """val_loss of every handle, handles[i] under values[i]: the C
        losses and C val sample counts, one stack_loss per stack of _stacks.
        Bitwise equal to calling each handle alone."""
        losses = np.empty(len(handles))
        for rows, x, y in _stacks(handles, "val"):
            _check_batch(spec, x[0], y[0])
            losses[rows] = stack_loss(spec, values[rows], x, y)
        return losses, np.array([h.n_val_samples for h in handles])

    def choose_cluster(self, models: Sequence[ModelParams]) -> int:
        """Self-select the cluster model with the lowest own-train loss."""
        stacked = np.stack([m.values for m in models])[None]
        return int(self.choose_cluster_batch([self], models[0].spec, stacked)[0])

    @staticmethod
    def choose_cluster_batch(handles, spec: ModelSpec, models: np.ndarray) -> np.ndarray:
        """choose_cluster of every handle, handles[i] among its K models
        models[i] (C x K x P; the engine broadcasts its K x P): the C indices
        chosen, one cluster.ifca_assign per stack of _stacks. Bitwise equal
        to calling each handle alone."""
        chosen = np.empty(len(handles), dtype=np.int64)
        for rows, x, y in _stacks(handles, "train"):
            chosen[rows] = _cluster.ifca_assign(x, y, spec, models[rows])
        return chosen

    def fine_tune(self, params: ModelParams, epochs: int, lr: float) -> ModelParams:
        """params personalized on this client's train samples (see _fine_tune_stack)."""
        new = self.fine_tune_batch([self], params.spec, params.values[None], epochs, lr)
        return ModelParams(params.spec, new[0])

    @staticmethod
    def fine_tune_batch(handles, spec: ModelSpec, values: np.ndarray, epochs: int, lr: float) -> np.ndarray:
        """fine_tune of every handle, handles[i] from values[i]: the C x P
        params the handles personalize as _stacks through _fine_tune_stack.
        Bitwise equal to calling each handle alone. A handle without train
        samples fails; when some fail, the first one's error is raised."""
        failed: dict[int, Exception] = {
            i: InsufficientDataError("fine_tune needs training samples")
            for i, h in enumerate(handles)
            if h.n_train_samples < 1
        }
        new = values.copy()
        trainable = [i for i in range(len(handles)) if i not in failed]
        if epochs > 0:
            for rows, x, y in _stacks([handles[i] for i in trainable], "train"):
                rows = [trainable[r] for r in rows]
                new[rows], stack_failed = _fine_tune_stack(spec, values[rows], x, y, epochs, lr)
                failed.update((rows[c], exc) for c, exc in stack_failed.items())
        if failed:
            raise failed[min(failed)]
        return new

    def test_forecast(self, params: ModelParams):
        """Denormalized (kW) test predictions and actuals, both n x h."""
        pred = self._value_scaler.inverse(predict_batch(params, self._test.inputs))
        actual = self._value_scaler.inverse(self._test.targets)
        return pred, actual, self._test.sample_timestamps


# Names only for the traced benchmark, which wraps them on this module; the
# package calls the methods.
local_update, fine_tune = FederatedClient.local_update, FederatedClient.fine_tune  # perfbench/tracer.py wraps


def train_local(handles, init: ModelParams, config: FLConfig):
    """Isolated local training of one model per handle, each from init under
    its own EarlyStop rule: the same per-round schedule as federation, minus
    any communication. The live handles train in lockstep, row c of the
    values being live handle c on its own samples: each round is one
    _train_round over their train _stacks, then one stack_loss per val
    stack. A handle leaves when it stops or fails, and only after such a
    round are the stacks built again, from the handles left.

    Returns two dicts by client id, in handles order: each handle's final
    params and its tuple of per-round validation losses. Results are bitwise
    those of training each handle alone. When some fail, the error of the
    first of them in handles order is raised after training, as training
    them one after another would raise it.
    """
    spec, live = init.spec, list(handles)
    values = np.tile(init.values, (len(live), 1))
    stoppers = {
        h.client_id: EarlyStop(config.early_stop_patience, f"client {h.client_id} validation loss")
        for h in live
    }
    traces: dict[str, list[float]] = {h.client_id: [] for h in live}
    models: dict[str, ModelParams] = {}
    errors: dict[str, NumericError] = {}
    stacks = list(_stacks(live, "train", config.batch_size)), list(_stacks(live, "val"))
    for round_index in range(1, config.rounds + 1):
        ids = [h.client_id for h in live]
        new, _, failed = _train_round(values, stacks[0], spec, config, round_index, ids)
        val = np.empty(len(live))
        for rows, x, y in stacks[1]:
            val[rows] = stack_loss(spec, new[rows], x, y)
        keep = []
        for i, (cid, val_loss) in enumerate(zip(ids, val.tolist())):
            if i in failed:
                errors[cid] = failed[i]
                continue
            try:
                stop = stoppers[cid].update(round_index, val_loss)
            except NumericError as exc:
                errors[cid] = exc
                continue
            traces[cid].append(val_loss)
            if stop or round_index == config.rounds:
                models[cid] = ModelParams(spec, new[i].copy())
            else:
                keep.append(i)
        if not keep:
            break
        if len(keep) < len(live):
            live, values = [live[i] for i in keep], new[keep]
            stacks = list(_stacks(live, "train", config.batch_size)), list(_stacks(live, "val"))
        else:
            values = new
    for cid in traces:
        if cid in errors:
            raise errors[cid]
    return {cid: models[cid] for cid in traces}, {cid: tuple(t) for cid, t in traces.items()}
