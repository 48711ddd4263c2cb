"""In-memory spans around calls into fedforecast's modules.

The package imports many names with ``from .x import y``, so a wrapper must
replace each name where it is looked up (``fedforecast.clients.loss``), not
only where it is defined. ``Tracer.patch`` does that and ``restore`` puts
every original back. Spans are kept in memory as
``[name, parent_index, start_ns, end_ns, child_ns]``; a span's self time is
its duration minus the time its child spans cover. The program is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, parent, 0, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = time.perf_counter_ns()
        return span

    def _close(self, span: list) -> None:
        span[3] = time.perf_counter_ns()
        self._stack.pop()
        if span[1] >= 0:
            self.spans[span[1]][4] += span[3] - span[2]

    def wrap(self, name: str, fn, hook=None):
        """``fn`` inside a span; ``hook(counters, args, result)`` runs after
        the span closes, so its cost is not charged to the wrapped call."""

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                hook(self.counters, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, hook=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, hook))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def count(counters: dict, key: str, amount: float = 1) -> None:
    counters[key] = counters.get(key, 0) + amount


def _model_work(counters: dict, args, with_grad: bool) -> None:
    """Matmul flops and array bytes of one loss / loss_and_grad call, computed
    from the shapes: inputs n x d, targets n x h, hidden width m, P params."""
    params, inputs, targets = args[:3]
    n, d = inputs.shape
    h = targets.shape[1]
    spec = params.spec
    if spec.kind == "linear":
        flops = 2 * n * d * h * (2 if with_grad else 1)
    else:
        m = spec.hidden_dim
        forward = 2 * n * (m * d + h * m)
        flops = forward + (2 * n * (m * d + 2 * h * m) if with_grad else 0)
    p = spec.param_count
    count(counters, "model.computed_flops", flops)
    count(counters, "model.computed_bytes", 8 * (n * d + n * h + p * (2 if with_grad else 1)))


def loss_hook(counters, args, result) -> None:
    _model_work(counters, args, with_grad=False)


def loss_and_grad_hook(counters, args, result) -> None:
    _model_work(counters, args, with_grad=True)


def privatize_hook(counters, args, result) -> None:
    """Counts updates whose pre-clip L2 norm exceeded the clip bound."""
    import numpy as np

    delta, config = args[0], args[1]
    count(counters, "privacy.clipped", float(np.linalg.norm(delta)) > config.clip_norm)


def round_hook(counters, args, result) -> None:
    _, report = result
    count(counters, "fedcore.bytes_up", report.bytes_up)
    count(counters, "fedcore.bytes_down", report.bytes_down)


def setup_patches(tracer: Tracer, ff) -> None:
    """Spans for the set-up phase: scenario parsing and data loading."""
    tracer.patch(ff.config, "parse_config", "config.parse")
    tracer.patch(ff.config, "generate_population", "population.generate")
    tracer.patch(ff.config, "load_csv", "data.load_csv")
    tracer.patch(ff.population, "rng_for", "seeds.rng_for")


def comparison_patches(tracer: Tracer, ff) -> None:
    """Spans for one comparison, at every boundary between two layers."""
    ev, cl, cu, fc = ff.evaluation, ff.clients, ff.cluster, ff.fedcore
    tracer.patch(ev, "run_methods", "evaluation.run_methods")
    tracer.patch(ev, "run_training", "fedcore.run_training")
    tracer.patch(ev, "train_local", "clients.train_local")
    tracer.patch(ev, "run_epochs", "clients.run_epochs")
    tracer.patch(ev, "prepare_client", "data.prepare_client")
    tracer.patch(ev, "compute_metrics", "evaluation.compute_metrics")
    tracer.patch(ev, "init_params", "model.init_params")
    tracer.patch(ev, "loss", "model.loss", loss_hook)
    # The harness reaches the client test forecast through the handle's method.
    tracer.patch(cl.FederatedClient, "test_forecast", "evaluation.test_forecast")
    tracer.patch(cl, "run_epochs", "clients.run_epochs")
    tracer.patch(cl, "local_update", "clients.local_update")
    tracer.patch(cl, "fine_tune", "clients.fine_tune")
    tracer.patch(cl, "loss", "model.loss", loss_hook)
    tracer.patch(cl, "loss_and_grad", "model.loss_and_grad", loss_and_grad_hook)
    tracer.patch(cl, "step", "optim.step")
    tracer.patch(cl, "make_state", "optim.make_state")
    tracer.patch(cl, "privatize_delta", "privacy.privatize", privatize_hook)
    tracer.patch(cu, "ifca_assign", "cluster.ifca_assign")
    tracer.patch(cu, "loss", "model.loss", loss_hook)
    tracer.patch(fc, "hc_partition", "cluster.hc_partition")
    tracer.patch(fc, "init_params", "model.init_params")
    tracer.patch(fc, "fedavg_aggregate", "fedcore.aggregate")
    tracer.patch(fc, "select_participants", "fedcore.select")
    for round_fn in ("run_round", "ifca_round", "hc_clustering_round", "hc_cluster_round"):
        tracer.patch(fc, round_fn, "fedcore.round", round_hook)
    for module in (cl, fc, ff.model, ff.privacy, ff.population):
        tracer.patch(module, "rng_for", "seeds.rng_for")
    tracer.patch(ff.serialize, "to_json_text", "serialize.render")
    tracer.patch(ff.serialize, "to_csv_text", "serialize.render")
