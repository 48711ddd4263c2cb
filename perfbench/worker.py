"""One fresh benchmark process; ``run.py`` starts it and reads its last line.

Modes:

* ``prepare``: import the package (so later processes find compiled
  bytecode, as a user's second run would) and, for workloads that ingest a
  CSV, generate the population and write it. Nothing here is timed.
* ``measure``: time set-up (import, parse the scenario, generate or ingest
  the datasets), then the first comparison, then one warm comparison and
  more while another fits in the time budget.
* ``trace``: the same set-up and comparisons, with every other comparison
  traced through ``tracer.py``; reports per-layer metrics.

A comparison is what ``fedforecast compare`` does for one seed:
``evaluation.run_methods`` over the workload's methods, then the comparison
JSON and CSV rendered with ``serialize``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

import checks
import tracer as tracing
import workloads

# Set-up is timed from here; everything above is the standard library and
# the benchmark's own modules.
T0 = time.perf_counter()


class Package:
    """The fedforecast modules, imported on demand so their import is timed."""

    def __init__(self) -> None:
        import fedforecast.clients
        import fedforecast.cluster
        import fedforecast.config
        import fedforecast.data
        import fedforecast.evaluation
        import fedforecast.fedcore
        import fedforecast.model
        import fedforecast.population
        import fedforecast.privacy
        import fedforecast.serialize

        ff = fedforecast
        self.clients, self.cluster, self.config = ff.clients, ff.cluster, ff.config
        self.data, self.evaluation, self.fedcore = ff.data, ff.evaluation, ff.fedcore
        self.model, self.population = ff.model, ff.population
        self.privacy, self.serialize = ff.privacy, ff.serialize


def prepare(args) -> dict:
    ff = Package()
    if not workloads.WORKLOADS[args.workload]["ingest"]:
        return {}
    tree = workloads.population_tree(args.workload, args.small)
    spec = ff.population.PopulationSpec(seed=args.seed, **tree)
    datasets = ff.population.generate_population(spec)
    path = workloads.csv_path(args.workdir, args.workload)
    ff.data.save_csv(datasets, path + ".tmp")
    os.replace(path + ".tmp", path)
    return {"rows": sum(len(ds.series) for ds in datasets)}


def setup(args):
    """Import, parse the scenario file, and load the datasets."""
    ff = Package()
    scenario = ff.config.parse_config(args.scenario)
    datasets = ff.config.load_datasets(scenario)
    return ff, scenario, datasets


def compare(ff, datasets, scenario, methods):
    outcomes = ff.evaluation.run_methods(datasets, scenario, methods)
    table = ff.evaluation.ComparisonTable(
        rows=tuple(outcomes[m].row for m in sorted(outcomes)), seed=scenario.seed
    )
    json_text = ff.serialize.to_json_text(
        {"seeds": [scenario.seed], "tables": [table.to_json_obj()]}
    )
    csv_text = ff.serialize.to_csv_text(
        ["seed"] + ff.evaluation.COMPARISON_CSV_HEADER,
        [[scenario.seed] + row for row in table.csv_rows()],
    )
    return outcomes, json_text, csv_text


def iteration(ff, datasets, scenario, expect, kind: str) -> tuple[dict, dict | None]:
    """One timed comparison plus its output checks."""
    methods = list(scenario.methods)
    start = time.perf_counter()
    try:
        outcomes, json_text, csv_text = compare(ff, datasets, scenario, methods)
    except Exception:  # a failing comparison is counted, not fatal
        return {
            "kind": kind,
            "seconds": time.perf_counter() - start,
            "json_sha256": None,
            "csv_sha256": None,
            "problems": [traceback.format_exc()],
        }, None
    seconds = time.perf_counter() - start
    trace_rows = {m: outcomes[m].trace_rows for m in outcomes}
    rows = json.loads(json_text)["tables"][0]["rows"]
    return {
        "kind": kind,
        "seconds": seconds,
        "json_sha256": hashlib.sha256(json_text.encode()).hexdigest(),
        "csv_sha256": hashlib.sha256(csv_text.encode()).hexdigest(),
        "problems": checks.check_comparison(json_text, trace_rows, expect),
        "client_rounds": checks.client_rounds(trace_rows),
        "evaluation.mae_kw": statistics.fmean(row["mean"]["mae"] for row in rows),
        "bytes_total": sum(row["bytes_total"] for row in rows),
    }, outcomes


def fits(last_s: float, budget: float) -> bool:
    """Whether one more step as long as the last one ends within the budget."""
    return time.perf_counter() - T0 + last_s <= budget


def measure(args) -> dict:
    ff, scenario, datasets = setup(args)
    setup_s = time.perf_counter() - T0
    expect = workloads.expectations(args.workload, args.small)
    runs = [iteration(ff, datasets, scenario, expect, "cold")[0]]
    # One warm comparison, then more while another fits in the
    # budget; a comparison that raised ends the loop.
    while runs[-1]["json_sha256"] is not None:
        if len(runs) > 1 and not fits(runs[-1]["seconds"], args.budget):
            break
        runs.append(iteration(ff, datasets, scenario, expect, "warm")[0])
    return {
        "setup_s": setup_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "iterations": runs,
        "env": environment(ff, args),
    }


# ---- traced run ---------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q / 100 * len(ordered)) - 1))]


def span_table(tracer) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, and call durations."""
    table: dict[str, dict] = {}
    for name, _, start, end, child in tracer.spans:
        row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})
        row["calls"] += 1
        row["s"] += (end - start) / 1e9
        row["self_s"] += (end - start - child) / 1e9
        row["durations"].append((end - start) / 1e9)
    return table


def layer_self_seconds(table: dict[str, dict]) -> dict[str, float]:
    out = {layer: 0.0 for layer in workloads.LAYERS}
    for name, row in table.items():
        out[name.split(".")[0]] += row["self_s"]
    return out


def ifca_churn(outcomes) -> float:
    """Share of ifca cluster choices that differ from the client's previous one."""
    outcome = outcomes.get("ifca") or outcomes.get("ifca_personalized")
    if outcome is None or outcome.run_result is None:
        return 0.0
    previous: dict[str, int] = {}
    changed = compared = 0
    for report in outcome.run_result.reports:
        for cid, j in report.assignment.items():
            if cid in previous:
                compared += 1
                changed += previous[cid] != j
            previous[cid] = j
    return changed / compared if compared else 0.0


def comparison_layer_metrics(tracer, outcomes) -> dict[str, float]:
    t = span_table(tracer)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []}

    def row(name):
        return t.get(name, empty)

    local = row("clients.local_update")
    rounds = row("fedcore.round")
    privatize = row("privacy.privatize")
    layers = layer_self_seconds(t)
    total = sum(layers.values())
    m = {
        "data.prepare_client_s": row("data.prepare_client")["s"],
        "clients.local_update_calls": local["calls"],
        "clients.local_update_s": local["s"],
        "clients.local_update_self_s": local["self_s"],
        "clients.local_update_us_p50": 1e6 * percentile(local["durations"], 50),
        "clients.local_update_us_p99": 1e6 * percentile(local["durations"], 99),
        "clients.train_local_s": row("clients.train_local")["s"],
        "clients.run_epochs_s": row("clients.run_epochs")["s"],
        "clients.fine_tune_s": row("clients.fine_tune")["s"],
        "model.loss_and_grad_calls": row("model.loss_and_grad")["calls"],
        "model.loss_and_grad_s": row("model.loss_and_grad")["s"],
        "model.loss_calls": row("model.loss")["calls"],
        "model.loss_s": row("model.loss")["s"],
        "model.computed_flops": tracer.counters.get("model.computed_flops", 0),
        "model.computed_bytes": tracer.counters.get("model.computed_bytes", 0),
        "optim.step_calls": row("optim.step")["calls"],
        "optim.step_s": row("optim.step")["s"],
        "privacy.privatize_calls": privatize["calls"],
        "privacy.privatize_s": privatize["s"],
        "privacy.clip_ratio": (
            tracer.counters.get("privacy.clipped", 0) / privatize["calls"]
            if privatize["calls"]
            else 0.0
        ),
        "seeds.rng_for_calls": row("seeds.rng_for")["calls"],
        "seeds.rng_for_s": row("seeds.rng_for")["s"],
        "fedcore.rounds": rounds["calls"],
        "fedcore.round_ms_p50": 1e3 * percentile(rounds["durations"], 50),
        "fedcore.round_ms_p90": 1e3 * percentile(rounds["durations"], 90),
        "fedcore.self_s": layers["fedcore"],
        "fedcore.aggregate_s": row("fedcore.aggregate")["s"],
        "fedcore.select_s": row("fedcore.select")["s"],
        "fedcore.bytes_up": tracer.counters.get("fedcore.bytes_up", 0),
        "fedcore.bytes_down": tracer.counters.get("fedcore.bytes_down", 0),
        "cluster.hc_partition_calls": row("cluster.hc_partition")["calls"],
        "cluster.hc_partition_s": row("cluster.hc_partition")["s"],
        "cluster.ifca_assign_calls": row("cluster.ifca_assign")["calls"],
        "cluster.ifca_assign_s": row("cluster.ifca_assign")["s"],
        "cluster.ifca_churn_ratio": ifca_churn(outcomes),
        "evaluation.compute_metrics_s": row("evaluation.compute_metrics")["s"],
        "evaluation.test_forecast_s": row("evaluation.test_forecast")["s"],
        "serialize.render_s": row("serialize.render")["s"],
        "trace.spans": len(tracer.spans),
    }
    for layer, seconds in layers.items():
        m[f"{layer}.self_share"] = seconds / total if total else 0.0
    return m


def hc_probe(ff, sizes, seed: int) -> tuple[dict[str, float], list[str]]:
    """Worst-case hc_partition: seeded random deltas, a tau that lets every
    pair merge, timed at each size."""
    import numpy as np

    dim = workloads.expectations("hc-recluster")["param_count"]
    rng = np.random.default_rng([seed, 4004])
    metrics, problems = {}, []
    for label, n in zip(workloads.HC_PROBE_SIZES, sizes):
        deltas = {f"p{i:04d}": rng.normal(size=dim) for i in range(n)}
        start = time.perf_counter()
        assignment = ff.cluster.hc_partition(deltas, 1e12)
        metrics[f"cluster.hc_partition_s.n{label}"] = time.perf_counter() - start
        if sorted(assignment) != sorted(deltas) or set(assignment.values()) != {0}:
            problems.append(f"hc_partition probe n={n}: expected one cluster of all ids")
    return metrics, problems


def trace(args) -> dict:
    ff = Package()
    setup_tracer = tracing.Tracer()
    tracing.setup_patches(setup_tracer, ff)
    try:
        scenario = ff.config.parse_config(args.scenario)
        datasets = ff.config.load_datasets(scenario)
    finally:
        setup_tracer.restore()
    st = span_table(setup_tracer)
    load_csv_s = st.get("data.load_csv", {}).get("s", 0.0)
    rows = sum(len(ds.series) for ds in datasets) if load_csv_s else 0
    setup_metrics = {
        "config.parse_s": st.get("config.parse", {}).get("s", 0.0),
        "population.generate_s": st.get("population.generate", {}).get("s", 0.0),
        "data.load_csv_s": load_csv_s,
        "data.load_csv_rows_per_s": rows / load_csv_s if load_csv_s else 0.0,
    }

    expect = workloads.expectations(args.workload, args.small)
    runs = [iteration(ff, datasets, scenario, expect, "cold")[0]]

    probe = {f"cluster.hc_partition_s.n{n}": 0.0 for n in workloads.HC_PROBE_SIZES}
    probe_problems: list[str] = []
    sizes = ()
    if args.workload == "hc-recluster":
        sizes = workloads.HC_PROBE_SIZES_SMALL if args.small else workloads.HC_PROBE_SIZES
        found, probe_problems = hc_probe(ff, sizes, args.seed)
        probe.update(found)

    traced: list[dict] = []
    last_tracer = None
    while True:
        tr = tracing.Tracer()
        tracing.comparison_patches(tr, ff)
        try:
            run, outcomes = iteration(ff, datasets, scenario, expect, "traced")
        finally:
            tr.restore()
        runs.append(run)
        if outcomes is not None:
            traced.append(comparison_layer_metrics(tr, outcomes))
            last_tracer = tr
        runs.append(iteration(ff, datasets, scenario, expect, "warm")[0])
        if outcomes is None or not fits(runs[-1]["seconds"] + runs[-2]["seconds"], args.budget):
            break

    metrics = dict(setup_metrics)
    metrics.update(probe)
    # Names from an empty trace, so a run whose comparisons all failed still
    # reports every metric (as 0) next to its failures.
    for name in comparison_layer_metrics(tracing.Tracer(), {}):
        metrics[name] = statistics.median(m[name] for m in traced) if traced else 0.0
    traced_s = statistics.median(r["seconds"] for r in runs if r["kind"] == "traced")
    untraced_s = statistics.median(r["seconds"] for r in runs if r["kind"] == "warm")
    metrics["evaluation.mae_kw"] = runs[0].get("evaluation.mae_kw", 0.0)
    metrics["trace.compare_s"] = traced_s
    metrics["trace.untraced_compare_s"] = untraced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    if last_tracer is not None:
        write_spans(last_tracer, os.path.join(args.workdir, f"spans-{args.workload}.tsv"))
    return {
        "iterations": runs,
        "probe_attempted": len(sizes),
        "probe_problems": probe_problems,
        "metrics": metrics,
        "env": environment(ff, args),
    }


def write_spans(tracer, path: str) -> None:
    """Spans of the last traced comparison, one per line, at exit."""
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        handle.write("index\tparent\tname\tstart_ns\tend_ns\tself_ns\n")
        for i, (name, parent, start, end, child) in enumerate(tracer.spans):
            handle.write(f"{i}\t{parent}\t{name}\t{start}\t{end}\t{end - start - child}\n")
    os.replace(path + ".tmp", path)


# ---- environment record -------------------------------------------------------


def git_sha(root: str) -> str:
    """HEAD commit read from the checkout's own .git; 'none' outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def environment(ff, args) -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "git_sha": git_sha(args.root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("prepare", "measure", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--scenario", default=None)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args(argv)
    modes = {"prepare": prepare, "measure": measure, "trace": trace}
    result = modes[args.mode](args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
