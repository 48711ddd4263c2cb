"""fedforecast benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload hc-recluster --seed 11 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``. With
``--trace 0`` it starts fresh processes one after another, each timing its
set-up, its first comparison and its warm comparisons, and prints the
end-to-end metrics. With ``--trace 1`` it runs one traced process and prints
the per-layer metrics. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; metric names and units are
those in ``BENCHMARK.json``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

# One BLAS thread: outputs are byte-identical only for a fixed thread count,
# and one thread is at most nproc on every machine.
BLAS_THREADS = "1"
# Every process this run starts must end before this many seconds.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(mode: str, args, started: float, extra=()) -> dict:
    """Run one worker process to completion and return its result line."""
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise BenchError(f"no time left for the {mode} process")
    cmd = [
        sys.executable, str(HERE / "worker.py"), mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--root", str(ROOT), "--workdir", str(WORKDIR), *extra,
    ]
    if args.small:
        cmd.append("--small")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
            text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process killed after {remaining:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def write_scenario(args) -> str:
    """The workload's scenario file; JSON is valid YAML."""
    tree = workloads.scenario_tree(args.workload, args.seed, str(WORKDIR), args.small)
    path = WORKDIR / f"{args.workload}.yaml"
    path.write_text(json.dumps(tree, indent=1) + "\n", encoding="utf-8")
    return str(path)


def result_line(spec_metrics: list[dict], values: dict, attempted: int, failed: int) -> str:
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics
    }
    return json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def print_metrics(spec_metrics: list[dict], values: dict) -> None:
    for m in spec_metrics:
        print(f"  {m['name']:<34} {values[m['name']]:>16.6g} {m['unit']}")


def print_problems(iterations: list[dict]) -> None:
    for i, it in enumerate(iterations):
        for problem in it["problems"]:
            print(f"FAILED iteration {i} ({it['kind']}): {problem.rstrip()}")


def untraced(args, spec: dict, scenario: str, started: float) -> str:
    extra = ("--scenario", scenario)
    # Fresh processes one after another, each timing its set-up, one cold and
    # one warm comparison, so that cold and warm samples are about as many and
    # spread over the same minute. The last process, started when there is
    # no room for two more, fills the rest of the budget with warm ones.
    workers, last = [], 0.0
    while not workers or args.seconds - (time.monotonic() - started) >= last:
        left = args.seconds - (time.monotonic() - started)
        final = bool(workers) and left < 2 * last
        t = time.monotonic()
        flags = ("--budget", f"{left:.3f}" if final else "0")
        workers.append(spawn("measure", args, started, (*extra, *flags)))
        last = time.monotonic() - t
        if final:
            break
    iterations = [it for w in workers for it in w["iterations"]]
    attempted, failed = checks.count_failures(iterations)
    ref = iterations[0]
    cold = [it["seconds"] for it in iterations if it["kind"] == "cold"]
    warm = [it["seconds"] for it in iterations if it["kind"] == "warm"] or cold
    setups = [w["setup_s"] for w in workers]
    compare_s = statistics.median(warm)
    values = {
        "setup_s": statistics.median(setups),
        "cold_compare_s": statistics.median(cold),
        "compare_s": compare_s,
        "client_rounds_per_s": ref.get("client_rounds", 0) / compare_s,
        "peak_rss_mb": statistics.median(w["peak_rss_kb"] for w in workers) / 1024,
        "bytes_total": ref.get("bytes_total", 0),
    }
    env = dict(workers[0]["env"], json_sha256=ref["json_sha256"])
    print(f"workload {args.workload} seed {args.seed}: untraced, {len(workers)} processes")
    print("env " + json.dumps(env, sort_keys=True))
    print_problems(iterations)
    for name, samples in (("setup", setups), ("cold", cold), ("warm", warm)):
        print(
            f"  samples: {len(samples)} {name}, min {min(samples):.4f} s, "
            f"median {statistics.median(samples):.4f} s, max {max(samples):.4f} s"
        )
    print_metrics(spec["end_to_end"], values)
    print(f"  {'mae_kw':<34} {ref.get('evaluation.mae_kw', 0.0):>16.6g} kW")
    error_rate = failed / attempted
    print(f"  {'error_rate':<34} {error_rate:>16.6g} failed/attempted ({failed}/{attempted})")
    return result_line(spec["end_to_end"], values, attempted, failed)


def print_layer_table(values: dict) -> None:
    print("  self-time share of one traced comparison, by layer")
    for layer in workloads.LAYERS:
        share = values[f"{layer}.self_share"]
        print(f"    {layer:<11} {100 * share:6.1f} %  {'#' * round(40 * share)}")


def print_predictions(workload: str, values: dict) -> None:
    meta = workloads.WORKLOADS[workload]
    print(f"  stresses {', '.join(meta['stress'])}; should spare {', '.join(meta['spare'])}")
    for text, target, holds in workloads.PREDICTIONS:
        if target == workload:
            print(f"  prediction: {text}: {'holds' if holds(values) else 'DOES NOT HOLD'}")


def traced(args, spec: dict, scenario: str, started: float) -> str:
    budget = args.seconds - (time.monotonic() - started)
    result = spawn("trace", args, started, ("--scenario", scenario, "--budget", f"{budget:.3f}"))
    iterations = result["iterations"]
    attempted, failed = checks.count_failures(iterations)
    probe_problems = result["probe_problems"]
    values = result["metrics"]
    env = dict(result["env"], json_sha256=iterations[0]["json_sha256"])
    print(f"workload {args.workload} seed {args.seed}: traced")
    print("env " + json.dumps(env, sort_keys=True))
    print_problems(iterations)
    for problem in probe_problems:
        print(f"FAILED {problem}")
    print_layer_table(values)
    print_predictions(args.workload, values)
    print(f"  spans of the last traced comparison: {WORKDIR.name}/spans-{args.workload}.tsv")
    print_metrics(spec["per_layer"], values)
    return result_line(
        spec["per_layer"],
        values,
        attempted + result["probe_attempted"],
        failed + len(probe_problems),
    )


def _stop(signum, frame):
    # As an exception, a termination signal lets subprocess.run kill and
    # wait for the worker it is running before this process exits.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fedforecast benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--small", action="store_true", help="smoke-test size: same code paths, tiny inputs"
    )
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _stop)
    started = time.monotonic()
    try:
        if not (ROOT / "src" / "fedforecast" / "__init__.py").is_file():
            raise BenchError(f"no fedforecast package under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        WORKDIR.mkdir(exist_ok=True)
        spawn("prepare", args, started)
        scenario = write_scenario(args)
        run = traced if args.trace else untraced
        line = run(args, spec, scenario, started)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
