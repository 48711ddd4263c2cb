"""Smoke test of the benchmark at reduced size.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload through ``run.py --small`` in both modes and checks that
each metric of ``BENCHMARK.json`` is printed with its unit, then feeds the
output checks corrupted comparisons and checks that each is counted as a
failure.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace), "--small",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=175,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line.startswith("  ")}
    for m in expected:
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
        assert printed.get(m["name"]) == m["unit"], m["name"]


def test_fails_without_the_package(tmp_path):
    """In a directory holding only the benchmark, the run fails and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "hc-recluster", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---- corrupted outputs are counted ----------------------------------------------


@pytest.fixture(scope="module")
def comparisons():
    """One real small comparison per workload: (json_text, trace_rows, expect)."""
    import worker

    ff = worker.Package()
    out = {}
    for name in ("fleet-dp-ingest", "ifca-mlp-minibatch", "hc-recluster"):
        tree = workloads.scenario_tree(name, 3, workdir="-", small=True)
        tree.pop("ingest", None)
        tree["population"] = workloads.population_tree(name, small=True)
        scenario = ff.config.scenario_from_tree(tree)
        datasets = ff.config.load_datasets(scenario)
        outcomes, json_text, _ = worker.compare(ff, datasets, scenario, list(scenario.methods))
        trace_rows = {m: outcomes[m].trace_rows for m in outcomes}
        out[name] = (json_text, trace_rows, workloads.expectations(name, small=True))
    return out


def edit_rows(json_text: str, method: str, **changes) -> str:
    obj = json.loads(json_text)
    for row in obj["tables"][0]["rows"]:
        if row["method"] == method:
            row.update(changes)
    return json.dumps(obj)


def as_iteration(json_text: str, problems: list[str]) -> dict:
    digest = hashlib.sha256(json_text.encode()).hexdigest()
    return {"kind": "warm", "json_sha256": digest, "csv_sha256": "-", "problems": problems}


def test_correct_outputs_pass(comparisons):
    for json_text, trace_rows, expect in comparisons.values():
        assert checks.check_comparison(json_text, trace_rows, expect) == []


@pytest.mark.parametrize(
    "workload, method, field, delta",
    [
        ("ifca-mlp-minibatch", "ifca", "bytes_up", 1),
        ("ifca-mlp-minibatch", "ifca_personalized", "bytes_down", -1),
        ("fleet-dp-ingest", "fedavg", "bytes_down", 1),
        ("fleet-dp-ingest", "local_only", "bytes_up", 1),
        ("hc-recluster", "hc", "bytes_up", -1),
    ],
)
def test_byte_count_off_by_one_is_a_failure(comparisons, workload, method, field, delta):
    json_text, trace_rows, expect = comparisons[workload]
    row = next(r for r in json.loads(json_text)["tables"][0]["rows"] if r["method"] == method)
    bad = edit_rows(json_text, method, **{field: row[field] + delta})
    problems = checks.check_comparison(bad, trace_rows, expect)
    assert problems
    good = as_iteration(json_text, [])
    assert checks.count_failures([good, as_iteration(bad, problems)]) == (2, 1)


def test_missing_method_and_non_finite_mae_are_failures(comparisons):
    json_text, trace_rows, expect = comparisons["fleet-dp-ingest"]
    obj = json.loads(json_text)
    obj["tables"][0]["rows"] = obj["tables"][0]["rows"][1:]
    assert checks.check_comparison(json.dumps(obj), trace_rows, expect)
    nan_row = edit_rows(json_text, "centralized", mean={"mae": "nan"})
    assert checks.check_comparison(nan_row, trace_rows, expect)


def test_wrong_participant_count_is_a_failure(comparisons):
    json_text, trace_rows, expect = comparisons["hc-recluster"]
    rows = {m: [list(r) for r in trace] for m, trace in trace_rows.items()}
    rows["hc"][-1][checks.N_PARTICIPANTS] -= 1
    assert checks.check_comparison(json_text, rows, expect)


def test_non_identical_rerun_is_a_failure(comparisons):
    json_text = comparisons["ifca-mlp-minibatch"][0]
    first = as_iteration(json_text, [])
    rerun = as_iteration(json_text.replace("0", "1", 1), [])
    assert checks.count_failures([first, first, rerun]) == (3, 1)
    assert checks.count_failures([first, first]) == (2, 0)
