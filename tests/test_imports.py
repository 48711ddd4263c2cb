"""Every name a package module imports is used in that module, and every
name the traced benchmark wraps exists.

Deletions tend to leave dead imports behind. The one reason to keep an
unused import is that perfbench/tracer.py wraps the name as an attribute of
that module; such an import carries ``# noqa: F401`` on its line, and the
tracer must patch it there. A module-level name kept only for the tracer is
an assignment marked ``# perfbench/tracer.py wraps``, under the same rule.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

import fedforecast
import fedforecast.config
import fedforecast.evaluation
import fedforecast.serialize

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fedforecast"


def kept_imports(source: str) -> list[tuple[str, int]]:
    """(name, line) of each name imported on a ``# noqa: F401`` line."""
    lines = source.splitlines()
    return [
        (alias.asname or alias.name, alias.lineno)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if "# noqa: F401" in lines[alias.lineno - 1]
    ]


def kept_assignments(source: str) -> list[tuple[str, int]]:
    """(name, line) of each name a top-level assignment marked
    ``# perfbench/tracer.py wraps`` binds."""
    lines = source.splitlines()
    return [
        (target.id, node.lineno)
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign)
        and any("# perfbench/tracer.py wraps" in line for line in lines[node.lineno - 1 : node.end_lineno])
        for assigned in node.targets
        for target in (assigned.elts if isinstance(assigned, ast.Tuple) else [assigned])
    ]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_import():
    source = "import os\nimport sys  # noqa: F401\nfrom math import pi, tau\nprint(os, tau)\n"
    assert unused_imports(source) == ["pi (line 3)"]


def load_tracer():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_patches_apply_and_restore():
    # perfbench/tracer.py wraps package names by attribute; a refactor that
    # drops one fails here rather than only in the slow benchmark smoke test.
    tracing = load_tracer()
    tracer = tracing.Tracer()
    originals = {}
    try:
        tracing.setup_patches(tracer, fedforecast)
        tracing.comparison_patches(tracer, fedforecast)
        for owner, attr, original in tracer._patches:
            originals.setdefault((owner, attr), original)
            assert getattr(owner, attr) is not original
    finally:
        tracer.restore()
    assert len(originals) > 30
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original, attr


def test_kept_imports_are_names_the_tracer_patches_on_their_module():
    # A ``# noqa: F401`` import that the tracer does not wrap on its module
    # is an unused import hidden from test_every_import_is_used; a marked
    # assignment the tracer does not wrap is a dead alias.
    tracing = load_tracer()
    tracer = tracing.Tracer()
    try:
        tracing.setup_patches(tracer, fedforecast)
        tracing.comparison_patches(tracer, fedforecast)
        patched = {(owner.__name__, attr) for owner, attr, _ in tracer._patches}
    finally:
        tracer.restore()
    unpatched = [
        f"{path.name}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for kept in (kept_imports, kept_assignments)
        for name, line in kept(path.read_text(encoding="utf-8"))
        if (f"fedforecast.{path.stem}", name) not in patched
    ]
    assert unpatched == []


def test_kept_imports_lists_the_noqa_names():
    source = "import os  # noqa: F401\nfrom math import pi, tau  # noqa: F401\nimport sys\n"
    assert kept_imports(source) == [("os", 1), ("pi", 2), ("tau", 2)]


def test_kept_assignments_lists_the_marked_names():
    source = (
        "a, b = f.a, f.b  # perfbench/tracer.py wraps\n"
        "c = 1\n"
        "d = (  # perfbench/tracer.py wraps\n    1\n)\n"
        "def g():\n    e = 2  # perfbench/tracer.py wraps\n"
    )
    assert kept_assignments(source) == [("a", 1), ("b", 1), ("d", 3)]


def test_a_traced_comparison_records_the_engine_spans():
    # The traced benchmark reads these spans and the byte counter; an engine
    # that stopped calling a wrapped name through its module would leave
    # them at 0.
    tracing = load_tracer()
    tracer = tracing.Tracer()
    tree = {
        "seed": 3,
        "output_dir": "unused",
        "population": {"n_clients": 6, "archetypes": 2, "days": 7},
        "model": {"lag": 6},
        "fl": {"rounds": 4},
        "cluster": {"tau": 0.05, "warmup": 1, "recluster_every": 2, "k": 2},
        "methods": ["hc", "ifca"],
    }
    scenario = fedforecast.config.scenario_from_tree(tree)
    datasets = fedforecast.config.load_datasets(scenario)
    try:
        tracing.comparison_patches(tracer, fedforecast)
        outcomes = fedforecast.evaluation.run_methods(datasets, scenario)
    finally:
        tracer.restore()
    spans = {span[0] for span in tracer.spans}
    engine = {"fedcore.aggregate", "fedcore.select", "fedcore.round"}
    assert engine | {"cluster.hc_partition", "cluster.ifca_assign"} <= spans
    sent = sum(outcome.run_result.bytes_up_total for outcome in outcomes.values())
    assert tracer.counters["fedcore.bytes_up"] == sent > 0
