"""Every name a package module imports is used in that module, and every
name the traced benchmark wraps exists.

Deletions tend to leave dead imports behind. An import kept on purpose
(for instance a name that perfbench/tracer.py wraps as a module attribute)
carries ``# noqa: F401`` on its line.
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


def test_tracer_patches_apply_and_restore():
    # perfbench/tracer.py wraps package names by attribute; a refactor that
    # drops one fails here rather than only in the slow benchmark smoke test.
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
