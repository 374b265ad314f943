"""The package namespace and the benchmark's trace targets resolve, and the
1-D modules stay free of the planar ones.

A deleted or renamed function shows up here rather than in the benchmark's
smoke run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import fuzzymetrics

NAMESPACE_MODULES = ["core", "bodies", "metrics", "family", "counterexample", "errors"]
SUBMODULES = [*NAMESPACE_MODULES, "serialize", "cli"]
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def submodule(name):
    return importlib.import_module(f"fuzzymetrics.{name}")


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_exported_name_exists(name):
    module = submodule(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_namespace_is_the_union_of_the_submodules():
    union = [n for name in NAMESPACE_MODULES for n in submodule(name).__all__]
    assert len(set(union)) == len(union)
    assert sorted(fuzzymetrics.__all__) == sorted(["__version__", *union])
    for name in NAMESPACE_MODULES:
        module = submodule(name)
        assert all(getattr(fuzzymetrics, n) is getattr(module, n) for n in module.__all__)


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module_name, path, span, _ in spans.TARGETS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            assert hasattr(owner, part), f"{module_name}.{path} ({span})"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{path}"


def imported_modules(name):
    """The names under the package that ``fuzzymetrics.<name>`` imports from,
    short (``from .bodies import x``, ``from . import bodies`` and the
    absolute forms all give ``bodies``)."""
    tree = ast.parse(Path(submodule(name).__file__).read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["fuzzymetrics" if node.level else None, node.module]))
            paths = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(p.split(".")[1] for p in paths if p.startswith("fuzzymetrics."))
    return found


@pytest.mark.parametrize("name", ["metrics", "family", "counterexample"])
def test_one_dimensional_modules_import_nothing_from_bodies(name):
    assert "bodies" not in imported_modules(name)
