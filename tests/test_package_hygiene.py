"""Every module's ``__all__`` names what it defines, and it imports nothing it
never uses; no module warns; one module picks the working interval; scipy is
a test dependency; README's layout names every module."""

import ast
import glob
import importlib
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MODULES = sorted(glob.glob(os.path.join(SRC, "soliton_lab", "*.py")))


def _unused_imports(source: str) -> list[str]:
    """Names an import binds that no expression reads and ``__all__`` does not list.

    A line marked ``# noqa: F401`` is a deliberate re-export and is skipped.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            if "# noqa: F401" not in lines[node.lineno - 1]:
                for alias in node.names:
                    bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = {
        elt.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
        for elt in node.value.elts
    }
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read | exported)


def test_unused_import_check_sees_plain_from_and_dotted_imports():
    source = (
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "import numpy as np\n"
        "from .errors import DomainError, ZeroCrossing\n"
        "from .chart import Box  # noqa: F401\n"
        "__all__ = ['np']\n"
        "def f():\n"
        "    raise DomainError(math.pi)\n"
    )
    assert _unused_imports(source) == ["ZeroCrossing (line 4)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_module_imports_only_what_it_uses(path):
    with open(path, encoding="utf-8") as handle:
        assert _unused_imports(handle.read()) == []


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_every_all_entry_exists(path):
    name = os.path.splitext(os.path.basename(path))[0]
    module = importlib.import_module("soliton_lab" if name == "__init__" else f"soliton_lab.{name}")
    assert [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)] == []


def _names(source: str) -> set[str]:
    """Every name, attribute and imported name the source mentions."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", ["cli.py", "completeness.py"])
def test_working_interval_comes_from_skrp(module):
    # skrp.working_interval picks the Q-positive interval and its float64
    # band; a command that ran q_domain itself would grow a second rule.
    with open(os.path.join(SRC, "soliton_lab", module), encoding="utf-8") as handle:
        assert "q_domain" not in _names(handle.read())


def test_scipy_is_only_a_test_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as handle:
        project = tomllib.load(handle)["project"]
    lists = {"dependencies": project["dependencies"], **project["optional-dependencies"]}
    assert [name for name, specs in lists.items() if any(s.startswith("scipy") for s in specs)] == ["test"]


def test_readme_layout_names_every_module():
    # The layout block lists src/soliton_lab/'s modules one per line, each
    # indented two spaces; a module added or deleted must show up there.
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    start = lines.index("src/soliton_lab/") + 1
    block = []
    for line in lines[start:]:
        if not line.startswith(" "):
            break
        block.append(line)
    listed = sorted(m.group(1) for line in block if (m := re.match(r"  (\w+\.py) ", line)))
    modules = sorted(os.path.basename(path) for path in MODULES if not path.endswith("__init__.py"))
    assert listed == modules


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_module_imports_warnings(path):
    # Every numerical routine returns its status to its caller; a warning
    # would print ahead of the exit-3 JSON diagnostic on stderr.
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module}
    assert "warnings" not in imported
