"""Every module's ``__all__`` names what it defines, and it imports nothing it
never uses; no module warns; one module picks the working interval; scipy is
a test dependency; no module names ``numpy.random``; README's layout names
every module."""

import ast
import glob
import importlib
import os
import re
import textwrap

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
def test_working_interval_comes_from_profiles(module):
    # profiles.working_interval picks the Q-positive interval and its float64
    # band; a command that ran q_domain itself would grow a second rule.
    with open(os.path.join(SRC, "soliton_lab", module), encoding="utf-8") as handle:
        assert "q_domain" not in _names(handle.read())


def test_scipy_is_only_a_test_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as handle:
        project = tomllib.load(handle)["project"]
    lists = {"dependencies": project["dependencies"], **project["optional-dependencies"]}
    assert [name for name, specs in lists.items() if any(s.startswith("scipy") for s in specs)] == ["test"]


def _numpy_random_references(source: str) -> list[int]:
    """Lines that import ``numpy.random``, name it (as ``numpy.random`` or
    ``np.random``) or ``default_rng`` in code, or name either in a module-name
    string."""

    def named(node: ast.AST) -> list[str]:
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom) and node.module:
            return [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return [node.value]
        if isinstance(node, ast.Attribute):
            return [f"{node.value.id}.{node.attr}" if isinstance(node.value, ast.Name) else node.attr]
        if isinstance(node, ast.Name):
            return [node.id]
        return []

    def offends(name: str) -> bool:
        return name == "default_rng" or name.endswith(".default_rng") or any(
            name == module or name.startswith(f"{module}.") for module in ("numpy.random", "np.random")
        )

    return sorted({node.lineno for node in ast.walk(ast.parse(source)) if any(map(offends, named(node)))})


def test_numpy_random_guard_sees_imports_strings_and_attributes():
    source = textwrap.dedent(
        """\
        \"\"\"Bit-identical to numpy.random's default_rng, in prose only.\"\"\"
        import numpy.random
        from numpy import random
        from numpy.random import Generator
        from .sampling import default_rng
        rng = np.random.default_rng(7)
        rng = numpy.random.Generator(bits)
        random = importlib.import_module("numpy.random")
        seed = default_rng
        rng = gen.default_rng()
        values = np.random_like = random.random()
        """
    )
    assert _numpy_random_references(source) == [2, 3, 4, 5, 6, 7, 8, 9, 10]


def test_package_never_names_numpy_random():
    # Importing numpy.random loads ten numpy extensions and secrets, hashlib
    # and OpenSSL: about 6 MiB of every sampling command's peak RSS.  The
    # Halton scramble draws from sampling._draws32 instead.
    offenders = {}
    for path in MODULES:
        with open(path, encoding="utf-8") as handle:
            if lines := _numpy_random_references(handle.read()):
                offenders[os.path.basename(path)] = lines
    assert offenders == {}


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
