"""``import soliton_lab.cli`` and every ``skrp`` and ``completeness`` run
leave numpy unloaded.

numpy's import is about 60 ms of a cold command, against 3-30 ms of work
for ``skrp`` and ``completeness``, which run on Python floats: the profile
layer (``profiles``), the fiber-norm table and column (``fibernorm``),
QUADPACK's QAG (``quadpack``) and the truncation ladder.  Only the chart
layer (``autodiff``, ``chart``, ``soliton``, ``skrp`` and ``fixtures``)
imports numpy at module level; ``verify`` and ``dualize`` import it when
they run, and so do the functions of ``sampling``, the fiber-norm
inversion, ``quadpack.first_steps`` and the flow cross-check that build
arrays.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap

import pytest

from test_lazy_scipy import SRC, _run_fresh

# Modules the CLI imports before it knows the command, and the fiber-norm
# map skrp imports; none may import numpy when it is imported.
NUMPY_FREE = (
    "__init__.py", "cli.py", "completeness.py", "errors.py", "fibernorm.py", "profiles.py", "quadpack.py",
    "sampling.py",
)


def test_cli_import_and_every_completeness_run_leave_numpy_unloaded(tmp_path):
    inline = tmp_path / "inline.json"
    inline.write_text(json.dumps({"m": 2, "kappa": 4.0, "A": 1.0, "B": -1.0, "I": [0.0, 6.0],
                                  "s": 2, "a": 2.0, "p": 2.0, "phi_sign": 1}))
    named = tmp_path / "named.json"
    named.write_text(json.dumps({"fixture": "koiso-m2-tail"}))
    _run_fresh(
        f"""
        import contextlib, io, sys
        import soliton_lab.cli as cli
        from soliton_lab import profiles

        assert "numpy" not in sys.modules, "loaded by import"
        runs = [["--fixture", name] for name in (*profiles._SYNTHETIC_Q, *profiles._SKRP)]
        runs += [["--config", {str(inline)!r}], ["--config", {str(named)!r}]]
        for k, argv in enumerate(runs):
            out = {str(tmp_path)!r} + f"/{{k}}.json"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["completeness", *argv, "--out", out])
            assert code == cli.EXIT_PASS, (argv, code)
            assert "numpy" not in sys.modules, f"loaded by completeness {{argv}}"
        """
    )


def test_every_skrp_run_leaves_numpy_unloaded(tmp_path):
    inline = tmp_path / "inline.json"
    inline.write_text(json.dumps({"m": 2, "kappa": 4.0, "A": -1.0, "B": 1.0, "I": [0.0, "inf"],
                                  "s": 2, "a": 2.0, "p": 2.0, "phi_sign": 1}))
    named = tmp_path / "named.json"
    named.write_text(json.dumps({"fixture": "koiso-m2-capped"}))
    _run_fresh(
        f"""
        import contextlib, io, sys
        import soliton_lab.cli as cli
        from soliton_lab import profiles

        # Each profile's float-Q kernel, built and run on a float and an int,
        # here at m = 171 and 10^5 as well.
        wide = [profiles.SkrpParams(m=m, A=1.0, B=-0.5, I=(0.0, float("inf"))) for m in (171, 100_000)]
        for params in (*profiles._SKRP.values(), *wide):
            for f in (params.c + 2.5, int(params.c) + 3):
                assert isinstance(params.q(f), float)
        assert "numpy" not in sys.modules, "loaded by the float-Q kernel"
        runs = [["--fixture", name] for name in profiles._SKRP]
        runs += [["--config", {str(inline)!r}], ["--config", {str(named)!r}]]
        for k, argv in enumerate(runs):
            out = {str(tmp_path)!r} + f"/{{k}}.json"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["skrp", *argv, "--out", out])
            assert code == cli.EXIT_PASS, (argv, code)
            assert "numpy" not in sys.modules, f"loaded by skrp {{argv}}"
        """
    )


def test_skrp_report_and_ell_column_do_not_depend_on_numpy_dispatch(tmp_path):
    # The ell column moved in its last bits when numpy's SIMD dispatch was
    # capped below AVX2 while its table and column ran through numpy.
    outputs = []
    for k, extra in enumerate(({}, {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"})):
        env = {key: v for key, v in os.environ.items() if not key.startswith(("PYTHON", "NPY_", "SOLITON_LAB"))}
        env.update(PYTHONPATH=SRC, **extra)
        out = tmp_path / f"{k}.json"
        done = subprocess.run(
            [sys.executable, "-m", "soliton_lab.cli", "skrp", "--fixture", "koiso-m2-compact", "--out", str(out)],
            env=env, capture_output=True, timeout=120, check=False,
        )
        assert done.returncode == 0, done.stderr
        outputs.append((out.read_bytes(), (tmp_path / f"{k}.json.profile.csv").read_bytes()))
    assert outputs[0] == outputs[1]


def _module_level_numpy_imports(source: str) -> list[int]:
    """Lines of the numpy import statements that run when ``source`` is
    imported: not in a function body, which runs when called, nor under
    ``if TYPE_CHECKING:``, which never runs."""
    found = []
    pending = list(ast.parse(source).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            pending.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            names = []
        if any(name == "numpy" or name.startswith("numpy.") for name in names):
            found.append(node.lineno)
        pending.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_numpy_import_guard_sees_nested_module_level_statements():
    source = textwrap.dedent(
        """\
        import math
        import numpy as np
        from typing import TYPE_CHECKING
        if TYPE_CHECKING:
            import numpy
        else:
            from numpy import linalg
        try:
            import os, numpy.linalg as la
        except ImportError:
            pass
        class Holder:
            from numpy import ndarray
        def later():
            import numpy as np
        from .skrp import np
        """
    )
    assert _module_level_numpy_imports(source) == [2, 7, 9, 13]


@pytest.mark.parametrize("module", NUMPY_FREE)
def test_modules_the_cli_loads_have_no_module_level_numpy_import(module):
    with open(os.path.join(SRC, "soliton_lab", module), encoding="utf-8") as handle:
        assert _module_level_numpy_imports(handle.read()) == []
