"""No command loads scipy or ``numpy.random``; the package only registers a
lazy ``scipy.integrate``.

Quadrature is the package's own QUADPACK port, root finding a bisection in
``profiles.q_domain``, the profile-ODE oracle a Taylor series and the flow
cross-check classical Runge-Kutta, so no command's cold start-up pays for
scipy.  ``skrp`` still registers ``scipy.integrate``
lazily in ``sys.modules`` when the chart layer loads (``soliton_lab.fixtures``
imports it, as perfbench's tracer does), because the tracer looks it up there
to wrap ``quad`` and ``solve_ivp``; nothing in the package reads from it, and
where scipy cannot be imported nothing is registered.  The Halton scramble
draws from the package's own copy of numpy's ``default_rng`` stream, so no
command loads ``numpy.random`` either.
"""

import ast
import glob
import json
import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PERFBENCH = os.path.join(ROOT, "perfbench")


def _run_fresh(script: str, *path: str) -> str:
    """Run ``script`` in a fresh interpreter; return its stdout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = os.pathsep.join((SRC, *path))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_analytic_commands_do_not_run_scipy_numerics():
    _run_fresh(
        """
        import contextlib, io, sys
        import soliton_lab.cli as cli
        from soliton_lab import fixtures

        HEAVY = ("scipy.special", "scipy.integrate._quadpack_py", "scipy.optimize._zeros_py")

        def loaded():
            return [name for name in HEAVY if name in sys.modules]

        assert "scipy.integrate" in sys.modules
        assert loaded() == [], f"loaded by import: {loaded()}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["verify", "--fixture", "gaussian-soliton", "--samples", "10"])
            assert code == cli.EXIT_PASS, code
            assert loaded() == [], f"loaded by verify: {loaded()}"
            code = cli.main(["dualize", "--fixture", "gaussian-soliton", "--samples", "10"])
            assert code == cli.EXIT_PASS, code
            assert loaded() == [], f"loaded by dualize: {loaded()}"
            code = cli.main(["skrp", "--fixture", "koiso-m2-A1B0", "--samples", "20"])
        assert code == cli.EXIT_PASS, code
        assert loaded() == [], f"loaded by skrp: {loaded()}"
        """
    )


def test_quadrature_commands_do_not_load_scipy(tmp_path):
    # The lazy registration must not import the scipy package either.
    # koiso-m2-tail's Q has no zero to bracket; koiso-m2-compact's and
    # koiso-m2-capped's have one, which q_domain bisects to adjacent
    # floats; skrp integrates the profile ODE by Taylor series.
    _run_fresh(
        f"""
        import contextlib, io, sys
        import soliton_lab.cli as cli

        HEAVY = ("scipy.special", "scipy.integrate._quadpack_py", "scipy.optimize._zeros_py")

        def loaded():
            return [name for name in ("scipy",) + HEAVY if name in sys.modules]

        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["verify", "--fixture", "koiso-m2-A1B0", "--samples", "10"])
            assert code == cli.EXIT_PASS, code
            assert loaded() == [], f"loaded by verify: {{loaded()}}"
            for fixture in ("koiso-m2-tail", "koiso-m2-compact", "koiso-m2-capped"):
                out = {str(tmp_path)!r} + f"/{{fixture}}.json"
                code = cli.main(["completeness", "--fixture", fixture, "--out", out])
                assert code == cli.EXIT_PASS, (fixture, code)
                assert loaded() == [], f"loaded by completeness {{fixture}}: {{loaded()}}"
            code = cli.main(["skrp", "--fixture", "koiso-m2-A1B0", "--samples", "20"])
        assert code == cli.EXIT_PASS, code
        assert loaded() == [], f"loaded by skrp: {{loaded()}}"
        """
    )


def _run_every_command(tmp_path, modules: tuple[str, ...]) -> None:
    """Run every fixture of every command in one interpreter, asserting that
    none of ``modules`` is loaded after the import or after any command:
    verify and dualize on each pair, skrp on each profile, completeness on
    each Q profile."""
    _run_fresh(
        f"""
        import contextlib, io, sys
        import soliton_lab.cli as cli
        from soliton_lab import fixtures

        def loaded():
            return [name for name in {modules!r} if name in sys.modules]

        runs = [[cmd, "--fixture", name, "--samples", "10"] for name in fixtures._PAIRS for cmd in ("verify", "dualize")]
        runs += [["skrp", "--fixture", name] for name in fixtures._SKRP]
        runs += [["completeness", "--fixture", name] for name in (*fixtures._SYNTHETIC_Q, *fixtures._SKRP)]
        assert loaded() == [], f"loaded by import: {{loaded()}}"
        for argv in runs:
            out = {str(tmp_path)!r} + "/" + "-".join(argv[:3]) + ".json"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*argv, "--out", out])
            assert code != cli.EXIT_USAGE, argv
            assert loaded() == [], f"loaded by {{argv}}: {{loaded()}}"
        """
    )


def test_no_command_imports_scipy(tmp_path):
    _run_every_command(tmp_path, ("scipy",))


def test_no_command_imports_numpy_random(tmp_path):
    # The Halton scramble draws from sampling._draws32, not numpy.random, whose
    # import also loads secrets, hashlib and OpenSSL: about 6 MiB of peak RSS.
    _run_every_command(tmp_path, ("numpy.random", "secrets", "hashlib"))


# Prints whether the import registered scipy.integrate, then the exit code and
# stdout of three commands, one per scipy-free path: jets and curvature, the
# profile ODE oracle, and quadrature with root finding.
_THREE_COMMANDS = """
    import contextlib, io, json, sys
    {block}
    import soliton_lab.cli as cli
    from soliton_lab import fixtures

    runs = ["scipy.integrate" in sys.modules]
    for argv in (
        ["verify", "--fixture", "gaussian-soliton"],
        ["skrp", "--fixture", "koiso-m2-A1B0"],
        ["completeness", "--fixture", "koiso-m2-compact"],
    ):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        runs.append((argv, code, out.getvalue()))
    print(json.dumps(runs))
"""


def test_commands_run_where_scipy_cannot_be_imported():
    # sys.modules["scipy"] = None makes every scipy import fail, as on an
    # interpreter without scipy; the lazy registration must then register
    # nothing instead of crashing the package import.
    registered, *blocked = json.loads(_run_fresh(_THREE_COMMANDS.format(block='sys.modules["scipy"] = None')))
    assert not registered
    registered, *normal = json.loads(_run_fresh(_THREE_COMMANDS.format(block="")))
    assert registered
    assert [code for _, code, _ in blocked] == [0, 0, 0], blocked
    assert blocked == normal


def test_perfbench_tracer_wraps_lazy_scipy():
    # The tracer looks scipy.integrate and scipy.optimize up in sys.modules
    # right after it imports the CLI and the fixtures, as trace_worker.py
    # does; the workload without quad must not need the test (or the tracer)
    # to import scipy first.
    _run_fresh(
        """
        import contextlib, io, sys
        import soliton_lab.cli as cli
        from soliton_lab import fixtures
        import layers
        from spans import Recorder

        assert "scipy.special" not in sys.modules
        rec = Recorder()
        patch = layers.install(rec)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["skrp", "--fixture", "koiso-m2-A1B0", "--samples", "20"])
        finally:
            patch.undo()
        assert code == cli.EXIT_PASS, code
        metrics = layers.layer_metrics(rec, 0)
        assert metrics["skrp.ell_build.calls"] > 0, metrics["skrp.ell_build.calls"]
        assert metrics["skrp.phi_ode_integrate.calls"] > 0, metrics["skrp.phi_ode_integrate.calls"]
        """,
        PERFBENCH,
    )


def _module_level_scipy_imports(source: str) -> list[int]:
    """Lines of the scipy import statements that run when ``source`` is imported."""
    found = []
    pending = list(ast.parse(source).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # bodies run when called, not at import
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            names = []
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            found.append(node.lineno)
        pending.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_scipy_import_guard_sees_nested_module_level_statements():
    source = textwrap.dedent(
        """\
        import numpy
        from scipy import integrate
        try:
            import os, scipy.optimize as opt
        except ImportError:
            pass
        class Holder:
            from scipy.special import gamma
        def later():
            from scipy import stats
        from .skrp import integrate
        """
    )
    assert _module_level_scipy_imports(source) == [2, 4, 8]


def _package_offenders(find) -> dict[str, list[int]]:
    """The package's modules in which ``find`` reports lines, with those lines."""
    paths = sorted(glob.glob(os.path.join(SRC, "soliton_lab", "*.py")))
    assert paths
    offenders = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            lines = find(handle.read())
        if lines:
            offenders[os.path.basename(path)] = lines
    return offenders


def test_package_has_no_module_level_scipy_imports():
    # A module-level scipy import runs it eagerly and costs every command
    # 0.4-0.7 s of start-up; bind scipy through skrp._lazy_module instead.
    assert _package_offenders(_module_level_scipy_imports) == {}


def _named_modules(node: ast.AST) -> list[str]:
    """The dotted names an import, a string constant or a ``name.attr`` node names."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return [f"{node.value.id}.{node.attr}"]
    return []


def _names(node: ast.AST, module: str) -> bool:
    return any(name == module or name.startswith(f"{module}.") for name in _named_modules(node))


def _scipy_optimize_references(source: str) -> list[int]:
    """Lines that import ``scipy.optimize`` or name it in code or a module-name string."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if _names(node, "scipy.optimize"))


def test_scipy_optimize_guard_sees_imports_strings_and_attributes():
    source = textwrap.dedent(
        """\
        \"\"\"Mentions scipy.optimize.brentq in prose only.\"\"\"
        import scipy.optimize
        from scipy import optimize
        optimize = _lazy_module("scipy.optimize")
        root = scipy.optimize.brentq(f, 0, 1)
        from scipy.integrate import quad
        """
    )
    assert _scipy_optimize_references(source) == [2, 3, 4, 5]


def test_package_never_names_scipy_optimize():
    # Roots of Q are bisected in skrp.q_domain; scipy.optimize is a test oracle only.
    assert _package_offenders(_scipy_optimize_references) == {}


def _lazy_integrate_uses(source: str) -> list[int]:
    """Lines that use the lazy ``integrate`` binding or name ``scipy.integrate``.

    A use is an attribute read off ``integrate`` (or of ``integrate`` off a
    module) or an import of the name ``integrate``.  The one line that may
    name ``scipy.integrate`` is its registration,
    ``integrate = _lazy_module("scipy.integrate")``.
    """
    tree = ast.parse(source)
    registration = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and [getattr(target, "id", None) for target in node.targets] == ["integrate"]
            and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "id", None) == "_lazy_module"
        ):
            registration.update(id(arg) for arg in node.value.args)
    found = set()
    for node in ast.walk(tree):
        if id(node) in registration:
            continue
        reads = isinstance(node, ast.Attribute) and (
            node.attr == "integrate" or getattr(node.value, "id", None) == "integrate"
        )
        imports = isinstance(node, ast.ImportFrom) and any(alias.name == "integrate" for alias in node.names)
        if reads or imports or _names(node, "scipy.integrate"):
            found.add(node.lineno)
    return sorted(found)


def test_lazy_integrate_guard_sees_reads_imports_and_names():
    source = textwrap.dedent(
        """\
        \"\"\"Mentions scipy.integrate.solve_ivp in prose only.\"\"\"
        integrate = _lazy_module("scipy.integrate")
        optimize = _lazy_module("scipy.integrate")
        sol = integrate.solve_ivp(f, (0, 1), y0)
        from .skrp import CalabiChart, integrate
        value = skrp.integrate.quad(f, 0, 1)
        import scipy.integrate
        from scipy import integrate
        integrate_err = integrate_steps = 0.0
        def later():
            from scipy.integrate import solve_ivp
        """
    )
    assert _lazy_integrate_uses(source) == [3, 4, 5, 6, 7, 8, 11]


def test_package_never_uses_lazy_integrate():
    # The package solves its ODEs itself (skrp.phi_ode_integrate and
    # completeness.gradient_flow_length_crosscheck); one read of the lazy
    # module would bring scipy.integrate's ~0.85 s import back into a command.
    assert _package_offenders(_lazy_integrate_uses) == {}
