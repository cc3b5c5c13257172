"""Command-line front end.

    soliton-lab verify|dualize [--fixture NAME | --config FILE] [--samples N]
                [--tol-residual X] [--format json|csv|text] [--out PATH]
    soliton-lab skrp [--fixture NAME | --config FILE] [--samples N]
                [--format json|csv|text] [--out PATH]
    soliton-lab completeness [--fixture NAME | --config FILE]
                [--format json|csv|text] [--out PATH]

Reports are deterministic given the same configuration: sampling uses a
fixed seed (override with the SOLITON_LAB_SEED environment variable), the
seed is echoed into the report, and the JSON form contains no volatile
fields, so identical configs produce byte-identical JSON output.  Wall-clock
timings are shown in the text format only.

Exit codes: 0 all checks passed (or inconclusive), 1 a check failed,
2 usage error / unknown fixture, 3 numerical failure.

``verify`` and ``dualize`` import the chart layer (and numpy) when they run;
``skrp``, ``completeness`` and the module import itself never load numpy.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import TYPE_CHECKING

from . import __version__, profiles
from . import completeness as comp
from .errors import SOLITON_RESIDUAL_TOL, DomainError, SolitonLabError, UnknownFixture
from .sampling import resolve_seed, sample_box

if TYPE_CHECKING:
    from .soliton import SolitonPair

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

INVOLUTION_TOL = 1e-12
COEFF_AGREE_TOL = 1e-9
COEFF_EXTRACT_TOL = 1e-8
PROFILE_ODE_TOL = 1e-10
PROFILE_INTEGRATE_TOL = 1e-6
PROFILE_COEFF_CONSTANCY_TOL = 1e-8
ALPHA_FIT_TOL = 1e-5
DEFAULT_SAMPLES = 200


@dataclass(frozen=True)
class RunConfig:
    command: str
    fixture: str | None = None
    params: profiles.SkrpParams | None = None
    samples: int = DEFAULT_SAMPLES
    tol_residual: float = SOLITON_RESIDUAL_TOL
    fmt: str = "json"
    out: str | None = None
    seed: int = 0

    def __post_init__(self):
        if self.samples < 10:
            raise ValueError("sample count must be at least 10")
        if not (math.isfinite(self.tol_residual) and self.tol_residual > 0):
            raise ValueError("tolerances must be positive and finite")

    def echo(self) -> dict:
        cfg: dict = {"command": self.command, "format": self.fmt}
        cfg.update((name, getattr(self, name)) for name in COMMANDS[self.command][2])
        if self.fixture:
            cfg["fixture"] = self.fixture
        if self.params is not None:
            cfg["params"] = {**asdict(self.params), "I": [_json_float(v) for v in self.params.I]}
        return cfg


def _json_float(x: float):
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


@dataclass
class CheckRecord:
    name: str
    status: str  # pass | fail | inconclusive
    measured: float | str | None = None
    tolerance: float | None = None

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "measured": _json_float(self.measured) if isinstance(self.measured, float) else self.measured,
            "tolerance": self.tolerance,
        }


@dataclass
class Report:
    """Checks of one command, plus the side tables (file suffix -> header and
    rows) written next to the report when it goes to a file."""

    config: RunConfig
    checks: list[CheckRecord] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    tables: dict[str, tuple[tuple[str, ...], list[tuple]]] = field(default_factory=dict)

    def add(self, name: str, status: str, measured=None, tolerance=None) -> None:
        self.checks.append(CheckRecord(name, status, measured, tolerance))

    def add_bound(self, name: str, measured: float, tolerance: float) -> None:
        self.add(name, "pass" if measured < tolerance else "fail", measured, tolerance)

    @property
    def status(self) -> str:
        statuses = {c.status for c in self.checks}
        if "fail" in statuses:
            return "fail"
        if "inconclusive" in statuses:
            return "inconclusive"
        return "pass"

    def as_dict(self) -> dict:
        return {
            "artifact": {"name": "soliton-lab", "version": __version__},
            "command": self.config.command,
            "config": self.config.echo(),
            "seed": self.config.seed,
            "checks": [c.as_dict() for c in self.checks],
            "status": self.status,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"soliton-lab {__version__} :: {self.config.command} (seed {self.config.seed})"]
        for c in self.checks:
            meas = _fmt_value(c.measured)
            tol = "" if c.tolerance is None else f"  (tol {c.tolerance:g})"
            lines.append(f"  [{c.status.upper():12s}] {c.name}: {meas}{tol}")
        lines.append(f"status: {self.status}")
        if self.timings:
            lines.append("timings:")
            for k, v in self.timings.items():
                lines.append(f"  {k}: {v:.3f} s")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        rows = [
            (c.name, c.status, _fmt_value(c.measured), "" if c.tolerance is None else f"{c.tolerance:.17g}")
            for c in self.checks
        ]
        return _table_csv(("name", "status", "measured", "tolerance"), rows)

    def render(self) -> str:
        if self.config.fmt == "json":
            return self.to_json()
        if self.config.fmt == "csv":
            return self.to_csv()
        return self.to_text()


def _fmt_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _write_atomic(path: str, content: str) -> None:
    # Mode 0o666 less the umask, as open() gives; mkstemp's 0o600 would survive the rename.
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".soliton-lab-{os.urandom(6).hex()}")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(report: Report) -> None:
    content = report.render()
    if report.config.out:
        _write_atomic(report.config.out, content)
        for suffix, (header, rows) in report.tables.items():
            _write_atomic(report.config.out + suffix, _table_csv(header, rows))
    else:
        sys.stdout.write(content)


def _table_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
    return buf.getvalue()


# -- commands ------------------------------------------------------------------------


def _load_pair(config: RunConfig) -> SolitonPair:
    from . import fixtures

    if not config.fixture:
        raise UnknownFixture("verify/dualize need --fixture (or a config with a fixture name)")
    return fixtures.soliton_fixture(config.fixture)


def cmd_verify(config: RunConfig) -> Report:
    from . import soliton as sol

    report = Report(config)
    t0 = time.perf_counter()
    pair = _load_pair(config)
    points = sample_box(pair.metric.domain, config.samples, seed=config.seed)
    residuals = sol.residual_report(pair, points)
    report.timings["residual-report"] = time.perf_counter() - t0

    report.add_bound("almost-soliton-residual", residuals.max_residual, config.tol_residual)
    report.add("coefficient-variation", "pass", residuals.coefficient_variation)
    cls = sol.classify_report(residuals, tol_residual=config.tol_residual)
    report.add("classification", "pass" if cls is not sol.SolitonClass.NONE else "fail", cls.value)

    # Where ric + hess f = c g holds, fitting ric + alpha hess f = c g pins
    # alpha = 1 unless hess f is a multiple of g; then alpha is free, not checked.
    if cls is not sol.SolitonClass.NONE and sol.alpha_identifiable(residuals.first_geometry):
        fit = sol.ricci_hessian_fit(pair, points[0], residuals.first_geometry)
        status = "pass" if abs(fit.alpha - 1.0) < ALPHA_FIT_TOL else "fail"
        report.add("ricci-hessian-alpha", status, fit.alpha, ALPHA_FIT_TOL)
    return report


def cmd_dualize(config: RunConfig) -> Report:
    import numpy as np

    from . import chart as ct
    from . import soliton as sol

    report = Report(config)
    t0 = time.perf_counter()
    pair = _load_pair(config)
    dual = sol.dualize(pair)
    points = sample_box(pair.metric.domain, config.samples, seed=config.seed)
    dual_residuals = sol.residual_report(dual, points)
    report.timings["dual-residuals"] = time.perf_counter() - t0

    report.add_bound("dual-residual", dual_residuals.max_residual, config.tol_residual)
    report.add("dual-coefficient-variation", "pass", dual_residuals.coefficient_variation)

    t0 = time.perf_counter()
    double = sol.dualize(dual)
    # The first 25 points, in order: one source geometry each serves the
    # involution and both coefficient formulas; the dual coefficient
    # extracted there is already in the residual report.  The source's and
    # the double dual's jets are each evaluated once for all 25.
    spots = points[:25]
    involution = agree = extract = 0.0
    doubled = ct.point_jets(double.metric, spots, double.f)
    for k, (geo, (p, (g2_jet, f2_jet))) in enumerate(zip(pair.geometries(spots), doubled)):
        g2 = double.metric.matrix(p, g2_jet)
        f2 = double.f.evaluate(p, f2_jet)[0]
        scale = np.max(np.abs(geo.G)) + 1.0
        involution = max(involution, float(np.max(np.abs(g2 - geo.G))) / scale, abs(f2 - geo.f))
        direct = sol.dual_coefficient(pair, p, "direct", tol_residual=config.tol_residual, geometry=geo)
        closed = sol.dual_coefficient(pair, p, "closed", tol_residual=config.tol_residual, geometry=geo)
        scale = 1.0 + abs(direct)
        agree = max(agree, abs(direct - closed) / scale)
        extract = max(extract, abs(dual_residuals.coefficients[k] - direct) / scale)
    report.add_bound("involution-roundtrip", involution, INVOLUTION_TOL)
    report.add_bound("dual-coefficient-agreement", agree, COEFF_AGREE_TOL)
    report.add_bound("dual-coefficient-vs-extracted", extract, COEFF_EXTRACT_TOL)
    report.timings["duality-checks"] = time.perf_counter() - t0
    return report


def _resolve_params(config: RunConfig, lookup):
    """The config's inline parameters, else what ``lookup`` gives for its fixture."""
    if config.params is not None:
        return config.params
    if config.fixture:
        return lookup(config.fixture)
    raise UnknownFixture(f"{config.command} needs --fixture or an inline parameter config")


PROFILE_HEADER = ("f", "phi", "dphi", "Q", "ell", "integrand")


def cmd_skrp(config: RunConfig) -> Report:
    from . import fibernorm

    report = Report(config)
    params = _resolve_params(config, profiles.skrp_fixture)
    t0 = time.perf_counter()
    working = profiles.working_interval(params)
    if working is None:
        lo, hi = profiles.bounded_interval(params.I, params.c, 10.0)
        probe = profiles.linspace(lo + 1e-6 * (hi - lo), hi - 1e-6 * (hi - lo), 32)
        phis = [profiles.phi_closed(params, f)[0] for f in probe if abs(f - params.c) > params.pole_margin]
        if not phis:
            raise DomainError(f"every probe of ({lo}, {hi}) lies within the pole margin of c = {params.c}")
        if max(phis) <= 0:
            report.add("phi-positivity", "fail", max(phis))
        else:
            report.add("q-domain", "inconclusive", "empty")
        report.tables[".profile.csv"] = (PROFILE_HEADER, [])
        return report

    positive, band = working
    lo, hi = profiles.bounded_interval(positive, params.c, 40.0)
    width = hi - lo
    window = (lo + 0.02 * width, hi - 0.02 * width)
    anchor = 0.5 * (window[0] + window[1])
    ell = fibernorm.EllMap(params, anchor, window)

    grid = profiles.linspace(window[0], window[1], config.samples)
    # Identity checks run on the window's part of profiles.working_interval's band.
    band = (max(window[0], band[0]), min(window[1], band[1]))
    if not band[0] < band[1]:
        raise DomainError(
            f"profile window ({window[0]}, {window[1]}) has no point where float64 resolves "
            f"the profile identities (|f - c| > {profiles.BAND_POLE_GAP:g}, and f - c < {profiles.BAND_TAIL_REACH:g} "
            f"above the pole c = {params.c})"
        )
    check_grid = profiles.linspace(band[0], band[1], config.samples)
    ode_res = max(abs(profiles.phi_ode_residual(params, 1.0, f)) for f in check_grid)
    report.add_bound("profile-ode-residual", ode_res, PROFILE_ODE_TOL)

    # Each segment between 9 check points is integrated from the closed form
    # at its left end: one run from the band's midpoint would let the ODE's
    # e^f mode grow the integrator's error by up to e^(band width / 2).
    nodes = profiles.linspace(check_grid[0], check_grid[-1], 9)
    closed = [profiles.phi_closed(params, f) for f in nodes]
    integrate_err = 0.0
    for k in range(len(nodes) - 1):
        phi0, dphi0, _ = closed[k]
        phi_num, _ = profiles.phi_ode_integrate(params, 1.0, nodes[k], phi0, dphi0, nodes[k + 1])
        phi_ref = closed[k + 1][0]
        integrate_err = max(integrate_err, abs(phi_num - phi_ref) / (1.0 + abs(phi_ref)))
    report.add_bound("closed-vs-integrated", integrate_err, PROFILE_INTEGRATE_TOL)

    coeffs = [profiles.soliton_coeff_profile(params, 1.0, f) for f in check_grid]
    variation = (max(coeffs) - min(coeffs)) / (1.0 + max(abs(c) for c in coeffs))
    report.add_bound("coefficient-constancy", variation, PROFILE_COEFF_CONSTANCY_TOL)
    report.timings["profile-checks"] = time.perf_counter() - t0

    rows = []
    for f, ell_f in zip(grid, [ell.ell(f) for f in grid]):
        phi, dphi, _ = profiles.phi_closed(params, f)
        q = 2.0 * (f - params.c) * phi  # params.q(f), bit for bit
        rows.append((f, phi, dphi, q, ell_f, comp.arc_density(params.m, f, q)))
    report.tables[".profile.csv"] = (PROFILE_HEADER, rows)
    return report


def cmd_completeness(config: RunConfig) -> Report:
    report = Report(config)
    t0 = time.perf_counter()
    profile = _resolve_params(config, profiles.q_profile_fixture)

    verdict = comp.completeness_verdict(profile)
    report.timings["verdict"] = time.perf_counter() - t0
    for side, analysis in (("inf", verdict.lower), ("sup", verdict.upper)):
        report.add(f"endpoint-{side}-class", "pass", analysis.cls.value)
        if analysis.exponent is not None:
            report.add(f"endpoint-{side}-exponent", "pass", analysis.exponent.exponent)
    status = "inconclusive" if verdict.overall is comp.OverallVerdict.INCONCLUSIVE_AT_END else "pass"
    report.add("verdict", status, verdict.overall.value)

    rows = []
    for side, analysis in (("inf", verdict.lower), ("sup", verdict.upper)):
        if not math.isfinite(analysis.endpoint):
            continue
        a = analysis.endpoint
        direction = 1.0 if side == "inf" else -1.0
        for off in comp.geomspace(1e-6, 1e-1, 25):
            f = a + direction * off
            try:
                rows.append((side, float(f), comp.arc_integrand(profile, f)))
            except SolitonLabError:
                continue
    report.tables[".plotdata.csv"] = (("endpoint", "f", "integrand"), rows)
    return report


# -- entry point ----------------------------------------------------------------------


def _number(value, name: str) -> float:
    """A JSON number as a float; a boolean or a string is a ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, not {value!r}")
    return float(value)


def _integral(value, name: str) -> int:
    """``value`` as an int; integral floats such as 2.0 pass, 2.9 is a ValueError."""
    number = _number(value, name)
    if not number.is_integer():
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return int(number)


def _interval(value, name: str) -> tuple[float, float]:
    """Two numbers; an end may also be "inf" or "-inf", as the report echoes it."""
    lo, hi = (float(v) if v in ("inf", "-inf") else _number(v, name) for v in value)
    return lo, hi


# Converters of config values, by SkrpParams field type.
_CONVERT = {"int": _integral, "float": _number, "tuple[float, float]": _interval}


def _parse_config_file(path: str) -> tuple[str | None, profiles.SkrpParams | None]:
    """Fixture name or inline profile parameters from a JSON config.

    A config is either ``{"fixture": NAME}`` alone or a set of
    :class:`~soliton_lab.profiles.SkrpParams` fields.  Raises ValueError with a
    one-line message for a config that cannot be read, is not JSON, or does
    not describe a valid parameter set.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read config {path!r}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise ValueError(f"config {path!r} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"config {path!r} must hold a JSON object")
    if "fixture" in doc:
        extra = [key for key in doc if key != "fixture"]
        if extra:
            raise ValueError(f"config {path!r} names a fixture, so it cannot also set {extra}")
        return str(doc["fixture"]), None
    known = [param.name for param in fields(profiles.SkrpParams)]
    unknown = [key for key in doc if key not in known]
    if unknown:
        raise ValueError(f"config {path!r} has unknown keys {unknown}; known: {known}")
    try:
        kwargs = {}
        for param in fields(profiles.SkrpParams):
            if param.name in doc:
                kwargs[param.name] = _CONVERT[param.type](doc[param.name], param.name)
            elif param.default is MISSING:
                raise KeyError(param.name)
        params = profiles.SkrpParams(**kwargs)
    except KeyError as exc:
        raise ValueError(f"config {path!r} lacks the parameter {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"config {path!r} has invalid parameters: {exc}") from None
    return None, params


# Options a command may take beside --fixture, --config, --format and --out:
# RunConfig field -> (flag, type).  The default is the field's.
OPTIONS = {"samples": ("--samples", int), "tol_residual": ("--tol-residual", float)}

# name -> (handler, help, the OPTIONS the handler reads)
COMMANDS = {
    "verify": (cmd_verify, "almost-soliton residual report for a fixture pair", ("samples", "tol_residual")),
    "dualize": (cmd_dualize, "conformal duality checks: residuals, coefficients, involution", ("samples", "tol_residual")),
    "skrp": (cmd_skrp, "closed-form profile checks and profile table", ("samples",)),
    "completeness": (cmd_completeness, "endpoint classification and completeness verdict", ()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="soliton-lab", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext, options) in COMMANDS.items():
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--fixture", help="named fixture (see README for the list)")
        cmd.add_argument("--config", help="JSON config: {'fixture': ...} or inline profile parameters")
        for option in options:
            flag, kind = OPTIONS[option]
            cmd.add_argument(flag, type=kind, default=argparse.SUPPRESS)
        cmd.add_argument("--format", choices=("json", "csv", "text"), default="json")
        cmd.add_argument("--out", help="write the report here (atomically); default stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    fixture, params = args.fixture, None
    try:
        if args.config and args.fixture:
            raise ValueError("give --fixture or --config, not both")
        if args.config:
            fixture, params = _parse_config_file(args.config)
        config = RunConfig(
            command=args.command,
            fixture=fixture,
            params=params,
            fmt=args.format,
            out=args.out,
            seed=resolve_seed(),
            **{option: value for option, value in vars(args).items() if option in OPTIONS},
        )
    except ValueError as exc:
        print(f"soliton-lab: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        # Through the module binding, which a caller may wrap; COMMANDS holds the originals.
        report = globals()[f"cmd_{config.command}"](config)
        _emit(report)
    except OSError as exc:
        target = repr(config.out) if config.out else "standard output"
        print(f"soliton-lab: cannot write the report to {target}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnknownFixture as exc:
        print(f"soliton-lab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolitonLabError as exc:
        diagnostic = {
            "artifact": {"name": "soliton-lab", "version": __version__},
            "command": config.command,
            "error": {"type": type(exc).__name__, "message": str(exc)},
            "status": "error",
        }
        print(json.dumps(diagnostic, sort_keys=True, indent=2), file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_FAIL if report.status == "fail" else EXIT_PASS


if __name__ == "__main__":
    sys.exit(main())
