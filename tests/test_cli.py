"""Command-line contract: exit codes, formats, determinism, file outputs."""

import ast
import inspect
import json
import math
import os
import stat
import subprocess
import sys
import textwrap
import time

import pytest

from soliton_lab import cli, fixtures, profiles, skrp


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_gaussian_passes(capsys):
    code, out, _ = run(["verify", "--fixture", "gaussian-soliton", "--samples", "40"], capsys)
    assert code == cli.EXIT_PASS
    doc = json.loads(out)
    assert doc["status"] == "pass"
    names = {c["name"]: c for c in doc["checks"]}
    assert names["classification"]["measured"] == "gradient-Ricci-soliton"
    assert names["almost-soliton-residual"]["measured"] < 1e-6


def test_verify_non_soliton_fails_with_residual(capsys):
    code, out, _ = run(["verify", "--fixture", "non-soliton-cubic", "--samples", "30"], capsys)
    assert code == cli.EXIT_FAIL
    doc = json.loads(out)
    assert doc["status"] == "fail"
    residual = next(c for c in doc["checks"] if c["name"] == "almost-soliton-residual")
    assert residual["status"] == "fail"
    assert residual["measured"] > 0.01


def test_verify_unknown_fixture_usage_error(capsys):
    code, _, err = run(["verify", "--fixture", "does-not-exist"], capsys)
    assert code == cli.EXIT_USAGE
    assert "unknown" in err


def test_dualize_gaussian(capsys):
    code, out, _ = run(["dualize", "--fixture", "gaussian-soliton", "--samples", "30"], capsys)
    assert code == cli.EXIT_PASS
    doc = json.loads(out)
    names = {c["name"]: c for c in doc["checks"]}
    assert names["dual-residual"]["status"] == "pass"
    assert names["involution-roundtrip"]["measured"] < 1e-12
    assert names["dual-coefficient-variation"]["measured"] > 0.1


def test_dualize_trivial_sphere_keeps_metric(capsys):
    code, out, _ = run(["dualize", "--fixture", "sphere-trivial", "--samples", "30"], capsys)
    assert code == cli.EXIT_PASS
    doc = json.loads(out)
    names = {c["name"]: c for c in doc["checks"]}
    # constant potential: the dual coefficient field matches the source constant
    assert names["dual-coefficient-variation"]["measured"] < 1e-9


def test_skrp_report_and_profile_csv(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run(
        [
            "skrp",
            "--fixture",
            "koiso-m2-A1B0-flatbase",
            "--samples",
            "50",
            "--out",
            str(out_path),
        ],
        capsys,
    )
    assert code == cli.EXIT_PASS
    doc = json.loads(out_path.read_text())
    assert doc["status"] == "pass"

    profile = (tmp_path / "report.json.profile.csv").read_bytes().decode().split("\r\n")
    assert profile[0] == "f,phi,dphi,Q,ell,integrand"
    assert len(profile) == 52  # header + 50 rows + trailing newline
    first = dict(zip(profile[0].split(","), profile[1].split(",")))
    f0 = float(first["f"])
    # spot check one row against the closed forms
    from soliton_lab import fixtures, skrp

    params = fixtures.skrp_fixture("koiso-m2-A1B0-flatbase")
    assert float(first["phi"]) == pytest.approx(skrp.phi_closed(params, f0)[0], rel=1e-15)
    assert float(first["Q"]) == pytest.approx(params.q(f0), rel=1e-15)


def test_skrp_positivity_rejection(tmp_path, capsys):
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"m": 2, "kappa": 1.0, "A": 0.0, "B": 0.0, "I": [0.5, 3.0]}))
    code, out, _ = run(["skrp", "--config", str(cfg)], capsys)
    assert code == cli.EXIT_FAIL
    doc = json.loads(out)
    names = {c["name"] for c in doc["checks"]}
    assert "phi-positivity" in names


def test_skrp_empty_domain_inconclusive(tmp_path, capsys):
    # positive profile but f_c < 0 on the window: Q < 0, domain empty
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"m": 2, "kappa": -1.0, "A": 0.0, "B": 0.0, "I": [-3.0, -0.5]}))
    code, out, _ = run(["skrp", "--config", str(cfg)], capsys)
    assert code == cli.EXIT_PASS
    doc = json.loads(out)
    assert doc["status"] == "inconclusive"


def test_completeness_fixture_verdicts(capsys):
    code, out, _ = run(["completeness", "--fixture", "koiso-m2-compact"], capsys)
    assert code == cli.EXIT_PASS
    doc = json.loads(out)
    verdict = next(c for c in doc["checks"] if c["name"] == "verdict")
    assert verdict["measured"] == "complete-compact-extension"

    code, out, _ = run(["completeness", "--fixture", "koiso-m2-tail"], capsys)
    doc = json.loads(out)
    verdict = next(c for c in doc["checks"] if c["name"] == "verdict")
    assert verdict["measured"] == "incomplete"

    code, out, _ = run(["completeness", "--fixture", "synthetic-double-zero"], capsys)
    doc = json.loads(out)
    verdict = next(c for c in doc["checks"] if c["name"] == "verdict")
    assert verdict["measured"] == "complete"


def test_completeness_inline_config(tmp_path, capsys):
    cfg = tmp_path / "params.json"
    cfg.write_text(
        json.dumps(
            {
                "m": 2,
                "kappa": 4.0,
                "c": 0.0,
                "A": -1.0,
                "B": 1.0,
                "I": [0.0, math.inf],
                "s": 2,
                "a": 2.0,
                "p": 2.0,
                "phi_sign": 1,
            }
        )
    )
    code, out, _ = run(["completeness", "--config", str(cfg)], capsys)
    assert code == cli.EXIT_PASS
    doc = json.loads(out)
    verdict = next(c for c in doc["checks"] if c["name"] == "verdict")
    assert verdict["measured"] == "incomplete"


def test_reports_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _, _ = run(
            ["dualize", "--fixture", "gaussian-soliton", "--samples", "25", "--out", str(path)],
            capsys,
        )
        assert code == cli.EXIT_PASS
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_seed_env_override_changes_sample(tmp_path, capsys, monkeypatch):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    monkeypatch.delenv("SOLITON_LAB_SEED", raising=False)
    run(["verify", "--fixture", "gaussian-soliton", "--samples", "25", "--out", str(out1)], capsys)
    monkeypatch.setenv("SOLITON_LAB_SEED", "12345")
    run(["verify", "--fixture", "gaussian-soliton", "--samples", "25", "--out", str(out2)], capsys)
    a, b = json.loads(out1.read_text()), json.loads(out2.read_text())
    assert a["seed"] == 20240817 and b["seed"] == 12345


def test_text_and_csv_formats(capsys):
    code, out, _ = run(
        ["verify", "--fixture", "gaussian-soliton", "--samples", "25", "--format", "text"], capsys
    )
    assert code == cli.EXIT_PASS
    assert "classification" in out and "status: pass" in out

    code, out, _ = run(
        ["verify", "--fixture", "gaussian-soliton", "--samples", "25", "--format", "csv"], capsys
    )
    assert out.splitlines()[0] == "name,status,measured,tolerance"


def test_sample_floor_enforced(capsys):
    code, _, err = run(["verify", "--fixture", "gaussian-soliton", "--samples", "3"], capsys)
    assert code == cli.EXIT_USAGE
    assert "at least 10" in err


def test_verify_assembled_chart_with_alpha_fit(capsys):
    code, out, _ = run(["verify", "--fixture", "koiso-m2-A1B0", "--samples", "20"], capsys)
    assert code == cli.EXIT_PASS
    doc = json.loads(out)
    names = {c["name"]: c for c in doc["checks"]}
    assert names["classification"]["measured"] == "gradient-Ricci-soliton"
    alpha = names["ricci-hessian-alpha"]
    assert alpha["status"] == "pass"
    assert abs(alpha["measured"] - 1.0) < 1e-5


def test_numeric_error_exit_code(tmp_path, capsys):
    # profile positive but Q < 0 throughout: the verdict has no interval to work on
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"m": 2, "kappa": -1.0, "A": 0.0, "B": 0.0, "I": [-3.0, -0.5]}))
    code, _, err = run(["completeness", "--config", str(cfg)], capsys)
    assert code == cli.EXIT_NUMERIC
    diagnostic = json.loads(err)
    assert diagnostic["status"] == "error"
    assert diagnostic["error"]["type"] == "NonpositiveQ"


def test_completeness_on_shifted_capped_profile(tmp_path, capsys):
    # koiso-m2-capped with c and I shifted by -7.5: the located root of phi
    # that ends the Q-positive interval lies ulps past the zero of Q, where
    # Q < 0.  The verdict must stop short of it (not exit 3 with NonpositiveQ)
    # and match the unshifted fixture's.
    cfg = tmp_path / "params.json"
    cfg.write_text(
        json.dumps(
            {"m": 2, "kappa": 1, "c": -7.5, "A": 1, "B": -0.01, "I": [-7.45, 1.4],
             "s": 2, "a": 0.5, "p": 0.5, "phi_sign": 1}
        )
    )
    code, out, err = run(["completeness", "--config", str(cfg)], capsys)
    assert code == cli.EXIT_PASS
    assert err == ""
    measured = {c["name"]: c["measured"] for c in json.loads(out)["checks"]}
    assert (measured["endpoint-inf-class"], measured["endpoint-sup-class"], measured["verdict"]) == (
        "Interior",
        "SmoothCap",
        "inconclusive-at-end",
    )


def test_skrp_unbounded_tail_fixture(capsys):
    code, out, _ = run(["skrp", "--fixture", "koiso-m2-tail", "--samples", "40"], capsys)
    assert code == cli.EXIT_PASS
    doc = json.loads(out)
    assert doc["status"] == "pass"


@pytest.mark.parametrize(
    "params",
    [
        {"m": 2, "A": 1, "I": [1e-12, 2e-12]},
        {"m": 2, "A": 1, "I": [20.0, 30.0]},
        # The window is cut 40 past I's finite end, (100.8, 139.2), all of it
        # beyond f - c = 12.
        {"m": 2, "kappa": 4, "A": -1, "B": 1, "I": [100, "inf"], "s": 2, "a": 2, "p": 2, "phi_sign": 1},
    ],
    ids=["at-the-pole", "deep-tail", "lower-end-past-c+40"],
)
def test_skrp_window_without_resolvable_band_is_numeric_error(params, tmp_path, capsys):
    # Checking the identities there would report float64 roundoff as a failure.
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps(params))
    code, out, err = run(["skrp", "--config", str(cfg)], capsys)
    assert code == cli.EXIT_NUMERIC
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "DomainError"
    assert "float64 resolves the profile identities" in error["message"]


def test_skrp_below_the_pole_checks_the_whole_window(tmp_path, capsys, monkeypatch):
    # negative-branch lies below c - 0.05: its check band is its profile grid.
    checked = []
    residual = profiles.phi_ode_residual

    def recording(params, alpha, f):
        checked.append(float(f))
        return residual(params, alpha, f)

    monkeypatch.setattr(profiles, "phi_ode_residual", recording)
    out_path = tmp_path / "report.json"
    code, _, _ = run(["skrp", "--fixture", "negative-branch", "--samples", "30", "--out", str(out_path)], capsys)
    assert code == cli.EXIT_PASS
    rows = (tmp_path / "report.json.profile.csv").read_text().splitlines()[1:]
    assert checked == [float(row.split(",")[0]) for row in rows]


def test_dualize_non_soliton_is_numeric_error(capsys):
    # the dual coefficient is undefined off the soliton equation
    code, _, err = run(["dualize", "--fixture", "non-soliton-cubic", "--samples", "20"], capsys)
    assert code == cli.EXIT_NUMERIC
    assert json.loads(err)["error"]["type"] == "NotASoliton"


@pytest.mark.parametrize("fixture", ["gaussian-soliton", "sphere-trivial", "non-soliton-cubic"])
def test_verify_evaluates_each_point_once(fixture, capsys, monkeypatch):
    from soliton_lab import chart as ct
    from soliton_lab import soliton as sol

    reports, evaluations, covered = [], [], []
    build_report = sol.residual_report
    components = ct.MetricChart.components
    point_jets = ct.point_jets

    def counting_report(pair, points):
        reports.append(len(points))
        return build_report(pair, points)

    def counting_components(self, p, jet=None):
        evaluations.append(self.name)
        return components(self, p, jet)

    def covering_point_jets(g, points, *fields):
        for p, jets in point_jets(g, points, *fields):
            covered.append(tuple(p))
            yield p, jets

    monkeypatch.setattr(sol, "residual_report", counting_report)
    monkeypatch.setattr(ct.MetricChart, "components", counting_components)
    monkeypatch.setattr(ct, "point_jets", covering_point_jets)
    run(["verify", "--fixture", fixture, "--samples", "30"], capsys)
    assert reports == [30]
    assert len(evaluations) == 30
    # The chunked evaluation covers each sample point once.
    assert len(covered) == len(set(covered)) == 30


def _one_line_usage_error(code, err):
    assert code == cli.EXIT_USAGE
    assert err.startswith("soliton-lab: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_missing_config_is_usage_error(tmp_path, capsys):
    code, _, err = run(["completeness", "--config", str(tmp_path / "absent.json")], capsys)
    _one_line_usage_error(code, err)


def test_malformed_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "params.json"
    cfg.write_text('{"m": 2, "kappa": ')
    code, _, err = run(["completeness", "--config", str(cfg)], capsys)
    _one_line_usage_error(code, err)


@pytest.mark.parametrize(
    "params",
    [
        '{"m": 1, "kappa": 4.0, "A": 1.0, "I": [0.5, 2.0]}',
        '{"m": 2, "kappa": 4.0, "A": 1.0, "I": [NaN, 2.0]}',
        '{"m": 2, "kappa": 4.0, "A": 1.0, "I": [-1.0, 2.0]}',
    ],
    ids=["m-below-two", "nan-endpoint", "pole-inside-interval"],
)
def test_invalid_config_params_are_usage_errors(params, tmp_path, capsys):
    cfg = tmp_path / "params.json"
    cfg.write_text(params)
    code, _, err = run(["skrp", "--config", str(cfg)], capsys)
    _one_line_usage_error(code, err)


@pytest.mark.parametrize("interval", ["[NaN, 1]", "[0.5, NaN]"], ids=["lower", "upper"])
def test_nan_interval_end_names_the_end(interval, tmp_path, capsys):
    # json.load accepts NaN; the refusal names the bad end, not an empty I.
    cfg = tmp_path / "params.json"
    cfg.write_text(f'{{"m": 2, "I": {interval}}}')
    code, _, err = run(["skrp", "--config", str(cfg)], capsys)
    _one_line_usage_error(code, err)
    assert "an end of I must be a number or ±inf" in err
    assert "nonempty" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--fixture", "gaussian-soliton", "--samples", "10"],
        ["skrp", "--fixture", "koiso-m2-A1B0-flatbase", "--samples", "10"],
    ],
    ids=["verify", "skrp"],
)
def test_unwritable_out_is_usage_error(argv, tmp_path, capsys):
    code, _, err = run([*argv, "--out", str(tmp_path / "no-such-dir" / "report.json")], capsys)
    _one_line_usage_error(code, err)


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tolerance_is_usage_error(tol, capsys):
    code, _, err = run(["verify", "--fixture", "gaussian-soliton", "--tol-residual", tol], capsys)
    _one_line_usage_error(code, err)


def test_completeness_b_zero_unbounded_interval(tmp_path, capsys):
    # B = 0 on [0.5, inf): the infinite-range ladder integrates the tail far
    # enough out that exp(f - c) overflows unless the B-term is skipped.
    cfg = tmp_path / "params.json"
    cfg.write_text(
        json.dumps({"m": 2, "kappa": 4, "A": 1, "B": 0, "I": [0.5, "inf"], "phi_sign": 1, "s": 2, "a": 2, "p": 2})
    )
    code, out, _ = run(["completeness", "--config", str(cfg)], capsys)
    assert code == cli.EXIT_PASS
    verdict = next(c for c in json.loads(out)["checks"] if c["name"] == "verdict")
    assert verdict["measured"] == "inconclusive-at-end"


@pytest.mark.parametrize("seed", ["-1", "seven"])
def test_bad_seed_env_is_usage_error(seed, capsys, monkeypatch):
    monkeypatch.setenv("SOLITON_LAB_SEED", seed)
    code, _, err = run(["verify", "--fixture", "gaussian-soliton", "--samples", "10"], capsys)
    _one_line_usage_error(code, err)


@pytest.mark.parametrize(
    "params",
    [
        {"m": 2.9, "kappa": 4.0, "A": 1.0, "I": [0.5, 2.0], "phi_sign": 1},
        {"m": 2, "kappa": 4.0, "A": 1.0, "I": [0.5, 2.0], "phi_sign": 1.7},
        {"m": 2, "kappa": 4.0, "A": 1.0, "I": [0.5, 2.0], "phi_sign": 1, "s": 1.5},
    ],
    ids=["m", "phi_sign", "s"],
)
def test_non_integral_config_integers_are_usage_errors(params, tmp_path, capsys):
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps(params))
    code, _, err = run(["skrp", "--config", str(cfg)], capsys)
    _one_line_usage_error(code, err)
    assert "must be an integer" in err


def test_integral_float_config_integers_are_accepted(tmp_path, capsys):
    as_ints = {"m": 2, "kappa": 4, "A": 1, "B": 0, "I": [0.5, "inf"], "phi_sign": 1, "s": 2, "a": 2, "p": 2}
    as_floats = {**as_ints, "m": 2.0, "phi_sign": 1.0, "s": 2.0}
    outputs = []
    for params in (as_ints, as_floats):
        cfg = tmp_path / "params.json"
        cfg.write_text(json.dumps(params))
        code, out, _ = run(["completeness", "--config", str(cfg)], capsys)
        assert code == cli.EXIT_PASS
        outputs.append(out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("name", ["kappa", "c", "A", "B", "a", "p"])
@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_config_params_are_usage_errors(name, value, tmp_path, capsys):
    cfg = tmp_path / "params.json"
    cfg.write_text(
        '{"m": 2, "kappa": 4.0, "A": 1.0, "B": 0.0, "I": [0.5, 2.0], "phi_sign": 1, "%s": %s}' % (name, value)
    )
    code, _, err = run(["completeness", "--config", str(cfg)], capsys)
    _one_line_usage_error(code, err)
    assert "must be finite" in err


@pytest.mark.parametrize("command", ["skrp", "completeness"])
@pytest.mark.parametrize(
    "params",
    [
        {"m": 2, "A": 1, "B": 1, "I": [0.5, 800], "kappa": 4, "phi_sign": 1},
        {"m": 2, "A": 1, "B": 0, "I": [1e-300, 1e-299], "kappa": 4, "phi_sign": 1},
        {"m": 2, "B": 1e308, "I": [0.5, 3]},
    ],
    ids=["exp-overflow", "power-overflow", "product-overflow"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_profile_overflow_is_numeric_error(params, command, tmp_path, capsys):
    # exp(f - c) past f - c ~ 709, (f - c)^-2 at f - c = 1e-300, and B * T
    # with B = 1e308 (a product, which overflows to inf silently) exceed float64.
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps(params))
    code, out, err = run([command, "--config", str(cfg)], capsys)
    assert code == cli.EXIT_NUMERIC
    assert out == ""
    assert "Traceback" not in err
    error = json.loads(err)["error"]
    assert error["type"] == "DomainError"
    assert "profile overflows float64" in error["message"]


@pytest.mark.parametrize(
    "params",
    [
        {"m": 2, "kappa": 1e-200, "a": -1, "phi_sign": 1, "I": ["-inf", 0.2]},
        {"m": 2, "kappa": 1e-300, "a": -1, "phi_sign": 1, "I": ["-inf", 0.2]},
        {"m": 2, "kappa": 1e-320, "a": -1, "phi_sign": 1, "I": ["-inf", 0.2]},
        {"m": 2, "kappa": 3, "c": 1, "B": 0, "a": 1e300, "p": 4, "phi_sign": -1, "I": [-50, -2]},
    ],
    ids=["ell-overflow-kappa-1e-200", "ell-overflow-kappa-1e-300", "log-ell-overflow", "huge-a"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ell_map_overflow_is_numeric_error(params, tmp_path, capsys):
    # A tiny Q or a huge a drives log ell = int a / Q, or ell = exp(log ell),
    # past float64: refused, not a traceback and not inf/nan in the side CSV.
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps(params))
    code, out, err = run(["skrp", "--config", str(cfg)], capsys)
    assert code == cli.EXIT_NUMERIC
    assert out == ""
    assert "Traceback" not in err
    assert json.loads(err)["error"]["type"] == "DomainError"


WIDE_BANDS = {
    "wide-band-m2": {"m": 2, "kappa": 1, "A": 0, "B": 1, "I": ["-inf", -2.6], "phi_sign": -1},
    "wide-band-m2-to-0.2": {"m": 2, "kappa": 1, "A": 0, "B": 1, "I": ["-inf", -0.2], "phi_sign": -1},
    "wide-band-m3": {"m": 3, "kappa": 1, "A": 0, "B": 1, "I": ["-inf", -2.6], "phi_sign": -1},
}


@pytest.mark.parametrize("params", list(WIDE_BANDS.values()), ids=["m2-to-2.6", "m2-to-0.2", "m3-to-2.6"])
def test_closed_vs_integrated_holds_on_wide_bands(params, tmp_path, capsys):
    # The check band spans ~38 units; integrating from its midpoint let the
    # ODE's e^f mode grow the integrator's error past the tolerance.
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps(params))
    code, out, _ = run(["skrp", "--config", str(cfg)], capsys)
    assert code == cli.EXIT_PASS
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["profile-ode-residual"]["measured"] < 1e-12
    assert checks["closed-vs-integrated"]["measured"] < 1e-9


@pytest.mark.parametrize("name", [*fixtures._SKRP, *WIDE_BANDS])
def test_profile_oracle_matches_the_closed_form_at_the_check_points(name, monkeypatch, tmp_path, capsys):
    # closed-vs-integrated integrates 8 segments between 9 check points; at
    # each segment's end the Taylor oracle must give the closed form's phi to
    # 1e-13 relative, not just 1e-13 of 1 + |phi|.
    integrate, ends = profiles.phi_ode_integrate, []

    def recording(params, alpha, f0, phi0, dphi0, f):
        phi, dphi = integrate(params, alpha, f0, phi0, dphi0, f)
        ends.append((params, f, phi))
        return phi, dphi

    monkeypatch.setattr(profiles, "phi_ode_integrate", recording)
    if name in WIDE_BANDS:
        cfg = tmp_path / "params.json"
        cfg.write_text(json.dumps(WIDE_BANDS[name]))
        argv = ["skrp", "--config", str(cfg)]
    else:
        argv = ["skrp", "--fixture", name]
    code, out, _ = run(argv, capsys)
    assert code == cli.EXIT_PASS
    assert len(ends) == 8
    for params, f, phi in ends:
        phi_ref = skrp.phi_closed(params, f)[0]
        assert abs(phi - phi_ref) <= 1e-13 * abs(phi_ref), (f, phi, phi_ref)
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["closed-vs-integrated"]["measured"] <= 1e-13


@pytest.mark.parametrize(
    "command, params, message",
    [
        ("skrp", {"m": 2, "kappa": 1, "A": 0, "B": 1, "I": [-900, -800], "phi_sign": -1}, "arc integrand"),
        ("completeness", {"m": 2, "kappa": 1, "A": 0, "B": 1, "I": [-900, -800], "phi_sign": -1}, "arc integrand"),
        ("skrp", {"m": 2, "kappa": 1, "A": 0, "B": 1, "I": ["-inf", -800], "phi_sign": -1}, "arc integrand"),
        ("completeness", {"m": 2, "kappa": 1, "A": 0, "B": 1, "I": ["-inf", -800], "phi_sign": -1}, "arc integrand"),
        ("completeness", {"m": 2, "kappa": 4, "A": 1, "I": [800, 900], "phi_sign": 1}, "0 or not finite"),
        ("completeness", {"m": 2, "A": 1, "c": 1e7, "I": [1e7, "inf"]}, "0 or not finite"),
        ("skrp", {"m": 2, "c": 1e7}, "pole margin"),
    ],
    ids=["skrp-exp-overflow", "completeness-exp-overflow", "skrp-exp-overflow-to-inf",
         "completeness-exp-overflow-to-inf", "integrand-underflow", "integrand-underflow-c-1e7",
         "every-probe-in-pole-margin"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_float64_limits_are_numeric_errors(command, params, message, tmp_path, capsys):
    # Each crashed with a traceback (exit 1): exp(-f / (m - 1)) past
    # f ~ -709, an integrand that underflows to 0 in the exponent fit, and a
    # whole-line I whose probes all lie within the pole margin 1e-6 (1 + |c|)
    # of c = 1e7.
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps(params))
    code, out, err = run([command, "--config", str(cfg)], capsys)
    assert code == cli.EXIT_NUMERIC
    assert out == ""
    assert "Traceback" not in err
    error = json.loads(err)["error"]
    assert message in error["message"]


@pytest.mark.parametrize(
    "params",
    [
        {"m": 4, "kappa": 1e10, "c": 10, "B": 1e10, "s": 3, "phi_sign": -1, "I": [-100, -0.2]},
        {"m": 4, "kappa": 1e300, "c": 10, "B": 1e300, "s": 3, "phi_sign": -1, "I": [-100, -0.2]},
    ],
    ids=["stiff-ode-1e10", "stiff-ode-1e300"],
)
def test_stiff_profile_odes_reach_a_verdict(params, tmp_path, capsys):
    # kappa = B = 1e10 or 1e300 make the profile ODE stiff, which an
    # adaptive-step oracle pays for in steps; the Taylor oracle's steps
    # depend on |f - c| and m alone.
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps(params))
    t0 = time.perf_counter()
    code, out, err = run(["skrp", "--config", str(cfg)], capsys)
    assert time.perf_counter() - t0 < 3.0
    assert code == cli.EXIT_PASS, err
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks] == ["profile-ode-residual", "closed-vs-integrated", "coefficient-constancy"]
    assert {c["status"] for c in checks} == {"pass"}


def test_skrp_table_may_hold_an_underflowed_integrand(tmp_path, capsys):
    # Far above c = 1e7 the arc integrand is exp(-f) ~ 0: a table value, not an error.
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"m": 2, "A": 1, "c": 1e7, "I": [1e7, "inf"]}))
    code, _, err = run(["skrp", "--config", str(cfg), "--out", str(tmp_path / "r.json")], capsys)
    assert code == cli.EXIT_PASS, err
    rows = (tmp_path / "r.json.profile.csv").read_text().splitlines()[1:]
    assert {row.split(",")[-1] for row in rows} == {"0"}


PROFILE_FIXTURES = [
    "koiso-m2-A1B0",
    "koiso-m2-A1B0-flatbase",
    "koiso-m2-compact",
    "koiso-m2-tail",
    "koiso-m2-capped",
    "negative-branch",
]


@pytest.mark.parametrize("command", ["skrp", "completeness"])
@pytest.mark.parametrize("fixture", PROFILE_FIXTURES)
def test_params_echo_reruns_as_config(fixture, command, tmp_path, capsys):
    params = cli.RunConfig(command, params=fixtures.skrp_fixture(fixture)).echo()["params"]
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps(params))
    samples = ["--samples", "20"] if command == "skrp" else []
    by_fixture = run([command, "--fixture", fixture, *samples], capsys)
    by_config = run([command, "--config", str(cfg), *samples], capsys)
    assert by_config[0] == by_fixture[0] == cli.EXIT_PASS
    assert json.loads(by_config[1])["checks"] == json.loads(by_fixture[1])["checks"]
    assert json.loads(by_config[1])["config"]["params"] == params


def test_config_omitted_keys_take_defaults(tmp_path, capsys):
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"m": 2, "A": 1.0, "I": [0.5, 3.0]}))
    _, out, _ = run(["skrp", "--config", str(cfg), "--samples", "10"], capsys)
    assert json.loads(out)["config"]["params"] == {
        "m": 2, "kappa": 0.0, "c": 0.0, "A": 1.0, "B": 0.0, "I": [0.5, 3.0],
        "s": 1, "a": 1.0, "p": 1.0, "phi_sign": -1,
    }


@pytest.mark.parametrize("command", ["skrp", "completeness"])
def test_unknown_config_key_is_usage_error(command, tmp_path, capsys):
    # A misspelt "kappa" must not fall back to the default kappa = 0.
    cfg = tmp_path / "params.json"
    cfg.write_text('{"m":2,"kapa":4,"A":1,"I":[0.5,2.5],"phi_sign":1,"s":2,"a":2,"p":2}')
    code, out, err = run([command, "--config", str(cfg)], capsys)
    _one_line_usage_error(code, err)
    assert "'kapa'" in err
    assert out == ""


@pytest.mark.parametrize(
    "command, fixture",
    [
        ("verify", "gaussian-soliton"),
        ("dualize", "gaussian-soliton"),
        ("skrp", "koiso-m2-A1B0-flatbase"),
        ("completeness", "koiso-m2-A1B0-flatbase"),
    ],
)
def test_fixture_config_with_other_keys_is_usage_error(command, fixture, tmp_path, capsys):
    # "kappa": 3 next to a fixture name must not be dropped silently.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"fixture": fixture, "kappa": 3, "samples": 20}))
    code, out, err = run([command, "--config", str(cfg)], capsys)
    _one_line_usage_error(code, err)
    assert "['kappa', 'samples']" in err
    assert out == ""


@pytest.mark.parametrize(
    "command, fixture, config",
    [
        ("verify", "sphere-trivial", {"fixture": "gaussian-soliton-n3"}),
        ("dualize", "sphere-trivial", {"fixture": "gaussian-soliton-n3"}),
        ("skrp", "koiso-m2-tail", {"m": 2, "kappa": 4.0, "A": 1.0, "I": [0.5, 2.5], "phi_sign": 1}),
        ("completeness", "koiso-m2-tail", {"fixture": "koiso-m2-compact"}),
    ],
)
def test_fixture_with_config_is_usage_error(command, fixture, config, tmp_path, capsys):
    # Neither the config nor the flag may win silently.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run([command, "--fixture", fixture, "--config", str(cfg)], capsys)
    _one_line_usage_error(code, err)
    assert "--fixture" in err and "--config" in err
    assert out == ""


def test_dualize_evaluates_each_source_spot_point_once(capsys, monkeypatch):
    from soliton_lab import chart as ct
    from soliton_lab import soliton as sol

    # The source metric is evaluated at a point either alone (components
    # without a jet) or as part of a chunk (point_jets); the assembly's own
    # check points are evaluated before counting starts.
    fixtures.calabi_fixture("koiso-m2-A1B0")
    source_points, dual_extractions = [], []
    in_report = []
    components = ct.MetricChart.components
    point_jets = ct.point_jets
    extract = sol.extract_coefficient
    build_report = sol.residual_report

    def counting_components(self, p, jet=None):
        if self.name == "koiso-m2-A1B0" and jet is None:
            source_points.append(tuple(p))
        return components(self, p, jet)

    def counting_point_jets(g, points, *fields):
        for p, jets in point_jets(g, points, *fields):
            if g.name == "koiso-m2-A1B0":
                source_points.append(tuple(p))
            yield p, jets

    def counting_extract(pair, p, geometry=None):
        if pair.name.endswith("-dual"):
            dual_extractions.append(bool(in_report))
        return extract(pair, p, geometry)

    def marking_report(pair, points):
        in_report.append(True)
        try:
            return build_report(pair, points)
        finally:
            in_report.pop()

    monkeypatch.setattr(ct.MetricChart, "components", counting_components)
    monkeypatch.setattr(ct, "point_jets", counting_point_jets)
    monkeypatch.setattr(sol, "extract_coefficient", counting_extract)
    monkeypatch.setattr(sol, "residual_report", marking_report)
    code, _, _ = run(["dualize", "--fixture", "koiso-m2-A1B0", "--samples", "30"], capsys)
    assert code == cli.EXIT_PASS
    assert len(source_points) == len(set(source_points)) == 25
    assert len(dual_extractions) == 30 and all(dual_extractions)


def test_alpha_is_reported_where_hess_f_is_not_a_multiple_of_g(capsys):
    # Only the Kahler pairs have a soliton function whose Hessian is not a
    # multiple of g; the Gaussian and trivial pairs leave alpha free.
    reporting = set()
    for fixture in fixtures._PAIRS:
        _, out, _ = run(["verify", "--fixture", fixture, "--samples", "20"], capsys)
        if any(c["name"] == "ricci-hessian-alpha" for c in json.loads(out)["checks"]):
            reporting.add(fixture)
    assert reporting == {"koiso-m2-A1B0", "koiso-m2-A1B0-flatbase", "koiso-m3-A1B0", "koiso-m2-ball"}


def test_cli_names_no_fixture():
    # What a command checks follows from what it measures, never from a name.
    names = {*fixtures._PAIRS, *profiles._SKRP, *profiles._SYNTHETIC_Q, *fixtures._METRICS}
    tree = ast.parse(inspect.getsource(cli))
    strings = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert strings & names == set()


@pytest.mark.parametrize("command", ["verify", "dualize", "skrp", "completeness"])
def test_main_runs_the_module_binding_of_each_handler(command, monkeypatch, capsys):
    # A wrapper bound over cli.cmd_* (as the benchmark's tracer binds one)
    # is what main runs; COMMANDS keeps the originals for help and options.
    calls = []
    handler = getattr(cli, f"cmd_{command}")
    monkeypatch.setattr(cli, f"cmd_{command}", lambda config: calls.append(config.command) or handler(config))
    fixture = "gaussian-soliton" if command in ("verify", "dualize") else "koiso-m2-A1B0"
    argv = [command, "--fixture", fixture, *(["--samples", "10"] if command != "completeness" else [])]
    assert cli.main(argv) == cli.EXIT_PASS
    assert calls == [command]
    assert cli.COMMANDS[command][0] is handler


def test_each_command_takes_exactly_the_options_its_handler_reads():
    for name, (handler, _, options) in cli.COMMANDS.items():
        tree = ast.parse(textwrap.dedent(inspect.getsource(handler)))
        read = {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "config"
        }
        assert set(options) == read & set(cli.OPTIONS), name
        assert set(cli.RunConfig(name).echo()) - {"command", "format"} == set(options), name


@pytest.mark.parametrize(
    "argv",
    [
        ["completeness", "--fixture", "koiso-m2-compact", "--samples", "50"],
        ["completeness", "--fixture", "koiso-m2-compact", "--tol-residual", "1e-3"],
        ["skrp", "--fixture", "koiso-m2-A1B0-flatbase", "--tol-residual", "1e-3"],
    ],
    ids=["completeness-samples", "completeness-tol-residual", "skrp-tol-residual"],
)
def test_option_a_command_does_not_read_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == cli.EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "params",
    [
        {"m": 2, "s": True, "A": 1.0, "I": [0.5, 3.0]},
        {"m": 2, "kappa": True, "A": 1.0, "I": [0.5, 3.0]},
        {"m": "2", "A": 1.0, "I": [0.5, 3.0]},
        {"m": 2, "A": "1", "I": [0.5, 3.0]},
        {"m": 2, "A": 1.0, "I": ["0.5", "3"]},
        {"m": 2, "A": 1.0, "I": [True, 3.0]},
        {"m": 2, "A": 10**400, "I": [0.5, 3.0]},
    ],
    ids=["bool-s", "bool-kappa", "string-m", "string-A", "string-interval", "bool-interval", "huge-integer"],
)
def test_config_values_must_be_json_numbers(params, tmp_path, capsys):
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps(params))
    code, out, err = run(["skrp", "--config", str(cfg)], capsys)
    _one_line_usage_error(code, err)
    assert out == ""


def test_config_interval_ends_may_be_infinity_strings(tmp_path, capsys):
    # The report echoes an infinite end as "inf" or "-inf"; a config takes it back.
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"m": 2, "kappa": 1, "B": 1, "I": ["-inf", -2.6]}))
    code, out, _ = run(["completeness", "--config", str(cfg)], capsys)
    assert code == cli.EXIT_PASS
    assert json.loads(out)["config"]["params"]["I"] == ["-inf", -2.6]


def test_whole_line_profile_with_a_regular_zero_of_q(tmp_path, capsys):
    # koiso-m2-compact's constants on the default I: Q has a regular zero at c.
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"m": 2, "kappa": 4, "A": 1, "B": -1, "s": 2, "a": 2, "p": 2, "phi_sign": 1}))
    code, out, _ = run(["completeness", "--config", str(cfg)], capsys)
    assert code == cli.EXIT_PASS
    verdict = next(c for c in json.loads(out)["checks"] if c["name"] == "verdict")
    assert verdict["measured"] == "complete-compact-extension"
    code, _, err = run(["skrp", "--config", str(cfg), "--samples", "20"], capsys)
    assert code == cli.EXIT_PASS, err


def test_report_files_are_created_as_open_creates_them(tmp_path):
    # Under umask 022 a plain open() gives 0o644; a temp file from mkstemp would stay 0o600.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    report = tmp_path / "r.json"
    done = subprocess.run(
        [sys.executable, "-m", "soliton_lab.cli", "skrp", "--fixture", "koiso-m2-A1B0-flatbase",
         "--samples", "10", "--out", str(report)],
        env=env, umask=0o022, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == cli.EXIT_PASS, done.stderr
    for path in (report, tmp_path / "r.json.profile.csv"):
        assert stat.S_IMODE(path.stat().st_mode) == 0o644


@pytest.mark.parametrize(
    "params,lower,upper",
    [
        ({"m": 2, "kappa": 4, "A": -1, "B": 1, "I": [100, "inf"], "s": 2, "a": 2, "p": 2, "phi_sign": 1},
         "Interior", "InfiniteRangeConvergent"),
        ({"m": 2, "kappa": 1, "A": 0, "B": 1, "I": ["-inf", -70], "phi_sign": -1},
         "InfiniteRangeDivergent", "Interior"),
    ],
    ids=["lower-end-past-c+60", "upper-end-past-c-60"],
)
def test_completeness_on_unbounded_interval_with_far_finite_end(params, lower, upper, tmp_path, capsys):
    # Q > 0 on all of I, whose finite end lies beyond the default scan window
    # c +- 60; the scan measures from that end, so the interval is found.
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps(params))
    code, out, _ = run(["completeness", "--config", str(cfg)], capsys)
    assert code == cli.EXIT_PASS
    measured = {c["name"]: c["measured"] for c in json.loads(out)["checks"]}
    assert measured["endpoint-inf-class"] == lower
    assert measured["endpoint-sup-class"] == upper
    assert measured["verdict"] == "inconclusive-at-end"


def _cli_process(argv, timeout):
    """Run the CLI in a fresh interpreter: (exit code, stdout, stderr)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "soliton_lab.cli", *argv], env=env, capture_output=True, text=True, timeout=timeout
    )
    return done.returncode, done.stdout, done.stderr


def test_fiber_norm_overflow_below_the_pole_is_one_json_diagnostic(tmp_path):
    # log ell = integral of a / Q passes exp's range inside the window: exit 3,
    # and stderr is the JSON diagnostic alone, with no warning lines.
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"m": 2, "B": -1, "a": 2, "I": [-12.5, -12]}))
    code, out, err = _cli_process(["skrp", "--config", str(cfg)], timeout=120)
    assert code == cli.EXIT_NUMERIC
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "DomainError"
    assert error["message"].startswith("ell = exp(3085.") and "overflows float64" in error["message"]
    assert "np.float64" not in error["message"]


@pytest.mark.parametrize(
    "params,message",
    [
        # kappa = 1e-320 makes a / Q overflow inside the batched quadrature.
        ({"m": 2, "kappa": 1e-320, "a": -1, "phi_sign": 1, "I": ["-inf", 0.2]},
         "log ell = integral of a / Q overflows float64 on (0.0044787493895453116, 0.19600977039570502) "
         "(a = -1.0)"),
        ({"m": 2, "kappa": 3, "c": 1, "B": 0, "a": 1e300, "p": 4, "phi_sign": -1, "I": [-50, -2]},
         "ell = exp(2.8648850014889976e+297) overflows float64 at f = -25.884221105527637"),
    ],
    ids=["log-ell-overflow-kappa-1e-320", "ell-overflow-huge-a"],
)
def test_fiber_norm_overflow_is_the_json_diagnostic_alone(params, message, tmp_path):
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps(params))
    code, out, err = _cli_process(["skrp", "--config", str(cfg)], timeout=120)
    assert (code, out) == (cli.EXIT_NUMERIC, "")
    # The whole of stderr parses: no numpy warning line precedes the diagnostic.
    assert json.loads(err)["error"] == {"type": "DomainError", "message": message}


def test_profile_ode_overflow_is_the_json_diagnostic_alone(tmp_path):
    # The oracle's Taylor terms overflow at A = 1e300: the first non-finite
    # term ends the integration, with no numpy warning ahead of the JSON.
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"m": 2, "kappa": 112.3, "c": 1, "A": 1e300, "B": 0.75, "I": [1.1572, 1.1796]}))
    code, out, err = _cli_process(["skrp", "--config", str(cfg)], timeout=120)
    assert (code, out) == (cli.EXIT_NUMERIC, "")
    assert json.loads(err)["error"] == {
        "type": "IntegrationFailure",
        "message": "profile ODE from f = 1.157648 to 1.160336 is not finite past f = 1.157648",
    }


# Q = 2 B e^x / x < 0 for every x = f - c < 0 when A = kappa = 0; the profile
# resolves that sign only if it never subtracts its own terms below the pole.
_NO_Q_INTERVAL_BELOW_POLE = {"m": 2, "kappa": 0, "c": 1.2572, "A": 0, "B": 1.2121, "I": ["-inf", 1.2572]}


def test_skrp_without_a_q_interval_below_the_pole_is_inconclusive(tmp_path, capsys):
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps(_NO_Q_INTERVAL_BELOW_POLE))
    code, out, _ = run(["skrp", "--config", str(cfg)], capsys)
    assert code == cli.EXIT_PASS
    checks = json.loads(out)["checks"]
    assert [(c["name"], c["status"], c["measured"]) for c in checks] == [("q-domain", "inconclusive", "empty")]


def test_completeness_without_a_q_interval_below_the_pole_says_so(tmp_path, capsys):
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps(_NO_Q_INTERVAL_BELOW_POLE))
    code, out, err = run(["completeness", "--config", str(cfg)], capsys)
    assert code == cli.EXIT_NUMERIC
    assert out == ""
    error = json.loads(err)["error"]
    assert error == {"type": "NonpositiveQ", "message": "profile has no Q-positive interval"}


def test_skrp_far_below_the_pole_keeps_the_profile_digits(tmp_path, capsys):
    # At f - c ~ -1e12, B e^x / x^m is 0 and phi = A U + const: the residual
    # read 1.4 while the profile added and subtracted B U.
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"m": 2, "kappa": 0.0102, "c": 1e12, "A": -156.2, "B": -5657.9, "a": 2,
                               "I": [-1, 8.42]}))
    code, out, _ = run(["skrp", "--config", str(cfg)], capsys)
    assert code == cli.EXIT_PASS
    measured = {c["name"]: c["measured"] for c in json.loads(out)["checks"]}
    assert measured["profile-ode-residual"] < 1e-12


def test_completeness_of_an_e_to_the_x_profile_below_the_pole(tmp_path, capsys):
    # A = kappa = 0 and m = 3: Q = 2 B e^x / x^2 > 0 down to -inf, where it
    # decays like e^x; the -inf end diverges.
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"m": 3, "kappa": 0, "c": -3.6776, "A": 0, "B": 2.834,
                               "I": ["-inf", -3.6776], "phi_sign": 1}))
    code, out, _ = run(["completeness", "--config", str(cfg)], capsys)
    assert code == cli.EXIT_PASS
    measured = {c["name"]: c["measured"] for c in json.loads(out)["checks"]}
    assert measured["endpoint-inf-class"] == "InfiniteRangeDivergent"
    assert measured["verdict"] == "inconclusive-at-end"


@pytest.mark.parametrize("upper", ["inf", 1000], ids=["unbounded", "bounded"])
def test_negative_phi_past_a_far_finite_end_fails_positivity(upper, tmp_path, capsys):
    # phi < 0 on all of [21, inf) and Q > 0 nowhere: the probes must stay in I,
    # reaching past its finite end 21 rather than to c + 10.
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"m": 2, "kappa": 2.2, "A": 1, "I": [21, upper], "phi_sign": -1}))
    code, out, _ = run(["skrp", "--config", str(cfg)], capsys)
    assert code == cli.EXIT_FAIL
    checks = json.loads(out)["checks"]
    assert [(c["name"], c["status"]) for c in checks] == [("phi-positivity", "fail")]
    assert checks[0]["measured"] < 0


@pytest.mark.parametrize("command, expected", [("skrp", cli.EXIT_NUMERIC), ("completeness", cli.EXIT_PASS)])
def test_huge_m_profile_finishes_in_seconds(command, expected, tmp_path):
    # The closed form's series stop where their terms vanish or k! overflows,
    # so m = 100000 costs seconds, not minutes.  skrp's ell = exp(log ell)
    # overflows float64 on this window, a numerical refusal.
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"m": 100000, "kappa": 1, "A": 1, "B": 1, "I": [2, 5], "phi_sign": 1}))
    code, _, err = _cli_process([command, "--config", str(cfg), "--out", str(tmp_path / "r.json")], timeout=60)
    assert code == expected, err
    if code == cli.EXIT_NUMERIC:
        assert json.loads(err)["error"]["type"] == "DomainError"
