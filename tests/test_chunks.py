"""Jets and curvature evaluated a chunk of sample points at a time equal,
bit for bit, what the one-point formulas give at each point alone."""

import numpy as np
import pytest

from soliton_lab import autodiff as ad
from soliton_lab import chart as ct
from soliton_lab import fixtures, skrp
from soliton_lab import soliton as sol
from soliton_lab.errors import DomainError, SingularMetric
from soliton_lab.sampling import Box, sample_box

from oracles import point_geometry_at

# One point, a chunk less one, a full chunk, a chunk plus one, two chunks plus one.
SIZES = (1, ct.CHUNK - 1, ct.CHUNK, ct.CHUNK + 1, 2 * ct.CHUNK + 1)
GEOMETRY_FIELDS = ("G", "G_inv", "ric", "hess_f", "f", "df", "lap_f", "grad_sq")


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _pair(name: str, side: str) -> sol.SolitonPair:
    pair = fixtures.soliton_fixture(name)
    return sol.dualize(pair) if side == "dual" else pair


@pytest.mark.parametrize("side", ["source", "dual"])
@pytest.mark.parametrize("name", sorted(fixtures._PAIRS))
def test_chunked_geometry_and_report_equal_single_points_bitwise(name, side):
    pair = _pair(name, side)
    for count in SIZES:
        points = sample_box(pair.metric.domain, count, seed=67)
        chunked = list(pair.geometries(points))
        assert len(chunked) == count
        for p, geo in zip(points, chunked):
            oracle = point_geometry_at(pair.metric, pair.f, p)
            alone = pair.geometry(p)
            for field in GEOMETRY_FIELDS:
                assert _same_bits(getattr(geo, field), getattr(oracle, field)), (count, p, field)
                assert _same_bits(getattr(alone, field), getattr(oracle, field)), (count, p, field)
        report = sol.residual_report(pair, points)
        for k, p in enumerate(points):
            c, r = sol.extract_coefficient(pair, p)
            assert _same_bits(report.coefficients[k], c) and _same_bits(report.residuals[k], r), (count, p)


def _count_t_jets(monkeypatch) -> list[int]:
    """Batch sizes of the potential's t-jet evaluations from now on."""
    sizes = []
    t_jet = skrp._PotentialCore.t_jet

    def counting(self, jets):
        sizes.append(np.size(jets[0].val))
        return t_jet(self, jets)

    monkeypatch.setattr(skrp._PotentialCore, "t_jet", counting)
    return sizes


@pytest.mark.parametrize("side", ["source", "dual"])
def test_potential_t_jet_runs_once_per_chunk(side, monkeypatch):
    pair = _pair("koiso-m2-A1B0", side)
    points = sample_box(pair.metric.domain, 2 * ct.CHUNK + 1, seed=71)
    sizes = _count_t_jets(monkeypatch)
    sol.residual_report(pair, points)
    assert sizes == [ct.CHUNK, ct.CHUNK, 1]


def _spoil(points, bad: int, kind: str, domain):
    """``points`` with point ``bad`` outside the domain, with a NaN
    coordinate or with one coordinate too few (then as a list of points)."""
    if kind == "outside":
        points[bad, 2] = domain.hi[2] + 0.5
    elif kind == "nan":
        points[bad, 1] = np.nan
    else:
        points = list(points)
        points[bad] = points[bad][:-1]
    return points


@pytest.mark.parametrize("bad", [5, ct.CHUNK + 3])
def test_point_outside_the_domain_fails_its_chunk_before_any_jet(bad, monkeypatch):
    pair = fixtures.soliton_fixture("koiso-m2-A1B0")
    seeded = []
    ad_seed = ad.seed
    monkeypatch.setattr(ad, "seed", lambda coords: seeded.append(len(coords)) or ad_seed(coords))
    sizes = _count_t_jets(monkeypatch)
    # A sample of each kind's own, so the potential's last-chunk jet is never reused.
    for seed, kind in enumerate(("outside", "nan", "wrong-dimension"), start=73):
        points = _spoil(sample_box(pair.metric.domain, 2 * ct.CHUNK, seed=seed), bad, kind, pair.metric.domain)
        with pytest.raises(DomainError) as alone:
            pair.metric.components(points[bad])
        seeded.clear()
        sizes.clear()
        with pytest.raises(DomainError) as chunked:
            list(pair.geometries(points))
        assert str(chunked.value) == str(alone.value), kind
        # Only the chunks before the bad point's were evaluated.
        assert seeded == sizes == [ct.CHUNK] * (bad // ct.CHUNK), kind


def test_a_singular_metric_inside_a_chunk_fails_with_the_message_of_its_point():
    # g = diag(1, x) is indefinite where x < 0: there only, at one inner point.
    g = ct.MetricChart.from_jets(lambda x: [[1.0, 0.0], [0.0, x[0]]], 2, Box([-1.0, -1.0], [1.0, 1.0]))
    f = ct.ScalarField(lambda x: x[0] * x[1], 2)
    points = sample_box(Box([0.1, -1.0], [1.0, 1.0]), ct.CHUNK, seed=79)
    points[7, 0] = -0.5
    with pytest.raises(SingularMetric) as alone:
        ct.point_geometry(g, f, points[7])
    with pytest.raises(SingularMetric) as chunked:
        sol.residual_report(sol.SolitonPair(g, f), points)
    assert str(chunked.value) == str(alone.value)
    assert len(list(ct.point_geometries(g, f, np.delete(points, 7, axis=0)))) == ct.CHUNK - 1


@pytest.mark.parametrize("side", ["source", "dual"])
def test_a_report_runs_one_cholesky_per_chunk_and_reads_each_point_alone(side, monkeypatch):
    pair = _pair("koiso-m2-A1B0", side)
    points = sample_box(pair.metric.domain, 2 * ct.CHUNK + 1, seed=83)
    calls = {"cholesky": 0, "components": 0, "extract": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "cholesky", counting("cholesky", np.linalg.cholesky))
    monkeypatch.setattr(ct.MetricChart, "components", counting("components", ct.MetricChart.components))
    monkeypatch.setattr(sol, "extract_coefficient", counting("extract", sol.extract_coefficient))
    sol.residual_report(pair, points)
    assert calls == {"cholesky": 3, "components": len(points), "extract": len(points)}
