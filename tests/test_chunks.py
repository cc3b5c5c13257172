"""Jets evaluated a chunk of sample points at a time equal, bit for bit, the
jets of each point evaluated alone."""

import numpy as np
import pytest

from soliton_lab import autodiff as ad
from soliton_lab import chart as ct
from soliton_lab import fixtures, skrp
from soliton_lab import soliton as sol
from soliton_lab.errors import DomainError
from soliton_lab.sampling import sample_box

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
            alone = pair.geometry(p)
            for field in GEOMETRY_FIELDS:
                assert _same_bits(getattr(geo, field), getattr(alone, field)), (count, p, field)
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


@pytest.mark.parametrize("bad", [5, ct.CHUNK + 3])
def test_point_outside_the_domain_fails_its_chunk_before_any_jet(bad, monkeypatch):
    pair = fixtures.soliton_fixture("koiso-m2-A1B0")
    points = sample_box(pair.metric.domain, 2 * ct.CHUNK, seed=73)
    points[bad, 2] = pair.metric.domain.hi[2] + 0.5
    with pytest.raises(DomainError) as alone:
        pair.metric.components(points[bad])

    seeded = []
    seed = ad.seed
    monkeypatch.setattr(ad, "seed", lambda coords: seeded.append(len(coords)) or seed(coords))
    sizes = _count_t_jets(monkeypatch)
    with pytest.raises(DomainError) as chunked:
        sol.residual_report(pair, points)
    assert str(chunked.value) == str(alone.value)
    # Only the chunks before the bad point's were evaluated.
    assert seeded == sizes == [ct.CHUNK] * (bad // ct.CHUNK)
