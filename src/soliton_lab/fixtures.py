"""Named fixtures: reference metrics, soliton pairs, and profile parameters.

Fixture metrics are analytic charts with known curvature (flat space, round
spheres in stereographic coordinates, the hyperbolic half-plane) plus the
assembled 2m-dimensional soliton charts; soliton pairs attach the matching
potential.  Everything is deterministic and cheap to rebuild; the assembled
charts are cached per process.  The profile parameter sets live in
:mod:`.profiles`, which needs no numpy, and are re-exported here.
"""

from __future__ import annotations

from functools import lru_cache

from . import autodiff as ad
from . import chart as ct
from . import skrp
from .errors import UnknownFixture
from .profiles import _SKRP, _SYNTHETIC_Q, q_profile_fixture, skrp_fixture  # noqa: F401
from .sampling import Box
from .soliton import SolitonPair

__all__ = [
    "metric_fixture",
    "soliton_fixture",
    "skrp_fixture",
    "q_profile_fixture",
    "calabi_fixture",
]


def _flat(dim: int) -> ct.MetricChart:
    return ct.MetricChart.euclidean(dim, Box([-1.0] * dim, [1.0] * dim), f"euclidean{dim}")


def _round_sphere(dim: int) -> ct.MetricChart:
    """Unit round sphere in stereographic coordinates: g = 4 delta / (1+|x|^2)^2."""

    def comps(jets):
        r2 = jets[0] * jets[0]
        for j in jets[1:]:
            r2 = r2 + j * j
        conf = 4.0 / ((1.0 + r2) ** 2)
        zero = ad.constant(0.0, dim)
        return [[conf if i == k else zero for k in range(dim)] for i in range(dim)]

    return ct.MetricChart.from_jets(comps, dim, Box([-0.8] * dim, [0.8] * dim), f"sphere{dim}-stereo")


def _polar_plane() -> ct.MetricChart:
    def comps(jets):
        r, _ = jets
        zero = ad.constant(0.0, 2)
        return [[ad.constant(1.0, 2), zero], [zero, r * r]]

    return ct.MetricChart.from_jets(comps, 2, Box([1.0, 0.1], [3.0, 6.0]), "polar2")


def _hyperbolic_plane() -> ct.MetricChart:
    def comps(jets):
        _, y = jets
        conf = 1.0 / (y * y)
        zero = ad.constant(0.0, 2)
        return [[conf, zero], [zero, conf]]

    return ct.MetricChart.from_jets(comps, 2, Box([-1.0, 0.5], [1.0, 2.0]), "hyperbolic2")


def _sphere_cross_line() -> ct.MetricChart:
    def comps(jets):
        x, y, _ = jets
        conf = 4.0 / ((1.0 + x * x + y * y) ** 2)
        zero = ad.constant(0.0, 3)
        one = ad.constant(1.0, 3)
        return [[conf, zero, zero], [zero, conf, zero], [zero, zero, one]]

    return ct.MetricChart.from_jets(comps, 3, Box([-0.8, -0.8, -1.0], [0.8, 0.8, 1.0]), "sphere2xline")


def _half_square_field(dim: int) -> ct.ScalarField:
    def fn(jets):
        acc = jets[0] * jets[0]
        for j in jets[1:]:
            acc = acc + j * j
        return 0.5 * acc

    return ct.ScalarField(fn, dim, name="1.0|x|^2/2")


_METRICS = {
    "euclidean2": lambda: _flat(2),
    "euclidean3": lambda: _flat(3),
    "euclidean4": lambda: _flat(4),
    "euclidean5": lambda: _flat(5),
    "polar2": _polar_plane,
    "sphere2-stereo": lambda: _round_sphere(2),
    "sphere3-stereo": lambda: _round_sphere(3),
    "hyperbolic2": _hyperbolic_plane,
    "sphere2xline": _sphere_cross_line,
}


def metric_fixture(name: str) -> ct.MetricChart:
    try:
        return _METRICS[name]()
    except KeyError:
        raise UnknownFixture(f"unknown metric fixture {name!r}; known: {sorted(_METRICS)}") from None


@lru_cache(maxsize=4)
def calabi_fixture(name: str = "koiso-m2-A1B0") -> skrp.CalabiChart:
    return skrp.assemble_calabi_metric(skrp_fixture(name), name=name)


# -- soliton pairs -----------------------------------------------------------------


def _gaussian(dim: int) -> SolitonPair:
    return SolitonPair(_flat(dim), _half_square_field(dim), f"gaussian-soliton-n{dim}")


def _cubic_pair() -> SolitonPair:
    f = ct.ScalarField(lambda jets: jets[0] ** 3, 3, "x0^3")
    return SolitonPair(_flat(3), f, "non-soliton-cubic")


def _calabi_pair(name: str) -> SolitonPair:
    chart = calabi_fixture(name)
    return SolitonPair(chart.metric, chart.f_field, name)


_PAIRS = {
    "gaussian-soliton": lambda: _gaussian(3),
    "gaussian-soliton-n3": lambda: _gaussian(3),
    "gaussian-soliton-n4": lambda: _gaussian(4),
    "gaussian-soliton-n5": lambda: _gaussian(5),
    "sphere-trivial": lambda: SolitonPair(
        _round_sphere(3), ct.ScalarField.constant(0.0, 3), "sphere-trivial"
    ),
    "non-soliton-cubic": _cubic_pair,
    "koiso-m2-A1B0": lambda: _calabi_pair("koiso-m2-A1B0"),
    "koiso-m2-A1B0-flatbase": lambda: _calabi_pair("koiso-m2-A1B0-flatbase"),
    "koiso-m3-A1B0": lambda: _calabi_pair("koiso-m3-A1B0"),
    "koiso-m2-ball": lambda: _calabi_pair("koiso-m2-ball"),
}


def soliton_fixture(name: str) -> SolitonPair:
    if name not in _PAIRS:
        raise UnknownFixture(f"unknown soliton fixture {name!r}; known: {sorted(_PAIRS)}")
    return _PAIRS[name]()
