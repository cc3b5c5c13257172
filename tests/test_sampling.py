"""The in-package scrambled Halton sampler against scipy's ``qmc.Halton``."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from soliton_lab.sampling import DEFAULT_SEED, EDGE_MARGIN, Box, sample_box

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _box(dim: int) -> Box:
    lo = np.array([-1.5, 0.25, -3.0, 2.0, -0.5, 10.0])[:dim]
    hi = np.array([2.5, 1.0, 4.0, 2.5, 7.0, 11.0])[:dim]
    return Box(lo, hi)


@pytest.mark.parametrize("seed", [0, 7, DEFAULT_SEED, 2**32 - 1])
@pytest.mark.parametrize("count", [1, 200, 800])
@pytest.mark.parametrize("dim", range(1, 7))
def test_sample_box_bitwise_equals_scipy_halton(dim, count, seed):
    qmc = pytest.importorskip("scipy.stats").qmc
    box = _box(dim)
    inner = box.interior(EDGE_MARGIN)
    expected = qmc.scale(qmc.Halton(d=dim, scramble=True, seed=seed).random(count), inner.lo, inner.hi)
    got = sample_box(box, count, seed=seed)
    assert got.shape == (count, dim)
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_cli_does_not_import_scipy_stats():
    script = textwrap.dedent(
        """
        import sys
        import soliton_lab.cli as cli
        assert "scipy.stats" not in sys.modules, "loaded by import"
        code = cli.main(["verify", "--fixture", "gaussian-soliton", "--samples", "10"])
        assert code == cli.EXIT_PASS, code
        assert "scipy.stats" not in sys.modules, "loaded by verify"
        """
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = SRC
    env.pop("SOLITON_LAB_SEED", None)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
