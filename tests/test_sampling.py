"""The in-package scrambled Halton sampler against scipy's ``qmc.Halton``, and
its permutation stream against numpy's ``default_rng``."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from soliton_lab.sampling import DEFAULT_SEED, EDGE_MARGIN, Box, _draws32, _shuffle, sample_box

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _box(dim: int) -> Box:
    lo = np.array([-1.5, 0.25, -3.0, 2.0, -0.5, 10.0])[:dim]
    hi = np.array([2.5, 1.0, 4.0, 2.5, 7.0, 11.0])[:dim]
    return Box(lo, hi)


@pytest.mark.parametrize("seed", [0, 7, DEFAULT_SEED, 2**32 - 1, 2**64 + 1, 2**130 + 3])
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


# 1 to 10 uint32 words of entropy: SeedSequence pads up to its 4-word pool,
# and mixes words past the fourth in a loop of their own.
STREAM_SEEDS = sorted(
    {*range(150), DEFAULT_SEED, 2**64 + 1, 2**130 + 3}
    | {2 ** (32 * words) + offset for words in range(1, 10) for offset in (-1, 0)}
    | {2**300 + k for k in range(40)}
)


@pytest.mark.parametrize("base", [2, 3, 5, 7, 11, 13, 257])
def test_stream_shuffles_equal_numpy_default_rng(base):
    assert len(STREAM_SEEDS) >= 200 and {0, 2**32 - 1, 2**64, 2**128 - 1, 2**128} <= set(STREAM_SEEDS)
    for seed in STREAM_SEEDS:
        rng = np.random.default_rng(seed)
        draws = _draws32(seed)
        # Odd lengths leave half a 64-bit draw buffered for the next shuffle.
        for length in (base, 3, base, 2, base):
            expected = np.arange(length)
            rng.shuffle(expected)
            got = list(range(length))
            _shuffle(got, draws)
            assert got == expected.tolist(), (seed, length)


def test_negative_seed_raises_value_error():
    with pytest.raises(ValueError, match="-3"):
        sample_box(_box(2), 5, seed=-3)
    with pytest.raises(ValueError):
        np.random.default_rng(-3)


def test_seed_is_any_integer_as_for_default_rng():
    np.testing.assert_array_equal(sample_box(_box(3), 20, seed=np.uint64(7)), sample_box(_box(3), 20, seed=7))
    with pytest.raises(TypeError):
        sample_box(_box(3), 20, seed=7.0)
    with pytest.raises(TypeError):
        np.random.default_rng(7.0)


@pytest.mark.parametrize("dim", [1, 4])
def test_zero_count_is_an_empty_sample(dim):
    assert sample_box(_box(dim), 0).shape == (0, dim)


def test_negative_count_raises_value_error_naming_it():
    with pytest.raises(ValueError, match="sample count -2 "):
        sample_box(_box(3), -2)


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
