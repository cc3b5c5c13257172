"""Quasi-random interior sampling of chart domain boxes.

Scrambled Halton points are low-discrepancy and, given a fixed seed, fully
deterministic, which the CLI relies on for byte-identical reports.  Points
keep a 5% margin from every box face so curvature checks never sit on
boundary or critical-set degeneracies.

The scrambling is Owen's random-permutation Halton (A. B. Owen, "A randomized
Halton algorithm in R", arXiv:1706.02808, 2017).  For an integer seed the
points are bit-identical to scipy's ``qmc.Halton(d, scramble=True, seed=seed)``
followed by ``qmc.scale``.  They are generated here so that no command imports
``scipy.stats`` (over a second of start-up), and the digit permutations come
from an in-package copy of numpy's ``default_rng(seed)`` stream, bit-identical
to it, so that no command imports ``numpy.random`` either (about 6 MiB of peak
RSS and 17 ms of start-up).  numpy itself is imported by the functions that
build arrays, when they are called, so the CLI can import :func:`resolve_seed`
without it.
"""

from __future__ import annotations

import math
import operator
import os
from collections.abc import Iterator
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

DEFAULT_SEED = 20240817
EDGE_MARGIN = 0.05

__all__ = ["DEFAULT_SEED", "EDGE_MARGIN", "Box", "sample_box", "resolve_seed"]


class Box:
    """Axis-aligned box of chart coordinates."""

    def __init__(self, lo, hi):
        import numpy as np

        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise ValueError("box bounds must be 1-d arrays of equal length")
        if not np.all(self.lo < self.hi):
            raise ValueError("box must have positive extent on every axis")

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def contains(self, point) -> bool:
        import numpy as np

        p = np.asarray(point, dtype=float)
        if p.shape != self.lo.shape or not np.all(np.isfinite(p)):
            return False
        return bool(np.all(p >= self.lo) and np.all(p <= self.hi))

    def interior(self, margin: float = EDGE_MARGIN) -> "Box":
        pad = margin * (self.hi - self.lo)
        return Box(self.lo + pad, self.hi - pad)

    def __repr__(self):
        return f"Box(lo={self.lo.tolist()}, hi={self.hi.tolist()})"


def _primes(count: int) -> list[int]:
    """The first ``count`` primes, the Halton bases."""
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % q for q in primes if q * q <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


# numpy's SeedSequence constants (pool of 4 uint32 words) and PCG64's multiplier.
_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(8)`` for a seed >= 0: eight uint32 words."""
    # Little-endian words; seed 0's one zero word mixes as the pool's padding does.
    entropy = [seed >> shift & _MASK32 for shift in range(0, seed.bit_length(), 32)]
    hash_a = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * _MULT_A & _MASK32
        value = value * hash_a & _MASK32
        return value ^ value >> _XSHIFT

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> _XSHIFT

    pool = [hashmix(word) for word in (entropy + [0] * 4)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    words = []
    hash_b = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ hash_b
        hash_b = hash_b * _MULT_B & _MASK32
        value = value * hash_b & _MASK32
        words.append(value ^ value >> _XSHIFT)
    return words


def _draws32(seed: int) -> Iterator[int]:
    """The 32-bit draws of numpy's ``default_rng(seed)``: PCG64 seeded through
    SeedSequence, each XSL-RR 64-bit output giving its low half, then its high
    half (M. E. O'Neill, "PCG: a family of simple fast space-efficient
    statistically good algorithms for random number generation",
    HMC-CS-2014-0905)."""
    w = _seed_words(seed)
    u0, u1, u2, u3 = (w[k] | w[k + 1] << 32 for k in range(0, 8, 2))
    inc = ((u2 << 64 | u3) << 1 | 1) & _MASK128
    state = ((inc + (u0 << 64 | u1)) * _PCG_MULT + inc) & _MASK128  # srandom: step from 0, add, step
    while True:
        state = (state * _PCG_MULT + inc) & _MASK128
        rot = state >> 122
        x = (state >> 64 ^ state) & _MASK64
        x = (x >> rot | x << (64 - rot)) & _MASK64
        yield x & _MASK32
        yield x >> 32


def _shuffle(items: list, draws: Iterator[int]) -> None:
    """Fisher-Yates from the top, as ``Generator.shuffle`` on a 1-d array:
    each index is a masked draw, rejected while above ``i`` (every length
    here is below 2**32, so numpy draws 32 bits)."""
    for i in range(len(items) - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        while (j := next(draws) & mask) > i:
            pass
        items[i], items[j] = items[j], items[i]


def _scrambled_halton(dim: int, count: int, seed: int) -> np.ndarray:
    """First ``count`` scrambled Halton points in [0, 1)^dim, shape (count, dim).

    Owen 2017, Algorithm 1: digit ``j`` of the index in base ``b`` is mapped
    through its own random permutation of ``range(b)``, for every ``j`` with
    ``b**-(j+1) > 2**-54``.  The permutations are drawn dimension by
    dimension, digit by digit, from one in-package stream bit-identical to
    numpy's ``default_rng(seed)``, and the digits are summed in scipy's
    order, so every bit matches ``qmc.Halton``.
    """
    import numpy as np

    draws = _draws32(seed)
    unit = np.empty((count, dim))
    for k, base in enumerate(_primes(dim)):
        perms = []
        for _ in range(math.ceil(54 / math.log2(base)) - 1):
            perm = list(range(base))
            _shuffle(perm, draws)
            perms.append(perm)
        q = np.arange(count)
        seq = np.zeros(count)
        b2r = 1.0 / base
        for perm in np.array(perms):
            seq += perm[q % base] * b2r
            q //= base
            b2r /= base
        unit[:, k] = seq
    return unit


def sample_box(box: Box, count: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """Low-discrepancy points of ``box`` kept EDGE_MARGIN from every face,
    shape (count, dim).

    Raises ValueError for a negative count or seed, and TypeError for a seed
    that is not an integer (a numpy integer is one), as ``default_rng`` does.
    """
    import numpy as np

    seed = operator.index(seed)
    if count < 0:
        raise ValueError(f"sample count {count} is negative")
    if seed < 0:
        raise ValueError(f"sampling seed {seed} is negative; it must be a non-negative integer")
    inner = box.interior(EDGE_MARGIN)
    unit = _scrambled_halton(box.dim, count, seed)
    if np.any(unit > 1.0) or np.any(unit < 0.0):
        raise ValueError("sample is not in the unit hypercube")
    return unit * (inner.hi - inner.lo) + inner.lo


def resolve_seed() -> int:
    """Sampling seed: SOLITON_LAB_SEED if set, else the default.

    Raises ValueError for a seed that is not a non-negative integer.
    """
    env = os.environ.get("SOLITON_LAB_SEED")
    if env is None:
        return DEFAULT_SEED
    try:
        seed = int(env)
    except ValueError:
        raise ValueError(f"SOLITON_LAB_SEED={env!r} is not an integer") from None
    if seed < 0:
        raise ValueError(f"sampling seed {seed} is negative; it must be a non-negative integer")
    return seed
