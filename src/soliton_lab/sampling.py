"""Quasi-random interior sampling of chart domain boxes.

Scrambled Halton points are low-discrepancy and, given a fixed seed, fully
deterministic, which the CLI relies on for byte-identical reports.  Points
keep a 5% margin from every box face so curvature checks never sit on
boundary or critical-set degeneracies.

The scrambling is Owen's random-permutation Halton (A. B. Owen, "A randomized
Halton algorithm in R", arXiv:1706.02808, 2017).  For an integer seed the
stream is bit-identical to scipy's ``qmc.Halton(d, scramble=True, seed=seed)``
followed by ``qmc.scale``; it is generated here with numpy alone so that the
CLI does not import ``scipy.stats`` (over a second of start-up).
"""

from __future__ import annotations

import math
import os

import numpy as np

DEFAULT_SEED = 20240817
EDGE_MARGIN = 0.05

__all__ = ["DEFAULT_SEED", "EDGE_MARGIN", "Box", "sample_box", "resolve_seed"]


class Box:
    """Axis-aligned box of chart coordinates."""

    def __init__(self, lo, hi):
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


def _scrambled_halton(dim: int, count: int, seed: int) -> np.ndarray:
    """First ``count`` scrambled Halton points in [0, 1)^dim, shape (count, dim).

    Owen 2017, Algorithm 1: digit ``j`` of the index in base ``b`` is mapped
    through its own random permutation of ``range(b)``, for every ``j`` with
    ``b**-(j+1) > 2**-54``.  The permutations are drawn dimension by
    dimension, digit by digit, from one ``default_rng(seed)``, and the digits
    are summed in scipy's order, so every bit matches ``qmc.Halton``.
    """
    rng = np.random.default_rng(seed)
    unit = np.empty((count, dim))
    for k, base in enumerate(_primes(dim)):
        perms = np.repeat(np.arange(base)[None], math.ceil(54 / math.log2(base)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        q = np.arange(count)
        seq = np.zeros(count)
        b2r = 1.0 / base
        for perm in perms:
            seq += perm[q % base] * b2r
            q //= base
            b2r /= base
        unit[:, k] = seq
    return unit


def sample_box(box: Box, count: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """Low-discrepancy points of ``box`` kept EDGE_MARGIN from every face,
    shape (count, dim)."""
    inner = box.interior(EDGE_MARGIN)
    unit = _scrambled_halton(box.dim, count, seed)
    if unit.max() > 1.0 or unit.min() < 0.0:
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
