"""Seeded random spectral points for the float backend.

All randomness flows from a single 64-bit seed through numpy's PCG64
generator.  Points are exponentiated spectral parameters e^lambda with
log-uniform modulus in [0.5, 2] and uniform phase; sets of points are
rejection-sampled until every pairwise difference lambda_i - lambda_j stays
away from the zeros of b (the lattice i pi Z), which keeps all b-weight
denominators well conditioned.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

PRNG_NAME = "numpy.random.PCG64"
# smallest distance of a sampled or checked difference lambda_i - lambda_j
# from the zeros of b
MIN_POLE_DISTANCE = 1e-2
_MODULUS_RANGE = (0.5, 2.0)
_MAX_TRIES = 10_000


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def sample_point(rng: np.random.Generator) -> complex:
    lo, hi = _MODULUS_RANGE
    mod = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    phase = rng.uniform(-math.pi, math.pi)
    return mod * cmath.exp(1j * phase)


@functools.lru_cache(maxsize=None)
def pair_index(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of the pairs i < j of count points, in
    lexicographic order; shared, so never written to."""
    return np.triu_indices(count, 1)


def pole_distance(x, y):
    """Distance of lambda_x - lambda_y from the zero set of b, i pi Z;
    elementwise on arrays."""
    d = np.log(np.asarray(x, dtype=complex) / y)
    # |remainder(imag, pi)|: fmod is exact, and so is pi - r for r >= pi/2
    r = np.abs(np.fmod(d.imag, np.pi))
    return np.hypot(d.real, np.minimum(r, np.pi - r))


def sample_spectral_set(rng: np.random.Generator, count: int) -> list[complex]:
    """A pole-guarded set of exponentiated spectral points."""
    i, j = pair_index(count)
    for _ in range(_MAX_TRIES):
        pts = [sample_point(rng) for _ in range(count)]
        arr = np.array(pts)
        if (pole_distance(arr[i], arr[j]) >= MIN_POLE_DISTANCE).all():
            return pts
    raise RuntimeError(f"rejection sampling failed for {count} points")


def pairwise_sum(values):
    """Deterministic pairwise summation in index order: neighbours (0, 1),
    (2, 3), ... are added, an odd last value carries over, and the halving
    repeats until one value is left."""
    vals = np.asarray(values)
    if not len(vals):
        return 0.0
    while len(vals) > 1:
        even = len(vals) - len(vals) % 2
        vals = np.concatenate([vals[0:even:2] + vals[1:even:2], vals[even:]])
    return vals[0].item()
