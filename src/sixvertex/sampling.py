"""Seeded random spectral points for the float backend.

All randomness flows from a single 64-bit seed through numpy's PCG64
generator.  Points are exponentiated spectral parameters e^lambda with
log-uniform modulus in [0.5, 2] and uniform phase; sets of points are
rejection-sampled until every pairwise difference lambda_i - lambda_j stays
away from the zeros of b (the lattice i pi Z), which keeps all b-weight
denominators well conditioned.

Sampling is batched and stream-exact: ``sample_spectral_sets`` draws many
candidate sets from one ``rng.random`` call, checks their poles in one
pass, and redraws only the shortfall, so it returns the same points, and
leaves the generator in the same state, as drawing the sets one at a time
with scalar ``rng.uniform`` calls (a modulus, then a phase, per point).
``sample_spectral_set`` and ``sample_point`` are its one-set and one-point
cases.
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
    return sample_spectral_sets(rng, 1, 1)[0, 0].item()


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


def _points(u: np.ndarray) -> list[complex]:
    """One point per (modulus, phase) pair of standard uniforms, by the
    scalar formula: lo + (hi - lo) * U is the double ``rng.uniform(lo, hi)``
    makes from U, and math.exp and cmath.exp give libm's bits."""
    def uniform(u, lo, hi):
        return (lo + (hi - lo) * u).tolist()

    mods = uniform(u[0::2], *map(math.log, _MODULUS_RANGE))
    phases = uniform(u[1::2], -math.pi, math.pi)
    return [math.exp(m) * cmath.exp(1j * ph) for m, ph in zip(mods, phases)]


def sample_spectral_sets(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """n pole-guarded sets of count exponentiated spectral points, shape
    (n, count), equal to n successive one-set draws and leaving the
    generator in the same state.  All candidates are drawn by one
    ``rng.random`` call and pole-checked together, and the accepted ones
    kept in draw order; then only the shortfall is redrawn.  A draw never
    holds more candidates than the one-set draws would still make, so
    RuntimeError comes, as there, once one set has been rejected
    _MAX_TRIES times in a row."""
    i, j = pair_index(count)
    kept = []
    got = 0
    streak = 0  # candidates rejected since the last accepted one
    while got < n:
        need = min(n - got, _MAX_TRIES - streak)
        cand = np.array(_points(rng.random(2 * count * need)), dtype=complex)
        cand = cand.reshape(need, count)
        ok = (pole_distance(cand[:, i], cand[:, j]) >= MIN_POLE_DISTANCE).all(axis=1)
        accepted = np.flatnonzero(ok)
        kept.append(cand[accepted])
        got += accepted.size
        streak = need - 1 - int(accepted[-1]) if accepted.size else streak + need
        if streak >= _MAX_TRIES:
            raise RuntimeError(f"rejection sampling failed for {count} points")
    return np.concatenate(kept) if kept else np.empty((0, count), dtype=complex)


def sample_spectral_set(rng: np.random.Generator, count: int) -> list[complex]:
    """A pole-guarded set of exponentiated spectral points."""
    return sample_spectral_sets(rng, 1, count)[0].tolist()


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
