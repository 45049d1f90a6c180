import cmath
import math

import numpy as np
import pytest

from sixvertex import sampling
from sixvertex.sampling import (
    make_rng,
    pair_index,
    pole_distance,
    sample_point,
    sample_spectral_set,
    sample_spectral_sets,
)


# the scalar formula the batched sampler must reproduce: a modulus, then a
# phase, per point, each one rng.uniform call, and each set redrawn whole
# until its pole check passes
def _point_reference(rng):
    lo, hi = sampling._MODULUS_RANGE
    mod = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    phase = rng.uniform(-math.pi, math.pi)
    return mod * cmath.exp(1j * phase)


def _set_reference(rng, count):
    i, j = pair_index(count)
    for _ in range(sampling._MAX_TRIES):
        pts = [_point_reference(rng) for _ in range(count)]
        arr = np.array(pts)
        if (pole_distance(arr[i], arr[j]) >= sampling.MIN_POLE_DISTANCE).all():
            return pts
    raise RuntimeError("rejection limit")


def _doubles_drawn(seed, rng):
    """How many doubles rng has drawn since make_rng(seed), up to 10^5."""
    ref = make_rng(seed)
    for drawn in range(100_000):
        if ref.bit_generator.state == rng.bit_generator.state:
            return drawn
        ref.random()
    raise AssertionError("the generator drew more than 10^5 doubles")


@pytest.mark.parametrize("count", [2, 5, 8, 12])
def test_batch_equals_one_set_draws_byte_for_byte(count):
    rejected = 0
    for seed in range(60):
        n = 1 + seed % 11
        batch_rng, ref_rng, one_rng = make_rng(seed), make_rng(seed), make_rng(seed)
        batch = sample_spectral_sets(batch_rng, n, count)
        ref = np.array([_set_reference(ref_rng, count) for _ in range(n)], dtype=complex)
        ones = [sample_spectral_set(one_rng, count) for _ in range(n)]
        assert batch.shape == (n, count) and batch.dtype == complex
        assert batch.tobytes() == ref.tobytes()
        assert ones == ref.tolist()
        assert all(type(p) is complex for s in ones for p in s)
        state = ref_rng.bit_generator.state
        assert batch_rng.bit_generator.state == state == one_rng.bit_generator.state
        # every set drawn beyond the n kept was a rejected one
        plain = make_rng(seed)
        plain.random(2 * count * n)
        rejected += plain.bit_generator.state != state
    if count == 12:
        assert rejected, "no case exercised the redraw of a rejected set"


def test_batch_redraws_a_rejected_set_in_place():
    # seed 33 rejects a 12-point set: the batch keeps its neighbours' order
    # and redraws only the shortfall, drawing exactly what one-set draws do
    seed, count, n = 33, 12, 6
    rng = make_rng(seed)
    batch = sample_spectral_sets(rng, n, count)
    drawn = _doubles_drawn(seed, rng)
    assert drawn > 2 * count * n and drawn % (2 * count) == 0
    ref_rng = make_rng(seed)
    assert batch.tolist() == [_set_reference(ref_rng, count) for _ in range(n)]


def test_sample_point_is_the_scalar_formula():
    for seed in range(40):
        rng, ref = make_rng(seed), make_rng(seed)
        for _ in range(3):
            p = sample_point(rng)
            want = _point_reference(ref)
            assert type(p) is complex
            assert np.array(p).tobytes() == np.array(want).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


def test_empty_batch_draws_nothing():
    rng = make_rng(3)
    state = rng.bit_generator.state
    assert sample_spectral_sets(rng, 0, 4).shape == (0, 4)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("n, count", [(1, 2), (3, 5)])
def test_rejection_limit_draws_exactly_max_tries_sets(monkeypatch, n, count):
    # no set passes; the first set is given up after _MAX_TRIES candidates,
    # having drawn _MAX_TRIES * 2 * count doubles and not one more
    monkeypatch.setattr(sampling, "MIN_POLE_DISTANCE", math.inf)
    seed = 7
    rng = make_rng(seed)
    with pytest.raises(RuntimeError, match=f"for {count} points"):
        sample_spectral_sets(rng, n, count)
    want = make_rng(seed)
    want.random(sampling._MAX_TRIES * 2 * count)
    assert rng.bit_generator.state == want.bit_generator.state


def test_rejection_limit_counts_the_rejections_after_the_last_kept_set(monkeypatch):
    # about half of all 2-point sets are rejected and a set gets three
    # tries: a batch must give up exactly where the one-set draws do, its
    # count of consecutive rejections running on across redraws
    monkeypatch.setattr(sampling, "MIN_POLE_DISTANCE", 1.0)
    monkeypatch.setattr(sampling, "_MAX_TRIES", 3)
    outcomes = set()
    for seed in range(80):
        rng, ref = make_rng(seed), make_rng(seed)
        try:
            got = sample_spectral_sets(rng, 6, 2).tolist()
        except RuntimeError:
            got = None
        try:
            want = [_set_reference(ref, 2) for _ in range(6)]
        except RuntimeError:
            want = None
        assert got == want
        assert rng.bit_generator.state == ref.bit_generator.state
        outcomes.add(got is None)
    assert outcomes == {True, False}
