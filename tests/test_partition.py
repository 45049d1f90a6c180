import cmath
import itertools
import math

import pytest

from sixvertex.errors import SizeLimitExceeded
from sixvertex.partition import (
    EdgeConvention,
    count_configs,
    iter_dwbc_configs,
    polynomial_structure_report,
    standard_symbolic_params,
    z_algebraic,
    z_enumerate,
)
from sixvertex.scalar import invert
from sixvertex.vertex import weights_of
from sixvertex.sampling import make_rng, sample_point, sample_spectral_set


def test_config_counts_pruned():
    assert [count_configs(L) for L in (1, 2, 3, 4, 5)] == [1, 2, 7, 42, 429]


def test_config_counts_naive_small():
    assert count_configs(1, "naive") == 1
    assert count_configs(2, "naive") == 2
    assert count_configs(3, "naive") == 7


def test_size_limits():
    with pytest.raises(SizeLimitExceeded):
        count_configs(7)
    with pytest.raises(SizeLimitExceeded):
        count_configs(5, "naive")
    with pytest.raises(SizeLimitExceeded):
        z_enumerate([1.0] * 5, [1.0] * 5, 2.0, "naive")


def test_configs_satisfy_invariants():
    for cfg in iter_dwbc_configs(3):
        assert cfg.satisfies_dwbc()
        assert cfg.satisfies_ice_rule()


def test_forcing_identity_l1():
    lams, mus, q = standard_symbolic_params(1)
    c = (q - invert(q)) / 2
    assert z_algebraic(lams, mus, q) == c
    assert z_enumerate(lams, mus, q, "pruned") == c
    assert z_enumerate(lams, mus, q, "naive") == c


def test_oracle_equivalence_exact():
    for L in (1, 2, 3):
        lams, mus, q = standard_symbolic_params(L)
        za = z_algebraic(lams, mus, q)
        assert z_enumerate(lams, mus, q, "pruned") == za
        assert z_enumerate(lams, mus, q, "naive") == za


def test_oracle_equivalence_float(rng):
    for L in (4, 5):
        for _ in range(5):
            lams = sample_spectral_set(rng, L)
            mus = sample_spectral_set(rng, L)
            q = sample_point(rng)
            za = z_algebraic(lams, mus, q)
            zp = z_enumerate(lams, mus, q, "pruned")
            assert abs(za - zp) <= 1e-9 * abs(za)


def test_l2_enumeration_matches_algebraic_tight(rng):
    lams = sample_spectral_set(rng, 2)
    mus = sample_spectral_set(rng, 2)
    q = sample_point(rng)
    za = z_algebraic(lams, mus, q)
    zp = z_enumerate(lams, mus, q)
    assert abs(za - zp) <= 1e-10 * abs(za)


def test_ice_point_counts_configurations():
    # at a = b = c every configuration contributes c^(L^2)
    q = cmath.exp(1j * math.pi / 3)
    z = cmath.exp(1j * math.pi / 3)
    lams = [z, z, z]
    mus = [1.0, 1.0, 1.0]
    c = weights_of(1, q).c
    val = z_algebraic(lams, mus, q) / c ** 9
    assert abs(val - 7) < 1e-10


def test_lambda_permutation_symmetry_exact():
    for L in (2, 3):
        lams, mus, q = standard_symbolic_params(L)
        base = z_algebraic(lams, mus, q)
        for perm in itertools.permutations(lams):
            assert z_algebraic(list(perm), mus, q) == base


def test_mu_permutation_symmetry_exact():
    lams, mus, q = standard_symbolic_params(3)
    base = z_algebraic(lams, mus, q)
    for perm in itertools.permutations(mus):
        assert z_algebraic(lams, list(perm), q) == base
    assert z_enumerate(lams, list(reversed(mus)), q) == base


def test_lambda_permutation_symmetry_float(rng):
    L = 4
    lams = sample_spectral_set(rng, L)
    mus = sample_spectral_set(rng, L)
    q = sample_point(rng)
    base = z_algebraic(lams, mus, q)
    for _ in range(20):
        perm = list(rng.permutation(L))
        val = z_algebraic([lams[i] for i in perm], mus, q)
        assert abs(val - base) <= 1e-9 * abs(base)


def test_polynomial_structure():
    for L in (1, 2, 3):
        rep = polynomial_structure_report(L)
        assert rep.ok
        for lo, hi in rep.degrees.values():
            assert lo >= 0 and hi == 2 * (L - 1)


def test_convention_full_flip_is_symmetry():
    lams, mus, q = standard_symbolic_params(2)
    flipped = EdgeConvention(right=0, left=1, down=1, up=0)
    assert z_enumerate(lams, mus, q, conv=flipped) == z_algebraic(lams, mus, q)


def test_convention_vertical_only_flip_fails_forcing():
    lams, mus, q = standard_symbolic_params(1)
    c = (q - invert(q)) / 2
    bad = EdgeConvention(right=1, left=0, down=1, up=0)
    assert z_enumerate(lams, mus, q, conv=bad) != c


def test_convention_validation():
    with pytest.raises(ValueError):
        EdgeConvention(right=1, left=1, down=0, up=1)


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        z_algebraic([1.0], [1.0, 2.0], 2.0)


def test_oracle_equivalence_float_l6():
    # L = 6 is the largest pruned-enumeration size and the benchmark's float size
    for seed in (1, 2, 3):
        rng = make_rng(seed)
        lams = sample_spectral_set(rng, 6)
        mus = sample_spectral_set(rng, 6)
        q = sample_point(rng)
        za = z_algebraic(lams, mus, q)
        zp = z_enumerate(lams, mus, q, "pruned")
        assert abs(za - zp) <= 1e-9 * abs(za)
