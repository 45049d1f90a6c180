import cmath
import gc
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from sixvertex import partition
from sixvertex.errors import SizeLimitExceeded
from sixvertex.partition import (
    DEFAULT_CONVENTION,
    EdgeConvention,
    LatticeConfig,
    _dwbc_kinds,
    _naive_kinds,
    count_configs,
    iter_dwbc_configs,
    polynomial_structure_report,
    standard_symbolic_params,
    z_algebraic,
    z_enumerate,
)
from sixvertex.scalar import LaurentPoly, invert, q_var, u_var
from sixvertex.vertex import build_L, weights_of
from sixvertex.sampling import make_rng, pairwise_sum, sample_point, sample_spectral_set


def test_config_counts_pruned():
    assert [count_configs(L) for L in (1, 2, 3, 4, 5, 6)] == [1, 2, 7, 42, 429, 7436]


def test_config_counts_naive_small():
    assert count_configs(1, "naive") == 1
    assert count_configs(2, "naive") == 2
    assert count_configs(3, "naive") == 7
    assert count_configs(4, "naive") == 42


def _dfs_configs(L, conv):
    """Reference order: vertices fixed row-major, a_out = 0 tried before 1, a
    branch abandoned at its first ice-rule or boundary violation."""
    alpha = [[conv.right] + [None] * L for _ in range(L)]
    beta = [[conv.down] * L] + [[None] * L for _ in range(L)]
    found = []

    def rec(k):
        if k == L * L:
            found.append(LatticeConfig(tuple(map(tuple, alpha)), tuple(map(tuple, beta))))
            return
        i, j = divmod(k, L)
        for a_out in (0, 1):
            b_out = alpha[i][j] + beta[i][j] - a_out
            if b_out in (0, 1) and (j < L - 1 or a_out == conv.left) and (
                    i < L - 1 or b_out == conv.up):
                alpha[i][j + 1], beta[i + 1][j] = a_out, b_out
                rec(k + 1)

    rec(0)
    return found


def test_table_order_is_the_recursive_depth_first_order():
    for conv in (DEFAULT_CONVENTION, EdgeConvention(right=0, left=1, down=1, up=0)):
        for L in (1, 2, 3, 4):
            want = _dfs_configs(L, conv)
            assert list(iter_dwbc_configs(L, conv)) == want
            assert len(want) == [1, 2, 7, 42][L - 1]
    # flipping only the vertical encoding leaves no valid configuration
    assert list(iter_dwbc_configs(1, EdgeConvention(right=1, left=0, down=1, up=0))) == []


def test_naive_table_holds_the_pruned_configurations():
    for L in (1, 2, 3, 4):
        naive = list(iter_dwbc_configs(L, mode="naive"))
        assert len(set(naive)) == len(naive) == count_configs(L, "naive") == count_configs(L)
        # the same configurations, and in the same order
        assert naive == list(iter_dwbc_configs(L))
    rng = make_rng(44)
    lams, mus, q = sample_spectral_set(rng, 4), sample_spectral_set(rng, 4), sample_point(rng)
    zp = z_enumerate(lams, mus, q)
    assert z_enumerate(lams, mus, q, "naive") == zp


def test_configuration_tables_are_read_only():
    for table in (_dwbc_kinds(4, DEFAULT_CONVENTION), _naive_kinds(3, DEFAULT_CONVENTION)):
        assert table.dtype == np.uint8 and not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0
    assert _dwbc_kinds(6, DEFAULT_CONVENTION).shape == (36, 7436)


def test_size_limits():
    with pytest.raises(SizeLimitExceeded):
        count_configs(7)
    with pytest.raises(SizeLimitExceeded):
        count_configs(5, "naive")
    with pytest.raises(SizeLimitExceeded):
        z_enumerate([1.0] * 5, [1.0] * 5, 2.0, "naive")
    # the limit is checked before any weight is built from the inputs
    junk = [object()] * 7
    with pytest.raises(SizeLimitExceeded):
        z_enumerate(junk, junk, None, "pruned")
    with pytest.raises(SizeLimitExceeded):
        z_enumerate(junk[:5], junk[:5], None, "naive")


def test_symbolic_exact_sum_is_refused_past_l4(monkeypatch):
    # an exact sum past L = 4 with a variable in any weight is refused
    # before its first prefix product, which would exhaust memory: with
    # _config_weight refusing, a sum that got that far fails the test fast
    def refuse(*args):
        raise AssertionError("a configuration weight was formed")

    monkeypatch.setattr(partition, "_config_weight", refuse)
    numbers = [LaurentPoly.rational(k + 2) for k in range(6)]
    for L in (5, 6):
        lams, mus, q = standard_symbolic_params(L)
        with pytest.raises(SizeLimitExceeded, match="symbolic"):
            z_enumerate(lams, mus, q)
        # one variable, in q or in one point, is enough
        for points, q_in in ((numbers[:L], q), ([lams[0], *numbers[1:L]], Fraction(7, 5))):
            with pytest.raises(SizeLimitExceeded, match="symbolic"):
                z_enumerate(points, numbers[:L], q_in)


def test_numeric_exact_routes_agree_at_l5():
    # exact numbers past L = 4 still take the configuration sum; negative
    # control: another q changes it
    for number in (Fraction, LaurentPoly.rational):
        lams = [number(Fraction(p)) for p in (2, 3, 5, 7, 11)]
        mus = [number(Fraction(k, k + 1)) for k in range(1, 6)]
        q = number(Fraction(7, 5))
        za = z_algebraic(lams, mus, q)
        assert z_enumerate(lams, mus, q) == za and not za.variables()
        assert z_enumerate(lams, mus, number(Fraction(7, 4))) != za


def test_configs_satisfy_invariants():
    for L in (3, 4):
        configs = list(iter_dwbc_configs(L))
        assert len(set(configs)) == len(configs) == count_configs(L)
        for cfg in configs:
            assert cfg.size == L
            assert cfg.satisfies_dwbc()
            assert cfg.satisfies_ice_rule()


def test_enumeration_leaves_no_reference_cycles():
    # a cycle keeps each call's list of weights alive until the cyclic collector runs
    rng = make_rng(1)
    lams = sample_spectral_set(rng, 4)
    mus = sample_spectral_set(rng, 4)
    q = sample_point(rng)
    z_enumerate(lams, mus, q)
    gc.collect()
    gc.disable()
    try:
        z_enumerate(lams, mus, q)
        count_configs(4)
        list(iter_dwbc_configs(3))
        assert gc.collect() == 0
    finally:
        gc.enable()


def _row_major_sum(configs, lams, mus, q):
    """Reference float Z: each configuration's weight multiplied vertex by
    vertex in row-major order, then one pairwise sum in configuration order."""
    tables = [[build_L(lam * invert(mu), q).tolist() for mu in mus] for lam in lams]
    terms = []
    for cfg in configs:
        acc = None
        for i in range(cfg.size):
            for j in range(cfg.size):
                w = tables[i][j][2 * cfg.alpha[i][j + 1] + cfg.beta[i + 1][j]][
                    2 * cfg.alpha[i][j] + cfg.beta[i][j]]
                acc = w if acc is None else acc * w
        terms.append(acc)
    return pairwise_sum(terms)


def test_pairwise_sum_pairs_like_the_list_loop():
    def reference(vals):
        vals = list(vals)
        while len(vals) > 1:
            nxt = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
            if len(vals) % 2:
                nxt.append(vals[-1])
            vals = nxt
        return vals[0]

    rng = make_rng(5)
    for n in (1, 2, 3, 7, 42, 429, 1000):
        vals = [complex(x, y) * 10.0 ** e for x, y, e in zip(
            rng.standard_normal(n), rng.standard_normal(n), rng.integers(-8, 8, n))]
        got = pairwise_sum(vals)
        assert type(got) is complex and repr(got) == repr(reference(vals))
    assert pairwise_sum([]) == 0.0


@pytest.mark.parametrize("mode", ["pruned", "naive"])
def test_enumerated_sum_is_bitwise_the_per_configuration_sum(mode):
    for L in range(1, partition._SIZE_LIMITS[mode] + 1):
        configs = list(iter_dwbc_configs(L, mode=mode))
        for seed in (1, 2) if L == 6 else (1, 2, 3):
            rng = make_rng(100 * L + seed)
            lams = sample_spectral_set(rng, L)
            mus = sample_spectral_set(rng, L)
            q = sample_point(rng)
            want = _row_major_sum(configs, lams, mus, q)
            got = z_enumerate(lams, mus, q, mode)
            assert got == want and repr(got) == repr(want)


def test_row_tree_shares_each_partial_configuration():
    # the distinct partial configurations after each row; the last row's
    # are the configurations, and every partial's kinds and its parent's
    # rebuild the configuration table column by column
    sizes = {(6, "pruned"): [6, 50, 406, 2394, 7436, 7436], (4, "naive"): [4, 16, 42, 42]}
    for (L, mode), want in sizes.items():
        tree = partition._row_tree(L, mode, DEFAULT_CONVENTION)
        assert [kinds.shape[1] for _, kinds in tree] == want
        assert all(kinds.dtype == np.uint8 and not kinds.flags.writeable for _, kinds in tree)
        rebuilt = tree[0][1]
        for parent, kinds in tree[1:]:
            rebuilt = np.concatenate([rebuilt[:, parent], kinds])
        assert np.array_equal(rebuilt, partition._config_table(L, mode, DEFAULT_CONVENTION))
    # small beside the table it is derived from
    tree = partition._row_tree(6, "pruned", DEFAULT_CONVENTION)
    assert sum(k.nbytes + (p.nbytes if p is not None else 0) for p, k in tree) < 300_000


def test_exact_enumeration_multiplies_each_partial_once(monkeypatch):
    # symbolic z_enumerate at L = 4: 16 lam/mu quotients and 16 z*q for the
    # weights, then the row tree's prefix products through vertex 14:
    # 4 x 3 + 16 x 4 + 42 x 4 in rows 1-3 and 42 x 3 in the last row (370),
    # not 42 configurations x 14 multiplies (588)
    mul = LaurentPoly.__mul__
    calls = []

    def spy(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(LaurentPoly, "__mul__", spy)
    got = z_enumerate(*standard_symbolic_params(4))
    assert len(calls) == 32 + 370
    # Z's 41,508 terms; both routes agree exactly at L <= 3 in
    # test_oracle_equivalence_exact, at L = 4 in scripts/run_checks.py
    assert got.num_terms() == 41508


@pytest.mark.parametrize("q", [LaurentPoly.var(q_var()), Fraction(7, 5), 0.5 + 1j])
def test_empty_lattice_has_one_configuration_of_weight_one(q):
    # L = 0: one (empty) configuration with the empty product, as the
    # operator route's empty product of B's
    one = z_algebraic([], [], q)
    assert one == 1
    for mode in ("pruned", "naive"):
        assert count_configs(0, mode) == 1
        got = z_enumerate([], [], q, mode)
        assert got == one and isinstance(got, LaurentPoly) == isinstance(one, LaurentPoly)


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
        assert rep.passed
        for lo, hi in rep.details["degrees"].values():
            assert lo >= 0 and hi == 2 * (L - 1)


@pytest.mark.parametrize("power", [1, 2])
def test_polynomial_structure_flags_a_shifted_z(power, monkeypatch):
    # Z u1 has odd u1 exponents, Z u1^2 even ones; both reach past 2(L - 1)
    z = partition.z_algebraic
    u1 = LaurentPoly.var(u_var(1))
    monkeypatch.setattr(partition, "z_algebraic", lambda *args: z(*args) * u1 ** power)
    for L in (1, 2, 3):
        rep = polynomial_structure_report(L)
        assert not rep.passed and rep.exact
        assert rep.details["all_even"] is (power == 2)
        assert rep.details["within_bounds"] is False


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
