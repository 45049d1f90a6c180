import itertools

import numpy as np
import pytest

from sixvertex.errors import CoincidingSpectralPoints, DimensionMismatch
from sixvertex.monodromy import (
    apply_block,
    build_monodromy,
    check_commutation,
    check_rtt,
    check_triangular,
    dual_vacuum,
    triangular_action_residuals,
    vacuum,
)
from sixvertex.scalar import LaurentPoly, invert, q_var, u_var, w_var
from sixvertex.vertex import matrix_is_zero, weights_of
from sixvertex.sampling import sample_point, sample_spectral_set

Q = LaurentPoly.var(q_var())


def _sym(L, start=1):
    return [LaurentPoly.var(u_var(start + i)) for i in range(L)]


def _sym_mus(L):
    return [LaurentPoly.var(w_var(i)) for i in range(1, L + 1)]


def test_l1_b_block_is_c_lowering():
    u = LaurentPoly.var(u_var(1))
    w = LaurentPoly.var(w_var(1))
    m = build_monodromy(u, [w], Q)
    c = weights_of(u * invert(w), Q).c
    B = m.block("B")
    assert B[1, 0] == c
    assert B[0, 0].is_zero() and B[0, 1].is_zero() and B[1, 1].is_zero()
    assert apply_block(m, "B", vacuum(1))[1] == c  # <0bar|B|0> = c


def test_a_vacuum_eigenvalue_l2():
    u = LaurentPoly.var(u_var(9))
    mus = _sym_mus(2)
    m = build_monodromy(u, mus, Q)
    want = LaurentPoly.one()
    for wv in mus:
        want = want * weights_of(u * invert(wv), Q).a
    got = apply_block(m, "A", vacuum(2))
    assert got[0] == want
    assert all(got[k].is_zero() for k in range(1, 4))


def test_c_annihilates_vacuum_numeric(rng):
    mus = sample_spectral_set(rng, 3)
    m = build_monodromy(sample_point(rng), mus, sample_point(rng))
    out = apply_block(m, "C", vacuum(3, exact=False))
    scale = np.abs(np.asarray(m.block("A"), dtype=complex)).max()
    assert np.abs(out).max() <= 1e-14 * scale


def test_triangular_exact_all_sizes():
    for L in (1, 2, 3):
        out = check_triangular(LaurentPoly.var(u_var(9)), _sym_mus(L), Q)
        assert out.passed


def test_dual_actions_corrected_target():
    # A|0bar> and D|0bar> are proportional to |0bar> itself
    L = 3
    res = triangular_action_residuals(LaurentPoly.var(u_var(9)), _sym_mus(L), Q)
    assert matrix_is_zero(res["A|0bar>"])
    assert matrix_is_zero(res["D|0bar>"])


def test_d_dual_vacuum_eigenvalue_l3():
    u = LaurentPoly.var(u_var(9))
    mus = _sym_mus(3)
    m = build_monodromy(u, mus, Q)
    want = LaurentPoly.one()
    for wv in mus:
        want = want * weights_of(u * invert(wv), Q).a
    got = apply_block(m, "D", dual_vacuum(3))
    assert got[-1] == want


def test_b_product_reaches_dual_vacuum_l2():
    lams = _sym(2)
    mus = _sym_mus(2)
    v = vacuum(2)
    for lam in reversed(lams):
        v = apply_block(build_monodromy(lam, mus, Q), "B", v)
    # prod B |0> = Z |0bar>: all components except the last vanish
    assert all(v[k].is_zero() for k in range(3))
    assert not v[3].is_zero()


def test_b_applied_l_plus_one_times_is_zero():
    L = 2
    mus = _sym_mus(L)
    v = vacuum(L)
    for lam in _sym(L + 1, start=10):
        v = apply_block(build_monodromy(lam, mus, Q), "B", v)
    assert all(entry.is_zero() for entry in v)


def test_apply_block_dimension_mismatch():
    m = build_monodromy(LaurentPoly.var(u_var(1)), _sym_mus(2), Q)
    with pytest.raises(DimensionMismatch):
        apply_block(m, "B", vacuum(3))


def _agree(got, want, exact, rel=1e-14):
    """Entry for entry in the exact backend, else to rel times the largest entry."""
    if exact:
        return got.shape == want.shape and all(x == y for x, y in zip(got.flat, want.flat))
    return got.shape == want.shape and np.abs(got - want).max() <= rel * np.abs(want).max()


def _kron_reference(u, ws, q):
    """The four blocks as dense matrices, by the ordered product of one-site
    factors lifted to the chain with np.kron: a route that shares nothing
    with the sweep but the weights."""
    exact = isinstance(u, LaurentPoly)
    L = len(ws)
    dt = object if exact else complex
    zero = LaurentPoly.zero() if exact else 0j

    def eye(n, one=LaurentPoly.one() if exact else 1 + 0j):
        m = np.full((n, n), zero, dtype=dt)
        for i in range(n):
            m[i, i] = one
        return m

    T = {(0, 0): eye(2 ** L), (0, 1): eye(2 ** L, zero),
         (1, 0): eye(2 ** L, zero), (1, 1): eye(2 ** L)}
    for j, wv in enumerate(ws, start=1):
        w = weights_of(u * invert(wv), q)
        local = {(0, 0): [[w.a, zero], [zero, w.b]], (0, 1): [[zero, zero], [w.c, zero]],
                 (1, 0): [[zero, w.c], [zero, zero]], (1, 1): [[w.b, zero], [zero, w.a]]}
        site = {k: np.kron(np.kron(eye(2 ** (j - 1)), np.array(v, dtype=dt)), eye(2 ** (L - j)))
                for k, v in local.items()}
        T = {(r, c): T[(r, 0)] @ site[(0, c)] + T[(r, 1)] @ site[(1, c)]
             for r in range(2) for c in range(2)}
    return {"A": T[(0, 0)], "B": T[(0, 1)], "C": T[(1, 0)], "D": T[(1, 1)]}


def test_sweep_vs_kron_reference_exact():
    u = LaurentPoly.var(u_var(9))
    for L in (1, 2, 3):
        mus = _sym_mus(L)
        ref = _kron_reference(u, mus, Q)
        m = build_monodromy(u, mus, Q)
        assert m.representation == "matrix-free"
        for name in ("A", "B", "C", "D"):
            assert _agree(m.block(name), ref[name], True)
            assert _agree(apply_block(m, name, vacuum(L)), ref[name] @ vacuum(L), True)


def test_sweep_vs_kron_reference_float(rng):
    for L in (4, 6):
        u = sample_point(rng)
        mus = sample_spectral_set(rng, L)
        q = sample_point(rng)
        ref = _kron_reference(u, mus, q)
        m = build_monodromy(u, mus, q)
        v = rng.standard_normal(2 ** L) + 1j * rng.standard_normal(2 ** L)
        for name in ("A", "B", "C", "D"):
            assert _agree(m.block(name), ref[name], False, rel=1e-12)
            assert _agree(apply_block(m, name, v), ref[name] @ v, False, rel=1e-12)


def test_block_and_batch_match_single_vectors(rng):
    exact_m = build_monodromy(LaurentPoly.var(u_var(9)), _sym_mus(2), Q)
    float_m = build_monodromy(sample_point(rng), sample_spectral_set(rng, 5), sample_point(rng))
    cases = [(exact_m, [vacuum(2), dual_vacuum(2), vacuum(2) * Q + dual_vacuum(2)]),
             (float_m, [rng.standard_normal(32) + 1j * rng.standard_normal(32)
                        for _ in range(3)])]
    for m, vecs in cases:
        basis = [np.roll(vacuum(m.size, m.exact), j) for j in range(2 ** m.size)]
        for name in ("A", "B", "C", "D"):
            per_column = np.stack([apply_block(m, name, e) for e in basis], axis=1)
            assert _agree(m.block(name), per_column, m.exact)
            batch = apply_block(m, name, np.stack(vecs, axis=1))
            singles = np.stack([apply_block(m, name, v) for v in vecs], axis=1)
            assert _agree(batch, singles, m.exact)


def test_rtt_exact_small():
    for L in (1, 2):
        out = check_rtt(LaurentPoly.var(u_var(90)), LaurentPoly.var(u_var(91)),
                        _sym_mus(L), Q)
        assert out.exact and out.passed


def test_rtt_numeric_l4(rng):
    for _ in range(20):
        pts = sample_spectral_set(rng, 2)
        mus = sample_spectral_set(rng, 4)
        out = check_rtt(pts[0], pts[1], mus, sample_point(rng), tolerance=1e-9)
        assert out.passed


def test_rtt_probe_path_l5(rng):
    pts = sample_spectral_set(rng, 2)
    mus = sample_spectral_set(rng, 5)
    out = check_rtt(pts[0], pts[1], mus, sample_point(rng),
                    tolerance=1e-9, rng=rng, probes=4)
    assert out.passed


def test_commutation_exact_l2():
    pts = _sym(2, start=90)
    for rule in ("AB", "DB", "CB", "BB"):
        out = check_commutation(rule, pts[0], pts[1], _sym_mus(2), Q)
        assert out.exact and out.passed


def test_commutation_bb_exact_l3():
    pts = _sym(2, start=90)
    assert check_commutation("BB", pts[0], pts[1], _sym_mus(3), Q).passed


def test_commutation_numeric_l4(rng):
    pts = sample_spectral_set(rng, 2)
    mus = sample_spectral_set(rng, 4)
    out = check_commutation("CB", pts[0], pts[1], mus, sample_point(rng),
                            tolerance=1e-9)
    assert out.passed


def test_commutation_pole_guard(rng):
    mus = sample_spectral_set(rng, 2)
    lam = sample_point(rng)
    with pytest.raises(CoincidingSpectralPoints):
        check_commutation("AB", lam, lam * (1 + 1e-9), mus, sample_point(rng))


def test_b_sandwich_permutation_invariant():
    L = 3
    lams = _sym(L)
    mus = _sym_mus(L)
    def sandwich(order):
        v = vacuum(L)
        for lam in reversed(order):
            v = apply_block(build_monodromy(lam, mus, Q), "B", v)
        return v[-1]
    base = sandwich(lams)
    for perm in itertools.permutations(lams):
        assert sandwich(list(perm)) == base
