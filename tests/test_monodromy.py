import itertools
import warnings

import numpy as np
import pytest

from sixvertex.errors import CoincidingSpectralPoints, DimensionMismatch
from sixvertex.monodromy import (
    _apply_T,
    apply_block,
    b_product,
    b_products,
    batch_monodromy,
    build_monodromy,
    check_commutation,
    check_rtt,
    check_triangular,
    dual_vacuum,
    rtt_residual,
    triangular_action_residuals,
    vacuum,
)
from sixvertex.scalar import EXACT, FLOAT, LaurentPoly, backend_of, invert, q_var, u_var, w_var
from sixvertex.vertex import build_R, matrix_is_zero, weights_of
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
    out = apply_block(m, "C", vacuum(3, FLOAT))
    scale = np.abs(np.asarray(m.block("A"), dtype=complex)).max()
    assert np.abs(out).max() <= 1e-14 * scale


def test_triangular_exact_all_sizes():
    for L in (1, 2, 3):
        out = check_triangular(LaurentPoly.var(u_var(9)), _sym_mus(L), Q)
        assert out.passed


def test_triangular_float_fails_when_nonzero_actions_fall_under_tolerance(rng):
    # with tolerance 1 every action lies under tolerance * scale (the scale is
    # the sum of all eight action norms), so B|0> and C|0bar> no longer count
    # as present and the check must fail although the vanishing part passes
    u = sample_spectral_set(rng, 1)[0]
    mus, q = sample_spectral_set(rng, 3), sample_point(rng)
    assert check_triangular(u, mus, q).passed
    out = check_triangular(u, mus, q, tolerance=1.0)
    assert not out.exact and out.residual <= out.scale
    assert not out.passed


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


def test_apply_block_sweeps_a_real_vector_in_complex():
    # a float64 vector takes the backend's complex arrays, so that no weight
    # product is cast to a real number on the way
    m = build_monodromy(1.3 + 0.4j, [0.7 - 0.2j, 1.1 + 0.5j], 0.9 + 0.3j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = apply_block(m, "B", np.array([1.0, 0, 0, 0]))
    want = apply_block(m, "B", np.array([1.0, 0, 0, 0], dtype=complex))
    assert got.dtype == complex and np.array_equal(got, want)
    assert np.allclose(want, [0, -0.3083 + 0.0734j, 0.0349 + 0.0437j, 0], atol=1e-4)


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
        basis = [np.roll(vacuum(m.size, m.backend), j) for j in range(2 ** m.size)]
        for name in ("A", "B", "C", "D"):
            per_column = np.stack([apply_block(m, name, e) for e in basis], axis=1)
            assert _agree(m.block(name), per_column, m.backend.exact)
            batch = apply_block(m, name, np.stack(vecs, axis=1))
            singles = np.stack([apply_block(m, name, v) for v in vecs], axis=1)
            assert _agree(batch, singles, m.backend.exact)


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
    out = check_rtt(pts[0], pts[1], mus, sample_point(rng), tolerance=1e-9, rng=rng)
    assert out.passed


def _lift_reference(blocks, slot, exact):
    """The 2x2 aux matrix of blocks as a dense operator on aux1 x aux2 x 2^L,
    acting on aux factor ``slot``: aux index 2 a1 + a2, most significant."""
    dim = blocks["A"].shape[0]
    out = np.full((4 * dim, 4 * dim), LaurentPoly.zero() if exact else 0j,
                  dtype=object if exact else complex)
    for r in range(2):
        for c in range(2):
            E = np.zeros((2, 2))
            E[r, c] = 1.0
            aux = np.kron(E, np.eye(2)) if slot == 0 else np.kron(np.eye(2), E)
            for ar, ac in zip(*np.nonzero(aux)):
                out[ar * dim:(ar + 1) * dim, ac * dim:(ac + 1) * dim] = blocks["ABCD"[2 * r + c]]
    return out


def _rtt_reference(u, v, ws, q):
    """R T1(u) T2(v) and T1(v) T2(u) R as dense matrices, from the kron-built
    blocks, the dense lift and R x 1 by np.kron."""
    exact = isinstance(u, LaurentPoly)
    Tu, Tv = _kron_reference(u, ws, q), _kron_reference(v, ws, q)
    R = np.kron(build_R(u * invert(v), q), backend_of(u).eye(2 ** len(ws)))
    lhs = R @ (_lift_reference(Tu, 0, exact) @ _lift_reference(Tv, 1, exact))
    rhs = (_lift_reference(Tv, 0, exact) @ _lift_reference(Tu, 1, exact)) @ R
    return lhs, rhs


def test_rtt_batch_route_vs_dense_lift_exact():
    u, v = LaurentPoly.var(u_var(90)), LaurentPoly.var(u_var(91))
    for L in (1, 2):
        mus = _sym_mus(L)
        ident = EXACT.eye(4 * 2 ** L)
        for w in (u, v):
            ref = _kron_reference(w, mus, Q)
            for slot in (0, 1):
                got = _apply_T(build_monodromy(w, mus, Q), slot, ident)
                assert _agree(got, _lift_reference(ref, slot, True), True), (L, slot)
        lhs, rhs = _rtt_reference(u, v, mus, Q)
        res, scale = rtt_residual(u, v, mus, Q, ident)
        assert scale is None and _agree(res, lhs - rhs, True)
        assert matrix_is_zero(res)


def test_rtt_batch_route_vs_dense_lift_float(rng):
    L = 3
    u, v = sample_spectral_set(rng, 2)
    mus = sample_spectral_set(rng, L)
    q = sample_point(rng)
    ident = FLOAT.eye(4 * 2 ** L)
    for w in (u, v):
        ref = _kron_reference(w, mus, q)
        for slot in (0, 1):
            got = _apply_T(build_monodromy(w, mus, q), slot, ident)
            assert _agree(got, _lift_reference(ref, slot, False), False, rel=1e-12)
    lhs, rhs = _rtt_reference(u, v, mus, q)
    probes = rng.standard_normal((4 * 2 ** L, 8)) + 1j * rng.standard_normal((4 * 2 ** L, 8))
    for x in (ident, probes, probes[:, 0]):
        res, scale = rtt_residual(u, v, mus, q, x)
        want = float(np.abs(lhs @ x).sum() + np.abs(rhs @ x).sum())
        assert abs(scale - want) <= 1e-12 * want
        assert np.abs(res - (lhs - rhs) @ x).max() <= 1e-12 * scale


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


def _batch(points, mus, q):
    """The batch monodromy of the points, from each point's own monodromy's weights."""
    return batch_monodromy(np.array([[(w.a, w.b, w.c) for w in build_monodromy(p, mus, q).weights]
                                     for p in points]))


@pytest.mark.parametrize("L", range(1, 7))
def test_batched_b_products_are_bitwise_the_per_set_product(L):
    # one sweep per operator over a batch of point sets gives each column
    # byte for byte as the one-set product; k = 1 is a batch too
    rng = np.random.default_rng(L)
    mus = sample_spectral_set(rng, L)
    q = sample_point(rng)
    for m, k in ((L, 9), (L - 1, 4), (L, 1)):
        sets = [sample_spectral_set(rng, m) for _ in range(k)]
        ms = [_batch([s[r] for s in sets], mus, q) for r in range(m)]
        got = b_products(ms, np.repeat(vacuum(L, FLOAT)[:, None], k, axis=1))
        assert got.shape == (2 ** L, k)
        for i, s in enumerate(sets):
            assert got[:, i].tobytes() == b_product(s, mus, q).tobytes()


@pytest.mark.parametrize("L", [1, 2, 3])
def test_exact_batched_b_products_equal_the_per_set_product(L):
    # the exact batch carries object arrays of the same weights, so each
    # column is the one-set product as polynomials; k = 1 is a batch too
    mus = _sym_mus(L)
    for m, k in ((L, 3), (L - 1, 2), (L, 1)):
        sets = [_sym(m, start=1 + 10 * i) for i in range(k)]
        ms = [_batch([s[r] for s in sets], mus, Q) for r in range(m)]
        assert all(mono.backend.exact for mono in ms)
        got = b_products(ms, np.repeat(vacuum(L)[:, None], k, axis=1))
        assert got.dtype == object and got.shape == (2 ** L, k)
        for i, s in enumerate(sets):
            assert list(got[:, i]) == list(b_product(s, mus, Q))
