import cmath

import numpy as np
import pytest

from sixvertex import asymptotics
from sixvertex.asymptotics import (
    apply_p,
    asymptotic_norm,
    b_top_coefficient,
    check_f_top_matches_b,
    check_norm_consistency,
    check_ordering_sum,
    check_p_relations,
    check_zbar_leading,
    f_top,
    from_half_exponents,
    p_operator,
    q_factorial,
    vacuum_sandwich_p_chain,
)
from sixvertex.errors import SizeLimitExceeded
from sixvertex.partition import standard_symbolic_params, z_algebraic
from sixvertex.scalar import LaurentPoly, invert, poly_eval, q_var, w_var
from sixvertex.vertex import matrix_is_zero
from sixvertex.sampling import sample_point, sample_spectral_set

Q = LaurentPoly.var(q_var())


def test_q_factorial_values():
    assert q_factorial(1, Q) == LaurentPoly.one()
    assert q_factorial(2, Q) == 1 + Q ** 2
    assert q_factorial(3, Q) == (1 + Q ** 2) * (1 + Q ** 2 + Q ** 4)
    # classical limit
    assert abs(q_factorial(4, 1.0 + 0j) - 24) < 1e-12


def test_asymptotic_norm_values():
    c = (Q - invert(Q)) / 2
    assert asymptotic_norm(1, Q) == c
    assert asymptotic_norm(2, Q) == (Q - invert(Q)) ** 2 * (1 + Q ** 2) / 16
    want3 = (Q - invert(Q)) ** 3 * (1 + Q ** 2) * (1 + Q ** 2 + Q ** 4) / 2 ** 9
    assert asymptotic_norm(3, Q) == want3


def test_half_exponent_embedding():
    p = Q ** 2 - invert(Q)
    embedded = p.substitute({q_var(): Q ** 2})
    assert from_half_exponents(embedded) == p
    with pytest.raises(ValueError):
        from_half_exponents(Q)  # odd power of s


def test_f_top_l1_is_c_lowering():
    w1 = LaurentPoly.var(w_var(1))
    m = f_top(1, [w1], Q, 1)
    c = (Q - invert(Q)) / 2
    assert m[1, 0] == c
    assert m[0, 0].is_zero() and m[0, 1].is_zero() and m[1, 1].is_zero()


def test_f_top_matches_monodromy_top():
    for L in (1, 2):
        assert check_f_top_matches_b(L).passed


def test_f_top_float_agrees_with_exact(rng):
    L = 2
    _, mus_sym, _ = standard_symbolic_params(L)
    q = sample_point(rng)
    ws = sample_spectral_set(rng, L)
    exact = f_top(1, mus_sym, Q, L)
    num = f_top(1, ws, q, L)
    assignment = {w_var(1): ws[0], w_var(2): ws[1], q_var(): q}
    for r in range(4):
        for c in range(4):
            want = poly_eval(exact[r, c], assignment)
            assert abs(num[r, c] - want) <= 1e-12 * max(abs(want), 1.0)


def test_sandwich_value():
    for L in (2, 3, 4):
        got = vacuum_sandwich_p_chain(L)
        assert got == Q ** (L * (L - 1) // 2)


def test_p_relations():
    for L in (2, 3, 4):
        out = check_p_relations(L)
        assert out.passed, out.details


def test_p_relations_float():
    for L in (1, 2, 3, 4, 5):
        out = check_p_relations(L, q=1.3 - 0.4j)
        assert out.passed and not out.exact, (L, out.details)


@pytest.mark.parametrize("q, error, passed", [
    pytest.param(1.3 - 0.4j, 1e-10, True, id="1e-10-True"),
    pytest.param(1.3 - 0.4j, 1e-6, False, id="1e-06-False"),
    # exact: the sandwich doubled fails the exact verdict, by name
    pytest.param(Q, 1, False, id="exact"),
])
def test_p_relations_float_reports_its_worst_relation(q, error, passed, monkeypatch):
    out = check_p_relations(3, q)
    assert out.passed and out.exact == isinstance(q, LaurentPoly)
    if not out.exact:
        assert out.residual <= out.tolerance * out.scale
        assert None not in (out.residual, out.scale, out.tolerance)
        assert out.details["worst"] != "vacuum sandwich"
    sandwich = asymptotics.vacuum_sandwich_p_chain
    monkeypatch.setattr(asymptotics, "vacuum_sandwich_p_chain",
                        lambda L, q: sandwich(L, q) * (1 + error))
    out = check_p_relations(3, q)
    assert out.passed == passed
    if out.exact:
        assert out.details == {"failed": ["vacuum sandwich"]}
        return
    assert out.details["worst"] == "vacuum sandwich"
    assert out.tolerance == 1e-9 and out.residual == pytest.approx(error * out.scale)
    assert out.details.get("failed", []) == ([] if passed else ["vacuum sandwich"])


def test_ordering_sum_float(rng):
    # the float route of the q-counting prefactor, [L]_{q^-2}! at q^-1 = 1/q
    q = sample_point(rng)
    for L in (1, 2, 3, 4, 5):
        out = check_ordering_sum(L, q)
        assert out.passed and not out.exact and out.residual <= 1e-9 * out.scale, L


@pytest.mark.parametrize("call", [
    lambda q: f_top(1, [LaurentPoly.var(w_var(1)), LaurentPoly.var(w_var(2))], q, 2),
    lambda q: apply_p(1, 2, np.array([LaurentPoly.one()] + [LaurentPoly.zero()] * 3), q),
    lambda q: p_operator(1, 2, q),
    lambda q: check_p_relations(2, q),
    lambda q: check_ordering_sum(2, q),
    lambda q: vacuum_sandwich_p_chain(2, q),
])
def test_rational_exact_q_is_refused(call):
    # an exact q other than the symbolic one has no s-ring to work in; read
    # as the symbol, it would give the symbolic-q entries for q = 2
    with pytest.raises(ValueError, match="symbolic q"):
        call(LaurentPoly.rational(2))
    call(Q)


def test_p_squares_any_size():
    m = p_operator(1, 4)
    assert matrix_is_zero(m @ m)


def test_ordering_sum():
    for L in (1, 2, 3):
        assert check_ordering_sum(L).passed
    with pytest.raises(SizeLimitExceeded):
        check_ordering_sum(6)


def test_ordering_sum_l2_explicit():
    p1 = p_operator(1, 2)
    p2 = p_operator(2, 2)
    lhs = p1 @ p2 + p2 @ p1
    # prefactor 1 + q^-2 in the half-exponent ring: 1 + s^-4
    pref = LaurentPoly.one() + LaurentPoly.var(q_var(), -4)
    assert matrix_is_zero(lhs - (p1 @ p2) * pref)


def test_norm_consistency_brute_force():
    for L in (2, 3, 4):
        assert check_norm_consistency(L).passed


def test_f_top_product_sandwich_l2():
    _, mus, q = standard_symbolic_params(2)
    prod = f_top(1, mus, q, 2) @ f_top(2, mus, q, 2)
    assert prod[3, 0] == asymptotic_norm(2, Q)


def test_partition_leading_coefficient():
    for L in (1, 2, 3):
        assert check_zbar_leading(L).passed


def test_b_top_coefficient_shape():
    m = b_top_coefficient(1, 1)
    c = (Q - invert(Q)) / 2
    assert m[1, 0] == c


def test_asymptotic_law_float(rng):
    # scaling every x_i by t isolates the top coefficient at rate 1/t
    L = 3
    q = 1.2 + 0.3j
    base_u = sample_spectral_set(rng, L)
    mus = sample_spectral_set(rng, L)
    want = asymptotic_norm(L, q)

    def deviation(t):
        s = cmath.sqrt(t)
        lams = [s * u for u in base_u]
        zbar = z_algebraic(lams, mus, q)
        for i in range(L):
            zbar *= (lams[i] / mus[i]) ** (L - 1)
        denom = 1.0 + 0j
        for i in range(L):
            denom *= (t * (base_u[i] / mus[i]) ** 2) ** (L - 1)
        return abs(zbar / denom - want) / abs(want)

    d3, d9 = deviation(1e3), deviation(1e9)
    assert d3 <= 1e-1           # already close at t = 10^3
    assert d9 <= 1e-6           # and within 1e-6 once t beats the 1/t rate
    assert d9 <= d3 * 1e-4      # the decay really is ~1/t


def _kron_p(j, L, q=None):
    """P_j = K x ... x K x X- x K^-1 x ... x K^-1 by an np.kron chain of the
    2x2 generators: a route that shares nothing with apply_p.  Exact entries
    are in the half-exponent ring (q = s^2), like p_operator's."""
    if q is None:
        s, si = LaurentPoly.var(q_var(), 1), LaurentPoly.var(q_var(), -1)
        zero, one, dt = LaurentPoly.zero(), LaurentPoly.one(), object
    else:
        s = cmath.sqrt(q)
        si, zero, one, dt = 1 / s, 0j, 1 + 0j, complex
    K = np.array([[s, zero], [zero, si]], dtype=dt)
    Ki = np.array([[si, zero], [zero, s]], dtype=dt)
    Xm = np.array([[zero, zero], [one, zero]], dtype=dt)
    out = np.array([[one]], dtype=dt)
    for m in [K] * (j - 1) + [Xm] + [Ki] * (L - j):
        out = np.kron(out, m)
    return out


def test_p_operator_vs_kron_chain_exact():
    for L in (1, 2, 3, 4):
        for j in range(1, L + 1):
            got, want = p_operator(j, L), _kron_p(j, L)
            assert got.shape == want.shape
            assert all(x == y for x, y in zip(got.flat, want.flat)), (L, j)


def test_p_operator_vs_kron_chain_float(rng):
    q = 1.3 - 0.4j
    for L in (1, 2, 3, 4, 5):
        for j in range(1, L + 1):
            want = _kron_p(j, L, q)
            assert np.abs(p_operator(j, L, q) - want).max() <= 1e-14 * np.abs(want).max()
            batch = rng.standard_normal((2 ** L, 3)) + 1j * rng.standard_normal((2 ** L, 3))
            for x in (batch, batch[:, 0]):
                ref = want @ x
                assert np.abs(apply_p(j, L, x, q) - ref).max() <= 1e-14 * np.abs(ref).max()
