import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from sixvertex.errors import (
    DegreeExceeded,
    UnassignedVariable,
    ZeroBaseWithNegativeExponent,
)
from sixvertex.scalar import (
    EXACT,
    FLOAT,
    LaurentPoly,
    RationalFunction,
    _exact_div_univariate,
    _gcd_univariate,
    backend_of,
    invert,
    leading_coeff,
    parse_poly,
    poly_derivative,
    poly_eval,
    q_var,
    u_var,
    w_var,
)

Q = LaurentPoly.var(q_var())
U1 = LaurentPoly.var(u_var(1))
W1 = LaurentPoly.var(w_var(1))

_vars = [u_var(1), u_var(2), w_var(1), q_var()]


@st.composite
def small_polys(draw):
    nterms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(nterms):
        exps = {}
        for v in draw(st.lists(st.sampled_from(_vars), max_size=3)):
            exps[v] = draw(st.integers(-3, 3))
        coeff = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
        key = tuple(sorted((v.key, e) for v, e in exps.items() if e))
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return LaurentPoly(terms)


@given(small_polys(), small_polys())
def test_add_mul_commutative(p, r):
    assert p + r == r + p
    assert p * r == r * p


@given(small_polys(), small_polys(), small_polys())
def test_associative_distributive(p, r, s):
    assert (p + r) + s == p + (r + s)
    assert (p * r) * s == p * (r * s)
    assert p * (r + s) == p * r + p * s


@given(small_polys())
def test_canonical_idempotent(p):
    # rebuilding from the stored terms is the identity
    assert LaurentPoly(dict(p.items())) == p
    assert not any(c == 0 for _, c in p.items())


@given(small_polys())
def test_additive_inverse(p):
    assert (p - p).is_zero()
    assert p + LaurentPoly.zero() == p
    assert p * LaurentPoly.one() == p
    assert (p * LaurentPoly.zero()).is_zero()


@given(small_polys(), small_polys())
def test_eval_is_ring_homomorphism(p, r):
    pt = {u_var(1): 0.7 + 0.4j, u_var(2): -1.1 + 0.2j,
          w_var(1): 0.3 - 0.8j, q_var(): 1.2 + 0.5j}
    lhs = poly_eval(p * r, pt)
    rhs = poly_eval(p, pt) * poly_eval(r, pt)
    scale = abs(poly_eval(p, pt)) * abs(poly_eval(r, pt)) + 1e-30
    assert abs(lhs - rhs) <= 1e-12 * max(scale, 1.0)
    lhs = poly_eval(p + r, pt)
    rhs = poly_eval(p, pt) + poly_eval(r, pt)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1.0)


def test_eval_examples():
    p = U1 - U1.monomial_inverse()
    assert poly_eval(p, {u_var(1): 1.0}) == 0
    c = (Q - Q.monomial_inverse()) / 2
    assert abs(poly_eval(c, {q_var(): 2.0}) - 0.75) < 1e-15


def test_eval_errors():
    with pytest.raises(UnassignedVariable):
        poly_eval(U1 + Q, {u_var(1): 1.0})
    with pytest.raises(ZeroBaseWithNegativeExponent):
        poly_eval(U1.monomial_inverse(), {u_var(1): 0.0})


def test_derivative_rules():
    x = u_var(1)
    assert poly_derivative(U1 ** 2, x) == 2 * U1
    assert poly_derivative(U1.monomial_inverse(), x) == -(U1 ** -2)
    assert poly_derivative(LaurentPoly.one(), x).is_zero()


@given(small_polys(), small_polys())
def test_derivative_linear_leibniz(p, r):
    v = u_var(1)
    assert poly_derivative(p + r, v) == poly_derivative(p, v) + poly_derivative(r, v)
    assert poly_derivative(p * r, v) == \
        poly_derivative(p, v) * r + p * poly_derivative(r, v)


def test_leading_coeff():
    p = 3 * U1 ** 2 * W1 + U1 * W1
    assert leading_coeff(p, [u_var(1)], 2) == 3 * W1
    assert leading_coeff(W1, [u_var(1)], 2).is_zero()
    with pytest.raises(DegreeExceeded):
        leading_coeff(p, [u_var(1)], 1)


def test_zero_is_one_shared_instance():
    z = LaurentPoly.zero()
    assert z is LaurentPoly.zero()
    assert z == LaurentPoly({}) and hash(z) == hash(LaurentPoly({}))
    u = U1 * 3 + W1
    assert (u * 0) is z and (0 * u) is z and z + u == u and u - u == z
    # arithmetic with the shared instance leaves it zero
    assert z.num_terms() == 0 and z == LaurentPoly({})


def test_pow_monomial_inverse():
    m = U1 ** 2 * W1.monomial_inverse()
    assert m * m.monomial_inverse() == LaurentPoly.one()
    assert (U1 ** -3) * (U1 ** 3) == LaurentPoly.one()
    with pytest.raises(ValueError):
        (U1 + W1).monomial_inverse()


def test_substitute():
    z = U1 ** 2 * W1 ** -2
    s = z.substitute({u_var(1): LaurentPoly.var(u_var(9)), w_var(1): Fraction(1)})
    assert s == LaurentPoly.var(u_var(9)) ** 2


def test_text_golden():
    c = (Q - Q.monomial_inverse()) / 2
    assert c.to_text() == "(-1/2)*q^-1 + (1/2)*q^1"
    assert LaurentPoly.zero().to_text() == "0"


@pytest.mark.parametrize("text", ["u1+", "*", "u1**2", "+u1", "u1 + + u2", "u1*", "",
                                  "u1^2_0", "u1^", "u1^2^3"])
def test_parse_rejects_empty_terms_and_factors(text):
    with pytest.raises(ValueError):
        parse_poly(text)


@given(small_polys())
def test_serialization_round_trips(p):
    assert parse_poly(p.to_text()) == p
    assert LaurentPoly.from_json_terms(p.to_json_terms()) == p


@st.composite
def q_polys(draw, nonzero=False):
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        e = draw(st.integers(-3, 3))
        c = draw(st.integers(-5, 5))
        key = ((q_var().key, e),) if e else ()
        terms[key] = terms.get(key, Fraction(0)) + c
    p = LaurentPoly(terms)
    if nonzero and p.is_zero():
        p = p + LaurentPoly.one()
    return p


@given(q_polys(), q_polys(nonzero=True), q_polys(nonzero=True))
def test_rational_function_equivalence(a, b, c):
    # r1 = a/b equals r2 = (a c)/(b c); equality is an equivalence relation
    r1 = RationalFunction(a, b)
    r2 = RationalFunction(a * c, b * c)
    assert r1 == r1
    assert r1 == r2 and r2 == r1
    r3 = RationalFunction(a * c * c, b * c * c)
    assert r2 == r3 and r1 == r3


@given(q_polys(), q_polys(nonzero=True))
def test_rational_function_reduced(a, b):
    r = RationalFunction(a, b)
    assert r.reduced() == r


@given(q_polys(), q_polys(nonzero=True), q_polys(nonzero=True))
def test_rational_function_reduced_is_canonical(a, b, c):
    # a common factor with two or more terms is divided out, so both
    # fractions reduce to the same stored numerator and denominator
    assume(c.num_terms() >= 2)
    r1 = RationalFunction(a * c, b * c).reduced()
    r2 = RationalFunction(a, b).reduced()
    assert r1.num == r2.num and r1.den == r2.den


def test_univariate_division_and_gcd():
    qv = q_var()
    p = (Q ** -2 + 1) * (Q + 3)
    assert _exact_div_univariate(p, Q ** 2 + 1, qv) == Q ** -2 * (Q + 3)
    with pytest.raises(ValueError):
        _exact_div_univariate(p, Q + 1, qv)
    assert _gcd_univariate(p, Q ** 4 - 1, qv) == Q ** 2 + 1
    assert _gcd_univariate(Q + U1, Q + 1, qv) is None


def test_rational_function_arithmetic():
    r = RationalFunction(Q ** 2 - 1, Q - 1)
    assert r == RationalFunction(Q + 1)
    assert r.reduced().den == LaurentPoly.one()
    half = RationalFunction(1, 2)
    assert half + half == RationalFunction(1)
    assert (r - r).is_zero()
    assert RationalFunction(Q) / RationalFunction(Q) == RationalFunction(1)
    with pytest.raises(ZeroDivisionError):
        RationalFunction(Q, LaurentPoly.zero())


def test_solver_partition_polynomial_evaluates_like_enumeration(rng):
    # the exact L=2 polynomial, evaluated at a float point, agrees with the
    # independent configuration sum at that same point
    from sixvertex.partition import standard_symbolic_params, z_algebraic, z_enumerate
    from sixvertex.sampling import sample_point, sample_spectral_set

    lams, mus, q = standard_symbolic_params(2)
    zpoly = z_algebraic(lams, mus, q)
    upts = sample_spectral_set(rng, 2)
    wpts = sample_spectral_set(rng, 2)
    qval = sample_point(rng)
    assignment = {u_var(1): upts[0], u_var(2): upts[1],
                  w_var(1): wpts[0], w_var(2): wpts[1], q_var(): qval}
    want = z_enumerate(upts, wpts, qval)
    got = poly_eval(zpoly, assignment)
    assert abs(got - want) <= 1e-10 * abs(want)


@pytest.mark.parametrize("x", [
    U1, RationalFunction(Q, Q + 1), 3, Fraction(1, 3),
    np.array([LaurentPoly.one(), Q], dtype=object),
])
def test_backend_of_exact_values(x):
    assert backend_of(x) is EXACT


@pytest.mark.parametrize("x", [
    1.5 - 2j, 0.25, np.complex128(1j), np.ones(3, dtype=complex), np.ones((2, 2)),
])
def test_backend_of_float_values(x):
    assert backend_of(x) is FLOAT


@pytest.mark.parametrize("x, want", [(3, Fraction(1, 3)), (-2, Fraction(-1, 2)),
                                     (Fraction(5, 2), Fraction(2, 5))])
def test_invert_keeps_exact_numbers_exact(x, want):
    # an int or a Fraction counts as exact, so its inverse is a Fraction
    got = invert(x)
    assert type(got) is Fraction and got == want
    assert backend_of(got) is EXACT


@pytest.mark.parametrize("x", [0.25, 1.5 - 2j, np.complex128(2j)])
def test_invert_of_floats_is_the_float_quotient(x):
    assert invert(x) == 1 / x and backend_of(invert(x)) is FLOAT


def test_backend_arrays():
    for n in (1, 4, 8):
        assert FLOAT.eye(n).tobytes() == np.eye(n, dtype=complex).tobytes()
        eye = EXACT.eye(n)
        assert eye.dtype == object
        assert all(eye[i, j] == (i == j) for i in range(n) for j in range(n))
    # the entries of the dual vacuum |0bar> at L = 2
    dual = EXACT.full(4, -1)
    assert dual.dtype == object
    assert list(dual) == [LaurentPoly.zero()] * 3 + [LaurentPoly.one()]
    assert all(isinstance(x, LaurentPoly) for x in dual)


def test_backend_abs_sum(rng):
    a, b = (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)) for _ in range(2))
    want = float(np.abs(a).sum()) + float(np.abs(b).sum())
    assert FLOAT.abs_sum(a, b).hex() == want.hex()
    assert EXACT.abs_sum(np.full(3, Q, dtype=object)) is None


# a zero, a one, a dtype or a scale rule spelled per backend outside scalar.py
_BACKEND_SPELLING = re.compile(
    r"LaurentPoly\.(zero|one)\(\) if|dtype=object if|dtype == object|exact: bool"
    r"|\b_eye\(|\b_zero\(|\b_one\(|\bis_exact\(|0\.0 if")


def test_only_scalar_spells_a_backend():
    src = Path(__file__).resolve().parents[1] / "src" / "sixvertex"
    found = [f"{path.name}:{n}: {line.strip()}"
             for path in sorted(src.glob("*.py")) if path.name != "scalar.py"
             for n, line in enumerate(path.read_text().splitlines(), 1)
             if _BACKEND_SPELLING.search(line)]
    assert found == []
