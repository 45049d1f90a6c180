"""The packed LaurentPoly kernel against a naive tuple/Fraction reference.

The reference keeps a polynomial as a dict from sorted exponent tuples
((kind rank, index), exponent) to nonzero Fractions, merges exponent
vectors one pair at a time and never packs anything, so it shares no code
with the kernel beyond VarId's key convention.
"""

import itertools
import math
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from sixvertex import scalar
from sixvertex.cli import main
from sixvertex.errors import ExponentOverflow
from sixvertex.functional import FunctionalInput, functional_residual
from sixvertex.scalar import (
    EXP_LIMIT,
    LaurentPoly,
    RationalFunction,
    coefficients_in,
    divide_exponents,
    parse_poly,
    poly_derivative,
    poly_eval,
    q_var,
    sum_of_products,
    u_var,
    w_var,
)

# -- the reference -----------------------------------------------------------


def ref_merge(e1, e2):
    d = dict(e1)
    for k, e in e2:
        d[k] = d.get(k, 0) + e
    return tuple(sorted((k, e) for k, e in d.items() if e))


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = ref_merge(e1, e2)
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ref_pow(a, n):
    out = {(): Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_name(key):
    rank, index = key
    return "q" if rank == 2 else f"{'uw'[rank]}{index}"


def ref_order(a):
    """Graded lex: total degree, then the sparse exponent tuples as they
    compare, zeros omitted (not dense exponent rows)."""
    return sorted(a, key=lambda e: (sum(x for _, x in e), e))


def ref_json(a):
    return [{"coeff": f"{a[e].numerator}/{a[e].denominator}",
             "exps": {ref_name(k): x for k, x in e}} for e in ref_order(a)]


def ref_text(a):
    parts = ["*".join([f"({a[e].numerator}/{a[e].denominator})"]
                      + [f"{ref_name(k)}^{x}" for k, x in e]) for e in ref_order(a)]
    return " + ".join(parts) if parts else "0"


def ref_derivative(a, key):
    out = {}
    for e, c in a.items():
        x = dict(e).get(key, 0)
        if x:
            out = ref_add(out, {ref_merge(e, ((key, -1),)): c * x})
    return out


def ref_eval_term(e, c, values):
    """One term at complex values: the factors multiplied in variable-key
    order, as poly_eval does, so the result is the same float."""
    term = complex(c)
    for k, x in e:
        term *= values[k] ** x
    return term


def ref_unit_den(den):
    """The canonical denominator of RationalFunction: den divided by its
    lowest exponent of each variable (absent counts 0) and its content
    (gcd of numerators over lcm of denominators, signed by the graded-lex
    first term)."""
    keys = {k for e in den for k, _ in e}
    low = {k: min(dict(e).get(k, 0) for e in den) for k in keys}
    first = min(den, key=lambda e: (sum(x for _, x in e), e))
    num_gcd = math.gcd(*(c.numerator for c in den.values()))
    den_lcm = math.lcm(*(c.denominator for c in den.values()))
    content = Fraction(num_gcd, den_lcm) * (1 if den[first] > 0 else -1)
    shift = tuple(sorted((k, -e) for k, e in low.items() if e))
    return {ref_merge(e, shift): c / content for e, c in den.items()}


# -- strategies ---------------------------------------------------------------

# high u indices, w and q mixed, so slots are not the variable indices
_VARS = ([u_var(i) for i in (60, 61, 62, 63, 64, 97)] + [u_var(1), w_var(0), w_var(61)]
         + [q_var()])
_DENS = (1, 2, 3, 5, 7, 9, 11, 16, 25)
# u98 is never used elsewhere, so it may have no slot at all
_PROBES = _VARS + [u_var(98)]
_VALUES = {v.key: complex(1.1 + 0.07 * i, 0.3 - 0.05 * i) for i, v in enumerate(_VARS)}


@st.composite
def ref_polys(draw, max_terms=5):
    out = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = {}
        for v in draw(st.lists(st.sampled_from(_VARS), max_size=4)):
            exps[v.key] = draw(st.integers(-6, 6))
        e = tuple(sorted((k, x) for k, x in exps.items() if x))
        c = Fraction(draw(st.integers(-9, 9)), draw(st.sampled_from(_DENS)))
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def _check(p: LaurentPoly, ref: dict):
    items = p.items()
    assert dict(items) == ref
    assert p.to_json_terms() == ref_json(ref)
    assert p.to_text() == ref_text(ref)
    assert p.text_and_json_terms() == (ref_text(ref), ref_json(ref))
    occurring = {k for e in ref for k, _ in e}
    assert p.variables() == {v for v in _PROBES if v.key in occurring}
    for v in _PROBES:
        exps = {dict(e).get(v.key, 0) for e in ref}
        assert p.exponents_of(v) == exps
        assert p.degree_in(v) == max(exps, default=0)
        assert p.low_degree_in(v) == min(exps, default=0)
    # summed in the kernel's own term order, so that the floats match
    want = 0j
    for e, _ in items:
        want += ref_eval_term(e, ref[e], _VALUES)
    got = poly_eval(p, {v: _VALUES[v.key] for v in _VARS})
    assert (got.real, got.imag) == (want.real, want.imag)
    assert p.num_terms() == len(ref)
    assert p == LaurentPoly(ref) and hash(p) == hash(LaurentPoly(ref))


# -- properties ---------------------------------------------------------------


@given(ref_polys(), ref_polys())
def test_add_sub_neg_match_reference(a, b):
    pa, pb = LaurentPoly(a), LaurentPoly(b)
    _check(pa, a)
    _check(pa + pb, ref_add(a, b))
    _check(pa - pb, ref_add(a, {e: -c for e, c in b.items()}))
    _check(-pa, {e: -c for e, c in a.items()})


@given(ref_polys(), ref_polys())
def test_mul_matches_reference(a, b):
    _check(LaurentPoly(a) * LaurentPoly(b), ref_mul(a, b))


@given(ref_polys(max_terms=3), st.integers(0, 4))
def test_pow_matches_reference(a, n):
    _check(LaurentPoly(a) ** n, ref_pow(a, n))


@given(ref_polys(), ref_polys())
def test_sums_that_cancel_are_zero(a, b):
    pa, pb = LaurentPoly(a), LaurentPoly(b)
    zero = (pa + pb) - pb - pa
    assert zero.is_zero() and zero == LaurentPoly.zero() and zero == 0
    assert hash(zero) == hash(LaurentPoly.zero())
    assert zero.to_json_terms() == [] and zero.to_text() == "0"
    # a product whose terms all cancel: (a + b)(a - b) - a^2 + b^2
    diff = (pa + pb) * (pa - pb) - pa * pa + pb * pb
    assert diff.is_zero() and hash(diff) == hash(LaurentPoly.zero())


@given(ref_polys(), ref_polys(), ref_polys(), st.randoms(use_true_random=False))
def test_equal_polys_built_in_different_orders(a, b, c, rnd):
    pa, pb, pc = LaurentPoly(a), LaurentPoly(b), LaurentPoly(c)
    want = ref_add(ref_mul(ref_mul(a, b), c), a)
    forms = [pa * pb * pc + pa, pa + pc * (pb * pa), (pc * pa) * pb + pa]
    terms = [LaurentPoly({e: x}) for e, x in want.items()]
    for _ in range(3):
        rnd.shuffle(terms)
        total = LaurentPoly.zero()
        for t in terms:
            total = total + t
        forms.append(total)
    for f in forms:
        _check(f, want)
    assert len({hash(f) for f in forms}) == 1


@given(ref_polys(max_terms=3), ref_polys(max_terms=3))
def test_rational_function_canonical_denominator(a, b):
    assume(a and len(b) >= 2)
    r = RationalFunction(LaurentPoly(a), LaurentPoly(b))
    assert dict(r.den.items()) == ref_unit_den(b)


@given(ref_polys(), st.sampled_from(_PROBES))
def test_derivative_matches_reference(a, v):
    _check(poly_derivative(LaurentPoly(a), v), ref_derivative(a, v.key))


def test_graded_lex_order_is_sparse_not_dense():
    # u1^-1*u2 and the constant both have degree 0: as sparse exponent
    # tuples the constant () comes first, where a dense row (-1, 1) would
    # sort before (0, 0)
    u1, u2 = LaurentPoly.var(u_var(1)), LaurentPoly.var(u_var(2))
    p = 1 - u2 / u1
    assert p.to_text() == "(1/1) + (-1/1)*u1^-1*u2^1"
    assert p.to_json_terms() == [{"coeff": "1/1", "exps": {}},
                                 {"coeff": "-1/1", "exps": {"u1": -1, "u2": 1}}]
    # the content takes its sign from the same first term
    assert p.content() == 1 and (-p).content() == -1
    assert scalar._unit(p) == u1.monomial_inverse()


def test_equal_rationals_over_different_denominators():
    u = LaurentPoly.var(u_var(61))
    p = u * Fraction(1, 6) + Fraction(1, 10)
    r = u * Fraction(5, 3) + 1
    assert p * 10 == r and hash(p * 10) == hash(r)
    assert p.content() == Fraction(1, 30)
    assert (p - Fraction(1, 10)) * 6 == u


# -- exponent range --------------------------------------------------------------


def test_exponent_limit_boundary_construction():
    u, w = u_var(60), w_var(60)
    top = LaurentPoly.var(u, EXP_LIMIT)
    assert top.degree_in(u) == EXP_LIMIT
    assert LaurentPoly.var(u, -EXP_LIMIT).low_degree_in(u) == -EXP_LIMIT
    for bad in (EXP_LIMIT + 1, -EXP_LIMIT - 1):
        with pytest.raises(ExponentOverflow):
            LaurentPoly.var(u, bad)
        with pytest.raises(ExponentOverflow):
            LaurentPoly.monomial(1, {u: 1, w: bad})
    assert parse_poly(f"u60^{EXP_LIMIT}") == top
    with pytest.raises(ExponentOverflow):
        parse_poly(f"u60^{EXP_LIMIT + 1}")
    with pytest.raises(ExponentOverflow):
        parse_poly(f"u60^{EXP_LIMIT}*u60")
    with pytest.raises(ExponentOverflow):
        LaurentPoly.from_json_terms([{"coeff": "1/1", "exps": {"u60": -EXP_LIMIT - 1}}])


def test_exponent_limit_boundary_arithmetic():
    u, w = u_var(60), w_var(60)
    U, W = LaurentPoly.var(u), LaurentPoly.var(w)
    top = LaurentPoly.var(u, EXP_LIMIT)
    # at the limit, and neighbouring digits at their own limits
    assert (top * U ** -1) * U == top
    both = top * LaurentPoly.var(w, -EXP_LIMIT)
    assert dict(both.items()) == {((u.key, EXP_LIMIT), (w.key, -EXP_LIMIT)): 1}
    assert (LaurentPoly.var(u, EXP_LIMIT - 1) + W) * U == top + W * U
    assert top.monomial_inverse().low_degree_in(u) == -EXP_LIMIT
    assert LaurentPoly.var(u, 2) ** (EXP_LIMIT // 2) == LaurentPoly.var(u, EXP_LIMIT - 1)
    # one past it
    with pytest.raises(ExponentOverflow):
        top * U
    with pytest.raises(ExponentOverflow):
        (top + W) * (U + 1)
    with pytest.raises(ExponentOverflow):
        top.monomial_inverse() * U ** -1
    with pytest.raises(ExponentOverflow):
        LaurentPoly.var(u, 2) ** (EXP_LIMIT // 2 + 1)
    with pytest.raises(ExponentOverflow):
        (LaurentPoly.var(u, (EXP_LIMIT + 1) // 2) + 1) ** 2
    with pytest.raises(ExponentOverflow):
        poly_derivative(LaurentPoly.var(u, -EXP_LIMIT), u)


def test_exponent_overflow_exit_code(capsys):
    # u1's exponent is in range as a parameter (past the range a parameter
    # is a config error, tests/test_cli.py); the product of its two sites'
    # weights leaves the range during the computation: exit 1
    code = main(["compute", "--size", "2", "--lam", f"u1^{EXP_LIMIT // 2 + 1}",
                 "--lam", "u2"])
    assert code == 1
    assert '"kind": "ExponentOverflow"' in capsys.readouterr().out


def test_loose_exponent_bound_falls_back_to_exact_check():
    # each product adds to the cheap exponent bound although the exponents
    # cancel; past EXP_LIMIT the exact check must take over without raising
    u = LaurentPoly.var(u_var(62))
    base = 1 + u * Fraction(1, 3)
    acc = base
    for _ in range(400):
        acc = acc * u ** 90 * u ** -90
    assert acc == base and hash(acc) == hash(base)


def test_slot_registry_under_threads():
    # threads register fresh variables concurrently; a lost or doubled
    # slot would make two variables share a digit and break the round trip
    names = [[u_var(5000 + 10 * t + i) for i in range(10)] for t in range(4)]
    results = {}

    def work(t):
        p = LaurentPoly.one()
        for i, v in enumerate(names[t]):
            p = p * LaurentPoly.var(v, i + 1) + LaurentPoly.var(v, -1)
        results[t] = p

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    for t, p in results.items():
        assert p.variables() == set(names[t])
        assert parse_poly(p.to_text()) == p
        assert LaurentPoly(dict(p.items())) == p
    assert len(results) == 4


# -- exponent bookkeeping: coefficients_in, divide_exponents --


@given(ref_polys(), st.lists(st.sampled_from(_VARS), max_size=3, unique=True))
def test_coefficients_in_adds_back_up(a, vars):
    p = LaurentPoly(a)
    parts = coefficients_in(p, vars)
    total = LaurentPoly.zero()
    for es, cofactor in parts.items():
        assert not cofactor.is_zero()
        assert not cofactor.variables() & set(vars)
        total = total + cofactor * LaurentPoly.monomial(1, dict(zip(vars, es)))
    assert total == p


@given(ref_polys(), st.sampled_from(_VARS), st.integers(1, 3))
def test_divide_exponents_inverts_the_power_substitution(a, v, k):
    base = LaurentPoly(a)
    p = base.substitute({v: LaurentPoly.var(v, k)})
    got = divide_exponents(p, v, k)
    assert got == base
    assert got.substitute({v: LaurentPoly.var(v, k)}) == p


def ref_content(a):
    """gcd of numerators over lcm of denominators, signed by the graded-lex
    first term."""
    first = min(a, key=lambda e: (sum(x for _, x in e), e))
    g = Fraction(math.gcd(*(c.numerator for c in a.values())),
                 math.lcm(*(c.denominator for c in a.values())))
    return g if a[first] > 0 else -g


@given(ref_polys())
def test_content_and_unit_match_reference(a):
    assume(a)
    p = LaurentPoly(a)
    assert p.content() == ref_content(a)
    keys = {k for e in a for k, _ in e}
    low = tuple(sorted((k, m) for k in keys if (m := min(dict(e).get(k, 0) for e in a))))
    assert dict(scalar._unit(p).items()) == {low: ref_content(a)}


def ref_substitute(a, targets):
    """Term by term: each factor v^e becomes the target's e-th power."""
    out = {}
    for e, c in a.items():
        term = {(): c}
        for k, x in e:
            t = targets.get(k, {((k, 1),): Fraction(1)})
            if x < 0:
                ((te, tc),) = t.items()
                t, x = {tuple((tk, -tx) for tk, tx in te): 1 / tc}, -x
            term = ref_mul(term, ref_pow(t, x))
        out = ref_add(out, term)
    return out


@st.composite
def monomial_targets(draw):
    targets = {}
    for v in draw(st.lists(st.sampled_from(_VARS), max_size=3, unique=True)):
        exps = {w.key: draw(st.integers(-3, 3))
                for w in draw(st.lists(st.sampled_from(_VARS), max_size=2))}
        c = Fraction(draw(st.sampled_from((-3, -1, 1, 2, 5))), draw(st.sampled_from(_DENS)))
        targets[v] = {tuple(sorted((k, x) for k, x in exps.items() if x)): c}
    return targets


@given(ref_polys(), monomial_targets())
def test_substitute_matches_term_by_term_reference(a, targets):
    # a target is a monomial or, with no variables, a rational constant
    mapping = {v: c if not e else LaurentPoly({e: c})
               for v, t in targets.items() for e, c in t.items()}
    got = LaurentPoly(a).substitute(mapping)
    assert dict(got.items()) == ref_substitute(a, {v.key: t for v, t in targets.items()})


def test_substitute_on_the_l3_partition_function():
    from sixvertex.partition import standard_symbolic_params, z_algebraic

    lams, mus, q = standard_symbolic_params(3)
    z = z_algebraic(lams, mus, q)
    u1, u2, w1 = u_var(1), u_var(2), w_var(1)
    targets = {u1.key: {((u_var(9).key, 1),): Fraction(1)}, w1.key: {(): Fraction(1)},
               q_var().key: {((q_var().key, -2),): Fraction(-2, 3)},
               u2.key: {tuple(sorted(((u1.key, 1), (w_var(2).key, -1)))): Fraction(3)}}
    mapping = {u1: LaurentPoly.var(u_var(9)), w1: 1,
               q_var(): LaurentPoly.monomial(Fraction(-2, 3), {q_var(): -2}),
               u2: LaurentPoly.monomial(3, {u1: 1, w_var(2): -1})}
    assert dict(z.substitute(mapping).items()) == ref_substitute(dict(z.items()), targets)


def test_substitute_relabelings_match_the_reference():
    # unit-coefficient targets skip the coefficient pass: an injective one
    # keeps every term (a swap included), a non-injective one must combine
    # and cancel terms
    u1, u2, u3, w1 = u_var(1), u_var(2), u_var(3), w_var(1)
    U1, U2, U3, W1 = (LaurentPoly.var(v) for v in (u1, u2, u3, w1))
    p = (Fraction(2, 3) * U1 ** 2 * U2 ** -1 - U2 * U1 ** -3 * W1
         + Fraction(5, 7) * U3 - Fraction(5, 7) * W1 ** 2 + 4)
    a = dict(p.items())
    injective = {u1: U2, u2: LaurentPoly.monomial(1, {u1: 1, w1: -2}),
                 u3: LaurentPoly.var(u_var(9))}
    got = p.substitute(injective)
    assert got.num_terms() == p.num_terms()
    assert dict(got.items()) == ref_substitute(a, {v.key: dict(t.items())
                                                   for v, t in injective.items()})
    merged = {u1: U1, u2: U1, u3: W1 ** 2}
    got = p.substitute(merged)
    assert got.num_terms() == 3  # U3 -> W1^2 cancels, U1^2 U2^-1 -> U1
    assert dict(got.items()) == ref_substitute(a, {v.key: dict(t.items())
                                                   for v, t in merged.items()})
    assert got == Fraction(2, 3) * U1 - U1 ** -2 * W1 + 4


def test_divide_exponents_rejects_a_non_multiple():
    u = LaurentPoly.var(u_var(61))
    with pytest.raises(ValueError):
        divide_exponents(u ** 4 + u ** 3, u_var(61), 2)


def test_divide_exponents_leaves_other_variables():
    u, w, q = (LaurentPoly.var(v) for v in (u_var(61), w_var(61), q_var()))
    p = u ** 4 * w ** 3 * q ** -5 + Fraction(2, 3) * u ** -2 * q
    assert divide_exponents(p, u_var(61), 2) == u ** 2 * w ** 3 * q ** -5 + Fraction(2, 3) * q / u


def test_kernel_operations_on_zero():
    zero = LaurentPoly.zero()
    assert divide_exponents(zero, u_var(61), 2).is_zero()
    assert coefficients_in(zero, [u_var(61), q_var()]) == {}


# -- sum_of_products ------------------------------------------------------------


def ref_sum_of_products(pairs):
    out = {}
    for a, b in pairs:
        out = ref_add(out, ref_mul(a, b))
    return out


# 2^70 and 3^50 scale the numerators past one and two primes
_SCALES = (1, -1, 2 ** 70, -(3 ** 50))


@given(st.lists(st.tuples(ref_polys(), ref_polys(), st.sampled_from(_SCALES)), max_size=4))
def test_sum_of_products_matches_reference(drawn):
    pairs = [({e: c * s for e, c in a.items()}, b) for a, b, s in drawn]
    _check(sum_of_products((LaurentPoly(a), LaurentPoly(b)) for a, b in pairs),
           ref_sum_of_products(pairs))


@given(st.lists(st.tuples(ref_polys(), ref_polys(), st.sampled_from(_SCALES)), max_size=3))
def test_sum_of_products_that_cancels_is_zero(drawn):
    # every product appears once as a * b and once as (-a) * b or a * (-b)
    pairs = []
    for a, b, s in drawn:
        pa, pb = LaurentPoly(a) * s, LaurentPoly(b)
        pairs += [(pa, pb), (pa, -pb) if s > 0 else (-pa, pb)]
    total = sum_of_products(pairs)
    assert total.is_zero() and total == LaurentPoly.zero()
    assert hash(total) == hash(LaurentPoly.zero())


def test_sum_of_products_empty_zero_and_constant_operands():
    u = LaurentPoly.var(u_var(61))
    assert sum_of_products([]) == LaurentPoly.zero()
    assert sum_of_products([(LaurentPoly.zero(), u), (u, 0)]).is_zero()
    assert sum_of_products([(u, Fraction(2, 3)), (3, u)]) == u * Fraction(11, 3)


def test_sum_of_products_needs_three_primes():
    u, w = LaurentPoly.var(u_var(61)), LaurentPoly.var(w_var(61))
    a = (u + w) * (2 ** 61 - 1) + u * w * Fraction(-(3 ** 40), 7)
    b = (u - 1) * (5 ** 27) + w * Fraction(2 ** 63, 11)
    c = u ** 2 * Fraction(-(7 ** 30), 9) + 1
    pairs = [(a, b), (b, c), (c, a)]
    bound = sum(max(abs(x) for x in p._num.values()) * max(abs(x) for x in r._num.values())
                * math.lcm(*(s._den * t._den for s, t in pairs)) // (p._den * r._den)
                * min(p.num_terms(), r.num_terms()) for p, r in pairs)
    assert 2 * bound > scalar._PRIMES[0] * scalar._PRIMES[1]
    want = a * b + b * c + c * a
    assert not want.is_zero()
    assert sum_of_products(pairs) == want


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("sign", [1, -1])
def test_sum_of_products_at_its_coefficient_bound(k, sign):
    # monomial products reach the coefficient bound B = 6c exactly, and B
    # lies between M/2 and M for M the product of the first k primes: k
    # primes fix B modulo M, but not its sign
    u, w = LaurentPoly.var(u_var(61)), LaurentPoly.var(w_var(61))
    c = math.prod(scalar._PRIMES[:k]) // 8 + 1
    a, b = u * (sign * c), w * Fraction(1, 3)
    assert sum_of_products([(a, w), (b, u * (3 * sign * c))]) == 2 * a * w


def test_prime_table():
    primes = scalar._PRIMES
    assert len(set(primes)) == len(primes) and max(primes) < 1 << 26
    # a reduced cell plus _ROWS products of two residues stays in int64, and
    # every coefficient bound below 2^742 takes the residue path
    p = max(primes)
    assert scalar._ROWS * (p - 1) ** 2 + p < 1 << 63
    assert math.prod(primes) > 1 << 743
    # Miller-Rabin with the bases 2, 3, 5, 7 decides primality below 3.2e9
    for n in primes:
        d, s = n - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        for a in (2, 3, 5, 7):
            x = pow(a, d, n)
            assert x in (1, n - 1) or any(pow(x, 2 ** r, n) == n - 1 for r in range(1, s))


def test_sum_of_products_reduces_before_int64_wraps(monkeypatch):
    # every product's residue is (p - 1)^2, and 3000 of them pass 2^63 in
    # one cell: the accumulator must be reduced between rows, and between
    # the images of one product, which count its rows once each
    x = LaurentPoly.var(u_var(61))
    assert 3000 > scalar._ROWS
    assert sum_of_products([(-x, -x ** -1)] * 3000) == 3000
    swap = {u_var(61): u_var(62), u_var(62): u_var(61)}
    assert sum_of_products([(-x, -x ** -1)], [[({}, 1), (swap, 1)] * 1500]) == 3000
    # with a prime below 2^31, _ROWS is 2 and three such products pass
    # 2^63: x^0 of a * b takes four, so a product's buffer must be reduced
    # between its rows too (blocks of one term pair, each within _ROWS)
    p = 2147483647
    monkeypatch.setattr(scalar, "_PRIMES", (p,))
    monkeypatch.setattr(scalar, "_ROWS", ((1 << 63) - p) // (p - 1) ** 2)
    monkeypatch.setattr(scalar, "_CHUNK", 1)
    assert scalar._ROWS == 2 and 3 * (p - 1) ** 2 >= 1 << 63
    a = -(1 + x + x ** 2 + x ** 3)
    b = -(1 + x ** -1 + x ** -2 + x ** -3)
    to = {u_var(61): LaurentPoly.var(u_var(62))}
    assert sum_of_products([(a, b)], [[({}, 1), (swap, 1)] * 2]) \
        == (a * b + (a * b).substitute(to)) * 2


def test_sum_of_products_exponent_boundary():
    u, w = u_var(60), w_var(60)
    U, W = LaurentPoly.var(u), LaurentPoly.var(w)
    top = LaurentPoly.var(u, EXP_LIMIT)
    bottom = LaurentPoly.var(w, -EXP_LIMIT)
    # every digit at its limit, with a loose bound the exact check clears
    pairs = [(top + W, U ** -1 + 1), (bottom + U, W + 1), (top, bottom)]
    assert sum_of_products(pairs) == (top + W) * (U ** -1 + 1) + (bottom + U) * (W + 1) + top * bottom
    for bad in ((top + W, U + 1), (bottom, W ** -1)):
        with pytest.raises(ExponentOverflow) as direct:
            bad[0] * bad[1]
        with pytest.raises(ExponentOverflow) as summed:
            sum_of_products([(U, W), bad])
        assert str(summed.value) == str(direct.value)


@pytest.mark.parametrize("case", ["key box", "primes"])
def test_sum_of_products_falls_back_to_pairwise(case, monkeypatch):
    xs = [LaurentPoly.var(u_var(i)) for i in (60, 61, 62, 63)]
    if case == "key box":
        # four digits spanning nearly 2^16 each; with the term u60^2 u61 u62
        # u63 and b's 3 u60 no slot keeps one parity, so every lattice step
        # is 1 and the keys leave int64
        hi = xs[0] ** 16383 * xs[1] ** 16383 * xs[2] ** 16383 * xs[3] ** 16383
        a = hi + hi.monomial_inverse() + xs[0] ** 2 * xs[1] * xs[2] * xs[3]
        b = a - xs[0] * 3
    else:
        # numerators past the product of every prime in the table
        a, b = xs[0] * 2 ** 400 + xs[1] * 3, xs[2] * 5 ** 200 - 1
    want = a * b + b * b

    def refuse(*args):
        raise AssertionError("the residue path ran")

    monkeypatch.setattr(scalar, "_residues", refuse)
    assert sum_of_products([(a, b), (b, b)]) == want


def _mono(c, *exps):
    """The reference monomial c * prod v^e over the (VarId, e) pairs."""
    return {tuple(sorted((v.key, e) for v, e in exps if e)): Fraction(c)}


def _weight(v):
    """A weight-like binomial v q - v^-1 q^-1: it moves each exponent by 1."""
    return ref_add(_mono(1, (v, 1), (q_var(), 1)), _mono(-1, (v, -1), (q_var(), -1)))


def _lattice_pairs(case):
    u, v, w = u_var(60), u_var(61), w_var(61)
    if case == "dense":
        # every product odd in each u and w slot and even in q: step 2 in
        # each slot, 80 cells for 384 term pairs
        xs = [u, v, w, w_var(0)]
        return [(ref_mul(ref_mul(_weight(a), _weight(b)), _mono(Fraction(k + 1, 3))),
                 ref_mul(_weight(c), _weight(d)))
                for k, (a, b, c, d) in enumerate(itertools.permutations(xs))]
    if case == "sparse":
        # 8 term pairs in a box of millions of cells
        a = ref_add(_mono(3, (u, 50), (w, -7)), _mono(Fraction(-1, 7), (v, -40)))
        b = ref_add(_mono(1, (w, 33), (q_var(), 5)), _mono(Fraction(2, 5), (q_var(), -20)))
        return [(a, b), (b, b)]
    if case == "offset":
        # each pair's products step by 2 in u, but the second pair's sit one
        # above the first's: the step across both is 1
        return [(ref_add(_mono(1, (u, 2)), _mono(1)), ref_add(_mono(1, (u, 2)), _mono(-1))),
                (_mono(2, (u, 1)), ref_add(_mono(1, (u, 2)), _mono(3)))]
    # u steps by 3 from -2, w stays at 1
    return [(ref_add(_mono(1, (u, 4), (w, 2)), _mono(-2, (u, -2), (w, 2))),
             ref_add(_mono(1, (u, 3), (w, -1)), _mono(Fraction(5, 3), (w, -1)))),
            (_mono(7, (u, 1), (w, 1)), _mono(-1))]


@pytest.mark.parametrize("case, builds_union", [
    ("dense", False), ("sparse", True), ("offset", False), ("step 3", False)])
def test_sum_of_products_on_the_exponent_lattice(case, builds_union, monkeypatch):
    pairs = _lattice_pairs(case)
    built = []
    union = scalar._sorted_union

    def spy(parts):
        built.append(len(parts))
        return union(parts)

    monkeypatch.setattr(scalar, "_sorted_union", spy)
    _check(sum_of_products((LaurentPoly(a), LaurentPoly(b)) for a, b in pairs),
           ref_sum_of_products(pairs))
    assert bool(built) == builds_union



# -- sum_of_products with images ------------------------------------------------

_U60, _U61, _U62, _U97, _W0, _Q = u_var(60), u_var(61), u_var(62), u_var(97), w_var(0), q_var()
# relabels: the identity twice over, a swap, a 3-cycle across kinds, and one
# that moves u62 onto u97, which an operand may not hold
_RELABELS = ({}, {_U60: _U60, _W0: _W0}, {_U60: _U61, _U61: _U60},
             {_U60: _W0, _W0: _Q, _Q: _U60}, {_U62: _U97, _U97: _U62})


def ref_relabel(a, relabel, sign=1):
    """sign * a with each variable v renamed relabel[v], term by term."""
    return {e: sign * c for e, c in ref_substitute(
        a, {v.key: {((t.key, 1),): Fraction(1)} for v, t in relabel.items()}).items()}


def ref_images(pairs, images):
    """The reference of a sum with images: sum of sign * rho(a) * rho(b)."""
    out = {}
    for (a, b), imgs in zip(pairs, images):
        for relabel, sign in imgs:
            out = ref_add(out, ref_mul(ref_relabel(a, relabel, sign), ref_relabel(b, relabel)))
    return out


@st.composite
def image_lists(draw):
    return draw(st.lists(st.tuples(st.sampled_from(_RELABELS), st.sampled_from((1, -1))),
                         max_size=3))


@given(st.lists(st.tuples(ref_polys(), ref_polys(), st.sampled_from(_SCALES), image_lists()),
                max_size=3))
def test_sum_of_products_images_match_reference(drawn):
    pairs = [({e: c * s for e, c in a.items()}, b) for a, b, s, _ in drawn]
    images = [imgs for *_, imgs in drawn]
    _check(sum_of_products([(LaurentPoly(a), LaurentPoly(b)) for a, b in pairs], images),
           ref_images(pairs, images))


def test_sum_of_products_identity_sign_and_cycle_images():
    # an identity image, sign -1 and a 3-cycle against the substituted
    # operands; negative control: one image with the wrong sign changes
    # the sum
    pairs = [({((_U60.key, 2), (_Q.key, 1)): Fraction(3, 7), ((_W0.key, -1),): Fraction(-2)},
              {((_U61.key, 1),): Fraction(5), (): Fraction(1, 3)}),
             ({((_U60.key, 1), (_U61.key, -1)): Fraction(1)},
              {((_W0.key, 3),): Fraction(-4, 5), ((_Q.key, -2),): Fraction(2)})]
    cycle = {_U60: _W0, _W0: _Q, _Q: _U60}
    images = [[({}, 1), ({_U60: _U60}, -1), (cycle, 1)], [(cycle, -1), ({}, 1)]]
    polys = [(LaurentPoly(a), LaurentPoly(b)) for a, b in pairs]
    got = sum_of_products(polys, images)
    _check(got, ref_images(pairs, images))
    to = {v: LaurentPoly.var(t) for v, t in cycle.items()}
    (a0, b0), (a1, b1) = polys
    assert got == a0 * b0 - a0 * b0 + a0.substitute(to) * b0.substitute(to) \
        - a1.substitute(to) * b1.substitute(to) + a1 * b1
    assert sum_of_products(polys, [[({}, 1)], [({}, 1)]]) == sum_of_products(polys)
    flipped = [images[0][:2] + [(cycle, -1)], images[1]]
    assert sum_of_products(polys, flipped) != got


@pytest.mark.parametrize("case, builds_union", [("dense", False), ("sparse", True)])
def test_sum_of_products_images_on_both_paths(case, builds_union, monkeypatch):
    # the dense box and the sorted union, each with a swap, a 3-cycle and a
    # negative sign on every pair; then each with the identity alone, sign
    # -1, on every pair, which places the buffer as it is, negated
    pairs = _lattice_pairs(case)
    u, v, w = u_var(60), u_var(61), w_var(61)
    imgs = [({}, 1), ({u: v, v: u}, -1), ({u: w, w: q_var(), q_var(): u}, 1)]
    images = [imgs] * len(pairs)
    built = []
    union = scalar._sorted_union

    def spy(parts):
        built.append(len(parts))
        return union(parts)

    monkeypatch.setattr(scalar, "_sorted_union", spy)
    polys = [(LaurentPoly(a), LaurentPoly(b)) for a, b in pairs]
    _check(sum_of_products(polys, images), ref_images(pairs, images))
    assert bool(built) == builds_union
    built.clear()
    negated = sum_of_products(polys, [[({}, -1)]] * len(pairs))
    assert bool(built) == builds_union
    assert negated == -sum_of_products(polys) and not negated.is_zero()


def _poly(terms):
    """The reference polynomial of (coefficient, ((VarId, e), ...)) terms."""
    out = {}
    for c, exps in terms:
        out = ref_add(out, _mono(c, *exps))
    return out


def _skewed_pairs(case):
    """Pairs whose products lie on different lattices: u60 odd or even,
    stepping by 2, w61 stepping by 3 from 1 or from 0, u61 even."""
    u, v, w = _U60, _U61, w_var(61)
    if case == "dense":
        # 420 term pairs, 6 images each, in a box of 1,728 cells
        a = _poly([(Fraction(i + 2 * j + 1, 3 + k), ((u, i), (w, j), (v, k)))
                   for i in (-1, 1, 3) for j in (-2, 1, 4) for k in (0, 2)])
        b = _poly([(Fraction(5 - i - j, 3 + k), ((u, i), (w, j), (v, k)))
                   for i in (-2, 0, 2) for j in (0, 3) for k in (-2, 0)])
        return [(a, b), (b, b), (b, a)]
    a = _poly([(3, ((u, 41), (w, -7))), (Fraction(-1, 7), ((u, -39), (v, 4)))])
    b = _poly([(1, ((w, 35), (u, 2))), (Fraction(2, 5), ((w, -28), (v, -6)))])
    return [(a, b), (b, b)]


# every permutation of u60, w61 and u61, signed by its signature
_SKEWED = (_U60, w_var(61), _U61)
_SKEWED_IMAGES = [({x: y for x, y in zip(_SKEWED, perm)},
                   (-1) ** sum(_SKEWED.index(x) > _SKEWED.index(y)
                               for x, y in itertools.combinations(perm, 2)))
                  for perm in itertools.permutations(_SKEWED)]


@pytest.mark.parametrize("reduced", [False, True])
@pytest.mark.parametrize("case, builds_union", [("dense", False), ("sparse", True)])
def test_sum_of_products_images_across_lattices(case, builds_union, reduced, monkeypatch):
    # the images move slots of different steps and offsets onto one
    # another, so each lands on the box's lattice at its own offsets, 2 or
    # 3 box steps apart.  Reduced: primes below 2^31, whose _ROWS is 2, and
    # blocks of one term pair, so that the buffer is reduced between blocks
    # and the accumulator between images.  Negative control: one image's
    # sign flipped changes the sum
    pairs = _skewed_pairs(case)
    images = [_SKEWED_IMAGES] * len(pairs)
    if reduced:
        primes = (2147483647, 2147483629)
        rows = ((1 << 63) - max(primes)) // (max(primes) - 1) ** 2
        assert rows == 2 and 3 * (max(primes) - 1) ** 2 >= 1 << 63
        monkeypatch.setattr(scalar, "_PRIMES", primes)
        monkeypatch.setattr(scalar, "_ROWS", rows)
        monkeypatch.setattr(scalar, "_CHUNK", 1)
    built = []
    union = scalar._sorted_union

    def spy(parts):
        built.append(len(parts))
        return union(parts)

    monkeypatch.setattr(scalar, "_sorted_union", spy)
    polys = [(LaurentPoly(a), LaurentPoly(b)) for a, b in pairs]
    got = sum_of_products(polys, images)
    _check(got, ref_images(pairs, images))
    assert bool(built) == builds_union
    relabel, sign = _SKEWED_IMAGES[3]
    flipped = [_SKEWED_IMAGES[:3] + [(relabel, -sign)] + _SKEWED_IMAGES[4:]] + images[1:]
    assert sum_of_products(polys, flipped) != got


def test_sum_of_products_forms_each_product_once(monkeypatch):
    # the exact FZ residual at L = 3, symbolic points and rational mus and
    # q, sums two canonical pairs, 60 x 478 and 60 x 218 terms, over 4 and
    # 6 images: the kernel forms their 41,760 term pairs once, not once per
    # image (193,200)
    blocks = scalar._blocks
    formed = []

    def spy(n, m):
        formed.append(n * m)
        return blocks(n, m)

    monkeypatch.setattr(scalar, "_blocks", spy)
    points = tuple(LaurentPoly.var(u_var(60 + i)) for i in range(5))
    mus = tuple(LaurentPoly.rational(Fraction(k, 7)) for k in (2, 3, 4))
    q = LaurentPoly.rational(Fraction(-3, 5))
    assert functional_residual(FunctionalInput(3, points, mus, q)).is_zero()
    assert sorted(formed) == [60 * 218, 60 * 478] and sum(formed) == 41760


@pytest.mark.parametrize("case", ["key box", "primes"])
def test_sum_of_products_with_images_falls_back_to_pairwise(case, monkeypatch):
    # the fallback forms sign * rho(a) * rho(b) image by image
    xs = [LaurentPoly.var(u_var(i)) for i in (60, 61, 62, 63)]
    if case == "key box":
        hi = xs[0] ** 16383 * xs[1] ** 16383 * xs[2] ** 16383 * xs[3] ** 16383
        a = hi + hi.monomial_inverse() + xs[0] ** 2 * xs[1] * xs[2] * xs[3]
        b = a - xs[0] * 3
    else:
        a, b = xs[0] * 2 ** 400 + xs[1] * 3, xs[2] * 5 ** 200 - 1
    cycle = {u_var(60): u_var(61), u_var(61): u_var(62), u_var(62): u_var(60)}
    to = {v: LaurentPoly.var(t) for v, t in cycle.items()}
    want = a * b - a.substitute(to) * b.substitute(to) + b * b

    def refuse(*args):
        raise AssertionError("the residue path ran")

    monkeypatch.setattr(scalar, "_residues", refuse)
    assert sum_of_products([(a, b), (b, b)], [[({}, 1), (cycle, -1)], [({}, 1)]]) == want


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("sign", [1, -1])
def test_sum_of_products_bound_counts_the_images(k, sign):
    # one monomial pair with two images reaches 2c, past M/2 for M the
    # product of the first k primes, while c alone stays below it: the
    # bound must count the images, or k primes give 2c - M
    u, w = LaurentPoly.var(u_var(61)), LaurentPoly.var(w_var(61))
    m = math.prod(scalar._PRIMES[:k])
    c = m // 4 + 1
    assert 2 * c < m and 2 * (2 * c) > m
    swap = {u_var(61): w_var(61), w_var(61): u_var(61)}
    got = sum_of_products([(u * c, w)], [[({}, sign), (swap, sign)]])
    assert got == u * w * (2 * sign * c)


@pytest.mark.parametrize("images", [
    [[({_U60: _U61}, 1)]],                      # u61 is not moved anywhere
    [[({_U60: _U61, _U61: _U61}, 1)]],          # two variables onto one
    [[({_U60: LaurentPoly.var(_U61), _U61: LaurentPoly.var(_U60)}, 1)]],  # not VarIds
    [[({}, 2)]],                                # a sign that is not +-1
    [[({}, 1)], [({}, 1)]],                     # one image list too many
])
def test_sum_of_products_refuses_a_bad_image(images):
    u = LaurentPoly.var(_U60)
    with pytest.raises(ValueError):
        sum_of_products([(u, u + 1)], images)


# -- residues modulo p ------------------------------------------------------------


def test_residues_follow_the_integers_modulo_p():
    p = scalar._PRIMES[0]
    xs, ys = [2, 3, p - 1, 12345678], [5, p - 2, 7, 99]
    x, y = scalar.Residues.units(xs), scalar.Residues.units(ys)
    assert scalar.backend_of(x) is scalar.MODULAR
    assert x.inverse.tolist() == [pow(a, -1, p) for a in xs]
    half = pow(2, -1, p)
    for got, want in ((x * y, [a * b for a, b in zip(xs, ys)]),
                      (x + y, [a + b for a, b in zip(xs, ys)]),
                      (x - y, [a - b for a, b in zip(xs, ys)]),
                      (-x, [-a for a in xs]),
                      (x / 2, [a * half for a in xs]),
                      (scalar.invert(x * y), [pow(a * b, -1, p) for a, b in zip(xs, ys)])):
        assert got.value.tolist() == [w % p for w in want]
    # a product keeps its inverse; a sum has none, and cannot be inverted
    assert (x * y).inverse.tolist() == [pow(a * b, -1, p) for a, b in zip(xs, ys)]
    assert (x + y).inverse is None
    with pytest.raises(ZeroDivisionError):
        scalar.invert(x + y)
    with pytest.raises(ZeroDivisionError):
        scalar.Residues.units([3, p])


def test_weights_on_residues_are_the_exact_weights_modulo_p():
    # the one weight formula on residues against the same formula on
    # fractions, put modulo p
    from sixvertex.vertex import weights_of

    p = scalar._PRIMES[0]
    z, q = Fraction(7, 4), Fraction(3)
    exact = weights_of(z, q)
    mod = weights_of(scalar.Residues.units([7]) / 4, scalar.Residues.units([3]))
    for name in ("a", "b", "c"):
        f = getattr(exact, name)
        assert getattr(mod, name).value.tolist() == [f.numerator * pow(f.denominator, -1, p) % p]
