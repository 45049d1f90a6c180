import cmath
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sixvertex import functional
from sixvertex.errors import ConfigError, ExponentOverflow, PoleAtCoincidingPoints, ProviderFailure
from sixvertex.functional import (
    FunctionalInput,
    algebraic_provider,
    check_b_nilpotency,
    check_cbb_expansion,
    check_fz,
    expansion_coeffs,
    functional_residual,
    omission_coeff,
    substitution_coeff,
)
from sixvertex.monodromy import b_product, build_monodromy
from sixvertex.partition import z_algebraic
from sixvertex.scalar import LaurentPoly, RationalFunction, invert, q_var, u_var, w_var
from sixvertex.sampling import MIN_POLE_DISTANCE, make_rng, sample_point, sample_spectral_set
from sixvertex.solver import _monomial_provider, _parity_exponents, ansatz_box, h_table_from_z

Q = LaurentPoly.var(q_var())


def _sym_points(count, start=60):
    return tuple(LaurentPoly.var(u_var(start + i)) for i in range(count))


def _sym_mus(L):
    return tuple(LaurentPoly.var(w_var(i)) for i in range(1, L + 1))


def _w(z, q):
    a = (z * q - invert(z * q)) / 2
    b = (z - invert(z)) / 2
    c = (q - invert(q)) / 2
    return a, b, c


def test_omission_closed_form_minimal():
    # one B operator over a one-site lattice: two summands, no cross factors
    pts = _sym_points(2)
    mu = _sym_mus(1)
    got = omission_coeff(1, pts, mu, Q)
    a10, b10, c = _w(pts[1] * invert(pts[0]), Q)
    a01, b01, _ = _w(pts[0] * invert(pts[1]), Q)
    a0m, b0m, _ = _w(pts[0] * invert(mu[0]), Q)
    a1m, b1m, _ = _w(pts[1] * invert(mu[0]), Q)
    want = RationalFunction(c, b10) * a0m * b1m + RationalFunction(c, b01) * a1m * b0m
    assert got == want


def test_substitution_closed_form_minimal():
    pts = _sym_points(3)
    mu = _sym_mus(1)
    got = substitution_coeff(2, 1, pts, mu, Q)
    lam0, lam1, lam2 = pts
    _, b02, c = _w(lam0 * invert(lam2), Q)
    _, b10, _ = _w(lam1 * invert(lam0), Q)
    a21, b21, _ = _w(lam2 * invert(lam1), Q)
    a1m, b1m, _ = _w(lam1 * invert(mu[0]), Q)
    a2m, b2m, _ = _w(lam2 * invert(mu[0]), Q)
    term1 = RationalFunction(c, b02) * RationalFunction(c, b10) \
        * RationalFunction(a21, b21) * (a1m * b2m)
    _, b01, _ = _w(lam0 * invert(lam1), Q)
    _, b20, _ = _w(lam2 * invert(lam0), Q)
    a12, b12, _ = _w(lam1 * invert(lam2), Q)
    term2 = RationalFunction(c, b01) * RationalFunction(c, b20) \
        * RationalFunction(a12, b12) * (a2m * b1m)
    assert got == term1 + term2


def test_omission_swap_symmetry():
    # exchanging the distinguished point with the omitted one swaps the two
    # summands and leaves the coefficient invariant (n = 1)
    pts = _sym_points(2)
    mu = _sym_mus(1)
    swapped = (pts[1], pts[0])
    assert omission_coeff(1, pts, mu, Q) == omission_coeff(1, swapped, mu, Q)


def test_substitution_relabel_symmetry():
    pts = _sym_points(3)
    mu = _sym_mus(1)
    swapped = (pts[0], pts[2], pts[1])
    assert substitution_coeff(2, 1, pts, mu, Q) == \
        substitution_coeff(2, 1, swapped, mu, Q)


def _sinh(x):
    return cmath.sinh(x)


def _independent_omission(i, lam, mus, gamma):
    """From-scratch transcription in additive variables, for cross-checking."""
    n = len(lam) - 1
    def a(x):
        return _sinh(x + gamma)
    def b(x):
        return _sinh(x)
    c = _sinh(gamma)
    total = 0j
    for (p, r) in ((0, i), (i, 0)):
        term = c / b(lam[r] - lam[p])
        for m in mus:
            term *= a(lam[p] - m) * b(lam[r] - m)
        for k in range(1, n + 1):
            if k != i:
                term *= a(lam[r] - lam[k]) / b(lam[r] - lam[k])
                term *= a(lam[k] - lam[p]) / b(lam[k] - lam[p])
        total += term
    return total


def _independent_substitution(j, i, lam, mus, gamma):
    def a(x):
        return _sinh(x + gamma)
    def b(x):
        return _sinh(x)
    c = _sinh(gamma)
    n = len(lam) - 1
    total = 0j
    for (ii, jj) in ((i, j), (j, i)):
        term = (c / b(lam[0] - lam[jj])) * (c / b(lam[ii] - lam[0]))
        term *= a(lam[jj] - lam[ii]) / b(lam[jj] - lam[ii])
        for m in mus:
            term *= a(lam[ii] - m) * b(lam[jj] - m)
        for k in range(1, n + 1):
            if k not in (i, j):
                term *= a(lam[jj] - lam[k]) / b(lam[jj] - lam[k])
                term *= a(lam[k] - lam[ii]) / b(lam[k] - lam[ii])
        total += term
    return total


def test_duplicate_expression_oracle(rng):
    # additive-variable re-implementation against the exponentiated one
    n, L = 3, 2
    lam_add = [complex(rng.uniform(-0.6, 0.6), rng.uniform(-1.4, 1.4))
               for _ in range(n + 1)]
    mu_add = [complex(rng.uniform(-0.6, 0.6), rng.uniform(-1.4, 1.4))
              for _ in range(L)]
    gamma = complex(rng.uniform(-0.5, 0.5), rng.uniform(-1.0, 1.0))
    pts = tuple(cmath.exp(x) for x in lam_add)
    mus = tuple(cmath.exp(x) for x in mu_add)
    q = cmath.exp(gamma)
    for i in range(1, n + 1):
        got = omission_coeff(i, pts, mus, q)
        want = _independent_omission(i, lam_add, mu_add, gamma)
        assert abs(got - want) <= 1e-10 * abs(want)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            got = substitution_coeff(j, i, pts, mus, q)
            want = _independent_substitution(j, i, lam_add, mu_add, gamma)
            assert abs(got - want) <= 1e-10 * abs(want)


@pytest.mark.parametrize("call", [
    lambda pts: omission_coeff(0, pts, _sym_mus(1), Q),
    lambda pts: omission_coeff(-1, pts, _sym_mus(1), Q),
    lambda pts: omission_coeff(3, pts, _sym_mus(1), Q),
    lambda pts: substitution_coeff(3, 1, pts, _sym_mus(1), Q),
    lambda pts: substitution_coeff(2, 0, pts, _sym_mus(1), Q),
    lambda pts: substitution_coeff(1, 2, pts, _sym_mus(1), Q),
])
def test_coefficient_index_out_of_range(call):
    # three points carry n = 2 B operators: 1 <= i <= 2 and 1 <= i < j <= 2
    with pytest.raises(ValueError, match="coefficient requires 1 <= i"):
        call(_sym_points(3))


def test_identity_sum_vanishes_symbolically():
    pts = _sym_points(3, start=50)
    mus = _sym_mus(1)
    coeffs = expansion_coeffs(2, pts, mus, Q)
    total = coeffs.omit[0] + coeffs.omit[1] + coeffs.subst[(2, 1)]
    assert total.is_zero()


def test_expansion_coeffs_refuses_a_wrong_number_of_points():
    # four points are the n = 3 expansion, whose coefficients differ from
    # the n = 2 ones: n must match the points, as in the cbb residual
    pts = _sym_points(4, start=50)
    with pytest.raises(ValueError, match="n\\+1 spectral points"):
        expansion_coeffs(2, pts, _sym_mus(1), Q)
    with pytest.raises(ValueError, match="n\\+1 spectral points"):
        functional.cbb_expansion_residual(2, pts, _sym_mus(1), Q)
    assert len(expansion_coeffs(3, pts, _sym_mus(1), Q).omit) == 3


def test_fz_exact_constant_provider_l1():
    pts = _sym_points(3)
    mus = _sym_mus(1)
    inp = FunctionalInput(1, pts, mus, Q)
    c = (Q - invert(Q)) / 2
    res = functional_residual(inp, lambda subset: c)
    assert res.is_zero()


def test_fz_exact_l2():
    pts = _sym_points(4)
    mus = _sym_mus(2)
    inp = FunctionalInput(2, pts, mus, Q)
    assert functional_residual(inp).is_zero()
    assert check_fz(inp).passed


def test_fz_float_sweep(rng):
    for L in (3, 4):
        for _ in range(8):
            inp = FunctionalInput.sample(L, rng)
            out = check_fz(inp, tolerance=1e-9)
            assert out.passed


def test_fz_scale_invariance_of_zero():
    pts = _sym_points(3)
    mus = _sym_mus(1)
    inp = FunctionalInput(1, pts, mus, Q)
    base = algebraic_provider(mus, Q)
    omega = 3 * Q ** 2
    res = functional_residual(inp, lambda s: omega * base(s))
    assert res.is_zero()


def test_fz_residual_scales_exactly_with_provider():
    # a non-solution provider gives a nonzero residual that scales by Omega
    pts = _sym_points(4)
    mus = _sym_mus(2)
    inp = FunctionalInput(2, pts, mus, Q)
    bad = lambda subset: LaurentPoly.one()
    res1 = functional_residual(inp, bad)
    assert not res1.is_zero()
    omega = LaurentPoly.rational(5) * Q
    res2 = functional_residual(inp, lambda s: omega * bad(s))
    assert res2 == RationalFunction(omega) * res1


def _cleared_route(inp, provider, drop=None):
    """The exact residual the old way: each term's numerator cleared to
    den(every), times its Z, added one product at a time; the term numbered
    drop keeps its bare numerator."""
    w = functional._WeightTable(inp.points, inp.mus, inp.q)
    total = LaurentPoly.zero()
    for t, (num, pairs, subset) in enumerate(functional._terms(w)):
        cleared = num if t == drop else num * w.den(w.every - pairs)
        total = total + cleared * provider(tuple(inp.points[k] for k in subset))
    return RationalFunction(total, w.den(w.every))


def _perturbed_provider(mus, q, wrong):
    """Z, except on the subset wrong, where it is 4/3 Z plus its first point."""
    z = algebraic_provider(mus, q)
    return lambda s: z(s) * Fraction(4, 3) + s[0] if s == wrong else z(s)


def test_fz_exact_l3_perturbed_z_matches_the_pairwise_sum(monkeypatch):
    # one wrong Z value among the ten makes the residual nonzero; the kernel's
    # sum of (num, D * Z), D the b-weights outside the term's denominator,
    # must equal those products added one by one, and the cleared
    # coefficients num * D times Z added one by one
    mus = tuple(LaurentPoly.rational(Fraction(n, d)) for n, d in ((2, 3), (5, 4), (7, 2)))
    q = LaurentPoly.rational(Fraction(-3, 5))
    pts = _sym_points(5)
    inp = FunctionalInput(3, pts, mus, q)
    provider = _perturbed_provider(mus, q, pts[1:4])
    res = functional_residual(inp, provider)
    cleared = _cleared_route(inp, provider)
    assert res.num.num_terms() > 5000
    assert res.num == cleared.num and res.den == cleared.den
    # negative control: a term without its clearing factor changes the sum
    assert _cleared_route(inp, provider, drop=3).num != res.num
    monkeypatch.setattr(functional, "sum_of_products",
                        lambda pairs: sum((a * b for a, b in pairs), LaurentPoly.zero()))
    want = functional_residual(inp, provider)
    assert res.num == want.num and res.den == want.den


def test_fz_exact_l2_pairing_matches_the_cleared_route():
    # the same comparison with symbolic mus and q
    pts = _sym_points(4)
    inp = FunctionalInput(2, pts, _sym_mus(2), Q)
    provider = _perturbed_provider(inp.mus, Q, pts[1:3])
    res = functional_residual(inp, provider)
    want = _cleared_route(inp, provider)
    assert not res.is_zero()
    assert res.num == want.num and res.den == want.den
    assert _cleared_route(inp, provider, drop=2).num != res.num


def test_fz_pole_guard(rng):
    pts = list(sample_spectral_set(rng, 4))
    pts[1] = pts[0] * (1 + 1e-12)
    with pytest.raises(PoleAtCoincidingPoints):
        FunctionalInput(2, tuple(pts), tuple(sample_spectral_set(rng, 2)),
                        sample_point(rng))


def test_coefficients_pole_guard(rng):
    # every public entry point refuses float points within the pole distance
    n, L = 2, 2
    pts = list(sample_spectral_set(rng, n + 1))
    pts[2] = pts[1] * cmath.exp(0.5 * MIN_POLE_DISTANCE)
    pts = tuple(pts)
    mus = tuple(sample_spectral_set(rng, L))
    q = sample_point(rng)
    calls = (
        lambda: omission_coeff(1, pts, mus, q),
        lambda: substitution_coeff(2, 1, pts, mus, q),
        lambda: expansion_coeffs(n, pts, mus, q),
        lambda: check_cbb_expansion(n, pts, mus, q),
    )
    for call in calls:
        with pytest.raises(PoleAtCoincidingPoints):
            call()
    # the same call one pole distance further apart passes the guard
    far = (pts[0], pts[1], pts[1] * cmath.exp(2 * MIN_POLE_DISTANCE))
    assert check_cbb_expansion(n, far, mus, q).passed


def test_provider_failure_wrapped():
    pts = _sym_points(3)
    mus = _sym_mus(1)
    inp = FunctionalInput(1, pts, mus, Q)

    def broken(subset):
        raise RuntimeError("backend exploded")

    with pytest.raises(ProviderFailure):
        functional_residual(inp, broken)


def test_cbb_exact_cases():
    for n, L in ((1, 1), (2, 2), (2, 3)):
        pts = _sym_points(n + 1, start=70)
        out = check_cbb_expansion(n, pts, _sym_mus(L), Q)
        assert out.exact and out.passed


def test_cbb_numeric(rng):
    # includes the operator count equal to lattice size plus one
    for n, L in ((4, 3), (3, 2)):
        pts = tuple(sample_spectral_set(rng, n + 1))
        mus = tuple(sample_spectral_set(rng, L))
        out = check_cbb_expansion(n, pts, mus, sample_point(rng), tolerance=1e-9)
        assert out.passed


def test_cbb_with_no_b_operators_float(rng):
    # one point and no pair to guard: C(lam_0)|0> = 0 on both backends
    mus = tuple(sample_spectral_set(rng, 2))
    out = check_cbb_expansion(0, (sample_point(rng),), mus, sample_point(rng))
    assert out.passed and not out.exact
    assert out.residual == 0.0
    assert check_cbb_expansion(0, _sym_points(1), _sym_mus(2), Q).passed


def test_nilpotency_exact():
    for L in (1, 2, 3):
        lams = _sym_points(L + 1, start=80)
        out = check_b_nilpotency(L, lams, _sym_mus(L), Q)
        assert out.exact and out.passed


def test_nilpotency_refuses_a_wrong_number_of_inhomogeneities():
    # three points and one mu would check a one-site chain, not L = 2
    with pytest.raises(ValueError, match="L inhomogeneities"):
        check_b_nilpotency(2, _sym_points(3, start=80), _sym_mus(1), Q)


def test_nilpotency_float_l5(rng):
    L = 5
    lams = sample_spectral_set(rng, L + 1)
    mus = sample_spectral_set(rng, L)
    out = check_b_nilpotency(L, lams, mus, sample_point(rng), tolerance=1e-10)
    assert out.passed


def test_float_nilpotency_fails_only_on_a_nan(rng):
    # no state has L + 1 flipped spins, so the float residual is exactly
    # 0.0 whatever the points: only a NaN (or an indexing fault) fails it
    L = 3
    lams = list(sample_spectral_set(rng, L + 1))
    mus = sample_spectral_set(rng, L)
    q = sample_point(rng)
    out = check_b_nilpotency(L, lams, mus, q)
    assert out.passed and out.residual == 0.0 and out.scale > 0
    lams[2] = complex("nan")
    out = check_b_nilpotency(L, lams, mus, q)
    assert not out.passed and math.isnan(out.residual)


def test_nilpotency_float_l7_matrix_free(rng):
    # the B block for the scale is materialized by one sweep over the
    # 128 x 128 identity
    L = 7
    lams = sample_spectral_set(rng, L + 1)
    mus = sample_spectral_set(rng, L)
    out = check_b_nilpotency(L, lams, mus, sample_point(rng), tolerance=1e-10)
    assert out.passed


def test_functional_input_validation():
    with pytest.raises(ValueError):
        FunctionalInput(2, _sym_points(3), _sym_mus(2), Q)
    with pytest.raises(ValueError):
        FunctionalInput(2, _sym_points(4), _sym_mus(1), Q)


def test_fz_matches_projected_cbb(rng):
    # the scalar relation is the dual-vacuum projection of the vector one
    L = 2
    n = L + 1
    pts = tuple(sample_spectral_set(rng, n + 1))
    mus = tuple(sample_spectral_set(rng, L))
    q = sample_point(rng)
    inp = FunctionalInput(L, pts, mus, q)
    res = functional_residual(inp, algebraic_provider(mus, q))
    # same combination, assembled via the expansion coefficients directly
    coeffs = expansion_coeffs(n, pts, mus, q)
    acc = 0j
    for i in range(1, n + 1):
        subset = [pts[k] for k in range(1, n + 1) if k != i]
        acc += coeffs.omit[i - 1] * z_algebraic(subset, mus, q)
    for (j, i), cval in coeffs.subst.items():
        subset = [pts[0]] + [pts[k] for k in range(1, n + 1) if k not in (i, j)]
        acc += cval * z_algebraic(subset, mus, q)
    assert abs(res - acc) <= 1e-12 * max(abs(acc), 1e-30)


# -- batches of point sets ---------------------------------------------


def _batch(L, seed, count=12):
    """count seeded point sets as one batch (each point an array over the
    sets), the sets one by one, and a sampled q."""
    rng = make_rng(seed)
    q = sample_point(rng)
    sets = [tuple(sample_spectral_set(rng, L + 2)) for _ in range(count)]
    return tuple(np.array(sets).T), sets, q


def _table_provider(L, q):
    """Z from the directly expanded coefficient table, evaluated at q; works
    on one point set or elementwise on a batch."""
    table = h_table_from_z(L)
    terms = [(complex(table.entries[idx].eval({q_var(): q})), idx) for idx in ansatz_box(L)]

    def provider(subset):
        total = 0j
        for h, idx in terms:
            for p, e in zip(subset, idx):
                h = h * p ** e
            total = total + h
        return total

    return provider


def _scalar_monomial_provider(L):
    """The per-set reference for the batched monomial provider."""
    box_range = np.array(_parity_exponents(L))

    def provider(subset):
        column = np.power(subset[0], box_range)
        for p in subset[1:]:
            column = np.multiply.outer(column, np.power(p, box_range)).ravel()
        return column

    return provider


@pytest.mark.parametrize("L", [2, 3])
def test_batched_fz_matches_per_set_z_provider(L):
    # each set of the batch against its own scalar call, within 1e-12 of
    # that set's check_fz scale
    # that set's check_fz scale; the table solves the equation, and times
    # its first point it does not, so the second comparison sees O(scale)
    pts, sets, q = _batch(L, 40 + L)
    mus = (1.0 + 0j,) * L
    table = _table_provider(L, q)
    for provider, solves in ((table, True), (lambda s: table(s) * s[0], False)):
        res = functional_residual(FunctionalInput(L, pts, mus, q), provider)
        assert res.shape == (len(sets),)
        for j, one in enumerate(sets):
            inp = FunctionalInput(L, one, mus, q)
            out = check_fz(inp, provider)
            assert out.passed == solves
            assert abs(res[j] - functional_residual(inp, provider)) <= 1e-12 * out.scale


@pytest.mark.parametrize("L", [2, 3])
def test_batched_fz_matches_per_set_monomial_provider(L):
    # the solver's batched columns against the per-set loop, column by
    # column; a column's scale is check_fz's scale for that one monomial
    pts, sets, q = _batch(L, 50 + L)
    mus = (1.0 + 0j,) * L
    res = functional_residual(FunctionalInput(L, pts, mus, q), _monomial_provider(L))
    assert res.shape == (L ** L, len(sets))
    for j, one in enumerate(sets):
        row, scale = functional._functional_residual_with_scale(
            FunctionalInput(L, one, mus, q), _scalar_monomial_provider(L))
        assert np.all(np.abs(res[:, j] - row) <= 1e-12 * scale)


def test_batch_pole_guard_names_the_set():
    L = 2
    pts, sets, q = _batch(L, 60)
    near = [p.copy() for p in pts]
    near[2][3] = near[1][3] * cmath.exp(0.5 * MIN_POLE_DISTANCE)
    with pytest.raises(PoleAtCoincidingPoints, match=r"set 3: .*\(1, 2\)"):
        FunctionalInput(L, tuple(near), (1.0 + 0j,) * L, q)
    FunctionalInput(L, pts, (1.0 + 0j,) * L, q)  # the unmoved batch passes


def test_batch_input_validation():
    pts, _, q = _batch(2, 61)
    inp = FunctionalInput(2, pts, (1.0 + 0j,) * 2, q)
    with pytest.raises(ValueError):
        check_fz(inp, _table_provider(2, q))
    with pytest.raises(ValueError):
        functional_residual(inp)  # the operator-product provider takes one set
    with pytest.raises(ValueError):
        FunctionalInput(2, pts[:-1] + (pts[-1][:-1],), (1.0 + 0j,) * 2, q)


@pytest.mark.parametrize("L", range(1, 7))
def test_default_float_fz_is_bitwise_the_per_subset_provider(L):
    # the batched operator product gathers the weight table's own weights,
    # so residual and scale are the same floats as z_algebraic per subset
    for seed in range(6):
        inp = FunctionalInput.sample(L, make_rng(100 * L + seed))
        batched = functional._functional_residual_with_scale(inp)
        per_subset = functional._functional_residual_with_scale(
            inp, algebraic_provider(inp.mus, inp.q))
        assert batched == per_subset


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_gathered_b_products_are_the_per_subset_products(L):
    # each operator's batch is gathered from the table's weights by the
    # subsets' points at its position; the rotations of 1..L+1 put point 1
    # at every position, and the reversed and point-0 subsets mix them more
    base = list(range(1, L + 2))
    subsets = [tuple(base[r:] + base[:r])[:L] for r in range(L + 1)]
    subsets += [tuple(reversed(base))[:L], (0, *base[:L - 1]), (*base[1:L], 0)]
    rng = make_rng(80 + L)
    float_input = (tuple(sample_spectral_set(rng, L + 2)), tuple(sample_spectral_set(rng, L)),
                   sample_point(rng))
    # symbolic points, rational mus and q: the exact products stay small at L = 4
    exact_input = (_sym_points(L + 2), tuple(LaurentPoly.rational(Fraction(k, 7))
                                             for k in range(2, L + 2)),
                   LaurentPoly.rational(Fraction(-3, 5)))
    for (pts, mus, q), exact in ((float_input, False), (exact_input, True)):
        got = functional._WeightTable(pts, mus, q).b_products(subsets)
        assert got.shape == (2 ** L, len(subsets)) and (got.dtype == object) == exact
        for t, subset in enumerate(subsets):
            want = b_product([pts[k] for k in subset], mus, q)
            if exact:
                assert list(got[:, t]) == list(want)
            else:
                assert got[:, t].tobytes() == want.tobytes()


def test_default_float_fz_failure_is_a_provider_failure(monkeypatch, rng):
    inp = FunctionalInput.sample(2, rng)

    def broken(rows):
        raise RuntimeError("batch exploded")

    monkeypatch.setattr(functional, "batch_monodromy", broken)
    with pytest.raises(ProviderFailure, match="batch exploded"):
        check_fz(inp)


@pytest.mark.parametrize("n, L", [(1, 1), (2, 2), (3, 2), (3, 3), (4, 4), (5, 4)])
def test_float_cbb_is_bitwise_the_per_subset_sum(n, L):
    # the term vectors come from one batch; subtracting them column by
    # column in term order gives the per-subset loop's floats
    rng = make_rng(40 + 10 * n + L)
    pts = tuple(sample_spectral_set(rng, n + 1))
    mus = tuple(sample_spectral_set(rng, L))
    q = sample_point(rng)
    w = functional._WeightTable(pts, mus, q)
    want = build_monodromy(pts[0], mus, q).apply("C", b_product(pts[1:], mus, q)).astype(complex)
    scale = float(np.abs(want).sum())
    for num, pairs, subset in functional._terms(w):
        term = w.coefficient(num, pairs) * b_product([pts[k] for k in subset], mus, q)
        want = want - term
        scale += float(np.abs(term).sum())
    res, got_scale = functional.cbb_expansion_residual(n, pts, mus, q)
    assert res.tobytes() == want.tobytes() and got_scale == scale


def _tripled_omissions(monkeypatch):
    # every omission numerator times 3, which both _orbits and _terms read,
    # so that the orbits stay orbits: the residual is no longer zero, and
    # it sees every operator product
    parts = functional._omission_parts

    def tripled(i, w):
        num, pairs = parts(i, w)
        return num * 3, pairs

    monkeypatch.setattr(functional, "_omission_parts", tripled)


_EXACT_FZ_CASES = [
    (1, _sym_points(3), _sym_mus(1), Q),
    (2, _sym_points(4), _sym_mus(2), Q),
    (3, _sym_points(5),
     tuple(LaurentPoly.rational(Fraction(n, d)) for n, d in ((2, 3), (5, 4), (7, 2))),
     LaurentPoly.rational(Fraction(-3, 5))),
]


def _interleaved_numerators(w, drop=False):
    """Every term's numerator as the left fold that interleaves the factors:
    the c's, then a(lam_p - mu_k) b(lam_r - mu_k) mu by mu, then
    a(lam_r - lam_k) a(lam_k - lam_p) point by point, with b(x - y) =
    -b(y - x) turned into a sign; drop leaves out the first point pair's
    a(lam_r - lam_k)."""
    n = w.n

    def half(p, r, start, sign, others):
        acc = start
        for mp, mr in zip(w.mu[p], w.mu[r]):
            acc = acc * mp.a * mr.b
        for t, k in enumerate(others):
            sign *= (1 if r < k else -1) * (1 if k < p else -1)
            if not (drop and t == 0):
                acc = acc * w.pt[r, k].a
            acc = acc * w.pt[k, p].a
        return acc if sign > 0 else -acc

    nums = []
    for i in range(1, n + 1):
        others = [k for k in range(1, n + 1) if k != i]
        nums.append(half(0, i, w.c, -1, others)
                    + half(i, 0, w.c, 1, others))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            others = [m for m in range(1, n + 1) if m not in (i, j)]
            nums.append(half(i, j, w.c * w.c * w.pt[j, i].a, 1, others)
                        + half(j, i, w.c * w.c * w.pt[i, j].a, -1, others))
    return nums


@pytest.mark.parametrize("L, pts, mus, q", [
    (1, _sym_points(3), _sym_mus(1), Q),
    (2, _sym_points(4), _sym_mus(2), Q),
    (3, _sym_points(5), _sym_mus(3), Q),
    _EXACT_FZ_CASES[2],
])
def test_numerators_are_the_interleaved_fold(L, pts, mus, q):
    # the numerators from per-point mu-products against the formulas
    # multiplied out factor by factor; negative control: one a-factor of a
    # point pair left out
    w = functional._WeightTable(pts, mus, q)
    nums = [num for num, _, _ in functional._terms(w)]
    assert len(nums) == (L + 1) * (L + 2) // 2
    assert nums == _interleaved_numerators(w)
    assert nums != _interleaved_numerators(w, drop=True)


@pytest.mark.parametrize("L, pts, mus, q", _EXACT_FZ_CASES)
def test_default_exact_fz_is_the_per_subset_provider(monkeypatch, L, pts, mus, q):
    # the orbit sums at the generic points against z_algebraic subset by
    # subset, on the identity and with every omission numerator tripled
    inp = FunctionalInput(L, pts, mus, q)
    for tripled in (False, True):
        if tripled:
            _tripled_omissions(monkeypatch)
        orbits = functional_residual(inp)
        per_subset = functional_residual(inp, algebraic_provider(mus, q))
        assert orbits.num == per_subset.num and orbits.den == per_subset.den
        assert orbits.is_zero() != tripled


def test_default_exact_fz_failure_is_a_provider_failure(monkeypatch):
    # the exact default route sweeps once at the generic points
    inp = FunctionalInput(2, _sym_points(4), _sym_mus(2), Q)

    def broken(ms, v):
        raise RuntimeError("batch exploded")

    monkeypatch.setattr(functional, "b_products", broken)
    with pytest.raises(ProviderFailure, match="batch exploded"):
        check_fz(inp)


def _spy_routes(monkeypatch) -> dict:
    """Patch ``_orbits`` and ``_terms`` to count their calls: the default
    exact route makes one ``_orbits`` call, an explicit provider one
    ``_terms`` call."""
    calls = {"_orbits": 0, "_terms": 0}
    for name in calls:
        def spy(w, name=name, real=getattr(functional, name)):
            calls[name] += 1
            return real(w)

        monkeypatch.setattr(functional, name, spy)
    return calls


def _wrong_factor(points):
    """The product of the points.  A Z at q * 11/13 times it is wrong, yet
    still symmetric in the points; the factor keeps it wrong at L = 1,
    where Z is c at every point and a wrong q alone scales every Z alike."""
    return math.prod(points, start=LaurentPoly.one())


def _sweep_wrong(monkeypatch):
    """Every default Z swept at q * 11/13, times ``_wrong_factor``."""
    sweep = functional._WeightTable.b_products

    def wrong(w, subsets):
        out = sweep(functional._WeightTable(w.points, w.mus, w.q * Fraction(11, 13)), subsets)
        return out * np.array([_wrong_factor([w.points[k] for k in s]) for s in subsets])

    monkeypatch.setattr(functional._WeightTable, "b_products", wrong)


def _wrong_provider(mus, q):
    z = algebraic_provider(mus, q * Fraction(11, 13))
    return lambda s: z(s) * _wrong_factor(s)


@pytest.mark.parametrize("L, pts, mus, q", _EXACT_FZ_CASES)
def test_exact_fz_routes_meet_on_a_wrong_factor(monkeypatch, L, pts, mus, q):
    # the negative control of the orbit route: with a wrong Z that is still
    # symmetric in the points, the orbit sums and the explicit provider,
    # term by term, give the same nonzero residual
    inp = FunctionalInput(L, pts, mus, q)
    _sweep_wrong(monkeypatch)
    calls = _spy_routes(monkeypatch)
    orbits = functional_residual(inp)
    assert calls == {"_orbits": 1, "_terms": 0}
    terms = functional_residual(inp, _wrong_provider(mus, q))
    assert calls == {"_orbits": 1, "_terms": 1}
    assert orbits.num == terms.num and orbits.den == terms.den
    assert not orbits.is_zero()


_ORBIT_CASES = {
    **{f"symbolic-L{L}": (L, _sym_points(L + 2), _sym_mus(L), Q) for L in (0, 1, 2)},
    "rational": _EXACT_FZ_CASES[2],
    "cli-L3": (3, _sym_points(5), tuple(LaurentPoly.rational(v) for v in (2, 3, 5)), Q),
}


@pytest.mark.parametrize("case", sorted(_ORBIT_CASES))
def test_exact_fz_orbit_route_is_the_per_term_route(monkeypatch, case):
    # the two canonical terms relabeled in the kernel against every term
    # built and decoded for the explicit provider
    # (test_exact_fz_routes_meet_on_a_wrong_factor compares them on a
    # nonzero residual)
    L, pts, mus, q = _ORBIT_CASES[case]
    inp = FunctionalInput(L, pts, mus, q)
    calls = _spy_routes(monkeypatch)
    orbits = functional_residual(inp)
    assert calls == {"_orbits": 1, "_terms": 0}
    terms = functional_residual(inp, algebraic_provider(mus, q))
    assert calls == {"_orbits": 1, "_terms": 1}
    assert orbits.num == terms.num and orbits.den == terms.den
    assert orbits.is_zero()


def test_exact_fz_orbits_at_symbolic_l3_term_by_term():
    # fully symbolic L = 3, where each route takes seconds, at the generic
    # points the orbit route sums on: every term's num * D and Z against
    # sgn(sigma) sigma of its family's canonical term's, sigma the
    # relabeling the orbit route hands the kernel; negative control: an odd
    # sigma without its sign
    pts, mus = _sym_points(5), _sym_mus(3)
    w, vs, put_in = functional._generic_table(pts, mus, Q)
    assert vs == [u_var(functional._GENERIC + k) for k in range(5)]
    assert w.points == [LaurentPoly.var(v) for v in vs] and list(put_in.values()) == list(pts)
    terms = list(functional._terms(w))
    zs = w.b_products([s for *_, s in terms])[-1]
    # _terms' order: omissions i = 1..4, then substitutions (j, i), i < j
    fronts = [(i,) for i in range(1, 5)] + list(itertools.combinations(range(1, 5), 2))
    odd = 0
    for (num, pairs, _), front, z in zip(terms, fronts, zs):
        c = 0 if len(front) == 1 else 4
        sigma = [*front, *(k for k in range(1, 5) if k not in front)]
        sign = (-1) ** sum(x > y for x, y in itertools.combinations(sigma, 2))
        to = {vs[k]: LaurentPoly.var(vs[s]) for k, s in enumerate(sigma, 1)}
        cleared = num * w.clearing(pairs)
        image = (terms[c][0] * w.clearing(terms[c][1])).substitute(to)
        assert cleared == image * sign
        assert z == zs[c].substitute(to)
        if sign < 0:
            odd += 1
            assert cleared != image
    assert odd == 4


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orbits_list_the_terms_in_order(n):
    # the orbit helper's terms are _terms' terms, in _terms' order: each
    # subset the canonical one carried by sigma position by position, each
    # sigma a permutation of 0..n that fixes 0, each sign its signature
    pts = _sym_points(n + 1)
    w = functional._WeightTable(pts, _sym_mus(1), Q)
    families = functional._orbits(w)
    assert len(families) == (1 if n == 1 else 2)
    assert [c[2] for c, _ in families] == [tuple(range(2, n + 1)),
                                           (0, *range(3, n + 1))][:len(families)]
    want = [subset for *_, subset in functional._terms(w)]
    got = []
    for (num, pairs, subset), orbit in families:
        for sigma, sign, term_subset in orbit:
            assert sorted(sigma) == list(range(n + 1)) and sigma[0] == 0
            inversions = sum(x > y for x, y in itertools.combinations(sigma, 2))
            assert sign == (-1) ** inversions
            assert term_subset == tuple(sigma[k] for k in subset)
            got.append(term_subset)
    assert got == want
    # the canonical terms are _terms' omission 1 and substitution (2, 1)
    terms = list(functional._terms(w))
    assert families[0][0] == terms[0]
    if n >= 2:
        assert families[1][0] == terms[n]


def test_exact_fz_at_number_points():
    # exact points that are ints and Fractions: the weight table inverts
    # them exactly, the residual vanishes, equals the per-subset provider's
    # and is not zero for a wrong Z
    pts = (2, 3, Fraction(5, 2), 7)
    inp = FunctionalInput(2, pts, _sym_mus(2), Q)
    got = functional_residual(inp)
    want = functional_residual(inp, algebraic_provider(inp.mus, Q))
    assert got.is_zero() and want.is_zero()
    assert got.num == want.num and got.den == want.den
    assert check_fz(inp).passed
    wrong = functional_residual(inp, _wrong_provider(inp.mus, Q))
    assert not wrong.is_zero()


@pytest.mark.parametrize("case", ["repeated", "coefficient", "exponent", "two-variables",
                                  "rational-points", "shared-mu", "shared-q"])
def test_exact_fz_route_guard(monkeypatch, case):
    # inputs whose points a relabeling may not move freely take the orbit
    # route too, at the generic points, and give the per-subset provider's
    # residual (with a wrong Z, so that it is not zero); summed on the
    # input's own points, with no generic table, an input that shares a
    # point variable gets a different numerator
    u = _sym_points(4)
    pts, mus, q = list(u), list(_sym_mus(2)), Q
    if case == "repeated":
        pts[2] = pts[1]
    elif case == "coefficient":
        pts[1] = pts[1] * Fraction(2, 3)
    elif case == "exponent":
        pts[2] = pts[2] ** -1
    elif case == "two-variables":
        pts[3] = pts[3] * LaurentPoly.var(w_var(9))
    elif case == "rational-points":
        pts = [LaurentPoly.rational(Fraction(k + 2, 3)) for k in range(4)]
    elif case == "shared-mu":
        mus[1] = mus[1] * u[1]
    else:
        q = Q * u[1]
    inp = FunctionalInput(2, tuple(pts), tuple(mus), q)
    calls = _spy_routes(monkeypatch)
    if case == "repeated":
        # b(lam_1 - lam_2) = 0: no common denominator on either route
        for provider in (None, algebraic_provider(inp.mus, q)):
            with pytest.raises(ZeroDivisionError):
                functional_residual(inp, provider)
        assert calls == {"_orbits": 1, "_terms": 1}
        return
    assert functional_residual(inp).is_zero()
    assert calls == {"_orbits": 1, "_terms": 0}
    _sweep_wrong(monkeypatch)
    got = functional_residual(inp)
    want = functional_residual(inp, _wrong_provider(inp.mus, q))
    assert calls == {"_orbits": 2, "_terms": 1}
    assert not got.is_zero() and got.num == want.num and got.den == want.den
    if case.startswith("shared"):
        w = functional._WeightTable(inp.points, inp.mus, q)
        families = functional._orbits(w)
        zs = w.b_products([c[2] for c, _ in families])[-1]
        own = functional._orbit_expansion_sum(w, families, zs, [u_var(60 + k) for k in range(4)])
        assert RationalFunction(own, w.den(w.every)) != got


@st.composite
def _exact_point_shapes(draw):
    """An exact L = 1 or 2 input: each point a monomial c * u^e (c and e
    from +-1..3, a second variable now and then), an int or a Fraction;
    symbolic mus and q, each of which may share a point's variable."""
    L = draw(st.integers(1, 2))
    u = _sym_points(L + 2)
    small = st.sampled_from([-3, -2, -1, 1, 2, 3])
    pts = []
    for k in range(L + 2):
        shape = draw(st.sampled_from(["monomial", "monomial", "int", "fraction"]))
        if shape == "int":
            pts.append(draw(small) * draw(st.integers(1, 3)))
        elif shape == "fraction":
            pts.append(Fraction(draw(small), draw(st.sampled_from([2, 3, 5]))))
        else:
            p = u[k] ** draw(small) * Fraction(draw(small), draw(st.sampled_from([1, 2, 3])))
            if draw(st.booleans()):
                p = p * LaurentPoly.var(w_var(9)) ** draw(small)
            pts.append(p)
    shared = st.sampled_from([None, *u])
    mus = tuple(m if v is None else m * v for m, v in
                zip(_sym_mus(L), (draw(shared) for _ in range(L))))
    v = draw(shared)
    return FunctionalInput(L, tuple(pts), mus, Q if v is None else Q * v)


def _residual_or_error(inp, provider=None):
    try:
        res = functional_residual(inp, provider)
    except ZeroDivisionError:
        return ZeroDivisionError
    return res.num, res.den


@settings(max_examples=6)
@given(_exact_point_shapes())
def test_default_exact_fz_is_the_per_subset_provider_at_any_point_shape(inp):
    # one route for every exact input: the orbit sums at the generic points,
    # the input's points put in, against z_algebraic subset by subset, with
    # the right Z and with Z at a wrong q times its points' product; points
    # that meet a zero of b give no common denominator on either route
    assert _residual_or_error(inp) == _residual_or_error(
        inp, algebraic_provider(inp.mus, inp.q))
    with pytest.MonkeyPatch.context() as m:
        _sweep_wrong(m)
        got = _residual_or_error(inp)
    want = _residual_or_error(inp, _wrong_provider(inp.mus, inp.q))
    assert got == want
    assert got is ZeroDivisionError or got[0]


_GENERIC_CASES = {
    "symbolic": lambda L: (_sym_points(L + 2), _sym_mus(L), Q),
    "rational-points": lambda L: (
        tuple(LaurentPoly.rational(Fraction(k + 2, 3)) for k in range(L + 2)), _sym_mus(L), Q),
    "monomial-points": lambda L: (
        tuple(LaurentPoly.monomial(Fraction(2 * k + 3, 5), {u_var(60 + k): -1 - k % 2, w_var(9): 1})
              for k in range(L + 2)),
        tuple(LaurentPoly.rational(Fraction(k + 2, 7)) for k in range(L)),
        LaurentPoly.rational(Fraction(-3, 5))),
}


@pytest.mark.parametrize("case", sorted(_GENERIC_CASES))
@pytest.mark.parametrize("L", [1, 2, 3])
def test_exact_b_products_are_the_per_subset_product(case, L):
    # the exact batch sweep of the table's own weights, at points of every
    # shape, against b_product subset by subset, at every length FZ (L) and
    # cbb (n and n - 1) use; negative control: one point of a subset changed (from
    # L = 2 on: at L = 1, B |0> is c |1> at every point)
    pts, mus, q = _GENERIC_CASES[case](L)
    w = functional._WeightTable(pts, mus, q)
    for m in range(max(L - 1, 0), L + 2):
        subsets = list(itertools.combinations(range(L + 2), m))
        subsets.append(subsets[-1][::-1])  # the B's commute
        got = w.b_products(subsets)
        for j, s in enumerate(subsets):
            assert list(got[:, j]) == list(b_product([pts[k] for k in s], mus, q))
        if L > 1 and 0 < m <= L:
            wrong = [pts[k] for k in subsets[0]]
            wrong[-1] = wrong[-1] * Fraction(11, 13)
            assert list(got[:, 0]) != list(b_product(wrong, mus, q))


def test_exact_inputs_must_not_use_the_generic_points():
    reserved = LaurentPoly.var(u_var(functional._GENERIC + 1))
    pts, mus = _sym_points(4), _sym_mus(2)
    for bad in ((pts[:3] + (reserved,), mus, Q), (pts, (mus[0], reserved), Q),
                (pts, mus, Q * reserved)):
        with pytest.raises(ConfigError, match="reserved"):
            functional_residual(FunctionalInput(2, *bad))
        with pytest.raises(ConfigError, match="reserved"):
            check_cbb_expansion(3, *bad)
    # the index just below the block is an ordinary variable
    below = pts[:3] + (LaurentPoly.var(u_var(functional._GENERIC - 1)),)
    assert functional_residual(FunctionalInput(2, below, mus, Q)).is_zero()


def test_exponent_overflow_in_a_substituted_product():
    # two points share u1^9000: every weight and per-point product stays in
    # range (u1^27000 at most), their B-product at L = 3 does not (u1^36000)
    big = LaurentPoly.var(u_var(1)) ** 9000
    pts = (_sym_points(1)[0], big, big * LaurentPoly.var(u_var(2)), *_sym_points(2, start=63))
    mus = tuple(LaurentPoly.rational(Fraction(k, 7)) for k in (2, 3, 4))
    q = LaurentPoly.rational(Fraction(-3, 5))
    w = functional._WeightTable(pts, mus, q)
    for call in (lambda: w.b_products([(1, 2, 3)]), lambda: b_product(pts[1:4], mus, q)):
        with pytest.raises(ExponentOverflow):
            call()
    # the orbit sums run at the generic points, where nothing overflows:
    # the cbb residual there is the exact zero, and stays zero with the
    # points put in; the FZ residual's den(every) takes the points in
    # (u1^54000), and overflows
    res, _ = functional.cbb_expansion_residual(3, pts[:4], mus, q)
    assert len(res) == 8 and all(x.is_zero() for x in res)
    with pytest.raises(ExponentOverflow, match="54000"):
        functional_residual(FunctionalInput(3, pts, mus, q))


def _cbb_cleared_route(pts, mus):
    """The exact cbb residual the old way: C(lam_0) prod B |0> times
    den(every), minus each term's numerator cleared to den(every) times its
    b_product vector, one term at a time.  Also the weight table, and term
    0 as (numerator, pair set, b_product vector, the vector times the
    cleared numerator), None when there is no term."""
    w = functional._WeightTable(pts, mus, Q)
    want = build_monodromy(pts[0], mus, Q).apply("C", b_product(pts[1:], mus, Q)) \
        * w.den(w.every)
    first = None
    for num, pairs, subset in functional._terms(w):
        cleared = num * w.den(w.every - pairs)
        vec = b_product([pts[k] for k in subset], mus, Q)
        term = vec * cleared
        want = want - term
        if first is None:
            first = (num, pairs, vec, term)
    return want, w, first


@pytest.mark.parametrize("n, L", [(0, 2), (1, 1), (2, 2), (3, 2), (2, 3), (3, 3)])
def test_exact_cbb_is_the_per_subset_sum(monkeypatch, n, L):
    # the orbit sum of each entry against b_product term by term, with every
    # omission numerator tripled so that the residual is not zero when n > 0
    _tripled_omissions(monkeypatch)
    calls = _spy_routes(monkeypatch)
    pts = _sym_points(n + 1, start=70)
    mus = _sym_mus(L)
    res, scale = functional.cbb_expansion_residual(n, pts, mus, Q)
    assert calls == {"_orbits": 1, "_terms": 0}
    plain, w, first = _cbb_cleared_route(pts, mus)
    assert scale is None and list(res) == list(plain)
    assert all(x.is_zero() for x in res) == (n == 0)
    if n == 3:
        # negative control: from n = 3 on, a term's clearing factor is not
        # one, and term 0 with its bare numerator changes the residual
        num, pairs, vec, term = first
        assert w.clearing(pairs) != LaurentPoly.one()
        dropped = plain + term - vec * num
        assert list(dropped) != list(res)


def test_exact_checks_with_no_sites():
    # L = 0: the batches carry no weights, so the sweep takes the exact zero
    # from the vector it acts on
    pts = _sym_points(3, start=70)
    for n in (0, 1, 2):
        assert check_cbb_expansion(n, pts[:n + 1], (), Q).passed
    assert functional_residual(FunctionalInput(0, pts[:2], (), Q)).is_zero()
