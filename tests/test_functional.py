import cmath

import pytest

from sixvertex.errors import PoleAtCoincidingPoints, ProviderFailure
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
from sixvertex.partition import z_algebraic
from sixvertex.scalar import LaurentPoly, RationalFunction, invert, q_var, u_var, w_var
from sixvertex.sampling import sample_point, sample_spectral_set

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


def test_identity_sum_vanishes_symbolically():
    pts = _sym_points(3, start=50)
    mus = _sym_mus(1)
    coeffs = expansion_coeffs(2, pts, mus, Q)
    total = coeffs.omit[0] + coeffs.omit[1] + coeffs.subst[(2, 1)]
    assert total.is_zero()


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


def test_fz_pole_guard(rng):
    pts = list(sample_spectral_set(rng, 4))
    pts[1] = pts[0] * (1 + 1e-12)
    with pytest.raises(PoleAtCoincidingPoints):
        FunctionalInput(2, tuple(pts), tuple(sample_spectral_set(rng, 2)),
                        sample_point(rng))


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


def test_nilpotency_exact():
    for L in (1, 2, 3):
        lams = _sym_points(L + 1, start=80)
        out = check_b_nilpotency(L, lams, _sym_mus(L), Q)
        assert out.exact and out.passed


def test_nilpotency_float_l5(rng):
    L = 5
    lams = sample_spectral_set(rng, L + 1)
    mus = sample_spectral_set(rng, L)
    out = check_b_nilpotency(L, lams, mus, sample_point(rng), tolerance=1e-10)
    assert out.passed


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
