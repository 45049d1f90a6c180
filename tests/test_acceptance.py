"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

from sixvertex.asymptotics import (
    check_ordering_sum,
    check_p_relations,
    check_zbar_leading,
    vacuum_sandwich_p_chain,
)
from sixvertex.functional import (
    FunctionalInput,
    algebraic_provider,
    check_b_nilpotency,
    check_cbb_expansion,
    check_fz,
    expansion_coeffs,
    functional_residual,
)
from sixvertex.monodromy import check_commutation, check_rtt
from sixvertex.partition import (
    count_configs,
    polynomial_structure_report,
    standard_symbolic_params,
    z_algebraic,
    z_enumerate,
)
from sixvertex.scalar import (
    LaurentPoly,
    RationalFunction,
    invert,
    q_var,
    u_var,
    w_var,
)
from sixvertex.solver import (
    ansatz_box,
    expected_l2_table,
    h_table_from_z,
    homogeneous_ode_residual,
    homogeneous_partition_polynomial,
    solve_fz_exact,
    verify_h_table,
)
from sixvertex.vertex import check_yang_baxter
from sixvertex.sampling import make_rng, sample_point, sample_spectral_set

Q = LaurentPoly.var(q_var())


def _report(num: int, name: str, passed: bool) -> bool:
    print(f"\n[acceptance] criterion {num} ({name}): {'PASS' if passed else 'FAIL'}")
    return passed


def _sym_points(count, start=60):
    return tuple(LaurentPoly.var(u_var(start + i)) for i in range(count))


def _sym_mus(L):
    return tuple(LaurentPoly.var(w_var(i)) for i in range(1, L + 1))


def test_criterion_1_oracle_equivalence():
    ok = True
    for L in (1, 2, 3):
        lams, mus, q = standard_symbolic_params(L)
        ok = ok and (z_enumerate(lams, mus, q, "pruned") == z_algebraic(lams, mus, q))
    rng = make_rng(101)
    for L in (4, 5):
        for _ in range(50):
            lams = sample_spectral_set(rng, L)
            mus = sample_spectral_set(rng, L)
            q = sample_point(rng)
            za = z_algebraic(lams, mus, q)
            zp = z_enumerate(lams, mus, q, "pruned")
            ok = ok and abs(za - zp) <= 1e-9 * abs(za)
    assert _report(1, "dual-route partition function", ok)


def test_criterion_2_functional_equation():
    ok = True
    # exact: sizes 1 and 2 fully symbolic (spectral points, inhomogeneities, q)
    for L in (1, 2):
        inp = FunctionalInput(L, _sym_points(L + 2), _sym_mus(L), Q)
        ok = ok and functional_residual(inp).is_zero()
    # size 3: fully symbolic spectral points and q, exact rational
    # inhomogeneities (e^mu = 2, 3, 5)
    inp3 = FunctionalInput(
        3, _sym_points(5),
        tuple(LaurentPoly.rational(v) for v in (2, 3, 5)), Q)
    ok = ok and functional_residual(inp3).is_zero()
    rng = make_rng(102)
    for L in (4, 5):
        for _ in range(50):
            inp = FunctionalInput.sample(L, rng)
            out = check_fz(inp, tolerance=1e-9)
            ok = ok and out.passed
    assert _report(2, "functional equation residual", ok)


def test_criterion_3_operator_identities():
    ok = True
    pts = _sym_points(3, start=90)
    ok = ok and check_yang_baxter(pts[0], pts[1], pts[2], Q).passed
    for L in (1, 2):
        ok = ok and check_rtt(pts[0], pts[1], _sym_mus(L), Q).passed
    rng = make_rng(103)
    for L in (3, 4):
        for _ in range(10):
            u, v = sample_spectral_set(rng, 2)
            mus = sample_spectral_set(rng, L)
            ok = ok and check_rtt(u, v, mus, sample_point(rng),
                                  tolerance=1e-9).passed
    for L in (1, 2):
        for rule in ("AB", "DB", "CB", "BB"):
            ok = ok and check_commutation(rule, pts[0], pts[1],
                                          _sym_mus(L), Q).passed
    for n, L in ((1, 1), (2, 2)):
        ok = ok and check_cbb_expansion(n, _sym_points(n + 1, 70),
                                        _sym_mus(L), Q).passed
    for L in (1, 2, 3):
        ok = ok and check_b_nilpotency(L, _sym_points(L + 1, 80),
                                       _sym_mus(L), Q).passed
    assert _report(3, "operator identities", ok)


def test_criterion_4_l1_closed_form():
    c = (Q - invert(Q)) / 2
    lams, mus, q = standard_symbolic_params(1)
    ok = z_algebraic(lams, mus, q) == c
    # coefficient identity with the inhomogeneity kept symbolic
    coeffs = expansion_coeffs(2, _sym_points(3, 50), _sym_mus(1), Q)
    total = coeffs.omit[0] + coeffs.omit[1] + coeffs.subst[(2, 1)]
    ok = ok and total.is_zero()
    ok = ok and solve_fz_exact(1).entries[(0,)] == RationalFunction(c)
    assert _report(4, "size-1 closed form and coefficient identity", ok)


def test_criterion_5_homogeneous_l2():
    from sixvertex.scalar import coefficients_in, leading_coeff
    from sixvertex.solver import X

    zbar = homogeneous_partition_polynomial(2)
    k2 = (Q - invert(Q)) ** 2 * (1 + Q ** 2) / 16
    coeff = coefficients_in(zbar, [X])
    ok = leading_coeff(zbar, [X], 2) == k2
    ok = ok and RationalFunction(coeff[(1,)]) == RationalFunction(-4 * k2, 1 + Q ** 2)
    ok = ok and RationalFunction(coeff[(0,)]) == RationalFunction(k2, Q ** 2)
    ok = ok and zbar.degree_in(X) == 2
    ok = ok and homogeneous_ode_residual(1).is_zero()
    ok = ok and homogeneous_ode_residual(2).is_zero()
    assert _report(5, "homogeneous size-2 polynomial and differential checks", ok)


def test_criterion_6_coefficient_tables():
    table2 = solve_fz_exact(2)
    expected2 = expected_l2_table()
    ok = all(table2.entries[i] == expected2.entries[i] for i in ansatz_box(2))
    ok = ok and len(table2.nonzero_entries()) == 4  # top + 3 ratio entries
    table3 = solve_fz_exact(3)
    report = verify_h_table(table3)
    ok = ok and report.passed
    want_top = (Q - invert(Q)) ** 3 * (1 + Q ** 2) * (1 + Q ** 2 + Q ** 4) / 2 ** 9
    ok = ok and table3.entries[(2, 2, 2)] == RationalFunction(want_top)
    direct3 = h_table_from_z(3)
    ok = ok and all(table3.entries[i] == direct3.entries[i] for i in ansatz_box(3))
    assert _report(6, "solved coefficient tables", ok)


def test_criterion_7_asymptotic_structure():
    ok = True
    for L in (2, 3, 4):
        ok = ok and check_p_relations(L).passed
        ok = ok and check_ordering_sum(L).passed
        ok = ok and vacuum_sandwich_p_chain(L) == Q ** (L * (L - 1) // 2)
    for L in (1, 2, 3):
        ok = ok and check_zbar_leading(L).passed
    assert _report(7, "string operators and leading coefficients", ok)


def test_criterion_8_property_suite():
    rng = make_rng(108)
    ok = True
    for L in (3, 4):
        lams = sample_spectral_set(rng, L)
        mus = sample_spectral_set(rng, L)
        q = sample_point(rng)
        base = z_algebraic(lams, mus, q)
        for _ in range(20):
            perm = list(rng.permutation(L))
            val = z_algebraic([lams[i] for i in perm], mus, q)
            ok = ok and abs(val - base) <= 1e-9 * abs(base)
    for L in (1, 2, 3):
        ok = ok and polynomial_structure_report(L).passed
    # overall-rescaling invariance: (FZ) fixes the table only up to scale
    pts = _sym_points(4)
    mus2 = _sym_mus(2)
    inp = FunctionalInput(2, pts, mus2, Q)
    base_provider = algebraic_provider(mus2, Q)
    omega = 7 * Q ** 3
    ok = ok and functional_residual(inp, lambda s: omega * base_provider(s)).is_zero()
    bad = lambda s: LaurentPoly.one()
    r1 = functional_residual(inp, bad)
    r2 = functional_residual(inp, lambda s: omega * bad(s))
    ok = ok and (not r1.is_zero()) and r2 == RationalFunction(omega) * r1
    ok = ok and [count_configs(L) for L in (1, 2, 3, 4)] == [1, 2, 7, 42]
    assert _report(8, "symmetry, degree and counting properties", ok)
