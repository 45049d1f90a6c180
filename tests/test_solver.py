import numpy as np
import pytest

from sixvertex.asymptotics import asymptotic_norm
from sixvertex import solver
from sixvertex.errors import NullspaceDimensionUnexpected, SizeLimitExceeded
from sixvertex.scalar import (
    LaurentPoly,
    RationalFunction,
    coefficients_in,
    invert,
    q_var,
)
from sixvertex.solver import (
    X,
    CoefficientTable,
    ansatz_box,
    expected_l2_table,
    h_table_from_z,
    homogeneous_ode_residual,
    homogeneous_partition_polynomial,
    phi_polynomials,
    reference_l3_ratios,
    solve_fz,
    solve_fz_exact,
    solve_fz_numeric,
    verify_h_table,
)
from sixvertex.functional import FunctionalInput, check_fz, functional_residual
from sixvertex.sampling import make_rng, sample_point, sample_spectral_set

Q = LaurentPoly.var(q_var())


def _coeff(p, k):
    """The coefficient of x^k."""
    return coefficients_in(p, [X]).get((k,), LaurentPoly.zero())


def test_phi_polynomial_coefficients():
    phi0, phi1, phi2 = phi_polynomials()
    assert _coeff(phi0, 0) == -4 * Q ** 2 * (1 + Q ** 2 + Q ** 4)
    assert _coeff(phi2, 0) == 0  # no constant term
    assert _coeff(phi1, 4) == Q ** 4 * (-1 + 4 * Q ** 2 + 4 * Q ** 4 - Q ** 6)
    assert _coeff(phi1, 2) == 0


def test_homogeneous_l1_constant():
    z = homogeneous_partition_polynomial(1)
    assert z.degree_in(X) == 0
    assert _coeff(z, 0) == (Q - invert(Q)) / 2


def test_homogeneous_l2_coefficients():
    z = homogeneous_partition_polynomial(2)
    k2 = (Q - invert(Q)) ** 2 * (1 + Q ** 2) / 16
    assert _coeff(z, 2) == k2
    assert RationalFunction(_coeff(z, 1)) == RationalFunction(-4 * k2, 1 + Q ** 2)
    assert RationalFunction(_coeff(z, 0)) == RationalFunction(k2, Q ** 2)


def test_ode_residuals_vanish():
    assert homogeneous_ode_residual(1).is_zero()
    assert homogeneous_ode_residual(2).is_zero()


def test_ode_negative_control():
    z = homogeneous_partition_polynomial(2)
    bad = z + LaurentPoly.var(X)
    assert not homogeneous_ode_residual(2, bad).is_zero()


def test_ode_size_guard():
    with pytest.raises(ValueError):
        homogeneous_ode_residual(3)


def test_solve_l1_constant():
    table = solve_fz_exact(1)
    assert table.entries[(0,)] == RationalFunction((Q - invert(Q)) / 2)


def test_solve_l2_matches_expected_and_direct():
    table = solve_fz_exact(2)
    expected = expected_l2_table()
    direct = h_table_from_z(2)
    for idx in ansatz_box(2):
        assert table.entries[idx] == expected.entries[idx]
        assert table.entries[idx] == direct.entries[idx]
    # five of the nine box entries solve to zero
    assert len(table.nonzero_entries()) == 4


def test_solve_l2_symmetry():
    table = solve_fz_exact(2)
    for (m, n), v in table.entries.items():
        assert v == table.entries[(n, m)]


def test_normalizations_related_by_overall_scale():
    asym = solve_fz_exact(2, "asymptotic")
    topone = solve_fz_exact(2, "top-one")
    norm = asymptotic_norm(2, Q)
    assert topone.entries[(1, 1)] == RationalFunction(1)
    for idx in ansatz_box(2):
        assert topone.entries[idx] * norm == asym.entries[idx]


def test_solve_size_guards():
    with pytest.raises(SizeLimitExceeded):
        solve_fz_exact(4)
    with pytest.raises(ValueError):
        solve_fz_exact(2, "bogus")
    with pytest.raises(SizeLimitExceeded):
        solve_fz_numeric(5, make_rng(0))


def _row_value(row, h):
    """sum over the row's entries of qpoly(q) * h[column]."""
    total = RationalFunction(LaurentPoly.zero())
    for col, qpoly in row:
        poly = LaurentPoly.zero()
        for e, v in qpoly:
            poly = poly + v * Q ** e
        total = total + RationalFunction(poly) * h[col]
    return total


def _annihilates(rows, h):
    return all(_row_value(row, h).is_zero() for row in rows)


@pytest.mark.parametrize("L", [1, 2])
def test_assembled_rows_annihilate_direct_table(L):
    # h_table_from_z expands the operator product itself, an independent
    # route to the table the assembled constraints must single out
    rows, ncols, box = solver._assemble_constraints(L, solver._cleared_equation(L))
    assert box == ansatz_box(L) and ncols == len(box)
    h = [h_table_from_z(L).entries[idx] for idx in box]
    assert _annihilates(rows, h)
    if L == 1:
        assert rows == []  # the cleared L = 1 equation cancels identically
        return
    assert solver._select_independent_rows(rows, ncols)[1] == ncols - 1
    # the check sees an entry moved to the next column or the next q power
    next_col = [tuple(((c + 1) % ncols, qp) for c, qp in row) for row in rows]
    assert not _annihilates(next_col, h)
    next_q = [((row[0][0], tuple((e + 1, v) for e, v in row[0][1])),) + row[1:]
              for row in rows]
    assert not _annihilates(next_q, h)


def test_assembly_refuses_sums_that_could_wrap(monkeypatch):
    cleared_terms = solver._cleared_terms

    def scaled(*args):
        for cleared, subset in cleared_terms(*args):
            yield cleared * 2 ** 60, subset

    monkeypatch.setattr(solver, "_cleared_terms", scaled)
    with pytest.raises(OverflowError):
        solver._assemble_constraints(2, solver._cleared_equation(2))


def _l2_system():
    rows, ncols, box = solver._assemble_constraints(2, solver._cleared_equation(2))
    selected, rank = solver._select_independent_rows(rows, ncols)
    assert rank == ncols - 1
    return [rows[i] for i in selected], ncols, box


def test_exact_nullvector_rejects_too_few_rows():
    selected, ncols, _ = _l2_system()
    with pytest.raises(NullspaceDimensionUnexpected):
        solver._exact_nullvector(selected[:-1], ncols)


def test_verify_candidate_rejects_perturbed_solution():
    selected, ncols, box = _l2_system()
    values = solver._exact_nullvector(selected, ncols)
    terms = solver._cleared_equation(2)
    solver._verify_candidate(2, box, values, terms)
    k = box.index((1, -1))
    values[k] = values[k] + RationalFunction(Q)
    with pytest.raises(NullspaceDimensionUnexpected):
        solver._verify_candidate(2, box, values, terms)


def test_direct_l3_table_against_reference():
    table = h_table_from_z(3)
    report = verify_h_table(table)
    assert report.ok
    assert len(table.nonzero_entries()) == 27
    want3 = (Q - invert(Q)) ** 3 * (1 + Q ** 2) * (1 + Q ** 2 + Q ** 4) / 2 ** 9
    assert table.entries[(2, 2, 2)] == RationalFunction(want3)


def test_l3_parity_emerges():
    table = h_table_from_z(3)
    for idx, v in table.nonzero_entries().items():
        assert all(m % 2 == 0 for m in idx)


def test_reference_ratios_cover_26_indices():
    assert len(reference_l3_ratios()) == 26


def test_verify_h_table_flags_corruption():
    table = h_table_from_z(3)
    table.entries[(0, 0, 0)] = table.entries[(0, 0, 0)] * Q
    report = verify_h_table(table)
    assert not report.ok
    bad = [e.index for e in report.entries if not e.matches]
    assert (0, 0, 0) in bad


def test_verify_h_table_flags_unexpected_nonzero():
    table = h_table_from_z(3)
    table.entries[(1, 0, 0)] = RationalFunction(Q)
    report = verify_h_table(table)
    assert not report.ok
    assert (1, 0, 0) in report.unexpected_nonzero


def test_verify_h_table_size_guard():
    with pytest.raises(ValueError):
        verify_h_table(h_table_from_z(2))


def test_numeric_solver_matches_exact_l2():
    rng = make_rng(321)
    result = solve_fz_numeric(2, rng, q_count=4)
    exact = solve_fz_exact(2)
    for s in result.samples:
        assert s.singular_gap < 1e-8
        assert s.batch_discrepancy < 1e-6
        for idx, val in s.ratios.items():
            want = exact.entries[idx].eval({q_var(): s.q})
            assert abs(val - want) <= 1e-8 * abs(want)


@pytest.mark.parametrize("L", [2, 3])
def test_numeric_rows_annihilate_direct_table(L):
    # each row is the float functional equation at one sampled point set;
    # the directly expanded table, evaluated at the row's q, must satisfy
    # every row to within 1e-9 of that equation's term scale
    q = sample_point(make_rng(70 + L))
    count = 5
    rows = solver._numeric_rows(L, q, make_rng(80 + L), count)
    box = ansatz_box(L)
    table = h_table_from_z(L)
    h = np.array([complex(table.entries[idx].eval({q_var(): q})) for idx in box])

    def z_of_table(subset):
        return sum(hk * np.prod([p ** e for p, e in zip(subset, idx)])
                   for hk, idx in zip(h, box))

    # the same point sets, drawn again, give each row's term scale
    rng = make_rng(80 + L)
    scales = []
    for _ in range(count):
        pts = tuple(sample_spectral_set(rng, L + 2))
        out = check_fz(FunctionalInput(L, pts, (1.0 + 0j,) * L, q), z_of_table)
        scales.append(out.scale)
    for row, scale in zip(rows, scales):
        assert abs(row @ h) <= 1e-9 * scale
    # the check sees the top entry moved to a neighbouring index
    top = box.index((L - 1,) * L)
    moved = h.copy()
    moved[top - 1], moved[top] = h[top], 0
    for row, scale in zip(rows, scales):
        assert abs(row @ moved) > 1e-9 * scale


@pytest.mark.parametrize("L", [2, 3])
def test_numeric_rows_draw_the_sets_in_order(L):
    # the rows consume the generator exactly as count successive set draws
    # do, so a seeded float solve keeps its sampled points, and row r is
    # the equation at the r-th set
    count = 7
    q = sample_point(make_rng(1))
    rng = make_rng(90 + L)
    rows = solver._numeric_rows(L, q, rng, count)
    assert rows.shape == (count, (2 * L - 1) ** L)
    ref = make_rng(90 + L)
    for row in rows:
        pts = tuple(np.array([[p] for p in sample_spectral_set(ref, L + 2)]))
        one = functional_residual(FunctionalInput(L, pts, (1.0 + 0j,) * L, q),
                                  solver._monomial_provider(L))[:, 0]
        assert np.abs(row - one).max() <= 1e-12 * np.abs(one).max()
    assert rng.bit_generator.state == ref.bit_generator.state


def test_solve_dispatch():
    rng = make_rng(11)
    assert isinstance(solve_fz(1, backend="exact"), CoefficientTable)
    res = solve_fz(2, backend="float", rng=rng, q_count=1)
    assert res.samples
    with pytest.raises(ValueError):
        solve_fz(2, backend="quantum")
    with pytest.raises(ValueError):
        solve_fz(2, backend="float")


def test_table_json_shape():
    doc = solve_fz_exact(2).to_json_obj()
    assert doc["L"] == 2
    assert doc["zero_indices"] == 5
    indices = [tuple(e["index"]) for e in doc["entries"]]
    assert (1, 1) in indices and (-1, -1) in indices
