import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from sixvertex.asymptotics import asymptotic_norm
from sixvertex import functional, solver
from sixvertex.errors import NullspaceDimensionUnexpected, SizeLimitExceeded
from sixvertex.scalar import (
    _PRIMES,
    LaurentPoly,
    RationalFunction,
    coefficients_in,
    invert,
    q_var,
    u_var,
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


def _parity_box(L):
    """The numeric solve's columns, in its order."""
    return list(itertools.product(solver._parity_exponents(L), repeat=L))


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


P = _PRIMES[0]


def _mod_p(x: Fraction) -> int:
    return x.numerator * pow(x.denominator, -1, P) % P


def _value_at(poly, qval):
    """A Laurent polynomial in q at the integer qval, exactly."""
    return sum((c * Fraction(qval) ** dict(e).get(q_var().key, 0) for e, c in poly.items()),
               Fraction(0))


def _direct_at(L, qs):
    """h_table_from_z(L) at each q of qs modulo p: one row per q, box order."""
    table = h_table_from_z(L)
    entries = [table.entries[idx] for idx in ansatz_box(L)]
    assert all(v.den == LaurentPoly.one() for v in entries)
    return np.array([[_mod_p(_value_at(v.num, qval)) for v in entries] for qval in qs])


def _annihilated(samples, h):
    """Whether every row at each q sums to 0 modulo p against that q's h."""
    return not ((samples.rows * h[:, None, :]).sum(axis=2) % P).any()


@pytest.mark.parametrize("L", [1, 2, 3])
def test_assembled_rows_annihilate_direct_table(L, monkeypatch):
    # h_table_from_z expands the operator product itself, an independent
    # route to the table the sampled rows must single out: at every q they
    # annihilate it modulo p, and their rank there is ncols - 1
    samples, ncols, box = solver._assemble_constraints(L)
    assert box == ansatz_box(L) and ncols == len(box)
    assert len(samples.qs) == 3 * L * L
    assert samples.rows.shape == (len(samples.qs), ncols + 3, ncols)
    assert len(samples) == len(samples.qs) * (ncols + 3)
    h = _direct_at(L, samples.qs)
    assert _annihilated(samples, h)
    assert solver._select_independent_rows(samples, ncols)[1] == ncols - 1
    if L == 1:
        # the cleared L = 1 equation cancels identically: every row is zero
        assert not samples.rows.any()
        return
    # negative control: the terms of odd sigma in each family (``_orbits``)
    # without their sign
    real = functional._terms

    def unsigned(w):
        signs = [sign for _, orbit in functional._orbits(w) for _, sign, _ in orbit]
        for (num, pairs, subset), sign in zip(real(w), signs, strict=True):
            yield (num if sign > 0 else -num), pairs, subset

    monkeypatch.setattr(solver, "_terms", unsigned)
    assert not _annihilated(solver._assemble_constraints(L)[0], h)


def _rational_rows(L, point_sets, qval):
    """The cleared equation's rows over Q at integer point sets, unit mus and
    q = qval: the same terms through the exact backend's weight table."""
    box = ansatz_box(L)
    rows = []
    for points in point_sets:
        pts = [Fraction(int(x)) for x in points]
        w = functional._WeightTable(pts, (Fraction(1),) * L, Fraction(qval))
        row = [Fraction(0)] * len(box)
        for num, pairs, subset in functional._terms(w):
            coeff = dict((num * w.clearing(pairs)).items()).get((), Fraction(0))
            for c, idx in enumerate(box):
                row[c] += coeff * math.prod(pts[k] ** e for k, e in zip(subset, idx))
        rows.append(row)
    return rows


def _rational_rank(rows):
    """Rank over Q by fraction-free elimination on integer rows."""
    basis = {}
    rank = 0
    for row in rows:
        scale = math.lcm(*(x.denominator for x in row))
        v = {c: int(x * scale) for c, x in enumerate(row) if x}
        while v:
            lead = min(v)
            if lead not in basis:
                basis[lead] = v
                rank += 1
                break
            b = basis[lead]
            v = {c: x for c in set(v) | set(b)
                 if (x := v.get(c, 0) * b[lead] - b.get(c, 0) * v[lead])}
    return rank


def test_modular_selection_matches_rational_rank_on_l2_rows():
    # rows over Q at integer points against the same rows modulo p: the
    # same rank for every first k rows (the seventh set repeats a point,
    # and its row adds no rank), 8 for all 13, and modulo p the nullvector
    # is the direct table's ratios
    rng = np.random.default_rng(3)
    qval = 3
    point_sets = rng.integers(2, 60, size=(13, 4))
    rows = _rational_rows(2, point_sets, qval)
    residues = np.array([[_mod_p(x) for x in row] for row in rows], dtype=np.int64)
    ranks = []
    for count in range(1, 14):
        samples = solver._Samples([qval], residues[None, :count])
        nullvectors, rank = solver._select_independent_rows(samples, 9)
        assert rank == _rational_rank(rows[:count])
        assert list(nullvectors) == ([qval] if rank == 8 else [])
        ranks.append(rank)
    assert ranks == [1, 2, 3, 4, 5, 6, 6, 7, 8, 8, 8, 8, 8]
    h = _direct_at(2, [qval])[0]
    assert list(nullvectors[qval]) == list(h * pow(int(h[-1]), -1, P) % P)


def test_modular_selection_skips_dependent_rows():
    # a q whose rows lose rank (one row repeated), or whose nullvector has a
    # zero top entry (column 0 cleared, so e_0 spans it), is skipped; the
    # others keep their nullvectors, and the rank is the best of any q
    samples, ncols, _ = solver._assemble_constraints(2)
    rows = samples.rows[:4].copy()
    rows[0] = rows[0, :1]
    rows[1, :, 0] = 0
    qs = samples.qs[:4]
    nullvectors, rank = solver._select_independent_rows(solver._Samples(qs, rows), ncols)
    assert rank == ncols - 1
    assert list(nullvectors) == qs[2:]
    want = _direct_at(2, qs[2:])
    for (q, v), h in zip(nullvectors.items(), want):
        assert list(v) == list(h * pow(int(h[-1]), -1, P) % P)
    # the repeated row alone has rank 1, the cleared column's rows rank ncols - 1
    assert solver._select_independent_rows(solver._Samples(qs[:1], rows[:1]), ncols) == ({}, 1)
    assert solver._select_independent_rows(solver._Samples(qs[1:2], rows[1:2]), ncols) == (
        {}, ncols - 1)


def test_modular_selection_stays_exact():
    # the docstring's bounds at the largest exact size: residues below
    # p < 2^26, and ncols - 1 unreduced elimination steps, each adding a
    # product of two, never wrap int64; nor does a row's sum of one
    # unreduced monomial product per term
    L = solver._EXACT_LIMIT
    ncols = len(ansatz_box(L))
    assert P < 2 ** 26
    assert P + (ncols - 1) * (P - 1) ** 2 < 2 ** 63
    terms = (L + 1) * (L + 2) // 2
    assert terms * (P - 1) ** 2 < 2 ** 63
    # dense residues near p, with a known nullvector, at that size
    rng = np.random.default_rng(5)
    lead = P - 1 - rng.integers(0, 1000, size=(2, ncols + 3, ncols - 1))
    x = rng.integers(0, P, size=(2, ncols - 1))
    top = -(lead * x[:, None, :] % P).sum(axis=2) % P
    rows = np.concatenate([lead, top[:, :, None]], axis=2)
    nullvectors, rank = solver._select_independent_rows(solver._Samples([2, 3], rows), ncols)
    assert rank == ncols - 1
    for v, xs in zip(nullvectors.values(), x):
        assert list(v) == list(xs) + [1]


def test_sampling_is_fixed():
    # one internal seed: the same rows at every call, whatever the state of
    # numpy's global generator
    first = solver._assemble_constraints(2)[0]
    np.random.seed(12345)
    again = solver._assemble_constraints(2)[0]
    assert first.qs == again.qs and np.array_equal(first.rows, again.rows)


def test_rebuild_recovers_a_rational_function():
    # an L = 3 ratio, (1 - 8q^2 - 34q^4 - 8q^6 + q^8) / (q^4 (1 + q^2)(1 + q^2 + q^4)):
    # 18 degrees between them, so 20 values give it and two more confirm
    want = reference_l3_ratios()[(0, 0, 0)]
    qs = list(range(2, 40))
    ys = [_mod_p(_value_at(want.num, q) / _value_at(want.den, q)) for q in qs]
    assert solver._rebuild(qs, ys) == want
    assert solver._rebuild(qs[:22], ys[:22]) == want
    with pytest.raises(NullspaceDimensionUnexpected, match="did not settle within 21"):
        solver._rebuild(qs[:21], ys[:21])
    # no fraction of height below sqrt(p / 2) is 100003 modulo p
    with pytest.raises(NullspaceDimensionUnexpected, match="does not lift"):
        solver._rebuild(qs, [(100003 * q) % P for q in qs])


@pytest.mark.parametrize("L", [2, 3])
def test_rebuilt_candidate_is_the_direct_table(L):
    samples, ncols, box = solver._assemble_constraints(L)
    values = solver._exact_nullvector(solver._select_independent_rows(samples, ncols)[0], ncols)
    direct = h_table_from_z(L)
    top = direct.entries[direct.top_index]
    assert all(v == direct.entries[idx] / top for idx, v in zip(box, values))


def test_exact_nullvector_rejects_too_few_rows():
    # the nullvectors of the rows at the first eight values of q do not
    # settle every L = 3 entry, so no candidate comes out
    samples, ncols, _ = solver._assemble_constraints(3)
    nullvectors = solver._select_independent_rows(samples, ncols)[0]
    few = dict(list(nullvectors.items())[:8])
    with pytest.raises(NullspaceDimensionUnexpected, match="did not settle within 8 values"):
        solver._exact_nullvector(few, ncols)


def _l2_candidate():
    samples, ncols, box = solver._assemble_constraints(2)
    nullvectors, rank = solver._select_independent_rows(samples, ncols)
    assert rank == ncols - 1
    return solver._exact_nullvector(nullvectors, ncols), box


def test_verify_candidate_rejects_perturbed_solution():
    values, box = _l2_candidate()
    equation = solver._equation(2)
    solver._verify_candidate(2, box, values, equation)
    k = box.index((1, -1))
    asymmetric = list(values)
    asymmetric[k] = values[k] + RationalFunction(Q)
    with pytest.raises(NullspaceDimensionUnexpected, match="not symmetric"):
        solver._verify_candidate(2, box, asymmetric, equation)
    # symmetric, so that only the equation itself can refuse it
    symmetric = list(asymmetric)
    j = box.index((-1, 1))
    symmetric[j] = values[j] + RationalFunction(Q)
    with pytest.raises(NullspaceDimensionUnexpected, match="fails the full equation"):
        solver._verify_candidate(2, box, symmetric, equation)


def test_exact_solve_raises_when_the_selection_comes_up_short(monkeypatch):
    real = solver._select_independent_rows

    def short(samples, ncols):
        nullvectors, rank = real(samples, ncols)
        return nullvectors, rank - 1

    monkeypatch.setattr(solver, "_select_independent_rows", short)
    with pytest.raises(NullspaceDimensionUnexpected, match=r"constraint rank 7 < 8"):
        solve_fz_exact(2)


@pytest.mark.parametrize("L", [0, -1])
def test_solvers_reject_sizes_below_one(L):
    with pytest.raises(ValueError, match=f"got L = {L}"):
        solve_fz_exact(L)
    with pytest.raises(ValueError, match=f"got L = {L}"):
        solve_fz_numeric(L, make_rng(0))


def test_direct_l3_table_against_reference():
    table = h_table_from_z(3)
    report = verify_h_table(table)
    assert report.passed
    assert len(table.nonzero_entries()) == 27
    want3 = (Q - invert(Q)) ** 3 * (1 + Q ** 2) * (1 + Q ** 2 + Q ** 4) / 2 ** 9
    assert table.entries[(2, 2, 2)] == RationalFunction(want3)


def _off_parity_box(table):
    """The entries of a full-box table that the numeric solve leaves out."""
    parity = set(_parity_box(table.size))
    return {idx: v for idx, v in table.entries.items() if idx not in parity}


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_direct_table_vanishes_off_the_parity_box(L):
    # every u_i exponent of Z has the parity of L - 1, by direct expansion
    table = h_table_from_z(L)
    off = _off_parity_box(table)
    assert len(off) == (2 * L - 1) ** L - L ** L
    assert all(v.is_zero() for v in off.values())
    assert not table.entries[table.top_index].is_zero()


@pytest.mark.parametrize("L", [1, 2])
def test_exact_solve_vanishes_off_the_parity_box(L):
    # the same fact from the functional equation over the full box alone
    assert all(v.is_zero() for v in _off_parity_box(solve_fz_exact(L)).values())


@pytest.mark.parametrize("seed", [1, 2])
def test_numeric_solver_matches_direct_table_l4(seed):
    # numeric L = 4 on the parity box against the direct expansion, over
    # the full box, relative to the largest ratio
    s = solve_fz_numeric(4, make_rng(seed), q_count=1, normalization="top-one").samples[0]
    assert s.singular_gap < 1e-8
    assert s.batch_discrepancy < 1e-6
    table = h_table_from_z(4)
    top = complex(table.entries[table.top_index].eval({q_var(): s.q}))
    want = {idx: complex(v.eval({q_var(): s.q})) / top for idx, v in table.entries.items()}
    scale = max(abs(v) for v in want.values())
    assert max(abs(s.ratios.get(idx, 0) - v) for idx, v in want.items()) <= 1e-9 * scale


def test_reference_ratios_cover_26_indices():
    assert len(reference_l3_ratios()) == 26


def test_verify_h_table_flags_corruption():
    table = h_table_from_z(3)
    table.entries[(0, 0, 0)] = table.entries[(0, 0, 0)] * Q
    report = verify_h_table(table)
    assert not report.passed
    bad = [tuple(e["index"]) for e in report.details["entries"] if not e["matches"]]
    assert bad == [(0, 0, 0)]


def test_verify_h_table_flags_unexpected_nonzero():
    table = h_table_from_z(3)
    table.entries[(1, 0, 0)] = RationalFunction(Q)
    report = verify_h_table(table)
    assert not report.passed
    assert report.details["unexpected_nonzero"] == [[1, 0, 0]]


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
    box = _parity_box(L)
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
    # the check sees the top entry moved to a neighbouring index of the box
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
    assert rows.shape == (count, L ** L)
    ref = make_rng(90 + L)
    for row in rows:
        pts = tuple(np.array([[p] for p in sample_spectral_set(ref, L + 2)]))
        one = functional_residual(FunctionalInput(L, pts, (1.0 + 0j,) * L, q),
                                  solver._monomial_provider(L))[:, 0]
        assert np.abs(row - one).max() <= 1e-12 * np.abs(one).max()
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("backend, kwargs, message", [
    ("exact", {"normalization": "bogus"}, "unknown normalization 'bogus'"),
    ("float", {"normalization": "bogus"}, "unknown normalization 'bogus'"),
    ("float", {"q_count": 0}, "q_count >= 1, got 0"),
    ("float", {"q_count": -3}, "q_count >= 1, got -3"),
])
def test_solve_refuses_bad_arguments(backend, kwargs, message):
    # both solvers refuse alike, before the numeric one draws from its rng
    rng = make_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        solve_fz(2, backend=backend, rng=rng, **kwargs)
    assert rng.bit_generator.state == state


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
