import itertools
import math
from dataclasses import replace

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
    exponent_array,
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


def _row_value(rows, r, h):
    """Row r's sum of val * q^qexp * h[col] over its entries, h polynomials."""
    span = slice(rows.starts[r], rows.starts[r + 1])
    total = LaurentPoly.zero()
    for c, e, v in zip(rows.col[span].tolist(), rows.qexp[span].tolist(),
                       rows.val[span].tolist()):
        total = total + LaurentPoly.monomial(v, {q_var(): e}) * h[c]
    return total


def _annihilates(rows, h):
    return all(_row_value(rows, r, h).is_zero() for r in range(len(rows)))


@pytest.mark.parametrize("L", [1, 2])
def test_assembled_rows_annihilate_direct_table(L):
    # h_table_from_z expands the operator product itself, an independent
    # route to the table the assembled constraints must single out
    rows, ncols, box = solver._assemble_constraints(L, solver._equation(L))
    assert box == ansatz_box(L) and ncols == len(box)
    direct = [h_table_from_z(L).entries[idx] for idx in box]
    assert all(v.den == LaurentPoly.one() for v in direct)
    h = [v.num for v in direct]
    assert _annihilates(rows, h)
    if L == 1:
        # the cleared L = 1 equation cancels identically: no rows at all
        assert len(rows) == 0 and list(rows.starts) == [0]
        assert len(rows.col) == len(rows.qexp) == len(rows.val) == 0
        return
    assert solver._select_independent_rows(rows, ncols)[1] == ncols - 1
    # the check sees an entry moved to the next column or the next q power
    assert not _annihilates(replace(rows, col=(rows.col + 1) % ncols), h)
    first = rows.starts[:-1]
    next_q = rows.qexp.copy()
    next_q[first] += 1
    assert not _annihilates(replace(rows, qexp=next_q), h)


def test_assembly_refuses_sums_that_could_wrap():
    w, families = solver._equation(2)
    scaled = [((num * 2 ** 60, pairs, subset), orbit)
              for (num, pairs, subset), orbit in families]
    with pytest.raises(OverflowError):
        solver._assemble_constraints(2, (w, scaled))


def _per_term_rows(L):
    """The rows term by term, from ``functional._terms``: each term's
    num * D expanded, its monomials shifted by each column's ansatz
    monomial on the term's points and summed as Fractions per (spectral
    monomial, column, q power), scaled to integers by the lcm of the
    expansions' denominators; rows in spectral-monomial order, entries by
    column, then q power, zero sums dropped."""
    w = functional._WeightTable(solver._equation_points(L), (LaurentPoly.one(),) * L, Q)
    box = ansatz_box(L)
    slot = {u_var(k).key: k for k in range(L + 2)}
    sums = {}
    dens = []
    for num, pairs, subset in functional._terms(w):
        cleared = num * w.clearing(pairs)
        for vec, coeff in cleared.items():
            dens.append(coeff.denominator)
            u = [0] * (L + 2)
            qexp = 0
            for key, e in vec:
                if key == q_var().key:
                    qexp = e
                else:
                    u[slot[key]] = e
            for c, idx in enumerate(box):
                shifted = list(u)
                for pos, k in enumerate(subset):
                    shifted[k] += idx[pos]
                entry = sums.setdefault(tuple(shifted), {})
                entry[c, qexp] = entry.get((c, qexp), 0) + coeff
    common = math.lcm(*dens)
    starts, col, qexp, val = [0], [], [], []
    for mono in sorted(sums):
        entries = sorted((k, v) for k, v in sums[mono].items() if v)
        if not entries:
            continue
        for (c, e), v in entries:
            assert (v * common).denominator == 1
            col.append(c)
            qexp.append(e)
            val.append(int(v * common))
        starts.append(len(col))
    return [np.array(a, dtype=np.int64) for a in (starts, col, qexp, val)]


def _same_rows(rows, arrays):
    return all(np.array_equal(getattr(rows, f), a)
               for f, a in zip(("starts", "col", "qexp", "val"), arrays))


@pytest.mark.parametrize("L", [1, 2])
def test_orbit_rows_are_the_per_term_rows(L):
    # two canonical expansions relabeled by each term's sigma against
    # every term expanded on its own; negative control: the odd sigmas
    # without their sign
    w, families = solver._equation(L)
    rows, _, _ = solver._assemble_constraints(L, (w, families))
    assert _same_rows(rows, _per_term_rows(L))
    unsigned = [(c, [(sigma, 1, subset) for sigma, _, subset in orbit])
                for c, orbit in families]
    bad, _, _ = solver._assemble_constraints(L, (w, unsigned))
    assert not _same_rows(bad, _per_term_rows(L))


def _l2_system():
    rows, ncols, box = solver._assemble_constraints(2, solver._equation(2))
    selected, rank = solver._select_independent_rows(rows, ncols)
    assert rank == ncols - 1
    return rows, selected, ncols, box


def test_exact_nullvector_rejects_too_few_rows():
    rows, selected, ncols, _ = _l2_system()
    with pytest.raises(NullspaceDimensionUnexpected):
        solver._exact_nullvector(rows, selected[:-1], ncols)


def test_verify_candidate_rejects_perturbed_solution():
    rows, selected, ncols, box = _l2_system()
    values = solver._exact_nullvector(rows, selected, ncols)
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


# -- reference for the modular selection: rank over Q at one integer q,
# by fraction-free elimination on Python integers


def _row_at_q(rows, r, qval):
    """Row r at q = qval, scaled by a power of q to integers: column -> value."""
    span = slice(rows.starts[r], rows.starts[r + 1])
    low = int(rows.qexp[span].min(initial=0))
    out = {}
    for c, e, v in zip(rows.col[span].tolist(), rows.qexp[span].tolist(),
                       rows.val[span].tolist()):
        out[c] = out.get(c, 0) + v * qval ** (e - low)
    return {c: v for c, v in out.items() if v}


def _gcd_normalize(row):
    g = math.gcd(*row.values())
    return {c: x // g for c, x in row.items()}


def _reduce_into(basis, v):
    """Fraction-free reduction of integer row v against the basis, keyed by
    leading column; a nonzero remainder joins it.  Returns whether it did."""
    while v:
        lead = min(v)
        if lead not in basis:
            basis[lead] = _gcd_normalize(v)
            return True
        b = basis[lead]
        f1, f2 = b[lead], v[lead]
        nv = {}
        for c in set(v) | set(b):
            x = v.get(c, 0) * f1 - b.get(c, 0) * f2
            if x:
                nv[c] = x
        v = _gcd_normalize(nv)
    return False


def _reference_rank(rows, indices, qval=3):
    basis = {}
    return sum(_reduce_into(basis, _row_at_q(rows, r, qval)) for r in indices)


def _rows_of(entries_by_row):
    """_Rows from a list of rows, each a list of (column, q exponent, value)."""
    flat = [e for row in entries_by_row for e in row]
    col, qexp, val = (np.array([e[k] for e in flat], dtype=np.int64).reshape(-1)
                      for k in range(3))
    starts = np.cumsum([0] + [len(row) for row in entries_by_row])
    return solver._Rows(starts, col, qexp, val)


def _independent_in_order(rows, selected):
    """Every selected row is independent over Q, at q = 3, of those before it."""
    return _reference_rank(rows, selected) == len(selected)


def test_modular_selection_matches_rational_rank_on_l2_rows():
    rows, selected, ncols, _ = _l2_system()
    assert len(selected) == ncols - 1
    assert _independent_in_order(rows, selected)


def test_modular_selection_skips_dependent_rows():
    p = _PRIMES[0]
    a = [(0, 0, 1), (1, 1, 2)]
    b = [(1, 0, 1), (3, 0, -4)]
    system = [
        a,
        a,                                              # duplicate
        [(c, e + 1, 2 * v) for c, e, v in a],           # 2q times a
        [],                                             # empty row
        [(2, 0, 3), (2, 1, -1)],                        # 3 - q: zero at q = 3
        [(c, e, p * v) for c, e, v in b],               # zero modulo p
        b,
        [(0, 0, 1), (1, 1, 2), (1, 0, 1), (3, 0, -4)],  # a + b
        [(2, 2, 5), (3, 0, 1), (4, 0, 7)],
        [(0, -1, 1), (4, 3, 1)],
    ]
    rows = _rows_of(system)
    selected, rank = solver._select_independent_rows(rows, 5)
    assert rank == len(selected) == 4
    # the p-multiple of b is skipped, and b itself taken; a + b never is
    assert selected == [0, 6, 9, 8]
    for k in range(1, len(system) + 1):
        sub = _rows_of(system[:k])
        selected, rank = solver._select_independent_rows(sub, 5)
        assert _independent_in_order(sub, selected)
        assert rank <= _reference_rank(sub, range(k))


def test_modular_selection_stays_exact():
    # the docstring's bounds at the largest exact size: residues below
    # p < 2^26, so an int64 sum of ncols products of two never wraps, and a
    # float64 sum of a cell's residues stays below 2^53
    p = _PRIMES[0]
    L = solver._EXACT_LIMIT
    ncols = len(ansatz_box(L))
    assert p < 2 ** 26
    assert ncols * (p - 1) ** 2 < 2 ** 63
    # a cell's entries carry distinct powers of q, from the cleared terms;
    # a relabeling moves only u exponents, so the canonical terms hold them all
    variables = [*map(u_var, range(L + 2)), q_var()]
    w, families = solver._equation(L)
    qexps = np.concatenate([exponent_array(num * w.clearing(pairs), variables)[0][:, -1]
                            for (num, pairs, _), _ in families])
    assert (qexps.max() - qexps.min() + 1) * (p - 1) < 2 ** 53
    # dense rows of residues near p, the largest terms a block product can
    # meet: ten random rows and ten sums of two of them fill the first
    # block; the second block opens with ten more such sums, which only the
    # block product against the nullspace finds dependent, then random rows
    rng = np.random.default_rng(5)
    ncols = 20
    dense = [list(p - 1 - rng.integers(0, 1000, ncols)) for _ in range(10)]
    dense += [list(np.add(dense[i], dense[(i + k) % 10])) for k in (3, 5) for i in range(10)]
    dense += [list(p - 1 - rng.integers(0, 1000, ncols)) for _ in range(15)]
    rows = _rows_of([[(c, 0, int(v)) for c, v in enumerate(row)] for row in dense])
    assert _reference_rank(rows, range(30)) == 10
    selected, rank = solver._select_independent_rows(rows, ncols)
    assert selected == list(range(10)) + list(range(30, 39))
    assert _independent_in_order(rows, selected)


def test_exact_solve_raises_when_the_selection_comes_up_short(monkeypatch):
    real = solver._select_independent_rows

    def short(rows, ncols):
        selected, rank = real(rows, ncols)
        return selected[:-1], rank - 1

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
