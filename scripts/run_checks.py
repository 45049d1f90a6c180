#!/usr/bin/env python3
"""Run the full verification battery and print a one-line-per-check summary.

A batch of seeded spectral-point sets must equal, byte for byte and in the
generator state it leaves, the same sets drawn one at a time.
The anisotropy invariant a^2 + b^2 - c^2 - a b (q + q^-1) = 0 of the
weights is checked at a symbolic z and q, then at --trials seeded float
points.  The other exact identities are checked symbolically at small
sizes; the float backend sweeps seeded random points beyond that: the
exchange relation up to L = 5 (the full matrix identity to L = 4, eight
random probe columns at L = 5) and the functional equation up to L = 7.
The functional-equation residual from the batched operator product must
equal the one from the per-subset provider: residual and scale bit for bit
in the float backend at L = 2..6, numerator and denominator as polynomials
in the exact backend at L = 1, 2 (symbolic) and L = 3 (rational
inhomogeneities and q).  On the same exact inputs the residual, whose
kernel sum pairs each numerator with its clearing b-weights times Z, must
be nonzero for a provider with one wrong Z value and equal the cleared
coefficients times those Z values added one by one.  The default exact
residual, two canonical terms summed over their orbits of point
relabelings at generic points, must equal the per-subset provider's, term
by term, on the same inputs, with the right Z and, nonzero, with Z at a
wrong q times its points' product.  The exact operator expansion at
n = L = 1, 2, 3, one orbit sum per entry, with every omission numerator
tripled so that it no longer vanishes, must equal entry for entry the
same cleared route over the per-subset B-product vectors.  The exact B
products of one batch sweep must equal the per-subset products at
L = 1, 2, 3 for every subset length FZ and cbb use, and one wrong point
must change them.
The functional equation is also checked exactly at L = 3 with symbolic
spectral points and rational inhomogeneities and q, the shape of the
benchmark's exact-fz workload.  The string-operator and
asymptotic checks run exactly at L = 2, 3 and 4 (those that go through Z
or the monodromy's top coefficient at L <= 3); the string-operator
relations and the ordering sum also run at --trials seeded complex q for
each L = 2..5.  Three refusals must raise ValueError: an exact q other than
the symbolic q in every string-operator function, an unknown normalization
or a q_count below 1 in the numeric solve, and an omission or substitution
coefficient index out of range.  The partition function's
two routes, the operator product and the pruned configuration sum, must
agree exactly at symbolic L = 1..4 (at L = 4 the configuration sum is the
kernel's largest sum on its sorted-union path, every pair with the
identity as its one image) and, at --trials seeded float points for
each L = 1..6, within 1e-9 of the larger |Z|.  Exact Z at L = 1..3 must come back unchanged from its text
and JSON forms (``parse_poly`` and ``LaurentPoly.from_json_terms``).  The
brute-force
configuration table must hold the pruned search's configurations and count
at L = 1..4, and its float Z agree with the pruned one within 1e-12 of the
larger |Z|.  The homogeneous-limit
differential relations are checked exactly at L = 1 and 2.  The coefficient
solver must reproduce the known L = 2 table exactly; at L = 1, 2, 3 its
rows sampled modulo one prime must reach rank ncols - 1 at every sampled
q, and the candidate it rebuilds in q from their nullvectors must be the
directly expanded table's ratios to its top entry; its exact check must
refuse the solved L = 2 table with (1, -1) and (-1, 1) both shifted by q, on the
equation, as that table is still symmetric; ``solve --size 3`` must
print, byte for byte, the stored tests/data/solve_size3_exact.json; and the
numeric L = 3 solve, at one q drawn from --seed, must give the known L = 3
ratios within 1e-8 of the largest ratio, and the numeric L = 4 solve the
ratios of the directly expanded L = 4 table within 1e-9.  Every outcome, the homogeneous-limit residuals and the solved
tables included, is decided by ``vertex.verdict``.
Exits nonzero if anything fails.

    PYTHONPATH=src python scripts/run_checks.py [--seed N] [--trials N]
"""

import argparse
import contextlib
import io
import itertools
import math
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np

from sixvertex import asymptotics, cli, functional, monodromy, partition, solver, vertex
from sixvertex.errors import NullspaceDimensionUnexpected
from sixvertex.scalar import (EXACT, LaurentPoly, RationalFunction, parse_poly, q_var, u_var,
                              w_var)
from sixvertex.sampling import make_rng, sample_point, sample_spectral_set, sample_spectral_sets


def sym_points(count, start=1):
    return [LaurentPoly.var(u_var(start + i)) for i in range(count)]


def sym_mus(L):
    return [LaurentPoly.var(w_var(i)) for i in range(1, L + 1)]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trials", type=int, default=20)
    args = ap.parse_args()

    rng = make_rng(args.seed)
    q = LaurentPoly.var(q_var())
    results = []

    def record(outcome):
        results.append(outcome)
        if outcome.exact:
            detail = "exact"
        else:
            detail = f"res {outcome.residual:.2e} / scale {outcome.scale:.2e}"
        mark = "ok " if outcome.passed else "FAIL"
        print(f"  [{mark}] {outcome.name:32s} {detail}")

    t0 = time.time()
    print("== batched sampling ==")
    for seed in range(args.seed, args.seed + 4):
        # twelve 8-point sets in one batch against twelve one-set draws:
        # differing bytes, plus one if the generator states differ
        batch_rng, one_rng = make_rng(seed), make_rng(seed)
        batch = sample_spectral_sets(batch_rng, 12, 8)
        ones = np.array([sample_spectral_set(one_rng, 8) for _ in range(12)])
        record(vertex.verdict("sampler-batch", sum(
            x != y for x, y in zip(batch.tobytes(), ones.tobytes())) + int(
            batch_rng.bit_generator.state != one_rng.bit_generator.state), None, 0))

    print("== anisotropy invariant of the weights ==")
    pts = sym_points(3)
    record(vertex.check_delta(pts[0] * sym_mus(1)[0].monomial_inverse(), q))
    for _ in range(args.trials):
        record(vertex.check_delta(sample_point(rng), sample_point(rng)))

    print("== one-site exchange relation ==")
    record(vertex.check_yang_baxter(pts[0], pts[1], pts[2], q))
    for _ in range(args.trials):
        fp = sample_spectral_set(rng, 3)
        record(vertex.check_yang_baxter(fp[0], fp[1], fp[2], sample_point(rng)))

    print("== monodromy exchange and triangular structure ==")
    for L in (1, 2):
        record(monodromy.check_rtt(pts[0], pts[1], sym_mus(L), q))
        for rule in ("AB", "DB", "CB", "BB"):
            record(monodromy.check_commutation(rule, pts[0], pts[1], sym_mus(L), q))
        record(monodromy.check_triangular(pts[0], sym_mus(L), q))
    for L in (3, 4, 5):
        u, v = sample_spectral_set(rng, 2)
        record(monodromy.check_rtt(u, v, sample_spectral_set(rng, L),
                                   sample_point(rng), rng=rng))

    print("== operator expansion, nilpotency, linear relation ==")
    for n, L in ((1, 1), (2, 2), (2, 3)):
        record(functional.check_cbb_expansion(n, tuple(sym_points(n + 1, 70)),
                                              tuple(sym_mus(L)), q))
    # the exact cbb residual is one orbit sum per entry at the generic
    # points; with every omission numerator times 3 (read by the orbits and
    # by the terms alike) it is no longer zero, and must equal, entry for
    # entry, C(lam_0) prod B |0> times den(every) minus each numerator times
    # its clearing b-weights times its b_product vector, one term at a time
    omission = functional._omission_parts

    def tripled(i, w):
        num, pairs = omission(i, w)
        return num * 3, pairs

    with mock.patch.object(functional, "_omission_parts", tripled):
        for n in (1, 2, 3):
            pts, mus = tuple(sym_points(n + 1, 70)), tuple(sym_mus(n))
            w = functional._WeightTable(pts, mus, q)
            want = monodromy.build_monodromy(pts[0], mus, q).apply(
                "C", monodromy.b_product(pts[1:], mus, q)) * w.den(w.every)
            for num, pairs, subset in functional._terms(w):
                want = want - monodromy.b_product([pts[k] for k in subset], mus, q) * (
                    num * w.den(w.every - pairs))
            res, _ = functional.cbb_expansion_residual(n, pts, mus, q)
            record(vertex.verdict(f"cbb-pairing-exact-n{n}", int(all(x.is_zero() for x in res))
                                  + sum(int(x != y) for x, y in zip(res, want)), None, 0))
    for L in (1, 2, 3):
        # the exact B products, one batch sweep of the table's own weights,
        # against b_product subset by subset at every length FZ and cbb use;
        # from L = 2 on, one wrong point of a subset must change its product
        pts, mus = tuple(sym_points(L + 2, 60)), tuple(sym_mus(L))
        w = functional._WeightTable(pts, mus, q)
        bad = 0
        for m in range(max(L - 1, 0), L + 2):
            subsets = list(itertools.combinations(range(L + 2), m))
            got = w.b_products(subsets)
            bad += sum(int(list(got[:, j]) != list(monodromy.b_product(
                [pts[k] for k in s], mus, q))) for j, s in enumerate(subsets))
        wrong = list(pts[1:L + 1])
        wrong[-1] = wrong[-1] * Fraction(11, 13)
        same = list(w.b_products([tuple(range(1, L + 1))])[:, 0]) == list(
            monodromy.b_product(wrong, mus, q))
        record(vertex.verdict(f"bprod-batch-exact-L{L}", bad + int(L > 1 and same),
                              None, 0))
    for L in (1, 2, 3):
        record(functional.check_b_nilpotency(L, sym_points(L + 1, 80), sym_mus(L), q))
    exact_inps = [functional.FunctionalInput(L, tuple(sym_points(L + 2, 60)),
                                             tuple(sym_mus(L)), q) for L in (1, 2)]
    exact_inps.append(functional.FunctionalInput(
        3, tuple(sym_points(5, 60)),
        tuple(LaurentPoly.rational(Fraction(m)) for m in ("2/3", "5/4", "7/2")),
        LaurentPoly.rational(Fraction(-3, 5))))
    for inp in exact_inps:
        record(functional.check_fz(inp))
    for L in (3, 4, 5, 6, 7):
        for _ in range(max(2, args.trials // 4)):
            inp = functional.FunctionalInput.sample(L, rng)
            record(functional.check_fz(inp))
    for inp in exact_inps + [functional.FunctionalInput.sample(L, rng) for L in range(2, 7)]:
        # the batched default provider against the per-subset one: the same
        # floats (residual, scale), or the same polynomials (num, den, None)
        parts = []
        for provider in (None, functional.algebraic_provider(inp.mus, inp.q)):
            res, scale = functional._functional_residual_with_scale(inp, provider)
            parts.append((res.num, res.den, scale) if isinstance(res, RationalFunction)
                         else (res, scale))
        tag = "-exact" if scale is None else ""
        record(vertex.verdict(f"fz-batched{tag}-L{inp.size}", sum(
            int(x != y) for x, y in zip(*parts)), None, 0))
    for inp in exact_inps:
        # the residual pairs each numerator with its clearing b-weights times
        # Z; each numerator times those b-weights times Z, added one by one,
        # must give the same numerator and denominator.  One Z value is
        # wrong, so that the two routes meet on a nonzero numerator.
        w = functional._WeightTable(inp.points, inp.mus, inp.q)
        z = functional.algebraic_provider(inp.mus, inp.q)
        wrong = inp.points[1:inp.size + 1]
        provider = lambda s: z(s) * Fraction(4, 3) + s[0] if s == wrong else z(s)
        total = LaurentPoly.zero()
        for num, pairs, subset in functional._terms(w):
            total = total + num * w.den(w.every - pairs) * provider(
                tuple(inp.points[k] for k in subset))
        want = RationalFunction(total, w.den(w.every))
        res = functional.functional_residual(inp, provider)
        record(vertex.verdict(f"fz-pairing-exact-L{inp.size}", int(res.is_zero())
                              + int(res.num != want.num) + int(res.den != want.den), None, 0))
    sweep = functional._WeightTable.b_products

    def wrong_sweep(w, subsets):
        # Z at q * 11/13 times the product of its points: wrong, yet still
        # symmetric in the points (at L = 1 Z is c at every point, so a
        # wrong q alone would scale every Z alike)
        out = sweep(functional._WeightTable(w.points, w.mus, w.q * Fraction(11, 13)), subsets)
        return out * np.array([math.prod((w.points[k] for k in s), start=LaurentPoly.one())
                               for s in subsets])

    for inp in exact_inps:
        # the default exact route sums two canonical terms over their orbits
        # of point relabelings, at the generic points; it must give the
        # numerator and denominator of z_algebraic subset by subset, term by
        # term, with the right Z and, nonzero, with Z at a wrong q times its
        # points' product
        z = functional.algebraic_provider(inp.mus, inp.q)

        def wrong_z(s, z=functional.algebraic_provider(inp.mus, inp.q * Fraction(11, 13))):
            return z(s) * math.prod(s, start=LaurentPoly.one())

        bad = 0
        for z_sweep, provider in ((sweep, z), (wrong_sweep, wrong_z)):
            with mock.patch.object(functional._WeightTable, "b_products", z_sweep):
                a = functional.functional_residual(inp)
            b = functional.functional_residual(inp, provider)
            bad += int(a.num != b.num) + int(a.den != b.den) \
                + int(a.is_zero() != (z_sweep is sweep))
        record(vertex.verdict(f"fz-orbit-exact-L{inp.size}", bad, None, 0))

    print("== string operators and asymptotic structure ==")
    for L in (2, 3, 4):
        for outcome in asymptotics.run_asymptotic_checks(L):
            record(outcome)
    # a stream of its own, so that the draws of the later sections stay put
    op_rng = make_rng(args.seed)
    for L in (2, 3, 4, 5):
        for _ in range(args.trials):
            qf = sample_point(op_rng)
            record(asymptotics.check_p_relations(L, qf))
            record(asymptotics.check_ordering_sum(L, qf))

    print("== refusals ==")

    def refused(name, call):
        # passes (a zero residual) only when the call raises ValueError
        try:
            call()
        except ValueError:
            return vertex.verdict(name, 0, None, 0)
        return vertex.verdict(name, 1, None, 0)

    two = LaurentPoly.rational(2)
    ws, vac = sym_mus(2), monodromy.vacuum(2, EXACT)
    for fn, call in (("f_top", lambda: asymptotics.f_top(1, ws, two, 2)),
                     ("p_operator", lambda: asymptotics.p_operator(1, 2, two)),
                     ("apply_p", lambda: asymptotics.apply_p(1, 2, vac, two)),
                     ("vacuum_sandwich", lambda: asymptotics.vacuum_sandwich_p_chain(2, two)),
                     ("p_relations", lambda: asymptotics.check_p_relations(2, two)),
                     ("ordering_sum", lambda: asymptotics.check_ordering_sum(2, two))):
        record(refused(f"refuse-rational-q-{fn}", call))
    for name, kwargs in (("normalization", {"normalization": "bogus"}),
                         ("q-count-0", {"q_count": 0}), ("q-count-negative", {"q_count": -3})):
        record(refused(f"refuse-numeric-solve-{name}",
                       lambda: solver.solve_fz(2, backend="float", rng=make_rng(1), **kwargs)))
    pts = sym_points(3)
    for name, call in (("omission-0", lambda: functional.omission_coeff(0, pts, sym_mus(1), q)),
                       ("omission-3", lambda: functional.omission_coeff(3, pts, sym_mus(1), q)),
                       ("substitution-3-1",
                        lambda: functional.substitution_coeff(3, 1, pts, sym_mus(1), q)),
                       ("substitution-2-0",
                        lambda: functional.substitution_coeff(2, 0, pts, sym_mus(1), q))):
        record(refused(f"refuse-index-{name}", call))

    print("== partition function: operator product vs configuration sum ==")
    for L in (1, 2, 3, 4):
        lams, mus, _ = partition.standard_symbolic_params(L)
        record(vertex.verdict(f"z-routes-L{L}", partition.z_enumerate(lams, mus, q, "pruned")
                              - partition.z_algebraic(lams, mus, q), None, 0.0))
    for L in range(1, 7):
        for _ in range(args.trials):
            lams = sample_spectral_set(rng, L)
            mus = sample_spectral_set(rng, L)
            qf = sample_point(rng)
            za = partition.z_algebraic(lams, mus, qf)
            ze = partition.z_enumerate(lams, mus, qf, "pruned")
            record(vertex.verdict(f"z-routes-L{L}", ze - za, max(abs(za), abs(ze)), 1e-9))

    print("== serialization round trip of exact Z ==")
    for L in (1, 2, 3):
        z = partition.z_algebraic(*partition.standard_symbolic_params(L))
        text, terms = z.text_and_json_terms()
        record(vertex.verdict(f"z-text-roundtrip-L{L}", parse_poly(text) - z, None, 0.0))
        record(vertex.verdict(f"z-json-roundtrip-L{L}", LaurentPoly.from_json_terms(terms) - z,
                              None, 0.0))

    print("== configuration sum: brute force vs pruned search ==")
    for L in range(1, 5):
        naive = set(partition.iter_dwbc_configs(L, mode="naive"))
        pruned = set(partition.iter_dwbc_configs(L))
        # configurations only one route finds, and the difference of the counts
        record(vertex.verdict(f"naive-configs-L{L}", len(naive ^ pruned) + abs(
            partition.count_configs(L, "naive") - partition.count_configs(L)), None, 0))
        lams = sample_spectral_set(rng, L)
        mus = sample_spectral_set(rng, L)
        qf = sample_point(rng)
        zn = partition.z_enumerate(lams, mus, qf, "naive")
        zp = partition.z_enumerate(lams, mus, qf, "pruned")
        record(vertex.verdict(f"naive-z-L{L}", zn - zp, max(abs(zn), abs(zp)), 1e-12))

    print("== homogeneous limit ==")
    for L in (1, 2):
        record(vertex.verdict(f"homogeneous-ode-L{L}", solver.homogeneous_ode_residual(L),
                              None, 0.0))

    print("== coefficient solver ==")
    want = solver.expected_l2_table().entries
    got = solver.solve_fz(2).entries
    record(vertex.verdict("solve-exact-L2", np.array(
        [(got[idx] - want[idx]).num for idx in want], dtype=object), None, 0.0))
    for L in (1, 2, 3):
        # the rank certificate of the sampled rows modulo p: its deficit
        # from ncols - 1, and the values of q it skipped
        samples, ncols, box = solver._assemble_constraints(L)
        nullvectors, rank = solver._select_independent_rows(samples, ncols)
        record(vertex.verdict(f"solve-sampled-rank-L{L}", ncols - 1 - rank
                              + len(samples.qs) - len(nullvectors), None, 0))
        # the candidate rebuilt in q against the direct expansion's ratios
        values = solver._exact_nullvector(nullvectors, ncols)
        direct = solver.h_table_from_z(L)
        top = direct.entries[direct.top_index]
        record(vertex.verdict(f"solve-candidate-L{L}", np.array(
            [(v - direct.entries[idx] / top).num for idx, v in zip(box, values)],
            dtype=object), None, 0))
    # step 4 must refuse a symmetric perturbation of the solved L = 2 table,
    # (1, -1) and (-1, 1) both shifted by q, on the equation itself
    samples, ncols, box = solver._assemble_constraints(2)
    values = solver._exact_nullvector(solver._select_independent_rows(samples, ncols)[0], ncols)
    equation = solver._equation(2)
    for idx in ((1, -1), (-1, 1)):
        values[box.index(idx)] = values[box.index(idx)] + RationalFunction(q)
    try:
        solver._verify_candidate(2, box, values, equation)
        refused = 1
    except NullspaceDimensionUnexpected as exc:
        refused = int("fails the full equation" not in str(exc))
    record(vertex.verdict("solve-verify-symmetric-perturbation-L2", refused, None, 0))
    # the exact L = 3 stdout against the stored document: differing bytes,
    # plus the length difference and the exit code
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["solve", "--size", "3"])
    got = out.getvalue().encode()
    want = (Path(__file__).resolve().parents[1] / "tests" / "data"
            / "solve_size3_exact.json").read_bytes()
    record(vertex.verdict("solve-exact-L3-stdout", sum(x != y for x, y in zip(got, want))
                          + abs(len(got) - len(want)) + code, None, 0))
    # the numeric solves at one q against known ratios over the full box:
    # L = 3 against the stored table, L = 4 against the direct expansion
    ref3 = {**solver.reference_l3_ratios(), (2, 2, 2): RationalFunction(LaurentPoly.one())}
    table4 = solver.h_table_from_z(4)
    top4 = table4.entries[table4.top_index]
    for L, ratio_of, tol in ((3, ref3.get, 1e-8),
                             (4, lambda idx: table4.entries[idx] / top4, 1e-9)):
        sample = solver.solve_fz(L, "top-one", "float", rng=make_rng(args.seed),
                                 q_count=1).samples[0]
        want = {idx: 0.0 if (r := ratio_of(idx)) is None else complex(r.eval({q_var(): sample.q}))
                for idx in solver.ansatz_box(L)}
        record(vertex.verdict(f"solve-float-L{L}", np.array(
            [sample.ratios.get(idx, 0.0) - v for idx, v in want.items()]),
            max(abs(v) for v in want.values()), tol))

    ok = all(r.passed for r in results)
    print(f"\n{len(results)} checks, "
          f"{sum(1 for r in results if not r.passed)} failures, "
          f"{time.time() - t0:.1f}s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
