#!/usr/bin/env python3
"""Run the full verification battery and print a one-line-per-check summary.

Exact identities are checked symbolically at small sizes; the float
backend sweeps seeded random points beyond that, up to L = 7.  Exits
nonzero if anything fails.
"""

import argparse
import sys
import time

from sixvertex import asymptotics, functional, monodromy, vertex
from sixvertex.scalar import LaurentPoly, q_var, u_var, w_var
from sixvertex.sampling import make_rng, sample_point, sample_spectral_set


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
    print("== one-site exchange relation ==")
    pts = sym_points(3)
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
    for L in (3, 4):
        u, v = sample_spectral_set(rng, 2)
        record(monodromy.check_rtt(u, v, sample_spectral_set(rng, L),
                                   sample_point(rng), rng=rng))

    print("== operator expansion, nilpotency, linear relation ==")
    for n, L in ((1, 1), (2, 2), (2, 3)):
        record(functional.check_cbb_expansion(n, tuple(sym_points(n + 1, 70)),
                                              tuple(sym_mus(L)), q))
    for L in (1, 2, 3):
        record(functional.check_b_nilpotency(L, sym_points(L + 1, 80), sym_mus(L), q))
    for L in (1, 2):
        inp = functional.FunctionalInput(L, tuple(sym_points(L + 2, 60)),
                                         tuple(sym_mus(L)), q)
        record(functional.check_fz(inp))
    for L in (3, 4, 5, 6, 7):
        for _ in range(max(2, args.trials // 4)):
            inp = functional.FunctionalInput.sample(L, rng)
            record(functional.check_fz(inp))

    print("== string operators and asymptotic structure ==")
    for L in (2, 3):
        for outcome in asymptotics.run_asymptotic_checks(L):
            record(outcome)

    ok = all(r.passed for r in results)
    print(f"\n{len(results)} checks, "
          f"{sum(1 for r in results if not r.passed)} failures, "
          f"{time.time() - t0:.1f}s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
