#!/usr/bin/env python3
"""Solve the coefficient tables exactly and print them.

Sizes 1 and 2 are instant; size 3 assembles and eliminates a 125-unknown
system over rational functions in q (3.0-3.2 s on a 2-core machine).
Pass --size 4 for the float backend at sampled anisotropies: 256
unknowns, the entries whose exponents have the parity of L - 1, at 8
values of q (~1.8 s and ~60 MB peak RSS on a 2-core machine).
"""

import argparse
import sys
import time

from sixvertex.sampling import make_rng
from sixvertex.solver import solve_fz, verify_h_table


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--size", type=int, default=3)
    ap.add_argument("--normalize", choices=("asymptotic", "top-one"),
                    default="asymptotic")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    t0 = time.time()
    if args.size <= 3:
        try:
            table = solve_fz(args.size, args.normalize, "exact")
        except ValueError as exc:  # a size below 1
            ap.error(str(exc))
        print(f"solved size {args.size} in {time.time() - t0:.1f}s; "
              f"{len(table.nonzero_entries())} non-null of {len(table.entries)}")
        print(f"h_top = {table.entries[table.top_index].reduced().to_text()}")
        for idx in sorted(table.nonzero_entries()):
            print(f"  {idx}: ratio {table.ratio_to_top(idx).to_text()}")
        if args.size == 3:
            report = verify_h_table(table)
            print(f"reference-table comparison: "
                  f"{'all entries match' if report.passed else 'MISMATCH'}")
            return 0 if report.passed else 1
        return 0
    result = solve_fz(args.size, args.normalize, "float",
                      rng=make_rng(args.seed))
    print(f"solved size {args.size} numerically in {time.time() - t0:.1f}s")
    for s in result.samples:
        print(f"  q = {s.q:.6f}: {len(s.ratios)} significant entries, "
              f"nullspace gap {s.singular_gap:.2e}, "
              f"batch discrepancy {s.batch_discrepancy:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
