#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload and store the runs.

    python3 scripts/bench_pair.py --parent DIR --change DIR --workload exact-fz \\
        --seed 104729 --pairs 10 --tag NAME

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, from
that checkout's root and with its own ``src/``; the side that runs first
alternates from pair to pair. Both sides run for the ``run_seconds`` of
the change checkout's ``BENCHMARK.json``, read once. Every run's last
stdout line (the JSON summary) and the provenance from its result file are
kept. The record goes into ``BENCH_<tag>.json`` at the root of the
repository holding this script, under the workload's name, beside the
entries of other workloads already there. For every end-to-end metric of
``BENCHMARK.json`` it holds each side's median and quartiles, the number
of pairs the change won (ties count for neither side), whether the medians
differ by more than the parent's quartile spread, the change's median
relative to the parent's, and whether it is within the metric's bound: no
worse, in the metric's ``better`` direction, than the parent's median by
more than ``bound`` times it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def src_digest(checkout: Path) -> str:
    """sha256 over the paths and bytes of the checkout's Python sources."""
    h = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        h.update(str(path.relative_to(checkout)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    wall = time.perf_counter() - start
    result = checkout / "perfbench" / "out" / f"result-{workload}-seed{seed}-trace0.json"
    return {"summary": json.loads(out.stdout.strip().splitlines()[-1]),
            "provenance": json.loads(result.read_text(encoding="utf-8"))["provenance"],
            "run_wall_s": wall}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def compare(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per-metric medians, quartiles, the change's wins over the pairs and
    whether its median is within the bound."""
    out = {}
    for spec in end_to_end:
        name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
        vals = {side: [r[side]["summary"]["metrics"][name]["value"] for r in runs]
                for side in SIDES}
        if any(v is None for side in SIDES for v in vals[side]):
            out[name] = {"values": vals, "complete": False}
            continue
        qs = {side: quartiles(vals[side]) for side in SIDES}
        parent_med, change_med = qs["parent"][1], qs["change"][1]
        out[name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "values": vals,
            "parent_quartiles": qs["parent"], "change_quartiles": qs["change"],
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(*vals.values())),
            "parent_wins": sum(sign * (c - p) < 0 for p, c in zip(*vals.values())),
            "gap_exceeds_parent_spread":
                abs(change_med - parent_med) > qs["parent"][2] - qs["parent"][0],
            "change_over_parent": change_med / parent_med if parent_med else None,
            "within_bound": sign * (change_med - parent_med) >= -spec["bound"] * abs(parent_med),
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--tag", required=True)
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = []
    for k in range(args.pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_once(checkouts[side], args.workload, args.seed,
                                  spec["run_seconds"])
        runs.append(pair)
        p50 = [pair[s]["summary"]["metrics"]["task_p50_s"]["value"] for s in SIDES]
        print(f"pair {k + 1}/{args.pairs} ({order[0]} first): task_p50_s "
              f"parent {p50[0]} change {p50[1]}", flush=True)
    entry = {
        "seed": args.seed, "pairs": args.pairs, "seconds": spec["run_seconds"],
        "src_sha256": {side: src_digest(path) for side, path in checkouts.items()},
        "failed": {side: sum(r[side]["summary"]["failed"] for r in runs) for side in SIDES},
        "attempted": {side: sum(r[side]["summary"]["attempted"] for r in runs)
                      for side in SIDES},
        "metrics": compare(runs, spec["end_to_end"]),
        "runs": runs,
    }
    path = ROOT / f"BENCH_{args.tag}.json"
    record = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    record.setdefault("workloads", {})[args.workload] = entry
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for name, m in entry["metrics"].items():
        if "change_wins" in m:
            print(f"  {name:12s} parent {m['parent_quartiles']} change {m['change_quartiles']}"
                  f"  wins {m['change_wins']}/{args.pairs}"
                  f"  gap>spread {m['gap_exceeds_parent_spread']}"
                  f"  within bound {m['bound']}: {m['within_bound']}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
