"""The sixvertex benchmark: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload exact-fz|float-l6|solve|all \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  A timed run of a workload is ``ROUNDS``
fresh worker processes, one after another, each with one caller and one
task at a time, against the sources in ``src/``.
With ``--trace 0`` it reports the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports the per-layer metrics and the tracing
overhead.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the same numbers for a reader, with the run's provenance.  The whole
record, with every failed task's seed, index and inputs, is written to
``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import metric

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("exact-fz", "float-l6", "solve")
# a timed run is this many fresh workers, each for an equal share of the
# run's seconds, so that the cold first task is measured more than once
ROUNDS = 3
# pairs of fresh interpreters timing `import sixvertex` and `import numpy`
IMPORT_PROBES = 16
# import times are scaled to a machine on which `import numpy` takes this
REFERENCE_NUMPY_S = 0.100
WORKER_TIMEOUT_S = 170
# the tail is the highest percentile with ten tasks beyond it, but never
# below the median: with fewer than 20 tasks there is no tail to report
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "task_p50_s": "s",
    "task_tail_s": "s",
    "tasks_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # a fixed hash seed keeps set and dict orders, and with them the work a
    # task does, the same from run to run
    env["PYTHONHASHSEED"] = "0"
    # bytecode is always cached, and only here, so an import never compiles
    # and never writes outside the checkout, whatever the caller's settings
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    return env


def _worker(args: list[str]) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    return subprocess.run(cmd, cwd=ROOT, env=_worker_env(), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S, check=True)


def probe_imports() -> list[list[float]]:
    """[sixvertex, numpy] wall seconds of ``import`` in fresh interpreters.

    The two are timed in turns, so that each pair sees the machine in the
    same state; an untimed first pair fills the bytecode cache."""
    pairs = []
    for _ in range(IMPORT_PROBES + 1):
        pairs.append([float(_worker(["--probe-import", module, str(SRC)]).stdout)
                      for module in ("sixvertex", "numpy")])
    return pairs[1:]


def tail(times: list[float]) -> tuple[float, float]:
    """(seconds, percentile) of the task-time tail; see TAIL_BEYOND."""
    ordered = sorted(times)
    n = len(ordered)
    rank = n - TAIL_BEYOND
    if 2 * rank <= n:
        return statistics.median(ordered), 50.0
    return ordered[rank - 1], 100.0 * rank / n


def end_to_end(rec: dict, import_probes: list[list[float]]) -> tuple[dict, dict]:
    """The end-to-end metrics of a timed run, and notes for the report.

    Task times are the worker's scaled seconds (see worker.py); the
    wall-clock medians go into the notes.  The import is scaled by
    ``import numpy`` timed alongside it: on the VM this was built on, both
    swing by up to 2x together with the machine's state, while the
    pure-Python calibration barely moves.  Each worker's cold first task
    is compared with the same input run warm right after it, and the
    smallest excess counts: a cost of the first call recurs in every fresh
    worker, a stall of the machine does not."""
    times = [t[1] for t in rec["times"]]
    values = dict.fromkeys(END_TO_END_UNITS)
    six, numpy = (statistics.median(p[i] for p in import_probes) for i in (0, 1))
    import_s = REFERENCE_NUMPY_S * six / numpy
    notes = {"tasks": len(times), "import_s": import_s, "import_wall_s": six,
             "numpy_import_wall_s": numpy, "first_task_extra_s": rec["cold_extra_s"]}
    if times:
        values["task_p50_s"] = statistics.median(times)
        values["task_tail_s"], notes["tail_percentile"] = tail(times)
        values["tasks_per_s"] = len(times) / sum(b[1] for b in rec["busy"])
        notes["task_p50_wall_s"] = statistics.median(t[0] for t in rec["times"])
    if rec["cold_extra_s"]:
        values["setup_s"] = import_s + min(rec["cold_extra_s"])
    values["peak_rss_mb"] = rec["peak_rss_mb"]
    return {k: metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}, notes


def merge_rounds(recs: list[dict]) -> dict:
    """One record of a timed run from the records of its workers."""
    rec = {"attempted": sum(r["attempted"] for r in recs),
           "failed": sum(r["failed"] for r in recs),
           "peak_rss_mb": max(r["peak_rss_mb"] for r in recs),
           "provenance": recs[0]["provenance"], "traced_times": []}
    for key in ("failures", "times", "busy"):
        rec[key] = [x for r in recs for x in r[key]]
    rec["cold_extra_s"] = [x for x in map(cold_extra, recs) if x is not None]
    return rec


def cold_extra(rec: dict):
    """Scaled seconds by which a worker's cold first task outlasted the same
    input run warm right after it (0 if it did not), or None if either
    failed.  The difference is taken in wall time and then scaled, so the
    jitter of the two tasks' calibrations scales it instead of adding to it."""
    cold, warm = rec["cold_s"], rec["warm_s"]
    if cold is None or warm is None:
        return None
    scale = (cold[1] / cold[0] + warm[1] / warm[0]) / 2
    return max(0.0, cold[0] - warm[0]) * scale


def per_layer(rec: dict) -> tuple[dict, dict]:
    """The per-layer metrics of a traced run, with the tracing overhead."""
    metrics = dict(rec["per_layer"])
    p50 = {k: statistics.median(t[1] for t in rec[k]) if rec[k] else None
           for k in ("traced_times", "times")}
    overhead = None if None in p50.values() else p50["traced_times"] - p50["times"]
    metrics["trace.traced_p50_s"] = metric(p50["traced_times"], "s")
    metrics["trace.untraced_p50_s"] = metric(p50["times"], "s")
    metrics["trace.overhead_s"] = metric(overhead, "s")
    notes = {"tasks": rec["tasks"], "spans": rec["spans"],
             "missing_targets": rec["missing_targets"]}
    return metrics, notes


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    """A traced run is one worker; a timed run is ``ROUNDS`` workers, each
    starting at its own task index, after the import probes."""
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    rounds = 1 if trace else ROUNDS
    probes = [] if trace else probe_imports()
    start = time.perf_counter()
    recs = []
    for k in range(rounds):
        rec_path = OUT / f"worker-{stem}-{k}.json"
        _worker(["--src", str(SRC), "--workload", name, "--seed", str(seed),
                 "--round", str(k), "--seconds", str(seconds / rounds),
                 "--trace", str(trace), "--out", str(rec_path),
                 "--spans", str(OUT / f"spans-{stem}.jsonl")])
        recs.append(json.loads(rec_path.read_text(encoding="utf-8")))
        rec_path.unlink()
    run_wall = time.perf_counter() - start
    rec = recs[0] if trace else merge_rounds(recs)
    metrics, notes = per_layer(rec) if trace else end_to_end(rec, probes)
    result = {
        "workload": name,
        "correct": rec["failed"] == 0 and all(
            m["value"] is not None for m in metrics.values() if "missing" not in m),
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "failed_frac": rec["failed"] / rec["attempted"],
        "metrics": metrics,
        "notes": {**notes, "workers_wall_s": run_wall, "import_probes_s": probes,
                  "import_probes_format": "[sixvertex, numpy] wall seconds"},
        "failures": rec["failures"],
        "task_times_s": {"untraced": rec["times"], "traced": rec["traced_times"],
                         "format": "[wall, scaled]"},
        "provenance": {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "git_commit": _git_commit(),
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            **rec["provenance"],
        },
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def _fmt(value) -> str:
    return "null" if value is None else f"{value:.6g}"


def report(result: dict) -> None:
    """The run's numbers for a reader, ahead of the JSON line."""
    prov, notes = result["provenance"], result["notes"]
    print(f"== {result['workload']}  seed {prov['seed']}  seconds {prov['seconds']}"
          f"  trace {prov['trace']}")
    for name, m in result["metrics"].items():
        extra = ""
        if name == "task_tail_s" and "tail_percentile" in notes:
            extra = f"  (p{notes['tail_percentile']:.0f} of {notes['tasks']} tasks)"
        elif name == "task_p50_s" and "task_p50_wall_s" in notes:
            extra = f"  ({notes['tasks']} tasks; wall {notes['task_p50_wall_s']:.4f} s)"
        elif name == "setup_s" and "import_s" in notes:
            extra = (f"  (import {notes['import_s']:.4f} s, wall {notes['import_wall_s']:.4f} s"
                     f" against numpy {notes['numpy_import_wall_s']:.4f} s; first task +"
                     + "/".join(f"{x:.4f}" for x in notes["first_task_extra_s"]) + " s)")
        elif "missing" in m:
            extra = f"  (missing: {', '.join(m['missing'])})"
        print(f"  {name:32s} {_fmt(m['value']):>12s} {m['unit']}{extra}")
    print(f"  {'failed_frac':32s} {_fmt(result['failed_frac']):>12s} 1"
          f"  ({result['failed']} of {result['attempted']} tasks)")
    for failure in result["failures"]:
        print(f"  FAILED {json.dumps(failure)}")
    print("  provenance " + json.dumps(prov, sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        args.seconds = spec["run_seconds"]
    if not (SRC / "sixvertex" / "__init__.py").is_file():
        print(f"perfbench: no sixvertex sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]
    except subprocess.CalledProcessError as exc:
        print(f"perfbench: worker failed with code {exc.returncode}\n{exc.stderr}",
              file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    for result in results:
        report(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}:{k}": m for r in results for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
