"""One round of a workload in a fresh process: import, then run tasks.

Run by ``run.py``; not meant to be started by hand.
``--probe-import MODULE SRC`` only prints the wall seconds that
``import MODULE`` takes in this fresh interpreter.  Otherwise the worker
imports ``sixvertex``, generates the task inputs from the seed, runs the
first task of round ``--round`` cold (the warm-up), and then runs that
task and the ones after it in a closed loop, one at a time, until the next
one would end after ``--seconds``.  So the first steady task is the
warm-up's input run again warm.  Rounds use disjoint task indices.  With
``--trace 1`` every task index runs twice, traced and untraced in
alternating order, and only the traced run installs wrappers.  The record
is written as JSON to ``--out``.

On a 2-core Xeon sandbox VM the machine's speed drifts by up to 1.7x in
phases of 5 to 10 seconds, for all work alike.  So every timed interval is
bracketed by a short fixed calibration mix (``calibration_s``), and each
time is also reported scaled to the speed at which that mix takes
``REFERENCE_CAL_S``: ``scaled = wall * REFERENCE_CAL_S / calibration``,
with the mean of the calibrations before and after.  Both are recorded.
The calibration mix does not touch the program under test.
"""

from __future__ import annotations

# Only modules that Python itself loads at start-up are imported here, so
# that ``import sixvertex`` is timed with none of its dependencies loaded.
import os
import sys
import time

# inputs generated per second of a round: more than any round can use
_INPUTS_PER_SECOND = 16
# the calibration mix takes 22 to 40 ms on a 2-core Xeon sandbox VM
REFERENCE_CAL_S = 0.020


def calibration_s() -> float:
    """Seconds for a fixed mix of pure-Python work like the program's: dict
    and tuple traffic and Fraction arithmetic.  The garbage collector is off
    while it runs, so its time depends on the machine and not on the heap
    the last task left behind.  It uses no numpy, so it neither warms up nor
    waits on the BLAS threads."""
    import gc
    from fractions import Fraction

    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(40000):
            key = (i % 97, i % 13)
            table[key] = table.get(key, 0) + i * i
        acc = Fraction(0)
        for i in range(1, 3000):
            acc += Fraction(i, i + 7)
        return time.perf_counter() - start
    finally:
        gc.enable()


def import_sixvertex(src: str) -> None:
    """Import the package, which must come from ``src``."""
    sys.path.insert(0, src)
    import sixvertex
    want = os.path.realpath(os.path.join(src, "sixvertex"))
    if os.path.realpath(os.path.dirname(sixvertex.__file__)) != want:
        raise SystemExit(f"sixvertex was imported from {sixvertex.__file__}, not {want}")


def probe_import(module: str, src: str) -> int:
    """Print the wall seconds of ``import module`` in this interpreter."""
    sys.path.insert(0, src)
    start = time.perf_counter()
    __import__(module)
    print(time.perf_counter() - start)
    return 0


def run_task(workload, inp: dict) -> tuple[float, bool, dict]:
    """(seconds, passed, failure detail) of one task; the check is untimed.

    A task that raises fails like one whose check fails; its time is
    returned but never counted as a timing."""
    start = time.perf_counter()
    try:
        result = workload.run(inp)
    except Exception as exc:  # noqa: BLE001 - any exception fails the task
        return time.perf_counter() - start, False, {"error": f"{type(exc).__name__}: {exc}"}
    elapsed = time.perf_counter() - start
    try:
        ok, detail = workload.check(inp, result)
    except Exception as exc:  # noqa: BLE001 - a check that cannot run fails the task
        ok, detail = False, {"check_error": f"{type(exc).__name__}: {exc}"}
    return elapsed, ok, detail


def inputs_per_round(seconds: float) -> int:
    return int(_INPUTS_PER_SECOND * seconds) + 16


def measure(workload, seed: int, seconds: float, tracer=None, first: int = 0) -> dict:
    """Run one workload for ``seconds`` from task ``first``; see the module
    docstring.

    Each passing attempt is recorded as [wall, scaled] seconds of the task,
    and of the task with its check (``busy``), which ``tasks_per_s`` uses.
    ``cold_s`` and ``warm_s`` are [wall, scaled] seconds of task ``first``
    cold and warm, or None if that attempt failed."""
    import statistics

    from workloads import task_inputs

    inputs = task_inputs(workload, seed, first + inputs_per_round(seconds))
    workload.prepare()
    rec = {"attempted": 0, "failed": 0, "failures": [], "warm_s": None,
           "times": [], "traced_times": [], "busy": []}
    cal = [calibration_s()]

    def attempt(index: int, traced: bool = False, counted: bool = True):
        if traced:
            tracer.task = index
            tracer.install()
        start = time.perf_counter()
        try:
            elapsed, ok, detail = run_task(workload, inputs[index])
        finally:
            if traced:
                tracer.uninstall()
        busy = time.perf_counter() - start
        cal.append(calibration_s())
        rec["attempted"] += 1
        if not ok:
            rec["failed"] += 1
            rec["failures"].append({"seed": seed, "task": index, "traced": traced,
                                    "inputs": inputs[index], **detail})
            return None
        scale = REFERENCE_CAL_S * 2 / (cal[-2] + cal[-1])
        times = [elapsed, elapsed * scale]
        if counted:
            rec["traced_times" if traced else "times"].append(times)
            if not traced:
                rec["busy"].append([busy, busy * scale])
        return times

    rec["cold_s"] = attempt(first, counted=False)
    start = time.perf_counter()
    unit_walls = []
    for index in range(first, len(inputs)):
        if unit_walls and (time.perf_counter() - start
                           + statistics.median(unit_walls)) > seconds:
            break
        unit_start = time.perf_counter()
        if tracer is None:
            warm = attempt(index)
            if index == first:
                rec["warm_s"] = warm
        else:
            for traced in ((True, False) if index % 2 else (False, True)):
                attempt(index, traced)
        unit_walls.append(time.perf_counter() - unit_start)
    rec["tasks"] = len(unit_walls)
    return rec


def provenance() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(np),
        "reference_cal_s": REFERENCE_CAL_S,
    }


def _blas_threads(np):
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def main() -> int:
    import argparse
    import json
    import resource

    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()
    import_sixvertex(args.src)
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    rec = measure(WORKLOADS[args.workload], args.seed, args.seconds, tracer,
                  first=args.round * inputs_per_round(args.seconds))
    rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rec["provenance"] = provenance()
    if tracer is not None:
        # per-layer times are scaled like the task times they sum into
        pairs = rec["traced_times"]
        scale = sum(t[1] for t in pairs) / sum(t[0] for t in pairs) if pairs else 1.0
        rec["per_layer"] = tracer.metrics(scale)
        rec["missing_targets"] = tracer.missing
        rec["spans"] = tracer.write_spans(args.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(rec, fh)
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--probe-import"]:
        # nothing but the interpreter's own start-up is loaded before the
        # timed import, not even argparse
        sys.exit(probe_import(*sys.argv[2:4]))
    sys.exit(main())
