"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests``."""

import json
import shutil
import subprocess
import sys

import pytest

import run as bench
import tracing
import worker
from workloads import WORKLOADS, Solve

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=bench.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def _last_json(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_every_end_to_end_metric(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    result = _last_json(proc)
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert any(line.split()[:2] == ["failed_frac", "0"] for line in proc.stdout.splitlines())


def test_smoke_traced_run_reports_every_layer_metric():
    result = _last_json(_run("--workload", "solve", "--seed", "3", "--seconds", "1",
                             "--trace", "1"))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    assert all(m["value"] is not None for m in result["metrics"].values())
    assert result["metrics"]["solver.rank"]["value"] == 8
    assert result["correct"] and result["failed"] == 0


class _WrongSolve(Solve):
    """Returns a numeric table with its largest ratio off by a relative 1e-6."""

    def run(self, inp):
        exact, numeric = super().run(inp)
        ratios = numeric.samples[0].ratios
        largest = max(ratios, key=lambda idx: abs(ratios[idx]))
        ratios[largest] *= 1 + 1e-6
        return exact, numeric


class _Raises:
    name = "raises"

    def make_inputs(self, rnd):
        return {"x": rnd.random()}

    def prepare(self):
        pass

    def run(self, inp):
        from sixvertex.errors import SixVertexError
        raise SixVertexError("deliberate")

    def check(self, inp, result):
        return True, {}


def test_wrong_result_counts_as_failure_not_timing():
    rec = worker.measure(_WrongSolve(), seed=5, seconds=0.1)
    assert rec["attempted"] >= 2 and rec["failed"] == rec["attempted"]
    assert rec["times"] == [] and rec["cold_s"] is None and rec["warm_s"] is None
    first = rec["failures"][0]
    assert first["seed"] == 5 and first["task"] == 0
    assert "seed" in first["inputs"] and first["l3_rel_err"] > 1e-8


def test_raising_task_counts_as_failure():
    rec = worker.measure(_Raises(), seed=2, seconds=0.1)
    assert rec["failed"] == rec["attempted"] and rec["times"] == []
    assert rec["failures"][0]["error"] == "SixVertexError: deliberate"


class _ColdOnce(_Raises):
    """Costs 0.3 s more the first time it runs in a process."""

    name = "cold-once"

    def __init__(self):
        self.runs = 0

    def run(self, inp):
        import time
        self.runs += 1
        time.sleep(0.3 if self.runs == 1 else 0.01)


def test_cold_first_task_is_timed_against_the_same_input_warm():
    rec = worker.measure(_ColdOnce(), seed=1, seconds=0.1, first=7)
    assert rec["failed"] == 0 and rec["cold_s"][0] - rec["warm_s"][0] > 0.25
    assert rec["times"][0] == rec["warm_s"]
    assert bench.cold_extra(rec) > 0


def test_setup_is_scaled_import_plus_smallest_cold_extra():
    recs = [{"attempted": 3, "failed": 0, "failures": [], "times": [[1.0, 0.5]] * 2,
             "busy": [[1.1, 0.55]] * 2, "cold_s": [cold, cold / 2], "warm_s": [1.0, 0.5],
             "peak_rss_mb": mb, "provenance": {}}
            for cold, mb in ((1.8, 40.0), (1.2, 42.0), (1.4, 41.0))]
    rec = bench.merge_rounds(recs)
    assert rec["attempted"] == 9 and len(rec["times"]) == 6 and rec["peak_rss_mb"] == 42.0
    assert rec["cold_extra_s"] == pytest.approx([0.4, 0.1, 0.2])
    # sixvertex takes 1.5x as long to import as numpy
    metrics, _ = bench.end_to_end(rec, [[0.3, 0.2], [0.15, 0.1], [0.6, 0.4]])
    assert metrics["setup_s"]["value"] == pytest.approx(1.5 * bench.REFERENCE_NUMPY_S + 0.1)
    recs[1]["cold_s"] = [0.8, 0.4]
    assert bench.merge_rounds(recs)["cold_extra_s"] == pytest.approx([0.4, 0.0, 0.2])
    assert metrics["tasks_per_s"]["value"] == pytest.approx(6 / 3.3)


def test_missing_hook_target_is_null_and_named():
    import sixvertex.solver as solver

    original = solver._exact_nullvector
    gone = tracing.Hook("solver.gone", ("sixvertex.solver:_no_such_stage",),
                        (("solver.gone_s", "s"),))
    tracer = tracing.Tracer(tracing.HOOKS + (gone,))
    tracer.install()
    assert solver._exact_nullvector is not original
    solver.solve_fz(2)
    tracer.uninstall()
    assert solver._exact_nullvector is original
    metrics = tracer.metrics()
    assert metrics["solver.gone_s"] == {"value": None, "unit": "s/task",
                                        "missing": ["sixvertex.solver:_no_such_stage"]}
    assert metrics["solver.eliminate_s"]["value"] > 0
    assert metrics["solver.rank"]["value"] == 8


def test_tail_is_highest_percentile_with_ten_beyond():
    times = [float(i) for i in range(30)]
    assert bench.tail(times) == (19.0, pytest.approx(100 * 20 / 30))
    assert bench.tail(times[:20]) == (9.5, 50.0)
    assert bench.tail(times[:21]) == (10.0, pytest.approx(100 * 11 / 21))


def test_inputs_depend_only_on_the_seed():
    for w in WORKLOADS.values():
        from workloads import task_inputs
        assert task_inputs(w, 7, 5) == task_inputs(w, 7, 5)
        assert task_inputs(w, 7, 5) != task_inputs(w, 8, 5)


def test_fails_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "solve", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
