import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sixvertex import partition
from sixvertex.cli import RunConfig, main, run
from sixvertex.functional import (FunctionalInput, check_b_nilpotency, check_cbb_expansion,
                                  check_fz)
from sixvertex.monodromy import check_commutation, check_rtt, check_triangular
from sixvertex.vertex import check_yang_baxter


def _capture(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_verify_fz_exact_passes(capsys):
    code, out = _capture(capsys, ["verify", "--check", "fz", "--size", "2",
                                  "--backend", "exact"])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["results"][0]["exact"] is True


def test_enumerate_count_only(capsys):
    code, out = _capture(capsys, ["enumerate", "--size", "3", "--count-only"])
    assert code == 0
    assert json.loads(out)["count"] == 7


def test_solve_l2_table(capsys):
    code, out = _capture(capsys, ["solve", "--size", "2",
                                  "--normalize", "asymptotic"])
    assert code == 0
    doc = json.loads(out)
    assert doc["zero_indices"] == 5
    by_index = {tuple(e["index"]): (e["ratio_to_top"], e["value"]) for e in doc["entries"]}
    mixed = ("((-2/1)) / ((1/1) + (1/1)*q^2)", "(-1/8)*q^-2 + (1/4) + (-1/8)*q^2")
    h_top = "(1/16)*q^-2 + (-1/16) + (-1/16)*q^2 + (1/16)*q^4"
    assert by_index == {
        (-1, -1): ("(1/1)*q^-2", "(1/16)*q^-4 + (-1/16)*q^-2 + (-1/16) + (1/16)*q^2"),
        (-1, 1): mixed,
        (1, -1): mixed,
        (1, 1): ("(1/1)", h_top),
    }
    assert doc["h_top"] == h_top


def test_compute_exact_symbolic(capsys):
    code, out = _capture(capsys, ["compute", "--size", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["value"]["text"] == "(-1/2)*q^-1 + (1/2)*q^1"


def test_compute_methods_agree(capsys):
    code1, out1 = _capture(capsys, ["compute", "--size", "2", "--backend", "float",
                                    "--seed", "5"])
    code2, out2 = _capture(capsys, ["compute", "--size", "2", "--backend", "float",
                                    "--seed", "5", "--method", "enumerate-pruned"])
    v1 = json.loads(out1)["value"]
    v2 = json.loads(out2)["value"]
    assert abs(complex(v1["re"], v1["im"]) - complex(v2["re"], v2["im"])) \
        <= 1e-9 * abs(complex(v1["re"], v1["im"]))


def test_determinism_float(capsys):
    argv = ["verify", "--check", "fz", "--size", "3", "--backend", "float",
            "--trials", "3", "--seed", "99"]
    _, out1 = _capture(capsys, argv)
    _, out2 = _capture(capsys, argv)
    assert out1 == out2


def test_determinism_exact(capsys):
    argv = ["solve", "--size", "2"]
    _, out1 = _capture(capsys, argv)
    _, out2 = _capture(capsys, argv)
    assert out1 == out2


def test_ode_command(capsys):
    for size in (1, 2):
        code, out = _capture(capsys, ["ode", "--size", str(size)])
        assert code == 0
        assert json.loads(out)["residual_zero"] is True


def test_config_error_exit_code(capsys):
    code, out = _capture(capsys, ["ode", "--size", "3"])
    assert code == 2
    assert json.loads(out)["kind"] == "config"
    code, _ = _capture(capsys, ["verify", "--check", "h-table", "--size", "2"])
    assert code == 2
    code, _ = _capture(capsys, ["compute", "--backend", "float", "--q", "nonsense"])
    assert code == 2


def test_explicit_parameters(capsys):
    code, out = _capture(capsys, [
        "compute", "--size", "1", "--lam", "u1", "--mu", "(1/1)", "--q", "q"])
    assert code == 0
    doc = json.loads(out)
    assert doc["value"]["text"] == "(-1/2)*q^-1 + (1/2)*q^1"
    code, out = _capture(capsys, [
        "compute", "--size", "1", "--backend", "float",
        "--lam", "0.5+0.1j", "--mu", "1.0", "--q", "2.0"])
    assert code == 0
    doc = json.loads(out)
    # Z(L=1) = c = (q - 1/q)/2 = 0.75 regardless of the spectral point
    assert abs(complex(doc["value"]["re"], doc["value"]["im"]) - 0.75) < 1e-12


def test_symbolic_enumeration_past_l4_exits_2(capsys, monkeypatch):
    # refused before any configuration weight is formed (one would exhaust
    # memory at L = 5); exact numbers at L = 5 still compute
    def refuse(*args):
        raise AssertionError("a configuration weight was formed")

    monkeypatch.setattr(partition, "_config_weight", refuse)
    code, out = _capture(capsys, ["enumerate", "--size", "5"])
    assert code == 2
    assert json.loads(out)["kind"] == "config"
    monkeypatch.undo()
    numbers = [x for k in range(5) for x in ("--lam", str(k + 2), "--mu", "1")]
    code, out = _capture(capsys, ["compute", "--size", "5", "--method", "enumerate-pruned",
                                  *numbers, "--q", "3"])
    assert code == 0
    assert json.loads(out)["value"]["type"] == "exact"


def test_parameter_count_mismatch(capsys):
    code, _ = _capture(capsys, ["compute", "--size", "2", "--lam", "u1"])
    assert code == 2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out = _capture(capsys, ["enumerate", "--size", "2", "--count-only",
                                  "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["count"] == 2


def test_verify_checks_smoke(capsys):
    fast = [
        ["verify", "--check", "yb", "--backend", "exact"],
        ["verify", "--check", "rtt", "--size", "1", "--backend", "exact"],
        ["verify", "--check", "comm", "--size", "1", "--backend", "exact"],
        ["verify", "--check", "triangular", "--size", "2", "--backend", "exact"],
        ["verify", "--check", "cbb", "--size", "2", "--backend", "exact"],
        ["verify", "--check", "z0", "--size", "2", "--backend", "exact"],
        ["verify", "--check", "appendix-a", "--size", "2", "--backend", "exact"],
        ["verify", "--check", "h-table", "--size", "3", "--source", "direct"],
        ["verify", "--check", "yb", "--backend", "float", "--trials", "3"],
        ["verify", "--check", "z0", "--size", "3", "--backend", "float",
         "--trials", "2"],
    ]
    for argv in fast:
        code, out = _capture(capsys, argv)
        assert code == 0, argv
        assert json.loads(out)["passed"] is True


def test_verify_fz_float_reports_sampled_points(capsys):
    code, out = _capture(capsys, ["verify", "--check", "fz", "--size", "2",
                                  "--backend", "float", "--trials", "2",
                                  "--seed", "4"])
    assert code == 0
    doc = json.loads(out)
    for res in doc["results"]:
        assert res["residual"] <= res["tolerance"] * res["scale"]
        assert len(res["details"]["points"]) == 4


def _complex(obj):
    return complex(obj["re"], obj["im"])


# each sampled check: (--size, the Python check on one outcome's name, points, mus and q)
_RERUNS = {
    "yb": (2, lambda name, p, m, q: check_yang_baxter(*p, q, tolerance=0.0)),
    # above L = 4, rtt probes columns drawn from the seeded stream inside its
    # call: its rerun needs the seed, not the recorded points alone
    "rtt": (4, lambda name, p, m, q: check_rtt(*p, m, q, tolerance=0.0)),
    "comm": (2, lambda name, p, m, q: check_commutation(
        name.removeprefix("commutation-"), *p, m, q, tolerance=0.0)),
    "triangular": (3, lambda name, p, m, q: check_triangular(*p, m, q, tolerance=0.0)),
    "cbb": (3, lambda name, p, m, q: check_cbb_expansion(3, tuple(p), tuple(m), q,
                                                         tolerance=0.0)),
    "z0": (3, lambda name, p, m, q: check_b_nilpotency(3, p, m, q, tolerance=0.0)),
    "fz": (4, lambda name, p, m, q: check_fz(FunctionalInput(4, tuple(p), tuple(m), q),
                                             tolerance=0.0)),
}


@pytest.mark.parametrize("check", list(_RERUNS))
def test_float_trials_rerun_from_their_details(capsys, check):
    size, call = _RERUNS[check]
    code, out = _capture(capsys, ["verify", "--check", check, "--size", str(size),
                                  "--backend", "float", "--trials", "2", "--seed", "11",
                                  "--tolerance", "0"])
    results = json.loads(out)["results"]
    assert len(results) == (8 if check == "comm" else 2)
    assert code == (0 if all(r["passed"] for r in results) else 1)
    for k, res in enumerate(results):
        d = res["details"]
        assert set(d) == {"trial", "points", "mus", "q"} and d["trial"] == k % 2
        pts, mus, q = [_complex(p) for p in d["points"]], [_complex(m) for m in d["mus"]], \
            _complex(d["q"])
        got = call(res["name"], pts, mus, q)
        assert (got.residual.hex(), got.scale.hex(), got.passed) == \
            (res["residual"].hex(), res["scale"].hex(), res["passed"])
        # a nudged point gives another rerun; z0's float residual is exactly zero
        # at any points, so there only the scale can tell
        nudged = call(res["name"], [pts[0] * (1 + 1e-6), *pts[1:]], mus, q)
        assert nudged.scale != res["scale"]
        assert nudged.residual != res["residual"] or check == "z0"


def test_failing_check_forces_exit_one(capsys, monkeypatch):
    from sixvertex import solver as solver_mod
    from sixvertex.scalar import LaurentPoly

    monkeypatch.setattr(solver_mod, "homogeneous_ode_residual",
                        lambda L: LaurentPoly.one())
    code, out = _capture(capsys, ["ode", "--size", "1"])
    assert code == 1
    assert json.loads(out)["residual_zero"] is False


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "sixvertex.cli", "enumerate", "--size", "2",
         "--count-only"],
        capture_output=True, text=True, check=False)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 2


def test_package_runs_as_module_from_checkout():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "sixvertex", "enumerate", "--size", "3", "--count-only"],
        capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 7


def test_run_config_dispatch():
    code, doc = run(RunConfig(command="enumerate", size=4, count_only=True))
    assert code == 0 and doc["count"] == 42


def test_tolerance_is_passed_through_as_given(capsys):
    argv = ["verify", "--check", "fz", "--size", "3", "--backend", "float",
            "--seed", "1", "--trials", "1"]
    code, out = _capture(capsys, argv)
    doc = json.loads(out)
    assert code == 0
    assert doc["provenance"]["tolerance"] is None
    assert doc["results"][0]["tolerance"] == 1e-9  # check_fz's own default
    # zero is a tolerance like any other, not a request for the default
    code, out = _capture(capsys, argv + ["--tolerance", "0"])
    doc = json.loads(out)
    assert doc["provenance"]["tolerance"] == 0.0
    res = doc["results"][0]
    assert res["tolerance"] == 0.0
    assert res["passed"] is (res["residual"] == 0.0)
    assert code == (0 if res["passed"] else 1)


def test_negative_or_nan_tolerance_is_a_config_error(capsys):
    for bad in ("-1", "-1e-9", "nan"):
        code, out = _capture(capsys, ["verify", "--check", "fz", "--size", "2",
                                      "--backend", "float", "--trials", "1",
                                      f"--tolerance={bad}"])
        assert code == 2, bad
        assert json.loads(out)["kind"] == "config"


def test_usage_error_is_one_config_document(capsys):
    cases = [
        # a space-separated exponent-form negative reads as an option to argparse
        ["verify", "--check", "fz", "--size", "2", "--backend", "float",
         "--trials", "1", "--tolerance", "-1e-9"],
        ["verify", "--check", "nope", "--size", "2"],
    ]
    for argv in cases:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        doc = json.loads(captured.out)
        assert doc["kind"] == "config" and set(doc) == {"error", "kind"}
        assert captured.err == ""
    assert "--tolerance" in json.loads(_capture(capsys, cases[0])[1])["error"]
    assert "nope" in json.loads(_capture(capsys, cases[1])[1])["error"]


def test_usage_error_console_script():
    proc = subprocess.run(
        [sys.executable, "-m", "sixvertex.cli", "verify", "--check", "fz",
         "--size", "2", "--backend", "float", "--trials", "1", "--tolerance", "-1e-9"],
        capture_output=True, text=True, check=False)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["kind"] == "config"


def test_help_still_exits_zero(capsys):
    assert main(["verify", "--help"]) == 0
    assert "--check" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["compute", "--size", "0"],
    ["solve", "--size", "0"],
    ["verify", "--check", "appendix-a", "--size", "0"],
    ["verify", "--check", "cbb", "--operators", "-1"],
    ["verify", "--check", "fz", "--size", "0"],
    ["verify", "--check", "fz", "--size", "2", "--backend", "float", "--trials", "0"],
    ["verify", "--check", "fz", "--size", "2", "--backend", "float", "--trials", "-3"],
    # options of one check are refused with any other, not ignored
    ["verify", "--check", "yb", "--operators", "3"],
    ["verify", "--check", "yb", "--source", "solver"],
])
def test_out_of_range_counts_are_config_errors(capsys, argv):
    code, out = _capture(capsys, argv)
    assert code == 2
    doc = json.loads(out)
    assert doc["kind"] == "config"
    assert argv[-2] in doc["error"]


@pytest.mark.parametrize("argv, message", [
    (["solve", "--size", "4"], "exact solve supports L <= 3"),
    (["solve", "--size", "5", "--backend", "float"], "numeric solve supports L <= 4"),
    (["enumerate", "--size", "7", "--backend", "float"], "pruned enumeration supports L <= 6"),
    (["compute", "--size", "5", "--method", "enumerate-naive", "--backend", "float"],
     "naive enumeration supports L <= 4"),
])
def test_size_limit_is_a_config_error(capsys, argv, message):
    # a size past a method's limit is a bad configuration, not a failed check
    code, out = _capture(capsys, argv)
    assert code == 2
    assert json.loads(out) == {"error": message, "kind": "config"}


@pytest.mark.parametrize("argv", [
    ["verify", "--check", "appendix-a", "--size", "2", "--backend", "float", "--trials", "3"],
    ["verify", "--check", "h-table", "--size", "3", "--backend", "float"],
    ["ode", "--size", "1", "--backend", "float"],
])
def test_exact_only_runs_refuse_the_float_backend(capsys, argv):
    # these runs have no float route; they used to report "backend": "float"
    # over exact results and ignore --trials and --seed
    code, out = _capture(capsys, argv)
    assert code == 2
    doc = json.loads(out)
    assert doc["kind"] == "config"
    what = " ".join(argv[:3]) if argv[0] == "verify" else argv[0]
    assert doc["error"].startswith(what + " ") and "--backend float" in doc["error"]


@pytest.mark.parametrize("text", ["u1**2", "u1+", "*"])
def test_malformed_exact_parameter_is_a_config_error(capsys, text):
    code, out = _capture(capsys, ["compute", "--size", "1", "--lam", text])
    assert code == 2
    doc = json.loads(out)
    assert doc["kind"] == "config" and repr(text) in doc["error"]


def test_the_shared_parser_parses_each_run_afresh(capsys):
    from sixvertex import cli

    argvs = [
        ["compute", "--size", "2", "--backend", "float", "--lam", "1.5", "--lam", "0.5+1j",
         "--mu", "1", "--mu", "2j", "--q", "1.2"],
        ["enumerate", "--size", "3", "--count-only"],
        ["compute", "--size", "2", "--backend", "float", "--bogus"],
        ["compute", "--size", "2", "--backend", "float", "--lam", "2", "--lam", "3",
         "--mu", "1", "--mu", "1.5", "--q", "0.7"],
        # no --lam: the append defaults must be empty again, not the last run's
        ["compute", "--size", "2", "--backend", "float", "--seed", "4"],
        ["verify", "--check", "yb", "--backend", "float", "--trials", "2"],
        ["ode", "--size", "1"],
    ]
    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append(_capture(capsys, argv))
    cli._parser.cache_clear()
    shared = [_capture(capsys, argv) for argv in argvs]
    assert cli._parser.cache_info().misses == 1
    assert shared == fresh
    assert [code for code, _ in shared] == [0, 0, 2, 0, 0, 0, 0]
    assert "--bogus" in json.loads(shared[2][1])["error"]
    assert cli._parse_args(argvs[4]).lams == []


# stdout of these runs at the commit before the configuration table replaced
# the recursive walk; float Z must stay bit-identical
DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("argv, name", [
    (["compute", "--size", "6", "--backend", "float", "--seed", "7",
      "--method", "enumerate-pruned"], "compute_size6_float_seed7_pruned.json"),
    (["enumerate", "--size", "5", "--backend", "float", "--seed", "3"],
     "enumerate_size5_float_seed3.json"),
])
def test_enumeration_stdout_is_pinned(capsys, argv, name):
    code, out = _capture(capsys, argv)
    assert code == 0
    assert out == (DATA / name).read_text(encoding="utf-8")


# stdout and exit code of one command per check and backend, the size-limit
# and count errors and explicit parameters, as the commands printed them
# before the checks drew their parameters through one generator
BATTERY = json.loads((DATA / "cli_battery.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", BATTERY, ids=[" ".join(c["argv"]) for c in BATTERY])
def test_cli_battery_is_pinned(capsys, case):
    assert _capture(capsys, case["argv"]) == (case["code"], case["stdout"])


@pytest.mark.parametrize("argv", [
    ["compute", "--size", "1", "--q", "0"],
    ["compute", "--size", "1", "--lam", "0"],
    ["compute", "--size", "1", "--lam", "u1+u2"],
    ["compute", "--size", "1", "--backend", "float", "--mu", "0"],
    ["compute", "--size", "1", "--backend", "float", "--q", "nan"],
    ["compute", "--size", "1", "--q", "(1/0)"],
])
def test_zero_or_non_monomial_parameter_is_a_config_error(capsys, argv):
    # every weight inverts its argument
    code, out = _capture(capsys, argv)
    assert code == 2
    doc = json.loads(out)
    assert doc["kind"] == "config"
    assert repr(argv[-1]) in doc["error"]


def test_cbb_with_no_b_operators_float_passes(capsys):
    code, out = _capture(capsys, ["verify", "--check", "cbb", "--operators", "0", "--size", "2",
                                  "--backend", "float", "--trials", "1"])
    assert code == 0
    assert json.loads(out)["passed"]


def test_unwritable_out_is_a_config_error(tmp_path, capsys):
    # the result is not printed first: stdout holds the one error document
    target = tmp_path / "missing" / "x.json"
    code, out = _capture(capsys, ["compute", "--size", "1", "--out", str(target)])
    assert code == 2
    doc = json.loads(out)
    assert doc["kind"] == "config" and str(target) in doc["error"]
    assert not target.exists()


def test_exponent_overflow_in_a_parameter_is_a_config_error(capsys):
    # an overflow during the computation stays exit 1 (test_scalar_kernel.py)
    code, out = _capture(capsys, ["compute", "--size", "1", "--lam", "u1^40000"])
    assert code == 2
    doc = json.loads(out)
    assert doc["kind"] == "config" and repr("u1^40000") in doc["error"]
