"""The three benchmark workloads: seeded inputs, one task, and its check.

A workload turns the run seed into plain task inputs (ints and rationals)
before any timing starts, runs one task on them through the public
``sixvertex`` API, and checks the result against a reference that does not
share the code under test.  ``sixvertex`` is imported lazily, inside the
methods, so that the worker can time the package import itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

# Exact-fz rationals are p/d with p, d drawn from this range; small digits
# keep every task close to the same cost, so the task-time spread measures
# the program and not the input sizes.
_DIGITS = range(2, 10)
_FLOAT_REL = 1e-9
_SOLVE_REL = 1e-8


def _rational(rnd: random.Random) -> Fraction:
    while True:
        f = Fraction(rnd.choice(_DIGITS), rnd.choice(_DIGITS))
        if f != 1:
            return f


class ExactFZ:
    """Exact FZ residual at L = 3: symbolic u60..u64, rational mus and q."""

    name = "exact-fz"

    def make_inputs(self, rnd: random.Random) -> dict:
        mus = set()
        while len(mus) < 3:
            mus.add(_rational(rnd))
        q = _rational(rnd) * rnd.choice((1, -1))
        return {"mus": [str(m) for m in sorted(mus)], "q": str(q)}

    def prepare(self) -> None:
        pass

    def run(self, inp: dict):
        from sixvertex import functional
        from sixvertex.scalar import LaurentPoly, u_var

        points = tuple(LaurentPoly.var(u_var(60 + i)) for i in range(5))
        mus = tuple(LaurentPoly.rational(Fraction(m)) for m in inp["mus"])
        q = LaurentPoly.rational(Fraction(inp["q"]))
        return functional.functional_residual(
            functional.FunctionalInput(3, points, mus, q))

    def check(self, inp: dict, result) -> tuple[bool, dict]:
        ok = result.is_zero()
        return ok, {} if ok else {"residual_terms": result.num.num_terms()}


class FloatL6:
    """Three float L = 6 CLI runs: FZ verify and Z by both routes."""

    name = "float-l6"

    def make_inputs(self, rnd: random.Random) -> dict:
        return {"seed": rnd.getrandbits(32)}

    def prepare(self) -> None:
        pass

    def argvs(self, seed: int) -> list[list[str]]:
        common = ["--size", "6", "--backend", "float", "--seed", str(seed)]
        return [
            ["verify", "--check", "fz", *common, "--trials", "1"],
            ["compute", *common, "--method", "algebraic"],
            ["compute", *common, "--method", "enumerate-pruned"],
        ]

    def run(self, inp: dict):
        from sixvertex.cli import main

        out = []
        for argv in self.argvs(inp["seed"]):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv)
            out.append((code, buf.getvalue()))
        return out

    def check(self, inp: dict, result) -> tuple[bool, dict]:
        codes = [code for code, _ in result]
        if codes != [0, 0, 0]:
            return False, {"exit_codes": codes}
        verify, z_alg, z_enum = (json.loads(text) for _, text in result)
        za, ze = (complex(d["value"]["re"], d["value"]["im"]) for d in (z_alg, z_enum))
        rel = abs(za - ze) / max(abs(za), abs(ze))
        ok = verify["passed"] and rel <= _FLOAT_REL
        detail = {
            "z_rel_diff": rel,
            "fz_passed": verify["passed"],
            "fz_points": verify["results"][0].get("details"),
            "z_params": z_alg["params"],
        }
        return ok, {} if ok else detail


class Solve:
    """Exact L = 2 solve plus one numeric L = 3 solve at a sampled q."""

    name = "solve"

    def make_inputs(self, rnd: random.Random) -> dict:
        return {"seed": rnd.getrandbits(32)}

    def prepare(self) -> None:
        from sixvertex import solver

        self.l2_table = solver.expected_l2_table()
        self.l3_ratios = solver.reference_l3_ratios()
        self.l3_box = solver.ansatz_box(3)

    def run(self, inp: dict):
        from sixvertex import solver
        from sixvertex.sampling import make_rng

        exact = solver.solve_fz(2)
        numeric = solver.solve_fz(3, "top-one", "float", rng=make_rng(inp["seed"]), q_count=1)
        return exact, numeric

    def check(self, inp: dict, result) -> tuple[bool, dict]:
        from sixvertex.scalar import q_var

        exact, numeric = result
        want = self.l2_table.entries
        l2_ok = exact.entries.keys() == want.keys() and all(
            exact.entries[k] == want[k] for k in want)
        sample = numeric.samples[0]
        top = (2, 2, 2)
        ref = {
            idx: 1.0 if idx == top else
            complex(self.l3_ratios[idx].eval({q_var(): sample.q})) if idx in self.l3_ratios
            else 0.0
            for idx in self.l3_box
        }
        scale = max(abs(v) for v in ref.values())
        err = max(abs(sample.ratios.get(idx, 0.0) - v) for idx, v in ref.items()) / scale
        ok = l2_ok and err <= _SOLVE_REL
        return ok, {} if ok else {"l2_ok": l2_ok, "l3_rel_err": err, "q": repr(sample.q)}


WORKLOADS = {w.name: w for w in (ExactFZ(), FloatL6(), Solve())}


def task_inputs(workload, seed: int, count: int) -> list[dict]:
    """The first ``count`` task inputs of a run; a pure function of the seed."""
    rnd = random.Random(f"{workload.name}:{seed}")
    return [workload.make_inputs(rnd) for _ in range(count)]
