"""Command-line interface: compute, verify, solve, enumerate, ode.

Every run prints one UTF-8 JSON document to stdout (and optionally to
--out).  Identical configurations produce identical output: all randomness
flows from --seed through a single named PRNG, and exact-backend values
serialize in canonical term order.  Exit codes: 0 all checks passed,
1 at least one check failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field

from . import asymptotics, functional, monodromy, partition, solver, vertex
from .errors import ConfigError, SixVertexError
from .sampling import PRNG_NAME, make_rng, sample_point, sample_spectral_set
from .scalar import (
    CheckOutcome,
    LaurentPoly,
    parse_poly,
    q_var,
    u_var,
    w_var,
)

_CHECKS = ("yb", "rtt", "comm", "triangular", "cbb", "z0", "fz", "appendix-a", "h-table")


@dataclass
class RunConfig:
    command: str
    size: int = 2
    backend: str = "exact"
    seed: int = 0
    trials: int = 20
    tolerance: float | None = None
    check: str | None = None
    method: str = "algebraic"
    mode: str = "pruned"
    count_only: bool = False
    normalize: str = "asymptotic"
    operators: int | None = None
    source: str = "direct"
    lams: list = field(default_factory=list)
    mus: list = field(default_factory=list)
    q: str | None = None
    out: str | None = None


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError, so that it too is one JSON
    document on stdout (subcommand parsers inherit this class)."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on first use and shared by every call."""
    top = _Parser(prog="sixvertex", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--size", type=int, default=2, help="lattice size L")
        p.add_argument("--backend", choices=("exact", "float"), default="exact")
        p.add_argument("--seed", type=int, default=0, help="64-bit PRNG seed")
        p.add_argument("--trials", type=int, default=20)
        p.add_argument("--tolerance", type=float, default=None)
        p.add_argument("--out", default=None, help="also write the JSON here")

    p = sub.add_parser("compute", help="partition function value")
    common(p)
    p.add_argument("--method", choices=("algebraic", "enumerate-pruned", "enumerate-naive"),
                   default="algebraic")
    p.add_argument("--lam", action="append", default=[],
                   help="spectral point e^lambda (monomial text or complex literal)")
    p.add_argument("--mu", action="append", default=[],
                   help="inhomogeneity e^mu (monomial text or complex literal)")
    p.add_argument("--q", default=None, help="anisotropy e^gamma")

    p = sub.add_parser("verify", help="identity checks")
    common(p)
    p.add_argument("--check", choices=_CHECKS, required=True)
    p.add_argument("--operators", type=int, default=None,
                   help="number of B operators for the cbb check")
    p.add_argument("--source", choices=("direct", "solver"), default="direct",
                   help="table source for the h-table check")

    p = sub.add_parser("solve", help="coefficient table from the linear relation")
    common(p)
    p.add_argument("--normalize", choices=("asymptotic", "top-one"), default="asymptotic")

    p = sub.add_parser("enumerate", help="configuration sum / count")
    common(p)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--mode", choices=("pruned", "naive"), default="pruned")

    p = sub.add_parser("ode", help="homogeneous differential residuals")
    common(p)
    return top


def _parse_args(argv) -> RunConfig:
    ns = _parser().parse_args(argv)
    cfg = RunConfig(command=ns.command)
    for name in ("size", "backend", "seed", "trials", "tolerance", "out"):
        setattr(cfg, name, getattr(ns, name))
    for name in ("check", "method", "mode", "normalize", "operators", "source", "q"):
        if hasattr(ns, name):
            setattr(cfg, name, getattr(ns, name))
    if hasattr(ns, "count_only"):
        cfg.count_only = ns.count_only
    if hasattr(ns, "lam"):
        # copies: without --lam, argparse hands over the shared parser's default list
        cfg.lams = list(ns.lam)
        cfg.mus = list(ns.mu)
    return cfg


def _parse_scalar(text: str, backend: str):
    if backend == "float":
        try:
            return complex(text)
        except ValueError as exc:
            raise ConfigError(f"bad complex literal {text!r}") from exc
    try:
        return parse_poly(text)
    except ValueError as exc:
        raise ConfigError(f"bad monomial expression {text!r}") from exc


def _scalar_json(x):
    if isinstance(x, LaurentPoly):
        text, terms = x.text_and_json_terms()
        return {"type": "exact", "text": text, "terms": terms}
    if hasattr(x, "to_text"):
        return {"type": "exact-ratio", "text": x.reduced().to_text()}
    x = complex(x)
    return {"type": "complex", "re": x.real, "im": x.imag}


def _provenance(cfg: RunConfig, tolerance: float | None) -> dict:
    return {
        "seed": cfg.seed,
        "prng": PRNG_NAME,
        "backend": cfg.backend,
        "tolerance": tolerance,
        "package": "sixvertex 0.1.0",
    }


def _resolve_params(cfg: RunConfig):
    """Spectral parameters for compute/enumerate: explicit, or canonical
    symbolic monomials (exact), or seeded samples (float)."""
    L = cfg.size
    if cfg.backend == "exact":
        lams = [_parse_scalar(t, "exact") for t in cfg.lams] if cfg.lams else \
            [LaurentPoly.var(u_var(i)) for i in range(1, L + 1)]
        mus = [_parse_scalar(t, "exact") for t in cfg.mus] if cfg.mus else \
            [LaurentPoly.var(w_var(i)) for i in range(1, L + 1)]
        q = _parse_scalar(cfg.q, "exact") if cfg.q else LaurentPoly.var(q_var())
    else:
        rng = make_rng(cfg.seed)
        lams = [_parse_scalar(t, "float") for t in cfg.lams] if cfg.lams else \
            sample_spectral_set(rng, L)
        mus = [_parse_scalar(t, "float") for t in cfg.mus] if cfg.mus else \
            sample_spectral_set(rng, L)
        q = _parse_scalar(cfg.q, "float") if cfg.q else sample_point(rng)
    if len(lams) != L or len(mus) != L:
        raise ConfigError("parameter counts must match --size")
    return lams, mus, q


def _params_json(lams, mus, q) -> dict:
    return {
        "lambdas": [_scalar_json(x) for x in lams],
        "mus": [_scalar_json(x) for x in mus],
        "q": _scalar_json(q),
    }


def _cmd_compute(cfg: RunConfig) -> tuple[int, dict]:
    lams, mus, q = _resolve_params(cfg)
    pv = partition.compute_partition(lams, mus, q, cfg.method)
    doc = {
        "L": pv.size,
        "method": pv.method,
        "value": _scalar_json(pv.value),
        "params": _params_json(pv.lams, pv.mus, pv.q),
        "provenance": _provenance(cfg, None),
    }
    return 0, doc


def _cmd_enumerate(cfg: RunConfig) -> tuple[int, dict]:
    if cfg.count_only:
        doc = {
            "L": cfg.size,
            "count": partition.count_configs(cfg.size, cfg.mode),
            "provenance": _provenance(cfg, None),
        }
        return 0, doc
    lams, mus, q = _resolve_params(cfg)
    value = partition.z_enumerate(lams, mus, q, cfg.mode)
    doc = {
        "L": cfg.size,
        "method": f"enumerate-{cfg.mode}",
        "value": _scalar_json(value),
        "params": _params_json(lams, mus, q),
        "provenance": _provenance(cfg, None),
    }
    return 0, doc


def _cmd_solve(cfg: RunConfig) -> tuple[int, dict]:
    if cfg.backend == "exact":
        table = solver.solve_fz(cfg.size, cfg.normalize, "exact")
        body = table.to_json_obj()
    else:
        rng = make_rng(cfg.seed)
        result = solver.solve_fz(cfg.size, cfg.normalize, "float", rng=rng)
        body = result.to_json_obj()
    body["provenance"] = _provenance(cfg, None)
    return 0, body


def _cmd_ode(cfg: RunConfig) -> tuple[int, dict]:
    if cfg.size not in (1, 2):
        raise ConfigError("ode sizes are 1 and 2")
    res = solver.homogeneous_ode_residual(cfg.size)
    ok = res.is_zero()
    doc = {
        "size": cfg.size,
        "residual_zero": ok,
        "provenance": _provenance(cfg, None),
    }
    return (0 if ok else 1), doc


def _sym_points(count: int, start: int = 1):
    return [LaurentPoly.var(u_var(start + i)) for i in range(count)]


def _sym_mus(L: int):
    return [LaurentPoly.var(w_var(i)) for i in range(1, L + 1)]


def _cmd_verify(cfg: RunConfig) -> tuple[int, dict]:
    outcomes = _run_check(cfg)
    doc = {
        "check": cfg.check,
        "L": cfg.size,
        "results": [o.to_json_obj() for o in outcomes],
        "passed": all(o.passed for o in outcomes),
        "provenance": _provenance(cfg, cfg.tolerance),
    }
    return (0 if doc["passed"] else 1), doc


def _run_check(cfg: RunConfig) -> list[CheckOutcome]:
    L = cfg.size
    check = cfg.check
    exact = cfg.backend == "exact"
    rng = make_rng(cfg.seed)
    qsym = LaurentPoly.var(q_var())
    # each check keeps its own default tolerance unless one is given
    tol = {} if cfg.tolerance is None else {"tolerance": cfg.tolerance}
    out: list[CheckOutcome] = []

    if check == "yb":
        if exact:
            pts = _sym_points(3)
            out.append(vertex.check_yang_baxter(pts[0], pts[1], pts[2], qsym))
        else:
            for _ in range(cfg.trials):
                pts = sample_spectral_set(rng, 3)
                out.append(vertex.check_yang_baxter(
                    pts[0], pts[1], pts[2], sample_point(rng), **tol))
    elif check == "rtt":
        if exact:
            if L > 2:
                raise ConfigError("exact rtt materializes symbols; use --size <= 2")
            pts = _sym_points(2, start=90)
            out.append(monodromy.check_rtt(pts[0], pts[1], _sym_mus(L), qsym))
        else:
            for _ in range(cfg.trials):
                pts = sample_spectral_set(rng, 2)
                mus = sample_spectral_set(rng, L)
                out.append(monodromy.check_rtt(
                    pts[0], pts[1], mus, sample_point(rng),
                    rng=rng, **tol))
    elif check == "comm":
        rules = ("AB", "DB", "CB", "BB")
        if exact:
            if L > 2:
                raise ConfigError("exact comm materializes symbols; use --size <= 2")
            pts = _sym_points(2, start=90)
            for rule in rules:
                out.append(monodromy.check_commutation(rule, pts[0], pts[1], _sym_mus(L), qsym))
        else:
            for rule in rules:
                for _ in range(cfg.trials):
                    pts = sample_spectral_set(rng, 2)
                    mus = sample_spectral_set(rng, L)
                    out.append(monodromy.check_commutation(
                        rule, pts[0], pts[1], mus, sample_point(rng), **tol))
    elif check == "triangular":
        if exact:
            out.append(monodromy.check_triangular(
                LaurentPoly.var(u_var(99)), _sym_mus(L), qsym))
        else:
            for _ in range(cfg.trials):
                pts = sample_spectral_set(rng, 1)
                mus = sample_spectral_set(rng, L)
                out.append(monodromy.check_triangular(
                    pts[0], mus, sample_point(rng), **tol))
    elif check == "cbb":
        n = cfg.operators if cfg.operators is not None else L
        if exact:
            pts = tuple(_sym_points(n + 1, start=70))
            out.append(functional.check_cbb_expansion(n, pts, _sym_mus(L), qsym))
        else:
            for _ in range(cfg.trials):
                pts = tuple(sample_spectral_set(rng, n + 1))
                mus = tuple(sample_spectral_set(rng, L))
                out.append(functional.check_cbb_expansion(
                    n, pts, mus, sample_point(rng), **tol))
    elif check == "z0":
        if exact:
            out.append(functional.check_b_nilpotency(
                L, _sym_points(L + 1, start=80), _sym_mus(L), qsym))
        else:
            for _ in range(cfg.trials):
                lams = sample_spectral_set(rng, L + 1)
                mus = sample_spectral_set(rng, L)
                out.append(functional.check_b_nilpotency(
                    L, lams, mus, sample_point(rng), **tol))
    elif check == "fz":
        if exact:
            pts = tuple(_sym_points(L + 2, start=60))
            if L <= 2:
                mus = tuple(_sym_mus(L))
            elif L == 3:
                # rational inhomogeneities keep the L=3 identity exact at
                # desk-scale cost; the lambdas and q stay fully symbolic
                mus = tuple(LaurentPoly.rational(v) for v in (2, 3, 5))
            else:
                raise ConfigError("exact fz supports --size <= 3")
            inp = functional.FunctionalInput(L, pts, mus, qsym)
            out.append(functional.check_fz(inp))
        else:
            for trial in range(cfg.trials):
                inp = functional.FunctionalInput.sample(L, rng)
                o = functional.check_fz(inp, **tol)
                o.details = {
                    "trial": trial,
                    "points": [_scalar_json(p) for p in inp.points],
                    "mus": [_scalar_json(m) for m in inp.mus],
                    "q": _scalar_json(inp.q),
                }
                out.append(o)
    elif check == "appendix-a":
        out.extend(asymptotics.run_asymptotic_checks(L))
    elif check == "h-table":
        if cfg.size != 3:
            raise ConfigError("the reference coefficient table is for --size 3")
        table = solver.solve_fz(3, "asymptotic", "exact") if cfg.source == "solver" \
            else solver.h_table_from_z(3)
        report = solver.verify_h_table(table)
        out.append(CheckOutcome("h-table", report.ok, exact=True,
                                details=report.to_json_obj()))
    else:
        raise ConfigError(f"unknown check {check!r}")
    return out


def run(cfg: RunConfig) -> tuple[int, dict]:
    """Dispatch a validated configuration; returns (exit code, document)."""
    handlers = {
        "compute": _cmd_compute,
        "verify": _cmd_verify,
        "solve": _cmd_solve,
        "enumerate": _cmd_enumerate,
        "ode": _cmd_ode,
    }
    if cfg.command not in handlers:
        raise ConfigError(f"unknown command {cfg.command!r}")
    if cfg.tolerance is not None and not cfg.tolerance >= 0:
        raise ConfigError(f"--tolerance must be a non-negative number, got {cfg.tolerance}")
    for flag, value, least in (("size", cfg.size, 1), ("trials", cfg.trials, 1),
                               ("operators", cfg.operators, 0)):
        if value is not None and value < least:
            raise ConfigError(f"--{flag} must be at least {least}, got {value}")
    return handlers[cfg.command](cfg)


def main(argv=None) -> int:
    try:
        cfg = _parse_args(sys.argv[1:] if argv is None else argv)
        code, doc = run(cfg)
    except SystemExit as exc:  # --help prints and exits 0
        return int(exc.code or 0)
    except ConfigError as exc:
        print(json.dumps({"error": str(exc), "kind": "config"}, sort_keys=True))
        return 2
    except SixVertexError as exc:
        print(json.dumps({"error": str(exc), "kind": type(exc).__name__},
                         sort_keys=True))
        return 1
    text = json.dumps(doc, indent=2, sort_keys=True)
    print(text)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
