"""Command-line interface: compute, verify, solve, enumerate, ode.

Every run prints one UTF-8 JSON document to stdout (and optionally to
--out).  Identical configurations produce identical output: all randomness
flows from --seed through a single named PRNG, and exact-backend values
serialize in canonical term order.  Exit codes: 0 all checks passed,
1 at least one check failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import sys
from dataclasses import dataclass, field

from . import asymptotics, functional, monodromy, partition, solver, vertex
from .errors import ConfigError, ExponentOverflow, SixVertexError, SizeLimitExceeded
from .sampling import PRNG_NAME, make_rng, sample_spectral_set
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
    for name in ("check", "method", "mode", "normalize", "operators", "source", "q",
                 "count_only"):
        if hasattr(ns, name):
            setattr(cfg, name, getattr(ns, name))
    if hasattr(ns, "lam"):
        # copies: without --lam, argparse hands over the shared parser's default list
        cfg.lams = list(ns.lam)
        cfg.mus = list(ns.mu)
    return cfg


def _parse_scalar(text: str, backend: str):
    """A given parameter.  Every weight inverts its argument, so it must be
    a nonzero monomial (exact) or a nonzero finite complex number (float)."""
    exact = backend == "exact"
    try:
        x = parse_poly(text) if exact else complex(text)
    except (ValueError, ZeroDivisionError, ExponentOverflow) as exc:
        kind = "monomial expression" if exact else "complex literal"
        raise ConfigError(f"bad {kind} {text!r}") from exc
    if not (x.is_monomial() if exact else x != 0 and cmath.isfinite(x)):
        want = "a nonzero monomial" if exact else "a nonzero finite complex number"
        raise ConfigError(f"parameter {text!r} is not {want}")
    return x


def _scalar_json(x):
    if isinstance(x, LaurentPoly):
        text, terms = x.text_and_json_terms()
        return {"type": "exact", "text": text, "terms": terms}
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


def _draw(texts, names, cfg: RunConfig, rng) -> list:
    """The given texts, or the symbols ``names`` (exact), or a pole-guarded
    sample of len(names) points (float; one point is one ``sample_point``)."""
    if texts:
        return [_parse_scalar(t, cfg.backend) for t in texts]
    if cfg.backend == "exact":
        return [LaurentPoly.var(v) for v in names]
    return sample_spectral_set(rng, len(names))


def _runs(cfg: RunConfig, rng, points: int, mus: int):
    """(points, mus, q) of each run: one symbolic set u1.., w1.., q in the
    exact backend; --trials seeded sets in the float backend, each drawn as
    the points, then the mus, then q.  --lam, --mu and --q replace their
    draw."""
    for _ in range(1 if cfg.backend == "exact" else cfg.trials):
        lams = _draw(cfg.lams, [u_var(i) for i in range(1, points + 1)], cfg, rng)
        ws = _draw(cfg.mus, [w_var(i) for i in range(1, mus + 1)], cfg, rng)
        (q,) = _draw([cfg.q] if cfg.q else [], [q_var()], cfg, rng)
        if len(lams) != points or len(ws) != mus:
            raise ConfigError("parameter counts must match --size")
        yield lams, ws, q


def _cmd_compute(cfg: RunConfig) -> tuple[int, dict]:
    """compute, and enumerate (the configuration sum as a compute method)."""
    if cfg.count_only:
        doc = {
            "L": cfg.size,
            "count": partition.count_configs(cfg.size, cfg.mode),
            "provenance": _provenance(cfg, None),
        }
        return 0, doc
    method = f"enumerate-{cfg.mode}" if cfg.command == "enumerate" else cfg.method
    lams, mus, q = next(_runs(cfg, make_rng(cfg.seed), cfg.size, cfg.size))
    if method == "algebraic":
        value = partition.z_algebraic(lams, mus, q)
    else:
        value = partition.z_enumerate(lams, mus, q, method.removeprefix("enumerate-"))
    doc = {
        "L": cfg.size,
        "method": method,
        "value": _scalar_json(value),
        "params": {
            "lambdas": [_scalar_json(x) for x in lams],
            "mus": [_scalar_json(x) for x in mus],
            "q": _scalar_json(q),
        },
        "provenance": _provenance(cfg, None),
    }
    return 0, doc


def _cmd_solve(cfg: RunConfig) -> tuple[int, dict]:
    result = solver.solve_fz(cfg.size, cfg.normalize, cfg.backend, rng=make_rng(cfg.seed))
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


# exact checks whose symbolic cost outgrows the desk: largest size, message
_EXACT_LIMITS = {
    "rtt": (2, "exact rtt materializes symbols; use --size <= 2"),
    "comm": (2, "exact comm materializes symbols; use --size <= 2"),
    "fz": (3, "exact fz supports --size <= 3"),
}
# runs with no float route: --backend float is refused, not ignored
_EXACT_ONLY = ("ode", "verify --check appendix-a", "verify --check h-table")


def _sampled_checks(cfg: RunConfig, rng, tol: dict) -> dict:
    """Each check that runs on drawn parameters, as a list of (point count,
    mu count, call on one run's points, mus and q); comm has one entry per
    rule, each with its own stream of runs.  rtt above L = 4 draws its probe
    columns from rng inside the call."""
    L = cfg.size
    n = cfg.operators if cfg.operators is not None else L

    def fz(pts, mus, q):
        if cfg.backend == "exact" and L == 3:
            # rational inhomogeneities keep the L=3 identity exact at
            # desk-scale cost; the lambdas and q stay fully symbolic
            mus = [LaurentPoly.rational(v) for v in (2, 3, 5)]
        return functional.check_fz(functional.FunctionalInput(L, tuple(pts), tuple(mus), q),
                                   **tol)

    return {
        "yb": [(3, 0, lambda p, m, q: vertex.check_yang_baxter(*p, q, **tol))],
        "rtt": [(2, L, lambda p, m, q: monodromy.check_rtt(*p, m, q, rng=rng, **tol))],
        "comm": [(2, L, lambda p, m, q, rule=rule:
                  monodromy.check_commutation(rule, *p, m, q, **tol))
                 for rule in ("AB", "DB", "CB", "BB")],
        "triangular": [(1, L, lambda p, m, q: monodromy.check_triangular(*p, m, q, **tol))],
        "cbb": [(n + 1, L, lambda p, m, q:
                 functional.check_cbb_expansion(n, tuple(p), tuple(m), q, **tol))],
        "z0": [(L + 1, L, lambda p, m, q: functional.check_b_nilpotency(L, p, m, q, **tol))],
        "fz": [(L + 2, L, fz)],
    }


def _run_check(cfg: RunConfig) -> list[CheckOutcome]:
    L = cfg.size
    check = cfg.check
    exact = cfg.backend == "exact"
    rng = make_rng(cfg.seed)
    # each check keeps its own default tolerance unless one is given
    tol = {} if cfg.tolerance is None else {"tolerance": cfg.tolerance}
    limit, message = _EXACT_LIMITS.get(check, (L, ""))
    if exact and L > limit:
        raise ConfigError(message)
    if check == "appendix-a":
        return asymptotics.run_asymptotic_checks(L)
    if check == "h-table":
        if L != 3:
            raise ConfigError("the reference coefficient table is for --size 3")
        table = solver.solve_fz(3, "asymptotic", "exact") if cfg.source == "solver" \
            else solver.h_table_from_z(3)
        return [solver.verify_h_table(table)]
    sampled = _sampled_checks(cfg, rng, tol)
    if check not in sampled:
        raise ConfigError(f"unknown check {check!r}")
    out: list[CheckOutcome] = []
    for points, mus, call in sampled[check]:
        for trial, (pts, ws, q) in enumerate(_runs(cfg, rng, points, mus)):
            o = call(pts, ws, q)
            if not exact:
                # a float trial's rerun context: the check called on these
                # parameters gives the same residual and scale
                o.details.update(trial=trial, points=[_scalar_json(p) for p in pts],
                                 mus=[_scalar_json(m) for m in ws], q=_scalar_json(q))
            out.append(o)
    return out


def run(cfg: RunConfig) -> tuple[int, dict]:
    """Dispatch a validated configuration; returns (exit code, document)."""
    handlers = {
        "compute": _cmd_compute,
        "verify": _cmd_verify,
        "solve": _cmd_solve,
        "enumerate": _cmd_compute,
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
    for flag, given, owner in (("--operators", cfg.operators is not None, "cbb"),
                               ("--source solver", cfg.source == "solver", "h-table")):
        if given and cfg.check != owner:
            raise ConfigError(f"{flag} applies to --check {owner} only")
    what = cfg.command + (f" --check {cfg.check}" if cfg.check else "")
    if cfg.backend == "float" and what in _EXACT_ONLY:
        raise ConfigError(f"{what} runs in the exact backend only; drop --backend float")
    return handlers[cfg.command](cfg)


def main(argv=None) -> int:
    try:
        cfg = _parse_args(sys.argv[1:] if argv is None else argv)
        code, doc = run(cfg)
        text = json.dumps(doc, indent=2, sort_keys=True)
        # --out first, so that a path that cannot be written leaves only
        # the config error document on stdout
        if cfg.out:
            try:
                with open(cfg.out, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
            except OSError as exc:
                raise ConfigError(f"cannot write --out {cfg.out!r}: {exc.strerror}") from exc
    except SystemExit as exc:  # --help prints and exits 0
        return int(exc.code or 0)
    except (ConfigError, SizeLimitExceeded) as exc:
        print(json.dumps({"error": str(exc), "kind": "config"}, sort_keys=True))
        return 2
    except SixVertexError as exc:
        print(json.dumps({"error": str(exc), "kind": type(exc).__name__},
                         sort_keys=True))
        return 1
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
