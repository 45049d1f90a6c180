"""Per-layer tracing for the benchmark's traced run.

Wrappers are installed around ``sixvertex`` functions by module attribute,
from these files only; the package itself is not changed.  A wrapper
replaces the function in every ``sixvertex`` module namespace that holds
it, so names bound by ``from .x import f`` are traced too.

Coarse layers (vertex, monodromy, partition, functional, asymptotics,
solver, cli) record a span per call: name, start, end, parent span and task
id, kept in memory and written out when the run ends.  The scalar operators
run hundreds of thousands of times per task, so they are counted and timed
in aggregate instead of spanned; their time still counts as child time of
the enclosing span.  A call made inside an open call of the same hook
(``__sub__`` calling ``__add__``, ``build_L`` calling ``weights_of``) is part
of the outer operation and is not counted again.

A hook whose target no longer exists reports its metrics as null with the
names of the missing targets; the run carries on.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from dataclasses import dataclass

_S = "sixvertex."
LAYERS = ("scalar", "vertex", "monodromy", "partition", "functional", "asymptotics",
          "solver", "cli")
# unit of each statistic a hook can report; all but "max" are per-task means
_UNITS = {"calls": "count/task", "s": "s/task", "self_s": "s/task", "count": "count/task",
          "max": "ratio"}


@dataclass(frozen=True)
class Hook:
    """Calls to ``targets`` ("module:attr" or "module:Class.attr") are
    recorded together under ``key``.  ``metrics`` maps each reported metric
    name to its statistic: "calls", "s" (inclusive time), "self_s" (minus
    child calls), or "count"/"max" of values that ``observe`` derives from a
    call's arguments and result."""

    key: str
    targets: tuple
    metrics: tuple
    span: bool = True
    observe: object = None

    @property
    def layer(self) -> str:
        return self.key.split(".")[0]


def _mul_pairs(args, result):
    a, b = args
    return a.num_terms() * (b.num_terms() if hasattr(b, "num_terms") else 1)


def _targets(module: str, *names: str) -> tuple:
    return tuple(f"{_S}{module}:{n}" for n in names)


HOOKS = (
    Hook("scalar.mul", _targets("scalar", "LaurentPoly.__mul__", "LaurentPoly.__rmul__"),
         (("scalar.mul_calls", "calls"), ("scalar.mul_s", "s"),
          ("scalar.mul_term_pairs", "count")), span=False, observe=_mul_pairs),
    Hook("scalar.add", _targets("scalar", "LaurentPoly.__add__", "LaurentPoly.__radd__"),
         (("scalar.add_calls", "calls"), ("scalar.add_s", "s")), span=False),
    Hook("scalar.rational", _targets("scalar", *(f"RationalFunction.{op}" for op in (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__", "__neg__", "reduced"))),
         (("scalar.rational_calls", "calls"), ("scalar.rational_s", "s")), span=False),
    Hook("vertex", _targets("vertex", "build_L", "build_R", "weights_of"),
         (("vertex.calls", "calls"), ("vertex.s", "s"))),
    Hook("monodromy.build", _targets("monodromy", "build_monodromy"),
         (("monodromy.build_calls", "calls"), ("monodromy.build_s", "s"),
          ("monodromy.dense_builds", "count")),
         observe=lambda args, result: result.representation == "dense"),
    Hook("monodromy.apply", _targets("monodromy", "apply_block"),
         (("monodromy.apply_calls", "calls"), ("monodromy.apply_s", "s"))),
    Hook("partition.z_algebraic", _targets("partition", "z_algebraic"),
         (("partition.z_algebraic_calls", "calls"),
          ("partition.z_algebraic_self_s", "self_s"))),
    Hook("partition.z_enumerate", _targets("partition", "z_enumerate"),
         (("partition.z_enumerate_calls", "calls"),
          ("partition.z_enumerate_self_s", "self_s"))),
    # one _config_weight call per configuration summed
    Hook("partition.configs", _targets("partition", "_config_weight"),
         (("partition.configs", "calls"),), span=False),
    Hook("functional.residual", _targets("functional", "functional_residual", "check_fz"),
         (("functional.residual_calls", "calls"), ("functional.residual_self_s", "self_s"))),
    Hook("functional.provider", _targets("functional", "_call_provider"),
         (("functional.provider_calls", "calls"),)),
    Hook("functional.coeff", _targets("functional", "omission_coeff", "substitution_coeff",
                                      "_omission_parts", "_substitution_parts"),
         (("functional.coeff_calls", "calls"), ("functional.coeff_s", "s"))),
    Hook("asymptotics", _targets("asymptotics", "asymptotic_norm", "q_factorial", "f_top",
                                 "p_operator"),
         (("asymptotics.calls", "calls"), ("asymptotics.s", "s"))),
    Hook("solver.assemble", _targets("solver", "_assemble_constraints"),
         (("solver.assemble_s", "s"), ("solver.rows", "count")),
         observe=lambda args, result: len(result[0])),
    Hook("solver.select", _targets("solver", "_select_independent_rows"),
         (("solver.select_s", "s"), ("solver.rank", "count")),
         observe=lambda args, result: result[1]),
    Hook("solver.eliminate", _targets("solver", "_exact_nullvector"),
         (("solver.eliminate_s", "s"),)),
    Hook("solver.verify", _targets("solver", "_verify_candidate"), (("solver.verify_s", "s"),)),
    Hook("solver.numeric_rows", _targets("solver", "_numeric_rows"),
         (("solver.numeric_rows_s", "s"),)),
    Hook("solver.nullvector", _targets("solver", "_nullvector_from_rows"),
         (("solver.nullvector_s", "s"), ("solver.singular_gap_max", "max")),
         observe=lambda args, result: result[1]),
    Hook("cli", _targets("cli", "main"), (("cli.calls", "calls"), ("cli.self_s", "self_s"))),
)
ERROR_TARGET = "sixvertex.errors:SixVertexError"


def _resolve(target: str):
    """(owner, attribute, current value), or None if the target is missing."""
    mod_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


class _Stat:
    """Running totals of one hook over the traced tasks."""

    __slots__ = ("calls", "s", "self_s", "count", "max")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.count = 0
        self.max = 0.0


class Tracer:
    """Spans and per-hook totals of one traced run."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans: list[list] = []  # [name, start, end, parent span index, task]
        self.task = None
        self.missing: dict[str, list[str]] = {}
        self._stats = {hook.key: _Stat() for hook in hooks}
        self._stack: list[list] = []  # open calls: [span index or -1, child seconds]
        self._open: set[str] = set()
        self._errors: dict[str, list] = {layer: [] for layer in LAYERS}
        self._error_type = None
        self._plan = None  # (owner, attribute, original, wrapper) per patch
        self.tasks = 0

    def install(self) -> None:
        """Wrap every hook target that exists; remember the missing ones.

        Each call starts one traced task; the wrappers are built once."""
        self.tasks += 1
        if self._plan is None:
            self._plan = self._make_plan()
        for owner, attr, _, wrapper in self._plan:
            setattr(owner, attr, wrapper)

    def _make_plan(self) -> list[tuple]:
        found = _resolve(ERROR_TARGET)
        self._error_type = found[2] if found else None
        modules = [m for n, m in list(sys.modules.items())
                   if n == "sixvertex" or n.startswith(_S)]
        plan = []
        for hook in self.hooks:
            for target in hook.targets:
                found = _resolve(target)
                if found is None:
                    self.missing.setdefault(hook.key, []).append(target)
                    continue
                owner, attr, original = found
                wrapper = self._wrap(hook, original)
                if isinstance(owner, type):
                    plan.append((owner, attr, original, wrapper))
                    continue
                plan.extend((mod, name, original, wrapper)
                            for mod in modules
                            for name, value in vars(mod).items() if value is original)
        return plan

    def uninstall(self) -> None:
        """Put every wrapped function back; untraced tasks run no wrapper."""
        for owner, attr, original, _ in reversed(self._plan or ()):
            setattr(owner, attr, original)

    def _wrap(self, hook: Hook, original):
        tracer = self
        key, layer, span, observe = hook.key, hook.layer, hook.span, hook.observe
        stat = self._stats[key]
        stack, open_keys, spans = self._stack, self._open, self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if key in open_keys:
                return original(*args, **kwargs)
            open_keys.add(key)
            parent = stack[-1][0] if stack else -1
            # an unspanned call passes its parent span on to spans inside it
            frame = [len(spans) if span else parent, 0.0]
            if span:
                spans.append([key, 0.0, 0.0, parent, tracer.task])
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                tracer._record_error(layer, exc)
                raise
            finally:
                dur = clock() - start
                stack.pop()
                open_keys.discard(key)
                if stack:
                    stack[-1][1] += dur
                if span:
                    spans[frame[0]][1] = start
                    spans[frame[0]][2] = start + dur
            if result is NotImplemented:
                return result
            stat.calls += 1
            stat.s += dur
            stat.self_s += dur - frame[1]
            if observe is not None:
                value = observe(args, result)
                stat.count += value
                stat.max = max(stat.max, value)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _record_error(self, layer: str, exc: Exception) -> None:
        if self._error_type is None or not isinstance(exc, self._error_type):
            return
        seen = self._errors[layer]
        if not any(e is exc for e in seen):
            seen.append(exc)

    def metrics(self, time_scale: float = 1.0) -> dict[str, dict]:
        """Per-layer metrics: per-task means over the traced tasks, with
        times multiplied by ``time_scale``."""
        per = max(self.tasks, 1)
        out = {}
        for hook in self.hooks:
            gone = self.missing.get(hook.key)
            stat = self._stats[hook.key]
            for name, which in hook.metrics:
                value = getattr(stat, which)
                if which != "max":
                    value /= per
                if which in ("s", "self_s"):
                    value *= time_scale
                out[name] = metric(None if gone else value, _UNITS[which], gone)
        for layer in LAYERS:
            if self._error_type is None:
                out[f"{layer}.errors"] = metric(None, "count/task", [ERROR_TARGET])
            else:
                out[f"{layer}.errors"] = metric(len(self._errors[layer]) / per, "count/task")
        return out

    def write_spans(self, path) -> int:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, task in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "task": task}) + "\n")
        return len(self.spans)


def metric(value, unit: str, missing=None) -> dict:
    out = {"value": value, "unit": unit}
    if missing:
        out["missing"] = list(missing)
    return out
