"""Per-layer tracing of the agebranch package from outside it.

Each traced public name is rebound, for the duration of a ``with Tracer()``
block, in every ``agebranch`` module that imported it, so calls made through
any import path are caught.  Coarse boundaries record spans (name, start,
end, parent, failed); hot leaves keep only counters (calls, busy time,
failures), because a logistic branch makes ~460k calls to each of them.
A name that no longer exists is recorded as missing and its metrics read
``None``; every rebinding is undone when the block exits.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass, field
from time import perf_counter

# (layer metric prefix, home module, attribute, kind); "Class.method" patches
# the class attribute.  Spans sit at boundaries called at most a few hundred
# times per run; leaves are the per-age-step and per-coefficient calls.
TARGETS = (
    ("model.eval_mu", "agebranch.model", "ModelSpec.eval_mu", "leaf"),
    ("model.eval_d", "agebranch.model", "ModelSpec.eval_d", "leaf"),
    ("model.eval_b", "agebranch.model", "ModelSpec.eval_b", "leaf"),
    ("operators.solve_banded", "agebranch.operators", "solve_banded", "leaf"),
    ("operators.evolve", "agebranch.operators", "evolve", "leaf"),
    ("operators.assemble_elliptic", "agebranch.operators", "assemble_elliptic", "leaf"),
    ("operators.birth_functional", "agebranch.operators", "birth_functional", "leaf"),
    ("operators.next_generation_operator", "agebranch.operators",
     "next_generation_operator", "span"),
    ("spectral.bifurcation_point", "agebranch.spectral", "bifurcation_point", "span"),
    ("spectral.perron_eigenpair", "agebranch.spectral", "perron_eigenpair", "span"),
    ("solver.continue_branch", "agebranch.solver", "continue_branch", "span"),
    ("solver.newton_correct", "agebranch.solver", "newton_correct", "span"),
    ("solver.jacobian", "agebranch.solver", "jacobian", "span"),
    ("solver.full_residual", "agebranch.solver", "full_residual", "span"),
    ("solver.branch_invariant_check", "agebranch.solver", "branch_invariant_check", "span"),
    ("validate.simulate_transient", "agebranch.validate", "simulate_transient", "span"),
    ("validate.kernel_dimension", "agebranch.validate", "kernel_dimension", "span"),
    ("cli.load_config", "agebranch.cli", "load_config", "span"),
    ("cli.write_branch_outputs", "agebranch.cli", "write_branch_outputs", "span"),
    ("cli.read_branch_outputs", "agebranch.cli", "read_branch_outputs", "span"),
)

# the result attribute summed into "<name>.iterations"
RESULT_COUNTS = {"spectral.perron_eigenpair": "iterations"}

# leaf calls whose end time is marked on an enclosing span of this name:
# simulate_transient calls birth_functional once per step, so the gaps
# between marks are the per-step times
STEP_MARKS = {"operators.birth_functional": "validate.simulate_transient"}


@dataclass
class Counter:
    calls: int = 0
    busy_s: float = 0.0
    failed: int = 0
    result_count: int = 0


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    failed: bool = False
    marks: list = field(default_factory=list)


class Tracer:
    """Installs wrappers on enter, restores the original names on exit."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.counters: dict[str, Counter] = {}
        self.missing: set[str] = set()
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for name, module, attr, kind in self.targets:
                self._install(name, module, attr, kind)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _install(self, name: str, module: str, attr: str, kind: str) -> None:
        try:
            home = importlib.import_module(module)
        except ImportError:
            self.missing.add(name)
            return
        if "." in attr:
            cls_name, meth = attr.split(".", 1)
            cls = getattr(home, cls_name, None)
            original = None if cls is None else cls.__dict__.get(meth)
            if original is None:
                self.missing.add(name)
                return
            owners = [(cls, meth)]
        else:
            original = getattr(home, attr, None)
            if original is None:
                self.missing.add(name)
                return
            owners = [(mod, attr) for mod_name, mod in list(sys.modules.items())
                      if mod is not None
                      and (mod_name == "agebranch" or mod_name.startswith("agebranch."))
                      and getattr(mod, attr, None) is original]
        self.counters[name] = Counter()
        wrapper = (self._span_wrapper if kind == "span" else self._leaf_wrapper)(name, original)
        for owner, owner_attr in owners:
            self._restore.append((owner, owner_attr, original))
            setattr(owner, owner_attr, wrapper)

    def _leaf_wrapper(self, name, fn):
        counter = self.counters[name]
        mark_span = STEP_MARKS.get(name)
        stack, spans = self._stack, self.spans

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                counter.failed += 1
                raise
            finally:
                t1 = perf_counter()
                counter.calls += 1
                counter.busy_s += t1 - t0
                if mark_span is not None and stack and spans[stack[-1]].name == mark_span:
                    spans[stack[-1]].marks.append(t1)

        return wrapper

    def _span_wrapper(self, name, fn):
        counter = self.counters[name]
        result_attr = RESULT_COUNTS.get(name)
        stack, spans = self._stack, self.spans

        def wrapper(*args, **kwargs):
            span = Span(name, perf_counter(), parent=stack[-1] if stack else None)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                counter.failed += 1
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                counter.calls += 1
                counter.busy_s += span.end - span.start
            if result_attr is not None:
                counter.result_count += int(getattr(result, result_attr, 0))
            return result

        return wrapper

    # -- reading ------------------------------------------------------------

    def snapshot(self) -> dict[str, tuple[int, float]]:
        """(calls, busy_s) of every installed name, for per-phase deltas."""
        return {name: (c.calls, c.busy_s) for name, c in self.counters.items()}

    def self_time(self, name: str) -> float | None:
        """Summed span time of ``name`` minus the time its direct child spans cover."""
        if name not in self.counters:
            return None
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        return sum(span.end - span.start - child_time[i]
                   for i, span in enumerate(self.spans) if span.name == name)

    def children(self, parent_name: str, child_name: str) -> list[Span]:
        """Direct ``child_name`` spans of every ``parent_name`` span, in call order."""
        parents = {i for i, s in enumerate(self.spans) if s.name == parent_name}
        return [s for s in self.spans if s.name == child_name and s.parent in parents]

    def step_times(self, name: str) -> list[float] | None:
        """Per-step durations inside ``name`` spans from the leaf marks."""
        marker = next((leaf for leaf, span in STEP_MARKS.items() if span == name), None)
        if name not in self.counters or marker not in self.counters:
            return None
        out = []
        for span in self.spans:
            if span.name != name or not span.marks:
                continue
            edges = [span.start] + span.marks[:-1] + [span.end]
            out.extend(b - a for a, b in zip(edges[:-1], edges[1:]))
        return out

    def spans_as_rows(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.failed] for s in self.spans]
