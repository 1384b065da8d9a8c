"""Span tracing of the gibbscache package from outside the package.

The tracer replaces each public function and method of the package's
modules with a wrapper that records a span (name, start, end, parent, run
id) and per-name counters in memory.  Patching is done by object identity
in every module namespace, so a function that another module imported by
name (``gibbs`` imports ``hit_rate`` from ``model``) is traced there too.
Removing the tracer restores every original binding.

Per-name aggregates (calls, inclusive time, self time) cover every call;
the span log itself keeps only the first ``SPAN_CAP`` spans so that a run
with millions of sampler steps stays small in memory.

Class and static methods are wrapped inside a descriptor of the same kind;
properties and other descriptors are not traced.
"""

from __future__ import annotations

import inspect
import json
from array import array
from collections import Counter
from time import perf_counter_ns

# Layers of the package, by module name; the CLI is not a layer.
LAYER_MODULES = (
    "config",
    "geometry",
    "engine",
    "sim",
    "realcache",
    "traffic",
    "gibbs",
    "model",
    "oracle",
)

# Constructors whose cost is a layer's own work.
TRACED_INITS = {("engine", "FastCore")}

# Functions whose result length is counted (work items per call).
RESULT_LENGTHS = {"engine.FastCore.candidate_energies"}

# Spans kept in the log; aggregates cover every call.
SPAN_CAP = 20_000


class Stat:
    __slots__ = ("calls", "total_ns", "self_ns", "items", "durations")

    def __init__(self, keep_durations: bool):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.items = 0
        self.durations = array("q") if keep_durations else None


class Tracer:
    """Records spans of the wrapped package while installed."""

    def __init__(self, package, keep_durations=()):
        self.package = package
        self.keep_durations = set(keep_durations)
        self.stats: dict[str, Stat] = {}
        self.edges: Counter = Counter()  # (parent name or None, name) -> inclusive ns
        self.spans: list[tuple] = []
        self.n_spans = 0
        self.run_id = 0
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        stats = self.stats
        stack = self._stack
        count_items = name in RESULT_LENGTHS
        if name not in stats:
            stats[name] = Stat(name in self.keep_durations)
        stat = stats[name]

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = self.n_spans
            self.n_spans += 1
            frame = [name, span_id, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dt = t1 - t0
                stat.calls += 1
                stat.total_ns += dt
                stat.self_ns += dt - frame[2]
                if stat.durations is not None:
                    stat.durations.append(dt)
                if parent is not None:
                    parent[2] += dt
                self.edges[(parent[0] if parent else None, name)] += dt
                if len(self.spans) < SPAN_CAP:
                    self.spans.append(
                        (name, t0, t1, parent[1] if parent else None, self.run_id, span_id)
                    )
            if count_items:
                stat.items += len(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    # -- installation ------------------------------------------------------

    def _targets(self):
        """(span name, owner, attribute, original) for every traced callable."""
        for short in LAYER_MODULES:
            mod = getattr(self.package, short)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    yield f"{short}.{attr}", mod, attr, obj
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mattr, mobj in list(vars(obj).items()):
                        public = not mattr.startswith("_") or (
                            mattr == "__init__" and (short, obj.__name__) in TRACED_INITS
                        )
                        if public and (
                            inspect.isfunction(mobj) or isinstance(mobj, (classmethod, staticmethod))
                        ):
                            yield f"{short}.{obj.__name__}.{mattr}", obj, mattr, mobj

    def install(self) -> None:
        """Wrap every public function and method; idempotent."""
        if self._undo:
            return
        namespaces = [self.package] + [getattr(self.package, m) for m in LAYER_MODULES]
        for name, owner, attr, original in list(self._targets()):
            if isinstance(original, (classmethod, staticmethod)):
                # Wrap the function inside a descriptor of the same kind.
                wrapper = type(original)(self._wrap(name, original.__func__))
            else:
                wrapper = self._wrap(name, original)
            self._set(owner, attr, wrapper)
            if inspect.isclass(owner):
                continue
            # Every other module-level binding of the same function object.
            for ns in namespaces:
                for other, value in list(vars(ns).items()):
                    if value is original and not (ns is owner and other == attr):
                        self._set(ns, other, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        """Restore every binding the tracer replaced."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def stat(self, name: str) -> Stat:
        return self.stats.get(name) or Stat(False)

    def write(self, path) -> None:
        """Write per-name aggregates, parent-child totals (parent None for
        root spans) and the (capped) span log as JSON lines."""
        with open(path, "w") as fh:
            for name, s in sorted(self.stats.items()):
                if s.calls:
                    fh.write(
                        json.dumps(
                            {
                                "kind": "stat",
                                "name": name,
                                "calls": s.calls,
                                "total_s": s.total_ns / 1e9,
                                "self_s": s.self_ns / 1e9,
                            }
                        )
                        + "\n"
                    )
            for (parent, name), ns in sorted(self.edges.items(), key=str):
                fh.write(
                    json.dumps({"kind": "edge", "parent": parent, "name": name, "total_s": ns / 1e9})
                    + "\n"
                )
            for name, t0, t1, parent, run_id, span_id in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "kind": "span",
                            "id": span_id,
                            "name": name,
                            "start_ns": t0,
                            "end_ns": t1,
                            "parent": parent,
                            "run": run_id,
                        }
                    )
                    + "\n"
                )
