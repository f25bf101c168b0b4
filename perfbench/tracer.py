"""In-memory call tracer for medialq's public functions.

``install`` wraps every public module-level function of the medialq modules,
and the public methods of ``FinitePoset`` and ``Matrix``, in each namespace
that imported them, so calls made through ``from .x import f`` are seen
too.  Each call adds to its function's call count and inclusive time and to
its module's self time (its duration minus the time of the wrapped calls it
made).  Calls of at least ``MIN_SPAN_S`` are also kept as spans (id, parent
id, name, start, end); shorter ones, such as the hundreds of thousands of
join/meet lookups behind one lattice report, are only counted, so the span
list stays small enough to keep in memory and write out at the end.
The private per-candidate steps of the two box scans are only counted
(``STEPS``), so the candidate counts are the candidates actually visited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("planar", "states", "bms", "lattice", "kauffman", "linalg", "reps",
           "corpus", "cli")
CLASSES = (("lattice", "FinitePoset"), ("linalg", "Matrix"))
MIN_SPAN_S = 1e-3


def _count_functions(counters, result):
    counters["states.functions_enumerated"] += len(result)


def _count_subobjects(counters, result):
    counters["bms.subobjects_kept"] += len(result)


def _count_subreps(counters, result):
    counters["reps.subreps_kept"] += len(result)


def _count_pairs(counters, result):
    counters["lattice.pairs_checked"] += getattr(result, "pairs_checked", 0)


# Counters read from the result of a successful call.
HOOKS = {
    "states.enumerate_compatible": _count_functions,
    "bms.plus_subobjects": _count_subobjects,
    "reps.enumerate_subreps": _count_subreps,
    "lattice.certify_graded_distributive_lattice": _count_pairs,
}


def _each_call(counters, name, fn):
    """``fn``, adding one to ``counters[name]`` per call."""
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        counters[name] += 1
        return fn(*args, **kwargs)
    return counted


def _each_family(counters, name, fn):
    """``fn(m, k, arrow)``, adding one to ``counters[name]`` per new ``k``.

    ``reps.enumerate_subreps`` tests each candidate prefix family ``k``
    against the arrows one call at a time, so a call whose ``k`` is not the
    object of the previous call starts a new candidate.  The previous ``k``
    is held, so its identity cannot be reused by the next one.
    """
    last = [None]

    @functools.wraps(fn)
    def counted(m, k, arrow):
        if k is not last[0]:
            last[0] = k
            counters[name] += 1
        return fn(m, k, arrow)
    return counted


# Private per-candidate steps of the scans, counted (not timed) so the
# candidate counts are what the scans visit.  A rewrite of a scan that no
# longer calls its step must name its new per-candidate step here.
STEPS = {
    ("bms", "_reconstruct_plus"): (_each_call, "bms.subobject_candidates"),
    ("reps", "_prefix_closed"): (_each_family, "reps.subrep_candidates"),
}


class Tracer:
    """Spans, per-function counts and times, and per-module self time."""

    def __init__(self):
        self.spans = []
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = Counter()
        self._stack = []
        self._next_id = 0

    def wrap(self, name, fn):
        module = name.split(".")[0]
        hook = HOOKS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.self_s[module] += duration - frame[1]
                self.calls[name] += 1
                self.total_s[name] += duration
                if duration >= MIN_SPAN_S:
                    self.spans.append((span_id, parent, name, start, end))
            if hook:
                hook(self.counters, result)
            return result

        return traced

    def summary(self):
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "total_s": dict(self.total_s), "counters": dict(self.counters),
                "spans": self.spans}

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.summary(), fh)


def install(tracer):
    """Replace medialq's public functions and methods with traced ones."""
    modules = {m: importlib.import_module(f"medialq.{m}") for m in MODULES}
    wrapped = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                wrapped[obj] = tracer.wrap(f"{short}.{attr}", obj)
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    for short, cls_name in CLASSES:
        cls = getattr(modules[short], cls_name)
        for attr, obj in list(vars(cls).items()):
            if inspect.isfunction(obj) and not attr.startswith("_"):
                setattr(cls, attr, tracer.wrap(f"{short}.{cls_name}.{attr}", obj))
    for (short, attr), (counter, name) in STEPS.items():
        mod = modules[short]
        setattr(mod, attr, counter(tracer.counters, name, getattr(mod, attr)))
