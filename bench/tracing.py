"""
Span tracing around homquery's public functions, for the traced run.

The tracer replaces each listed function at every module attribute of the
``homquery`` package that binds it (``homquery.algorithms.hom_count``
beside ``homquery.homs.hom_count``), so calls between modules are seen
too.  Spans (name, start, end, parent) are kept in memory; a layer's self
time is the time its spans cover minus the time their child spans cover.
``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter


def _maps(args, result) -> int:
    a, b = args[0], args[1]
    return b.domain_size ** a.domain_size


def _probes(args, result) -> int:
    return len(result.transcript)


def _returned(args, result) -> int:
    return result


def traced_functions():
    "(span name, function, work count from (args, result) or None)."
    from homquery import analysis, datalog, homs, oracle, query, registry, structures

    return [
        ("oracle.hom_count", oracle.oracle_hom_count, _maps),
        ("oracle.gamma", oracle.oracle_gamma, None),
        ("datalog.evaluate", datalog.evaluate, None),
        ("analysis.gamma", analysis.gamma, None),
        ("analysis.core", analysis.core, None),
        ("homs.formula", homs.hom_into_cycle_union_formula, None),
        ("homs.formula", homs.hom_into_nary_cycle_union_formula, None),
        ("homs.hom_count", homs.hom_count, _returned),
        ("homs.find_hom", homs.find_hom, None),
        ("query", query.run_adaptive, _probes),
        ("query", query.run_non_adaptive, _probes),
        ("registry.run_registered", registry.run_registered, None),
        ("structures.canonical_form", structures.canonical_form, None),
    ]


def patch_everywhere(replacements) -> list[tuple[object, str, object]]:
    """
    Bind each (original, replacement) pair's replacement at every homquery
    module attribute that holds the original; returns what unpatch needs.
    """
    by_id = {id(fn): (fn, new) for fn, new in replacements}
    patched = []
    for module_name, module in list(sys.modules.items()):
        if module_name != "homquery" and not module_name.startswith("homquery."):
            continue
        for attr, value in list(vars(module).items()):
            hit = by_id.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                patched.append((module, attr, value))
    return patched


def unpatch(patched):
    for module, attr, original in reversed(patched):
        setattr(module, attr, original)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index or -1]
        self.work: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _close(self, index: int):
        self._stack.pop()
        self.spans[index][2] = perf_counter()

    def call(self, name: str, fn, *args):
        "Run fn(*args) inside a span of the benchmark's own (an op)."
        index = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(index)

    def _wrap(self, name, fn, work):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if work is not None:
                self.work[name] += work(args, result)
            return result
        return wrapper

    def install(self):
        self._patched = patch_everywhere(
            [(fn, self._wrap(name, fn, work)) for name, fn, work in traced_functions()])

    def uninstall(self):
        unpatch(self._patched)
        self._patched = []

    def layers(self) -> dict[str, dict[str, float]]:
        "Per span name: calls, inclusive seconds and self seconds."
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _), inner in zip(self.spans, child_time):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - inner
        return out

    def write(self, path):
        "All spans as JSON: names once, then [name index, start, end, parent] rows."
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "spans": [[index[n], s, e, p] for n, s, e, p in self.spans]}, fh)
