"""Spans around the calls the solver makes into each of its layers.

The tracer replaces module attributes of rp3color (the names that
pipeline, reducer and twosat look up when they call into a layer) with
wrappers that record one span per call, or per step of a returned
stream, and count what the call produced.  The program itself is not
edited; ``uninstall`` puts the original functions back.  A function the
program no longer has is listed in ``missing`` and left alone.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

Span = List  # [name, start, end, parent index or -1]


def _rounds(result) -> int:
    """Reduction rounds in a reduce_to_binary trace (singleton removals
    carry no step number)."""
    return sum(1 for step in result[1] if "step" in getattr(step, "info", {}))


def _vars(result) -> int:
    return result[0].nvars if result is not None else 0


def _clauses(result) -> int:
    return len(result[0].clauses) if result is not None else 0


# (module, attribute, span name, how: "call" | "stream" | "call+stream" |
# "count", counters: {counter: function of (args, result) that gives the
# amount to add, or None to add one per item the returned stream yields})
WRAPPED: Tuple[Tuple[str, str, Optional[str], str, Dict[str, Callable]], ...] = (
    ("pipeline", "anticomplete_packing", "graphs.scan", "call",
     {"graphs.scan_calls": lambda a, r: 1}),
    ("pipeline", "frugal_profile", "profiles.profile", "stream",
     {"profiles.elements": None}),
    ("pipeline", "eliminate_singletons", "profiles.singletons", "call",
     {"profiles.singleton_steps": lambda a, r: len(r[1])}),
    ("reducer", "eliminate_singletons", "profiles.singletons", "call",
     {"profiles.singleton_steps": lambda a, r: len(r[1])}),
    ("pipeline", "_earliest_good", "goodp3.detect", "call", {}),
    ("pipeline", "pivot_refinements", "goodp3.refine", "call+stream",
     {"goodp3.children": None}),
    ("pipeline", "reduce_to_binary", "reducer.reduce", "call",
     {"reducer.rounds": lambda a, r: _rounds(r)}),
    ("pipeline", "binary_list_color", "twosat.solve", "call", {}),
    ("twosat", "to_2sat", None, "count",
     {"twosat.vars": lambda a, r: _vars(r), "twosat.clauses": lambda a, r: _clauses(r)}),
    ("instances", "parse_instance", "instances.parse", "call", {}),
    ("pipeline", "coloring_defect", "instances.verify", "call",
     {"instances.verify_calls": lambda a, r: 1}),
    ("pipeline", "lift", "pipeline.lift", "call",
     {"pipeline.lift_steps": lambda a, r: len(a[0])}),
)


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self, package):
        self.package = package
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def install(self) -> None:
        self.missing = []
        for mod_name, attr, span, how, counters in WRAPPED:
            module = getattr(self.package, mod_name, None)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"rp3color.{mod_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span, how, counters))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def _wrap(self, original, span, how, counters):
        tracer = self
        calls = {k: f for k, f in counters.items() if f is not None}
        yields = [k for k, f in counters.items() if f is None]

        def count(args, result):
            for key, fn in calls.items():
                tracer.counts[key] += fn(args, result)

        if how == "count":
            def counted(*args, **kwargs):
                result = original(*args, **kwargs)
                count(args, result)
                return result
            return counted

        if how == "call":
            def called(*args, **kwargs):
                idx = tracer.open(span)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.close(idx)
                count(args, result)
                return result
            return called

        def streamed(*args, **kwargs):
            if how == "call+stream":
                idx = tracer.open(span)
                try:
                    stream = original(*args, **kwargs)
                finally:
                    tracer.close(idx)
            else:
                stream = original(*args, **kwargs)
            return tracer._steps(stream, span, yields)
        return streamed

    def _steps(self, stream, span: str, yields: List[str]) -> Iterator:
        """Re-yield ``stream``, one span per step it takes."""
        while True:
            idx = self.open(span)
            try:
                item = next(stream)
            except StopIteration:
                return
            finally:
                self.close(idx)
            for key in yields:
                self.counts[key] += 1
            yield item

    def self_times(self) -> Dict[str, float]:
        """Per span name: total duration minus time covered by children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out
