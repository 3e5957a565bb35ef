"""Span recording around the public functions of ``rotsys``.

The benchmark installs wrappers on the library's module attributes
and class methods, so the library itself carries no instrumentation.
Each call records a span (name, start, end, parent); self time is a
span's duration minus the durations of its children.  Counters are
kept apart from times: they count calls and work reported in the
results, and repeat exactly from run to run.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter


class Recorder:
    """Spans of one traced pass, held in flat arrays until aggregated."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.counters: Counter[str] = Counter()
        self.name = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("d")
        self.end = array("d")
        self.roots: list[str] = []  # group label of each root span
        self._stack: list[int] = []

    def open(self, name: str, group: str | None = None) -> int:
        """Begin a span; ``group`` labels a root span (a request)."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        stack = self._stack
        if stack:
            parent = stack[-1]
            root = self.root[parent]
        else:
            parent = -1
            root = len(self.roots)
            self.roots.append(group or name)
        self.name.append(nid)
        self.parent.append(parent)
        self.root.append(root)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def self_times(self) -> dict[tuple[str, str], float]:
        """Self time per (root group, span name), summed over spans."""
        n = len(self.name)
        child = [0.0] * n
        out: dict[tuple[str, str], float] = {}
        parent, start, end = self.parent, self.start, self.end
        for i in range(n - 1, -1, -1):  # children come after parents
            d = end[i] - start[i]
            p = parent[i]
            if p >= 0:
                child[p] += d
            key = (self.roots[self.root[i]], self.names[self.name[i]])
            out[key] = out.get(key, 0.0) + d - child[i]
        return out

    def root_wall(self) -> float:
        return sum(
            self.end[i] - self.start[i] for i in range(len(self.name)) if self.parent[i] < 0
        )


def _span(rec: Recorder, name: str, fn, count):
    def wrapper(*args, **kwargs):
        rec.counters[name + ".calls"] += 1
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if count is not None:
            count(rec.counters, args, result)
        return result

    return wrapper


def _generator_span(rec: Recorder, name: str, fn, count):
    """Generators run lazily, so time each step, not the call."""

    def wrapper(*args, **kwargs):
        rec.counters[name + ".calls"] += 1
        it = fn(*args, **kwargs)

        def steps():
            while True:
                idx = rec.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec.close(idx)
                if count is not None:
                    count(rec.counters, args, item)
                yield item

        return steps()

    return wrapper


class Instrumentation:
    """Wrappers over named library functions, installed wherever the
    original object is looked up: every ``rotsys`` module namespace that
    imported it and, for methods, the defining class."""

    def __init__(self, rec: Recorder, targets) -> None:
        self.rec = rec
        self.targets = targets
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "rotsys"]
        for where, attr, name, count, generator in self.targets:
            mod_name, _, cls_name = where.partition(":")
            owner = sys.modules[mod_name]
            if cls_name:
                owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
            make = _generator_span if generator else _span
            wrapper = make(self.rec, name, original, count)
            holders = [owner] if cls_name else [
                m for m in modules if m.__dict__.get(attr) is original
            ]
            for holder in holders:
                self._undo.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()
