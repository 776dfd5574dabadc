"""Span recorder for the traced run.

Wraps named ``ptsep`` functions (``"<module>.<function>"``, or
``"<module>.<Class>"`` for a constructor) so that every call leaves a span
(name, start, end, parent, instance) in flat in-memory arrays.  Every module
attribute of the package that is bound to the same function object is
patched, so calls through ``from .automata import ...`` aliases are seen.
Per-layer statistics are derived from the spans afterwards; nothing inside
the package is changed.
"""
from __future__ import annotations

import sys
import time
from array import array


class Recorder:
    def __init__(self, names):
        self.names = list(names)
        self._patches = []
        self.name_id = array("i")
        self.parent = array("i")
        self.instance_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.states = array("q")
        self._stack = [-1]
        self.instance = -1

    # -- installing -------------------------------------------------------

    def install(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "ptsep" or key.startswith("ptsep."))]
        for nid, name in enumerate(self.names):
            module_name, attr = name.split(".")
            owner = sys.modules.get(f"ptsep.{module_name}")
            target = getattr(owner, attr, None)
            if target is None:
                continue  # a layer function that no longer exists reports 0 calls
            if isinstance(target, type):
                self._patch(target, "__init__", self._wrap(target.__init__, nid))
                continue
            wrapper = self._wrap(target, nid)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is target:
                        self._patch(module, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _wrap(self, fn, nid):
        name_id, parent, instance_id = self.name_id, self.parent, self.instance_id
        start, end, states, stack = self.start, self.end, self.states, self._stack
        clock = time.perf_counter
        recorder = self

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            instance_id.append(recorder.instance)
            states.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            states[idx] = getattr(result, "state_count", 0)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- reading ----------------------------------------------------------

    def span_count(self) -> int:
        return len(self.name_id)

    def stats(self, first: int = 0, last: int | None = None) -> dict:
        """{name: {"calls", "self_s", "states_out"}} over spans [first, last).
        Self time is a span's duration minus the durations of its direct
        children; calls are synchronous, so children never overlap."""
        last = self.span_count() if last is None else last
        child = [0.0] * (last - first)
        for i in range(first, last):
            p = self.parent[i]
            if p >= first:
                child[p - first] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "self_s": 0.0, "states_out": 0} for name in self.names}
        for i in range(first, last):
            row = out[self.names[self.name_id[i]]]
            row["calls"] += 1
            row["self_s"] += self.end[i] - self.start[i] - child[i - first]
            row["states_out"] += self.states[i]
        return out

    def write(self, path):
        """Every span as one CSV row, times relative to the first span."""
        t0 = self.start[0] if self.span_count() else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span,name,start_s,end_s,parent,instance,states_out\n")
            for i in range(self.span_count()):
                handle.write(
                    f"{i},{self.names[self.name_id[i]]},{self.start[i] - t0:.9f},"
                    f"{self.end[i] - t0:.9f},{self.parent[i]},{self.instance_id[i]},"
                    f"{self.states[i]}\n")
