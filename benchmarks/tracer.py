"""In-memory span tracer for the traced benchmark run.

A span records a name, a start and end time from ``time.perf_counter`` and
the index of the span that was open when it began (its parent, -1 for a
root). Spans are kept in a list in entry order, so a parent always precedes
its children, and are written out once at the end of the run.

``install`` wraps library functions in every module namespace that binds
them, so a call made through any import of a function is recorded;
``uninstall`` puts the original objects back. The untraced run never creates
a tracer, so it executes the library unmodified.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, counter=None):
        """`fn` recording one span per call; `counter(args, result)` returns
        a dict of work counts added to ``self.counts``."""

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                for key, value in counter(args, result).items():
                    self.counts[key] += int(value)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str, targets: dict) -> None:
        """Wrap each ``targets[(module, function)] = counter`` in every loaded
        module of `package` whose namespace binds that function object."""
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == package or key.startswith(package + "."))
        ]
        for (module, function), counter in targets.items():
            original = getattr(sys.modules[f"{package}.{module}"], function)
            wrapper = self.wrap(f"{module}.{function}", original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part of it covered by its children."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out = []
        for idx, (name, start, end, parent) in enumerate(self.spans):
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(idx, ())):
                c_start, c_end = max(c_start, cursor, start), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out.append((end - start) - covered)
        return out

    def roots(self) -> list[int]:
        """Index of the root span above each span (itself for a root)."""
        out: list[int] = []
        for idx, span in enumerate(self.spans):
            out.append(idx if span[3] < 0 else out[span[3]])
        return out

    def stats(self, root_prefix: str) -> dict[str, dict[str, float]]:
        """calls, total seconds and self seconds per span name, over the spans
        below roots whose name starts with `root_prefix` (roots included)."""
        self_s = self.self_times()
        roots = self.roots()
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        for idx, (name, start, end, _) in enumerate(self.spans):
            if not self.spans[roots[idx]][0].startswith(root_prefix):
                continue
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += self_s[idx]
        return dict(out)

    def write(self, path: str) -> None:
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        doc = {
            "columns": ["name", "start_s", "end_s", "parent"],
            "names": names,
            "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            fh.write(json.dumps(doc, separators=(",", ":")))
