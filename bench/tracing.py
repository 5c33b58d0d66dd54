"""In-memory spans around calls into surecov's layers.

A span has a name, start, end and parent.  Spans are appended to a list while
the benchmark runs and written out once at the end, so recording one costs two
clock reads and a list append.  Calls made from pool threads have no open span
on their own thread; they take the innermost open *root* span (the workload
span) as parent.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None
        self._t0 = time.perf_counter()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, root: bool = False):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        sid = next(self._ids)
        saved_root = self._root
        if root:
            self._root = sid
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self._root = saved_root
            self.spans.append(Span(sid, name, parent, threading.get_ident(), start, end))

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def patched(self, targets):
        """Replace ``module.attr`` by a traced wrapper for each
        ``(module, attr, span_name)``; names a module lacks are skipped."""
        saved = []
        try:
            for module, attr, name in targets:
                if hasattr(module, attr):
                    orig = getattr(module, attr)
                    saved.append((module, attr, orig))
                    setattr(module, attr, self.wrap(orig, name))
            yield
        finally:
            for module, attr, orig in reversed(saved):
                setattr(module, attr, orig)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_time(self, span: Span) -> float:
        """Duration minus the part of it that child spans cover."""
        covered = 0.0
        cursor = span.start
        children = [s for s in self.spans if s.parent == span.id]
        for child in sorted(children, key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return span.duration - covered

    def descendants(self, roots: list[Span]) -> list[Span]:
        """Every span below any of ``roots``."""
        by_parent: dict[int | None, list[Span]] = {}
        for s in self.spans:
            by_parent.setdefault(s.parent, []).append(s)
        out, todo = [], [r.id for r in roots]
        while todo:
            for child in by_parent.get(todo.pop(), []):
                out.append(child)
                todo.append(child.id)
        return out

    def write(self, path) -> None:
        rows = [
            {**asdict(s), "start": s.start - self._t0, "end": s.end - self._t0}
            for s in sorted(self.spans, key=lambda s: s.start)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"clock": "perf_counter seconds from tracer start", "spans": rows}, fh)
