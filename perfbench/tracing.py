"""In-memory spans around calls into the library's layers.

Each span has a name, a start, an end and a parent (the span open when it
started). A span's self time is its duration minus the time its child
spans cover. Closed spans are folded into per-name totals at once, so a
long run keeps no per-call records.

The library binds some functions at import (``strategy`` and ``analysis``
import ``find_redexes`` by name), so a call is caught by wrapping the name
in the module that makes the call, not only where it is defined.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    parent: "Span | None"
    end: float = 0.0
    child_s: float = 0.0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.open: list[Span] = []
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.items: dict[str, int] = defaultdict(int)

    def _enter(self, name: str) -> Span:
        span = Span(name, self.clock(), self.open[-1] if self.open else None)
        self.open.append(span)
        return span

    def _exit(self, span: Span) -> None:
        span.end = self.clock()
        self.open.pop()
        dur = span.end - span.start
        self.total_s[span.name] += dur
        self.self_s[span.name] += dur - span.child_s
        self.calls[span.name] += 1
        if span.parent is not None:
            span.parent.child_s += dur

    @contextmanager
    def span(self, name: str):
        s = self._enter(name)
        try:
            yield
        finally:
            self._exit(s)

    def wrapped(self, fn, name: str, count_result: bool = False):
        """fn inside a span; with count_result, len(result) adds to items[name]."""

        def inner(*args, **kwargs):
            s = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(s)
            if count_result:
                self.items[name] += len(out)
            return out

        return inner

    @contextmanager
    def installed(self, targets):
        """Wrap (module, attribute, span name, count_result) while open."""
        saved = []
        try:
            for module, attr, name, count in targets:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrapped(fn, name, count))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)
