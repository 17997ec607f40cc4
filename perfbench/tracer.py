"""Outside-in tracing for the sptlab benchmark.

The tracer replaces module and class attributes with timing wrappers, so it
sees every call that goes through the wrapped name and nothing else.  Modules
such as ``sptlab.experiments`` and ``sptlab.cli`` import functions by name, so
a function is wrapped at each place its callers look it up (for example both
``sptlab.experiments.fit_gbt`` and ``sptlab.cli.fit_gbt``).

Spans are kept in memory.  Each span records its name, thread id, start and
end, and the span that was open on the same thread when it began (its parent),
so self time is computed per thread: a span's duration minus the time its
children on that thread cover.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    sid: int
    parent: int | None
    tid: int
    name: str
    start: float
    end: float = 0.0
    child_s: float = 0.0


class Tracer:
    """Records spans and counts around wrapped callables; ``restore`` undoes
    every wrap."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.keys: dict[str, set] = defaultdict(set)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def add_key(self, name: str, key) -> None:
        """Remember ``key`` under ``name``; ``len(keys[name])`` is a distinct count."""
        with self._lock:
            self.keys[name].add(key)

    def inside(self, name: str) -> bool:
        """True if a span called ``name`` is open on the calling thread."""
        return any(sp.name == name for sp in self._stack())

    def wrap(self, owner, attr: str, name: str, on_call=None) -> None:
        """Replace ``owner.attr`` with a spanning wrapper.  ``on_call(span,
        args, kwargs, result)`` may add counts after each successful call."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        func = original

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            with self._lock:
                span = Span(len(self.spans), None if parent is None else parent.sid,
                            threading.get_ident(), name, 0.0)
                self.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
            if on_call is not None:
                on_call(span, args, kwargs, result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds ``s`` and ``self_s`` (time not
        covered by child spans on the same thread)."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for sp in self.spans:
            row = out[sp.name]
            row["calls"] += 1
            row["s"] += sp.end - sp.start
            row["self_s"] += sp.end - sp.start - sp.child_s
        return dict(out)

    def span_records(self, origin: float):
        """Spans as JSON-ready dicts with times relative to ``origin``."""
        for sp in self.spans:
            yield {"id": sp.sid, "parent": sp.parent, "tid": sp.tid, "name": sp.name,
                   "start_s": sp.start - origin, "end_s": sp.end - origin,
                   "self_s": sp.end - sp.start - sp.child_s}
