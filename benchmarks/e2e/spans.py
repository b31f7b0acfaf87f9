"""Span recording from outside the program: timing wrappers around the
layers' public callables.

The benchmark owns its tracing: a :class:`Tracer` swaps a module
attribute or class method for a wrapper that records one span per call
(``name, start, end, parent``) and restores the original afterwards.
Nothing under ``src/`` is edited. Spans stay in memory until the
repetition ends.

The current span lives in a :mod:`contextvars` variable, so spans opened
by different asyncio tasks (an HTTP handler running while ``astep``
awaits its probes) each see their own parent.

A span's *self time* is its duration minus the part of it that its child
spans cover; children of one span may overlap each other (probes fanned
out with ``gather``), so the covered part is the union of their
intervals. Self times of all spans under one root therefore sum to the
root's duration.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import time
from contextlib import contextmanager
from typing import Callable, Iterator

__all__ = ["Tracer", "self_times", "span_self_times"]

# Span record layout: [name, start, end, parent index, attrs or None].
NAME, START, END, PARENT, ATTRS = range(5)


class Tracer:
    """Records spans and owns the wrappers that produce them."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.spans: list[list] = []
        self._clock = clock
        self._current: contextvars.ContextVar[int] = \
            contextvars.ContextVar("e2e_current_span", default=-1)
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _open(self, name: str) -> tuple[int, contextvars.Token]:
        index = len(self.spans)
        self.spans.append([name, self._clock(), None,
                           self._current.get(), None])
        return index, self._current.set(index)

    def _close(self, index: int, token: contextvars.Token) -> None:
        self.spans[index][END] = self._clock()
        self._current.reset(token)

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        """A span around the benchmark's own code; yields its attrs."""
        index, token = self._open(name)
        attrs: dict = {}
        try:
            yield attrs
        finally:
            self._close(index, token)
            if attrs:
                self.spans[index][ATTRS] = attrs

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------

    def wrap(self, owner: object, attr: str, name: str,
             note: Callable | None = None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``note(attrs, args, kwargs, result)`` runs after the span closed
        (its cost lands in the caller's self time) and fills the span's
        attribute dict with counts taken at the boundary.
        """
        original = vars(owner)[attr]

        def finish(index, token, args, kwargs, result):
            self._close(index, token)
            if note is not None:
                attrs: dict = {}
                note(attrs, args, kwargs, result)
                self.spans[index][ATTRS] = attrs

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                index, token = self._open(name)
                result = None
                try:
                    result = await original(*args, **kwargs)
                    return result
                finally:
                    finish(index, token, args, kwargs, result)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                index, token = self._open(name)
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    finish(index, token, args, kwargs, result)

        wrapper.__e2e_wrapper__ = True
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped callable back (last wrapped, first restored)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def dump(self, path: str, **header) -> None:
        """Write the spans of this repetition, under ``header``, as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header,
                       "layout": ["name", "start", "end", "parent", "attrs"],
                       "spans": self.spans}, handle)

    def named(self, name: str) -> list[list]:
        """All closed spans called ``name``, in start order."""
        return [span for span in self.spans
                if span[NAME] == name and span[END] is not None]

    def attr_sum(self, name: str, key: str) -> float:
        """Sum of one attribute over the spans called ``name``."""
        return sum((span[ATTRS] or {}).get(key, 0)
                   for span in self.named(name))

    def has_ancestor(self, span: list, name: str) -> bool:
        """True when some enclosing span of ``span`` is called ``name``."""
        parent = span[PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False


def span_self_times(spans: list[list]) -> list[float]:
    """Self time of each span, by index (0.0 for spans never closed)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[END] is not None and span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(
                (span[START], span[END]))
    out: list[float] = []
    for index, span in enumerate(spans):
        if span[END] is None:
            out.append(0.0)
            continue
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, reach)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        out.append((end - start) - covered)
    return out


def self_times(spans: list[list]) -> dict[str, dict]:
    """Per span name: call count, total duration and self time."""
    out: dict[str, dict] = {}
    for span, own in zip(spans, span_self_times(spans)):
        if span[END] is None:
            continue
        entry = out.setdefault(span[NAME],
                               {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += span[END] - span[START]
        entry["self_s"] += own
    return out
