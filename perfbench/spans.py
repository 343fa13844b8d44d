"""Per-layer spans, recorded from the benchmark's side of each layer boundary.

A :class:`Tracer` replaces public functions and methods of the program
with thin wrappers that time each call.  Every wrapper pushes a frame on
one stack, so a layer's *self time* is its span minus the spans of the
layers it called (a handler running inside a routing call is billed to
the handler, not to routing).  Only synchronous functions are wrapped:
in the live cluster every wrapped call runs to completion inside one
event-loop step, so the single stack stays properly nested there too.

Two records are kept:

* aggregates for every call -- calls, self seconds and span seconds per
  span name;
* full spans (id, parent id, event index, name, start, end) for a
  deterministic sample of published tuples: those whose stream index is
  a multiple of ``sample_every``.  Spans of one tuple share its index.

Wrappers are installed before the engine is built and patched where the
caller resolves the name (a class attribute, or the importing module's
global), then removed by :meth:`Tracer.uninstall`.

Garbage collection runs inside whichever call allocates when a
generation fills up, so it would be billed to that layer.
:meth:`Tracer.track_gc` gives it a span of its own instead.
"""

from __future__ import annotations

import functools
import gc
import inspect
import json
import time
from typing import Callable, Iterable, Sequence

#: A sampled span: (span id, parent span id or 0, event index, name,
#: start, end).
Span = tuple


class Tracer:
    """Span stack, per-name aggregates and a sampled span log."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter, sample_every: int = 64):
        self.clock = clock
        self.sample_every = sample_every
        #: Stream index of the tuple being processed (0 = none yet).
        self.event = 0
        #: name -> [calls, self seconds, span seconds]
        self.totals: dict[str, list] = {}
        self.spans: list[Span] = []
        #: Result tallies (see :meth:`tally`).
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []  # frames: [start, child seconds, span id]
        self._next_id = 0
        self._patches: list[tuple] = []
        self._gc_callback = None

    # -- recording ------------------------------------------------------
    def _enter(self) -> list:
        span_id = 0
        if self.sample_every and self.event and self.event % self.sample_every == 0:
            self._next_id += 1
            span_id = self._next_id
        frame = [self.clock(), 0.0, span_id]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list) -> None:
        end = self.clock()
        stack = self._stack
        stack.pop()
        duration = end - frame[0]
        if stack:
            stack[-1][1] += duration
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration - frame[1]
        total[2] += duration
        if frame[2]:
            parent = stack[-1][2] if stack else 0
            self.spans.append((frame[2], parent, self.event, name, frame[0], end))

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` with every call recorded as a span ``name``."""
        enter = self._enter
        leave = self._exit

        @functools.wraps(function)
        def traced(*args, **kwargs):
            frame = enter()
            try:
                return function(*args, **kwargs)
            finally:
                leave(name, frame)

        return traced

    def span(self, name: str) -> "_SpanContext":
        """A ``with`` block recorded as one span (the driver's root)."""
        return _SpanContext(self, name)

    # -- patching -------------------------------------------------------
    def patch(self, owner: object, attribute: str, name: str) -> None:
        """Wrap ``owner.attribute`` (a class or module attribute)."""
        self._replace(owner, attribute, lambda fn: self.wrap(name, fn))

    def hook(self, owner: object, attribute: str, before: Callable) -> None:
        """Run ``before(*args)`` ahead of each call, recording no span."""

        def make(function):
            @functools.wraps(function)
            def hooked(*args, **kwargs):
                before(*args, **kwargs)
                return function(*args, **kwargs)

            return hooked

        self._replace(owner, attribute, make)

    def tally(self, owner: object, attribute: str, counter: str, predicate: Callable) -> None:
        """Count in ``counters[counter]`` the calls whose result satisfies
        ``predicate``, recording no span."""
        counters = self.counters
        counters.setdefault(counter, 0)

        def make(function):
            @functools.wraps(function)
            def tallied(*args, **kwargs):
                result = function(*args, **kwargs)
                if predicate(result):
                    counters[counter] += 1
                return result

            return tallied

        self._replace(owner, attribute, make)

    def _replace(self, owner: object, attribute: str, make: Callable) -> None:
        raw = inspect.getattr_static(owner, attribute)
        own = attribute in vars(owner)
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        setattr(owner, attribute, replacement)
        self._patches.append((owner, attribute, raw if own else None))

    def track_gc(self, name: str) -> None:
        """Record every garbage collection as a span ``name`` nested in
        the span it interrupted (``gc.callbacks``)."""
        frames = []

        def callback(phase: str, _info: dict) -> None:
            if phase == "start":
                frames.append(self._enter())
            elif frames:
                self._exit(name, frames.pop())

        gc.callbacks.append(callback)
        self._gc_callback = callback

    def install(self, targets: Iterable[tuple]) -> None:
        """Patch every ``(owner, attribute, span name)`` in ``targets``."""
        for owner, attribute, name in targets:
            self.patch(owner, attribute, name)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first, and stop
        tracking garbage collection."""
        if self._gc_callback is not None:
            gc.callbacks.remove(self._gc_callback)
            self._gc_callback = None
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    # -- output ---------------------------------------------------------
    def write(self, path: str, extra: dict) -> None:
        """Write aggregates and sampled spans as one JSON document."""
        document = dict(extra)
        document["totals"] = {
            name: {"calls": calls, "self_s": self_s, "span_s": span_s}
            for name, (calls, self_s, span_s) in sorted(self.totals.items())
        }
        document["counters"] = dict(sorted(self.counters.items()))
        document["sample_every"] = self.sample_every
        document["spans"] = [
            {"id": s[0], "parent": s[1], "event": s[2], "name": s[3], "start": s[4], "end": s[5]}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


class _SpanContext:
    __slots__ = ("tracer", "name", "frame")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.frame = None

    def __enter__(self) -> "_SpanContext":
        self.frame = self.tracer._enter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer._exit(self.name, self.frame)


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Self time of each span: its duration minus its children's.

    Reference arithmetic over a finished span log (the tracer computes
    the same quantity online); children of one parent never overlap in
    a single-threaded trace, so their durations simply add up.
    """
    result = {span[0]: span[5] - span[4] for span in spans}
    for span_id, parent, _event, _name, start, end in spans:
        if parent in result:
            result[parent] -= end - start
    return result
