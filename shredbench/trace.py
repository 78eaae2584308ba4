"""Span tracing for the benchmark's traced run.

Wrappers go around public functions of the library, installed only for a
traced round and removed afterwards, so untraced rounds run the program
exactly as shipped.  Each thread appends spans to its own buffer; a span
records its name, start and end (``perf_counter_ns``), the index of the
enclosing span on the same thread, and optional tags (the request ids of
the batch it worked on).  Spans stay in memory until the run ends.

Buffers are columns of plain lists rather than one object per span: a
container per span would feed the cyclic garbage collector hundreds of
thousands of tracked objects per phase, and the collections they trigger
would dominate the tracing overhead.

A span's *self time* is its duration minus the durations of its direct
children.  When spans nest (each inside its parent), the self times of a
span tree partition the duration of its root: the stage spans' self
times plus the root's own remainder add up to the wall time.
:func:`check_closure` checks the nesting and measures that remainder.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable

#: Field positions in the span tuples :meth:`ThreadBuffer.spans` yields.
NAME, START, END, PARENT, TAGS = range(5)


class ThreadBuffer:
    """The spans of one thread, in start order, stored by column."""

    def __init__(self, thread_name: str) -> None:
        self.thread_name = thread_name
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.tags: list[object] = []
        self.stack: list[int] = []

    def open(self, name: str, tags: object = None) -> int:
        """Append a span starting now-ish; returns its index."""
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.starts.append(0)
        self.ends.append(0)
        self.tags.append(tags)
        self.stack.append(index)
        return index

    def spans(self):
        """``(name, start, end, parent, tags)`` per span."""
        return zip(self.names, self.starts, self.ends, self.parents, self.tags)


class Tracer:
    """Per-thread span buffers plus the patching that feeds them."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self.buffers: list[ThreadBuffer] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def buffer(self) -> ThreadBuffer:
        """This thread's buffer, created on first use."""
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = ThreadBuffer(threading.current_thread().name)
            self._local.buf = buf
            with self._lock:
                self.buffers.append(buf)
        return buf

    def span(self, name: str, tags: object = None) -> "_SpanContext":
        """Context manager recording one span around a block."""
        return _SpanContext(self, name, tags)

    def wrap(
        self,
        name: str,
        fn: Callable,
        tags: Callable[[tuple, dict, object], object] | None = None,
    ) -> Callable:
        """``fn`` with a span named ``name`` around every call.

        ``tags(args, kwargs, result)`` may return the request ids the call
        worked on; it runs after the span closes, outside its time.
        """
        tracer = self
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = tracer.buffer()
            index = buf.open(name)
            buf.starts[index] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.ends[index] = clock()
                buf.stack.pop()
            if tags is not None:
                buf.tags[index] = tags(args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch_method(self, cls: type, attr: str, name: str, tags=None) -> None:
        """Replace ``cls.attr`` (looked up through the class on every
        call) with a traced wrapper."""
        had_own = attr in cls.__dict__
        original = getattr(cls, attr)
        setattr(cls, attr, self.wrap(name, original, tags))
        self._patches.append((cls, attr, original, had_own))

    def patch_function(self, module, attr: str, name: str, tags=None) -> None:
        """Replace a module-level function in its defining module and in
        every ``repro`` module that imported it by name, so callers that
        look it up in their own globals see the wrapper too."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, tags)
        for loaded in list(sys.modules.values()):
            if loaded is None or not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapper)
                    self._patches.append((loaded, key, original, True))

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def reset(self) -> list[ThreadBuffer]:
        """Detach and return the buffers recorded so far."""
        with self._lock:
            buffers, self.buffers = self.buffers, []
            self._local = threading.local()
        return buffers


class _SpanContext:
    __slots__ = ("tracer", "name", "tags", "index", "buf")

    def __init__(self, tracer: Tracer, name: str, tags: object) -> None:
        self.tracer = tracer
        self.name = name
        self.tags = tags

    def __enter__(self) -> None:
        buf = self.buf = self.tracer.buffer()
        self.index = buf.open(self.name, self.tags)
        buf.starts[self.index] = self.tracer.clock()

    def __exit__(self, *exc_info) -> None:
        self.buf.ends[self.index] = self.tracer.clock()
        self.buf.stack.pop()


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
@dataclass
class StageTotals:
    """Aggregate of every span with one name."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


def self_times(buf: ThreadBuffer) -> list[int]:
    """Self time of each span: its duration minus its direct children's."""
    child = [0] * len(buf.names)
    for start, end, parent in zip(buf.starts, buf.ends, buf.parents):
        if parent >= 0:
            child[parent] += end - start
    return [
        end - start - covered
        for start, end, covered in zip(buf.starts, buf.ends, child)
    ]


def stage_totals(buffers: Iterable[ThreadBuffer]) -> dict[str, StageTotals]:
    """Calls, total time and self time per span name over all threads."""
    totals: dict[str, StageTotals] = {}
    for buf in buffers:
        for name, start, end, own in zip(buf.names, buf.starts, buf.ends, self_times(buf)):
            entry = totals.setdefault(name, StageTotals())
            entry.calls += 1
            entry.total_ns += end - start
            entry.self_ns += own
    return totals


def total_under(buf: ThreadBuffer, name: str, parent_name: str) -> tuple[int, int]:
    """Calls and total time of spans ``name`` whose direct parent is a
    ``parent_name`` span (e.g. remote forwards the trainer made, not
    by its accuracy probes)."""
    calls = 0
    total = 0
    names = buf.names
    for span_name, start, end, parent in zip(names, buf.starts, buf.ends, buf.parents):
        if span_name == name and parent >= 0 and names[parent] == parent_name:
            calls += 1
            total += end - start
    return calls, total


def check_closure(buf: ThreadBuffer, root: str) -> tuple[int, int, int]:
    """Wall time of the ``root`` spans on one thread, the part of it no
    stage span claims (the roots' own self time), and the number of spans
    in their trees that do not lie inside their parent.

    With no such violations the self times of a tree partition its wall
    time, so the stage self-times add up to ``wall - residual``.
    """
    own = self_times(buf)
    in_root = [False] * len(own)
    wall = 0
    residual = 0
    violations = 0
    starts, ends = buf.starts, buf.ends
    for index, (name, parent) in enumerate(zip(buf.names, buf.parents)):
        if name == root and parent < 0:
            in_root[index] = True
            wall += ends[index] - starts[index]
            residual += own[index]
        elif parent >= 0 and in_root[parent]:
            in_root[index] = True
            if (
                starts[index] < starts[parent]
                or ends[index] > ends[parent]
                or ends[index] < starts[index]
            ):
                violations += 1
    return wall, residual, violations
