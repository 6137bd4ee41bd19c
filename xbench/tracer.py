"""Spans recorded from outside the program, around calls into xmod.

A hook replaces one module attribute (the name a caller looks a function up
by, e.g. ``xmod.transfer.homogeneous_affinity``) with a wrapper that opens a
span, calls the original and closes the span. Hooks are installed only for
the traced operations and are always restored afterwards. Spans stay in
memory; the caller writes them out when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    op: int
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    info: dict = field(default_factory=dict)
    alloc_peak: int = 0  # bytes above the traced memory at entry (alloc tracking only)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "op": self.op,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "info": self.info,
            "alloc_peak": self.alloc_peak,
        }


@dataclass(frozen=True)
class Hook:
    """Wrap ``module.attr`` in a span called ``span`` (or ``span(args)``).

    ``on_return(info, args, kwargs, result)`` may add counts to the span's
    info dict; it runs after the span has closed.
    """

    module: str
    attr: str
    span: str | Callable[[tuple], str]
    on_return: Callable | None = None


class Tracer:
    """Single-threaded span recorder; ``op`` tags the spans of one operation.

    With ``track_alloc`` each span also records its tracemalloc peak above the
    memory in use when it opened; the caller must have started tracemalloc.
    """

    def __init__(self, track_alloc: bool = False, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.op = -1
        self._clock = clock
        self._track_alloc = track_alloc
        self._open: list[int] = []
        self._bases: list[int] = []
        self._peaks: list[int] = []

    def _checkpoint_memory(self) -> int:
        # Fold the peak since the last checkpoint into every open span, then
        # restart peak tracking so a nested span sees only its own interval.
        current, peak = tracemalloc.get_traced_memory()
        self._peaks = [max(p, peak) for p in self._peaks]
        tracemalloc.reset_peak()
        return current

    def enter(self, name: str) -> int:
        if self._track_alloc:
            current = self._checkpoint_memory()
            self._bases.append(current)
            self._peaks.append(current)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(self.op, name, self._clock(), parent=parent))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def exit(self, index: int) -> None:
        span = self.spans[index]
        span.end = self._clock()
        if self._open.pop() != index:
            raise RuntimeError(f"span {span.name} closed out of order")
        if self._track_alloc:
            self._checkpoint_memory()
            span.alloc_peak = self._peaks.pop() - self._bases.pop()

    @contextmanager
    def span(self, name: str):
        index = self.enter(name)
        try:
            yield self.spans[index]
        finally:
            self.exit(index)

    def wrap(self, hook: Hook, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = hook.span(args) if callable(hook.span) else hook.span
            index = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(index)
            if hook.on_return is not None:
                hook.on_return(self.spans[index].info, args, kwargs, result)
            return result

        return traced


@contextmanager
def installed(tracer: Tracer, hooks):
    """Install every hook for the duration of the block, then restore."""
    saved = []
    try:
        for hook in hooks:
            module = importlib.import_module(hook.module)
            original = getattr(module, hook.attr)
            saved.append((module, hook.attr, original))
            setattr(module, hook.attr, tracer.wrap(hook, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    run_start = run_end = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - covered(children.get(i, ()), span.start, span.end)
        for i, span in enumerate(spans)
    ]
