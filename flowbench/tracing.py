"""In-memory span tracing installed from outside the program.

The benchmark never edits ``src/``: :func:`install` replaces each traced
public function or method *where its caller looks the name up* (a module
attribute or a class attribute) with a wrapper that records one span per
call, and returns an undo callable that restores the originals.

A span is ``[name, start, end, parent, sample, fields]``: ``parent`` is
the index of the enclosing span of the same process (``-1`` at the top),
``sample`` the id of the benchmark sample the call belongs to, ``fields``
the counts read from the call's arguments or result.  Spans stay in
memory; a process whose spans another one merges writes them out once, at
the end (:meth:`Tracer.dump`).
"""

from __future__ import annotations

import functools
import json
import os
import time
from typing import Callable, Dict, List, Optional


class Tracer:
    """Span recorder of one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._open_names: List[str] = []
        self.sample: Optional[int] = None
        #: While False, wrappers call straight through (the untraced
        #: samples of a traced run, used to measure tracing overhead).
        self.enabled = True

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.sample, {}])
        index = len(self.spans) - 1
        self._stack.append(index)
        self._open_names.append(name)
        return index

    def end(self, index: int, fields: Optional[Dict[str, float]] = None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        if fields:
            span[5].update(fields)
        self._stack.pop()
        self._open_names.pop()

    def take(self) -> List[list]:
        """Hand over the finished spans and start a fresh list (between
        samples, when no span is open)."""
        spans, self.spans = self.spans, []
        return spans

    def is_open(self, name: str) -> bool:
        return name in self._open_names

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"pid": os.getpid(), "spans": self.spans}, handle)


def wrap(tracer: Tracer, function: Callable, name: str, fields=None) -> Callable:
    """``function`` recording a ``name`` span per outermost call.

    ``fields(result, args, kwargs)`` returns the span's counts; it runs
    after the span has ended, so its own cost is not charged to the layer.
    Nested calls of the same span name (a layer calling itself) pass
    straight through, so a layer's time is never counted twice.
    """

    @functools.wraps(function)
    def traced(*args, **kwargs):
        if not tracer.enabled or tracer.is_open(name):
            return function(*args, **kwargs)
        index = tracer.begin(name)
        try:
            result = function(*args, **kwargs)
        except BaseException:
            tracer.end(index, {"raised": 1})
            raise
        tracer.end(index)
        if fields is not None:
            tracer.spans[index][5].update(fields(result, args, kwargs))
        return result

    return traced


def install(tracer: Tracer, targets) -> Callable[[], None]:
    """Patch every ``(owner, attribute, span name, fields)`` target.

    ``owner`` is a module or a class: the namespace the caller resolves the
    name in.  Returns the undo callable restoring every original.
    """
    originals = []
    for owner, attribute, name, fields in targets:
        original = owner.__dict__[attribute]
        setattr(owner, attribute, wrap(tracer, original, name, fields))
        originals.append((owner, attribute, original))

    def undo() -> None:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)

    return undo


# ------------------------------------------------------------------ analysis
def self_times(spans: List[list]) -> List[float]:
    """Per-span self time: duration minus the union of its children."""
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(index)
    result = []
    for index, span in enumerate(spans):
        covered = union_length(
            [(spans[child][1], spans[child][2]) for child in children.get(index, ())]
        )
        result.append(max(0.0, (span[2] - span[1]) - covered))
    return result


def union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def load_span_files(paths) -> List[List[list]]:
    """Span lists of every per-process span file that exists."""
    result = []
    for path in paths:
        try:
            with open(path, encoding="utf-8") as handle:
                result.append(json.load(handle)["spans"])
        except FileNotFoundError:
            continue
    return result
