"""In-memory spans around the calls into each neuralfp layer.

Tracing replaces, for the length of a traced pass, the attribute a
caller looks up (a module global such as `neuralfp.hierarchy.train`, or
a method such as `ReductionPipeline.apply`) with a wrapper that records
a span, and puts the original back afterwards.  The program's code is
never edited, so an untraced pass runs exactly the program's own calls.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 for a top-level span
    rid: object          # request id: host index, or phase / stage name
    tag: int             # per-target detail: id() of the net or pipeline, or a pair count
    error: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder; spans are kept in start order, parents before children."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span | None] = []
        self.rid: object = None
        self.enabled = True
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, tag=None) -> None:
        """Record a span named `name` around every call of owner.attr.

        `tag(args, result)` may pick an integer to store with the span.
        """
        fn = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(index)
            result = None
            error = True
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
                error = False
                return result
            finally:
                end = tracer.clock()
                tracer._stack.pop()
                value = tag(args, result) if tag is not None and not error else 0
                tracer.spans[index] = Span(name, start, end, parent, tracer.rid, value, error)

        self._originals.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put every wrapped attribute back, last wrapped first."""
        while self._originals:
            owner, attr, fn = self._originals.pop()
            setattr(owner, attr, fn)

    def write(self, path) -> None:
        """Gzipped JSON lines, one object per span, with its self time."""
        selfs = self_times(self.spans)
        with gzip.open(path, "wt") as fh:
            for i, (s, own) in enumerate(zip(self.spans, selfs)):
                fh.write(json.dumps({
                    "i": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "rid": s.rid, "self": own, "error": s.error,
                }) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    reach = -float("inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        inside = [(max(lo, s.start), min(hi, s.end)) for lo, hi in children.get(i, [])]
        out.append(s.duration - _covered(inside))
    return out


def relabel(spans: list[Span], phase: object, names_by_tag: dict[int, str]) -> None:
    """Give spans of one phase the request id of the object they worked on.

    A span of the phase whose tag names an object in names_by_tag takes
    that name; its descendants inherit it.  Only spans of `phase` are
    touched, because id() values of freed objects can recur elsewhere.
    """
    named: set[int] = set()
    for i, s in enumerate(spans):
        if s.rid != phase:
            continue
        if s.tag in names_by_tag:
            s.rid = names_by_tag[s.tag]
            named.add(i)
        elif s.parent in named:
            s.rid = spans[s.parent].rid
            named.add(i)
