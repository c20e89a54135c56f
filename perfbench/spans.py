"""In-memory span recording around the repro modules' public calls.

The traced run measures each layer from outside the program: it wraps the
public functions the layers expose (``parse_script``, the service's
``execute_script``, the registered engine's and model's batch methods, the
lifecycle, durability and storage entry points) with timers that record a
span per call.  Nothing inside ``src/`` changes, so the traced run executes
the same program as the untraced one plus the wrappers' own cost.

A span records its name, start, end, parent span and request id.  Spans
stay in memory and are written out once, after the run.  A layer's self
time is its span's duration minus the time its child spans cover
(:func:`self_times`).
"""

from __future__ import annotations

import gzip
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable


@dataclass
class Span:
    """One timed call at a layer boundary."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        """The module a span belongs to: the part of its name before the dot."""
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any thread; parents follow a per-thread stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, request: int | None = None) -> Span:
        """Start a span; it inherits parent and request from this thread."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent.request
        span = Span(
            next(self._ids),
            name,
            self.clock(),
            0.0,
            parent.id if parent is not None else None,
            request,
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # pragma: no cover - unbalanced use is a harness bug
            raise RuntimeError(f"span {span.name!r} closed out of order")
        self.spans.append(span)  # list.append is atomic under the GIL

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Callable[[Span, tuple, object], None] | None = None,
    ) -> Callable:
        """Return ``fn`` timed as a span; ``observe`` adds counts from the call."""

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if observe is not None:
                observe(span, args, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        """Write every span as one gzip-compressed JSON line each."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.id):
                handle.write(
                    json.dumps(
                        {
                            "id": span.id,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "request": span.request,
                            **span.attrs,
                        }
                    )
                    + "\n"
                )


# --------------------------------------------------------------------------- #
# method proxies on live objects
# --------------------------------------------------------------------------- #
_MARK = "_perfbench_traced"


def instrument(
    tracer: Tracer,
    obj: object,
    methods: dict[str, tuple[str, Callable | None]],
) -> bool:
    """Shadow ``obj``'s methods with timed proxies on the instance itself.

    ``methods`` maps a method name to ``(span name, observe)``.  The object
    stays the one the program registered, so registries, version markers
    and journals see no change; only attribute lookup on this instance
    goes through the timer.  Returns ``False`` when ``obj`` was already
    instrumented (a rolled-back model comes back instrumented).
    """
    if obj.__dict__.get(_MARK):
        return False
    for method, (name, observe) in methods.items():
        setattr(obj, method, tracer.wrap(name, getattr(obj, method), observe))
    obj.__dict__[_MARK] = tuple(methods)
    return True


def uninstrument(obj: object) -> None:
    """Remove the proxies :func:`instrument` installed on ``obj``."""
    for method in obj.__dict__.pop(_MARK, ()):
        obj.__dict__.pop(method, None)


# --------------------------------------------------------------------------- #
# self-time arithmetic
# --------------------------------------------------------------------------- #
def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval, and time covered by
    more than one child counts once.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = {}
    for span in spans:
        covered = union_length(
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.id, ())
            if min(end, span.end) > max(start, span.start)
        )
        result[span.id] = span.duration - covered
    return result


def roots(spans: Iterable[Span]) -> dict[int, Span]:
    """Map each span id to the outermost span of its tree."""
    by_id = {span.id: span for span in spans}
    memo: dict[int, Span] = {}

    def root_of(span: Span) -> Span:
        if span.id in memo:
            return memo[span.id]
        parent = by_id.get(span.parent) if span.parent is not None else None
        memo[span.id] = span if parent is None else root_of(parent)
        return memo[span.id]

    for span in by_id.values():
        root_of(span)
    return memo
