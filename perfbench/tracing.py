"""In-memory tracing for the traced benchmark run.

The tracer wraps the public functions of each layer from outside the
library, by replacing module attributes for the duration of the traced
passes:

* layer calls (searches, construct, serialize/parse, verify, the Tutte
  functions, the CLI subcommands) become spans: name, start, end, parent
  span and instance id;
* the fine-grained calls that run by the hundred thousand (gf's rref, hull
  and intersect where construct and matroids call them, and the matroid
  rank oracle) are counted instead, with their busy time charged to the
  enclosing span, so memory stays bounded.

A span's self time is its duration minus its child spans and the counted
calls made inside it.  Spans stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    instance: str
    counted_s: float = 0.0  # busy time of counted calls made directly inside
    children_s: float = 0.0  # duration of child spans

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s - self.counted_s


class Counter:
    __slots__ = ("calls", "busy_s", "hits")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.hits = 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, Counter] = {}
        self.instance = ""
        self.enabled = True  # off while the benchmark checks outputs
        self._open: list[int] = []
        self._counted_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def spanned(self, name, fn):
        """Wrap ``fn`` so each call records a span.  ``name`` is a string or
        a function of the call's arguments."""

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            index = len(self.spans)
            span = Span(label, 0.0, 0.0, self._open[-1] if self._open else -1, self.instance)
            self.spans.append(span)
            self._open.append(index)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
                if span.parent >= 0:
                    self.spans[span.parent].children_s += span.duration

        return wrapper

    def counted(self, name, fn, hit=None):
        """Wrap ``fn`` so calls are counted and timed under ``name``; ``hit``
        tells from the arguments whether a call is a repeat query."""
        counter = self.counters.setdefault(name, Counter())

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if hit is not None and hit(*args):
                counter.hits += 1
            self._counted_depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = time.perf_counter() - start
                self._counted_depth -= 1
                counter.calls += 1
                counter.busy_s += busy
                # only the outermost counted call is charged to the span, so a
                # rank query's own gf calls are not subtracted twice
                if self._counted_depth == 0 and self._open:
                    self.spans[self._open[-1]].counted_s += busy

        return wrapper

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def mark(self) -> int:
        """Position to summarize from; counters restart at each mark."""
        for counter in self.counters.values():
            counter.calls, counter.busy_s, counter.hits = 0, 0.0, 0
        return len(self.spans)

    def layer_times(self, since: int) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, busy seconds, self seconds) since ``since``."""
        out: dict[str, tuple[int, float, float]] = {}
        for span in self.spans[since:]:
            calls, busy, own = out.get(span.name, (0, 0.0, 0.0))
            out[span.name] = (calls + 1, busy + span.duration, own + span.self_s)
        return out

    def dump(self, path, **extra) -> None:
        records = [dict(asdict(s), self_s=s.self_s) for s in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": records, **extra}, handle)
