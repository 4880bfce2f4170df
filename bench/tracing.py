"""In-memory spans and a counting oracle wrapper for the benchmark.

Spans are recorded from outside the program, around the calls the
benchmark makes into each layer.  A span carries a name, start and end
times, the index of its parent span, the id of the run (one setup or one
measured iteration) it belongs to, and a dict of counters.  Oracle calls
are far too many for a span each (a full search makes hundreds of
thousands), so the oracle wrappers add them up and the workload folds
their count, and in traced runs their duration, into counters on the
span around the call that made them.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter


@dataclass
class Span:
    index: int
    name: str
    run_id: str
    parent: int | None
    start: float
    end: float = 0.0
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def add(self, key: str, value) -> None:
        self.counters[key] = self.counters.get(key, 0) + value


class Tracer:
    """Keeps every span in memory until ``dump`` writes them out."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.run_id = ""

    @property
    def current(self) -> Span:
        return self._stack[-1]

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].index if self._stack else None
        s = Span(len(self.spans), name, self.run_id, parent, perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._stack.pop()

    @contextmanager
    def run(self, run_id: str, name: str):
        """Root span of one setup or one measured iteration."""
        if self._stack:
            raise RuntimeError("a run cannot nest inside another span")
        self.run_id = run_id
        with self.span(name) as root:
            yield root

    def run_spans(self, run_id: str) -> list[Span]:
        return [s for s in self.spans if s.run_id == run_id]

    def self_time(self, span: Span) -> float:
        """Duration minus child spans and oracle time folded into the span."""
        children = sum(s.duration for s in self.spans if s.parent == span.index)
        return span.duration - children - span.counters.get("oracle_s", 0.0)

    def dump(self, path: Path, meta: dict) -> None:
        records = [
            {
                "name": s.name,
                "run_id": s.run_id,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                "counters": s.counters,
            }
            for s in self.spans
        ]
        path.write_text(json.dumps({"meta": meta, "spans": records}, indent=1) + "\n")


class CountingOracle:
    """Cost oracle wrapper that counts calls, at the cost of one increment each.

    The description is the wrapped oracle's, so reports stay byte-identical.
    """

    def __init__(self, inner):
        self._inner = inner
        self.calls = 0

    def cost(self, pr, ordering) -> float:
        self.calls += 1
        return self._inner.cost(pr, ordering)

    def describe(self) -> str:
        return self._inner.describe()

    def fold_into(self, span: Span) -> None:
        """Move what was counted since the last fold onto ``span``."""
        span.add("oracle_calls", self.calls)
        self.calls = 0


class TracingOracle(CountingOracle):
    """Also times each call and collects the distinct (problem, ordering) pairs."""

    def __init__(self, inner):
        super().__init__(inner)
        self.seconds = 0.0
        self.pairs: set = set()

    def cost(self, pr, ordering) -> float:
        self.calls += 1
        self.pairs.add((pr.id, ordering.perm))
        t0 = perf_counter()
        c = self._inner.cost(pr, ordering)
        self.seconds += perf_counter() - t0
        return c

    def fold_into(self, span: Span) -> None:
        super().fold_into(span)
        span.add("oracle_s", self.seconds)
        self.seconds = 0.0


def _kernel() -> int:
    """Fixed pure-Python work, well under a millisecond long."""
    d = {}
    for i in range(500):
        d[i & 31] = d.get(i & 31, 0) + i
    return len(sorted(d.values()))


class SpeedProbe:
    """Samples the speed of the CPU from a thread, every ``period`` seconds.

    The host slows this process by up to 1.8x in spells from a fraction of
    a second to a minute, for CPU time as much as wall time.  The probe
    times a fixed kernel, right after a run of it that warms the caches
    the benchmarked code left cold; the thread holds the GIL meanwhile,
    so a sample is slow only when the CPU is.  The process must run on a
    single CPU, so that the probe samples the CPU the benchmark runs on.
    """

    def __init__(self, period: float = 0.01):
        self.period = period
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(self.period):
            _kernel()
            t0 = perf_counter()
            _kernel()
            self.samples.append((t0, perf_counter() - t0))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def mean_during(self, start: float, end: float) -> float:
        """Mean kernel time of the samples taken in [start, end).

        A span too short to hold a sample gets the sample nearest to it.
        """
        inside = [d for t, d in self.samples if start <= t < end]
        if not inside:
            inside = [min(self.samples, key=lambda s: abs(s[0] - (start + end) / 2))[1]]
        return sum(inside) / len(inside)
