"""Measurement helpers for the benchmark: stopwatch, spans, percentiles, tallies.

Nothing here imports the library, so these helpers are testable on their
own. Spans live in memory while a run measures and are written out once,
at the end.
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Iterable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def checkout_src() -> Path:
    """The library sources of this checkout; raises when they are absent."""
    if not (SRC / "unlearn_lab" / "__init__.py").is_file():
        raise FileNotFoundError(f"no library sources under {SRC}")
    return SRC


def fastest_pass(laps: Sequence[Sequence[float]]) -> float:
    """Time of one pass made of each job's fastest run.

    `laps[p][j]` is the time job j took in pass p; every pass runs the same
    job list. The CPU of a shared machine runs up to twice as slow in
    spells from a fraction of a second to minutes; a short job's fastest
    run over many passes misses them, where a pass total does not.
    """
    if not laps or any(len(p) != len(laps[0]) for p in laps):
        raise ValueError("passes must time the same job list")
    return sum(min(times) for times in zip(*laps))


TAIL_PERMILLE = (999, 990, 950, 900)  # p99.9, p99, p95, p90


def tail_percentile(n: int, beyond: int = 10) -> float | None:
    """Highest listed percentile that leaves at least `beyond` of n samples above it."""
    for q in TAIL_PERMILLE:
        if n * (1000 - q) >= beyond * 1000:
            return q / 10
    return None


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with >= p% at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    s = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(s)))
    return s[rank - 1]


class Stopwatch:
    """Keeps the time spent inside each `with sw.lap()` block, in order."""

    def __init__(self) -> None:
        self.laps: list[float] = []

    @contextmanager
    def lap(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.laps.append(time.perf_counter() - t0)


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing.

    The run id names one pass of a workload, so all spans of a pass share it.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.run = ""
        self._stack: list[int] = []
        self._next = 0

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, t0, t1, parent, self.run))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "run": s.run}
            for s in sorted(self.spans, key=lambda s: s.id)
        ]
        path.write_text(json.dumps(rows) + "\n")


def _covered(interval: tuple[float, float], parts: Iterable[tuple[float, float]]) -> float:
    """Length of `interval` covered by the union of `parts`."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in parts if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - _covered((s.start, s.end), children.get(s.id, ()))
        for s in spans
    }


def span_totals(spans: Sequence[Span]) -> dict[str, tuple[int, float, float]]:
    """Per span name: (count, total seconds, total self seconds)."""
    selfs = self_times(spans)
    out: dict[str, tuple[int, float, float]] = {}
    for s in spans:
        n, tot, own = out.get(s.name, (0, 0.0, 0.0))
        out[s.name] = (n + 1, tot + s.duration, own + selfs[s.id])
    return out


def layer_share(spans: Sequence[Span], layer: str) -> tuple[int, float]:
    """A layer's span count, and its self time as a percentage of the top-level spans."""
    selfs = self_times(spans)
    total = sum(s.duration for s in spans if s.parent is None)
    mine = [s for s in spans if s.layer == layer]
    return len(mine), 100.0 * sum(selfs[s.id] for s in mine) / total


@dataclass
class Tally:
    """Checked operations: how many were attempted, and which ones failed.

    A failure is tagged with its kind; kinds listed in `known` are defects
    the benchmark reports without treating the run as broken. Invariants of
    the benchmark itself (repeatable answers and counts) are not operations:
    a broken one is listed in `broken`.
    """

    known: frozenset[str] = frozenset()
    attempted: int = 0
    failures: dict[str, int] = field(default_factory=dict)
    broken: list[str] = field(default_factory=list)

    def check(self, ok: bool, kind: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures[kind] = self.failures.get(kind, 0) + 1
        return ok

    def fail(self, kind: str) -> None:
        self.check(False, kind)

    def require(self, ok: bool, invariant: str) -> None:
        if not ok:
            self.broken.append(invariant)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def unexpected(self) -> int:
        return sum(n for kind, n in self.failures.items() if kind not in self.known)

    @property
    def correct(self) -> bool:
        return self.unexpected == 0 and not self.broken

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
