"""Outside-in instrumentation, handed to the library through its public API.

Nothing here patches a library attribute: counters and spans come from
objects the benchmark builds itself and passes in where the library
accepts a class handle, an oracle or a scheme.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence

from harness import Tracer
from unlearn_lab import FiniteClass, separable_bruteforce


class CountingFiniteClass(FiniteClass):
    """A FiniteClass that counts version-space mask computations."""

    __slots__ = ("vs_mask_calls",)

    def __init__(self, domain_size: int, hypotheses: Iterable[Sequence[int]]):
        super().__init__(domain_size, hypotheses)
        self.vs_mask_calls = 0

    def vs_mask(self, pairs) -> int:
        self.vs_mask_calls += 1
        return super().vs_mask(pairs)


class CountingOracle:
    """Realizability-oracle proxy: counts calls and distinct supports, times each call."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.domain_size = inner.domain_size
        self.tracer = tracer
        self.calls = 0
        self.distinct: set[frozenset] = set()

    def is_realizable_pairs(self, pairs) -> bool:
        fs = frozenset((int(x), int(y)) for x, y in pairs)
        self.calls += 1
        self.distinct.add(fs)
        with self.tracer.span("geometry.oracle"):
            return self.inner.is_realizable_pairs(fs)


class SchemeClient:
    """Pass-through scheme wrapper that keeps what learn returned.

    run_adversary drives a scheme only through `ticketed`, learn, unlearn,
    aux_bits and ticket_bits, so the wrapper forwards exactly those. Each
    learn result is kept so the benchmark can check aux and tickets after
    the timed region.
    """

    def __init__(self, scheme, tracer: Tracer, layer: str):
        self.scheme = scheme
        self.ticketed = getattr(scheme, "ticketed", False)
        self.tracer = tracer
        self.layer = layer
        self.learned: list[tuple] = []
        self.learn_s = 0.0
        self.unlearns = 0

    def learn(self, data):
        t0 = time.perf_counter()
        with self.tracer.span(self.layer + ".learn"):
            out = self.scheme.learn(data)
        self.learn_s += time.perf_counter() - t0
        self.learned.append(out)
        return out

    def unlearn(self, *args):
        self.unlearns += 1
        with self.tracer.span(self.layer + ".unlearn"):
            return self.scheme.unlearn(*args)

    def aux_bits(self, aux) -> int:
        return self.scheme.aux_bits(aux)

    def ticket_bits(self, ticket) -> int:
        return self.scheme.ticket_bits(ticket)


class BruteForceOracle:
    """Reference halfspace oracle built on the convex-combination test.

    It shares no code with the Fourier-Motzkin path, so witnesses checked
    against it are checked independently of the search that found them.
    """

    def __init__(self, points: Sequence[Sequence]):
        self.points = tuple(tuple(p) for p in points)
        self.domain_size = len(self.points)

    def is_realizable_pairs(self, pairs) -> bool:
        fs = frozenset((int(x), int(y)) for x, y in pairs)
        if any((x, 1 - y) in fs for x, y in fs):
            return False
        pos = [self.points[x] for x, y in fs if y == 1]
        neg = [self.points[x] for x, y in fs if y == 0]
        return separable_bruteforce(pos, neg)
