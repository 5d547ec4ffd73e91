"""Central-memory learning-unlearning schemes.

A central scheme pairs learn(dataset) -> (answer, aux) with
unlearn(deleted entries, aux, tickets) -> answer, and must answer exactly
as retraining from scratch would on the surviving dataset. It is a
ticketed scheme whose tickets are empty: it issues none, so unlearn
rejects a non-empty ticket mapping with ValueError. Deleted entries are
(item id, pair) tuples, the actual data points being removed, and may
carry any ids the learned Dataset holds, including the gapped ids left
by earlier deletions. Every unlearn rejects a repeated id through
core.distinct_ids.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cache, partial

from .core import (
    ClassHandle,
    Dataset,
    Entry,
    FiniteClass,
    Pair,
    _realizable_support,
    count_bits,
    dataset_bits,
    distinct_ids,
    erm_lexmin,
    is_realizable,
    pair_bits,
    support_pairs,
)


class QueryTooLargeError(ValueError):
    """A bounded-deletion scheme received more deletions than its budget."""


class PreconditionError(ValueError):
    """An input violated a scheme's stated precondition."""


def _no_tickets(tickets: Mapping) -> None:
    if tickets:
        raise ValueError("a central scheme issues no tickets, so unlearn takes none")


class TrivialScheme:
    """Store the whole dataset; retrain, computing `task`, on every unlearning query."""

    task = staticmethod(is_realizable)

    def __init__(self, handle: ClassHandle):
        self.handle = handle

    def learn(self, data: Dataset) -> tuple[bool | int, Dataset]:
        return self.task(self.handle, data), data

    def unlearn(self, deleted: Sequence[Entry], aux: Dataset, tickets: Mapping) -> bool | int:
        _no_tickets(tickets)
        return self.task(self.handle, aux.remove(i for i, _ in deleted))

    def aux_bits(self, aux: Dataset) -> int:
        return dataset_bits(len(aux), self.handle.domain_size)


class TrivialErmScheme(TrivialScheme):
    """Store-everything scheme for the ERM task over a finite class."""

    task = staticmethod(erm_lexmin)

    def __init__(self, handle: FiniteClass):
        if not isinstance(handle, FiniteClass):
            raise TypeError("the ERM baseline needs an explicit finite class")
        super().__init__(handle)


def minimal_unrealizable_core(
    handle: ClassHandle, data: Dataset | Iterable[Pair]
) -> tuple[Pair, ...]:
    """Greedy unrealizable core of an unrealizable support.

    Iterates distinct pairs in canonical order, removing each pair whose
    removal keeps the set unrealizable. The result is unrealizable, every
    single-pair removal of it is realizable, and its size is at most the
    hollow star number.
    """
    support = support_pairs(data)
    if _realizable_support(handle, support):
        raise PreconditionError("core extraction needs an unrealizable support")
    return _greedy_core(partial(_realizable_support, handle), support)


def _greedy_core(ok, support: frozenset[Pair]) -> tuple[Pair, ...]:
    # The support is normalised and unrealizable; each question is a set difference of it,
    # asked through `ok`, which answers like _realizable_support.
    core = support
    for pair in sorted(support):
        rest = core - {pair}
        if not ok(rest):
            core = rest
    return tuple(sorted(core))


def enumerate_critical_sets(
    handle: ClassHandle, data: Dataset | Iterable[Pair], k: int
) -> set[frozenset[Pair]]:
    """All minimal pair removals of size <= k that make the support realizable.

    Searches prefixes breadth-first, branching only on the greedy core of
    the current survivor: any completion of a prefix to a critical set
    must delete some core pair, so the search is exhaustive while visiting
    at most hollow_star**k prefixes per level. The support is normalised
    once, every support asked about is a difference of it, and each is
    asked once.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    support, ok = support_pairs(data), cache(partial(_realizable_support, handle))
    if ok(support):
        raise PreconditionError("critical sets are defined for unrealizable data")
    return _critical_sets(ok, support, k)


def _critical_sets(ok, support: frozenset[Pair], k: int) -> set[frozenset[Pair]]:
    # The support is normalised and unrealizable, and so is the survivor of every frontier
    # prefix. `ok` answers like _realizable_support, asking each support once, and the
    # caller has already asked it about the support itself.
    found: set[frozenset[Pair]] = set()
    frontier: set[frozenset[Pair]] = {frozenset()}
    for _ in range(k):
        nxt: set[frozenset[Pair]] = set()
        for prefix in frontier:  # each prefix once, so its greedy core once
            for pair in _greedy_core(ok, support - prefix):
                cand = prefix | {pair}
                if cand in found or cand in nxt:
                    continue
                if not ok(support - cand):
                    nxt.add(cand)
                # minimal if no one-pair-smaller removal works; then no smaller one does
                elif not any(ok(support - (cand - {p})) for p in cand):
                    found.add(cand)
        frontier = nxt
    return found


@dataclass(frozen=True)
class CriticalIndex:
    """Auxiliary state of the bounded-deletion scheme.

    Stores the critical sets of size up to k plus the dataset
    multiplicity of exactly the pairs those sets mention: a pair can only
    flip realizability once every copy of it is gone.
    """

    base_realizable: bool
    k: int
    n: int
    critical_sets: frozenset[frozenset[Pair]] = frozenset()
    pair_counts: dict[Pair, int] = field(default_factory=dict)


class BoundedDeletionScheme:
    """Exact scheme for deletion queries of at most k items.

    The aux keeps no record of item ids, because the bit model prices
    none, so unlearn cannot tell a learned entry from a made-up one. Its
    precondition: every deleted entry is an (id, pair) of the learned
    dataset. An entry from elsewhere is counted as a deletion of its pair.
    """

    def __init__(self, handle: ClassHandle, k: int):
        if k < 1:
            raise ValueError("k must be at least 1")
        self.handle = handle
        self.k = k

    def learn(self, data: Dataset) -> tuple[bool, CriticalIndex]:
        support, ok = data.distinct_pairs(), cache(partial(_realizable_support, self.handle))
        if ok(support):
            return True, CriticalIndex(True, self.k, len(data))
        sets = _critical_sets(ok, support, self.k)
        mentioned, have = {pair for s in sets for pair in s}, data.support()
        counts = {pair: have[pair] for pair in sorted(mentioned)}
        return False, CriticalIndex(False, self.k, len(data), frozenset(sets), counts)

    def unlearn(self, deleted: Sequence[Entry], aux: CriticalIndex, tickets: Mapping) -> bool:
        _no_tickets(tickets)
        if len(deleted) > aux.k:
            raise QueryTooLargeError(
                f"query of {len(deleted)} items exceeds the budget k={aux.k}"
            )
        distinct_ids(i for i, _ in deleted)
        if aux.base_realizable:
            return True
        removed = Counter(pair for _, pair in deleted)
        fully_removed = {
            pair
            for pair, have in aux.pair_counts.items()
            if removed.get(pair, 0) == have
        }
        return any(s <= fully_removed for s in aux.critical_sets)

    def aux_bits(self, aux: CriticalIndex) -> int:
        m = self.handle.domain_size
        bits = 1
        for s in aux.critical_sets:
            bits += len(s) * pair_bits(m)
        bits += len(aux.pair_counts) * count_bits(aux.n)
        return bits
