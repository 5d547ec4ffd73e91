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
from functools import reduce

from .core import (
    ClassHandle,
    Dataset,
    Entry,
    FiniteClass,
    Pair,
    _read_pairs,
    count_bits,
    dataset_bits,
    distinct_ids,
    erm_lexmin,
    is_realizable,
    pair_bits,
)
from .compression import _prune
from .dimensions import _lattice, _Lattice


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
    hollow star number. It is `compression._prune` without the flip, on
    the support lattice of the call (`_support_on_lattice`).
    """
    support, lat, realizable = _support_on_lattice(handle, data)
    if realizable:
        raise PreconditionError("core extraction needs an unrealizable support")
    return tuple(_prune(lat, sorted(support), flip=False))


def _support_on_lattice(
    handle: ClassHandle, data: Dataset | Iterable[Pair]
) -> tuple[frozenset[Pair], _Lattice, bool]:
    """The normalised support of `data`, one support lattice on `handle`
    for every question of the call (`dimensions._lattice`), and whether
    the support is realizable. Every pair is validated (`core._read_pairs`)
    before the lattice is asked."""
    lat = _lattice(handle)
    support = frozenset(_read_pairs(data, lat.m))
    return support, lat, lat.ok(_state(lat, support))


def _state(lat: _Lattice, pairs: Iterable[Pair]) -> int:
    return reduce(lat.meet, [lat.pairs[x][y] for x, y in pairs], lat.top)


def enumerate_critical_sets(
    handle: ClassHandle, data: Dataset | Iterable[Pair], k: int
) -> set[frozenset[Pair]]:
    """All minimal pair removals of size <= k that make the support realizable.

    Searches prefixes breadth-first, branching only on the greedy core of
    the current survivor: any completion of a prefix to a critical set
    must delete some core pair, so the search is exhaustive while visiting
    at most hollow_star**k prefixes per level. The support is normalised
    and validated once, every support asked about is a difference of it,
    and each is asked once, on the support lattice of the call
    (`_support_on_lattice`).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    support, lat, realizable = _support_on_lattice(handle, data)
    if realizable:
        raise PreconditionError("critical sets are defined for unrealizable data")
    return _critical_sets(lat, support, k)


def _critical_sets(lat: _Lattice, support: frozenset[Pair], k: int) -> set[frozenset[Pair]]:
    # The support is validated and unrealizable, and so is the survivor of every frontier
    # prefix; the caller has already asked the lattice about the support itself.
    found: set[frozenset[Pair]] = set()
    frontier: set[frozenset[Pair]] = {frozenset()}
    for _ in range(k):
        nxt: set[frozenset[Pair]] = set()
        for prefix in frontier:  # each prefix once, so its greedy core once
            for pair in _prune(lat, sorted(support - prefix), flip=False):
                cand = prefix | {pair}
                if cand in found or cand in nxt:
                    continue
                if not lat.ok(_state(lat, support - cand)):
                    nxt.add(cand)
                # minimal if no one-pair-smaller removal works; then no smaller one does
                elif not any(lat.ok(_state(lat, support - (cand - {p}))) for p in cand):
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
        support, lat, realizable = _support_on_lattice(self.handle, data)
        if realizable:
            return True, CriticalIndex(True, self.k, len(data))
        sets = _critical_sets(lat, support, self.k)
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
