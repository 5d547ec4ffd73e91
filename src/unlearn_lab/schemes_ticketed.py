"""Ticketed learning-unlearning schemes.

A ticketed scheme's learn returns (answer, aux, tickets): aux lives in
central memory, each ticket, keyed by item id, with the item's owner.
Unlearn takes (deleted entries, aux, the deleted items' tickets), the
one protocol of every scheme (a central scheme's tickets are empty), and
must answer exactly as retraining on the survivors would. Every unlearn
here reads the deleted items' tickets through one check: a repeated id
raises ValueError (core.distinct_ids), an id with no ticket TicketError.
Tickets are trusted structural values; their bit sizes come from the
cost model, not from serialization. The tree schemes' tickets are a
read-only mapping built on access: learn keeps the tree's node-state
levels, and a ticket copies its off-path sibling states (version-space
masks on a finite class) from them when its id is looked up; they are
encoded only where a ticket's size is priced. Tree unlearn answers from
the deleted items' sibling states alone: the AND of the masks on a
finite class, one realizability question about the union of the
encodings' pairs on an oracle.

Known defect: the tree schemes place leaves by position but tickets by
item id, so they are exact only on datasets whose ids are 1..n. On the
gapped ids left by earlier deletions they answer wrongly or raise
IndexError (ROADMAP item 1).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field

from .compression import NodeStates, VsEncoding
from .core import (
    ClassHandle, Dataset, Entry, FiniteClass, _int, _read_pairs, count_bits, distinct_ids,
    pair_cap,
)
from .schemes_central import PreconditionError


class TicketError(ValueError):
    """A ticket needed by unlearning is missing or inconsistent."""


@dataclass(frozen=True, slots=True)
class Ticket:
    """Per-item payload of a tree scheme.

    `leaf` is the item id, read as the item's leaf in the tree (exact
    only while ids are 1..n). `states` holds the node state of the
    off-path subtree at every level, root side first (see
    `compression.NodeStates`); a tree over 2**depth padded leaves yields
    exactly `depth` entries. `encode` is the class's state encoder, and
    `siblings` the states' encodings, computed each time it is read. On
    a FiniteClass a state is a version-space mask, which determines its
    canonical encoding and is determined by it, so a ticket holds exactly
    what `ticket_bits` prices; on an oracle the states are the encodings.
    Tickets compare by leaf and states.
    """

    leaf: int
    states: tuple
    encode: Callable[[object], VsEncoding] = field(repr=False, compare=False)

    @property
    def siblings(self) -> tuple[VsEncoding, ...]:
        return tuple(map(self.encode, self.states))


class TicketView(Mapping[int, Ticket]):
    """The tickets of one tree learn, as a read-only mapping from item id.

    Holds the learned dataset and the tree's node-state levels, leaves
    first and the root level left out. Keys are the dataset's ids in
    entry order; looking one up copies the sibling state of the id's
    leaf at every level into a new `Ticket` and encodes nothing. An id
    is read by `core`'s value rule, so a non-integral one raises
    ValueError and an unknown one `core.UnknownItemError`, a KeyError.
    """

    __slots__ = ("_data", "_levels", "_encode")

    def __init__(
        self, data: Dataset, levels: list[list], encode: Callable[[object], VsEncoding]
    ):
        self._data = data
        self._levels = levels
        self._encode = encode

    def __getitem__(self, item_id: int) -> Ticket:
        if type(item_id) is not int:
            item_id = _int(item_id)
        self._data.pair(item_id)  # raises on an id the dataset lacks
        v, states = item_id - 1, []
        for level in self._levels:
            states.append(level[v ^ 1])
            v >>= 1
        states.reverse()
        return Ticket(item_id, tuple(states), self._encode)

    def __contains__(self, item_id) -> bool:
        # Mapping's default would build the whole ticket and drop it
        return item_id in self._data.by_id

    def __iter__(self) -> Iterator[int]:
        return iter(self._data.by_id)

    def __len__(self) -> int:
        return len(self._data)


def _deleted_tickets(deleted: Sequence[Entry], tickets: Mapping) -> list:
    """The deleted items' tickets in entry order, each id looked up once.

    A repeated id raises ValueError and an id with no ticket TicketError;
    a None ticket is returned as it is.
    """
    distinct_ids(i for i, _ in deleted)
    chosen = []
    for i, _ in deleted:
        try:
            chosen.append(tickets[i])
        except KeyError:
            raise TicketError(f"missing ticket for deleted item {i}") from None
    return chosen


def tree_depth(n: int) -> int:
    """Depth of the tree over n items, padded to 2**depth >= max(n, 1) leaves."""
    return (max(n, 1) - 1).bit_length()


class _AggregationTreeScheme:
    """Shared machinery: a full binary tree of mergeable encodings.

    Leaves hold encodings of single items (identity encodings pad the
    leaf count to a power of two); every internal node is the merge of
    its children, hence the encoding of its whole subtree. The ticket of
    leaf i lists the sibling encodings along the root-to-i path, which is
    exactly what unlearning needs to answer for any survivor set that
    excludes leaf i. The tree is built, kept and read in the node states
    of `compression.NodeStates` (version-space masks on a FiniteClass):
    learn keeps the levels, each ticket copies its sibling states from
    them on lookup, and only `ticket_bits` turns states into encodings.
    `unlearn` is shared; each scheme supplies only `_answer(space)`, where
    `space` is what `NodeStates.version_space` gives for the survivors.
    """

    def __init__(self, handle: ClassHandle, encoding_cap: int | None = None):
        self.handle = handle
        self.states = NodeStates(handle)
        self.encoding_cap = pair_cap(handle.domain_size, encoding_cap)

    def _learn_tree(self, data: Dataset) -> tuple[object, TicketView]:
        """The root's node state and the tickets of a tree over `data`."""
        states, by_id = self.states, data.by_id
        size = 1 << tree_depth(len(by_id))
        # the leaf is the item id: an id above the padded size has no leaf
        if by_id and max(by_id) > size:
            raise IndexError(f"item id above the tree's {size} leaves")
        pad = states.empty
        level = states.leaves(by_id.values())
        level += [pad] * (size - len(level))
        levels = []
        while len(level) > 1:
            levels.append(level)
            nodes = iter(level)  # map draws from it twice per call: siblings 2k, 2k+1
            level = list(map(states.meet, nodes, nodes))
        return level[0], TicketView(data, levels, states.encode)

    def _survivor_space(self, deleted: Sequence[Entry], tickets: Mapping[int, Ticket]):
        """`NodeStates.version_space` of the off-path sibling states of the deleted leaves.

        Only the root paths of the deleted leaves are walked: the off-path
        siblings are the subtrees with no deleted leaf, which cover exactly
        the survivors, so the union of their datasets has the survivors'
        version space.
        """
        chosen = _deleted_tickets(deleted, tickets)
        if any(t is None for t in chosen):
            raise TicketError("a tree scheme's ticket cannot be None")
        depth = len(chosen[0].states)
        if any(len(t.states) != depth for t in chosen):
            raise TicketError("tickets disagree on tree depth")
        size = 1 << depth
        provided: dict[int, object] = {}
        dirty: set[int] = set()
        for (i, _), t in zip(deleted, chosen):
            if not (1 <= t.leaf <= size):
                raise TicketError(f"ticket leaf {t.leaf} lies outside a tree of {size} leaves")
            if t.leaf != i:
                raise TicketError(f"ticket leaf {t.leaf} does not match item {i}")
            v = size + t.leaf - 1
            for state in reversed(t.states):
                if provided.setdefault(v ^ 1, state) != state:
                    raise TicketError(f"inconsistent states for tree node {v ^ 1}")
                dirty.add(v)
                v //= 2
            dirty.add(v)
        return self.states.version_space(provided[v] for v in provided.keys() - dirty)

    def unlearn(self, deleted: Sequence[Entry], aux, tickets: Mapping[int, Ticket]):
        if not deleted:
            return aux
        return self._answer(self._survivor_space(deleted, tickets))

    def ticket_bits(self, ticket: Ticket) -> int:
        m = self.handle.domain_size
        size = 1 << len(ticket.states)
        bits = count_bits(size - 1)
        for enc in ticket.siblings:
            bits += enc.bits(m, self.encoding_cap)
        return bits


class MerkleScheme(_AggregationTreeScheme):
    """Tree scheme for realizability testing: central memory is one bit."""

    def learn(self, data: Dataset) -> tuple[bool, bool, TicketView]:
        root, tickets = self._learn_tree(data)
        # a canonical encoding is realizable exactly when it decodes to yes
        realizable = self.states.encode(root).realizable
        return realizable, realizable, tickets

    def _answer(self, space) -> bool:
        return bool(space)

    def aux_bits(self, aux: bool) -> int:
        return 1


class ErmMerkleScheme(_AggregationTreeScheme):
    """Tree scheme returning the lexicographically minimal consistent hypothesis.

    Valid only while the dataset and every queried survivor stay
    realizable; central memory holds the answer index. Its node states
    are version-space masks, so it answers from a mask.
    """

    def __init__(self, fc: FiniteClass, encoding_cap: int | None = None):
        if not isinstance(fc, FiniteClass):
            raise TypeError("the ERM tree scheme needs an explicit finite class")
        super().__init__(fc, encoding_cap)

    def _answer(self, mask: int) -> int:
        if not mask:
            raise PreconditionError("survivor dataset is not realizable")
        return (mask & -mask).bit_length() - 1  # the lowest member's index

    def learn(self, data: Dataset) -> tuple[int, int, TicketView]:
        root, tickets = self._learn_tree(data)
        answer = self._answer(root)
        return answer, answer, tickets

    def aux_bits(self, aux: int) -> int:
        return (len(self.handle.hypotheses) - 1).bit_length()


@dataclass(frozen=True)
class BlockerInfo:
    """One conflict point and its label counts in the learned dataset."""

    x: int
    n0: int
    n1: int


@dataclass(frozen=True)
class ChainAux:
    n: int
    first: BlockerInfo | None
    second: BlockerInfo | None


@dataclass(frozen=True)
class ChainTicket:
    """Held by items sitting on a blocker: its info plus the successor's."""

    n: int
    current: BlockerInfo
    successor: BlockerInfo | None


class ChainScheme:
    """Logarithmic-size ticketed scheme for the free-prefix class.

    The class realizes every labeling on points 0..d-1 and forces label 0
    beyond. A dataset is unrealizable exactly at its blockers: points
    below d holding both labels, and points at d or above holding a
    1-label. Aux stores the first two blockers; each blocker's items
    carry a ticket naming the next one, so unlearning can walk the chain
    using only tickets of deleted items. Discharging a blocker requires
    deleting every copy of one of its conflicting sides, which guarantees
    the walk always finds the next ticket it needs. Every deleted entry
    must come with its ticket (None for an item on no blocker); an id
    with no ticket raises TicketError, as in the tree schemes.
    """

    def __init__(self, d: int, domain_size: int):
        if not (1 <= d <= domain_size):
            raise ValueError("need 1 <= d <= domain size")
        self.d = d
        self.domain_size = domain_size

    def _blockers(self, counts: Counter) -> list[BlockerInfo]:
        out = []
        for x in range(self.domain_size):
            n0, n1 = counts[x, 0], counts[x, 1]
            if n1 and (n0 or x >= self.d):
                out.append(BlockerInfo(x, n0, n1))
        return out

    def learn(self, data: Dataset) -> tuple[bool, ChainAux, dict[int, ChainTicket | None]]:
        n = len(data)
        counts = Counter(_read_pairs(data, self.domain_size))
        chain = self._blockers(counts)
        by_x = {info.x: i for i, info in enumerate(chain)}
        aux = ChainAux(
            n,
            chain[0] if chain else None,
            chain[1] if len(chain) > 1 else None,
        )
        tickets: dict[int, ChainTicket | None] = {}
        for item_id, (x, _) in data:
            pos = by_x.get(x)
            if pos is None:
                tickets[item_id] = None
            else:
                succ = chain[pos + 1] if pos + 1 < len(chain) else None
                tickets[item_id] = ChainTicket(n, chain[pos], succ)
        return not chain, aux, tickets

    def _discharged(self, info: BlockerInfo, removed: Counter) -> bool:
        return (info.x < self.d and removed[info.x, 0] == info.n0) or removed[info.x, 1] == info.n1

    def unlearn(
        self,
        deleted: Sequence[Entry],
        aux: ChainAux,
        tickets: Mapping[int, ChainTicket | None],
    ) -> bool:
        chosen = _deleted_tickets(deleted, tickets)
        removed = Counter(pair for _, pair in deleted)
        if aux.first is None:
            return True
        if not self._discharged(aux.first, removed):
            return False
        if aux.second is None:
            return True
        current = aux.second
        while True:
            if not self._discharged(current, removed):
                return False
            ticket = next(
                (t for t in chosen if t is not None and t.current.x == current.x), None
            )
            if ticket is None:
                raise TicketError(
                    f"no deleted item carries the ticket of blocker {current.x}"
                )
            if ticket.successor is None:
                return True
            current = ticket.successor

    def _slot_bits(self, n: int) -> int:
        return count_bits(self.domain_size) + 2 * count_bits(n)

    def aux_bits(self, aux: ChainAux) -> int:
        return count_bits(aux.n) + 2 * self._slot_bits(aux.n)

    def ticket_bits(self, ticket: ChainTicket | None) -> int:
        if ticket is None:
            return 0
        return 2 * self._slot_bits(ticket.n)
