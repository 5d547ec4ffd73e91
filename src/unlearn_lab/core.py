"""Hypothesis classes, labeled datasets, version spaces, and bit-cost accounting.

Domain points are dense integer ids 0..m-1. A labeled pair is a tuple
(x, y) with y in {0, 1}. Whether a dataset is realizable depends only on
its set of distinct labeled pairs; multiplicities matter only when items
are deleted. All types are immutable values and every operation is a pure
function, so everything here is safe to share across threads.

Every entry of the library reads its values through two rules kept here.
The value rule (`_int`): an id, label or hypothesis index is accepted when
it equals an int, and it is read as that int, so `True`, `1.0` and
`Fraction(2)` are read as 1, 1 and 2, while `1.5`, `Fraction(1, 2)`,
`'1'`, `None` and `inf` raise ValueError naming the value. The pair rule
(`_check_pair`): a pair is any two values (a tuple or a list) read by the
value rule, whose point lies in 0..m-1 and whose label is 0 or 1; it is
returned as an int tuple, and anything else raises ValueError. An entry
over a class reads a `Dataset` or an iterable of pairs through
`_read_pairs`, which checks every pair before the entry asks any
question. A `Dataset` has no domain, so it applies the value rule and the
label check alone.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from types import MappingProxyType
from typing import Protocol, runtime_checkable

Pair = tuple[int, int]
Entry = tuple[int, Pair]  # (item id, labeled pair)


class OracleError(RuntimeError):
    """A realizability oracle failed to produce an answer."""


class UnknownItemError(KeyError):
    """A deletion referenced an item id that is not in the dataset."""


@runtime_checkable
class RealizabilityOracle(Protocol):
    """Black box answering realizability on finite labeled supports.

    Answers must be deterministic and downward monotone: if a support is
    realizable, every subset of it is realizable too.
    """

    domain_size: int

    def is_realizable_pairs(self, pairs: Iterable[Pair]) -> bool: ...


def _int(value) -> int:
    """The value rule (module docstring): `value` as the int it equals."""
    if type(value) is int:
        return value
    try:
        as_int = int(value)
    except (TypeError, ValueError, OverflowError):
        as_int = None
    if as_int is None or as_int != value:
        raise ValueError(f"{value!r} is not an integer")
    return as_int


def _check_pair(pair, m: int) -> Pair:
    """The pair rule (module docstring): `pair` as an int pair over m points."""
    x, y = pair
    if type(x) is not int or type(y) is not int:
        x, y = _int(x), _int(y)
    if not (0 <= x < m):
        raise ValueError(f"point id {x} outside domain of size {m}")
    if not (0 <= y <= 1):
        raise ValueError(f"label must be 0 or 1, got {y!r}")
    return x, y


def _read_pairs(data: Dataset | Iterable[Pair], m: int) -> list[Pair]:
    """The pairs of a `Dataset` or an iterable in order, each through `_check_pair`."""
    return [_check_pair(pair, m) for pair in (data.pairs() if isinstance(data, Dataset) else data)]


def _mask_pairs(mask: int) -> list[Pair]:
    """The pairs of a pair bitmask (bit 2*x + y for the pair (x, y)), lowest bit first."""
    return [(b >> 1, b & 1) for b in range(mask.bit_length()) if mask >> b & 1]


class FiniteClass:
    """An explicit hypothesis class: deduplicated {0,1}-rows over m points.

    Hypotheses are indexed 0..len-1 in construction order (after removing
    duplicate rows). Internally each (x, y) pair maps to a bitmask of the
    hypotheses consistent with it, so version-space computations are
    integer AND-folds.
    """

    __slots__ = (
        "domain_size",
        "hypotheses",
        "_masks",
        "_full_mask",
        "_canon_cache",
        "_derived",
    )

    def __init__(self, domain_size: int, hypotheses: Iterable[Sequence[int]]):
        if domain_size < 1:
            raise ValueError("domain size must be at least 1")
        rows: list[tuple[int, ...]] = []
        seen = set()
        for row in hypotheses:
            t = tuple(row)
            if len(t) != domain_size:
                raise ValueError("hypothesis row length must equal domain size")
            if any(b not in (0, 1) for b in t):
                raise ValueError("hypothesis rows must be 0/1 valued")
            if t not in seen:
                seen.add(t)
                rows.append(t)
        if not rows:
            raise ValueError("a hypothesis class needs at least one hypothesis")
        self.domain_size = domain_size
        self.hypotheses: tuple[tuple[int, ...], ...] = tuple(rows)
        full = (1 << len(rows)) - 1
        masks = []
        for x in range(domain_size):
            m1 = 0
            for i, row in enumerate(rows):
                if row[x]:
                    m1 |= 1 << i
            masks.append((full ^ m1, m1))
        self._masks: tuple[tuple[int, int], ...] = tuple(masks)
        self._full_mask = full
        # insert-only memo tables: canonical encodings by mask, and the class's support lattice
        self._canon_cache: dict[int, object] = {}
        self._derived: dict[str, object] = {}

    def __len__(self) -> int:
        return len(self.hypotheses)

    def __repr__(self) -> str:
        return f"FiniteClass(m={self.domain_size}, hypotheses={len(self.hypotheses)})"

    @property
    def full_mask(self) -> int:
        return self._full_mask

    def pair_mask(self, x: int, y: int) -> int:
        return self._masks[x][y]

    def vs_mask(self, pairs: Dataset | Iterable[Pair]) -> int:
        """Bitmask of hypotheses consistent with every given pair.

        Every pair is validated (`_read_pairs`), also those after the one
        that empties the version space.
        """
        mask, masks = self._full_mask, self._masks
        for x, y in _read_pairs(pairs, self.domain_size):
            mask &= masks[x][y]
        return mask

    def mask_to_indices(self, mask: int) -> frozenset[int]:
        return frozenset(i for i in range(len(self.hypotheses)) if mask >> i & 1)

    def indices_to_mask(self, indices: Iterable[int]) -> int:
        mask = 0
        for i in map(_int, indices):
            if not (0 <= i < len(self.hypotheses)):
                raise ValueError(f"hypothesis index {i} out of range")
            mask |= 1 << i
        return mask

    def is_realizable_pairs(self, pairs: Iterable[Pair]) -> bool:
        return self.vs_mask(pairs) != 0


class FiniteClassOracle:
    """Wraps a FiniteClass exposing only the realizability-oracle surface."""

    __slots__ = ("domain_size", "_fc")

    def __init__(self, fc: FiniteClass):
        self._fc = fc
        self.domain_size = fc.domain_size

    def is_realizable_pairs(self, pairs: Iterable[Pair]) -> bool:
        return self._fc.is_realizable_pairs(pairs)


def as_oracle(fc: FiniteClass) -> FiniteClassOracle:
    return FiniteClassOracle(fc)


# A ClassHandle is either a FiniteClass or any realizability oracle.
ClassHandle = FiniteClass | RealizabilityOracle


class Dataset:
    """An indexed multiset of labeled pairs.

    Each item carries a stable id. Fresh datasets number items 1..n by
    position; removal keeps the surviving items' original ids, which is
    what deletion-by-index semantics require.

    A dataset holds one ordered dict from id to pair, in entry order;
    `by_id` is a read-only view of it, and `entries` builds the (id, pair)
    tuple from it on each read. `remove` validates the query, copies the
    dict and deletes the removed ids: it touches each survivor once, in C,
    and builds no tuple. `len`, iteration, `pairs()`, `support()` and
    `distinct_pairs()` read the dict directly and keep nothing: each
    `support()` is a fresh Counter that its caller may change.
    """

    __slots__ = ("_by_id",)

    def __init__(self, entries: Iterable[Entry]):
        by_id = {}
        for i, (x, y) in entries:
            i, pair = _int(i), (_int(x), _int(y))
            if i < 1:
                raise ValueError("item ids must be positive")
            if i in by_id:
                raise ValueError(f"duplicate item id {i}")
            if pair[1] not in (0, 1):
                raise ValueError("labels must be 0 or 1")
            by_id[i] = pair
        self._by_id = by_id

    @classmethod
    def _trusted(cls, by_id: dict[int, Pair]) -> "Dataset":
        """A dataset over an id -> normalized pair dict whose ids are known to be valid."""
        out = cls.__new__(cls)
        out._by_id = by_id
        return out

    @classmethod
    def from_pairs(cls, pairs: Iterable[Pair]) -> "Dataset":
        norm = [(_int(x), _int(y)) for x, y in pairs]
        if not {y for _, y in norm} <= {0, 1}:
            raise ValueError("labels must be 0 or 1")
        return cls._trusted(dict(zip(range(1, len(norm) + 1), norm)))  # ids 1..n need no check

    @property
    def entries(self) -> tuple[Entry, ...]:
        """The (id, pair) entries in entry order."""
        return tuple(self._by_id.items())

    @property
    def by_id(self) -> Mapping[int, Pair]:
        """A read-only view of the id -> pair dict, in entry order."""
        return MappingProxyType(self._by_id)

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[Entry]:
        return iter(self._by_id.items())

    def __repr__(self) -> str:
        return f"Dataset({list(self)!r})"

    def ids(self) -> frozenset[int]:
        return frozenset(self._by_id)

    def pair(self, item_id: int) -> Pair:
        try:
            return self._by_id[item_id]
        except KeyError:
            raise UnknownItemError(item_id) from None

    def pairs(self) -> tuple[Pair, ...]:
        return tuple(self._by_id.values())

    def support(self) -> Counter:
        return Counter(self._by_id.values())

    def distinct_pairs(self) -> frozenset[Pair]:
        return frozenset(self._by_id.values())

    def remove(self, indices: Iterable[int]) -> "Dataset":
        idx = validate_query(self, indices)
        # the survivors were validated and normalized when this dataset was built
        by_id = self._by_id.copy()
        for i in idx:
            del by_id[i]
        return Dataset._trusted(by_id)

    def entries_for(self, indices: Iterable[int]) -> tuple[Entry, ...]:
        idx = validate_query(self, indices)
        return tuple((i, self._by_id[i]) for i in sorted(idx))


def distinct_ids(indices: Iterable[int]) -> frozenset[int]:
    """The ids of a query as a set; a repeated id raises ValueError."""
    seen = set()
    for i in indices:
        if i in seen:
            raise ValueError(f"duplicate index {i} in query")
        seen.add(i)
    return frozenset(seen)


def validate_query(data: Dataset, indices: Iterable[int]) -> frozenset[int]:
    """Check an index set against a dataset: ids read by the value rule, no
    duplicates, ids known."""
    ids = distinct_ids(i if type(i) is int else _int(i) for i in indices)
    for i in sorted(ids):
        if i not in data._by_id:
            raise UnknownItemError(i)
    return ids


def support_pairs(data: Dataset | Iterable[Pair]) -> frozenset[Pair]:
    """The distinct pairs of `data`, read as a `Dataset` reads them: the
    value rule and the label check, with no domain."""
    return (data if isinstance(data, Dataset) else Dataset.from_pairs(data)).distinct_pairs()


def is_realizable(handle: ClassHandle, data: Dataset | Iterable[Pair]) -> bool:
    """True iff some hypothesis agrees with every distinct pair of the data.

    Multiplicities are irrelevant; the empty dataset is always realizable.
    A pair outside the domain raises ValueError, also in a support that
    holds both labels of some point. Oracle failures propagate as
    OracleError.
    """
    return _realizable_support(handle, frozenset(_read_pairs(data, handle.domain_size)))


def _realizable_support(handle: ClassHandle, pairs: frozenset[Pair]) -> bool:
    """`is_realizable` on a support of int pairs.

    A support with two pairs on one point holds both of its labels, or an
    invalid one, which the validation below raises; the handle validates
    any other support. (`is_realizable` has validated every pair already.)
    """
    if len({x for x, _ in pairs}) != len(pairs):
        for pair in pairs:
            _check_pair(pair, handle.domain_size)
        return False
    return handle.is_realizable_pairs(pairs)


def version_space(fc: FiniteClass, data: Dataset | Iterable[Pair]) -> frozenset[int]:
    """Exact set of hypothesis indices consistent with the data."""
    return fc.mask_to_indices(fc.vs_mask(data))


def erm_lexmin(fc: FiniteClass, data: Dataset | Iterable[Pair]) -> int:
    """Smallest hypothesis index among 0-1-loss minimizers.

    Loss weights each distinct pair by its multiplicity. On realizable
    data this returns the minimum index of the version space, which makes
    the answer canonical under permutation of items.
    """
    weights = Counter(_read_pairs(data, fc.domain_size))
    best_i = 0
    best_loss = None
    for i, row in enumerate(fc.hypotheses):
        loss = 0
        for (x, y), c in weights.items():
            if row[x] != y:
                loss += c
        if best_loss is None or loss < best_loss:
            best_loss = loss
            best_i = i
    return best_i


# Bit-cost model. Storage is never serialized; these formulas make
# "number of bits" a deterministic measurable.

def pair_bits(m: int) -> int:
    """Cost of one labeled pair: ceil(log2(2m))."""
    if m < 1:
        raise ValueError("domain size must be at least 1")
    return (2 * m - 1).bit_length()


def count_bits(n: int) -> int:
    """Cost of a count in 0..n: ceil(log2(n+1))."""
    if n < 0:
        raise ValueError("counts are nonnegative")
    return n.bit_length()


def encoding_bits(n_pairs: int, m: int, cap: int) -> int:
    """Length header for a pair list of at most `cap` pairs, plus payload."""
    if n_pairs > cap:
        raise ValueError(f"encoding of {n_pairs} pairs exceeds configured cap {cap}")
    return count_bits(cap) + n_pairs * pair_bits(m)


def pair_cap(m: int, cap: int | None) -> int:
    """The pair cap of an encoding's length header over m points: `cap`,
    or by default 2m, the number of distinct pairs."""
    return 2 * m if cap is None else cap


def dataset_bits(n: int, m: int) -> int:
    """Cost of storing an n-item dataset verbatim."""
    return count_bits(n) + n * pair_bits(m)
