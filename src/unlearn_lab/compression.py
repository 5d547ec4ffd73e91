"""Version-space compression and mergeable encodings.

An encoding is a short canonical pair list (or an unrealizable marker)
from which the exact version space of the original dataset can be
recovered. For finite classes encodings are pure functions of the
version space, which makes Merge(Enc(S1), Enc(S2)) = Enc(S1 u S2) hold
structurally. For oracle classes the same operations run on
realizability queries alone; encodings then satisfy the merge laws
semantically (equal decoded version spaces) rather than structurally.

The informative-subsequence scan and the star prune run on the support
lattice that `dimensions._lattice` builds (version-space masks met with
`&` on a FiniteClass, the class's one lattice; memoized pair bitmasks met
with `|` on an oracle, a fresh lattice per call), so an oracle encoding
asks each support once, its kept set's realizability included, and the
canonical finite encoding is the same prune on masks. Every entry reads
its pairs by `core`'s pair rule (`core._read_pairs`), so a bad pair raises
before anything is asked, also one after an early stop.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from functools import partial, reduce
from itertools import accumulate
from operator import and_

from .core import (
    ClassHandle,
    Dataset,
    FiniteClass,
    Pair,
    _read_pairs,
    encoding_bits,
    is_realizable,
)
from .dimensions import _lattice, _Lattice, min_identification_set


class NotAVersionSpaceError(ValueError):
    """The given hypothesis subset is not the version space of any dataset."""


@dataclass(frozen=True)
class VsEncoding:
    """Compressed dataset: canonical sorted pairs, or the unrealizable marker.

    The unrealizable marker stores both labels of the lexicographically
    first domain point, which decodes to the empty version space.
    """

    realizable: bool
    pairs: tuple[Pair, ...]

    def bits(self, m: int, cap: int) -> int:
        return encoding_bits(len(self.pairs), m, cap)


def unrealizable_marker() -> VsEncoding:
    return VsEncoding(False, ((0, 0), (0, 1)))


def eluder_subsequence(handle: ClassHandle, data: Dataset | Iterable[Pair]) -> list[Pair]:
    """Scan items in order, keeping a pair only while it is still informative.

    A pair (x, y) is kept when the hypotheses consistent with the kept
    prefix disagree at x. If they instead force the opposite label, the
    pair is kept and the scan stops: the data is unrealizable and the
    kept set already witnesses it. The kept set always has the same
    version space as the input and at most eluder+1 pairs. The scan runs
    on the support lattice (`_scan`), so a repeated pair asks nothing.
    """
    return _scan(_lattice(handle), _read_pairs(data, handle.domain_size))[0]


def _scan(lat: _Lattice, pairs: Iterable[Pair]) -> tuple[list[Pair], int]:
    """The informative subsequence of valid int `pairs` (see `eluder_subsequence`)
    and its state.

    The state is unrealizable exactly when the scan stopped early, and its
    answer is in the lattice's memo.
    """
    meet, ok, states = lat.meet, lat.ok, lat.pairs
    kept, state = [], lat.top
    for x, y in pairs:
        with_y = meet(state, states[x][y])
        if not ok(with_y):
            kept.append((x, y))
            return kept, with_y
        if ok(meet(state, states[x][1 - y])):
            kept.append((x, y))
            state = with_y
    return kept, state


def _prune(lat: _Lattice, pairs: Sequence[Pair], flip: bool = True) -> list[Pair]:
    """`star_prune` on a lattice, for distinct valid pairs.

    Pair i is kept exactly when ok(before ∧ rest_i ∧ flip_i) holds:
    `before` is the meet of the pairs kept so far, `rest_i` that of every
    pair after i and `flip_i` the state of pair i's flip. So each pair
    costs three meets and one question, and no pair is asked about again.
    Without the flip, pair i is kept exactly when ok(before ∧ rest_i)
    holds, that is when removing it from the pairs still kept leaves a
    realizable set: on an unrealizable support in canonical order, that
    is the greedy core (`schemes_central.minimal_unrealizable_core`).
    """
    meet, ok, states = lat.meet, lat.ok, lat.pairs
    own = [states[x][y] for x, y in pairs]
    rests = list(accumulate(own[:0:-1], meet, initial=lat.top))[::-1]
    kept, before = [], lat.top
    for (x, y), state, rest in zip(pairs, own, rests):
        if ok(meet(meet(before, rest), states[x][1 - y] if flip else lat.top)):
            kept.append((x, y))
            before = meet(before, state)
    return kept


def star_prune(handle: ClassHandle, kept: Sequence[Pair]) -> list[Pair]:
    """Drop, in order, every pair whose removal leaves the version space unchanged.

    Removal leaves the version space unchanged exactly when replacing the
    pair by its flip is unrealizable alongside the rest. When the result
    is realizable it is a star set, so its size is at most the star number.
    """
    # duplicates never change the version space, drop them up front
    pairs = list(dict.fromkeys(_read_pairs(kept, handle.domain_size)))
    return _prune(_lattice(handle), pairs)


def _canonical_from_mask(fc: FiniteClass, mask: int) -> VsEncoding:
    cached = fc._canon_cache.get(mask)
    if cached is not None:
        return cached  # type: ignore[return-value]
    if mask == 0:
        enc = unrealizable_marker()
    else:
        full = fc.full_mask
        agreed = [
            (x, y)
            for x in range(fc.domain_size)
            for y in (0, 1)
            if (agree := fc.pair_mask(x, y)) != full and mask & agree == mask
        ]
        if fc.vs_mask(agreed) != mask:
            raise NotAVersionSpaceError(
                "hypothesis subset is not the version space of any dataset"
            )
        # lexicographic-order prune, so the result is a function of the mask
        enc = VsEncoding(True, tuple(_prune(_lattice(fc), agreed)))
    fc._canon_cache[mask] = enc
    return enc


def canonical_dataset(fc: FiniteClass, vs: Iterable[int]) -> VsEncoding:
    """Canonical compressed dataset of a version space.

    Scans the domain in lexicographic order, adding a pair wherever the
    version space is unanimous but the full class is not, then star_prune.
    Raises NotAVersionSpaceError when the given subset is not a version
    space; the empty subset maps to the unrealizable marker.
    """
    return _canonical_from_mask(fc, fc.indices_to_mask(vs))


def vs_encode(handle: ClassHandle, data: Dataset | Iterable[Pair]) -> VsEncoding:
    """Compress a dataset to a canonical encoding of its version space."""
    if isinstance(handle, FiniteClass):
        return _canonical_from_mask(handle, handle.vs_mask(data))
    return _lattice_encoding(_lattice(handle), _read_pairs(data, handle.domain_size))


def _lattice_encoding(lat: _Lattice, pairs: Iterable[Pair]) -> VsEncoding:
    """An oracle's encoding of valid int `pairs`: the informative subsequence,
    star-pruned and sorted, or the marker if the scan stopped early."""
    kept, state = _scan(lat, pairs)
    if not lat.ok(state):  # a memo hit, unless nothing was kept
        return unrealizable_marker()
    return VsEncoding(True, tuple(sorted(_prune(lat, kept))))


def decode_mask(fc: FiniteClass, enc: VsEncoding) -> int:
    if not enc.realizable:
        return 0
    return fc.vs_mask(enc.pairs)


def vs_decode(fc: FiniteClass, enc: VsEncoding) -> frozenset[int]:
    """Exact version space represented by an encoding."""
    return fc.mask_to_indices(decode_mask(fc, enc))


def merge(handle: ClassHandle, e1: VsEncoding, e2: VsEncoding) -> VsEncoding:
    """Encoding of the union of the two encoded datasets."""
    if isinstance(handle, FiniteClass):
        return _canonical_from_mask(handle, decode_mask(handle, e1) & decode_mask(handle, e2))
    return vs_encode(handle, tuple(e1.pairs) + tuple(e2.pairs))


def mergeable_decode(handle: ClassHandle, enc: VsEncoding) -> bool:
    """Yes iff the encoded dataset is realizable."""
    if isinstance(handle, FiniteClass):
        return decode_mask(handle, enc) != 0
    return enc.realizable


class NodeStates:
    """The node states of an aggregation tree over one class handle.

    `empty` is the state of the empty dataset (padding leaves),
    `leaves(pairs)` the states of the one-item datasets in order,
    `meet(a, b)` the state of the union of two datasets, `encode(s)` its
    canonical encoding, and `version_space(states)` the version space of
    the union of the given states' datasets, as far as the handle can
    give it. For a FiniteClass a state is a version-space mask: the meet
    is `&`, each distinct pair of a `leaves` call (the tuples a `Dataset`
    holds) goes through `vs_mask`, and so through `core`'s pair rule,
    once, on its first occurrence, `encode` reads the mask-keyed canonical
    cache, and `version_space` is the AND of the masks, so neither
    building a tree nor answering from its states decodes or encodes
    anything. For an oracle a state is the encoding itself, equal to what
    `vs_encode` and `merge` give, and `encode` is the identity; `leaves`
    reads its pairs through `core._read_pairs` before it encodes any. Its
    states are built on one support lattice (`_lattice_encoding`), so
    every tree built through one `NodeStates` asks the oracle once per
    distinct support; `empty` is asked when the adapter is made. An oracle has no masks, so its `version_space` is only
    whether the space is non-empty: one `is_realizable` on the union of
    the encodings' pairs, which has the version space of the union of the
    encoded datasets. Either way the result is truthy exactly when that
    union is realizable.
    """

    __slots__ = ("empty", "leaves", "meet", "encode", "version_space")

    def __init__(self, handle: ClassHandle):
        if isinstance(handle, FiniteClass):
            full = self.empty = handle.full_mask
            self.leaves = lambda pairs: list(map(_LeafMasks(handle).__getitem__, pairs))
            self.meet = and_
            self.encode = partial(_canonical_from_mask, handle)
            self.version_space = lambda masks: reduce(and_, masks, full)
        else:
            encoding = partial(_lattice_encoding, _lattice(handle))
            self.empty = encoding(())
            self.leaves = lambda pairs: [
                encoding((p,)) for p in _read_pairs(pairs, handle.domain_size)
            ]
            self.meet = lambda a, b: encoding(a.pairs + b.pairs)
            self.encode = lambda enc: enc
            self.version_space = lambda encs: is_realizable(
                handle, frozenset().union(*(enc.pairs for enc in encs))
            )


class _LeafMasks(dict):
    """Single-pair version-space masks of one class, each computed on first lookup."""

    __slots__ = ("fc",)

    def __init__(self, fc: FiniteClass):
        self.fc = fc

    def __missing__(self, pair: Pair) -> int:
        mask = self[pair] = self.fc.vs_mask((pair,))
        return mask


def mergeable_triple(
    handle: ClassHandle,
) -> tuple[Callable, Callable, Callable]:
    """(Encode, Merge, Decode) of this module's encodings, bound to one handle."""
    return partial(vs_encode, handle), partial(merge, handle), partial(mergeable_decode, handle)


def mergeable_to_vs_decode(
    fc: FiniteClass,
    triple: tuple[Callable, Callable, Callable],
    enc,
) -> frozenset[int]:
    """Recover a version space from any mergeable triple's encoding.

    Tests each hypothesis by merging the encoding with the encoding of
    that hypothesis' full graph: the merge decodes to yes exactly when
    the hypothesis was consistent with the originally encoded data.
    """
    encode, merge_fn, decode = triple
    members = set()
    for i, row in enumerate(fc.hypotheses):
        graph = tuple((x, row[x]) for x in range(fc.domain_size))
        if decode(merge_fn(enc, encode(graph))):
            members.add(i)
    return frozenset(members)


def lu_to_vs_adapter(scheme, fc: FiniteClass, data: Dataset | Iterable[Pair]):
    """Turn an exact central scheme into a version-space compression.

    Encodes S as the scheme's auxiliary state on the dataset made of S's
    informative subsequence plus both labels of every identification-set
    point. The returned decoder deletes, per hypothesis, the label it
    disagrees with on the identification set; the scheme answers yes
    exactly for members of the version space of S.

    Returns (aux, decoder) where decoder(aux) yields hypothesis indices.
    """
    kept = eluder_subsequence(fc, data)
    ident = min_identification_set(fc)
    pairs = list(kept)
    for x in ident:
        pairs.append((x, 0))
        pairs.append((x, 1))
    learned = Dataset.from_pairs(pairs)
    _, aux = scheme.learn(learned)
    base = len(kept)

    def decoder(encoding) -> frozenset[int]:
        members = set()
        for i, row in enumerate(fc.hypotheses):
            deleted = []
            for pos, x in enumerate(ident):
                bad = 1 - row[x]
                deleted.append((base + 2 * pos + 1 + bad, (x, bad)))
            if scheme.unlearn(deleted, encoding, {}):
                members.add(i)
        return frozenset(members)

    return aux, decoder
