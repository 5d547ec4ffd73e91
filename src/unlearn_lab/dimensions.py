"""Exact combinatorial dimensions by bounded exhaustive search.

Computes VC dimension, Littlestone dimension, star number, hollow star
number, eluder dimension, and the minimum identification set, each with a
witness that the matching verifier accepts. VC, star, hollow star and
eluder run on one search engine over the support lattice (`_Lattice`) and
so over any realizability oracle; Littlestone and the identification set
need an explicit hypothesis list.

Every search takes a cap of at least 0 and returns the CAP_EXCEEDED
sentinel when a witness of size cap+1 exists. On a finite class the
searches are exact at their default caps; with m=12 points and |H|=64
hypotheses `compute_dims` takes about half a second (Python 3.11 on a
2-vCPU virtual machine). The hollow search tries every labeled support
larger than the answer, so its cost grows as 3^m and sets the limit of
that scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable

from .core import ClassHandle, FiniteClass, Pair, _check_pair, is_realizable

CAP_EXCEEDED = "cap-exceeded"

DimValue = int | str  # a natural or the CAP_EXCEEDED sentinel


class _Lattice:
    """The support lattice of one search: opaque states, a meet and a test.

    `top` is the state of the empty support, `pairs[x][y]` the state of
    {(x, y)}, `meet(a, b)` the state of the union of two supports and
    `ok(s)` whether its support is realizable. For a FiniteClass a state
    is a version-space mask: the meet is `&`, `ok` is `!= 0`, and every
    support with the same version space is one state. For an oracle a
    state is the support itself, the meet is union, and `ok` memoizes the
    oracle's answers, so searches that share a lattice share its queries.
    """

    __slots__ = ("m", "top", "pairs", "meet", "ok")

    def __init__(self, handle: ClassHandle):
        m = self.m = handle.domain_size
        if isinstance(handle, FiniteClass):
            # through vs_mask, once each, so pairs are validated as usual
            self.top = handle.vs_mask(())
            self.pairs = tuple(
                (handle.vs_mask(((x, 0),)), handle.vs_mask(((x, 1),))) for x in range(m)
            )
            self.meet = int.__and__
            self.ok = bool
        else:
            self.top = frozenset()
            self.pairs = tuple((frozenset({(x, 0)}), frozenset({(x, 1)})) for x in range(m))
            self.meet = frozenset.union
            self.ok = _memoized(handle)


def _memoized(handle: ClassHandle):
    """The oracle's answers, memoized; a support holding both labels of a
    point is unrealizable without a call."""
    memo: dict[frozenset[Pair], bool] = {}

    def ok(pairs: frozenset[Pair]) -> bool:
        cached = memo.get(pairs)
        if cached is None:
            cached = memo[pairs] = not any(
                (x, 1 - y) in pairs for x, y in pairs
            ) and handle.is_realizable_pairs(pairs)
        return cached

    return ok


def _tables(lat: _Lattice, size: int):
    """Every size-point combination in lexicographic order, with the states
    of its 2^size labelings.

    Labeling `lab` gives the i-th point the label in bit size-1-i of
    `lab`, so a table runs in `product((0, 1), repeat=size)` order and
    flipping the i-th label is `lab ^ (1 << (size-1-i))`. Combinations
    that share a prefix share the prefix's table.
    """
    m, meet, pairs = lat.m, lat.meet, lat.pairs

    def grow(start: int, points: tuple[int, ...], table: list):
        if len(points) == size:
            yield points, table
            return
        for x in range(start, m - size + len(points) + 1):
            s0, s1 = pairs[x]
            grown = [t for s in table for t in (meet(s, s0), meet(s, s1))]
            yield from grow(x + 1, points + (x,), grown)

    return grow(0, (), [lat.top])


class _CapHit(Exception):
    def __init__(self, witness):
        self.witness = witness


def _vc_search(lat: _Lattice, cap: int) -> tuple[DimValue, tuple[int, ...]]:
    best, witness = 0, ()
    for k in range(1, cap + 2):
        found = next((pts for pts, table in _tables(lat, k) if all(map(lat.ok, table))), None)
        if found is None:
            break  # shattering is downward closed
        if k == cap + 1:
            return CAP_EXCEEDED, found
        best, witness = k, found
    return best, witness


def _star_search(lat: _Lattice, cap: int) -> tuple[DimValue, tuple[Pair, ...]]:
    # Star sets are downward closed under removing a pair, so DFS over
    # point-sorted extensions with the full property check is exhaustive.
    # Along the DFS, flips[i] is the state of the current set with its
    # i-th label flipped; adding a pair meets each with it.
    meet, ok, pairs = lat.meet, lat.ok, lat.pairs
    best: tuple[int, tuple[Pair, ...]] = (0, ())

    def grown_flips(state, flips: list, x: int, y: int) -> list | None:
        p = pairs[x][y]
        out = []
        for f in flips:
            f = meet(f, p)
            if not ok(f):
                return None
            out.append(f)
        last = meet(state, pairs[x][1 - y])
        if not ok(last):
            return None
        out.append(last)
        return out

    def extend(cand: tuple[Pair, ...], state, flips: list, next_x: int):
        nonlocal best
        for x in range(next_x, lat.m):
            for y in (0, 1):
                grown = meet(state, pairs[x][y])
                if not ok(grown):
                    continue
                grown_f = grown_flips(state, flips, x, y)
                if grown_f is None:
                    continue
                star = cand + ((x, y),)
                if len(star) == cap + 1:
                    raise _CapHit(star)
                if len(star) > best[0]:
                    best = (len(star), star)
                extend(star, grown, grown_f, x + 1)

    try:
        extend((), lat.top, [], 0)
    except _CapHit as hit:
        return CAP_EXCEEDED, hit.witness
    return best[0], best[1]


def _find_hollow(lat: _Lattice, size: int) -> tuple[Pair, ...] | None:
    # A set holding both labels of one point is unrealizable outright; any
    # further pair keeps it unrealizable under flips, so such sets only
    # qualify at size exactly 2, when both singletons are realizable.
    # Larger candidates have distinct points.
    ok = lat.ok
    if size == 2:
        for x, (s0, s1) in enumerate(lat.pairs):
            if ok(s0) and ok(s1):
                return ((x, 0), (x, 1))
    flips = [1 << i for i in range(size)]
    for points, table in _tables(lat, size):
        for lab, state in enumerate(table):
            if not ok(state) and all(ok(table[lab ^ f]) for f in flips):
                return tuple((x, lab >> (size - 1 - i) & 1) for i, x in enumerate(points))
    return None


def _hollow_search(lat: _Lattice, cap: int) -> tuple[DimValue, tuple[Pair, ...] | None]:
    for size in range(cap + 1, 0, -1):
        witness = _find_hollow(lat, size)
        if witness is not None:
            if size == cap + 1:
                return CAP_EXCEEDED, witness
            return size, witness
    return 0, None


def _eluder_search(lat: _Lattice, cap: int) -> tuple[DimValue, tuple[Pair, ...]]:
    # Longest extension depth from a realizable constraint support. Which
    # points are ambiguous depends only on the state, so the memo is keyed
    # on it. No point can recur in a sequence (once constrained, it is
    # never ambiguous again), so depth <= m.
    meet, ok, pairs = lat.meet, lat.ok, lat.pairs
    memo: dict[object, tuple[int, Pair | None]] = {}

    def depth(state) -> tuple[int, Pair | None]:
        hit = memo.get(state)
        if hit is not None:
            return hit
        best, move = 0, None
        for x, (p0, p1) in enumerate(pairs):
            s0 = meet(state, p0)
            if ok(s0) and ok(s1 := meet(state, p1)):
                for y, child in ((0, s0), (1, s1)):
                    d, _ = depth(child)
                    if 1 + d > best:
                        best, move = 1 + d, (x, y)
        memo[state] = (best, move)
        return best, move

    total, _ = depth(lat.top)
    seq: list[Pair] = []
    state = lat.top
    while True:
        _, move = memo[state]
        if move is None:
            break
        seq.append(move)
        state = meet(state, pairs[move[0]][move[1]])
    witness = tuple(seq)
    if total > cap:
        return CAP_EXCEEDED, witness[: cap + 1]
    return total, witness


def _littlestone(fc: FiniteClass) -> tuple[int, object]:
    memo: dict[int, tuple[int, int | None]] = {}

    def ldim(mask: int) -> tuple[int, int | None]:
        hit = memo.get(mask)
        if hit is not None:
            return hit
        best, pick = 0, None
        for x in range(fc.domain_size):
            m0 = mask & fc.pair_mask(x, 0)
            m1 = mask & fc.pair_mask(x, 1)
            if m0 and m1:
                cand = 1 + min(ldim(m0)[0], ldim(m1)[0])
                if cand > best:
                    best, pick = cand, x
        memo[mask] = (best, pick)
        return best, pick

    value, _ = ldim(fc.full_mask)

    def tree(mask: int, depth: int):
        if depth == 0:
            return None
        for x in range(fc.domain_size):
            m0 = mask & fc.pair_mask(x, 0)
            m1 = mask & fc.pair_mask(x, 1)
            if m0 and m1 and min(ldim(m0)[0], ldim(m1)[0]) >= depth - 1:
                return (x, tree(m0, depth - 1), tree(m1, depth - 1))
        raise AssertionError("no splitting point at positive remaining depth")

    return value, tree(fc.full_mask, value)


def littlestone_dimension(fc: FiniteClass) -> int:
    return _littlestone(fc)[0]


def _mis_search(fc: FiniteClass) -> tuple[int, ...]:
    n_h = len(fc.hypotheses)
    for size in range(fc.domain_size + 1):
        for points in combinations(range(fc.domain_size), size):
            restrictions = {tuple(row[x] for x in points) for row in fc.hypotheses}
            if len(restrictions) == n_h:
                return points
    raise AssertionError("full domain always identifies a deduplicated class")


def min_identification_set(fc: FiniteClass) -> tuple[int, ...]:
    """Smallest point set on which hypothesis labels are pairwise distinct."""
    cached = fc._derived.get("mis")
    if cached is None:
        cached = _mis_search(fc)
        fc._derived["mis"] = cached
    return cached  # type: ignore[return-value]


def _caps(handle: ClassHandle, cap: int | None) -> dict[str, int]:
    """Cap of each search: `cap` for all four, or the handle's defaults.

    On a finite class the defaults are the provable maxima. A cap below 0
    raises ValueError: no search can answer within it.
    """
    if cap is not None:
        if cap < 0:
            raise ValueError(f"dimension caps must be at least 0, got {cap}")
        return dict.fromkeys(("vc", "star", "hollow_star", "eluder"), cap)
    m = handle.domain_size
    eluder = min(m, len(handle.hypotheses) - 1) if isinstance(handle, FiniteClass) else m
    return {"vc": m, "star": m, "hollow_star": m + 1, "eluder": eluder}


def vc_dimension(handle: ClassHandle, cap: int | None = None) -> DimValue:
    return _vc_search(_Lattice(handle), _caps(handle, cap)["vc"])[0]


def star_number(handle: ClassHandle, cap: int | None = None) -> DimValue:
    return _star_search(_Lattice(handle), _caps(handle, cap)["star"])[0]


def hollow_star_number(handle: ClassHandle, cap: int | None = None) -> DimValue:
    return _hollow_search(_Lattice(handle), _caps(handle, cap)["hollow_star"])[0]


def eluder_dimension(handle: ClassHandle, cap: int | None = None) -> DimValue:
    return _eluder_search(_Lattice(handle), _caps(handle, cap)["eluder"])[0]


# Witness verifiers. Each builds every support it needs explicitly and asks
# core.is_realizable, so it shares no code with the searches above.

def _checked(handle: ClassHandle, pairs: Iterable[Pair]) -> tuple[Pair, ...]:
    out = tuple(pairs)
    for pair in out:
        _check_pair(pair, handle.domain_size)
    return out


def _flips_realizable(handle: ClassHandle, fs: frozenset[Pair]) -> bool:
    return all(is_realizable(handle, (fs - {(x, y)}) | {(x, 1 - y)}) for x, y in fs)


def verify_shattered(handle: ClassHandle, points: Iterable[int]) -> bool:
    pts = tuple(points)
    _checked(handle, ((x, 0) for x in pts))
    if len(set(pts)) != len(pts):
        return False
    return all(
        is_realizable(handle, zip(pts, labels)) for labels in product((0, 1), repeat=len(pts))
    )


def verify_star_set(handle: ClassHandle, pairs: Iterable[Pair]) -> bool:
    fs = frozenset(_checked(handle, pairs))
    return is_realizable(handle, fs) and _flips_realizable(handle, fs)


def verify_hollow_star_set(handle: ClassHandle, pairs: Iterable[Pair]) -> bool:
    fs = frozenset(_checked(handle, pairs))
    return bool(fs) and not is_realizable(handle, fs) and _flips_realizable(handle, fs)


def verify_eluder_sequence(handle: ClassHandle, seq: Iterable[Pair]) -> bool:
    fs: frozenset[Pair] = frozenset()
    for x, y in _checked(handle, seq):
        if not (is_realizable(handle, fs | {(x, 0)}) and is_realizable(handle, fs | {(x, 1)})):
            return False
        fs = fs | {(x, y)}
    return True


def verify_identification_set(fc: FiniteClass, points: Iterable[int]) -> bool:
    pts = tuple(points)
    restrictions = {tuple(row[x] for x in pts) for row in fc.hypotheses}
    return len(restrictions) == len(fc.hypotheses)


def verify_littlestone_tree(fc: FiniteClass, tree: object, depth: int) -> bool:
    """A complete depth-d tree all of whose branches are realizable."""

    def walk(node, pairs: frozenset[Pair], remaining: int) -> bool:
        if remaining == 0:
            return fc.vs_mask(pairs) != 0
        if node is None:
            return False
        x, left, right = node
        return walk(left, pairs | {(x, 0)}, remaining - 1) and walk(
            right, pairs | {(x, 1)}, remaining - 1
        )

    return walk(tree, frozenset(), depth)


@dataclass(frozen=True)
class DimReport:
    """All computed dimensions plus the certifying witnesses."""

    vc: DimValue
    littlestone: int | None
    star: DimValue
    hollow_star: DimValue
    eluder: DimValue
    mis: int | None
    witnesses: dict | None
    caps: dict

    def to_json_dict(self) -> dict:
        out = {
            "vc": self.vc,
            "littlestone": self.littlestone,
            "star": self.star,
            "hollow_star": self.hollow_star,
            "eluder": self.eluder,
            "mis": self.mis,
            "caps": dict(self.caps),
        }
        if self.witnesses is not None:
            out["witnesses"] = {
                k: _witness_json(v) for k, v in self.witnesses.items()
            }
        return out


def _witness_json(w):
    if w is None:
        return None
    if isinstance(w, tuple) and w and isinstance(w[0], tuple):
        return [list(p) for p in w]
    if isinstance(w, tuple):
        return list(w)
    return w


def compute_dims(
    handle: ClassHandle, cap: int | None = None, witnesses: bool = True
) -> DimReport:
    """Compute every dimension the handle supports, with witnesses.

    For finite classes the default caps are the provable maxima, so the
    values are exact and the sentinel cannot appear. Oracle classes use
    `cap` (default 6) for every search and skip Littlestone and the
    identification set.
    """
    lat = _Lattice(handle)
    finite = isinstance(handle, FiniteClass)
    caps = _caps(handle, 6 if cap is None and not finite else cap)

    vc, vc_w = _vc_search(lat, caps["vc"])
    star, star_w = _star_search(lat, caps["star"])
    hollow, hollow_w = _hollow_search(lat, caps["hollow_star"])
    eluder, eluder_w = _eluder_search(lat, caps["eluder"])
    if finite:
        ls, ls_tree = _littlestone(handle)
        mis_w = _mis_search(handle)
        mis: int | None = len(mis_w)
    else:
        ls, ls_tree, mis_w, mis = None, None, None, None

    wit = None
    if witnesses:
        wit = {
            "vc": vc_w,
            "littlestone": ls_tree,
            "star": star_w,
            "hollow_star": hollow_w,
            "eluder": eluder_w,
            "mis": mis_w,
        }
    return DimReport(
        vc=vc,
        littlestone=ls,
        star=star,
        hollow_star=hollow,
        eluder=eluder,
        mis=mis,
        witnesses=wit,
        caps=caps,
    )
