"""Exact combinatorial dimensions by bounded exhaustive search.

Computes VC dimension, Littlestone dimension, star number, hollow star
number, eluder dimension, and the minimum identification set, each with a
witness that the matching verifier accepts; a verifier reads its witness
by `core`'s pair rule before it asks anything. VC, star, hollow star,
eluder and Littlestone run on one search engine over the support lattice
(`_Lattice`, one per FiniteClass and one per call on an oracle; see
`_lattice`) and so over any realizability oracle; eluder and Littlestone
share one split recursion and its memo. Only the identification set needs
an explicit hypothesis list. Lattice states are ints on every handle:
version-space masks on a finite class, pair bitmasks (bit 2x+y for the
pair (x, y)) on an oracle, met with a builtin `&` or `|`. An oracle is
asked once per distinct support: a `HalfspaceOracle` by mask, through
the memo it keeps on that key, any other oracle through
`is_realizable_pairs` on a frozenset of pairs built only then. The
critical-set search of `schemes_central` and the compression scan and
prune ask on the same lattices.

Every search but Littlestone's takes a cap of at least 0 and returns the
CAP_EXCEEDED sentinel when a witness larger than the cap exists: of size
cap+1 for the downward-closed VC, star and eluder searches, of the
smallest size above the cap that has one for the hollow search. The
split recursion always runs to the end, so Littlestone is exact on every
handle. The hollow and identification searches skip only point prefixes
that provably cannot be completed, and every search stops at a bound it
can prove, so each returns the witness a full enumeration would return
first:

- star: a star set is realizable, so it holds at most one pair per
  point; a branch ends once the points left cannot lift it above the
  largest set found.
- hollow: removing one pair from a hollow set leaves a star set (it and
  each of its flips lie inside a realizable flip of the hollow set), so
  given the exact star number no size above star+1 is tried. The search
  runs on star frontiers: each point prefix carries only its star
  labelings, grown one point at a time by the star search's own flip
  step, and a candidate of the last point extends one of them.
- split recursion: a state stops splitting once both depths reach its
  ceilings. For a version space V these are |V|-1 (each split leaves two
  non-empty parts) and floor(log2 |V|) (a complete depth-d tree needs
  2^d hypotheses); for a pair bitmask both are its u unlabeled points
  (only those split, and each split labels one). Littlestone depth u
  needs the state to shatter those points, and then its first split
  already gives u; so once one split has been read below u, u-1 is the
  Littlestone ceiling.
- VC: a shattered set of k points, split in order along every path, is
  a complete depth-k mistake tree, so given the Littlestone dimension no
  larger size is tried.
- identification set: a point where two hypotheses differ and nowhere
  else lies in every identification set, so only supersets of these
  forced points are tried.

The single-dimension calls use the star, split and forced-point bounds;
`compute_dims` runs the split recursion first and the star search before
the hollow one, and so uses all five. On a finite class the searches are
exact at their default caps; the split recursion takes half to two
thirds of `compute_dims`'s time, and the star, VC and hollow searches
most of the rest. Every recursive search is a module-level function
that takes its memo or lattice as arguments, so a search leaves no
reference cycle behind.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import and_, or_
from typing import Iterable

from .core import (
    ClassHandle, FiniteClass, Pair, _check_pair, _mask_pairs, _read_pairs, is_realizable
)
from .geometry import HalfspaceOracle

CAP_EXCEEDED = "cap-exceeded"

# the default cap of `compute_dims` on an oracle, which has no provable maxima;
# a scheme's budget (`report.scheme_bound`, the CLI's --dim-cap) defaults to it too
ORACLE_CAP = 6

DimValue = int | str  # a natural or the CAP_EXCEEDED sentinel


class _Lattice:
    """The support lattice of one search: int states, a builtin meet and a test.

    `top` is the state of the empty support, `pairs[x][y]` the state of
    {(x, y)}, `meet(a, b)` the state of the union of two supports and
    `ok(s)` whether its support is realizable. For a FiniteClass a state
    is a version-space mask: the meet is `&`, `ok` is `!= 0`, and every
    support with the same version space is one state. For an oracle a
    state is the support's pair bitmask, with bit 2x+y for the pair
    (x, y): `top` is 0, the meet is `|`, and `ok` memoizes the oracle's
    answers on the mask (`_memoized`), so searches that share a lattice
    share its queries. On a `HalfspaceOracle` the memo is the oracle's
    own, keyed on the same mask, and no pairs are built; on any other
    oracle only a support the memo has not seen is built as a frozenset
    of pairs and asked. `ceilings(s)` bounds the eluder and Littlestone
    depths below a realizable state, and third the Littlestone depth once
    one split of the state has read less than the second bound. Searches
    get their lattice from `_lattice`.
    """

    __slots__ = ("m", "top", "pairs", "meet", "ok", "ceilings")

    def __init__(self, handle: ClassHandle):
        m = self.m = handle.domain_size
        if isinstance(handle, FiniteClass):
            # through vs_mask, as every version-space computation; once per class (`_lattice`)
            self.top = handle.vs_mask(())
            self.pairs = tuple(
                (handle.vs_mask(((x, 0),)), handle.vs_mask(((x, 1),))) for x in range(m)
            )
            self.meet = and_
            self.ok = bool
            self.ceilings = _version_ceilings
        else:
            self.top = 0
            self.pairs = tuple((1 << 2 * x, 2 << 2 * x) for x in range(m))
            self.meet = or_
            even = int("0" + "01" * m, 2)  # bit 2x: label 0 of point x
            self.ok = _memoized(handle, even)
            self.ceilings = _free_ceilings(m, even)


def _lattice(handle: ClassHandle) -> _Lattice:
    """The support lattice of one search on `handle`.

    A FiniteClass's lattice holds no memo, so one is built per class and
    kept in its `_derived` table; an oracle's holds the memo of the
    search, so each call builds a fresh one (on a `HalfspaceOracle` that
    memo is the oracle's own, which outlives the call).
    """
    if not isinstance(handle, FiniteClass):
        return _Lattice(handle)
    lat = handle._derived.get("lattice")
    if lat is None:
        lat = handle._derived["lattice"] = _Lattice(handle)
    return lat  # type: ignore[return-value]


def _version_ceilings(mask: int) -> tuple[int, int, int]:
    """|V|-1 and floor(log2 |V|) (twice) for a non-empty version space V."""
    size = mask.bit_count()
    log = size.bit_length() - 1
    return size - 1, log, log


def _free_ceilings(m: int, even: int):
    """The ceilings of a pair bitmask over m points: its u unlabeled points
    for both depths, and u-1 for Littlestone once a split has read less.
    `even` has bit 2x set for every point x."""

    def ceilings(state: int) -> tuple[int, int, int]:
        free = m - ((state | state >> 1) & even).bit_count()
        return free, free, free - 1

    return ceilings


def _memoized(handle: ClassHandle, even: int):
    """The oracle's answers on pair bitmasks, memoized; a support holding
    both labels of a point is unrealizable without a call (`even` has bit
    2x set for every point x of the domain).

    A `HalfspaceOracle` keeps the memo: its `_memo` is keyed on the pair
    bitmask, and a miss goes to its `_decide`, as in its own entry. Any
    other oracle, a subclass or proxy of one included, is asked
    `is_realizable_pairs` on a frozenset of pairs, built once per
    support, and its answers are memoized here.
    """
    if type(handle) is HalfspaceOracle:
        memo, decide = handle._memo, handle._decide
    else:
        memo = {}

        def decide(state: int) -> bool:
            return handle.is_realizable_pairs(frozenset(_mask_pairs(state)))

    def ok(state: int) -> bool:
        cached = memo.get(state)
        if cached is None:
            if state & state >> 1 & even:
                return False
            cached = memo[state] = decide(state)
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
    return _grow(lat, size, 0, (), [lat.top])


def _grow(lat: _Lattice, size: int, start: int, points: tuple[int, ...], table: list):
    if len(points) == size:
        yield points, table
        return
    meet = lat.meet
    for x in range(start, lat.m - size + len(points) + 1):
        s0, s1 = lat.pairs[x]
        grown = [t for s in table for t in (meet(s, s0), meet(s, s1))]
        yield from _grow(lat, size, x + 1, points + (x,), grown)


class _CapHit(Exception):
    def __init__(self, witness):
        self.witness = witness


def _vc_search(
    lat: _Lattice, cap: int, littlestone: int | None = None
) -> tuple[DimValue, tuple[int, ...]]:
    # A shattered set of k points, split in order along every path, is a
    # complete depth-k mistake tree: no size above Littlestone is tried.
    top = cap + 1 if littlestone is None else min(cap + 1, littlestone)
    best, witness = 0, ()
    for k in range(1, top + 1):
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
    try:
        best = _star_extend(lat, cap, (0, ()), (), lat.top, [], 0)
    except _CapHit as hit:
        return CAP_EXCEEDED, hit.witness
    return best[0], best[1]


def _star_extend(
    lat: _Lattice, cap: int, best: tuple, cand: tuple[Pair, ...], state, flips: list, next_x: int
) -> tuple:
    # Along the DFS, flips[i] is the state of the current set with its
    # i-th label flipped; adding a pair meets each with it. Returns the
    # largest star set found so far as (size, set). A star set is
    # realizable, so it holds at most one pair per point: once the points
    # left cannot grow `cand` past the best, no extension can replace it.
    meet, ok, pairs, m = lat.meet, lat.ok, lat.pairs, lat.m
    size = len(cand)
    for x in range(next_x, m):
        if size + m - x <= best[0]:
            break
        for y in (0, 1):
            grown = meet(state, pairs[x][y])
            if not ok(grown):
                continue
            grown_f = _grown_flips(lat, state, flips, x, y)
            if grown_f is None:
                continue
            star = cand + ((x, y),)
            if len(star) == cap + 1:
                raise _CapHit(star)
            if len(star) > best[0]:
                best = (len(star), star)
            best = _star_extend(lat, cap, best, star, grown, grown_f, x + 1)
    return best


def _grown_flips(lat: _Lattice, state, flips: list, x: int, y: int) -> list | None:
    meet, ok, p = lat.meet, lat.ok, lat.pairs[x][y]
    out = []
    for f in flips:
        f = meet(f, p)
        if not ok(f):
            return None
        out.append(f)
    last = meet(state, lat.pairs[x][1 - y])
    if not ok(last):
        return None
    out.append(last)
    return out


def _find_hollow(lat: _Lattice, size: int) -> tuple[Pair, ...] | None:
    # A set holding both labels of one point is unrealizable outright; any
    # further pair keeps it unrealizable under flips, so such sets only
    # qualify at size exactly 2, when both singletons are realizable.
    # Larger candidates have distinct points.
    #
    # Star frontiers: each prefix of j < size points carries only its star
    # labelings. Removing the last pair of a hollow set leaves a star set
    # (it lies inside the flip at that point, and each of its flips inside
    # the hollow set's flip there), so a hollow labeling extends a star
    # labeling of its first size-1 points, and those of its first j points
    # too, star sets being closed under removing a pair. A prefix with no
    # star labeling is dropped. Points run in lexicographic order and each
    # frontier in product order, so the first witness found is the one the
    # full enumeration finds.
    if size == 2:
        ok = lat.ok
        for x, (s0, s1) in enumerate(lat.pairs):
            if ok(s0) and ok(s1):
                return ((x, 0), (x, 1))
    return _hollow_extend(lat, size, 0, [((), lat.top, [])])


def _hollow_extend(lat: _Lattice, size: int, start: int, frontier: list):
    # `frontier` holds (labeling, state, flip states) for the star
    # labelings of one prefix, as `_star_extend` carries them.
    meet, ok, pairs = lat.meet, lat.ok, lat.pairs
    depth = len(frontier[0][0])
    if depth == size - 1:
        for x in range(start, lat.m):
            for cand, state, flips in frontier:
                for y in (0, 1):
                    if not ok(meet(state, pairs[x][y])):
                        if _grown_flips(lat, state, flips, x, y) is not None:
                            return cand + ((x, y),)
        return None
    for x in range(start, lat.m - size + depth + 1):
        p = pairs[x]
        grown = []
        for cand, state, flips in frontier:
            for y in (0, 1):
                s = meet(state, p[y])
                if ok(s) and (grown_f := _grown_flips(lat, state, flips, x, y)) is not None:
                    grown.append((cand + ((x, y),), s, grown_f))
        if grown:
            found = _hollow_extend(lat, size, x + 1, grown)
            if found is not None:
                return found
    return None


def _hollow_search(
    lat: _Lattice, cap: int, star: DimValue = CAP_EXCEEDED
) -> tuple[DimValue, tuple[Pair, ...] | None]:
    # Hollow sets are not closed under taking smaller sizes, so a value
    # within the cap is trusted only once no larger set exists: sizes
    # cap+1 up to the largest possible are tried first. A hollow set of
    # more than 2 pairs has distinct points, so none is larger than
    # max(m, 2). Removing one pair from a hollow set leaves a star set
    # (it and each of its flips lie inside a realizable flip of the
    # hollow set), so given the exact star number none exceeds star+1.
    largest = max(lat.m, 2)
    if star != CAP_EXCEEDED:
        largest = min(largest, star + 1)
    for size in range(cap + 1, largest + 1):
        witness = _find_hollow(lat, size)
        if witness is not None:
            return CAP_EXCEEDED, witness
    for size in range(min(cap, largest), 0, -1):
        witness = _find_hollow(lat, size)
        if witness is not None:
            return size, witness
    return 0, None


def _split_search(lat: _Lattice, cap: int) -> tuple[tuple, tuple]:
    """(eluder value, sequence) within `cap` and (Littlestone value, tree),
    both read from one memo of `_split_depths`."""
    memo: dict[object, tuple[int, Pair | None, int]] = {}
    total, _, ldim = _split_depths(lat, memo, lat.top)
    seq: list[Pair] = []
    state = lat.top
    while (move := memo[state][1]) is not None:
        seq.append(move)
        state = lat.meet(state, lat.pairs[move[0]][move[1]])
    witness = tuple(seq)
    eluder = (CAP_EXCEEDED, witness[: cap + 1]) if total > cap else (total, witness)
    return eluder, (ldim, _littlestone_tree(lat, memo, lat.top, ldim))


def _split_depths(lat: _Lattice, memo: dict, state) -> tuple[int, Pair | None, int]:
    # Eluder depth, its first deepest move, and Littlestone depth below a
    # realizable state. Both split the state at every point whose two
    # labels are still realizable; eluder takes 1 + the deeper child, and
    # Littlestone 1 + the shallower. Which points split depends only on the
    # state, so the memo is keyed on it. No point can recur along a path
    # (once constrained, it never splits again), so both depths are <= m.
    # Once both depths reach the state's ceilings, no later point can
    # raise either, nor change the first deepest move. After the first
    # split the Littlestone ceiling is the third value of `ceilings`.
    # The caller reads memo hits, so every call computes a new state.
    meet, ok, get = lat.meet, lat.ok, memo.get
    e_ceil, l_ceil, l_split = lat.ceilings(state)
    best, move, ldim = 0, None, 0
    for x, (p0, p1) in enumerate(lat.pairs):
        if best >= e_ceil and ldim >= l_ceil:
            break
        s0 = meet(state, p0)
        if not ok(s0):
            continue
        s1 = meet(state, p1)
        if not ok(s1):
            continue
        e0, _, l0 = get(s0) or _split_depths(lat, memo, s0)
        e1, _, l1 = get(s1) or _split_depths(lat, memo, s1)
        if e0 >= best:
            best, move = 1 + e0, (x, 0)
        if e1 >= best:
            best, move = 1 + e1, (x, 1)
        if l0 > l1:
            l0 = l1
        if l0 >= ldim:
            ldim = 1 + l0
        l_ceil = l_split
    hit = memo[state] = (best, move, ldim)
    return hit


def _littlestone_tree(lat: _Lattice, memo: dict, state, depth: int):
    # The first splitting point whose children both reach depth-1; every
    # child asked here was asked by _split_depths, so an oracle sees no
    # new support.
    if depth == 0:
        return None
    meet, ok = lat.meet, lat.ok
    for x, (p0, p1) in enumerate(lat.pairs):
        s0, s1 = meet(state, p0), meet(state, p1)
        if ok(s0) and ok(s1) and min(memo[s0][2], memo[s1][2]) >= depth - 1:
            left = _littlestone_tree(lat, memo, s0, depth - 1)
            return (x, left, _littlestone_tree(lat, memo, s1, depth - 1))
    raise AssertionError("no splitting point at positive remaining depth")


def _mis_search(fc: FiniteClass) -> tuple[int, ...]:
    # s points split the class into at most 2^s cells, so no set of fewer
    # than log2 |H| points identifies it. A point where two hypotheses
    # differ and nowhere else is forced: every identification set holds
    # it. Only supersets F ∪ R of the forced set F are tried, by R in
    # lexicographic order. That is their own order: for sorted sets of
    # one size, A < B exactly when min(A Δ B) lies in A, and here
    # A Δ B = R Δ R'.
    forced = _forced_points(fc)
    free = [x for x in range(fc.domain_size) if x not in forced]
    cells = _refine(fc, [fc.full_mask], forced)
    n_h = len(fc.hypotheses)
    for size in range(max((n_h - 1).bit_length(), len(forced)), fc.domain_size + 1):
        found = _identify(fc, free, size - len(forced), 0, cells)
        if found is not None:
            return tuple(sorted(forced + found))
    raise AssertionError("full domain always identifies a deduplicated class")


def _forced_points(fc: FiniteClass) -> tuple[int, ...]:
    """The points at which some two hypotheses differ and nowhere else."""
    rows = {sum(b << x for x, b in enumerate(row)) for row in fc.hypotheses}
    return tuple(
        x for x in range(fc.domain_size) if any(r ^ (1 << x) in rows for r in rows)
    )


def _refine(fc: FiniteClass, cells: list[int], points: Iterable[int]) -> list[int]:
    """The non-empty parts of `cells` that agree on every point of `points`."""
    for x in points:
        p0, p1 = fc.pair_mask(x, 0), fc.pair_mask(x, 1)
        cells = [d for c in cells for d in (c & p0, c & p1) if d]
    return cells


def _identify(fc: FiniteClass, free: list[int], need: int, start: int, cells: list[int]):
    """The first `need` points of free[start:], in lexicographic order,
    that split `cells` into single hypotheses, or None.

    `cells` are the non-empty hypothesis masks that agree on the points
    chosen so far. Each further point at most doubles them, so a prefix
    with len(cells) << need < |H| is dropped.
    """
    n_h = len(fc.hypotheses)
    if need == 0:
        return () if len(cells) == n_h else None
    if len(cells) << need < n_h:
        return None
    for i in range(start, len(free) - need + 1):
        x = free[i]
        found = _identify(fc, free, need - 1, i + 1, _refine(fc, cells, (x,)))
        if found is not None:
            return (x,) + found
    return None


def min_identification_set(fc: FiniteClass) -> tuple[int, ...]:
    """Smallest point set on which hypothesis labels are pairwise distinct."""
    return _mis_search(fc)


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
    return _vc_search(_lattice(handle), _caps(handle, cap)["vc"])[0]


def star_number(handle: ClassHandle, cap: int | None = None) -> DimValue:
    return _star_search(_lattice(handle), _caps(handle, cap)["star"])[0]


def hollow_star_number(handle: ClassHandle, cap: int | None = None) -> DimValue:
    return _hollow_search(_lattice(handle), _caps(handle, cap)["hollow_star"])[0]


def eluder_dimension(handle: ClassHandle, cap: int | None = None) -> DimValue:
    return _split_search(_lattice(handle), _caps(handle, cap)["eluder"])[0][0]


def littlestone_dimension(handle: ClassHandle) -> int:
    return _split_search(_lattice(handle), handle.domain_size)[1][0]


# Witness verifiers. Each reads its witness through core._read_pairs, builds every
# support it needs explicitly and asks core.is_realizable, so it shares no code with
# the searches above.

def _flips_realizable(handle: ClassHandle, fs: frozenset[Pair]) -> bool:
    return all(is_realizable(handle, (fs - {(x, y)}) | {(x, 1 - y)}) for x, y in fs)


def verify_shattered(handle: ClassHandle, points: Iterable[int]) -> bool:
    pts = tuple(x for x, _ in _read_pairs(((x, 0) for x in points), handle.domain_size))
    if len(set(pts)) != len(pts):
        return False
    return all(
        is_realizable(handle, zip(pts, labels)) for labels in product((0, 1), repeat=len(pts))
    )


def verify_star_set(handle: ClassHandle, pairs: Iterable[Pair]) -> bool:
    fs = frozenset(_read_pairs(pairs, handle.domain_size))
    return is_realizable(handle, fs) and _flips_realizable(handle, fs)


def verify_hollow_star_set(handle: ClassHandle, pairs: Iterable[Pair]) -> bool:
    fs = frozenset(_read_pairs(pairs, handle.domain_size))
    return bool(fs) and not is_realizable(handle, fs) and _flips_realizable(handle, fs)


def verify_eluder_sequence(handle: ClassHandle, seq: Iterable[Pair]) -> bool:
    fs: frozenset[Pair] = frozenset()
    for x, y in _read_pairs(seq, handle.domain_size):
        if not (is_realizable(handle, fs | {(x, 0)}) and is_realizable(handle, fs | {(x, 1)})):
            return False
        fs = fs | {(x, y)}
    return True


def verify_identification_set(fc: FiniteClass, points: Iterable[int]) -> bool:
    pts = [x for x, _ in _read_pairs(((x, 0) for x in points), fc.domain_size)]
    restrictions = {tuple(row[x] for x in pts) for row in fc.hypotheses}
    return len(restrictions) == len(fc.hypotheses)


def verify_littlestone_tree(handle: ClassHandle, tree: object, depth: int) -> bool:
    """A complete depth-d tree all of whose branches are realizable."""
    return _realizable_branches(handle, tree, frozenset(), depth)


def _realizable_branches(handle: ClassHandle, node, pairs: frozenset[Pair], remaining: int) -> bool:
    if remaining == 0:
        return is_realizable(handle, pairs)
    if node is None:
        return False
    x, left, right = node
    x, _ = _check_pair((x, 0), handle.domain_size)
    # both subtrees are walked, so a node outside the domain raises wherever it sits
    left_ok = _realizable_branches(handle, left, pairs | {(x, 0)}, remaining - 1)
    right_ok = _realizable_branches(handle, right, pairs | {(x, 1)}, remaining - 1)
    return left_ok and right_ok


@dataclass(frozen=True)
class DimReport:
    """All computed dimensions plus the certifying witnesses."""

    vc: DimValue
    littlestone: int
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
    `cap` (default ORACLE_CAP, 6) for every capped search and skip only the
    identification set, which needs the hypothesis list; Littlestone has
    no cap and is exact on every handle.
    """
    lat = _lattice(handle)
    finite = isinstance(handle, FiniteClass)
    caps = _caps(handle, ORACLE_CAP if cap is None and not finite else cap)

    # the exact Littlestone dimension bounds VC, and the star number hollow
    (eluder, eluder_w), (ls, ls_tree) = _split_search(lat, caps["eluder"])
    vc, vc_w = _vc_search(lat, caps["vc"], ls)
    star, star_w = _star_search(lat, caps["star"])
    hollow, hollow_w = _hollow_search(lat, caps["hollow_star"], star)
    mis_w = min_identification_set(handle) if finite else None
    mis = None if mis_w is None else len(mis_w)

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
