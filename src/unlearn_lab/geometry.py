"""Exact halfspace machinery over the rationals.

Strict linear separability of finite point sets is decided by reducing to
the margin-1 feasibility system (w.x - b >= 1 on positives, <= -1 on
negatives) and eliminating variables by exact Fourier-Motzkin (FM). Each
row is kept as Python integers: a point's row is scaled by the lcm of its
denominators, a combined row is an integer positive combination, and
rows are deduplicated on their coefficients divided by their gcd.
Back-substitution keeps the point as integer numerators over one
positive denominator, so only the returned witness is made of
Fractions. Floating point never enters: the constructions of interest
sit at margins around 1/d, where rounding would misclassify.

HalfspaceOracle indexes the labelings its separators give: each
separator FM returns is recorded as full labelings of the domain (the
points on its hyperplane all on label 1 in one, all on label 0 in the
other), and a support that some recorded labeling agrees with is
realizable without a solve. When FM finds a support unrealizable, it
names the input rows its contradiction combines (Farkas' lemma), and the
oracle keeps their pairs as an unrealizable core: a support that holds a
recorded core is unrealizable without a solve. Such answers run no FM
and so never reach the row cap. Answers are memoized on the support's
pair bitmask (bit 2x+y for the pair (x, y)), the one key the cores and
the support lattice of `dimensions` share: `is_realizable_pairs` reads
its pairs by the pair rule of `core` and folds them into it, and the
lattice asks by mask, so its questions build no pairs.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd, isqrt, lcm
from operator import and_, mul

from .core import Dataset, OracleError, Pair, _mask_pairs, _read_pairs

Point = tuple[Fraction, ...]

DEFAULT_ROW_CAP = 20000


class SeparabilityCapExceeded(RuntimeError):
    """Fourier-Motzkin elimination blew past the configured row budget."""


def as_point(coords: Iterable) -> Point:
    return tuple(Fraction(c) for c in coords)


def _integers(values: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """Rationals as (their numerators over the lcm of their denominators, that lcm)."""
    den = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def _margin_row(point: Point, label: int) -> tuple[tuple[int, ...], int]:
    """The margin-1 row of one point over (w, b), scaled to integers.

    A positive asks w.x - b >= 1, a negative w.x - b <= -1; both are
    written as coeffs . (w, b) <= rhs and multiplied by the lcm of the
    point's denominators, so rhs is negative.
    """
    ints, den = _integers(point)
    if label:
        return tuple(-c for c in ints) + (den,), -den
    return ints + (-den,), -den


def _clean(rows):
    """Keep one row per direction, the one with the smallest rhs.

    Rows are (coeffs, rhs, mask) with rhs < 0 and are keyed on their
    coefficients divided by their gcd, so rows that are positive multiples
    of each other share a key; right-hand sides are compared per unit of
    that gcd by cross-multiplication, and the first row wins on ties. A
    kept row keeps its mask. A trivial row (all coefficients 0) reads
    0 <= rhs < 0, so the mask of the first one is returned instead, if
    there is one.
    """
    out = {}
    for coeffs, rhs, mask in rows:
        g = gcd(*coeffs)
        if not g:
            return mask
        key = coeffs if g == 1 else tuple(c // g for c in coeffs)
        prev = out.get(key)
        if prev is None or rhs * prev[1] < prev[0][1] * g:
            out[key] = ((coeffs, rhs, mask), g)
    cleaned = []
    for (coeffs, rhs, mask), g in out.values():
        common = gcd(g, rhs)  # the row's own scale, divided out to keep integers small
        if common > 1:
            coeffs, rhs = tuple(c // common for c in coeffs), rhs // common
        cleaned.append((coeffs, rhs, mask))
    return cleaned


def _fm_point(rows, nvars: int, cap: int) -> tuple[list[int], int] | int:
    """Feasible point of {coeffs . v <= rhs} over integer rows, or a Farkas mask.

    Rows are (coeffs, rhs, mask) with rhs < 0 (margin rows, `_margin_row`),
    where the mask's set bits name the input rows the row combines: input
    row i carries 1 << i, and a combined row the OR of its parents' masks.
    Eliminates one occupied variable per level (fewest pos*neg pairings
    first), recurses, then back-substitutes a value inside the bounds the
    eliminated rows impose. Every row is kept in integers: a combined row
    is an integer positive combination of its parents, so the rows are the
    rows of rational elimination up to positive scale, and the point found
    is the same. It is returned as (numerators, positive denominator), the
    numerators over the lcm of the coordinates' denominators.

    A combined row is a positive combination of exactly the input rows in
    its mask, so its rhs stays negative, and a trivial one (0 <= rhs < 0)
    shows by Farkas' lemma that those rows alone are infeasible. When the
    system is infeasible, that mask is returned.
    """
    rows = _clean(rows)
    if type(rows) is int:
        return rows
    best = None
    for v, column in enumerate(zip(*[coeffs for coeffs, _, _ in rows])):
        occupied = len(column) - column.count(0)
        if occupied:
            p = sum(map((0).__lt__, column))  # positive entries, counted in C
            key = p * (occupied - p), occupied  # pos*neg pairings, then occupancy
            if best is None or key < best[0]:
                best = key, v
    if best is None:
        return [0] * nvars, 1
    e = best[1]
    pos = [r for r in rows if r[0][e] > 0]
    neg = [r for r in rows if r[0][e] < 0]
    new_rows = [r for r in rows if not r[0][e]]
    for pc, pr, pm in pos:
        a = pc[e]
        for nc, nr, nm in neg:
            b = -nc[e]
            # coefficient e cancels: b*a + a*(-b) == 0
            new_rows.append(
                (tuple([b * x + a * y for x, y in zip(pc, nc)]), b * pr + a * nr, pm | nm)
            )
            if len(new_rows) > cap:
                raise SeparabilityCapExceeded(
                    f"elimination produced more than {cap} constraints"
                )
    sub = _fm_point(new_rows, nvars, cap)
    if type(sub) is int:
        return sub
    # sub is ints/den, and ints[e] is 0 because no row below this level holds e.
    # A row bounds v_e by (rhs*den - coeffs.ints) / (coeffs[e]*den); bounds are
    # kept as (numerator, positive denominator) and compared by cross-multiplying.
    ints, den = sub
    lo = None
    hi = None
    for coeffs, rhs, _ in neg:  # coeff negative: lower bound
        num = sum(map(mul, coeffs, ints)) - rhs * den
        bound = num, -coeffs[e] * den
        if lo is None or num * lo[1] > lo[0] * bound[1]:
            lo = bound
    for coeffs, rhs, _ in pos:
        num = rhs * den - sum(map(mul, coeffs, ints))
        bound = num, coeffs[e] * den
        if hi is None or num * hi[1] < hi[0] * bound[1]:
            hi = bound
    if lo is not None and hi is not None:
        num, vden = lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1]
    else:
        num, vden = lo if lo is not None else hi
    g = gcd(num, vden)
    num, vden = num // g, vden // g
    # over the lcm of the denominators, as _integers would put it
    common = lcm(den, vden)
    if common != den:
        scale = common // den
        ints = [v * scale for v in ints]
    ints[e] = num * (common // vden)
    return ints, common


def _solve(rows, nvars: int, cap: int) -> tuple[list[Fraction], list[int]] | int:
    """FM point of a margin-1 system, checked in integers against every row.

    Returns the point and its numerators over the lcm of its
    denominators, or, when the system is infeasible, the int mask of an
    infeasible subset of the rows (bit i for rows[i]).
    """
    found = _fm_point([(coeffs, rhs, 1 << i) for i, (coeffs, rhs) in enumerate(rows)], nvars, cap)
    if type(found) is int:
        return found
    ints, den = found
    if any(sum(map(mul, coeffs, ints)) > rhs * den for coeffs, rhs in rows):
        raise OracleError("Fourier-Motzkin returned a point that does not separate")
    return [Fraction(v, den) for v in ints], ints


def strictly_separable(
    positives: Sequence[Iterable], negatives: Sequence[Iterable]
) -> tuple[bool, tuple[Point, Fraction] | None]:
    """Decide strict separability of two finite rational point sets.

    Returns (True, (w, b)) with an exact witness satisfying w.x > b on
    every positive and w.x < b on every negative, or (False, None).
    Fourier-Motzkin runs under `DEFAULT_ROW_CAP`, read at call time, and
    raises SeparabilityCapExceeded past it.
    """
    pos = [as_point(p) for p in positives]
    neg = [as_point(q) for q in negatives]
    pts = pos + neg
    if not pts:
        return True, ((), Fraction(0))
    d = len(pts[0])
    if any(len(p) != d for p in pts):
        raise ValueError("all points must share one dimension")
    rows = [_margin_row(p, 1) for p in pos] + [_margin_row(q, 0) for q in neg]
    found = _solve(rows, d + 1, DEFAULT_ROW_CAP)  # variables w_0..w_{d-1}, b
    if type(found) is int:
        return False, None
    sol = found[0]
    return True, (tuple(sol[:d]), sol[d])


def _frac_sqrt(value: Fraction) -> Fraction:
    num, den = value.numerator, value.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise ValueError("l2 norm is irrational; use the l1 norm for exact margins")
    return Fraction(rn, rd)


def margin(
    w: Iterable, b, labeled_points: Sequence[tuple[Iterable, int]], norm: str = "l1"
) -> Fraction:
    """Smallest normalized signed slack of a strict separator.

    Slack of (x, 1) is w.x - b and of (x, 0) is b - w.x; the minimum is
    divided by |w| in the configured norm. Raises if any point sits on
    the wrong side or on the hyperplane.
    """
    wv = as_point(w)
    bv = Fraction(b)
    slacks = []
    for coords, label in labeled_points:
        x = as_point(coords)
        s = sum(wi * xi for wi, xi in zip(wv, x)) - bv
        slacks.append(s if label == 1 else -s)
    if not slacks:
        raise ValueError("margin needs at least one labeled point")
    worst = min(slacks)
    if worst <= 0:
        raise ValueError("the separator does not strictly separate the points")
    if norm == "l1":
        scale = sum(abs(c) for c in wv)
    elif norm == "l2":
        scale = _frac_sqrt(sum(c * c for c in wv))
    else:
        raise ValueError(f"unknown norm {norm!r}")
    if scale == 0:
        raise ValueError("zero weight vector")
    return worst / scale


def simplex_face_domain(d: int, k: int) -> list[Point]:
    """The d basis vectors followed by the C(d,k) face centroids.

    Centroid of the face avoiding index set L is the mean of the basis
    vectors outside L, listed in lexicographic L order. With k = d-1 the
    centroids coincide with basis vectors; callers that need distinct
    points must stay at k <= d-2.
    """
    if not (1 <= k <= d - 1):
        raise ValueError("need 1 <= k <= d-1")
    points: list[Point] = []
    for i in range(d):
        points.append(tuple(Fraction(1 if j == i else 0) for j in range(d)))
    share = Fraction(1, d - k)
    for avoid in combinations(range(d), k):
        avoid_set = set(avoid)
        points.append(
            tuple(share if j not in avoid_set else Fraction(0) for j in range(d))
        )
    return points


def face_centroid_id(d: int, k: int, avoid: Sequence[int]) -> int:
    """Domain id of the centroid avoiding the given index set."""
    key = tuple(sorted(avoid))
    for rank, combo in enumerate(combinations(range(d), k)):
        if combo == key:
            return d + rank
    raise ValueError(f"{avoid!r} is not a k-subset of range({d})")


def halfspace_family_dataset(d: int, k: int, subsets: Iterable[Sequence[int]]) -> Dataset:
    """Positive basis vectors plus a 0-labeled centroid per chosen subset.

    Item ids follow construction order: the d positives first, then the
    centroids of `subsets` in the given order. Point ids refer to
    simplex_face_domain(d, k).
    """
    pairs: list[Pair] = [(i, 1) for i in range(d)]
    for avoid in subsets:
        pairs.append((face_centroid_id(d, k, avoid), 0))
    return Dataset.from_pairs(pairs)


class HalfspaceOracle:
    """Realizability oracle: strict separability over a fixed point list.

    Answers are memoized in `_memo`, keyed on the support's pair bitmask
    (bit 2*x + y for the pair (x, y)), with no lookup by frozenset; a
    miss goes to `_decide(mask)`. `is_realizable_pairs` is the
    validating entry of the query model, and `dimensions._memoized` asks
    by mask, reading `_memo` and calling `_decide` itself. Every
    separator Fourier-Motzkin returns is checked in integers and then
    recorded as full labelings of the domain (see `_record`). Labeling i
    sets bit i of `_agree[2*x + y]` for every point x it labels y, so a
    support is realizable if the AND of `_agree` over its pairs is
    non-zero: some recorded labeling, and so some halfspace, agrees with
    every pair. An infeasible solve returns the mask of the rows whose
    positive combination is contradictory, an unrealizable subset of the
    support; its pairs are kept as one pair bitmask (bit 2*x + y) in
    `_cores`. A support whose bitmask holds some core is unrealizable (a
    superset of an unrealizable set is), and so is one that puts a point
    under both labels. Only when no rule answers does Fourier-Motzkin
    run, under `DEFAULT_ROW_CAP`, so an indexed answer never reaches the
    cap. Each point is converted to integers on its first query.
    """

    def __init__(self, points: Sequence[Iterable]):
        pts = [as_point(p) for p in points]
        if not pts:
            raise ValueError("need at least one domain point")
        self.dim = len(pts[0])
        if any(len(p) != self.dim for p in pts):
            raise ValueError("all points must share one dimension")
        self.points: tuple[Point, ...] = tuple(pts)
        self.domain_size = len(pts)
        self._memo: dict[int, bool] = {}  # by pair bitmask
        self._rows: list[tuple | None] = [None] * len(pts)
        # bit i of _agree[2*x + y]: labeling i gives point x label y
        self._agree = [0] * (2 * len(pts))
        self._n_labelings = 0  # labelings recorded, so bits in use in _agree
        # unrealizable supports FM named, as pair bitmasks: bit 2*x + y for pair (x, y)
        self._cores: list[int] = []

    def _point_rows(self, x: int) -> tuple:
        """The margin-1 rows of point x under label 0 and label 1."""
        rows = self._rows[x]
        if rows is None:
            point = self.points[x]
            rows = self._rows[x] = (_margin_row(point, 0), _margin_row(point, 1))
        return rows

    def _record(self, separator: tuple[int, ...]) -> None:
        """Index the full labelings of the domain by an integer separator (w, b).

        A point's label-0 row times the separator is negative when the
        point is strictly on the label-0 side and positive when strictly
        on the label-1 side; the label-1 row is its negation. Moving b by
        a small enough amount puts every point on the hyperplane strictly
        on one side and keeps every other point's side, so with such
        points two labelings are recorded, all of them on label 1 and all
        on label 0; without, one. A labeling is the tuple of the points'
        signs, 1 for label 1 and -1 for label 0.

        Neither labeling is recorded already: `_decide` runs only when no
        recorded labeling agrees with the support, and both agree with it,
        since the separator puts every support point strictly on its
        label's side (at margin 1).
        """
        sides = []
        for x in range(self.domain_size):
            coeffs, _ = self._point_rows(x)[0]
            sides.append(sum(map(mul, coeffs, separator)))
        for labeling in {
            tuple(1 if side > 0 else -1 for side in sides),
            tuple(1 if side >= 0 else -1 for side in sides),
        }:
            bit = 1 << self._n_labelings
            self._n_labelings += 1
            for x, sign in enumerate(labeling):
                self._agree[2 * x + (sign > 0)] |= bit

    def is_realizable_pairs(self, pairs: Iterable[Pair]) -> bool:
        """Whether some halfspace puts every (point, label) pair on its side.

        The pairs are read by `core._read_pairs` and folded into the
        support's pair bitmask, the memo's key; a miss goes to `_decide`.
        Nothing is looked up before every pair is validated, so an
        out-of-domain support raises ValueError however often it is asked,
        and supports with equal normal forms (say, holding `True` or
        `Fraction(2)` for 1 or 2) share one memo entry.
        """
        mask = 0
        for x, y in _read_pairs(pairs, self.domain_size):
            mask |= 1 << (2 * x + y)
        if mask not in self._memo:
            self._memo[mask] = self._decide(mask)
        return self._memo[mask]

    def _decide(self, mask: int) -> bool:
        """Answer a support the memo has not seen, from its pair bitmask `mask`."""
        agree, pairs = self._agree, _mask_pairs(mask)
        if reduce(and_, [agree[2 * x + y] for x, y in pairs], -1):
            return True  # a recorded labeling agrees with every pair
        for core in self._cores:
            if core | mask == mask:
                return False  # holds an unrealizable core
        # points with equal coordinates have equal rows
        positives = {self._point_rows(x)[1] for x, y in pairs if y}
        if any(self._point_rows(x)[1] in positives for x, y in pairs if not y):
            return False  # one point under both labels
        # FM names the first contradiction it meets, so the row order picks the core kept;
        # the rows go in the pairs' bit order, a function of the support alone
        rows = [self._point_rows(x)[y] for x, y in pairs]
        found = _solve(rows, self.dim + 1, DEFAULT_ROW_CAP)
        if type(found) is int:  # the Farkas rows, in the order of `pairs`
            core = 0
            for i, (x, y) in enumerate(pairs):
                if found >> i & 1:
                    core |= 1 << (2 * x + y)
            self._cores.append(core)
            return False
        self._record(found[1])
        return True


def _solve_unique(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Unique exact solution of an overdetermined linear system, else None."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    aug = [list(matrix[r]) + [rhs[r]] for r in range(rows)]
    pivot_cols = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if aug[i][c]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pr = aug[r]
        inv = pr[c]
        aug[r] = [v / inv for v in pr]
        for i in range(rows):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivot_cols.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if aug[i][cols]:
            return None  # inconsistent
    if len(pivot_cols) < cols:
        return None  # underdetermined
    sol = [Fraction(0)] * cols
    for row_i, c in enumerate(pivot_cols):
        sol[c] = aug[row_i][cols]
    return sol


def separable_bruteforce(positives: Sequence[Iterable], negatives: Sequence[Iterable]) -> bool:
    """Independent separability test via convex combinations.

    Lift each positive p to (p, 1) and each negative q to (-q, -1); the
    sets are strictly separable exactly when the origin is outside the
    convex hull of the lifted points. By Caratheodory it suffices to
    scan lifted subsets of at most d+2 points for an exact convex
    combination of zero, solved by Gaussian elimination.
    """
    pos = [as_point(p) for p in positives]
    neg = [as_point(q) for q in negatives]
    pts = pos + neg
    if not pts:
        return True
    d = len(pts[0])
    lifted = [tuple(p) + (Fraction(1),) for p in pos]
    lifted += [tuple(-c for c in q) + (Fraction(-1),) for q in neg]
    for size in range(1, d + 3):
        for subset in combinations(lifted, size):
            matrix = [[z[coord] for z in subset] for coord in range(d + 1)]
            matrix.append([Fraction(1)] * size)
            rhs = [Fraction(0)] * (d + 1) + [Fraction(1)]
            lam = _solve_unique(matrix, rhs)
            if lam is not None and all(v >= 0 for v in lam):
                return False
    return True
