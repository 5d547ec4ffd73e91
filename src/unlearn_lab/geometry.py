"""Exact halfspace machinery over the rationals.

Strict linear separability of finite point sets is decided by reducing to
the margin-1 feasibility system (w.x - b >= 1 on positives, <= -1 on
negatives) and eliminating variables by exact Fourier-Motzkin over
Fractions. Floating point never enters: the constructions of interest
sit at margins around 1/d, where rounding would misclassify.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import combinations
from math import isqrt

from .core import Dataset, OracleError, Pair

Point = tuple[Fraction, ...]

DEFAULT_ROW_CAP = 20000


class SeparabilityCapExceeded(RuntimeError):
    """Fourier-Motzkin elimination blew past the configured row budget."""


def as_point(coords: Iterable) -> Point:
    return tuple(Fraction(c) for c in coords)


def _normalize_row(coeffs: tuple[Fraction, ...], rhs: Fraction):
    scale = None
    for c in coeffs:
        if c:
            scale = abs(c)
            break
    if scale is None:
        scale = abs(rhs) if rhs else Fraction(1)
    return tuple(c / scale for c in coeffs), rhs / scale


def _clean(rows):
    out = {}
    for coeffs, rhs in rows:
        if not any(coeffs):
            if rhs < 0:
                return None
            continue
        key = _normalize_row(coeffs, rhs)
        prev = out.get(key[0])
        if prev is None or key[1] < prev:
            out[key[0]] = key[1]
    return [(c, r) for c, r in out.items()]


def _fm_point(rows, nvars: int, cap: int) -> list[Fraction] | None:
    """Feasible point of {coeffs . v <= rhs}, or None.

    Eliminates one occupied variable per level (fewest pos*neg pairings
    first), recurses, then back-substitutes a value inside the bounds the
    eliminated rows impose.
    """
    rows = _clean(rows)
    if rows is None:
        return None
    if not rows:
        return [Fraction(0)] * nvars
    occupied = [v for v in range(nvars) if any(r[0][v] for r in rows)]
    if not occupied:
        return [Fraction(0)] * nvars
    def crossings(v):
        p = sum(1 for r in rows if r[0][v] > 0)
        q = sum(1 for r in rows if r[0][v] < 0)
        return p * q, p + q
    e = min(occupied, key=crossings)
    pos = [r for r in rows if r[0][e] > 0]
    neg = [r for r in rows if r[0][e] < 0]
    zero = [r for r in rows if not r[0][e]]
    new_rows = list(zero)
    for pc, pr in pos:
        for nc, nr in neg:
            a, b = pc[e], -nc[e]
            coeffs = tuple(b * pc[j] + a * nc[j] if j != e else Fraction(0) for j in range(nvars))
            new_rows.append((coeffs, b * pr + a * nr))
            if len(new_rows) > cap:
                raise SeparabilityCapExceeded(
                    f"elimination produced more than {cap} constraints"
                )
    sub = _fm_point(new_rows, nvars, cap)
    if sub is None:
        return None
    lo = None
    hi = None
    for coeffs, rhs in neg:
        rest = rhs - sum(coeffs[j] * sub[j] for j in range(nvars) if j != e)
        bound = rest / coeffs[e]  # coeff negative: lower bound
        if lo is None or bound > lo:
            lo = bound
    for coeffs, rhs in pos:
        rest = rhs - sum(coeffs[j] * sub[j] for j in range(nvars) if j != e)
        bound = rest / coeffs[e]
        if hi is None or bound < hi:
            hi = bound
    if lo is not None and hi is not None:
        value = (lo + hi) / 2
    elif lo is not None:
        value = lo
    elif hi is not None:
        value = hi
    else:
        value = Fraction(0)
    sub[e] = value
    return sub


def strictly_separable(
    positives: Sequence[Iterable],
    negatives: Sequence[Iterable],
    row_cap: int = DEFAULT_ROW_CAP,
) -> tuple[bool, tuple[Point, Fraction] | None]:
    """Decide strict separability of two finite rational point sets.

    Returns (True, (w, b)) with an exact witness satisfying w.x > b on
    every positive and w.x < b on every negative, or (False, None).
    """
    pos = [as_point(p) for p in positives]
    neg = [as_point(q) for q in negatives]
    pts = pos + neg
    if not pts:
        return True, ((), Fraction(0))
    d = len(pts[0])
    if any(len(p) != d for p in pts):
        raise ValueError("all points must share one dimension")
    nv = d + 1  # w_0..w_{d-1}, b
    rows = []
    for p in pos:
        rows.append((tuple(-c for c in p) + (Fraction(1),), Fraction(-1)))
    for q in neg:
        rows.append((tuple(q) + (Fraction(-1),), Fraction(-1)))
    sol = _fm_point(rows, nv, row_cap)
    if sol is None:
        return False, None
    w = tuple(sol[:d])
    b = sol[d]
    if any(sum(wi * pi for wi, pi in zip(w, p)) - b < 1 for p in pos) or any(
        sum(wi * qi for wi, qi in zip(w, q)) - b > -1 for q in neg
    ):
        raise OracleError("Fourier-Motzkin returned a point that does not separate")
    return True, (w, b)


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
    """Realizability oracle: strict separability over a fixed point list."""

    def __init__(self, points: Sequence[Iterable], row_cap: int = DEFAULT_ROW_CAP):
        pts = [as_point(p) for p in points]
        if not pts:
            raise ValueError("need at least one domain point")
        self.dim = len(pts[0])
        if any(len(p) != self.dim for p in pts):
            raise ValueError("all points must share one dimension")
        self.points: tuple[Point, ...] = tuple(pts)
        self.domain_size = len(pts)
        self.row_cap = row_cap
        self._memo: dict[frozenset[Pair], bool] = {}

    def is_realizable_pairs(self, pairs: Iterable[Pair]) -> bool:
        fs = frozenset((int(x), int(y)) for x, y in pairs)
        hit = self._memo.get(fs)
        if hit is not None:
            return hit
        pos = [self.points[x] for x, y in fs if y == 1]
        neg = [self.points[x] for x, y in fs if y == 0]
        if set(pos) & set(neg):
            result = False
        else:
            result = strictly_separable(pos, neg, self.row_cap)[0]
        self._memo[fs] = result
        return result


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
