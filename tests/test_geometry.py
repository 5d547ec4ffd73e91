"""Exact separability, the simplex-face constructions, and margins."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from unlearn_lab import (
    HalfspaceOracle,
    OracleError,
    SeparabilityCapExceeded,
    face_centroid_id,
    halfspace_family_dataset,
    is_realizable,
    margin,
    separable_bruteforce,
    simplex_face_domain,
    strictly_separable,
)


def test_empty_positives_separable():
    ok, witness = strictly_separable([], [(1, 2), (3, 4)])
    assert ok and witness is not None


def test_collinear_alternation_not_separable():
    ok, witness = strictly_separable([(1,), (3,)], [(2,)])
    assert not ok and witness is None


def test_paper_separator_for_the_simplex_family():
    d, k = 4, 2
    pts = simplex_face_domain(d, k)
    left_out = (0, 1)
    positives = [pts[2], pts[3]]
    negatives = [
        pts[face_centroid_id(d, k, L)] for L in combinations(range(d), k) if L != left_out
    ]
    w = (Fraction(0), Fraction(0), Fraction(1), Fraction(1))
    b = Fraction(3, 4)  # 1 - 1/(2(d-k))
    for p in positives:
        assert sum(wi * pi for wi, pi in zip(w, p)) > b
    for q in negatives:
        assert sum(wi * qi for wi, qi in zip(w, q)) < b
    ok, witness = strictly_separable(positives, negatives)
    assert ok and witness is not None


def test_witness_soundness_random():
    rng = random.Random(61)
    for _ in range(200):
        d = rng.randint(1, 3)
        P, N = [], []
        for _ in range(rng.randint(1, 6)):
            pt = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d))
            (P if rng.random() < 0.5 else N).append(pt)
        ok, witness = strictly_separable(P, N)
        if ok:
            w, b = witness
            for p in P:
                assert sum(wi * pi for wi, pi in zip(w, p)) > b
            for q in N:
                assert sum(wi * qi for wi, qi in zip(w, q)) < b


def test_agreement_with_convex_combination_oracle():
    rng = random.Random(62)
    for _ in range(250):
        d = rng.randint(1, 3)
        P, N = [], []
        for _ in range(rng.randint(1, 7)):
            pt = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(d))
            (P if rng.random() < 0.5 else N).append(pt)
        assert strictly_separable(P, N)[0] == separable_bruteforce(P, N)


def test_row_cap_guard(monkeypatch):
    from unlearn_lab import geometry

    # the basis vectors against five of the six face centroids: FM decides it
    # under the default cap and needs more than 4 rows to do so
    pts = simplex_face_domain(4, 2)
    P, N = pts[:4], pts[4:9]
    assert strictly_separable(P, N) == (False, None)
    monkeypatch.setattr(geometry, "DEFAULT_ROW_CAP", 4)
    with pytest.raises(SeparabilityCapExceeded):
        strictly_separable(P, N)


def test_oracle_past_the_row_cap_raises_and_keeps_nothing(monkeypatch):
    from unlearn_lab import geometry

    oracle = HalfspaceOracle(simplex_face_domain(4, 2))
    assert oracle.is_realizable_pairs(frozenset({(0, 1), (4, 0)}))  # one solve, under the cap
    state = (dict(oracle._memo), list(oracle._agree), list(oracle._cores))
    monkeypatch.setattr(geometry, "DEFAULT_ROW_CAP", 4)
    # the paper's family: basis vectors positive, five of the six centroids negative
    support = frozenset([(x, 1) for x in range(4)] + [(x, 0) for x in range(4, 9)])
    for _ in range(2):  # nothing was kept, so the repeat runs FM again and raises again
        with pytest.raises(SeparabilityCapExceeded):
            oracle.is_realizable_pairs(support)
        assert (dict(oracle._memo), list(oracle._agree), list(oracle._cores)) == state


def test_simplex_face_domain_d3_k1():
    pts = simplex_face_domain(3, 1)
    assert len(pts) == 6
    assert pts[3] == (Fraction(0), Fraction(1, 2), Fraction(1, 2))  # avoid {0}


def test_simplex_face_domain_degenerate_k_equals_d_minus_1():
    pts = simplex_face_domain(2, 1)
    # the d-k = 1 centroids coincide with basis vectors
    assert pts[2] == pts[1] and pts[3] == pts[0]


def test_simplex_face_domain_d4_k2_count():
    assert len(simplex_face_domain(4, 2)) == 10


def test_simplex_face_domain_rejects_bad_k():
    with pytest.raises(ValueError):
        simplex_face_domain(3, 3)


def test_family_dataset_shape():
    d, k = 4, 2
    chosen = [(0, 1), (2, 3)]
    data = halfspace_family_dataset(d, k, chosen)
    assert len(data) == d + len(chosen)
    assert data.pairs()[:4] == ((0, 1), (1, 1), (2, 1), (3, 1))
    assert all(y == 0 for _, y in data.pairs()[4:])


def test_family_dataset_empty_choice_is_separable():
    d, k = 4, 2
    oracle = HalfspaceOracle(simplex_face_domain(d, k))
    assert is_realizable(oracle, halfspace_family_dataset(d, k, []))


def test_family_dataset_with_choice_is_not_separable_under_no_deletion():
    d, k = 4, 2
    oracle = HalfspaceOracle(simplex_face_domain(d, k))
    data = halfspace_family_dataset(d, k, [(0, 1)])
    assert not is_realizable(oracle, data)


def test_margin_examples():
    d, k = 4, 2
    pts = simplex_face_domain(d, k)
    left_out = (0, 1)
    labeled = [(pts[2], 1), (pts[3], 1)] + [
        (pts[face_centroid_id(d, k, L)], 0)
        for L in combinations(range(d), k)
        if L != left_out
    ]
    w = (0, 0, 1, 1)
    b = Fraction(3, 4)
    assert margin(w, b, labeled, norm="l1") == Fraction(1, 8)

    assert margin((1,), Fraction(1, 2), [((1,), 1)], norm="l2") == Fraction(1, 2)
    assert margin((1,), 0, [((1,), 1), ((-1,), 0)], norm="l2") == 1


def test_margin_rejects_non_separating_input():
    with pytest.raises(ValueError):
        margin((1,), 0, [((1,), 0)])
    with pytest.raises(ValueError):
        margin((1,), 1, [((1,), 1)])  # on the hyperplane


def test_margin_l2_irrational_norm_rejected():
    with pytest.raises(ValueError):
        margin((1, 1), 0, [((1, 1), 1)], norm="l2")


def test_halfspace_oracle_coincident_points_conflict():
    oracle = HalfspaceOracle([(0,), (0,)])
    assert not oracle.is_realizable_pairs([(0, 1), (1, 0)])


@pytest.mark.parametrize("d", [3, 4])
def test_removal_biconditional_exhaustive_k1(d):
    oracle = HalfspaceOracle(simplex_face_domain(d, 1))
    singles = list(combinations(range(d), 1))
    for mask in range(1 << d):
        chosen = [singles[i] for i in range(d) if mask >> i & 1]
        data = halfspace_family_dataset(d, 1, chosen)
        for L in singles:
            survivor = data.remove([L[0] + 1])
            assert is_realizable(oracle, survivor) == (L not in chosen)


def test_planar_halfspace_hollow_star_is_four():
    from unlearn_lab import hollow_star_number
    from unlearn_lab.dimensions import verify_hollow_star_set

    points = [(0, 0), (4, 0), (0, 4), (1, 1), (3, 3), (1, 0)]
    oracle = HalfspaceOracle(points)
    # triangle plus its interior point: unrealizable, every flip separable
    witness = ((0, 1), (1, 1), (2, 1), (3, 0))
    assert verify_hollow_star_set(oracle, witness)
    assert hollow_star_number(oracle, cap=4) == 4  # = d + 2, no size-5 set


def test_non_separating_fm_point_raises_oracle_error(monkeypatch):
    # the witness check must hold under python -O too, so it cannot be an assert
    monkeypatch.setattr(
        "unlearn_lab.geometry._fm_point", lambda rows, nvars, cap: ([0] * nvars, 1)
    )
    with pytest.raises(OracleError):
        strictly_separable([(1,)], [(0,)])


def _count_fm_solves(monkeypatch):
    """Count top-level Fourier-Motzkin solves (not the recursive levels)."""
    from unlearn_lab import geometry

    real = geometry._fm_point
    state = {"depth": 0, "solves": 0}

    def counting(rows, nvars, cap):
        if state["depth"] == 0:
            state["solves"] += 1
        state["depth"] += 1
        try:
            return real(rows, nvars, cap)
        finally:
            state["depth"] -= 1

    monkeypatch.setattr(geometry, "_fm_point", counting)
    return state


def _strictly_separates(w, b, positives, negatives):
    return all(sum(wi * pi for wi, pi in zip(w, p)) > b for p in positives) and all(
        sum(wi * qi for wi, qi in zip(w, q)) < b for q in negatives
    )


def test_agreement_with_convex_combination_oracle_d4():
    rng = random.Random(65)
    outcomes = []
    for _ in range(30):
        P, N = [], []
        for _ in range(rng.randint(2, 10)):
            pt = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 6)) for _ in range(4))
            (P if rng.random() < 0.5 else N).append(pt)
        if len(P) >= 2 and len(P) + len(N) < 10 and rng.random() < 0.5:
            p, q = rng.sample(P, 2)
            N.append(tuple((a + b) / 2 for a, b in zip(p, q)))  # inside the positives' hull
        ok, witness = strictly_separable(P, N)
        assert ok == separable_bruteforce(P, N)
        if ok:
            assert _strictly_separates(*witness, P, N)
        outcomes.append(ok)
    assert 0 < sum(outcomes) < len(outcomes)


@pytest.mark.parametrize(
    "positives, negatives, w, b",
    [
        (
            [(Fraction(2, 3), -1), (Fraction(-1, 2), 3), (1, 2)],
            [(0, Fraction(-1, 3))],
            (11, 3),
            0,
        ),
        (
            [(Fraction(-2, 3), 1, Fraction(1, 3)), (0, Fraction(-2, 3), -1)],
            [(Fraction(-1, 2), 3, Fraction(2, 3))],
            (Fraction(-43, 8), Fraction(-3, 2), 0),
            0,
        ),
        (
            [(-3, Fraction(-2, 3), -1, Fraction(2, 3)), (-1, 0, Fraction(1, 3), Fraction(-1, 3))],
            [(-1, -2, 0, Fraction(-1, 3))],
            (-1, 2, 0, 0),
            0,
        ),
        (
            [(0, 0, 1, 0), (0, 0, 0, 1)],
            [
                (0, Fraction(1, 2), 0, Fraction(1, 2)),
                (0, Fraction(1, 2), Fraction(1, 2), 0),
                (Fraction(1, 2), 0, 0, Fraction(1, 2)),
                (Fraction(1, 2), 0, Fraction(1, 2), 0),
                (Fraction(1, 2), Fraction(1, 2), 0, 0),
            ],
            (-3, -3, 1, 1),
            0,
        ),
    ],
    ids=["d2", "d3", "d4", "d4-simplex-faces"],
)
def test_fm_witness_is_pinned(positives, negatives, w, b):
    # the witnesses of elimination over Fractions; the first three need the
    # midpoint of a nonempty interval in back-substitution
    ok, witness = strictly_separable(positives, negatives)
    assert ok and witness == (tuple(Fraction(c) for c in w), Fraction(b))


def test_is_realizable_pairs_rejects_bad_pairs():
    oracle = HalfspaceOracle([(0,), (1,), (2,)])
    with pytest.raises(ValueError, match="outside domain"):
        oracle.is_realizable_pairs([(-1, 1)])
    with pytest.raises(ValueError, match="outside domain"):
        oracle.is_realizable_pairs([(3, 0)])
    with pytest.raises(ValueError, match="label must be 0 or 1"):
        oracle.is_realizable_pairs([(0, 2), (0, 1)])
    assert oracle.is_realizable_pairs([(0, 0), (2, 1)])


def test_memo_lookup_of_unnormalised_frozensets(monkeypatch):
    state = _count_fm_solves(monkeypatch)
    oracle = HalfspaceOracle([(0,), (1,), (2,)])
    assert not oracle.is_realizable_pairs(frozenset({(0, 1), (1, 0), (2, 1)}))
    assert oracle.is_realizable_pairs(frozenset({(0, 0), (2, 1)}))
    solves = state["solves"]
    # the pair bitmask of a memo key, so answered from the memo
    assert not oracle.is_realizable_pairs(frozenset({(0, True), (True, 0), (Fraction(2), 1)}))
    assert oracle.is_realizable_pairs(frozenset({(False, 0), (Fraction(2), True)}))
    assert state["solves"] == solves
    # not in the memo: normalised, then answered like the int pairs
    assert oracle.is_realizable_pairs(frozenset({(True, 0), (Fraction(2), 1)}))
    assert not oracle.is_realizable_pairs(frozenset({(Fraction(1), 1), (True, False)}))
    # never memoized, so asked again it is validated again
    for _ in range(2):
        with pytest.raises(ValueError, match="outside domain"):
            oracle.is_realizable_pairs(frozenset({(0, 0), (3, 1)}))
        with pytest.raises(ValueError, match="label must be 0 or 1"):
            oracle.is_realizable_pairs(frozenset({(0, 2)}))
    assert all(type(key) is int for key in oracle._memo)
    assert len(oracle._memo) == 4


def test_missed_supports_are_memoized_once_under_their_bitmask():
    # bit 2*x + y for the pair (x, y); exact, mixed, bool and tuple-subclass
    # supports are each one entry, whatever types their pairs have
    oracle = HalfspaceOracle([(0,), (1,), (2,)])
    supports = [
        (frozenset({(0, 0), (2, 1)}), 33),
        (frozenset({(1, True), (Fraction(2), 0)}), 24),
        (frozenset({(False, 0)}), 1),
        (frozenset({_Pair(0, 1)}), 2),
    ]
    for n, (support, mask) in enumerate(supports, 1):
        answer = oracle.is_realizable_pairs(support)
        assert oracle._memo == {key: oracle._memo[key] for _, key in supports[:n]}
        assert oracle._memo[mask] is answer is True
        assert oracle.is_realizable_pairs(support) is answer and len(oracle._memo) == n


class _Pair(tuple):
    def __new__(cls, x, y):
        return super().__new__(cls, (x, y))


@pytest.mark.parametrize("d", [2, 3])
def test_oracle_reuse_matches_bruteforce_on_walks(monkeypatch, d):
    state = _count_fm_solves(monkeypatch)
    rng = random.Random(60 + d)
    reused = {True: 0, False: 0}
    for _ in range(4):
        distinct: dict = {}
        while len(distinct) < 7:
            pt = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d))
            distinct[pt] = None
        pts = list(distinct)
        oracle = HalfspaceOracle(pts)
        support: dict[int, int] = {}
        seen = set()
        for _ in range(30):
            if support and (len(support) == len(pts) or rng.random() < 0.35):
                del support[rng.choice(sorted(support))]
            else:
                x = rng.choice([x for x in range(len(pts)) if x not in support])
                support[x] = rng.randint(0, 1)
            fs = frozenset(support.items())
            before = state["solves"]
            got = oracle.is_realizable_pairs(fs)
            pos = [pts[x] for x, y in fs if y]
            neg = [pts[x] for x, y in fs if not y]
            assert got == separable_bruteforce(pos, neg)
            if fs not in seen and state["solves"] == before:
                reused[got] += 1  # answered by the index or a subset, without a solve
            seen.add(fs)
    assert reused[True] > 0 and reused[False] > 0


def test_bounded_learn_fm_solve_count_is_pinned(monkeypatch):
    from unlearn_lab import BoundedDeletionScheme, halfspace_lb_instance

    class DistinctSupports:
        def __init__(self, inner):
            self.inner = inner
            self.domain_size = inner.domain_size
            self.seen = set()

        def is_realizable_pairs(self, pairs):
            fs = frozenset(pairs)
            self.seen.add(fs)
            return self.inner.is_realizable_pairs(fs)

    state = _count_fm_solves(monkeypatch)
    inst = halfspace_lb_instance(4, 2)
    handle = DistinctSupports(inst.handle)
    answer, aux = BoundedDeletionScheme(handle, 2).learn(inst.dataset_of((1, 0, 1, 1, 0, 1)))
    assert answer is False and len(aux.critical_sets) == 2
    assert len(handle.seen) == 35
    assert state["solves"] == 9 < len(handle.seen)


def test_capped_hollow_budget_fm_solve_count_is_pinned(monkeypatch):
    # Pins the hollow search's dropping of point prefixes that no hollow
    # set can extend, on the oracle path.
    from unlearn_lab import CAP_EXCEEDED
    from unlearn_lab.report import scheme_bound

    state = _count_fm_solves(monkeypatch)
    oracle = HalfspaceOracle(simplex_face_domain(4, 2))
    budget = scheme_bound("bounded", oracle, 10, k=2, dim_cap=3)
    assert budget["bits"] is None and budget["dims"] == {"hollow_star": CAP_EXCEEDED}
    assert state["solves"] == 42


def test_exact_hollow_budget_fm_solve_count_is_pinned(monkeypatch):
    # The hollow search to cap 5 on the simplex faces (d=4, k=2), which
    # finds the number 5; about 0.4 s.
    from unlearn_lab.report import scheme_bound

    state = _count_fm_solves(monkeypatch)
    oracle = HalfspaceOracle(simplex_face_domain(4, 2))
    budget = scheme_bound("bounded", oracle, 10, k=2, dim_cap=5)
    assert budget["dims"] == {"hollow_star": 5} and budget["bits"] == 1751
    assert state["solves"] == 214


def _random_domain(rng, d, n):
    """n rational points in d dimensions, some repeating an earlier point and
    some on the line through two earlier points."""
    pts = []
    while len(pts) < n:
        roll = rng.random()
        if pts and roll < 0.2:
            pts.append(rng.choice(pts))
        elif len(pts) >= 2 and roll < 0.45:
            p, q = rng.sample(pts, 2)
            t = Fraction(rng.randint(-3, 4), 2)
            pts.append(tuple(a + t * (b - a) for a, b in zip(p, q)))
        else:
            pts.append(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(d)))
    return pts


def _recorded_labelings(oracle):
    """The labelings an oracle has recorded, read back from `_agree`: labeling
    i gives point x the sign 1 (label 1) exactly when bit i of
    `_agree[2x+1]` is set, and -1 (label 0) otherwise."""
    count = max(map(int.bit_length, oracle._agree))
    return {
        tuple(1 if oracle._agree[2 * x + 1] >> i & 1 else -1 for x in range(oracle.domain_size))
        for i in range(count)
    }


def _watch_records(monkeypatch):
    """Log every separator `HalfspaceOracle` records as (oracle, the sign of
    w.x - b at each domain point, the labelings the record added)."""
    real = HalfspaceOracle._record
    log = []

    def watching(self, separator):
        before = _recorded_labelings(self)
        real(self, separator)
        w, b = separator[: self.dim], separator[self.dim]
        sides = [sum(c * v for c, v in zip(w, p)) - b for p in self.points]
        log.append((self, tuple((s > 0) - (s < 0) for s in sides), _recorded_labelings(self) - before))

    monkeypatch.setattr(HalfspaceOracle, "_record", watching)
    return log


def test_labeling_index_matches_bruteforce_on_every_support(monkeypatch):
    # Every labeled support of each domain, asked in shuffled order, so the
    # index answers supports whose subsets were asked in any order or not
    # at all. Duplicate and collinear points put points on the separators'
    # hyperplanes, and such a separator records two labelings.
    state = _count_fm_solves(monkeypatch)
    log = _watch_records(monkeypatch)
    rng = random.Random(66)
    indexed = 0
    for _ in range(40):
        d = rng.randint(1, 3)
        n = rng.randint(3, 6 if d < 3 else 5)
        pts = _random_domain(rng, d, n)
        supports = [
            frozenset((x, y) for x, y in enumerate(labels) if y is not None)
            for labels in product((None, 0, 1), repeat=n)
        ]
        # separable_bruteforce on supports of at most d+2 pairs; a larger
        # support is separable exactly when its one-pair-smaller subsets are
        # (Caratheodory in the lifted d+1 dimensions)
        expected: dict = {}
        for fs in sorted(supports, key=len):
            if any(expected[fs - {pair}] is False for pair in fs):
                expected[fs] = False
            elif len(fs) <= d + 2:
                pos = [pts[x] for x, y in fs if y]
                neg = [pts[x] for x, y in fs if not y]
                expected[fs] = separable_bruteforce(pos, neg)
            else:
                expected[fs] = True
        oracle = HalfspaceOracle(pts)
        rng.shuffle(supports)
        for fs in supports:
            before = state["solves"]
            got = oracle.is_realizable_pairs(fs)
            assert got == expected[fs], (pts, sorted(fs))
            indexed += got and state["solves"] == before
    filled = sum(1 for _, signs, added in log if 0 in signs and len(added) == 2)
    assert indexed > 0 and filled > 0


def test_separators_record_full_realizable_labelings(monkeypatch):
    # On domains with duplicate and collinear points, every recorded
    # labeling labels each point, agrees with some halfspace and gives
    # equal points equal labels. A separator with points on its hyperplane
    # records both fills (those points all on label 1, or all on label 0),
    # and a support that agrees with a fill is answered with no solve.
    state = _count_fm_solves(monkeypatch)
    log = _watch_records(monkeypatch)
    rng = random.Random(67)
    filled = 0
    for _ in range(30):
        d = rng.randint(1, 3)
        n = rng.randint(3, 6)
        pts = _random_domain(rng, d, n)
        oracle = HalfspaceOracle(pts)
        for _ in range(25):
            labels = {x: rng.randint(0, 1) for x in rng.sample(range(n), rng.randint(1, n))}
            oracle.is_realizable_pairs(frozenset(labels.items()))
        for labeling in _recorded_labelings(oracle):
            assert len(labeling) == n and set(labeling) <= {1, -1}
            pos = [p for p, sign in zip(pts, labeling) if sign > 0]
            neg = [p for p, sign in zip(pts, labeling) if sign < 0]
            assert separable_bruteforce(pos, neg), (pts, labeling)
            assert not set(pos) & set(neg)
        for signs in [signs for owner, signs, _ in log if owner is oracle and 0 in signs]:
            on = [x for x in range(n) if not signs[x]]
            off = [x for x in range(n) if signs[x]]
            for y in (0, 1):
                fill = tuple(sign or 2 * y - 1 for sign in signs)
                assert fill in _recorded_labelings(oracle)
                kept = rng.sample(off, rng.randint(0, len(off)))
                support = frozenset((x, int(fill[x] > 0)) for x in on + kept)
                if support in oracle._memo:
                    continue
                before = state["solves"]
                assert oracle.is_realizable_pairs(support)
                assert state["solves"] == before
                filled += 1
    assert filled > 0


def test_labeling_index_answers_without_asking_subsets(monkeypatch):
    state = _count_fm_solves(monkeypatch)
    oracle = HalfspaceOracle([(0, 0), (1, 0), (2, 1), (3, 1)])
    assert oracle.is_realizable_pairs([(0, 0), (1, 0), (2, 1), (3, 1)])
    assert state["solves"] == 1
    support = frozenset({(0, 0), (3, 1)})
    assert oracle.is_realizable_pairs(support)  # its subsets were never asked
    assert all(support - {pair} not in oracle._memo for pair in support)
    assert state["solves"] == 1


def _core_pairs(core):
    """The (point, label) pairs of a pair bitmask (bit 2*x + y)."""
    return frozenset((b >> 1, b & 1) for b in range(core.bit_length()) if core >> b & 1)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_unrealizable_cores(monkeypatch, d):
    # On domains with duplicate and collinear points: each core a solve
    # records is a subset of the support it was asked for and is itself
    # unseparable, and a superset of it whose one-pair-smaller subsets were
    # never asked is answered unrealizable with no solve.
    state = _count_fm_solves(monkeypatch)
    rng = random.Random(70 + d)
    recorded = supersets = 0
    for _ in range(16):
        pts = _random_domain(rng, d, d + 4)
        n = len(pts)
        oracle = HalfspaceOracle(pts)
        for _ in range(20):
            labels = {x: rng.randint(0, 1) for x in rng.sample(range(n), rng.randint(2, n))}
            fs = frozenset(labels.items())
            before = len(oracle._cores)
            oracle.is_realizable_pairs(fs)
            for core in oracle._cores[before:]:
                pairs = _core_pairs(core)
                assert pairs <= fs
                pos = [pts[x] for x, y in pairs if y]
                neg = [pts[x] for x, y in pairs if not y]
                assert not separable_bruteforce(pos, neg), (pts, sorted(pairs))
                recorded += 1
                # more pairs, one label per point coordinate, so that no
                # point is asked under both labels
                held = {pts[x]: y for x, y in pairs}
                extra = [x for x in range(n) if pts[x] not in held]
                if not extra:
                    continue
                chosen = rng.sample(extra, rng.randint(1, len(extra)))
                sup = pairs | {(x, held.setdefault(pts[x], rng.randint(0, 1))) for x in chosen}
                if sup in oracle._memo or any(sup - {pair} in oracle._memo for pair in sup):
                    continue
                solves = state["solves"]
                assert not oracle.is_realizable_pairs(sup)
                assert state["solves"] == solves
                supersets += 1
    assert recorded > 0 and supersets > 0


@pytest.mark.parametrize("call, message", [
    (lambda: HalfspaceOracle([]), "need at least one domain point"),
    (lambda: HalfspaceOracle([(0,), (0, 1)]), "all points must share one dimension"),
    (lambda: strictly_separable([(0,)], [(0, 1)]), "all points must share one dimension"),
    (lambda: face_centroid_id(4, 2, (0, 0)), r"\(0, 0\) is not a k-subset of range\(4\)"),
    (lambda: margin((1,), 0, []), "margin needs at least one labeled point"),
    (lambda: margin((1,), 0, [((1,), 1)], norm="linf"), "unknown norm 'linf'"),
    (lambda: margin((0,), -1, [((1,), 1)]), "zero weight vector")])
def test_bad_geometry_inputs_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_no_points_are_separated_by_the_zero_halfspace():
    assert strictly_separable([], []) == (True, ((), Fraction(0)))


class _PassThrough:
    """An oracle proxy, so the lattice asks it `is_realizable_pairs` on frozensets."""

    def __init__(self, inner):
        self.inner = inner
        self.domain_size = inner.domain_size

    def is_realizable_pairs(self, pairs):
        return self.inner.is_realizable_pairs(pairs)


def test_mask_path_and_protocol_path_agree(monkeypatch):
    # A HalfspaceOracle is asked on pair bitmasks by the lattice; a proxy of
    # one is asked through is_realizable_pairs. Both must answer alike and
    # leave the oracle in the same state, with the same Fourier-Motzkin solves.
    from unlearn_lab import BoundedDeletionScheme, Dataset, MerkleScheme, compute_dims

    state = _count_fm_solves(monkeypatch)
    rng = random.Random(81)
    domains = [_random_domain(rng, d, rng.randint(5, 7)) for d in (2, 3, 4) for _ in range(3)]
    domains.append(simplex_face_domain(4, 2))
    for pts in domains:
        data = Dataset.from_pairs((rng.randrange(len(pts)), rng.randint(0, 1)) for _ in range(7))
        runs = []
        for wrap in (False, True):
            oracle = HalfspaceOracle(pts)
            handle = _PassThrough(oracle) if wrap else oracle
            before = state["solves"]
            report = compute_dims(handle, cap=3)
            bounded = BoundedDeletionScheme(handle, 2).learn(data)
            merkle = MerkleScheme(handle).learn(data)[:2]
            runs.append((
                report, bounded, merkle, dict(oracle._memo), oracle._agree, oracle._cores,
                oracle._n_labelings, state["solves"] - before,
            ))
        assert runs[0] == runs[1], pts
        assert runs[0][-1] > 0
