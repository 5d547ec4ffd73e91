"""Exact separability, the simplex-face constructions, and margins."""

import random
from fractions import Fraction
from itertools import combinations

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


def test_row_cap_guard():
    rng = random.Random(63)
    P = [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)) for _ in range(9)]
    N = [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)) for _ in range(9)]
    with pytest.raises(SeparabilityCapExceeded):
        strictly_separable(P, N, row_cap=4)


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
        "unlearn_lab.geometry._fm_point", lambda rows, nvars, cap: [Fraction(0)] * nvars
    )
    with pytest.raises(OracleError):
        strictly_separable([(1,)], [(0,)])
