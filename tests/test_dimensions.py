"""Dimension searches: frozen small-class values, witnesses, and inequalities."""

import gc
import json
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from unlearn_lab import (
    CAP_EXCEEDED,
    FiniteClass,
    HalfspaceOracle,
    all_labelings,
    as_oracle,
    compute_dims,
    eluder_dimension,
    hollow_star_number,
    is_realizable,
    littlestone_dimension,
    min_identification_set,
    parity_class,
    random_finite_class,
    separable_bruteforce,
    simplex_face_domain,
    star_number,
    thresholds_1d,
    vc_dimension,
    vclb_instance,
)
from unlearn_lab.dimensions import (
    _find_hollow,
    _hollow_search,
    _Lattice,
    _mis_search,
    _split_depths,
    _tables,
    verify_eluder_sequence,
    verify_hollow_star_set,
    verify_identification_set,
    verify_littlestone_tree,
    verify_shattered,
    verify_star_set,
)
from unlearn_lab.report import scheme_bound


def test_thresholds_m4_exact_values():
    rep = compute_dims(thresholds_1d(4))
    assert (rep.vc, rep.littlestone, rep.star, rep.hollow_star, rep.eluder, rep.mis) == (
        1, 2, 2, 2, 4, 4,
    )


def test_thresholds_m8_star_and_hollow():
    fc = thresholds_1d(8)
    assert star_number(fc) == 2
    assert hollow_star_number(fc) == 2


def test_full_cube_shatters_everything():
    fc = all_labelings(3)
    assert vc_dimension(fc) == 3
    assert star_number(fc) == 3


def test_full_cube_hollow_star_via_coincident_pair():
    # {(x,0),(x,1)} is unrealizable while both one-label flips collapse to
    # realizable singletons, so the full cube still has a size-2 witness
    fc = all_labelings(3)
    assert hollow_star_number(fc) == 2


def test_singleton_class():
    fc = FiniteClass(3, [[0, 1, 0]])
    assert littlestone_dimension(fc) == 0
    assert eluder_dimension(fc) == 0
    assert min_identification_set(fc) == ()
    # a single wrong label is a hollow star set of size 1
    assert hollow_star_number(fc) == 1


def test_parity_d2_eluder_and_mis():
    fc = parity_class(2)
    assert eluder_dimension(fc) == 2
    assert len(min_identification_set(fc)) == 2


def test_parity_d3_eluder_equals_dimension():
    fc = parity_class(3)
    assert eluder_dimension(fc) == 3
    assert len(min_identification_set(fc)) == 3


def test_vclb_class_littlestone_at_most_one_over_beta_plus_one():
    inst = vclb_instance("1/2", 4)
    assert littlestone_dimension(inst.handle) <= 3
    assert vc_dimension(inst.handle) <= 3


def test_spec_eluder_sequence_verifies():
    fc = thresholds_1d(4)
    # values (4,1),(3,1),(2,1),(1,1) written as 0-based ids
    assert verify_eluder_sequence(fc, [(3, 1), (2, 1), (1, 1), (0, 1)])
    assert not verify_eluder_sequence(fc, [(3, 1), (3, 0)])


def test_cap_exceeded_sentinels():
    fc = thresholds_1d(4)
    assert eluder_dimension(fc, cap=2) == CAP_EXCEEDED
    assert vc_dimension(all_labelings(3), cap=1) == CAP_EXCEEDED
    assert star_number(all_labelings(3), cap=2) == CAP_EXCEEDED
    assert hollow_star_number(thresholds_1d(8), cap=1) == CAP_EXCEEDED


SEARCHES = (vc_dimension, star_number, hollow_star_number, eluder_dimension)


def test_negative_caps_raise():
    fc = thresholds_1d(4)
    oracle = HalfspaceOracle([(i,) for i in range(3)])
    for search in SEARCHES:
        for handle in (fc, oracle):
            with pytest.raises(ValueError, match="at least 0"):
                search(handle, cap=-1)
    for handle in (fc, oracle):
        with pytest.raises(ValueError, match="at least 0"):
            compute_dims(handle, cap=-1)
    for scheme in ("bounded", "merkle"):
        with pytest.raises(ValueError, match="at least 0"):
            scheme_bound(scheme, fc, 3, k=1, dim_cap=-1)


def test_cap_zero_keeps_its_values():
    fc = thresholds_1d(4)
    # thresholds have no one-pair hollow set but a two-pair one (hollow star
    # number 2), so the hollow search at cap 0 reads the sentinel, not 0
    assert [search(fc, cap=0) for search in SEARCHES] == [CAP_EXCEEDED] * 4
    rep = compute_dims(fc, cap=0)
    assert (rep.vc, rep.star, rep.hollow_star, rep.eluder) == (CAP_EXCEEDED,) * 4
    assert rep.caps == dict.fromkeys(("vc", "star", "hollow_star", "eluder"), 0)
    assert scheme_bound("bounded", fc, 3, k=1, dim_cap=0)["bits"] is None
    assert scheme_bound("bounded", fc, 3, k=1)["bits"] == 21


def test_capped_hollow_never_reads_below_the_true_number():
    # hollow sets are not closed under taking smaller sizes, so a class may
    # have none of cap+1 pairs and a larger one
    rng = random.Random(5)
    capped = 0
    for _ in range(300):
        fc = random_finite_class(rng, 5, 10)
        true = hollow_star_number(fc)
        for cap in (0, 2):
            got = hollow_star_number(fc, cap=cap)
            if true > cap:
                assert got == CAP_EXCEEDED, (fc.hypotheses, cap)
                capped += 1
            else:
                assert got == true, (fc.hypotheses, cap)
    assert capped > 0


def test_halfspace_1d_hollow_star_is_three():
    oracle = HalfspaceOracle([(i,) for i in range(5)])
    assert hollow_star_number(oracle, cap=4) == 3


def test_witnesses_verify():
    rng = random.Random(21)
    for _ in range(40):
        fc = random_finite_class(rng, max_m=5, max_h=12)
        rep = compute_dims(fc)
        w = rep.witnesses
        assert verify_shattered(fc, w["vc"])
        assert verify_star_set(fc, w["star"])
        if rep.hollow_star:
            assert verify_hollow_star_set(fc, w["hollow_star"])
        assert verify_eluder_sequence(fc, w["eluder"])
        assert len(w["eluder"]) == rep.eluder
        assert verify_identification_set(fc, w["mis"])
        assert verify_littlestone_tree(fc, w["littlestone"], rep.littlestone)


def test_dimension_chain_on_random_classes():
    rng = random.Random(22)
    for _ in range(60):
        fc = random_finite_class(rng)
        rep = compute_dims(fc, witnesses=False)
        h = len(fc.hypotheses)
        assert rep.vc <= rep.star <= rep.eluder <= h - 1
        assert rep.littlestone <= rep.eluder
        assert (h - 1).bit_length() <= rep.eluder
        assert rep.hollow_star - 1 <= rep.star


def test_oracle_and_finite_searches_agree():
    rng = random.Random(23)
    for _ in range(15):
        fc = random_finite_class(rng, max_m=5, max_h=12)
        oracle = as_oracle(fc)
        cap = max(fc.domain_size + 1, len(fc.hypotheses) - 1)
        assert vc_dimension(fc) == vc_dimension(oracle, cap=cap)
        assert star_number(fc) == star_number(oracle, cap=cap)
        assert hollow_star_number(fc) == hollow_star_number(oracle, cap=cap)
        assert eluder_dimension(fc) == eluder_dimension(oracle, cap=cap)


def test_oracle_and_finite_littlestone_agree():
    rng = random.Random(23)
    for _ in range(15):
        fc = random_finite_class(rng, max_m=5, max_h=12)
        assert littlestone_dimension(as_oracle(fc)) == littlestone_dimension(fc)


def test_oracle_report_skips_finite_only_dimensions():
    points = [(i,) for i in range(4)]
    rep = compute_dims(HalfspaceOracle(points), cap=3)
    assert rep.mis is None and rep.witnesses["mis"] is None
    # rays open in either direction shatter two collinear points, never three
    assert rep.vc == 2
    assert rep.hollow_star == 3
    assert rep.littlestone == 3
    assert verify_littlestone_tree(_BruteForceHalfspaces(points), rep.witnesses["littlestone"], 3)


def test_littlestone_verifier_rejects_an_unrealizable_branch():
    # a complete tree that splits on the same points along every path
    # shatters them: thresholds shatter no two points, and rays no three
    tree2 = (0, (1, None, None), (1, None, None))
    tree3 = (0, (1, (2, None, None), (2, None, None)), (1, (2, None, None), (2, None, None)))
    fc = thresholds_1d(4)
    for handle in (fc, as_oracle(fc)):
        assert verify_littlestone_tree(handle, (1, None, None), 1)
        assert not verify_littlestone_tree(handle, tree2, 2)
    rays = HalfspaceOracle([(i,) for i in range(4)])
    assert verify_littlestone_tree(rays, tree2, 2)
    assert not verify_littlestone_tree(rays, tree3, 3)


class _BruteForceHalfspaces:
    """Halfspace realizability by `separable_bruteforce`, which shares no
    code with `HalfspaceOracle`."""

    def __init__(self, points):
        self.points = [tuple(Fraction(c) for c in p) for p in points]
        self.domain_size = len(self.points)

    def is_realizable_pairs(self, pairs):
        pos = [self.points[x] for x, y in pairs if y == 1]
        neg = [self.points[x] for x, y in pairs if y == 0]
        return separable_bruteforce(pos, neg)


class _CountingOracle:
    """Pass-through realizability oracle that counts its calls."""

    def __init__(self, inner):
        self.inner = inner
        self.domain_size = inner.domain_size
        self.calls = 0

    def is_realizable_pairs(self, pairs):
        self.calls += 1
        return self.inner.is_realizable_pairs(pairs)


def _distinct_rows(seed: int, m: int, h: int) -> list[list[int]]:
    rng = random.Random(seed)
    return [[r >> (m - 1 - i) & 1 for i in range(m)] for r in rng.sample(range(1 << m), h)]


def _leaf(x):
    return [x, None, None]


# Full reports, witnesses included, recorded from the support-keyed search
# that preceded the mask-keyed engine, which must reproduce them exactly.
PINNED = {
    "thresholds_1d(8)": {
        "vc": 1, "littlestone": 3, "star": 2, "hollow_star": 2, "eluder": 8, "mis": 8,
        "caps": {"vc": 8, "star": 8, "hollow_star": 9, "eluder": 8},
        "witnesses": {
            "vc": [0],
            "littlestone": [3, [5, _leaf(6), _leaf(4)], [1, _leaf(2), _leaf(0)]],
            "star": [[0, 0], [1, 1]],
            "hollow_star": [[0, 0], [0, 1]],
            "eluder": [[x, 0] for x in range(8)],
            "mis": list(range(8)),
        },
    },
    "parity_class(3)": {
        "vc": 3, "littlestone": 3, "star": 3, "hollow_star": 4, "eluder": 3, "mis": 3,
        "caps": {"vc": 8, "star": 8, "hollow_star": 9, "eluder": 7},
        "witnesses": {
            "vc": [1, 2, 4],
            "littlestone": [1, [2, _leaf(4), _leaf(4)], [2, _leaf(4), _leaf(4)]],
            "star": [[1, 0], [2, 0], [4, 0]],
            "hollow_star": [[1, 0], [2, 0], [4, 0], [7, 1]],
            "eluder": [[1, 0], [2, 0], [4, 0]],
            "mis": [1, 2, 4],
        },
    },
    "random(8,32)": {
        "vc": 4, "littlestone": 4, "star": 6, "hollow_star": 6, "eluder": 8, "mis": 7,
        "caps": {"vc": 8, "star": 8, "hollow_star": 9, "eluder": 8},
        "witnesses": {
            "vc": [0, 2, 4, 5],
            "littlestone": [
                0,
                [1, [4, _leaf(2), _leaf(3)], [2, _leaf(3), _leaf(3)]],
                [1, [2, _leaf(3), _leaf(3)], [2, _leaf(3), _leaf(3)]],
            ],
            "star": [[0, 1], [1, 0], [2, 1], [5, 0], [6, 1], [7, 1]],
            "hollow_star": [[0, 1], [2, 1], [4, 1], [5, 0], [6, 0], [7, 0]],
            "eluder": [[0, 1], [1, 0], [2, 1], [3, 1], [4, 1], [5, 0], [6, 1], [7, 0]],
            "mis": [0, 2, 3, 4, 5, 6, 7],
        },
    },
}

# Four of the five points lie in the plane z=0.
PINNED_HALFSPACE_POINTS = [(0, 0, 0), (2, 0, 0), (0, 1, 0), (2, 1, 0), ("1/2", "1/3", 1)]
PINNED_HALFSPACE = {
    "vc": 4, "littlestone": 4, "star": CAP_EXCEEDED, "hollow_star": 4,
    "eluder": CAP_EXCEEDED, "mis": None,
    "caps": {"vc": 4, "star": 4, "hollow_star": 4, "eluder": 4},
    "witnesses": {
        "vc": [0, 1, 2, 4],
        "littlestone": [
            0,
            [1, [2, _leaf(3), _leaf(3)], [2, _leaf(3), _leaf(4)]],
            [1, [2, _leaf(4), _leaf(3)], [2, _leaf(3), _leaf(3)]],
        ],
        "star": [[x, 0] for x in range(5)],
        "hollow_star": [[0, 0], [1, 1], [2, 1], [3, 0]],
        "eluder": [[x, 0] for x in range(5)],
        "mis": None,
    },
}
PINNED_HALFSPACE_CALLS = 76


def _as_json(rep) -> dict:
    return json.loads(json.dumps(rep.to_json_dict()))


def test_pinned_reports():
    classes = {
        "thresholds_1d(8)": thresholds_1d(8),
        "parity_class(3)": parity_class(3),
        "random(8,32)": FiniteClass(8, _distinct_rows(2024, 8, 32)),
    }
    for name, fc in classes.items():
        assert _as_json(compute_dims(fc)) == PINNED[name], name
    pts = [tuple(Fraction(c) for c in p) for p in PINNED_HALFSPACE_POINTS]
    oracle = _CountingOracle(HalfspaceOracle(pts))
    assert _as_json(compute_dims(oracle, cap=4)) == PINNED_HALFSPACE
    assert oracle.calls == PINNED_HALFSPACE_CALLS
    assert verify_littlestone_tree(
        _BruteForceHalfspaces(PINNED_HALFSPACE_POINTS),
        PINNED_HALFSPACE["witnesses"]["littlestone"],
        PINNED_HALFSPACE["littlestone"],
    )


def test_finite_and_oracle_paths_agree_on_values_and_witnesses():
    rng = random.Random(24)
    keys = ("vc", "littlestone", "star", "hollow_star", "eluder")
    classes = [random_finite_class(rng, max_m=6, max_h=16) for _ in range(100)]
    # 7 and 8 points put pair bits up to 15 into the oracle's lattice states
    classes += [
        FiniteClass(m, _distinct_rows(rng.randrange(1 << 30), m, rng.randint(8, 40)))
        for m in (7, 7, 8, 8)
    ]
    for fc in classes:
        for cap in (1, 2, fc.domain_size + 1):
            fin = compute_dims(fc, cap=cap)
            orc = compute_dims(as_oracle(fc), cap=cap)
            assert [getattr(fin, k) for k in keys] == [getattr(orc, k) for k in keys]
            assert [fin.witnesses[k] for k in keys] == [orc.witnesses[k] for k in keys]


def test_oracle_lattice_states_are_pair_bitmasks():
    class Recording:
        def __init__(self, fc):
            self.fc = fc
            self.domain_size = fc.domain_size
            self.asked = []

        def is_realizable_pairs(self, pairs):
            self.asked.append(pairs)
            return self.fc.is_realizable_pairs(pairs)

    rng = random.Random(27)
    for _ in range(20):
        fc = random_finite_class(rng, max_m=5, max_h=12)
        m = fc.domain_size
        handle = Recording(fc)
        lat = _Lattice(handle)
        assert lat.top == 0
        assert lat.pairs == tuple((1 << 2 * x, 1 << 2 * x + 1) for x in range(m))
        # every support, holding neither, one or both labels of each point
        for labels in product(((), (0,), (1,), (0, 1)), repeat=m):
            support = [(x, y) for x, ys in enumerate(labels) for y in ys]
            state = lat.top
            for x, y in support:
                state = lat.meet(state, lat.pairs[x][y])
            assert state == sum(1 << 2 * x + y for x, y in support)
            for _ in range(2):
                assert lat.ok(state) == is_realizable(fc, support)
        # each support without both labels of a point asked once, as a frozenset of pairs
        assert len(handle.asked) == 3**m
        assert set(handle.asked) == {
            frozenset((x, y) for x, y in zip(range(m), labels) if y is not None)
            for labels in product((None, 0, 1), repeat=m)
        }
        assert all(type(fs) is frozenset for fs in handle.asked)


def test_verifiers_reject_out_of_domain_pairs():
    fc = thresholds_1d(4)
    handles = (fc, as_oracle(fc), HalfspaceOracle([(i,) for i in range(4)]))
    for handle in handles:
        with pytest.raises(ValueError):
            verify_shattered(handle, [0, 4])
        with pytest.raises(ValueError):
            verify_star_set(handle, [(0, 0), (4, 1)])
        with pytest.raises(ValueError):
            verify_hollow_star_set(handle, [(0, 1), (7, 0)])
        with pytest.raises(ValueError):
            verify_eluder_sequence(handle, [(3, 1), (-1, 0)])
        with pytest.raises(ValueError):
            verify_star_set(handle, [(0, 2)])
        # also where the answer is already False before the bad pair is reached
        with pytest.raises(ValueError):
            verify_star_set(handle, [(0, 0), (0, 1), (9, 1)])
        with pytest.raises(ValueError):
            verify_eluder_sequence(handle, [(3, 1), (3, 0), (9, 0)])
        with pytest.raises(ValueError):
            verify_shattered(handle, [1, 1, 9])
        with pytest.raises(ValueError):
            verify_littlestone_tree(handle, (4, None, None), 1)
        with pytest.raises(ValueError):
            verify_littlestone_tree(handle, (-1, None, None), 1)
        # a right subtree outside the domain behind a left branch that already fails
        with pytest.raises(ValueError):
            verify_littlestone_tree(handle, (0, None, (9, None, None)), 2)


def test_random_m12_h64_witnesses_verify():
    fc = FiniteClass(12, _distinct_rows(12, 12, 64))
    rep = compute_dims(fc)
    w = rep.witnesses
    assert CAP_EXCEEDED not in (rep.vc, rep.star, rep.hollow_star, rep.eluder)
    assert len(w["vc"]) == rep.vc and verify_shattered(fc, w["vc"])
    assert len(w["star"]) == rep.star and verify_star_set(fc, w["star"])
    assert len(w["hollow_star"]) == rep.hollow_star
    assert verify_hollow_star_set(fc, w["hollow_star"])
    assert len(w["eluder"]) == rep.eluder and verify_eluder_sequence(fc, w["eluder"])
    assert verify_littlestone_tree(fc, w["littlestone"], rep.littlestone)
    assert len(w["mis"]) == rep.mis and verify_identification_set(fc, w["mis"])
    assert rep.vc <= rep.star <= rep.eluder <= len(fc.hypotheses) - 1


def test_searches_leave_no_reference_cycles():
    # A search that leaves a cycle keeps its memo and class alive until a
    # full collection runs.
    pts = [tuple(Fraction(c) for c in p) for p in PINNED_HALFSPACE_POINTS]
    cases = (
        (thresholds_1d(8), None),
        (parity_class(3), None),
        (FiniteClass(8, _distinct_rows(2024, 8, 32)), None),
        (HalfspaceOracle(pts), 4),
    )
    gc.collect()
    gc.disable()
    try:
        for handle, cap in cases:
            compute_dims(handle, cap=cap)
            assert gc.collect() == 0, handle
    finally:
        gc.enable()


# References for the pruned searches: the exhaustive searches they replaced.


def _reference_mis(fc):
    """Every point set by size, comparing restriction tuples."""
    for size in range(fc.domain_size + 1):
        for points in combinations(range(fc.domain_size), size):
            restrictions = {tuple(row[x] for x in points) for row in fc.hypotheses}
            if len(restrictions) == len(fc.hypotheses):
                return points
    raise AssertionError("full domain always identifies a deduplicated class")


def _reference_find_hollow(lat, size):
    """Every labeled support of `size` pairs, with no prefix dropped."""
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


def _reference_hollow(handle, cap):
    """Every size above the cap, smallest first, then every size within it, largest first."""
    lat = _Lattice(handle)
    largest = max(handle.domain_size, 2)
    for size in range(cap + 1, largest + 1):
        witness = _reference_find_hollow(lat, size)
        if witness is not None:
            return CAP_EXCEEDED, witness
    for size in range(min(cap, largest), 0, -1):
        witness = _reference_find_hollow(lat, size)
        if witness is not None:
            return size, witness
    return 0, None


def _check_hollow_matches(handle, cap):
    got = _hollow_search(_Lattice(handle), cap)
    assert got == _reference_hollow(handle, cap), (handle, cap)
    value, witness = got
    if value == 0:
        assert witness is None
    else:
        assert verify_hollow_star_set(handle, witness)
        assert len(witness) > cap if value == CAP_EXCEEDED else len(witness) == value


def test_pruned_searches_match_exhaustive_references():
    rng = random.Random(25)
    for _ in range(300):
        m = rng.randint(1, 9)
        rows = _distinct_rows(rng.randrange(1 << 30), m, rng.randint(1, min(1 << m, 40)))
        fc = FiniteClass(m, rows)
        mis = _mis_search(fc)
        assert mis == _reference_mis(fc) and verify_identification_set(fc, mis)
        for cap in (m + 1, 0, 1, 2, 3):
            _check_hollow_matches(fc, cap)
    planar = [(0, 0), (3, 0), (0, 2), (2, 3), (1, 1)]
    for points in (PINNED_HALFSPACE_POINTS, planar):
        oracle = HalfspaceOracle([tuple(Fraction(c) for c in p) for p in points])
        for cap in range(5):
            _check_hollow_matches(oracle, cap)
    _check_hollow_matches(HalfspaceOracle(simplex_face_domain(4, 2)), 3)


def test_find_hollow_matches_the_reference_at_every_size():
    # The capped searches compare only the first hit per cap, so this asks
    # every size, those below the answer included, on the same grid.
    rng = random.Random(25)
    handles = []
    for _ in range(300):
        m = rng.randint(1, 9)
        rows = _distinct_rows(rng.randrange(1 << 30), m, rng.randint(1, min(1 << m, 40)))
        fc = FiniteClass(m, rows)
        handles += [fc, as_oracle(fc)]
    planar = [(0, 0), (3, 0), (0, 2), (2, 3), (1, 1)]
    for points in (PINNED_HALFSPACE_POINTS, planar):
        handles.append(HalfspaceOracle([tuple(Fraction(c) for c in p) for p in points]))
    for handle in handles:
        lat, fresh = _Lattice(handle), _Lattice(handle)
        for size in range(1, handle.domain_size + 2):
            assert _find_hollow(lat, size) == _reference_find_hollow(fresh, size), (handle, size)


def _ceiling_free_depths(lat, memo, state):
    """Eluder depth, first deepest move and Littlestone depth below a
    realizable state, with every splitting point walked."""
    if state not in memo:
        best, move, ldim = 0, None, 0
        for x, (p0, p1) in enumerate(lat.pairs):
            s0, s1 = lat.meet(state, p0), lat.meet(state, p1)
            if not (lat.ok(s0) and lat.ok(s1)):
                continue
            (e0, _, l0), (e1, _, l1) = (_ceiling_free_depths(lat, memo, s) for s in (s0, s1))
            for e, y in ((e0, 0), (e1, 1)):
                if 1 + e > best:
                    best, move = 1 + e, (x, y)
            ldim = max(ldim, 1 + min(l0, l1))
        memo[state] = (best, move, ldim)
    return memo[state]


def test_split_memo_entries_match_a_ceiling_free_recursion():
    rng = random.Random(28)
    for _ in range(150):
        m = rng.randint(1, 8)
        rows = _distinct_rows(rng.randrange(1 << 30), m, rng.randint(1, min(1 << m, 40)))
        fc = FiniteClass(m, rows)
        for handle in (fc, as_oracle(fc)):
            lat, memo = _Lattice(handle), {}
            _split_depths(lat, memo, lat.top)
            fresh, reference = _Lattice(handle), {}
            assert lat.top in memo
            for state, entry in memo.items():
                assert entry == _ceiling_free_depths(fresh, reference, state), (rows, state)


# An independent reference for the split recursion: eluder and Littlestone
# depth over explicit sets of hypothesis indices, straight from the
# definitions, with no masks and no lattice.


def _split_sets(fc, version, x):
    """The two parts of `version` labeling x with 0 and with 1."""
    return (
        frozenset(h for h in version if fc.hypotheses[h][x] == 0),
        frozenset(h for h in version if fc.hypotheses[h][x] == 1),
    )


def _reference_eluder(fc, version, memo):
    """Longest sequence of pairs each of whose points both labels leave realizable."""
    if version not in memo:
        memo[version] = max(
            (
                1 + _reference_eluder(fc, part, memo)
                for parts in (_split_sets(fc, version, x) for x in range(fc.domain_size))
                if all(parts)
                for part in parts
            ),
            default=0,
        )
    return memo[version]


def _reference_littlestone(fc, version, memo):
    """Depth of the deepest complete mistake tree the version space shatters."""
    if version not in memo:
        memo[version] = max(
            (
                1 + min(_reference_littlestone(fc, part, memo) for part in parts)
                for parts in (_split_sets(fc, version, x) for x in range(fc.domain_size))
                if all(parts)
            ),
            default=0,
        )
    return memo[version]


def test_split_recursion_matches_set_references():
    rng = random.Random(5)
    for _ in range(300):
        fc = random_finite_class(rng, 5, 10)
        everything = frozenset(range(len(fc.hypotheses)))
        eluder = _reference_eluder(fc, everything, {})
        littlestone = _reference_littlestone(fc, everything, {})
        for handle in (fc, as_oracle(fc)):
            assert eluder_dimension(handle) == eluder, fc.hypotheses
            assert littlestone_dimension(handle) == littlestone, fc.hypotheses
            rep = compute_dims(handle, cap=fc.domain_size)
            assert (rep.eluder, rep.littlestone) == (eluder, littlestone)
            assert verify_littlestone_tree(handle, rep.witnesses["littlestone"], littlestone)


# Unbounded references for the searches that stop at a proven bound: each
# walks every candidate its search would, with no bound, on a fresh lattice.


def _reference_star_sets(lat):
    """Every star set in the order of a depth-first walk over point-sorted
    extensions (star sets are downward closed, so the walk meets them all)."""
    out = []

    def extend(cand, state, flips, next_x):
        for x in range(next_x, lat.m):
            for y in (0, 1):
                grown = lat.meet(state, lat.pairs[x][y])
                grown_flips = [lat.meet(f, lat.pairs[x][y]) for f in flips]
                grown_flips.append(lat.meet(state, lat.pairs[x][1 - y]))
                if lat.ok(grown) and all(map(lat.ok, grown_flips)):
                    star = cand + ((x, y),)
                    out.append(star)
                    extend(star, grown, grown_flips, x + 1)

    extend((), lat.top, [], 0)
    return out


def _reference_star(sets, cap):
    """The first star set of cap+1 pairs, else the first largest one."""
    over = next((s for s in sets if len(s) == cap + 1), None)
    if over is not None:
        return CAP_EXCEEDED, over
    best = max(sets, key=len, default=())
    return len(best), best


def _reference_shattered(lat):
    """The lexicographically first shattered set of each size, upward from 0
    until a size has none."""
    firsts = [()]
    while True:
        k = len(firsts)
        found = next(
            (
                pts
                for pts in combinations(range(lat.m), k)
                if all(
                    lat.ok(_meet_all(lat, zip(pts, labels)))
                    for labels in product((0, 1), repeat=k)
                )
            ),
            None,
        )
        if found is None:
            return firsts
        firsts.append(found)


def _reference_vc(firsts, cap):
    vc = len(firsts) - 1
    return (CAP_EXCEEDED, firsts[cap + 1]) if vc > cap else (vc, firsts[vc])


def _meet_all(lat, pairs):
    state = lat.top
    for x, y in pairs:
        state = lat.meet(state, lat.pairs[x][y])
    return state


def _reference_split(lat):
    """Eluder value and sequence, Littlestone value and tree, from the split
    recursion with every splitting point of every state walked."""
    memo = {}

    def children(state):
        for x, (p0, p1) in enumerate(lat.pairs):
            s0, s1 = lat.meet(state, p0), lat.meet(state, p1)
            if lat.ok(s0) and lat.ok(s1):
                yield x, s0, s1

    def depths(state):
        if state not in memo:
            best, move, ldim = 0, None, 0
            for x, s0, s1 in children(state):
                (e0, _, l0), (e1, _, l1) = depths(s0), depths(s1)
                if 1 + e0 > best:
                    best, move = 1 + e0, (x, 0)
                if 1 + e1 > best:
                    best, move = 1 + e1, (x, 1)
                ldim = max(ldim, 1 + min(l0, l1))
            memo[state] = (best, move, ldim)
        return memo[state]

    def tree(state, depth):
        if depth == 0:
            return None
        for x, s0, s1 in children(state):
            if min(memo[s0][2], memo[s1][2]) >= depth - 1:
                return (x, tree(s0, depth - 1), tree(s1, depth - 1))
        raise AssertionError("no splitting point at positive remaining depth")

    eluder, _, ldim = depths(lat.top)
    seq, state = [], lat.top
    while (move := memo[state][1]) is not None:
        seq.append(move)
        state = lat.meet(state, lat.pairs[move[0]][move[1]])
    return eluder, tuple(seq), ldim, tree(lat.top, ldim)


def _check_against_references(handle, caps_to_try):
    fresh = _Lattice(handle)
    star_sets = _reference_star_sets(fresh)
    firsts = _reference_shattered(fresh)
    eluder, seq, ldim, tree = _reference_split(fresh)
    for cap in caps_to_try:
        rep = compute_dims(handle, cap=cap)
        caps = rep.caps
        want = {
            "vc": _reference_vc(firsts, caps["vc"]),
            "littlestone": (ldim, tree),
            "star": _reference_star(star_sets, caps["star"]),
            "hollow_star": _reference_hollow(handle, caps["hollow_star"]),
            "eluder": (
                (CAP_EXCEEDED, seq[: caps["eluder"] + 1]) if eluder > caps["eluder"] else (eluder, seq)
            ),
        }
        got = {k: (getattr(rep, k), rep.witnesses[k]) for k in want}
        assert got == want, (handle, cap)


def test_bounded_searches_match_unbounded_references():
    rng = random.Random(26)
    for _ in range(300):
        m = rng.randint(1, 9)
        rows = _distinct_rows(rng.randrange(1 << 30), m, rng.randint(1, min(1 << m, 40)))
        _check_against_references(FiniteClass(m, rows), (None, 0, 1, 2, 3))
    planar = [(0, 0), (3, 0), (0, 2), (2, 3), (1, 1)]
    for points in (PINNED_HALFSPACE_POINTS, planar):
        oracle = HalfspaceOracle([tuple(Fraction(c) for c in p) for p in points])
        _check_against_references(oracle, range(5))
    _check_against_references(HalfspaceOracle(simplex_face_domain(4, 2)), (3,))


def _forced_by_rows(fc):
    """Points where some two hypotheses differ and nowhere else, from the rows."""
    return {
        diff[0]
        for a, b in combinations(fc.hypotheses, 2)
        if len(diff := [x for x in range(fc.domain_size) if a[x] != b[x]]) == 1
    }


def test_identification_sets_hold_every_forced_point():
    # every threshold point is forced: the thresholds at it and after it differ only there
    assert min_identification_set(thresholds_1d(24)) == tuple(range(24))
    rng = random.Random(5)
    forced_somewhere = 0
    for _ in range(300):
        fc = random_finite_class(rng, 9, 40)
        forced = _forced_by_rows(fc)
        witness = min_identification_set(fc)
        assert forced <= set(witness), fc.hypotheses
        assert verify_identification_set(fc, witness)
        forced_somewhere += bool(forced)
    assert forced_somewhere > 0


def test_littlestone_verifier_rejects_a_tree_that_ends_early():
    fc = thresholds_1d(4)
    for handle in (fc, as_oracle(fc)):
        assert not verify_littlestone_tree(handle, (1, None, None), 2)
        assert not verify_littlestone_tree(handle, None, 1)


def test_a_repeated_point_is_not_shattered():
    fc = all_labelings(2)
    assert verify_shattered(fc, (1,)) and not verify_shattered(fc, (1, 1))


class _NothingRealizable:
    """An oracle under which only the empty support is realizable."""

    def __init__(self, m):
        self.domain_size = m

    def is_realizable_pairs(self, pairs):
        return not frozenset(pairs)


def test_a_class_that_realizes_no_pair_has_no_hollow_star_set():
    oracle = _NothingRealizable(3)
    assert hollow_star_number(oracle) == 0
    rep = compute_dims(oracle)
    assert (rep.hollow_star, rep.witnesses["hollow_star"]) == (0, None)
