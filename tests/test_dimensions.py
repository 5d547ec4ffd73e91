"""Dimension searches: frozen small-class values, witnesses, and inequalities."""

import json
import random
from fractions import Fraction

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
    littlestone_dimension,
    min_identification_set,
    parity_class,
    random_finite_class,
    star_number,
    thresholds_1d,
    vc_dimension,
    vclb_instance,
)
from unlearn_lab.dimensions import (
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
    # the hollow search at cap 0 looks for one-pair sets only, so it reads 0
    # on thresholds although their hollow star number is 2
    assert [search(fc, cap=0) for search in SEARCHES] == [CAP_EXCEEDED, CAP_EXCEEDED, 0, CAP_EXCEEDED]
    rep = compute_dims(fc, cap=0)
    assert (rep.vc, rep.star, rep.hollow_star, rep.eluder) == (CAP_EXCEEDED, CAP_EXCEEDED, 0, CAP_EXCEEDED)
    assert rep.caps == dict.fromkeys(("vc", "star", "hollow_star", "eluder"), 0)
    assert scheme_bound("bounded", fc, 3, k=1, dim_cap=0)["bits"] == 1
    assert scheme_bound("bounded", fc, 3, k=1)["bits"] == 21


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


def test_littlestone_needs_finite_class():
    with pytest.raises(AttributeError):
        littlestone_dimension(HalfspaceOracle([(0,), (1,)]))


def test_oracle_report_skips_finite_only_dimensions():
    oracle = HalfspaceOracle([(i,) for i in range(4)])
    rep = compute_dims(oracle, cap=3)
    assert rep.littlestone is None and rep.mis is None
    # rays open in either direction shatter two collinear points, never three
    assert rep.vc == 2
    assert rep.hollow_star == 3


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
    "vc": 4, "littlestone": None, "star": CAP_EXCEEDED, "hollow_star": 4,
    "eluder": CAP_EXCEEDED, "mis": None,
    "caps": {"vc": 4, "star": 4, "hollow_star": 4, "eluder": 4},
    "witnesses": {
        "vc": [0, 1, 2, 4],
        "littlestone": None,
        "star": [[x, 0] for x in range(5)],
        "hollow_star": [[0, 0], [1, 1], [2, 1], [3, 0]],
        "eluder": [[x, 0] for x in range(5)],
        "mis": None,
    },
}
PINNED_HALFSPACE_CALLS = 242


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


def test_finite_and_oracle_paths_agree_on_values_and_witnesses():
    rng = random.Random(24)
    keys = ("vc", "star", "hollow_star", "eluder")
    for _ in range(100):
        fc = random_finite_class(rng, max_m=6, max_h=16)
        for cap in (1, 2, fc.domain_size + 1):
            fin = compute_dims(fc, cap=cap)
            orc = compute_dims(as_oracle(fc), cap=cap)
            assert [getattr(fin, k) for k in keys] == [getattr(orc, k) for k in keys]
            assert [fin.witnesses[k] for k in keys] == [orc.witnesses[k] for k in keys]


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
