"""Compression laws: informative subsequences, pruning, canonical encodings,
merge algebra, and the adapter from central schemes to compressions."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from unlearn_lab import (
    Dataset,
    FiniteClass,
    HalfspaceOracle,
    NotAVersionSpaceError,
    PreconditionError,
    TrivialScheme,
    VsEncoding,
    as_oracle,
    canonical_dataset,
    eluder_dimension,
    enumerate_critical_sets,
    is_realizable,
    eluder_subsequence,
    lu_to_vs_adapter,
    merge,
    mergeable_decode,
    mergeable_to_vs_decode,
    mergeable_triple,
    min_identification_set,
    minimal_unrealizable_core,
    parity_class,
    random_finite_class,
    star_number,
    star_prune,
    thresholds_1d,
    unrealizable_marker,
    version_space,
    vs_decode,
    vs_encode,
)
from unlearn_lab.core import _check_pair, _realizable_support, support_pairs


@pytest.fixture
def thr4():
    return thresholds_1d(4)


def test_eluder_subsequence_skips_duplicates(thr4):
    # values (4,1),(4,1),(3,1): the duplicate adds nothing
    assert eluder_subsequence(thr4, [(3, 1), (3, 1), (2, 1)]) == [(3, 1), (2, 1)]


def test_eluder_subsequence_empty(thr4):
    assert eluder_subsequence(thr4, []) == []


def test_eluder_subsequence_early_exit_on_forced_conflict(thr4):
    # after value (1,1) every consistent hypothesis labels value 2 as 1
    assert eluder_subsequence(thr4, [(0, 1), (1, 0)]) == [(0, 1), (1, 0)]


def test_star_prune_keeps_first_informative_pair(thr4):
    # values (2,1),(3,1),(4,1) collapse to (2,1)
    assert star_prune(thr4, [(1, 1), (2, 1), (3, 1)]) == [(1, 1)]


def test_star_prune_empty(thr4):
    assert star_prune(thr4, []) == []


def test_star_prune_keeps_pairs_that_shrink_the_version_space(thr4):
    kept = [(0, 0), (1, 1)]  # values (1,0),(2,1)
    assert star_prune(thr4, kept) == kept


def test_vs_encode_examples(thr4):
    enc = vs_encode(thr4, Dataset.from_pairs([(1, 1), (2, 1)]))
    assert enc == VsEncoding(True, ((1, 1),))
    assert vs_decode(thr4, enc) == frozenset({0, 1})

    enc_bad = vs_encode(thr4, [(2, 0), (2, 1)])
    assert enc_bad == unrealizable_marker()
    assert vs_decode(thr4, enc_bad) == frozenset()

    enc_empty = vs_encode(thr4, [])
    assert enc_empty == VsEncoding(True, ())
    assert vs_decode(thr4, enc_empty) == frozenset(range(5))


def test_canonical_dataset_examples(thr4):
    assert canonical_dataset(thr4, {0, 1}) == VsEncoding(True, ((1, 1),))
    assert canonical_dataset(thr4, set()) == unrealizable_marker()
    assert canonical_dataset(thr4, range(5)) == VsEncoding(True, ())


def test_canonical_dataset_rejects_non_version_space(thr4):
    # threshold version spaces are index intervals; {0, 3} is not one
    with pytest.raises(NotAVersionSpaceError):
        canonical_dataset(thr4, {0, 3})


@pytest.mark.parametrize("oracle", [False, True])
def test_star_prune_normalises_pairs_as_the_scan_does(thr4, oracle):
    handle = as_oracle(thr4) if oracle else thr4
    for pairs in ([(Fraction(1), 0), (2, 1)], [(1.0, 1)], [[1, 0]], [(True, 0)]):
        ints = [(int(x), int(y)) for x, y in pairs]
        got = star_prune(handle, pairs)
        assert got == star_prune(handle, ints) == [p for p in ints if p in got]
        assert all(type(v) is int for pair in got for v in pair)
    with pytest.raises(ValueError, match="outside domain"):
        star_prune(handle, [(Fraction(4), 0)])


def test_canonical_pruning_on_masks_matches_star_prune():
    # every version space of each class: the ANDs of its single-pair masks
    rng = random.Random(34)
    for _ in range(60):
        fc = random_finite_class(rng, max_m=6, max_h=24)
        full, m = fc.full_mask, fc.domain_size
        spaces = {full}
        for x in range(m):
            spaces |= {s & fc.pair_mask(x, y) for s in spaces for y in (0, 1)}
        for mask in spaces - {0}:
            agreed = [
                (x, y)
                for x in range(m)
                for y in (0, 1)
                if fc.pair_mask(x, y) != full and mask & fc.pair_mask(x, y) == mask
            ]
            got = canonical_dataset(fc, fc.mask_to_indices(mask))
            assert got == VsEncoding(True, tuple(star_prune(fc, agreed))), (fc.hypotheses, mask)


def test_merge_examples(thr4):
    e1 = vs_encode(thr4, [(3, 1)])
    e2 = vs_encode(thr4, [(2, 1)])
    assert merge(thr4, e1, e2) == vs_encode(thr4, [(3, 1), (2, 1)])
    ident = vs_encode(thr4, [])
    assert merge(thr4, e1, ident) == e1
    clash = merge(thr4, vs_encode(thr4, [(0, 1)]), vs_encode(thr4, [(1, 0)]))
    assert clash == unrealizable_marker()
    assert not mergeable_decode(thr4, clash)


def _random_pairs(rng, m, max_n=10):
    return [(rng.randrange(m), rng.randint(0, 1)) for _ in range(rng.randint(0, max_n))]


def test_round_trip_on_random_classes():
    rng = random.Random(31)
    for _ in range(150):
        fc = random_finite_class(rng)
        pairs = _random_pairs(rng, fc.domain_size)
        assert vs_decode(fc, vs_encode(fc, pairs)) == version_space(fc, pairs)


def test_encoding_is_canonical_in_the_version_space():
    rng = random.Random(32)
    for _ in range(150):
        fc = random_finite_class(rng)
        p1 = _random_pairs(rng, fc.domain_size)
        p2 = _random_pairs(rng, fc.domain_size)
        if version_space(fc, p1) == version_space(fc, p2):
            assert vs_encode(fc, p1) == vs_encode(fc, p2)


def test_merge_laws_random():
    rng = random.Random(33)
    for _ in range(120):
        fc = random_finite_class(rng)
        s1 = _random_pairs(rng, fc.domain_size, 6)
        s2 = _random_pairs(rng, fc.domain_size, 6)
        s3 = _random_pairs(rng, fc.domain_size, 6)
        e1, e2, e3 = (vs_encode(fc, s) for s in (s1, s2, s3))
        assert merge(fc, e1, e2) == vs_encode(fc, s1 + s2)
        assert merge(fc, e1, e2) == merge(fc, e2, e1)
        assert merge(fc, merge(fc, e1, e2), e3) == merge(fc, e1, merge(fc, e2, e3))
        assert merge(fc, e1, e1) == e1
        assert merge(fc, e1, vs_encode(fc, [])) == e1


def test_size_bounds():
    rng = random.Random(34)
    for _ in range(60):
        fc = random_finite_class(rng)
        star = star_number(fc)
        eluder = eluder_dimension(fc)
        for _ in range(5):
            pairs = _random_pairs(rng, fc.domain_size)
            enc = vs_encode(fc, pairs)
            if enc.realizable:
                assert len(enc.pairs) <= star
            assert len(eluder_subsequence(fc, pairs)) <= eluder + 1


def test_oracle_class_encodings_satisfy_semantic_laws():
    rng = random.Random(35)
    for _ in range(40):
        fc = random_finite_class(rng, max_m=5, max_h=12)
        oracle = as_oracle(fc)
        s1 = _random_pairs(rng, fc.domain_size, 6)
        s2 = _random_pairs(rng, fc.domain_size, 6)
        e1 = vs_encode(oracle, s1)
        e2 = vs_encode(oracle, s2)
        assert version_space(fc, e1.pairs) == version_space(fc, s1)
        merged = merge(oracle, e1, e2)
        assert version_space(fc, merged.pairs) == version_space(fc, s1 + s2)
        assert mergeable_decode(oracle, merged) == bool(version_space(fc, s1 + s2))


def test_mergeable_to_vs_decode_examples(thr4):
    triple = mergeable_triple(thr4)
    assert mergeable_to_vs_decode(thr4, triple, vs_encode(thr4, [(1, 1)])) == frozenset({0, 1})
    assert mergeable_to_vs_decode(thr4, triple, unrealizable_marker()) == frozenset()
    assert mergeable_to_vs_decode(thr4, triple, vs_encode(thr4, [])) == frozenset(range(5))


def test_mergeable_to_vs_decode_random():
    rng = random.Random(36)
    for _ in range(40):
        fc = random_finite_class(rng, max_m=5, max_h=10)
        triple = mergeable_triple(fc)
        pairs = _random_pairs(rng, fc.domain_size, 6)
        enc = vs_encode(fc, pairs)
        assert mergeable_to_vs_decode(fc, triple, enc) == version_space(fc, pairs)


def test_adapter_examples():
    par = parity_class(2)
    scheme = TrivialScheme(par)
    aux, dec = lu_to_vs_adapter(scheme, par, Dataset.from_pairs([(2, 0)]))
    assert dec(aux) == frozenset({0, 1})

    thr = thresholds_1d(4)
    aux, dec = lu_to_vs_adapter(TrivialScheme(thr), thr, Dataset.from_pairs([(0, 1), (1, 0)]))
    assert dec(aux) == frozenset()

    aux, dec = lu_to_vs_adapter(TrivialScheme(thr), thr, Dataset.from_pairs([(1, 1), (2, 1)]))
    assert dec(aux) == frozenset({0, 1})


def test_adapter_input_size_bound():
    rng = random.Random(37)
    for _ in range(25):
        fc = random_finite_class(rng, max_m=5, max_h=10)
        eluder = eluder_dimension(fc)
        mis = len(min_identification_set(fc))
        seen = {}

        class _Probe:
            def learn(self, data):
                seen["n"] = len(data)
                return TrivialScheme(fc).learn(data)

            def unlearn(self, deleted, aux, tickets):
                return TrivialScheme(fc).unlearn(deleted, aux, tickets)

        pairs = _random_pairs(rng, fc.domain_size, 8)
        aux, dec = lu_to_vs_adapter(_Probe(), fc, Dataset.from_pairs(pairs))
        assert seen["n"] <= eluder + 1 + 2 * mis
        assert dec(aux) == version_space(fc, pairs)


def test_adapter_small_exhaustive(thr4):
    all_pairs = [(x, y) for x in range(4) for y in (0, 1)]
    scheme = TrivialScheme(thr4)
    for size in range(3):
        for combo in combinations(all_pairs, size):
            data = Dataset.from_pairs(combo)
            aux, dec = lu_to_vs_adapter(scheme, thr4, data)
            assert dec(aux) == version_space(thr4, data)


class _EmptyDomainOracle:
    domain_size = 0

    def is_realizable_pairs(self, pairs):
        return not list(pairs)


def test_an_oracle_over_no_points_encodes_the_empty_dataset():
    assert vs_encode(_EmptyDomainOracle(), []) == VsEncoding(True, ())
    assert eluder_subsequence(_EmptyDomainOracle(), []) == []


# Frozenset reference implementations of the scan, the star prune and the
# greedy core, which ask the handle directly; the lattice code must agree.


def _ref_eluder_subsequence(handle, data):
    # every pair is read by the pair rule before anything is asked, also those after the stop
    raw = data.pairs() if isinstance(data, Dataset) else data
    pairs = [_check_pair(pair, handle.domain_size) for pair in raw]
    kept, kept_fs = [], frozenset()
    for x, y in pairs:
        if (x, y) in kept_fs:
            continue
        with_y = handle.is_realizable_pairs(kept_fs | {(x, y)})
        with_flip = handle.is_realizable_pairs(kept_fs | {(x, 1 - y)})
        if with_y and with_flip:
            kept.append((x, y))
            kept_fs = kept_fs | {(x, y)}
        elif not with_y:
            kept.append((x, y))
            return kept
    return kept


def _ref_star_prune(handle, kept):
    current = list(dict.fromkeys(kept))
    i = 0
    while i < len(current):
        x, y = current[i]
        rest = frozenset(current[:i] + current[i + 1 :])
        if not handle.is_realizable_pairs(rest | {(x, 1 - y)}):
            del current[i]
        else:
            i += 1
    return current


def _ref_greedy_core(handle, support):
    core = support
    for pair in sorted(support):
        rest = core - {pair}
        if not _realizable_support(handle, rest):
            core = rest
    return tuple(sorted(core))


def _ref_vs_encode(handle, data):
    if isinstance(handle, FiniteClass):  # the canonical encoding, without the class's cache
        mask = handle.vs_mask(support_pairs(data))
        if not mask:
            return unrealizable_marker()
        full, m = handle.full_mask, handle.domain_size
        agreed = [(x, y) for x in range(m) for y in (0, 1)
                  if handle.pair_mask(x, y) != full and mask & handle.pair_mask(x, y) == mask]
        return VsEncoding(True, tuple(_ref_star_prune(handle, agreed)))
    kept = _ref_eluder_subsequence(handle, data)
    if not is_realizable(handle, kept):
        return unrealizable_marker()
    return VsEncoding(True, tuple(sorted(_ref_star_prune(handle, kept))))


def _ref_merge(handle, e1, e2):
    # on a finite class, the canonical encoding of the AND of the two decoded masks
    return _ref_vs_encode(handle, e1.pairs + e2.pairs)


def _ref_core(handle, data):
    support = support_pairs(data)
    if _realizable_support(handle, support):
        raise PreconditionError
    return _ref_greedy_core(handle, support)


def _ref_critical_sets(handle, data, k):
    support = support_pairs(data)
    if _realizable_support(handle, support):
        raise PreconditionError
    found, frontier = set(), {frozenset()}
    for _ in range(k):
        nxt = set()
        for prefix in frontier:
            for pair in _ref_greedy_core(handle, support - prefix):
                cand = prefix | {pair}
                if cand in found or cand in nxt:
                    continue
                if not _realizable_support(handle, support - cand):
                    nxt.add(cand)
                elif not any(_realizable_support(handle, support - (cand - {p})) for p in cand):
                    found.add(cand)
        frontier = nxt
    return found


def _outcome(fn, *args):
    try:
        return "returned", fn(*args)
    except Exception as exc:  # the type is what must match
        return "raised", type(exc)


def _noisy_pairs(rng, m, max_n):
    """Pairs mostly in the domain; about one in ten has a point just outside it."""
    return [
        (rng.choice((-1, m)) if rng.random() < 0.1 else rng.randrange(m), rng.randint(0, 1))
        for _ in range(rng.randint(0, max_n))
    ]


def _differential_handles(rng):
    fc = random_finite_class(rng, max_m=6, max_h=16)
    points = set()
    while len(points) < rng.randint(3, 5):
        points.add((rng.randint(-3, 3), rng.randint(-3, 3)))
    return fc, as_oracle(fc), HalfspaceOracle(sorted(points))


def test_lattice_compression_and_cores_match_the_frozenset_references():
    rng = random.Random(2301)
    for _ in range(40):
        for handle in _differential_handles(rng):
            m = handle.domain_size
            for _ in range(4):
                pairs = _noisy_pairs(rng, m, 8)
                data = Dataset.from_pairs(pairs) if rng.random() < 0.5 else pairs
                k = rng.randint(1, 3)
                enc = vs_encode(handle, _random_pairs(rng, m, 5))
                odd = VsEncoding(True, tuple(_noisy_pairs(rng, m, 3)))
                for got, want in (
                    (eluder_subsequence, _ref_eluder_subsequence),
                    (star_prune, _ref_star_prune),
                    (vs_encode, _ref_vs_encode),
                    (minimal_unrealizable_core, _ref_core),
                ):
                    assert _outcome(got, handle, data if got is not star_prune else pairs) == (
                        _outcome(want, handle, data if got is not star_prune else pairs)
                    ), (got.__name__, handle, pairs)
                for other in (enc, odd, unrealizable_marker()):
                    assert _outcome(merge, handle, enc, other) == _outcome(
                        _ref_merge, handle, enc, other
                    ), (handle, enc, other)
                assert _outcome(enumerate_critical_sets, handle, data, k) == _outcome(
                    _ref_critical_sets, handle, data, k
                ), (handle, pairs, k)
