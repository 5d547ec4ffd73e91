"""Central schemes: the store-everything baseline, greedy cores, critical-set
enumeration, and the bounded-deletion scheme against the retrain oracle."""

import random
from itertools import combinations

import pytest

from unlearn_lab import (
    BoundedDeletionScheme,
    Dataset,
    ErmMerkleScheme,
    HalfspaceOracle,
    PreconditionError,
    QueryTooLargeError,
    TrivialErmScheme,
    TrivialScheme,
    UnknownItemError,
    all_labelings,
    as_oracle,
    enumerate_critical_sets,
    erm_lexmin,
    halfspace_lb_instance,
    hollow_star_number,
    is_realizable,
    minimal_unrealizable_core,
    random_finite_class,
    thresholds_1d,
)


@pytest.fixture
def thr4():
    return thresholds_1d(4)


# values (1,1),(2,0),(3,1),(4,0) as ids
MIXED = ((0, 1), (1, 0), (2, 1), (3, 0))


def test_trivial_scheme_examples(thr4):
    scheme = TrivialScheme(thr4)
    d = Dataset.from_pairs([(0, 1), (1, 0)])
    answer, aux = scheme.learn(d)
    assert answer is False
    assert scheme.unlearn([], aux, {}) is False
    assert scheme.unlearn([(1, (0, 1))], aux, {}) is True
    assert scheme.aux_bits(aux) == 2 + 2 * 3  # count_bits(2) + 2 pairs


def test_trivial_scheme_unknown_index(thr4):
    scheme = TrivialScheme(thr4)
    _, aux = scheme.learn(Dataset.from_pairs([(0, 1)]))
    with pytest.raises(UnknownItemError):
        scheme.unlearn([(9, (0, 1))], aux, {})


@pytest.mark.parametrize(
    "make", [TrivialScheme, TrivialErmScheme, lambda fc: BoundedDeletionScheme(fc, 2)]
)
def test_central_schemes_take_no_tickets(thr4, make):
    scheme = make(thr4)
    data = Dataset.from_pairs([(0, 1), (1, 1)])
    learned = scheme.learn(data)
    assert len(learned) == 2  # a central learn issues no tickets
    entries = data.entries_for([1])
    with pytest.raises(ValueError, match="no tickets"):
        scheme.unlearn(entries, learned[1], {1: None})
    assert scheme.unlearn(entries, learned[1], {}) == scheme.learn(data.remove([1]))[0]


def test_core_greedy_removes_in_canonical_order(thr4):
    assert minimal_unrealizable_core(thr4, MIXED) == ((2, 1), (3, 0))


def test_core_of_coincident_pair_is_itself():
    fc = all_labelings(2)
    assert minimal_unrealizable_core(fc, [(0, 0), (0, 1)]) == ((0, 0), (0, 1))


def test_core_requires_unrealizable_input(thr4):
    with pytest.raises(PreconditionError):
        minimal_unrealizable_core(thr4, [(0, 1)])


def test_core_of_halfspace_alternation_is_everything():
    oracle = HalfspaceOracle([(0,), (1,), (2,)])
    labels = ((0, 1), (1, 0), (2, 1))
    assert minimal_unrealizable_core(oracle, labels) == labels


def test_enumerate_critical_sets_threshold_instance(thr4):
    # exhaustive minimality check finds three 2-critical sets here
    got = enumerate_critical_sets(thr4, Dataset.from_pairs(MIXED), 2)
    expected = {
        frozenset({(0, 1), (2, 1)}),
        frozenset({(0, 1), (3, 0)}),
        frozenset({(1, 0), (3, 0)}),
    }
    assert got == expected


def test_enumerate_critical_sets_coincident_pair():
    fc = all_labelings(2)
    got = enumerate_critical_sets(fc, Dataset.from_pairs([(0, 0), (0, 1)]), 1)
    assert got == {frozenset({(0, 0)}), frozenset({(0, 1)})}


def test_enumerate_rejects_realizable_data(thr4):
    with pytest.raises(PreconditionError):
        enumerate_critical_sets(thr4, Dataset.from_pairs([(0, 1)]), 2)


def _brute_force_criticals(handle, support, k):
    out = set()
    for size in range(1, k + 1):
        for q in combinations(sorted(support), size):
            qs = frozenset(q)
            if not is_realizable(handle, support - qs):
                continue
            if all(
                not is_realizable(handle, support - (qs - {p})) for p in qs
            ):
                out.add(qs)
    return out


def test_enumeration_matches_brute_force_and_census():
    rng = random.Random(41)
    done = 0
    while done < 60:
        fc = random_finite_class(rng)
        pairs = [(rng.randrange(fc.domain_size), rng.randint(0, 1)) for _ in range(rng.randint(2, 10))]
        data = Dataset.from_pairs(pairs)
        if is_realizable(fc, data):
            continue
        done += 1
        k = rng.randint(1, 3)
        got = enumerate_critical_sets(fc, data, k)
        assert got == _brute_force_criticals(fc, data.distinct_pairs(), k)
        hollow = hollow_star_number(fc)
        for size in range(1, k + 1):
            count = sum(1 for s in got if len(s) == size)
            assert count <= hollow**size


def test_bounded_scheme_threshold_examples(thr4):
    scheme = BoundedDeletionScheme(thr4, 2)
    d = Dataset.from_pairs(MIXED)
    answer, aux = scheme.learn(d)
    assert answer is False
    assert scheme.unlearn([(2, (1, 0)), (4, (3, 0))], aux, {}) is True
    assert scheme.unlearn([(1, (0, 1))], aux, {}) is False


def test_bounded_scheme_multiplicity_semantics():
    fc = all_labelings(1)
    d = Dataset.from_pairs([(0, 1), (0, 1), (0, 0)])
    scheme = BoundedDeletionScheme(fc, 1)
    _, aux = scheme.learn(d)
    # one of two copies of (x,1) removed: the pair survives
    assert scheme.unlearn([(1, (0, 1))], aux, {}) is False


def test_bounded_scheme_query_budget(thr4):
    scheme = BoundedDeletionScheme(thr4, 1)
    _, aux = scheme.learn(Dataset.from_pairs(MIXED))
    with pytest.raises(QueryTooLargeError):
        scheme.unlearn([(1, (0, 1)), (2, (1, 0))], aux, {})


def test_bounded_scheme_realizable_base_always_yes(thr4):
    scheme = BoundedDeletionScheme(thr4, 2)
    d = Dataset.from_pairs([(2, 1), (3, 1)])
    answer, aux = scheme.learn(d)
    assert answer is True
    assert scheme.unlearn([(1, (2, 1))], aux, {}) is True
    assert aux.critical_sets == frozenset()


def test_bounded_scheme_matches_oracle_on_random_instances():
    rng = random.Random(42)
    for _ in range(150):
        fc = random_finite_class(rng)
        n = rng.randint(0, 10)
        data = Dataset.from_pairs(
            [(rng.randrange(fc.domain_size), rng.randint(0, 1)) for _ in range(n)]
        )
        k = rng.randint(1, 3)
        scheme = BoundedDeletionScheme(fc, k)
        _, aux = scheme.learn(data)
        ids = rng.sample(range(1, n + 1), min(n, rng.randint(0, k)))
        entries = data.entries_for(ids)
        assert scheme.unlearn(entries, aux, {}) == is_realizable(fc, data.remove(ids))


def test_trivial_erm_scheme_matches_oracle():
    rng = random.Random(43)
    for _ in range(150):
        fc = random_finite_class(rng)
        n = rng.randint(0, 10)
        data = Dataset.from_pairs(
            [(rng.randrange(fc.domain_size), rng.randint(0, 1)) for _ in range(n)]
        )
        scheme = TrivialErmScheme(fc)
        answer, aux = scheme.learn(data)
        assert answer == erm_lexmin(fc, data)
        ids = [i for i in range(1, n + 1) if rng.random() < 0.4]
        assert scheme.unlearn(data.entries_for(ids), aux, {}) == erm_lexmin(fc, data.remove(ids))


@pytest.mark.parametrize("make", [TrivialErmScheme, ErmMerkleScheme])
def test_erm_schemes_reject_an_oracle_when_built(thr4, make):
    with pytest.raises(TypeError, match="explicit finite class"):
        make(as_oracle(thr4))


class _CountingOracle:
    """Oracle proxy that counts questions and the distinct supports asked."""

    def __init__(self, inner):
        self.inner = inner
        self.domain_size = inner.domain_size
        self.calls = 0
        self.seen = set()

    def is_realizable_pairs(self, pairs):
        fs = frozenset(pairs)
        self.calls += 1
        self.seen.add(fs)
        return self.inner.is_realizable_pairs(fs)


def test_critical_set_search_asks_each_support_once(thr4):
    # removing either pair of this conflict leaves a realizable survivor, so
    # each one-pair removal is minimal only because the support itself is not
    # realizable, which the public call already asked
    handle = _CountingOracle(as_oracle(thr4))
    got = enumerate_critical_sets(handle, [(0, 1), (1, 0)], 2)
    assert got == {frozenset({(0, 1)}), frozenset({(1, 0)})}
    assert (handle.calls, len(handle.seen)) == (3, 3)


def test_bounded_learn_asks_each_precondition_once():
    # Learn asks whether the data is realizable once; the critical-set
    # search then re-asks it neither for the core prefixes, known to be
    # unrealizable, nor for a candidate just seen to be realizable.
    inst = halfspace_lb_instance(4, 2)
    handle = _CountingOracle(inst.handle)
    answer, aux = BoundedDeletionScheme(handle, 2).learn(inst.dataset_of((1, 0, 1, 1, 0, 1)))
    assert answer is False and len(aux.critical_sets) == 2
    assert (handle.calls, len(handle.seen)) == (35, 35)
    handle = _CountingOracle(inst.handle)
    answer, aux = BoundedDeletionScheme(handle, 2).learn(inst.dataset_of((0,) * 6))
    assert answer is True and handle.calls == 1


@pytest.mark.parametrize("call", [
    lambda fc: BoundedDeletionScheme(fc, 0),
    lambda fc: enumerate_critical_sets(fc, Dataset.from_pairs([(0, 0), (0, 1)]), 0)])
def test_a_deletion_budget_below_one_is_rejected(thr4, call):
    with pytest.raises(ValueError, match="k must be at least 1"):
        call(thr4)
