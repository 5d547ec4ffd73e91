"""Core domain model: realizability, version spaces, deletion, ERM, bit costs.

Point ids are 0-based, so the m=4 threshold class puts "the point with
value v" at id v-1; hypothesis index t-1 fires from value t upward.
"""

import random

import pytest

from unlearn_lab import (
    Dataset,
    FiniteClass,
    HalfspaceOracle,
    UnknownItemError,
    as_oracle,
    count_bits,
    dataset_bits,
    encoding_bits,
    erm_lexmin,
    is_realizable,
    pair_bits,
    random_finite_class,
    thresholds_1d,
    version_space,
)
from unlearn_lab.core import _check_pair, _realizable_support


@pytest.fixture
def thr4():
    return thresholds_1d(4)


def test_single_point_realizable(thr4):
    assert is_realizable(thr4, Dataset.from_pairs([(1, 1)]))


def test_coincident_opposite_labels_unrealizable(thr4):
    assert not is_realizable(thr4, Dataset.from_pairs([(2, 0), (2, 1)]))


def test_one_before_zero_unrealizable(thr4):
    assert not is_realizable(thr4, Dataset.from_pairs([(0, 1), (1, 0)]))


def test_empty_dataset_realizable(thr4):
    assert is_realizable(thr4, Dataset.from_pairs([]))


def test_version_space_empty_dataset_is_whole_class(thr4):
    assert version_space(thr4, Dataset.from_pairs([])) == frozenset(range(5))


def test_version_space_single_pair(thr4):
    assert version_space(thr4, Dataset.from_pairs([(1, 1)])) == frozenset({0, 1})


def test_version_space_unrealizable_is_empty(thr4):
    assert version_space(thr4, Dataset.from_pairs([(0, 1), (1, 0)])) == frozenset()


def test_remove_single_item():
    d = Dataset.from_pairs([(0, 1), (1, 0), (2, 1)])
    survivor = d.remove({2})
    assert survivor.pairs() == ((0, 1), (2, 1))
    assert survivor.ids() == frozenset({1, 3})  # surviving ids are stable


def test_remove_empty_query_is_identity():
    d = Dataset.from_pairs([(0, 1), (1, 0)])
    assert d.remove(set()).entries == d.entries


def test_remove_one_of_two_copies():
    d = Dataset.from_pairs([(3, 1), (3, 1)])
    survivor = d.remove({1})
    assert survivor.support()[(3, 1)] == 1


def test_a_changed_support_counter_changes_no_answer():
    d = Dataset.from_pairs([(0, 0), (3, 1)])
    d.support()[(3, 0)] += 1  # the caller's own Counter, not the dataset's
    assert d.support() == {(0, 0): 1, (3, 1): 1}
    assert d.distinct_pairs() == frozenset({(0, 0), (3, 1)})
    assert is_realizable(thresholds_1d(4), d)


def _same_as_plain_list(data, entries):
    """`data` answers as a dataset rebuilt from the plain list `entries`, in entry order.

    `entries` is read last, so a dataset that has never built it is
    checked on its dict-backed reads first.
    """
    entries = list(entries)
    rebuilt = Dataset(entries)
    assert len(data) == len(rebuilt) == len(entries)
    assert list(data) == list(rebuilt) == entries
    assert data.pairs() == rebuilt.pairs() == tuple(p for _, p in entries)
    assert data.support() == rebuilt.support()
    assert data.ids() == rebuilt.ids() == frozenset(i for i, _ in entries)
    for i, p in entries:
        assert data.pair(i) == rebuilt.pair(i) == p
    assert data.entries == rebuilt.entries == tuple(entries)


def test_dataset_keeps_out_of_order_ids_in_entry_order():
    entries = [(5, (0, 1)), (2, (1, 0)), (9, (0, 1)), (1, (2, 1)), (4, (0, 1))]
    data = Dataset(entries)
    _same_as_plain_list(data, entries)
    _same_as_plain_list(data.remove([2, 9]), [entries[0], entries[3], entries[4]])
    assert data.support() == {(0, 1): 3, (1, 0): 1, (2, 1): 1}


def test_chained_removes_on_a_dataset_never_listed_equal_a_plain_list():
    rng = random.Random(17)
    pairs = [(rng.randrange(6), rng.randint(0, 1)) for _ in range(50)]
    entries = list(enumerate(pairs, 1))
    chain = [Dataset.from_pairs(pairs)]
    for removed in ([3, 50, 17], [1, 2], [49, 4, 5, 6], [18]):
        chain.append(chain[-1].remove(removed))
        entries = [e for e in entries if e[0] not in removed]
    _same_as_plain_list(chain[-1], entries)
    _same_as_plain_list(chain[0], list(enumerate(pairs, 1)))
    for removed, data in zip(([3, 50, 17], [1, 2], [49, 4, 5, 6]), chain[1:]):
        assert removed[0] not in data.ids()
        with pytest.raises(UnknownItemError):
            data.remove(removed[:1])
    _same_as_plain_list(chain[-1].remove([i for i, _ in entries]), [])


def test_empty_dataset_equals_a_plain_empty_list():
    for data in (Dataset([]), Dataset.from_pairs([]), Dataset([]).remove([])):
        _same_as_plain_list(data, [])
        assert not data and data.support() == {}
    with pytest.raises(UnknownItemError):
        Dataset([]).pair(1)


def test_remove_unknown_index_errors():
    d = Dataset.from_pairs([(0, 1)])
    with pytest.raises(UnknownItemError):
        d.remove({5})


def test_remove_duplicate_indices_forbidden():
    d = Dataset.from_pairs([(0, 1), (1, 1)])
    with pytest.raises(ValueError):
        d.remove([1, 1])


def test_erm_on_realizable_data_is_min_of_version_space(thr4):
    assert erm_lexmin(thr4, Dataset.from_pairs([(1, 1)])) == 0


def test_erm_empty_dataset(thr4):
    assert erm_lexmin(thr4, Dataset.from_pairs([])) == 0


def test_erm_unrealizable_takes_loss_one_lexmin(thr4):
    # values (1,1),(2,0): h at index 0 errs once; indexes 2..4 err once too
    assert erm_lexmin(thr4, Dataset.from_pairs([(0, 1), (1, 0)])) == 0


def test_erm_rejects_out_of_domain_pairs(thr4):
    # -1 would otherwise read the last point of every row
    for pairs in ([(0, 1), (4, 0)], [(-1, 0)]):
        with pytest.raises(ValueError, match="outside domain"):
            erm_lexmin(thr4, Dataset.from_pairs(pairs))
        with pytest.raises(ValueError, match="outside domain"):
            erm_lexmin(thr4, pairs)


def test_pair_bits():
    assert pair_bits(4) == 3


def test_encoding_bits_header_only():
    assert encoding_bits(0, 4, cap=7) == 3


def test_encoding_bits_two_pairs():
    assert encoding_bits(2, 4, cap=7) == 9


def test_encoding_bits_rejects_overflow():
    with pytest.raises(ValueError):
        encoding_bits(8, 4, cap=7)


def test_count_and_dataset_bits():
    assert count_bits(0) == 0
    assert count_bits(7) == 3
    assert dataset_bits(3, 4) == count_bits(3) + 3 * pair_bits(4)


def test_hypotheses_deduplicated():
    fc = FiniteClass(2, [[0, 1], [0, 1], [1, 1]])
    assert len(fc.hypotheses) == 2


def _random_dataset(rng, m, max_n=10):
    n = rng.randint(0, max_n)
    return Dataset.from_pairs(
        [(rng.randrange(m), rng.randint(0, 1)) for _ in range(n)]
    )


def test_realizability_monotone_under_removal():
    rng = random.Random(11)
    for _ in range(400):
        fc = random_finite_class(rng)
        d = _random_dataset(rng, fc.domain_size)
        if not is_realizable(fc, d):
            continue
        ids = [i for i in range(1, len(d) + 1) if rng.random() < 0.5]
        assert is_realizable(fc, d.remove(ids))


def test_version_space_nonempty_iff_realizable():
    rng = random.Random(12)
    for _ in range(400):
        fc = random_finite_class(rng)
        d = _random_dataset(rng, fc.domain_size)
        assert bool(version_space(fc, d)) == is_realizable(fc, d)


def test_version_space_of_concatenation_is_intersection():
    rng = random.Random(13)
    for _ in range(400):
        fc = random_finite_class(rng)
        d1 = _random_dataset(rng, fc.domain_size, 6)
        d2 = _random_dataset(rng, fc.domain_size, 6)
        both = Dataset.from_pairs(d1.pairs() + d2.pairs())
        assert version_space(fc, both) == version_space(fc, d1) & version_space(fc, d2)


def test_erm_is_min_version_space_and_permutation_invariant():
    rng = random.Random(14)
    for _ in range(400):
        fc = random_finite_class(rng)
        d = _random_dataset(rng, fc.domain_size)
        pairs = list(d.pairs())
        rng.shuffle(pairs)
        assert erm_lexmin(fc, d) == erm_lexmin(fc, Dataset.from_pairs(pairs))
        vs = version_space(fc, d)
        if vs:
            assert erm_lexmin(fc, d) == min(vs)


def test_oracle_and_finite_agree_on_all_supports():
    rng = random.Random(15)
    for _ in range(15):
        m = rng.randint(2, 5)
        fc = FiniteClass(
            m, [[rng.randint(0, 1) for _ in range(m)] for _ in range(rng.randint(1, 16))]
        )
        oracle = as_oracle(fc)
        all_pairs = [(x, y) for x in range(m) for y in (0, 1)]
        for mask in range(1 << len(all_pairs)):
            support = [all_pairs[i] for i in range(len(all_pairs)) if mask >> i & 1]
            assert is_realizable(fc, support) == is_realizable(oracle, support)


def _pairwise_realizable_support(handle, pairs):
    # the both-labels test written pair by pair
    if any((x, 1 - y) in pairs for x, y in pairs):
        for pair in pairs:
            _check_pair(pair, handle.domain_size)
        return False
    return handle.is_realizable_pairs(pairs)


class _Asked:
    """Passes questions to a handle and keeps the supports it was asked."""

    def __init__(self, inner):
        self.inner, self.domain_size, self.asked = inner, inner.domain_size, []

    def is_realizable_pairs(self, pairs):
        self.asked.append(pairs)
        return self.inner.is_realizable_pairs(pairs)


def _outcome(check, handle, pairs):
    """The answer and the supports the handle was asked, or the ValueError
    message (whoever raised it)."""
    asking = _Asked(handle)
    try:
        return check(asking, pairs), asking.asked
    except ValueError as err:
        return str(err), None


def test_both_labels_rule_answers_and_errors_like_a_pairwise_scan():
    # Supports with repeated points, out-of-domain points and out-of-domain
    # labels (one point under labels 0 and 2 holds no complementary pair):
    # the one set-size test answers, raises and asks the handle as the
    # pairwise scan does.
    rng = random.Random(71)
    kinds = {"answer": 0, "both labels": 0, "error": 0}
    for _ in range(20):
        fc = random_finite_class(rng, max_m=6, max_h=20)
        m = fc.domain_size
        points = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(m - 1)]
        points.append(rng.choice(points))  # two points with equal coordinates
        for handle in (fc, as_oracle(fc), HalfspaceOracle(points)):
            for _ in range(60):
                pairs = frozenset(
                    (rng.randint(-1, m) if rng.random() < 0.1 else rng.randrange(m),
                     rng.choice((-1, 2)) if rng.random() < 0.1 else rng.randint(0, 1))
                    for _ in range(rng.randint(0, 5))
                )
                got = _outcome(_realizable_support, handle, pairs)
                assert got == _outcome(_pairwise_realizable_support, handle, pairs), sorted(pairs)
                if isinstance(got[0], str):
                    kinds["error"] += 1
                elif len({x for x, _ in pairs}) < len(pairs):
                    kinds["both labels"] += 1
                else:
                    kinds["answer"] += 1
    assert min(kinds.values()) > 0


@pytest.mark.parametrize("build, message", [
    (lambda: FiniteClass(0, [[]]), "domain size must be at least 1"),
    (lambda: FiniteClass(2, []), "a hypothesis class needs at least one hypothesis"),
    (lambda: FiniteClass(2, [[0, 1, 1]]), "hypothesis row length must equal domain size"),
    (lambda: FiniteClass(2, [[0, 2]]), "hypothesis rows must be 0/1 valued"),
    (lambda: thresholds_1d(2).indices_to_mask([0, 3]), "hypothesis index 3 out of range"),
    (lambda: Dataset([(0, (0, 1))]), "item ids must be positive"),
    (lambda: Dataset([(1, (0, 1)), (1, (1, 0))]), "duplicate item id 1"),
    (lambda: Dataset([(1, (0, 2))]), "labels must be 0 or 1"),
    (lambda: pair_bits(0), "domain size must be at least 1"),
    (lambda: count_bits(-1), "counts are nonnegative")])
def test_bad_values_raise_value_error(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_reprs_name_the_class_size_and_the_entries():
    assert repr(thresholds_1d(2)) == "FiniteClass(m=2, hypotheses=3)"
    assert repr(Dataset([(2, (0, 1)), (5, (1, 0))])) == "Dataset([(2, (0, 1)), (5, (1, 0))])"
