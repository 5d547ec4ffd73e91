"""The tree schemes against a reference tree built from the public
compression calls, pinned version-space mask counts, and the dataset and
validation contracts the tree build relies on."""

import gc
import random

import pytest

from unlearn_lab import (
    Dataset,
    ErmMerkleScheme,
    FiniteClass,
    HalfspaceOracle,
    MerkleScheme,
    PreconditionError,
    Ticket,
    TicketError,
    TicketView,
    UnknownItemError,
    as_oracle,
    count_bits,
    erm_lexmin,
    is_realizable,
    merge,
    mergeable_decode,
    random_finite_class,
    thresholds_1d,
    vs_decode,
    vs_encode,
)
from unlearn_lab.compression import NodeStates, decode_mask

SIZES = (0, 1, 2, 3, 5, 8, 13, 64)


def _reference_tree(handle, pairs):
    """Heap-indexed nodes (root 1, leaves from `size`), merged level by level."""
    size = 1 << (max(len(pairs), 1) - 1).bit_length()
    empty = vs_encode(handle, ())
    level = [vs_encode(handle, (p,)) for p in pairs] + [empty] * (size - len(pairs))
    nodes = {size + j: enc for j, enc in enumerate(level)}
    first = size
    while len(level) > 1:
        level = [merge(handle, a, b) for a, b in zip(level[::2], level[1::2])]
        first //= 2
        nodes.update((first + j, enc) for j, enc in enumerate(level))
    return size, nodes


def _reference_fold(handle, size, nodes, ids):
    """Merge chain over the off-path siblings of the deleted leaves, in node order."""
    path, sibs = set(), set()
    for i in ids:
        v = size + i - 1
        while v > 1:
            path.add(v)
            sibs.add(v ^ 1)
            v //= 2
    folded = vs_encode(handle, ())
    for v in sorted(sibs - path):
        folded = merge(handle, folded, nodes[v])
    return folded


def _check_against_reference(scheme, handle, data, rng, decode):
    size, nodes = _reference_tree(handle, data.pairs())
    root, tickets = scheme._learn_tree(data)
    assert scheme.states.encode(root) == nodes[1]
    assert sorted(tickets) == list(range(1, len(data) + 1))
    for i, t in tickets.items():
        v, path = size + i - 1, []
        while v > 1:
            path.append(nodes[v ^ 1])
            v //= 2
        assert t.leaf == i and t.siblings == tuple(reversed(path))
    answer, aux, _ = scheme.learn(data)
    assert answer == aux == decode(handle, nodes[1])
    for _ in range(6 if data else 0):
        ids = rng.sample(range(1, len(data) + 1), rng.randint(1, min(4, len(data))))
        entries = data.entries_for(ids)
        want = _reference_fold(handle, size, nodes, ids)
        space = scheme._survivor_space(entries, tickets)
        if isinstance(handle, FiniteClass):
            assert space == decode_mask(handle, want)
        else:
            assert space is want.realizable
        assert scheme.unlearn(entries, aux, {i: tickets[i] for i in ids}) == decode(handle, want)


def _reference_tickets(handle, data):
    """Eager tickets in entry order: leaf = item id, path of position id - 1.

    Their states are the reference encodings' masks on a FiniteClass and
    the encodings themselves on an oracle.
    """
    size, nodes = _reference_tree(handle, data.pairs())
    finite = isinstance(handle, FiniteClass)
    encode = NodeStates(handle).encode
    tickets = {}
    for i, _ in data.entries:
        v, path = size + i - 1, []
        while v > 1:
            enc = nodes[v ^ 1]
            path.append(decode_mask(handle, enc) if finite else enc)
            v //= 2
        tickets[i] = Ticket(i, tuple(reversed(path)), encode)
    return tickets


def _leaves_and_siblings(tickets):
    return {i: (t.leaf, t.siblings) for i, t in tickets.items()}


def test_ticket_view_behaves_like_the_eager_ticket_dict():
    rng = random.Random(404)
    for _ in range(8):
        fc = random_finite_class(rng, max_m=6, max_h=16)
        full = _labeled(rng, fc, 13)
        removed = sorted(rng.sample(range(1, 14), 3))
        shuffled = Dataset(rng.sample(full.entries, len(full)))
        scheme = MerkleScheme(fc)
        for data in (full, full.remove(removed), shuffled):
            _, aux, view = scheme.learn(data)
            want = _reference_tickets(fc, data)
            assert dict(view) == want
            assert _leaves_and_siblings(view) == _leaves_and_siblings(want)
            assert list(view) == [i for i, _ in data.entries]
            assert len(view) == len(data) and set(view) == data.ids()
        gapped = full.remove(removed)
        _, aux, view = scheme.learn(gapped)
        size = 1 << (len(gapped) - 1).bit_length()
        for i in (0, -1, removed[0], size + 1):
            with pytest.raises(KeyError):
                view[i]
            assert view.get(i) is None and i not in view
        with pytest.raises(TypeError):
            view[gapped.entries[0][0]] = view[gapped.entries[0][0]]
        entries = ((removed[0], full.pair(removed[0])),) + gapped.entries[:1]
        with pytest.raises(TicketError, match="missing ticket"):
            scheme.unlearn(entries, aux, view)


def test_tree_learn_builds_no_ticket_until_one_is_read():
    rng = random.Random(4096)
    fc = random_finite_class(rng, max_m=8, max_h=32)
    scheme = MerkleScheme(fc)
    data = _labeled(rng, fc, 4096)

    def live_tickets():
        return sum(isinstance(o, Ticket) for o in gc.get_objects())

    gc.collect()
    before = live_tickets()
    _, _, tickets = scheme.learn(data)
    assert live_tickets() == before
    one = tickets[2048]
    assert live_tickets() == before + 1 and one.leaf == 2048


def test_state_tickets_match_eager_encoded_tickets_and_retraining():
    # dense ids answer as retraining; gapped ids keep the known defect, so
    # there the reference (leaf = item id) is what the tree must repeat
    rng = random.Random(2718)
    for _ in range(200):
        fc = random_finite_class(rng, max_m=6, max_h=16)
        dense = _labeled(rng, fc, rng.randint(1, 20))
        gone = rng.sample(range(1, len(dense) + 1), rng.randint(1, len(dense)) - 1)
        for data in (dense, dense.remove(gone)):
            size, nodes = _reference_tree(fc, data.pairs())
            realizable = is_realizable(fc, data)
            erm = ErmMerkleScheme(fc)
            for scheme, decode in (
                (MerkleScheme(fc), mergeable_decode),
                (erm, lambda fc, enc: min(vs_decode(fc, enc))),
            ):
                if max(data.ids(), default=0) > size:
                    with pytest.raises(IndexError):
                        scheme.learn(data)
                    continue
                if scheme is erm and not realizable:
                    with pytest.raises(PreconditionError):
                        scheme.learn(data)
                    continue
                answer, aux, tickets = scheme.learn(data)
                assert answer == aux == decode(fc, nodes[1])
                want = _reference_tickets(fc, data)
                assert _leaves_and_siblings(tickets) == _leaves_and_siblings(want)
                for i, t in tickets.items():
                    assert scheme.ticket_bits(t) == count_bits(size - 1) + sum(
                        enc.bits(fc.domain_size, scheme.encoding_cap) for enc in want[i].siblings
                    )
                ids = [i for i, _ in data.entries]
                for _ in range(5):
                    query = rng.sample(ids, rng.randint(1, min(4, len(ids))))
                    entries = data.entries_for(query)
                    got = scheme.unlearn(entries, aux, {i: tickets[i] for i in query})
                    assert got == decode(fc, _reference_fold(fc, size, nodes, query))
                    if data is dense:
                        survivors = data.remove(query)
                        retrained = erm_lexmin if scheme is erm else is_realizable
                        assert got == retrained(fc, survivors)


def _labeled(rng, fc, n):
    """n items labeled by one hypothesis, a few of them flipped."""
    row = fc.hypotheses[rng.randrange(len(fc))]
    xs = [rng.randrange(fc.domain_size) for _ in range(n)]
    return Dataset.from_pairs((x, row[x] ^ (rng.random() < 0.05)) for x in xs)


@pytest.mark.parametrize("n", SIZES)
def test_merkle_tree_matches_reference_on_finite_classes(n):
    rng = random.Random(900 + n)
    for _ in range(12):
        fc = random_finite_class(rng, max_m=6, max_h=16)
        _check_against_reference(MerkleScheme(fc), fc, _labeled(rng, fc, n), rng, mergeable_decode)


@pytest.mark.parametrize("n", SIZES)
def test_erm_tree_matches_reference_on_realizable_data(n):
    rng = random.Random(950 + n)

    def erm(fc, enc):
        return min(vs_decode(fc, enc))

    for _ in range(12):
        fc = random_finite_class(rng, max_m=6, max_h=16)
        row = fc.hypotheses[rng.randrange(len(fc))]
        data = Dataset.from_pairs(
            (x, row[x]) for x in (rng.randrange(fc.domain_size) for _ in range(n))
        )
        _check_against_reference(ErmMerkleScheme(fc), fc, data, rng, erm)


@pytest.mark.parametrize("n", SIZES)
def test_merkle_tree_matches_reference_on_a_halfspace_oracle(n):
    rng = random.Random(990 + n)
    points = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]
    for _ in range(3):
        oracle = HalfspaceOracle(points)
        w = (rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2))
        xs = [rng.randrange(len(points)) for _ in range(n)]
        data = Dataset.from_pairs(
            (x, int(w[0] * points[x][0] + w[1] * points[x][1] + w[2] > 0) ^ (rng.random() < 0.1))
            for x in xs
        )
        _check_against_reference(MerkleScheme(oracle), oracle, data, rng, mergeable_decode)


class _CountingClass(FiniteClass):
    __slots__ = ("calls",)

    def __init__(self, domain_size, hypotheses):
        super().__init__(domain_size, hypotheses)
        self.calls = 0

    def vs_mask(self, pairs):
        self.calls += 1
        return super().vs_mask(pairs)


def _counting_setup():
    rng = random.Random(77)
    rows = [[rng.randint(0, 1) for _ in range(8)] for _ in range(24)]
    fc = _CountingClass(8, rows)
    row = fc.hypotheses[5]
    xs = [rng.randrange(8) for _ in range(300)]
    data = Dataset.from_pairs((x, row[x] ^ (rng.random() < 0.02)) for x in xs)
    return fc, data


def test_merkle_learn_masks_each_distinct_pair_once():
    fc, data = _counting_setup()
    scheme = MerkleScheme(fc)
    fc.calls = 0
    _, aux, tickets = scheme.learn(data)
    assert fc.calls == len(data.distinct_pairs()) == 14
    # a 4-item unlearn asks once about the union of its off-path siblings'
    # pairs; here the survivors hold both labels of a point, so no mask is needed
    fc.calls = 0
    entries = data.entries_for([3, 77, 150, 299])
    assert scheme.unlearn(entries, aux, tickets) is False
    assert fc.calls == 0
    # on realizable survivors the answer is the AND of the sibling masks
    clean = Dataset.from_pairs((x, fc.hypotheses[5][x]) for x, _ in data.pairs())
    _, aux, tickets = scheme.learn(clean)
    fc.calls = 0
    assert scheme.unlearn(clean.entries_for([3, 77, 150, 299]), aux, tickets) is True
    assert fc.calls == 0


def test_erm_learn_masks_each_distinct_pair_once_and_answers_from_the_root_mask():
    fc, _ = _counting_setup()
    row = fc.hypotheses[5]
    data = Dataset.from_pairs((x % 8, row[x % 8]) for x in range(300))
    scheme = ErmMerkleScheme(fc)
    fc.calls = 0
    _, aux, tickets = scheme.learn(data)
    assert fc.calls == len(data.distinct_pairs()) == 8


class _CountingOracle:
    def __init__(self, inner):
        self.inner, self.domain_size, self.calls = inner, inner.domain_size, 0

    def is_realizable_pairs(self, pairs):
        self.calls += 1
        return self.inner.is_realizable_pairs(pairs)


def test_merkle_on_an_oracle_learns_as_before_and_unlearns_in_one_call():
    # learn asks each of the 26 distinct supports of its tree once; unlearn asks once
    oracle = _CountingOracle(HalfspaceOracle([(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]))
    data = Dataset.from_pairs([(0, 0), (1, 1), (2, 0), (3, 1), (4, 1)])
    scheme = MerkleScheme(oracle)
    answer, aux, tickets = scheme.learn(data)
    assert answer is True and oracle.calls == 26
    oracle.calls = 0
    assert scheme.unlearn(data.entries_for([2, 4]), aux, tickets) is True
    assert oracle.calls == 1


def test_erm_unlearn_makes_no_mask_call():
    fc, _ = _counting_setup()
    row = fc.hypotheses[5]
    data = Dataset.from_pairs((x % 8, row[x % 8]) for x in range(300))
    scheme = ErmMerkleScheme(fc)
    answer, aux, tickets = scheme.learn(data)
    for ids in ([1], [8, 16], [3, 77, 150, 299]):
        fc.calls = 0
        assert scheme.unlearn(data.entries_for(ids), aux, tickets) == answer
        assert fc.calls == 0


def test_ticket_lookup_and_unlearn_neither_mask_nor_canonicalise():
    fc, noisy = _counting_setup()
    clean = Dataset.from_pairs((x, fc.hypotheses[5][x]) for x, _ in noisy.pairs())
    for scheme, data in ((MerkleScheme(fc), noisy), (ErmMerkleScheme(fc), clean)):
        _, aux, tickets = scheme.learn(data)
        fc.calls, cached = 0, len(fc._canon_cache)
        for ids in ([1], [2, 3], [3, 77, 150, 299], list(range(1, 301, 7))):
            entries = data.entries_for(ids)
            scheme.unlearn(entries, aux, {i: tickets[i] for i in ids})
        assert fc.calls == 0 and len(fc._canon_cache) == cached


class _RecordingOracle(_CountingOracle):
    def __init__(self, inner):
        super().__init__(inner)
        self.asked = []

    def is_realizable_pairs(self, pairs):
        self.asked.append(frozenset(pairs))
        return super().is_realizable_pairs(pairs)


def test_merkle_unlearn_asks_the_oracle_only_about_survivor_pairs():
    # oracle encodings keep only data pairs, so unlearn never hands the
    # oracle a larger system than retraining on the survivors would
    rng = random.Random(606)
    points = [(0, 0), (2, 1), (1, 3), (-1, 2), (3, -1), (1, 1)]
    checked = 0
    for n in (1, 2, 3, 5, 8, 13, 20):
        for _ in range(4):
            oracle = _RecordingOracle(HalfspaceOracle(points))
            data = Dataset.from_pairs(
                (rng.randrange(len(points)), rng.randint(0, 1)) for _ in range(n)
            )
            scheme = MerkleScheme(oracle)
            _, aux, tickets = scheme.learn(data)
            for _ in range(7):
                ids = rng.sample(range(1, n + 1), rng.randint(1, min(4, n)))
                survivors = data.remove(ids)
                oracle.asked.clear()
                got = scheme.unlearn(data.entries_for(ids), aux, tickets)
                assert got == is_realizable(oracle.inner, survivors)
                assert all(s <= survivors.distinct_pairs() for s in oracle.asked)
                checked += sum(1 for s in oracle.asked if s)
    assert checked >= 50  # 58 non-empty supports asked over 196 queries


def test_tree_learn_raises_index_error_on_an_id_beyond_the_padded_size():
    # known defect kept: a ticket's leaf is its item id (ROADMAP item 2)
    data = Dataset([(1, (0, 1)), (2, (1, 1)), (5, (2, 1))])
    with pytest.raises(IndexError):
        MerkleScheme(thresholds_1d(4)).learn(data)


def _same_dataset(a, b):
    assert a.entries == b.entries
    assert a.ids() == b.ids()
    assert a.support() == b.support()
    for i in b.ids():
        assert a.pair(i) == b.pair(i)


def test_removed_dataset_equals_a_rebuilt_one():
    rng = random.Random(31)
    pairs = [(rng.randrange(5), rng.randint(0, 1)) for _ in range(40)]
    data = Dataset.from_pairs(pairs)
    _same_dataset(data, Dataset(list(enumerate(pairs, 1))))
    once = data.remove([2, 9, 10, 40])
    _same_dataset(once, Dataset(list(once.entries)))
    twice = once.remove([1, 11, 39])
    _same_dataset(twice, Dataset(list(twice.entries)))
    assert len(twice) == 33 and data.remove([]).entries == data.entries
    with pytest.raises(UnknownItemError):
        twice.pair(2)
    with pytest.raises(UnknownItemError):
        once.remove([9])
    with pytest.raises(ValueError):
        once.remove([3, 3])
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        Dataset.from_pairs([(0, 1), (1, 2)])


def _slice_fold(leaves, pad, meet):
    """Tree levels, leaves first and root last, each level the meet of the
    even and odd slices of the level below."""
    size = 1 << (max(len(leaves), 1) - 1).bit_length()
    levels = [list(leaves) + [pad] * (size - len(leaves))]
    while len(levels[-1]) > 1:
        level = levels[-1]
        levels.append([meet(a, b) for a, b in zip(level[::2], level[1::2])])
    return levels


def _check_levels(scheme, data, levels):
    """Every ticket's states are the sibling path of the reference levels."""
    _, tickets = scheme._learn_tree(data)
    for i in data.ids():
        v, path = i - 1, []
        for level in levels[:-1]:
            path.append(level[v ^ 1])
            v >>= 1
        assert tickets[i].states == tuple(reversed(path)), (len(data), i)


def test_learn_levels_equal_a_slice_fold_with_explicit_and():
    rng = random.Random(1707)
    for n in range(1, 41):
        fc = random_finite_class(rng, max_m=6, max_h=16)
        row = fc.hypotheses[rng.randrange(len(fc))]
        xs = [rng.randrange(fc.domain_size) for _ in range(n)]
        noisy = Dataset.from_pairs((x, rng.randint(0, 1)) for x in xs)
        realizable = Dataset.from_pairs((x, row[x]) for x in xs)
        for scheme, data in ((MerkleScheme(fc), noisy), (ErmMerkleScheme(fc), realizable)):
            levels = _slice_fold(
                [fc.vs_mask((p,)) for p in data.pairs()], fc.full_mask, lambda a, b: a & b
            )
            _check_levels(scheme, data, levels)
            root = levels[-1][0]
            erm = isinstance(scheme, ErmMerkleScheme)
            assert scheme.learn(data)[0] == (min(fc.mask_to_indices(root)) if erm else bool(root))


def test_oracle_learn_levels_equal_a_slice_fold_with_merge():
    rng = random.Random(1708)
    fc = random_finite_class(rng, max_m=6, max_h=16)
    oracle = as_oracle(fc)
    data = Dataset.from_pairs((rng.randrange(fc.domain_size), rng.randint(0, 1)) for _ in range(21))
    levels = _slice_fold(
        [vs_encode(oracle, (p,)) for p in data.pairs()],
        vs_encode(oracle, ()),
        lambda a, b: merge(oracle, a, b),
    )
    scheme = MerkleScheme(oracle)
    _check_levels(scheme, data, levels)
    assert scheme.learn(data)[0] == levels[-1][0].realizable


def test_contradiction_does_not_skip_pair_validation():
    fc = thresholds_1d(4)
    bad = [(0, 0), (0, 1), (99, 1)]
    with pytest.raises(ValueError):
        is_realizable(fc, bad)
    with pytest.raises(ValueError):
        fc.vs_mask(bad)
    assert fc.vs_mask([(0, 0), (0, 1), (3, 1)]) == 0
    assert is_realizable(fc, [(0, 0), (0, 1), (3, 1)]) is False


def test_ticket_membership_builds_no_ticket(monkeypatch):
    looked_up = []
    getitem = TicketView.__getitem__
    monkeypatch.setattr(
        TicketView, "__getitem__", lambda view, i: looked_up.append(i) or getitem(view, i)
    )
    _, _, tickets = MerkleScheme(thresholds_1d(4)).learn(Dataset.from_pairs([(0, 1), (2, 1), (3, 1)]))
    assert [i in tickets for i in (1, 2, 3, 0, 4, "1")] == [True, True, True, False, False, False]
    assert looked_up == []
    assert tickets[3].leaf == 3 and looked_up == [3]
