"""Ticketed schemes: ticket anatomy, tree folding, the successor chain, and
exact equivalence with retraining."""

import random
from dataclasses import replace

import pytest

from unlearn_lab import (
    ChainScheme,
    Dataset,
    ErmMerkleScheme,
    MerkleScheme,
    PreconditionError,
    TicketError,
    TrivialErmScheme,
    TrivialScheme,
    count_bits,
    erm_lexmin,
    is_realizable,
    merge,
    pair_bits,
    random_finite_class,
    thresholds_1d,
    tilu_ub_class,
    vs_encode,
)


@pytest.fixture
def thr4():
    return thresholds_1d(4)


def _random_dataset(rng, m, max_n):
    n = rng.randint(0, max_n)
    return Dataset.from_pairs([(rng.randrange(m), rng.randint(0, 1)) for _ in range(n)])


def test_ticket_of_leaf_five_in_an_eight_leaf_tree(thr4):
    scheme = MerkleScheme(thr4)
    data = Dataset.from_pairs([(i % 4, 1) for i in range(8)])
    _, _, tickets = scheme.learn(data)
    t5 = tickets[5]
    pairs = data.pairs()
    assert t5.leaf == 5
    assert t5.siblings == (
        vs_encode(thr4, pairs[0:4]),
        vs_encode(thr4, pairs[6:8]),
        vs_encode(thr4, pairs[5:6]),
    )


def test_single_item_ticket_has_no_siblings(thr4):
    scheme = MerkleScheme(thr4)
    _, _, tickets = scheme.learn(Dataset.from_pairs([(2, 1)]))
    assert tickets[1].leaf == 1
    assert tickets[1].siblings == ()


def test_merkle_aux_is_the_learn_answer(thr4):
    scheme = MerkleScheme(thr4)
    answer, aux, _ = scheme.learn(Dataset.from_pairs([(2, 1), (3, 1)]))
    assert answer is True and aux is True
    assert scheme.aux_bits(aux) == 1


def test_merkle_empty_query_returns_aux(thr4):
    scheme = MerkleScheme(thr4)
    data = Dataset.from_pairs([(0, 1), (1, 0)])
    answer, aux, tickets = scheme.learn(data)
    assert answer is False
    assert scheme.unlearn([], aux, {}) is False


def test_merkle_deleting_everything_is_realizable(thr4):
    scheme = MerkleScheme(thr4)
    data = Dataset.from_pairs([(0, 1), (1, 0), (2, 1)])
    _, aux, tickets = scheme.learn(data)
    entries = data.entries_for(range(1, 4))
    assert scheme.unlearn(entries, aux, tickets) is True


def test_merkle_fold_equals_survivor_encoding(thr4):
    scheme = MerkleScheme(thr4)
    data = Dataset.from_pairs([(i % 4, 1) for i in range(8)])
    _, aux, tickets = scheme.learn(data)
    space = scheme._survivor_space(data.entries_for([5]), tickets)
    assert space == thr4.vs_mask(data.remove([5]).distinct_pairs())
    assert scheme.states.encode(space) == vs_encode(thr4, data.remove([5]))


def test_tree_nodes_are_merges_of_children():
    rng = random.Random(51)
    for _ in range(30):
        fc = random_finite_class(rng, max_m=5, max_h=12)
        data = _random_dataset(rng, fc.domain_size, 9)
        scheme = MerkleScheme(fc)
        root, tickets = scheme._learn_tree(data)
        assert scheme.states.encode(root) == vs_encode(fc, data)
        for item_id, t in tickets.items():
            # each recorded sibling encodes exactly its subtree's items
            size = 1 << len(t.siblings)
            heap = size + item_id - 1
            path = []
            v = heap
            while v > 1:
                path.append(v)
                v //= 2
            for enc, node in zip(t.siblings, reversed(path)):
                sib = node ^ 1
                level = sib.bit_length() - 1
                span = size >> level
                lo = (sib - (1 << level)) * span
                members = [
                    data.pairs()[i] for i in range(lo, lo + span) if i < len(data)
                ]
                assert enc == vs_encode(fc, members)


def test_merkle_matches_trivial_on_random_queries():
    rng = random.Random(52)
    for _ in range(200):
        fc = random_finite_class(rng)
        data = _random_dataset(rng, fc.domain_size, 10)
        trivial = TrivialScheme(fc)
        scheme = MerkleScheme(fc)
        _, aux_t = trivial.learn(data)
        _, aux_m, tickets = scheme.learn(data)
        ids = [i for i in range(1, len(data) + 1) if rng.random() < 0.5]
        entries = data.entries_for(ids)
        expected = trivial.unlearn(entries, aux_t, {})
        got = scheme.unlearn(entries, aux_m, {i: tickets[i] for i in ids})
        assert got == expected


def test_merkle_missing_ticket_raises(thr4):
    scheme = MerkleScheme(thr4)
    data = Dataset.from_pairs([(0, 1), (1, 1)])
    _, aux, tickets = scheme.learn(data)
    with pytest.raises(TicketError):
        scheme.unlearn(data.entries_for([1]), aux, {})


def test_merkle_none_ticket_raises(thr4):
    scheme = MerkleScheme(thr4)
    data = Dataset.from_pairs([(0, 1), (1, 1)])
    _, aux, _ = scheme.learn(data)
    with pytest.raises(TicketError):
        scheme.unlearn(data.entries_for([1]), aux, {1: None})


def test_merkle_inconsistent_tickets_raise(thr4):
    scheme = MerkleScheme(thr4)
    data = Dataset.from_pairs([(0, 1), (1, 1), (2, 1), (3, 1)])
    _, aux, tickets = scheme.learn(data)
    # tickets 1 and 2 both carry the right subtree's state; forge one copy
    forged = replace(tickets[2], states=(thr4.vs_mask([(0, 0)]),) + tickets[2].states[1:])
    with pytest.raises(TicketError):
        scheme.unlearn(data.entries_for([1, 2]), aux, {1: tickets[1], 2: forged})


def test_merkle_ticket_bits_for_thresholds():
    fc = thresholds_1d(8)
    scheme = MerkleScheme(fc, encoding_cap=2)
    data = Dataset.from_pairs([(i % 8, 1) for i in range(16)])
    _, _, tickets = scheme.learn(data)
    depth = 4  # 16 leaves
    per_level = count_bits(2) + 2 * pair_bits(8)
    for t in tickets.values():
        assert scheme.ticket_bits(t) <= count_bits(15) + depth * per_level


CHAIN_D, CHAIN_X = 2, 4


def test_chain_scheme_spec_examples():
    scheme = ChainScheme(CHAIN_D, CHAIN_X)
    # values (1,0),(1,1),(3,1),(4,0) as ids (0,*),(2,*),(3,*)
    data = Dataset.from_pairs([(0, 0), (0, 1), (2, 1), (3, 0)])
    answer, aux, tickets = scheme.learn(data)
    assert answer is False
    assert scheme.unlearn([], aux, {}) is False
    entries = data.entries_for([1, 3])
    assert scheme.unlearn(entries, aux, {1: tickets[1], 3: tickets[3]}) is True

    single = Dataset.from_pairs([(2, 1)])
    _, aux2, tx2 = scheme.learn(single)
    assert scheme.unlearn(single.entries_for([1]), aux2, tx2) is True


def test_chain_matches_finite_oracle_exhaustively_small():
    rng = random.Random(53)
    for _ in range(40):
        d = rng.randint(1, 3)
        x = rng.randint(d, 5)
        fc = tilu_ub_class(d, x)
        scheme = ChainScheme(d, x)
        data = _random_dataset(rng, x, 7)
        n = len(data)
        _, aux, tickets = scheme.learn(data)
        for mask in range(1 << n):
            ids = [i + 1 for i in range(n) if mask >> i & 1]
            entries = data.entries_for(ids)
            expected = is_realizable(fc, data.remove(ids))
            got = scheme.unlearn(entries, aux, {i: tickets[i] for i in ids})
            assert got == expected


def test_chain_ticket_and_aux_sizes():
    scheme = ChainScheme(3, 6)
    data = Dataset.from_pairs([(0, 0), (0, 1), (4, 1), (5, 1), (2, 0)])
    _, aux, tickets = scheme.learn(data)
    slot = count_bits(6) + 2 * count_bits(5)
    assert scheme.aux_bits(aux) == count_bits(5) + 2 * slot
    assert scheme.ticket_bits(tickets[1]) == 2 * slot
    assert scheme.ticket_bits(tickets[5]) == 0  # (2,0) sits on no blocker


def test_chain_missing_needed_ticket_raises():
    scheme = ChainScheme(2, 4)
    data = Dataset.from_pairs([(0, 0), (0, 1), (2, 1), (3, 1)])
    _, aux, tickets = scheme.learn(data)
    entries = data.entries_for([1, 3, 4])
    with pytest.raises(TicketError):
        scheme.unlearn(entries, aux, {1: tickets[1], 4: tickets[4]})


def test_chain_walk_needs_the_ticket_of_each_discharged_blocker():
    scheme = ChainScheme(2, 4)
    data = Dataset.from_pairs([(0, 0), (0, 1), (2, 1), (3, 1)])
    _, aux, tickets = scheme.learn(data)
    entries = data.entries_for([1, 3])
    assert scheme.unlearn(entries, aux, {1: tickets[1], 3: tickets[3]}) is False
    # the second blocker (point 2) is discharged, but no deleted item carries its ticket
    with pytest.raises(TicketError, match="no deleted item carries the ticket of blocker 2"):
        scheme.unlearn(entries, aux, {1: tickets[1], 3: None})


@pytest.mark.parametrize("d", [0, 5])
def test_chain_free_prefix_must_fit_the_domain(d):
    with pytest.raises(ValueError, match="need 1 <= d <= domain size"):
        ChainScheme(d, 4)


def test_erm_merkle_examples(thr4):
    scheme = ErmMerkleScheme(thr4)
    data = Dataset.from_pairs([(1, 1), (2, 1)])  # values (2,1),(3,1)
    answer, aux, tickets = scheme.learn(data)
    assert answer == 0 and aux == 0
    assert scheme.unlearn([], aux, {}) == 0
    assert scheme.unlearn(data.entries_for([1]), aux, {1: tickets[1]}) == 0
    assert scheme.aux_bits(aux) == 3  # ceil(log2 5)

    single = Dataset.from_pairs([(3, 1)])
    a2, aux2, _ = scheme.learn(single)
    assert a2 == 0


def test_erm_merkle_rejects_unrealizable(thr4):
    scheme = ErmMerkleScheme(thr4)
    with pytest.raises(PreconditionError):
        scheme.learn(Dataset.from_pairs([(0, 1), (1, 0)]))


def test_erm_merkle_matches_trivial_erm_on_realizable_data():
    rng = random.Random(54)
    done = 0
    while done < 120:
        fc = random_finite_class(rng)
        row = fc.hypotheses[rng.randrange(len(fc.hypotheses))]
        n = rng.randint(0, 9)
        data = Dataset.from_pairs(
            [(x, row[x]) for x in (rng.randrange(fc.domain_size) for _ in range(n))]
        )
        done += 1
        trivial = TrivialErmScheme(fc)
        scheme = ErmMerkleScheme(fc)
        a_t, aux_t = trivial.learn(data)
        a_m, aux_m, tickets = scheme.learn(data)
        assert a_t == a_m == erm_lexmin(fc, data)
        ids = [i for i in range(1, n + 1) if rng.random() < 0.5]
        entries = data.entries_for(ids)
        assert scheme.unlearn(entries, aux_m, {i: tickets[i] for i in ids}) == trivial.unlearn(
            entries, aux_t, {}
        )


def test_chain_unknown_id_raises_ticket_error():
    scheme = ChainScheme(2, 4)
    data = Dataset.from_pairs([(0, 1), (0, 0), (1, 1)])
    _, aux, tickets = scheme.learn(data)
    with pytest.raises(TicketError):
        scheme.unlearn([(99, (0, 1))], aux, {})
    with pytest.raises(TicketError):
        scheme.unlearn([(1, (0, 1)), (99, (0, 0))], aux, {1: tickets[1]})
    assert scheme.unlearn(data.entries_for([1]), aux, {1: tickets[1]}) is True
