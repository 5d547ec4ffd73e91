"""The item-id contract and the shared query checks of the schemes.

The central schemes and the chain scheme accept any ids a Dataset holds,
including the gapped ids left by earlier deletions, and answer exactly
as retraining on the survivors. The tree schemes are exact only while
ids are 1..n (a known defect, ROADMAP item 2), so they are checked here
on such datasets only.
"""

import ast
import random
from dataclasses import replace
from pathlib import Path

import pytest

from unlearn_lab import (
    BoundedDeletionScheme,
    ChainScheme,
    Dataset,
    ErmMerkleScheme,
    MerkleScheme,
    TicketError,
    TrivialErmScheme,
    TrivialScheme,
    erm_lexmin,
    is_realizable,
    random_finite_class,
    thresholds_1d,
    tilu_ub_class,
)

K = 2  # deletion budget of the bounded scheme


def _learn(scheme, data):
    """(aux, tickets) of a central or ticketed scheme; central ones issue none."""
    _, aux, *issued = scheme.learn(data)
    return aux, issued[0] if issued else {}


def _ask(scheme, data, ids):
    """Learn on data, then unlearn ids with the deleted items' tickets."""
    aux, tickets = _learn(scheme, data)
    sub = {i: tickets[i] for i in ids if i in tickets}
    return scheme.unlearn(data.entries_for(ids), aux, sub)


def _check(fc, chain_d, data, rng):
    """Every applicable scheme against the trivial schemes and the oracles."""
    ids = sorted(data.ids())
    queries = [rng.sample(ids, rng.randint(0, min(K, len(ids)))) for _ in range(3)]
    queries.append([i for i in ids if rng.random() < 0.5])
    realizable = is_realizable(fc, data)
    fresh = ids == list(range(1, len(data) + 1))  # the tree schemes need ids 1..n
    for q in queries:
        survivor = data.remove(q)
        want = is_realizable(fc, survivor)
        schemes = [TrivialScheme(fc)]
        if fresh:
            schemes.append(MerkleScheme(fc))
        if len(q) <= K:
            schemes.append(BoundedDeletionScheme(fc, K))
        if chain_d is not None:
            schemes.append(ChainScheme(chain_d, fc.domain_size))
        for scheme in schemes:
            assert _ask(scheme, data, q) == want, type(scheme).__name__
        want_erm = erm_lexmin(fc, survivor)
        assert _ask(TrivialErmScheme(fc), data, q) == want_erm
        if realizable and fresh:
            assert _ask(ErmMerkleScheme(fc), data, q) == want_erm


def _random_case(rng):
    if rng.random() < 0.3:
        d = rng.randint(1, 3)
        fc, chain_d = tilu_ub_class(d, rng.randint(d, 5)), d
    else:
        fc, chain_d = random_finite_class(rng, max_m=5, max_h=12), None
    if rng.random() < 0.5:
        # realizable data, so the ERM tree scheme takes part
        row = fc.hypotheses[rng.randrange(len(fc.hypotheses))]
        points = [rng.randrange(fc.domain_size) for _ in range(rng.randint(0, 12))]
        pairs = [(x, row[x]) for x in points]
    else:
        m = fc.domain_size
        pairs = [(rng.randrange(m), rng.randint(0, 1)) for _ in range(rng.randint(0, 12))]
    return fc, chain_d, Dataset.from_pairs(pairs)


def _random_removal(rng, data):
    ids = sorted(data.ids())
    return rng.sample(ids, rng.randint(0, len(ids)))


def test_schemes_equal_retraining_on_gapped_datasets():
    rng = random.Random(61)
    for _ in range(120):
        fc, chain_d, data = _random_case(rng)
        _check(fc, chain_d, data.remove(_random_removal(rng, data)), rng)


def test_schemes_equal_retraining_over_deletion_rounds():
    rng = random.Random(62)
    for _ in range(60):
        fc, chain_d, data = _random_case(rng)
        for _ in range(3):
            _check(fc, chain_d, data, rng)
            data = data.remove(_random_removal(rng, data))


@pytest.mark.parametrize(
    "make", [lambda: ChainScheme(2, 4), lambda: BoundedDeletionScheme(tilu_ub_class(2, 4), 1)]
)
def test_ids_above_the_item_count_are_accepted(make):
    data = Dataset.from_pairs([(0, 1), (0, 0), (1, 1), (0, 1)]).remove([1])
    assert len(data) == 3 and 4 in data.ids()
    assert _ask(make(), data, [4]) is True


@pytest.mark.parametrize(
    "make",
    [
        lambda fc: TrivialScheme(fc),
        lambda fc: TrivialErmScheme(fc),
        lambda fc: BoundedDeletionScheme(fc, 2),
        lambda fc: MerkleScheme(fc),
        lambda fc: ErmMerkleScheme(fc),
        lambda fc: ChainScheme(2, 4),
    ],
)
def test_every_scheme_rejects_duplicate_ids(make):
    scheme = make(tilu_ub_class(2, 4))
    data = Dataset.from_pairs([(0, 1), (1, 1), (2, 0)])
    aux, tickets = _learn(scheme, data)
    with pytest.raises(ValueError, match="duplicate index 2"):
        scheme.unlearn(data.entries_for([2]) * 2, aux, tickets)


@pytest.fixture
def tree():
    fc = thresholds_1d(4)
    scheme = MerkleScheme(fc)
    data = Dataset.from_pairs([(0, 1), (1, 1), (2, 1), (3, 1)])
    _, aux, tickets = scheme.learn(data)
    return scheme, data, aux, tickets


def test_fold_rejects_tickets_of_different_depths(tree):
    scheme, data, aux, tickets = tree
    short = replace(tickets[2], states=tickets[2].states[1:])
    with pytest.raises(TicketError, match="depth"):
        scheme.unlearn(data.entries_for([1, 2]), aux, {1: tickets[1], 2: short})


@pytest.mark.parametrize("leaf", [0, 5])
def test_fold_rejects_a_leaf_outside_the_tree(tree, leaf):
    scheme, data, aux, tickets = tree
    bad = replace(tickets[1], leaf=leaf)
    with pytest.raises(TicketError, match="outside"):
        scheme.unlearn(data.entries_for([1]), aux, {1: bad})


def test_fold_rejects_a_ticket_of_another_item(tree):
    scheme, data, aux, tickets = tree
    with pytest.raises(TicketError, match="leaf 3 does not match item 4"):
        scheme.unlearn(data.entries_for([3, 4]), aux, {3: tickets[3], 4: tickets[3]})


def test_single_leaf_tree_folds_to_the_empty_survivor():
    scheme = MerkleScheme(thresholds_1d(4))
    data = Dataset.from_pairs([(2, 1)])
    _, aux, tickets = scheme.learn(data)
    assert scheme.unlearn(data.entries_for([1]), aux, tickets) is True
    with pytest.raises(TicketError, match="leaf 1 does not match item 2"):
        scheme.unlearn(((1, (2, 1)), (2, (2, 1))), aux, {1: tickets[1], 2: tickets[1]})


def test_runtime_code_has_no_assert():
    # python -O strips assert statements, so they cannot guard runtime checks
    src = Path(__file__).resolve().parents[1] / "src" / "unlearn_lab"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
