"""One pair contract: every entry reads labeled pairs through `core`'s rules.

An id, label or hypothesis index is accepted when it equals an int and is
read as that int; anything else raises ValueError naming the value. Every
pair is checked before any question is asked, so an entry that stops
early still raises on a bad pair after the stop, on every handle.
"""

import re
from fractions import Fraction
from itertools import product

import pytest

from unlearn_lab import (
    Dataset,
    ErmMerkleScheme,
    HalfspaceOracle,
    MerkleScheme,
    as_oracle,
    canonical_dataset,
    eluder_lb_instance,
    eluder_subsequence,
    enumerate_critical_sets,
    erm_lexmin,
    is_realizable,
    minimal_unrealizable_core,
    run_adversary,
    shatter_lb_instance,
    star_prune,
    thresholds_1d,
    version_space,
    vs_encode,
)
from unlearn_lab.compression import NodeStates
from unlearn_lab.core import FiniteClass, support_pairs, validate_query
from unlearn_lab.dimensions import (
    verify_eluder_sequence,
    verify_hollow_star_set,
    verify_identification_set,
    verify_littlestone_tree,
    verify_shattered,
    verify_star_set,
)

BAD = (1.5, Fraction(1, 2), "1", None, float("inf"))
GOOD = {1: (True, 1.0), 2: (Fraction(2),)}  # equal non-int forms of an int

REAL = [(0, 0), (1, 1), (2, 1)]
UNREAL = [(0, 1), (1, 0), (2, 1)]
SEQ = [(2, 1), (1, 1)]  # an eluder sequence on every handle below


def _handles():
    fc = thresholds_1d(4)
    return [fc, as_oracle(fc), HalfspaceOracle([(0,), (1,), (2,), (3,)])]


def _lb_summary(inst):
    """What an instance does: its datasets for every secret, and its queries
    with every bit recovered as 0."""
    secrets = list(product((0, 1), repeat=inst.secret_len))
    zeros = dict.fromkeys(inst.recovery_order, 0)
    return (
        inst.secret_len,
        inst.recovery_order,
        [inst.dataset_of(z).entries for z in secrets],
        [inst.query_ids(pos, zeros) for pos in inst.recovery_order],
    )


# (name, entry, base input, which handles: "any", "finite" or "oracle")
PAIR_ENTRIES = [
    ("is_realizable_pairs", lambda h, p: h.is_realizable_pairs(p), REAL, "any"),
    ("is_realizable", is_realizable, UNREAL, "any"),
    ("eluder_subsequence", eluder_subsequence, REAL, "any"),
    ("star_prune", star_prune, REAL, "any"),
    ("vs_encode", vs_encode, UNREAL, "any"),
    ("vs_encode", vs_encode, REAL, "any"),
    ("NodeStates.leaves", lambda h, p: NodeStates(h).leaves(p), REAL, "oracle"),
    ("minimal_unrealizable_core", minimal_unrealizable_core, UNREAL, "any"),
    ("enumerate_critical_sets", lambda h, p: enumerate_critical_sets(h, p, 1), UNREAL, "any"),
    ("verify_star_set", verify_star_set, REAL, "any"),
    ("verify_hollow_star_set", verify_hollow_star_set, UNREAL, "any"),
    ("verify_eluder_sequence", verify_eluder_sequence, SEQ, "any"),
    ("eluder_lb_instance", lambda h, p: _lb_summary(eluder_lb_instance(h, p, 4)), SEQ, "any"),
    ("vs_mask", lambda h, p: h.vs_mask(p), REAL, "finite"),
    ("erm_lexmin", erm_lexmin, UNREAL, "finite"),
    ("version_space", version_space, REAL, "finite"),
    ("Dataset", lambda h, p: Dataset(list(enumerate(p, 1))).entries, REAL, "finite"),
    ("Dataset.from_pairs", lambda h, p: Dataset.from_pairs(p).entries, REAL, "finite"),
    ("support_pairs", lambda h, p: support_pairs(p), REAL, "finite"),
]

# entries reading one value per element (points or hypothesis indices)
VALUE_ENTRIES = [
    ("verify_shattered", verify_shattered, [1], "any"),
    ("verify_shattered", verify_shattered, [2], "any"),
    ("shatter_lb_instance", lambda h, v: _lb_summary(shatter_lb_instance(h, v)), [1], "any"),
    ("shatter_lb_instance", lambda h, v: _lb_summary(shatter_lb_instance(h, v)), [2], "any"),
    ("verify_littlestone_tree", lambda h, v: verify_littlestone_tree(h, (v[0], None, None), 1),
     [2], "any"),
    ("verify_identification_set", verify_identification_set, [0, 1, 2, 3], "finite"),
    ("indices_to_mask", lambda h, v: h.indices_to_mask(v), [1, 2], "finite"),
    ("canonical_dataset", lambda h, v: canonical_dataset(h, set(v)), [1, 2], "finite"),
]


def _applies(handle, kind):
    return kind == "any" or (kind == "finite") == isinstance(handle, FiniteClass)


def _replaced(values, i, j, value):
    """`values` with coordinate j of element i (the element itself if j is None) replaced."""
    out = list(values)
    if j is None:
        out[i] = value
    else:
        pair = list(out[i])
        pair[j] = value
        out[i] = tuple(pair)
    return out


def _positions(values):
    if isinstance(values[0], tuple):
        return [(i, j, values[i][j]) for i in range(len(values)) for j in (0, 1)]
    return [(i, None, v) for i, v in enumerate(values)]


def _cases(entries):
    return [
        pytest.param(entry, base, handle, id=f"{name}-{type(handle).__name__}-{base}")
        for name, entry, base, kind in entries
        for handle in _handles()
        if _applies(handle, kind)
    ]


@pytest.mark.parametrize("entry, base, handle", _cases(PAIR_ENTRIES + VALUE_ENTRIES))
def test_good_values_answer_as_the_int_values(entry, base, handle):
    want = entry(handle, base)
    variants = []
    if isinstance(base[0], tuple):
        variants.append([list(pair) for pair in base])
    for i, j, v in _positions(base):
        variants += [_replaced(base, i, j, alt) for alt in GOOD.get(v, ())]
    assert variants
    for values in variants:
        assert entry(handle, values) == want, values


@pytest.mark.parametrize("entry, base, handle", _cases(PAIR_ENTRIES + VALUE_ENTRIES))
def test_bad_values_raise_value_error_naming_them(entry, base, handle):
    entry(handle, base)  # the int values are accepted
    for (i, j, _), bad in product(_positions(base), BAD):
        with pytest.raises(ValueError, match=re.escape(f"{bad!r} is not an integer")):
            entry(handle, _replaced(base, i, j, bad))


@pytest.mark.parametrize("entry", [eluder_subsequence, vs_encode])
@pytest.mark.parametrize("bad, message", [
    ((99, 0), "outside domain"),
    ((0, 2), "label must be 0 or 1"),
    ((1.5, 0), "is not an integer"),
    ((0, "1"), "is not an integer"),
])
def test_a_bad_pair_after_the_early_stop_raises_on_every_handle(entry, bad, message):
    # the scan stops at (0, 0), which contradicts (0, 1), before it reaches `bad`
    for handle in _handles():
        assert eluder_subsequence(handle, [(0, 1), (0, 0), (1, 1)]) == [(0, 1), (0, 0)]
        with pytest.raises(ValueError, match=message):
            entry(handle, [(0, 1), (0, 0), bad])
        with pytest.raises(ValueError, match=message):
            entry(handle, Dataset.from_pairs([(0, 1), (0, 0)]).pairs() + (bad,))


def test_item_ids_follow_the_value_rule():
    assert Dataset([(True, (0, 1)), (2.0, (1, 0))]).entries == ((1, (0, 1)), (2, (1, 0)))
    for bad in BAD:
        with pytest.raises(ValueError, match=re.escape(f"{bad!r} is not an integer")):
            Dataset([(bad, (0, 1))])


def test_query_ids_follow_the_value_rule():
    data = Dataset.from_pairs([(0, 1), (1, 1)])
    for good in GOOD[1]:
        assert validate_query(data, [good]) == {1}
        assert all(type(i) is int for i in validate_query(data, [good, 2]))
        assert data.remove([good]).entries == data.remove([1]).entries
        assert data.entries_for([good]) == ((1, (0, 1)),)
        with pytest.raises(ValueError, match="duplicate index 1"):
            data.remove([1, good])
    for bad in BAD:
        # a ValueError, where an unknown int id raises UnknownItemError
        for entry in (data.remove, data.entries_for):
            with pytest.raises(ValueError, match=re.escape(f"{bad!r} is not an integer")):
                entry([bad])


@pytest.mark.parametrize("make", [MerkleScheme, ErmMerkleScheme])
def test_ticket_ids_follow_the_value_rule(make):
    scheme = make(thresholds_1d(4))
    _, aux, tickets = scheme.learn(Dataset.from_pairs(REAL))
    want = scheme.unlearn([(1, (0, 0))], aux, {1: tickets[1]})
    for good in GOOD[1]:
        assert tickets[good] == tickets[1] and type(tickets[good].leaf) is int
        assert scheme.unlearn([(good, (0, 0))], aux, {good: tickets[good]}) == want
    for bad in BAD:
        with pytest.raises(ValueError, match=re.escape(f"{bad!r} is not an integer")):
            tickets[bad]


def test_secret_bits_follow_the_value_rule():
    fc = thresholds_1d(4)
    inst = shatter_lb_instance(fc, [1])
    want = run_adversary(inst, MerkleScheme(fc), [1])
    for good in GOOD[1]:
        assert run_adversary(inst, MerkleScheme(fc), [good]) == want
    for bad in BAD:
        with pytest.raises(ValueError, match=re.escape(f"{bad!r} is not an integer")):
            run_adversary(inst, MerkleScheme(fc), [bad])
