"""Instance generators, plan soundness, and secret-recovery drivers."""

import random
from itertools import product

import pytest

from unlearn_lab import (
    BoundedDeletionScheme,
    MerkleScheme,
    TrivialErmScheme,
    TrivialScheme,
    all_labelings,
    compute_dims,
    eluder_lb_instance,
    halfspace_lb_instance,
    is_realizable,
    parity_class,
    run_adversary,
    shatter_lb_instance,
    thresholds_1d,
    tilu_ub_class,
    vc_dimension,
    vclb_instance,
    whitebox_erm_reduction,
)


def test_thresholds_generator():
    fc = thresholds_1d(4)
    assert len(fc.hypotheses) == 5
    assert fc.hypotheses[0] == (1, 1, 1, 1)
    assert fc.hypotheses[4] == (0, 0, 0, 0)
    assert vc_dimension(fc) == 1


def test_parity_generator():
    fc = parity_class(2)
    assert len(fc.hypotheses) == 4
    assert fc.hypotheses[3] == (0, 1, 1, 0)  # xor of both input bits


def test_tilu_class_generator():
    fc = tilu_ub_class(2, 4)
    assert len(fc.hypotheses) == 4
    assert all(row[2] == 0 and row[3] == 0 for row in fc.hypotheses)
    assert vc_dimension(fc) == 2


def test_vclb_generator_shape():
    inst = vclb_instance("1/2", 8)
    # code block: smallest s with (s/2)^2 >= 8
    assert inst.handle.domain_size == 8 + 6
    assert len(inst.handle.hypotheses) == 8
    assert inst.secret_len == 8


def test_vclb_rejects_non_integer_inverse_beta():
    with pytest.raises(ValueError):
        vclb_instance("2/3", 4)


def test_vclb_queries_touch_only_the_code_block():
    inst = vclb_instance("1/2", 8)
    code_ids = set(range(1, 7))
    for pos in range(1, 9):
        assert inst.query_ids(pos, {}) <= code_ids


def test_eluder_instance_rejects_bad_witness():
    fc = thresholds_1d(4)
    with pytest.raises(ValueError):
        eluder_lb_instance(fc, [(3, 1), (3, 0)], 8)


def test_shatter_instance_rejects_unshattered_points():
    with pytest.raises(ValueError):
        shatter_lb_instance(thresholds_1d(4), (0, 1))


def test_instance_soundness_exhaustive():
    fc = thresholds_1d(4)
    witness = compute_dims(fc).witnesses["eluder"]
    instances = [
        (vclb_instance("1/2", 4), None),
        (eluder_lb_instance(fc, witness, 8), fc),
        (shatter_lb_instance(all_labelings(3), (0, 1, 2)), all_labelings(3)),
    ]
    for inst, handle in instances:
        handle = handle or inst.handle
        for z in product((0, 1), repeat=inst.secret_len):
            data = inst.dataset_of(z)
            recovered = dict(inst.fixed_bits or {})
            for pos in inst.recovery_order:
                ids = inst.query_ids(pos, recovered)
                answer = is_realizable(handle, data.remove(ids))
                bit = inst.decode(pos, answer)
                assert bit == z[pos - 1], (inst.name, z, pos)
                recovered[pos] = bit


def test_halfspace_instance_soundness_sampled():
    inst = halfspace_lb_instance(4, 2)
    rng = random.Random(71)
    for _ in range(6):
        z = tuple(rng.randint(0, 1) for _ in range(inst.secret_len))
        data = inst.dataset_of(z)
        for pos in range(1, inst.secret_len + 1):
            ids = inst.query_ids(pos, {})
            assert inst.decode(pos, is_realizable(inst.handle, data.remove(ids))) == z[pos - 1]


def test_halfspace_instance_rejects_degenerate_k():
    with pytest.raises(ValueError):
        halfspace_lb_instance(3, 2)


def test_adversary_recovers_with_trivial_and_merkle():
    fc = thresholds_1d(4)
    witness = compute_dims(fc).witnesses["eluder"]
    inst = eluder_lb_instance(fc, witness, 8)
    for z in product((0, 1), repeat=inst.secret_len):
        assert run_adversary(inst, TrivialScheme(fc), z).exact
        assert run_adversary(inst, MerkleScheme(fc), z).exact


def test_adversary_with_bounded_scheme_on_vclb():
    inst = vclb_instance("1/2", 4)
    for z in product((0, 1), repeat=4):
        assert run_adversary(inst, BoundedDeletionScheme(inst.handle, 2), z).exact


def test_adversary_accounting_fields():
    inst = vclb_instance("1/2", 4)
    run = run_adversary(inst, TrivialScheme(inst.handle), (1, 0, 0, 1))
    assert run.exact and run.recovered == (1, 0, 0, 1)
    assert run.aux_bits > 0
    assert run.ticket_bits == ()
    assert len(run.transcript) == 4

    ticketed = run_adversary(inst, MerkleScheme(inst.handle), (1, 0, 0, 1))
    assert ticketed.exact
    assert ticketed.max_ticket_bits > 0


def test_whitebox_copies_count():
    fc = thresholds_1d(4)
    witness = compute_dims(fc).witnesses["eluder"]
    base = eluder_lb_instance(fc, witness, 8)
    # successive static queries differ from the first in exactly one item
    queries = base.recipe.static_queries
    assert max(len(q - queries[0]) for q in queries[1:]) == 1


def test_whitebox_requires_a_recipe():
    inst = shatter_lb_instance(all_labelings(3), (0, 1, 2))
    with pytest.raises(ValueError):
        whitebox_erm_reduction(inst)


def test_whitebox_eluder_recovery_exhaustive():
    fc = thresholds_1d(4)
    witness = compute_dims(fc).witnesses["eluder"]
    inst = whitebox_erm_reduction(eluder_lb_instance(fc, witness, 8))
    scheme = TrivialErmScheme(fc)
    for z in product((0, 1), repeat=inst.secret_len):
        if z[0] != 0:
            continue
        run = run_adversary(inst, scheme, z)
        assert run.exact, (z, run.recovered)


def test_whitebox_rejects_fixed_bit_violation():
    fc = thresholds_1d(4)
    witness = compute_dims(fc).witnesses["eluder"]
    inst = whitebox_erm_reduction(eluder_lb_instance(fc, witness, 8))
    with pytest.raises(ValueError):
        run_adversary(inst, TrivialErmScheme(fc), (1, 0, 0, 0))


def test_information_floor_demonstration():
    # not a theorem test: with random secrets the measured auxiliary
    # storage of the store-everything and bounded schemes dominates the
    # secret length, as the recovery argument predicts
    inst = vclb_instance("1/2", 16)
    rng = random.Random(72)
    p = inst.secret_len
    max_trivial = 0
    max_bounded = 0
    trivial = TrivialScheme(inst.handle)
    bounded = BoundedDeletionScheme(inst.handle, 2)
    for _ in range(100):
        z = tuple(rng.randint(0, 1) for _ in range(p))
        run_t = run_adversary(inst, trivial, z)
        run_b = run_adversary(inst, bounded, z)
        assert run_t.exact and run_b.exact
        max_trivial = max(max_trivial, run_t.aux_bits)
        max_bounded = max(max_bounded, run_b.aux_bits)
    assert max_trivial >= p
    assert max_bounded >= p


class _RecordingScheme:
    """Pass-through scheme that keeps the entries of every unlearn call."""

    def __init__(self, scheme):
        self.scheme = scheme
        self.ticketed = getattr(scheme, "ticketed", False)
        self.deleted = []

    def learn(self, data):
        return self.scheme.learn(data)

    def unlearn(self, entries, *rest):
        self.deleted.append(entries)
        return self.scheme.unlearn(entries, *rest)

    def aux_bits(self, aux):
        return self.scheme.aux_bits(aux)

    def ticket_bits(self, ticket):
        return self.scheme.ticket_bits(ticket)


def _eluder_on_thresholds(m, n):
    fc = thresholds_1d(m)
    return eluder_lb_instance(fc, compute_dims(fc).witnesses["eluder"], n)


AUDITED = {
    "vclb": lambda: (vclb_instance("1/2", 6), TrivialScheme),
    "eluder": lambda: (_eluder_on_thresholds(6, 12), TrivialScheme),
    "shatter": lambda: (shatter_lb_instance(all_labelings(3), (0, 1, 2)), TrivialScheme),
    "halfspace": lambda: (halfspace_lb_instance(4, 2), lambda h: BoundedDeletionScheme(h, 2)),
    "erm-whitebox": lambda: (whitebox_erm_reduction(_eluder_on_thresholds(4, 8)), TrivialErmScheme),
}


@pytest.mark.parametrize("family", AUDITED)
def test_unlearn_entries_carry_only_the_bits_already_recovered(family):
    # Recovering the secret bounds a scheme's memory only if the entries the
    # adversary hands to unlearn reveal nothing beyond the bits recovered
    # before that step: across secrets that agree on those bits, every
    # step's entries must be the same.
    inst, make = AUDITED[family]()
    scheme = _RecordingScheme(make(inst.handle))
    fixed = inst.fixed_bits or {}
    entries_at = {}
    for z in product((0, 1), repeat=inst.secret_len):
        if any(z[pos - 1] != bit for pos, bit in fixed.items()):
            continue
        scheme.deleted.clear()
        assert run_adversary(inst, scheme, z).exact
        assert len(scheme.deleted) == len(inst.recovery_order)
        for step, (pos, entries) in enumerate(zip(inst.recovery_order, scheme.deleted)):
            known = tuple(z[q - 1] for q in inst.recovery_order[:step])
            assert entries_at.setdefault((pos, known), entries) == entries, (z, pos)
