"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every comparison is exact; the only tolerances are the two stated wall
clock budgets. Seeds are fixed so reruns are bit-identical. Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import random
import time
from fractions import Fraction
from itertools import combinations, product

from unlearn_lab import (
    BoundedDeletionScheme,
    ChainScheme,
    Dataset,
    ErmMerkleScheme,
    HalfspaceOracle,
    MerkleScheme,
    TrivialErmScheme,
    TrivialScheme,
    all_labelings,
    compute_dims,
    count_bits,
    eluder_lb_instance,
    enumerate_critical_sets,
    erm_lexmin,
    halfspace_family_dataset,
    halfspace_lb_instance,
    hollow_star_number,
    is_realizable,
    lu_to_vs_adapter,
    merge,
    pair_bits,
    parity_class,
    random_finite_class,
    run_adversary,
    shatter_lb_instance,
    simplex_face_domain,
    star_number,
    thresholds_1d,
    tilu_ub_class,
    version_space,
    vclb_instance,
    vs_decode,
    vs_encode,
    whitebox_erm_reduction,
)
from unlearn_lab.report import CHAIN_BOUND_CONSTANT
from math import log2


def _report(number, name, start, extra=""):
    elapsed = time.time() - start
    suffix = f" [{extra}]" if extra else ""
    print(f"\n[acceptance] criterion {number} ({name}): PASS in {elapsed:.1f}s{suffix}")


def _random_dataset(rng, m, max_n):
    n = rng.randint(0, max_n)
    return Dataset.from_pairs([(rng.randrange(m), rng.randint(0, 1)) for _ in range(n)])


def _random_query(rng, n):
    if rng.random() < 0.45:
        size = rng.randint(0, min(3, n)) if n else 0
        return sorted(rng.sample(range(1, n + 1), size))
    return [i for i in range(1, n + 1) if rng.random() < 0.5]


def _check_instance(fc, data, ids, schemes, checked):
    """Compare every applicable scheme against the retrain oracle."""
    entries = data.entries_for(ids)
    survivor = data.remove(ids)
    expected = is_realizable(fc, survivor)

    got = schemes["trivial"].unlearn(entries, schemes["trivial_aux"], {})
    assert got == expected
    checked[0] += 1

    got = schemes["merkle"].unlearn(
        entries, schemes["merkle_aux"], {i: schemes["merkle_tx"][i] for i in ids}
    )
    assert got == expected
    checked[0] += 1

    if len(ids) <= 3:
        got = schemes["bounded"].unlearn(entries, schemes["bounded_aux"], {})
        assert got == expected
        checked[0] += 1

    if schemes.get("erm") is not None:
        got = schemes["erm"].unlearn(
            entries, schemes["erm_aux"], {i: schemes["erm_tx"][i] for i in ids}
        )
        assert got == erm_lexmin(fc, survivor)
        checked[0] += 1


def _learn_all(fc, data):
    schemes = {}
    schemes["trivial"] = TrivialScheme(fc)
    _, schemes["trivial_aux"] = schemes["trivial"].learn(data)
    schemes["merkle"] = MerkleScheme(fc)
    _, schemes["merkle_aux"], schemes["merkle_tx"] = schemes["merkle"].learn(data)
    schemes["bounded"] = BoundedDeletionScheme(fc, 3)
    _, schemes["bounded_aux"] = schemes["bounded"].learn(data)
    if is_realizable(fc, data):
        schemes["erm"] = ErmMerkleScheme(fc)
        _, schemes["erm_aux"], schemes["erm_tx"] = schemes["erm"].learn(data)
    else:
        schemes["erm"] = None
    return schemes


def test_criterion_1_retrain_oracle_equivalence():
    start = time.time()
    rng = random.Random(1001)
    pool = [random_finite_class(rng) for _ in range(120)]
    checked = [0]

    trials = 0
    while trials < 10_000:
        fc = pool[rng.randrange(len(pool))]
        data = _random_dataset(rng, fc.domain_size, 12)
        ids = _random_query(rng, len(data))
        entries = data.entries_for(ids)
        survivor = data.remove(ids)
        expected = is_realizable(fc, survivor)

        trivial = TrivialScheme(fc)
        _, aux_t = trivial.learn(data)
        assert trivial.unlearn(entries, aux_t, {}) == expected
        checked[0] += 1

        merkle = MerkleScheme(fc)
        _, aux_m, tx = merkle.learn(data)
        assert merkle.unlearn(entries, aux_m, {i: tx[i] for i in ids}) == expected
        checked[0] += 1

        if len(ids) <= 3:
            k = max(1, len(ids))
            bounded = BoundedDeletionScheme(fc, k)
            _, aux_b = bounded.learn(data)
            assert bounded.unlearn(entries, aux_b, {}) == expected
            checked[0] += 1

        if is_realizable(fc, data):
            erm = ErmMerkleScheme(fc)
            _, aux_e, tx_e = erm.learn(data)
            got = erm.unlearn(entries, aux_e, {i: tx_e[i] for i in ids})
            assert got == erm_lexmin(fc, survivor)
            checked[0] += 1

        trials += 1

    # exhaustive over all queries on small datasets
    for _ in range(25):
        fc = pool[rng.randrange(len(pool))]
        data = _random_dataset(rng, fc.domain_size, 8)
        schemes = _learn_all(fc, data)
        n = len(data)
        for mask in range(1 << n):
            ids = [i + 1 for i in range(n) if mask >> i & 1]
            _check_instance(fc, data, ids, schemes, checked)

    # the successor-chain scheme on its own class
    chain_trials = 0
    while chain_trials < 1_200:
        d = rng.randint(1, 3)
        x = rng.randint(d, 6)
        fc = tilu_ub_class(d, x)
        scheme = ChainScheme(d, x)
        data = _random_dataset(rng, x, 12)
        _, aux, tx = scheme.learn(data)
        ids = _random_query(rng, len(data))
        got = scheme.unlearn(data.entries_for(ids), aux, {i: tx[i] for i in ids})
        assert got == is_realizable(fc, data.remove(ids))
        chain_trials += 1
        checked[0] += 1
    for _ in range(15):
        d = rng.randint(1, 3)
        x = rng.randint(d, 6)
        fc = tilu_ub_class(d, x)
        scheme = ChainScheme(d, x)
        data = _random_dataset(rng, x, 8)
        _, aux, tx = scheme.learn(data)
        n = len(data)
        for mask in range(1 << n):
            ids = [i + 1 for i in range(n) if mask >> i & 1]
            got = scheme.unlearn(data.entries_for(ids), aux, {i: tx[i] for i in ids})
            assert got == is_realizable(fc, data.remove(ids))
            checked[0] += 1

    elapsed = time.time() - start
    assert elapsed < 60, f"criterion 1 runtime {elapsed:.1f}s exceeds 60s"
    _report(1, "retrain-oracle equivalence", start, f"{checked[0]} comparisons")


def test_criterion_2_dimension_chain():
    start = time.time()
    rep = compute_dims(thresholds_1d(4))
    assert (rep.vc, rep.littlestone, rep.star, rep.hollow_star, rep.eluder, rep.mis) == (
        1, 2, 2, 2, 4, 4,
    )
    par = compute_dims(parity_class(2))
    assert par.eluder == 2 and par.mis == 2

    rng = random.Random(2002)
    for _ in range(500):
        fc = random_finite_class(rng)
        r = compute_dims(fc, witnesses=False)
        h = len(fc.hypotheses)
        assert r.vc <= r.star <= r.eluder <= h - 1
        assert r.littlestone <= r.eluder
        assert (h - 1).bit_length() <= r.eluder
        assert r.hollow_star - 1 <= r.star
    _report(2, "dimension chain", start)


def _exhaustive_compression_check(fc):
    """Round trip, canonicality, size, and the merge law over every dataset
    with at most 5 distinct pairs.

    Encodings are functions of the version-space bitmask alone, so checking
    merge over all pairs of reachable masks covers all dataset pairs.
    """
    m = fc.domain_size
    star = star_number(fc)
    all_pairs = [(x, y) for x in range(m) for y in (0, 1)]
    canon = {}
    for size in range(6):
        for support in combinations(all_pairs, size):
            mask = fc.vs_mask(support)
            enc = vs_encode(fc, support)
            assert vs_decode(fc, enc) == version_space(fc, support)
            if enc.realizable:
                assert len(enc.pairs) <= star
                assert fc.vs_mask(enc.pairs) == mask
            else:
                assert mask == 0
            prev = canon.get(mask)
            if prev is None:
                canon[mask] = enc
            else:
                assert prev == enc  # canonical in the version space
    for m1, e1 in canon.items():
        for m2, e2 in canon.items():
            merged = merge(fc, e1, e2)
            target = m1 & m2
            if target in canon:
                assert merged == canon[target]
            elif merged.realizable:
                # a mask only reachable by joining two 5-pair datasets;
                # the union dataset itself has <=10 pairs, so re-encode it
                assert merged == vs_encode(fc, e1.pairs + e2.pairs)
            else:
                assert target == 0


def test_criterion_3_compression_laws():
    start = time.time()
    _exhaustive_compression_check(thresholds_1d(4))
    rng = random.Random(3003)
    for _ in range(50):
        fc = random_finite_class(rng, max_m=5, max_h=20)
        _exhaustive_compression_check(fc)
    _report(3, "compression laws", start)


def test_criterion_4_merkle_bit_budget():
    start = time.time()
    fc = thresholds_1d(8)
    rng = random.Random(4004)
    for flavor in ("realizable", "mixed"):
        if flavor == "realizable":
            pairs = [(rng.randrange(8), 1) for _ in range(64)]
        else:
            pairs = [(rng.randrange(8), rng.randint(0, 1)) for _ in range(64)]
        data = Dataset.from_pairs(pairs)
        scheme = MerkleScheme(fc, encoding_cap=2)
        _, aux, tickets = scheme.learn(data)
        assert scheme.aux_bits(aux) == 1
        depth = 6  # 64 leaves
        budget = (count_bits(2) + 2 * pair_bits(8)) * depth + count_bits(63)
        assert budget == 66
        for ticket in tickets.values():
            assert len(ticket.siblings) == depth
            assert scheme.ticket_bits(ticket) <= budget
    _report(4, "tree-scheme bit budget", start)


def test_criterion_5_bounded_deletion_census():
    start = time.time()
    rng = random.Random(5005)
    done = 0
    while done < 200:
        fc = random_finite_class(rng)
        data = _random_dataset(rng, fc.domain_size, 10)
        if is_realizable(fc, data):
            continue
        hollow = hollow_star_number(fc)
        if hollow > 4:
            continue
        done += 1
        k = rng.randint(1, 3)
        got = enumerate_critical_sets(fc, data, k)
        support = data.distinct_pairs()
        brute = set()
        for size in range(1, k + 1):
            for q in combinations(sorted(support), size):
                qs = frozenset(q)
                if not is_realizable(fc, support - qs):
                    continue
                if all(not is_realizable(fc, support - (qs - {p})) for p in qs):
                    brute.add(qs)
        assert got == brute
        for size in range(1, k + 1):
            assert sum(1 for s in got if len(s) == size) <= hollow**size
    _report(5, "bounded-deletion census", start)


def test_criterion_6_halfspace_family():
    start = time.time()
    d, k = 4, 2
    oracle = HalfspaceOracle(simplex_face_domain(d, k))
    pts = oracle.points
    subsets = list(combinations(range(d), k))
    w_of = {
        L: tuple(Fraction(0 if i in L else 1) for i in range(d)) for L in subsets
    }
    b = Fraction(1) - Fraction(1, 2 * (d - k))
    for mask in range(1 << len(subsets)):
        chosen = [subsets[i] for i in range(len(subsets)) if mask >> i & 1]
        data = halfspace_family_dataset(d, k, chosen)
        for L in subsets:
            survivor = data.remove([i + 1 for i in L])
            separable = is_realizable(oracle, survivor)
            assert separable == (L not in chosen)
            if L not in chosen:
                # the closed-form separator handles every survivor point
                w = w_of[L]
                for _, (x, y) in survivor.entries:
                    value = sum(wi * ci for wi, ci in zip(w, pts[x]))
                    assert value > b if y == 1 else value < b

    one_d = HalfspaceOracle([(i,) for i in range(5)])
    rep = compute_dims(one_d, cap=4)
    assert rep.hollow_star == 3  # size-3 witness found, none of size 4 or 5
    assert len(rep.witnesses["hollow_star"]) == 3

    elapsed = time.time() - start
    assert elapsed < 120, f"criterion 6 runtime {elapsed:.1f}s exceeds 120s"
    _report(6, "simplex-face family", start)


def test_criterion_7_adversary_recovery():
    start = time.time()
    rng = random.Random(7007)

    inst = vclb_instance("1/2", 8)
    trivial = TrivialScheme(inst.handle)
    for z in product((0, 1), repeat=8):
        assert run_adversary(inst, trivial, z).exact
    bounded = BoundedDeletionScheme(inst.handle, 2)
    merkle = MerkleScheme(inst.handle)
    for _ in range(24):
        z = tuple(rng.randint(0, 1) for _ in range(8))
        assert run_adversary(inst, bounded, z).exact
        assert run_adversary(inst, merkle, z).exact

    fc8 = thresholds_1d(8)
    witness = compute_dims(fc8).witnesses["eluder"]
    inst_e = eluder_lb_instance(fc8, witness, 16)
    assert inst_e.secret_len == 8
    trivial8 = TrivialScheme(fc8)
    merkle8 = MerkleScheme(fc8)
    for z in product((0, 1), repeat=8):
        assert run_adversary(inst_e, trivial8, z).exact
        assert run_adversary(inst_e, merkle8, z).exact

    al3 = all_labelings(3)
    inst_s = shatter_lb_instance(al3, (0, 1, 2))
    for z in product((0, 1), repeat=3):
        assert run_adversary(inst_s, TrivialScheme(al3), z).exact
        assert run_adversary(inst_s, MerkleScheme(al3), z).exact
        assert run_adversary(inst_s, BoundedDeletionScheme(al3, 2), z).exact

    inst_h = halfspace_lb_instance(4, 2)
    trivial_h = TrivialScheme(inst_h.handle)
    bounded_h = BoundedDeletionScheme(inst_h.handle, 2)
    for z in product((0, 1), repeat=6):
        assert run_adversary(inst_h, trivial_h, z).exact
        assert run_adversary(inst_h, bounded_h, z).exact
    merkle_h = MerkleScheme(inst_h.handle)
    for _ in range(6):
        z = tuple(rng.randint(0, 1) for _ in range(6))
        assert run_adversary(inst_h, merkle_h, z).exact

    inst_we = whitebox_erm_reduction(inst_e)
    erm = TrivialErmScheme(fc8)
    for z in product((0, 1), repeat=7):
        assert run_adversary(inst_we, erm, (0,) + z).exact

    _report(7, "adversary recovery", start)


def test_criterion_8_scheme_to_compression_adapter():
    start = time.time()
    for fc in (parity_class(2), parity_class(3), thresholds_1d(4)):
        scheme = TrivialScheme(fc)
        all_pairs = [(x, y) for x in range(fc.domain_size) for y in (0, 1)]
        for size in range(5):
            for support in combinations(all_pairs, size):
                data = Dataset.from_pairs(support)
                aux, decoder = lu_to_vs_adapter(scheme, fc, data)
                assert decoder(aux) == version_space(fc, support)
    _report(8, "scheme-to-compression adapter", start)


def test_criterion_9_chain_scheme_separation():
    start = time.time()
    d, x = 3, 6
    fc = tilu_ub_class(d, x)
    assert compute_dims(fc, witnesses=False).vc == d
    scheme = ChainScheme(d, x)
    rng = random.Random(9009)
    for _ in range(120):
        n = rng.randint(1, 10)
        data = Dataset.from_pairs(
            [(rng.randrange(x), rng.randint(0, 1)) for _ in range(n)]
        )
        _, aux, tickets = scheme.learn(data)
        budget = CHAIN_BOUND_CONSTANT * (log2(d) + log2(max(n, 2)) + log2(x))
        measured = max(
            scheme.aux_bits(aux), max(scheme.ticket_bits(t) for t in tickets.values())
        )
        assert measured <= budget
        for mask in range(1 << n):
            ids = [i + 1 for i in range(n) if mask >> i & 1]
            got = scheme.unlearn(data.entries_for(ids), aux, {i: tickets[i] for i in ids})
            assert got == is_realizable(fc, data.remove(ids))
    _report(9, "chain-scheme separation", start)
