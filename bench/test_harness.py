"""Tests of the benchmark's own helpers: percentiles, spans, tallies, probes.

Run with `python -m pytest bench/test_harness.py` from the checkout root.
"""

import sys
import time

import pytest

from harness import (
    Span,
    Stopwatch,
    Tally,
    Tracer,
    checkout_src,
    fastest_pass,
    layer_share,
    percentile,
    self_times,
    span_totals,
    tail_percentile,
)

if str(checkout_src()) not in sys.path:
    sys.path.insert(0, str(checkout_src()))

from probes import BruteForceOracle, CountingFiniteClass, CountingOracle, SchemeClient  # noqa: E402
from unlearn_lab import (  # noqa: E402
    BoundedDeletionScheme,
    FiniteClass,
    HalfspaceOracle,
    MerkleScheme,
    compute_dims,
    halfspace_lb_instance,
    is_realizable,
    run_adversary,
    simplex_face_domain,
    thresholds_1d,
)
from workloads import GAPPED, Halfspace, TreeStream  # noqa: E402


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(10_000) == 99.9
    assert tail_percentile(1_000) == 99.0
    assert tail_percentile(999) == 95.0
    assert tail_percentile(200) == 95.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(99) is None


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99.9) == 7.0


def test_fastest_pass_takes_each_jobs_minimum():
    laps = [[1.0, 5.0, 2.0], [3.0, 4.0, 2.5], [2.0, 6.0, 1.5]]
    assert fastest_pass(laps) == 1.0 + 4.0 + 1.5
    assert fastest_pass([[2.0, 3.0]]) == 5.0
    with pytest.raises(ValueError):
        fastest_pass([[1.0], [1.0, 2.0]])
    with pytest.raises(ValueError):
        fastest_pass([])


def _span(sid, start, end, parent=None):
    return Span(sid, f"layer{sid}.op", start, end, parent, "r")


def test_self_time_subtracts_only_direct_children():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, parent=0),
        _span(2, 2.0, 4.0, parent=0),  # overlaps span 1: counted once
        _span(3, 1.5, 2.5, parent=1),  # grandchild: charged to span 1 only
        _span(4, 9.0, 12.0, parent=0),  # runs past the parent: clipped
    ]
    selfs = self_times(spans)
    assert selfs[0] == 10.0 - 3.0 - 1.0
    assert selfs[1] == 2.0 - 1.0
    assert selfs[2] == 2.0
    assert selfs[3] == 1.0
    totals = span_totals(spans)
    assert totals["layer0.op"] == (1, 10.0, 6.0)
    assert layer_share(spans, "layer1") == (1, 100.0 * 1.0 / 10.0)
    assert layer_share(spans, "layer5") == (0, 0.0)


def test_tracer_records_parent_and_run_and_can_be_off():
    tracer = Tracer(True)
    tracer.run = "pass-0"
    with tracer.span("job.a"):
        with tracer.span("core.b"):
            pass
    inner, outer = tracer.spans
    assert (outer.name, outer.parent, outer.run) == ("job.a", None, "pass-0")
    assert (inner.name, inner.parent, inner.layer) == ("core.b", outer.id, "core")
    assert outer.start <= inner.start <= inner.end <= outer.end

    off = Tracer(False)
    with off.span("job.a"):
        pass
    assert off.spans == []


def test_stopwatch_keeps_each_lap():
    sw = Stopwatch()
    with sw.lap():
        pass
    with sw.lap():
        time.sleep(0.01)
    assert len(sw.laps) == 2 and sw.laps[1] >= 0.01


def test_tally_counts_failures_by_kind():
    tally = Tally(known=frozenset({GAPPED}))
    assert tally.check(True, "answer")
    assert not tally.check(False, GAPPED)
    tally.fail("witness")
    assert (tally.attempted, tally.failed, tally.unexpected) == (3, 2, 1)
    assert tally.failures == {GAPPED: 1, "witness": 1}
    assert tally.failed_frac == 2 / 3
    assert not tally.correct
    assert Tally().failed_frac == 0.0

    known_only = Tally(known=frozenset({GAPPED}))
    known_only.check(False, GAPPED)
    assert known_only.correct and known_only.failed == 1
    known_only.require(False, "repeat")
    assert not known_only.correct and known_only.attempted == 1


def test_counting_finite_class_counts_and_agrees():
    plain = thresholds_1d(6)
    counting = CountingFiniteClass(plain.domain_size, plain.hypotheses)
    assert isinstance(counting, FiniteClass)
    pairs = [(1, 0), (4, 1)]
    assert is_realizable(counting, pairs) == is_realizable(plain, pairs)
    assert counting.vs_mask_calls == 1
    assert compute_dims(counting).to_json_dict() == compute_dims(plain).to_json_dict()
    assert counting.vs_mask_calls > 1


def test_counting_oracle_passes_answers_through():
    points = simplex_face_domain(4, 2)
    inner = HalfspaceOracle(points)
    proxy = CountingOracle(inner, Tracer(True))
    supports = [[(0, 1), (1, 1), (9, 0)], [(0, 1), (5, 0)], [(0, 1), (5, 0)]]
    for pairs in supports:
        assert proxy.is_realizable_pairs(iter(pairs)) == inner.is_realizable_pairs(pairs)
        assert proxy.is_realizable_pairs(pairs) == BruteForceOracle(points).is_realizable_pairs(pairs)
    assert (proxy.calls, len(proxy.distinct)) == (6, 2)
    assert proxy.domain_size == inner.domain_size
    assert [s.name for s in proxy.tracer.spans] == ["geometry.oracle"] * 6


def test_scheme_client_is_transparent_to_run_adversary():
    inst = halfspace_lb_instance(4, 2)
    z = (1, 0, 1, 1, 0, 0)
    for make in (lambda h: BoundedDeletionScheme(h, 2), MerkleScheme):
        bare = run_adversary(inst, make(inst.handle), z)
        client = SchemeClient(make(inst.handle), Tracer(False), "schemes")
        wrapped = run_adversary(inst, client, z)
        assert wrapped == bare
        assert len(client.learned) == 1 and client.unlearns == len(bare.transcript)


def test_halfspace_reference_matches_bounded_scheme():
    wl = Halfspace()
    inst = halfspace_lb_instance(wl.D, wl.K)
    for z in ((0,) * 6, (1, 0, 0, 0, 0, 0), (1, 1, 0, 1, 0, 1), (1,) * 6):
        scheme = BoundedDeletionScheme(inst.handle, wl.K)
        _, aux = scheme.learn(inst.dataset_of(z))
        assert wl._reference_aux(z) == (scheme.aux_bits(aux), len(aux.critical_sets))


class _SmallTreeStream(TreeStream):
    M, H, N = 6, 12, 64
    QUERIES = 8
    DELETE_FRAC = 0.1
    PROBE_ITEMS = 8


def test_tree_stream_counts_wrong_answers_only_after_gapped_rounds():
    wl = _SmallTreeStream()
    tracer = Tracer(False)
    gapped = 0
    for seed in range(4):
        inp = wl.setup(seed, tracer, counting=False)
        out = wl.run(inp, tracer, Stopwatch())
        tally = Tally(known=wl.known)
        wl.check(inp, out, tally)
        per_round = 2 * (1 + wl.QUERIES)
        assert tally.attempted == wl.ROUNDS * per_round
        assert set(tally.failures) <= {GAPPED} and tally.correct
        gapped += tally.failed
        again = wl.run(wl.setup(seed, tracer, counting=False), tracer, Stopwatch())
        assert wl.digest(again) == wl.digest(out)
    assert gapped > 0  # the defect shows on these inputs

    # An answer the defect does not predict is a new error, in any round.
    for r, q, bad in ((0, 0, None), (wl.ROUNDS - 1, 1, -1), (1, 2, ("error", "KeyError"))):
        inp = wl.setup(0, tracer, counting=False)
        out = wl.run(inp, tracer, Stopwatch())
        merkle, erm = out.answers[r]
        if bad is None:
            merkle = list(merkle)
            merkle[q] = not merkle[q]
            out.answers[r] = (merkle, erm)
        else:
            erm = list(erm)
            erm[q] = bad
            out.answers[r] = (merkle, erm)
        tally = Tally(known=wl.known)
        wl.check(inp, out, tally)
        assert tally.failures.get("answer") == 1 and not tally.correct


def test_tree_stream_probe_folds_agree_with_the_scheme():
    wl = _SmallTreeStream()
    tracer = Tracer(True)
    tally = Tally()
    wl.probe(0, tracer, None, tally)
    assert tally.attempted == 2 * (1 + wl.PROBE_ITEMS) and tally.correct
    assert {s.layer for s in tracer.spans} == {"compression", "probe"}
