"""The benchmark's workloads.

Each workload builds its inputs from a seed (`setup`), runs a fixed job
list whose every job is timed (`run`), and checks every answer against a
reference after the timed region (`check`). `counts` returns the exact
counters a traced pass gathered. A traced pass differs from an untraced
one only by the span recorder and the counting probes passed in.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations, product
from statistics import median

from harness import Stopwatch, Tally, Tracer, percentile, tail_percentile
from probes import BruteForceOracle, CountingFiniteClass, CountingOracle, SchemeClient
from unlearn_lab import (
    CAP_EXCEEDED,
    BoundedDeletionScheme,
    Dataset,
    ErmMerkleScheme,
    FiniteClass,
    HalfspaceOracle,
    MerkleScheme,
    compute_dims,
    count_bits,
    eluder_dimension,
    erm_lexmin,
    face_centroid_id,
    halfspace_lb_instance,
    hollow_star_number,
    is_realizable,
    littlestone_dimension,
    merge,
    mergeable_decode,
    min_identification_set,
    pair_bits,
    parity_class,
    run_adversary,
    simplex_face_domain,
    star_number,
    thresholds_1d,
    vc_dimension,
    vs_decode,
    vs_encode,
)
from unlearn_lab import report
from unlearn_lab.dimensions import (
    verify_eluder_sequence,
    verify_hollow_star_set,
    verify_identification_set,
    verify_littlestone_tree,
    verify_shattered,
    verify_star_set,
)

# Failure kind of wrong answers on datasets whose item ids have gaps
# (learned on the survivors of a deletion round). The tree schemes place
# leaves by position but tickets by item id, so these answers are wrong
# at the seed; they are counted, not treated as a broken run, when they
# match the answer that defect predicts (TreeStream.check).
GAPPED = "gapped-id"


def _random_rows(rng: random.Random, m: int, h: int) -> list[tuple[int, ...]]:
    rows: dict[tuple[int, ...], None] = {}
    while len(rows) < h:
        rows[tuple(rng.randint(0, 1) for _ in range(m))] = None
    return list(rows)


def _guarded(fn):
    """Call fn, turning an exception into a recorded ('error', type) answer."""
    try:
        return fn()
    except Exception as exc:  # the job list must go on; the check counts it
        return ("error", type(exc).__name__)


# --------------------------------------------------------------------------
# tree-stream


@dataclass
class _Round:
    merkle_queries: list[tuple]
    erm_queries: list[tuple]
    merkle_delete: list[int]
    erm_delete: list[int]


@dataclass
class _TreeInputs:
    rows: list[tuple[int, ...]]
    fc: FiniteClass
    merkle_data: Dataset
    erm_data: Dataset
    rounds: list[_Round]


@dataclass
class _TreeOutputs:
    learned: list = field(default_factory=list)
    answers: list = field(default_factory=list)  # per round: (merkle, erm)
    learn_s: list[float] = field(default_factory=list)
    query_s: list[float] = field(default_factory=list)
    max_ticket_bits: int = 0


class TreeStream:
    """Merkle and ERM-Merkle under a stream of small deletion queries.

    Between query batches a deletion round removes about 1% of the items
    for real (ids kept) and both schemes learn again on the survivors.
    """

    name = "tree-stream"
    known = frozenset({GAPPED})
    M, H, N = 16, 64, 16384
    ROUNDS = 4
    QUERIES = 50  # per scheme and round
    NOISE = 3
    DELETE_FRAC = 0.01
    PROBE_ITEMS = 50  # single-item deletions the traced probe folds per scheme

    def setup(self, seed: int, tracer: Tracer, counting: bool) -> _TreeInputs:
        rng = random.Random(seed)
        rows = _random_rows(rng, self.M, self.H)
        cls = CountingFiniteClass if counting else FiniteClass
        with tracer.span("core.finite_class"):
            fc = cls(self.M, rows)
        h_merkle, h_erm = rows[rng.randrange(self.H)], rows[rng.randrange(self.H)]
        pairs_m = [(x, h_merkle[x]) for x in (rng.randrange(self.M) for _ in range(self.N))]
        pairs_e = [(x, h_erm[x]) for x in (rng.randrange(self.M) for _ in range(self.N))]
        noise = sorted(rng.sample(range(1, self.N + 1), self.NOISE))
        for i in noise:
            x, y = pairs_m[i - 1]
            pairs_m[i - 1] = (x, 1 - y)
        with tracer.span("core.dataset"):
            merkle_data = Dataset.from_pairs(pairs_m)
            erm_data = Dataset.from_pairs(pairs_e)

        noise_set = set(noise)
        alive_m = [i for i in range(1, self.N + 1) if i not in noise_set]
        alive_e = list(range(1, self.N + 1))
        rounds = []
        for r in range(self.ROUNDS):
            mq, eq = [], []
            for j in range(self.QUERIES):
                if j % 2 == 0:
                    ids = noise + rng.sample(alive_m, rng.randint(0, 1))
                else:
                    ids = rng.sample(alive_m + noise, rng.randint(1, 4))
                mq.append(tuple((i, pairs_m[i - 1]) for i in sorted(ids)))
                ids = rng.sample(alive_e, rng.randint(1, 4))
                eq.append(tuple((i, pairs_e[i - 1]) for i in sorted(ids)))
            dm, de = [], []
            if r < self.ROUNDS - 1:
                dm = sorted(rng.sample(alive_m, round(self.DELETE_FRAC * len(alive_m))))
                de = sorted(rng.sample(alive_e, round(self.DELETE_FRAC * len(alive_e))))
                gone_m, gone_e = set(dm), set(de)
                alive_m = [i for i in alive_m if i not in gone_m]
                alive_e = [i for i in alive_e if i not in gone_e]
            rounds.append(_Round(mq, eq, dm, de))
        return _TreeInputs(rows, fc, merkle_data, erm_data, rounds)

    def run(self, inp: _TreeInputs, tracer: Tracer, sw: Stopwatch) -> _TreeOutputs:
        out = _TreeOutputs()
        schemes = (MerkleScheme(inp.fc), ErmMerkleScheme(inp.fc))
        data = [inp.merkle_data, inp.erm_data]
        for rnd in inp.rounds:
            learned = []
            for scheme, d in zip(schemes, data):
                with sw.lap(), tracer.span("job.learn"):
                    with tracer.span("schemes_ticketed.learn"):
                        learned.append(scheme.learn(d))
                out.learn_s.append(sw.laps[-1])
                if tracer.enabled:
                    tickets = learned[-1][2]
                    out.max_ticket_bits = max(
                        out.max_ticket_bits, max(map(scheme.ticket_bits, tickets.values()))
                    )
            out.learned.append(tuple(a for a, _, _ in learned))
            got = []
            for scheme, (_, aux, tickets), queries in zip(
                schemes, learned, (rnd.merkle_queries, rnd.erm_queries)
            ):
                answers = []
                for entries in queries:
                    with sw.lap(), tracer.span("job.query"):
                        sub = {i: tickets[i] for i, _ in entries}

                        def ask():
                            with tracer.span("schemes_ticketed.unlearn"):
                                return scheme.unlearn(entries, aux, sub)

                        answers.append(_guarded(ask))
                    out.query_s.append(sw.laps[-1])
                got.append(answers)
            out.answers.append(tuple(got))
            del learned
            if rnd.merkle_delete:
                with sw.lap(), tracer.span("job.delete"):
                    with tracer.span("core.remove"):
                        data = [data[0].remove(rnd.merkle_delete), data[1].remove(rnd.erm_delete)]
        return out

    def check(self, inp: _TreeInputs, out: _TreeOutputs, tally: Tally) -> None:
        """Each answer against retraining on the survivors.

        A wrong answer is filed under GAPPED only when it equals what the
        known defect predicts: the tree folds out the leaves at the
        positions named by the deleted ids, so the scheme answers as
        retraining would after removing the pairs at those positions of
        the current dataset. Any other wrong answer or exception makes
        the run incorrect.
        """
        ref = FiniteClass(self.M, inp.rows)
        data = [inp.merkle_data, inp.erm_data]
        supports = [Counter(d.support()) for d in data]
        refs = (
            lambda pairs: is_realizable(ref, pairs),
            lambda pairs: erm_lexmin(ref, pairs),  # survivors stay realizable
        )

        def answer_without(answer_of, support, gone):
            return answer_of([p for p, c in support.items() if c > gone.get(p, 0)])

        for rnd, learned, answers in zip(inp.rounds, out.learned, out.answers):
            for support, answer_of, got in zip(supports, refs, learned):
                tally.check(got == answer_of([p for p, c in support.items() if c > 0]), "learn")
            for d, support, answer_of, queries, got in zip(
                data, supports, refs, (rnd.merkle_queries, rnd.erm_queries), answers
            ):
                by_position = d.pairs()
                for entries, ans in zip(queries, got):
                    want = answer_without(answer_of, support, Counter(p for _, p in entries))
                    if ans == want:
                        tally.check(True, "answer")
                        continue
                    at_positions = Counter(by_position[i - 1] for i, _ in entries if i <= len(d))
                    predicted = answer_without(answer_of, support, at_positions)
                    tally.fail(GAPPED if ans == predicted else "answer")
            deleted = (rnd.merkle_delete, rnd.erm_delete)
            for support, ids, d in zip(supports, deleted, data):
                support.subtract(d.pair(i) for i in ids)
            data = [d.remove(ids) if ids else d for d, ids in zip(data, deleted)]

    def probe(self, seed: int, tracer: Tracer, out: _TreeOutputs, tally: Tally) -> None:
        """The tree build and single-item folds, through the public compression calls.

        For each scheme on the first round's data: encode every leaf
        (vs_encode), merge up the tree and decode the root, then fold the
        ticket siblings of single deleted items. Every decoded answer must
        equal the scheme's own learn or unlearn answer.
        """
        inp = self.setup(seed, Tracer(False), counting=False)
        fc = inp.fc
        rng = random.Random(seed)

        def call(name, fn, *args):
            with tracer.span(name):
                return fn(*args)

        def erm_decode(handle, enc):
            return min(vs_decode(handle, enc))

        for scheme, data, decoder in (
            (MerkleScheme(fc), inp.merkle_data, ("compression.mergeable_decode", mergeable_decode)),
            (ErmMerkleScheme(fc), inp.erm_data, ("compression.vs_decode", erm_decode)),
        ):
            answer, aux, tickets = call("probe.learn", scheme.learn, data)
            empty = call("compression.vs_encode", vs_encode, fc, ())
            level = [call("compression.vs_encode", vs_encode, fc, (p,)) for p in data.pairs()]
            level += [empty] * ((1 << (len(level) - 1).bit_length()) - len(level))
            while len(level) > 1:
                level = [
                    call("compression.merge", merge, fc, a, b)
                    for a, b in zip(level[::2], level[1::2])
                ]
            name, decode = decoder
            tally.check(call(name, decode, fc, level[0]) == answer, "compression")
            for i in rng.sample(sorted(tickets), self.PROBE_ITEMS):
                folded = empty
                for enc in tickets[i].siblings:
                    folded = call("compression.merge", merge, fc, folded, enc)
                entries, sub = ((i, data.pair(i)),), {i: tickets[i]}
                want = call("probe.unlearn", scheme.unlearn, entries, aux, sub)
                tally.check(call(name, decode, fc, folded) == want, "compression")

    def counts(self, inp: _TreeInputs, out: _TreeOutputs) -> dict[str, int]:
        return {
            "core.vs_mask_calls": inp.fc.vs_mask_calls,
            "schemes_ticketed.max_ticket_bits": out.max_ticket_bits,
        }

    def digest(self, out: _TreeOutputs):
        return (out.learned, out.answers)

    def summary(self, out: _TreeOutputs):
        return out.learn_s, out.query_s

    def report(self, summaries: list, walls: list[float]) -> list[tuple]:
        learn = [t for learn_s, _ in summaries for t in learn_s]
        query_ms = [t * 1e3 for _, query_s in summaries for t in query_s]
        return [
            ("learn_s", median(learn), "s", len(learn)),
            ("unlearn_p50_ms", percentile(query_ms, 50), "ms", len(query_ms)),
            _tail("unlearn", query_ms),
            ("queries_per_s", len(query_ms) / sum(walls), "1/s", len(query_ms)),
        ]


# --------------------------------------------------------------------------
# dims-finite


@dataclass
class _DimsInputs:
    suite: list[tuple[str, FiniteClass]]


class DimsFinite:
    """compute_dims(witnesses=True) over a fixed suite of explicit classes."""

    name = "dims-finite"
    known: frozenset[str] = frozenset()
    THRESHOLDS = 8
    RANDOM = tuple((8, h) for h in (16, 20, 24, 28, 32))  # (m, |H|)
    # exact values (vc, littlestone, star, hollow_star, eluder, mis)
    KNOWN_VALUES = {
        "thresholds_1d(8)": (1, 3, 2, 2, 8, 8),
        "parity_class(3)": (3, 3, 3, 4, 3, 3),
    }

    def _suite(self, seed: int, tracer: Tracer) -> list[tuple[str, FiniteClass]]:
        rng = random.Random(seed)
        with tracer.span("instances.generate"):
            suite = [
                (f"thresholds_1d({self.THRESHOLDS})", thresholds_1d(self.THRESHOLDS)),
                ("parity_class(3)", parity_class(3)),
            ]
        for m, h in self.RANDOM:
            rows = _random_rows(rng, m, h)
            with tracer.span("core.finite_class"):
                suite.append((f"random({m},{h})", FiniteClass(m, rows)))
        return suite

    def setup(self, seed: int, tracer: Tracer, counting: bool) -> _DimsInputs:
        suite = self._suite(seed, tracer)
        if counting:
            suite = [(n, CountingFiniteClass(fc.domain_size, fc.hypotheses)) for n, fc in suite]
        return _DimsInputs(suite)

    def run(self, inp: _DimsInputs, tracer: Tracer, sw: Stopwatch) -> list:
        reports = []
        for _, fc in inp.suite:
            with sw.lap(), tracer.span("job.dims"):

                def dims():
                    with tracer.span("dimensions.compute_dims"):
                        return compute_dims(fc, witnesses=True)

                reports.append(_guarded(dims))
        return reports

    @staticmethod
    def _values(rep) -> tuple:
        return (rep.vc, rep.littlestone, rep.star, rep.hollow_star, rep.eluder, rep.mis)

    def check(self, inp: _DimsInputs, reports: list, tally: Tally) -> None:
        for (name, fc), rep in zip(inp.suite, reports):
            if isinstance(rep, tuple):
                tally.fail("error")
                continue
            plain = FiniteClass(fc.domain_size, fc.hypotheses)
            w = rep.witnesses
            tally.check(len(w["vc"]) == rep.vc and verify_shattered(plain, w["vc"]), "witness")
            tally.check(len(w["star"]) == rep.star and verify_star_set(plain, w["star"]), "witness")
            if rep.hollow_star == 0:
                tally.check(w["hollow_star"] is None, "witness")
            else:
                tally.check(
                    len(w["hollow_star"]) == rep.hollow_star
                    and verify_hollow_star_set(plain, w["hollow_star"]),
                    "witness",
                )
            tally.check(
                len(w["eluder"]) == rep.eluder and verify_eluder_sequence(plain, w["eluder"]),
                "witness",
            )
            tally.check(verify_littlestone_tree(plain, w["littlestone"], rep.littlestone), "witness")
            tally.check(
                len(w["mis"]) == rep.mis and verify_identification_set(plain, w["mis"]), "witness"
            )
            if name in self.KNOWN_VALUES:
                tally.check(self._values(rep) == self.KNOWN_VALUES[name], "value")

    def probe(self, seed: int, tracer: Tracer, reports: list, tally: Tally) -> None:
        """Each search through its own public call, timed per dimension."""
        calls = (
            ("vc", vc_dimension), ("littlestone", littlestone_dimension),
            ("star", star_number), ("hollow_star", hollow_star_number),
            ("eluder", eluder_dimension), ("mis", min_identification_set),
        )
        for (_, fc), rep in zip(self._suite(seed, Tracer(False)), reports):
            values = []
            for dim, fn in calls:
                with tracer.span(f"dimensions.{dim}"):
                    values.append(fn(fc))
            values[-1] = len(values[-1])
            tally.check(not isinstance(rep, tuple) and tuple(values) == self._values(rep), "value")

    def counts(self, inp: _DimsInputs, reports: list) -> dict[str, int]:
        return {"core.vs_mask_calls": sum(fc.vs_mask_calls for _, fc in inp.suite)}

    def digest(self, reports: list):
        return [r if isinstance(r, tuple) else r.to_json_dict() for r in reports]

    def summary(self, reports: list):
        return None

    def report(self, summaries: list, walls: list[float]) -> list[tuple]:
        return [("dims_s", median(walls), "s", len(walls))]


# --------------------------------------------------------------------------
# halfspace


@dataclass
class _HalfInputs:
    inst: object
    secrets: list[tuple[int, ...]]
    domains: list[list[tuple[Fraction, ...]]]
    budget_oracle: object
    dims_oracles: list
    probes: list


@dataclass
class _HalfOutputs:
    runs: list = field(default_factory=list)  # (kind, secret, AdversaryRun | error, client)
    budget: object = None
    dims: list = field(default_factory=list)
    times: dict = field(default_factory=dict)


class Halfspace:
    """The simplex-face family (d=4, k=2) on the Fourier-Motzkin oracle.

    Every secret is recovered by run_adversary through the bounded-deletion
    scheme and through the Merkle scheme; then the bounded budget is
    evaluated on a fresh oracle and the dimensions of seeded 5-point
    rational domains in 3-D are computed.

    The timed budget searches hollow star sets up to size 3, finds one of
    size 4 and so reports no finite budget. The exact budget (cap 5) takes
    about a hundred times as long, too long to repeat within a run, so
    only the traced run evaluates it, outside the timed passes, and checks
    its bits.
    """

    name = "halfspace"
    known: frozenset[str] = frozenset()
    D, K = 4, 2
    BUDGET_CAP = 3
    EXACT_CAP = 5
    HOLLOW = 5  # hollow star number of the d=4, k=2 simplex-face domain
    N_MAX = D + math.comb(D, K)  # size of the largest dataset of the family
    DIMS_CAP = 4
    DOMAINS, POINTS = 4, 5  # 3-D domains and points in each

    def setup(self, seed: int, tracer: Tracer, counting: bool) -> _HalfInputs:
        rng = random.Random(seed)
        with tracer.span("instances.generate"):
            inst = halfspace_lb_instance(self.D, self.K)
        secrets = list(product((0, 1), repeat=inst.secret_len))
        rng.shuffle(secrets)
        domains = []
        for _ in range(self.DOMAINS):
            pts: dict[tuple[Fraction, ...], None] = {}
            while len(pts) < self.POINTS:
                pts[tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))] = None
            domains.append(list(pts))
        with tracer.span("geometry.domain"):
            budget_oracle = HalfspaceOracle(simplex_face_domain(self.D, self.K))
            dims_oracles = [HalfspaceOracle(pts) for pts in domains]
        probes = []
        if counting:
            inst = replace(inst, handle=CountingOracle(inst.handle, tracer))
            budget_oracle = CountingOracle(budget_oracle, tracer)
            dims_oracles = [CountingOracle(o, tracer) for o in dims_oracles]
            probes = [inst.handle, budget_oracle, *dims_oracles]
        return _HalfInputs(inst, secrets, domains, budget_oracle, dims_oracles, probes)

    def run(self, inp: _HalfInputs, tracer: Tracer, sw: Stopwatch) -> _HalfOutputs:
        out = _HalfOutputs()
        inst = inp.inst
        makers = (
            ("bounded", "schemes_central", lambda h: BoundedDeletionScheme(h, self.K)),
            ("merkle", "schemes_ticketed", MerkleScheme),
        )
        for kind, layer, make in makers:
            for z in inp.secrets:
                client = SchemeClient(make(inst.handle), tracer, layer)
                with sw.lap(), tracer.span("job.adversary"):

                    def attack():
                        with tracer.span("instances.run_adversary"):
                            return run_adversary(inst, client, z)

                    result = _guarded(attack)
                out.runs.append((kind, z, result, client))
                out.times[kind] = out.times.get(kind, 0.0) + sw.laps[-1]
        with sw.lap(), tracer.span("job.budget"):

            def budget():
                with tracer.span("report.scheme_bound"):
                    return report.scheme_bound(
                        "bounded", inp.budget_oracle, self.N_MAX, k=self.K, dim_cap=self.BUDGET_CAP
                    )

            out.budget = _guarded(budget)
        out.times["budget"] = sw.laps[-1]
        out.times["dims"] = 0.0
        for oracle in inp.dims_oracles:
            with sw.lap(), tracer.span("job.dims"):

                def dims():
                    with tracer.span("dimensions.compute_dims"):
                        return compute_dims(oracle, cap=self.DIMS_CAP)

                out.dims.append(_guarded(dims))
            out.times["dims"] += sw.laps[-1]
        return out

    def _reference_aux(self, z: tuple[int, ...]) -> tuple[int, int]:
        """Aux bits and critical-set count of the bounded scheme, from geometry alone.

        Every point of the family sits on the probability simplex, so the
        positive basis vectors P and negative face centroids N are strictly
        separable exactly when no centroid in N averages basis vectors that
        are all in P.
        """
        d, k = self.D, self.K
        faces = list(combinations(range(d), k))
        m = d + len(faces)
        spans = {face_centroid_id(d, k, L): set(range(d)) - set(L) for L in faces}
        support = {(i, 1) for i in range(d)}
        support |= {(face_centroid_id(d, k, L), 0) for L, bit in zip(faces, z) if bit}
        n = len(support)

        def separable(s) -> bool:
            return not any(
                y == 0 and all((i, 1) in s for i in spans[x]) for x, y in s
            )

        if separable(support):
            return 1, 0
        critical = []
        for size in range(1, k + 1):
            for removal in combinations(sorted(support), size):
                rem = set(removal)
                if separable(support - rem) and not any(
                    separable(support - (rem - {p})) for p in rem
                ):
                    critical.append(rem)
        mentioned = set().union(*critical)
        bits = 1 + sum(len(s) for s in critical) * pair_bits(m) + len(mentioned) * count_bits(n)
        return bits, len(critical)

    def check(self, inp: _HalfInputs, out: _HalfOutputs, tally: Tally) -> None:
        m = inp.inst.handle.domain_size
        for kind, z, run, client in out.runs:
            if isinstance(run, tuple):
                tally.fail("error")
                continue
            tally.check(run.recovered == run.secret == z, "recovered")
            if kind == "bounded":
                bits, n_sets = self._reference_aux(z)
                tally.check(run.aux_bits == bits, "aux_bits")
                tally.check(len(client.learned[0][1].critical_sets) == n_sets, "critical_sets")
            else:
                tally.check(run.aux_bits == 1, "aux_bits")
                tickets = client.learned[0][2]
                n = len(tickets)
                depth = math.ceil(math.log2(n))
                cap = 2 * m
                ref = tuple(
                    count_bits((1 << depth) - 1)
                    + sum(count_bits(cap) + len(e.pairs) * pair_bits(m) for e in t.siblings)
                    for t in tickets.values()
                )
                tally.check(
                    run.ticket_bits == ref
                    and all(len(t.siblings) == depth for t in tickets.values()),
                    "ticket_bits",
                )
        b = out.budget
        tally.check(
            isinstance(b, dict) and b["bits"] is None and b["dims"] == {"hollow_star": CAP_EXCEEDED},
            "budget_bits",
        )
        for points, rep in zip(inp.domains, out.dims):
            if isinstance(rep, tuple):
                tally.fail("error")
                continue
            ref = BruteForceOracle(points)
            w = rep.witnesses
            for dim, verify in (
                ("vc", verify_shattered), ("star", verify_star_set),
                ("hollow_star", verify_hollow_star_set), ("eluder", verify_eluder_sequence),
            ):
                value = getattr(rep, dim)
                size = self.DIMS_CAP + 1 if value == CAP_EXCEEDED else value
                tally.check(len(w[dim] or ()) == size and verify(ref, w[dim] or ()), "witness")

    def probe(self, seed: int, tracer: Tracer, out: _HalfOutputs, tally: Tally) -> None:
        """The exact bounded budget: hollow star number 5, checked bit for bit."""
        oracle = HalfspaceOracle(simplex_face_domain(self.D, self.K))
        with tracer.span("report.scheme_bound_exact"):
            b = report.scheme_bound("bounded", oracle, self.N_MAX, k=self.K, dim_cap=self.EXACT_CAP)
        m = oracle.domain_size
        want = self.HOLLOW ** (self.K + 1) * (self.K * pair_bits(m) + count_bits(self.N_MAX)) + 1
        tally.check(b["dims"] == {"hollow_star": self.HOLLOW} and b["bits"] == want, "budget_bits")

    def counts(self, inp: _HalfInputs, out: _HalfOutputs) -> dict[str, int]:
        sets = sum(
            len(c.learned[0][1].critical_sets)
            for kind, _, _, c in out.runs
            if kind == "bounded" and c.learned
        )
        tickets = [
            b for kind, _, run, _ in out.runs if kind == "merkle" and not isinstance(run, tuple)
            for b in run.ticket_bits
        ]
        return {
            "geometry.oracle_calls": sum(p.calls for p in inp.probes),
            "geometry.oracle_distinct": sum(len(p.distinct) for p in inp.probes),
            "schemes_central.critical_sets": sets,
            "schemes_ticketed.max_ticket_bits": max(tickets, default=0),
        }

    def digest(self, out: _HalfOutputs):
        runs = [
            (kind, z, run) if isinstance(run, tuple)
            else (kind, z, run.recovered, run.aux_bits, run.ticket_bits, run.transcript)
            for kind, z, run, _ in out.runs
        ]
        dims = [r if isinstance(r, tuple) else r.to_json_dict() for r in out.dims]
        return (runs, out.budget, dims)

    def summary(self, out: _HalfOutputs):
        clients = [c for _, _, _, c in out.runs]
        return dict(
            out.times,
            learn=sum(c.learn_s for c in clients),
            unlearns=sum(c.unlearns for c in clients),
        )

    def report(self, summaries: list, walls: list[float]) -> list[tuple]:
        n = len(summaries)
        unlearns = sum(s["unlearns"] for s in summaries)
        adversary = [s["bounded"] + s["merkle"] for s in summaries]
        return [
            ("learn_s", median([s["learn"] for s in summaries]), "s", n),
            ("queries_per_s", unlearns / sum(adversary), "1/s", unlearns),
            ("adversary_s", median(adversary), "s", n),
            ("budget_s", median([s["budget"] for s in summaries]), "s", n),
            ("dims_s", median([s["dims"] for s in summaries]), "s", n),
        ]


def _tail(prefix: str, values_ms: list[float]) -> tuple:
    p = tail_percentile(len(values_ms))
    if p is None:
        return (f"{prefix}_tail_ms", max(values_ms), "ms", len(values_ms))
    return (f"{prefix}_p{p:g}_ms", percentile(values_ms, p), "ms", len(values_ms))


WORKLOADS = {w.name: w for w in (TreeStream(), DimsFinite(), Halfspace())}
