"""Class generators, hidden-secret dataset families, and adversary drivers.

Each lower-bound family packages a hypothesis class, a dataset indexed by
a hidden bit string, and a deletion-query plan whose answers reveal the
string one bit at a time. run_adversary plays the plan against any exact
scheme through its public learn/unlearn surface alone and reports the
recovered secret together with measured memory sizes.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .core import ClassHandle, Dataset, FiniteClass, Pair
from .dimensions import verify_eluder_sequence, verify_shattered
from .geometry import HalfspaceOracle, face_centroid_id, simplex_face_domain

Bits = tuple[int, ...]


def thresholds_1d(m: int) -> FiniteClass:
    """Threshold class on m ordered points: h_t fires from position t-1 on.

    Point id i plays the role of the (i+1)-th point on the line; the
    m+1 hypotheses range from all-ones down to all-zeros.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    rows = [[1 if i + 1 >= t else 0 for i in range(m)] for t in range(1, m + 2)]
    return FiniteClass(m, rows)


def parity_class(d: int) -> FiniteClass:
    """All parities of subsets of d bits over the 2^d binary points.

    Point ids and hypothesis indices both read as d-bit masks; hypothesis
    a labels point x with the parity of a & x.
    """
    if not (1 <= d <= 4):
        raise ValueError("parity classes are generated for 1 <= d <= 4")
    size = 1 << d
    rows = [[bin(a & x).count("1") & 1 for x in range(size)] for a in range(size)]
    return FiniteClass(size, rows)


def all_labelings(m: int) -> FiniteClass:
    """Every labeling of m points; shatters the whole domain."""
    if not (1 <= m <= 4):
        raise ValueError("the full cube is generated for 1 <= m <= 4")
    rows = [[a >> i & 1 for i in range(m)] for a in range(1 << m)]
    return FiniteClass(m, rows)


def tilu_ub_class(d: int, domain_size: int) -> FiniteClass:
    """Free labelings on the first d points, forced zeros beyond."""
    if not (1 <= d <= 4):
        raise ValueError("the free-prefix class is generated for 1 <= d <= 4")
    if domain_size < d:
        raise ValueError("domain must cover the free prefix")
    rows = [
        [(a >> i & 1) if i < d else 0 for i in range(domain_size)]
        for a in range(1 << d)
    ]
    return FiniteClass(domain_size, rows)


def random_finite_class(rng: random.Random, max_m: int = 6, max_h: int = 20) -> FiniteClass:
    m = rng.randint(2, max_m)
    count = rng.randint(1, max_h)
    rows = [[rng.randint(0, 1) for _ in range(m)] for _ in range(count)]
    return FiniteClass(m, rows)


@dataclass(frozen=True)
class RecipeForm:
    """Presence-coded layout from which a lower-bound family is built.

    The dataset holds the base items, then the pair of each 1-bit step
    in step order. Step t's static query removes base items only; after
    it also removes the pairs of every earlier 1-bit step, the survivor
    is realizable exactly when step t's bit is 0. `_presence_coded`
    turns a recipe into an `LbInstance`, and `whitebox_erm_reduction`
    lifts one to the ERM task.
    """

    base_items: tuple[Pair, ...]
    secret_pairs: tuple[Pair, ...]
    static_queries: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class LbInstance:
    """A secret-indexed dataset family with its recovery plan.

    `query_ids(pos, recovered)` maps a secret position and the bits
    recovered so far to item ids of dataset_of(z); `decode(pos, answer)`
    turns the scheme's answer into the recovered bit. `recipe` is the
    layout a presence-coded realizability family was built from, and
    None for the other families and for ERM lifts.
    """

    name: str
    handle: ClassHandle
    secret_len: int
    task: str
    dataset_of: Callable[[Bits], Dataset]
    recovery_order: Bits
    query_ids: Callable[[int, dict[int, int]], frozenset[int]]
    decode: Callable[[int, object], int]
    recipe: RecipeForm | None = None
    fixed_bits: dict[int, int] | None = None


def _check_secret(inst: LbInstance, z: Sequence[int]) -> Bits:
    bits = tuple(int(b) for b in z)
    if len(bits) != inst.secret_len:
        raise ValueError(f"secret must have {inst.secret_len} bits")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("secret bits must be 0 or 1")
    for pos, forced in (inst.fixed_bits or {}).items():
        if bits[pos - 1] != forced:
            raise ValueError(f"this family fixes bit {pos} to {forced}")
    return bits


def _presence_coded(
    name: str,
    handle: ClassHandle,
    recipe: RecipeForm,
    positions: Bits,
    cumulative: bool,
    copies: int = 1,
    decode: Callable[[int, object], int] | None = None,
    fixed_bits: dict[int, int] | None = None,
) -> LbInstance:
    """Build the family a recipe describes.

    Step t recovers secret position positions[t-1]; each 1-bit step adds
    `copies` copies of its pair after the base items. In a cumulative
    family a step's query also deletes the copies of every earlier 1-bit
    step, which hold the ids right after the base items. Without
    `decode` the family asks realizability, and an unrealizable survivor
    reads as bit 1; with it the family asks ERM and cannot be lifted again.
    """
    nbase = len(recipe.base_items)

    def dataset_of(z: Bits) -> Dataset:
        pairs = list(recipe.base_items)
        for pos, pair in zip(positions, recipe.secret_pairs):
            if z[pos - 1]:
                pairs.extend([pair] * copies)
        return Dataset.from_pairs(pairs)

    def query_ids(pos: int, recovered: dict[int, int]) -> frozenset[int]:
        step = positions.index(pos)
        query = recipe.static_queries[step]
        if not cumulative:
            return query
        ones = sum(recovered[q] for q in positions[:step])
        return query | frozenset(range(nbase + 1, nbase + copies * ones + 1))

    def realizability_decode(pos: int, answer) -> int:
        return 0 if answer else 1

    return LbInstance(
        name=name,
        handle=handle,
        secret_len=len(positions),
        task="realizability" if decode is None else "erm",
        dataset_of=dataset_of,
        recovery_order=tuple(p for p in positions if p not in (fixed_bits or {})),
        query_ids=query_ids,
        decode=decode or realizability_decode,
        recipe=recipe if decode is None else None,
        fixed_bits=fixed_bits,
    )


def vclb_instance(beta, m: int):
    """Code-point family: low Littlestone dimension, secret of length m.

    1/beta must be an integer r. The domain holds m secret points plus a
    code block of s points, s minimal with (s/r)^r >= m, so the code block
    has at least m distinct r-subsets. Hypothesis i fires on secret point
    i and on the i-th r-subset of the code block; every dataset labels
    everything 0, so deleting a code subset leaves hypothesis i as the
    only candidate and the survivor is realizable exactly when secret
    point i is absent.
    """
    from fractions import Fraction

    beta = Fraction(beta)
    if beta <= 0 or (1 / beta).denominator != 1:
        raise ValueError("1/beta must be a positive integer")
    r = int(1 / beta)
    s = 1
    while s**r < m * r**r:
        s += 1
    if comb(s, r) < m:
        raise ValueError("code block too small for the secret length")
    subsets = list(combinations(range(s), r))[:m]
    domain = m + s
    rows = []
    for i in range(m):
        row = [0] * domain
        row[i] = 1
        for c in subsets[i]:
            row[m + c] = 1
        rows.append(row)
    recipe = RecipeForm(
        base_items=tuple((m + c, 0) for c in range(s)),
        secret_pairs=tuple((i, 0) for i in range(m)),
        static_queries=tuple(frozenset(c + 1 for c in subsets[i]) for i in range(m)),
    )
    return _presence_coded(
        "vclb", FiniteClass(domain, rows), recipe, tuple(range(1, m + 1)), cumulative=False
    )


def eluder_lb_instance(handle: ClassHandle, witness: Sequence[Pair], n: int) -> LbInstance:
    """Ambiguity-chain family built on a verified eluder sequence.

    Position i always contributes the flipped pair (x_i, 1-y_i); bit i
    adds the true pair. Bits are recovered from the last position down:
    the query keeps only the true pairs of earlier positions plus both
    labels at x_i, so the survivor is realizable exactly when bit i is 0.
    """
    seq = tuple((int(x), int(y)) for x, y in witness)
    if not verify_eluder_sequence(handle, seq):
        raise ValueError("the witness is not an eluder sequence for this class")
    p = min(n // 2, len(seq))
    if p < 1:
        raise ValueError("need room for at least one secret bit")
    order = tuple(range(p, 0, -1))
    recipe = RecipeForm(
        base_items=tuple((x, 1 - y) for x, y in seq[:p]),
        secret_pairs=tuple(seq[pos - 1] for pos in order),
        static_queries=tuple(
            frozenset(i for i in range(1, p + 1) if i != pos) for pos in order
        ),
    )
    return _presence_coded("eluder", handle, recipe, order, cumulative=True)


def shatter_lb_instance(handle: ClassHandle, shattered: Sequence[int]) -> LbInstance:
    """Coincident-pair family over a verified shattered set.

    Every point carries one 1-labeled item and one item labeled by the
    secret bit; deleting the other points' 1-labels leaves a coincident
    conflict exactly when the bit is 0.
    """
    points = tuple(int(x) for x in shattered)
    if not verify_shattered(handle, points):
        raise ValueError("the given points are not shattered by this class")
    d = len(points)

    def dataset_of(z: Bits) -> Dataset:
        pairs = []
        for i, x in enumerate(points):
            pairs.append((x, 1))
            pairs.append((x, z[i]))
        return Dataset.from_pairs(pairs)

    def query_ids(pos: int, recovered: dict[int, int]) -> frozenset[int]:
        return frozenset(2 * j + 1 for j in range(d) if j != pos - 1)

    def decode(pos: int, answer) -> int:
        return 1 if answer else 0

    return LbInstance(
        name="shatter",
        handle=handle,
        secret_len=d,
        task="realizability",
        dataset_of=dataset_of,
        recovery_order=tuple(range(1, d + 1)),
        query_ids=query_ids,
        decode=decode,
    )


def halfspace_lb_instance(d: int, k: int) -> LbInstance:
    """Simplex-face family: the secret is a set of k-subsets of [d].

    The dataset holds the d positive basis vectors plus a 0-labeled face
    centroid per chosen subset. Deleting the k basis items of a subset
    leaves a separable survivor exactly when that subset was not chosen.
    """
    if not (2 <= k <= d - 2):
        raise ValueError("need 2 <= k <= d-2 for distinct domain points")
    oracle = HalfspaceOracle(simplex_face_domain(d, k))
    subsets = list(combinations(range(d), k))
    recipe = RecipeForm(
        base_items=tuple((i, 1) for i in range(d)),
        secret_pairs=tuple((face_centroid_id(d, k, L), 0) for L in subsets),
        static_queries=tuple(frozenset(i + 1 for i in L) for L in subsets),
    )
    return _presence_coded(
        "halfspace", oracle, recipe, tuple(range(1, len(subsets) + 1)), cumulative=False
    )


def whitebox_erm_reduction(inst: LbInstance) -> LbInstance:
    """Lift a presence-coded realizability family to the ERM task.

    Each present pair is duplicated L+1 times, L being the largest
    difference between later static queries and the first one. With the
    first bit pinned to 0, the lexicographic-minimum risk minimizer after
    step t's deletions labels x_t with its true label exactly when bit t
    is 1, so reading the returned hypothesis at x_t recovers the bit.
    The lift's bit t is the recipe's step t.
    """
    recipe = inst.recipe
    if recipe is None:
        raise ValueError(f"instance {inst.name!r} has no presence-coded normal form")
    fc = inst.handle
    if not isinstance(fc, FiniteClass):
        raise ValueError("the ERM reduction needs an explicit finite class")
    extra = max(
        (len(q - recipe.static_queries[0]) for q in recipe.static_queries[1:]),
        default=0,
    )

    def decode(step: int, answer) -> int:
        x, y = recipe.secret_pairs[step - 1]
        return 1 if fc.hypotheses[int(answer)][x] == y else 0

    return _presence_coded(
        f"{inst.name}-erm",
        fc,
        recipe,
        tuple(range(1, inst.secret_len + 1)),
        cumulative=True,
        copies=extra + 1,
        decode=decode,
        fixed_bits={1: 0},
    )


@dataclass(frozen=True)
class AdversaryRun:
    """Outcome of one secret-recovery attack."""

    secret: Bits
    recovered: Bits
    aux_bits: int
    ticket_bits: tuple[int, ...]
    transcript: tuple[tuple[int, tuple[int, ...], object], ...]

    @property
    def exact(self) -> bool:
        return self.secret == self.recovered

    @property
    def max_ticket_bits(self) -> int:
        return max(self.ticket_bits, default=0)


def run_adversary(inst: LbInstance, scheme, z: Sequence[int]) -> AdversaryRun:
    """Recover the hidden bits using only the scheme's learn/unlearn surface.

    The driver learns dataset_of(z) once, then walks the recovery order,
    resolving each planned query to concrete items and decoding the
    scheme's answers. An exact scheme always yields recovered == z.
    """
    bits = _check_secret(inst, z)
    data = inst.dataset_of(bits)
    ticketed = getattr(scheme, "ticketed", False)
    if ticketed:
        _, aux, tickets = scheme.learn(data)
        ticket_sizes = tuple(scheme.ticket_bits(t) for t in tickets.values())
    else:
        _, aux = scheme.learn(data)
        tickets = None
        ticket_sizes = ()
    recovered: dict[int, int] = dict(inst.fixed_bits or {})
    transcript = []
    for pos in inst.recovery_order:
        ids = sorted(inst.query_ids(pos, recovered))
        entries = tuple((i, data.pair(i)) for i in ids)
        if ticketed:
            answer = scheme.unlearn(entries, aux, {i: tickets[i] for i in ids})
        else:
            answer = scheme.unlearn(entries, aux)
        recovered[pos] = inst.decode(pos, answer)
        transcript.append((pos, tuple(ids), answer))
    out = tuple(recovered.get(i, 0) for i in range(1, inst.secret_len + 1))
    return AdversaryRun(
        secret=bits,
        recovered=out,
        aux_bits=scheme.aux_bits(aux),
        ticket_bits=ticket_sizes,
        transcript=tuple(transcript),
    )
