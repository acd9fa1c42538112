"""Ordinal submodularity conditions and classification.

A set function f on a Boolean lattice, into a totally ordered codomain, is
tested pairwise over X, Y against:

    Q1:  f(X) <= f(X∩Y)  implies  f(X∪Y) <= f(Y)
    Q2:  f(X) <  f(X∩Y)  implies  f(X∪Y) <  f(Y)
    Q3:  f(X) <  f(X∩Y)  implies  f(X∪Y) <= f(Y)
    Q4:  max(f(X), f(Y)) >= min(f(X∪Y), f(X∩Y))
    Qh:  f(X) == f(Y)    implies  f(X∪Y) == f(X∩Y) == f(X),
                                  or f(X∪Y) < f(X), or f(X∩Y) < f(X)

Quasisubmodular means Q1 and Q2 jointly.  Each condition is defined once, in
``VIOLATES``, as the negation of its disjunctive form: a predicate on the
four lattice values (vx, vy, vu, vi) = (f(X), f(Y), f(X∪Y), f(X∩Y)) written
with comparisons, ``&``, ``|`` and ``+`` only.  On Python values it decides
one pair (``holds_at_pair``, ``ConditionWitness.reproduces``); on numpy
arrays it decides a block of pairs; on ``Lanes`` it decides one pair for a
whole chunk of functions.  Vacuous hypotheses count as satisfied.

Checks on a SetFunction run through the rank kernel (``kernel``).  The values
are mapped once to dense int32 ranks, which is exact for every ordinal
condition since they depend on order alone; ordinary submodularity uses the
values as exact integers instead (rationals scaled by the LCM of their
denominators).  The kernel scans blocks of rows X against every Y, in
O(block + 2**n) memory, and evaluates all requested conditions in one pass.
Comparable pairs can never violate a condition, so only incomparable pairs
are examined.  The witness is the lexicographically first violating (X, Y)
by mask, so witnesses are deterministic.  numpy is imported by the first
such check, not by this module.

The exhaustive suites and witness search, at n <= ENUMERATION_CAP, check
hundreds of thousands of functions on 8 values each, where a numpy call per
function costs more than the check.  They run ``VIOLATES`` bit-sliced
instead, in pure Python (``lane_chunks``): CHUNK enumerated rank vectors
become one int per subset with a 16-bit lane per function, and each
predicate call answers for every function of the chunk at once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .core import OrdinalValue, RawKey, SetFunction

Pair = tuple[int, int, int, int]  # (X, Y, X|Y, X&Y)

ENUMERATION_CAP = 3


class ConditionId(enum.Enum):
    Q1 = "Q1"
    Q2 = "Q2"
    Q3 = "Q3"
    Q4 = "Q4"
    QH = "Qh"
    QUASI = "QuasiSubmodular"
    ORDINARY = "OrdinarySubmodular"
    INJECTIVE = "Injective"

    def __str__(self) -> str:
        return self.value


PAIRWISE_CONDITIONS = (
    ConditionId.Q1,
    ConditionId.Q2,
    ConditionId.Q3,
    ConditionId.Q4,
    ConditionId.QH,
)


# Violation predicates on (f(X), f(Y), f(X∪Y), f(X∩Y)).  The operands are
# Python values or numpy arrays alike, so only comparisons, & and | appear;
# Q4's max(vx, vy) < min(vu, vi) is spelled as four comparisons for that reason.
VIOLATES: dict[ConditionId, Callable] = {
    ConditionId.Q1: lambda vx, vy, vu, vi: (vx <= vi) & (vu > vy),
    ConditionId.Q2: lambda vx, vy, vu, vi: (vx < vi) & (vu >= vy),
    ConditionId.Q3: lambda vx, vy, vu, vi: (vx < vi) & (vu > vy),
    ConditionId.Q4: lambda vx, vy, vu, vi: (vu > vx) & (vu > vy) & (vi > vx) & (vi > vy),
    ConditionId.QH: lambda vx, vy, vu, vi: (vx == vy) & (vu >= vx) & (vi >= vx) & ((vu > vx) | (vi > vx)),
    ConditionId.QUASI: lambda vx, vy, vu, vi: (vx <= vi) & (vu > vy) | (vx < vi) & (vu >= vy),
    ConditionId.ORDINARY: lambda vx, vy, vu, vi: vx + vy < vu + vi,
    ConditionId.INJECTIVE: lambda vx, vy, vu, vi: vx == vy,
}


@lru_cache(maxsize=None)
def incomparable_pair_table(n: int) -> tuple[Pair, ...]:
    """The pairs (X, Y, X|Y, X&Y) with X ⊄ Y and Y ⊄ X, in lexicographic order.

    Only for the bit-sliced chunks, so only up to ENUMERATION_CAP.
    """
    if not 0 <= n <= ENUMERATION_CAP:
        raise ValueError(f"pair lists are capped at n <= {ENUMERATION_CAP}, got {n}")
    size = 1 << n
    return tuple(
        (x, y, x | y, x & y) for x in range(size) for y in range(size) if x & y not in (x, y)
    )


# Bit-sliced evaluation of VIOLATES over many small functions at once.  A
# chunk of rank vectors becomes one Python int per subset, holding one 16-bit
# lane per function.  Every comparison of two such ints answers in the guard
# bit (bit 8) of each lane, so a predicate returns the bitset of the chunk's
# functions that violate it at one pair.  Values stay in 0..LANE_MAX, so a
# value, or the sum of two, never reaches the guard bit.

CHUNK = 4096
LANE_MAX = 127


class Lanes:
    """The values at one subset of a chunk of functions, one 16-bit lane each.

    ``guard`` holds the guard bit of every lane.  ``a <= b`` is computed as
    ((b | guard) - a) & guard: a lane of b - a borrows from its guard bit
    exactly when a > b.  The other comparisons derive from it.
    """

    __slots__ = ("bits", "guard")
    __hash__ = None

    def __init__(self, bits: int, guard: int) -> None:
        self.bits = bits
        self.guard = guard

    def __le__(self, other: Lanes) -> int:
        return ((other.bits | self.guard) - self.bits) & self.guard

    def __ge__(self, other: Lanes) -> int:
        return ((self.bits | self.guard) - other.bits) & self.guard

    def __lt__(self, other: Lanes) -> int:
        return self.guard ^ (self >= other)

    def __gt__(self, other: Lanes) -> int:
        return self.guard ^ (self <= other)

    def __eq__(self, other: Lanes) -> int:  # type: ignore[override]
        return (self <= other) & (self >= other)

    def __add__(self, other: Lanes) -> Lanes:
        return Lanes(self.bits + other.bits, self.guard)


@dataclass(frozen=True)
class LaneChunk:
    """Up to CHUNK rank vectors on the subsets of n elements, bit-sliced.

    ``full`` is the set of all the chunk's functions: the guard bit of every
    lane.  Bitsets of functions are subsets of it, in enumeration order from
    the lowest bit up.
    """

    vectors: Sequence[tuple[int, ...]]
    cols: Sequence[Lanes]
    n: int
    full: int

    @property
    def pairs(self) -> tuple[Pair, ...]:
        return incomparable_pair_table(self.n)

    def vector(self, bits: int) -> tuple[int, ...]:
        """The first function of a nonempty bitset."""
        return self.vectors[((bits & -bits).bit_length() - 9) >> 4]

    def hits(self, cond: ConditionId, pairs: Iterable[Pair] | None = None) -> list[int]:
        """Per pair (incomparable ones by default, in order): the functions violating cond there."""
        c, violates = self.cols, VIOLATES[cond]
        return [violates(c[x], c[y], c[u], c[i]) for x, y, u, i in (self.pairs if pairs is None else pairs)]

    def holds(self, cond: ConditionId) -> int:
        """The functions satisfying cond at every pair (Injective: at every pair X < Y)."""
        pairs = None
        if cond is ConditionId.INJECTIVE:
            size = len(self.cols)
            pairs = [(x, y, x | y, x & y) for y in range(size) for x in range(y)]
        bad = 0
        for bits in self.hits(cond, pairs):
            bad |= bits
        return self.full ^ bad

    def dual(self) -> LaneChunk:
        """The same functions' complement duals, X -> f(E - X)."""
        full = len(self.cols) - 1
        return LaneChunk(self.vectors, [self.cols[full ^ m] for m in range(full + 1)], self.n, self.full)


def lane_chunks(vectors: Iterable[Sequence[int]], n: int) -> Iterator[LaneChunk]:
    """Bit-slice rank vectors on the 2**n subsets, CHUNK at a time, in order.

    Raises ValueError for a vector of another length or a value outside
    0..LANE_MAX.
    """
    size = 1 << n
    it = iter(vectors)
    while chunk := list(islice(it, CHUNK)):
        try:
            flat = bytes(chain.from_iterable(chunk))
        except (TypeError, ValueError):
            flat = None
        # isascii: every value is below 128, that is at most LANE_MAX
        if flat is None or len(flat) != size * len(chunk) or not flat.isascii():
            raise ValueError(f"bit-sliced vectors need {size} integers in 0..{LANE_MAX} each")
        full = int.from_bytes(b"\0\1" * len(chunk), "little")
        lanes = bytearray(2 * len(chunk))
        cols = []
        for s in range(size):
            lanes[::2] = flat[s::size]  # lane k holds the value of function k, little-endian
            cols.append(Lanes(int.from_bytes(lanes, "little"), full))
        yield LaneChunk(chunk, cols, n, full)


@dataclass(frozen=True)
class ConditionWitness:
    """A pair (X, Y) whose four lattice values violate a condition.

    ``condition`` is the condition whose defining comparison fails on the
    recorded values; for a QuasiSubmodular check this is Q1 or Q2.  The pair
    is the lexicographically smallest violating one by (X, Y) mask.
    """

    condition: ConditionId
    x: int
    y: int
    v_x: OrdinalValue
    v_y: OrdinalValue
    v_union: OrdinalValue
    v_inter: OrdinalValue

    def reproduces(self) -> bool:
        """Re-evaluate the defining comparison on the stored values."""
        return VIOLATES[self.condition](self.v_x.key, self.v_y.key, self.v_union.key, self.v_inter.key)

    def to_json(self, f: SetFunction) -> dict:
        enc = f.codomain.json_encode
        return {
            "condition": self.condition.value,
            "X": f.ground.subset_str(self.x),
            "Y": f.ground.subset_str(self.y),
            "values": [enc(self.v_x.key), enc(self.v_y.key), enc(self.v_union.key), enc(self.v_inter.key)],
        }


def _make_witness(f: SetFunction, cond: ConditionId, pair: Pair) -> ConditionWitness:
    x, y, u, i = pair
    return ConditionWitness(cond, x, y, f.value(x), f.value(y), f.value(u), f.value(i))


def _violates(f: SetFunction, cond: ConditionId, x: int, y: int) -> bool:
    vals = f.values
    return VIOLATES[cond](vals[x], vals[y], vals[x | y], vals[x & y])


def _witness_at(f: SetFunction, cond: ConditionId, x: int, y: int) -> ConditionWitness:
    """The witness of a pair violating cond; a QuasiSubmodular pair is tagged Q2 if it fails Q2, else Q1."""
    if cond is ConditionId.QUASI:
        cond = ConditionId.Q2 if _violates(f, ConditionId.Q2, x, y) else ConditionId.Q1
    return _make_witness(f, cond, (x, y, x | y, x & y))


def holds_at_pair(f: SetFunction, cond: ConditionId, x: int, y: int) -> bool:
    """Evaluate one condition at the single pair (X, Y)."""
    f.ground.check_mask(x)
    f.ground.check_mask(y)
    return not _violates(f, cond, x, y)


def _first_witnesses(f: SetFunction, conds: Sequence[ConditionId]) -> dict[ConditionId, ConditionWitness]:
    """The first witness of each failing condition in conds, in the order of conds.

    The ordinal conditions share one kernel pass over the ranks.
    """
    from . import kernel

    ordinal = {c: VIOLATES[c] for c in conds if c is not ConditionId.ORDINARY}
    hits = kernel.first_violations(f.n, kernel.dense_ranks(f.values), ordinal) if ordinal else {}
    if ConditionId.ORDINARY in conds:
        ordinary = {ConditionId.ORDINARY: VIOLATES[ConditionId.ORDINARY]}
        hits.update(kernel.first_violations(f.n, kernel.exact_ints(f.values), ordinary))
    return {cond: _witness_at(f, cond, *hits[cond]) for cond in conds if cond in hits}


def check_condition(f: SetFunction, cond: ConditionId) -> ConditionWitness | None:
    """None if the condition holds for all pairs; otherwise the first witness.

    Accepts Q1..Q4, Qh and QuasiSubmodular.  The witness is lexicographically
    minimal by (X, Y).
    """
    if cond not in PAIRWISE_CONDITIONS and cond is not ConditionId.QUASI:
        raise ValueError(f"check_condition does not handle {cond}; see is_ordinary_submodular / is_injective")
    return _first_witnesses(f, (cond,)).get(cond)


def iter_witnesses(f: SetFunction, cond: ConditionId) -> Iterator[ConditionWitness]:
    """Every violating pair in lexicographic order (the full-witness-list mode).

    A QuasiSubmodular witness is tagged as by ``check_condition``.
    """
    from . import kernel

    if cond is ConditionId.INJECTIVE:
        raise ValueError("injectivity also concerns comparable pairs; see injective_witness")
    vals = kernel.exact_ints(f.values) if cond is ConditionId.ORDINARY else kernel.dense_ranks(f.values)
    for x, y in kernel.all_violations(f.n, vals, VIOLATES[cond]):
        yield _witness_at(f, cond, x, y)


def check_ordinary_submodular(f: SetFunction) -> ConditionWitness | None:
    """None iff f(X) + f(Y) >= f(X∪Y) + f(X∩Y) for all pairs (exact arithmetic).

    Only defined for numeric codomains; labels have no additive structure.
    """
    if not f.codomain.is_numeric:
        raise ValueError("ordinary submodularity needs a numeric codomain (integer or rational)")
    return _first_witnesses(f, (ConditionId.ORDINARY,)).get(ConditionId.ORDINARY)


def is_ordinary_submodular(f: SetFunction) -> bool:
    return check_ordinary_submodular(f) is None


def injective_witness(f: SetFunction) -> ConditionWitness | None:
    """First pair of distinct subsets sharing a value, in lexicographic order."""
    seen: dict[RawKey, int] = {}
    best: tuple[int, int] | None = None
    for m, v in enumerate(f.values):
        if v in seen:
            cand = (seen[v], m)
            if best is None or cand < best:
                best = cand
        else:
            seen[v] = m
    if best is None:
        return None
    x, y = best
    return _make_witness(f, ConditionId.INJECTIVE, (x, y, x | y, x & y))


def is_injective(f: SetFunction) -> bool:
    """Whether f takes 2**n pairwise distinct values (induces a linear order)."""
    return len(set(f.values)) == len(f.values)


@dataclass(frozen=True)
class ClassReport:
    """Flags for every condition, plus the first witness per failed one.

    ``flags[ConditionId.ORDINARY]`` is None when the codomain has no additive
    structure (labels); every other flag is a bool.  Construction asserts the
    implication lattice (Quasi ⇒ Q1 ∧ Q2, Q1 ⇒ Q3, Q2 ⇒ Q3, Q3 ⇒ Q4,
    Ordinary ⇒ Quasi, Injective ⇒ Qh); a violation means the checker itself
    is broken.
    """

    flags: Mapping[ConditionId, bool | None]
    witnesses: Mapping[ConditionId, ConditionWitness]

    def __post_init__(self) -> None:
        g = self.flags.get
        checks = [
            (not g(ConditionId.QUASI)) or (g(ConditionId.Q1) and g(ConditionId.Q2)),
            (not g(ConditionId.Q1)) or g(ConditionId.Q3),
            (not g(ConditionId.Q2)) or g(ConditionId.Q3),
            (not g(ConditionId.Q3)) or g(ConditionId.Q4),
            (not g(ConditionId.ORDINARY)) or g(ConditionId.QUASI),
            (not g(ConditionId.INJECTIVE)) or g(ConditionId.QH),
        ]
        if not all(checks):
            raise RuntimeError(f"condition checker bug: implication lattice violated in {dict(self.flags)}")

    def flag(self, cond: ConditionId) -> bool | None:
        return self.flags[cond]

    def ordinal_vector(self) -> tuple[bool, ...]:
        """Flags of the purely ordinal conditions (Q1..Q4, Qh, Quasi, Injective).

        This is the vector preserved by strictly increasing value relabelings;
        ordinary submodularity depends on sums, so it is excluded.
        """
        return tuple(
            self.flags[c]
            for c in (
                ConditionId.Q1,
                ConditionId.Q2,
                ConditionId.Q3,
                ConditionId.Q4,
                ConditionId.QH,
                ConditionId.QUASI,
                ConditionId.INJECTIVE,
            )
        )

    def to_json(self, f: SetFunction, include_witnesses: bool = False) -> dict:
        out: dict = {c.value: self.flags[c] for c in ConditionId}
        if include_witnesses:
            out["witnesses"] = {
                c.value: w.to_json(f) for c, w in self.witnesses.items()
            }
        return out


def classify(f: SetFunction) -> ClassReport:
    """Evaluate every condition on f and collect first witnesses for failures."""
    conds = PAIRWISE_CONDITIONS + (ConditionId.QUASI,)
    if f.codomain.is_numeric:
        conds += (ConditionId.ORDINARY,)
    witnesses = _first_witnesses(f, conds)
    flags: dict[ConditionId, bool | None] = {c: c not in witnesses for c in conds}
    flags.setdefault(ConditionId.ORDINARY, None)
    w = injective_witness(f)
    flags[ConditionId.INJECTIVE] = w is None
    if w is not None:
        witnesses[ConditionId.INJECTIVE] = w
    return ClassReport(flags, witnesses)
