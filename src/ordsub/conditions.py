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
one pair (``holds_at_pair``, ``ConditionWitness.reproduces``); on ``Lanes``
it decides many at once.  Vacuous hypotheses count as satisfied.

``Lanes`` packs many values into one Python int, one lane each, and is the
only scan engine.  Its lanes run across Y for a single function: ``_rows``
is the one walk over the rows X, and yields each row's four Lanes over every
Y, so that one predicate call decides a row; memory is O(2**n) and time
O(4**n).  The ordinal conditions scan ``f.ranks``, the dense
ranks that ``core`` computes once per function, so that the level family
F_i is {X : ranks[X] < i}.  Ranks are exact for every ordinal condition,
which depends on order alone.  Ordinary submodularity scans the values as
exact nonnegative integers instead, ``f.exact_ints``, also computed once per
function (rationals scaled by the LCM of their denominators, less their
minimum).  The witness is the lexicographically first violating (X, Y) by
mask, so witnesses are deterministic.

A scan calls a predicate only on the rows that can hit.  ``_live_rows``
finds them with each condition's own ``VIOLATES`` predicate, called on
lanes of bounds rather than of values: the maxima of f over each X's proper
subsets and supersets, two transforms of n mask-and-shift steps each, for
f(X∩Y) and f(X∪Y), and for f(Y) the least rank of any other subset, which
one count of the ranks gives, as it gives the ranks that several subsets
share.  It decides Ordinary by its n(n-1)/2 diamonds f(S+i) + f(S+j) >=
f(S+i+j) + f(S), which are equivalent to submodularity (Lovász 1983), so
Ordinary's rows are scanned only when a diamond fails.  The walk stops after
the last live row, and a strictly increasing f starts none.

``_scans`` alone decides what a row scan reads: the ordinal conditions walk
the ranks together, and Ordinary (numeric codomains only) the exact integers.
Per group with a live row it builds ``_Layout``, the vector and its lanes,
shared by the walk, the maxima, the diamonds and the live rows, and gives
each live condition its predicate, its live rows and its last live row.  Two
loops walk from there: ``iter_witnesses``, and ``_first_witnesses``, which
finds the first witness of every ``ConditionId``, Injective with no scan, as
the first mask whose rank comes again and the next mask of that rank.
``classify``, ``check_condition``, ``check_ordinary_submodular``,
``injective_witness`` and ``minimize.certify_global_min`` all ask it.

For the exhaustive suites and witness search, at n <= ENUMERATION_CAP, the
lanes run across functions instead (``lane_chunks``), entered only as
columns: the enumerators of ``generators`` give rank vectors as blocks of
byte strings, one per subset, and each block becomes one chunk, one int per
subset, read from its column with an 8-bit lane per function, so each
predicate call answers at one pair for every function of the chunk.  These
ints are ``_Column``, the one subclass of ``Lanes``: they share one table of
their comparisons, so a comparison that several predicates, pairs or the
complement dual repeat is made once, while the plain Lanes of rows, bounds
and sums compare directly.  On both, Python answers ``<`` and ``>=`` as
``>`` and ``<=`` with the operands swapped.
"""

from __future__ import annotations

import enum
from collections import Counter
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .core import OrdinalValue, Record, SetFunction

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


# Violation predicates on (f(X), f(Y), f(X∪Y), f(X∩Y)).  The operands are
# Python values or Lanes alike, so only comparisons, &, | and + appear; Q4's
# max(vx, vy) < min(vu, vi) is spelled as four comparisons for that reason.
# QuasiSubmodular looks Q1 and Q2 up when called, once the dict exists.
VIOLATES: dict[ConditionId, Callable] = {
    ConditionId.Q1: lambda vx, vy, vu, vi: (vx <= vi) & (vu > vy),
    ConditionId.Q2: lambda vx, vy, vu, vi: (vx < vi) & (vu >= vy),
    ConditionId.Q3: lambda vx, vy, vu, vi: (vx < vi) & (vu > vy),
    ConditionId.Q4: lambda vx, vy, vu, vi: (vu > vx) & (vu > vy) & (vi > vx) & (vi > vy),
    ConditionId.QH: lambda vx, vy, vu, vi: (vx == vy) & (vu >= vx) & (vi >= vx) & ((vu > vx) | (vi > vx)),
    ConditionId.QUASI: lambda *v: VIOLATES[ConditionId.Q1](*v) | VIOLATES[ConditionId.Q2](*v),
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


@lru_cache(maxsize=None)
def _ordered_pair_table(n: int) -> tuple[Pair, ...]:
    """Every pair (X, Y, X|Y, X&Y) with X < Y by mask, in lexicographic order: the pairs of Injective."""
    return tuple((x, y, x | y, x & y) for x in range(1 << n) for y in range(x + 1, 1 << n))


# Bit-sliced evaluation of VIOLATES.  Many values share one Python int, one
# lane each.  Every comparison of two such ints answers in the guard bit of
# each lane, so a predicate returns the bitset of lanes that violate it.  A
# value, or the sum of two, stays below the guard bit.

# The largest value an 8-bit lane takes, so that a sum of two stays below the guard bit 7
LANE_MAX = 63


class Lanes:
    """Values packed into lanes of one int, with the guard bit of every lane in ``guard``.

    The lanes hold one function at every Y (as wide as its largest value
    needs, guard bit on top) or, as ``_Column``, a chunk of functions at one
    subset (8 bits each, guard bit 7).  ``a <= b`` is computed as
    ((b | guard) - a) & guard: a lane of b - a borrows from its guard bit
    exactly when a > b.  ``>`` is its complement, and Python answers
    ``a < b`` as ``b > a`` and ``a >= b`` as ``b <= a``.
    """

    __slots__ = ("bits", "guard")

    def __init__(self, bits: int, guard: int) -> None:
        self.bits, self.guard = bits, guard

    def __le__(self, other: Lanes) -> int:
        return ((other.bits | self.guard) - self.bits) & self.guard

    def __gt__(self, other: Lanes) -> int:
        return self.guard ^ (self <= other)

    def __eq__(self, other: Lanes) -> int:  # type: ignore[override]
        return (self <= other) & (other <= self)

    def __add__(self, other: Lanes) -> Lanes:
        return Lanes(self.bits + other.bits, self.guard)


class _Column(Lanes):
    """A chunk's Lanes at one subset, compared only with the chunk's other columns.

    ``table`` is the chunk's, keyed by the two columns' ``index`` pair (the
    first one inverted for ``>``); it stores what ``Lanes`` computes.
    """

    __slots__ = ("table", "index")

    def __init__(self, bits: int, guard: int, table: dict, index: int) -> None:
        super().__init__(bits, guard)
        self.table, self.index = table, index

    def __le__(self, other: _Column) -> int:
        key = self.index, other.index
        if (out := self.table.get(key)) is None:
            out = self.table[key] = Lanes.__le__(self, other)
        return out

    def __gt__(self, other: _Column) -> int:
        key = ~self.index, other.index
        if (out := self.table.get(key)) is None:
            out = self.table[key] = Lanes.__gt__(self, other)
        return out


class LaneChunk(Record):
    """Rank vectors on the subsets of n elements, bit-sliced.

    ``cols`` holds one _Column per subset, lane k holding function k.  ``full``
    is the set of all the chunk's functions: the guard bit of every lane.
    Bitsets of functions are subsets of it, in enumeration order from the
    lowest bit up.
    """

    cols: Sequence[_Column]
    n: int
    full: int

    @property
    def pairs(self) -> tuple[Pair, ...]:
        return incomparable_pair_table(self.n)

    @property
    def count(self) -> int:
        return self.full.bit_length() >> 3

    def vector(self, bits: int) -> tuple[int, ...]:
        """The first function of a nonempty bitset, read from its lanes."""
        shift = (bits & -bits).bit_length() - 8
        return tuple(col.bits >> shift & 0xFF for col in self.cols)

    def hits(self, cond: ConditionId) -> list[int]:
        """Per pair of ``pairs`` in order (for Injective, every X < Y): the functions violating cond there."""
        c, violates = self.cols, VIOLATES[cond]
        pairs = _ordered_pair_table(self.n) if cond is ConditionId.INJECTIVE else self.pairs
        return [violates(c[x], c[y], c[u], c[i]) for x, y, u, i in pairs]

    def holds(self, cond: ConditionId) -> int:
        """The functions satisfying cond at every pair of ``hits``."""
        bad = 0
        for bits in self.hits(cond):
            bad |= bits
        return self.full ^ bad

    def dual(self) -> LaneChunk:
        """The same functions' complement duals, X -> f(E - X).

        The columns are the chunk's own, so the dual shares their table.
        """
        full = len(self.cols) - 1
        return LaneChunk([self.cols[full ^ m] for m in range(full + 1)], self.n, self.full)


def lane_chunks(blocks: Iterable[Sequence[bytes]], n: int) -> Iterator[LaneChunk]:
    """Bit-slice blocks of rank vectors on the 2**n subsets: one chunk per nonempty block, in order.

    Each block holds 2**n byte strings of equal length, column s holding
    byte s of each of its vectors, as ``generators.weak_order_columns`` and
    ``generators.linear_order_columns`` give them; lane k of the chunk's
    column s holds byte k of the block's column s.  Raises ValueError for a
    block of another shape or a value outside 0..LANE_MAX.
    """
    size = 1 << n
    error = f"bit-sliced blocks need {size} byte columns of equal length, with values in 0..{LANE_MAX}"
    for block in blocks:
        if len(block) != size or not all(isinstance(col, bytes) for col in block) or len(set(map(len, block))) != 1:
            raise ValueError(error)
        if not block[0]:
            continue
        full = int.from_bytes(b"\x80" * len(block[0]), "little")
        high = full | full >> 1  # bits 6 and 7 of every lane, clear in a value up to LANE_MAX
        cols = [int.from_bytes(col, "little") for col in block]
        if any(bits & high for bits in cols):
            raise ValueError(error)
        table: dict = {}
        yield LaneChunk([_Column(bits, full, table, s) for s, bits in enumerate(cols)], n, full)


class _Layout:
    """One scanned vector and its lane setup, shared by its walk, its maxima, its diamonds and its live rows.

    vals are nonnegative ints, one per mask of n elements.  Each lane is w
    bits wide with its guard bit on top, so lane Y's guard is bit (Y + 1)·w
    - 1, and w leaves room below the guard for a value plus one or a sum of
    two.  ``hi[j]`` and ``lo[j]`` are the lanes whose index has bit j set,
    and clear; ``packed`` is f, lane Y holding vals[Y].  It is built once
    per scan and never cached: the masks take 2·n·w·2**n bits, 52 MB at
    n = 20 and w = 10.
    """

    __slots__ = ("n", "vals", "w", "ones", "guard", "hi", "lo", "packed")

    def __init__(self, n: int, vals: Sequence[int]) -> None:
        self.n, self.vals = n, vals
        self.w = w = max(vals).bit_length() + 2
        ones, hi = 1, []
        for j in range(n):  # hi[j]: lanes 2**j .. 2**(j+1) - 1, copied 2**k lanes up for each bit k above j
            h = ((1 << (w << j)) - 1) << (w << j)
            for k in range(j + 1, n):
                h |= h << (w << k)
            hi.append(h)
            ones |= ones << (w << j)
        full = (1 << (w << n)) - 1
        self.ones, self.guard, self.hi, self.lo = ones, ones << (w - 1), hi, [full ^ h for h in hi]
        spec = f"0{w}b"
        lane = {v: format(v, spec) for v in set(vals)}
        self.packed = int("".join(map(lane.__getitem__, reversed(vals))), 2)

    def lane_max(self, a: int, b: int) -> int:
        """The lane-wise maximum of a and b, whose lanes hold values below the guard bit."""
        ge = ((a | self.guard) - b) & self.guard  # the guard bit of each lane where a >= b
        return b ^ ((a ^ b) & (ge - (ge >> (self.w - 1))))

    def proper_maxima(self, down: bool) -> int:
        """Lane X: 1 + the maximum of f over the proper subsets (down) or supersets of X, or 0 if none.

        Before step j, ``p`` is the maximum over the proper ones that differ
        from X in bits below j alone, and max(f + 1, p) the same with X
        itself; step j brings the latter in from X's neighbour across bit j,
        below X (down) or above it.
        """
        g, w, p = self.packed + self.ones, self.w, 0
        for j in range(self.n):
            t = self.lane_max(g, p)
            p = self.lane_max(p, (t & self.lo[j]) << (w << j) if down else (t & self.hi[j]) >> (w << j))
        return p


def _rows(lay: _Layout) -> Iterator[tuple[int, tuple[Lanes, Lanes, Lanes, Lanes]]]:
    """Each row X in ascending order, with its Lanes (f(X), f(Y), f(X∪Y), f(X∩Y)) over every Y.

    The u = f(X∪Y) and i = f(X∩Y) lanes come from f by one mask-and-shift
    step per bit of X, and the steps of different bits commute, so they are
    applied from the top bit down and the (u, i) after each bit level is
    kept on a stack.  Row x shares the bits above its lowest set bit with
    row x - 1, so it redoes only the levels from that bit down: about 2
    steps per row instead of n.

    Comparable pairs are not masked out: there the values are (vx, vy, vy,
    vx) or (vx, vy, vx, vy), where no pairwise predicate holds (Injective,
    which is not pairwise, never comes here).  So a row's lowest hit is its
    first incomparable violating Y.
    """
    n, vals = lay.n, lay.vals
    size, w, ones, guard, hi, lo = 1 << n, lay.w, lay.ones, lay.guard, lay.hi, lay.lo
    fy = Lanes(lay.packed, guard)
    # level[j]: (u, i) once the steps of bits n-1 .. j of the current X are
    # applied; level[n] is f itself
    level = [(lay.packed, lay.packed)] * (n + 1)
    for x in range(size):
        # bits above the lowest set bit of x are those of x - 1: start there
        top = ((x & -x) or (size >> 1)).bit_length() - 1
        u, i = level[top + 1]
        for j in range(top, -1, -1):
            if x >> j & 1:  # lane Y takes f(Y | bit j), then f(X∪Y) after every bit of X
                t = u & hi[j]
                u = t | t >> (w << j)
            else:  # lane Y takes f(Y - bit j), then f(X∩Y) after every bit outside X
                t = i & lo[j]
                i = t | t << (w << j)
            level[j] = u, i
        yield x, (Lanes(vals[x] * ones, guard), fy, Lanes(u, guard), Lanes(i, guard))


def _diamonds_hold(lay: _Layout) -> bool:
    """Whether f(S+i) + f(S+j) >= f(S+i+j) + f(S) at every S and i < j: n(n-1)/2 calls of VIOLATES.

    These diamonds are equivalent to ordinary submodularity (Lovász 1983).
    Lane S of ``up[j]`` is f(S ∪ {j}), by the union step of ``_rows``; a
    lane whose S holds i or j has equal sums, so it never hits.
    """
    violates, w, guard, hi = VIOLATES[ConditionId.ORDINARY], lay.w, lay.guard, lay.hi
    up = [(t := lay.packed & h) | t >> (w << j) for j, h in enumerate(hi)]
    fs = Lanes(lay.packed, guard)
    for j in range(lay.n):
        for i in range(j):
            t = up[i] & hi[j]
            if violates(Lanes(up[i], guard), Lanes(up[j], guard), Lanes(t | t >> (w << j), guard), fs):
                return False
    return True


def _live_rows(lay: _Layout, conds: Iterable[ConditionId]) -> dict[ConditionId, str]:
    """Per condition, a character per row X from X = 0 up: "1" if X may hold a violating Y, else "0".

    The layout's vals are the exact integers for Ordinary, and the dense
    ranks 0..p-1 for the ordinal conditions.  For an incomparable Y,
    f(X∩Y) <= below and f(X∪Y) <= above, the maxima of f over X's proper
    subsets and supersets, and f(Y) >= least, the least rank of a subset
    other than X: 0, or 1 on the lone subset of rank 0.  A comparison-only
    predicate of ``VIOLATES`` gains hits as vu and vi grow and as vy falls,
    save where it needs vy == vx.  So X is live if the predicate holds at
    (f(X), least, above, below), or at (f(X), f(X), above, below) when
    another subset takes X's rank.  Ordinary adds values, so its rows are
    all live if a diamond fails, and none otherwise.
    """
    conds = set(conds)
    guard, w, bits = lay.guard, lay.w, {}
    if ConditionId.ORDINARY in conds:
        bits[ConditionId.ORDINARY] = 0 if _diamonds_hold(lay) else guard
    if ordinal := conds - {ConditionId.ORDINARY}:
        ranks, ones = lay.vals, lay.ones
        fx = Lanes(lay.packed + ones, guard)  # f + 1, as in the maxima
        above, below = (Lanes(lay.proper_maxima(down), guard) for down in (False, True))
        counts, least = Counter(ranks), ones  # least + 1: rank 0, save on the lone subset of rank 0
        if counts[0] == 1:
            least += 1 << (w * ranks.index(0))
        least, shared = Lanes(least, guard), None
        for cond in ordinal:
            violates = VIOLATES[cond]
            bits[cond] = violates(fx, least, above, below)
            if same := violates(fx, fx, above, below):
                if shared is None:  # the rows whose rank another subset takes: all, if no rank is lone
                    lane = {r: ("1" if k > 1 else "0") + "0" * (w - 1) for r, k in counts.items()}
                    shared = int("".join(map(lane.__getitem__, reversed(ranks))), 2) if 1 in counts.values() else guard
                bits[cond] |= same & shared
    rows = {b: format(b, f"0{w << lay.n}b")[-w::-w] for b in {bits[cond] for cond in conds}}
    return {cond: rows[bits[cond]] for cond in conds}


class ConditionWitness(Record):
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


def _violates(f: SetFunction, cond: ConditionId, x: int, y: int) -> bool:
    vals = f.values
    return VIOLATES[cond](vals[x], vals[y], vals[x | y], vals[x & y])


def _witness_at(f: SetFunction, cond: ConditionId, x: int, y: int) -> ConditionWitness:
    """The witness of a pair violating cond; a QuasiSubmodular pair is tagged Q2 if it fails Q2, else Q1."""
    if cond is ConditionId.QUASI:
        cond = ConditionId.Q2 if _violates(f, ConditionId.Q2, x, y) else ConditionId.Q1
    return ConditionWitness(cond, x, y, f.value(x), f.value(y), f.value(x | y), f.value(x & y))


def _require_numeric(f: SetFunction, cond: ConditionId) -> None:
    """Ordinary submodularity adds values, which a labels codomain cannot."""
    if cond is ConditionId.ORDINARY and not f.codomain.is_numeric:
        raise ValueError("ordinary submodularity needs a numeric codomain (integer or rational)")


def _scans(f: SetFunction, conds: Sequence[ConditionId]) -> Iterator[tuple[_Layout, dict]]:
    """Each group of conds with a live row: its layout, and per live condition its predicate, live rows and last one.

    The ordinal conditions are one group, over ``f.ranks``, and Ordinary one
    over ``f.exact_ints``, its codomain checked first; Injective is not scanned.
    """
    ordinal = [c for c in conds if c not in (ConditionId.ORDINARY, ConditionId.INJECTIVE)]
    groups = [(f.ranks, ordinal)] if ordinal else []
    if ConditionId.ORDINARY in conds:
        _require_numeric(f, ConditionId.ORDINARY)
        groups.append((f.exact_ints, [ConditionId.ORDINARY]))
    for vals, group in groups:
        lay = _Layout(f.n, vals)
        live = _live_rows(lay, group)
        if todo := {c: (VIOLATES[c], live[c], last) for c in group if (last := live[c].rfind("1")) >= 0}:
            yield lay, todo


def holds_at_pair(f: SetFunction, cond: ConditionId, x: int, y: int) -> bool:
    """Evaluate one condition at the single pair (X, Y); every condition, Injective too, holds at X = Y."""
    f.ground.check_mask(x)
    f.ground.check_mask(y)
    _require_numeric(f, cond)
    return x == y or not _violates(f, cond, x, y)


def _first_witnesses(f: SetFunction, conds: Sequence[ConditionId]) -> dict[ConditionId, ConditionWitness]:
    """The first witness of each failing condition in conds, in the order of conds.

    Each scan of ``_scans`` stops after its last live condition's witness or
    last live row.  Injective's X is the first mask whose rank comes again,
    and its Y the next mask of that rank.
    """
    hits = {}
    for lay, todo in _scans(f, conds):
        end = max(last for *_, last in todo.values())
        for x, lanes in _rows(lay):
            for cond, (violates, rows, _) in tuple(todo.items()):
                if rows[x] == "1" and (bits := violates(*lanes)):  # the lowest hit is lane Y, guard bit (Y + 1)·w - 1
                    hits[cond] = x, (bits & -bits).bit_length() // lay.w - 1
                    del todo[cond]
                    end = max((last for *_, last in todo.values()), default=-1)
            if x >= end:
                break
    if ConditionId.INJECTIVE in conds:
        ranks = f.ranks
        last = {r: m for m, r in enumerate(ranks)}
        x = next((m for m, r in enumerate(ranks) if last[r] != m), None)
        if x is not None:
            hits[ConditionId.INJECTIVE] = x, ranks.index(ranks[x], x + 1)
    return {cond: _witness_at(f, cond, *hits[cond]) for cond in conds if cond in hits}


def check_condition(f: SetFunction, cond: ConditionId) -> ConditionWitness | None:
    """None if the condition holds for all pairs; otherwise the first witness.

    Accepts Q1..Q4, Qh and QuasiSubmodular.  The witness is lexicographically
    minimal by (X, Y).
    """
    if cond in (ConditionId.ORDINARY, ConditionId.INJECTIVE):
        raise ValueError(f"check_condition does not handle {cond}; see is_ordinary_submodular / is_injective")
    return _first_witnesses(f, (cond,)).get(cond)


def iter_witnesses(f: SetFunction, cond: ConditionId) -> Iterator[ConditionWitness]:
    """Every violating pair in lexicographic order (the full-witness-list mode).

    A QuasiSubmodular witness is tagged as by ``check_condition``.
    """
    if cond is ConditionId.INJECTIVE:
        raise ValueError("injectivity also concerns comparable pairs; see injective_witness")
    for lay, todo in _scans(f, (cond,)):
        violates, rows, end = todo[cond]
        for x, lanes in _rows(lay):
            if rows[x] == "1":
                bits = violates(*lanes)
                while bits:  # lane by lane from the lowest, lane Y's guard being bit (Y + 1)·w - 1
                    low = bits & -bits
                    yield _witness_at(f, cond, x, low.bit_length() // lay.w - 1)
                    bits ^= low
            if x == end:
                return


def check_ordinary_submodular(f: SetFunction) -> ConditionWitness | None:
    """None iff f(X) + f(Y) >= f(X∪Y) + f(X∩Y) for all pairs (exact arithmetic).

    Only defined for numeric codomains; labels have no additive structure.
    """
    return _first_witnesses(f, (ConditionId.ORDINARY,)).get(ConditionId.ORDINARY)


def is_ordinary_submodular(f: SetFunction) -> bool:
    return check_ordinary_submodular(f) is None


def injective_witness(f: SetFunction) -> ConditionWitness | None:
    """First pair of distinct subsets sharing a value, in lexicographic order."""
    return _first_witnesses(f, (ConditionId.INJECTIVE,)).get(ConditionId.INJECTIVE)


def is_injective(f: SetFunction) -> bool:
    """Whether f takes 2**n pairwise distinct values (induces a linear order)."""
    return max(f.ranks) == f.size - 1


class ClassReport(Record):
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
        return tuple(self.flags[c] for c in ConditionId if c is not ConditionId.ORDINARY)

    def to_json(self, f: SetFunction, include_witnesses: bool = False) -> dict:
        out: dict = {c.value: self.flags[c] for c in ConditionId}
        if include_witnesses:
            out["witnesses"] = {
                c.value: w.to_json(f) for c, w in self.witnesses.items()
            }
        return out


def classify(f: SetFunction) -> ClassReport:
    """Evaluate every condition on f, Ordinary only on a numeric codomain, with first witnesses for failures."""
    conds = [c for c in ConditionId if c is not ConditionId.ORDINARY or f.codomain.is_numeric]
    witnesses = _first_witnesses(f, conds)
    return ClassReport({c: c not in witnesses if c in conds else None for c in ConditionId}, witnesses)
