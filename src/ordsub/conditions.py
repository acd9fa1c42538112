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
with comparisons, ``&`` and ``|`` only.  On Python values it decides one pair
(``holds_at_pair``, ``ConditionWitness.reproduces``); on numpy arrays it
decides a block of pairs.  Vacuous hypotheses count as satisfied.

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

The raw-vector scanners below (``condition_violation``, ``raw_flag``) serve
the exhaustive suites and witness search at n <= ENUMERATION_CAP, where a
Python loop over a short pair list costs less than a numpy call.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Mapping, Sequence

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

    Only for the raw-vector scanners, so only up to ENUMERATION_CAP.
    """
    if not 0 <= n <= ENUMERATION_CAP:
        raise ValueError(f"raw pair lists are capped at n <= {ENUMERATION_CAP}, got {n}")
    size = 1 << n
    return tuple(
        (x, y, x | y, x & y) for x in range(size) for y in range(size) if x & y not in (x, y)
    )


# Violation scanners over raw value tables, for n <= ENUMERATION_CAP.  Each
# returns the first failing pair (X, Y, X|Y, X&Y) in the given pair sequence,
# or None.  Kept as separate tight loops; these run hundreds of thousands of
# times in the exhaustive suites.

def _q1_violation(vals: Sequence[RawKey], pairs: Sequence[Pair]) -> Pair | None:
    for p in pairs:
        if vals[p[0]] <= vals[p[3]] and vals[p[2]] > vals[p[1]]:
            return p
    return None


def _q2_violation(vals: Sequence[RawKey], pairs: Sequence[Pair]) -> Pair | None:
    for p in pairs:
        if vals[p[0]] < vals[p[3]] and vals[p[2]] >= vals[p[1]]:
            return p
    return None


def _q3_violation(vals: Sequence[RawKey], pairs: Sequence[Pair]) -> Pair | None:
    for p in pairs:
        if vals[p[0]] < vals[p[3]] and vals[p[2]] > vals[p[1]]:
            return p
    return None


def _q4_violation(vals: Sequence[RawKey], pairs: Sequence[Pair]) -> Pair | None:
    for x, y, u, i in pairs:
        vx, vy = vals[x], vals[y]
        hi = vx if vx >= vy else vy
        if vals[u] > hi and vals[i] > hi:
            return (x, y, u, i)
    return None


def _qh_violation(vals: Sequence[RawKey], pairs: Sequence[Pair]) -> Pair | None:
    for x, y, u, i in pairs:
        vx = vals[x]
        if vx == vals[y]:
            vu, vi = vals[u], vals[i]
            if vu >= vx and vi >= vx and not (vu == vx and vi == vx):
                return (x, y, u, i)
    return None


def _ordinary_violation(vals: Sequence[RawKey], pairs: Sequence[Pair]) -> Pair | None:
    for x, y, u, i in pairs:
        if vals[x] + vals[y] < vals[u] + vals[i]:
            return (x, y, u, i)
    return None


_VIOLATION_SCANNERS: dict[ConditionId, Callable[[Sequence[RawKey], Sequence[Pair]], Pair | None]] = {
    ConditionId.Q1: _q1_violation,
    ConditionId.Q2: _q2_violation,
    ConditionId.Q3: _q3_violation,
    ConditionId.Q4: _q4_violation,
    ConditionId.QH: _qh_violation,
    ConditionId.ORDINARY: _ordinary_violation,
}


def _quasi_violation(vals: Sequence[RawKey], pairs: Sequence[Pair]) -> tuple[Pair, ConditionId] | None:
    """First pair failing Q1 or Q2, tagged with which of the two failed."""
    for x, y, u, i in pairs:
        vx, vi = vals[x], vals[i]
        if vx < vi:
            if vals[u] >= vals[y]:
                return (x, y, u, i), ConditionId.Q2
        elif vx == vi:
            if vals[u] > vals[y]:
                return (x, y, u, i), ConditionId.Q1
    return None


def condition_violation(cond: ConditionId, vals: Sequence[RawKey], n: int) -> tuple[Pair, ConditionId] | None:
    """First violating pair for a raw value table, or None.

    Returns the pair together with the condition actually violated (only
    relevant for QuasiSubmodular, which reports Q1 or Q2).
    """
    pairs = incomparable_pair_table(n)
    if cond is ConditionId.QUASI:
        return _quasi_violation(vals, pairs)
    hit = _VIOLATION_SCANNERS[cond](vals, pairs)
    return None if hit is None else (hit, cond)


def raw_flag(cond: ConditionId, vals: Sequence[RawKey], n: int) -> bool:
    """Does a raw value table satisfy the condition everywhere?"""
    if cond is ConditionId.INJECTIVE:
        return len(set(vals)) == len(vals)
    return condition_violation(cond, vals, n) is None


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


def holds_at_pair(f: SetFunction, cond: ConditionId, x: int, y: int) -> bool:
    """Evaluate one condition at the single pair (X, Y)."""
    f.ground.check_mask(x)
    f.ground.check_mask(y)
    return not _violates(f, cond, x, y)


def _first_witnesses(f: SetFunction, conds: Sequence[ConditionId]) -> dict[ConditionId, ConditionWitness]:
    """The first witness of each failing condition in conds, in the order of conds.

    The ordinal conditions share one kernel pass over the ranks.  A
    QuasiSubmodular witness is tagged Q2 when its pair fails Q2, else Q1.
    """
    from . import kernel

    ordinal = {c: VIOLATES[c] for c in conds if c is not ConditionId.ORDINARY}
    hits = kernel.first_violations(f.n, kernel.dense_ranks(f.values), ordinal) if ordinal else {}
    if ConditionId.ORDINARY in conds:
        ordinary = {ConditionId.ORDINARY: VIOLATES[ConditionId.ORDINARY]}
        hits.update(kernel.first_violations(f.n, kernel.exact_ints(f.values), ordinary))
    out = {}
    for cond in conds:
        if cond in hits:
            x, y = hits[cond]
            tag = cond
            if cond is ConditionId.QUASI:
                tag = ConditionId.Q2 if _violates(f, ConditionId.Q2, x, y) else ConditionId.Q1
            out[cond] = _make_witness(f, tag, (x, y, x | y, x & y))
    return out


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

    Here a QuasiSubmodular witness is tagged Q1 when its pair fails Q1, else Q2.
    """
    from . import kernel

    if cond is ConditionId.INJECTIVE:
        raise ValueError("injectivity also concerns comparable pairs; see injective_witness")
    vals = kernel.exact_ints(f.values) if cond is ConditionId.ORDINARY else kernel.dense_ranks(f.values)
    for x, y in kernel.all_violations(f.n, vals, VIOLATES[cond]):
        tag = cond
        if cond is ConditionId.QUASI:
            tag = ConditionId.Q1 if _violates(f, ConditionId.Q1, x, y) else ConditionId.Q2
        yield _make_witness(f, tag, (x, y, x | y, x & y))


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


def pairwise_q3_equivalence(f: SetFunction) -> bool:
    """Diagnostic: [every pair satisfies Q1 or Q2] ⟺ [Q3 holds everywhere].

    The two predicates are equivalent for every set function; this evaluates
    both sides independently, in one kernel pass, and reports whether they agree.
    """
    from . import kernel

    q1, q2 = VIOLATES[ConditionId.Q1], VIOLATES[ConditionId.Q2]
    sides = {"Q1 and Q2": lambda *v: q1(*v) & q2(*v), "Q3": VIOLATES[ConditionId.Q3]}
    hits = kernel.first_violations(f.n, kernel.dense_ranks(f.values), sides)
    return ("Q1 and Q2" in hits) == ("Q3" in hits)
