"""Level values, nested level-set families, and chain-to-function construction.

For f with distinct values mu_1 < ... < mu_p, the i-th level family is
F_i = {X : f(X) <= mu_i}, which is {X : ranks[X] < i} in the dense ranks
``SetFunction.ranks``.  These nest strictly:

    ∅ = F_0 ⊂ F_1 ⊂ ... ⊂ F_p = 2^E

Conversely, a strictly nested chain of families induces an integer-valued
function (value i on F_i \\ F_{i-1}).  The induced function is accepted only
if it satisfies the equal-value condition Qh; chains failing that are
rejected rather than repaired.
"""

from __future__ import annotations

from .conditions import ConditionId, ConditionWitness, check_condition
from .core import INTEGERS, GroundSet, OrdinalValue, SetFunction, record


class ChainError(ValueError):
    """A family chain violates nesting or does not induce a Qh function."""


@record
class LevelValues:
    """The distinct values of f, strictly increasing."""

    mu: tuple[OrdinalValue, ...]

    @property
    def p(self) -> int:
        return len(self.mu)


@record
class LevelChain:
    """Families F_0, ..., F_p as sorted mask tuples; F_0 is empty."""

    families: tuple[tuple[int, ...], ...]

    @property
    def p(self) -> int:
        return len(self.families) - 1


def levels(f: SetFunction) -> LevelValues:
    return LevelValues(tuple(OrdinalValue(f.codomain, k) for k in f.distinct_keys()))


def _family(ranks: tuple[int, ...], i: int) -> tuple[int, ...]:
    """F_i = {X : ranks[X] < i}, ascending."""
    return tuple(m for m in range(len(ranks)) if ranks[m] < i)


def level_family(f: SetFunction, i: int) -> tuple[int, ...]:
    """Masks with f(X) <= mu_i, ascending; i = 0 gives the empty family."""
    if not isinstance(i, int) or isinstance(i, bool):
        raise TypeError(f"level index must be an int, got {type(i).__name__}")
    p = max(f.ranks) + 1
    if not 0 <= i <= p:
        raise ValueError(f"level index must be in [0, {p}], got {i}")
    return _family(f.ranks, i)


def family_chain(f: SetFunction) -> LevelChain:
    """The full chain F_0 ⊂ F_1 ⊂ ... ⊂ F_p; strict nesting holds because every rank is attained.

    The masks are bucketed by rank, and F_i is F_{i-1} merged with bucket
    i - 1, both ascending, so no rank is compared p times.
    """
    buckets: list[list[int]] = [[] for _ in range(max(f.ranks) + 1)]
    for m, r in enumerate(f.ranks):
        buckets[r].append(m)
    families = [()]
    for bucket in buckets:
        families.append(tuple(sorted(families[-1] + tuple(bucket))))
    return LevelChain(tuple(families))


def check_qh(f: SetFunction) -> ConditionWitness | None:
    """The first witness of the equal-value condition Qh; None means it holds."""
    return check_condition(f, ConditionId.QH)


def qh_from_chain(ground: GroundSet, chain: LevelChain) -> SetFunction:
    """Build the integer function taking value i on F_i \\ F_{i-1}.

    The chain must start empty, end with the full power set, and nest
    strictly.  The induced function is validated with :func:`check_qh`; a
    chain whose induced function fails is rejected with :class:`ChainError`,
    since only chains arising from genuinely hierarchical level structures
    are guaranteed to induce one.  On acceptance, ``family_chain`` of the
    result reproduces the input chain.
    """
    sets = [set(fam) for fam in chain.families]
    fams = [tuple(sorted(fam)) for fam in sets]
    if not fams or fams[0] != ():
        raise ChainError("chain must start with the empty family")
    if fams[-1] != tuple(range(ground.size)):
        raise ChainError("chain must end with the full power set")
    values = [0] * ground.size
    for i, fam in enumerate(fams):
        for m in fam:
            ground.check_mask(m)
        if i > 0:
            if not sets[i - 1] < sets[i]:
                raise ChainError(f"families must nest strictly; level {i} does not extend level {i - 1}")
            for m in sets[i] - sets[i - 1]:
                values[m] = i
    f = SetFunction(ground, INTEGERS, tuple(values))
    w = check_qh(f)
    if w is not None:
        raise ChainError(
            "chain does not induce a function satisfying the equal-value condition; "
            f"first witness at X={ground.subset_str(w.x)!r}, Y={ground.subset_str(w.y)!r}"
        )
    return f
