"""Minimizer enumeration, interval-local minimality, and global certificates.

The local-to-global facts this module operationalizes, for f on the subsets
of E:

  * If f satisfies Q1 and X is minimal over [∅, X], then some global
    minimizer lies in [X, E]; hence any point minimal over [∅, X] ∪ [X, E]
    is globally minimal.
  * The mirror statement holds under Q2 (swap the roles of union and
    intersection, i.e. pass to the complement dual).
  * If f satisfies Q4 and is injective, a point minimal over
    [∅, X] ∪ [X, E] is the unique global minimizer.

``HYPOTHESES`` is the one table of these three hypotheses and their
conditions, in the order ``certify_global_min`` tries them; the tags and the
certificate's reason text come from it.

"Minimal over an interval" is non-strict: f(X) <= f(Z) for every Z in the
interval; ties do not disqualify.  All search is brute force over the dense
table, which is the point at desk scale: these routines double as the oracle
the structural claims are verified against.  Every comparison reads ``f.ranks``.
"""

from __future__ import annotations

from typing import Sequence

from .conditions import ConditionId, _first_witnesses, check_condition
from .core import IntervalSublattice, OrdinalValue, Record, SetFunction

# Each entry's conditions are checked in order: Injective before Q4, so that a
# function that is not injective skips the Q4 scan.
HYPOTHESES = {
    "Q1": (ConditionId.Q1,),
    "Q2": (ConditionId.Q2,),
    "Q4+injective": (ConditionId.INJECTIVE, ConditionId.Q4),
}


class HypothesisError(ValueError):
    """A requested structural hypothesis was checked and does not hold."""


class ArgminSet(Record):
    """All global minimizers (ascending mask) and the minimum value."""

    minimizers: tuple[int, ...]
    min_value: OrdinalValue

    def to_json(self, f: SetFunction) -> dict:
        return {
            "minimizers": [f.ground.subset_str(m) for m in self.minimizers],
            "min_value": _enc_value(self.min_value),
        }


class MinimalityCertificate(Record):
    """Record that ``point`` is minimal over [∅, point] ∪ [point, E].

    ``hypothesis`` names the structural condition under which interval-local
    minimality implies global minimality ("Q1", "Q2" or "Q4+injective");
    ``is_global`` is True only when interval-local minimality holds and a
    hypothesis applies.  ``verified`` records whether the hypothesis was
    actually checked on f or merely asserted by the caller.
    """

    point: int
    lower_checked: int
    upper_checked: int
    hypothesis: str | None
    is_global: bool
    verified: bool
    reason: str

    def to_json(self, f: SetFunction) -> dict:
        return {
            "point": list(f.ground.names_of(self.point)),
            "value": _enc_value(f.value(self.point)),
            "lower_checked": self.lower_checked,
            "upper_checked": self.upper_checked,
            "hypothesis": self.hypothesis,
            "global": self.is_global,
            "verified": self.verified,
            "reason": self.reason,
        }


class DescentTrace(Record):
    """Points visited by interval descent; values strictly decrease."""

    steps: tuple[tuple[int, OrdinalValue], ...]
    certificate: MinimalityCertificate

    @property
    def terminal(self) -> int:
        return self.steps[-1][0]

    def to_json(self, f: SetFunction) -> dict:
        return {
            "trace": [
                {"subset": f.ground.subset_str(m), "value": _enc_value(v)} for m, v in self.steps
            ],
            "moves": len(self.steps) - 1,
            "certificate": self.certificate.to_json(f),
        }


class ConstrainedMinimum(Record):
    """Exact minimum of an objective over {X : f(X) > k-th distinct value of f}."""

    argmin: ArgminSet
    feasible_count: int
    k: int
    threshold: OrdinalValue

    def to_json(self, phi: SetFunction) -> dict:
        out = self.argmin.to_json(phi)
        out.update(
            {
                "feasible_count": self.feasible_count,
                "k": self.k,
                "threshold": _enc_value(self.threshold),
            }
        )
        return out


def _enc_value(v: OrdinalValue) -> object:
    return v.codomain.json_encode(v.key)


def minimal_over(vals: Sequence, x: int, lo: int, hi: int, true: int = True) -> int:
    """f(X) <= f(Z) for every Z in the interval [lo, hi].

    On one function's ranks the result is a bool.  On the columns of a
    ``LaneChunk``, with ``true`` its ``full``, it is the bitset of the
    chunk's functions minimal there at X.
    """
    out, vx = true, vals[x]
    for z in IntervalSublattice(lo, hi).members():
        out &= vx <= vals[z]
        if not out:
            break
    return out


def _min_over(ranks: Sequence[int], *boxes: IntervalSublattice) -> tuple[int, int]:
    """(rank, mask) minimum over the intervals; ties resolve to the smallest mask."""
    return min((ranks[m], m) for box in boxes for m in box.members())


def argmin(f: SetFunction) -> ArgminSet:
    """Exhaustive global argmin: every minimizer (rank 0), ascending mask, exact."""
    minimizers = tuple(m for m, r in enumerate(f.ranks) if not r)
    return ArgminSet(minimizers, f.value(minimizers[0]))


def is_lower_interval_min(f: SetFunction, x: int) -> bool:
    """True iff f(X) <= f(Z) for every Z ⊆ X."""
    f.ground.check_mask(x)
    return minimal_over(f.ranks, x, 0, x)


def is_interval_local_min(f: SetFunction, x: int) -> bool:
    """True iff f(X) <= f(Z) for every Z in [∅, X] ∪ [X, E]."""
    f.ground.check_mask(x)
    return minimal_over(f.ranks, x, 0, x) and minimal_over(f.ranks, x, x, f.ground.full_mask)


def lift_to_global(f: SetFunction, x: int, verify: bool = False) -> int:
    """From a minimizer of [∅, X], the smallest-mask minimizer of [X, E].

    Under Q1 the returned subset is a global minimizer: some global minimizer
    Z* has f(Z* ∪ X) <= f(Z*) once f(X) <= f(Z* ∩ X), and the minimum over
    [X, E] can only improve on f(Z* ∪ X).  With ``verify`` set, Q1 is checked
    on f and a failure raises ``HypothesisError``.
    """
    if not is_lower_interval_min(f, x):
        raise ValueError(f"{f.ground.subset_str(x)!r} is not a minimizer of the lower interval")
    if verify:
        w = check_condition(f, ConditionId.Q1)
        if w is not None:
            raise HypothesisError(f"function does not satisfy Q1; first witness at {w.to_json(f)}")
    return _min_over(f.ranks, IntervalSublattice(x, f.ground.full_mask))[1]


def certify_global_min(
    f: SetFunction,
    x: int,
    assume: str | None = None,
) -> MinimalityCertificate:
    """Check interval-local minimality at X and the strongest applicable hypothesis.

    Hypotheses are tried in the order of ``HYPOTHESES``; the certificate is
    global only when X is interval-locally minimal and one of them holds.
    Passing ``assume`` (one of those tags) skips verification: the hypothesis
    is recorded as asserted and the certificate marked unverified.
    """
    f.ground.check_mask(x)
    if assume is not None and assume not in HYPOTHESES:
        raise ValueError(f"unknown hypothesis {assume!r}; expected one of {tuple(HYPOTHESES)}")
    hypothesis = None
    if not is_interval_local_min(f, x):
        reason = "not minimal over its lower/upper intervals"
    elif assume is not None:
        hypothesis, reason = assume, "hypothesis asserted, unverified"
    else:
        hypothesis = next(
            (tag for tag, conds in HYPOTHESES.items() if all(not _first_witnesses(f, (c,)) for c in conds)), None
        )
        reason = (
            f"interval-local minimum is global under {hypothesis}" if hypothesis else
            f"interval-locally minimal, but no structural hypothesis holds ({', '.join(HYPOTHESES)})"
        )
    k = bin(x).count("1")
    return MinimalityCertificate(x, 1 << k, 1 << (f.n - k), hypothesis, hypothesis is not None, assume is None, reason)


def interval_descent(f: SetFunction, start: int) -> DescentTrace:
    """Iterated interval improvement from ``start``.

    Each step minimizes f over [∅, X] ∪ [X, E]; if the current point attains
    that minimum the walk stops, otherwise it moves to the smallest-mask
    minimizer.  Values strictly decrease, so the walk terminates, at a point
    that is interval-locally minimal by construction.  The attached
    certificate reports whether a verified hypothesis makes it global.
    """
    f.ground.check_mask(start)
    ranks, full = f.ranks, f.ground.full_mask
    x = start
    steps = [(x, f.value(x))]
    while True:
        best_r, best_m = _min_over(ranks, IntervalSublattice(0, x), IntervalSublattice(x, full))
        if not best_r < ranks[x]:
            break
        x = best_m
        steps.append((x, f.value(x)))
    return DescentTrace(tuple(steps), certify_global_min(f, x))


def argmin_lattice_closure(f: SetFunction) -> bool:
    """Is the set of global minimizers closed under union and intersection?

    Always true for quasisubmodular f: a union escaping the argmin would force
    f(X∩Y) < f(X) through Q1, and an intersection escaping it contradicts Q2.
    """
    mins = set(argmin(f).minimizers)
    for a in mins:
        for b in mins:
            if (a | b) not in mins or (a & b) not in mins:
                return False
    return True


def constrained_minimize(phi: SetFunction, f: SetFunction, k: int) -> ConstrainedMinimum:
    """Minimize phi(X) over {X : f(X) > mu_k}, mu_k the k-th distinct value of f.

    Exact brute force over the feasible region, which is nonempty exactly when
    1 <= k <= p - 1 for p distinct values of f.  phi must be numeric-valued
    and share f's ground set.
    """
    if phi.ground.elements != f.ground.elements:
        raise ValueError("objective and constraint functions must share a ground set")
    if not phi.codomain.is_numeric:
        raise ValueError("objective must have a numeric codomain")
    if not isinstance(k, int) or isinstance(k, bool):
        raise TypeError(f"k must be an int, got {type(k).__name__}")
    ranks = f.ranks
    p = max(ranks) + 1
    if not 1 <= k <= p - 1:
        raise ValueError(f"k must be in [1, {p - 1}] for {p} distinct constraint values, got {k}")
    # mu_k has rank k - 1, so the feasible X are those of rank k or more
    feasible = [m for m, r in enumerate(ranks) if r >= k]
    objective = phi.ranks
    best = min(objective[m] for m in feasible)
    minimizers = tuple(m for m in feasible if objective[m] == best)
    return ConstrainedMinimum(
        ArgminSet(minimizers, phi.value(minimizers[0])), len(feasible), k, f.value(ranks.index(k - 1))
    )
