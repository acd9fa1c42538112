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

"Minimal over an interval" is non-strict: f(X) <= f(Z) for every Z in the
interval; ties do not disqualify.  All search is brute force over the dense
table, which is the point at desk scale: these routines double as the oracle
the structural claims are verified against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .conditions import ConditionId, check_condition, is_injective
from .core import IntervalSublattice, OrdinalValue, RawKey, SetFunction

HYPOTHESIS_TAGS = ("Q1", "Q2", "Q4+injective")


class HypothesisError(ValueError):
    """A requested structural hypothesis was checked and does not hold."""


@dataclass(frozen=True)
class ArgminSet:
    """All global minimizers (ascending mask) and the minimum value."""

    minimizers: tuple[int, ...]
    min_value: OrdinalValue

    def to_json(self, f: SetFunction) -> dict:
        return {
            "minimizers": [f.ground.subset_str(m) for m in self.minimizers],
            "min_value": _enc_value(self.min_value),
        }


@dataclass(frozen=True)
class MinimalityCertificate:
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


@dataclass(frozen=True)
class DescentTrace:
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


@dataclass(frozen=True)
class ConstrainedMinimum:
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


# Raw kernels; the interval masks are shared with the exhaustive suites.

def lower_interval_masks(x: int) -> list[int]:
    """Masks of the interval [∅, X], ascending."""
    return list(IntervalSublattice(0, x).members())


def upper_interval_masks(x: int, n: int) -> list[int]:
    """Masks of the interval [X, E], ascending."""
    return list(IntervalSublattice(x, (1 << n) - 1).members())


def raw_is_lower_min(vals: Sequence[RawKey], x: int) -> bool:
    vx = vals[x]
    sub = x
    while True:
        if vals[sub] < vx:
            return False
        if sub == 0:
            return True
        sub = (sub - 1) & x


def raw_is_upper_min(vals: Sequence[RawKey], x: int, n: int) -> bool:
    vx = vals[x]
    free = ((1 << n) - 1) ^ x
    sub = free
    while True:
        if vals[x | sub] < vx:
            return False
        if sub == 0:
            return True
        sub = (sub - 1) & free


def raw_interval_local_min(vals: Sequence[RawKey], x: int, n: int) -> bool:
    return raw_is_lower_min(vals, x) and raw_is_upper_min(vals, x, n)


def raw_min_over(vals: Sequence[RawKey], masks: Sequence[int]) -> tuple[RawKey, int]:
    """(value, mask) minimum over the given masks; ties resolve to the smallest mask."""
    best = min((vals[m], m) for m in masks)
    return best


def argmin(f: SetFunction) -> ArgminSet:
    """Exhaustive global argmin: every minimizer, ascending mask, exact."""
    vals = f.values
    best = min(vals)
    return ArgminSet(tuple(m for m, v in enumerate(vals) if v == best), OrdinalValue(f.codomain, best))


def is_lower_interval_min(f: SetFunction, x: int) -> bool:
    """True iff f(X) <= f(Z) for every Z ⊆ X."""
    f.ground.check_mask(x)
    return raw_is_lower_min(f.values, x)


def is_interval_local_min(f: SetFunction, x: int) -> bool:
    """True iff f(X) <= f(Z) for every Z in [∅, X] ∪ [X, E]."""
    f.ground.check_mask(x)
    return raw_interval_local_min(f.values, x, f.n)


def lift_to_global(f: SetFunction, x: int, verify: bool = False) -> int:
    """From a minimizer of [∅, X], the smallest-mask minimizer of [X, E].

    Under Q1 the returned subset is a global minimizer: some global minimizer
    Z* has f(Z* ∪ X) <= f(Z*) once f(X) <= f(Z* ∩ X), and the minimum over
    [X, E] can only improve on f(Z* ∪ X).  With ``verify`` set, Q1 is checked
    on f and a failure raises ``HypothesisError``.
    """
    f.ground.check_mask(x)
    if not raw_is_lower_min(f.values, x):
        raise ValueError(f"{f.ground.subset_str(x)!r} is not a minimizer of the lower interval")
    if verify:
        w = check_condition(f, ConditionId.Q1)
        if w is not None:
            raise HypothesisError(f"function does not satisfy Q1; first witness at {w.to_json(f)}")
    _, mask = raw_min_over(f.values, upper_interval_masks(x, f.n))
    return mask


def certify_global_min(
    f: SetFunction,
    x: int,
    assume: str | None = None,
) -> MinimalityCertificate:
    """Check interval-local minimality at X and the strongest applicable hypothesis.

    Hypotheses are tried in order Q1, Q2, Q4+injective; the certificate is
    global only when X is interval-locally minimal and one of them holds.
    Passing ``assume`` (one of those tags) skips verification: the hypothesis
    is recorded as asserted and the certificate marked unverified.
    """
    f.ground.check_mask(x)
    if assume is not None and assume not in HYPOTHESIS_TAGS:
        raise ValueError(f"unknown hypothesis {assume!r}; expected one of {HYPOTHESIS_TAGS}")
    lower = 1 << bin(x).count("1")
    upper = 1 << (f.n - bin(x).count("1"))
    local = raw_interval_local_min(f.values, x, f.n)
    if not local:
        return MinimalityCertificate(
            x, lower, upper, None, False, assume is None,
            "not minimal over its lower/upper intervals",
        )
    if assume is not None:
        return MinimalityCertificate(
            x, lower, upper, assume, True, False, "hypothesis asserted, unverified"
        )
    hypothesis = None
    if check_condition(f, ConditionId.Q1) is None:
        hypothesis = "Q1"
    elif check_condition(f, ConditionId.Q2) is None:
        hypothesis = "Q2"
    elif check_condition(f, ConditionId.Q4) is None and is_injective(f):
        hypothesis = "Q4+injective"
    if hypothesis is None:
        return MinimalityCertificate(
            x, lower, upper, None, False, True,
            "interval-locally minimal, but no structural hypothesis holds (Q1, Q2, Q4+injective)",
        )
    return MinimalityCertificate(
        x, lower, upper, hypothesis, True, True,
        f"interval-local minimum is global under {hypothesis}",
    )


def interval_descent(f: SetFunction, start: int) -> DescentTrace:
    """Iterated interval improvement from ``start``.

    Each step minimizes f over [∅, X] ∪ [X, E]; if the current point attains
    that minimum the walk stops, otherwise it moves to the smallest-mask
    minimizer.  Values strictly decrease, so the walk terminates, at a point
    that is interval-locally minimal by construction.  The attached
    certificate reports whether a verified hypothesis makes it global.
    """
    f.ground.check_mask(start)
    vals = f.values
    x = start
    steps = [(x, f.value(x))]
    while True:
        masks = lower_interval_masks(x) + upper_interval_masks(x, f.n)
        best_v, best_m = raw_min_over(vals, masks)
        if not best_v < vals[x]:
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
    mu = f.distinct_keys()
    p = len(mu)
    if not 1 <= k <= p - 1:
        raise ValueError(f"k must be in [1, {p - 1}] for {p} distinct constraint values, got {k}")
    threshold = mu[k - 1]
    feasible = [m for m in range(f.size) if f.values[m] > threshold]
    best, _ = raw_min_over(phi.values, feasible)
    minimizers = tuple(m for m in feasible if phi.values[m] == best)
    return ConstrainedMinimum(
        ArgminSet(minimizers, OrdinalValue(phi.codomain, best)),
        len(feasible),
        k,
        OrdinalValue(f.codomain, threshold),
    )
