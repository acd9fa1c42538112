"""Exhaustive verification suites over all small-n set functions.

Each suite scans every weak order (or every linear order) on n elements,
counts the functions satisfying its hypothesis, and checks the claimed
consequence on those.  A healthy library reports zero violations on every
suite; the suites exist so that the structural facts the minimizer
certificates rely on are checked against brute force rather than trusted.

The functions are checked a chunk at a time (``conditions.lane_chunks``),
fed as columns: the weak orders by ``generators.weak_order_columns`` and
theorem2's permutations by ``generators.linear_order_columns``.  Each
hypothesis and each check of a consequence is a bitset of the chunk's
functions, built from ``conditions.VIOLATES`` and ``minimize.minimal_over``,
so no condition is spelled out here a second time.  The first violation reported is that of
the first violating function in enumeration order, at its first failing
check in the suite's order.

Suites (names are the CLI tokens):

  lemma1    every function satisfying Q3 satisfies Q4
  lemma1a   Q1 functions: a minimizer of [∅, X] puts a global minimizer in [X, E]
  theorem1  Q1 (and, dually, Q2) functions: interval-local minima attain the minimum
  theorem2  injective Q4 functions: interval-local minima are THE unique minimizer
  duality   Q1(f) == Q2(complement dual), Q3 and Q4 are complement-self-dual
  remark2   [every pair satisfies Q1 or Q2] agrees with [Q3 holds] on every function
  remark5   quasisubmodular functions: the argmin set is a sublattice
  qh        quasisubmodular functions satisfy the equal-value condition Qh
"""

from __future__ import annotations

from typing import Callable

from .conditions import ConditionId, LaneChunk, lane_chunks
from .core import IntervalSublattice, record
from .generators import _check_cap, linear_order_columns, weak_order_columns
from .minimize import minimal_over

Q1, Q2, Q3, Q4, QH, QUASI = (ConditionId.Q1, ConditionId.Q2, ConditionId.Q3, ConditionId.Q4,
                             ConditionId.QH, ConditionId.QUASI)

# What a suite makes of a chunk: the functions satisfying its hypothesis, and
# its checks of the consequence as (functions failing the check, description
# with {} for the function), in the order the first failing check of a
# function is reported.
Outcome = tuple[int, list[tuple[int, str]]]


@record
class SuiteResult:
    suite: str
    n: int
    scanned: int
    hypothesis_count: int
    violations: int
    first_violation: str | None

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "n": self.n,
            "scanned": self.scanned,
            "hypothesis_count": self.hypothesis_count,
            "violations": self.violations,
            "first_violation": self.first_violation,
            "ok": self.ok,
        }


def _global_minima(c: LaneChunk) -> list[int]:
    """Per subset X: the functions that attain their minimum at X."""
    top = len(c.cols) - 1
    return [minimal_over(c.cols, x, 0, top, c.full) for x in range(top + 1)]


def _local_not_global(c: LaneChunk) -> list[int]:
    """Per subset X: the functions minimal over [∅, X] ∪ [X, E] but not at X globally."""
    top = len(c.cols) - 1
    return [
        minimal_over(c.cols, x, 0, x, c.full) & minimal_over(c.cols, x, x, top, c.full) & ~g
        for x, g in enumerate(_global_minima(c))
    ]


def _lemma1(c: LaneChunk) -> Outcome:
    fails = [(bits, f"Q3 function {{}} fails Q4 at pair (X={p[0]}, Y={p[1]})")
             for bits, p in zip(c.hits(Q4), c.pairs)]
    return c.holds(Q3), fails


def _lemma1a(c: LaneChunk) -> Outcome:
    gmin = _global_minima(c)
    top = len(gmin) - 1
    fails = []
    for x in range(top + 1):
        above = 0
        for z in IntervalSublattice(x, top).members():
            above |= gmin[z]
        fails.append((minimal_over(c.cols, x, 0, x, c.full) & ~above,
                      f"Q1 function {{}}: no global minimizer above lower-minimal X={x}"))
    return c.holds(Q1), fails


def _theorem1(c: LaneChunk) -> Outcome:
    q1, q2 = c.holds(Q1), c.holds(Q2)
    sides = (("Q1", q1), ("Q2", c.full ^ q1))  # name Q1 when it holds, else Q2
    fails = [(bad & side, f"{name} function {{}}: interval-local X={x} is not global")
             for x, bad in enumerate(_local_not_global(c)) for name, side in sides]
    return q1 | q2, fails


def _theorem2(c: LaneChunk) -> Outcome:
    # an injective function has one global minimizer, so "not THE minimizer" is "not global"
    fails = [(bad, f"injective Q4 function {{}}: interval-local X={x} is not the minimizer")
             for x, bad in enumerate(_local_not_global(c))]
    return c.holds(Q4), fails


def _duality(c: LaneChunk) -> Outcome:
    d = c.dual()
    return c.full, [
        (c.holds(Q1) ^ d.holds(Q2), "{}: Q1 does not match Q2 of the complement dual"),
        (c.holds(Q3) ^ d.holds(Q3), "{}: Q3 is not complement-self-dual"),
        (c.holds(Q4) ^ d.holds(Q4), "{}: Q4 is not complement-self-dual"),
    ]


def _remark2(c: LaneChunk) -> Outcome:
    both = 0  # the functions failing Q1 and Q2 at one pair
    for q1, q2 in zip(c.hits(Q1), c.hits(Q2)):
        both |= q1 & q2
    return c.full, [(c.full ^ both ^ c.holds(Q3), "{}: pairwise Q1-or-Q2 disagrees with Q3")]


def _remark5(c: LaneChunk) -> Outcome:
    # a comparable pair is closed trivially, so the incomparable ones decide
    g = _global_minima(c)
    fails = [(g[x] & g[y] & ~(g[u] & g[i]), f"quasisubmodular {{}}: argmin not closed at ({x}, {y})")
             for x, y, u, i in c.pairs]
    return c.holds(QUASI), fails


def _qh(c: LaneChunk) -> Outcome:
    fails = [(bits, f"quasisubmodular {{}} fails Qh at pair (X={p[0]}, Y={p[1]})")
             for bits, p in zip(c.hits(QH), c.pairs)]
    return c.holds(QUASI), fails


_SUITES: dict[str, Callable[[LaneChunk], Outcome]] = {
    "lemma1": _lemma1,
    "lemma1a": _lemma1a,
    "theorem1": _theorem1,
    "theorem2": _theorem2,
    "duality": _duality,
    "remark2": _remark2,
    "remark5": _remark5,
    "qh": _qh,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(suite: str, n: int) -> SuiteResult:
    """Run one named suite exhaustively at the given n (capped at 3)."""
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {', '.join(SUITE_NAMES)}")
    _check_cap(n)
    scanned = hyp_count = violations = 0
    first: str | None = None
    enumerator = linear_order_columns if suite == "theorem2" else weak_order_columns
    for c in lane_chunks(enumerator(1 << n), n):
        hyp, fails = _SUITES[suite](c)
        bad = 0
        for bits, _ in fails:
            bad |= bits
        bad &= hyp
        scanned += c.count
        hyp_count += hyp.bit_count()
        violations += bad.bit_count()
        if bad and first is None:
            lane = bad & -bad
            first = next(text for bits, text in fails if bits & lane).format(list(c.vector(lane)))
    return SuiteResult(suite, n, scanned, hyp_count, violations, first)
