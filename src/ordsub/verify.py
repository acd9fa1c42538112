"""Exhaustive verification suites over all small-n set functions.

Each suite scans every weak order (or every linear order) on n elements,
counts the functions satisfying its hypothesis, and checks the claimed
consequence on those.  A healthy library reports zero violations on every
suite; the suites exist so that the structural facts the minimizer
certificates rely on are checked against brute force rather than trusted.

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

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .conditions import (
    VIOLATES,
    ConditionId,
    _q1_violation,
    _q2_violation,
    _q3_violation,
    _q4_violation,
    _qh_violation,
    _quasi_violation,
    incomparable_pair_table,
)
from .generators import ENUMERATION_CAP, injective_rank_vectors, surjective_rank_vectors
from .minimize import raw_is_lower_min, raw_interval_local_min, upper_interval_masks

SUITE_NAMES = ("lemma1", "lemma1a", "theorem1", "theorem2", "duality", "remark2", "remark5", "qh")

Vector = tuple[int, ...]
# A check maps one rank vector to (hypothesis applies, violation description or None).
Check = Callable[[Vector], tuple[bool, str | None]]


@dataclass(frozen=True)
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


def _check_lemma1(n: int) -> Check:
    pairs = incomparable_pair_table(n)

    def check(vec: Vector) -> tuple[bool, str | None]:
        if _q3_violation(vec, pairs) is not None:
            return False, None
        bad = _q4_violation(vec, pairs)
        if bad is None:
            return True, None
        return True, f"Q3 function {list(vec)} fails Q4 at pair (X={bad[0]}, Y={bad[1]})"

    return check


def _global_min(vec: Vector) -> int:
    return min(vec)


def _check_lemma1a(n: int) -> Check:
    pairs = incomparable_pair_table(n)
    size = 1 << n
    uppers = [upper_interval_masks(x, n) for x in range(size)]

    def check(vec: Vector) -> tuple[bool, str | None]:
        if _q1_violation(vec, pairs) is not None:
            return False, None
        gmin = min(vec)
        for x in range(size):
            if raw_is_lower_min(vec, x):
                if min(vec[m] for m in uppers[x]) != gmin:
                    return True, f"Q1 function {list(vec)}: no global minimizer above lower-minimal X={x}"
        return True, None

    return check


def _check_theorem1(n: int) -> Check:
    pairs = incomparable_pair_table(n)
    size = 1 << n

    def check(vec: Vector) -> tuple[bool, str | None]:
        q1 = _q1_violation(vec, pairs) is None
        q2 = _q2_violation(vec, pairs) is None
        if not (q1 or q2):
            return False, None
        gmin = min(vec)
        for x in range(size):
            if vec[x] != gmin and raw_interval_local_min(vec, x, n):
                which = "Q1" if q1 else "Q2"
                return True, f"{which} function {list(vec)}: interval-local X={x} is not global"
        return True, None

    return check


def _check_theorem2(n: int) -> Check:
    pairs = incomparable_pair_table(n)
    size = 1 << n

    def check(vec: Vector) -> tuple[bool, str | None]:
        if _q4_violation(vec, pairs) is not None:
            return False, None
        unique_min = vec.index(min(vec))
        for x in range(size):
            if x != unique_min and raw_interval_local_min(vec, x, n):
                return True, f"injective Q4 function {list(vec)}: interval-local X={x} is not the minimizer"
        return True, None

    return check


def _check_duality(n: int) -> Check:
    pairs = incomparable_pair_table(n)
    full = (1 << n) - 1

    def check(vec: Vector) -> tuple[bool, str | None]:
        dual = tuple(vec[full ^ m] for m in range(full + 1))
        if (_q1_violation(vec, pairs) is None) != (_q2_violation(dual, pairs) is None):
            return True, f"{list(vec)}: Q1 does not match Q2 of the complement dual"
        if (_q3_violation(vec, pairs) is None) != (_q3_violation(dual, pairs) is None):
            return True, f"{list(vec)}: Q3 is not complement-self-dual"
        if (_q4_violation(vec, pairs) is None) != (_q4_violation(dual, pairs) is None):
            return True, f"{list(vec)}: Q4 is not complement-self-dual"
        return True, None

    return check


def _check_remark2(n: int) -> Check:
    pairs = incomparable_pair_table(n)
    q1, q2 = VIOLATES[ConditionId.Q1], VIOLATES[ConditionId.Q2]

    def check(vec: Vector) -> tuple[bool, str | None]:
        pointwise = not any(
            q1(vec[x], vec[y], vec[u], vec[i]) and q2(vec[x], vec[y], vec[u], vec[i])
            for x, y, u, i in pairs
        )
        q3 = _q3_violation(vec, pairs) is None
        if pointwise != q3:
            return True, f"{list(vec)}: pairwise Q1-or-Q2 disagrees with Q3"
        return True, None

    return check


def _check_remark5(n: int) -> Check:
    pairs = incomparable_pair_table(n)
    size = 1 << n

    def check(vec: Vector) -> tuple[bool, str | None]:
        if _quasi_violation(vec, pairs) is not None:
            return False, None
        gmin = min(vec)
        mins = {m for m in range(size) if vec[m] == gmin}
        for a in mins:
            for b in mins:
                if (a | b) not in mins or (a & b) not in mins:
                    return True, f"quasisubmodular {list(vec)}: argmin not closed at ({a}, {b})"
        return True, None

    return check


def _check_qh(n: int) -> Check:
    pairs = incomparable_pair_table(n)

    def check(vec: Vector) -> tuple[bool, str | None]:
        if _quasi_violation(vec, pairs) is not None:
            return False, None
        bad = _qh_violation(vec, pairs)
        if bad is None:
            return True, None
        return True, f"quasisubmodular {list(vec)} fails Qh at pair (X={bad[0]}, Y={bad[1]})"

    return check


_SUITE_CHECKS: dict[str, Callable[[int], Check]] = {
    "lemma1": _check_lemma1,
    "lemma1a": _check_lemma1a,
    "theorem1": _check_theorem1,
    "theorem2": _check_theorem2,
    "duality": _check_duality,
    "remark2": _check_remark2,
    "remark5": _check_remark5,
    "qh": _check_qh,
}


def _scan(vectors: Iterable[Vector], check: Check) -> tuple[int, int, int, str | None]:
    scanned = hyp = viol = 0
    first: str | None = None
    for vec in vectors:
        scanned += 1
        applies, detail = check(vec)
        if applies:
            hyp += 1
        if detail is not None:
            viol += 1
            if first is None:
                first = detail
    return scanned, hyp, viol, first


def suite_vectors(suite: str, n: int) -> Iterator[Vector]:
    if suite == "theorem2":
        return iter(injective_rank_vectors(1 << n))
    return surjective_rank_vectors(1 << n)


def run_suite(suite: str, n: int) -> SuiteResult:
    """Run one named suite exhaustively at the given n (capped at 3)."""
    if suite not in _SUITE_CHECKS:
        raise ValueError(f"unknown suite {suite!r}; expected one of {', '.join(SUITE_NAMES)}")
    if not 1 <= n <= ENUMERATION_CAP:
        raise ValueError(f"suites run at 1 <= n <= {ENUMERATION_CAP}, got {n}")
    check = _SUITE_CHECKS[suite](n)
    scanned, hyp, viol, first = _scan(suite_vectors(suite, n), check)
    return SuiteResult(suite, n, scanned, hyp, viol, first)
