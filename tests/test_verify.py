from itertools import permutations

import pytest

from ordsub import (
    SUITE_NAMES,
    ConditionId,
    check_condition,
    enumerate_weak_orders,
    is_interval_local_min,
    is_lower_interval_min,
    run_suite,
)
from ordsub.conditions import VIOLATES
from ordsub.generators import surjective_rank_vectors

from conftest import intfn

Q1, Q2, Q3, Q4, QH, QUASI = (ConditionId.Q1, ConditionId.Q2, ConditionId.Q3, ConditionId.Q4,
                             ConditionId.QH, ConditionId.QUASI)


class TestRunSuite:
    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("lemma9", 2)

    def test_n_cap(self):
        with pytest.raises(ValueError):
            run_suite("lemma1", 4)
        with pytest.raises(ValueError):
            run_suite("lemma1", 0)

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    @pytest.mark.parametrize("n", [1, 2])
    def test_zero_violations_small(self, suite, n):
        r = run_suite(suite, n)
        assert r.violations == 0 and r.ok
        expected_scanned = {1: 2, 2: 24}[n] if suite == "theorem2" else {1: 3, 2: 75}[n]
        assert r.scanned == expected_scanned
        assert r.first_violation is None

    def test_hypothesis_count_cross_check(self):
        # lemma1 counts Q3 functions; recount them independently through classify
        r = run_suite("lemma1", 2)
        q3 = sum(
            1 for f in enumerate_weak_orders(2) if check_condition(f, ConditionId.Q3) is None
        )
        assert r.hypothesis_count == q3

    def test_remark2_applies_to_all(self):
        r = run_suite("remark2", 2)
        assert r.hypothesis_count == r.scanned == 75

    def test_json_shape(self):
        out = run_suite("qh", 1).to_json()
        assert out == {
            "suite": "qh",
            "n": 1,
            "scanned": 3,
            "hypothesis_count": out["hypothesis_count"],
            "violations": 0,
            "first_violation": None,
            "ok": True,
        }

    @pytest.mark.parametrize("suite", ["qh", "remark5"])
    def test_full_scale_n3(self, suite):
        # the acceptance module exercises the other six suites at n=3
        r = run_suite(suite, 3)
        assert r.scanned == 545_835 and r.violations == 0


def plain_suite(suite, n):
    """(hypothesis count, violations, first violation) of a suite, one function at a time."""
    size = 1 << n
    pairs = [(x, y, x | y, x & y) for x in range(size) for y in range(size) if x & y not in (x, y)]

    def first_pair(cond, vec):
        return next(((x, y) for x, y, u, i in pairs if VIOLATES[cond](vec[x], vec[y], vec[u], vec[i])), None)

    def holds(cond, vec):
        return first_pair(cond, vec) is None

    hyp = viol = 0
    first = None
    vectors = permutations(range(1, size + 1)) if suite == "theorem2" else surjective_rank_vectors(size)
    for vec in vectors:
        f, low, text = intfn(vec), min(vec), list(vec)
        local = [x for x in range(size) if vec[x] != low and is_interval_local_min(f, x)]
        if suite == "lemma1":
            applies, bad = holds(Q3, vec), first_pair(Q4, vec)
            detail = bad and f"Q3 function {text} fails Q4 at pair (X={bad[0]}, Y={bad[1]})"
        elif suite == "lemma1a":
            applies = holds(Q1, vec)
            bad = [x for x in range(size)
                   if is_lower_interval_min(f, x) and min(vec[z] for z in range(size) if z & x == x) != low]
            detail = bad and f"Q1 function {text}: no global minimizer above lower-minimal X={bad[0]}"
        elif suite == "theorem1":
            q1 = holds(Q1, vec)
            applies = q1 or holds(Q2, vec)
            detail = local and f"{'Q1' if q1 else 'Q2'} function {text}: interval-local X={local[0]} is not global"
        elif suite == "theorem2":
            applies = holds(Q4, vec)
            detail = local and f"injective Q4 function {text}: interval-local X={local[0]} is not the minimizer"
        elif suite == "duality":
            applies, detail = True, None
            dual = tuple(vec[(size - 1) ^ m] for m in range(size))
            for a, b, what in ((Q1, Q2, "Q1 does not match Q2 of the complement dual"),
                               (Q3, Q3, "Q3 is not complement-self-dual"),
                               (Q4, Q4, "Q4 is not complement-self-dual")):
                if holds(a, vec) != holds(b, dual):
                    detail = f"{text}: {what}"
                    break
        elif suite == "remark2":
            applies = True
            pointwise = not any(VIOLATES[Q1](*v) and VIOLATES[Q2](*v)
                                for v in ((vec[x], vec[y], vec[u], vec[i]) for x, y, u, i in pairs))
            detail = pointwise != holds(Q3, vec) and f"{text}: pairwise Q1-or-Q2 disagrees with Q3"
        elif suite == "remark5":
            applies = holds(QUASI, vec)
            mins = [m for m in range(size) if vec[m] == low]
            bad = [(a, b) for a in mins for b in mins if a | b not in mins or a & b not in mins]
            detail = bad and f"quasisubmodular {text}: argmin not closed at ({bad[0][0]}, {bad[0][1]})"
        else:
            applies, bad = holds(QUASI, vec), first_pair(QH, vec)
            detail = bad and f"quasisubmodular {text} fails Qh at pair (X={bad[0]}, Y={bad[1]})"
        if applies:
            hyp += 1
            if detail:
                viol += 1
                first = first or detail
    return hyp, viol, first


def never(vx, vy, vu, vi):
    return vx < vx


def broad_q4(vx, vy, vu, vi):
    return vu > vx


class TestForcedViolations:
    # A broken predicate must surface in each suite's counts and first
    # violation exactly as a plain loop over the functions sees it.
    @pytest.mark.parametrize("suite, cond, broken", [
        ("lemma1", Q4, broad_q4),
        ("lemma1a", Q1, never),
        ("theorem1", Q1, never),
        ("theorem1", Q2, never),
        ("theorem2", Q4, never),
        ("duality", Q1, never),
        ("duality", Q4, broad_q4),
        ("remark2", Q3, never),
        ("remark5", QUASI, never),
        ("qh", QUASI, never),
    ])
    def test_matches_plain_loop(self, monkeypatch, suite, cond, broken):
        monkeypatch.setitem(VIOLATES, cond, broken)
        r = run_suite(suite, 2)
        hyp, viol, first = plain_suite(suite, 2)
        assert viol > 0
        assert (r.hypothesis_count, r.violations, r.first_violation) == (hyp, viol, first)
