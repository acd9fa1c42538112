"""Condition checks, cross-validated against an independent oracle.

The oracle below evaluates the conditions in their implication forms, one
pair at a time, while the library evaluates the violation predicates of
``VIOLATES`` bit-sliced, on lanes across every Y of a row X for one function
or across a chunk of functions; they must agree everywhere.
"""

import hashlib
import json
import operator
import os
import random
import resource
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, chain, islice, product
from operator import itemgetter, or_
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ordsub import (
    ConditionId,
    GroundSet,
    OrderedCodomain,
    SetFunction,
    check_condition,
    check_ordinary_submodular,
    classify,
    cut_function,
    enumerate_weak_orders,
    holds_at_pair,
    is_injective,
    is_ordinary_submodular,
    iter_witnesses,
    modular_plus_concave,
    random_function,
    set_function_to_json,
)
from ordsub import conditions
from ordsub.conditions import (
    LANE_MAX, VIOLATES, ClassReport, _diamonds_hold, _Layout, _live_rows, _rows, incomparable_pair_table,
    injective_witness, lane_chunks,
)
from ordsub.core import _exact_ints
from ordsub.generators import surjective_rank_vectors, weak_order_columns

from conftest import intfn, lane_bit


# Oracle: implication forms, all ordered pairs, no shortcuts.  Memoized on the
# four values only to keep the exhaustive scans short.

@lru_cache(maxsize=1 << 16)
def oracle_holds(cond, vx, vy, vu, vi):
    if cond is ConditionId.Q1:
        return vu <= vy if vx <= vi else True
    if cond is ConditionId.Q2:
        return vu < vy if vx < vi else True
    if cond is ConditionId.Q3:
        return vu <= vy if vx < vi else True
    if cond is ConditionId.Q4:
        return max(vx, vy) >= min(vu, vi)
    if cond is ConditionId.QH:
        if vx != vy:
            return True
        return (vu == vx and vi == vx) or vu < vx or vi < vx
    if cond is ConditionId.QUASI:
        return oracle_holds(ConditionId.Q1, vx, vy, vu, vi) and oracle_holds(ConditionId.Q2, vx, vy, vu, vi)
    if cond is ConditionId.ORDINARY:
        return vx + vy >= vu + vi
    raise AssertionError(cond)


def oracle_tag(cond, vx, vy, vu, vi):
    """The condition a violating pair is reported as: a QuasiSubmodular pair is Q2 if it fails Q2, else Q1."""
    if cond is not ConditionId.QUASI:
        return cond
    return ConditionId.Q1 if oracle_holds(ConditionId.Q2, vx, vy, vu, vi) else ConditionId.Q2


def oracle_first_witness(f, cond):
    """First violating (X, Y) over the full 4**n table, or None."""
    size = f.size
    for x in range(size):
        for y in range(size):
            vx, vy = f.values[x], f.values[y]
            vu, vi = f.values[x | y], f.values[x & y]
            if not oracle_holds(cond, vx, vy, vu, vi):
                return (x, y)
    return None


PAIRWISE = [ConditionId.Q1, ConditionId.Q2, ConditionId.Q3, ConditionId.Q4, ConditionId.QH]


class TestAgainstOracle:
    @pytest.mark.parametrize("cond", PAIRWISE)
    def test_all_weak_orders_n2(self, cond):
        for f in enumerate_weak_orders(2):
            w = check_condition(f, cond)
            expected = oracle_first_witness(f, cond)
            if expected is None:
                assert w is None
            else:
                assert w is not None and (w.x, w.y) == expected

    @pytest.mark.parametrize("cond", PAIRWISE)
    def test_random_n3(self, cond):
        for seed in range(60):
            f = random_function(3, distinct_values=(seed % 8) + 1, seed=seed)
            w = check_condition(f, cond)
            expected = oracle_first_witness(f, cond)
            assert (w is None) == (expected is None)
            if w is not None:
                assert (w.x, w.y) == expected

    def test_holds_at_pair_matches_oracle(self, f_r3, f_cut):
        for f in (f_r3, f_cut):
            for cond in PAIRWISE:
                for x in range(4):
                    for y in range(4):
                        vx, vy = f.values[x], f.values[y]
                        expected = oracle_holds(cond, vx, vy, f.values[x | y], f.values[x & y])
                        assert holds_at_pair(f, cond, x, y) == expected


class TestHoldsAtPair:
    def test_examples(self, f_r3):
        a, b = 1, 2
        assert holds_at_pair(f_r3, ConditionId.Q4, a, b)  # max{0,2} >= min{3,1}
        assert not holds_at_pair(f_r3, ConditionId.Q3, a, b)  # 0 < 1 yet 3 > 2

    def test_equal_arguments_always_hold(self, all_fixtures):
        for f in all_fixtures.values():
            for cond in PAIRWISE + [ConditionId.INJECTIVE]:
                for x in range(f.size):
                    assert holds_at_pair(f, cond, x, x)

    def test_qh_vacuous_on_unequal(self, f_r3):
        for x in range(4):
            for y in range(4):
                if f_r3.values[x] != f_r3.values[y]:
                    assert holds_at_pair(f_r3, ConditionId.QH, x, y)

    def test_mask_validated(self, f_r3):
        with pytest.raises(IndexError):
            holds_at_pair(f_r3, ConditionId.Q1, 4, 0)


class TestCheckCondition:
    def test_const_ok(self, f_const):
        assert check_condition(f_const, ConditionId.Q1) is None

    def test_r3_q3_witness(self, f_r3):
        w = check_condition(f_r3, ConditionId.Q3)
        assert (w.x, w.y) == (1, 2)
        assert [v.key for v in (w.v_x, w.v_y, w.v_union, w.v_inter)] == [0, 2, 3, 1]

    def test_q1nq2_q2_witness(self, f_q1nq2):
        w = check_condition(f_q1nq2, ConditionId.Q2)
        assert (w.x, w.y) == (1, 2)
        assert [v.key for v in (w.v_x, w.v_y, w.v_union, w.v_inter)] == [0, 2, 2, 1]

    def test_witness_deterministic(self, f_r3):
        runs = [check_condition(f_r3, ConditionId.Q3) for _ in range(3)]
        assert all(w == runs[0] for w in runs)

    def test_threads_identical(self, f_r3, f_q1nq2):
        # (X, Y, reported condition) for Q1..Q4, Qh and QuasiSubmodular, pinned
        # from the numpy block scan that the row scan replaced
        fs = (f_r3, f_q1nq2, random_function(6, distinct_values=4, seed=5))
        want = [
            [(1, 2, "Q1"), (1, 2, "Q2"), (1, 2, "Q3"), None, None, (1, 2, "Q2")],
            [None, (1, 2, "Q2"), None, None, None, (1, 2, "Q2")],
            [(1, 2, "Q1"), (4, 18, "Q2"), (4, 26, "Q3"), (4, 34, "Q4"), (1, 2, "Qh"), (1, 2, "Q1")],
        ]
        for f, pinned in zip(fs, want):
            ws = [check_condition(f, c) for c in PAIRWISE + [ConditionId.QUASI]]
            assert [w and (w.x, w.y, w.condition.value) for w in ws] == pinned

    def test_witness_reproduces(self):
        for f in enumerate_weak_orders(2):
            for cond in PAIRWISE + [ConditionId.QUASI]:
                w = check_condition(f, cond)
                if w is not None:
                    assert w.reproduces()

    def test_quasi_reports_failing_side(self, f_q1nq2):
        w = check_condition(f_q1nq2, ConditionId.QUASI)
        assert w.condition is ConditionId.Q2  # Q1 holds, so the pair fails Q2

    def test_rejects_non_pairwise(self, f_r3):
        with pytest.raises(ValueError):
            check_condition(f_r3, ConditionId.ORDINARY)
        with pytest.raises(ValueError):
            check_condition(f_r3, ConditionId.INJECTIVE)

    def test_witness_json(self, f_r3):
        w = check_condition(f_r3, ConditionId.Q3)
        assert w.to_json(f_r3) == {
            "condition": "Q3",
            "X": "a",
            "Y": "b",
            "values": [0, 2, 3, 1],
        }


class TestIterWitnesses:
    def test_lex_order_and_head(self, f_r3):
        ws = list(iter_witnesses(f_r3, ConditionId.Q3))
        pairs = [(w.x, w.y) for w in ws]
        assert pairs == sorted(pairs)
        assert ws[0] == check_condition(f_r3, ConditionId.Q3)

    def test_ok_function_has_none(self, f_cut):
        assert list(iter_witnesses(f_cut, ConditionId.Q1)) == []

    def test_rejects_injective(self, f_cut):
        with pytest.raises(ValueError):
            list(iter_witnesses(f_cut, ConditionId.INJECTIVE))


class TestOrdinarySubmodular:
    def test_examples(self, f_cut, f_r3, f_const):
        assert is_ordinary_submodular(f_cut)
        assert not is_ordinary_submodular(f_r3)
        assert is_ordinary_submodular(f_const)

    def test_witness(self, f_r3):
        w = check_ordinary_submodular(f_r3)
        assert (w.x, w.y) == (1, 2)  # 0 + 2 < 3 + 1
        assert w.reproduces()

    def test_labels_unsupported(self):
        cod = OrderedCodomain("labels", ("lo", "hi"))
        f = SetFunction(GroundSet(("a",)), cod, ("lo", "hi"))
        with pytest.raises(ValueError):
            is_ordinary_submodular(f)

    def test_labels_raise_on_every_path(self):
        # label positions have no sums, whichever entry point is asked
        cod = OrderedCodomain("labels", ("lo", "hi"))
        f = SetFunction(GroundSet(("a", "b")), cod, ("hi", "lo", "lo", "hi"))
        with pytest.raises(ValueError, match="numeric codomain"):
            check_ordinary_submodular(f)
        with pytest.raises(ValueError, match="numeric codomain"):
            holds_at_pair(f, ConditionId.ORDINARY, 1, 2)
        with pytest.raises(ValueError, match="numeric codomain"):
            list(iter_witnesses(f, ConditionId.ORDINARY))

    def test_exact_rational_sums(self):
        # sums that differ by 1/(q*(q+1)); float arithmetic cannot tell these apart
        q = 10**20
        a, b = Fraction(1, q), Fraction(1, q + 1)
        f = SetFunction(GroundSet(("a", "b")), OrderedCodomain("rational"), (b, a, a, a + a - b - b))
        # f(a) + f(b) = 2a; f(ab) + f(∅) = 2a - b > 2a - 2b... check against direct Fractions
        assert is_ordinary_submodular(f) == (a + a >= (a + a - b - b) + b)
        assert is_ordinary_submodular(f) == (b >= 0)

    def test_huge_integers_no_wraparound(self):
        big = 2**200
        f = intfn([0, big, big, 2 * big - 1])
        assert is_ordinary_submodular(f)
        g = intfn([0, big, big, 2 * big + 1])
        assert not is_ordinary_submodular(g)


class TestInjective:
    def test_examples(self, f_r3, f_const, f_cut):
        assert is_injective(f_r3)
        assert not is_injective(f_const)
        assert not is_injective(f_cut)

    def test_witness_lex_minimal(self, f_cut):
        w = injective_witness(f_cut)
        assert (w.x, w.y) == (0, 3)  # the two zeros
        assert w.reproduces()

    def test_rational_as_on_fractions(self):
        # rationals are compared as their exact ints; the verdict, the pair
        # and its Fraction values are those of the Fractions themselves
        ground, cod = intfn([0] * 16).ground, OrderedCodomain("rational")
        pool = sorted({Fraction(a, b) for a in range(-9, 10) for b in range(1, 5)})
        for seed in range(30):
            rng = random.Random(seed)
            vals = rng.choices(pool, k=16) if seed % 3 else rng.sample(pool, 16)
            f = SetFunction(ground, cod, tuple(vals))
            pairs = [(x, y) for y in range(16) for x in range(y) if vals[x] == vals[y]]
            w = injective_witness(f)
            assert is_injective(f) == (w is None) == (not pairs)
            if pairs:
                assert (w.x, w.y) == min(pairs)
                assert (w.v_x.key, w.v_y.key) == (vals[w.x], vals[w.y])
                assert type(w.v_x.key) is Fraction


class TestClassify:
    def test_const(self, f_const):
        r = classify(f_const)
        for cond in (ConditionId.Q1, ConditionId.Q2, ConditionId.Q3, ConditionId.Q4,
                     ConditionId.QH, ConditionId.QUASI, ConditionId.ORDINARY):
            assert r.flags[cond] is True
        assert r.flags[ConditionId.INJECTIVE] is False

    def test_r3(self, f_r3):
        r = classify(f_r3)
        assert r.flags[ConditionId.Q4] is True
        assert r.flags[ConditionId.QH] is True
        assert r.flags[ConditionId.INJECTIVE] is True
        for cond in (ConditionId.Q1, ConditionId.Q2, ConditionId.Q3, ConditionId.QUASI):
            assert r.flags[cond] is False

    def test_cut(self, f_cut):
        r = classify(f_cut)
        for cond in (ConditionId.Q1, ConditionId.Q2, ConditionId.Q3, ConditionId.Q4,
                     ConditionId.QH, ConditionId.QUASI, ConditionId.ORDINARY):
            assert r.flags[cond] is True
        assert r.flags[ConditionId.INJECTIVE] is False

    def test_labels_skip_ordinary(self):
        cod = OrderedCodomain("labels", ("lo", "hi"))
        f = SetFunction(GroundSet(("a",)), cod, ("lo", "hi"))
        r = classify(f)
        assert r.flags[ConditionId.ORDINARY] is None
        assert r.flags[ConditionId.Q1] is True

    def test_implication_lattice_n2(self):
        for f in enumerate_weak_orders(2):
            r = classify(f)  # construction would raise on an implication violation
            g = r.flags.__getitem__
            assert not g(ConditionId.QUASI) or (g(ConditionId.Q1) and g(ConditionId.Q2))
            assert not g(ConditionId.Q1) or g(ConditionId.Q3)
            assert not g(ConditionId.Q2) or g(ConditionId.Q3)
            assert not g(ConditionId.Q3) or g(ConditionId.Q4)
            assert not g(ConditionId.ORDINARY) or g(ConditionId.QUASI)
            assert not g(ConditionId.INJECTIVE) or g(ConditionId.QH)

    def test_inconsistent_report_raises(self):
        flags = {c: False for c in ConditionId}
        flags[ConditionId.Q1] = True  # Q1 without Q3 is impossible
        with pytest.raises(RuntimeError, match="implication lattice"):
            ClassReport(flags, {})

    def test_witnesses_only_for_failures(self, f_r3):
        r = classify(f_r3)
        assert set(r.witnesses) == {c for c, v in r.flags.items() if v is False}

    def test_threads_identical(self, f_r3):
        # the failed conditions and their witnesses, pinned from the numpy
        # block scan that the row scan replaced; every other flag is True
        fs = (f_r3, random_function(6, distinct_values=4, seed=5))
        want = [
            {"Q1": (1, 2, "Q1"), "Q2": (1, 2, "Q2"), "Q3": (1, 2, "Q3"), "QuasiSubmodular": (1, 2, "Q2"),
             "OrdinarySubmodular": (1, 2, "OrdinarySubmodular")},
            {"Q1": (1, 2, "Q1"), "Q2": (4, 18, "Q2"), "Q3": (4, 26, "Q3"), "Q4": (4, 34, "Q4"), "Qh": (1, 2, "Qh"),
             "QuasiSubmodular": (1, 2, "Q1"), "OrdinarySubmodular": (1, 2, "OrdinarySubmodular"),
             "Injective": (0, 1, "Injective")},
        ]
        for f, pinned in zip(fs, want):
            r = classify(f)
            assert {c.value: (w.x, w.y, w.condition.value) for c, w in r.witnesses.items()} == pinned
            assert {c.value for c, flag in r.flags.items() if flag} == {c.value for c in ConditionId} - set(pinned)

    def test_report_json(self, f_r3):
        out = classify(f_r3).to_json(f_r3, include_witnesses=True)
        assert out["Q4"] is True and out["Q3"] is False
        assert out["witnesses"]["Q3"] == {
            "condition": "Q3", "X": "a", "Y": "b", "values": [0, 2, 3, 1],
        }


class TestOrdinalInvariance:
    @settings(max_examples=60)
    @given(st.lists(st.integers(0, 5), min_size=4, max_size=4), st.data())
    def test_monotone_transform_preserves_classification(self, vals, data):
        f = intfn(vals)
        distinct = sorted(set(vals))
        jumps = data.draw(st.lists(st.integers(1, 4), min_size=len(distinct), max_size=len(distinct)))
        news = []
        acc = data.draw(st.integers(-5, 5))
        for j in jumps:
            news.append(acc)
            acc += j
        g = f.monotone_transform(list(zip(distinct, news)))
        assert classify(g).ordinal_vector() == classify(f).ordinal_vector()


class TestDualityBridges:
    def test_q1_q2_bridge_n2(self):
        for f in enumerate_weak_orders(2):
            d = f.complement_dual()
            assert (check_condition(f, ConditionId.Q1) is None) == (
                check_condition(d, ConditionId.Q2) is None
            )

    def test_q3_q4_self_dual_n2(self):
        for f in enumerate_weak_orders(2):
            d = f.complement_dual()
            for cond in (ConditionId.Q3, ConditionId.Q4):
                assert (check_condition(f, cond) is None) == (check_condition(d, cond) is None)


class TestImplicationLatticeExhaustive:
    def test_n3_full_scan(self):
        # Quasi => Q1 and Q2; Q1 => Q3; Q2 => Q3; Q3 => Q4; Ordinary => Quasi;
        # Injective => Qh, over all 545,835 weak orders on 8 subsets.  Each flag
        # comes from the oracle, through a table of the conditions each value
        # 4-tuple violates; the loop only counts the distinct flag patterns.
        conds = (ConditionId.Q1, ConditionId.Q2, ConditionId.Q3, ConditionId.Q4,
                 ConditionId.QH, ConditionId.QUASI, ConditionId.ORDINARY)
        table = {
            v: sum(1 << k for k, c in enumerate(conds) if not oracle_holds(c, *v))
            for v in product(range(1, 9), repeat=4)
        }
        pick = itemgetter(*chain.from_iterable(lazy_incomparable_pairs(3)))
        patterns = Counter()
        for vec in surjective_rank_vectors(8):
            values = iter(pick(vec))
            violated = reduce(or_, map(table.__getitem__, zip(values, values, values, values)))
            patterns[violated, len(set(vec)) == 8] += 1
        assert sum(patterns.values()) == 545_835
        for violated, injective in patterns:
            q1, q2, q3, q4, qh, quasi, ordinary = (not violated >> k & 1 for k in range(len(conds)))
            assert q3 or not (q1 or q2)
            assert q4 or not q3
            assert (q1 and q2) or not quasi
            assert quasi or not ordinary
            assert qh or not injective
        # class sizes at n = 3; the suites' hypothesis counts for Q1, Q3 and Quasi must match
        sizes = [sum(k for (violated, _), k in patterns.items() if not violated >> j & 1) for j in range(len(conds))]
        assert sizes == [74_565, 74_565, 105_346, 226_330, 413_711, 53_123, 30_417]


class TestRestrictPreservesClasses:
    CONDS = (ConditionId.Q1, ConditionId.Q2, ConditionId.Q3, ConditionId.Q4)

    @staticmethod
    def intervals(n):
        from ordsub import IntervalSublattice

        size = 1 << n
        return [
            IntervalSublattice(lo, hi)
            for lo in range(size)
            for hi in range(size)
            if lo & hi == lo
        ]

    def check_function(self, f, boxes):
        member = {c: check_condition(f, c) is None for c in self.CONDS}
        for box in boxes:
            g = f.restrict(box)
            for c in self.CONDS:
                if member[c]:
                    assert check_condition(g, c) is None, (f.values, box, c)

    def test_exhaustive_n2(self):
        boxes = self.intervals(2)
        for f in enumerate_weak_orders(2):
            self.check_function(f, boxes)

    def test_sampled_n3(self):
        # full n=3 would be 545,835 x 27 restrictions; a seeded sample covers it
        boxes = self.intervals(3)
        for seed in range(150):
            f = random_function(3, distinct_values=(seed % 8) + 1, seed=seed)
            self.check_function(f, boxes)


# Kernel parity: the row scan on lanes against the oracle, which walks the
# incomparable pairs one at a time in lexicographic order.

def lazy_incomparable_pairs(n):
    size = 1 << n
    for x in range(size):
        for y in range(size):
            if x & y not in (x, y):
                yield (x, y, x | y, x & y)


def scalar_first_hit(cond, vals, n):
    """First incomparable (X, Y) failing cond by the oracle, with the condition reported, or None."""
    for x, y, u, i in lazy_incomparable_pairs(n):
        v = (vals[x], vals[y], vals[u], vals[i])
        if not oracle_holds(cond, *v):
            return (x, y), oracle_tag(cond, *v)
    return None


def diamond_submodular(f):
    """f(S+i) + f(S+j) >= f(S+i+j) + f(S) for all S, i, j: local, so exact for ordinary submodularity."""
    v = f.values
    for s in range(f.size):
        free = [1 << k for k in range(f.n) if not s >> k & 1]
        for a in range(len(free)):
            for b in range(a + 1, len(free)):
                i, j = free[a], free[b]
                if v[s | i] + v[s | j] < v[s | i | j] + v[s]:
                    return False
    return True


ORDINAL_CHECKS = PAIRWISE + [ConditionId.QUASI]


def kernel_hits(f):
    """classify's first witness per condition, as ((X, Y), reported condition) or None."""
    report = classify(f)
    conds = ORDINAL_CHECKS + ([ConditionId.ORDINARY] if f.codomain.is_numeric else [])
    return {
        c: None if c not in report.witnesses else ((report.witnesses[c].x, report.witnesses[c].y),
                                                    report.witnesses[c].condition)
        for c in conds
    }


def modular_lowered(n, mask):
    """The modular function X -> sum of (k + 1) over k in X, with f(mask) set to -1."""
    vals = list(modular_plus_concave(n, list(range(1, n + 1)), [0] * (n + 1)).values)
    vals[mask] = -1
    return intfn(vals)


def assert_matches_oracle(f):
    for cond, got in kernel_hits(f).items():
        assert got == scalar_first_hit(cond, f.values, f.n), (f.values, cond)


class TestKernelParity:
    def test_weak_orders_n_le_2(self):
        for n in (1, 2):
            for f in enumerate_weak_orders(n):
                assert_matches_oracle(f)

    def test_every_50th_weak_order_n3(self):
        for k, vec in enumerate(surjective_rank_vectors(8)):
            if k % 50 == 0:
                assert_matches_oracle(intfn(vec))

    @pytest.mark.parametrize("n", range(4, 12))
    def test_seeded_random(self, n):
        kinds = [
            OrderedCodomain("integer"),
            OrderedCodomain("rational"),
            OrderedCodomain("labels", ("lo", "mid", "hi", "top")),
        ]
        for seed in range(3):
            for cod in kinds:
                d = (2, 3, 4)[seed] if cod.kind == "labels" else (2, 3, 16)[seed]
                assert_matches_oracle(random_function(n, cod, d, seed=100 * n + seed))

    @pytest.mark.parametrize("n", range(4, 8))
    def test_submodular_families_small(self, n):
        g = [Fraction(-k * k, 3) for k in range(n + 1)]
        for f in (
            modular_plus_concave(n, list(range(1, n + 1)), [0] * (n + 1)),
            modular_plus_concave(n, [(-1) ** k * k for k in range(n)], g),
            cut_function(n, [(k, k + 1, Fraction(k + 1, 2)) for k in range(n - 1)]),
        ):
            assert_matches_oracle(f)

    @pytest.mark.parametrize("n", [8, 9, 10, 11])
    def test_submodular_families_large(self, n):
        # full scalar scans cost seconds here; ordinary submodularity (checked
        # by the local diamond test) implies every ordinal condition
        for f in (
            modular_plus_concave(n, list(range(1, n + 1)), [0] * (n + 1)),
            cut_function(n, [(k, k + 1, 2**70) for k in range(n - 1)]),
        ):
            assert diamond_submodular(f)
            assert all(hit is None for hit in kernel_hits(f).values())

    def test_late_row_witnesses(self):
        # a modular function lowered at one late subset fails first at a late
        # row X; the 2**70 cut needs lanes over 70 bits wide
        def lowered(n, mask):
            vals = list(modular_plus_concave(n, list(range(1, n + 1)), [0] * (n + 1)).values)
            vals[mask] = -1
            return intfn(vals)

        cut = cut_function(6, [(k, k + 1, 2**70) for k in range(5)])
        cases = [lowered(n, mask) for n, mask in ((6, 0b100000), (6, 0b111110), (8, 0b10000001), (8, 0b11111110))]
        cases.append(SetFunction(cut.ground, cut.codomain, cut.values[:-2] + (-(2**71), cut.values[-1])))
        cases.append(random_function(9, distinct_values=5, seed=3))
        for f in cases:
            assert_matches_oracle(f)
        # the oracle takes seconds at n = 10, so these witnesses are pinned from the numpy block scan
        q, o = ((1022, 1), ConditionId.Q2), ((1, 1022), ConditionId.ORDINARY)
        assert kernel_hits(lowered(10, 0b1111111110)) == {
            ConditionId.Q1: (q[0], ConditionId.Q1), ConditionId.Q2: q, ConditionId.Q3: (q[0], ConditionId.Q3),
            ConditionId.Q4: None, ConditionId.QH: None, ConditionId.QUASI: q, ConditionId.ORDINARY: o,
        }

    @pytest.mark.parametrize("n", range(2, 8))
    def test_long_carries_match_oracle(self, n):
        # row X's lanes are rebuilt from the bit levels above its lowest set
        # bit, so a row after a long carry (0111 -> 1000) rebuilds them all;
        # lower f at each bit, and at the complement of each bit, and every
        # witness of every scan must be the oracle's, in order
        full = (1 << n) - 1
        conds = ORDINAL_CHECKS + [ConditionId.ORDINARY]
        for k in range(n):
            for mask in (1 << k, full ^ (1 << k)):
                f = modular_lowered(n, mask)
                want = {cond: [] for cond in conds}
                for x, y, u, i in lazy_incomparable_pairs(n):
                    v = (f.values[x], f.values[y], f.values[u], f.values[i])
                    for cond in conds:
                        if not oracle_holds(cond, *v):
                            want[cond].append(((x, y), oracle_tag(cond, *v)))
                for cond in conds:
                    got = [((w.x, w.y), w.condition) for w in iter_witnesses(f, cond)]
                    assert got == want[cond], (n, mask, cond)

    def test_long_carries_first_witnesses_n11_n12(self):
        # lowered at the top bit, the first witnesses sit in row 2**(n-1),
        # the row after the longest carry; pinned from the scan that applied
        # every mask-and-shift step on every row
        for n in (11, 12):
            top = 1 << (n - 1)
            q = ((top, 1), ConditionId.Q2)
            assert kernel_hits(modular_lowered(n, top)) == {
                ConditionId.Q1: (q[0], ConditionId.Q1), ConditionId.Q2: q, ConditionId.Q3: (q[0], ConditionId.Q3),
                ConditionId.Q4: None, ConditionId.QH: None, ConditionId.QUASI: q,
                ConditionId.ORDINARY: ((1, top), ConditionId.ORDINARY),
            }

    @pytest.mark.parametrize("w", [2, 3, 8, 11, 64, 70])
    def test_plain_lanes_match_python_ints(self, w):
        # every operator of a row's Lanes against Python ints, lane by lane,
        # at both ends of the values below the guard bit (of half of them for
        # a sum); Python answers < and >= by reflecting > and <=
        def ends(top):
            return sorted({v for v in (0, 1, top - 1, top) if 0 <= v <= top})

        def pack(rows):
            """One Lanes per position of the rows, lane k holding row k."""
            guard = sum(1 << (k * w + w - 1) for k in range(len(rows)))
            return [conditions.Lanes(sum(v << (k * w) for k, v in enumerate(col)), guard) for col in zip(*rows)]

        def hits(bits, count):
            return [bool(bits >> (k * w + w - 1) & 1) for k in range(count)]

        top, rng = (1 << (w - 1)) - 1, random.Random(w)
        pairs = list(product(ends(top), repeat=2)) + [(rng.randint(0, top), rng.randint(0, top)) for _ in range(20)]
        a, b = pack(pairs)
        for op in (operator.le, operator.gt, operator.eq, operator.lt, operator.ge):
            assert hits(op(a, b), len(pairs)) == [op(x, y) for x, y in pairs], op
        quads = list(product(ends(top >> 1), repeat=4))
        vx, vy, vu, vi = pack(quads)
        assert hits(vx + vy < vu + vi, len(quads)) == [x + y < u + i for x, y, u, i in quads]
        assert type(vx + vy) is conditions.Lanes and not hasattr(vx, "table")
        assert conditions.Lanes.__slots__ == ("bits", "guard")
        assert not {"__lt__", "__ge__"} & set(vars(conditions.Lanes))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_rows_yield_every_rows_lanes(self, n):
        # decode each lane Y of the four Lanes of each row x, guard bit
        # included, and it must read (v[x], v[Y], v[x|Y], v[x&Y]), with room
        # below the guard for a sum of two; the long-carry inputs make the
        # walk rebuild every bit level
        full = (1 << n) - 1
        cases = [random_function(n, OrderedCodomain(kind), d, seed=10 * n + d)
                 for kind in ("integer", "rational") for d in sorted({2, min(5, 1 << n), 1 << n})]
        cases += [modular_lowered(n, m) for k in range(n) for m in (1 << k, full ^ (1 << k))]
        for f in cases:
            for v in (f.ranks, f.exact_ints):
                rows = list(_rows(_Layout(n, v)))
                assert [x for x, _ in rows] == list(range(1 << n))
                for x, lanes in rows:
                    assert len({lane.guard for lane in lanes}) == 1
                    w = lanes[0].guard.bit_length() >> n
                    assert 2 * max(v) < 1 << (w - 1)
                    got = [[lane.bits >> (y * w) & ((1 << w) - 1) for lane in lanes] for y in range(1 << n)]
                    assert got == [[v[x], v[y], v[x | y], v[x & y]] for y in range(1 << n)], (f.values, x)

    @pytest.mark.parametrize("first, block", [(1, 1), (1, 7), (1, 1 << 18), (64, 64), (1 << 10, 1 << 12)])
    def test_block_size_does_not_move_witnesses(self, first, block):
        # the row scan is lazy: read every scan's witnesses in blocks, `first`
        # of each and then `block` at a time, with the scans of all cases and
        # conditions interleaved, and each scan must still give its own list
        def lowered(n, mask):
            vals = list(modular_plus_concave(n, list(range(1, n + 1)), [0] * (n + 1)).values)
            vals[mask] = -1
            return intfn(vals)

        cut = cut_function(6, [(k, k + 1, 2**70) for k in range(5)])
        cases = [lowered(n, mask) for n, mask in ((6, 0b100000), (6, 0b111110), (8, 0b10000001), (10, 0b1111111110))]
        cases.append(SetFunction(cut.ground, cut.codomain, cut.values[:-2] + (-(2**71), cut.values[-1])))
        cases.append(random_function(6, distinct_values=5, seed=3))
        keys = [(k, cond) for k in range(len(cases)) for cond in ORDINAL_CHECKS + [ConditionId.ORDINARY]]
        want = {(k, cond): list(iter_witnesses(cases[k], cond)) for k, cond in keys}
        live = {(k, cond): iter_witnesses(cases[k], cond) for k, cond in keys}
        got = {key: [] for key in keys}
        size = first
        while live:
            for key, scan in list(live.items()):
                part = list(islice(scan, size))
                got[key] += part
                if len(part) < size:
                    del live[key]
            size = block
        assert got == want
        for k, cond in keys:
            f, ws = cases[k], got[k, cond]
            assert (((ws[0].x, ws[0].y), ws[0].condition) if ws else None) == kernel_hits(f)[cond]
            assert all(w.reproduces() for w in ws)
            if f.n <= 6:
                expect = []
                for x, y, u, i in lazy_incomparable_pairs(f.n):
                    v = (f.values[x], f.values[y], f.values[u], f.values[i])
                    if not oracle_holds(cond, *v):
                        expect.append(((x, y), oracle_tag(cond, *v)))
                assert [((w.x, w.y), w.condition) for w in ws] == expect, (k, cond)

    def test_single_checks_match_classify(self):
        # classify scans all conditions in one pass; each single check scans alone
        for seed in range(30):
            f = random_function(5, OrderedCodomain("rational"), distinct_values=2 + seed % 6, seed=seed)
            report = classify(f)
            for cond in ORDINAL_CHECKS:
                assert check_condition(f, cond) == report.witnesses.get(cond)
            assert check_ordinary_submodular(f) == report.witnesses.get(ConditionId.ORDINARY)

    def test_iter_witnesses_matches_pair_scan(self):
        for seed in range(20):
            f = random_function(4, distinct_values=3, seed=seed)
            for cond in ORDINAL_CHECKS:
                want = []
                for p in lazy_incomparable_pairs(4):
                    if cond is ConditionId.QUASI:
                        tags = [c for c in (ConditionId.Q2, ConditionId.Q1) if not holds_at_pair(f, c, p[0], p[1])]
                        if tags:
                            want.append((p[:2], tags[0]))
                    elif not holds_at_pair(f, cond, p[0], p[1]):
                        want.append((p[:2], cond))
                assert [((w.x, w.y), w.condition) for w in iter_witnesses(f, cond)] == want

    def test_exact_ints_overflow_falls_back_to_python_ints(self):
        # scaled by the LCM of the denominators, then shifted to start at 0;
        # Python ints have no overflow to fall back from
        assert _exact_ints([Fraction(1, 3), Fraction(1, 2), 2]) == [0, 1, 10]
        assert _exact_ints([1, -(2**61), 2**62]) == [2**61 + 1, 0, 2**62 + 2**61]


# Row skipping: the rows that the subset and superset maxima rule out hold no
# hit, and the diamond pass decides ordinary submodularity as the rows do.

def hit_rows(cond, vals, n):
    """The rows X at which some Y violates cond, by the oracle."""
    pairs = lazy_incomparable_pairs(n)
    return {x for x, y, u, i in pairs if not oracle_holds(cond, vals[x], vals[y], vals[u], vals[i])}


def assert_hit_rows_live(f):
    ranks = f.ranks
    together = _live_rows(_Layout(f.n, ranks), ORDINAL_CHECKS)
    for cond in ORDINAL_CHECKS + ([ConditionId.ORDINARY] if f.codomain.is_numeric else []):
        vals = f.exact_ints if cond is ConditionId.ORDINARY else ranks
        rows = _live_rows(_Layout(f.n, vals), (cond,))[cond]
        assert len(rows) == f.size and set(rows) <= {"0", "1"}
        assert all(rows[x] == "1" for x in hit_rows(cond, vals, f.n)), (f.values, cond, rows)
        assert cond is ConditionId.ORDINARY or together[cond] == rows


def reference_live_rows(n, ranks):
    """Per ordinal condition, the rows that _live_rows' docstring calls live, one row X at a time.

    below and above are 1 + the maximum rank over X's proper subsets and
    supersets, 0 if none; least is 1 + the least rank of a subset other than
    X; X is live if the predicate holds at (f(X) + 1, least, above, below),
    or at (f(X) + 1, f(X) + 1, above, below) when another subset has X's rank.
    """
    size = 1 << n
    bounds = []
    for x in range(size):
        below = 1 + max((ranks[s] for s in range(size) if s & x == s != x), default=-1)
        above = 1 + max((ranks[s] for s in range(size) if s & x == x != s), default=-1)
        others = ranks[:x] + ranks[x + 1:]
        bounds.append((ranks[x] + 1, 1 + min(others, default=0), above, below, ranks[x] in others))
    return {cond: "".join("1" if VIOLATES[cond](vx, least, above, below)
                          or shared and VIOLATES[cond](vx, vx, above, below) else "0"
                          for vx, least, above, below, shared in bounds)
            for cond in ORDINAL_CHECKS}


def row_scan_holds(lay):
    """Whether the Ordinary row scan over the layout's vals finds no hit."""
    violates = VIOLATES[ConditionId.ORDINARY]
    return not any(violates(*lanes) for _, lanes in _rows(lay))


class TestRowSkipping:
    def test_scan_plans_group_the_conditions(self, monkeypatch):
        # the ordinal conditions scan the ranks together and Ordinary the
        # exact integers; Injective reaches neither _live_rows nor a plan, and
        # a labels codomain is refused before any layout is built
        f = random_function(4, distinct_values=3, seed=1)
        groups, live_rows = [], conditions._live_rows

        def recorded(lay, conds):
            groups.append(list(conds))
            return live_rows(lay, conds)

        monkeypatch.setattr(conditions, "_live_rows", recorded)
        plans = [(lay.vals, list(todo)) for lay, todo in conditions._scans(f, list(ConditionId))]
        assert groups == [ORDINAL_CHECKS, [ConditionId.ORDINARY]]
        assert [todo for _, todo in plans] == groups
        assert plans[0][0] is f.ranks and plans[1][0] is f.exact_ints

        def no_layout(*args):
            raise AssertionError("a layout was built")

        monkeypatch.setattr(conditions, "_Layout", no_layout)
        g = random_function(4, OrderedCodomain("labels", ("lo", "mid", "hi")), 3, seed=1)
        with pytest.raises(ValueError, match="numeric codomain"):
            list(conditions._scans(g, list(ConditionId)))

    @staticmethod
    def assert_live_rows_are_the_rule(n, ranks):
        want = reference_live_rows(n, ranks)
        lay = _Layout(n, ranks)
        assert _live_rows(lay, ORDINAL_CHECKS) == want, ranks
        for cond in ORDINAL_CHECKS:
            assert _live_rows(lay, (cond,)) == {cond: want[cond]}, (ranks, cond)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_live_rows_are_the_rule_on_every_weak_order(self, n):
        for vec in surjective_rank_vectors(1 << n):  # ranks from 1
            self.assert_live_rows_are_the_rule(n, [r - 1 for r in vec])

    @pytest.mark.parametrize("n", range(3, 9))
    def test_live_rows_are_the_rule_on_seeded_rank_vectors(self, n):
        # few values and many, a lone minimum, and the strictly increasing modular function
        rng, size = random.Random(70 + n), 1 << n
        cases = [[rng.randrange(d) for _ in range(size)] for d in (2, 3, 5, size // 2, size) for _ in range(4)]
        cases += [[0] + [rng.randrange(1, 4) for _ in range(size - 1)] for _ in range(3)]
        cases.append(list(modular_plus_concave(n, list(range(1, n + 1)), [0] * (n + 1)).values))
        for vals in cases:
            self.assert_live_rows_are_the_rule(n, intfn(vals).ranks)

    def test_live_row_rule_rests_on_monotone_predicates(self):
        # _live_rows evaluates each ordinal predicate at (vx, least, above,
        # below), and at (vx, vx, above, below) on rows whose value is shared:
        # sound if a hit survives vy falling and vu, vi growing, save where
        # the hit needs vy == vx
        top = 4
        for cond in ORDINAL_CHECKS:
            violates = VIOLATES[cond]
            for vx, vy, vu, vi in product(range(top + 1), repeat=4):
                if not violates(vx, vy, vu, vi):
                    continue
                for low, up, inter in product(range(vy + 1), range(vu, top + 1), range(vi, top + 1)):
                    assert violates(vx, low, up, inter) or (vy == vx and violates(vx, vx, up, inter)), (
                        cond, (vx, vy, vu, vi), (low, up, inter))
        # _rows leaves comparable pairs in its lanes: X ⊆ Y gives (a, b, b, a)
        # and Y ⊆ X gives (a, b, a, b), where no pairwise predicate holds
        for cond in ORDINAL_CHECKS + [ConditionId.ORDINARY]:
            for a, b in product(range(top + 1), repeat=2):
                assert not VIOLATES[cond](a, b, b, a) and not VIOLATES[cond](a, b, a, b), (cond, a, b)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.integers(1, 1 << n).flatmap(
        lambda top: st.lists(st.integers(0, top - 1), min_size=1 << n, max_size=1 << n))))
    def test_every_hit_row_is_live_on_drawn_rank_vectors(self, vals):
        assert_hit_rows_live(intfn(vals))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_hit_row_is_live_on_seeded_functions(self, n):
        rng = random.Random(n)
        full = (1 << n) - 1
        counts = sorted({min(d, 1 << n) for d in (2, 3, 6, 1 << n)})
        cases = [random_function(n, OrderedCodomain(kind), d, seed=rng.randrange(1 << 20))
                 for kind in ("integer", "rational") for d in counts for _ in range(3)]
        for _ in range(6):
            edges = [(i, j, Fraction(rng.randint(1, 6), rng.randint(1, 3)))
                     for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
            diffs = sorted((rng.randint(-4, 4) for _ in range(n)), reverse=True)
            cases.append(cut_function(n, edges))
            cases.append(modular_plus_concave(n, [rng.randint(-5, 5) for _ in range(n)], [0, *accumulate(diffs)]))
        cases += [modular_lowered(n, m) for k in range(n) for m in (1 << k, full ^ (1 << k))]
        for f in cases:
            assert_hit_rows_live(f)

    def test_diamonds_match_the_row_scan_on_every_n3_weak_order(self):
        holds = 0
        for vec in surjective_rank_vectors(8):
            lay = _Layout(3, vec)
            diamonds = _diamonds_hold(lay)
            assert diamonds == row_scan_holds(lay), vec
            holds += diamonds
        assert holds == 30_417

    @pytest.mark.parametrize("n", range(2, 7))
    def test_diamonds_match_the_row_scan_on_seeded_functions(self, n):
        # random functions, and submodular ones moved at one mask, so that
        # both answers come up
        rng = random.Random(50 + n)
        cases = [random_function(n, OrderedCodomain(kind), min(2 + seed % 7, 1 << n), seed=100 * n + seed)
                 for kind in ("integer", "rational") for seed in range(25)]
        for seed in range(25):
            diffs = sorted((Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)), reverse=True)
            g = modular_plus_concave(n, [rng.randint(-5, 5) for _ in range(n)], [0, *accumulate(diffs)])
            vals = list(g.values)
            vals[rng.randrange(g.size)] += Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            cases.append(SetFunction(g.ground, g.codomain, tuple(vals)))
        outcomes = Counter()
        for f in cases:
            vals = f.exact_ints
            lay = _Layout(n, vals)
            diamonds = _diamonds_hold(lay)
            assert diamonds == row_scan_holds(lay), f.values
            outcomes[diamonds] += 1
        assert outcomes[True] and outcomes[False]

    def test_strictly_increasing_n12_makes_no_row_predicate_call(self, monkeypatch):
        # every row is dead for every ordinal condition, so the walk never
        # starts, and the diamond pass alone decides Ordinary
        calls = Counter()
        for cond, violates in list(VIOLATES.items()):
            def counted(*v, cond=cond, violates=violates):
                calls[cond] += 1
                return violates(*v)

            monkeypatch.setitem(VIOLATES, cond, counted)

        # an injective f has no live Qh row, its unique minimum included, so
        # classify calls Qh only twice, in _live_rows, and never walks its rows
        for n in range(4, 11):
            g = random_function(n, OrderedCodomain("integer"), 1 << n, seed=n)
            assert "1" not in _live_rows(_Layout(n, g.ranks), (ConditionId.QH,))[ConditionId.QH]
            calls.clear()
            assert classify(g).flags[ConditionId.QH]
            assert calls[ConditionId.QH] == 2

        def no_walk(*args):
            raise AssertionError("the row walk started")

        monkeypatch.setattr(conditions, "_rows", no_walk)
        f = modular_plus_concave(12, random.Random(12).sample(range(1, 13), 12), [0] * 13)
        calls.clear()
        report = classify(f)
        assert all(report.flags[c] for c in ConditionId if c is not ConditionId.INJECTIVE)
        # _live_rows calls each ordinal predicate twice, and Quasi's calls reach Q1 and Q2
        ordinal = {ConditionId.Q1: 4, ConditionId.Q2: 4, ConditionId.Q3: 2, ConditionId.Q4: 2, ConditionId.QH: 2,
                   ConditionId.QUASI: 2}
        assert calls == {**ordinal, ConditionId.ORDINARY: 12 * 11 // 2}
        calls.clear()
        assert all(check_condition(f, cond) is None for cond in ORDINAL_CHECKS)
        assert list(iter_witnesses(f, ConditionId.QH)) == []
        assert calls == {**ordinal, ConditionId.QH: 4}


# The bit-sliced evaluator: VIOLATES over chunks of functions, one lane each.

def lanes(bits, count):
    """Membership of each of a chunk's count functions in a bitset."""
    text = format(bits, "b").zfill(lane_bit(count))[::-1]
    return [text[lane_bit(k)] == "1" for k in range(count)]


def chunk_vectors(c):
    """Every function of a chunk, decoded one at a time by LaneChunk.vector."""
    return [c.vector(1 << lane_bit(k)) for k in range(c.count)]


class TestLaneChunks:
    @staticmethod
    def samples():
        for n in (1, 2):
            yield n, list(surjective_rank_vectors(1 << n))
        yield 3, [vec for k, vec in enumerate(surjective_rank_vectors(8)) if k % 50 == 0]

    def test_flags_and_first_pairs_match_oracle(self):
        conds = ORDINAL_CHECKS + [ConditionId.ORDINARY]
        for n, vectors in self.samples():
            pairs = incomparable_pair_table(n)
            for c in lane_chunks([tuple(map(bytes, zip(*vectors)))], n):
                hits = {cond: [lanes(bits, c.count) for bits in c.hits(cond)] for cond in conds}
                holds = {cond: lanes(c.holds(cond), c.count) for cond in conds + [ConditionId.INJECTIVE]}
                for k, vec in enumerate(chunk_vectors(c)):
                    for cond in conds:
                        want = scalar_first_hit(cond, vec, n)
                        first = next((p[:2] for p, member in zip(pairs, hits[cond]) if member[k]), None)
                        assert first == (want and want[0]), (vec, cond)
                        assert holds[cond][k] == (want is None), (vec, cond)
                    assert holds[ConditionId.INJECTIVE][k] == (len(set(vec)) == len(vec)), vec

    def test_every_condition_over_the_n3_stream(self):
        # every condition's members, directly and on the complement duals (which
        # share the chunk's columns), over all 545,835 weak orders at n = 3 in
        # enumeration order, so that the digest does not depend on where the
        # chunks are cut: a new kernel must match the old one
        direct = {cond: bytearray() for cond in ConditionId}
        dual = {cond: bytearray() for cond in ConditionId}
        for c in lane_chunks(weak_order_columns(8), 3):
            d = c.dual()
            for cond in ConditionId:
                direct[cond] += bytes(lanes(c.holds(cond), c.count))
                dual[cond] += bytes(lanes(d.holds(cond), c.count))
        counts = {cond.value: sum(member) for cond, member in direct.items()}
        assert counts == {"Q1": 74565, "Q2": 74565, "Q3": 105346, "Q4": 226330, "Qh": 413711,
                          "QuasiSubmodular": 53123, "OrdinarySubmodular": 30417, "Injective": 40320}
        digest = hashlib.sha256()
        for member in chain(direct.values(), dual.values()):
            digest.update(member)
        assert digest.hexdigest() == "ba5e0c57f357416b3ba12b5e1cd88f5105dbf646c86177f4ca81bd524145aa08"

    def test_predicates_across_the_lane_range(self):
        # values at both ends of 0..LANE_MAX, where a sum comes closest to the guard bit
        rng = random.Random(7)
        ends = (0, 1, LANE_MAX - 1, LANE_MAX)
        vectors = [tuple(rng.choice(ends) if rng.random() < 0.7 else rng.randrange(LANE_MAX + 1) for _ in range(4))
                   for _ in range(5000)]
        for c in lane_chunks([tuple(map(bytes, zip(*vectors)))], 2):
            for cond, violates in VIOLATES.items():
                members = lanes(violates(*c.cols), c.count)  # (vx, vy, vu, vi) = f(∅), f(a), f(b), f(ab)
                assert members == [bool(violates(*vec)) for vec in chunk_vectors(c)], cond

    def test_first_function_of_a_bitset(self):
        vectors = list(islice(surjective_rank_vectors(8), 5000))
        chunks = list(lane_chunks([tuple(map(bytes, zip(*vectors)))], 3))
        assert [c.count for c in chunks] == [5000]
        c = chunks[-1]
        assert c.vector(c.full) == vectors[0]
        assert c.vector(c.full & -(1 << lane_bit(4999))) == vectors[-1]

    # the first 2 blocks of the n = 3 stream, a chunk each: 28,097 functions
    BLOCKS = list(islice(weak_order_columns(8), 2))
    VECTORS = [v for b in BLOCKS for v in zip(*b)]
    ENDS = list(accumulate(len(b[0]) for b in BLOCKS))

    @staticmethod
    def joined(chunks):
        """A stream's lanes laid end to end, one int per subset, whatever its chunks."""
        full, cols, shift = 0, [0] * 8, 0
        for c in chunks:
            full |= c.full << shift
            cols = [a | lane.bits << shift for a, lane in zip(cols, c.cols)]
            shift += 8 * c.count
        return full, cols

    def test_blocks_slice_as_their_tuples(self):
        assert self.ENDS == [9366, 28097] and len(self.VECTORS) == 28097
        chunks = list(lane_chunks(self.BLOCKS, 3))
        assert [c.count for c in chunks] == [9366, 18731]
        assert self.joined(chunks) == self.joined(lane_chunks([tuple(map(bytes, zip(*self.VECTORS)))], 3))
        assert [v for c in chunks for v in chunk_vectors(c)] == self.VECTORS

    def test_vector_and_dual_at_block_and_chunk_boundaries(self):
        # the edges of each block's chunk, and lanes every 4,096 functions of the stream inside it
        complements = [tuple(v[7 ^ m] for m in range(8)) for v in self.VECTORS]
        chunks = list(lane_chunks(self.BLOCKS, 3))
        offset = 0
        for c in chunks:
            d = c.dual()
            cuts = {0, c.count} | {k - offset for k in range(0, len(self.VECTORS), 4096) if 0 < k - offset < c.count}
            for k in sorted({k + e for k in cuts for e in (-1, 0)} & set(range(c.count))):
                lane = 1 << lane_bit(k)
                assert c.vector(lane) == self.VECTORS[offset + k], k
                assert d.vector(lane) == complements[offset + k], k
            offset += c.count
        assert offset == len(self.VECTORS)
        dual_block = tuple(map(bytes, zip(*complements)))
        assert self.joined(c.dual() for c in chunks) == self.joined(lane_chunks([dual_block], 3))

    GOOD = (b"\x00", b"\x01", b"\x02", b"\x03")
    BAD_BLOCKS = [
        GOOD[:3], GOOD + (b"\x00",),
        (b"\x00", b"\x00", b"\x00", b"\x00\x00"), (b"\x00\x00", b"\x00", b"\x00", b"\x00"),
        (b"\x00", b"\x00", b"\x00", (0,)), (b"\x00", b"\x00", b"\x00", "a"), (b"\x00", b"\x00", b"\x00", 0),
        (b"\x00", b"\x00", b"\x00", bytes((LANE_MAX + 1,))), (b"\x00", b"\x00", b"\x00", bytes((127,))),
        (b"\x00", b"\x00", b"\x00", bytes((128,))), (b"\x00", b"\x00", b"\x00", bytes((255,))),
        (b"\x00\x00", b"\x00\x00", b"\x00\x00", bytes((0, 255))),
    ]

    @pytest.mark.parametrize("bad", BAD_BLOCKS)
    def test_rejects_values_outside_the_lanes(self, bad):
        with pytest.raises(ValueError, match="0..63"):
            list(lane_chunks([self.GOOD, bad], 2))

    def test_one_chunk_per_block(self):
        # blocks of 3, 0, 5,000 and 1 vectors
        rng = random.Random(5)
        groups = [[tuple(rng.randrange(LANE_MAX + 1) for _ in range(4)) for _ in range(k)] for k in (3, 0, 5000, 1)]
        blocks = [tuple(map(bytes, zip(*g))) if g else (b"",) * 4 for g in groups]
        assert [chunk_vectors(c) for c in lane_chunks(blocks, 2)] == [g for g in groups if g]
        assert list(lane_chunks([(b"",) * 4], 2)) == []

    @pytest.mark.parametrize("bad", BAD_BLOCKS)
    def test_a_bad_block_is_refused_after_the_chunks_before_it(self, bad):
        chunks = lane_chunks([self.GOOD, (b"",) * 4, bad, self.GOOD], 2)
        assert chunk_vectors(next(chunks)) == [(0, 1, 2, 3)]
        with pytest.raises(ValueError, match="0..63"):
            next(chunks)

    def test_each_comparison_is_made_once_per_chunk(self):
        c = next(lane_chunks(weak_order_columns(8), 3))
        table, a, b = c.cols[0].table, c.cols[1], c.cols[2]
        assert not table
        lt = a < b  # b <= a, then its complement
        assert lt == c.full ^ (b <= a) and len(table) == 2
        assert (a < b) is lt and (b > a) is lt and len(table) == 2
        gt = a > b
        assert gt == c.full ^ (a <= b) and lt & gt == 0 and len(table) == 4
        assert (a > b) is gt and (b < a) is gt and len(table) == 4
        for cond in ConditionId:
            first = c.holds(cond)
            size = len(table)
            assert c.holds(cond) == first and len(table) == size, cond
        assert len(table) > 4


def _run_python(code, limit_bytes=None):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))

    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        preexec_fn=limit if limit_bytes else None, timeout=120,
    )


class TestKernelFootprint:
    def test_classify_n12_under_address_space_limit(self, tmp_path):
        # 4**12 pairs held as Python tuples would not fit in this limit
        path = tmp_path / "mod12.json"
        f = modular_plus_concave(12, list(range(1, 13)), [0] * 13)
        path.write_text(json.dumps(set_function_to_json(f)))
        code = f"import sys; from ordsub.cli import main; sys.exit(main(['classify', '--json', {str(path)!r}]))"
        proc = _run_python(code, limit_bytes=1536 * 1024 * 1024)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["results"]["OrdinarySubmodular"] is True

    @staticmethod
    def _imported_by_every_subcommand(tmp_path, modules):
        """Which of modules are imported after --version and every subcommand run in one process."""
        path = tmp_path / "f.json"
        path.write_text(json.dumps(set_function_to_json(random_function(6, distinct_values=4, seed=5))))
        f = str(path)
        argvs = [
            ["--version"], ["classify", "--json", "--witness", f], ["minimize", f],
            ["minimize", "--mode", "descent", "--start", "a,b", f], ["certify", "--point", "", f],
            ["hierarchy", f], ["hierarchy", "--json", f], ["constrained", f, f, "--k", "1"],
            ["verify", "--suite", "lemma1", "--n", "2"],
            ["generate", "random", "--n", "3"], ["search", "--n", "2", "--predicate", "Q4 & !Q3"],
        ]
        code = (
            "import contextlib, io, sys\n"
            "from ordsub.cli import main\n"
            f"for argv in {argvs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        try:\n"
            "            main(argv)\n"
            "        except SystemExit:\n"
            "            pass\n"
            f"print([m for m in {modules!r} if m in sys.modules])\n"
        )
        proc = _run_python(code)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_numpy_not_imported_by_version_verify_search(self, tmp_path):
        # nothing in the package imports numpy, whichever subcommand runs
        assert self._imported_by_every_subcommand(tmp_path, ["numpy"]) == "[]"

    def test_start_up_imports_no_code_introspection(self, tmp_path):
        # the records are built without dataclasses, which would pull in
        # inspect and, through it, ast, dis and tokenize at every start
        heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize"]
        assert self._imported_by_every_subcommand(tmp_path, heavy) == "[]"

    def test_only_a_rational_loads_fractions(self, tmp_path):
        # fractions loads decimal and numbers too; an integer classify needs
        # none of them, and neither does importing the CLI or --version
        heavy = ["fractions", "decimal", "numbers", "dataclasses", "inspect", "ast"]
        files = {}
        for kind, f in [("int", random_function(4, distinct_values=3, seed=2)),
                        ("rational", random_function(4, OrderedCodomain("rational"), 3, seed=2))]:
            files[kind] = tmp_path / f"{kind}.json"
            files[kind].write_text(json.dumps(set_function_to_json(f)))
        code = (
            "import contextlib, io, sys\n"
            "def loaded():\n"
            f"    return [m for m in {heavy!r} if m in sys.modules]\n"
            "import ordsub.cli as cli\n"
            "print(loaded())\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            "        cli.main(['--version'])\n"
            "    except SystemExit:\n"
            "        pass\n"
            "print(loaded())\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    status = cli.main(['classify', '--json', {str(files['int'])!r}])\n"
            "print(status, loaded())\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            f"    status = cli.main(['classify', {str(files['rational'])!r}])\n"
            "print(status, 'Q4' in out.getvalue(), 'fractions' in sys.modules)\n"
        )
        proc = _run_python(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "[]", "0 []", "0 True True"]
