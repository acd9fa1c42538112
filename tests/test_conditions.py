"""Condition checks, cross-validated against an independent oracle.

The oracle below evaluates the conditions in their implication forms, one
pair at a time, while the library evaluates the violation predicates of
``VIOLATES`` over blocks of pairs (the numpy kernel) or over chunks of
functions (the bit-sliced lanes); they must agree everywhere.
"""

import json
import os
import random
import resource
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, islice, product
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
from ordsub import kernel
from ordsub.conditions import LANE_MAX, VIOLATES, ClassReport, incomparable_pair_table, injective_witness, lane_chunks
from ordsub.generators import surjective_rank_vectors

from conftest import intfn


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
            for cond in PAIRWISE:
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

    def test_threads_identical(self, monkeypatch, f_r3, f_q1nq2):
        # the scan was once split across worker threads and is now split into
        # row blocks; no split may move a witness
        fs = (f_r3, f_q1nq2, random_function(6, distinct_values=4, seed=5))
        conds = PAIRWISE + [ConditionId.QUASI]
        want = [[check_condition(f, c) for c in conds] for f in fs]
        monkeypatch.setattr(kernel, "FIRST_BLOCK", 1)
        monkeypatch.setattr(kernel, "BLOCK", 1)
        assert [[check_condition(f, c) for c in conds] for f in fs] == want

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

    def test_threads_identical(self, monkeypatch, f_r3):
        # one row per block, the finest split of the scan
        fs = (f_r3, random_function(6, distinct_values=4, seed=5))
        want = [(classify(f).flags, classify(f).witnesses) for f in fs]
        monkeypatch.setattr(kernel, "FIRST_BLOCK", 1)
        monkeypatch.setattr(kernel, "BLOCK", 1)
        assert [(classify(f).flags, classify(f).witnesses) for f in fs] == want

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


# Kernel parity: the numpy rank kernel against the oracle, which walks the
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

    @pytest.mark.parametrize("first, block", [(1, 1), (1, 7), (1, 1 << 18), (64, 64), (1 << 10, 1 << 12)])
    def test_block_size_does_not_move_witnesses(self, monkeypatch, first, block):
        # a modular function lowered at one late subset fails first at a late
        # row X, so block boundaries fall before the witness
        cases = []
        for n, mask in ((6, 0b100000), (6, 0b111110), (8, 0b10000001), (10, 0b1111111110)):
            base = modular_plus_concave(n, list(range(1, n + 1)), [0] * (n + 1))
            vals = list(base.values)
            vals[mask] = -1
            cases.append(intfn(vals))
        cases.append(random_function(9, distinct_values=5, seed=3))
        expected = [kernel_hits(f) for f in cases]
        monkeypatch.setattr(kernel, "FIRST_BLOCK", first)
        monkeypatch.setattr(kernel, "BLOCK", block)
        for f, want in zip(cases, expected):
            assert kernel_hits(f) == want
            if f.n <= 8:
                assert_matches_oracle(f)

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
        assert kernel.exact_ints([1, -(2**61)]).dtype.kind == "i"
        assert kernel.exact_ints([1, 2**62]).dtype.kind == "O"
        assert list(kernel.exact_ints([Fraction(1, 3), Fraction(1, 2), 2])) == [2, 3, 12]


# The bit-sliced evaluator: VIOLATES over chunks of functions, one lane each.

def lanes(bits, count):
    """Membership of each of a chunk's count functions in a bitset."""
    text = format(bits, "b").zfill(16 * count)[::-1]
    return [text[16 * k + 8] == "1" for k in range(count)]


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
            for c in lane_chunks(vectors, n):
                count = len(c.vectors)
                hits = {cond: [lanes(bits, count) for bits in c.hits(cond)] for cond in conds}
                holds = {cond: lanes(c.holds(cond), count) for cond in conds + [ConditionId.INJECTIVE]}
                for k, vec in enumerate(c.vectors):
                    for cond in conds:
                        want = scalar_first_hit(cond, vec, n)
                        first = next((p[:2] for p, member in zip(pairs, hits[cond]) if member[k]), None)
                        assert first == (want and want[0]), (vec, cond)
                        assert holds[cond][k] == (want is None), (vec, cond)
                    assert holds[ConditionId.INJECTIVE][k] == (len(set(vec)) == len(vec)), vec

    def test_predicates_across_the_lane_range(self):
        # values at both ends of 0..LANE_MAX, where a sum comes closest to the guard bit;
        # 5,000 functions fill one chunk and part of a second
        rng = random.Random(7)
        ends = (0, 1, LANE_MAX - 1, LANE_MAX)
        vectors = [tuple(rng.choice(ends) if rng.random() < 0.7 else rng.randrange(LANE_MAX + 1) for _ in range(4))
                   for _ in range(5000)]
        for c in lane_chunks(vectors, 2):
            for cond, violates in VIOLATES.items():
                members = lanes(violates(*c.cols), len(c.vectors))  # (vx, vy, vu, vi) = f(∅), f(a), f(b), f(ab)
                assert members == [bool(violates(*vec)) for vec in c.vectors], cond

    def test_first_function_of_a_bitset(self):
        vectors = list(islice(surjective_rank_vectors(8), 5000))
        chunks = list(lane_chunks(vectors, 3))
        assert [len(c.vectors) for c in chunks] == [4096, 904]
        c = chunks[1]
        assert c.vector(c.full) == vectors[4096]
        assert c.vector(c.full & -(1 << (16 * 903))) == vectors[-1]

    @pytest.mark.parametrize("bad", [(0, 0, 0, LANE_MAX + 1), (0, 0, 0, -1), (0, 0, 0), (0, 0, 0, 0, 0),
                                     (0, 0, 0, Fraction(1, 2))])
    def test_rejects_values_outside_the_lanes(self, bad):
        with pytest.raises(ValueError, match="0..127"):
            list(lane_chunks([(0, 1, 2, 3), bad], 2))


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

    def test_numpy_not_imported_by_version_verify_search(self):
        code = (
            "import contextlib, io, sys\n"
            "from ordsub import run_suite, search_witness\n"
            "from ordsub.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            "        main(['--version'])\n"
            "    except SystemExit:\n"
            "        pass\n"
            "run_suite('lemma1', 2)\n"
            "search_witness(2, 'Q4 & !Q3')\n"
            "print('numpy' in sys.modules)\n"
        )
        proc = _run_python(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
