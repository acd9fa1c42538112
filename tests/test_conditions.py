"""Condition checks, cross-validated against an independent oracle.

The oracle below evaluates the conditions in their implication forms over the
full 4**n pair table, while the library scans disjunctive forms over
incomparable pairs only; the two must agree everywhere.
"""

import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
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
    pairwise_q3_equivalence,
    random_function,
    set_function_to_json,
)
from ordsub import kernel
from ordsub.conditions import (
    _VIOLATION_SCANNERS,
    ClassReport,
    _quasi_violation,
    incomparable_pair_table,
    injective_witness,
)
from ordsub.generators import surjective_rank_vectors

from conftest import intfn


# Oracle: implication forms, all ordered pairs, no shortcuts.

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
    raise AssertionError(cond)


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


class TestPairwiseQ3Equivalence:
    def test_fixtures(self, f_r3, f_const):
        assert pairwise_q3_equivalence(f_r3)
        assert pairwise_q3_equivalence(f_const)

    def test_all_n2(self):
        assert all(pairwise_q3_equivalence(f) for f in enumerate_weak_orders(2))


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
        # Quasi => Q1 and Q2; Q1 => Q3; Q2 => Q3; Q3 => Q4, over all 545,835
        # weak orders on 8 subsets (raw kernels keep this to a few seconds)
        from ordsub.conditions import (
            _q1_violation,
            _q2_violation,
            _q3_violation,
            _q4_violation,
            _quasi_violation,
            incomparable_pair_table,
        )
        pairs = incomparable_pair_table(3)
        count = 0
        for vec in surjective_rank_vectors(8):
            count += 1
            q3 = _q3_violation(vec, pairs) is None
            q1 = _q1_violation(vec, pairs) is None
            q2 = _q2_violation(vec, pairs) is None
            if q1 or q2:
                assert q3
            if q3:
                assert _q4_violation(vec, pairs) is None
            if _quasi_violation(vec, pairs) is None:
                assert q1 and q2
        assert count == 545_835


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


# Kernel parity: the numpy rank kernel against the raw scalar scanners, which
# walk the incomparable pairs one at a time in lexicographic order.

def lazy_incomparable_pairs(n):
    size = 1 << n
    for x in range(size):
        for y in range(size):
            if x & y not in (x, y):
                yield (x, y, x | y, x & y)


def scalar_first_hit(cond, vals, n):
    """First (X, Y) and reported condition from the raw scanners, or None."""
    pairs = incomparable_pair_table(n) if n <= 3 else lazy_incomparable_pairs(n)
    if cond is ConditionId.QUASI:
        hit = _quasi_violation(vals, pairs)
        return None if hit is None else (hit[0][:2], hit[1])
    pair = _VIOLATION_SCANNERS[cond](vals, pairs)
    return None if pair is None else (pair[:2], cond)


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


def assert_matches_scanners(f):
    for cond, got in kernel_hits(f).items():
        assert got == scalar_first_hit(cond, f.values, f.n), (f.values, cond)


class TestKernelParity:
    def test_weak_orders_n_le_2(self):
        for n in (1, 2):
            for f in enumerate_weak_orders(n):
                assert_matches_scanners(f)

    def test_every_50th_weak_order_n3(self):
        for k, vec in enumerate(surjective_rank_vectors(8)):
            if k % 50 == 0:
                assert_matches_scanners(intfn(vec))

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
                assert_matches_scanners(random_function(n, cod, d, seed=100 * n + seed))

    @pytest.mark.parametrize("n", range(4, 8))
    def test_submodular_families_small(self, n):
        g = [Fraction(-k * k, 3) for k in range(n + 1)]
        for f in (
            modular_plus_concave(n, list(range(1, n + 1)), [0] * (n + 1)),
            modular_plus_concave(n, [(-1) ** k * k for k in range(n)], g),
            cut_function(n, [(k, k + 1, Fraction(k + 1, 2)) for k in range(n - 1)]),
        ):
            assert_matches_scanners(f)

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
                assert_matches_scanners(f)

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
                        tags = [c for c in (ConditionId.Q1, ConditionId.Q2) if not holds_at_pair(f, c, p[0], p[1])]
                        if tags:
                            want.append((p[:2], tags[0]))
                    elif not holds_at_pair(f, cond, p[0], p[1]):
                        want.append((p[:2], cond))
                assert [((w.x, w.y), w.condition) for w in iter_witnesses(f, cond)] == want

    def test_exact_ints_overflow_falls_back_to_python_ints(self):
        assert kernel.exact_ints([1, -(2**61)]).dtype.kind == "i"
        assert kernel.exact_ints([1, 2**62]).dtype.kind == "O"
        assert list(kernel.exact_ints([Fraction(1, 3), Fraction(1, 2), 2])) == [2, 3, 12]


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
