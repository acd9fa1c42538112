import pytest

from ordsub import ConditionId, SUITE_NAMES, check_condition, enumerate_weak_orders, run_suite


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
