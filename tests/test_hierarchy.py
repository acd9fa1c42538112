import pytest

from ordsub import (
    ChainError,
    ConditionId,
    GroundSet,
    LevelChain,
    check_condition,
    check_qh,
    enumerate_weak_orders,
    family_chain,
    level_family,
    levels,
    qh_from_chain,
    random_function,
)

from conftest import codomain_variants, intfn
from test_conditions import scalar_first_hit


class TestLevels:
    def test_examples(self, f_const, f_cut, f_r3):
        assert [v.key for v in levels(f_const).mu] == [0]
        assert levels(f_const).p == 1
        assert [v.key for v in levels(f_cut).mu] == [0, 1]
        assert [v.key for v in levels(f_r3).mu] == [0, 1, 2, 3]

    def test_strictly_increasing(self):
        for seed in range(10):
            f = random_function(3, distinct_values=4, seed=seed)
            mu = [v.key for v in levels(f).mu]
            assert all(a < b for a, b in zip(mu, mu[1:]))


class TestLevelFamily:
    def test_examples(self, f_cut):
        assert level_family(f_cut, 1) == (0, 3)
        assert level_family(f_cut, 2) == (0, 1, 2, 3)
        assert level_family(f_cut, 0) == ()

    def test_range_checked(self, f_cut):
        with pytest.raises(ValueError):
            level_family(f_cut, 3)
        with pytest.raises(ValueError):
            level_family(f_cut, -1)

    @pytest.mark.parametrize("i", [True, False, 1.0])
    def test_index_must_be_an_int(self, f_cut, i):
        with pytest.raises(TypeError, match="level index must be an int"):
            level_family(f_cut, i)

    def test_membership_definition(self):
        functions = [random_function(2, distinct_values=3, seed=seed) for seed in range(10)]
        for f in codomain_variants(functions):
            mu = f.distinct_keys()
            for i in range(1, len(mu) + 1):
                fam = set(level_family(f, i))
                for m in range(f.size):
                    assert (m in fam) == (f.values[m] <= mu[i - 1])


class TestFamilyChain:
    def test_examples(self, f_const, f_cut, f_card):
        assert family_chain(f_const).families == ((), (0, 1, 2, 3))
        assert family_chain(f_cut).families == ((), (0, 3), (0, 1, 2, 3))
        assert family_chain(f_card).families == ((), (0,), (0, 1, 2), (0, 1, 2, 3))

    def test_strict_nesting_everywhere(self):
        for f in codomain_variants(enumerate_weak_orders(2)):
            fams = family_chain(f).families
            assert fams[0] == ()
            assert fams[-1] == tuple(range(4))
            for a, b in zip(fams, fams[1:]):
                assert set(a) < set(b)

    def test_families_match_oracle(self):
        for f in codomain_variants(enumerate_weak_orders(2)):
            mu = sorted(set(f.values))
            expected = tuple(tuple(m for m in range(4) if f.values[m] <= cut) for cut in mu)
            assert family_chain(f).families == ((),) + expected


class TestCheckQh:
    def test_ok_examples(self, f_cut, f_r3):
        assert check_qh(f_cut) is None
        assert check_qh(f_r3) is None  # injective makes equal-value pairs vacuous

    def test_third_disjunct(self):
        assert check_qh(intfn([0, 1, 1, 1])) is None  # f(∩) = 0 < 1

    def test_witness(self):
        f = intfn([1, 0, 0, 1])
        w = check_qh(f)
        assert (w.x, w.y) == (1, 2)
        assert [v.key for v in (w.v_x, w.v_y, w.v_union, w.v_inter)] == [0, 0, 1, 1]
        assert w.reproduces()

    @staticmethod
    def assert_matches_oracle(f):
        w = check_qh(f)
        want = scalar_first_hit(ConditionId.QH, f.values, f.n)
        assert (w and ((w.x, w.y), w.condition)) == want

    def test_agrees_with_pairwise_checker_n2(self):
        for f in enumerate_weak_orders(2):
            self.assert_matches_oracle(f)

    def test_agrees_with_pairwise_checker_random_n3(self):
        for seed in range(40):
            self.assert_matches_oracle(random_function(3, distinct_values=(seed % 4) + 1, seed=seed))


class TestQhFromChain:
    def test_examples(self):
        g = GroundSet(("a", "b"))
        f = qh_from_chain(g, LevelChain(((), (0, 3), (0, 1, 2, 3))))
        assert f.values == (1, 2, 2, 1)
        assert check_qh(f) is None
        f = qh_from_chain(g, LevelChain(((), (0, 1, 2, 3))))
        assert f.values == (1, 1, 1, 1)
        f = qh_from_chain(g, LevelChain(((), (1,), (0, 1, 2, 3))))
        assert f.values == (2, 1, 2, 2)

    def test_round_trip(self, f_cut, f_card):
        for f in (f_cut, f_card):
            chain = family_chain(f)
            rebuilt = qh_from_chain(f.ground, chain)
            assert family_chain(rebuilt) == chain

    def test_rejects_qh_failing_chain(self):
        # the chain of [1, 0, 0, 1] induces [2, 1, 1, 2], which fails the equal-value condition
        g = GroundSet(("a", "b"))
        with pytest.raises(ChainError, match="does not induce"):
            qh_from_chain(g, family_chain(intfn([1, 0, 0, 1])))

    def test_rejects_bad_shapes(self):
        g = GroundSet(("a", "b"))
        with pytest.raises(ChainError, match="start with the empty family"):
            qh_from_chain(g, LevelChain(((0,), (0, 1, 2, 3))))
        with pytest.raises(ChainError, match="end with the full power set"):
            qh_from_chain(g, LevelChain(((), (0, 1))))
        with pytest.raises(ChainError, match="nest strictly"):
            qh_from_chain(g, LevelChain(((), (0, 1), (0, 1), (0, 1, 2, 3))))
        with pytest.raises(ChainError, match="nest strictly"):
            qh_from_chain(g, LevelChain(((), (0, 3), (0, 1), (0, 1, 2, 3))))
        with pytest.raises(IndexError):
            qh_from_chain(g, LevelChain(((), (7,), (0, 1, 2, 3))))

    def test_quasisubmodular_functions_pass_qh_n2(self):
        for f in enumerate_weak_orders(2):
            if check_condition(f, ConditionId.QUASI) is None:
                assert check_qh(f) is None
