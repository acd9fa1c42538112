"""Generator and enumerator tests.

The enumeration counts are checked against an independent oracle: the number
of surjective rank vectors on m points is sum over k of k! * S(m, k) with
S the Stirling numbers of the second kind, computed here by the standard
recurrence rather than by enumeration.
"""

import math
from fractions import Fraction

import pytest

from ordsub import (
    ConditionId,
    OrderedCodomain,
    check_qh,
    classify,
    cut_function,
    enumerate_linear_orders,
    enumerate_weak_orders,
    family_chain,
    is_injective,
    is_ordinary_submodular,
    modular_plus_concave,
    parse_predicate,
    random_function,
    search_witness,
)
from ordsub.generators import surjective_rank_vectors


def stirling2(m, k):
    if k == 0:
        return 1 if m == 0 else 0
    table = [[0] * (k + 1) for _ in range(m + 1)]
    table[0][0] = 1
    for i in range(1, m + 1):
        for j in range(1, k + 1):
            table[i][j] = j * table[i - 1][j] + table[i - 1][j - 1]
    return table[m][k]


def ordered_bell(m):
    return sum(math.factorial(k) * stirling2(m, k) for k in range(m + 1))


class TestSurjectiveRankVectors:
    def test_counts_match_stirling_oracle(self):
        for m in range(1, 6):
            assert sum(1 for _ in surjective_rank_vectors(m)) == ordered_bell(m)

    def test_n1_exact(self):
        assert list(surjective_rank_vectors(2)) == [(1, 1), (1, 2), (2, 1)]

    def test_lexicographic_and_distinct(self):
        vecs = list(surjective_rank_vectors(4))
        assert vecs == sorted(vecs)
        assert len(set(vecs)) == len(vecs) == 75

    def test_all_surjective(self):
        for vec in surjective_rank_vectors(4):
            assert set(vec) == set(range(1, max(vec) + 1))

    def test_contains_single_class(self):
        assert (1, 1, 1, 1) in set(surjective_rank_vectors(4))


class TestEnumerators:
    def test_weak_orders_counts(self):
        assert sum(1 for _ in enumerate_weak_orders(1)) == 3
        assert sum(1 for _ in enumerate_weak_orders(2)) == 75

    def test_weak_orders_n1_values(self):
        assert [f.values for f in enumerate_weak_orders(1)] == [(1, 1), (1, 2), (2, 1)]

    def test_cap(self):
        with pytest.raises(ValueError, match="capped"):
            list(enumerate_weak_orders(4))
        with pytest.raises(ValueError, match="capped"):
            list(enumerate_linear_orders(4))

    def test_linear_orders(self):
        assert [f.values for f in enumerate_linear_orders(1)] == [(1, 2), (2, 1)]
        fs = list(enumerate_linear_orders(2))
        assert len(fs) == math.factorial(4) == 24
        assert all(is_injective(f) for f in fs)
        assert all(check_qh(f) is None for f in fs)  # injective makes Qh vacuous


class TestCutFunction:
    def test_single_edge(self, f_cut):
        assert cut_function(2, [(0, 1, 1)]).values == f_cut.values

    def test_no_edges_is_constant(self):
        assert cut_function(2, []).values == (0, 0, 0, 0)

    def test_path_n3(self):
        f = cut_function(3, [(0, 1, 1), (1, 2, 1)])
        assert f.values == (0, 1, 2, 1, 1, 2, 1, 0)

    def test_rational_weights(self):
        f = cut_function(2, [(0, 1, Fraction(1, 2))])
        assert f.codomain.kind == "rational"
        assert f.values == (0, Fraction(1, 2), Fraction(1, 2), 0)

    def test_validation(self):
        with pytest.raises(ValueError, match="endpoints"):
            cut_function(2, [(1, 0, 1)])
        with pytest.raises(ValueError, match="endpoints"):
            cut_function(2, [(0, 2, 1)])
        with pytest.raises(ValueError, match="positive"):
            cut_function(2, [(0, 1, 0)])
        with pytest.raises(TypeError):
            cut_function(2, [(0, 1, 0.5)])

    def test_always_ordinary_submodular(self):
        import random

        for seed in range(20):
            rng = random.Random(seed)
            n = rng.randint(2, 4)
            edges = [
                (i, j, rng.randint(1, 5))
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.6
            ]
            assert is_ordinary_submodular(cut_function(n, edges))


class TestModularPlusConcave:
    def test_pure_modular(self, f_card):
        assert modular_plus_concave(2, [1, 1], [0, 0, 0]).values == f_card.values

    def test_pure_concave(self):
        assert modular_plus_concave(2, [0, 0], [0, 2, 3]).values == (0, 2, 2, 3)

    def test_mixed(self):
        assert modular_plus_concave(2, [1, 0], [0, 1, 1]).values == (0, 2, 1, 2)

    def test_non_concave_rejected(self):
        with pytest.raises(ValueError, match="not concave"):
            modular_plus_concave(2, [0, 0], [0, 1, 3])

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="weights"):
            modular_plus_concave(2, [1], [0, 0, 0])
        with pytest.raises(ValueError, match="entries"):
            modular_plus_concave(2, [1, 1], [0, 0])

    def test_always_ordinary_submodular(self):
        import random

        for seed in range(20):
            rng = random.Random(seed)
            n = rng.randint(2, 4)
            weights = [rng.randint(-3, 3) for _ in range(n)]
            g = [0]
            delta = rng.randint(0, 4)
            for _ in range(n):
                g.append(g[-1] + delta)
                delta -= rng.randint(0, 2)
            assert is_ordinary_submodular(modular_plus_concave(n, weights, g))


class TestRandomFunction:
    def test_deterministic(self):
        a = random_function(2, distinct_values=4, seed=7)
        b = random_function(2, distinct_values=4, seed=7)
        assert a.values == b.values
        assert classify(a).ordinal_vector() == classify(b).ordinal_vector()

    def test_distinct_value_count(self):
        for d in range(1, 5):
            f = random_function(2, distinct_values=d, seed=3)
            assert len(set(f.values)) == d

    def test_constant_when_one(self):
        f = random_function(2, distinct_values=1, seed=99)
        assert len(set(f.values)) == 1

    def test_two_level_chain(self):
        f = random_function(3, distinct_values=2, seed=1)
        assert family_chain(f).p == 2

    def test_range_checked(self):
        with pytest.raises(ValueError):
            random_function(2, distinct_values=5, seed=0)
        with pytest.raises(ValueError):
            random_function(2, distinct_values=0, seed=0)

    def test_codomains(self):
        f = random_function(2, OrderedCodomain("rational"), 3, seed=5)
        assert all(isinstance(v, Fraction) for v in f.values)
        cod = OrderedCodomain("labels", ("a", "b", "c"))
        g = random_function(2, cod, 2, seed=5)
        assert g.codomain == cod
        with pytest.raises(ValueError, match="labels"):
            random_function(2, OrderedCodomain("labels", ("x",)), 2, seed=0)


class TestPredicateParsing:
    def test_ascii_and_unicode(self):
        for text in ("Q4 & !Q3", "Q4 ∧ ¬Q3", "Q4&&!Q3"):
            p = parse_predicate(text)
            assert p.conditions() == {ConditionId.Q4, ConditionId.Q3}
            assert p.evaluate({ConditionId.Q4: True, ConditionId.Q3: False}.__getitem__)
            assert not p.evaluate({ConditionId.Q4: True, ConditionId.Q3: True}.__getitem__)

    def test_parens_and_or(self):
        p = parse_predicate("Qh & !(Q1 & Q2)")
        assert p.evaluate({ConditionId.QH: True, ConditionId.Q1: True, ConditionId.Q2: False}.__getitem__)
        p = parse_predicate("Q1 | Q2")
        assert p.evaluate({ConditionId.Q1: False, ConditionId.Q2: True}.__getitem__)

    def test_aliases(self):
        p = parse_predicate("quasisubmodular & ordinary & injective")
        assert p.conditions() == {ConditionId.QUASI, ConditionId.ORDINARY, ConditionId.INJECTIVE}

    def test_errors(self):
        with pytest.raises(ValueError, match="unknown condition"):
            parse_predicate("Q5")
        with pytest.raises(ValueError, match="unbalanced|trailing"):
            parse_predicate("(Q1 & Q2")
        with pytest.raises(ValueError, match="trailing"):
            parse_predicate("Q1 Q2")
        with pytest.raises(ValueError, match="syntax"):
            parse_predicate("Q1 & #")

    def test_nesting_bound(self):
        from ordsub.generators import MAX_PREDICATE_NESTING as k

        inner = "(" * (k - 1) + "!Q1" + ")" * (k - 1)
        assert parse_predicate(inner).evaluate({ConditionId.Q1: False}.__getitem__)
        for text in ("!" * (k + 1) + "Q1", "(" * k + "!Q1" + ")" * k):
            with pytest.raises(ValueError, match="nests too deeply"):
                parse_predicate(text)

    def test_mixed_chains(self):
        p = parse_predicate("Q1 & Q2 & Q3 | Q4 | !Qh")
        look = {ConditionId.Q1: True, ConditionId.Q2: True, ConditionId.Q3: False,
                ConditionId.Q4: False, ConditionId.QH: True}
        assert not p.evaluate(look.__getitem__)
        look[ConditionId.QH] = False
        assert p.evaluate(look.__getitem__)


class TestSearchWitness:
    def test_pinned_gap_witnesses(self):
        # frozen from the first full enumeration scan; regression fixtures
        assert search_witness(2, "Q4 & !Q3").values == (2, 1, 2, 3)
        assert search_witness(2, "Q1 & !Q2").values == (2, 1, 1, 1)
        assert search_witness(2, "Q2 & !Q1").values == (1, 1, 1, 2)
        assert search_witness(2, "Q3 & !(Q1 & Q2)").values == (1, 1, 1, 2)

    def test_found_functions_reverify(self):
        f = search_witness(2, "Q4 & !Q3")
        r = classify(f)
        assert r.flags[ConditionId.Q4] and not r.flags[ConditionId.Q3]

    def test_not_found(self):
        # at n = 1 every pair of subsets is comparable, so Q4 always holds
        assert search_witness(1, "!Q4") is None

    def test_string_or_parsed(self):
        p = parse_predicate("Q1 & !Q2")
        assert search_witness(2, p).values == search_witness(2, "Q1 & !Q2").values

    def test_cap(self):
        with pytest.raises(ValueError, match="capped"):
            search_witness(4, "Q1")

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("source", [
        "OrdinarySubmodular",
        "!OrdinarySubmodular",
        "Q1 & !OrdinarySubmodular",
        "Injective",
        "Injective & !Q3",
        "!Injective & !OrdinarySubmodular & Qh",
        "Quasi & !Ordinary",
    ])
    def test_ordinary_and_injective_match_classify(self, n, source):
        p = parse_predicate(source)
        want = next((f.values for f in enumerate_weak_orders(n) if p.evaluate(classify(f).flags.__getitem__)), None)
        found = search_witness(n, p)
        assert (found and found.values) == want
