"""Generator and enumerator tests.

The enumeration counts are checked against an independent oracle: the number
of surjective rank vectors on m points is sum over k of k! * S(m, k) with
S the Stirling numbers of the second kind, computed here by the standard
recurrence rather than by enumeration.
"""

import gc
import hashlib
import math
import random
import time
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
    run_suite,
    search_witness,
)
from ordsub.conditions import lane_chunks
from ordsub.generators import injective_rank_vectors, linear_order_columns, surjective_rank_vectors, weak_order_columns


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
        for m in range(9):
            assert sum(1 for _ in surjective_rank_vectors(m)) == ordered_bell(m)

    def test_n1_exact(self):
        assert list(surjective_rank_vectors(2)) == [(1, 1), (1, 2), (2, 1)]

    # strictly increasing, all surjective and the ordered Bell count together
    # fix the sequence; m = 8 is the size of the n = 3 suites
    def test_lexicographic_and_distinct(self):
        for m in (4, 8):
            vecs = surjective_rank_vectors(m)
            prev = next(vecs)
            for vec in vecs:
                assert prev < vec
                prev = vec

    def test_all_surjective(self):
        for m in (4, 8):
            for vec in surjective_rank_vectors(m):
                assert set(vec) == set(range(1, max(vec) + 1))

    def test_contains_single_class(self):
        assert (1, 1, 1, 1) in set(surjective_rank_vectors(4))

    def test_blocks_hold_whole_vectors(self):
        for m in range(1, 9):
            assert all(len(block) == m and block[0] and len(set(map(len, block))) == 1
                       for block in weak_order_columns(m)), m

    def test_n3_stream_digest(self):
        # SHA-256 of the whole m = 8 stream, pinned from the per-vector enumerator the blocks replaced
        digest = hashlib.sha256()
        for vec in surjective_rank_vectors(8):
            digest.update(bytes(vec))
        assert digest.hexdigest() == "8ec11100a18dd86957c7e8662d834d9e43d4db0e134370a688faa0fd2c998a03"


class TestLinearOrderColumns:
    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    def test_blocks_read_as_the_permutations_one_chunk_each(self, m):
        blocks = list(linear_order_columns(m))
        assert [vec for block in blocks for vec in zip(*block)] == list(injective_rank_vectors(m))
        assert [c.count for c in lane_chunks(blocks, m.bit_length() - 1)] == [len(block[0]) for block in blocks]

    def test_n3_stream_is_56_blocks_of_720(self):
        assert [len(block[0]) for block in linear_order_columns(8)] == [720] * 56


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

    @pytest.mark.parametrize("n", [True, False, 2.0, "2", None])
    def test_n_must_be_an_int(self, n):
        # a bool is an int to Python, and True would otherwise run as n = 1
        for run in (enumerate_weak_orders, enumerate_linear_orders, lambda n: [search_witness(n, "Q1")],
                    lambda n: [run_suite("lemma1", n)]):
            with pytest.raises(TypeError, match="n must be an int"):
                list(run(n))

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


_NAMES = ("Q1", "q2", "Q3", "Q4", "Qh", "QH", "quasi", "Quasi", "QuasiSubmodular", "ordinary",
          "OrdinarySubmodular", "injective", "INJECTIVE", "Q5", "Q1x", "x")
_UNARY = ("!", "¬", "~")
_BINARY = ("&", "|", "∧", "∨", "&&", "||")
_JUNK = ("#", "1a", "∪", "é", "9", "$", "\x1f")
_BLANKS = ("", " ", " ", " ", "  ", "\t", "\n", "\xa0", "\u2028")


def predicate_corpus(seed, count):
    """count seeded predicates: well-formed ones, the same with one token
    inserted, dropped or replaced, token soup, nests of ! and ( 90-110 deep,
    and the odd chain of up to 3,000 terms, joined by random blanks."""
    rng = random.Random(seed)
    pieces = _NAMES + _UNARY + _BINARY + ("(", ")") + _JUNK

    def expr(d):
        r = rng.random()
        if d <= 0 or r < 0.3:
            return [rng.choice(_NAMES)]
        if r < 0.45:
            return [rng.choice(_UNARY)] + expr(d - 1)
        if r < 0.6:
            return ["("] + expr(d - 1) + [")"]
        op, out = rng.choice(_BINARY), expr(d - 1)
        for _ in range(rng.randint(1, 4)):
            out += [op] + expr(d - 1)
        return out

    for _ in range(count):
        r = rng.random()
        if r < 0.01:
            opens = [rng.choice("!(") for _ in range(rng.randint(90, 110))]
            closes = [")" for t in opens if t == "(" and rng.random() > 0.002]
            tokens = opens + expr(2) + closes
        elif r < 0.0115:
            tokens = ["("] * rng.randint(0, 90) + [rng.choice(_NAMES[:6]), "&"] * rng.randint(1, 1500) + ["Q1"]
        elif r < 0.6:
            tokens = expr(rng.randint(0, 4))
            i, kind = rng.randint(0, len(tokens)), rng.random()
            if kind < 0.2:
                tokens.insert(i, rng.choice(pieces))
            elif kind < 0.4:
                del tokens[i - 1:i]
            elif kind < 0.6:
                tokens[i - 1:i] = [rng.choice(pieces)]
        else:
            tokens = [rng.choice(pieces) for _ in range(rng.randint(0, 10))]
        text = rng.choice(_BLANKS).join(tokens) if rng.random() < 0.5 else \
            "".join(t + rng.choice(_BLANKS) for t in tokens)
        yield rng.choice(("", "", " ", "\t")) + text


def parse_outcome(text):
    """The AST's repr, or the exact error line."""
    try:
        return repr(parse_predicate(text).ast)
    except ValueError as err:
        return f"ValueError: {err}"


_ORACLE_FLAGS = (ConditionId.Q1, ConditionId.Q4, ConditionId.QH, ConditionId.INJECTIVE)
_ALIAS_OF = {"Q1": ConditionId.Q1, "q1": ConditionId.Q1, "Q4": ConditionId.Q4, "Qh": ConditionId.QH,
             "QH": ConditionId.QH, "injective": ConditionId.INJECTIVE, "Injective": ConditionId.INJECTIVE}
_PYTHON = {"!": "not", "¬": "not", "~": "not", "&": "and", "∧": "and", "&&": "and",
           "|": "or", "∨": "or", "||": "or", "(": "(", ")": ")"}


def _well_formed(rng, d):
    """The tokens of a seeded well-formed predicate over the four oracle flags, d levels deep at most."""
    r = rng.random()
    if d <= 0 or r < 0.25:
        return [rng.choice(tuple(_ALIAS_OF))]
    if r < 0.4:
        return [rng.choice(_UNARY)] + _well_formed(rng, d - 1)
    if r < 0.55:
        return ["("] + _well_formed(rng, d - 1) + [")"]
    out = _well_formed(rng, d - 1)
    for _ in range(rng.randint(1, 3)):
        out += [rng.choice(_BINARY)] + _well_formed(rng, d - 1)
    return out


class TestPredicateParsing:
    def test_corpus_digest(self):
        # every AST and error line of 20,000 seeded predicates, pinned when the parser was rewritten
        digest = hashlib.sha256()
        for text in predicate_corpus(29, 20_000):
            digest.update(f"{text}\0{parse_outcome(text)}\n".encode())
        assert digest.hexdigest() == "c35cf28752c4741bcc6b7768f58fdef3bfd66f757efab81ac04be09eb51f3582"

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
        # the echo starts after the last whole token, blanks before the bad character included
        for text, rest in [("Q1 & 1a", "' 1a'"), ("  #", "'  #'"), ("Q1 ∪ Q2", "' ∪ Q2'")]:
            with pytest.raises(ValueError) as err:
                parse_predicate(text)
            assert str(err.value) == f"predicate syntax error at {rest}"
        # a missing condition is reported as the predicate's end, or as the operator found in its place
        for text in ("", "Q1 &", "!", "(", "Q1 & !"):
            with pytest.raises(ValueError) as err:
                parse_predicate(text)
            assert str(err.value) == f"predicate {text!r} ends where a condition belongs"
        for text, found in [("Q1 | | Q2", "|"), ("& Q1", "&"), ("(Q1 & )", ")"), ("()", ")")]:
            with pytest.raises(ValueError) as err:
                parse_predicate(text)
            assert str(err.value) == f"expected a condition, found {found!r}, in predicate {text!r}"

    def test_nesting_bound(self):
        from ordsub.generators import MAX_PREDICATE_NESTING as k

        inner = "(" * (k - 1) + "!Q1" + ")" * (k - 1)
        assert parse_predicate(inner).evaluate({ConditionId.Q1: False}.__getitem__)
        for text in ("!" * (k + 1) + "Q1", "(" * k + "!Q1" + ")" * k):
            with pytest.raises(ValueError, match="nests too deeply"):
                parse_predicate(text)

    def test_tree_height_bound(self):
        # a chain of & counts by the height of its balanced tree
        from ordsub.generators import MAX_PREDICATE_NESTING as k

        look = {ConditionId.Q1: True, ConditionId.Q2: True}
        assert not parse_predicate("!" * (k - 1) + "(Q1 & Q2)").evaluate(look.__getitem__)
        chains = "Q1"
        for _ in range(k // 4 + 1):  # each level a chain of 16, of height 4
            chains = "(" + " & ".join(["Q2"] * 15 + [chains]) + ")"
        for text in ("!" * (k - 1) + "(Q1 & Q2 & Q3)", chains):
            with pytest.raises(ValueError, match="nests too deeply"):
                parse_predicate(text)

    def test_mixed_chains(self):
        p = parse_predicate("Q1 & Q2 & Q3 | Q4 | !Qh")
        look = {ConditionId.Q1: True, ConditionId.Q2: True, ConditionId.Q3: False,
                ConditionId.Q4: False, ConditionId.QH: True}
        assert not p.evaluate(look.__getitem__)
        look[ConditionId.QH] = False
        assert p.evaluate(look.__getitem__)

    def test_meaning_matches_python(self):
        # ! & | bind like Python's not, and, or: each predicate, rewritten so, is the oracle for
        # every assignment of its flags, as bools and as one 16-lane bitset
        rng = random.Random(7)
        for _ in range(1500):
            tokens = _well_formed(rng, rng.randint(0, 5))
            text = "".join(t + rng.choice(_BLANKS[1:]) for t in tokens)
            python = " ".join(_PYTHON.get(t) or f"v{_ORACLE_FLAGS.index(_ALIAS_OF[t])}" for t in tokens)
            p, code = parse_predicate(text), compile(python, "<oracle>", "eval")
            want = [bool(eval(code, {f"v{i}": a >> i & 1 for i in range(4)})) for a in range(16)]
            for a in range(16):
                look = {c: bool(a >> i & 1) for i, c in enumerate(_ORACLE_FLAGS)}
                assert p.evaluate(look.__getitem__) == want[a], (text, a)
            lanes = {c: sum(1 << a for a in range(16) if a >> i & 1) for i, c in enumerate(_ORACLE_FLAGS)}
            assert p.evaluate(lanes.__getitem__, 0xFFFF) == sum(w << a for a, w in enumerate(want)), text

    def test_parse_leaves_no_cyclic_garbage(self):
        # the parser recurses through module-level functions, whose frames form no cycle
        parse_predicate("Q1")  # compiles the token pattern
        gc.collect()
        gc.disable()
        try:
            parse_predicate("Qh & !(Q1 & Q2)")
            try:
                parse_predicate("Qh & !(Q1 & Q2")
            except ValueError:
                pass
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_trailing_blanks_scan_in_linear_time(self):
        # a scan that ran from each trailing blank to the end, and failed there, was quadratic: seconds for these
        start = time.perf_counter()
        assert parse_predicate("Q1" + " " * 30_000).conditions() == {ConditionId.Q1}
        assert time.perf_counter() - start < 1


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

    @pytest.mark.parametrize("source", ["Q4 & !Q3", "Q1 & !Q3"])
    def test_leaves_no_cyclic_garbage(self, source):
        # a reference cycle would keep each chunk's flag bitsets alive until the cyclic collector runs
        p = parse_predicate(source)
        gc.collect()
        gc.disable()
        try:
            search_witness(2, p)
            assert gc.collect() == 0
        finally:
            gc.enable()

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
