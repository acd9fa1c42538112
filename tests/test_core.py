from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ordsub import (
    INTEGERS,
    GroundSet,
    IntervalSublattice,
    OrderedCodomain,
    SetFunction,
)
from ordsub.core import submasks

from conftest import intfn


def small_int_functions(max_n=3):
    """Hypothesis strategy: integer functions on 1..max_n elements."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(st.integers(-6, 6), min_size=1 << n, max_size=1 << n).map(
            lambda vals: intfn(vals, n)
        )
    )


class TestGroundSet:
    def test_basic(self):
        g = GroundSet(("a", "b", "c"))
        assert g.n == 3 and g.size == 8 and g.full_mask == 7

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            GroundSet(())

    def test_empty_allowed_internally(self):
        g = GroundSet((), allow_empty=True)
        assert g.n == 0 and g.size == 1

    def test_too_large(self):
        with pytest.raises(ValueError):
            GroundSet(tuple(f"e{i}" for i in range(21)))

    def test_duplicate_names(self):
        with pytest.raises(ValueError):
            GroundSet(("a", "a"))

    def test_bad_names(self):
        with pytest.raises(ValueError):
            GroundSet(("a", ""))
        with pytest.raises(ValueError):
            GroundSet(("a,b",))
        for name in (" a", "a ", "\ta", "a\n"):
            with pytest.raises(ValueError, match="whitespace"):
                GroundSet((name, "b"))
        assert GroundSet(("a b", "c")).mask_of(" a b ,c") == 3

    def test_mask_of(self):
        g = GroundSet(("a", "b", "c"))
        assert g.mask_of("") == 0
        assert g.mask_of("a,c") == 5
        assert g.mask_of(["c", "a"]) == 5
        with pytest.raises(ValueError):
            g.mask_of("z")
        with pytest.raises(ValueError):
            g.mask_of("a,a")

    def test_names_round_trip(self):
        g = GroundSet(("a", "b", "c"))
        for m in range(8):
            assert g.mask_of(g.subset_str(m)) == m

    def test_check_mask(self):
        g = GroundSet(("a", "b"))
        with pytest.raises(IndexError):
            g.check_mask(4)
        with pytest.raises(IndexError):
            g.check_mask(-1)
        with pytest.raises(TypeError):
            g.check_mask("3")


class TestOrderedCodomain:
    def test_kinds(self):
        assert OrderedCodomain("integer").is_numeric
        assert OrderedCodomain("rational").is_numeric
        assert not OrderedCodomain("labels", ("lo", "hi")).is_numeric
        with pytest.raises(ValueError):
            OrderedCodomain("real")

    def test_labels_validation(self):
        with pytest.raises(ValueError):
            OrderedCodomain("labels")
        with pytest.raises(ValueError):
            OrderedCodomain("labels", ("x", "x"))
        with pytest.raises(ValueError):
            OrderedCodomain("integer", ("x",))

    def test_float_and_bool_rejected(self):
        for kind in ("integer", "rational"):
            cod = OrderedCodomain(kind)
            with pytest.raises(TypeError):
                cod.key_of(1.5)
            with pytest.raises(TypeError):
                cod.key_of(True)

    def test_rational_canonical(self):
        cod = OrderedCodomain("rational")
        assert cod.key_of([2, 4]) == Fraction(1, 2)
        assert cod.key_of([1, -2]) == Fraction(-1, 2)
        assert cod.key_of([1, -2]).denominator == 2  # positive denominator
        assert cod.key_of(3) == Fraction(3)
        with pytest.raises(ValueError):
            cod.key_of([1, 0])

    def test_label_keys(self):
        cod = OrderedCodomain("labels", ("low", "mid", "high"))
        assert cod.key_of("mid") == 1
        assert cod.key_of(1) == 1  # positions pass through
        with pytest.raises(ValueError):
            cod.key_of("huge")
        with pytest.raises(ValueError):
            cod.key_of(7)

    def test_display(self):
        assert OrderedCodomain("rational").display(Fraction(1, 2)) == "1/2"
        assert OrderedCodomain("rational").display(Fraction(3)) == "3"
        assert OrderedCodomain("labels", ("low", "hi")).display(0) == "low"


class TestOrdinalValue:
    def test_comparisons(self):
        a = INTEGERS.value(1)
        b = INTEGERS.value(2)
        assert a < b and a <= b and b > a and b >= a and a != b
        assert a == INTEGERS.value(1)

    def test_cross_codomain_comparison_is_error(self):
        a = INTEGERS.value(1)
        b = OrderedCodomain("rational").value(1)
        with pytest.raises(ValueError):
            a < b  # noqa: B015
        with pytest.raises(ValueError):
            a == b  # noqa: B015

    def test_label_order_follows_position(self):
        cod = OrderedCodomain("labels", ("low", "mid", "high"))
        assert cod.value("low") < cod.value("high")


class TestSetFunction:
    def test_length_checked(self):
        with pytest.raises(ValueError):
            intfn([0, 1, 2], n=2)

    def test_values_coerced_to_codomain(self):
        with pytest.raises(TypeError):
            SetFunction(GroundSet(("a",)), INTEGERS, (0, 1.5))

    def test_immutable(self, f_r3):
        with pytest.raises(AttributeError):
            f_r3.values = (0, 0, 0, 0)

    def test_evaluate_examples(self, f_const, f_r3, f_cut):
        assert f_const.value(3).key == 0
        assert f_r3.value(1).key == 0
        assert f_cut.value(2).key == 1

    def test_evaluate_out_of_range(self, f_r3):
        with pytest.raises(IndexError):
            f_r3.value(4)
        with pytest.raises(IndexError):
            f_r3.value(-1)


class TestComplementDual:
    def test_examples(self, f_const, f_q1nq2, f_cut):
        assert f_const.complement_dual().values == (0, 0, 0, 0)
        assert f_q1nq2.complement_dual().values == (2, 2, 0, 1)
        assert f_cut.complement_dual().values == (0, 1, 1, 0)

    @given(small_int_functions())
    def test_involution(self, f):
        assert f.complement_dual().complement_dual().values == f.values


class TestOrderDual:
    def test_examples(self, f_const, f_card):
        assert f_const.order_dual().values == (0, 0, 0, 0)
        assert f_card.order_dual().values == (0, -1, -1, -2)

    def test_involution(self, f_r3):
        assert f_r3.order_dual().order_dual().values == f_r3.values

    def test_labels(self):
        cod = OrderedCodomain("labels", ("low", "mid", "high"))
        f = SetFunction(GroundSet(("a",)), cod, ("low", "high"))
        d = f.order_dual()
        assert d.codomain.label_order == ("high", "mid", "low")
        # each subset keeps its label, under the reversed order
        assert [d.value(m).display() for m in range(2)] == ["low", "high"]
        assert d.order_dual().values == f.values
        assert d.order_dual().codomain == f.codomain

    @given(small_int_functions())
    def test_involution_random(self, f):
        assert f.order_dual().order_dual().values == f.values


class TestMonotoneTransform:
    def test_examples(self, f_cut, f_const, f_r3):
        assert f_cut.monotone_transform([(0, 10), (1, 30)]).values == (10, 30, 30, 10)
        assert f_const.monotone_transform([(0, 0)]).values == (0, 0, 0, 0)
        assert f_r3.monotone_transform([(0, 0), (1, 1), (2, 4), (3, 9)]).values == (1, 0, 4, 9)

    def test_incomplete_rejected(self, f_r3):
        with pytest.raises(ValueError):
            f_r3.monotone_transform([(0, 0), (1, 1)])

    def test_non_strict_rejected(self, f_cut):
        with pytest.raises(ValueError):
            f_cut.monotone_transform([(0, 5), (1, 5)])
        with pytest.raises(ValueError):
            f_cut.monotone_transform([(0, 5), (1, 4)])

    def test_duplicate_source_rejected(self, f_cut):
        with pytest.raises(ValueError):
            f_cut.monotone_transform([(0, 1), (0, 2), (1, 3)])

    def test_extra_pairs_allowed(self, f_cut):
        assert f_cut.monotone_transform([(0, 0), (1, 2), (7, 9)]).values == (0, 2, 2, 0)

    def test_codomain_switch(self, f_cut):
        cod = OrderedCodomain("rational")
        g = f_cut.monotone_transform([(0, Fraction(1, 3)), (1, Fraction(1, 2))], codomain=cod)
        assert g.values == (Fraction(1, 3), Fraction(1, 2), Fraction(1, 2), Fraction(1, 3))


class TestRestrict:
    def test_full_interval_identity(self, f_r3):
        g = f_r3.restrict(IntervalSublattice(0, 3))
        assert g.values == f_r3.values and g.ground.elements == ("a", "b")

    def test_sub_interval(self, f_r3):
        g = f_r3.restrict(IntervalSublattice(1, 3))
        assert g.ground.elements == ("b",)
        assert g.values == (0, 3)

    def test_degenerate_interval(self, f_cut):
        g = f_cut.restrict(IntervalSublattice(1, 1))
        assert g.ground.n == 0
        assert g.values == (1,)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            IntervalSublattice(2, 1)

    def test_out_of_range(self, f_cut):
        with pytest.raises(IndexError):
            f_cut.restrict(IntervalSublattice(0, 7))


class TestIntervalSublattice:
    def test_members_ascending(self):
        box = IntervalSublattice(1, 7)
        members = list(box.members())
        assert members == [1, 3, 5, 7]
        assert box.cardinality == 4
        assert all(box.contains(m) for m in members)
        assert not box.contains(0) and not box.contains(2)

    def test_submasks(self):
        assert list(submasks(5)) == [0, 1, 4, 5]
        assert list(submasks(0)) == [0]
