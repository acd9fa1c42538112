import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from ordsub import (
    GroundSet,
    OrderedCodomain,
    SetFunction,
    chain_to_json,
    load_chain,
    load_set_function,
    parse_chain,
    parse_set_function,
    random_function,
    set_function_to_json,
)


def roundtrip(f, form):
    return parse_set_function(set_function_to_json(f, form=form))


class TestSetFunctionFormat:
    def test_dense_example(self):
        f = parse_set_function(
            {"ground_set": ["a", "b"], "codomain": {"kind": "integer"}, "values_dense": [1, 0, 2, 3]}
        )
        assert f.values == (1, 0, 2, 3)
        assert f.ground.elements == ("a", "b")

    def test_sparse_example(self):
        f = parse_set_function(
            {"ground_set": ["a", "b"], "values": {"": 1, "a": 0, "b": 2, "a,b": 3}}
        )
        assert f.values == (1, 0, 2, 3)

    def test_dense_and_sparse_agree(self, f_r3):
        assert roundtrip(f_r3, "dense").values == roundtrip(f_r3, "sparse").values

    def test_rational_encoding(self):
        f = parse_set_function(
            {
                "ground_set": ["a"],
                "codomain": {"kind": "rational"},
                "values_dense": [[1, 2], 3],
            }
        )
        assert f.values == (Fraction(1, 2), Fraction(3))
        out = set_function_to_json(f, form="dense")
        assert out["values_dense"] == [[1, 2], [3, 1]]

    def test_labels_encoding(self):
        obj = {
            "ground_set": ["a"],
            "codomain": {"kind": "labels", "label_order": ["low", "high"]},
            "values_dense": ["high", "low"],
        }
        f = parse_set_function(obj)
        assert f.values == (1, 0)
        assert set_function_to_json(f, form="dense") == obj

    def test_missing_subset(self):
        with pytest.raises(ValueError, match="missing subset 'a,b'"):
            parse_set_function({"ground_set": ["a", "b"], "values": {"": 0, "a": 1, "b": 2}})

    def test_duplicate_subset(self):
        with pytest.raises(ValueError, match="listed twice"):
            parse_set_function(
                {"ground_set": ["a", "b"], "values": {"": 0, "a": 1, "b": 2, "a,b": 3, "b,a": 3}}
            )

    def test_bad_value_located(self):
        with pytest.raises(ValueError, match=r"values_dense\[2\]"):
            parse_set_function({"ground_set": ["a", "b"], "values_dense": [0, 1, 1.5, 2]})

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="expected 4 entries"):
            parse_set_function({"ground_set": ["a", "b"], "values_dense": [0, 1]})

    def test_both_forms_rejected(self):
        with pytest.raises(ValueError, match="only one"):
            parse_set_function(
                {"ground_set": ["a"], "values_dense": [0, 1], "values": {"": 0, "a": 1}}
            )

    def test_unknown_name_in_sparse(self):
        with pytest.raises(ValueError, match="unknown element"):
            parse_set_function({"ground_set": ["a"], "values": {"": 0, "z": 1}})

    def test_file_errors(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ValueError, match="invalid JSON at line"):
            load_set_function(p)
        p2 = tmp_path / "bad2.json"
        p2.write_text(json.dumps({"ground_set": ["a"]}))
        with pytest.raises(ValueError, match="values_dense"):
            load_set_function(p2)

    def test_file_round_trip(self, tmp_path, f_cut):
        p = tmp_path / "f.json"
        p.write_text(json.dumps(set_function_to_json(f_cut, form="sparse")))
        assert load_set_function(p).values == f_cut.values

    @given(
        st.integers(1, 3),
        st.sampled_from(["integer", "rational", "labels"]),
        st.integers(0, 10_000),
        st.sampled_from(["dense", "sparse"]),
    )
    def test_random_round_trip(self, n, kind, seed, form):
        if kind == "labels":
            cod = OrderedCodomain("labels", ("w", "x", "y", "z"))
            d = min(4, 1 << n)
        else:
            cod = OrderedCodomain(kind)
            d = 1 << n
        f = random_function(n, cod, d, seed)
        g = roundtrip(f, form)
        assert g.values == f.values
        assert g.codomain == f.codomain
        assert g.ground.elements == f.ground.elements


    @given(st.lists(st.text(max_size=4), min_size=1, max_size=3), st.data())
    def test_any_accepted_names_round_trip(self, names, data):
        # every name GroundSet accepts must survive both file forms, as JSON text
        try:
            ground = GroundSet(tuple(names))
        except ValueError:
            assume(False)
        kind = data.draw(st.sampled_from(["integer", "rational", "labels"]))
        if kind == "labels":
            labels = data.draw(st.lists(st.text(max_size=3), min_size=1, max_size=4, unique=True))
            cod = OrderedCodomain("labels", tuple(labels))
            value = st.sampled_from(cod.label_order)
        else:
            cod = OrderedCodomain(kind)
            value = st.integers(-10**20, 10**20) if kind == "integer" else st.fractions(max_denominator=10**6)
        f = SetFunction(ground, cod, tuple(data.draw(st.lists(value, min_size=ground.size, max_size=ground.size))))
        for form in ("dense", "sparse"):
            g = parse_set_function(json.loads(json.dumps(set_function_to_json(f, form=form))))
            assert g == f


class TestChainFormat:
    def test_example(self):
        ground, chain = parse_chain(
            {"ground_set": ["a", "b"], "families": [[], ["", "a,b"], ["", "a", "b", "a,b"]]}
        )
        assert chain.families == ((), (0, 3), (0, 1, 2, 3))
        assert chain.p == 2

    def test_round_trip(self, f_card):
        from ordsub import family_chain

        chain = family_chain(f_card)
        obj = chain_to_json(f_card.ground, chain)
        ground2, chain2 = parse_chain(obj)
        assert chain2 == chain
        assert ground2.elements == f_card.ground.elements

    def test_errors(self, tmp_path):
        with pytest.raises(ValueError, match="families"):
            parse_chain({"ground_set": ["a"]})
        with pytest.raises(ValueError, match=r"families\[0\]"):
            parse_chain({"ground_set": ["a"], "families": [["z"]]})
        p = tmp_path / "chain.json"
        p.write_text(json.dumps({"ground_set": ["a"], "families": [[], ["", "a"]]}))
        ground, chain = load_chain(p)
        assert chain.families == ((), (0, 1))
