import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from ordsub import (
    GroundSet,
    OrderedCodomain,
    SetFunction,
    chain_to_json,
    load_set_function,
    parse_set_function,
    random_function,
    set_function_to_json,
)

from conftest import run_cli


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

    @pytest.mark.parametrize("kind", ["integer", "rational", "labels"])
    def test_dense_file_coerces_each_value_once(self, tmp_path, monkeypatch, kind):
        # one key_of call per value, in the constructor; a bad value is still named by its index
        codomain = OrderedCodomain(kind, ("lo", "mid", "hi") if kind == "labels" else ())
        f = random_function(10, codomain, 3, seed=10)
        obj = set_function_to_json(f)
        p = tmp_path / "f.json"
        p.write_text(json.dumps(obj))
        calls = []
        key_of = OrderedCodomain.key_of
        monkeypatch.setattr(OrderedCodomain, "key_of", lambda self, raw: calls.append(raw) or key_of(self, raw))
        assert load_set_function(p).values == f.values
        assert len(calls) == 1 << 10
        obj["values_dense"][700:702] = [True, 1.5]
        with pytest.raises(ValueError) as err:
            parse_set_function(obj)
        assert str(err.value) == "values_dense[700]: bool is not an ordinal value"

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


class TestInputChecks:
    # one file per check of the file format: each exits 2 with its one-line message
    @pytest.mark.parametrize("obj, message", [
        ({"ground_set": ["a"], "codomain": {"kind": "labels", "label_order": [1, 2]}, "values_dense": [0, 1]},
         "codomain.label_order: expected a list of strings"),
        ([0, 1], "set function file: expected a JSON object at the top level"),
        ({"values_dense": [0, 1]}, "set function file: missing 'ground_set'"),
        ({"ground_set": ["a"], "values_dense": {"": 0, "a": 1}}, "values_dense: expected a list"),
        ({"ground_set": ["a"], "values": [0, 1]}, "values: expected an object keyed by comma-joined element names"),
    ], ids=["label-order", "top-level", "no-ground-set", "dense-not-list", "sparse-not-object"])
    def test_bad_file_exits_2(self, tmp_path, obj, message):
        p = tmp_path / "f.json"
        p.write_text(json.dumps(obj))
        assert run_cli("classify", str(p)) == (2, "", f"error: {p}: {message}\n")

    def test_bad_form_raises(self, f_r3):
        with pytest.raises(ValueError, match="^form must be 'dense' or 'sparse', got 'csv'$"):
            set_function_to_json(f_r3, form="csv")


class TestChainFormat:
    # chains are output only: hierarchy --json writes them, nothing reads them
    def test_example(self):
        from ordsub import LevelChain

        chain = LevelChain(((), (0, 3), (0, 1, 2, 3)))
        assert chain_to_json(GroundSet(("a", "b")), chain) == {
            "ground_set": ["a", "b"], "families": [[], ["", "a,b"], ["", "a", "b", "a,b"]],
        }

    def test_round_trip(self, f_card):
        from ordsub import family_chain

        # f_card = |X| on {a, b}: levels 0 < 1 < 2
        assert chain_to_json(f_card.ground, family_chain(f_card)) == {
            "ground_set": ["a", "b"],
            "families": [[], [""], ["", "a", "b"], ["", "a", "b", "a,b"]],
        }

    @pytest.mark.parametrize("mask, error, message", [
        (-1, IndexError, "subset mask -1 out of range [0, 4)"),
        (4, IndexError, "subset mask 4 out of range [0, 4)"),
        (True, TypeError, "subset mask must be an int, got bool"),
        ("x", TypeError, "subset mask must be an int, got str"),
    ])
    def test_bad_mask_raises(self, mask, error, message):
        from ordsub import LevelChain

        # checked on every entry, even after mask 1 (== True) was named
        for fam in ((0, mask), (0, 1, mask)):
            with pytest.raises(error) as exc:
                chain_to_json(GroundSet(("a", "b")), LevelChain(((), fam)))
            assert str(exc.value) == message

    def test_first_bad_mask_wins(self):
        from ordsub import LevelChain

        with pytest.raises(TypeError):
            chain_to_json(GroundSet(("a", "b")), LevelChain(((), (0, True), (0, 4))))
        with pytest.raises(IndexError):
            chain_to_json(GroundSet(("a", "b")), LevelChain(((), (0, 4), (0, "x"))))
