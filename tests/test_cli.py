import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from ordsub import (
    __version__, OrderedCodomain, SetFunction, argmin, modular_plus_concave, parse_set_function, random_function,
    set_function_to_json,
)
from ordsub.cli import main

from conftest import intfn, run_cli

DEEP = "[" * 100000 + "]" * 100000  # nests deeper than the JSON parser goes


@pytest.fixture
def r3_file(tmp_path, f_r3):
    p = tmp_path / "r3.json"
    p.write_text(json.dumps(set_function_to_json(f_r3)))
    return str(p)


@pytest.fixture
def cut_file(tmp_path, f_cut):
    p = tmp_path / "cut.json"
    p.write_text(json.dumps(set_function_to_json(f_cut)))
    return str(p)


@pytest.fixture
def card_file(tmp_path, f_card):
    p = tmp_path / "card.json"
    p.write_text(json.dumps(set_function_to_json(f_card)))
    return str(p)


class TestClassify:
    def test_human(self, r3_file):
        code, out, _ = run_cli("classify", r3_file)
        assert code == 0
        assert "Q4                   yes" in out
        assert "Q3                   no" in out

    def test_json_with_witness(self, r3_file):
        code, out, _ = run_cli("classify", r3_file, "--json", "--witness")
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "classify"
        assert report["results"]["Q4"] is True
        assert report["results"]["witnesses"]["Q3"]["X"] == "a"

    def test_malformed_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{]")
        code, _, err = run_cli("classify", str(p))
        assert code == 2
        assert "invalid JSON at line" in err

    def test_bad_values(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"ground_set": ["a"], "values_dense": [0, 1.5]}))
        code, _, err = run_cli("classify", str(p))
        assert code == 2
        assert "values_dense[1]" in err

    # the rejected value is given as JSON text and spliced into the file, so that
    # collecting the 950-deep list builds no nested object at import
    @pytest.mark.parametrize("codomain, bad", [
        ({"kind": "rational"}, "[" * 950 + "]" * 950),
        ({"kind": "rational"}, json.dumps(list(range(2000)))),
        ({"kind": "labels", "label_order": ["lo", "hi"]}, json.dumps("x" * 5000)),
        ({"kind": "labels", "label_order": [f"l{k}" for k in range(3000)]}, json.dumps("x")),
    ], ids=["deep-list", "long-list", "long-label", "many-labels"])
    def test_long_bad_value_is_cut_short(self, tmp_path, codomain, bad):
        # the rejected value, and a labels codomain's label order, are echoed cut short
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"ground_set": ["a"], "codomain": codomain, "values_dense": [0, None]})
                     .replace("[0, null]", f"[0, {bad}]"))
        code, out, err = run_cli("classify", str(p))
        assert (code, out) == (2, "")
        assert "values_dense[1]" in err and err.count("\n") == 1
        assert len(err) < 400

    @pytest.mark.parametrize("argv, obj", [
        (("classify",), {"ground_set": ["a"], "values": {"": 0, "a": 1, "x" * 5000: 2}}),
        (("classify",), {"ground_set": ["a", "x" * 5000, "x" * 5000], "values_dense": [0] * 8}),
        (("certify", "--point", "x" * 5000), {"ground_set": ["a"], "values_dense": [0, 1]}),
    ], ids=["sparse-key", "duplicate-name", "unknown-point"])
    def test_long_echoed_name_is_cut_short(self, tmp_path, argv, obj):
        p = tmp_path / "f.json"
        p.write_text(json.dumps(obj))
        code, out, err = run_cli(*argv, str(p))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err) < 400

    def test_over_long_number_names_the_file(self, tmp_path):
        # past Python's 4,300-digit limit: a load error of the file, without the advice on a Python API
        p = tmp_path / "big.json"
        p.write_text('{"ground_set": ["a"], "values_dense": [0, ' + "7" * 5000 + "]}")
        code, out, err = run_cli("classify", str(p))
        assert (code, out) == (2, "")
        reason = "Exceeds the limit (4300 digits) for integer string conversion: value has 5000 digits"
        assert err == f"error: {p}: {reason}\n"

    @pytest.mark.parametrize("text", [DEEP, '{"ground_set": ["a"], "values_dense": [0, ' + DEEP + "]}"],
                             ids=["top-level", "in-values-dense"])
    def test_deeply_nested_json(self, tmp_path, text):
        p = tmp_path / "deep.json"
        p.write_text(text)
        code, out, err = run_cli("classify", str(p))
        assert (code, out) == (2, "")
        assert err == f"error: {p}: JSON nests too deeply\n"


class TestMinimize:
    def test_brute(self, r3_file):
        code, out, _ = run_cli("minimize", r3_file, "--json")
        assert code == 0
        res = json.loads(out)["results"]
        assert res["minimizers"] == ["a"] and res["min_value"] == 0

    def test_descent(self, r3_file):
        code, out, _ = run_cli("minimize", r3_file, "--mode", "descent", "--start", "b", "--json")
        assert code == 0
        res = json.loads(out)["results"]
        assert [s["subset"] for s in res["trace"]] == ["b", "", "a"]
        assert res["certificate"]["global"] is True
        assert res["certificate"]["hypothesis"] == "Q4+injective"

    def test_unknown_start_element(self, r3_file):
        code, _, err = run_cli("minimize", r3_file, "--mode", "descent", "--start", "z")
        assert code == 2
        assert "unknown element" in err


class TestCertify:
    def test_global(self, r3_file):
        code, out, _ = run_cli("certify", r3_file, "--point", "a", "--json")
        assert code == 0
        assert json.loads(out)["results"]["hypothesis"] == "Q4+injective"

    def test_not_global(self, r3_file):
        code, out, _ = run_cli("certify", r3_file, "--point", "b", "--json")
        assert code == 1
        assert json.loads(out)["results"]["global"] is False

    def test_empty_point(self, tmp_path, f_const):
        p = tmp_path / "const.json"
        p.write_text(json.dumps(set_function_to_json(f_const)))
        code, out, _ = run_cli("certify", str(p), "--point", "", "--json")
        assert code == 0
        assert json.loads(out)["results"]["global"] is True


class TestHierarchy:
    def test_ok(self, cut_file):
        code, out, _ = run_cli("hierarchy", cut_file, "--json")
        assert code == 0
        res = json.loads(out)["results"]
        assert res["p"] == 2
        assert res["chain"]["families"] == [[], ["", "a,b"], ["", "a", "b", "a,b"]]
        assert res["qh_holds"] is True

    def test_qh_witness_exit_1(self, tmp_path):
        p = tmp_path / "f.json"
        p.write_text(json.dumps(set_function_to_json(intfn([1, 0, 0, 1]))))
        code, out, _ = run_cli("hierarchy", str(p), "--json")
        assert code == 1
        res = json.loads(out)["results"]
        assert res["qh_holds"] is False
        assert res["qh_witness"]["X"] == "a" and res["qh_witness"]["Y"] == "b"


def n10_functions():
    """The worst case (modular), a late witness on it, and a random rational function, at n = 10."""
    modular = modular_plus_concave(10, list(range(1, 11)), [0] * 11)
    vals = list(modular.values)
    vals[0b1111111110] = -1
    return {
        "modular10": modular,
        "lowered10": SetFunction.from_ints(10, vals),
        "random10_rational": random_function(10, OrderedCodomain("rational"), 16, seed=7),
    }


class TestReportsAtN10:
    # sha256 of stdout with the input path replaced by IN, and the exit code;
    # pinned before the row scan built its lanes level by level and the chain
    # named each subset once, and unchanged by both.  certify runs at the first
    # global minimizer and at E, and descent starts from E.
    PINNED = {
        ("modular10", "hierarchy"): (0, "543f97da9349d5e50537a345c2cbd0dcd81eae7edf89fdbe5f02d1f2f751c6d9"),
        ("modular10", "classify"): (0, "e60fdf3fd55725104edcc64c51135729830c38a8406768530d60f5ad85c9bbc6"),
        ("lowered10", "hierarchy"): (0, "d87e0f98b536201fdd9166f930c03b680253e0d0ee9ad00281e6dca2c91ea51c"),
        ("lowered10", "classify"): (0, "01cffc708b6899dc564aa497806e3ea82c977318fd07c920ea42405d95b67056"),
        ("random10_rational", "hierarchy"): (1, "6e0b6766abaea2ffe3f99d55bf64d8ccfdf94a6bbbb9ea08e42e866cdaf60793"),
        ("random10_rational", "classify"): (0, "23c08152eff91642c598a164cd27f9d513f12dc30d1cce0843cc3250f15b0b59"),
        ("modular10", "certify-min"): (0, "8f22ce9d62e959b7d882be05a4ca33b02d05b913f303d63471ce7bac2a86c195"),
        ("modular10", "certify-E"): (1, "2cf117518a18dcc10be2f23d43ac4b2de6cb9ecf1d929c1a6a183466b8dce60b"),
        ("modular10", "descent-E"): (0, "1879c98be2b854bf3aeb3a34a294fe9da153d63c935ea18436fab61ab70a58cd"),
        ("lowered10", "certify-min"): (1, "4293057ccf97910ba7fc039831a2e4e2023596a3916b70e1983554ed3dc61de5"),
        ("lowered10", "certify-E"): (1, "2cf117518a18dcc10be2f23d43ac4b2de6cb9ecf1d929c1a6a183466b8dce60b"),
        ("lowered10", "descent-E"): (0, "818a86f794bc03f88d7f796f7b72bafa8f72b1e856a63b404249c42f79dcbecb"),
        ("random10_rational", "certify-min"): (1, "9ed2ab29c40fdf216f549521ea7e42c6971b42be08aaa304a76288514af13e9d"),
        ("random10_rational", "certify-E"): (1, "bb6ddda4fcd4627c82a3f29f513da2632a0bc3839ac375befa35cc049c27c4a7"),
        ("random10_rational", "descent-E"): (0, "dd762377a01808659c324d5d5d59277a7e7947b207cecb1feb1bd64b6e17f867"),
    }

    def test_json_reports_are_pinned(self, tmp_path):
        got = {}
        for name, f in n10_functions().items():
            p = tmp_path / f"{name}.json"
            p.write_text(json.dumps(set_function_to_json(f)))
            first_min = f.ground.subset_str(argmin(f).minimizers[0])
            full = f.ground.subset_str(f.ground.full_mask)
            runs = {
                "hierarchy": ("hierarchy", str(p), "--json"),
                "classify": ("classify", str(p), "--json", "--witness"),
                "certify-min": ("certify", str(p), "--json", "--point", first_min),
                "certify-E": ("certify", str(p), "--json", "--point", full),
                "descent-E": ("minimize", str(p), "--json", "--mode", "descent", "--start", full),
            }
            for key, argv in runs.items():
                code, out, _ = run_cli(*argv)
                got[name, key] = (code, hashlib.sha256(out.replace(str(p), "IN").encode()).hexdigest())
        assert got == self.PINNED


class TestConstrained:
    def test_example(self, card_file, cut_file):
        code, out, _ = run_cli("constrained", card_file, cut_file, "--k", "1", "--json")
        assert code == 0
        res = json.loads(out)["results"]
        assert res["minimizers"] == ["a", "b"] and res["min_value"] == 1
        assert res["feasible_count"] == 2

    def test_k_out_of_range(self, card_file, cut_file):
        code, _, err = run_cli("constrained", card_file, cut_file, "--k", "2")
        assert code == 2
        assert "k must be in" in err


class TestVerify:
    def test_pass(self):
        code, out, _ = run_cli("verify", "--suite", "remark2", "--n", "1", "--json")
        assert code == 0
        res = json.loads(out)["results"]
        assert res["scanned"] == 3 and res["violations"] == 0

    def test_unknown_suite_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("verify", "--suite", "nope", "--n", "1")
        assert exc.value.code == 2


class TestFlags:
    # --json and --witness follow the subcommand, and only the subcommands
    # that honour them accept them
    @pytest.mark.parametrize("argv, flag", [
        (("--json", "classify", "f.json"), "--json"),
        (("--witness", "classify", "f.json"), "--witness"),
        (("verify", "--witness", "--suite", "lemma1", "--n", "2"), "--witness"),
        (("minimize", "--witness", "f.json"), "--witness"),
        (("generate", "const", "--n", "1", "--json"), "--json"),
        (("search", "--json", "--n", "2", "--predicate", "Q1"), "--json"),
    ], ids=["json-before-command", "witness-before-command", "verify-witness", "minimize-witness", "generate-json",
            "search-json"])
    def test_misplaced_flag_is_a_usage_error(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [line for line in captured.err.splitlines() if "error" in line] == [
            f"ordsub: error: unrecognized arguments: {flag}"
        ]

    @pytest.mark.parametrize("argv", [[5000 * "x"], ["minimize", "f.json", "--mode", 3000 * "x"]],
                             ids=["command", "mode"])
    def test_long_invalid_choice_is_cut_short(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        line = capsys.readouterr().err.splitlines()[-1]
        assert "error: argument" in line and line.endswith("...") and len(line) < 400

    def test_flags_after_the_subcommand(self, r3_file):
        code, out, _ = run_cli("classify", "--json", "--witness", r3_file)
        assert code == 0 and json.loads(out)["results"]["witnesses"]["Q3"]["X"] == "a"
        code, out, _ = run_cli("verify", "--json", "--suite", "lemma1", "--n", "2")
        assert code == 0 and json.loads(out)["results"]["violations"] == 0


class TestGenerateAndSearch:
    def test_generate_cut(self, f_cut):
        code, out, _ = run_cli("generate", "cut", "--n", "2", "--edges", "0-1:1")
        assert code == 0
        assert parse_set_function(json.loads(out)).values == f_cut.values

    def test_generate_const(self, f_const):
        code, out, _ = run_cli("generate", "const", "--n", "2")
        assert code == 0
        assert parse_set_function(json.loads(out)).values == f_const.values

    def test_generate_modular_to_file(self, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run_cli(
            "generate", "modular", "--n", "2", "--weights", "1,0", "--concave", "0,1,1",
            "-o", str(target),
        )
        assert code == 0 and out == ""
        assert parse_set_function(json.loads(target.read_text())).values == (0, 2, 1, 2)

    def test_generate_random_deterministic(self):
        _, out1, _ = run_cli("generate", "random", "--n", "2", "--distinct", "3", "--seed", "5")
        _, out2, _ = run_cli("generate", "random", "--n", "2", "--distinct", "3", "--seed", "5")
        assert out1 == out2

    def test_generate_rational_edges_round_trip(self):
        code, out, _ = run_cli("generate", "cut", "--n", "2", "--edges", "0-1:1/2", "--form", "sparse")
        assert code == 0
        f = parse_set_function(json.loads(out))
        assert f.codomain.kind == "rational"

    def test_emitted_files_reparse_identically(self, tmp_path):
        for form in ("dense", "sparse"):
            code, out, _ = run_cli("generate", "cut", "--n", "3", "--edges", "0-1:2,1-2:1", "--form", form)
            assert code == 0
            f = parse_set_function(json.loads(out))
            assert parse_set_function(set_function_to_json(f, form=form)).values == f.values

    def test_search_found(self):
        code, out, _ = run_cli("search", "--n", "2", "--predicate", "Q4&!Q3")
        assert code == 0
        f = parse_set_function(json.loads(out))
        assert f.values == (2, 1, 2, 3)

    def test_search_not_found_exit_1(self):
        code, out, err = run_cli("search", "--n", "1", "--predicate", "!Q4")
        assert code == 1
        assert out == ""
        assert "no function" in err

    def test_bad_predicate(self):
        code, _, err = run_cli("search", "--n", "2", "--predicate", "Q9")
        assert code == 2
        assert "unknown condition" in err

    def test_bad_edges(self):
        code, _, err = run_cli("generate", "cut", "--n", "2", "--edges", "0:1:2")
        assert code == 2
        assert "bad edge" in err

    def test_zero_denominator_edge_weight(self):
        code, out, err = run_cli("generate", "cut", "--n", "2", "--edges", "0-1:1/0")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_edge_names_its_cause(self):
        code, out, err = run_cli("generate", "cut", "--n", "3", "--edges", "0-1:1/0")
        assert (code, out) == (2, "")
        assert "bad edge '0-1:1/0'" in err and "zero denominator in '1/0'" in err
        assert err.count("\n") == 1

    def test_over_long_edge_weight_shows_its_whole_cause(self):
        # the cause as --weights gives it: Python's advice dropped, the digit counts kept
        code, out, err = run_cli("generate", "cut", "--n", "2", "--edges", "0-1:" + "9" * 5000)
        assert (code, out) == (2, "")
        assert err == ("error: bad edge '0-1:" + "9" * 55 + "... (Exceeds the limit (4300 digits) for integer "
                       "string conversion: value has 5000 digits); expected i-j:w (e.g. 0-1:1)\n")

    def test_labels_codomain_needs_labels(self):
        code, out, err = run_cli("generate", "random", "--n", "1", "--distinct", "1", "--codomain", "labels")
        assert (code, out) == (2, "")
        assert err == "error: --codomain labels needs --labels, e.g. --labels lo,mid,hi\n"

    def test_zero_denominator_modular_weight(self):
        code, out, err = run_cli("generate", "modular", "--n", "2", "--weights", "1/0,1", "--concave", "0,0,0")
        assert (code, out) == (2, "")
        assert err == "error: bad --weights entry '1/0' (zero denominator in '1/0')\n"

    @pytest.mark.parametrize("weights, concave, line", [
        ("1,x", "0,1,1", "bad --weights entry 'x' (invalid literal for int() with base 10: 'x')"),
        ("1,2", "0,1,x", "bad --concave entry 'x' (invalid literal for int() with base 10: 'x')"),
        ("1,2", "0,1,x;y", "bad --concave entry 'x;y' (invalid literal for int() with base 10: 'x;y')"),
        ("1," + "9" * 5000, "0,1,1", "bad --weights entry '" + "9" * 59 + "... (Exceeds the limit (4300 digits) "
                                     "for integer string conversion: value has 5000 digits)"),
        ("1,2", "0,1," + "x" * 5000, "bad --concave entry '" + "x" * 59 + "... (invalid literal for int() with "
                                     "base 10: '" + "x" * 49 + "...)"),
    ], ids=["weights-word", "concave-word", "concave-semicolon", "weights-long-int", "concave-long-word"])
    def test_bad_weight_names_its_flag_and_entry(self, weights, concave, line):
        code, out, err = run_cli("generate", "modular", "--n", "2", "--weights", weights, "--concave", concave)
        assert (code, out, err) == (2, "", f"error: {line}\n")
        assert len(err) < 300

    @pytest.mark.parametrize("predicate", ["!" * 5000 + "Q1", "(" * 3000 + "Q1" + ")" * 3000])
    def test_deeply_nested_predicate(self, predicate):
        code, out, err = run_cli("search", "--n", "2", "--predicate", predicate)
        assert (code, out) == (2, "")
        assert "predicate nests too deeply" in err and err.count("\n") == 1

    def test_deep_tree_of_long_chains(self):
        # within the nesting bound, but each level's balanced chain adds 11 levels to the
        # tree, which evaluation would recurse through past Python's recursion limit
        predicate = "Q1"
        for _ in range(99):
            predicate = "(" + " & ".join(["Q4"] * 1999 + [predicate]) + ")"
        code, out, err = run_cli("search", "--n", "2", "--predicate", predicate)
        assert (code, out) == (2, "")
        assert "predicate nests too deeply" in err and err.count("\n") == 1

    @pytest.mark.parametrize("predicate", ["Q1" + ")" * 5000, "Q" * 5000, "Q1 & #" + "x" * 5000,
                                           "(" * 50 + "Q1" + " & Q2" * 1000],
                             ids=["trailing", "unknown", "syntax", "unbalanced"])
    def test_long_bad_predicate_is_cut_short(self, predicate):
        code, out, err = run_cli("search", "--n", "2", "--predicate", predicate)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err) < 400

    def test_long_flat_predicate_chain(self):
        # a chain of & is built as a balanced tree, so it evaluates without deep recursion
        code, out, _ = run_cli("search", "--n", "2", "--predicate", " & ".join(["Q4"] * 3000) + " & !Q3")
        assert code == 0 and out


class TestParserText:
    # sha256 of stdout and stderr together, and the exit code, at COLUMNS=80;
    # pinned while every subcommand's arguments were built in every process,
    # and unchanged now that only the invoked one's are
    PINNED = {
            "-h": (0, "17188853da52f0af1665a90f9e01eaea15a86d066c1825d51e122d544d6539aa"),
            "classify -h": (0, "874ba65b7cab10e563da0b931322ab5df62ac80c817e1cfca2eb054b11619e35"),
            "minimize -h": (0, "7cb4d0221c4e3273cb27ee83deabfdf30b2ec520504d81c201688d831f53293b"),
            "certify -h": (0, "9219a412e32f9ddaa8fff042110efc5021ca264c124360d7e623ea79d61fa41d"),
            "hierarchy -h": (0, "7674c9398caff4f7c9d4dd0c7a7e2c4dc0df589cd537eb0c73a6c06e193aa5ab"),
            "constrained -h": (0, "f8331dc024b6ed89ee2b567032feeec769baaf09d3ef255f66491d53fd82e08b"),
            "verify -h": (0, "63ad5681975b833cea2fb17a016383884ed1c100fc6c80bead7965ec65152f82"),
            "generate -h": (0, "be9e02e53c862887ce801fa0f9de38f6351403e3dba2cd179761393423efbb9e"),
            "search -h": (0, "d7697d756379da4a2bd8886bf71cd285c1d723be141dfdcd708a12e486dfef55"),
            "": (2, "62d5335585740cf9df9e8b31e11c86da14d4d41133703f0114bb28fd2517b130"),
            "bogus": (2, "bd91008e300391539856cab18579e9da8cdb4bc4a018c89bf5056bf65d06e989"),
            "classify": (2, "5d9ac146690f1ba5d12b03313fd98feb7ca7f2f47497ec39ff0557ea7e66c8c5"),
    }
    COMMANDS = ("classify", "minimize", "certify", "hierarchy", "constrained", "verify", "generate", "search")

    def test_help_and_usage_errors_are_pinned(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        runs = {"-h": ["-h"], **{f"{c} -h": [c, "-h"] for c in self.COMMANDS},
                "": [], "bogus": ["bogus"], "classify": ["classify"]}
        got = {}
        for name, argv in runs.items():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
                main(argv)
            assert not (out.getvalue() and err.getvalue()), argv
            got[name] = (exc.value.code, hashlib.sha256((out.getvalue() + err.getvalue()).encode()).hexdigest())
        assert got == self.PINNED


class TestPinnedReportDigests:
    def test_outputs_bit_identical(self, monkeypatch, tmp_path):
        # exit status and SHA-256 prefix of stdout for each report command,
        # pinned; the n = 6 function fails in rows 1 and 4
        monkeypatch.chdir(tmp_path)
        f = random_function(6, distinct_values=4, seed=5)
        (tmp_path / "f6.json").write_text(json.dumps(set_function_to_json(f)))
        pinned = [
            (("classify", "f6.json", "--json", "--witness"), 0, "754090358221d942"),
            (("classify", "f6.json", "--witness"), 0, "0a417476a5963704"),
            (("minimize", "f6.json", "--mode", "descent", "--start", "a,b,c,d,e,f", "--json"), 0, "d94f4c1cc85d6c3d"),
            (("certify", "f6.json", "--point", "a", "--json"), 1, "1de9ad3485a5587a"),
            (("hierarchy", "f6.json", "--json"), 1, "9f6b568d6c4f6a70"),
            (("hierarchy", "f6.json"), 1, "1ace305a1dcd8ead"),
            (("verify", "--suite", "lemma1", "--n", "2", "--json"), 0, "40f2dfa1f0bfd1a1"),
            (("search", "--n", "2", "--predicate", "Q2&!Q1"), 0, "b0d86a4eb41d7f48"),
        ]
        for cmd, status, digest in pinned:
            code, out, _ = run_cli(*cmd)
            assert (code, hashlib.sha256(out.encode()).hexdigest()[:16]) == (status, digest), cmd

    def test_json_schema_stable_across_runs(self, r3_file):
        a = run_cli("classify", r3_file, "--json")
        b = run_cli("classify", r3_file, "--json")
        assert a == b


# Set-function files with at most one fault each, of every kind the loader
# has to reject: element names that are bad, duplicated, hold commas or are
# padded with whitespace; unknown codomains and empty label orders; values
# that are floats, bools, zero-denominator rationals, unknown labels or
# lists; tables of the wrong length; nesting deeper than the JSON parser goes.
GOOD_VALUES = {
    "integer": st.integers(-3, 3),
    "rational": st.one_of(st.integers(-3, 3), st.tuples(st.integers(-3, 3), st.integers(1, 3)).map(list)),
    "labels": st.sampled_from(["lo", "hi"]),
}
BAD_NAMES = st.sampled_from(["", " a", "b ", "a,b", "\tc", "a", 1, None])
BAD_GROUNDS = st.sampled_from(["a", [], None, {}])
BAD_CODOMAINS = st.sampled_from([
    {"kind": "labels", "label_order": []}, {"kind": "labels"}, {"kind": "labels", "label_order": ["lo", 1]},
    {"kind": "real"}, {"kind": 3}, {}, "integer",
])
BAD_VALUES = st.sampled_from([0.5, 1.0, True, None, [1, 0], [1, 2, 3], ["a", 1], "zz", "", [[0]], "DEEP"])
BAD_KEYS = st.sampled_from(["zz", "a,a", "a,", ","])


@st.composite
def fuzzed_files(draw):
    fault = draw(st.sampled_from([None, None, None, "name", "ground", "codomain", "value", "length", "key", "top"]))
    if fault == "top":
        return DEEP
    ground = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True))
    kind = draw(st.sampled_from(sorted(GOOD_VALUES)))
    values = draw(st.lists(GOOD_VALUES[kind], min_size=1 << len(ground), max_size=1 << len(ground)))
    keys = [",".join(e for i, e in enumerate(ground) if m >> i & 1) for m in range(1 << len(ground))]
    codomain = {"kind": kind, "label_order": ["lo", "hi"]} if kind == "labels" else {"kind": kind}
    obj = {"ground_set": list(ground), "codomain": codomain}
    if kind == "integer" and draw(st.booleans()):
        del obj["codomain"]
    if fault == "name":
        obj["ground_set"].insert(draw(st.integers(0, len(ground))), draw(BAD_NAMES))
    elif fault == "ground":
        obj["ground_set"] = draw(BAD_GROUNDS)
    elif fault == "codomain":
        obj["codomain"] = draw(BAD_CODOMAINS)
    elif fault == "value":
        values[draw(st.integers(0, len(values) - 1))] = draw(BAD_VALUES)
    elif fault == "length":
        values = values[1:] if draw(st.booleans()) else values + values[:1]
    elif fault == "key":
        keys[draw(st.integers(0, len(keys) - 1))] = draw(BAD_KEYS)
    if fault != "key" and draw(st.booleans()):
        obj["values_dense"] = values
    else:
        obj["values"] = dict(zip(keys, values))
    return json.dumps(obj).replace('"DEEP"', DEEP)


COMMANDS = st.sampled_from([
    ["certify", "--point", ""], ["certify", "--point", "a,b"], ["certify", "--point", "zz"], ["hierarchy"],
    ["classify", "--witness"], ["minimize"], ["minimize", "--mode", "descent", "--start", ""],
    ["minimize", "--mode", "descent", "--start", "a"],
])


class TestFuzzedFiles:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @example(text=DEEP, command=["classify", "--witness"])
    @example(text='{"ground_set": ["a"], "values_dense": [0, ' + DEEP + "]}", command=["hierarchy"])
    @given(text=fuzzed_files(), command=COMMANDS)
    def test_exit_code_is_0_1_or_2(self, tmp_path, text, command):
        p = tmp_path / "f.json"
        p.write_text(text)
        code, _, err = run_cli(command[0], str(p), *command[1:])
        assert code in (0, 1, 2)
        assert code != 2 or err.startswith("error: ") and err.count("\n") == 1


# Command lines for every subcommand: its positionals and flags, each kept
# with high odds, with values good, malformed or out of range, a few of its
# optional flags, and now and then a stray token or another subcommand's
# flag, in order or shuffled.  --n stops short of 3, so no example scans the
# n = 3 universe.
ARG_POINT = st.sampled_from(["", "a", "a,b", "b,a", "zz", "a,a", ",", " a ", "x" * 5000])
ARG_VALUES = {
    "FILE": st.sampled_from(["FILE", "FILE", "MISSING"]),
    "KIND": st.sampled_from(["cut", "const", "modular", "random", "other"]),
    "--n": st.sampled_from(["1", "2", "2", "2", "0", "4", "-1", "x", "99999999999999999999"]),
    "--point": ARG_POINT,
    "--start": ARG_POINT,
    "--suite": st.sampled_from(["lemma1", "theorem2", "duality", "remark5", "nope", ""]),
    "--predicate": st.sampled_from(["Q4 & !Q3", "Qh & !(Q1 & Q2)", "!Q4", "Q1 &", "Q9", "(Q1", ""]),
    "--k": st.sampled_from(["0", "1", "5", "-1", "x"]),
    "--mode": st.sampled_from(["brute", "descent", "other"]),
    "--edges": st.sampled_from(["0-1:1", "0-1:1/2", "0-1:1/0", "0:1", "1-0:1", "0-1:-1", "0-5:1"]),
    "--weights": st.sampled_from(["1,2", "1", "1/0,1", "x,1"]),
    "--concave": st.sampled_from(["0,0,0", "0,1,1", "0,1,3", "0"]),
    "--value": st.sampled_from(["0", "3", "x"]),
    "--distinct": st.sampled_from(["1", "2", "4", "0", "x"]),
    "--seed": st.sampled_from(["0", "7", "x"]),
    "--codomain": st.sampled_from(["integer", "rational", "labels", "real"]),
    "--labels": st.sampled_from(["lo,hi", "lo,mid,hi,top", "", "a,a"]),
    "--form": st.sampled_from(["dense", "sparse", "neither"]),
}
ARG_SHAPES = {  # (what the subcommand needs, what it may take)
    "classify": (["FILE"], ["--json", "--witness"]),
    "minimize": (["FILE"], ["--json", "--mode", "--start"]),
    "certify": (["FILE", "--point"], ["--json"]),
    "hierarchy": (["FILE"], ["--json"]),
    "constrained": (["FILE", "FILE", "--k"], ["--json"]),
    "verify": (["--suite", "--n"], ["--json"]),
    "generate": (["KIND", "--n"], ["--edges", "--weights", "--concave", "--value", "--distinct", "--seed",
                                   "--codomain", "--labels", "--form"]),
    "search": (["--n", "--predicate"], ["--form"]),
}
ARG_STRAYS = st.sampled_from(["--json", "--witness", "--version", "-h", "--n", "--point", "--suite", "random",
                              "FILE", "--bogus", "-", "classify"])


@st.composite
def fuzzed_argv(draw):
    command = draw(st.sampled_from(sorted(ARG_SHAPES)))
    needs, takes = ARG_SHAPES[command]
    items = [a for a in needs if draw(st.integers(0, 9))] + draw(st.lists(st.sampled_from(takes), max_size=3))
    tokens = [command]
    for a in items:
        if a.startswith("--"):
            tokens.append(a)
        if a in ARG_VALUES:
            tokens.append(draw(ARG_VALUES[a]))
    tokens += draw(st.lists(ARG_STRAYS, max_size=2 if draw(st.integers(0, 3)) == 0 else 0))
    return draw(st.permutations(tokens)) if draw(st.integers(0, 4)) == 0 else tokens


class TestFuzzedArgv:
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @example(argv=["certify", "--point", "x" * 5000, "FILE"])
    @example(argv=["search", "--n", "4", "--predicate", "Q1"])
    @example(argv=["generate", "cut", "--n", "3", "--edges", "0-1:" + "x" * 5000])
    @example(argv=["classify", "x" * 5000])
    @given(argv=fuzzed_argv())
    def test_exit_code_is_0_1_or_2(self, r3_file, argv):
        argv = [{"FILE": r3_file, "MISSING": r3_file + ".missing"}.get(t, t) for t in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: usage errors, --help and --version
                code = exc.code
        assert code in (0, 1, 2), argv
        if code == 2:
            # one error line: argparse's after its usage lines, or ordsub's own, cut short
            lines = err.getvalue().splitlines()
            assert [line for line in lines if "error: " in line] == lines[-1:], argv
            assert lines[-1].startswith("ordsub") or lines == lines[-1:] and len(lines[-1]) < 400, argv


def _in_process(argv):
    """(exit code, stdout, stderr) of main in this process, with argparse's SystemExit as its code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _child_env():
    # block-buffered stdout, as a shell gives a pipe: the case where the exit's flush can fail
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return dict(env, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"), COLUMNS="80")


def _python(*args, **kwargs):
    """Run the interpreter on args with this checkout's ordsub; stdout and stderr as bytes."""
    kwargs.setdefault("capture_output", True)
    return subprocess.run([sys.executable, *args], env=_child_env(), timeout=120, **kwargs)


class TestProcessExit:
    """`python -m ordsub` through cli.entry, which ends the process with os._exit after flushing."""

    RUNS = {
        "version": (["--version"], 0),
        "help": (["--help"], 0),
        "no-command": ([], 2),
        "bogus-command": (["bogus"], 2),
        "missing-argument": (["classify"], 2),
        "classify": (["classify", "--json", "--witness", "R3"], 0),
        "classify-missing-file": (["classify", "MISSING"], 2),
        "minimize": (["minimize", "--mode", "descent", "--start", "a,b", "R3"], 0),
        "certify-global": (["certify", "R3", "--json", "--point", "a"], 0),
        "certify-not-global": (["certify", "R3", "--point", "b"], 1),
        "hierarchy": (["hierarchy", "CARD"], 0),
        "constrained": (["constrained", "CARD", "CARD", "--k", "1"], 0),
        "verify": (["verify", "--suite", "lemma1", "--n", "2", "--json"], 0),
        "generate": (["generate", "cut", "--n", "3", "--edges", "0-1:2,1-2:1/2"], 0),
        "generate-bad-edges": (["generate", "cut", "--n", "2", "--edges", "0:1:2"], 2),
        "search-found": (["search", "--n", "2", "--predicate", "Q4&!Q3"], 0),
        "search-finds-nothing": (["search", "--n", "1", "--predicate", "!Q4"], 1),
    }

    @pytest.mark.parametrize("name", RUNS)
    def test_exit_code_and_output_match_main(self, monkeypatch, r3_file, card_file, name):
        argv, status = self.RUNS[name]
        argv = [{"R3": r3_file, "CARD": card_file, "MISSING": r3_file + ".missing"}.get(a, a) for a in argv]
        monkeypatch.setenv("COLUMNS", "80")
        proc = _python("-m", "ordsub", *argv)
        assert proc.returncode == status, proc.stderr
        assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == _in_process(argv)

    def test_large_reports_match_main(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(set_function_to_json(n10_functions()["modular10"])))
        rand = tmp_path / "r.json"
        rand.write_text(json.dumps(set_function_to_json(random_function(10, distinct_values=16, seed=3))))
        for argv, size in [(["hierarchy", "--json", str(path)], 645_000),
                           (["classify", "--json", "--witness", str(rand)], 1_000)]:
            proc = _python("-m", "ordsub", *argv)
            code, out, err = _in_process(argv)
            assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())
            assert len(proc.stdout) > size

    def test_generate_writes_the_whole_file(self, tmp_path):
        argv = ["generate", "random", "--n", "12", "--distinct", "50", "--seed", "4", "--form", "sparse"]
        proc = _python("-m", "ordsub", *argv, "-o", str(tmp_path / "f.json"))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        code, out, _ = _in_process(argv)
        assert code == 0 and len(out) > 90_000
        assert (tmp_path / "f.json").read_text() == out

    FINALIZED = (
        "import os, sys\n"
        "class Noisy:\n"
        "    def __del__(self, write=os.write):  # bound now: teardown may clear os first\n"
        "        write(2, b'finalized\\n')\n"
        "noisy = Noisy()\n"
        "sys.argv = ['ordsub', '--version']\n"
    )

    def test_teardown_is_skipped(self):
        # a finalizer that the interpreter's teardown would run: not on the ordinary path
        proc = _python("-c", self.FINALIZED + "from ordsub.cli import entry\nentry()\n")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"ordsub {__version__}\n".encode(), b"")

    def test_a_profile_function_keeps_the_teardown(self):
        code = self.FINALIZED + "sys.setprofile(lambda *args: None)\nfrom ordsub.cli import entry\nentry()\n"
        proc = _python("-c", code)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"ordsub {__version__}\n".encode(), b"finalized\n")

    def test_cprofile_prints_its_stats(self):
        proc = _python("-m", "cProfile", "-m", "ordsub", "--version")
        out = proc.stdout.decode()
        assert proc.returncode == 0, proc.stderr
        assert out.startswith(f"ordsub {__version__}\n") and "function calls" in out and "ncalls" in out

    @pytest.mark.parametrize("argv, status", [(["--version"], 0), (["search", "--n", "1", "--predicate", "!Q4"], 1)])
    def test_atexit_callbacks_still_run(self, argv, status):
        code = (
            "import atexit, sys\n"
            "atexit.register(print, 'atexit ran')\n"
            f"sys.argv = ['ordsub', *{argv!r}]\n"
            "from ordsub.cli import entry\n"
            "entry()\n"
        )
        proc = _python("-c", code)
        assert proc.returncode == status, proc.stderr
        assert proc.stdout.decode().endswith("atexit ran\n")

    def test_reader_closing_after_one_byte(self, tmp_path):
        # the write fails inside main, which reports it and returns 2; the exit's flush then succeeds
        path = tmp_path / "f.json"
        path.write_text(json.dumps(set_function_to_json(n10_functions()["modular10"])))
        proc = subprocess.Popen([sys.executable, "-m", "ordsub", "hierarchy", "--json", str(path)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=120), err) == (2, b"error: [Errno 32] Broken pipe\n")

    def test_closed_stdout(self):
        # no stdout at all: sys.stdout is None, and argparse writes the version to stderr
        proc = _python("-m", "ordsub", "--version", preexec_fn=lambda: os.close(1))
        assert (proc.returncode, proc.stderr) == (0, f"ordsub {__version__}\n".encode())

    def test_failed_flush_keeps_the_interpreter_exit(self):
        # --version's line waits in stdout's buffer for a reader that has gone: the exit's flush
        # fails, and the interpreter's own exit reports it with status 120, as it always has
        r, w = os.pipe()
        os.close(r)
        try:
            proc = _python("-m", "ordsub", "--version", stdout=w, stderr=subprocess.PIPE, capture_output=False)
        finally:
            os.close(w)
        err = proc.stderr.decode()
        assert proc.returncode == 120, err
        assert err.startswith("Exception ignored in: <_io.TextIOWrapper name='<stdout>'")
        assert err.endswith("\nBrokenPipeError: [Errno 32] Broken pipe\n") and err.count("\n") == 2


def test_a_rebound_library_name_outlives_the_next_command(monkeypatch, r3_file):
    # perfbench/tracer.py re-binds the library names in cli to time them; main binds them only once
    import ordsub.cli as cli

    run_cli("classify", r3_file)
    calls = []
    classify = cli.classify
    monkeypatch.setattr(cli, "classify", lambda f: calls.append(f) or classify(f))
    assert run_cli("classify", r3_file)[0] == 0
    assert len(calls) == 1
