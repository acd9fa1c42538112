import json

import pytest

from ordsub import kernel, parse_set_function, set_function_to_json

from conftest import intfn, run_cli


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

    def test_labels_codomain_needs_labels(self):
        code, out, err = run_cli("generate", "random", "--n", "1", "--distinct", "1", "--codomain", "labels")
        assert (code, out) == (2, "")
        assert err == "error: --codomain labels needs --labels, e.g. --labels lo,mid,hi\n"

    def test_zero_denominator_modular_weight(self):
        code, out, err = run_cli("generate", "modular", "--n", "2", "--weights", "1/0,1", "--concave", "0,0,0")
        assert (code, out) == (2, "")
        assert err == "error: zero denominator in '1/0'\n"

    @pytest.mark.parametrize("predicate", ["!" * 5000 + "Q1", "(" * 3000 + "Q1" + ")" * 3000])
    def test_deeply_nested_predicate(self, predicate):
        code, out, err = run_cli("search", "--n", "2", "--predicate", predicate)
        assert (code, out) == (2, "")
        assert "predicate nests too deeply" in err and err.count("\n") == 1

    def test_long_flat_predicate_chain(self):
        # a chain of & is built as a balanced tree, so it evaluates without deep recursion
        code, out, _ = run_cli("search", "--n", "2", "--predicate", " & ".join(["Q4"] * 3000) + " & !Q3")
        assert code == 0 and out


class TestDeterminismAcrossThreads:
    def test_outputs_bit_identical(self, monkeypatch, r3_file):
        # the scans once split across --threads workers now split into row
        # blocks; one row per block must not change a byte of output
        commands = [
            ("classify", r3_file, "--json", "--witness"),
            ("minimize", r3_file, "--mode", "descent", "--start", "b", "--json"),
            ("certify", r3_file, "--point", "a", "--json"),
            ("verify", "--suite", "lemma1", "--n", "2", "--json"),
            ("search", "--n", "2", "--predicate", "Q2&!Q1"),
        ]
        want = [run_cli(*cmd)[:2] for cmd in commands]
        monkeypatch.setattr(kernel, "FIRST_BLOCK", 1)
        monkeypatch.setattr(kernel, "BLOCK", 1)
        for cmd, runs in zip(commands, want):
            assert run_cli(*cmd)[:2] == runs, f"output differs across scan splits for {cmd}"

    def test_json_schema_stable_across_runs(self, r3_file):
        a = run_cli("classify", r3_file, "--json")
        b = run_cli("classify", r3_file, "--json")
        assert a == b
