"""``perfbench/refcheck.py`` as a standing judge of the CLI.

refcheck checks the meaning of ordsub's output from the paper's definitions,
without importing ordsub: each condition is scanned pair by pair as written,
families are compared as sets, certificates and descents are recomputed.
Here the CLI runs in process on a seeded corpus, and refcheck judges
``classify --json --witness``, ``hierarchy --json``, ``certify`` at the first
minimizer and at E, and descent from E; then every ``verify`` suite and every
benchmark ``search`` at n <= 2.  refcheck is imported from its path once,
without writing bytecode next to it.
"""

import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

from ordsub import (
    INTEGERS,
    RATIONALS,
    OrderedCodomain,
    SetFunction,
    cut_function,
    enumerate_weak_orders,
    modular_plus_concave,
    random_function,
    set_function_to_json,
)

from conftest import run_cli

REFCHECK = Path(__file__).resolve().parents[1] / "perfbench" / "refcheck.py"


def _load_refcheck():
    spec = importlib.util.spec_from_file_location("refcheck", REFCHECK)
    module = importlib.util.module_from_spec(spec)
    before, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = before
    return module


ref = _load_refcheck()

LABELS = OrderedCodomain("labels", ("lo", "mid", "hi", "top", "max"))


def signed_weights(n):
    return [(-1) ** k * (k + 1) for k in range(n)]


def random_cut(n, seed):
    """A weighted cut: each edge with probability 0.4, weights 1..9."""
    rng = random.Random(seed)
    edges = [(i, j, rng.randint(1, 9)) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    return cut_function(n, edges)


def signed_modular(n, seed):
    """Modular with weights +-1, +-2, ... in a seeded order, plus a concave term on odd seeds."""
    weights = signed_weights(n)
    random.Random(seed).shuffle(weights)
    concave = [-k * k if seed % 2 else 0 for k in range(n + 1)]
    return modular_plus_concave(n, weights, concave)


def seeded_inputs():
    for n in range(1, 8):
        for seed in range(4):
            d = min(seed + 2, 1 << n)
            yield random_function(n, INTEGERS, d, seed)
            yield random_function(n, RATIONALS, d, seed)
            yield random_function(n, LABELS, min(d, len(LABELS.label_order)), seed)
            yield random_cut(n, seed)
            yield signed_modular(n, seed)


def scan_bound_inputs():
    """A weighted cut and the cube of the signed modular function at n = 8; every ordinal condition holds on both."""
    yield random_cut(8, 1)
    w = signed_weights(8)
    yield SetFunction.from_ints(8, [sum(w[k] for k in range(8) if m >> k & 1) ** 3 for m in range(256)])


def wide_inputs():
    """A 3,001-digit value at n = 6: at E on the cardinality, and on every set with a."""
    wide = 10**3000
    yield SetFunction.from_ints(6, [bin(m).count("1") if m < 63 else wide for m in range(64)])
    yield SetFunction.from_ints(6, [bin(m).count("1") + wide * (m & 1) for m in range(64)])


CORPUS = {
    "seeded n = 1-7": seeded_inputs,
    "weak orders n <= 2": lambda: (f for n in (1, 2) for f in enumerate_weak_orders(n)),
    "scan-bound n = 8": scan_bound_inputs,
    "wide value n = 6": wide_inputs,
}


def judge(f, path):
    """refcheck's problems with the CLI's classify, hierarchy, certify and descent output on f."""
    obj = set_function_to_json(f)
    path.write_text(json.dumps(obj))
    g = ref.Function(obj)
    full = (1 << g.n) - 1
    problems = []

    def run(check, *argv, **point):
        status, out, _ = run_cli(*argv, "--json")
        problems.extend(f"{argv[0]}: {p}" for p in check(g, out, status, **point))

    run(ref.check_classify, "classify", str(path), "--witness")
    run(ref.check_hierarchy, "hierarchy", str(path))
    for point in (g.first_minimizer(), full):
        run(ref.check_certify, "certify", str(path), "--point", g.subset_str(point), point=point)
    run(ref.check_descent, "minimize", str(path), "--mode", "descent", "--start", g.subset_str(full), start=full)
    return problems


@pytest.mark.parametrize("corpus", list(CORPUS))
def test_refcheck_accepts_the_cli_output(corpus, tmp_path):
    functions = list(CORPUS[corpus]())
    problems = [(f.values[:8], p) for k, f in enumerate(functions) for p in judge(f, tmp_path / f"{k}.json")]
    assert functions and not problems, problems[:5]


@pytest.mark.parametrize("n", [1, 2])
def test_refcheck_accepts_every_suite_and_search(n):
    problems = []
    for suite in ref.SUITES:
        status, out, _ = run_cli("verify", "--suite", suite, "--n", str(n), "--json")
        problems += ref.check_verify(suite, n, out, status)
    for index, (source, _) in enumerate(ref.SEARCH_PREDICATES):
        status, out, _ = run_cli("search", "--n", str(n), "--predicate", source)
        problems += ref.check_search(index, n, out, status)
    assert not problems, problems
