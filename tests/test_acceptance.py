"""Acceptance suite: every exit criterion, one test and one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All expected values here were computed independently (brute-force
oracles, Stirling-sum counts, hand derivation on n = 2 tables) before being
frozen.
"""

import hashlib
import json
import random
import time
from fractions import Fraction

from ordsub import (
    ChainError,
    ConditionId,
    OrderedCodomain,
    argmin,
    argmin_lattice_closure,
    check_condition,
    classify,
    constrained_minimize,
    cut_function,
    enumerate_weak_orders,
    family_chain,
    interval_descent,
    is_injective,
    is_interval_local_min,
    is_ordinary_submodular,
    modular_plus_concave,
    qh_from_chain,
    random_function,
    run_suite,
    search_witness,
    set_function_to_json,
)

from conftest import intfn, run_cli


def report(num, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:>2}: {name}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_c01_lemma1_exhaustive():
    r2 = run_suite("lemma1", 2)
    t0 = time.perf_counter()
    r3 = run_suite("lemma1", 3)
    elapsed = time.perf_counter() - t0
    ok = (
        r2.scanned == 75
        and r3.scanned == 545_835
        and r2.violations == 0
        and r3.violations == 0
        and elapsed < 30.0
    )
    report(1, "Q3 implies Q4 over all weak orders (n=2, n=3)", ok,
           f"n=3: {r3.scanned} functions, {r3.violations} violations, {elapsed:.2f}s")


def test_c02_strictness_gap_witnesses():
    # pinned regression fixtures: first matches in enumeration order
    expected = {
        (2, "Q4 & !Q3"): (2, 1, 2, 3),
        (2, "Q1 & !Q2"): (2, 1, 1, 1),
        (2, "Q2 & !Q1"): (1, 1, 1, 2),
        (2, "Q3 & !(Q1 & Q2)"): (1, 1, 1, 2),
        (3, "Qh & !(Q1 & Q2)"): (1, 1, 1, 1, 2, 1, 3, 1),
    }
    requires = {
        "Q4 & !Q3": [(ConditionId.Q4, True), (ConditionId.Q3, False)],
        "Q1 & !Q2": [(ConditionId.Q1, True), (ConditionId.Q2, False)],
        "Q2 & !Q1": [(ConditionId.Q2, True), (ConditionId.Q1, False)],
        "Q3 & !(Q1 & Q2)": [(ConditionId.Q3, True), (ConditionId.QUASI, False)],
        "Qh & !(Q1 & Q2)": [(ConditionId.QH, True), (ConditionId.QUASI, False)],
    }
    ok = True
    details = []
    for (n, pred), vec in expected.items():
        f = search_witness(n, pred)
        if f is None or f.values != vec:
            ok = False
            details.append(f"{pred} at n={n}: got {None if f is None else f.values}")
            continue
        flags = classify(f).flags
        if not all(flags[c] == v for c, v in requires[pred]):
            ok = False
            details.append(f"{pred}: classify disagrees")
    report(2, "strict gaps Q4\\Q3, Q1\\Q2, Q2\\Q1, Q3\\Quasi, Qh\\Quasi are inhabited", ok,
           "; ".join(details) or "5 pinned witnesses reverified")


def test_c03_lemma1a_exhaustive():
    results = [run_suite("lemma1a", n) for n in (1, 2, 3)]
    ok = all(r.violations == 0 for r in results)
    report(3, "Q1: lower-interval minimality lifts to a global minimizer above", ok,
           ", ".join(f"n={r.n}: {r.hypothesis_count} Q1 functions" for r in results))


def test_c04_theorem1_exhaustive():
    results = [run_suite("theorem1", n) for n in (1, 2, 3)]
    ok = all(r.violations == 0 for r in results)
    # the Q2 side once more, explicitly through the complement-dual bridge
    for f in enumerate_weak_orders(2):
        if check_condition(f, ConditionId.Q2) is not None:
            continue
        g = f.complement_dual()
        if check_condition(g, ConditionId.Q1) is not None:
            ok = False
            break
        gmin = min(g.values)
        for x in range(4):
            if is_interval_local_min(g, x) and g.values[x] != gmin:
                ok = False
    report(4, "Q1 (and dually Q2): interval-local minima are global", ok,
           ", ".join(f"n={r.n}: {r.hypothesis_count} hyp" for r in results))


def test_c05_theorem2_exhaustive():
    r2 = run_suite("theorem2", 2)
    t0 = time.perf_counter()
    r3 = run_suite("theorem2", 3)
    elapsed = time.perf_counter() - t0
    ok = (
        r2.scanned == 24
        and r3.scanned == 40_320
        and r2.violations == 0
        and r3.violations == 0
        and elapsed < 10.0
    )
    report(5, "injective Q4: interval-local minima are the unique minimizer", ok,
           f"n=3: {r3.hypothesis_count} Q4 linear orders, {elapsed:.2f}s")


def test_c06_remark2_exhaustive():
    results = [run_suite("remark2", n) for n in (1, 2, 3)]
    ok = all(r.violations == 0 and r.hypothesis_count == r.scanned for r in results)
    report(6, "pairwise Q1-or-Q2 coincides with Q3 on every function", ok,
           ", ".join(f"n={r.n}: {r.scanned}" for r in results))


def test_c07_generator_families():
    ok = True
    checked = 0
    for seed in range(1000):
        rng = random.Random(seed)
        n = rng.randint(2, 4)
        if seed % 2 == 0:
            edges = [
                (i, j, rng.randint(1, 5))
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.7
            ]
            f = cut_function(n, edges)
        else:
            weights = [rng.randint(-3, 4) for _ in range(n)]
            g = [0]
            delta = rng.randint(0, 5)
            for _ in range(n):
                g.append(g[-1] + delta)
                delta -= rng.randint(0, 2)
            f = modular_plus_concave(n, weights, g)
        checked += 1
        if not is_ordinary_submodular(f):
            ok = False
            break
        if check_condition(f, ConditionId.QUASI) is not None:
            ok = False
            break
        if not argmin_lattice_closure(f):
            ok = False
            break
    report(7, "1000 structured submodular instances: ordinary, quasisubmodular, closed argmin",
           ok and checked == 1000, f"{checked} instances at n<=4, seed {seed}" if not ok else f"{checked} instances")


def test_c08_duality():
    results = [run_suite("duality", n) for n in (1, 2, 3)]
    ok = all(r.violations == 0 for r in results)
    fixtures = [
        intfn([0, 0, 0, 0]),
        intfn([1, 0, 2, 3]),
        intfn([0, 1, 1, 0]),
        intfn([1, 0, 2, 2]),
        intfn([0, 1, 1, 2]),
    ]
    for f in fixtures:
        if f.order_dual().order_dual().values != f.values:
            ok = False
        if f.complement_dual().complement_dual().values != f.values:
            ok = False
    report(8, "complement-dual bridges Q1<->Q2, Q3/Q4 self-dual; duals are involutions", ok,
           ", ".join(f"n={r.n}: {r.scanned}" for r in results))


def test_c09_ordinal_invariance():
    ok = True
    for seed in range(1000):
        rng = random.Random(10_000 + seed)
        n = rng.choice((2, 2, 3, 3, 4))
        d = rng.randint(1, 1 << n)
        f = random_function(n, distinct_values=d, seed=seed)
        old = sorted(set(f.values))
        if rng.random() < 0.5:
            acc = rng.randint(-20, 20)
            news = []
            for _ in old:
                news.append(acc)
                acc += rng.randint(1, 9)
            target = None
        else:
            acc = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
            news = []
            for _ in old:
                news.append(acc)
                acc += Fraction(rng.randint(1, 9), rng.randint(1, 7))
            target = OrderedCodomain("rational")
        g = f.monotone_transform(list(zip(old, news)), codomain=target)
        if classify(g).ordinal_vector() != classify(f).ordinal_vector():
            ok = False
            break
    report(9, "1000 strictly increasing relabelings preserve the ordinal classification", ok,
           f"failed at seed {seed}" if not ok else "1000 pairs at n<=4")


def test_c10_descent_vs_oracle():
    ok = True
    descents = 0
    for n in (1, 2):
        size = 1 << n
        for f in enumerate_weak_orders(n):
            hyp = (
                check_condition(f, ConditionId.Q1) is None
                or check_condition(f, ConditionId.Q2) is None
                or (check_condition(f, ConditionId.Q4) is None and is_injective(f))
            )
            best = argmin(f).min_value.key
            for start in range(size):
                trace = interval_descent(f, start)
                descents += 1
                if len(trace.steps) - 1 > size - 1:
                    ok = False
                if not is_interval_local_min(f, trace.terminal):
                    ok = False
                if hyp and f.values[trace.terminal] != best:
                    ok = False
    report(10, "interval descent terminates at certified-global points when a hypothesis holds",
           ok, f"{descents} descents over all functions at n<=2")


def test_c11_constrained_solver_vs_enumeration():
    ok = True
    instances = 0
    for seed in range(200):
        rng = random.Random(20_000 + seed)
        n = rng.randint(2, 4)
        if seed % 2 == 0:
            edges = [
                (i, j, rng.randint(1, 4))
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.7
            ]
            phi = cut_function(n, edges)
        else:
            weights = [rng.randint(0, 4) for _ in range(n)]
            g = [0]
            delta = rng.randint(1, 4)
            for _ in range(n):
                g.append(g[-1] + delta)
                delta -= 1
            phi = modular_plus_concave(n, weights, g)
        f = random_function(n, distinct_values=rng.randint(2, 1 << n), seed=seed)
        mu = sorted(set(f.values))
        instances += 1
        for k in range(1, len(mu)):
            result = constrained_minimize(phi, f, k)
            feasible = [m for m in range(f.size) if f.values[m] > mu[k - 1]]
            best = min(phi.values[m] for m in feasible)
            expect_mins = tuple(m for m in feasible if phi.values[m] == best)
            if (
                result.argmin.min_value.key != best
                or result.argmin.minimizers != expect_mins
                or result.feasible_count != len(feasible)
            ):
                ok = False
    report(11, "constrained minimization matches filtered full enumeration", ok,
           f"{instances} instances, all valid thresholds")


def test_c12_hierarchy_round_trip():
    accepted = 0
    tried = 0
    ok = True
    seed = 0
    while accepted < 100 and tried < 500:
        rng = random.Random(30_000 + seed)
        n = rng.randint(2, 3)
        size = 1 << n
        d = size if seed % 2 == 0 else rng.randint(1, size)
        f = random_function(n, distinct_values=d, seed=seed)
        seed += 1
        tried += 1
        chain = family_chain(f)
        fams = chain.families
        if fams[0] != () or fams[-1] != tuple(range(size)):
            ok = False
        if not all(set(a) < set(b) for a, b in zip(fams, fams[1:])):
            ok = False
        try:
            rebuilt = qh_from_chain(f.ground, chain)
        except ChainError:
            continue
        accepted += 1
        if family_chain(rebuilt) != chain:
            ok = False
    report(12, "family chains rebuild their functions exactly (100 accepted chains)",
           ok and accepted >= 100, f"{accepted} accepted of {tried} sampled")


def test_c13_cli_determinism_across_threads(tmp_path, monkeypatch):
    # SHA-256 prefixes of each output, pinned from the numpy block scan that
    # the row scan replaced; every command runs twice
    monkeypatch.chdir(tmp_path)
    (tmp_path / "r3.json").write_text(json.dumps(set_function_to_json(intfn([1, 0, 2, 3]))))
    pinned = [
        (("classify", "r3.json", "--json", "--witness"), 0, "793adf87cd47c904"),
        (("minimize", "r3.json", "--mode", "descent", "--start", "b", "--json"), 0, "f6d71790a457a50c"),
        (("minimize", "r3.json", "--mode", "brute", "--json"), 0, "654c434a617f4eac"),
        (("certify", "r3.json", "--point", "a", "--json"), 0, "de9af0453ba3c8d7"),
        (("verify", "--suite", "lemma1", "--n", "2", "--json"), 0, "40f2dfa1f0bfd1a1"),
        (("verify", "--suite", "theorem2", "--n", "2", "--json"), 0, "f0e7bc00fd8d34d0"),
        (("search", "--n", "2", "--predicate", "Q4&!Q3"), 0, "dc0eeea70cc7f5a7"),
        (("hierarchy", "r3.json", "--json"), 0, "1f25bba19218d700"),
    ]

    def digest(cmd):
        code, out, _ = run_cli(*cmd)
        return code, hashlib.sha256(out.encode()).hexdigest()[:16]

    bad = [cmd[0] for cmd, *want in pinned for _ in range(2) if digest(cmd) != tuple(want)]
    report(13, "witness-producing and descent commands repeat their pinned outputs byte for byte", not bad,
           "differs: " + ", ".join(bad) if bad else f"{len(pinned)} commands x 2 runs")
