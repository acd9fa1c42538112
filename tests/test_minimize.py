import pytest

from ordsub import (
    ConditionId,
    GroundSet,
    HypothesisError,
    OrderedCodomain,
    SetFunction,
    argmin,
    argmin_lattice_closure,
    certify_global_min,
    check_condition,
    constrained_minimize,
    enumerate_weak_orders,
    interval_descent,
    is_interval_local_min,
    is_lower_interval_min,
    lift_to_global,
    modular_plus_concave,
    random_function,
)

from ordsub.conditions import lane_chunks
from ordsub.minimize import minimal_over

from conftest import codomain_variants, intfn, lane_bit


def brute_min_over(f, masks):
    """Independent oracle: plain min over explicit subsets."""
    return min(f.values[m] for m in masks)


def interval_masks(f, x):
    lower = [m for m in range(f.size) if m & x == m]
    upper = [m for m in range(f.size) if m & x == x]
    return lower, upper


class TestArgmin:
    def test_examples(self, f_const, f_r3, f_cut):
        assert argmin(f_const).minimizers == (0, 1, 2, 3)
        assert argmin(f_const).min_value.key == 0
        assert argmin(f_r3).minimizers == (1,)
        assert argmin(f_r3).min_value.key == 0
        assert argmin(f_cut).minimizers == (0, 3)

    def test_matches_oracle(self):
        for f in codomain_variants(enumerate_weak_orders(2)):
            a = argmin(f)
            gmin = min(f.values)
            assert a.min_value.key == gmin
            assert a.minimizers == tuple(m for m in range(4) if f.values[m] == gmin)


class TestIntervalMinimality:
    def test_lower_examples(self, f_cut, f_card, f_r3):
        assert is_lower_interval_min(f_cut, 3)
        assert is_lower_interval_min(f_r3, 0)  # interval is just {∅}
        assert not is_lower_interval_min(f_card, 1)  # f(∅) = 0 < 1

    def test_local_examples(self, f_r3, f_const):
        assert is_interval_local_min(f_r3, 1)
        assert not is_interval_local_min(f_r3, 2)
        assert all(is_interval_local_min(f_const, x) for x in range(4))

    def test_matches_oracle(self):
        for f in codomain_variants(enumerate_weak_orders(2)):
            for x in range(4):
                lower, upper = interval_masks(f, x)
                assert is_lower_interval_min(f, x) == (f.values[x] <= brute_min_over(f, lower))
                assert is_interval_local_min(f, x) == (
                    f.values[x] <= brute_min_over(f, lower + upper)
                )
        # on a chunk's lanes, minimal_over answers bit k for function k
        vectors = [f.values for f in enumerate_weak_orders(2)]
        chunks = list(lane_chunks([tuple(map(bytes, zip(*vectors)))], 2))
        assert len(chunks) == 1  # 75 functions: one chunk
        for lo, hi in [(lo, hi) for hi in range(4) for lo in range(4) if lo & hi == lo]:
            for x in range(4):
                got = [bool(minimal_over(c.cols, x, lo, hi, c.full) >> lane_bit(k) & 1)
                       for c in chunks for k in range(c.count)]
                expected = [all(v[x] <= v[z] for z in range(4) if lo & z == lo and z | hi == hi) for v in vectors]
                assert got == expected


class TestLiftToGlobal:
    def test_examples(self, f_cut, f_q1nq2):
        assert lift_to_global(f_cut, 3) == 3
        assert lift_to_global(f_cut, 0) == 0
        assert lift_to_global(f_q1nq2, 1) == 1

    def test_precondition_enforced(self, f_card):
        with pytest.raises(ValueError, match="not a minimizer of the lower interval"):
            lift_to_global(f_card, 1)

    def test_verify_flag(self, f_r3, f_cut):
        # {a} is lower-interval-minimal for F_R3 but the function is not Q1
        with pytest.raises(HypothesisError):
            lift_to_global(f_r3, 1, verify=True)
        assert lift_to_global(f_cut, 3, verify=True) == 3

    def test_reaches_global_min_on_q1_functions(self):
        for f in codomain_variants(enumerate_weak_orders(2)):
            if check_condition(f, ConditionId.Q1) is not None:
                continue
            gmin = min(f.values)
            for x in range(4):
                if is_lower_interval_min(f, x):
                    assert f.values[lift_to_global(f, x)] == gmin


class TestIntervalDescent:
    def test_r3_trace(self, f_r3):
        trace = interval_descent(f_r3, 2)
        assert [(m, v.key) for m, v in trace.steps] == [(2, 2), (0, 1), (1, 0)]
        cert = trace.certificate
        assert cert.is_global and cert.hypothesis == "Q4+injective" and cert.verified

    def test_const_immediate_stop(self, f_const):
        trace = interval_descent(f_const, 0)
        assert [(m, v.key) for m, v in trace.steps] == [(0, 0)]
        assert trace.certificate.is_global and trace.certificate.hypothesis == "Q1"

    def test_cut_trace(self, f_cut):
        trace = interval_descent(f_cut, 1)
        assert [(m, v.key) for m, v in trace.steps] == [(1, 1), (0, 0)]
        assert trace.certificate.hypothesis == "Q1"
        assert trace.certificate.is_global

    def test_trace_invariants(self):
        for f in codomain_variants(enumerate_weak_orders(2)):
            for start in range(4):
                trace = interval_descent(f, start)
                vals = [v.key for _, v in trace.steps]
                assert all(a > b for a, b in zip(vals, vals[1:]))  # strictly decreasing
                assert len(trace.steps) - 1 <= 3  # within 2**n - 1 moves
                for (m1, _), (m2, _) in zip(trace.steps, trace.steps[1:]):
                    assert m2 & m1 == m2 or m2 & m1 == m1  # interval-related
                assert is_interval_local_min(f, trace.terminal)

    def test_no_hypothesis_leaves_uncertified(self):
        # [1, 0, 0, 1] fails Q1, Q2, Q4 and injectivity: the terminal gets no certificate
        f = intfn([1, 0, 0, 1])
        trace = interval_descent(f, 1)
        assert trace.terminal == 1
        cert = trace.certificate
        assert not cert.is_global and cert.hypothesis is None and cert.verified
        assert "no structural hypothesis" in cert.reason
        # the terminal happens to attain the true minimum, but uncertified
        assert f.values[trace.terminal] == min(f.values)

    def test_threads_identical(self, f_r3):
        # walks and certificates pinned from the numpy block scan that the
        # row scan replaced
        runs = [
            (f_r3, 2, [2, 0, 1], "Q4+injective"),
            (random_function(6, distinct_values=5, seed=11), 0b111111, [0b111111], None),
            (modular_plus_concave(6, [3, -1, 2, -2, 1, -3], [0, 2, 3, 3, 2, 0, -3]), 0, [0, 0b101010], "Q1"),
        ]
        for f, start, masks, hypothesis in runs:
            trace = interval_descent(f, start)
            assert [m for m, _ in trace.steps] == masks
            cert = trace.certificate
            assert (cert.hypothesis, cert.is_global, cert.verified) == (hypothesis, hypothesis is not None, True)


class TestCertify:
    def test_q1_certificate(self, f_q1nq2):
        cert = certify_global_min(f_q1nq2, 1)
        assert cert.is_global and cert.hypothesis == "Q1"
        assert cert.lower_checked == 2 and cert.upper_checked == 2

    def test_q4_injective_certificate(self, f_r3):
        cert = certify_global_min(f_r3, 1)
        assert cert.is_global and cert.hypothesis == "Q4+injective"

    def test_not_local(self, f_r3):
        cert = certify_global_min(f_r3, 2)
        assert not cert.is_global and cert.hypothesis is None
        assert "not minimal" in cert.reason

    def test_counts(self, f_cut):
        cert = certify_global_min(f_cut, 3)
        assert cert.lower_checked == 4 and cert.upper_checked == 1

    def test_assume_mode(self, f_r3):
        cert = certify_global_min(f_r3, 1, assume="Q1")
        assert cert.is_global and not cert.verified
        assert cert.reason == "hypothesis asserted, unverified"
        with pytest.raises(ValueError) as err:
            certify_global_min(f_r3, 1, assume="Q9")
        assert str(err.value) == "unknown hypothesis 'Q9'; expected one of ('Q1', 'Q2', 'Q4+injective')"

    def test_local_but_no_hypothesis(self):
        # quasisubmodular fails, Q4 fails or injectivity fails: [1,0,0,1]
        f = intfn([1, 0, 0, 1])
        cert = certify_global_min(f, 1)
        assert not cert.is_global and cert.hypothesis is None and cert.verified

    def test_global_truthfulness(self):
        # whenever a certificate says global, the point attains the brute minimum
        for f in codomain_variants(enumerate_weak_orders(2)):
            gmin = min(f.values)
            for x in range(4):
                cert = certify_global_min(f, x)
                if cert.is_global:
                    assert f.values[x] == gmin

    def test_q3_alone_cannot_certify(self):
        # [2, 1, 2, 2] satisfies Q3 (hence Q4) but not Q1/Q2/injectivity, and its
        # interval-local point {b} is NOT globally minimal; abstaining is necessary
        f = intfn([2, 1, 2, 2])
        assert check_condition(f, ConditionId.Q3) is None
        assert is_interval_local_min(f, 2)
        assert f.values[2] != min(f.values)
        cert = certify_global_min(f, 2)
        assert not cert.is_global and cert.hypothesis is None


def brute_hypothesis(f):
    """The first of Q1, Q2 and Q4 with injectivity that f satisfies, over all pairs; None if none.

    Each condition is written as its implication or inequality on the raw keys.
    """
    v = f.values
    quads = [(v[x], v[y], v[x | y], v[x & y]) for x in range(f.size) for y in range(f.size)]
    if all(not a <= i or u <= b for a, b, u, i in quads):
        return "Q1"
    if all(not a < i or u < b for a, b, u, i in quads):
        return "Q2"
    if len(set(v)) == f.size and all(max(a, b) >= min(u, i) for a, b, u, i in quads):
        return "Q4+injective"
    return None


def certify_oracle_functions():
    yield from codomain_variants(enumerate_weak_orders(2))
    for n in (4, 5, 6):
        for seed in range(3):
            yield from codomain_variants([random_function(n, distinct_values=n, seed=seed)])
    yield from codomain_variants([modular_plus_concave(4, [1, 2, 3, 4], [0, 3, 5, 6, 6])])


class TestCertifyOracle:
    def test_every_point_matches_brute_force(self):
        for f in certify_oracle_functions():
            hypothesis = brute_hypothesis(f)
            for x in range(f.size):
                lower, upper = interval_masks(f, x)
                local = f.values[x] <= brute_min_over(f, lower + upper)
                cert = certify_global_min(f, x)
                if not local:
                    want = (None, False, "not minimal over its lower/upper intervals")
                elif hypothesis is None:
                    want = (None, False,
                            "interval-locally minimal, but no structural hypothesis holds (Q1, Q2, Q4+injective)")
                else:
                    want = (hypothesis, True, f"interval-local minimum is global under {hypothesis}")
                assert (cert.hypothesis, cert.is_global, cert.reason) == want, (f, x)
                assert cert.verified
                assert (cert.lower_checked, cert.upper_checked) == (len(lower), len(upper))


class TestArgminLatticeClosure:
    def test_examples(self, f_cut, f_const):
        assert argmin_lattice_closure(f_cut)
        assert argmin_lattice_closure(f_const)

    def test_open_argmin(self):
        f = intfn([0, 0, 0, 1])
        assert not argmin_lattice_closure(f)
        assert check_condition(f, ConditionId.QUASI) is not None  # must fail quasisubmodularity

    def test_quasi_implies_closure_n2(self):
        for f in enumerate_weak_orders(2):
            if check_condition(f, ConditionId.QUASI) is None:
                assert argmin_lattice_closure(f)


class TestConstrainedMinimize:
    def test_examples(self, f_card, f_cut, f_const):
        r = constrained_minimize(f_card, f_cut, 1)
        assert r.argmin.minimizers == (1, 2) and r.argmin.min_value.key == 1
        assert r.feasible_count == 2
        r = constrained_minimize(f_card, f_card, 1)
        assert r.argmin.minimizers == (1, 2) and r.argmin.min_value.key == 1
        r = constrained_minimize(f_const, f_cut, 1)
        assert r.argmin.minimizers == (1, 2) and r.argmin.min_value.key == 0
        r = constrained_minimize(f_card, f_card, 2)
        assert r.argmin.minimizers == (3,) and r.argmin.min_value.key == 2

    def test_k_range(self, f_card, f_cut, f_const):
        with pytest.raises(ValueError, match="k must be in"):
            constrained_minimize(f_card, f_cut, 2)  # p = 2, so k <= 1
        with pytest.raises(ValueError, match="k must be in"):
            constrained_minimize(f_card, f_cut, 0)
        with pytest.raises(ValueError, match="k must be in"):
            constrained_minimize(f_card, f_const, 1)  # constant constraint: p = 1, no valid k

    @pytest.mark.parametrize("k", [True, 1.0])
    def test_k_must_be_an_int(self, f_card, k):
        with pytest.raises(TypeError, match="k must be an int"):
            constrained_minimize(f_card, f_card, k)

    def test_ground_mismatch(self, f_card):
        other = SetFunction.from_ints(("x", "y"), [0, 1, 1, 2])
        with pytest.raises(ValueError, match="share a ground set"):
            constrained_minimize(f_card, other, 1)

    def test_label_objective_rejected(self, f_cut):
        cod = OrderedCodomain("labels", ("lo", "hi"))
        phi = SetFunction(GroundSet(("a", "b")), cod, ("lo", "hi", "hi", "lo"))
        with pytest.raises(ValueError, match="numeric"):
            constrained_minimize(phi, f_cut, 1)

    def test_matches_filtered_enumeration(self, f_card):
        objectives = list(codomain_variants([f_card]))[:2]  # integer and rational
        for f in codomain_variants(enumerate_weak_orders(2)):
            mu = sorted(set(f.values))
            for k in range(1, len(mu)):
                for phi in objectives:
                    r = constrained_minimize(phi, f, k)
                    feasible = [m for m in range(4) if f.values[m] > mu[k - 1]]
                    best = min(phi.values[m] for m in feasible)
                    assert r.argmin.min_value.key == best
                    assert r.argmin.minimizers == tuple(m for m in feasible if phi.values[m] == best)
                    assert r.feasible_count == len(feasible)

    def test_threshold_is_the_kth_value(self, f_card):
        for f in codomain_variants(enumerate_weak_orders(2)):
            mu = sorted(set(f.values))
            for k in range(1, len(mu)):
                assert constrained_minimize(f_card, f, k).threshold.key == mu[k - 1]
