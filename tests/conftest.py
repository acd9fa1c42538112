import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from ordsub import RATIONALS, OrderedCodomain, SetFunction
from ordsub.cli import main as cli_main


def intfn(values, n=None):
    """Integer-valued function on default element names."""
    if n is None:
        n = (len(values) - 1).bit_length()
    return SetFunction.from_ints(n, values)


SPARSE_LABELS = OrderedCodomain("labels", tuple(f"L{i:02d}" for i in range(40)))


def codomain_variants(functions):
    """Each integer function, then a rational and a labels copy in the same order.

    The rational copy takes v to (3v - 8)/12, negative for v <= 2, written
    as [3v - 8, 12] on even masks and as [6v - 16, 24] on odd ones, so equal
    values come in two spellings; reduced, the denominators differ, and the
    numerators are out of order (-2/3 < -5/12) and collide (1/12, 1/3).  The
    labels copy takes v to the label at position 2v, leaving every other
    label unused.
    """
    for f in functions:
        yield f
        yield SetFunction(f.ground, RATIONALS, tuple(
            [3 * v - 8, 12] if m % 2 == 0 else [6 * v - 16, 24] for m, v in enumerate(f.values)
        ))
        yield SetFunction(f.ground, SPARSE_LABELS, tuple(SPARSE_LABELS.label_order[2 * v] for v in f.values))


def lane_bit(k):
    """The guard bit of lane k of a LaneChunk: the bit of function k in a bitset of the chunk."""
    return 8 * k + 7


def run_cli(*argv):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


# Standard fixtures on E = {a, b}; masks 0=∅, 1={a}, 2={b}, 3={a,b}.

@pytest.fixture
def f_const():
    return intfn([0, 0, 0, 0])


@pytest.fixture
def f_r3():
    # injective, Q4 but not Q3: f(a) < f(∅) < f(b) < f(ab)
    return intfn([1, 0, 2, 3])


@pytest.fixture
def f_cut():
    # single-edge cut function on {a, b}
    return intfn([0, 1, 1, 0])


@pytest.fixture
def f_q1nq2():
    # satisfies Q1 but not Q2
    return intfn([1, 0, 2, 2])


@pytest.fixture
def f_card():
    # cardinality (modular)
    return intfn([0, 1, 1, 2])


@pytest.fixture
def all_fixtures(f_const, f_r3, f_cut, f_q1nq2, f_card):
    return {
        "const": f_const,
        "r3": f_r3,
        "cut": f_cut,
        "q1nq2": f_q1nq2,
        "card": f_card,
    }
