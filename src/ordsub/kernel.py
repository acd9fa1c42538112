"""Block scans over the incomparable pairs of a Boolean lattice, in numpy.

A condition enters as a violation predicate on the four lattice values
(vx, vy, vu, vi) = (f(X), f(Y), f(X∪Y), f(X∩Y)), written with comparisons,
``&`` and ``|`` only (``conditions.VIOLATES``).  Here it is evaluated on
arrays: rows X of one block against every Y at once.

Values must be exact integers.  ``dense_ranks`` serves the ordinal
conditions, which depend on order alone; ``exact_ints`` serves ordinary
submodularity, which needs sums.  No floating point appears.

Memory is O(BLOCK + 2**n): a block holds at most BLOCK pairs, or one row
of 2**n pairs when n > 18.
"""

from __future__ import annotations

import math
from typing import Callable, Hashable, Iterator, Mapping, Sequence

import numpy as np

from .core import RawKey

# Pairs per block.  Blocks start near FIRST_BLOCK and double up to BLOCK:
# most failing functions fail in the first rows, and a small first block keeps
# that early exit cheap, while a full scan soon runs at the full block size.
FIRST_BLOCK = 1 << 12
BLOCK = 1 << 18

Predicate = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def dense_ranks(values: Sequence[RawKey]) -> np.ndarray:
    """Each value's position among the sorted distinct values, as int32."""
    rank = {v: r for r, v in enumerate(sorted(set(values)))}
    return np.array([rank[v] for v in values], dtype=np.int32)


def exact_ints(values: Sequence[RawKey]) -> np.ndarray:
    """The values times the LCM of their denominators, order and sums intact.

    int64 when every scaled value has magnitude below 2**62, so that a sum
    of two cannot overflow; otherwise an object array of Python ints.
    """
    scale = math.lcm(*(v.denominator for v in values))
    ints = [v.numerator * (scale // v.denominator) for v in values]
    fits = max(map(abs, ints)) < 1 << 62
    return np.array(ints, dtype=np.int64 if fits else object)


def _blocks(n: int) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Per block of rows X (ascending): lo, the X column, all Y, X|Y, X&Y, incomparable mask."""
    size = 1 << n
    ys = np.arange(size)
    most = max(1, BLOCK >> n)
    rows = min(most, max(1, FIRST_BLOCK >> n))
    lo = 0
    while lo < size:
        xs = ys[lo:lo + rows, None]
        inter = xs & ys
        yield lo, xs, ys, xs | ys, inter, (inter != xs) & (inter != ys)
        lo += rows
        rows = min(2 * rows, most)


def first_violations(
    n: int, vals: np.ndarray, predicates: Mapping[Hashable, Predicate]
) -> dict[Hashable, tuple[int, int]]:
    """The lexicographically first incomparable (X, Y) violating each predicate.

    All predicates are evaluated in one pass over the blocks.  A predicate is
    dropped once its pair is found, and the scan stops when none is left.
    Keys with no violating pair are absent from the result.
    """
    size = 1 << n
    todo = dict(predicates)
    found: dict[Hashable, tuple[int, int]] = {}
    for lo, xs, ys, union, inter, incomparable in _blocks(n):
        args = (vals[xs], vals[ys], vals[union], vals[inter])
        for key, violates in list(todo.items()):
            hit = violates(*args) & incomparable
            idx = int(hit.argmax())  # row-major: the smallest X, then the smallest Y
            if hit.flat[idx]:
                found[key] = divmod(lo * size + idx, size)
                del todo[key]
        if not todo:
            break
    return found


def all_violations(n: int, vals: np.ndarray, violates: Predicate) -> Iterator[tuple[int, int]]:
    """Every incomparable (X, Y) violating the predicate, in lexicographic order."""
    for lo, xs, ys, union, inter, incomparable in _blocks(n):
        hit = violates(vals[xs], vals[ys], vals[union], vals[inter]) & incomparable
        for x, y in zip(*np.nonzero(hit)):
            yield lo + int(x), int(y)
