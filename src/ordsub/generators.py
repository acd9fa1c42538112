"""Generators and exhaustive enumerators for test corpora and witness search.

Up to a strictly increasing relabeling of values, a set function on m = 2**n
subsets is exactly a surjective rank vector: a map from masks into {1..k}
hitting every rank.  Enumerating those (lexicographically) enumerates every
ordinal behaviour at small n; injective rank vectors (permutations) cover the
linear-order case.  The counts are the ordered set partition numbers
(3, 75, 545835 for m = 2, 4, 8) and m! respectively.

Both come as blocks of columns, ready for ``conditions.lane_chunks``, which
makes each block one chunk: one block per head, the first m - 6 values, the
head's columns, one repeated byte each, followed by the columns of its tails
of six, built once, so no object is made per vector.  A weak order's tails
(``weak_order_columns``) depend only on its head's largest rank and the
ranks it skips below that, and ``_tails`` builds each set once; a
permutation's (``linear_order_columns``) are those of 1..6, relabelled.
"""

from __future__ import annotations

import itertools
import random
import re
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .conditions import ENUMERATION_CAP, ConditionId, lane_chunks
from .core import INTEGERS, RATIONALS, GroundSet, OrderedCodomain, RawKey, SetFunction, _clip, default_elements, record


# The length of the memoized tails, which sizes the blocks, and so the chunks,
# of both enumerators.  At m = 8 the weak orders' tails of six take 2.4 MB of
# columns, in 63 blocks of 720 to 18,731 vectors; the permutations, 56 of 720.
_TAIL = 6


@lru_cache(maxsize=None)
def _tails(r: int, top: int, missing: int) -> tuple[int, tuple[bytes, ...]]:
    """Every length-r completion, lexicographic, of a prefix with largest rank
    top that leaves the ranks in the bitmask missing unused: their count, and
    r columns, column j holding the j-th value of every completion."""
    if missing.bit_count() > r:
        return 0, (b"",) * r
    if r == 0:
        return 1, ()
    count, first, rest = 0, [], []
    for w in range(1, top + r + 1):
        # w fills a skipped rank, repeats one, or is a new top that skips top+1..w-1
        state = (top, missing & ~(1 << w)) if w <= top else (w, missing | (1 << w) - (2 << top))
        k, cols = _tails(r - 1, *state)
        count += k
        first.append(bytes((w,)) * k)
        rest.append(cols)
    return count, (b"".join(first), *map(b"".join, zip(*rest)))


def weak_order_columns(m: int) -> Iterator[tuple[bytes, ...]]:
    """All vectors in {1..k}**m surjective onto {1..k}, any k, lexicographic,
    as blocks of m columns, column j holding the j-th value of each of the
    block's vectors.  m >= 1."""
    r = min(m, _TAIL)
    for head in itertools.product(range(1, m + 1), repeat=m - r):
        top = max(head, default=0)
        count, cols = _tails(r, top, sum(1 << v for v in range(1, top + 1) if v not in head))
        if count:
            yield (*(bytes((v,)) * count for v in head), *cols)


def surjective_rank_vectors(m: int) -> Iterator[tuple[int, ...]]:
    """The vectors of weak_order_columns(m), one tuple each."""
    if m == 0:
        return iter(((),))
    return itertools.chain.from_iterable(zip(*block) for block in weak_order_columns(m))


def linear_order_columns(m: int) -> Iterator[tuple[bytes, ...]]:
    """The vectors of injective_rank_vectors(m), in blocks as weak_order_columns
    gives its own: per head, the permutations of 1..r, built once as columns,
    relabelled onto the r values the head leaves.  The relabelling is
    increasing, so the order stays lexicographic.  m >= 1."""
    r = min(m, _TAIL)
    tails = tuple(map(bytes, zip(*itertools.permutations(range(1, r + 1)))))
    count = len(tails[0])
    for head in itertools.permutations(range(1, m + 1), m - r):
        table = bytes.maketrans(bytes(range(1, r + 1)), bytes(v for v in range(1, m + 1) if v not in head))
        yield (*(bytes((v,)) * count for v in head), *(col.translate(table) for col in tails))


def injective_rank_vectors(m: int) -> Iterator[tuple[int, ...]]:
    """All m! injective rank vectors (permutations of 1..m), lexicographic."""
    return itertools.permutations(range(1, m + 1))


def _check_cap(n: int) -> int:
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"n must be an int, got {type(n).__name__}")
    if not 1 <= n <= ENUMERATION_CAP:
        raise ValueError(f"exhaustive enumeration is capped at n <= {ENUMERATION_CAP}, got {n}")
    return n


def enumerate_weak_orders(n: int) -> Iterator[SetFunction]:
    """Every set function on n elements up to order-isomorphism, as integer ranks."""
    _check_cap(n)
    for vec in surjective_rank_vectors(1 << n):
        yield SetFunction.from_ints(n, vec)


def enumerate_linear_orders(n: int) -> Iterator[SetFunction]:
    """Every injective set function on n elements up to order-isomorphism."""
    _check_cap(n)
    for vec in injective_rank_vectors(1 << n):
        yield SetFunction.from_ints(n, vec)


def _weight_key(w: object, what: str) -> RawKey:
    """w, checked to be an int or a Fraction; only a weight that is not an int imports fractions."""
    if isinstance(w, int) and not isinstance(w, bool):
        return w
    from fractions import Fraction

    if not isinstance(w, Fraction):
        raise TypeError(f"{what} must be ints or Fractions, got {w!r}")
    return w


def cut_function(n: int, edges: Iterable[tuple[int, int, object]]) -> SetFunction:
    """f(X) = total weight of edges with exactly one endpoint in X.

    Endpoints are element indices with 0 <= i < j < n; weights are positive
    ints or Fractions.  Always ordinary submodular.
    """
    ground = GroundSet(default_elements(n))
    edge_list = []
    for i, j, w in edges:
        if not (isinstance(i, int) and isinstance(j, int) and 0 <= i < j < n):
            raise ValueError(f"edge endpoints must satisfy 0 <= i < j < {n}, got ({i}, {j})")
        w = _weight_key(w, "edge weights")
        if not w > 0:
            raise ValueError(f"edge weights must be positive, got {w}")
        edge_list.append((1 << i, 1 << j, w))
    codomain = INTEGERS if all(isinstance(w, int) for _, _, w in edge_list) else RATIONALS
    values = [sum(w for bi, bj, w in edge_list if bool(mask & bi) != bool(mask & bj))
              for mask in range(ground.size)]
    return SetFunction(ground, codomain, tuple(values))


def modular_plus_concave(n: int, weights: Sequence[object], concave: Sequence[object]) -> SetFunction:
    """f(X) = sum of weights over X, plus g(|X|) for a concave sequence g.

    ``concave`` gives g(0..n) and must have nonincreasing first differences.
    Ordinary submodular by construction.
    """
    ground = GroundSet(default_elements(n))
    ws = [_weight_key(w, "weights") for w in weights]
    if len(ws) != n:
        raise ValueError(f"need {n} weights, got {len(ws)}")
    g = [_weight_key(v, "concave sequence") for v in concave]
    if len(g) != n + 1:
        raise ValueError(f"concave sequence must have {n + 1} entries g(0)..g({n}), got {len(g)}")
    for k in range(n - 1):
        if g[k + 2] - g[k + 1] > g[k + 1] - g[k]:
            raise ValueError(f"sequence is not concave at position {k}: second difference is positive")
    codomain = INTEGERS if all(isinstance(v, int) for v in ws + g) else RATIONALS
    values = [sum(w for i, w in enumerate(ws) if mask >> i & 1) + g[bin(mask).count("1")]
              for mask in range(ground.size)]
    return SetFunction(ground, codomain, tuple(values))


def random_function(
    n: int,
    codomain: OrderedCodomain = INTEGERS,
    distinct_values: int = 2,
    seed: int = 0,
) -> SetFunction:
    """Seeded random function attaining exactly ``distinct_values`` values.

    Values come from a fixed pool of the requested size (0..d-1 for integers,
    i/d for rationals, the first d labels); each pool value is planted at one
    sampled position to force surjectivity, the rest are uniform.  Identical
    seeds give identical functions.
    """
    ground = GroundSet(default_elements(n))
    size = ground.size
    d = distinct_values
    if not 1 <= d <= size:
        raise ValueError(f"distinct_values must be in [1, {size}], got {d}")
    if codomain.kind == "integer":
        pool: list[object] = list(range(d))
    elif codomain.kind == "rational":
        from fractions import Fraction

        pool = [Fraction(i, d) for i in range(d)]
    else:
        if len(codomain.label_order) < d:
            raise ValueError(f"labels codomain has only {len(codomain.label_order)} labels, need {d}")
        pool = list(codomain.label_order[:d])
    rng = random.Random(seed)
    picks = [rng.randrange(d) for _ in range(size)]
    for j, pos in enumerate(rng.sample(range(size), d)):
        picks[pos] = j
    return SetFunction(ground, codomain, tuple(pool[i] for i in picks))


# Predicate language over condition flags, for witness search:
#   Q4 & !Q3,  (Q1 | Q2) & !QuasiSubmodular,  Qh & !(Q1 & Q2)
# with ∧ ∨ ¬ accepted as syntax for & | !.

_ALIASES = {
    "q1": ConditionId.Q1,
    "q2": ConditionId.Q2,
    "q3": ConditionId.Q3,
    "q4": ConditionId.Q4,
    "qh": ConditionId.QH,
    "quasi": ConditionId.QUASI,
    "quasisubmodular": ConditionId.QUASI,
    "ordinary": ConditionId.ORDINARY,
    "ordinarysubmodular": ConditionId.ORDINARY,
    "injective": ConditionId.INJECTIVE,
}

# Compiled, and cached by re, on the first parse: only search parses a predicate.
# One pass tokenizes: each match is a token (group 1) or the first character
# no token can hold (group 2: one outside the token alphabet, or a digit that
# would start a name).  The scan stops before the text's trailing blanks, which
# no match can take: from each of them, \s* would run to the end and fail.
_TOKEN_RE = r"\s*(?:([A-Za-z][A-Za-z0-9]*|[&|!()])|(\S))"

# Bound on nested ! and parentheses, which the parser recurses through, and
# on the height of the parsed tree, which evaluation recurses through, so
# that both stay far below Python's recursion limit.  A chain of & or | is
# built as a balanced tree, so its height grows only as the log of its length.
MAX_PREDICATE_NESTING = 100
_TOO_DEEP = f"predicate nests too deeply (more than {MAX_PREDICATE_NESTING} levels)"


@record
class ClassPredicate:
    """A parsed boolean combination of condition flags."""

    source: str
    ast: tuple

    def conditions(self) -> frozenset[ConditionId]:
        return _flags(self.ast)

    def evaluate(self, lookup: Callable[[ConditionId], int], true: int = True) -> int:
        """The predicate over the flags from lookup.

        Flags are bools, or bitsets of functions, with ``true`` then the set
        of all of them; the result is of the same kind.
        """
        return _evaluate(self.ast, lookup, true)


# Module-level recursion, not nested closures, in the parser as in the tree
# walks: a closure that calls itself is a reference cycle, which would keep
# each parse's tokens, or each call's flags, alive until the cyclic garbage
# collector runs.

def _flags(node: tuple) -> frozenset[ConditionId]:
    if node[0] == "flag":
        return frozenset((node[1],))
    return frozenset().union(*map(_flags, node[1:]))


def _evaluate(node: tuple, lookup: Callable[[ConditionId], int], true: int) -> int:
    op = node[0]
    if op == "flag":
        return lookup(node[1])
    if op == "not":
        return true ^ _evaluate(node[1], lookup, true)
    if op == "and":
        return _evaluate(node[1], lookup, true) & _evaluate(node[2], lookup, true)
    return _evaluate(node[1], lookup, true) | _evaluate(node[2], lookup, true)


# The parser's nodes come with their height, a flag's being 0.

def _node(op: str, *kids: tuple) -> tuple:
    height = 1 + max(h for _, h in kids)
    if height > MAX_PREDICATE_NESTING:
        raise ValueError(_TOO_DEEP)
    return (op, *(k for k, _ in kids)), height


def _balanced(op: str, nodes: list[tuple]) -> tuple:
    if len(nodes) == 1:
        return nodes[0]
    mid = len(nodes) // 2
    return _node(op, _balanced(op, nodes[:mid]), _balanced(op, nodes[mid:]))


def _parse(tokens: list[str], source: str, depth: int, ops: str = "|&") -> tuple:
    """One operand of the binary operators in ops, loosest first, popped off
    the end of tokens: a chain of them for ops[0], or for no ops a negation,
    a parenthesized predicate or a flag.  depth counts the ! and ( around."""
    if ops:
        nodes = [_parse(tokens, source, depth, ops[1:])]
        while tokens[-1] == ops[0]:
            tokens.pop()
            nodes.append(_parse(tokens, source, depth, ops[1:]))
        return _balanced("or" if ops[0] == "|" else "and", nodes)
    t = tokens.pop()
    if t in ("!", "("):
        if depth >= MAX_PREDICATE_NESTING:
            raise ValueError(_TOO_DEEP)
        if t == "!":
            return _node("not", _parse(tokens, source, depth + 1, ""))
        node = _parse(tokens, source, depth + 1)
        if tokens.pop() != ")":
            raise ValueError(f"unbalanced parentheses in predicate {_clip(source)}")
        return node
    if t == "$":
        raise ValueError(f"predicate {_clip(source)} ends where a condition belongs")
    if t in ("&", "|", ")"):
        raise ValueError(f"expected a condition, found {t!r}, in predicate {_clip(source)}")
    key = t.lower()
    if key not in _ALIASES:
        raise ValueError(f"unknown condition {_clip(t)}; expected one of Q1..Q4, Qh, QuasiSubmodular, "
                         "OrdinarySubmodular, Injective")
    return ("flag", _ALIASES[key]), 0


def parse_predicate(text: str) -> ClassPredicate:
    source = text
    text = text.replace("∧", "&").replace("∨", "|").replace("¬", "!").replace("~", "!")
    text = text.replace("&&", "&").replace("||", "|")
    tokens = []
    for m in re.compile(_TOKEN_RE).finditer(text, 0, len(text.rstrip())):
        if m[2]:  # echo from the end of the last whole token, blanks before the bad character included
            raise ValueError(f"predicate syntax error at {_clip(text[m.start():])}")
        tokens.append(m[1])
    tokens.append("$")
    tokens.reverse()
    node, _ = _parse(tokens, source, 0)
    if tokens.pop() != "$":
        raise ValueError(f"trailing input in predicate {_clip(source)}")
    return ClassPredicate(source, node)


def search_witness(n: int, predicate: ClassPredicate | str) -> SetFunction | None:
    """First enumerated weak order whose classification satisfies the predicate.

    Functions are scanned in enumeration (lexicographic rank vector) order,
    a chunk at a time with every flag the predicate names as a bitset, and
    the first match wins.  Each chunk is one enumerator block, and the scan
    stops at the first block that holds a match.  None means the whole
    stream was exhausted without a match.
    """
    _check_cap(n)
    if isinstance(predicate, str):
        predicate = parse_predicate(predicate)
    conds = predicate.conditions()
    for c in lane_chunks(weak_order_columns(1 << n), n):
        flags = {cond: c.holds(cond) for cond in conds}
        match = predicate.evaluate(flags.__getitem__, c.full)
        if match:
            return SetFunction.from_ints(n, c.vector(match))
    return None
