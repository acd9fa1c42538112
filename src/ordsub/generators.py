"""Generators and exhaustive enumerators for test corpora and witness search.

Up to a strictly increasing relabeling of values, a set function on m = 2**n
subsets is exactly a surjective rank vector: a map from masks into {1..k}
hitting every rank.  Enumerating those (lexicographically) enumerates every
ordinal behaviour at small n; injective rank vectors (permutations) cover the
linear-order case.  The counts are the ordered set partition numbers
(3, 75, 545835 for m = 2, 4, 8) and m! respectively.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .conditions import ENUMERATION_CAP, ConditionId, lane_chunks
from .core import INTEGERS, GroundSet, OrderedCodomain, RawKey, SetFunction, default_elements


def surjective_rank_vectors(m: int) -> Iterator[tuple[int, ...]]:
    """All vectors in {1..k}**m surjective onto {1..k}, any k, lexicographic.

    Iterative depth-first search over prefixes with gap pruning: a prefix is
    extended with value w only while the ranks skipped below the running
    maximum can still be filled by the remaining positions, so every leaf is
    surjective and nothing is generated twice.
    """
    if m == 0:
        yield ()
        return
    vec = [0] * m
    count = [0] * (m + 2)
    saved = [(0, 0)] * m
    maxv = 0        # largest rank used so far
    missing = 0     # ranks below maxv not yet used
    pos = 0
    w = 1
    while True:
        rem = m - pos
        limit = maxv + rem - missing
        placed = False
        while w <= limit:
            if w > maxv or count[w] == 0 or missing <= rem - 1:
                placed = True
                break
            w += 1
        if placed:
            saved[pos] = (maxv, missing)
            vec[pos] = w
            if w > maxv:
                missing += w - maxv - 1
                maxv = w
            elif count[w] == 0:
                missing -= 1
            count[w] += 1
            pos += 1
            if pos == m:
                yield tuple(vec)
                pos -= 1
                w = vec[pos]
                count[w] -= 1
                maxv, missing = saved[pos]
                w += 1
            else:
                w = 1
        else:
            if pos == 0:
                return
            pos -= 1
            w = vec[pos]
            count[w] -= 1
            maxv, missing = saved[pos]
            w += 1


def injective_rank_vectors(m: int) -> Iterator[tuple[int, ...]]:
    """All m! injective rank vectors (permutations of 1..m), lexicographic."""
    return itertools.permutations(range(1, m + 1))


def _check_cap(n: int) -> int:
    if not 1 <= n <= ENUMERATION_CAP:
        raise ValueError(f"exhaustive enumeration is capped at n <= {ENUMERATION_CAP}, got {n}")
    return n


def _as_function(n: int, vec: Sequence[int]) -> SetFunction:
    return SetFunction(GroundSet(default_elements(n)), INTEGERS, tuple(vec))


def enumerate_weak_orders(n: int) -> Iterator[SetFunction]:
    """Every set function on n elements up to order-isomorphism, as integer ranks."""
    _check_cap(n)
    for vec in surjective_rank_vectors(1 << n):
        yield _as_function(n, vec)


def enumerate_linear_orders(n: int) -> Iterator[SetFunction]:
    """Every injective set function on n elements up to order-isomorphism."""
    _check_cap(n)
    for vec in injective_rank_vectors(1 << n):
        yield _as_function(n, vec)


def _weight_key(w: object, what: str) -> RawKey:
    if isinstance(w, bool) or not isinstance(w, (int, Fraction)):
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
    rational = any(isinstance(w, Fraction) for _, _, w in edge_list)
    codomain = OrderedCodomain("rational") if rational else INTEGERS
    values = []
    for mask in range(ground.size):
        total: RawKey = Fraction(0) if rational else 0
        for bi, bj, w in edge_list:
            if bool(mask & bi) != bool(mask & bj):
                total += w
        values.append(total)
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
    rational = any(isinstance(v, Fraction) for v in ws + g)
    codomain = OrderedCodomain("rational") if rational else INTEGERS
    values = []
    for mask in range(ground.size):
        total: RawKey = Fraction(0) if rational else 0
        for i in range(n):
            if mask >> i & 1:
                total += ws[i]
        values.append(total + g[bin(mask).count("1")])
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

_TOKEN_RE = re.compile(r"\s*([A-Za-z][A-Za-z0-9]*|[&|!()])")

# Bound on nested ! and parentheses, so that parsing and evaluation stay far
# below Python's recursion limit.  A chain of & or | is built as a balanced
# tree, so its depth grows only as the log of its length.
MAX_PREDICATE_NESTING = 100


@dataclass(frozen=True)
class ClassPredicate:
    """A parsed boolean combination of condition flags."""

    source: str
    ast: tuple

    def conditions(self) -> frozenset[ConditionId]:
        found: set[ConditionId] = set()

        def walk(node: tuple) -> None:
            if node[0] == "flag":
                found.add(node[1])
            else:
                for child in node[1:]:
                    walk(child)

        walk(self.ast)
        return frozenset(found)

    def evaluate(self, lookup: Callable[[ConditionId], int], true: int = True) -> int:
        """The predicate over the flags from lookup.

        Flags are bools, or bitsets of functions, with ``true`` then the set
        of all of them; the result is of the same kind.
        """
        def ev(node: tuple) -> int:
            op = node[0]
            if op == "flag":
                return lookup(node[1])
            if op == "not":
                return true ^ ev(node[1])
            if op == "and":
                return ev(node[1]) & ev(node[2])
            return ev(node[1]) | ev(node[2])

        return ev(self.ast)


def parse_predicate(text: str) -> ClassPredicate:
    source = text
    text = text.replace("∧", "&").replace("∨", "|").replace("¬", "!").replace("~", "!")
    text = text.replace("&&", "&").replace("||", "|")
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ValueError(f"predicate syntax error at {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append("$")
    idx = 0
    depth = 0

    def peek() -> str:
        return tokens[idx]

    def take() -> str:
        nonlocal idx
        t = tokens[idx]
        idx += 1
        return t

    def nested(parse: Callable[[], tuple]) -> tuple:
        nonlocal depth
        depth += 1
        if depth > MAX_PREDICATE_NESTING:
            raise ValueError(f"predicate nests too deeply (more than {MAX_PREDICATE_NESTING} levels of ! and parentheses)")
        node = parse()
        depth -= 1
        return node

    def balanced(op: str, nodes: list[tuple]) -> tuple:
        if len(nodes) == 1:
            return nodes[0]
        mid = len(nodes) // 2
        return (op, balanced(op, nodes[:mid]), balanced(op, nodes[mid:]))

    def parse_chain(op: str, token: str, parse_operand: Callable[[], tuple]) -> tuple:
        nodes = [parse_operand()]
        while peek() == token:
            take()
            nodes.append(parse_operand())
        return balanced(op, nodes)

    def parse_or() -> tuple:
        return parse_chain("or", "|", parse_and)

    def parse_and() -> tuple:
        return parse_chain("and", "&", parse_not)

    def parse_not() -> tuple:
        if peek() == "!":
            take()
            return ("not", nested(parse_not))
        return parse_atom()

    def parse_atom() -> tuple:
        t = take()
        if t == "(":
            node = nested(parse_or)
            if take() != ")":
                raise ValueError(f"unbalanced parentheses in predicate {source!r}")
            return node
        key = t.lower()
        if key not in _ALIASES:
            raise ValueError(f"unknown condition {t!r}; expected one of Q1..Q4, Qh, QuasiSubmodular, OrdinarySubmodular, Injective")
        return ("flag", _ALIASES[key])

    node = parse_or()
    if take() != "$":
        raise ValueError(f"trailing input in predicate {source!r}")
    return ClassPredicate(source, node)


def search_witness(n: int, predicate: ClassPredicate | str) -> SetFunction | None:
    """First enumerated weak order whose classification satisfies the predicate.

    Functions are scanned in enumeration (lexicographic rank vector) order,
    a chunk at a time with every flag the predicate names as a bitset, and
    the first match wins.  None means the whole stream was exhausted without
    a match.
    """
    _check_cap(n)
    if isinstance(predicate, str):
        predicate = parse_predicate(predicate)
    for c in lane_chunks(surjective_rank_vectors(1 << n), n):
        flags = {cond: c.holds(cond) for cond in predicate.conditions()}
        match = predicate.evaluate(flags.__getitem__, c.full)
        if match:
            return _as_function(n, c.vector(match))
    return None
