"""Reference checks for ordsub output, written without importing ordsub.

Every check compares meaning, not bytes: JSON is decoded, subsets are read as
element masks, values are decoded into comparable keys, and families are
compared as sets.  A check returns a list of problems; an empty list means the
output is right.

The scanner here is deliberately the plain definition: it walks the
incomparable pairs (X, Y) in lexicographic mask order and evaluates each
condition as written in the paper.  It is slow, so callers only ask it for
first witnesses (which sit early in a random function) or for n <= 3.
"""

from __future__ import annotations

import json
from fractions import Fraction

CLASSIFY_FLAGS = ("Q1", "Q2", "Q3", "Q4", "Qh", "QuasiSubmodular", "OrdinarySubmodular", "Injective")

SUITES = ("lemma1", "lemma1a", "theorem1", "theorem2", "duality", "remark2", "remark5", "qh")

# Published n = 3 counts: 545,835 weak orders, 40,320 linear orders; the
# hypothesis of each suite holds on Q3 105,346, Q1 74,565, Q1 or Q2 96,007 and
# quasisubmodular 53,123 of them.  duality and remark2 apply to every
# function.  theorem2's count (linear orders satisfying Q4) is not published;
# it is the value suite_counts(3) computes with this module's scanner.
N3_SUITE_COUNTS = {
    "lemma1": (545835, 105346),
    "lemma1a": (545835, 74565),
    "theorem1": (545835, 96007),
    "theorem2": (40320, 14208),
    "duality": (545835, 545835),
    "remark2": (545835, 545835),
    "remark5": (545835, 53123),
    "qh": (545835, 53123),
}

# The search predicates, in the CLI's syntax and as a function of the flags.
# The last is unsatisfiable (Q1 implies Q3), so search scans the whole stream.
SEARCH_PREDICATES = (
    ("Q4 & !Q3", lambda F: F("Q4") and not F("Q3")),
    ("Qh & !(Q1 & Q2)", lambda F: F("Qh") and not (F("Q1") and F("Q2"))),
    ("Injective & !Q4", lambda F: F("Injective") and not F("Q4")),
    ("Q1 & Q2 & !OrdinarySubmodular", lambda F: F("Q1") and F("Q2") and not F("OrdinarySubmodular")),
    ("Q1 & !Q3", lambda F: F("Q1") and not F("Q3")),
)


def violates(cond: str, vx, vy, vu, vi) -> bool:
    """Does the pair with values f(X), f(Y), f(X∪Y), f(X∩Y) violate cond?"""
    if cond == "Q1":
        return vx <= vi and vu > vy
    if cond == "Q2":
        return vx < vi and vu >= vy
    if cond == "Q3":
        return vx < vi and vu > vy
    if cond == "Q4":
        return max(vx, vy) < min(vu, vi)
    if cond == "Qh":
        return vx == vy and vu >= vx and vi >= vx and not (vu == vx and vi == vx)
    if cond == "OrdinarySubmodular":
        return vx + vy < vu + vi
    raise ValueError(f"no pairwise form for {cond}")


def incomparable(x: int, y: int) -> bool:
    return x & y != x and x & y != y


def incomparable_pair_count(n: int) -> int:
    return 4**n - 2 * 3**n + 2**n


def pair_rank(n: int, x: int, y: int) -> int:
    """1-based position of (X, Y) among the incomparable pairs in lexicographic order."""
    size = 1 << n
    rank = 0
    for a in range(x):
        k = bin(a).count("1")
        rank += size - (1 << k) - (1 << (n - k)) + 1
    return rank + sum(1 for b in range(y + 1) if incomparable(x, b))


class Function:
    """A set function decoded from its file form into comparable keys."""

    def __init__(self, obj: dict, known: dict[str, bool] | None = None):
        self.elements = list(obj["ground_set"])
        self.n = len(self.elements)
        codomain = obj.get("codomain") or {"kind": "integer"}
        self.kind = codomain["kind"]
        self.labels = list(codomain.get("label_order", ()))
        self.keys = [self.decode(v) for v in obj["values_dense"]]
        # Flags known by construction; anything else is scanned for.
        self.known = dict(known or {})
        self._first: dict[tuple[str, ...], tuple[int, int, str] | None] = {}

    @classmethod
    def from_ranks(cls, ranks) -> "Function":
        n = (len(ranks) - 1).bit_length()
        return cls({"ground_set": [chr(97 + i) for i in range(n)], "values_dense": list(ranks)})

    @property
    def numeric(self) -> bool:
        return self.kind in ("integer", "rational")

    def decode(self, raw):
        if self.kind == "labels":
            return self.labels.index(raw)
        if self.kind == "rational":
            if isinstance(raw, list):
                return Fraction(raw[0], raw[1])
            return Fraction(raw)
        if not isinstance(raw, int) or isinstance(raw, bool):
            raise ValueError(f"not an integer value: {raw!r}")
        return raw

    def mask(self, text: str) -> int:
        mask = 0
        for name in (text.split(",") if text else []):
            mask |= 1 << self.elements.index(name)
        return mask

    def subset_str(self, mask: int) -> str:
        return ",".join(e for i, e in enumerate(self.elements) if mask >> i & 1)

    def first_violation(self, conds: tuple[str, ...]) -> tuple[int, int, str] | None:
        """First incomparable (X, Y) violating any of conds, with the condition it violates."""
        if conds not in self._first:
            self._first[conds] = self._scan(conds)
        return self._first[conds]

    def _scan(self, conds):
        v = self.keys
        size = 1 << self.n
        for x in range(size):
            for y in range(size):
                if incomparable(x, y):
                    for c in conds:
                        if violates(c, v[x], v[y], v[x | y], v[x & y]):
                            return x, y, c
        return None

    def first_duplicate(self) -> tuple[int, int] | None:
        """Lexicographically first (X, Y), X < Y, with f(X) == f(Y)."""
        first: dict = {}
        pairs = [(first[k], m) for m, k in enumerate(self.keys) if first.setdefault(k, m) != m]
        return min(pairs, default=None)

    def first_witness(self, cond: str) -> tuple[int, int, str] | None:
        """First violating pair of a pairwise condition (or QuasiSubmodular); None if it holds."""
        if self.known.get(cond):
            return None
        return self.first_violation(self.scan_conds(cond))

    def flag(self, cond: str) -> bool | None:
        if cond in self.known:
            return self.known[cond]
        if cond == "Injective":
            return len(set(self.keys)) == len(self.keys)
        if cond == "OrdinarySubmodular" and not self.numeric:
            return None
        return self.first_witness(cond) is None

    @staticmethod
    def scan_conds(cond: str) -> tuple[str, ...]:
        return ("Q1", "Q2") if cond == "QuasiSubmodular" else (cond,)

    def interval_min(self, x: int) -> int:
        """Smallest-mask minimizer over [∅, X] ∪ [X, E]."""
        full = (1 << self.n) - 1
        cands = [m for m in range(full + 1) if m & x == m or m & x == x]
        return min(cands, key=lambda m: (self.keys[m], m))

    def hypothesis(self) -> str | None:
        """The first of Q1, Q2, Q4+injective that holds, as certify_global_min tries them."""
        if self.flag("Q1"):
            return "Q1"
        if self.flag("Q2"):
            return "Q2"
        if self.flag("Q4") and self.flag("Injective"):
            return "Q4+injective"
        return None

    def first_minimizer(self) -> int:
        return min(range(1 << self.n), key=lambda m: (self.keys[m], m))


def _report(text: str, command: str) -> tuple[dict | None, list[str]]:
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, [f"{command}: stdout is not JSON ({exc})"]
    if not isinstance(report, dict) or not isinstance(report.get("results"), dict):
        return None, [f"{command}: report has no results object"]
    if report.get("command") != command:
        return None, [f"{command}: report names command {report.get('command')!r}"]
    return report, []


def check_witness(f: Function, cond: str, w: dict) -> list[str]:
    """The witness must violate its condition and be the first pair that does."""
    try:
        x, y = f.mask(w["X"]), f.mask(w["Y"])
        values = [f.decode(v) for v in w["values"]]
    except (KeyError, ValueError, TypeError) as exc:
        return [f"{cond} witness unreadable: {exc!r}"]
    k = f.keys
    if values != [k[x], k[y], k[x | y], k[x & y]]:
        return [f"{cond} witness values {w['values']} do not match the input at X={w['X']!r} Y={w['Y']!r}"]
    if cond == "Injective":
        if w.get("condition") != "Injective" or (x, y) != f.first_duplicate():
            return [f"Injective witness ({w['X']!r}, {w['Y']!r}) is not the first repeated value"]
        return []
    allowed = f.scan_conds(cond)
    if w.get("condition") not in allowed or not violates(w["condition"], *values):
        return [f"{cond} witness ({w['X']!r}, {w['Y']!r}) does not violate {w.get('condition')}"]
    first = f.first_violation(allowed)
    if first is None or first[:2] != (x, y):
        return [f"{cond} witness ({w['X']!r}, {w['Y']!r}) is not the first violating pair {first}"]
    return []


def check_classify(f: Function, text: str, status: int) -> list[str]:
    report, errs = _report(text, "classify")
    if report is None:
        return errs
    res = report["results"]
    if status != 0:
        errs.append(f"classify exit {status}, expected 0")
    witnesses = res.get("witnesses", {})
    for cond in CLASSIFY_FLAGS:
        want = f.flag(cond)
        if res.get(cond, "missing") != want:
            errs.append(f"classify {cond}={res.get(cond, 'missing')}, expected {want}")
            continue
        if want is False:
            if cond not in witnesses:
                errs.append(f"classify gives no witness for failed {cond}")
            else:
                errs += check_witness(f, cond, witnesses[cond])
        elif cond in witnesses:
            errs.append(f"classify gives a witness for {cond}, which holds")
    return errs


def check_certificate(f: Function, cert: dict, point: int) -> list[str]:
    errs = []
    size = bin(point).count("1")
    local = f.keys[f.interval_min(point)] == f.keys[point]
    hyp = f.hypothesis() if local else None
    want = {
        "point": point,
        "value": f.keys[point],
        "lower_checked": 1 << size,
        "upper_checked": 1 << (f.n - size),
        "hypothesis": hyp,
        "global": hyp is not None,
    }
    try:
        got = dict(cert)
        got["point"] = f.mask(",".join(cert["point"]))
        got["value"] = f.decode(cert["value"])
    except (KeyError, ValueError, TypeError) as exc:
        return [f"certificate unreadable: {exc!r}"]
    for key, value in want.items():
        if got.get(key) != value:
            errs.append(f"certificate {key}={got.get(key)!r}, expected {value!r}")
    return errs


def check_certify(f: Function, text: str, status: int, point: int) -> list[str]:
    report, errs = _report(text, "certify")
    if report is None:
        return errs
    errs = check_certificate(f, report["results"], point)
    want_status = 0 if report["results"].get("global") else 1
    if status != want_status:
        errs.append(f"certify exit {status}, expected {want_status}")
    return errs


def check_descent(f: Function, text: str, status: int, start: int) -> list[str]:
    report, errs = _report(text, "minimize")
    if report is None:
        return errs
    res = report["results"]
    if status != 0:
        errs.append(f"minimize exit {status}, expected 0")
    try:
        steps = [(f.mask(s["subset"]), f.decode(s["value"])) for s in res["trace"]]
    except (KeyError, ValueError, TypeError) as exc:
        return errs + [f"descent trace unreadable: {exc!r}"]
    x = start
    want = [(x, f.keys[x])]
    while True:
        best = f.interval_min(x)
        if not f.keys[best] < f.keys[x]:
            break
        x = best
        want.append((x, f.keys[x]))
    if steps != want:
        errs.append(f"descent trace {steps[:4]}... differs from the reference {want[:4]}...")
    if res.get("moves") != len(want) - 1:
        errs.append(f"descent moves={res.get('moves')}, expected {len(want) - 1}")
    return errs + check_certificate(f, res.get("certificate", {}), x)


def check_hierarchy(f: Function, text: str, status: int) -> list[str]:
    report, errs = _report(text, "hierarchy")
    if report is None:
        return errs
    res = report["results"]
    mu = sorted(set(f.keys))
    try:
        levels = [f.decode(v) for v in res["levels"]]
        families = [{f.mask(s) for s in fam} for fam in res["chain"]["families"]]
        ground = res["chain"]["ground_set"]
    except (KeyError, ValueError, TypeError) as exc:
        return errs + [f"hierarchy output unreadable: {exc!r}"]
    if levels != mu or res.get("p") != len(mu):
        errs.append(f"hierarchy levels/p differ from the {len(mu)} distinct values")
    if ground != f.elements:
        errs.append("hierarchy chain ground set differs from the input's")
    want = [set()] + [{m for m, k in enumerate(f.keys) if k <= cut} for cut in mu]
    if families != want:
        errs.append("hierarchy families differ from the level sets {X : f(X) <= mu_i}")
    holds = f.flag("Qh")
    if res.get("qh_holds") is not holds:
        errs.append(f"hierarchy qh_holds={res.get('qh_holds')}, expected {holds}")
    elif not holds:
        errs += check_witness(f, "Qh", res.get("qh_witness", {}))
    if status != (0 if holds else 1):
        errs.append(f"hierarchy exit {status}, expected {0 if holds else 1}")
    return errs


def check_verify(suite: str, n: int, text: str, status: int) -> list[str]:
    report, errs = _report(text, "verify")
    if report is None:
        return errs
    res = report["results"]
    scanned, hyp = suite_counts(n)[suite]
    want = {"suite": suite, "n": n, "scanned": scanned, "hypothesis_count": hyp,
            "violations": 0, "first_violation": None, "ok": True}
    for key, value in want.items():
        if res.get(key) != value:
            errs.append(f"verify {suite}: {key}={res.get(key)!r}, expected {value!r}")
    if status != 0:
        errs.append(f"verify {suite} exit {status}, expected 0")
    return errs


def check_search(index: int, n: int, text: str, status: int) -> list[str]:
    source, _ = SEARCH_PREDICATES[index]
    want = first_match(index, n)
    if want is None:
        if status != 1 or text.strip():
            return [f"search {source!r}: exit {status} with output, expected exit 1 and none"]
        return []
    if status != 0:
        return [f"search {source!r}: exit {status}, expected 0"]
    try:
        found = Function(json.loads(text))
    except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
        return [f"search {source!r}: output is not a set function ({exc!r})"]
    if tuple(found.keys) != want or found.n != n:
        return [f"search {source!r}: found {found.keys}, expected the first match {list(want)}"]
    return []


def rank_vectors(m: int, injective: bool = False):
    """Surjective rank vectors of length m in lexicographic order (permutations if injective)."""
    vec = [0] * m

    def rec(pos: int, used: int, top: int):
        if pos == m:
            yield tuple(vec)
            return
        for w in range(1, top + (m - pos) + 1):
            if injective and used >> w & 1:
                continue
            new_used, new_top = used | 1 << w, max(top, w)
            missing = new_top - bin(new_used).count("1")
            if missing <= m - pos - 1:
                vec[pos] = w
                yield from rec(pos + 1, new_used, new_top)

    return rec(0, 0, 0)


_MATCHES: dict[tuple[int, int], tuple[int, ...] | None] = {}


def first_match(index: int, n: int) -> tuple[int, ...] | None:
    """First weak order at n matching a search predicate; None if none can (by theory)."""
    source, pred = SEARCH_PREDICATES[index]
    if source == "Q1 & !Q3":
        return None
    if (index, n) not in _MATCHES:
        _MATCHES[(index, n)] = next(
            (v for v in rank_vectors(1 << n) if pred(Function.from_ranks(v).flag)), None
        )
    return _MATCHES[(index, n)]


def suite_counts(n: int) -> dict[str, tuple[int, int]]:
    """(functions scanned, hypothesis count) per suite: published at n = 3, brute force below."""
    if n == 3:
        return N3_SUITE_COUNTS
    weak = [Function.from_ranks(v) for v in rank_vectors(1 << n)]
    linear = [Function.from_ranks(v) for v in rank_vectors(1 << n, injective=True)]
    W = len(weak)

    def count(fs, pred):
        return sum(1 for g in fs if pred(g.flag))

    quasi = count(weak, lambda F: F("QuasiSubmodular"))
    return {
        "lemma1": (W, count(weak, lambda F: F("Q3"))),
        "lemma1a": (W, count(weak, lambda F: F("Q1"))),
        "theorem1": (W, count(weak, lambda F: F("Q1") or F("Q2"))),
        "theorem2": (len(linear), count(linear, lambda F: F("Q4"))),
        "duality": (W, W),
        "remark2": (W, W),
        "remark5": (W, quasi),
        "qh": (W, quasi),
    }
