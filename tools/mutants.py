"""Mutation check: does the test suite catch each hand-made fault in the table below?

    python3 tools/mutants.py [NAME ...] [--tests PATH ...]

For each mutant (all, or those whose names contain one of the NAMEs) it
copies the repository, without .git and caches, to a temporary directory,
replaces the mutant's text, which must occur exactly once in its file, runs
``pytest -x -q`` there on the copy's own source, and reports whether the
suite caught the mutant, with the time and the first failing test.  An
unmutated copy runs first, and must pass.  ``--tests`` narrows pytest to the
given paths, e.g. to see which module catches a mutant.

It exits 1 if a mutant that the table does not mark as equivalent survives,
if a mutant's text is not found exactly once, or if the unmutated copy fails.
It needs only the standard library and writes nothing under the repository.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.pyc")
TIMEOUT_S = 300

# (name, file, text, replacement, why the mutant is equivalent or None)
MUTANTS = [
    ("parse: | and & swapped", "src/ordsub/generators.py",
     '_balanced("or" if ops[0] == "|" else "and", nodes)', '_balanced("and" if ops[0] == "|" else "or", nodes)',
     None),
    ("diamonds skip the pair (j - 1, j)", "src/ordsub/conditions.py",
     "for i in range(j):\n            t = up[i] & hi[j]", "for i in range(j - 1):\n            t = up[i] & hi[j]",
     None),
    ("proper_maxima drops its running maximum", "src/ordsub/conditions.py",
     "t = self.lane_max(g, p)", "t = g", None),
    ("lane width bits + 1", "src/ordsub/conditions.py",
     "self.w = w = max(vals).bit_length() + 2", "self.w = w = max(vals).bit_length() + 1", None),
    ("search_witness returns the second match", "src/ordsub/generators.py",
     "SetFunction.from_ints(n, c.vector(match))", "SetFunction.from_ints(n, c.vector(match & (match - 1) or match))",
     None),
    ("_tails marks a new top's old top as skipped", "src/ordsub/generators.py",
     "(w, missing | (1 << w) - (2 << top))", "(w, missing | (1 << w) - (1 << top))", None),
    ("Injective's Y taken two masks on", "src/ordsub/conditions.py",
     "ranks.index(ranks[x], x + 1)", "ranks.index(ranks[x], x + 2)", None),
    ("_import_library without @cache", "src/ordsub/cli.py",
     "@cache\ndef _import_library", "def _import_library", None),
    ("linear_order_columns relabels decreasingly", "src/ordsub/generators.py",
     "bytes(v for v in range(1, m + 1) if v not in head)", "bytes(v for v in range(m, 0, -1) if v not in head)",
     None),
    ("trailing blanks scanned again", "src/ordsub/generators.py",
     "finditer(text, 0, len(text.rstrip()))", "finditer(text, 0, len(text))", None),
    ("_live_rows: counts[0] >= 1", "src/ordsub/conditions.py",
     "if counts[0] == 1:", "if counts[0] >= 1:",
     "when rank 0 is shared, its first subset has a shared rank, so vy = f(X) = 0 is checked anyway"),
    ("ordsub.__getattr__ keeps no resolved name", "src/ordsub/__init__.py",
     "value = globals()[name] = getattr(", "value = getattr(", None),
    ("_scans keeps a condition only if rfind > 0", "src/ordsub/conditions.py",
     'if (last := live[c].rfind("1")) >= 0}', 'if (last := live[c].rfind("1")) > 0}',
     "row 0 is the empty set, which has no incomparable Y"),
    ("_first_witnesses walks to x > end", "src/ordsub/conditions.py",
     "            if x >= end:\n                break", "            if x > end:\n                break",
     "the row after the last live row is not live, so it adds no hit"),
    ("Record.__setattr__ stores", "src/ordsub/core.py",
     'raise AttributeError(f"cannot assign to field {name!r}")', "object.__setattr__(self, name, value)", None),
    ("Record.__eq__ without the class check", "src/ordsub/core.py",
     "        if other.__class__ is not self.__class__:\n            return NotImplemented\n", "", None),
    ("OrdinalValue.__lt__ without _check", "src/ordsub/core.py",
     "return self.key < self._check(other).key", "return self.key < other.key", None),
    ("Quasi witness always tagged Q1", "src/ordsub/conditions.py",
     "cond = ConditionId.Q2 if _violates(f, ConditionId.Q2, x, y) else ConditionId.Q1", "cond = ConditionId.Q1",
     None),
    ("chain families take the top bucket", "src/ordsub/hierarchy.py",
     "families[-1] + tuple(bucket)", "families[-1] + tuple(buckets[-1])", None),
    ("certify tries Q2 before Q1", "src/ordsub/minimize.py",
     '"Q1": (ConditionId.Q1,),\n    "Q2": (ConditionId.Q2,),', '"Q2": (ConditionId.Q2,),\n    "Q1": (ConditionId.Q1,),',
     None),
]


def run_tests(tree: Path, tests: list[str]) -> tuple[bool | None, float, str]:
    """Whether pytest -x -q passes in tree (None on a timeout), its seconds, and the first failing test."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                              cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - start, f"timed out after {TIMEOUT_S} s"
    failed = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", proc.stdout, re.M)
    return proc.returncode == 0, time.perf_counter() - start, failed[1] if failed else ""


def mutate(tree: Path, path: str, text: str, replacement: str) -> int:
    """Apply the mutant if its text occurs once in the file; the number of occurrences found."""
    file = tree / path
    source = file.read_text(encoding="utf-8")
    found = source.count(text)
    if found == 1:
        file.write_text(source.replace(text, replacement), encoding="utf-8")
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="run only the mutants whose names contain one of these")
    parser.add_argument("--tests", nargs="+", default=[], metavar="PATH", help="pytest paths, relative to the root")
    args = parser.parse_args()
    chosen = [m for m in MUTANTS if not args.names or any(s in m[0] for s in args.names)]
    bad, began = 0, time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="ordsub-mutants-") as scratch:
        base = Path(scratch) / "base"
        shutil.copytree(ROOT, base, ignore=IGNORE)
        ok, seconds, failed = run_tests(base, args.tests)
        print(f"{'unmutated':<10} {seconds:6.1f}s  {'passes' if ok else 'FAILS ' + failed}", flush=True)
        if not ok:
            return 1
        for k, (name, path, text, replacement, equivalent) in enumerate(chosen):
            tree = Path(scratch) / f"m{k}"
            shutil.copytree(base, tree, ignore=IGNORE)
            found = mutate(tree, path, text, replacement)
            if found != 1:
                print(f"{'ERROR':<10} {'':>7}  {name}: its text occurs {found} times in {path}", flush=True)
                bad += 1
                continue
            ok, seconds, failed = run_tests(tree, args.tests)
            if ok:
                verdict = "survived" if equivalent is None else "equivalent"
                bad += equivalent is None
                note = equivalent or "NOT CAUGHT"
            else:
                verdict, note = "caught", failed
            print(f"{verdict:<10} {seconds:6.1f}s  {name}  ({note})", flush=True)
            shutil.rmtree(tree)
    print(f"{len(chosen)} mutants in {time.perf_counter() - began:.0f} s; {bad} problem(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
