"""Traced in-process run of ordsub, started by run.py as a fresh child process.

Usage (run.py writes the spec):
    python tracer.py --src SRC --spec SPEC.json --out OUT.json
    python tracer.py --src SRC --cold INPUT.json --out OUT.json

Spans are kept in memory as [name, start, end, parent, calls, tag] and
written out at the end; run.py turns them into per-layer metrics.  Only the
CLI and public names of the ordsub modules are called.  Each span times one
call, or a batch of `calls` calls when a single call is too short to time.
The --cold mode measures what a fresh process pays: importing ordsub.cli and
the first check_condition.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import resource
import sys
import time

CONDITIONS = ("Q1", "Q2", "Q3", "Q4", "Qh", "QuasiSubmodular")
MIN_SPAN_S = 0.005
LONG_CALL_S = 0.5


class Tracer:
    """Spans in memory; a span opened inside another records it as its parent."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, tag: object = None, calls: int = 1):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, calls, tag])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def timed(self, name: str, tag: object, reps: int, fn, *args):
        """Call fn(*args) in `reps` spans, batching calls shorter than MIN_SPAN_S; returns the last result.

        A first call of LONG_CALL_S or more is kept as the only sample.
        """
        with self.span(name, tag):
            result = fn(*args)
        first = self.spans[-1][2] - self.spans[-1][1]
        if first >= LONG_CALL_S:
            return result
        self.spans.pop()  # a short first call only sizes the batch
        calls = max(1, int(MIN_SPAN_S / max(first, 1e-7)))
        for _ in range(reps):
            with self.span(name, tag, calls):
                for _ in range(calls):
                    result = fn(*args)
        return result

    def wrapped(self, fn, name: str, tag: object):
        def traced(*args, **kwargs):
            with self.span(name, tag):
                return fn(*args, **kwargs)
        return traced


def cli_library_functions(cli) -> dict[str, object]:
    """Functions the cli module imports from the other ordsub modules."""
    return {
        attr: fn
        for attr, fn in vars(cli).items()
        if inspect.isfunction(fn) and fn.__module__.startswith("ordsub.") and fn.__module__ != cli.__name__
    }


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = cli.main(argv)
    return status, out.getvalue()


def traced_run(spec: dict) -> dict:
    tr = Tracer()
    import ordsub.cli as cli
    from ordsub import conditions, core, generators, hierarchy, minimize, verify
    from ordsub import io as oio

    reps = spec["reps"]
    inputs = spec["inputs"]
    out: dict = {"outputs": [], "witnesses": [], "moves": [], "levels": []}

    fs = [oio.load_set_function(inp["path"]) for inp in inputs]
    for label, argv in spec["cli"]:
        if label.startswith("classify:"):
            run_cli(cli, argv)  # warm caches

    # CLI in process: each command untraced, then with every library function the
    # cli module calls wrapped in a span.  The difference is the tracing overhead.
    library = cli_library_functions(cli)
    for rep in range(reps):
        for label, argv in spec["cli"]:
            cmd, tag = label.split(":")
            with tr.span(f"cli.untraced.{cmd}", tag):
                run_cli(cli, argv)
            for attr, fn in library.items():
                setattr(cli, attr, tr.wrapped(fn, f"lib.{fn.__module__}.{fn.__name__}", tag))
            try:
                with tr.span(f"cli.self_s.{cmd}", tag):
                    status, text = run_cli(cli, argv)
            finally:
                for attr, fn in library.items():
                    setattr(cli, attr, fn)
            if rep == 0:
                out["outputs"].append([label, status, text])

    for kind, raw, label_order in spec["construct"]:
        codomain = core.OrderedCodomain(kind, tuple(label_order))
        tr.timed(f"core.construct_s.{kind}", kind, reps, core.SetFunction, fs[0].ground, codomain, tuple(raw))

    phi = next(f for f in fs if f.codomain.is_numeric)
    for idx, (f, inp) in enumerate(zip(fs, inputs)):
        tr.timed("io.load_s", idx, reps, oio.load_set_function, inp["path"])
        tr.timed("io.dump_s", idx, reps, oio.set_function_to_json, f)
        for name in CONDITIONS:
            w = tr.timed(f"conditions.check_s.{name}", idx, reps, conditions.check_condition, f,
                         conditions.ConditionId(name))
            out["witnesses"].append([idx, name, w and w.to_json(f)])
        if f.codomain.is_numeric:
            w = tr.timed("conditions.ordinary_s", idx, reps, conditions.check_ordinary_submodular, f)
            out["witnesses"].append([idx, "OrdinarySubmodular", w and w.to_json(f)])
        tr.timed("conditions.injective_s", idx, reps, conditions.is_injective, f)
        tr.timed("conditions.classify_s", idx, reps, conditions.classify, f)
        tr.timed("minimize.argmin_s", idx, reps, minimize.argmin, f)
        trace = tr.timed("minimize.interval_descent_s", idx, reps, minimize.interval_descent, f, f.ground.full_mask)
        out["moves"].append(len(trace.steps) - 1)
        tr.timed("minimize.certify_global_min_s", idx, reps, minimize.certify_global_min, f, inp["point"])
        tr.timed("minimize.constrained_minimize_s", idx, reps, minimize.constrained_minimize, phi, f, 1)
        lv = tr.timed("hierarchy.levels_s", idx, reps, hierarchy.levels, f)
        chain = tr.timed("hierarchy.family_chain_s", idx, reps, hierarchy.family_chain, f)
        w = tr.timed("hierarchy.check_qh_s", idx, reps, hierarchy.check_qh, f)
        out["levels"].append([lv.p, sum(len(fam) for fam in chain.families), w and w.to_json(f)])

    rec = spec["recipes"]
    mod = rec["modular"]
    tr.timed("generators.modular_plus_concave_s", 0, reps, generators.modular_plus_concave,
             mod["n"], mod["weights"], [0] * (mod["n"] + 1))
    for i, r in enumerate(rec["random"]):
        codomain = core.OrderedCodomain(r["kind"], tuple(r["labels"]))
        tr.timed("generators.random_function_s", i, reps, generators.random_function,
                 r["n"], codomain, r["d"], r["seed"])

    n = spec["suite_n"]
    streams = {"weak": generators.surjective_rank_vectors, "linear": generators.injective_rank_vectors}
    for stream, vectors in streams.items():
        tr.timed(f"generators.enumerate_s.{stream}", 0, reps, lambda: sum(1 for _ in vectors(1 << n)))
    out["search"] = []
    for i, source in enumerate(spec["predicates"]):
        found = tr.timed(f"generators.search_witness_s.{i}", 0, reps, generators.search_witness, n, source)
        out["search"].append(None if found is None else list(found.values))
    out["suites"] = {}
    for suite in spec["suites"]:
        res = tr.timed(f"verify.run_suite_s.{suite}", 0, reps, verify.run_suite, suite, n)
        out["suites"][suite] = [res.scanned, res.hypothesis_count, res.violations]

    out["spans"] = tr.spans
    return out


def cold_run(path: str) -> dict:
    """What a fresh process pays: the import, and the first scan against a warm one."""
    t0 = time.perf_counter()
    import ordsub.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    from ordsub import conditions
    from ordsub import io as oio

    f = oio.load_set_function(path)
    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    t0 = time.perf_counter()
    conditions.check_condition(f, conditions.ConditionId.Q1)
    cold = time.perf_counter() - t0
    rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    t0 = time.perf_counter()
    conditions.check_condition(f, conditions.ConditionId.Q1)
    warm = time.perf_counter() - t0
    return {"import_s": import_s, "setup_s": cold - warm, "setup_rss_mb": (rss1 - rss0) / 1024}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--spec")
    parser.add_argument("--cold")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    if args.cold:
        result = cold_run(args.cold)
    else:
        with open(args.spec) as fh:
            result = traced_run(json.load(fh))
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
