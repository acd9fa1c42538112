"""Benchmark for the ordsub CLI: wall time and peak RSS end to end, per-layer timings traced.

Run from the root of an ordsub checkout:

    python3 perfbench/run.py --workload modular-n10 --seed 1 --seconds 30 --trace 0

Workloads (see NOTES.md for why each exists):
    modular-n10    classify, descent, certify, hierarchy on a modular n = 10 function
    random-n10     the same commands on three seeded random n = 10 functions
    exhaustive-n3  the eight verify suites and five search predicates at n = 3

With --trace 0 every command runs as its own `python -m ordsub` process, one
after another, for --seconds, and the result carries the end-to-end metrics.
With --trace 1 a fresh child process (tracer.py) calls the same code in
process, a fixed amount of work whatever --seconds says, and the result
carries the per-layer metrics.  Every output is checked against
refcheck.py.  The last line of stdout is the JSON result; a summary per
command goes to stderr, and --record FILE merges the full result, with the
environment it ran in, into FILE.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent))
import refcheck as ref  # noqa: E402

WORKLOADS = ("modular-n10", "random-n10", "exhaustive-n3")
BUILDS_PER_S = 0.2
STARTUP_CALLS_PER_S = 1.0
TRACE_REPS = 3
COLD_PROBES = 3
CLI_COMMANDS = ("classify", "descent", "certify", "hierarchy")
CHECKED_CONDITIONS = ("Q1", "Q2", "Q3", "Q4", "Qh", "QuasiSubmodular", "OrdinarySubmodular")

END_TO_END = {
    "setup_s": "s",
    "startup_ratio": "x",
    "pass_s": "s",
    "peak_rss_mb": "MB",
}


def _per_layer_units() -> dict[str, str]:
    units = {"cli.import_s": "s"}
    for cmd in CLI_COMMANDS:
        units[f"cli.self_s.{cmd}"] = "s"
        units[f"cli.stdout_bytes.{cmd}"] = "bytes"
    units.update({"io.load_s": "s", "io.dump_s": "s"})
    for kind in ("integer", "rational", "labels"):
        units[f"core.construct_s.{kind}"] = "s"
    units.update({"conditions.setup_s": "s", "conditions.setup_rss_mb": "MB"})
    for cond in CHECKED_CONDITIONS[:-1]:
        units[f"conditions.check_s.{cond}"] = "s"
    units.update({"conditions.ordinary_s": "s", "conditions.injective_s": "s", "conditions.classify_s": "s"})
    for cond in CHECKED_CONDITIONS:
        units[f"conditions.pairs_scanned.{cond}"] = "count"
    for name in ("argmin", "interval_descent", "certify_global_min", "constrained_minimize"):
        units[f"minimize.{name}_s"] = "s"
    units["minimize.descent_moves"] = "count"
    for name in ("levels", "family_chain", "check_qh"):
        units[f"hierarchy.{name}_s"] = "s"
    units.update({"hierarchy.p": "count", "hierarchy.chain_entries": "count"})
    units.update({"generators.enumerate_s.weak": "s", "generators.enumerate_s.linear": "s"})
    for i in range(len(ref.SEARCH_PREDICATES)):
        units[f"generators.search_witness_s.{i}"] = "s"
    units.update({"generators.random_function_s": "s", "generators.modular_plus_concave_s": "s"})
    for suite in ref.SUITES:
        units[f"verify.run_suite_s.{suite}"] = "s"
        units[f"verify.check_s.{suite}"] = "s"
        units[f"verify.scanned.{suite}"] = "count"
        units[f"verify.hypothesis_count.{suite}"] = "count"
    units["trace.overhead_pct"] = "%"
    return units


PER_LAYER = _per_layer_units()


@dataclass
class Input:
    """One generated set-function file and what the benchmark knows about it."""

    name: str
    kind: str
    generate: list[str]
    known: dict[str, bool] = field(default_factory=dict)
    obj: dict | None = None
    ref: ref.Function | None = None

    @property
    def path(self) -> str:
        return f"{self.name}.json"


@dataclass
class Command:
    label: str
    argv: list[str]
    check: Callable[[int, str], list[str]]


@dataclass
class Workload:
    inputs: list[Input]
    recipes: dict
    trace_suite_n: int = 3
    suites: tuple[str, ...] = ()
    predicates: tuple[int, ...] = ()

    def commands(self) -> list[Command]:
        """The CLI commands one pass runs, in order."""
        if not self.suites:
            return [c for inp in self.inputs for c in input_commands(inp)]
        n = 3
        cmds = [Command(f"verify:{suite}", ["verify", "--json", "--suite", suite, "--n", str(n)],
                        lambda s, t, suite=suite: ref.check_verify(suite, n, t, s))
                for suite in self.suites]
        cmds += [Command(f"search:{i}", ["search", "--n", str(n), "--predicate", ref.SEARCH_PREDICATES[i][0]],
                         lambda s, t, i=i: ref.check_search(i, n, t, s))
                 for i in self.predicates]
        return cmds


def input_commands(inp: Input) -> list[Command]:
    """classify, descent from the full set, certify at the first global minimizer, hierarchy.

    Certify gets a global minimizer, not a seed-dependent point, so that it
    always goes on to check the hypotheses and every seed does the same work.
    """
    f = inp.ref
    full, point = (1 << f.n) - 1, f.first_minimizer()
    return [
        Command(f"classify:{inp.name}", ["classify", "--json", "--witness", inp.path],
                lambda s, t: ref.check_classify(f, t, s)),
        Command(f"descent:{inp.name}", ["minimize", "--json", "--mode", "descent", "--start", f.subset_str(full),
                                        inp.path],
                lambda s, t: ref.check_descent(f, t, s, full)),
        Command(f"certify:{inp.name}", ["certify", "--json", "--point", f.subset_str(point), inp.path],
                lambda s, t: ref.check_certify(f, t, s, point)),
        Command(f"hierarchy:{inp.name}", ["hierarchy", "--json", inp.path],
                lambda s, t: ref.check_hierarchy(f, t, s)),
    ]


def make_workload(name: str, seed: int, tiny: bool) -> Workload:
    """Inputs come from the seed alone; every seed gives the same amount of work.

    The modular weights are a seeded permutation of 1..n, so every seed has the
    same p = n(n+1)/2 + 1 levels and the same chain size.  The random recipes
    fix n, codomain and value count, and take only their seed from --seed.
    """
    rng = random.Random(seed)
    n = 3 if tiny or name == "exhaustive-n3" else 10
    weights = rng.sample(range(1, n + 1), n)
    randoms = [
        {"n": n, "kind": "integer", "d": 4, "labels": []},
        {"n": n, "kind": "rational", "d": min(16, 1 << n), "labels": []},
        {"n": n, "kind": "labels", "d": 3, "labels": ["low", "mid", "high"]},
    ]
    for r in randoms:
        r["seed"] = rng.randrange(1 << 31)
    recipes = {"modular": {"n": n, "weights": weights}, "random": randoms}
    if name == "modular-n10":
        holds = dict.fromkeys(CHECKED_CONDITIONS, True)
        inputs = [Input("modular", "integer", [
            "generate", "modular", "--n", str(n), "--weights", ",".join(map(str, weights)),
            "--concave", ",".join(["0"] * (n + 1))], holds)]
    else:
        inputs = []
        for r in randoms:
            argv = ["generate", "random", "--n", str(n), "--distinct", str(r["d"]), "--seed", str(r["seed"]),
                    "--codomain", r["kind"]]
            if r["labels"]:
                argv += ["--labels", ",".join(r["labels"])]
            inputs.append(Input(f"random-{r['kind']}", r["kind"], argv))
    wl = Workload(inputs, recipes, trace_suite_n=2 if tiny else 3)
    if name == "exhaustive-n3":
        wl.suites = ("theorem2",) if tiny else ref.SUITES
        wl.predicates = (0,) if tiny else tuple(range(len(ref.SEARCH_PREDICATES)))
    return wl


class Cli:
    """Runs `python -m ordsub` children one at a time, with their wall time and rusage."""

    def __init__(self, src: Path, work: Path):
        self.work = work
        # Children keep bytecode caches under src/, as an installed package has
        # them, whatever the caller's environment says; the untimed first call
        # writes them.
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.peak_kb = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, argv: list[str], bare: bool = False) -> tuple[float, int, str]:
        """Run `python -m ordsub <argv>`, or with `bare` the interpreter alone on `argv`."""
        out_path = self.work / "stdout.txt"
        with open(out_path, "wb") as out, open(self.work / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            prog = [sys.executable] if bare else [sys.executable, "-m", "ordsub"]
            proc = subprocess.Popen([*prog, *argv], stdout=out, stderr=err, env=self.env, cwd=self.work)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        return elapsed, proc.returncode, out_path.read_text()

    def record(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors += [f"{label}: {e}" for e in errors]


def build(cli: Cli, wl: Workload, first: dict[str, str]) -> float:
    """Generate the workload's inputs once; every build must give the bytes of the first."""
    t0 = time.perf_counter()
    for inp in wl.inputs:
        _, status, _ = cli.run([*inp.generate, "-o", inp.path])
        text = (cli.work / inp.path).read_text() if status == 0 else ""
        first.setdefault(inp.name, text)
        cli.record(f"generate:{inp.name}", [] if status == 0 and text == first[inp.name] else
                   [f"exit {status}, or output differs from the first build"])
    elapsed = time.perf_counter() - t0
    for inp in wl.inputs:
        if inp.ref is None:
            inp.obj = json.loads(first[inp.name])
            inp.ref = ref.Function(inp.obj, inp.known)
    return elapsed


def end_to_end(cli: Cli, wl: Workload, seconds: float) -> tuple[dict, dict]:
    """Run the commands round-robin until the next one would overrun `seconds`.

    The machine's speed drifts by tens of percent over seconds to minutes, so
    every sample kind is spread over the whole run rather than taken in a
    block: --version calls and input rebuilds are interleaved with the
    commands on an even schedule, and the medians then cover the same span.
    The first pass over the commands always completes.

    Each `--version` call follows a bare `python -c pass` and is reported as
    a multiple of it.  The drift slows both alike, so the ratio keeps what
    ordsub adds to a new process and sheds most of the drift (NOTES.md).
    """
    first: dict[str, str] = {}
    setup = [build(cli, wl, first)]
    startup: list[float] = []
    bare: list[float] = []
    commands = wl.commands()
    samples: dict[str, list[float]] = {c.label: [] for c in commands}
    begin = time.perf_counter()
    for i in itertools.count():
        c = commands[i % len(commands)]
        elapsed = time.perf_counter() - begin
        if i >= len(commands) and elapsed + statistics.median(samples[c.label]) > seconds:
            break
        span = min(elapsed, seconds)
        while len(setup) < 1 + BUILDS_PER_S * span:
            setup.append(build(cli, wl, first))
        while len(startup) < 1 + STARTUP_CALLS_PER_S * span:
            base, base_status, _ = cli.run(["-c", "pass"], bare=True)
            took, status, text = cli.run(["--version"])
            bare.append(base)
            startup.append(took)
            cli.record("--version", [] if base_status == 0 and status == 0 and re.fullmatch(r"ordsub \S+\n", text)
                       else [f"exit {status} (bare python: {base_status}), stdout {text!r}"])
        took, status, text = cli.run(c.argv)
        samples[c.label].append(took)
        cli.record(c.label, c.check(status, text))
    by_command: dict[str, float] = {}
    for label, values in samples.items():
        key = label.split(":")[0] + "_s"
        by_command[key] = by_command.get(key, 0.0) + statistics.median(values)
    metrics = {
        "setup_s": statistics.median(setup),
        "startup_ratio": statistics.median(s / b for s, b in zip(startup, bare)),
        "pass_s": sum(by_command.values()),
        "peak_rss_mb": cli.peak_kb / 1024,
    }
    detail = {"setup_s": setup, "startup_s": startup, "bare_python_s": bare, "commands": samples,
              "by_command": by_command}
    return metrics, detail


def construct_inputs(wl: Workload) -> list[list]:
    """Raw values for core.construct_s.<kind>: the workload's own input of that kind,
    or else its first input's values re-expressed by rank in that codomain."""
    out = []
    first = wl.inputs[0].ref
    ranks = {k: r for r, k in enumerate(sorted(set(first.keys)))}
    labels = [f"v{r}" for r in range(len(ranks))]
    for kind in ("integer", "rational", "labels"):
        inp = next((i for i in wl.inputs if i.kind == kind), None)
        if inp is not None:
            out.append([kind, inp.obj["values_dense"], inp.obj["codomain"].get("label_order", [])])
            continue
        rank = [ranks[k] for k in first.keys]
        if kind == "integer":
            out.append([kind, rank, []])
        elif kind == "rational":
            out.append([kind, [[r, len(ranks)] for r in rank], []])
        else:
            out.append([kind, [labels[r] for r in rank], labels])
    return out


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def span_metric(spans: list[list], values: list[float], name: str) -> float:
    """Sum over tags (inputs) of the median per-call value of the spans called `name`."""
    by_tag: dict = {}
    for s, v in zip(spans, values):
        if s[0] == name:
            by_tag.setdefault(json.dumps(s[5]), []).append(v / s[4])
    if not by_tag:
        raise KeyError(f"no span named {name}")
    return sum(statistics.median(v) for v in by_tag.values())


def run_child(cli: Cli, args: list[str]) -> dict:
    out = cli.work / "trace-out.json"
    subprocess.run([sys.executable, str(Path(__file__).resolve().parent / "tracer.py"),
                    "--src", cli.env["PYTHONPATH"], "--out", str(out), *args],
                   env=cli.env, cwd=cli.work, check=True)
    return json.loads(out.read_text())


def check_scan(f: ref.Function, cond: str, witness: dict | None) -> list[str]:
    """A scan's result: no witness exactly when the reference finds none."""
    if witness is not None:
        return ref.check_witness(f, cond, witness)
    want = f.first_witness(cond)
    return [] if want is None else [f"{cond} reported to hold; the reference finds {want}"]


def traced(cli: Cli, wl: Workload) -> tuple[dict, dict]:
    build(cli, wl, {})
    cold = [run_child(cli, ["--cold", wl.inputs[0].path]) for _ in range(COLD_PROBES)]
    commands = [c for inp in wl.inputs for c in input_commands(inp)]
    spec = {
        "reps": TRACE_REPS,
        "cli": [[c.label, c.argv] for c in commands],
        "inputs": [{"path": i.path, "point": i.ref.first_minimizer()} for i in wl.inputs],
        "construct": construct_inputs(wl),
        "recipes": wl.recipes,
        "suite_n": wl.trace_suite_n,
        "suites": list(ref.SUITES),
        "predicates": [p for p, _ in ref.SEARCH_PREDICATES],
    }
    (cli.work / "spec.json").write_text(json.dumps(spec))
    out = run_child(cli, ["--spec", "spec.json"])

    spans = out["spans"]
    own = self_times(spans)
    total = [s[2] - s[1] for s in spans]
    m: dict[str, float] = {"cli.import_s": statistics.median(c["import_s"] for c in cold)}
    for key in ("setup_s", "setup_rss_mb"):
        m[f"conditions.{key}"] = statistics.median(c[key] for c in cold)
    for name, unit in PER_LAYER.items():
        if unit == "s" and name not in m and not name.startswith("verify.check_s."):
            m[name] = span_metric(spans, own, name)
    for suite in ref.SUITES:
        stream = "linear" if suite == "theorem2" else "weak"
        m[f"verify.check_s.{suite}"] = m[f"verify.run_suite_s.{suite}"] - m[f"generators.enumerate_s.{stream}"]
    traced_s = sum(span_metric(spans, total, f"cli.self_s.{c}") for c in CLI_COMMANDS)
    untraced_s = sum(span_metric(spans, total, f"cli.untraced.{c}") for c in CLI_COMMANDS)
    m["trace.overhead_pct"] = 100 * (traced_s - untraced_s) / untraced_s

    # Counts; every result behind them is checked against the reference.
    checks = {c.label: c.check for c in commands}
    for cmd in CLI_COMMANDS:
        m[f"cli.stdout_bytes.{cmd}"] = 0
    for label, status, text in out["outputs"]:
        m[f"cli.stdout_bytes.{label.split(':')[0]}"] += len(text.encode())
        cli.record(f"traced {label}", checks[label](status, text))
    for cond in CHECKED_CONDITIONS:
        m[f"conditions.pairs_scanned.{cond}"] = 0
    for idx, cond, w in out["witnesses"]:
        f = wl.inputs[idx].ref
        cli.record(f"traced {cond}:{wl.inputs[idx].name}", check_scan(f, cond, w))
        m[f"conditions.pairs_scanned.{cond}"] += (
            ref.incomparable_pair_count(f.n) if w is None else ref.pair_rank(f.n, f.mask(w["X"]), f.mask(w["Y"])))
    m["minimize.descent_moves"] = sum(out["moves"])
    m["hierarchy.p"] = m["hierarchy.chain_entries"] = 0
    for (p, entries, w), inp in zip(out["levels"], wl.inputs):
        f = inp.ref
        mu = sorted(set(f.keys))
        want_entries = sum(sum(1 for k in f.keys if k <= cut) for cut in mu)
        errs = check_scan(f, "Qh", w)
        if (p, entries) != (len(mu), want_entries):
            errs.append(f"p={p}, chain entries={entries}, expected {len(mu)}, {want_entries}")
        cli.record(f"traced levels:{inp.name}", errs)
        m["hierarchy.p"] += p
        m["hierarchy.chain_entries"] += entries
    counts = ref.suite_counts(wl.trace_suite_n)
    for suite, (scanned, hyp, violations) in out["suites"].items():
        m[f"verify.scanned.{suite}"] = scanned
        m[f"verify.hypothesis_count.{suite}"] = hyp
        ok = (scanned, hyp) == counts[suite] and violations == 0
        cli.record(f"traced run_suite {suite}", [] if ok else [f"{scanned}, {hyp}, {violations}"])
    for i, found in enumerate(out["search"]):
        want = ref.first_match(i, wl.trace_suite_n)
        ok = found == (None if want is None else list(want))
        cli.record(f"traced search_witness {i}", [] if ok else [f"found {found}, expected {want}"])
    self_s = {name: span_metric(spans, own, name) for name in dict.fromkeys(s[0] for s in spans)}
    return m, {"cold": cold, "spans": len(spans), "span_self_s": self_s}


def environment(args: argparse.Namespace, root: Path) -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"python": platform.python_version(), "numpy": numpy, "nproc": os.cpu_count(),
            "seed": args.seed, "seconds": args.seconds, "commit": commit, "platform": platform.platform()}


def summarize(detail: dict) -> None:
    for key in ("setup_s", "startup_s", "bare_python_s"):
        if key in detail:
            values = detail[key]
            print(f"{key:<28} n={len(values):<3} median={statistics.median(values):.4f} s  "
                  f"max={max(values):.4f} s", file=sys.stderr)
    for label, values in detail.get("commands", {}).items():
        print(f"{label:<28} n={len(values):<3} median={statistics.median(values):.4f} s  "
              f"max={max(values):.4f} s", file=sys.stderr)
    for key, value in detail.get("by_command", {}).items():
        print(f"{key:<28} {value:.4f} s (sum of medians)", file=sys.stderr)


def record(path: Path, args: argparse.Namespace, root: Path, result: dict, detail: dict) -> None:
    data = json.loads(path.read_text()) if path.exists() else {"runs": {}}
    data["runs"][f"{args.workload}/trace{args.trace}"] = {
        "environment": environment(args, root), "result": result, "detail": detail}
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="n = 3 inputs, one suite, one predicate (self-test)")
    parser.add_argument("--record", type=Path, help="merge the full result and environment into this JSON file")
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "ordsub" / "cli.py").is_file():
        print(f"error: {src / 'ordsub'} not found; run from the root of an ordsub checkout", file=sys.stderr)
        return 2
    work = root / ".perfbench" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        cli = Cli(src, work)
        cli.run(["--version"])  # untimed: compiles bytecode on a fresh checkout
        wl = make_workload(args.workload, args.seed, args.tiny)
        if args.trace:
            metrics, detail = traced(cli, wl)
            units = PER_LAYER
        else:
            metrics, detail = end_to_end(cli, wl, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    summarize(detail)
    for line in cli.errors:
        print(f"FAILED {line}", file=sys.stderr)
    detail["fail_ratio"] = cli.failed / cli.attempted
    result = {
        "correct": cli.failed == 0,
        "attempted": cli.attempted,
        "failed": cli.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    if args.record:
        record(args.record, args, root, result, detail)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
