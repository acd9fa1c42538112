"""Command-line front end.

Exit codes: 0 when the command succeeds (and, for check-style commands, the
property holds), 1 when a property fails or a witness is found, 2 on usage or
input errors.  ``--json`` switches stdout to a stable JSON report.
"""

from __future__ import annotations

import argparse
import atexit
import os
import sys
from functools import cache
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

from . import __version__

if TYPE_CHECKING:
    from .core import RawKey


@cache
def _import_library() -> None:
    """Bind the library and json as module globals, once; main calls it after the arguments parse.

    So --version, -h and usage errors never import them.  Once bound, the
    names stay: perfbench/tracer.py re-binds them to time each command's
    library calls apart from its own.
    """
    global json, ConditionId, classify, OrderedCodomain, SetFunction, _clip, cut_function
    global modular_plus_concave, parse_predicate, random_function, search_witness, check_qh, family_chain
    global levels, chain_to_json, load_set_function, set_function_to_json, argmin, certify_global_min
    global constrained_minimize, interval_descent, run_suite
    import json

    from .conditions import ConditionId, classify
    from .core import OrderedCodomain, SetFunction, _clip
    from .generators import cut_function, modular_plus_concave, parse_predicate, random_function, search_witness
    from .hierarchy import check_qh, family_chain, levels
    from .io import chain_to_json, load_set_function, set_function_to_json
    from .minimize import argmin, certify_global_min, constrained_minimize, interval_descent
    from .verify import run_suite


def _emit(args: argparse.Namespace, command: str, inputs: dict, results: dict, status: int, human: list[str]) -> int:
    if args.json:
        report = {"command": command, "inputs": inputs, "results": results, "status": status}
        print(json.dumps(report, indent=2, ensure_ascii=False))
    else:
        for line in human:
            print(line)
    return status


def _fmt_subset(f: SetFunction, mask: int) -> str:
    s = f.ground.subset_str(mask)
    return "{" + s + "}"


def cmd_classify(args: argparse.Namespace) -> int:
    f = load_set_function(args.input)
    report = classify(f)
    results = report.to_json(f, include_witnesses=args.witness)
    human = ["condition            holds"]
    for cond in ConditionId:
        flag = report.flags[cond]
        shown = "n/a" if flag is None else ("yes" if flag else "no")
        human.append(f"{cond.value:<20} {shown}")
    if args.witness:
        for name, j in results["witnesses"].items():
            human.append(f"witness {name}: X={{{j['X']}}} Y={{{j['Y']}}} values={j['values']}")
    return _emit(args, "classify", {"input": args.input}, results, 0, human)


def cmd_minimize(args: argparse.Namespace) -> int:
    f = load_set_function(args.input)
    if args.mode == "brute":
        result = argmin(f)
        human = [
            "minimizers: " + " ".join(_fmt_subset(f, m) for m in result.minimizers),
            f"min value: {result.min_value.display()}",
        ]
        return _emit(args, "minimize", {"input": args.input, "mode": "brute"}, result.to_json(f), 0, human)
    start = f.ground.mask_of(args.start)
    trace = interval_descent(f, start)
    human = ["descent trace:"]
    for m, v in trace.steps:
        human.append(f"  {_fmt_subset(f, m)}  value {v.display()}")
    cert = trace.certificate
    human.append(
        f"terminal {_fmt_subset(f, trace.terminal)}: global={cert.is_global}"
        + (f" under {cert.hypothesis}" if cert.hypothesis else f" ({cert.reason})")
    )
    return _emit(
        args,
        "minimize",
        {"input": args.input, "mode": "descent", "start": args.start},
        trace.to_json(f),
        0,
        human,
    )


def cmd_certify(args: argparse.Namespace) -> int:
    f = load_set_function(args.input)
    point = f.ground.mask_of(args.point)
    cert = certify_global_min(f, point)
    status = 0 if cert.is_global else 1
    human = [
        f"point {_fmt_subset(f, point)}: value {f.value(point).display()}",
        f"lower interval checked: {cert.lower_checked} subsets",
        f"upper interval checked: {cert.upper_checked} subsets",
        f"hypothesis: {cert.hypothesis or 'none'}",
        f"global: {'yes' if cert.is_global else 'no'} ({cert.reason})",
    ]
    return _emit(args, "certify", {"input": args.input, "point": args.point}, cert.to_json(f), status, human)


def cmd_hierarchy(args: argparse.Namespace) -> int:
    f = load_set_function(args.input)
    lv = levels(f)
    witness = check_qh(f)
    results = {
        "levels": [f.codomain.json_encode(v.key) for v in lv.mu],
        "p": lv.p,
        "chain": chain_to_json(f.ground, family_chain(f)),
        "qh_holds": witness is None,
    }
    human = [
        "levels: " + " < ".join(v.display() for v in lv.mu),
        f"p = {lv.p}",
    ]
    if not args.json:  # one line per family, the bulk of the report; --json drops them
        for i, fam in enumerate(results["chain"]["families"]):
            human.append(f"F_{i}: " + (" ".join("{" + s + "}" for s in fam) or "(empty)"))
    if witness is not None:
        j = results["qh_witness"] = witness.to_json(f)
        human.append(f"Qh fails: X={{{j['X']}}} Y={{{j['Y']}}} values={j['values']}")
        status = 1
    else:
        human.append("Qh holds")
        status = 0
    return _emit(args, "hierarchy", {"input": args.input}, results, status, human)


def cmd_constrained(args: argparse.Namespace) -> int:
    phi = load_set_function(args.objective)
    f = load_set_function(args.constraint)
    result = constrained_minimize(phi, f, args.k)
    human = [
        f"feasible subsets (f > {result.threshold.display()}): {result.feasible_count}",
        "minimizers: " + " ".join(_fmt_subset(phi, m) for m in result.argmin.minimizers),
        f"min value: {result.argmin.min_value.display()}",
    ]
    return _emit(
        args,
        "constrained",
        {"objective": args.objective, "constraint": args.constraint, "k": args.k},
        result.to_json(phi),
        0,
        human,
    )


def cmd_verify(args: argparse.Namespace) -> int:
    result = run_suite(args.suite, args.n)
    status = 0 if result.ok else 1
    human = [
        f"suite {result.suite} at n={result.n}:",
        f"  functions scanned: {result.scanned}",
        f"  hypothesis satisfied: {result.hypothesis_count}",
        f"  violations: {result.violations}",
    ]
    if result.first_violation:
        human.append(f"  first violation: {result.first_violation}")
    return _emit(args, "verify", {"suite": args.suite, "n": args.n}, result.to_json(), status, human)


def _parse_weight(text: str) -> RawKey:
    text = text.strip()
    if "/" in text:
        num, den = (int(part) for part in text.split("/", 1))
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        from fractions import Fraction

        return Fraction(num, den)
    return int(text)


def _cause(exc: Exception) -> str:
    """Why an entry of --weights, --concave or --edges is bad, cut short; as in io, without Python's advice."""
    return _cut(str(exc).partition("; use sys.")[0], 90)


def _parse_weights(text: str, flag: str) -> list[RawKey]:
    """The comma-joined weights of flag; a bad entry is named, with its cause."""
    weights = []
    for entry in text.split(",") if text else ():
        try:
            weights.append(_parse_weight(entry))
        except ValueError as exc:
            raise ValueError(f"bad {flag} entry {_clip(entry)} ({_cause(exc)})") from None
    return weights


def _parse_edges(text: str) -> list[tuple[int, int, RawKey]]:
    edges = []
    if not text:
        return edges
    for part in text.split(","):
        part = part.strip()
        try:
            endpoints, weight = part.split(":") if ":" in part else (part, "1")
            i, j = endpoints.split("-")
            edges.append((int(i), int(j), _parse_weight(weight)))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"bad edge {_clip(part)} ({_cause(exc)}); expected i-j:w (e.g. 0-1:1)") from None
    return edges


def _write_function(args: argparse.Namespace, f: SetFunction) -> None:
    text = json.dumps(set_function_to_json(f, form=args.form), indent=2, ensure_ascii=False)
    if args.output:
        Path(args.output).write_text(text + "\n")
    else:
        print(text)


def cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "cut":
        f = cut_function(args.n, _parse_edges(args.edges))
    elif args.kind == "const":
        f = cut_function(args.n, [])
        if args.value:
            f = SetFunction(f.ground, f.codomain, tuple(args.value for _ in range(f.size)))
    elif args.kind == "modular":
        weights = _parse_weights(args.weights, "--weights")
        concave = _parse_weights(args.concave, "--concave")
        f = modular_plus_concave(args.n, weights, concave)
    else:  # random
        if args.codomain == "labels":
            if not args.labels:
                raise ValueError("--codomain labels needs --labels, e.g. --labels lo,mid,hi")
            codomain = OrderedCodomain("labels", tuple(args.labels.split(",")))
        else:
            codomain = OrderedCodomain(args.codomain)
        f = random_function(args.n, codomain, args.distinct, args.seed)
    _write_function(args, f)
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    predicate = parse_predicate(args.predicate)
    found = search_witness(args.n, predicate)
    if found is None:
        print(f"no function at n={args.n} satisfies {predicate.source!r}", file=sys.stderr)
        return 1
    _write_function(args, found)
    return 0


def _cut(message: str, limit: int = 300) -> str:
    """An error message that may echo outside input whole, cut well past any ordinary one."""
    return message if len(message) <= limit else message[:limit] + "..."


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        super().error(_cut(message))


def build_parser(command: str) -> argparse.ArgumentParser:
    """The parser of every subcommand's name and help, and of the arguments of command alone."""
    parser = _Parser(
        prog="ordsub",
        description="Classify, minimize and verify ordinally submodular set functions.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name: str, func, summary: str, report: bool = True) -> argparse.ArgumentParser | None:
        p = sub.add_parser(name, help=summary)
        if name != command:
            return None
        if report:
            p.add_argument("--json", action="store_true", help="emit a JSON report on stdout")
        p.set_defaults(func=func)
        return p

    if p := add("classify", cmd_classify, "report which conditions a function satisfies"):
        p.add_argument("input", help="set-function JSON file")
        p.add_argument("--witness", action="store_true", help="include violation witnesses")

    if p := add("minimize", cmd_minimize, "global argmin, by scan or interval descent"):
        p.add_argument("input")
        p.add_argument("--mode", choices=("brute", "descent"), default="brute")
        p.add_argument("--start", default="", metavar="SUBSET",
                       help="descent start, comma-joined element names ('' is the empty set)")

    if p := add("certify", cmd_certify, "certify a point as a global minimizer"):
        p.add_argument("input")
        p.add_argument("--point", required=True, metavar="SUBSET")

    if p := add("hierarchy", cmd_hierarchy, "level values, nested families, Qh verdict"):
        p.add_argument("input")

    if p := add("constrained", cmd_constrained, "minimize an objective over {X : constraint(X) > k-th level}"):
        p.add_argument("objective")
        p.add_argument("constraint")
        p.add_argument("--k", type=int, required=True)

    if p := add("verify", cmd_verify, "run an exhaustive verification suite"):
        from .verify import SUITE_NAMES

        p.add_argument("--suite", required=True, choices=SUITE_NAMES)
        p.add_argument("--n", type=int, required=True)

    if p := add("generate", cmd_generate, "emit a structured or random function", report=False):
        p.add_argument("kind", choices=("cut", "const", "modular", "random"))
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--edges", default="", help="cut edges, e.g. 0-1:1,1-2:1/2")
        p.add_argument("--value", type=int, default=0, help="constant value for 'const'")
        p.add_argument("--weights", default="", help="modular weights, e.g. 1,0")
        p.add_argument("--concave", default="", help="concave sequence g(0)..g(n), e.g. 0,1,1")
        p.add_argument("--distinct", type=int, default=2, help="distinct values for 'random'")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--codomain", choices=("integer", "rational", "labels"), default="integer")
        p.add_argument("--labels", default="", help="comma-joined label order for --codomain labels")
        p.add_argument("-o", "--output", default=None, help="write the function file here instead of stdout")
        p.add_argument("--form", choices=("dense", "sparse"), default="dense")

    if p := add("search", cmd_search, "find a function matching a class predicate", report=False):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--predicate", required=True, help="e.g. 'Q4 & !Q3' or 'Qh & !(Q1 & Q2)'")
        p.add_argument("-o", "--output", default=None)
        p.add_argument("--form", choices=("dense", "sparse"), default="dense")

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # No top-level option takes a value, so argparse dispatches on the first token not
    # starting with '-' (or fails on an earlier '-' or '-1', as an invalid choice).
    args = build_parser(next((a for a in argv if not a.startswith("-")), "")).parse_args(argv)
    _import_library()
    try:
        return args.func(args)
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {_cut(str(exc))}", file=sys.stderr)
        return 2


def entry() -> None:
    """Run main on sys.argv and end the process with its status, skipping the interpreter's teardown.

    atexit callbacks still run, and stdout and stderr are flushed; then
    ``os._exit`` ends the process.  A failed flush (a closed pipe) or a set
    trace or profile function (cProfile, coverage, pdb at a breakpoint) takes the ordinary
    ``sys.exit`` instead, with its own exit-time output and status.
    """
    try:
        status = main()
    except SystemExit as exc:  # argparse's --version, --help and usage errors
        status = exc.code
    if sys.gettrace() or sys.getprofile():
        sys.exit(status)
    atexit._run_exitfuncs()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except (OSError, ValueError):
        sys.exit(status)
    os._exit(status)


if __name__ == "__main__":
    entry()
