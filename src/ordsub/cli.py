"""Command-line front end.

Exit codes: 0 when the command succeeds (and, for check-style commands, the
property holds), 1 when a property fails or a witness is found, 2 on usage or
input errors.  ``--json`` switches stdout to a stable JSON report.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .conditions import ConditionId, classify
from .core import OrderedCodomain, SetFunction
from .generators import (
    cut_function,
    modular_plus_concave,
    parse_predicate,
    random_function,
    search_witness,
)
from .hierarchy import check_qh, family_chain, levels
from .io import chain_to_json, load_set_function, set_function_to_json
from .minimize import argmin, certify_global_min, constrained_minimize, interval_descent
from .verify import SUITE_NAMES, run_suite


def _emit(args: argparse.Namespace, command: str, inputs: dict, results: dict, status: int, human: list[str]) -> int:
    if args.json:
        report = {"command": command, "inputs": inputs, "results": results, "status": status}
        print(json.dumps(report, indent=2, ensure_ascii=False))
    else:
        for line in human:
            print(line)
    return status


def _load(path: str) -> SetFunction:
    return load_set_function(path)


def _subset_mask(f: SetFunction, text: str) -> int:
    return f.ground.mask_of(text)


def _fmt_subset(f: SetFunction, mask: int) -> str:
    s = f.ground.subset_str(mask)
    return "{" + s + "}"


def cmd_classify(args: argparse.Namespace) -> int:
    f = _load(args.input)
    report = classify(f)
    results = report.to_json(f, include_witnesses=args.witness)
    human = ["condition            holds"]
    for cond in ConditionId:
        flag = report.flags[cond]
        shown = "n/a" if flag is None else ("yes" if flag else "no")
        human.append(f"{cond.value:<20} {shown}")
    if args.witness:
        for cond, w in report.witnesses.items():
            j = w.to_json(f)
            human.append(
                f"witness {cond.value}: X={{{j['X']}}} Y={{{j['Y']}}} values={j['values']}"
            )
    return _emit(args, "classify", {"input": args.input}, results, 0, human)


def cmd_minimize(args: argparse.Namespace) -> int:
    f = _load(args.input)
    if args.mode == "brute":
        result = argmin(f)
        human = [
            "minimizers: " + " ".join(_fmt_subset(f, m) for m in result.minimizers),
            f"min value: {result.min_value.display()}",
        ]
        return _emit(args, "minimize", {"input": args.input, "mode": "brute"}, result.to_json(f), 0, human)
    start = _subset_mask(f, args.start)
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
    f = _load(args.input)
    point = _subset_mask(f, args.point)
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
    f = _load(args.input)
    lv = levels(f)
    chain = family_chain(f)
    witness = check_qh(f)
    results = {
        "levels": [f.codomain.json_encode(v.key) for v in lv.mu],
        "p": lv.p,
        "chain": chain_to_json(f.ground, chain),
        "qh_holds": witness is None,
    }
    human = [
        "levels: " + " < ".join(v.display() for v in lv.mu),
        f"p = {lv.p}",
    ]
    for i, fam in enumerate(chain.families):
        human.append(f"F_{i}: " + (" ".join("{" + f.ground.subset_str(m) + "}" for m in fam) or "(empty)"))
    if witness is not None:
        results["qh_witness"] = witness.to_json(f)
        j = witness.to_json(f)
        human.append(f"Qh fails: X={{{j['X']}}} Y={{{j['Y']}}} values={j['values']}")
        status = 1
    else:
        human.append("Qh holds")
        status = 0
    return _emit(args, "hierarchy", {"input": args.input}, results, status, human)


def cmd_constrained(args: argparse.Namespace) -> int:
    phi = _load(args.objective)
    f = _load(args.constraint)
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


def _parse_weight(text: str) -> int | Fraction:
    text = text.strip()
    if "/" in text:
        num, den = (int(part) for part in text.split("/", 1))
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(num, den)
    return int(text)


def _parse_edges(text: str) -> list[tuple[int, int, int | Fraction]]:
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
            raise ValueError(f"bad edge {part!r} ({exc}); expected i-j:w (e.g. 0-1:1)") from None
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
        weights = [_parse_weight(w) for w in args.weights.split(",")] if args.weights else []
        concave = [_parse_weight(v) for v in args.concave.split(",")] if args.concave else []
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


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report on stdout")
    common.add_argument("--witness", action="store_true", help="include violation witnesses")

    parser = argparse.ArgumentParser(
        prog="ordsub",
        description="Classify, minimize and verify ordinally submodular set functions.",
        parents=[common],
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("classify", parents=[common], help="report which conditions a function satisfies")
    p.add_argument("input", help="set-function JSON file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("minimize", parents=[common], help="global argmin, by scan or interval descent")
    p.add_argument("input")
    p.add_argument("--mode", choices=("brute", "descent"), default="brute")
    p.add_argument("--start", default="", metavar="SUBSET",
                   help="descent start, comma-joined element names ('' is the empty set)")
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("certify", parents=[common], help="certify a point as a global minimizer")
    p.add_argument("input")
    p.add_argument("--point", required=True, metavar="SUBSET")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("hierarchy", parents=[common], help="level values, nested families, Qh verdict")
    p.add_argument("input")
    p.set_defaults(func=cmd_hierarchy)

    p = sub.add_parser("constrained", parents=[common],
                       help="minimize an objective over {X : constraint(X) > k-th level}")
    p.add_argument("objective")
    p.add_argument("constraint")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_constrained)

    p = sub.add_parser("verify", parents=[common], help="run an exhaustive verification suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generate", parents=[common], help="emit a structured or random function")
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
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("search", parents=[common], help="find a function matching a class predicate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--predicate", required=True, help="e.g. 'Q4 & !Q3' or 'Qh & !(Q1 & Q2)'")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--form", choices=("dense", "sparse"), default="dense")
    p.set_defaults(func=cmd_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
