"""Every ordsub attribute the benchmark tracer reaches must exist.

``perfbench/tracer.py`` calls the library by name, and the test suite never
runs it, so a renamed or deleted function would otherwise first show as a
failed ``perfbench/run.py --trace 1``.  The tracer is parsed here, and
imported from its path once, without writing bytecode next to it.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

from ordsub import random_function, set_function_to_json

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def ordsub_aliases(tree: ast.AST) -> dict[str, str]:
    """Local name -> ordsub module, from the tracer's import statements."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "ordsub":
            for a in node.names:
                aliases[a.asname or a.name] = f"ordsub.{a.name}"
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("ordsub.") and a.asname:
                    aliases[a.asname] = a.name
    return aliases


def test_tracer_reaches_only_existing_attributes():
    tree = ast.parse(TRACER.read_text())
    aliases = ordsub_aliases(tree)
    assert {"conditions", "core", "generators", "hierarchy", "minimize", "verify", "oio", "cli"} <= set(aliases)
    reached = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases
    }
    missing = [f"{aliases[name]}.{attr}" for name, attr in sorted(reached)
               if not hasattr(importlib.import_module(aliases[name]), attr)]
    assert len(reached) > 20 and not missing


# The functions the tracer wraps to split cli.self_s.* from the library spans,
# each with its home module.
CLI_LIBRARY = {
    "_clip": "ordsub.core",
    "argmin": "ordsub.minimize",
    "certify_global_min": "ordsub.minimize",
    "chain_to_json": "ordsub.io",
    "check_qh": "ordsub.hierarchy",
    "classify": "ordsub.conditions",
    "constrained_minimize": "ordsub.minimize",
    "cut_function": "ordsub.generators",
    "family_chain": "ordsub.hierarchy",
    "interval_descent": "ordsub.minimize",
    "levels": "ordsub.hierarchy",
    "load_set_function": "ordsub.io",
    "modular_plus_concave": "ordsub.generators",
    "parse_predicate": "ordsub.generators",
    "random_function": "ordsub.generators",
    "run_suite": "ordsub.verify",
    "search_witness": "ordsub.generators",
    "set_function_to_json": "ordsub.io",
}


def test_tracer_wraps_every_cli_library_function(tmp_path):
    # as traced_run does: one classify through cli.main, then the tracer's own lookup
    path = tmp_path / "f.json"
    path.write_text(json.dumps(set_function_to_json(random_function(4, distinct_values=3, seed=1))))
    code = (
        "import contextlib, importlib.util, io, json, sys\n"
        "sys.dont_write_bytecode = True\n"
        f"spec = importlib.util.spec_from_file_location('tracer', {str(TRACER)!r})\n"
        "tracer = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracer)\n"
        "import ordsub.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    status = cli.main(['classify', {str(path)!r}])\n"
        "library = tracer.cli_library_functions(cli)\n"
        "home = {attr: fn.__module__ for attr, fn in library.items()\n"
        "        if fn is getattr(sys.modules[fn.__module__], attr)}\n"
        "print(status, json.dumps(home, sort_keys=True))\n"
    )
    src = str(TRACER.parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    status, home = proc.stdout.split(" ", 1)
    assert status == "0", proc.stdout
    assert json.loads(home) == CLI_LIBRARY
