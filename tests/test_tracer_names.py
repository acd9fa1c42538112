"""Every ordsub attribute the benchmark tracer reaches must exist.

``perfbench/tracer.py`` calls the library by name, and the test suite never
runs it, so a renamed or deleted function would otherwise first show as a
failed ``perfbench/run.py --trace 1``.  The tracer is only parsed here.
"""

import ast
import importlib
from pathlib import Path

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
