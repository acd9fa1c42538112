"""The public surface of the ``ordsub`` package, which imports each name on first access."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ordsub

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Every public name, by the module that defines it.
PUBLIC = {
    "conditions": (
        "ClassReport", "ConditionId", "ConditionWitness", "check_condition", "check_ordinary_submodular",
        "classify", "holds_at_pair", "is_injective", "is_ordinary_submodular", "iter_witnesses",
    ),
    "core": (
        "INTEGERS", "RATIONALS", "GroundSet", "IntervalSublattice", "OrderedCodomain", "OrdinalValue",
        "SetFunction", "default_elements",
    ),
    "generators": (
        "ClassPredicate", "cut_function", "enumerate_linear_orders", "enumerate_weak_orders",
        "modular_plus_concave", "parse_predicate", "random_function", "search_witness",
    ),
    "hierarchy": (
        "ChainError", "LevelChain", "LevelValues", "check_qh", "family_chain", "level_family", "levels",
        "qh_from_chain",
    ),
    "io": ("chain_to_json", "load_set_function", "parse_set_function", "set_function_to_json"),
    "minimize": (
        "ArgminSet", "ConstrainedMinimum", "DescentTrace", "HypothesisError", "MinimalityCertificate", "argmin",
        "argmin_lattice_closure", "certify_global_min", "constrained_minimize", "interval_descent",
        "is_interval_local_min", "is_lower_interval_min", "lift_to_global",
    ),
    "verify": ("SUITE_NAMES", "SuiteResult", "run_suite"),
}
HOME = {name: f"ordsub.{module}" for module, names in PUBLIC.items() for name in names}


def _run_python(code):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_all_is_the_public_names():
    assert len(HOME) == 54
    assert sorted(ordsub.__all__) == sorted(HOME)
    assert len(set(ordsub.__all__)) == len(ordsub.__all__)


def test_every_name_is_its_home_modules_object():
    wrong = [name for name, module in HOME.items()
             if getattr(ordsub, name) is not getattr(importlib.import_module(module), name)]
    assert not wrong


def test_from_import_in_a_fresh_process_gives_the_home_objects():
    # each `from ordsub import name` runs before anything reads that name from the package
    code = (
        "import importlib, json\n"
        f"home = {HOME!r}\n"
        "same = []\n"
        "for name, module in home.items():\n"
        "    ns = {}\n"
        "    exec(f'from ordsub import {name}', ns)\n"
        "    same.append(ns[name] is getattr(importlib.import_module(module), name))\n"
        "print(json.dumps(same))\n"
    )
    assert json.loads(_run_python(code)) == [True] * len(HOME)


def test_star_import_binds_exactly_all():
    ns = {}
    exec("from ordsub import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == sorted(ordsub.__all__)
    assert all(ns[name] is getattr(ordsub, name) for name in ns)


def test_dir_lists_every_public_name_and_submodule():
    listed = set(dir(ordsub))
    assert set(ordsub.__all__) <= listed
    assert set(PUBLIC) <= listed
    assert "__version__" in listed


def test_unknown_name_is_the_standard_attribute_error():
    assert not hasattr(ordsub, "no_such_name")
    with pytest.raises(AttributeError) as info:
        ordsub.no_such_name
    assert type(info.value) is AttributeError
    assert str(info.value) == "module 'ordsub' has no attribute 'no_such_name'"
    with pytest.raises(ImportError, match="cannot import name 'no_such_name' from 'ordsub'"):
        exec("from ordsub import no_such_name", {})


def test_bare_import_loads_no_submodule():
    code = (
        "import json, sys\n"
        "import ordsub\n"
        "print(json.dumps([ordsub.__version__, sorted(m for m in sys.modules if m.startswith('ordsub'))]))\n"
    )
    assert json.loads(_run_python(code)) == ["0.1.0", ["ordsub"]]


def test_submodules_are_attributes_after_a_bare_import():
    code = (
        "import json, sys\n"
        "import ordsub\n"
        f"names = {sorted(PUBLIC)!r}\n"
        "print(json.dumps([getattr(ordsub, m) is sys.modules['ordsub.' + m] for m in names]))\n"
    )
    assert json.loads(_run_python(code)) == [True] * len(PUBLIC)
