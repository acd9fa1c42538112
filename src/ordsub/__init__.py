"""Ordinal submodularity on finite Boolean lattices.

Set functions with exact ordered values (integers, rationals, labels),
classification against the Q1..Q4 / Qh / quasisubmodular hierarchy,
brute-force minimization with local-to-global certificates, level-set
chains, and exhaustive small-n enumeration for verifying the structural
claims the library is built on.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each public name, by the module that defines it.  A name is imported on its
# first access (PEP 562), so ``import ordsub`` alone loads none of them.
_HOME = {
    name: module
    for module, names in {
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
            "ArgminSet", "ConstrainedMinimum", "DescentTrace", "HypothesisError", "MinimalityCertificate",
            "argmin", "argmin_lattice_closure", "certify_global_min", "constrained_minimize",
            "interval_descent", "is_interval_local_min", "is_lower_interval_min", "lift_to_global",
        ),
        "verify": ("SUITE_NAMES", "SuiteResult", "run_suite"),
    }.items()
    for name in names
}
_SUBMODULES = frozenset(_HOME.values())

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A submodule, or a public name from its home module, kept here once imported."""
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOME.keys() | _SUBMODULES)
