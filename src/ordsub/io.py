"""JSON file formats for set functions, and the family chain written by ``hierarchy --json``.

Set function, dense form (``values_dense[i]`` is the value at mask i):

    {"ground_set": ["a", "b"],
     "codomain": {"kind": "integer"},
     "values_dense": [1, 0, 2, 3]}

Sparse form keys subsets by comma-joined element names ('' is the empty set):

    {"ground_set": ["a", "b"],
     "codomain": {"kind": "integer"},
     "values": {"": 1, "a": 0, "b": 2, "a,b": 3}}

Rational values are encoded as [num, den]; a labels codomain carries
``label_order`` and encodes values as label strings.  A missing codomain
means integers.  Chains are output only (``chain_to_json``); nothing reads them:

    {"ground_set": ["a", "b"], "families": [[], ["", "a,b"], ["", "a", "b", "a,b"]]}
"""

from __future__ import annotations

import json
from pathlib import Path

from .core import GroundSet, OrderedCodomain, SetFunction, _clip
from .hierarchy import LevelChain


def codomain_from_json(obj: object) -> OrderedCodomain:
    if obj is None:
        return OrderedCodomain("integer")
    if not isinstance(obj, dict):
        raise ValueError("codomain: expected an object with a 'kind' field")
    kind = obj.get("kind")
    if not isinstance(kind, str):
        raise ValueError("codomain.kind: expected a string")
    if kind == "labels":
        order = obj.get("label_order")
        if not isinstance(order, list) or not all(isinstance(x, str) for x in order):
            raise ValueError("codomain.label_order: expected a list of strings")
        return OrderedCodomain("labels", tuple(order))
    return OrderedCodomain(kind)


def codomain_to_json(codomain: OrderedCodomain) -> dict:
    out: dict = {"kind": codomain.kind}
    if codomain.kind == "labels":
        out["label_order"] = list(codomain.label_order)
    return out


def _ground_from_json(obj: object) -> GroundSet:
    if not isinstance(obj, list) or not all(isinstance(x, str) for x in obj):
        raise ValueError("ground_set: expected a list of element name strings")
    return GroundSet(tuple(obj))


def parse_set_function(obj: object) -> SetFunction:
    """Build a SetFunction from a decoded JSON object (dense or sparse form)."""
    if not isinstance(obj, dict):
        raise ValueError("set function file: expected a JSON object at the top level")
    if "ground_set" not in obj:
        raise ValueError("set function file: missing 'ground_set'")
    ground = _ground_from_json(obj["ground_set"])
    codomain = codomain_from_json(obj.get("codomain"))
    dense = obj.get("values_dense")
    sparse = obj.get("values")
    if dense is None and sparse is None:
        raise ValueError("set function file: need 'values_dense' or 'values'")
    if dense is not None and sparse is not None:
        raise ValueError("set function file: give only one of 'values_dense' and 'values'")
    if dense is not None:
        if not isinstance(dense, list):
            raise ValueError("values_dense: expected a list")
        if len(dense) != ground.size:
            raise ValueError(f"values_dense: expected {ground.size} entries, got {len(dense)}")
        try:  # the constructor coerces each value once; only a failure walks them again, to name it
            return SetFunction(ground, codomain, tuple(dense))
        except (TypeError, ValueError):
            for i, raw in enumerate(dense):
                try:
                    codomain.key_of(raw)
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"values_dense[{i}]: {exc}") from None
            raise
    if not isinstance(sparse, dict):
        raise ValueError("values: expected an object keyed by comma-joined element names")
    table: dict[int, object] = {}  # coerced here, entry by entry, so that the file's first bad entry is named
    for key, raw in sparse.items():
        try:
            mask = ground.mask_of(key)
        except ValueError as exc:
            raise ValueError(f"values[{_clip(key)}]: {exc}") from None
        if mask in table:
            raise ValueError(f"values[{_clip(key)}]: subset listed twice")
        try:
            table[mask] = codomain.key_of(raw)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"values[{_clip(key)}]: {exc}") from None
    for mask in range(ground.size):
        if mask not in table:
            raise ValueError(f"values: missing subset {ground.subset_str(mask)!r}")
    return SetFunction(ground, codomain, tuple(table[m] for m in range(ground.size)))


def set_function_to_json(f: SetFunction, form: str = "dense") -> dict:
    """Encode a set function in the dense or sparse file form (lossless)."""
    out: dict = {
        "ground_set": list(f.ground.elements),
        "codomain": codomain_to_json(f.codomain),
    }
    enc = f.codomain.json_encode
    if form == "dense":
        out["values_dense"] = [enc(k) for k in f.values]
    elif form == "sparse":
        out["values"] = {f.ground.subset_str(m): enc(f.values[m]) for m in range(f.size)}
    else:
        raise ValueError(f"form must be 'dense' or 'sparse', got {form!r}")
    return out


def load_set_function(path: str | Path) -> SetFunction:
    path = Path(path)
    try:
        obj = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nests too deeply") from None
    except ValueError as exc:  # bytes that are not UTF-8, or a number past Python's digit limit, less its advice
        raise ValueError(f"{path}: {str(exc).partition(';')[0]}") from None
    try:
        return parse_set_function(obj)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def chain_to_json(ground: GroundSet, chain: LevelChain) -> dict:
    """The families as lists of sparse subset keys, looked up in one table of all 2**n names.

    The table names every subset, as a chain ending with the full power set
    (every ``family_chain`` does) must anyway.  Every entry is checked, in
    order, before it indexes the table: True would otherwise find the name
    of mask 1, and -1 that of the full set.
    """
    names = [ground.subset_str(m) for m in range(ground.size)]
    return {
        "ground_set": list(ground.elements),
        "families": [[names[ground.check_mask(m)] for m in fam] for fam in chain.families],
    }
