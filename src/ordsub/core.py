"""Ground sets, ordered codomains, and set functions on Boolean lattices.

Subsets of a ground set of n elements are encoded as bitmasks: bit i is set
iff element i belongs to the subset.  Union is bitwise OR, intersection is
bitwise AND, and complement is XOR against the full mask 2**n - 1.

Values are exact: integers, rationals (``fractions.Fraction``), or labels
from a declared total order.  Floating point is rejected everywhere because
every condition this library checks hinges on exact equality and strict
comparison, and ties must be reproducible.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence, Union

if TYPE_CHECKING:
    from fractions import Fraction

MAX_GROUND_SIZE = 20

RawKey = Union[int, "Fraction"]

# fractions.Fraction, bound by the first rational key.  Importing fractions
# loads decimal and numbers too, which integer and label work never needs.
_Fraction = None

_DEFAULT_NAMES = "abcdefghijklmnopqrst"


def _exact_ints(values: Sequence[RawKey]) -> list[int]:
    """The values times the LCM of their denominators, less their minimum.

    Order and the comparison of sums of two are kept, as ordinary
    submodularity needs, and none is negative, as lanes need.
    """
    scale = math.lcm(*(v.denominator for v in values))
    ints = [v.numerator * (scale // v.denominator) for v in values]
    low = min(ints)
    return [v - low for v in ints]


def _clip(value: object, limit: int = 60) -> str:
    """repr(value) for an error message, cut to limit characters and an ellipsis.

    A value nested too deep for repr is shown by ``reprlib``, which cuts its depth.
    """
    try:
        text = repr(value)
    except RecursionError:
        import reprlib

        text = reprlib.repr(value)
    return text if len(text) <= limit else text[:limit] + "..."


class InitVar:
    """``InitVar[T]`` marks a record field as an argument of ``__init__`` only.

    It is passed on to ``__post_init__`` and not stored.
    """

    def __class_getitem__(cls, item: object) -> type:
        return cls


def _field_values(self) -> tuple:
    return tuple([getattr(self, name) for name in self._fields])


def _record_eq(self, other: object) -> bool:
    if self is other:
        return True
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _field_values(self) == _field_values(other)


def _record_hash(self) -> int:
    return hash(_field_values(self))


def _record_repr(self) -> str:
    shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
    return f"{self.__class__.__qualname__}({shown})"


def _record_setattr(self, name: str, value: object) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _record_delattr(self, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


_RECORD_METHODS = {
    "__eq__": _record_eq,
    "__hash__": _record_hash,
    "__repr__": _record_repr,
    "__setattr__": _record_setattr,
    "__delattr__": _record_delattr,
}


def record(cls: type) -> type:
    """Make cls a frozen record of the fields its annotations list, in order.

    The generated ``__init__`` takes the fields, by position or keyword, with
    the class attributes as defaults, stores them and then calls
    ``__post_init__`` if the class has one, passing it the ``InitVar`` fields.
    Equality, hash and repr go field by field unless the class defines its
    own, and assigning or deleting an attribute raises AttributeError.
    Annotations are read as strings (``from __future__ import annotations``).
    """
    annotations = cls.__dict__.get("__annotations__", {})
    defaults = {name: cls.__dict__[name] for name in annotations if name in cls.__dict__}
    params = [f"{name}={name}" if name in defaults else name for name in annotations]
    init_only = [name for name, annotation in annotations.items() if annotation.startswith("InitVar[")]
    cls._fields = tuple(name for name in annotations if name not in init_only)
    body = [f"    _set(self, {name!r}, {name})" for name in cls._fields]
    if hasattr(cls, "__post_init__"):
        body.append(f"    self.__post_init__({', '.join(init_only)})")
    namespace = {**defaults, "_set": object.__setattr__}
    exec(f"def __init__(self, {', '.join(params)}):\n" + "\n".join(body), namespace)
    cls.__init__ = namespace["__init__"]
    for name, method in _RECORD_METHODS.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls


def default_elements(n: int) -> tuple[str, ...]:
    """Element names a, b, c, ... for ground sets built without explicit names."""
    if not 1 <= n <= MAX_GROUND_SIZE:
        raise ValueError(f"ground set size must be in [1, {MAX_GROUND_SIZE}], got {n}")
    return tuple(_DEFAULT_NAMES[:n])


@record
class GroundSet:
    """Ordered, distinct element names; element i corresponds to bit i.

    Top-level ground sets must be nonempty and have at most ``MAX_GROUND_SIZE``
    elements (the dense 2**n value table is the point of this library, and it
    stops being one around a million entries).  Interval restriction may
    produce an empty ground set internally; pass ``allow_empty=True`` there.
    """

    elements: tuple[str, ...]
    allow_empty: InitVar[bool] = False

    def __post_init__(self, allow_empty: bool) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))
        n = len(self.elements)
        if n == 0 and not allow_empty:
            raise ValueError("ground set must be nonempty")
        if n > MAX_GROUND_SIZE:
            raise ValueError(f"ground set size must be at most {MAX_GROUND_SIZE}, got {n}")
        seen = set()
        for name in self.elements:
            if not isinstance(name, str) or not name:
                raise ValueError(f"element names must be nonempty strings, got {_clip(name)}")
            if "," in name:
                raise ValueError(f"element names must not contain commas: {_clip(name)}")
            if name != name.strip():
                # mask_of strips names, so such a name could not be looked up
                raise ValueError(f"element names must not start or end with whitespace: {_clip(name)}")
            if name in seen:
                raise ValueError(f"duplicate element name {_clip(name)}")
            seen.add(name)
        # the number of subsets, 2**n, stored once: check_mask reads it on every call
        object.__setattr__(self, "size", 1 << n)

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.elements)) - 1

    def check_mask(self, mask: int) -> int:
        if not isinstance(mask, int) or isinstance(mask, bool):
            raise TypeError(f"subset mask must be an int, got {type(mask).__name__}")
        if not 0 <= mask < self.size:
            raise IndexError(f"subset mask {mask} out of range [0, {self.size})")
        return mask

    def mask_of(self, names: Iterable[str] | str) -> int:
        """Mask for a collection of element names, or a comma-joined string ('' is the empty set)."""
        if isinstance(names, str):
            names = [] if names == "" else names.split(",")
        mask = 0
        for name in names:
            name = name.strip()
            try:
                i = self.elements.index(name)
            except ValueError:
                raise ValueError(f"unknown element name {_clip(name)}") from None
            if mask >> i & 1:
                raise ValueError(f"duplicate element name {_clip(name)} in subset")
            mask |= 1 << i
        return mask

    def names_of(self, mask: int) -> tuple[str, ...]:
        self.check_mask(mask)
        return tuple(e for i, e in enumerate(self.elements) if mask >> i & 1)

    def subset_str(self, mask: int) -> str:
        """Comma-joined element names; the empty set is ''."""
        return ",".join(self.names_of(mask))


@record
class OrderedCodomain:
    """A totally ordered value set: integers, exact rationals, or ordered labels.

    Label comparison follows position in ``label_order``.  Rational values are
    kept as ``fractions.Fraction`` (reduced, positive denominator), so equality
    is canonical and comparison is exact integer cross-multiplication.
    """

    kind: str
    label_order: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("integer", "rational", "labels"):
            raise ValueError(f"codomain kind must be integer, rational or labels, got {_clip(self.kind)}")
        object.__setattr__(self, "label_order", tuple(self.label_order))
        if self.kind == "labels":
            if not self.label_order:
                raise ValueError("labels codomain needs a nonempty label_order")
            if len(set(self.label_order)) != len(self.label_order):
                raise ValueError("label_order entries must be distinct")
        elif self.label_order:
            raise ValueError(f"label_order is only valid for the labels kind, not {self.kind!r}")

    @property
    def is_numeric(self) -> bool:
        return self.kind in ("integer", "rational")

    def key_of(self, raw: object) -> RawKey:
        """Coerce a user-supplied value into this codomain's comparable key.

        Integer keys are ints, rational keys are Fractions, label keys are
        positions in label_order.  Floats (and bools) are rejected.
        """
        if isinstance(raw, OrdinalValue):
            if raw.codomain != self:
                raise ValueError("value belongs to a different codomain")
            return raw.key
        if isinstance(raw, bool):
            raise TypeError("bool is not an ordinal value")
        if isinstance(raw, float):
            raise TypeError("floating point values are not allowed; use int, Fraction or [num, den]")
        if self.kind == "integer":
            if not isinstance(raw, int):
                raise TypeError(f"integer codomain expects int, got {type(raw).__name__}")
            return raw
        if self.kind == "rational":
            global _Fraction
            if _Fraction is None:
                from fractions import Fraction as _Fraction
            if isinstance(raw, int):
                return _Fraction(raw)
            if isinstance(raw, _Fraction):
                return raw
            if isinstance(raw, (tuple, list)) and len(raw) == 2:
                num, den = raw
                if (isinstance(num, int) and isinstance(den, int)
                        and not isinstance(num, bool) and not isinstance(den, bool)):
                    if den == 0:
                        raise ValueError("rational denominator must be nonzero")
                    return _Fraction(num, den)
            raise TypeError(f"rational codomain expects int, Fraction or [num, den], got {_clip(raw)}")
        # labels; ints are accepted as positions in label_order
        if isinstance(raw, int):
            if not 0 <= raw < len(self.label_order):
                raise ValueError(f"label index {raw} out of range for {len(self.label_order)} labels")
            return raw
        if not isinstance(raw, str):
            raise TypeError(f"labels codomain expects a label string, got {type(raw).__name__}")
        try:
            return self.label_order.index(raw)
        except ValueError:
            raise ValueError(f"unknown label {_clip(raw)}; label_order is {_clip(list(self.label_order))}") from None

    def value(self, raw: object) -> "OrdinalValue":
        return OrdinalValue(self, self.key_of(raw))

    def display(self, key: RawKey) -> str:
        if self.kind == "labels":
            return self.label_order[key]
        if self.kind == "rational" and key.denominator != 1:
            return f"{key.numerator}/{key.denominator}"
        return str(int(key))

    def json_encode(self, key: RawKey) -> object:
        """Value encoding for the file format: int, [num, den], or label string."""
        if self.kind == "labels":
            return self.label_order[key]
        if self.kind == "rational":
            return [key.numerator, key.denominator]
        return key

    def reversed_order(self) -> "OrderedCodomain":
        """The same value set under the opposite order (for the order dual)."""
        if self.kind == "labels":
            return OrderedCodomain("labels", tuple(reversed(self.label_order)))
        return self


INTEGERS = OrderedCodomain("integer")
RATIONALS = OrderedCodomain("rational")


@record
class OrdinalValue:
    """One value of an ordered codomain.  Comparable only within its codomain."""

    codomain: OrderedCodomain
    key: RawKey

    def _check(self, other: object) -> "OrdinalValue":
        if not isinstance(other, OrdinalValue):
            raise TypeError(f"cannot compare OrdinalValue with {type(other).__name__}")
        if other.codomain != self.codomain:
            raise ValueError("cannot compare values from different codomains")
        return other

    def __lt__(self, other: object) -> bool:
        return self.key < self._check(other).key

    def __le__(self, other: object) -> bool:
        return self.key <= self._check(other).key

    def __gt__(self, other: object) -> bool:
        return self.key > self._check(other).key

    def __ge__(self, other: object) -> bool:
        return self.key >= self._check(other).key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrdinalValue):
            return NotImplemented
        if other.codomain != self.codomain:
            raise ValueError("cannot compare values from different codomains")
        return self.key == other.key

    def __hash__(self) -> int:
        return hash((self.codomain, self.key))

    def display(self) -> str:
        return self.codomain.display(self.key)

    def __str__(self) -> str:
        return self.display()


@record
class IntervalSublattice:
    """The interval [lo, hi] = all subsets Z with lo ⊆ Z ⊆ hi."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo < 0 or self.hi < 0:
            raise ValueError("interval bounds must be nonnegative masks")
        if self.lo & self.hi != self.lo:
            raise ValueError(f"invalid interval: {self.lo} is not a subset of {self.hi}")

    @property
    def free_mask(self) -> int:
        return self.hi ^ self.lo

    @property
    def cardinality(self) -> int:
        return 1 << bin(self.free_mask).count("1")

    def contains(self, mask: int) -> bool:
        return self.lo & mask == self.lo and mask | self.hi == self.hi

    def members(self) -> Iterator[int]:
        """All masks in the interval, in increasing mask order.

        The one walk over an interval: ``sub`` steps through the submasks of
        the free bits in increasing order, (sub - free) & free being the next.
        """
        free = self.free_mask
        sub = 0
        while True:
            yield self.lo | sub
            if sub == free:
                return
            sub = (sub - free) & free


@record
class SetFunction:
    """A total map from the subsets of a ground set into an ordered codomain.

    ``values`` holds raw comparable keys indexed by subset mask (ints for the
    integer kind, Fractions for rational, label positions for labels).  Use
    :meth:`value` for codomain-tagged values and ``ranks`` to compare them.
    Instances are immutable and safe to share across workers.
    """

    ground: GroundSet
    codomain: OrderedCodomain
    values: tuple[RawKey, ...]

    def __post_init__(self) -> None:
        vals = tuple(self.codomain.key_of(v) for v in self.values)
        if len(vals) != self.ground.size:
            raise ValueError(
                f"need exactly {self.ground.size} values for {self.ground.n} elements, got {len(vals)}"
            )
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_ints(cls, elements: Sequence[str] | int, values: Sequence[int]) -> "SetFunction":
        """Integer-valued function; ``elements`` may be names or just a count."""
        if isinstance(elements, int):
            ground = GroundSet(default_elements(elements))
        else:
            ground = GroundSet(tuple(elements))
        return cls(ground, INTEGERS, tuple(values))

    @property
    def n(self) -> int:
        return self.ground.n

    @property
    def size(self) -> int:
        return self.ground.size

    def value(self, mask: int) -> OrdinalValue:
        """f(S) for the subset with the given mask."""
        self.ground.check_mask(mask)
        return OrdinalValue(self.codomain, self.values[mask])

    def complement_dual(self) -> "SetFunction":
        """g with g(X) = f(E \\ X); an involution that swaps union and intersection."""
        full = self.ground.full_mask
        return SetFunction(self.ground, self.codomain, tuple(self.values[full ^ m] for m in range(self.size)))

    def order_dual(self) -> "SetFunction":
        """The same table under the reversed codomain order.

        Numeric values are negated; a labels codomain gets its label_order
        reversed (and keys remapped so each subset keeps its label).  Checking
        any ordinal condition on the result is checking the corresponding
        "super" form of the condition on f.
        """
        if self.codomain.kind == "labels":
            top = len(self.codomain.label_order) - 1
            dual = self.codomain.reversed_order()
            return SetFunction(self.ground, dual, tuple(top - k for k in self.values))
        return SetFunction(self.ground, self.codomain, tuple(-k for k in self.values))

    def monotone_transform(
        self,
        sigma: Sequence[tuple[object, object]],
        codomain: OrderedCodomain | None = None,
    ) -> "SetFunction":
        """Apply a strictly increasing relabeling of values.

        ``sigma`` lists (old value, new value) pairs; it must cover every
        distinct value of f, old values must be distinct, and sorting by old
        value must leave the new values strictly increasing.  Every ordinal
        classification of the result matches f's.
        """
        target = codomain if codomain is not None else self.codomain
        pairs = [(self.codomain.key_of(old), target.key_of(new)) for old, new in sigma]
        if len({k for k, _ in pairs}) != len(pairs):
            raise ValueError("sigma lists a source value twice")
        pairs.sort(key=lambda p: p[0])
        for (_, a), (_, b) in zip(pairs, pairs[1:]):
            if not a < b:
                raise ValueError("sigma is not strictly increasing")
        table = dict(pairs)
        missing = sorted({v for v in self.values if v not in table})
        if missing:
            shown = ", ".join(self.codomain.display(v) for v in missing)
            raise ValueError(f"sigma does not cover value(s): {shown}")
        return SetFunction(self.ground, target, tuple(table[v] for v in self.values))

    def restrict(self, box: IntervalSublattice) -> "SetFunction":
        """The function induced on the interval [lo, hi], as a function on hi \\ lo.

        Subset S of the new ground set maps to f(lo ∪ S).  A degenerate
        interval [X, X] yields a single-point function on an empty ground set.
        """
        self.ground.check_mask(box.hi)
        sub_ground = GroundSet(self.ground.names_of(box.free_mask), allow_empty=True)
        return SetFunction(sub_ground, self.codomain, tuple(self.values[m] for m in box.members()))

    @cached_property
    def exact_ints(self) -> list[int]:
        """``_exact_ints`` of the values, for a numeric codomain: what ordinary
        submodularity scans, and what ``ranks`` ranks for rationals.

        Computed on first read and kept in the instance dict, outside the
        record's fields, as ``ranks`` is.
        """
        return _exact_ints(self.values)

    @cached_property
    def ranks(self) -> tuple[int, ...]:
        """Each subset's level index: its value's place among the p distinct values, 0..p-1.

        They keep every < and == of the values.  Rationals are ranked by their
        ``exact_ints``, which hash far faster than Fractions.  Computed on
        first read and kept in the instance dict, outside the record's fields.
        """
        keys = self.exact_ints if self.codomain.kind == "rational" else self.values
        rank = {v: r for r, v in enumerate(sorted(set(keys)))}
        return tuple(map(rank.__getitem__, keys))

    def distinct_keys(self) -> tuple[RawKey, ...]:
        """The distinct values attained, in increasing order."""
        key_of_rank = dict(zip(self.ranks, self.values))
        return tuple(map(key_of_rank.__getitem__, range(len(key_of_rank))))
