"""One checker for every JSON object the package reads: run and simulation
configs, basis specifications, and model and eigen headers. A key table maps
each key an object may hold to a :class:`Kind`; :func:`check` refuses unknown
keys, missing required keys and values of the wrong kind, naming the key, and
turns integral numbers such as ``5.0`` into ``int``. A kind checks a range only
where no constructor downstream does; the constructors check theirs, by the
same rules for integers, numbers and booleans, with :func:`as_int`,
:func:`check_ints`, :func:`check_sign` and :func:`check_bool`. Imports
nothing from the package.
"""

from __future__ import annotations

import math
import numbers
from typing import Any, Callable, NamedTuple

import numpy as np

BAD = object()  # what a kind's ``convert`` returns for a value not of the kind


class Kind(NamedTuple):
    """``convert(value, where)`` is the value as stored, or :data:`BAD`;
    ``where`` names the value in the messages of objects nested in it."""

    what: str
    convert: Callable[[Any, str], Any]


def check(value, where: str, table: dict[str, Kind], required=()) -> dict:
    """``value`` with each entry converted by the kind of its key in ``table``."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} is not a JSON object")
    for key in required:
        if key not in value:
            raise ValueError(f"{where} has no field {key!r}")
    out = {}
    for key, v in value.items():
        if key not in table:
            raise ValueError(f"{where}: {key!r} was unexpected")
        out[key] = table[key].convert(v, f"{where} {key}")
        if out[key] is BAD:
            raise ValueError(f"{where} field {key!r} is not {table[key].what}: {v!r}")
    return out


def check_tagged(value, where: str, tag: str, tables: dict, required=()) -> dict:
    """:func:`check` against the table of ``tables`` that the value of the key
    ``tag`` names: a basis specification's kind, a simulation's design."""
    tag_kind = _is(
        "one of " + ", ".join(map(repr, tables)), lambda v: isinstance(v, str) and v in tables
    )
    head = {tag: value[tag]} if isinstance(value, dict) and tag in value else value
    name = check(head, where, {tag: tag_kind}, (tag,))[tag]
    return check(value, f"{name} {where}", {tag: tag_kind, **tables[name]}, (tag, *required))


def _is(what: str, test: Callable[[Any], bool], convert=lambda v: v) -> Kind:
    return Kind(what, lambda v, _: convert(v) if test(v) else BAD)


def _real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _boolean(v) -> bool:
    return isinstance(v, (bool, np.bool_))


def _integral(v) -> bool:
    return _real(v) and (isinstance(v, numbers.Integral) or float(v).is_integer())


def integer(minimum: int | None = None) -> Kind:
    """An integral number, at least ``minimum`` if given; becomes an ``int``."""
    what = "an integer" if minimum is None else f"an integer >= {minimum}"
    return _is(what, lambda v: _integral(v) and (minimum is None or v >= minimum), int)


def as_int(value, name: str) -> int:
    """``value`` as an ``int`` by the rule of :func:`integer`: an integral
    number such as ``5.0`` becomes ``5``; anything else raises ``ValueError``
    naming the setting ``name`` and the value."""
    if not _integral(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_ints(obj, minimum: dict[str, int], pairs=()) -> None:
    """Store each field of ``obj`` named in ``minimum`` as an ``int`` by the
    rule of :func:`as_int`, a field named in ``pairs`` as a tuple of exactly
    two, and refuse, by name, a value below the field's minimum."""
    for name, low in minimum.items():
        v = getattr(obj, name)
        if name in pairs and not (isinstance(v, (list, tuple)) and len(v) == 2):
            raise ValueError(f"{name} must be a pair of integers, got {v!r}")
        ints = tuple(as_int(x, name) for x in v) if name in pairs else (as_int(v, name),)
        if min(ints) < low:
            raise ValueError(f"{name} must be >= {low}, got {v!r}")
        object.__setattr__(obj, name, ints if name in pairs else ints[0])


def check_sign(obj, name: str, zero_ok: bool = False, many: bool = False) -> None:
    """The field ``name`` of ``obj`` must be a finite real > 0 (>= 0 if ``zero_ok``) or, with
    ``many``, a list, tuple or 1-d array of them; a string, ``None`` or a bool is refused."""
    v = getattr(obj, name)
    a = np.asarray(v, dtype=object)
    if a.ndim > (1 if many else 0) or not all(
        _real(x) and math.isfinite(x) and (x >= 0 if zero_ok else x > 0) for x in a.flat
    ):
        raise ValueError(f"{name} must be finite and {'>=' if zero_ok else '>'} 0, got {v!r}")


def check_bool(obj, name: str) -> None:
    """Store the field ``name`` of ``obj`` as a ``bool``; a value that is not a
    boolean by the rule of :data:`BOOLEAN` (``1``, ``"yes"``, ``None``) is
    refused by name."""
    v = getattr(obj, name)
    if not _boolean(v):
        raise ValueError(f"{name} must be a boolean, got {v!r}")
    object.__setattr__(obj, name, bool(v))


def number(minimum: float | None = None, maximum: float | None = None) -> Kind:
    """A number, kept as given; NaN passes only where no bound is set."""
    if minimum is None:
        return _is("a number", _real)
    what = f"a number >= {minimum}" if maximum is None else f"a number in [{minimum}, {maximum}]"
    top = math.inf if maximum is None else maximum
    return _is(what, lambda v: _real(v) and minimum <= v <= top)


def list_of(item: Kind, what: str, min_len: int = 0, max_len: int | None = None) -> Kind:
    """A list of ``item`` values whose length lies in ``[min_len, max_len]``."""

    def convert(v, where):
        if not isinstance(v, (list, tuple)) or not min_len <= len(v) <= (max_len or len(v)):
            return BAD
        out = [item.convert(x, f"{where}[{i}]") for i, x in enumerate(v)]
        return BAD if any(x is BAD for x in out) else out

    return Kind(what, convert)


def either(*kinds: Kind) -> Kind:
    """The first of ``kinds`` that accepts the value."""

    def convert(v, where):
        return next((x for k in kinds if (x := k.convert(v, where)) is not BAD), BAD)

    return Kind(" or ".join(k.what for k in kinds), convert)


def obj(table: dict[str, Kind], required=()) -> Kind:
    """A nested object, checked against ``table``."""
    return Kind("a JSON object", lambda v, where: check(v, where, table, required))


STRING = _is("a string", lambda v: isinstance(v, str))
BOOLEAN = _is("a boolean", _boolean)
NULL = _is("null", lambda v: v is None)
OBJECT = _is("a JSON object", lambda v: isinstance(v, dict))
INTEGER, NUMBER = integer(), number()
FINITE = _is("a number that is finite", lambda v: _real(v) and math.isfinite(v))
COUNT = integer(0)._replace(what="a count")
INTERVAL = list_of(NUMBER, "a list of two numbers", 2, 2)
