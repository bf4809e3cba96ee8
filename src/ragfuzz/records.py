"""The one codec between dataclasses and the JSON records a campaign keeps.

``to_record`` turns a dataclass into a dict of its fields, an Enum into its
value and a tuple into a list, recursively. ``from_record`` rebuilds an
object by following each field's type hint; a key that is missing takes the
field's default, keys the type does not know are ignored, fields that are
not constructor parameters are not read, and ``int`` and ``float`` values
are coerced with ``int()``/``float()``. A ``Decimal`` field takes a finite
number read from ``str(value)``, so a JSON number keeps its written digits.
A ``str`` field takes only a string, a list or tuple field only a list, and
a dataclass or ``dict`` field only a mapping. Any error names its field
path, such as ``targets[0].name``. A record states its own value rules in
``__post_init__`` by raising ``RecordError(field, reason)``, which gets the
record's path put in front; any other ``ValueError`` reads as the value
failing to decode. Hints are resolved once per type, so decoding a record
costs one pass over its fields.
"""
from __future__ import annotations

import builtins
import dataclasses
import functools
import sys
import types
import typing
from decimal import Decimal, InvalidOperation
from enum import Enum

from .errors import RecordError


def to_record(obj):
    names = _field_names(type(obj))
    if names is not None:
        return {name: to_record(getattr(obj, name)) for name in names}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return [to_record(v) for v in obj]
    if isinstance(obj, dict):
        return {k: to_record(v) for k, v in obj.items()}
    return obj


@functools.cache
def _field_names(cls: type) -> tuple[str, ...] | None:
    if not dataclasses.is_dataclass(cls):
        return None
    return tuple(f.name for f in dataclasses.fields(cls))


def from_record(tp: type, data):
    return _decoder(tp)(data)


@functools.cache
def _decoder(tp) -> typing.Callable:
    if isinstance(tp, types.UnionType):  # only `X | None` occurs
        inner = _decoder(next(a for a in tp.__args__ if a is not type(None)))
        return lambda v: None if v is None else inner(v)
    origin = getattr(tp, "__origin__", None)
    if origin in (tuple, list):  # every tuple field is homogeneous
        item = _decoder(tp.__args__[0])
        return lambda v: origin(_at(f"[{i}]", item, x) for i, x in enumerate(_list(v)))
    if origin is dict or tp is dict:
        value = _decoder(tp.__args__[1]) if origin else _identity
        return lambda v: {k: _at(str(k), value, x) for k, x in _mapping(v).items()}
    if dataclasses.is_dataclass(tp):
        return _dataclass_decoder(tp)
    if tp is str:
        return _str
    if tp is Decimal:
        return _decimal
    if tp in (int, float) or (isinstance(tp, type) and issubclass(tp, Enum)):
        return tp
    return _identity


def _identity(v):
    return v


def _expect(kind, noun: str) -> typing.Callable:
    def check(v):
        if not isinstance(v, kind):
            raise RecordError("", f"expected {noun}, got {type(v).__name__}")
        return v

    return check


_list = _expect((list, tuple), "a list")
_mapping = _expect(dict, "a mapping")
_str = _expect(str, "a string")


def _decimal(v):
    try:
        d = Decimal(str(v))
        if d.is_finite():
            return d
    except InvalidOperation:
        pass
    raise RecordError("", f"expected a finite decimal number, got {v!r}")


def _at(key: str, decode: typing.Callable, value):
    """decode(value), with the field path of any error put under key."""
    try:
        return decode(value)
    except RecordError as exc:
        path = exc.field_path if exc.field_path[:1] in ("", "[") else "." + exc.field_path
        raise RecordError(key + path, exc.reason) from None
    except (TypeError, ValueError, OverflowError) as exc:  # int(inf) overflows
        raise RecordError(key, f"cannot read {value!r}: {exc}") from exc


@functools.cache
def _hint(annotation: str, module: str):
    # what typing.get_type_hints does per field, at a fraction of its cost:
    # a bare name is looked up rather than compiled
    namespace = vars(sys.modules[module])
    if annotation.isidentifier():
        return namespace.get(annotation) or getattr(builtins, annotation)
    return eval(annotation, namespace)


def _dataclass_decoder(cls: type) -> typing.Callable:
    fields = None  # built at the first decode, so a type no record holds costs nothing

    def decode(data):
        nonlocal fields
        _mapping(data)
        if fields is None:
            fields = [
                (f.name,
                 _decoder(_field_hint(cls, f)),
                 f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING)
                for f in dataclasses.fields(cls)
                if f.init
            ]
        kwargs = {}
        for name, decode_field, required in fields:
            if name in data:
                kwargs[name] = _at(name, decode_field, data[name])
            elif required:
                raise RecordError(name, "is required")
        return cls(**kwargs)

    return decode


def _field_hint(cls: type, f: dataclasses.Field):
    if not isinstance(f.type, str):
        return f.type
    # an inherited field's hint names what the module declaring it imports
    owner = next(c for c in cls.__mro__ if f.name in vars(c).get("__annotations__", {}))
    return _hint(f.type, owner.__module__)
