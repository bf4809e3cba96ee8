"""The one codec between dataclasses and the JSON records a campaign keeps.

``to_record`` turns a dataclass into a dict of its fields, an Enum into its
value and a tuple into a list, recursively. ``from_record`` rebuilds an
object by following each field's type hint; a key that is missing takes the
field's default, keys the type does not know are ignored, and ``int`` and
``float`` values are coerced with ``int()``/``float()``. Hints are resolved
once per type, so decoding a record costs one pass over its fields.
"""
from __future__ import annotations

import builtins
import dataclasses
import functools
import sys
import types
import typing
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
        return lambda v: origin(item(x) for x in v)
    if dataclasses.is_dataclass(tp):
        return _dataclass_decoder(tp)
    if origin is dict or tp is dict:
        return dict
    if tp in (int, float) or (isinstance(tp, type) and issubclass(tp, Enum)):
        return tp
    return lambda v: v


@functools.cache
def _hint(annotation: str, module: str):
    # what typing.get_type_hints does per field, at a fraction of its cost:
    # a campaign's cold set-up decodes eight config types, so a bare name
    # is looked up rather than compiled
    namespace = vars(sys.modules[module])
    if annotation.isidentifier():
        return namespace.get(annotation) or getattr(builtins, annotation)
    return eval(annotation, namespace)


def _dataclass_decoder(cls: type) -> typing.Callable:
    fields = [
        (f.name,
         _decoder(_hint(f.type, cls.__module__) if isinstance(f.type, str) else f.type),
         f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING)
        for f in dataclasses.fields(cls)
    ]

    def decode(data):
        if not isinstance(data, dict):
            raise RecordError("", f"expected a mapping, got {type(data).__name__}")
        kwargs = {}
        for name, decode_field, required in fields:
            if name not in data:
                if required:
                    raise RecordError(name, "is required")
                continue
            try:
                kwargs[name] = decode_field(data[name])
            except RecordError as exc:
                raise RecordError(f"{name}.{exc.field_path}".rstrip("."), exc.reason) from None
            except (TypeError, ValueError) as exc:
                raise RecordError(name, f"cannot read {data[name]!r}: {exc}") from exc
        return cls(**kwargs)

    return decode
