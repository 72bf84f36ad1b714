"""Config dataclasses from parsed JSON, checked against their type hints.

``from_dict(cls, data, path)`` reads one JSON object into the dataclass
``cls``. Every value is checked against its field's type hint, and every
error names the offending path, e.g. ``scenario.traffic.provision_keys``.
A field's JSON key is its name unless ``field(metadata={"key": ...})``
renames it; a key of ``None`` keeps the field out of JSON. A ``"min"`` in
the metadata bounds a number, or each number of a list, from below.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import types
import typing
from enum import Enum

from .errors import ConfigError, InvalidParameterError

_EXACT = {bool: "true or false", str: "a string", dict: "an object"}


@functools.cache
def _schema(cls) -> dict:
    """JSON key -> (field, resolved type hint) of the dataclass ``cls``."""
    hints = typing.get_type_hints(cls)
    return {
        key: (f, hints[f.name])
        for f in dataclasses.fields(cls)
        if (key := f.metadata.get("key", f.name)) is not None
    }


def from_dict(cls, data, path: str):
    """Build the dataclass ``cls`` from the JSON object ``data``.

    Raises ConfigError naming ``path`` for an unknown or missing key, a value
    of the wrong type, or a value that ``cls.__post_init__`` rejects.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object, got {data!r}")
    schema = _schema(cls)
    unknown = set(data).difference(schema)
    if unknown:
        raise ConfigError(f"{path}: unknown field(s) {sorted(unknown)}")
    kwargs = {}
    for key, (f, hint) in schema.items():
        if key in data:
            kwargs[f.name] = _value(hint, data[key], f"{path}.{key}", f.metadata.get("min"))
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{path}: missing {key}")
    try:
        return cls(**kwargs)
    except InvalidParameterError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _value(hint, value, path: str, low=None):
    """``value`` checked against the type ``hint`` (ints widen to float) and
    the lower bound ``low``."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (hint,) = (a for a in args if a is not type(None))
        return _value(hint, value, path, low)
    if hint in (float, int):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        if hint is int and not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        # Python's json reads NaN and Infinity; exact int/float comparison
        # also catches integers too large for a float.
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{path}: expected a finite number, got {value!r}")
        if low is not None and value < low:
            raise ConfigError(f"{path}: must be at least {low}, got {value!r}")
        return hint(value)
    if hint in _EXACT:
        if type(value) is not hint:
            raise ConfigError(f"{path}: expected {_EXACT[hint]}, got {value!r}")
        return value
    if isinstance(hint, type) and issubclass(hint, Enum):
        try:
            return hint(value)
        except ValueError:
            choices = [m.value for m in hint]
            raise ConfigError(f"{path}: expected one of {choices}, got {value!r}") from None
    if origin is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        if args[-1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{path}: expected a list of {len(args)} items, got {value!r}")
        return tuple(
            _value(a, v, f"{path}[{i}]", low) for i, (a, v) in enumerate(zip(args, value))
        )
    if dataclasses.is_dataclass(hint):
        return from_dict(hint, value, path)
    raise TypeError(f"{path}: unsupported field type {hint!r}")
