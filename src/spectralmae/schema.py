"""JSON documents read and written through a dataclass's fields, their only schema.

Run configs, synth specs and dataset manifests are read by `read_doc`. No
numpy here: the CLI reads its config before numpy loads.
"""

from __future__ import annotations

import contextlib
import json
import reprlib
import types
import typing
from dataclasses import MISSING, fields

from .errors import ConfigError, FormatError


def _convert(value, hint):
    """`value` as the annotation `hint`; TypeError where the JSON type does not fit."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:  # X | None
        return None if value is None else _convert(value, args[0])
    # a list from JSON; a tuple from `model.PRESETS`
    if origin is tuple and isinstance(value, (list, tuple)) and len(value) == len(args):
        return tuple(map(_convert, value, args))
    if origin is list and isinstance(value, list):
        return [_convert(v, args[0]) for v in value]
    if type(value) is hint or (hint is float and type(value) is int):
        return hint(value)
    raise TypeError(value)


def field_value(value, hint, key: str, what: str = "config"):
    """`value` as the annotation `hint`, or a `ConfigError` naming `key`."""
    try:
        return _convert(value, hint)
    except (TypeError, OverflowError):  # OverflowError: an int too large for a float
        name = hint.__name__ if isinstance(hint, type) else hint
        raise ConfigError(f"{what} {key} must be {name}, not {reprlib.repr(value)}") from None


def from_doc(cls, doc, path: str, what: str = "config", **fixed):
    """The dataclass `cls` built from the JSON object `doc` at `path`.

    Each value must have the JSON type of its field's annotation: int (not
    bool); float, which also takes an int; str; null for `X | None`; a list
    of the tuple's length for `tuple[...]`; a list for `list[...]`. Lists
    become tuples where the field is a tuple. An absent field takes its
    default. The `fixed` fields come from the caller, never from the doc.
    A `ConfigError` names the bad key of the `what` document.
    """
    return cls(**_values(cls, doc, path, what, fixed), **fixed)


def _values(cls, doc, path: str, what: str, fixed) -> dict:
    """The fields `doc` gives, each checked as `from_doc` describes."""
    if not isinstance(doc, dict):
        name = f"{what} {path}" if path else what
        raise ConfigError(f"{name} must be a JSON object, not {reprlib.repr(doc)}")
    prefix = f"{path}." if path else ""
    hints = typing.get_type_hints(cls)
    unknown = sorted(doc.keys() - (hints.keys() - fixed.keys()))
    if unknown:
        raise ConfigError(f"unknown {what} keys: " + ", ".join(prefix + k for k in unknown))
    values = {k: field_value(v, hints[k], prefix + k, what) for k, v in doc.items()}
    given = values.keys() | fixed.keys()
    for f in fields(cls):
        if f.name not in given and f.default is f.default_factory is MISSING:
            raise ConfigError(f"{what} {prefix}{f.name} is required")
    return values


@contextlib.contextmanager
def in_file(path):
    """Re-raise a `ConfigError` or `FormatError` of the block with `path` named."""
    try:
        yield
    except (ConfigError, FormatError) as exc:
        raise type(exc)(f"{exc} (in {path})") from exc


def read_doc(cls, path, what: str = "config"):
    """`from_doc` of the JSON object in the file at `path`.

    An error in the document's types or keys names the file; the checks
    of `cls` itself on the values it was given raise as they are.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # bytes that are not UTF-8, or text that is not JSON
            raise ConfigError(f"{what} {path} is not UTF-8 JSON: {exc}") from exc
    with in_file(path):
        values = _values(cls, doc, "", what, {})
    return cls(**values)


def to_doc(obj, omit=()) -> dict:
    """The doc `from_doc` reads back into `obj`, less the fixed fields in `omit`."""
    return {f.name: getattr(obj, f.name) for f in fields(obj) if f.name not in omit}
