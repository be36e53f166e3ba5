"""Package exception hierarchy, mapped to CLI exit codes."""

import dataclasses
import sys
import typing


class GenreclfError(Exception):
    """Base for all package-specific failures."""


class ConfigError(GenreclfError):
    """Invalid or inconsistent configuration (CLI exit code 2)."""


class DataError(GenreclfError):
    """Malformed datasets, manifests or feature files (CLI exit code 3)."""


class MmfFormatError(DataError):
    """Structurally invalid .mmf feature container."""


class NumericError(GenreclfError):
    """Non-finite values encountered during training (CLI exit code 4)."""


_REQUIRED = object()
_KINDS = {int: "an integer", float: "a finite number", str: "a string", bool: "true or false",
          dict: "an object", list: "a list"}


def config_field(d, key: str, kind: type, default=_REQUIRED, where: str = "config"):
    """``d[key]`` if it is a ``kind`` (a bool is not an int, a float must be
    finite), else a ``ConfigError`` naming the field. A missing key, or a
    null where the default is None, gives the default if there is one."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} is not an object: {d!r:.80}")
    value = d.get(key)
    if key not in d or (value is None and default is None):
        if default is _REQUIRED:
            raise ConfigError(f"{where} field {key!r} is missing")
        return default
    if kind is float:
        ok = type(value) in (int, float) and abs(value) <= sys.float_info.max   # exact, so no int overflows
    elif kind is list:
        ok = isinstance(value, (list, tuple))   # to_dict keeps tuples
    else:
        ok = type(value) is kind
    if not ok:
        raise ConfigError(f"{where} field {key!r} must be {_KINDS[kind]}, got {value!r:.80}")
    return float(value) if kind is float else value


def config_fields(cls, d, where: str, **given):
    """A ``cls`` dataclass from ``given`` and ``d``: each other field is read
    by ``config_field`` as its annotated kind (``int | None`` as an int),
    with the field's own default if it has one."""
    for f in dataclasses.fields(cls):
        if f.name not in given:
            kind = next(t for t in typing.get_args(f.type) or (f.type,) if t is not type(None))
            default = _REQUIRED if f.default is dataclasses.MISSING else f.default
            given[f.name] = config_field(d, f.name, kind, default, where)
    return cls(**given)
