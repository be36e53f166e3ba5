"""Package exception hierarchy, mapped to CLI exit codes."""

import contextlib
import dataclasses
import sys


class GenreclfError(Exception):
    """Base for all package-specific failures."""


class ConfigError(GenreclfError):
    """Invalid or inconsistent configuration (CLI exit code 2)."""


class DataError(GenreclfError):
    """Malformed datasets, manifests or feature files (CLI exit code 3)."""


class MmfFormatError(DataError):
    """Structurally invalid .mmf feature container."""


class NumericError(GenreclfError):
    """Non-finite values encountered in training or scoring (CLI exit code 4)."""


_REQUIRED = object()
_KINDS = {int: "an integer", float: "a finite number", str: "a string", bool: "true or false",
          dict: "an object", list: "a list"}


def is_kind(value, kind: type) -> bool:
    """Whether ``value`` is a ``kind``: a bool is not an int, a float is finite and a tuple is a list."""
    if kind is float:
        return type(value) in (int, float) and abs(value) <= sys.float_info.max   # exact, so no int overflows
    return isinstance(value, (list, tuple)) if kind is list else type(value) is kind   # to_dict keeps tuples


def refuse_unless(where: str, *checks):
    """A ConfigError ``<where> field '<field>' must be <what>, got <value>`` for the first (field, value, ok,
    what) check that is not ok. Every ``ok`` is computed first, so no rule may raise on a value another refuses."""
    for field, value, ok, what in checks:
        if not ok:
            raise ConfigError(f"{where} field {field!r} must be {what}, got {value!r:.80}")


def config_field(d, key: str, kind, default=_REQUIRED, where: str = "config"):
    """``d[key]`` if it is a ``kind`` (see ``is_kind``), else a ConfigError
    naming the field. ``kind`` is a type, or a ``type | None`` that also
    reads a null as None. A missing key gives the default if there is one."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} is not an object: {d!r:.80}")
    if key not in d:
        if default is _REQUIRED:
            raise ConfigError(f"{where} field {key!r} is missing")
        return default
    value, nullable = d[key], not isinstance(kind, type)   # ``type | None`` is a union, not a type
    if value is None and nullable:
        return None
    kind = kind.__args__[0] if nullable else kind
    refuse_unless(where, (key, value, is_kind(value, kind), f"{_KINDS[kind]}{' or null' if nullable else ''}"))
    return float(value) if kind is float else value


def config_fields(cls, d, where: str, **given):
    """A ``cls`` dataclass from ``given`` and ``d``: each other field is read
    by ``config_field`` as its annotation (``int | None`` reads an int or a
    null), with the field's own default if it has one; any other key is refused."""
    for f in dataclasses.fields(cls):
        if f.name not in given:
            default = _REQUIRED if f.default is dataclasses.MISSING else f.default
            given[f.name] = config_field(d, f.name, f.type, default, where)
    for key in d:   # every field is in ``given`` now
        if key not in given:
            raise ConfigError(f"{where} field {key!r} is not one of {', '.join(sorted(given))}")
    return cls(**given)


@contextlib.contextmanager
def reading(path: str, error=DataError):
    """A ConfigError raised inside (by ``read_json`` or a field's rule) becomes an ``error`` whose message
    starts with ``path``: a DataError (exit 3) for a data file, a ConfigError (exit 2) for a ``--config`` file."""
    try:
        yield
    except ConfigError as exc:
        raise error(f"{path}: {exc}") from None
