"""Plain key=value config text, shared by every CLI --config flag.

Format:
  - one ``key = value`` pair per line (spaces around ``=`` optional)
  - ``#`` starts a comment, full-line or trailing
  - blank lines are ignored
  - keys are identifiers; a duplicate key is an error, not a silent override

Values stay strings until ``dataclass_from_mapping`` types each one by the
annotation of the dataclass field its key names. ``int``, ``float`` and
``str`` cast directly, and a float must be finite (``nan``, ``inf`` and
``1e999`` are rejected). ``bool`` takes only 1/0, true/false and yes/no.
``tuple[T, ...]`` reads a list separated by commas and/or spaces. A field of
any other type, like a name that is no field, is an unknown key. Errors are
raised as the consumer's own error class.
"""

import dataclasses
import functools
import math
import numbers
import re
import typing

_KEY_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")

_BOOL_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


class ConfigError(ValueError):
    pass


def parse_config_text(text: str) -> dict:
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not _KEY_RE.match(key):
            raise ConfigError(f"line {lineno}: invalid key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def load_config(path: str) -> dict:
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


@functools.cache
def _fields(cls) -> dict:
    """Settable field name -> (annotation, required), resolved once per class
    because the intrinsics of every manifest pair are parsed."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: (hints[f.name], f.default is f.default_factory is dataclasses.MISSING)
        for f in dataclasses.fields(cls)
        if hints[f.name] in (int, float, str, bool) or typing.get_origin(hints[f.name]) is tuple
    }


def check_finite(instance, error: type[Exception]) -> None:
    """Raise ``error`` naming the first field of dataclass ``instance`` that
    holds a non-finite number, as ``_cast`` refuses one in config text."""
    for f in dataclasses.fields(instance):
        value = getattr(instance, f.name)
        if isinstance(value, numbers.Real) and not math.isfinite(value):
            raise error(f"{f.name} must be finite, got {value}")


def _cast(kind, raw):
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        return tuple(_cast(item, part) for part in str(raw).replace(",", " ").split())
    if kind is bool:
        if str(raw).lower() not in _BOOL_WORDS:
            raise ValueError(f"expected 1/0, true/false or yes/no, got {raw!r}")
        return _BOOL_WORDS[str(raw).lower()]
    value = kind(raw)
    if kind is float and not math.isfinite(value):
        raise ValueError(f"must be finite, got {raw!r}")
    return value


def dataclass_from_mapping(cls, mapping, error: type[Exception], label: str, base=None):
    """Build dataclass ``cls`` from a mapping of strings or JSON scalars.

    With ``base`` the mapping overrides that instance's fields; without it,
    every field that has no default must be given. Failures raise ``error``
    with a message naming ``label``, e.g. ``unknown solver config key 'x'``.
    """
    fields = _fields(cls)
    kwargs = {}
    for key, raw in dict(mapping).items():  # dict(None) raises TypeError
        if key not in fields:
            raise error(f"unknown {label} config key {key!r}")
        try:
            kwargs[key] = _cast(fields[key][0], raw)
        except (TypeError, ValueError, OverflowError) as exc:
            raise error(f"{label} config key {key!r}: {exc}") from exc
    if base is not None:
        return dataclasses.replace(base, **kwargs)
    missing = [k for k, (_, required) in fields.items() if required and k not in kwargs]
    if missing:
        raise error(f"{label} config missing keys: {missing}")
    return cls(**kwargs)
