"""Exception types shared across the package, and the JSON load helpers
that raise them.

Two broad families: problems with a requested configuration (bad budget,
unknown architecture, infeasible synthetic spec) and problems with the data
itself (parse failures, schema mismatches, degenerate inputs). The CLI maps
them to distinct exit codes.
"""

import dataclasses
import functools
import json
import math
import numbers
import sys


class PPVerifyError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(PPVerifyError):
    """The requested configuration is invalid or infeasible."""


class DataError(PPVerifyError):
    """The supplied data violates a precondition or cannot be parsed."""


def read_json(path: str, error_cls=DataError):
    """The JSON value stored in `path`; `error_cls` when it does not parse,
    or holds NaN, Infinity or -Infinity, which Python's json reads and JSON
    lacks, or a number such as 1e400 that no float can hold, or nests
    deeper than the decoder can follow."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=_no_constant, parse_float=_finite_float)
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, 1e400, deep nesting
            raise error_cls(f"{path}: not valid JSON ({exc})") from None


def _no_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def json_number(value, integral: bool = False):
    """`value` as a float, or as an int if `integral`; TypeError unless it
    is a JSON number (an integer if `integral`), which a bool or a string
    is not. OverflowError for an int no float can hold."""
    kinds = int if integral else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise TypeError(f"{value!r} is not {'an integer' if integral else 'a number'}")
    return int(value) if integral else float(value)


def json_field(mapping, key: str, where: str):
    """`mapping[key]`; DataError unless `mapping` is a JSON object holding `key`."""
    if not isinstance(mapping, dict) or key not in mapping:
        raise DataError(f"{where} lacks {key!r}")
    return mapping[key]


def check_known_keys(raw: dict, cls, what: str) -> None:
    """ConfigError naming the keys of `raw` that are not fields of the dataclass `cls`."""
    unknown = set(raw) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {what}: {sorted(unknown)}")


_FLOAT_MAX = sys.float_info.max
_SCALAR_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str, "bool": bool,
                 "None": type(None)}


@functools.cache
def _scalar_fields(cls) -> tuple:
    """(name, type names) of each field of the dataclass `cls` annotated with
    int, float, str, bool or a union of them, parsed once per class."""
    fields = []
    for f in dataclasses.fields(cls):
        names = tuple(t.strip() for t in str(getattr(f.type, "__name__", f.type)).split("|"))
        if all(t in _SCALAR_TYPES for t in names):
            fields.append((f.name, names))
    return tuple(fields)


def check_field_types(obj) -> None:
    """ConfigError unless every field of the dataclass `obj` annotated with
    int, float, str, bool or a union of them holds such a value.

    A float field must hold a finite value (NaN, inf and an int no float
    can hold fail); a bool passes only for a bool. Fields of any other
    type are the caller's to check.
    """
    for name, names in _scalar_fields(type(obj)):
        value = getattr(obj, name)
        if not any(
            isinstance(value, _SCALAR_TYPES[t]) and (t == "bool") == isinstance(value, bool)
            for t in names
        ):
            raise ConfigError(f"{name} must be {' or '.join(names)}, got {value!r}")
        if "float" in names and isinstance(value, numbers.Real) and not abs(value) <= _FLOAT_MAX:
            shown = "an int no float can hold" if isinstance(value, numbers.Integral) else value
            raise ConfigError(f"{name} must be a finite float, got {shown}")
