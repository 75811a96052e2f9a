"""Exception types shared across the package, and the JSON load helpers
that raise them.

Two broad families: problems with a requested configuration (bad budget,
unknown architecture, infeasible synthetic spec) and problems with the data
itself (parse failures, schema mismatches, degenerate inputs). The CLI maps
them to distinct exit codes.
"""

import json


class PPVerifyError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(PPVerifyError):
    """The requested configuration is invalid or infeasible."""


class DataError(PPVerifyError):
    """The supplied data violates a precondition or cannot be parsed."""


def read_json(path: str, error_cls=DataError):
    """The JSON value stored in `path`; `error_cls` when it does not parse."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise error_cls(f"{path}: not valid JSON ({exc})") from None


def json_field(mapping, key: str, where: str):
    """`mapping[key]`; DataError unless `mapping` is a JSON object holding `key`."""
    if not isinstance(mapping, dict) or key not in mapping:
        raise DataError(f"{where} lacks {key!r}")
    return mapping[key]
