"""Deterministic seed derivation.

Every stage of the workflow draws randomness from a generator seeded through
`derive_seed`, so a single master seed reproduces an entire run bit for bit.
Derived seeds are stable across processes and platforms (SHA-256 of a
canonical text encoding, not Python's salted `hash`).
"""

from __future__ import annotations

import hashlib

import numpy as np


def _canon(part) -> str:
    if isinstance(part, bool):
        return f"b:{int(part)}"
    if isinstance(part, (int, np.integer)):
        return f"i:{int(part)}"
    if isinstance(part, (float, np.floating)):
        return f"f:{float(part)!r}"
    if isinstance(part, str):
        return f"s:{part}"
    raise TypeError(f"cannot derive a seed from {type(part).__name__}")


def derive_seed(*parts) -> int:
    """Mix ints, floats and strings into a stable non-negative 63-bit seed."""
    text = "/".join(_canon(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1
