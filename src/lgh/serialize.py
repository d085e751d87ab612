"""JSON decoding of config entries: complex numbers as [re, im] pairs.

A value of the wrong JSON type is a :class:`ConfigError` naming its field,
never a ``TypeError`` from deeper in the program."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def pair_to_complex(v, field: str) -> complex:
    """A JSON number, or an [re, im] pair of numbers, as a complex."""
    if _is_number(v):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_number, v)):
        return complex(float(v[0]), float(v[1]))
    raise ConfigError(f"{field} must be a number or an [re, im] pair, got {v!r}", field=field)


def vector_from_json(rows, field: str) -> np.ndarray:
    """A nonempty JSON list of numbers or [re, im] pairs as a complex vector."""
    if not isinstance(rows, list) or not rows:
        raise ConfigError(f"{field} must be a nonempty list of numbers or [re, im] pairs, got {rows!r}", field=field)
    return np.array([pair_to_complex(v, field) for v in rows], dtype=complex)
