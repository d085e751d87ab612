"""JSON decoding of config entries: complex numbers as [re, im] pairs."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError


def pair_to_complex(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    raise ConfigError(f"expected [re, im] pair, got {v!r}")


def vector_from_json(rows) -> np.ndarray:
    return np.array([pair_to_complex(v) for v in rows], dtype=complex)
