"""Seeded, portable sampling of group elements through the exponential map.

Samples are x = exp(A1) exp(A2) with each A a random real combination of the
basis vectors; two factors push the points past the image of a single
exponential chart.  The coefficient stream comes from SplitMix64, a named
64-bit generator with exactly reproducible output on every platform, so a
seed pins the sample list bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .errors import ValidationError
from .matrices import GroupId, symplectic_matrix

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64: state advances by the golden-ratio increment, output is
    the mixed state.  53-bit uniforms are exact dyadics, hence portable."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = self.next_u64() >> 11
        return lo + (hi - lo) * (u * 2.0**-53)

    def uniforms(self, count: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        return np.array([self.uniform(lo, hi) for _ in range(count)])

    def complex_uniform(self, r: float = 1.0) -> complex:
        """Re and Im independently uniform on [-r, r]."""
        return complex(self.uniform(-r, r), self.uniform(-r, r))

    def complex_disc(self) -> complex:
        """Uniform on the closed unit disc."""
        rad = math.sqrt(self.uniform())
        ang = self.uniform(0.0, 2.0 * math.pi)
        return complex(rad * math.cos(ang), rad * math.sin(ang))


@dataclass
class SampleSet:
    """Group points plus the recorded structural defect of each point."""

    label: str
    points: list = field(default_factory=list)
    defects: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @property
    def max_defect(self) -> float:
        return max(self.defects, default=0.0)

    def extend(self, other: "SampleSet"):
        self.points.extend(other.points)
        self.defects.extend(other.defects)


def _maxabs(m) -> float:
    return float(np.max(np.abs(m))) if np.asarray(m).size else 0.0


def compact_defect(group: GroupId, x: np.ndarray) -> float:
    """Largest violation of the defining equations of a compact group point."""
    n = x.shape[0]
    eye = np.eye(n)
    fam = group.family
    if fam == "SO":
        return max(_maxabs(x @ x.T - eye), _maxabs(x.imag), abs(np.linalg.det(x) - 1.0))
    if fam == "U":
        return _maxabs(x @ x.conj().T - eye)
    if fam == "SU":
        return max(_maxabs(x @ x.conj().T - eye), abs(np.linalg.det(x) - 1.0))
    if fam == "Sp":
        j = symplectic_matrix(group.n)
        return max(_maxabs(x @ x.conj().T - eye), _maxabs(x @ j @ x.T - j))
    raise ValidationError(f"no compact defect for family {fam!r}")


class GroupSampler:
    """Deterministic stream of group points drawn from one signed basis.

    Consecutive :meth:`take` calls continue the same SplitMix64 stream, so
    oversampling is reproducible: the k-th point of a run never depends on
    how the draws were batched.
    """

    def __init__(self, label: str, basis_matrices: np.ndarray, radius: float, seed: int, defect_fn=None):
        if radius < 0:
            raise ValidationError("radius must be nonnegative")
        self.label = label
        self._mats = np.asarray(basis_matrices, dtype=complex)
        self.radius = float(radius)
        self._rng = SplitMix64(seed)
        self._defect_fn = defect_fn

    def _one(self) -> np.ndarray:
        b = self._mats.shape[0]
        c1 = self._rng.uniforms(b, -self.radius, self.radius)
        c2 = self._rng.uniforms(b, -self.radius, self.radius)
        a1 = np.tensordot(c1, self._mats, axes=1)
        a2 = np.tensordot(c2, self._mats, axes=1)
        return expm(a1) @ expm(a2)

    def take(self, count: int) -> SampleSet:
        out = SampleSet(self.label)
        for _ in range(count):
            x = self._one()
            out.points.append(x)
            out.defects.append(self._defect_fn(x) if self._defect_fn else 0.0)
        return out


def compact_sampler(group: GroupId, radius: float = 0.5, seed: int = 42) -> GroupSampler:
    from .matrices import compact_basis  # local import keeps module load light

    basis = compact_basis(group)
    return GroupSampler(
        str(group),
        basis.matrices,
        radius,
        seed,
        defect_fn=lambda x: compact_defect(group, x),
    )


def sample_compact(group: GroupId, count: int, radius: float = 0.5, seed: int = 42) -> SampleSet:
    """Draw ``count`` seeded points of a compact group."""
    return compact_sampler(group, radius, seed).take(count)

