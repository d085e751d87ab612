"""Seeded, portable sampling of group elements through the exponential map.

Samples are x = exp(A1) exp(A2) with each A a random real combination of the
basis vectors; two factors push the points past the image of a single
exponential chart.  The coefficient stream comes from SplitMix64, a named
64-bit generator with exactly reproducible output on every platform, so a
seed pins the coefficients everywhere, and the sample list bit for bit on
one numpy build and CPU dispatch path.

Points are drawn a batch at a time: :meth:`GroupSampler.take` draws the
coefficients of the whole batch as one block of the stream, combines them
with the basis by a fixed-order elementwise sum (no BLAS reduction), and
exponentiates the stacked generators in one ``expm`` call.  A point's bits
therefore do not depend on the batch size, and ``take(a)`` followed by
``take(b)`` gives the same points as ``take(a + b)``.  They do depend on the
BLAS build and the CPU dispatch path: ``expm`` and the product of the two
factors go through BLAS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import ValidationError
from .matrices import GroupId, symplectic_matrix

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    """SplitMix64: state advances by the golden-ratio increment, output is
    the mixed state.  53-bit uniforms are exact dyadics, hence portable."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = self.next_u64() >> 11
        return lo + (hi - lo) * (u * 2.0**-53)

    def uniforms(self, count: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """The next ``count`` uniforms as one array, bit for bit the values of
        ``count`` calls of :meth:`uniform`; the k-th state is s + k * golden
        in wrapping uint64 arithmetic."""
        steps = np.arange(1, count + 1, dtype=np.uint64)
        z = np.uint64(self._state) + steps * np.uint64(_GOLDEN)
        self._state = (self._state + count * _GOLDEN) & _MASK64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        u = (z ^ (z >> np.uint64(31))) >> np.uint64(11)
        return lo + (hi - lo) * (u * 2.0**-53)

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
    """Group points, an (S, n, n) stack, plus the structural defect (S,) of
    each point."""

    points: np.ndarray
    defects: np.ndarray

    def __len__(self) -> int:
        return self.points.shape[0]

    def __iter__(self):
        return iter(self.points)

    @property
    def max_defect(self) -> float:
        return float(np.max(self.defects, initial=0.0))

    def extend(self, other: "SampleSet"):
        self.points = np.concatenate([self.points, other.points])
        self.defects = np.concatenate([self.defects, other.defects])


def _maxabs(m) -> float:
    return float(np.max(np.abs(m))) if np.asarray(m).size else 0.0


def _maxabs_rows(m: np.ndarray) -> np.ndarray:
    """Largest |entry| of each point of a stack: (S, ...) -> (S,)."""
    return np.max(np.abs(m), axis=tuple(range(1, m.ndim)), initial=0.0)


def _worst(*defects: np.ndarray) -> np.ndarray:
    """Per-point maximum of several (S,) defect arrays."""
    return np.maximum.reduce(defects)


def _det_defect(xs: np.ndarray) -> np.ndarray:
    return np.abs(np.linalg.det(xs) - 1.0)


def compact_defect(group: GroupId, xs: np.ndarray) -> np.ndarray:
    """Largest violation of the defining equations of a compact group at
    each point of an (S, n, n) stack."""
    xs = np.asarray(xs)
    eye = np.eye(xs.shape[-1])
    xt = np.swapaxes(xs, -1, -2)
    fam = group.family
    if fam == "SO":
        return _worst(_maxabs_rows(xs @ xt - eye), _maxabs_rows(xs.imag), _det_defect(xs))
    unitary = _maxabs_rows(xs @ xt.conj() - eye)
    if fam == "U":
        return unitary
    if fam == "SU":
        return _worst(unitary, _det_defect(xs))
    if fam == "Sp":
        j = symplectic_matrix(group.n)
        return _worst(unitary, _maxabs_rows(xs @ j @ xt - j))
    raise ValidationError(f"no compact defect for family {fam!r}")


def _combine(coeffs: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """sum_j coeffs[..., j] * mats[j] for real arrays, added term by term in
    the order j = 0, 1, ...  Elementwise, so every output entry is the same
    sequence of roundings whatever the leading shape of ``coeffs``."""
    out = np.zeros(coeffs.shape[:-1] + mats.shape[1:])
    for j in range(mats.shape[0]):
        out += coeffs[..., j, None, None] * mats[j]
    return out


class GroupSampler:
    """Deterministic stream of group points drawn from one signed basis.

    Consecutive :meth:`take` calls continue the same SplitMix64 stream, so
    oversampling is reproducible: the k-th point of a run never depends on
    how the draws were batched.  ``defect_fn`` maps an (S, n, n) stack of
    points to their (S,) structural defects.
    """

    def __init__(self, basis_matrices: np.ndarray, radius: float, seed: int, defect_fn):
        if radius < 0:
            raise ValidationError("radius must be nonnegative")
        self._mats = np.asarray(basis_matrices, dtype=complex)
        self.radius = float(radius)
        self._rng = SplitMix64(seed)
        self._defect_fn = defect_fn

    def take(self, count: int) -> SampleSet:
        """The next ``count`` points; each uses 2b coefficients of the
        stream, those of exp(A1) first."""
        if count < 0:
            raise ValidationError("count must be nonnegative")
        b, n = self._mats.shape[0], self._mats.shape[-1]
        coeffs = self._rng.uniforms(2 * b * count, -self.radius, self.radius).reshape(count, 2, b)
        gens = np.empty((count, 2, n, n), dtype=complex)
        gens.real = _combine(coeffs, self._mats.real)
        gens.imag = _combine(coeffs, self._mats.imag)
        factors = expm(gens)
        points = factors[:, 0] @ factors[:, 1]
        return SampleSet(points, self._defect_fn(points))


def compact_sampler(group: GroupId, radius: float = 0.5, seed: int = 42) -> GroupSampler:
    from .matrices import compact_basis  # local import keeps module load light

    basis = compact_basis(group)
    return GroupSampler(basis.matrices, radius, seed, defect_fn=lambda xs: compact_defect(group, xs))


def sample_compact(group: GroupId, count: int, radius: float = 0.5, seed: int = 42) -> SampleSet:
    """Draw ``count`` seeded points of a compact group."""
    return compact_sampler(group, radius, seed).take(count)
