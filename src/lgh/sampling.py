"""Seeded, portable sampling of group elements through the exponential map.

Samples are x = exp(A1) exp(A2) with each A a random real combination of the
basis vectors; two factors push the points past the image of a single
exponential chart.  The coefficient stream comes from SplitMix64, a named
64-bit generator with exactly reproducible output on every platform, so a
seed pins the coefficients everywhere, and the sample list bit for bit on
one numpy build and CPU dispatch path.

A sampler is built from a frame alone: the frame's matrices give the
generators, and its group the defining equations that each point's defect
measures (:func:`group_defect`).  One path thus samples the compact groups
on their bases and the non-compact duals on their aligned frames.

Points are drawn a batch at a time: :meth:`GroupSampler.take` draws the
coefficients of the whole batch as one block of the stream, combines them
with the basis, exponentiates the stacked generators in one :func:`expm`
call and multiplies the two factors with an elementwise product.  The
combination gathers only the frame's nonzero terms: each generator entry is
the sum of only its nonzero products c_b (Z_b)_ij, added in ascending b.
A skipped term is c 0 = +-0, and adding +-0 leaves a sum unchanged (+0 + -0
is +0), so the entries are those of the dense sum over all b in that order,
signs of zero included.  No BLAS or LAPACK call touches a sample, and every
step acts on each point alone, so a point's bits do not depend on the batch
size, and ``take(a)`` followed by ``take(b)`` gives the same points as
``take(a + b)``.  What is left of the platform is numpy's complex multiply,
whose SIMD loops (with FMA) round differently from its scalar ones.

A frame with no imaginary part (SO(n), and the aligned frames of SL(n,R)
and Sp(n,R)) is combined, exponentiated and multiplied in float64, and its
points are cast to complex once at the end.  They equal the complex
kernel's bit for bit: a complex product whose factors have zero imaginary
parts rounds as the real product, and at every radius a config allows no
such matrix is squared (a squaring can leave a -0.0 imaginary part in the
complex kernel, where float64 gives +0.0).  Defects are still checked on
the complex stack, whose ``@`` and ``det`` round as before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .matrices import FAMILIES, GroupId, SignedBasis, compact_basis, signature_matrix, symplectic_matrix

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# SplitMix64's constants as uint64 scalars, built once: uniforms() is
# often called for a few values, where building them costs as much as the
# arithmetic
_GOLDEN_U64, _MIX1_U64, _MIX2_U64 = np.uint64(_GOLDEN), np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_SHIFTS_U64 = tuple(np.uint64(k) for k in (30, 27, 31, 11))


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

    def u64s(self, count: int) -> np.ndarray:
        """The next ``count`` outputs as one uint64 array, bit for bit the
        values of ``count`` calls of :meth:`next_u64`; the k-th state is
        s + k * golden in wrapping uint64 arithmetic."""
        s30, s27, s31, _ = _SHIFTS_U64
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= _GOLDEN_U64
        z += np.uint64(self._state)
        self._state = (self._state + count * _GOLDEN) & _MASK64
        z ^= z >> s30
        z *= _MIX1_U64
        z ^= z >> s27
        z *= _MIX2_U64
        z ^= z >> s31
        return z

    def skip(self, count: int):
        """Move the stream on by ``count`` outputs, or back when ``count`` is
        negative."""
        self._state = (self._state + count * _GOLDEN) & _MASK64

    @staticmethod
    def unit(raw: np.ndarray) -> np.ndarray:
        """The 53-bit uniforms on [0, 1) that :meth:`uniform` makes of the
        raw outputs ``raw``, which are shifted in place to make them."""
        raw >>= _SHIFTS_U64[3]
        return raw * 2.0**-53

    def uniforms(self, count: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """The next ``count`` uniforms as one array, bit for bit the values of
        ``count`` calls of :meth:`uniform`."""
        return lo + (hi - lo) * self.unit(self.u64s(count))

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


def group_defect(group: GroupId, xs: np.ndarray) -> np.ndarray:
    """Largest violation of the defining equations of ``group`` at each point
    of an (S, n, n) stack.  The groups are the compact SO(n), U(n), SU(n)
    and Sp(n), and the aligned real forms of :mod:`lgh.duality`, each inside
    the complex matrices of its compact partner; ``GLC-split`` has no
    equations and is refused with :class:`ValidationError`."""
    xs = np.asarray(xs)
    n = xs.shape[-1]
    eye = np.eye(n)
    xt = np.swapaxes(xs, -1, -2)
    fam = group.family
    if fam in ("Sp", "SUstar", "SpR", "SOstar", "Sppq"):
        j = symplectic_matrix(n // 2)
    if fam == "SO":
        return _worst(_maxabs_rows(xs @ xt - eye), _maxabs_rows(xs.imag), _det_defect(xs))
    if fam in ("U", "SU", "Sp"):
        unitary = _maxabs_rows(xs @ xt.conj() - eye)
        if fam == "U":
            return unitary
        if fam == "SU":
            return _worst(unitary, _det_defect(xs))
        return _worst(unitary, _maxabs_rows(xs @ j @ xt - j))
    if fam == "SLR":
        return _worst(_maxabs_rows(xs.imag), _det_defect(xs))
    if fam == "SUstar":
        return _worst(_maxabs_rows(j @ xs.conj() @ (-j) - xs), _det_defect(xs))
    if fam == "SpR":
        return _worst(_maxabs_rows(xs.imag), _maxabs_rows(xs @ j @ xt - j))
    if fam == "SOstar":
        return _worst(_maxabs_rows(xs @ xt - eye), _maxabs_rows(xs @ j @ xt.conj() - j))
    if fam == "SOpq":
        return _worst(_maxabs_rows(xs @ xt - eye), _det_defect(xs))
    if fam == "SUpq":
        ipq = signature_matrix(group.p, group.q)
        return _worst(_maxabs_rows(xs @ ipq @ xt.conj() - ipq), _det_defect(xs))
    if fam == "Sppq":
        k = np.kron(np.eye(2), signature_matrix(group.p, group.q))
        return _worst(_maxabs_rows(xs @ j @ xt - j), _maxabs_rows(xs @ k @ xt.conj() - k))
    raise ValidationError(f"{group} has no defining equations to sample against")


# GroupSampler.take checks its points through this name, which perfbench
# times as the sampling defect layer
compact_defect = group_defect


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for stacks of small matrices stored batch-last, (n, n, ...):
    the sum over k of the elementwise products a[:, k] b[k], added in the
    order k = 0, 1, ...  Every product entry is the same sequence of roundings
    whatever the stack around it, which a BLAS reduction does not promise,
    and each ufunc call runs along the whole stack."""
    out = a[:, 0, None] * b[0]
    term = np.empty_like(out)
    for k in range(1, a.shape[1]):
        np.multiply(a[:, k, None], b[k], out=term)
        out += term
    return out


def _solve(aug: np.ndarray) -> np.ndarray:
    """X with ``m @ X = r`` for real or complex batch-last (n, n, S) stacks,
    from ``aug = [m | r]`` of shape (n, 2n, S), which it overwrites:
    Gauss-Jordan elimination with the partial pivot of each point chosen by
    |Re| + |Im|, as LAPACK's ``izamax`` does.  A pivot row is divided by its
    pivot p as (row conj(p)) / |p|^2, in real arithmetic for a complex stack:
    numpy's complex division multiplies by a rounded 1 / p, so p / p need not
    be 1 there."""
    n, pts = aug.shape[0], np.arange(aug.shape[-1])
    for j in range(n):
        col = aug[j:, j]
        below = np.argmax(np.abs(col.real) + np.abs(col.imag), axis=0)
        if np.count_nonzero(below):
            p = j + below
            row = aug[p, :, pts]
            aug[p, :, pts] = aug[j].T.copy()
            aug[j] = row.T
        aug[j] *= aug[j, j].conj()
        den = aug[j, j].real.copy()
        if np.iscomplexobj(aug):
            aug[j].real /= den
            aug[j].imag /= den
        else:
            aug[j] /= den
        f = aug[:, j, None].copy()
        f[j] = 0
        aug[:, j:] -= f * aug[j, j:]
    return aug[:, n:]


# Scaling and squaring with the [13/13] Pade approximant r13 = (V - U)^-1 (V + U):
# N. J. Higham, "The scaling and squaring method for the matrix exponential
# revisited", SIMAX 26(4), 2005, Table 2.3 and eq. (2.3).  r13 meets exp to
# double precision on ||A||_1 <= theta_13.
_THETA13 = 5.371920351148152
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)


def _pade13(x: np.ndarray) -> np.ndarray:
    """``[V - U | V + U]`` of r13 at a batch-last (n, n, S) stack, with
    U = A (A^6 (b13 A^6 + b11 A^4 + b9 A^2) + b7 A^6 + b5 A^4 + b3 A^2 + b1 I)
    and V = A^6 (b12 A^6 + b10 A^4 + b8 A^2) + b6 A^6 + b4 A^4 + b2 A^2 + b0 I."""
    b, n = _PADE13, x.shape[0]
    x2 = _matmul(x, x)
    x4 = _matmul(x2, x2)
    x6 = _matmul(x4, x2)

    def poly(k):  # b_k A^6 + b_(k-2) A^4 + b_(k-4) A^2
        out = b[k] * x6
        out += b[k - 2] * x4
        out += b[k - 4] * x2
        return out

    eye = np.eye(n)[:, :, None]
    u = _matmul(x6, poly(13))
    u += poly(7)
    u += b[1] * eye
    u = _matmul(x, u)
    v = _matmul(x6, poly(12))
    v += poly(6)
    v += b[0] * eye
    aug = np.empty((n, 2 * n) + x.shape[2:], dtype=x.dtype)
    np.subtract(v, u, out=aug[:, :n])
    np.add(v, u, out=aug[:, n:])
    return aug


def expm(a) -> np.ndarray:
    """The matrix exponential of each (n, n) matrix of an (..., n, n) stack,
    an array of the same shape: complex for a complex stack, else float64.

    Each matrix is scaled by its own 2**-s, s >= 0 the least integer with
    ||A / 2**s||_1 < theta_13, exponentiated by the Pade approximant and
    squared s times.  Every step is elementwise across the stack (the
    products by :func:`_matmul`, the Pade solve by :func:`_solve`), so the
    exponential of a matrix does not depend on the other matrices of the
    stack, and no BLAS or LAPACK routine is called.  A complex product whose
    factors have zero imaginary parts rounds as the real product, so the
    float64 result equals the real part of the complex one bit for bit."""
    a = np.asarray(a)
    shape, n = a.shape, a.shape[-1]
    x = np.moveaxis(a.reshape(-1, n, n), 0, -1).astype(complex if np.iscomplexobj(a) else float, order="C")
    mag = np.abs(x)
    colsum = mag[0].copy()
    for i in range(1, n):
        colsum += mag[i]
    _, s = np.frexp(np.max(colsum, axis=0, initial=0.0) / _THETA13)
    s = np.maximum(s, 0)
    x *= np.ldexp(1.0, -s)
    x = _solve(_pade13(x))
    for k in range(int(s.max(initial=0))):
        sel = s > k
        y = x[..., sel]
        x[..., sel] = _matmul(y, y)
    return np.ascontiguousarray(np.moveaxis(x, -1, 0)).reshape(shape)


class GroupSampler:
    """Deterministic stream of points of ``frame.group`` drawn from the frame,
    each with its defect in the group's equations (:func:`group_defect`); a
    group with no equations is refused before the stream is read.

    Consecutive :meth:`take` calls continue the same SplitMix64 stream, so
    oversampling is reproducible: the k-th point of a run never depends on
    how the draws were batched.  The generators are gathered from the
    frame's :attr:`~lgh.matrices.SignedBasis.gather_plan`, which the frame
    builds once for all its samplers.
    """

    def __init__(self, frame: SignedBasis, radius: float, seed: int):
        if radius < 0:
            raise ValidationError("radius must be nonnegative")
        # group_defect holds the equations of every group with a compact partner
        if FAMILIES[frame.group.family].partner is None:
            raise ValidationError(f"{frame.group} has no defining equations to sample against")
        self.frame = frame
        self.radius = float(radius)
        self._rng = SplitMix64(seed)

    def take(self, count: int) -> SampleSet:
        """The next ``count`` points; each uses 2b coefficients of the
        stream, those of exp(A1) first."""
        if count < 0:
            raise ValidationError("count must be nonnegative")
        frame = self.frame
        b, n = frame.matrices.shape[:2]
        coeffs = self._rng.uniforms(2 * b * count, -self.radius, self.radius).reshape(count, 2, b)
        # an exactly real frame (SO(n), the aligned SL(n,R) and Sp(n,R)) is
        # exponentiated in float64; its points are those of the complex kernel
        flat = np.zeros((count, 2, n * n if frame.real else 2 * n * n))
        for pos, js, vals in frame.gather_plan:
            flat[..., pos] += coeffs[..., js] * vals
        gens = (flat if frame.real else flat.view(complex)).reshape(count, 2, n, n)
        factors = np.moveaxis(expm(gens), (0, 1), (-1, 0))
        # defects are checked on the complex stack: @ and det in float64
        # would round differently and move them
        points = np.moveaxis(_matmul(*factors), -1, 0).astype(complex, order="C")
        return SampleSet(points, compact_defect(frame.group, points))


def compact_sampler(group: GroupId, radius: float = 0.5, seed: int = 42) -> GroupSampler:
    return GroupSampler(compact_basis(group), radius, seed)


def sample_compact(group: GroupId, count: int, radius: float = 0.5, seed: int = 42) -> SampleSet:
    """Draw ``count`` seeded points of a compact group."""
    return compact_sampler(group, radius, seed).take(count)
