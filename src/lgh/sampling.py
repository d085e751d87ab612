"""Seeded, portable sampling of group elements through the exponential map.

Samples are x = exp(A1) exp(A2) with each A a random real combination of the
basis vectors; two factors push the points past the image of a single
exponential chart.  The coefficient stream comes from SplitMix64, a named
64-bit generator with exactly reproducible output on every platform, so a
seed pins the coefficients everywhere, and the sample list bit for bit on
one numpy build and CPU dispatch path.

A sampler is built from a frame alone: the frame's matrices give the
generators, and its group's real structure in ``matrices.FAMILIES`` the
defining equations that each point's defect measures (:func:`group_defect`).
One path thus samples the compact groups on their bases and the non-compact
duals on their aligned frames.

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

A take makes a fixed number of numpy calls whatever its count, so a small
one, such as a resampling draw, costs little more than its points: each
matrix product is one multiply and one in-order ``add.reduce``
(:func:`_matmul`), the Pade polynomials are built two at a time, and the
constant matrices of each group's equations are built once and kept
(:func:`lgh.matrices.real_structure`).  A
large stack is multiplied in blocks of rows, which bounds the temporary.

A frame with no imaginary part (SO(n), and the aligned frames of SL(n,R)
and Sp(n,R)) is combined, exponentiated and multiplied in float64, and its
points are cast to complex once at the end.  They equal the complex
kernel's: a complex product whose factors have zero imaginary parts rounds
as the real product.  Only a squaring step can leave a -0.0 imaginary part
in the complex kernel where float64 gives +0.0, so the real parts are equal
bit for bit and the imaginary parts are zero on both.  No frame the suite
samples squares a matrix at a radius in (0, 1], but larger ones do: at
radius 1, SO(11) squares 7 of 600 generators and SO(12) 80 (seed 1).
Defects are checked on the
complex stack, as the equations are stated; there the reality residual
|conj(x) - x| of SO(n), SL(n,R) and Sp(n,R) is 2 |Im x|, exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ValidationError
from .matrices import GroupId, SignedBasis, compact_basis, real_structure

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
    """Largest |entry| of each matrix of an (S, n, n) stack: (S,)."""
    return np.maximum.reduce(np.abs(m), axis=(1, 2), initial=0.0)


def _worst(*defects: np.ndarray) -> np.ndarray:
    """Per-point maximum of several (S,) defect arrays."""
    return np.maximum.reduce(defects)


def _det_defect(xs: np.ndarray) -> np.ndarray:
    return np.abs(np.linalg.det(xs) - 1.0)


def group_defect(group: GroupId, xs: np.ndarray) -> np.ndarray:
    """Largest violation of the defining equations of ``group`` at each point
    of an (S, n, n) stack, those of its :func:`~lgh.matrices.real_structure`:
    the compact SO(n), U(n), SU(n) and Sp(n), and the aligned real forms of
    :mod:`lgh.duality`; ``GLC-split`` has none and is refused with
    :class:`ValidationError`.  Products by M and B move and negate entries
    (:class:`~lgh.matrices.SignedPermutation`); the one product of two
    points, x y^t or x y^*, is a BLAS product."""
    xs = np.asarray(xs)
    real = real_structure(group)
    m, b, xt = real.form, real.bilinear, xs.transpose(0, 2, 1)
    if real.kind == "conj":
        defects = [_maxabs_rows(m.conjugate(xs.conj()) - xs)]
    else:
        defects = [_maxabs_rows(m.right(xs) @ xt.conj() - m.matrix)]
    if b is not None:
        defects.append(_maxabs_rows(b.right(xs) @ xt - b.matrix))
    if real.det:
        defects.append(_det_defect(xs))
    return _worst(*defects)


# GroupSampler.take checks its points through this name, which perfbench
# times as the sampling defect layer
compact_defect = group_defect


# the bytes of products one _matmul call forms at once: a large stack is
# multiplied in blocks of rows of about this size, which bounds the temporary
# and keeps it in cache
_BLOCK_BYTES = 1 << 18


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b`` for stacks of small square matrices stored batch-last,
    (n, n, S): the sum over k of the elementwise products a[:, k] b[k],
    added in the order k = 0, 1, ..., into ``out`` if given.

    One multiply forms the products of a block of rows as a C-ordered
    (k, rows, j, S) array and one ``add.reduce`` sums out its first axis:
    two ufunc calls per block whatever n, and one block (at least one row)
    per ``_BLOCK_BYTES`` of products.  numpy reduces an axis that is not the
    innermost in index order: with ``initial=None`` it copies the first
    slice (the identity 0.0 would turn a -0.0 sum into +0.0) and adds the
    others one at a time, elementwise along the inner axes.  Each entry is
    thus ((p_0 + p_1) + p_2) + ..., the roundings of a loop over k, signs of
    zero included.  As k is the outermost axis of the products, and the
    j axis beside it has n > 1 entries whenever k does, numpy never runs
    its inner loop along k, where it would sum pairwise.  Every product
    entry is the same sequence of roundings whatever the stack around it,
    which a BLAS reduction does not promise."""
    (i, k), (j, pts) = a.shape[:2], b.shape[1:]
    if out is None:
        out = np.empty((i, j, pts), dtype=np.result_type(a, b))
    rows = max(1, _BLOCK_BYTES // (out.itemsize * k * j * max(pts, 1)))
    ak, bk = a.transpose(1, 0, 2)[:, :, None], b[:, None]
    for lo in range(0, i, rows):
        prods = np.multiply(ak[:, lo : lo + rows], bk, order="C")
        np.add.reduce(prods, axis=0, initial=None, out=out[lo : lo + rows])
        del prods  # before the next block's are formed
    return out


def _solve(aug: np.ndarray) -> np.ndarray:
    """X with ``m @ X = r`` for real or complex batch-last (n, n, S) stacks,
    from ``aug = [m | r]``, a C-ordered (n, 2n, S) array, which it
    overwrites: Gauss-Jordan elimination with the partial pivot of each point
    chosen by |Re| + |Im|, as LAPACK's ``izamax`` does (|x| on a real stack).
    A pivot row is divided by its pivot p as (row conj(p)) / |p|^2, the
    complex row's real and imaginary parts divided by the real |p|^2 in one
    call on its float64 view: numpy's complex division multiplies by a
    rounded 1 / p, so p / p need not be 1 there."""
    n, pts = aug.shape[0], np.arange(aug.shape[-1])
    # a complex stack as float64 (re, im) pairs along a last axis
    parts = aug.view(float).reshape(aug.shape + (2,)) if np.iscomplexobj(aug) else None
    for j in range(n):
        # the last column has one candidate row
        if j < n - 1:
            score = np.abs(aug[j:, j]) if parts is None else np.add.reduce(np.abs(parts[j:, j]), axis=-1)
            below = score.argmax(axis=0)
            if np.count_nonzero(below):
                p = j + below
                row = aug[p, :, pts]
                aug[p, :, pts] = aug[j].T.copy()
                aug[j] = row.T
        # no step reads a column left of the pivot again, so only those
        # from the pivot on are scaled, and only those right of it cleared;
        # numpy copies an input that overlaps the output before it writes
        row = aug[j, j:]
        if parts is None:
            np.multiply(row, row[0], out=row)
            np.divide(row, row[0], out=row)
        else:
            np.multiply(row, row[0].conj(), out=row)
            np.divide(parts[j, j:], parts[j, j, :, :1], out=parts[j, j:])
        f = aug[:, j, None].copy()
        f[j] = 0
        rest = aug[:, j + 1 :]
        np.subtract(rest, f * row[1:], out=rest)
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


@cache
def _pade13_tables(n: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """The constants :func:`_pade13` multiplies and adds, read-only and in
    its working dtype (a float64 table would be cast to complex in buffered
    chunks on every call): b_k, b_(k-2) and b_(k-4) for k = 13, 12, 7, 6,
    the coefficients of A^6, A^4 and A^2 in its four polynomials, as a
    (3, 4, 1, 1, 1) array; and b1 I and b0 I, the constant terms of U / A
    and V, as a (2, n, n, 1) array."""
    coef = np.array([[_PADE13[k - d] for k in (13, 12, 7, 6)] for d in (0, 2, 4)], dtype=dtype)
    eyes = np.multiply.outer(np.array(_PADE13[1::-1], dtype=dtype), np.eye(n))
    coef, eyes = coef[..., None, None, None], eyes[..., None]
    coef.setflags(write=False)
    eyes.setflags(write=False)
    return coef, eyes


def _pade13(x: np.ndarray) -> np.ndarray:
    """``[V - U | V + U]`` of r13 at a batch-last (n, n, S) stack, with
    U = A (A^6 (b13 A^6 + b11 A^4 + b9 A^2) + b7 A^6 + b5 A^4 + b3 A^2 + b1 I)
    and V = A^6 (b12 A^6 + b10 A^4 + b8 A^2) + b6 A^6 + b4 A^4 + b2 A^2 + b0 I.
    The four polynomials in A^6, A^4, A^2 are built two at a time, a term
    of both per call, with the result's buffer as scratch.  The products by
    A^6 are added into the last two polynomials (an addition rounds the same
    either way round), so at most nine stack-sized arrays are alive besides
    the input."""
    n, dtype = x.shape[0], x.dtype
    x2 = _matmul(x, x)
    x4 = _matmul(x2, x2)
    x6 = _matmul(x4, x2)
    coef, eyes = _pade13_tables(n, dtype)
    aug = np.empty((n, 2 * n) + x.shape[2:], dtype=dtype)
    scratch = aug.reshape((2,) + x.shape)
    polys = np.empty((4,) + x.shape, dtype=dtype)
    for pair in (slice(0, 2), slice(2, 4)):
        np.multiply(coef[0, pair], x6, out=polys[pair])
        np.multiply(coef[1, pair], x4, out=scratch)
        polys[pair] += scratch
        np.multiply(coef[2, pair], x2, out=scratch)
        polys[pair] += scratch
    del x2, x4
    _matmul(x6, polys[0], out=scratch[0])
    _matmul(x6, polys[1], out=scratch[1])
    uv = polys[2:]
    uv += scratch
    uv += eyes
    u = _matmul(x, uv[0], out=polys[0])
    np.subtract(uv[1], u, out=aug[:, :n])
    np.add(uv[1], u, out=aug[:, n:])
    return aug


def expm(a) -> np.ndarray:
    """The matrix exponential of each (n, n) matrix of an (..., n, n) stack,
    an array of the same shape: complex for a complex stack, else float64.

    Each matrix is scaled by its own 2**-s, s >= 0 the least integer with
    ||A / 2**s||_1 < theta_13, exponentiated by the Pade approximant and
    squared s times.  Every step is elementwise across the stack (the
    products by :func:`_matmul`, the Pade solve by :func:`_solve`, the
    column sums of the norm by one in-order reduce), so the exponential of
    a matrix does not depend on the other matrices of the stack, and no BLAS
    or LAPACK routine is called.  A call makes a fixed number of numpy calls
    (two per product, about ten per Gauss-Jordan column) whatever the stack
    size, up to the blocks of a large stack's products.  A complex product
    whose factors have zero imaginary parts rounds as the real product, so
    the float64 result equals the real part of the complex one bit for
    bit."""
    a = np.asarray(a)
    shape, n = a.shape, a.shape[-1]
    x = a.reshape(-1, n, n).transpose(1, 2, 0).astype(complex if np.iscomplexobj(a) else float, order="C")
    colsum = np.add.reduce(np.abs(x), axis=0, initial=None)
    _, s = np.frexp(np.maximum.reduce(colsum, axis=0, initial=0.0) / _THETA13)
    s = np.maximum(s, 0)
    x *= np.ldexp(1.0, -s)
    x = _solve(_pade13(x))
    for k in range(int(s.max(initial=0))):
        sel = s > k
        y = x[..., sel]
        x[..., sel] = _matmul(y, y)
    return x.transpose(2, 0, 1).copy().reshape(shape)


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
        real_structure(frame.group)  # refuses a group with no equations
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
        factors = expm(gens).transpose(1, 2, 3, 0)
        # defects are checked on the complex stack: @ and det in float64
        # would round differently and move them
        points = _matmul(factors[0], factors[1]).transpose(2, 0, 1).astype(complex, order="C")
        return SampleSet(points, compact_defect(frame.group, points))


def compact_sampler(group: GroupId, radius: float = 0.5, seed: int = 42) -> GroupSampler:
    return GroupSampler(compact_basis(group), radius, seed)


def sample_compact(group: GroupId, count: int, radius: float = 0.5, seed: int = 42) -> SampleSet:
    """Draw ``count`` seeded points of a compact group."""
    return compact_sampler(group, radius, seed).take(count)
