"""Family members and polynomials in them.

A member is linear in the matrix entries (:class:`Entry`,
:class:`LinearTrace`) and has one evaluation, the second-order jet along
curves (:meth:`Expr.eval_jet`).  The value at a point is the value part of
the jet there on an empty frame, so point values and the values of a
batched frame walk come from the same arithmetic.

A :class:`HomPoly` is a polynomial in a list of members.  It is never
walked as a jet: its value, gradient and Hessian in the members
(:meth:`HomPoly.derivatives`) give its tau and kappa from those of the
members by the chain rule (:func:`lgh.jets.compose`).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import ValidationError
from .jets import BasisCurves, Jet2, entry_jet
from .matrices import GroupId, SignedBasis


def _lowered(expo: tuple, a: int) -> tuple:
    return expo[:a] + (expo[a] - 1,) + expo[a + 1 :]


class Expr:
    """Base of the members walked as jets."""

    def eval_jet(self, curve) -> Jet2:
        raise NotImplementedError

    def eval_point(self, x: np.ndarray) -> complex:
        """The value at the point x: the jet's value part on an empty frame.

        x is walked as a one-sample stack, as :func:`frame_operators` walks
        its samples, so the two agree bit for bit (numpy rounds complex
        products of arrays and of scalars differently).
        """
        x = np.asarray(x, dtype=complex)
        if x.ndim != 2:
            raise ValidationError(f"eval_point takes one matrix, not shape {x.shape}")
        frame = SignedBasis(GroupId("GLC-split", x.shape[-1]))
        return complex(np.ravel(self.eval_jet(BasisCurves(x[None], frame)).f0)[0])


class Entry(Expr):
    """Matrix-entry coordinate x_ij, 1-based."""

    def __init__(self, i: int, j: int):
        if i < 1 or j < 1:
            raise ValidationError("entry indices are 1-based")
        self.i = int(i)
        self.j = int(j)

    def eval_jet(self, curve):
        return entry_jet(curve, self.i, self.j)

    def __repr__(self):
        return f"Entry({self.i},{self.j})"


class LinearTrace(Expr):
    """trace(A x^t) = sum_ij A_ij x_ij for a fixed coefficient matrix A."""

    def __init__(self, matrix: np.ndarray):
        a = np.array(matrix, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValidationError("LinearTrace needs a square coefficient matrix")
        a.setflags(write=False)
        self.matrix = a

    def eval_jet(self, curve):
        """f0 = A:x, f1_b = (A Z_b^t):x and f2_b = (A (Z_b^2)^t):x, as one
        contraction of the base stack with [A | A Z_b^t | A (Z_b^2)^t]."""
        a = self.matrix
        if curve.base.shape[-2:] != a.shape:
            raise ValidationError("dimension mismatch in LinearTrace")
        b = curve.zs.shape[0]
        frame = np.concatenate([curve.zs, curve.zs2]).transpose(0, 2, 1)
        coeffs = np.concatenate([a[None], a @ frame])
        # einsum, not BLAS: each row is reduced alone, at any stack size
        jet = np.einsum("rij,...ij->r...", coeffs, curve.base)
        return Jet2(jet[0], jet[1 : 1 + b], jet[1 + b :])

    def __repr__(self):
        return f"LinearTrace({self.matrix.shape[0]}x{self.matrix.shape[0]})"


class HomPoly:
    """Polynomial in a fixed argument list.

    ``coeffs`` maps exponent multi-indices (one entry per argument) to
    complex coefficients.  Terms may have any total degree, a constant
    included; ``degree`` is the highest, and ``homogeneous`` says whether
    every term has it.
    """

    def __init__(self, coeffs, args):
        self.args = list(args)
        items = {}
        for expo, c in coeffs.items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != len(self.args):
                raise ValidationError(
                    f"exponent vector {expo} does not match {len(self.args)} arguments"
                )
            if any(e < 0 for e in expo):
                raise ValidationError(f"negative exponent in {expo}")
            items[expo] = complex(c)
        if not items:
            raise ValidationError("empty polynomial")
        degrees = {sum(expo) for expo in items}
        self.degree = max(degrees)
        self.homogeneous = len(degrees) == 1
        self.coeffs = items

    @cached_property
    def _derivative_tables(self):
        """Exponent tables with coefficients of the polynomial, its gradient
        and its Hessian, each a sum of monomials in the arguments."""
        m = len(self.args)
        grad: dict = {}
        hess: dict = {}
        for expo in sorted(self.coeffs):
            c = self.coeffs[expo]
            for a in range(m):
                if not expo[a]:
                    continue
                da = _lowered(expo, a)
                grad.setdefault(da, np.zeros(m, dtype=complex))[a] += expo[a] * c
                for b in range(m):
                    if da[b]:
                        term = hess.setdefault(_lowered(da, b), np.zeros((m, m), dtype=complex))
                        term[a, b] += expo[a] * da[b] * c

        def table(entries, shape):
            keys = sorted(entries)
            expos = np.array(keys, dtype=np.intp).reshape(len(keys), m)
            coeffs = np.array([entries[k] for k in keys], dtype=complex).reshape((len(keys),) + shape)
            return expos, coeffs

        return table(self.coeffs, ()), table(grad, (m,)), table(hess, (m, m))

    def derivatives(self, values):
        """Value (S,), gradient (S, m) and Hessian (S, m, m) of the polynomial
        in its m arguments, at stacked argument values of shape (S, m)."""
        values = np.asarray(values, dtype=complex)
        count, m = values.shape
        powers = [np.ones_like(values)]
        for _ in range(self.degree):
            powers.append(powers[-1] * values)
        # column a * (degree + 1) + e holds value_a ** e
        table = np.stack(powers, axis=-1).reshape(count, -1)
        offsets = np.arange(m) * (self.degree + 1)

        def monomials(expos):
            # take() keeps the factors C-ordered, so prod() multiplies each
            # monomial's factors alone, the same way at any stack size
            return table.take(offsets + expos, axis=1).prod(axis=-1)

        # einsum, not matmul: BLAS takes another path for a single sample
        (e0, c0), (e1, c1), (e2, c2) = self._derivative_tables
        value = np.einsum("sk,k->s", monomials(e0), c0)
        grad = np.einsum("sk,ka->sa", monomials(e1), c1)
        return value, grad, np.einsum("sk,kab->sab", monomials(e2), c2)
