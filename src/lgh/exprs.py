"""Family members and polynomials in them.

A member is linear in the matrix entries (:class:`Entry`,
:class:`LinearTrace`) and has one evaluation, the second-order jet along
curves (:meth:`Expr.eval_jet`).  The value at a point is the value part of
the jet there on an empty frame, so point values and the values of a
batched frame walk come from the same arithmetic.

A :class:`HomPoly` is a polynomial in a list of members.  It is never
walked as a jet.  The values, gradients and Hessians of its monomials
(:func:`monomials`), contracted with its coefficient row (:func:`contract`),
give its value, gradient and Hessian in the members
(:meth:`HomPoly.derivatives`), and those give its tau and kappa from the
members' by the chain rule (:func:`lgh.jets.compose`).  The morphism
verifiers contract one monomial table with K coefficient rows at once; a
:class:`HomPoly` is the case K = 1.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .jets import BasisCurves, Jet2, entry_jet
from .matrices import GroupId, SignedBasis


@lru_cache(maxsize=256)
def _monomial_plan(exponents: tuple):
    """The gather plan of :func:`monomials` for the monomials x^e, e in
    ``exponents`` (a tuple of M exponent tuples).

    It holds every exponent vector the monomials and their derivatives
    read, (N, m) with the M monomials first.  For the gradient
    e_a x^(e - e_a) and the Hessian e_a (e_b - delta_ab) x^(e - e_a - e_b) it
    holds the row each entry reads and the integer factor.  Where an
    exponent would be negative the factor is 0 and the entry reads row 0.
    The arrays are shared by every caller, so they are read-only.
    """
    m = len(exponents[0])
    expos = np.array(exponents, dtype=np.intp).reshape(len(exponents), m)
    eye = np.eye(m, dtype=np.intp)
    lowered = expos[:, None, :] - eye  # e - e_a at [j, a]
    lowered2 = lowered[:, :, None, :] - eye  # e - e_a - e_b at [j, a, b]
    rows = {e: j for j, e in enumerate(exponents)}

    def index(vectors):
        flat = [tuple(v) if min(v) >= 0 else exponents[0] for v in vectors.reshape(-1, m).tolist()]
        return np.array([rows.setdefault(v, len(rows)) for v in flat], dtype=np.intp).reshape(vectors.shape[:-1])

    grad_rows, hess_rows = index(lowered), index(lowered2)
    factor = expos.astype(float)
    needed = np.array(list(rows), dtype=np.intp).reshape(len(rows), m)
    plan = (needed, grad_rows, factor, hess_rows, factor[:, :, None] * lowered)
    for array in plan:
        array.setflags(write=False)
    return plan


def monomials(values, exponents: tuple, order: int = 2) -> tuple:
    """Values (S, M), gradients (S, M, m) and Hessians (S, M, m, m) of the
    monomials x^e, one per exponent tuple e of ``exponents`` (M of them), at
    stacked argument values x of shape (S, m); the first ``order + 1`` of
    the three.

    Each monomial and each of its derivatives is one product of powers of
    the arguments, taken once per exponent vector, times the integer that
    differentiation brings down, so a row's bits depend only on that row,
    whatever the order.
    """
    values = np.asarray(values, dtype=complex)
    count, m = values.shape
    needed, grad_rows, factor, hess_rows, factor2 = _monomial_plan(tuple(exponents))
    if order == 0:
        needed = needed[: len(exponents)]
    top = int(needed.max(initial=0))
    powers = [np.ones_like(values)]
    for _ in range(top):
        powers.append(powers[-1] * values)
    # column a * (top + 1) + e holds value_a ** e
    table = np.stack(powers, axis=-1).reshape(count, m * (top + 1))
    # take() keeps the factors C-ordered, so prod() multiplies each
    # monomial's factors alone, the same way at any stack size
    products = table.take(np.arange(m) * (top + 1) + needed, axis=1).prod(axis=-1)
    out = [products[:, : len(exponents)]]
    if order >= 1:
        out.append(products.take(grad_rows, axis=1) * factor)
    if order >= 2:
        out.append(products.take(hess_rows, axis=1) * factor2)
    return tuple(out)


def contract(table, coeffs):
    """K polynomials from a monomial table (S, M, ...) and their coefficient
    rows (K, M): (S, K, ...).

    einsum, not matmul: each entry sums its monomials alone and in order,
    so its bits depend neither on K nor on the stack size (BLAS would take
    other paths for other shapes).
    """
    return np.einsum("sj...,kj->sk...", table, coeffs)


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

    def derivatives(self, values):
        """Value (S,), gradient (S, m) and Hessian (S, m, m) of the polynomial
        in its m arguments, at stacked argument values of shape (S, m): its
        monomial tables contracted with its one coefficient row."""
        keys = tuple(sorted(self.coeffs))
        row = np.array([[self.coeffs[k] for k in keys]], dtype=complex)
        return tuple(contract(t, row)[:, 0] for t in monomials(values, keys))
