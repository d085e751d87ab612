"""Expression trees over matrix-entry coordinates.

A node has one evaluation, the second-order jet along curves
(:meth:`Expr.eval_jet`).  The value at a point is the value part of the jet
there on an empty frame, so point values and the values of a batched
frame walk come from the same arithmetic.
"""

from __future__ import annotations

import numbers
from functools import cached_property

import numpy as np

from .errors import DomainError, ValidationError
from .jets import BasisCurves, Jet2, constant_jet, entry_jet
from .matrices import GroupId, SignedBasis


def _as_expr(obj) -> "Expr":
    if isinstance(obj, Expr):
        return obj
    if isinstance(obj, numbers.Number):
        return Const(obj)
    raise TypeError(f"cannot treat {obj!r} as an expression")


def _lowered(expo: tuple, a: int) -> tuple:
    return expo[:a] + (expo[a] - 1,) + expo[a + 1 :]


class Expr:
    """Base expression node."""

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

    def children(self) -> tuple:
        return ()

    def __add__(self, other):
        return Sum([self, _as_expr(other)])

    def __radd__(self, other):
        return Sum([_as_expr(other), self])

    def __mul__(self, other):
        return Product([self, _as_expr(other)])

    def __rmul__(self, other):
        return Product([_as_expr(other), self])

    def __sub__(self, other):
        return Sum([self, Product([Const(-1.0), _as_expr(other)])])

    def __pow__(self, k: int):
        return Power(self, k)

    def __truediv__(self, other):
        return Quotient(self, _as_expr(other))


class Const(Expr):
    def __init__(self, value):
        self.value = complex(value)

    def eval_jet(self, curve):
        return constant_jet(self.value)

    def __repr__(self):
        return f"Const({self.value})"


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
        a = self.matrix
        if curve.base.shape[-2:] != a.shape:
            raise ValidationError("dimension mismatch in LinearTrace")
        return Jet2(
            np.einsum("ij,...ij->...", a, curve.base),
            np.einsum("ij,...ij->...", a, curve.m1),
            np.einsum("ij,...ij->...", a, curve.m2),
        )

    def __repr__(self):
        return f"LinearTrace({self.matrix.shape[0]}x{self.matrix.shape[0]})"


class Sum(Expr):
    def __init__(self, terms):
        self.terms = [_as_expr(t) for t in terms]
        if not self.terms:
            raise ValidationError("empty sum")

    def eval_jet(self, curve):
        total = self.terms[0].eval_jet(curve)
        for t in self.terms[1:]:
            total = total + t.eval_jet(curve)
        return total

    def children(self):
        return tuple(self.terms)


class Product(Expr):
    def __init__(self, factors):
        self.factors = [_as_expr(f) for f in factors]
        if not self.factors:
            raise ValidationError("empty product")

    def eval_jet(self, curve):
        total = self.factors[0].eval_jet(curve)
        for f in self.factors[1:]:
            total = total * f.eval_jet(curve)
        return total

    def children(self):
        return tuple(self.factors)


class Power(Expr):
    def __init__(self, base, k: int):
        if not isinstance(k, int) or k < 1:
            raise ValidationError("power exponent must be an integer >= 1")
        self.base = _as_expr(base)
        self.k = k

    def eval_jet(self, curve):
        base = out = self.base.eval_jet(curve)
        for _ in range(self.k - 1):
            out = out * base
        return out

    def children(self):
        return (self.base,)


class Quotient(Expr):
    """num/den with the implicit domain predicate |den(x)| > floor."""

    def __init__(self, num, den, floor: float = 1e-3):
        self.num = _as_expr(num)
        self.den = _as_expr(den)
        self.floor = float(floor)

    def eval_jet(self, curve):
        jd = self.den.eval_jet(curve)
        if float(np.min(np.abs(np.asarray(jd.f0)))) <= self.floor:
            raise DomainError(
                "denominator below domain floor along curve",
                node=self,
                value=jd.f0,
            )
        return self.num.eval_jet(curve) / jd

    def children(self):
        return (self.num, self.den)


class HomPoly(Expr):
    """Homogeneous polynomial in a fixed argument list.

    ``coeffs`` maps exponent multi-indices (one entry per argument) to
    complex coefficients; every multi-index must have the same total degree.
    """

    def __init__(self, coeffs, args, degree: int | None = None):
        self.args = [_as_expr(a) for a in args]
        items = {}
        degrees = set()
        for expo, c in coeffs.items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != len(self.args):
                raise ValidationError(
                    f"exponent vector {expo} does not match {len(self.args)} arguments"
                )
            if any(e < 0 for e in expo):
                raise ValidationError(f"negative exponent in {expo}")
            items[expo] = complex(c)
            degrees.add(sum(expo))
        if not items:
            raise ValidationError("empty homogeneous polynomial")
        if len(degrees) != 1:
            raise ValidationError(f"mixed total degrees {sorted(degrees)} in homogeneous polynomial")
        self.degree = degrees.pop()
        if degree is not None and degree != self.degree:
            raise ValidationError(f"declared degree {degree} but terms have degree {self.degree}")
        if self.degree < 1:
            raise ValidationError("homogeneous polynomial needs degree >= 1")
        self.coeffs = items
        self._order = sorted(items)

    def _fold(self, values):
        total = None
        for expo in self._order:
            term = constant_jet(self.coeffs[expo])
            for v, e in zip(values, expo):
                for _ in range(e):
                    term = term * v
            total = term if total is None else total + term
        return total

    def eval_jet(self, curve):
        vals = [a.eval_jet(curve) for a in self.args]
        return self._fold(vals)

    def children(self):
        return tuple(self.args)

    @cached_property
    def _derivative_tables(self):
        """Exponent tables with coefficients of the polynomial, its gradient
        and its Hessian, each a sum of monomials in the arguments."""
        m = len(self.args)
        grad: dict = {}
        hess: dict = {}
        for expo in self._order:
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
        powers = np.empty((count, m, self.degree + 1), dtype=complex)
        powers[..., 0] = 1.0
        for k in range(1, self.degree + 1):
            powers[..., k] = powers[..., k - 1] * values
        index = np.arange(m)

        def monomials(expos):
            return powers[:, index, expos].prod(axis=-1)

        (e0, c0), (e1, c1), (e2, c2) = self._derivative_tables
        hess = np.einsum("sk,kab->sab", monomials(e2), c2)
        return monomials(e0) @ c0, monomials(e1) @ c1, hess


# ---------------------------------------------------------------------------
# block coordinates of the quaternionic embedding
# ---------------------------------------------------------------------------

def z_entry(i: int, j: int, n: int) -> Entry:
    """z_ij of a 2n x 2n quaternionic matrix [[z, w], [-conj w, conj z]]."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValidationError(f"block entry ({i},{j}) out of range for n={n}")
    return Entry(i, j)


def w_entry(i: int, j: int, n: int) -> Entry:
    """w_ij of a 2n x 2n quaternionic matrix: column offset by n."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValidationError(f"block entry ({i},{j}) out of range for n={n}")
    return Entry(i, n + j)


def scale_action_check(f: Expr, theta: float, x: np.ndarray) -> tuple[complex, complex]:
    """Evaluate f at x and at e^{i theta} x.

    Quotients of equal-degree homogeneous polynomials are invariant under
    this circle action; a bare degree-d homogeneous polynomial picks up the
    factor e^{i d theta} instead.
    """
    scaled = np.exp(1j * theta) * np.asarray(x, dtype=complex)
    return f.eval_point(np.asarray(x, dtype=complex)), f.eval_point(scaled)
