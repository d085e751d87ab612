"""Family members and polynomials in them.

A member is linear in the matrix entries, trace(A x^t) = sum_ij A_ij x_ij
(:class:`Entry`, with A = E_ij, and :class:`LinearTrace`), and gives its
coefficient matrix A (:meth:`Expr.coefficients`).  A frame table stacks
the matrices of all its members and walks them as one
:class:`LinearTrace` (:meth:`LinearTrace.eval_jet`), so a value, at one
point or at many, is always read from a frame table.

A :class:`HomPoly` is a polynomial in a list of members, never walked as
a jet.  The one chain rule, tau(F(phi)) = sum_a F_a tau(phi_a) + sum_ab
F_ab kappa(phi_a, phi_b) and kappa(F, G) = sum_ab F_a G_b kappa(phi_a,
phi_b), lives here.  A :class:`MonomialTable` applies it once to every
monomial of some total degrees over a frame table of members, and K
polynomials are then K coefficient rows over it (:func:`contract`).
:func:`compose` gives the frame table of polynomial members this way, and
the morphism verifiers their numerators and denominators.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .jets import BasisCurves, FrameOperators, Jet2


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


def monomials(values, exponents: tuple) -> tuple:
    """Values (S, M), gradients (S, M, m) and Hessians (S, M, m, m) of the
    monomials x^e, one per exponent tuple e of ``exponents`` (M of them), at
    stacked argument values x of shape (S, m).

    Each monomial and each of its derivatives is one product of powers of
    the arguments, taken once per exponent vector, times the integer that
    differentiation brings down, so a row's bits depend only on that row.
    """
    values = np.asarray(values, dtype=complex)
    count, m = values.shape
    needed, grad_rows, factor, hess_rows, factor2 = _monomial_plan(tuple(exponents))
    top = int(needed.max(initial=0))
    powers = [np.ones_like(values)]
    for _ in range(top):
        powers.append(powers[-1] * values)
    # column a * (top + 1) + e holds value_a ** e
    table = np.stack(powers, axis=-1).reshape(count, m * (top + 1))
    # take() keeps the factors C-ordered, so prod() multiplies each
    # monomial's factors alone, the same way at any stack size
    products = table.take(np.arange(m) * (top + 1) + needed, axis=1).prod(axis=-1)
    return (
        products[:, : len(exponents)],
        products.take(grad_rows, axis=1) * factor,
        products.take(hess_rows, axis=1) * factor2,
    )


def contract(table, coeffs):
    """K polynomials from a monomial table (S, M, ...) and their coefficient
    rows (K, M): (S, K, ...).

    einsum, not matmul: each entry sums its monomials alone and in order,
    so its bits depend neither on K nor on the stack size (BLAS would take
    other paths for other shapes).
    """
    return np.einsum("sj...,kj->sk...", table, coeffs)


class Expr:
    """Base of the linear members trace(A x^t) = sum_ij A_ij x_ij, each
    given by its coefficient matrix A."""

    def coefficients(self, n: int) -> np.ndarray:
        """A for matrices of size n."""
        raise NotImplementedError


class Entry(Expr):
    """Matrix-entry coordinate x_ij, 1-based: A = E_ij."""

    def __init__(self, i: int, j: int):
        if i < 1 or j < 1:
            raise ValidationError("entry indices are 1-based")
        self.i = int(i)
        self.j = int(j)

    def coefficients(self, n):
        if self.i > n or self.j > n:
            raise ValidationError(f"entry ({self.i},{self.j}) out of range for dimension {n}")
        a = np.zeros((n, n), dtype=complex)
        a[self.i - 1, self.j - 1] = 1.0
        return a

    def __repr__(self):
        return f"Entry({self.i},{self.j})"


class LinearTrace(Expr):
    """trace(A x^t) = sum_ij A_ij x_ij for a fixed coefficient matrix A, or
    for each matrix of a stack A (m, n, n) at once."""

    def __init__(self, matrix: np.ndarray):
        a = np.array(matrix, dtype=complex)
        if a.ndim not in (2, 3) or a.shape[-2] != a.shape[-1]:
            raise ValidationError("LinearTrace needs a square coefficient matrix or a stack of them")
        a.setflags(write=False)
        self.matrix = a

    def coefficients(self, n):
        if self.matrix.shape != (n, n):
            raise ValidationError(f"LinearTrace of shape {self.matrix.shape} is not a member for dimension {n}")
        return self.matrix

    def eval_jet(self, curves: BasisCurves) -> Jet2:
        """f0 = A:x, f1_b = (A Z_b^t):x and f2_b = (A (Z_b^2)^t):x at every
        sample, with shapes (S, ...), (S, ..., B) and (S, ..., B) for A of
        shape (..., n, n): one contraction of the base stack with
        [A | A Z_b^t | A (Z_b^2)^t]."""
        a = self.matrix[..., None, :, :]
        b = curves.zs.shape[0]
        frame = np.concatenate([curves.zs, curves.zs2]).transpose(0, 2, 1)
        coeffs = np.concatenate([a, a @ frame], axis=-3)
        # einsum, not BLAS: each entry is reduced alone, at any stack size
        jet = np.einsum("...rij,sij->s...r", coeffs, curves.base)
        return Jet2(*(np.ascontiguousarray(jet[..., k]) for k in (0, slice(1, 1 + b), slice(1 + b, None))))

    def __repr__(self):
        return f"LinearTrace({self.matrix.shape[-1]}x{self.matrix.shape[-1]})"


class HomPoly:
    """Polynomial in a fixed, nonempty argument list.

    ``coeffs`` maps exponent multi-indices (one entry per argument) to
    complex coefficients.  Terms may have any total degree, a constant
    included; ``degree`` is the highest, ``term_degrees`` lists every
    degree a term has, and ``homogeneous`` says whether every term has
    ``degree``.  A homogeneous polynomial can also be built from its
    coefficient row over the monomials of its degree (:meth:`from_row`);
    it then holds that row and builds ``coeffs`` only when first read.
    """

    def __init__(self, coeffs, args):
        self.args = list(args)
        if not self.args:
            raise ValidationError("a polynomial needs at least one argument")
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
        self.term_degrees = tuple(sorted({sum(expo) for expo in items}))
        self.degree = self.term_degrees[-1]
        self.homogeneous = len(self.term_degrees) == 1
        self._coeffs, self._row = items, None

    @classmethod
    def from_row(cls, row: np.ndarray, args, degree: int) -> "HomPoly":
        """The homogeneous polynomial of ``degree`` whose coefficients are
        ``row`` (M,), one per monomial of ``_layout(len(args), (degree,))``
        in its order, every one a term (zeros included, as a dict
        :class:`HomPoly` keeps them).  The exponents are the layout's own,
        so nothing is validated; ``row`` is held as it is, not copied."""
        poly = cls.__new__(cls)
        poly.args = list(args)
        poly.term_degrees, poly.degree, poly.homogeneous = (degree,), degree, True
        poly._coeffs, poly._row = None, row
        return poly

    @property
    def coeffs(self) -> dict:
        if self._coeffs is None:
            self._coeffs = dict(zip(_layout(len(self.args), (self.degree,))[0], self._row.tolist()))
        return self._coeffs


# ---------------------------------------------------------------------------
# the chain rule: monomial tables over a frame table of members
# ---------------------------------------------------------------------------

# the most bytes of monomial Hessians, (M, m, m) complex128, that a layout
# may need a sample; every suite and benchmark layout needs at most 5 KB
HESSIAN_BUDGET = 1 << 16


@lru_cache(maxsize=None)
def _layout(m: int, degrees: tuple):
    """The monomials of the given total degrees in m arguments: their
    exponent tuples and the row of each in that list.  A layout over
    ``HESSIAN_BUDGET`` is refused, counted before it is enumerated."""
    count = sum(math.comb(m + d - 1, d) for d in degrees) if m else 0
    if 16 * count * m * m > HESSIAN_BUDGET:
        raise ValidationError(f"{count} monomials of degrees {list(degrees)} in {m} members need "
                              f"{16 * count * m * m} bytes of Hessians a sample, over {HESSIAN_BUDGET}")
    expos = tuple(
        tuple(combo.count(i) for i in range(m))
        for d in degrees
        for combo in itertools.combinations_with_replacement(range(m), d)
    )
    return expos, {e: j for j, e in enumerate(expos)}


def _term_degrees(*polys) -> tuple:
    return tuple(sorted({d for poly in polys for d in poly.term_degrees}))


def _coefficients(polys, degrees: tuple) -> np.ndarray:
    """The coefficient rows (K, M) of K polynomials over the monomials of
    ``degrees``; a polynomial built from its row over them gives that row."""
    _, row = _layout(len(polys[0].args), degrees)
    coeffs = np.zeros((len(polys), len(row)), dtype=complex)
    for k, poly in enumerate(polys):
        if poly._row is not None and poly.term_degrees == degrees:
            coeffs[k] = poly._row
            continue
        for expo, c in poly.coeffs.items():
            coeffs[k, row[expo]] = c
    return coeffs


def chain_tau(grad, hess, tau_vals, kappa_vals):
    """tau(F(phi)) = sum_a F_a tau(phi_a) + sum_ab F_ab kappa(phi_a, phi_b) at
    each sample, for a gradient (S, ..., m) and Hessian (S, ..., m, m) of one
    or more functions F of the arguments phi, whose tau (S, m) and kappa
    Gram (S, m, m) are given.

    The operands must be C-ordered: einsum's summation order follows the
    strides, so each row is then reduced alone and in one order.
    """
    return np.einsum("s...a,sa->s...", grad, tau_vals) + np.einsum("s...ab,sab->s...", hess, kappa_vals)


@dataclass
class MonomialTable:
    """Every monomial of some total degrees in the members of a frame table:
    values and tau (S, M) and gradients in the members (S, M, m), beside the
    members' kappa Gram (S, m, m).

    K polynomials in the members are K coefficient rows over the monomials,
    so :meth:`polynomials` gives all of them by one contraction per table.
    """

    values: np.ndarray
    tau: np.ndarray
    grads: np.ndarray
    kappa: np.ndarray

    @classmethod
    def over(cls, table: FrameOperators, degrees: tuple) -> "MonomialTable":
        """The table of the monomials of ``degrees`` over a member frame
        table."""
        expos, _ = _layout(len(table.members), degrees)
        values, grads, hess = monomials(table.values, expos)
        return cls(values, chain_tau(grads, hess, table.tau, table.kappa), grads, table.kappa)

    def polynomials(self, coeffs):
        """Values (S, K), tau (S, K) and member gradients (S, K, m) of the K
        polynomials with coefficient rows ``coeffs`` (K, M)."""
        return contract(self.values, coeffs), contract(self.tau, coeffs), contract(self.grads, coeffs)


def compose(members, table: FrameOperators) -> FrameOperators:
    """The frame table of ``members``, each one of the table's members or a
    polynomial in some of them: each is a coefficient row over the
    monomials of the table's members (a member its monomial of degree 1),
    and kappa(F, G) = sum_ab F_a kappa(phi_a, phi_b) G_b."""
    members = tuple(members)
    if not members:
        return FrameOperators((), table.basis, table.values[:, :0], table.tau[:, :0], table.kappa[:, :0, :0])
    position = {id(g): a for a, g in enumerate(table.members)}
    polys = []
    for f in members:
        poly = f if isinstance(f, HomPoly) else HomPoly({(1,): 1.0}, [f])
        if any(id(g) not in position for g in poly.args):
            raise ValidationError("a member is neither in the frame table nor a polynomial in its members")
        coeffs = {}
        for expo, c in poly.coeffs.items():
            moved = [0] * len(position)
            for g, e in zip(poly.args, expo):
                moved[position[id(g)]] += e
            key = tuple(moved)
            coeffs[key] = coeffs[key] + c if key in coeffs else c
        polys.append(HomPoly(coeffs, table.members))
    degrees = _term_degrees(*polys)
    values, tau, grads = MonomialTable.over(table, degrees).polynomials(_coefficients(polys, degrees))
    # one three-operand sum, samples outermost, so each row is reduced alone
    gram = np.einsum("sal,slk,sck->sac", grads, table.kappa, grads)
    return FrameOperators(members, table.basis, values, tau, gram)
