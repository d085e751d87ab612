"""Second-order jets along one-parameter subgroup curves, and the frame
table kernel.

A jet (f0, f1, f2) holds the value and the first two derivatives of
s -> f(x exp(sZ)) at s = 0.  :class:`BasisCurves` holds a stack of base
points and the constants Z_b and Z_b^2 of a signed frame.  A linear member
trace(A x^t) has f1_b = (A Z_b^t):x and f2_b = (A (Z_b^2)^t):x, linear in
x with those constants as coefficients, so the jets of every member along
every frame vector at every sample are one contraction of the stack.  The
tension field tau and the conformality operator kappa are then signed sums
over the frame.

:func:`frame_operators` is the batched kernel: it stacks the linear
members' coefficient matrices and walks them once
(:meth:`lgh.exprs.LinearTrace.eval_jet`), which gives the member values,
their tau and their signed kappa Gram at every sample.  Polynomials in
members are not walked: the chain rule of :mod:`lgh.exprs` composes them
from their members' table (:class:`lgh.exprs.MonomialTable`).  Quotients
P/Q are not members: the morphism verifier screens and reduces them on
one pair table of their P and Q per frame table
(:func:`lgh.morphisms._screen`, :func:`lgh.morphisms.quotient_operators`).
Every reduction runs per sample, so a row's bits do not depend on how
many samples are stacked.  The ring operations of
:class:`Jet2` compose jets exactly, but no kernel multiplies jets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ValidationError
from .matrices import SignedBasis
from .sampling import SampleSet

@dataclass
class Jet2:
    f0: object
    f1: object
    f2: object

    def __add__(self, other: "Jet2") -> "Jet2":
        return Jet2(self.f0 + other.f0, self.f1 + other.f1, self.f2 + other.f2)

    def __sub__(self, other: "Jet2") -> "Jet2":
        return Jet2(self.f0 - other.f0, self.f1 - other.f1, self.f2 - other.f2)

    def __neg__(self) -> "Jet2":
        return Jet2(-self.f0, -self.f1, -self.f2)

    def __mul__(self, other: "Jet2") -> "Jet2":
        # Leibniz: (fg)'' = f''g + 2f'g' + fg''
        return Jet2(
            self.f0 * other.f0,
            self.f1 * other.f0 + self.f0 * other.f1,
            self.f2 * other.f0 + 2.0 * self.f1 * other.f1 + self.f0 * other.f2,
        )

    def __truediv__(self, other: "Jet2") -> "Jet2":
        g0 = np.asarray(other.f0)
        if np.any(g0 == 0):
            raise DomainError("jet division by zero value", value=other.f0)
        f0, f1, f2 = self.f0, self.f1, self.f2
        h0, h1, h2 = other.f0, other.f1, other.f2
        num1 = f1 * h0 - f0 * h1
        num2 = h0 * h0 * f2 - 2.0 * h0 * f1 * h1 + 2.0 * f0 * h1 * h1 - f0 * h0 * h2
        return Jet2(f0 / h0, num1 / (h0 * h0), num2 / (h0 * h0 * h0))


class BasisCurves:
    """Curves s -> x exp(sZ_b) along every vector Z_b of a signed frame, at
    a stack of base points x (S, n, n).

    The curves are held as the base and the frame constants Z_b and Z_b^2:
    the jet of a function linear in x is linear in x again, with those
    constants as coefficients, so no product is formed per sample.
    """

    def __init__(self, base: np.ndarray, basis: SignedBasis):
        base = np.asarray(base, dtype=complex)
        zs = basis.matrices
        if base.shape[-2:] != zs.shape[1:]:
            raise ValidationError("base point and basis have different dimensions")
        self.base = base
        self.zs = zs
        self.zs2 = zs @ zs


@dataclass
class FrameOperators:
    """Values, tau and signed kappa Gram of a member list at stacked samples.

    ``kappa[s, a, c]`` is kappa(phi_a, phi_c) at sample s.  The table records
    the members and the frame it was measured with, so a verifier handed a
    table can check that it describes its own members.  ``derived`` holds
    tables computed from this one, by key, so that verifiers sharing the
    table build each of them once.
    """

    members: tuple
    basis: SignedBasis
    values: np.ndarray  # (S, m)
    tau: np.ndarray  # (S, m)
    kappa: np.ndarray  # (S, m, m)
    derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return self.values.shape[0]

    def describes(self, members, basis: SignedBasis) -> bool:
        """True when the table holds exactly these members on this frame."""
        same_members = len(members) == len(self.members) and all(
            a is b for a, b in zip(members, self.members)
        )
        same_frame = basis is self.basis or (
            np.array_equal(basis.matrices, self.basis.matrices)
            and np.array_equal(basis.signs, self.basis.signs)
        )
        return same_members and same_frame


def stack_samples(xs, basis: SignedBasis) -> np.ndarray:
    """Samples (a :class:`SampleSet`, a sequence of points or an array) as
    an (S, n, n) stack."""
    n = basis.matrices.shape[-1]
    if isinstance(xs, SampleSet):
        xs = xs.points
    stack = np.asarray(xs if isinstance(xs, np.ndarray) else list(xs), dtype=complex)
    if not stack.size:
        return np.empty((0, n, n), dtype=complex)
    if stack.ndim != 3 or stack.shape[1:] != (n, n):
        raise ValidationError(f"samples of shape {stack.shape} do not stack to (S, {n}, {n})")
    return stack


def frame_operators(members, xs, basis: SignedBasis) -> FrameOperators:
    """Member values (S, m), tau (S, m) and signed kappa Gram (S, m, m) at
    the samples ``xs`` (a sequence of points or an (S, n, n) stack).

    The linear members' coefficient matrices are stacked and walked once,
    on curves seeded once for the whole stack.  When some members are
    polynomials (``HomPoly``), their arguments are measured instead, once
    each and recursively, and :func:`lgh.exprs.compose` gives the members
    from that table.  Any other member, a quotient included, is a
    :class:`ValidationError`.  ``xs`` may also be a table of these members
    on this frame, such as this function returns; it is passed through.
    """
    # exprs builds on this module, so it is imported at first use
    from .exprs import Expr, HomPoly, LinearTrace, compose

    members = tuple(members)
    if isinstance(xs, FrameOperators):
        if not xs.describes(members, basis):
            raise ValidationError("frame table was measured for other members or another frame")
        return xs
    if not all(isinstance(f, (Expr, HomPoly)) for f in members):
        raise ValidationError("frame-table members are linear members and polynomials in them, not quotients")
    stack = stack_samples(xs, basis)
    if any(isinstance(f, HomPoly) for f in members):
        walked = {}
        for f in members:
            for g in f.args if isinstance(f, HomPoly) else (f,):
                walked.setdefault(id(g), g)
        return compose(members, frame_operators(walked.values(), stack, basis))
    n = stack.shape[-1]
    coeffs = np.array([f.coefficients(n) for f in members]).reshape(len(members), n, n)
    jet = LinearTrace(coeffs).eval_jet(BasisCurves(stack, basis))
    # one product per sample, so a row's bits do not depend on the stack size
    signs = basis.signs
    tau_vals = jet.f2 @ signs
    gram = (jet.f1 * signs) @ jet.f1.transpose(0, 2, 1)
    return FrameOperators(members, basis, jet.f0, tau_vals, gram)
