"""The full jet walk of composite expressions: the oracle the chain rule is
checked against.

``lgh`` walks jets only for linear members.  It gets every polynomial in
them by the chain rule over monomial tables (:func:`lgh.exprs.compose`),
and tau and kappa of a quotient P/Q only from the morphism kernel
(:func:`lgh.morphisms.quotient_operators`).  The nodes here build sums,
products and quotients of members and walk them as one jet through
:class:`lgh.jets.Jet2` arithmetic, which shares no code with either.
They subclass :class:`lgh.exprs.Expr`, so ``frame_operators``, ``tau``,
``kappa`` and ``eval_point`` walk them like members.
"""

from __future__ import annotations

import numpy as np

from lgh.errors import DomainError
from lgh.exprs import Expr, HomPoly
from lgh.jets import Jet2


class Const(Expr):
    def __init__(self, value):
        self.value = complex(value)

    def eval_jet(self, curve):
        return Jet2(self.value, 0.0, 0.0)


class Sum(Expr):
    def __init__(self, terms):
        self.terms = list(terms)

    def eval_jet(self, curve):
        total = self.terms[0].eval_jet(curve)
        for t in self.terms[1:]:
            total = total + t.eval_jet(curve)
        return total


class Product(Expr):
    def __init__(self, factors):
        self.factors = list(factors)

    def eval_jet(self, curve):
        total = self.factors[0].eval_jet(curve)
        for f in self.factors[1:]:
            total = total * f.eval_jet(curve)
        return total


class Quotient(Expr):
    """num/den with the implicit domain predicate |den(x)| > floor."""

    def __init__(self, num, den, floor: float = 1e-3):
        self.num = walk(num)
        self.den = walk(den)
        self.floor = float(floor)

    def eval_jet(self, curve):
        jd = self.den.eval_jet(curve)
        if float(np.min(np.abs(np.asarray(jd.f0)))) <= self.floor:
            raise DomainError("denominator below domain floor along curve", node=self, value=jd.f0)
        return self.num.eval_jet(curve) / jd


def walk(f):
    """``f`` as a node the full jet walk evaluates.  A :class:`HomPoly`
    becomes the sum, in sorted exponent order, of each coefficient times its
    argument jets one factor at a time; anything else walks as it is."""
    if not isinstance(f, HomPoly):
        return f
    args = [walk(a) for a in f.args]
    return Sum(
        Product([Const(c)] + [arg for arg, e in zip(args, expo) for _ in range(e)])
        for expo, c in sorted(f.coeffs.items())
    )
