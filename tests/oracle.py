"""The full jet walk of any expression: the oracle the kernels are checked
against.

``lgh`` measures linear members by one contraction of the sample stack
with ``[A | A Z_b^t | A (Z_b^2)^t]`` (:func:`lgh.jets.frame_operators`),
gets every polynomial in them by the chain rule over monomial tables
(:func:`lgh.exprs.compose`), and tau and kappa of a quotient P/Q only from
the morphism kernel (:func:`lgh.morphisms.quotient_operators`).  The
oracle shares no code with any of them.  It seeds a linear member's jet
from the products x Z_b and x Z_b^2 (f1_b = sum_ij A_ij (x Z_b)_ij), walks
sums, products and quotients of members as one jet through
:class:`lgh.jets.Jet2` arithmetic, and takes value, tau and kappa as its
own signed sums over the frame.

It also keeps the morphism factory's draw one quotient at a time
(:func:`sequential_morphisms`), the reference of the block draw
:func:`lgh.morphisms.random_morphisms`, and each group's defining
equations as matrix products (:func:`group_defect_products`), the
reference of :func:`lgh.sampling.group_defect`, and each dual's Cartan
involution as matrix products (:func:`involution_products`), the reference
of the involution :func:`lgh.matrices.real_structure` reads from the family
table.
"""

from __future__ import annotations

import numpy as np

from lgh.errors import DomainError
from lgh.exprs import Entry, HomPoly, LinearTrace
from lgh.jets import FrameOperators, Jet2
from lgh.matrices import compact_basis, signature_matrix, symplectic_matrix
from lgh.morphisms import random_morphism


class Curves:
    """s -> x exp(sZ_b) for every sample x of a stack (S, n, n) and every
    vector Z_b of a frame (none without one): x, x Z_b and x Z_b^2.  Jet
    values have shape (S,), derivatives (B, S)."""

    def __init__(self, xs, basis=None):
        self.x = np.asarray(xs, dtype=complex)
        count, n = self.x.shape[0], self.x.shape[-1]
        zs = np.zeros((0, n, n), dtype=complex) if basis is None else basis.matrices
        self.xz = self.x[:, None] @ zs
        self.xz2 = self.xz @ zs
        self.zeros = np.zeros((len(zs), count), dtype=complex)


def jet(f, curves: Curves) -> Jet2:
    """The jet of a member, a polynomial or an oracle node along the curves."""
    if isinstance(f, LinearTrace):
        a = f.matrix
    elif isinstance(f, Entry):
        a = np.zeros(curves.x.shape[1:], dtype=complex)
        a[f.i - 1, f.j - 1] = 1.0
    else:
        return walk(f).jet(curves)
    return Jet2(
        np.einsum("ij,sij->s", a, curves.x),
        np.einsum("ij,sbij->bs", a, curves.xz),
        np.einsum("ij,sbij->bs", a, curves.xz2),
    )


def frame_table(members, xs, basis) -> FrameOperators:
    """Values (S, m), tau (S, m) and signed kappa Gram (S, m, m) of any
    expressions at the samples, as signed sums over the frame."""
    curves = Curves(getattr(xs, "points", xs), basis)
    jets = [jet(f, curves) for f in members]
    f1 = np.array([j.f1 for j in jets])
    f2 = np.array([j.f2 for j in jets])
    signs = basis.signs
    return FrameOperators(
        tuple(members),
        basis,
        np.array([j.f0 for j in jets]).T,
        np.einsum("b,abs->sa", signs, f2),
        np.einsum("b,abs,cbs->sac", signs, f1, f1),
    )


def value(f, x) -> complex:
    """The value of any expression at the point x."""
    return complex(jet(f, Curves(np.asarray(x)[None])).f0[0])


def tau(f, x, basis) -> complex:
    """Tension field at the point x: sum_b eps_b f2_b."""
    return complex(frame_table([f], [x], basis).tau[0, 0])


def kappa(f, g, x, basis) -> complex:
    """Conformality operator at the point x: sum_b eps_b f1_b g1_b, complex
    bilinear, no conjugation."""
    return complex(frame_table([f, g], [x], basis).kappa[0, 0, 1])


def sequential_morphisms(fam, count, rng, floor=1e-3) -> list:
    """``count`` quotients drawn one after the other: a u64 whose value
    mod 3 plus 1 is the degree, then :func:`lgh.morphisms.random_morphism`
    of that degree, with its redraw of Q while P and Q are proportional."""
    return [random_morphism(fam, int(1 + rng.next_u64() % 3), rng, floor=floor) for _ in range(count)]


class Const:
    def __init__(self, value):
        self.value = complex(value)

    def jet(self, curves):
        return Jet2(np.full(len(curves.x), self.value), curves.zeros, curves.zeros)


class Sum:
    def __init__(self, terms):
        self.terms = list(terms)

    def jet(self, curves):
        total = jet(self.terms[0], curves)
        for t in self.terms[1:]:
            total = total + jet(t, curves)
        return total


class Product:
    def __init__(self, factors):
        self.factors = list(factors)

    def jet(self, curves):
        total = jet(self.factors[0], curves)
        for f in self.factors[1:]:
            total = total * jet(f, curves)
        return total


class Quotient:
    """num/den with the implicit domain predicate |den(x)| > floor."""

    def __init__(self, num, den, floor: float = 1e-3):
        self.num = walk(num)
        self.den = walk(den)
        self.floor = float(floor)

    def jet(self, curves):
        jd = jet(self.den, curves)
        if float(np.min(np.abs(jd.f0))) <= self.floor:
            raise DomainError("denominator below domain floor along curve", node=self, value=jd.f0)
        return jet(self.num, curves) / jd


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


def coordinate_lemma_residuals(group, xs) -> dict:
    """The residuals of :func:`lgh.families.verify_coordinate_lemmas`: the
    largest |entry| of each of :func:`coordinate_lemma_tensors`."""
    return {key: float(np.max(np.abs(t))) for key, t in coordinate_lemma_tensors(group, xs).items()}


def coordinate_lemma_tensors(group, xs) -> dict:
    """The residual tables of :func:`lgh.families.verify_coordinate_lemmas`,
    measured in complex arithmetic on the complex stack: the products q Z_b
    on the n coordinate rows q = x[:n], x x^t, z w^t and w z^t and the
    signed kappa 4-tensor of those rows by complex gemm, each cross tensor
    a_il b_kj by einsum in its (s, i, j, k, l) layout, and each delta term
    as a full tensor.  On Sp(n), z and w are the blocks x[:n, :n] and
    x[:n, n:] of the quaternionic embedding."""
    basis = compact_basis(group)
    x = np.asarray(xs, dtype=complex)
    n = group.n
    s, m, b = x.shape[0], x.shape[-1], len(basis)
    side = basis.matrices.transpose(1, 0, 2).reshape(m, b * m)
    flat = (x[:, :n] @ side).reshape(s, n, b, m).transpose(0, 2, 1, 3).reshape(s, b, n * m)
    k4 = ((flat.transpose(0, 2, 1) * basis.signs) @ flat).reshape(s, n, m, n, m)
    tau = x @ basis.casimir
    eye = np.eye(n)

    def cross(a, b):
        return np.einsum("sil,skj->sijkl", a, b)

    def delta_jl(d):
        return np.einsum("sik,jl->sijkl", d, eye)

    if group.family == "SO":
        delta_ik_jl = np.einsum("ik,jl->ijkl", eye, eye)
        return {
            "tau": tau + (n - 1) / 2.0 * x,
            "kappa_general": (cross(x, x) - delta_jl(x @ x.transpose(0, 2, 1))) * 0.5 + k4,
            "kappa_on_group": (cross(x, x) - delta_ik_jl) * 0.5 + k4,
        }
    if group.family == "U":
        return {"tau": tau + n * x, "kappa": cross(x, x) + k4}
    z, w = x[:, :n, :n], x[:, :n, n:]
    lam = (2 * n + 1) / 2.0
    anti = z @ w.transpose(0, 2, 1) - w @ z.transpose(0, 2, 1)
    return {
        "tau_z": tau[:, :n, :n] + lam * z,
        "tau_w": tau[:, :n, n:] + lam * w,
        "kappa_zz": cross(z, z) * 0.5 + k4[:, :, :n, :, :n],
        "kappa_ww": cross(w, w) * 0.5 + k4[:, :, n:, :, n:],
        "kappa_zw": (cross(w, z) - delta_jl(anti)) * 0.5 + k4[:, :, :n, :, n:],
        "zw_antisymmetry": anti,
    }


def group_defect_products(group, xs) -> np.ndarray:
    """Largest violation of the defining equations of ``group`` at each point
    of an (S, n, n) stack, every product by J, I_pq and kron(I_2, I_pq) a
    matrix product."""
    xs = np.asarray(xs)
    n, fam = xs.shape[-1], group.family
    eye = np.eye(n)
    j = symplectic_matrix(n // 2)
    ipq = signature_matrix(group.p, group.q) if fam in ("SOpq", "SUpq", "Sppq") else None
    k = np.kron(np.eye(2), ipq) if fam == "Sppq" else None
    xt = xs.transpose(0, 2, 1)

    def rows(m):
        return np.maximum.reduce(np.abs(m), axis=(1, 2), initial=0.0)

    def det(m):
        return np.abs(np.linalg.det(m) - 1.0)

    def worst(*defects):
        return np.maximum.reduce(defects)

    if fam == "SO":
        return worst(rows(xs @ xt - eye), rows(xs.imag), det(xs))
    if fam in ("U", "SU", "Sp"):
        unitary = rows(xs @ xt.conj() - eye)
        if fam == "U":
            return unitary
        if fam == "SU":
            return worst(unitary, det(xs))
        return worst(unitary, rows(xs @ j @ xt - j))
    if fam == "SLR":
        return worst(rows(xs.imag), det(xs))
    if fam == "SUstar":
        return worst(rows(j @ xs.conj() @ (-j) - xs), det(xs))
    if fam == "SpR":
        return worst(rows(xs.imag), rows(xs @ j @ xt - j))
    if fam == "SOstar":
        return worst(rows(xs @ xt - eye), rows(xs @ j @ xt.conj() - j), det(xs))
    if fam == "SOpq":
        return worst(rows(xs @ xt - eye), rows(ipq @ xs.conj() @ ipq - xs), det(xs))
    if fam == "SUpq":
        return worst(rows(xs @ ipq @ xt.conj() - ipq), det(xs))
    assert fam == "Sppq", group
    return worst(rows(xs @ j @ xt - j), rows(xs @ k @ xt.conj() - k))


def involution_products(gid):
    """The Cartan involution theta of a dual pair on the compact partner's
    algebra, stated per family, every product by J, I_pq and
    kron(I_2, I_pq) a matrix product."""
    f = gid.family
    if f in ("SLR", "SpR"):
        return lambda z: z.conj()
    if f == "SUstar":
        j = symplectic_matrix(gid.n // 2)
        jinv = -j
        return lambda z: j @ z.conj() @ jinv
    if f == "SOstar":
        j = symplectic_matrix(gid.n // 2)
        jinv = -j
        return lambda z: j @ z @ jinv
    if f in ("SOpq", "SUpq"):
        ipq = signature_matrix(gid.p, gid.q)
        return lambda z: ipq @ z @ ipq
    assert f == "Sppq", gid
    k = np.kron(np.eye(2), signature_matrix(gid.p, gid.q))
    return lambda z: k @ z @ k
