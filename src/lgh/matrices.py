"""The classical groups and their complex dense matrices: canonical
generators, orthonormal Lie-algebra bases, the structure matrices I_pq and
J, and Gram-Schmidt for an indefinite trace form.

``FAMILIES`` is the one table of the classical groups: for each family its
config alias, label, sizing by ``n`` or ``(p, q)``, ambient-size factor,
compact partner and real structure.  Other modules read names, aliases,
partners, equations and Cartan involutions (:func:`real_structure`) from it.

Conventions
-----------
All matrices are square ``complex128`` numpy arrays.  Indices in the public
API are 1-based, matching the usual E_ij notation.  Two real bilinear forms
appear throughout:

* the Riemannian form      ``Re trace(Z W*)``  (positive definite),
* the semi-Riemannian form ``Re trace(Z W)``   (indefinite in general).

A ``SignedBasis`` holds its basis matrices and the sign of the
semi-Riemannian form on each, so it describes an orthonormal frame of a
possibly semi-Riemannian metric Lie algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import DegeneracyError, ValidationError
from .report import VerificationReport, timed_report


@dataclass(frozen=True)
class GroupFamily:
    """One row of :data:`FAMILIES`: how a family of classical groups is named,
    sized, paired and cut out of its compact partner's complexification."""

    alias: str  # spelling in config specs
    label: str  # str.format pattern over n, p, q
    pq: bool = False  # sized by (p, q) instead of n
    factor: int = 1  # ambient matrices are factor * size square
    even: bool = False  # n must be even
    partner: str | None = None  # compact family of the same size under the duality
    real: str | None = None  # "conj": x = M conj(x) M^t; "unitary": x M x^* = M
    form: str = "I"  # M: "I", "J", "Ipq" or "K" = kron(I_2, I_pq)
    bilinear: str | None = None  # a compact row's complex equation x B x^t = B, B named as M is
    det: bool = False  # a compact row's complex equation det x = 1


# The classical groups, keyed by family name.  A compact family is its own
# partner; the GL(n,C) split has neither partner nor real structure.
FAMILIES = {
    "SO": GroupFamily("so", "SO({n})", partner="SO", real="conj", bilinear="I", det=True),
    "U": GroupFamily("u", "U({n})", partner="U", real="unitary"),
    "SU": GroupFamily("su", "SU({n})", partner="SU", real="unitary", det=True),
    "Sp": GroupFamily("sp", "Sp({n})", factor=2, partner="Sp", real="unitary", bilinear="J"),
    "GLC-split": GroupFamily("glc_split", "GL({n},C)-split"),
    "SLR": GroupFamily("sl_r", "SL({n},R)", partner="SU", real="conj"),
    "SUstar": GroupFamily("su_star", "SU*({n})", even=True, partner="SU", real="conj", form="J"),
    "SpR": GroupFamily("sp_r", "Sp({n},R)", factor=2, partner="Sp", real="conj"),
    "SOstar": GroupFamily("so_star", "SO*({n})", even=True, partner="SO", real="unitary", form="J"),
    "SOpq": GroupFamily("so_pq", "SO({p},{q})", pq=True, partner="SO", real="conj", form="Ipq"),
    "SUpq": GroupFamily("su_pq", "SU({p},{q})", pq=True, partner="SU", real="unitary", form="Ipq"),
    "Sppq": GroupFamily("sp_pq", "Sp({p},{q})", pq=True, factor=2, partner="Sp", real="unitary", form="K"),
}
FAMILY_BY_ALIAS = {row.alias: name for name, row in FAMILIES.items()}
NONCOMPACT_FAMILIES = tuple(name for name, row in FAMILIES.items() if row.partner not in (None, name))

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class GroupId:
    """A classical group tag: family name plus size parameters.

    ``n`` is the defining parameter (SO(n), U(n), Sp(n), SL(n,R), SU*(n),
    SO*(n), Sp(n,R)); the indefinite families use ``(p, q)`` instead.
    """

    family: str
    n: int | None = None
    p: int | None = None
    q: int | None = None

    def __post_init__(self):
        row = FAMILIES.get(self.family)
        if row is None:
            raise ValidationError(f"unknown group family {self.family!r}")
        if row.pq:
            if self.n is not None:
                raise ValidationError(f"{self.family} takes (p, q), not n")
            if not (self.p and self.q and self.p >= 1 and self.q >= 1):
                raise ValidationError(f"{self.family} needs positive (p, q)")
        else:
            if self.p is not None or self.q is not None:
                raise ValidationError(f"{self.family} takes n, not (p, q)")
            if not (self.n and self.n >= 1):
                raise ValidationError(f"{self.family} needs positive n")
            if row.even and self.n % 2:
                raise ValidationError(f"{self.family} needs even n")

    @property
    def matrix_dim(self) -> int:
        """Size of the ambient square matrices realizing the group."""
        return FAMILIES[self.family].factor * (self.n or self.p + self.q)

    @property
    def compact_partner(self) -> "GroupId":
        """The compact group this one pairs with under the duality; a compact
        group is its own partner."""
        partner = FAMILIES[self.family].partner
        if partner is None:
            raise ValidationError(f"{self} has no compact partner")
        return GroupId(partner, self.n or self.p + self.q)

    def __str__(self) -> str:
        return FAMILIES[self.family].label.format(n=self.n, p=self.p, q=self.q)


def SO(n: int) -> GroupId:
    return GroupId("SO", n)


def U(n: int) -> GroupId:
    return GroupId("U", n)


def SU(n: int) -> GroupId:
    return GroupId("SU", n)


def Sp(n: int) -> GroupId:
    return GroupId("Sp", n)


def sl_r(n: int) -> GroupId:
    return GroupId("SLR", n)


def su_star(n: int) -> GroupId:
    return GroupId("SUstar", n)


def sp_r(n: int) -> GroupId:
    return GroupId("SpR", n)


def so_star(n: int) -> GroupId:
    return GroupId("SOstar", n)


def so_pq(p: int, q: int) -> GroupId:
    return GroupId("SOpq", p=p, q=q)


def su_pq(p: int, q: int) -> GroupId:
    return GroupId("SUpq", p=p, q=q)


def sp_pq(p: int, q: int) -> GroupId:
    return GroupId("Sppq", p=p, q=q)


@dataclass(frozen=True, eq=False)
class SignedBasis:
    """Orthonormal frame of a metric Lie algebra: the basis matrices stacked
    (B, n, n) and the sign of Re trace(Z Z) on each, (B,).

    The arrays are copied and read-only, and a frame compares and hashes by
    identity, so it can be shared (as :func:`compact_basis` shares its
    results) and can key a dict."""

    group: GroupId
    matrices: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        n = self.group.matrix_dim
        zs, signs = np.array(self.matrices, dtype=complex), np.array(self.signs, dtype=float)
        zs = zs.reshape(0, n, n) if zs.shape == (0,) else zs
        if zs.ndim != 3 or zs.shape[1:] != (n, n) or signs.shape != zs.shape[:1]:
            raise ValidationError(f"a frame of {self.group} needs (B, {n}, {n}) matrices and B signs, not {zs.shape}")
        object.__setattr__(self, "matrices", _read_only(zs))
        object.__setattr__(self, "signs", _read_only(signs))

    def __len__(self) -> int:
        return len(self.signs)

    @cached_property
    def casimir(self) -> np.ndarray:
        """The frame's Casimir sum_b eps_b Z_b^2, shape (n, n)."""
        zs = self.matrices
        return _read_only(np.tensordot(self.signs, zs @ zs, axes=1))

    @cached_property
    def real(self) -> bool:
        """Whether no basis matrix has an imaginary part."""
        return not np.any(self.matrices.imag)

    @cached_property
    def gather_plan(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """The frame's nonzeros, rank by rank, for sums sum_b c_b Z_b that
        skip the zero terms.

        Entries are those of the float64 view of the frame: the (n, n) real
        matrices of a :attr:`real` frame, else the (n, n, 2) interleaved real
        and imaginary parts, flattened.  Rank r is ``(pos, js, vals)``: each
        entry ``pos`` with more than r nonzeros, the basis index ``js`` of its
        r-th nonzero (in ascending b) and that value."""
        zs = self.matrices
        parts = zs.real if self.real else zs.view(float)
        flat = parts.reshape(len(zs), math.prod(parts.shape[1:]))
        nonzero = flat != 0
        rank = np.cumsum(nonzero, axis=0) - 1
        plan = []
        for r in range(int(nonzero.sum(axis=0).max(initial=0))):
            pos, js = np.nonzero((nonzero & (rank == r)).T)
            plan.append(tuple(_read_only(a) for a in (pos, js, flat[js, pos])))
        return tuple(plan)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# ---------------------------------------------------------------------------
# bilinear forms
# ---------------------------------------------------------------------------

def trace_form(z: np.ndarray, w: np.ndarray) -> float:
    """Semi-Riemannian form Re trace(Z W)."""
    return float(np.einsum("ij,ji->", z, w).real)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def generator(kind: str, indices, n: int) -> np.ndarray:
    """Canonical gl(n) generators, 1-based indices.

    kind 'E', (i, j): the single-entry matrix with (E_ij)_kl = delta_ik delta_jl.
    kind 'D', t:      the diagonal unit E_tt.
    kind 'X', (r, s): (E_rs + E_sr)/sqrt(2), requires r < s.
    kind 'Y', (r, s): (E_rs - E_sr)/sqrt(2), requires r < s.
    """
    m = np.zeros((n, n), dtype=complex)
    if kind == "E":
        i, j = indices
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValidationError(f"E index ({i},{j}) out of range for n={n}")
        m[i - 1, j - 1] = 1.0
        return m
    if kind == "D":
        t = indices if isinstance(indices, int) else indices[0]
        if not 1 <= t <= n:
            raise ValidationError(f"D index {t} out of range for n={n}")
        m[t - 1, t - 1] = 1.0
        return m
    if kind in ("X", "Y"):
        r, s = indices
        if not (1 <= r < s <= n):
            raise ValidationError(f"{kind} indices ({r},{s}) need 1 <= r < s <= n={n}")
        m[r - 1, s - 1] = 1.0 / _SQRT2
        m[s - 1, r - 1] = (1.0 if kind == "X" else -1.0) / _SQRT2
        return m
    raise ValidationError(f"unknown generator kind {kind!r}")


def _pairs(n):
    return [(r, s) for r in range(1, n + 1) for s in range(r + 1, n + 1)]


def _su_diagonal_set(n: int) -> list[np.ndarray]:
    # i(D_1 + ... + D_k - k D_{k+1}) / sqrt(k(k+1)): orthonormal traceless
    # completion of the diagonal direction, 1 <= k <= n-1.
    out = []
    for k in range(1, n):
        d = np.zeros((n, n), dtype=complex)
        for t in range(k):
            d[t, t] = 1.0
        d[k, k] = -float(k)
        out.append(1j * d / math.sqrt(k * (k + 1)))
    return out


def _sp_basis_matrices(n: int) -> list[np.ndarray]:
    """Orthonormal basis of sp(n) as 2n x 2n blocks, in three groups."""

    def block(a, b, c, d):
        return np.block([[a, b], [c, d]]) / _SQRT2

    z = np.zeros((n, n), dtype=complex)
    out = []
    for r, s in _pairs(n):
        y = generator("Y", (r, s), n)
        x = generator("X", (r, s), n)
        out.append(block(y, z, z, y))
        out.append(block(1j * x, z, z, -1j * x))
    for r, s in _pairs(n):
        x = generator("X", (r, s), n)
        out.append(block(z, 1j * x, 1j * x, z))
        out.append(block(z, x, -x, z))
    for t in range(1, n + 1):
        d = generator("D", t, n)
        out.append(block(1j * d, z, z, -1j * d))
        out.append(block(z, 1j * d, 1j * d, z))
        out.append(block(z, d, -d, z))
    return out


@cache
def compact_basis(group: GroupId) -> SignedBasis:
    """The canonical orthonormal basis of a compact Lie algebra, all signs +1.
    Built once per group: every call with the same group returns the same
    (shared, read-only) basis.

    so(n): { Y_rs };  u(n): { Y_rs, iX_rs, iD_t };
    su(n): { Y_rs, iX_rs } plus the traceless diagonal completion;
    sp(n): the standard 2n x 2n block basis.
    """
    n = group.n
    if group.family == "SO":
        mats = [generator("Y", p, n) for p in _pairs(n)]
    elif group.family == "U":
        mats = [generator("Y", p, n) for p in _pairs(n)]
        mats += [1j * generator("X", p, n) for p in _pairs(n)]
        mats += [1j * generator("D", t, n) for t in range(1, n + 1)]
    elif group.family == "SU":
        mats = [generator("Y", p, n) for p in _pairs(n)]
        mats += [1j * generator("X", p, n) for p in _pairs(n)]
        mats += _su_diagonal_set(n)
    elif group.family == "Sp":
        mats = _sp_basis_matrices(n)
    else:
        raise ValidationError(f"no compact basis for family {group.family!r}")
    return SignedBasis(group, mats, np.ones(len(mats)))


def glc_split_basis(n: int) -> tuple[SignedBasis, SignedBasis]:
    """Orthogonal split of gl(n,C) under Re trace(Z W).

    Returns (plus, minus): the Hermitian part { X_rs, D_t, iY_rs } where the
    form is positive definite, and the skew-Hermitian part { Y_rs, iX_rs,
    iD_t } where it is negative definite.
    """
    if n < 1:
        raise ValidationError("glc_split_basis needs n >= 1")
    gid = GroupId("GLC-split", n)
    plus = [generator("X", p, n) for p in _pairs(n)]
    plus += [generator("D", t, n) for t in range(1, n + 1)]
    plus += [1j * generator("Y", p, n) for p in _pairs(n)]
    minus = compact_basis(GroupId("U", n)).matrices
    return SignedBasis(gid, plus, np.ones(len(plus))), SignedBasis(gid, minus, -np.ones(len(minus)))


# ---------------------------------------------------------------------------
# generator identities
# ---------------------------------------------------------------------------

def verify_matrix_identities(n: int, tol: float = 1e-12) -> VerificationReport:
    """Check the six summation identities of the X/Y/D generator sets.

    Residuals are max absolute entry deviations; the sandwich sums
    sum_b G E_jl G^t are checked for every 1 <= j, l <= n.
    """
    if n < 2:
        raise ValidationError("identities need n >= 2")
    with timed_report() as clock:
        X = np.stack([generator("X", p, n) for p in _pairs(n)])
        Y = np.stack([generator("Y", p, n) for p in _pairs(n)])
        D = np.stack([generator("D", t, n) for t in range(1, n + 1)])
        eye = np.eye(n)

        def dev(a, b):
            return float(np.max(np.abs(a - b)))

        half = (n - 1) / 2.0
        res = {
            "sum_X_squares": dev(np.einsum("bij,bjk->ik", X, X), half * eye),
            "sum_Y_squares": dev(np.einsum("bij,bjk->ik", Y, Y), -half * eye),
            "sum_D_squares": dev(np.einsum("bij,bjk->ik", D, D), eye),
        }
        # (G E_jl G^t)_uv = G_uj G_vl, so the sandwich sum over the whole
        # generator set is a single contraction per set.
        sx = np.einsum("buj,bvl->jluv", X, X)
        sy = np.einsum("buj,bvl->jluv", Y, Y)
        sd = np.einsum("buj,bvl->jluv", D, D)
        elj = np.einsum("ul,vj->jluv", eye, eye)  # (E_lj)_uv = d_ul d_vj
        dlj_eye = np.einsum("jl,uv->jluv", eye, eye)  # delta_lj I
        dlj_elj = np.einsum("jl,jluv->jluv", eye, elj)  # delta_lj E_lj
        tx = 0.5 * (elj + dlj_eye - 2.0 * dlj_elj)
        ty = -0.5 * (elj - dlj_eye)
        td = dlj_elj
        res["X_conjugation_sum"] = dev(sx, tx)
        res["Y_conjugation_sum"] = dev(sy, ty)
        res["D_conjugation_sum"] = dev(sd, td)
    return VerificationReport(
        check="matrix-identities",
        target=f"gl({n})",
        params={"n": n},
        residuals=res,
        tol=tol,
        wall_time=clock.elapsed,
    )


# ---------------------------------------------------------------------------
# structure matrices
# ---------------------------------------------------------------------------

def signature_matrix(p: int, q: int) -> np.ndarray:
    """I_pq = diag(-I_p, I_q)."""
    return np.diag(np.concatenate([-np.ones(p), np.ones(q)])).astype(complex)


def symplectic_matrix(n: int) -> np.ndarray:
    """J_n = [[0, I_n], [-I_n, 0]]."""
    eye = np.eye(n)
    zero = np.zeros((n, n))
    return np.block([[zero, eye], [-eye, zero]]).astype(complex)


class SignedPermutation:
    """A constant matrix m of a group's equations with one entry +-1 in each
    row and column (I, J, I_pq, kron(I_2, I_pq)), its products as moves and
    negations of entries: those round nothing, and equal a BLAS product by m
    but for the sign of a zero.  The identity moves nothing."""

    def __init__(self, m: np.ndarray):
        m.setflags(write=False)
        self.matrix = m
        at = np.arange(len(m))
        self._identity = np.array_equal(m, np.eye(len(m)))
        row_of, col_of = np.abs(m).argmax(axis=0), np.abs(m).argmax(axis=1)
        diagonal = np.array_equal(col_of, at)  # moves nothing, negates only
        # x @ m is x[..., cols] * col_signs
        self._cols = slice(None) if diagonal else row_of
        self._col_signs = m[row_of, at].real
        # m @ y @ m^t is y[both] * both_signs
        self._both = Ellipsis if diagonal else (Ellipsis, col_of[:, None], col_of)
        row_signs = m[at, col_of].real
        self._both_signs = np.outer(row_signs, row_signs)

    def right(self, xs: np.ndarray) -> np.ndarray:
        """``xs @ m`` for a stack xs."""
        return xs if self._identity else xs[..., self._cols] * self._col_signs

    def conjugate(self, ys: np.ndarray) -> np.ndarray:
        """``m @ ys @ m^t`` for a stack ys."""
        return ys if self._identity else ys[self._both] * self._both_signs


# the matrices a FAMILIES row names, on a group's ambient size
_FORMS = {
    "I": lambda g: np.eye(g.matrix_dim),
    "J": lambda g: symplectic_matrix(g.matrix_dim // 2),
    "Ipq": lambda g: signature_matrix(g.p, g.q),
    "K": lambda g: np.kron(np.eye(2), signature_matrix(g.p, g.q)),
}


@dataclass(frozen=True)
class RealStructure:
    """A group's equations from its :data:`FAMILIES` row: the real form
    x = M conj(x) M^t (``kind`` "conj") or x M x^* = M ("unitary"), and the
    compact partner's x B x^t = B (``bilinear``) and det x = 1 (``det``)."""

    kind: str
    form: SignedPermutation  # M
    bilinear: SignedPermutation | None
    det: bool

    def theta(self, zs: np.ndarray) -> np.ndarray:
        """The Cartan involution it induces on the compact partner's algebra,
        on a stack: M conj(Z) M^t ("conj") or M Z M^t ("unitary"); the
        identity on a compact group's own algebra."""
        return self.form.conjugate(zs.conj() if self.kind == "conj" else zs)


@cache
def real_structure(group: GroupId) -> RealStructure:
    """The real structure of ``group``, built on its first use and kept;
    ``GLC-split`` has none and is refused."""
    row = FAMILIES[group.family]
    if row.real is None:
        raise ValidationError(f"{group} has no defining equations to sample against")
    partner = FAMILIES[row.partner]
    bilinear = None if partner.bilinear is None else SignedPermutation(_FORMS[partner.bilinear](group))
    return RealStructure(row.real, SignedPermutation(_FORMS[row.form](group)), bilinear, partner.det)


# ---------------------------------------------------------------------------
# Gram-Schmidt for the indefinite form
# ---------------------------------------------------------------------------

# A pivot with |B(v, v)| below this after projection counts as a null direction.
NULL_TOL = 1e-9


def gram_schmidt_indefinite(
    spanning,
    group: GroupId | None = None,
    *,
    drop_dependent: bool = False,
) -> SignedBasis:
    """Orthonormalize a real spanning set under B(Z, W) = Re trace(Z W).

    Pivots on the remaining vector with the largest |B(v, v)| after
    projection, which keeps isotropic directions from ever becoming pivots.
    Each accepted vector is scaled to |B(Z, Z)| = 1 and stored with
    sign(B(Z, Z)).

    With ``drop_dependent`` the routine treats a vanishing pivot as linear
    dependence and stops (valid when the form is definite on the span);
    otherwise a vanishing pivot raises :class:`DegeneracyError`.
    """
    supplied = [np.array(m, dtype=complex) for m in spanning]
    if group is None:
        dim = supplied[0].shape[0] if supplied else 1
        group = GroupId("GLC-split", dim)
    # each remaining vector projected off the accepted ones so far: a round
    # subtracts only the newly accepted vector, which is the same sequence
    # of roundings as projecting off every accepted vector in order
    projected = [m for m in supplied if np.max(np.abs(m)) > 1e-14]
    accepted, signs = [], []
    while projected:
        if accepted:
            u, sign = accepted[-1], signs[-1]
            for w in projected:
                w -= sign * trace_form(w, u) * u
        forms = [trace_form(w, w) for w in projected]
        best = max(range(len(forms)), key=lambda i: abs(forms[i]))
        b = forms[best]
        if abs(b) < NULL_TOL:
            if drop_dependent:
                break
            raise DegeneracyError(
                f"null direction: |B(v,v)| = {abs(b):.3e} after orthogonalization"
            )
        accepted.append(projected.pop(best) / math.sqrt(abs(b)))
        signs.append(+1 if b > 0 else -1)
    return SignedBasis(group, accepted, signs)
