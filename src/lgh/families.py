"""Eigenfamilies of complex-valued functions on the compact classical groups.

An eigenfamily is a set of functions with tau(phi) = lambda phi and
kappa(phi, psi) = mu phi psi for fixed constants and all members phi, psi.
Every family here is linear: phi_a(x) = trace(p^t a q^t) for a fixed p and
vectors a, over the coordinate rows q of the group (all of x on SO(n) and
U(n)/SU(n), the rows [z | w] on Sp(n)).  One private constructor builds the
members of all of them; the public ones (so_family_V, so_family_special,
u_family, su_family, sp_family) check their own inputs and call it, and
default_family picks the family of a group that names nothing else.  The
verifier measures both defining equations by exact jets at seeded group
samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import InconclusiveError, ValidationError
from .exprs import LinearTrace
from .jets import frame_operators, stack_samples
from .matrices import GroupId, SignedBasis, compact_basis
from .report import VerificationReport, timed_report
from .sampling import _BLOCK_BYTES, SampleSet, _maxabs

# measure_constants_residual divides by phi and phi^2; it skips member values
# at or below this magnitude.
VALUE_FLOOR = 0.1

# (lambda, mu) for the linear coordinate families, per compact family.
# SU values follow from removing the trace direction i I/sqrt(n) from the
# u(n) frame: tau gains + z/n, kappa gains + (phi psi)/n.
def eigen_constants(family: str, n: int) -> tuple[complex, complex]:
    if family == "SO":
        return complex(-(n - 1) / 2.0), complex(-0.5)
    if family == "U":
        return complex(-n), complex(-1.0)
    if family == "SU":
        return complex(-(n * n - 1) / n), complex(-(n - 1) / n)
    if family == "Sp":
        return complex(-(2 * n + 1) / 2.0), complex(-0.5)
    raise ValidationError(f"no eigenfamily constants for family {family!r}")


@dataclass
class Eigenfamily:
    group: GroupId
    members: list
    lam: complex
    mu: complex
    provenance: str

    def __post_init__(self):
        if not self.members:
            raise ValidationError("eigenfamily needs at least one member")


def bilinear(u, v) -> complex:
    """Complex-bilinear pairing (u, v) = sum_k u_k v_k, no conjugation."""
    return complex(np.sum(np.asarray(u, dtype=complex) * np.asarray(v, dtype=complex)))


def maximal_isotropic_basis(n: int) -> list[np.ndarray]:
    """span{ e_{2k-1} + i e_{2k} } for k = 1..floor(n/2)."""
    out = []
    for k in range(n // 2):
        v = np.zeros(n, dtype=complex)
        v[2 * k] = 1.0
        v[2 * k + 1] = 1j
        out.append(v)
    return out


# largest |(a, b)| of two vectors of a subspace that counts as isotropic
_ISOTROPY_TOL = 1e-12


def _check_isotropic_set(V):
    for i, a in enumerate(V):
        for j, b in enumerate(V):
            if j < i:
                continue
            val = bilinear(a, b)
            if abs(val) > _ISOTROPY_TOL:
                raise ValidationError(
                    f"subspace not isotropic: (v_{i}, v_{j}) = {val:.3e}"
                )


# The compact families with a linear eigenfamily: the constructors below and
# default_family build one on each.
LINEAR_FAMILIES = ("SO", "U", "SU", "Sp")


def _linear_family(group: GroupId, p, vectors, provenance: str) -> Eigenfamily:
    """Members trace(p^t a q^t) over the coordinate rows q of ``group``: for
    each block of n columns (all of x, or z then w on Sp(n)) and each vector
    a, the matrix outer(p, a) in that block of the first n rows, zero
    elsewhere.  Each block is written alone, so an entry outside it is +0
    whatever p is.  Constants from :func:`eigen_constants`."""
    n = group.n
    p = np.asarray(p, dtype=complex)
    if p.shape != (n,) or not np.any(p):
        raise ValidationError("p must be a nonzero vector of length n")
    size = group.matrix_dim
    members = []
    for lo in range(0, size, n):
        for a in vectors:
            m = np.zeros((size, size), dtype=complex)
            m[:n, lo : lo + n] = np.outer(p, a)
            members.append(LinearTrace(m))
    lam, mu = eigen_constants(group.family, n)
    return Eigenfamily(group, members, lam, mu, provenance)


def so_family_V(n: int, p, V) -> Eigenfamily:
    """Members trace(p^t a x^t), a running over a basis of an isotropic
    subspace V of C^n; valid on SO(n) for any nonzero p.  Each vector of V
    must be nonzero and of length n: a zero one would add a zero member."""
    V = [np.asarray(a, dtype=complex) for a in V]
    if not V:
        raise ValidationError("V needs at least one spanning vector")
    if any(a.shape != (n,) or not np.any(a) for a in V):
        raise ValidationError("each V vector must be a nonzero vector of length n")
    _check_isotropic_set(V)
    return _linear_family(GroupId("SO", n), p, V, "so-isotropic-subspace")


def so_family_special(n: int, p) -> Eigenfamily:
    """Members trace(p^t a x^t) for a over the full standard basis of C^n,
    requiring (p, p) = 0.

    The defining identities use x x^t = I.  That identity holds on all of
    SO(n, C), in which SO(n) is Zariski-dense and every aligned SO(p, q) and
    SO*(2n) lies, so the family continues to those duals as every
    polynomial family does (:func:`lgh.duality.dual_family`).
    """
    pp = bilinear(p, p)
    if abs(pp) > _ISOTROPY_TOL:
        raise ValidationError(f"p is not isotropic: (p, p) = {pp:.3e}")
    return _linear_family(GroupId("SO", n), p, np.eye(n, dtype=complex), "so-isotropic-point")


def so4_deformation(z: complex, w: complex) -> np.ndarray:
    """Two-parameter isotropic vector (1+zw, i(1-zw), i(z+w), z-w) in C^4."""
    z = complex(z)
    w = complex(w)
    return np.array([1 + z * w, 1j * (1 - z * w), 1j * (z + w), z - w], dtype=complex)


def u_family(n: int, p) -> Eigenfamily:
    """Members trace(p^t a z^t) for a over the standard basis; eigenfamily
    on U(n) with constants (-n, -1)."""
    return _linear_family(GroupId("U", n), p, np.eye(n, dtype=complex), "u-linear")


def su_family(n: int, p) -> Eigenfamily:
    """The members of :func:`u_family` on SU(n).

    Constants become (-(n^2-1)/n, -(n-1)/n): dropping the trace direction
    i I/sqrt(n) removes -z/n from tau and -(phi psi)/n from kappa.
    """
    return _linear_family(GroupId("SU", n), p, np.eye(n, dtype=complex), "su-linear")


def sp_family(n: int, p) -> Eigenfamily:
    """Members trace(p^t a z^t) and trace(p^t b w^t) over the two blocks of
    the quaternionic embedding, (a, b) over {(e_i, 0)} and {(0, e_i)}."""
    return _linear_family(GroupId("Sp", n), p, np.eye(n, dtype=complex), "sp-linear")


def default_point(n: int) -> np.ndarray:
    """The p of a linear family that no spec states: e_1 in C^n."""
    p = np.zeros(n, dtype=complex)
    p[0] = 1.0
    return p


def default_family(group: GroupId, p=None) -> Eigenfamily:
    """The linear family of a group at ``p`` (e_1 when None), on SO(n) over
    the standard isotropic subspace (:func:`maximal_isotropic_basis`): with
    no p, the family of a group that names nothing else.  A group outside
    :data:`LINEAR_FAMILIES` raises :class:`ValidationError`."""
    if group.family not in LINEAR_FAMILIES:
        raise ValidationError(f"no linear eigenfamily on {group}")
    n, p = group.n, default_point(group.n) if p is None else p
    if group.family == "SO":
        return so_family_V(n, p, maximal_isotropic_basis(n))
    return {"U": u_family, "SU": su_family, "Sp": sp_family}[group.family](n, p)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def verify_eigenfamily(
    fam: Eigenfamily,
    basis: SignedBasis,
    samples,
    tol: float = 1e-8,
) -> VerificationReport:
    """Measure max |tau(phi) - lambda phi| and |kappa(phi, psi) - mu phi psi|
    over all samples and all ordered member pairs (diagonal included).

    ``samples`` are group points or a :func:`frame_operators` table of the
    family members on ``basis``; with none, :class:`InconclusiveError`.
    """
    if basis.group != fam.group:
        raise ValidationError(
            f"basis of {basis.group} does not match family on {fam.group}"
        )
    with timed_report() as clock:
        ops = frame_operators(fam.members, samples, basis)
        if not len(ops):
            raise InconclusiveError("no samples; cannot verify the eigenfamily")
        tau_res = _maxabs(ops.tau - fam.lam * ops.values)
        outer = ops.values[:, :, None] * ops.values[:, None, :]
        kappa_res = _maxabs(ops.kappa - fam.mu * outer)
    notes = {"lambda": [fam.lam.real, fam.lam.imag], "mu": [fam.mu.real, fam.mu.imag]}
    if isinstance(samples, SampleSet):
        notes["max_group_defect"] = samples.max_defect
    return VerificationReport(
        check="eigenfamily",
        target=str(fam.group),
        params={
            "members": len(fam.members),
            "provenance": fam.provenance,
            "basis_size": len(basis),
        },
        residuals={"tau": tau_res, "kappa": kappa_res},
        tol=tol,
        samples_used=len(ops),
        wall_time=clock.elapsed,
        notes=notes,
    )


@cache
def _side_by_side(group: GroupId) -> np.ndarray:
    """The compact frame of ``group`` side by side, [Z_0 | Z_1 | ...] of
    shape (n, B n), so that one product x [Z_0 | Z_1 | ...] gives every x Z_b.

    Each column of a compact basis matrix has at most one nonzero entry, and
    that entry is real or imaginary.  So every entry of x Z_b is one rounded
    product, whatever the BLAS kernel or the matrix around it, and the wide
    product has the values of the B narrow ones (a zero may change sign,
    which no residual sees)."""
    zs = compact_basis(group).matrices
    assert np.count_nonzero(zs, axis=1).max(initial=0) <= 1, f"{group}: a basis column has two nonzeros"
    assert not np.any(zs.real * zs.imag), f"{group}: a basis entry is neither real nor imaginary"
    side = zs.transpose(1, 0, 2).reshape(zs.shape[1], -1)  # (n, 0) for an empty frame
    side.setflags(write=False)
    return side


def _coordinate_tables(q, basis: SignedBasis):
    """tau table T[s,i,j] = (q_s C)_ij, with C the frame's Casimir, and kappa
    4-tensor K[s,i,j,k,l] = sum_b eps_b (q_s Z_b)_ij (q_s Z_b)_kl over a
    block q of coordinate rows, in the dtype of q (float64 only for a real
    frame).  A float64 block reads float64 copies of the side-by-side frame
    and the Casimir: the Casimir is diagonal and each side-by-side column has
    one nonzero, so each table entry is one rounded product either way."""
    (s, r, m), b = q.shape, len(basis)
    side, casimir = _side_by_side(basis.group), basis.casimir
    if not np.iscomplexobj(q):
        side, casimir = np.ascontiguousarray(side.real), np.ascontiguousarray(casimir.real)
    flat = (q @ side).reshape(s, r, b, m).transpose(0, 2, 1, 3).reshape(s, b, r * m)
    k4 = (flat.transpose(0, 2, 1) * basis.signs) @ flat
    return q @ casimir, k4.reshape(s, r, m, r, m)


def _outer(a, b) -> np.ndarray:
    """The 4-tensor a_il b_kj at every sample of two blocks of r rows, laid
    out (s, i, l, k, j): the outer product of the flattened a and b.
    Complex blocks keep einsum's product, real ones multiply."""
    (s, r, c), d = a.shape, b.shape[2]
    fa, fb = a.reshape(s, r * c), b.reshape(s, r * d)
    if np.iscomplexobj(a):
        out = np.einsum("sa,sb->sab", fa, fb)
    else:
        out = np.multiply(fa[:, :, None], fb[:, None, :])
    return out.reshape(s, r, c, r, d)


# The compact families whose coordinate functions have stated tau/kappa
# relations in verify_coordinate_lemmas.
LEMMA_FAMILIES = ("SO", "U", "Sp")


def verify_coordinate_lemmas(
    group: GroupId, samples, tol: float = 1e-8
) -> VerificationReport:
    """Check every stated tau/kappa relation of the coordinate functions on
    SO(n), U(n) or Sp(n), for all index combinations at every sample.

    The coordinate rows q are all of x on SO(n) and U(n), and the n rows
    [z | w] of the quaternionic embedding on Sp(n).  Every kappa relation
    reads kappa(q_ij, q_kl) = -c (q_il q_kj - D_ik delta_jl): c = 1/2 and
    D = x x^t (or delta_ik on the group) on SO(n); c = 1 and no D on U(n);
    c = 1/2 on Sp(n), where D = z w^t - w z^t enters only for j on z and
    l = j + n on w.  The tables are measured on the group's frame, never
    from the stated constants: tau from its Casimir, kappa from the
    products q Z_b, both on the coordinate rows alone.  Samples go through
    in blocks whose largest table, (rows x matrix_dim)^2 entries a sample,
    fills about ``_BLOCK_BYTES``.  Each block builds the cross tensor
    q_il q_kj, an outer product of the flattened rows laid out
    (s, i, l, k, j), and the residuals in place on it: the D terms are
    subtracted on diagonal slices, c is applied (exactly) and the measured
    4-tensor, read in that layout, added.  On SO(n) the two relations agree
    off the slices j = l, so one tensor, those slices zeroed, gives the
    largest entry of both there, and only the slices go through each D
    term.  On Sp(n) kappa_zz is one tensor and kappa_ww and kappa_zw are
    slices of a second, l on w; the quarter with l on z and j on w, which
    symmetry of kappa leaves unread, is never built.  An SO(n) stack with
    no imaginary part, every point the sampler draws, is checked in
    float64: each step's real part rounds as in complex arithmetic, so the
    residuals are those of the complex stack.  Every step acts on each
    sample alone, so the residuals do not depend on the block size.  An
    empty stack raises :class:`InconclusiveError`."""
    if group.family not in LEMMA_FAMILIES:
        raise ValidationError(f"no coordinate relations for {group.family!r}")
    basis = compact_basis(group)
    n = group.n
    diag = np.arange(n)  # the slices [:, :, j, :, j]: axes 2 and 4 equal
    res: dict[str, float] = {}

    def bump(key, *peaks):
        res[key] = max(res.get(key, 0.0), *peaks)

    with timed_report() as clock:
        stack = stack_samples(samples, basis)
        if not len(stack):
            raise InconclusiveError("no samples; cannot verify the coordinate lemmas")
        if group.family == "SO" and not np.any(stack.imag):
            stack = np.ascontiguousarray(stack.real)
        per_sample = stack.itemsize * (n * group.matrix_dim) ** 2
        block = max(1, _BLOCK_BYTES // per_sample)
        for lo in range(0, len(stack), block):
            q = stack[lo : lo + block, :n]
            t, k4 = _coordinate_tables(q, basis)
            k4 = k4.transpose(0, 1, 4, 3, 2)  # kappa(q_ij, q_kl) at [:, i, l, k, j]
            if group.family == "SO":
                bump("tau", _maxabs(t + (n - 1) / 2.0 * q))
                cross = _outer(q, q)
                # the slices j = l, laid out (j, s, i, k)
                on_slices, k4_slices = cross[:, :, diag, :, diag], k4[:, :, diag, :, diag]
                # k4 - general, general = -1/2 (x_il x_kj - (x x^t)_ik delta_jl)
                general = on_slices - q @ q.transpose(0, 2, 1)
                general *= 0.5
                general += k4_slices
                # k4 - on_group, on_group = 1/2 (delta_ik delta_jl - x_il x_kj)
                on_slices[:, :, diag, diag] -= 1.0
                on_slices *= 0.5
                on_slices += k4_slices
                # off the slices both are k4 + 1/2 x_il x_kj
                cross *= 0.5
                cross += k4
                cross[:, :, diag, :, diag] = 0.0
                off = _maxabs(cross)
                bump("kappa_general", off, _maxabs(general))
                bump("kappa_on_group", off, _maxabs(on_slices))
            elif group.family == "U":
                bump("tau", _maxabs(t + n * q))
                cross = _outer(q, q)
                cross += k4
                bump("kappa", _maxabs(cross))
            else:
                tau = t + (2 * n + 1) / 2.0 * q
                bump("tau_z", _maxabs(tau[:, :, :n]))
                bump("tau_w", _maxabs(tau[:, :, n:]))
                z, w = q[:, :, :n], q[:, :, n:]
                zz = _outer(z, z)
                zz *= 0.5
                zz += k4[:, :, :n, :, :n]
                bump("kappa_zz", _maxabs(zz))
                # l on w: kappa(q_ij, w_kl) = -1/2 (w_il q_kj - anti_ik delta_jl),
                # the delta term only for j on z
                anti = z @ w.transpose(0, 2, 1) - w @ z.transpose(0, 2, 1)
                wq = _outer(w, q)
                wq[:, :, diag, :, diag] -= anti
                wq *= 0.5
                wq += k4[:, :, n:]
                bump("kappa_ww", _maxabs(wq[:, :, :, :, n:]))
                bump("kappa_zw", _maxabs(wq[:, :, :, :, :n]))
                bump("zw_antisymmetry", _maxabs(anti))
    notes = {}
    if isinstance(samples, SampleSet):
        notes["max_group_defect"] = samples.max_defect
    return VerificationReport(
        check="coordinate-lemmas",
        target=str(group),
        params={"n": n, "basis_size": len(basis)},
        residuals=res,
        tol=tol,
        samples_used=len(stack),
        wall_time=clock.elapsed,
        notes=notes,
    )


def measure_constants_residual(fam: Eigenfamily, basis: SignedBasis, samples) -> dict:
    """Compare the stored constants against direct jet measurements.

    Returns max |tau(phi)/phi - lambda| and |kappa(phi,phi)/phi^2 - mu| over
    members and samples, skipping points where |phi| <= VALUE_FLOOR; with
    no value above it, :class:`InconclusiveError`.  ``samples`` may be a
    :func:`frame_operators` table, as for :func:`verify_eigenfamily`.
    """
    ops = frame_operators(fam.members, samples, basis)
    mask = np.abs(ops.values) > VALUE_FLOOR
    if not mask.any():
        raise InconclusiveError(f"no member value above {VALUE_FLOOR}; cannot measure the constants")
    f0 = ops.values[mask]
    kappa_diag = np.diagonal(ops.kappa, axis1=1, axis2=2)[mask]
    return {
        "lambda_measurement": _maxabs(ops.tau[mask] / f0 - fam.lam),
        "mu_measurement": _maxabs(kappa_diag / (f0 * f0) - fam.mu),
    }
