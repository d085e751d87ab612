"""Compact/non-compact duality for eigenfamilies.

Each non-compact classical group G is realized as the aligned real form
inside the ambient complex matrices of its compact partner U: a Cartan
involution theta on the compact algebra u splits it into k = fix(theta) and
the anti-fixed part m, and the algebra of G is k + i m.  Frames of k carry
sign -1 and frames of i m carry sign +1 under Re trace(Z W), so the signed
tau/kappa sums of :mod:`lgh.jets` evaluate the semi-Riemannian operators of
G directly.

Polynomial eigenfamilies continue across the duality unchanged as
functions of the entries; their constants flip sign.  Families whose
defining identities hold only on the compact group (those built from an
isotropic point via x x^t = I) do not continue; the probe records how far
off they land.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConstructionError, ValidationError
from .exprs import Expr, HomPoly
from .families import (
    Eigenfamily,
    maximal_isotropic_basis,
    so_family_V,
    sp_family,
    su_family,
    verify_eigenfamily,
)
from .jets import stack_samples
from .matrices import (
    GroupId,
    SignedBasis,
    compact_basis,
    gram_schmidt_indefinite,
    signature_matrix,
    symplectic_matrix,
)
from .report import VerificationReport, timed_report
from .sampling import GroupSampler, SampleSet, group_defect


@dataclass
class DualPair:
    """A non-compact group, its compact partner, and the aligned frames."""

    noncompact: GroupId
    compact: GroupId
    k_basis: SignedBasis  # fix(theta), signs -1
    p_basis: SignedBasis  # i * antifix(theta), signs +1
    frame: SignedBasis  # the full signed orthonormal frame k (-1) then p (+1)
    residuals: dict


def _involution(gid: GroupId):
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
    if f == "Sppq":
        k = np.kron(np.eye(2), signature_matrix(gid.p, gid.q))
        return lambda z: k @ z @ k
    raise ValidationError(f"no Cartan involution for family {f!r}")


def _pair_residuals(theta, base: SignedBasis, k: SignedBasis, p: SignedBasis, frame: SignedBasis) -> dict:
    zs = base.matrices
    res = {}
    res["involution"] = float(np.max(np.abs(theta(theta(zs)) - zs))) if len(base) else 0.0
    # automorphism on all compact basis pairs: theta[Z, W] = [theta Z, theta W]
    tz = theta(zs)
    brackets = zs[:, None] @ zs - zs @ zs[:, None]
    theta_brackets = tz[:, None] @ tz - tz @ tz[:, None]
    res["automorphism"] = float(np.max(np.abs(theta(brackets) - theta_brackets), initial=0.0))

    def wrong_component(brackets, wrong: SignedBasis) -> float:
        if not len(wrong) or not brackets.size:
            return 0.0
        coords = np.einsum("...ij,cji->...c", brackets, wrong.matrices).real
        coords = coords * wrong.signs
        return float(np.sqrt(np.max(np.sum(coords**2, axis=-1)))) if coords.size else 0.0

    # [k, k] in k, [k, p] in p, [p, p] in k: the component outside is wrong
    closure = 0.0
    for a, b, wrong in ((k.matrices, k.matrices, p), (k.matrices, p.matrices, k), (p.matrices, p.matrices, p)):
        ab = np.einsum("aij,bjk->abik", a, b) - np.einsum("bij,ajk->abik", b, a)
        closure = max(closure, wrong_component(ab, wrong))
    res["bracket_closure"] = closure

    # Gram matrix of Re trace(Z W) over the frame k then p
    gram = np.einsum("aij,bji->ab", frame.matrices, frame.matrices).real
    res["sign_normalization"] = float(np.max(np.abs(np.diagonal(gram) - frame.signs), initial=0.0))
    res["orthogonality"] = float(np.max(np.abs(np.triu(gram, 1)), initial=0.0))
    return res


_TOLERANCES = {
    "involution": 1e-12,
    "automorphism": 1e-10,
    "bracket_closure": 1e-9,
    "sign_normalization": 1e-10,
    "orthogonality": 1e-10,
}


def _build_pair(noncompact: GroupId, compact: GroupId, theta) -> DualPair:
    base = compact_basis(compact)
    zs = base.matrices
    tz = theta(zs)
    fix = [(zs[i] + tz[i]) / 2.0 for i in range(len(base))]
    anti = [(zs[i] - tz[i]) / 2.0 for i in range(len(base))]
    k = gram_schmidt_indefinite(fix, noncompact, drop_dependent=True)
    p = gram_schmidt_indefinite([1j * m for m in anti], noncompact, drop_dependent=True)
    if len(k) + len(p) != len(base):
        raise ConstructionError(
            f"{noncompact}: dim k + dim p = {len(k)} + {len(p)} != dim u = {len(base)}"
        )
    if any(v.sign != -1 for v in k) or any(v.sign != +1 for v in p):
        raise ConstructionError(f"{noncompact}: unexpected frame signs")
    frame = SignedBasis(noncompact, k.vectors + p.vectors)
    res = _pair_residuals(theta, base, k, p, frame)
    bad = {key: val for key, val in res.items() if val >= _TOLERANCES[key]}
    if bad:
        raise ConstructionError(f"{noncompact}: frame checks out of tolerance: {bad}")
    return DualPair(noncompact, compact, k, p, frame, res)


def dual_pair(gid: GroupId) -> DualPair:
    """Construct the aligned dual pair for a non-compact classical group."""
    return _build_pair(gid, gid.compact_partner, _involution(gid))


def identity_pair(compact: GroupId) -> DualPair:
    """Degenerate pair with theta = id: k is the whole compact algebra.

    The signed tau/kappa sums then equal minus the compact ones, so a
    compact eigenfamily 'dualizes' to itself with negated constants; used to
    cross-check sign conventions.
    """
    return _build_pair(compact, compact, lambda z: z)


# ---------------------------------------------------------------------------
# holomorphic continuation
# ---------------------------------------------------------------------------

def continue_function(f):
    """Holomorphic continuation of a member or of a polynomial in members.

    Entry coordinates, linear traces and polynomials in continuable members
    are their own continuation, so ``f`` is returned unchanged; anything
    else (entrywise conjugation, say) is rejected.
    """
    if isinstance(f, HomPoly):
        for arg in f.args:
            continue_function(arg)
    elif not isinstance(f, Expr):
        raise ValidationError(f"{type(f).__name__} is not a holomorphic member or polynomial")
    return f


# ---------------------------------------------------------------------------
# sampling the non-compact side
#
# A pair's frame lives on its non-compact group (an identity pair's on the
# compact group itself), so a sampler on the frame draws and checks points
# of that group as it does on a compact basis: see lgh.sampling.GroupSampler.
# ---------------------------------------------------------------------------

def aligned_defect(pair: DualPair, xs: np.ndarray) -> np.ndarray:
    """The defects of an (S, n, n) stack in the pair's non-compact group
    (:func:`lgh.sampling.group_defect`); perfbench's layer table names it."""
    return group_defect(pair.noncompact, xs)


def sample_noncompact(pair: DualPair, count: int, radius: float = 0.5, seed: int = 42) -> SampleSet:
    """Seeded points exp(A1) exp(A2) with A in the aligned algebra k + i m."""
    return GroupSampler(pair.frame, radius, seed).take(count)


# ---------------------------------------------------------------------------
# dual verification
# ---------------------------------------------------------------------------

def _negated(pair: DualPair, fam: Eigenfamily, suffix: str) -> Eigenfamily:
    """A compact-side family moved to the pair's non-compact side with its
    constants negated and ``suffix`` on its provenance."""
    if fam.group != pair.compact:
        raise ValidationError(
            f"family lives on {fam.group}, pair expects compact side {pair.compact}"
        )
    return replace(fam, group=pair.noncompact, lam=-fam.lam, mu=-fam.mu, provenance=fam.provenance + suffix)


def dual_family(pair: DualPair, fam: Eigenfamily) -> Eigenfamily:
    """Continue a compact-side family to the non-compact side: members are
    unchanged polynomials, constants flip sign."""
    dual = _negated(pair, fam, "-dual")
    if not fam.dual_continuable:
        raise ValidationError(
            f"family {fam.provenance!r} relies on compact-only identities and "
            "does not continue across the duality"
        )
    for member in fam.members:
        continue_function(member)
    return dual


def verify_dual_eigenfamily(
    pair: DualPair,
    fam: Eigenfamily,
    samples,
    tol: float = 1e-8,
) -> VerificationReport:
    """Verify the continued family on non-compact samples with the signed
    frame: tau and kappa must hit the negated compact constants.  With no
    sample, :class:`InconclusiveError`."""
    dfam = dual_family(pair, fam)
    rep = verify_eigenfamily(dfam, pair.frame, samples, tol=tol)
    rep.check = "dual-eigenfamily"
    rep.target = f"{pair.noncompact} ~ {pair.compact}"
    rep.notes["compact_lambda"] = [fam.lam.real, fam.lam.imag]
    rep.notes["compact_mu"] = [fam.mu.real, fam.mu.imag]
    rep.notes.update({f"frame_{k}": v for k, v in pair.residuals.items()})
    return rep


def probe_noncontinuable(
    pair: DualPair, fam: Eigenfamily, samples
) -> VerificationReport:
    """Record (without judging) the dual residuals of a family built from an
    isotropic point.

    The construction of this family leans on x x^t = I, an identity of the
    compact group, so it is excluded from :func:`verify_dual_eigenfamily`.
    The probe evaluates the dual equations anyway and reports the residual
    magnitudes.  Note that the aligned real form lives inside the complex
    orthogonal group, where x x^t = I continues to hold; the recorded
    residuals stay small there even though the constructing argument does
    not transfer.  The report is informational: tol is +inf.
    """
    if fam.provenance != "so-isotropic-point":
        raise ValidationError("probe expects a family built from an isotropic point")
    target = _negated(pair, fam, "-probe")
    with timed_report() as clock:
        points = stack_samples(samples, pair.frame)
        if len(points):
            rep = verify_eigenfamily(target, pair.frame, points, tol=np.inf)
            residuals = rep.residuals
        else:
            residuals = {}
    out = VerificationReport(
        check="probe-noncontinuable",
        target=f"{pair.noncompact} ~ {pair.compact}",
        params={"members": len(fam.members), "provenance": fam.provenance},
        residuals=residuals,
        tol=float("inf"),
        samples_used=len(points),
        wall_time=clock.elapsed,
        notes={"informational": True},
    )
    return out


# ---------------------------------------------------------------------------
# default compact families per pair (used by the CLI and the suite)
# ---------------------------------------------------------------------------

def default_compact_family(pair: DualPair) -> Eigenfamily:
    """A canonical continuable eigenfamily on the compact partner."""
    g = pair.compact
    e1 = np.zeros(g.n, dtype=complex)
    e1[0] = 1.0
    if g.family == "SU":
        return su_family(g.n, e1)
    if g.family == "Sp":
        return sp_family(g.n, e1)
    if g.family == "SO":
        V = maximal_isotropic_basis(g.n)
        if not V:
            raise ValidationError(f"no isotropic directions in C^{g.n}")
        return so_family_V(g.n, e1, V)
    raise ValidationError(f"no default family for compact group {g}")
