"""Compact/non-compact duality for eigenfamilies.

Each non-compact classical group G is realized as the aligned real form
inside the ambient complex matrices of its compact partner U: the Cartan
involution theta that G's real structure in ``matrices.FAMILIES`` induces
on the compact algebra u (:func:`lgh.matrices.real_structure`) splits it
into k = fix(theta) and the anti-fixed part m, and the algebra of G is
k + i m.  Frames of k carry
sign -1 and frames of i m carry sign +1 under Re trace(Z W), so the signed
tau/kappa sums of :mod:`lgh.jets` evaluate the semi-Riemannian operators of
G directly.  The group alone fixes that frame: :func:`dual_pair` builds it
once per group, and :func:`group_frame` gives every check the frame of its
group, compact or not.

Polynomial eigenfamilies continue across the duality unchanged as
functions of the entries; their constants flip sign.  That holds for every
family lgh builds, those whose construction uses x x^t = I included: the
compact group is Zariski-dense in its complexification, where a polynomial
identity of the compact group holds too, and each aligned real form lies
inside that complexification.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from types import MappingProxyType

import numpy as np

from .errors import ConstructionError, ValidationError
from .families import Eigenfamily, default_family, verify_eigenfamily
from .matrices import NONCOMPACT_FAMILIES, GroupId, SignedBasis, compact_basis, gram_schmidt_indefinite, real_structure
from .report import VerificationReport
from .sampling import GroupSampler, SampleSet, group_defect


@dataclass(frozen=True)
class DualPair:
    """A non-compact group, its compact partner, the aligned frames and the
    frame checks, read-only."""

    noncompact: GroupId
    compact: GroupId
    k_basis: SignedBasis  # fix(theta), signs -1
    p_basis: SignedBasis  # i * antifix(theta), signs +1
    frame: SignedBasis  # the full signed orthonormal frame k (-1) then p (+1)
    residuals: MappingProxyType


def _pair_residuals(theta, base: SignedBasis, k: SignedBasis, p: SignedBasis, frame: SignedBasis) -> dict:
    """The frame checks of a pair.  Brackets are formed one frame vector at
    a time, B of them, never all B^2 at once."""
    zs = base.matrices
    res = {}
    res["involution"] = float(np.max(np.abs(theta(theta(zs)) - zs), initial=0.0))
    # automorphism on all compact basis pairs: theta[Z, W] = [theta Z, theta W]
    tz = theta(zs)
    res["automorphism"] = max(
        (float(np.max(np.abs(theta(z @ zs - zs @ z) - (t @ tz - tz @ t)))) for z, t in zip(zs, tz)), default=0.0
    )

    def wrong_component(brackets, wrong: SignedBasis) -> float:
        coords = np.einsum("...ij,cji->...c", brackets, wrong.matrices).real * wrong.signs
        return float(np.sqrt(np.max(np.sum(coords**2, axis=-1), initial=0.0)))

    # [k, k] in k, [k, p] in p, [p, p] in k: the component outside is wrong
    closure = 0.0
    for a, b, wrong in ((k.matrices, k.matrices, p), (k.matrices, p.matrices, k), (p.matrices, p.matrices, p)):
        for x in a:
            ab = np.einsum("ij,bjk->bik", x, b) - np.einsum("bij,jk->bik", b, x)
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
    k = gram_schmidt_indefinite((zs + tz) / 2.0, noncompact, drop_dependent=True)
    p = gram_schmidt_indefinite(1j * ((zs - tz) / 2.0), noncompact, drop_dependent=True)
    if len(k) + len(p) != len(base):
        raise ConstructionError(
            f"{noncompact}: dim k + dim p = {len(k)} + {len(p)} != dim u = {len(base)}"
        )
    if np.any(k.signs != -1) or np.any(p.signs != +1):
        raise ConstructionError(f"{noncompact}: unexpected frame signs")
    frame = SignedBasis(noncompact, np.concatenate([k.matrices, p.matrices]), np.concatenate([k.signs, p.signs]))
    res = _pair_residuals(theta, base, k, p, frame)
    bad = {key: val for key, val in res.items() if val >= _TOLERANCES[key]}
    if bad:
        raise ConstructionError(f"{noncompact}: frame checks out of tolerance: {bad}")
    return DualPair(noncompact, compact, k, p, frame, MappingProxyType(res))


@cache
def dual_pair(gid: GroupId) -> DualPair:
    """The aligned dual pair of a non-compact classical group, theta the
    Cartan involution of its real structure.  Built once per group: every
    call with the same group returns the same (shared, read-only) pair."""
    if gid.family not in NONCOMPACT_FAMILIES:
        raise ValidationError(f"{gid} is not a non-compact classical group")
    return _build_pair(gid, gid.compact_partner, real_structure(gid).theta)


def group_frame(group: GroupId) -> SignedBasis:
    """The frame every check on ``group`` samples and measures with: a
    compact group's :func:`~lgh.matrices.compact_basis`, a non-compact
    group's :func:`dual_pair` frame; either is built once per process."""
    return dual_pair(group).frame if group.family in NONCOMPACT_FAMILIES else compact_basis(group)


def identity_pair(compact: GroupId) -> DualPair:
    """Degenerate pair with theta = id: k is the whole compact algebra.

    The signed tau/kappa sums then equal minus the compact ones, so a
    compact eigenfamily 'dualizes' to itself with negated constants; used to
    cross-check sign conventions.
    """
    return _build_pair(compact, compact, real_structure(compact).theta)


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

def dual_family(pair: DualPair, fam: Eigenfamily) -> Eigenfamily:
    """Continue a compact-side family to the non-compact side: members are
    unchanged polynomials, constants flip sign.  Only polynomials in the
    entries continue so; :func:`lgh.jets.frame_operators` refuses any other
    member when the family is measured."""
    if fam.group != pair.compact:
        raise ValidationError(
            f"family lives on {fam.group}, pair expects compact side {pair.compact}"
        )
    return replace(fam, group=pair.noncompact, lam=-fam.lam, mu=-fam.mu, provenance=fam.provenance + "-dual")


def verify_dual_eigenfamily(
    pair: DualPair,
    fam: Eigenfamily,
    samples,
    tol: float = 1e-8,
) -> VerificationReport:
    """Verify the continued family on non-compact samples with the signed
    frame: tau and kappa must hit the negated compact constants.  The pair's
    frame checks are residuals too, ``frame_<check>``, gated by ``tol`` as
    tau and kappa are (:func:`dual_pair` holds them far below it).  With no
    sample, :class:`InconclusiveError`."""
    dfam = dual_family(pair, fam)
    rep = verify_eigenfamily(dfam, pair.frame, samples, tol=tol)
    rep.check = "dual-eigenfamily"
    rep.target = f"{pair.noncompact} ~ {pair.compact}"
    rep.residuals.update({f"frame_{k}": v for k, v in pair.residuals.items()})
    rep.notes["compact_lambda"] = [fam.lam.real, fam.lam.imag]
    rep.notes["compact_mu"] = [fam.mu.real, fam.mu.imag]
    return rep


# perfbench's layer table names this alias; every dual family, the
# isotropic-point family included, is verified by verify_dual_eigenfamily.
probe_noncontinuable = verify_dual_eigenfamily


# ---------------------------------------------------------------------------
# default compact families per pair (used by the CLI and the suite)
# ---------------------------------------------------------------------------

def default_compact_family(pair: DualPair) -> Eigenfamily:
    """The compact partner's :func:`lgh.families.default_family`."""
    return default_family(pair.compact)
