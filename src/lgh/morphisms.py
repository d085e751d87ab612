"""Harmonic morphisms built from eigenfamilies.

A quotient P/Q of two independent homogeneous polynomials of equal degree
in the members of one eigenfamily is harmonic and horizontally conformal
wherever Q does not vanish: tau(P/Q) = 0 and kappa(P/Q, P/Q) = 0.  Power
families supply the constants of the degree-k polynomials: the degree-k
monomials in the members form an eigenfamily with (lambda_k, mu_k).
Orthogonal families (lambda = mu = 0) stay closed under polynomial
composition: a polynomial of any degrees in their members is again a
:class:`HomPoly` over the members.

The verifiers work at the operator level.  The frame-operator kernel
measures the member values phi_a, tau(phi_a) and kappa(phi_a, phi_b) once
per sample.  For one total degree d, every degree-d monomial in the members
gets its value, gradient and tau from those by the chain rule of
:mod:`lgh.exprs` (:func:`lgh.exprs.polynomials`).  Every polynomial is a
:class:`HomPoly` over exactly the family's members, and a coefficient row
over their monomials, so K quotients P_k/Q_k are one (2K, M) coefficient
matrix, and a few contractions give P, Q, tau(P), tau(Q), kappa(P, P),
kappa(P, Q) and kappa(Q, Q) of all of them (:func:`quotient_pairs`).  The
quotient condition reduces those tables directly.  The quotient rule runs
here only, once on every in-domain (sample, quotient) entry
(:func:`quotient_operators`): F(P, Q) = P/Q has gradient (1/Q, -P/Q^2)
and Hessian [[0, -1/Q^2], [-1/Q^2, 2P/Q^3]] in (P, Q)
(:meth:`RationalMorphism.derivatives`).  A quotient is never a
frame-table member.  The domain screen reads Q from the same pair tables
(:func:`_screen`), so no Q is computed twice.

The member tau and kappa are measured, never taken from the family's stated
(lambda, mu), so a wrong member list shows up as a failing residual.

The seeded factory (:func:`random_morphisms`) reads its stream as one block
and hands every rare case, a proportional pair or a one-member family, to
the one-quotient draw (:func:`random_morphism`), which redraws or refuses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, InconclusiveError, ValidationError
from .exprs import HomPoly, _coefficients, _layout, _over_members, _term_degrees, chain_tau, polynomials
from .families import Eigenfamily
from .jets import FrameOperators, frame_operators, stack_samples
from .matrices import SignedBasis
from .report import VerificationReport, timed_report
from .sampling import SplitMix64


def power_constants(lam: complex, mu: complex, k: int) -> tuple[complex, complex]:
    """(lambda_k, mu_k) = (k lambda + k(k-1) mu, k^2 mu) for degree-k products."""
    return k * lam + k * (k - 1) * mu, k * k * mu


def power_family(fam: Eigenfamily, k: int) -> Eigenfamily:
    """The degree-k monomials in the members of ``fam``, an eigenfamily with
    the constants (lambda_k, mu_k) of :func:`power_constants`."""
    if k < 1:
        raise ValidationError("power family needs k >= 1")
    members = [HomPoly({expo: 1.0}, fam.members) for expo in _layout(len(fam.members), (k,))[0]]
    lam_k, mu_k = power_constants(fam.lam, fam.mu, k)
    return Eigenfamily(
        group=fam.group,
        members=members,
        lam=lam_k,
        mu=mu_k,
        provenance=f"{fam.provenance}-power-{k}",
    )


@dataclass
class RationalMorphism:
    """Quotient P/Q of equal-degree homogeneous polynomials in a family.

    It is not a member: :func:`frame_operators` rejects it.  Its P and Q
    are coefficient rows over the members' monomials, and
    :meth:`derivatives`, the quotient rule in (P, Q), runs only in the
    morphism kernel (:func:`quotient_operators`).
    """

    family: Eigenfamily
    numerator: HomPoly
    denominator: HomPoly
    floor: float = 1e-3

    @property
    def degree(self) -> int:
        return self.numerator.degree

    def derivatives(self, values):
        """Value p/q (S,), gradient (S, 2) and Hessian (S, 2, 2) in (p, q),
        at stacked argument values of shape (S, 2).

        Raises :class:`DomainError` when any |q| is at or below the floor.
        """
        values = np.asarray(values, dtype=complex)
        p, q = values[:, 0], values[:, 1]
        if np.any(np.abs(q) <= self.floor):
            raise DomainError("denominator at or below the domain floor", node=self, value=q)
        inv = 1.0 / q
        inv2 = inv * inv
        grad = np.stack([inv, -p * inv2], axis=-1)
        hess = np.zeros((len(q), 2, 2), dtype=complex)
        hess[:, 0, 1] = hess[:, 1, 0] = -inv2
        hess[:, 1, 1] = 2.0 * p * inv2 * inv
        return p * inv, grad, hess

    def in_domain(self, x) -> bool:
        """|Q(x)| > floor, with Q evaluated as the verifier screens samples."""
        empty = SignedBasis(self.family.group, (), ())
        table = frame_operators(self.family.members, [x], empty)
        return bool(_screen(table, _groups([self.numerator], [self.denominator]), 1, self.floor)[1][0, 0])


# relative Gram determinant at or below which two coefficient rows count as
# proportional
_PROPORTIONAL_TOL = 1e-12


def _proportional_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Whether row k of ``u`` (K, M) is proportional to row k of ``v``: whether
    the Gram determinant |u|^2 |v|^2 - |<u, v>|^2 is at most
    ``_PROPORTIONAL_TOL`` |u|^2 |v|^2,
    as it is when either row is zero.  Real products and one sum per row,
    so a row's verdict does not depend on the rows beside it."""
    ur, ui, vr, vi = u.real, u.imag, v.real, v.imag
    uu = (ur * ur + ui * ui).sum(axis=-1)
    vv = (vr * vr + vi * vi).sum(axis=-1)
    re, im = (ur * vr + ui * vi).sum(axis=-1), (ur * vi - ui * vr).sum(axis=-1)
    scale = uu * vv
    return scale - (re * re + im * im) <= _PROPORTIONAL_TOL * scale


def _proportional(p: HomPoly, q: HomPoly) -> bool:
    u, v = _coefficients([p, q], _term_degrees(p, q))
    return bool(_proportional_rows(u[None], v[None])[0])


def quotient_morphism(fam: Eigenfamily, P, Q, floor: float = 1e-3) -> RationalMorphism:
    """Build P/Q over the family members; P, Q may be coefficient maps
    (exponent tuple -> coefficient) or ready HomPoly nodes."""
    pn, qn = (f if isinstance(f, HomPoly) else HomPoly(f, fam.members) for f in (P, Q))
    for name, poly in (("numerator", pn), ("denominator", qn)):
        if not poly.homogeneous:
            raise ValidationError(f"{name} mixes total degrees; P/Q needs homogeneous P and Q")
    if pn.degree != qn.degree:
        raise ValidationError(
            f"degrees differ: numerator {pn.degree}, denominator {qn.degree}"
        )
    _over_members((pn, qn), fam.members)
    if _proportional(pn, qn):
        raise ValidationError("numerator and denominator are proportional")
    return RationalMorphism(fam, pn, qn, floor)


def mobius_transform(m: RationalMorphism, a, b, c, d) -> RationalMorphism:
    """Post-compose with (a t + b)/(c t + d): same-degree pair
    (aP + bQ, cP + dQ)."""
    if abs(a * d - b * c) < 1e-12:
        raise ValidationError("singular Mobius coefficients")
    degrees = _term_degrees(m.numerator, m.denominator)
    p, q = _coefficients([m.numerator, m.denominator], degrees).tolist()
    # Python's complex products, not numpy's, whose SIMD loops round otherwise
    rows = ([x * s + y * t for s, t in zip(p, q)] for x, y in ((a, b), (c, d)))
    expos = _layout(len(m.family.members), degrees)[0]
    pc, qc = ({e: v for e, v in sorted(zip(expos, row)) if v != 0.0} for row in rows)
    return quotient_morphism(m.family, pc, qc, m.floor)


# ---------------------------------------------------------------------------
# the kernel: pair tables and the quotient rule
# ---------------------------------------------------------------------------

@dataclass
class QuotientPairs:
    """P, Q, tau(P), tau(Q), kappa(P, P), kappa(P, Q) and kappa(Q, Q) of K
    pairs (P_k, Q_k) at S samples, each C-ordered (S, K)."""

    p: np.ndarray
    q: np.ndarray
    tau_p: np.ndarray
    tau_q: np.ndarray
    kappa_pp: np.ndarray
    kappa_pq: np.ndarray
    kappa_qq: np.ndarray

    @staticmethod
    def concat(tables: list) -> "QuotientPairs":
        return QuotientPairs(*(np.concatenate([getattr(t, f.name) for t in tables]) for f in fields(QuotientPairs)))


def quotient_pairs(table: FrameOperators, degrees: tuple, coeffs: np.ndarray) -> QuotientPairs:
    """The pair table of K pairs in a member frame table's members from
    their (2K, M) coefficient block over the monomials of ``degrees``, the
    K numerator rows then the K denominator rows (see :func:`_groups`).
    kappa(F, G) = sum_ab F_a kappa(phi_a, phi_b) G_b is summed one index at
    a time, and each entry is reduced alone, so a row's bits depend neither
    on K nor on the other rows."""
    k = len(coeffs) // 2
    values, tau, grads = polynomials(table, degrees, coeffs)
    pulled = np.einsum("sab,skb->ska", table.kappa, grads)

    def kappa(f, g):
        return np.einsum("ska,ska->sk", grads[:, f], pulled[:, g])

    num, den = slice(0, k), slice(k, 2 * k)
    parts = (values[:, num], values[:, den], tau[:, num], tau[:, den])
    parts += (kappa(num, num), kappa(num, den), kappa(den, den))
    return QuotientPairs(*(np.ascontiguousarray(a) for a in parts))


def _pair_table(table: FrameOperators, degrees: tuple, coeffs: np.ndarray) -> QuotientPairs:
    """The pair table of a (2K, M) coefficient block over a member frame
    table's monomials of ``degrees``, built once per table and block.  It
    is kept in ``table.derived`` under the degrees and the block's shape and
    bytes, never an object's id, so every verifier of the same pairs on the
    table reads one table, and any other block gets its own."""
    key = ("pairs", degrees, coeffs.shape, coeffs.tobytes())
    if key not in table.derived:
        table.derived[key] = quotient_pairs(table, degrees, coeffs)
    return table.derived[key]


def _screen(table: FrameOperators, groups, count: int, floor: float):
    """The pair table of each of the degree ``groups`` (:func:`_groups`) over
    a member frame table (:func:`_pair_table`), and the mask (S, ``count``)
    of the rows where each of the ``count`` quotients has |Q| > ``floor``:
    the one domain screen, on the Q the kernel divides by."""
    tables = [_pair_table(table, degrees, coeffs) for degrees, _, coeffs in groups]
    mask = np.empty((len(table), count), dtype=bool)
    for (_, ks, _), pairs in zip(groups, tables):
        mask[:, ks] = np.abs(pairs.q) > floor
    return tables, mask


def quotient_operators(morphs, pairs: QuotientPairs, rows):
    """tau(P/Q) and kappa(P/Q, P/Q), (S, K) each, of K quotients of one
    floor from their pair table (:func:`quotient_pairs`), at the entries
    where ``rows`` (S, K) is True, and 0 elsewhere.

    The quotient rule (:meth:`RationalMorphism.derivatives`) runs once on all
    those entries together; each entry is reduced alone, so its bits depend
    neither on K nor on the other rows.
    """
    _, grad, hess = morphs[0].derivatives(np.stack([pairs.p[rows], pairs.q[rows]], axis=-1))
    tau_pq = np.stack([pairs.tau_p[rows], pairs.tau_q[rows]], axis=-1)
    k_pq = pairs.kappa_pq[rows]
    gram = np.stack([pairs.kappa_pp[rows], k_pq, k_pq, pairs.kappa_qq[rows]], axis=-1).reshape(-1, 2, 2)
    tau_vals = np.zeros(rows.shape, dtype=complex)
    kappa_vals = np.zeros(rows.shape, dtype=complex)
    tau_vals[rows] = chain_tau(grad, hess, tau_pq, gram)
    # two single sums: a three-operand einsum sums a lone row in another order
    kappa_vals[rows] = np.einsum("na,na->n", grad, np.einsum("nab,nb->na", gram, grad))
    return tau_vals, kappa_vals


def quotient_condition(fam: Eigenfamily, numerators, denominators, table: FrameOperators) -> dict:
    """The quotient-condition residuals of K pairs (P_k, Q_k) at every row
    of a member frame table, four (S, K) arrays:
    |Q^2 kappa(P,P) - PQ kappa(P,Q)|, |P^2 kappa(Q,Q) - PQ kappa(P,Q)| and
    the eigen-equation residuals |tau(P) - lambda_d P|, |tau(Q) - lambda_d Q|
    with the power constants of each polynomial's degree.  The pair tables
    are read from ``table`` when a verifier of the same pairs built them
    there (see :func:`_pair_table`)."""
    out = {key: np.empty((len(table), len(numerators))) for key in _CONDITION_KEYS}
    for degrees, ks, coeffs in _groups(numerators, denominators):
        nums, dens = [numerators[k] for k in ks], [denominators[k] for k in ks]
        pairs = _pair_table(table, degrees, coeffs)
        lam_p = np.array([power_constants(fam.lam, fam.mu, f.degree)[0] for f in nums])
        lam_q = np.array([power_constants(fam.lam, fam.mu, f.degree)[0] for f in dens])
        p, q = pairs.p, pairs.q
        out["triple_left"][:, ks] = np.abs(q * q * pairs.kappa_pp - p * q * pairs.kappa_pq)
        out["triple_right"][:, ks] = np.abs(p * p * pairs.kappa_qq - p * q * pairs.kappa_pq)
        out["tau_numerator"][:, ks] = np.abs(pairs.tau_p - lam_p * p)
        out["tau_denominator"][:, ks] = np.abs(pairs.tau_q - lam_q * q)
    return out


_CONDITION_KEYS = ("triple_left", "triple_right", "tau_numerator", "tau_denominator")


def _groups(numerators, denominators):
    """(degrees, indices, coefficient block) of the pairs that share a
    monomial table, in order of first appearance.  The block (2K, M) holds
    the numerators' rows over the monomials of ``degrees``, then the
    denominators', read-only."""
    groups: dict = {}
    for k, pair in enumerate(zip(numerators, denominators)):
        groups.setdefault(_term_degrees(*pair), []).append(k)
    out = []
    for degrees, ks in groups.items():
        coeffs = _coefficients([numerators[k] for k in ks] + [denominators[k] for k in ks], degrees)
        coeffs.setflags(write=False)
        out.append((degrees, ks, coeffs))
    return out


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

# a short quotient reads at least this many points ahead, and this many
# times its shortfall over its kept ratio so far
_BLOCK = 16
_AHEAD = 1.3


def _collect_in_domain(morphs, groups, base: FrameOperators, kept, basis, sampler, min_samples):
    """Let each quotient in turn consume from ``sampler`` its shortfall after
    the base rows, ``kept`` (S, K) marking the base rows in its domain.

    A quotient that still needs r in-domain points after the base rows
    consumes the next points of the stream up to its r-th in-domain one, or
    up to its budget (ten times the target, base rows included) when that
    comes first.  That is what a redraw in rounds of the shortfall consumes:
    a round ends the redraw only when all of its points are in domain.  The
    points come from ``sampler`` in look-ahead blocks, each measured by one
    :func:`frame_operators` call and screened once for every quotient on
    its own pair tables (:func:`_screen`), so ``sampler`` may be asked for
    more than the shortfall.  What a quotient does not consume passes to
    the next one, and what is left at the end is dropped, so ``sampler``
    may be left advanced past the last consumed point.  The counts do not
    depend on the block sizes.

    Returns each block's pair tables, one per degree group, the mask (D, K)
    of the D drawn points that each quotient consumed in its domain, and
    each quotient's (samples used, samples discarded, points of the stream
    the quotients before it consumed).
    """
    target = min_samples if min_samples is not None else len(base)
    budget = max(10 * max(target, 1), len(base)) - len(base)
    blocks, hits = [], kept[:0]
    counts, taken = [], []
    skip = 0
    for k in range(len(morphs)):
        used = int(np.count_nonzero(kept[:, k]))
        need = target - used if sampler is not None else 0
        while need > 0:
            have, held = int(np.count_nonzero(hits[skip:, k])), len(hits) - skip
            if have >= need or held >= budget:
                break
            drawn = len(base) + held
            ratio = max((used + have) / drawn if drawn else 1.0, 1 / 8)
            want = max(need - have, _BLOCK, math.ceil(_AHEAD * (need - have) / ratio))
            count = min(want, budget - held)
            batch = stack_samples(sampler(count), basis)
            if len(batch) != count:
                raise ValidationError(f"sampler returned {len(batch)} points when asked for {count}")
            block = frame_operators(base.members, batch, basis)
            tables, screened = _screen(block, groups, len(morphs), morphs[0].floor)
            blocks.append(tables)
            hits = np.concatenate([hits, screened])
        found = np.cumsum(hits[skip:, k])
        taken.append(min(int(np.searchsorted(found, need)) + 1, budget) if need > 0 else 0)
        used += int(found[taken[-1] - 1]) if taken[-1] else 0
        if not used:
            raise InconclusiveError(
                "no sample cleared the domain floor; cannot verify the morphism"
            )
        counts.append((used, len(base) + taken[-1] - used, skip))
        skip += taken[-1]
    owner = np.repeat(np.arange(len(morphs) + 1), taken + [len(hits) - skip])
    mask = hits & (owner[:, None] == np.arange(len(morphs)))
    return blocks, mask, counts


def verify_harmonic_morphism(
    m,
    basis: SignedBasis,
    samples,
    tol: float = 1e-8,
    min_samples: int | None = None,
    sampler=None,
) -> VerificationReport:
    """Measure max |tau(P/Q)| and |kappa(P/Q, P/Q)| over in-domain samples.

    ``m`` is one :class:`RationalMorphism`, or a sequence of them over one
    family and one floor.  ``samples`` may already be the family members'
    frame table (see :func:`frame_operators`).  Each quotient screens its
    own domain: samples where its |Q| falls to the floor are discarded, and
    when a ``sampler(count)`` callable is supplied and r in-domain samples
    are still missing, the quotient consumes the stream up to its r-th
    in-domain point, or up to ten times the requested count in all.  A
    quotient that exhausts that budget is verified on the in-domain samples
    it found, however few (``samples_used`` says how many); only one with
    no in-domain sample at all raises :class:`InconclusiveError`.
    ``sampler`` must return ``count`` points (else
    :class:`ValidationError`); it may be asked for more than the shortfall,
    and may be left advanced past the last point the quotients consumed
    (see :func:`_collect_in_domain`).  The quotients consume the stream in
    their order, so each one's samples are those of a run of it alone after
    the ones before it.  The base rows and each look-ahead block are
    screened on their own pair tables (:func:`_screen`), and one kernel call
    per monomial table reduces those same tables (:func:`quotient_operators`).
    :func:`verify_quotient_condition` on the same pairs and frame table
    reads the base rows' tables (:func:`_pair_table`).

    For a sequence the residuals are the maxima over all quotients, the
    sample counts their sums, and ``notes`` gives, for the worst tau and
    the worst kappa, the quotient's index and degree and how many points
    of the stream the quotients before it consumed (``sampler_skip``), so
    that it can be replayed alone.
    """
    morphs = [m] if isinstance(m, RationalMorphism) else list(m)
    if not morphs:
        raise ValidationError("no quotient to verify")
    family, floor = morphs[0].family, morphs[0].floor
    if any(k.family is not family or k.floor != floor for k in morphs):
        raise ValidationError("the quotients of one call need one family and one floor")
    members = family.members
    _over_members([f for k in morphs for f in (k.numerator, k.denominator)], members)
    with timed_report() as clock:
        base = frame_operators(members, samples, basis)
        groups = _groups([k.numerator for k in morphs], [k.denominator for k in morphs])
        tables, kept = _screen(base, groups, len(morphs), floor)
        blocks, mask, counts = _collect_in_domain(morphs, groups, base, kept, basis, sampler, min_samples)
        # a consumed point counts only for the quotient that consumed it
        rows = np.concatenate([kept, mask])
        tau_max = np.empty(len(morphs))
        kappa_max = np.empty(len(morphs))
        for g, (_, ks, _) in enumerate(groups):
            pairs = QuotientPairs.concat([tables[g]] + [block[g] for block in blocks])
            tau_vals, kappa_vals = quotient_operators([morphs[k] for k in ks], pairs, rows[:, ks])
            tau_max[ks] = np.max(np.abs(tau_vals), axis=0)
            kappa_max[ks] = np.max(np.abs(kappa_vals), axis=0)
    if isinstance(m, RationalMorphism):
        params = {"degree": m.degree, "floor": floor, "members": len(members)}
        notes = {}
    else:
        params = {"quotients": len(morphs), "floor": floor, "members": len(members)}
        notes = {
            f"worst_{name}": {"index": i, "degree": morphs[i].degree, "sampler_skip": counts[i][2]}
            for name, i in (("tau", int(np.argmax(tau_max))), ("kappa", int(np.argmax(kappa_max))))
        }
    return VerificationReport(
        check="harmonic-morphism",
        target=str(family.group),
        params=params,
        residuals={"tau": float(np.max(tau_max)), "kappa": float(np.max(kappa_max))},
        tol=tol,
        samples_used=sum(used for used, _, _ in counts),
        samples_discarded=sum(discarded for _, discarded, _ in counts),
        wall_time=clock.elapsed,
        notes=notes,
    )


def verify_quotient_condition(
    fam: Eigenfamily,
    P,
    Q,
    basis: SignedBasis,
    samples,
    tol: float = 1e-7,
) -> VerificationReport:
    """Check Q^2 kappa(P,P) = PQ kappa(P,Q) = P^2 kappa(Q,Q) at each sample,
    plus the eigen-equations tau(P) = lambda_d P and tau(Q) = lambda_d Q with
    the degree-d power constants (see :func:`quotient_condition`).

    P and Q are :class:`HomPoly` over the family members, or two
    equal-length lists of them, the pairs (P_k, Q_k); the residuals are then
    the maxima over all pairs.  ``samples`` may be the family members' frame
    table; the pair tables a :func:`verify_harmonic_morphism` of the same
    pairs kept on it are then read, not contracted again.  With no sample,
    :class:`InconclusiveError`.
    """
    single = not isinstance(P, (list, tuple))
    nums, dens = ([P], [Q]) if single else (list(P), list(Q))
    if len(nums) != len(dens) or not nums:
        raise ValidationError("the quotient condition needs as many numerators as denominators")
    _over_members(nums + dens, fam.members)
    with timed_report() as clock:
        table = frame_operators(fam.members, samples, basis)
        if not len(table):
            raise InconclusiveError("no samples; cannot verify the quotient condition")
        res = {
            key: float(np.max(val, initial=0.0))
            for key, val in quotient_condition(fam, nums, dens, table).items()
        }
    if single:
        params = {"degree_P": nums[0].degree, "degree_Q": dens[0].degree}
    else:
        params = {"pairs": len(nums)}
    return VerificationReport(
        check="quotient-condition",
        target=str(fam.group),
        params=params,
        residuals=res,
        tol=tol,
        samples_used=len(table),
        wall_time=clock.elapsed,
    )


# ---------------------------------------------------------------------------
# orthogonal harmonic families
# ---------------------------------------------------------------------------

def orthogonal_family(group, members) -> Eigenfamily:
    """An eigenfamily with lambda = mu = 0: every member is harmonic and all
    gradients pairwise isotropic."""
    return Eigenfamily(group, list(members), 0j, 0j, "orthogonal")


# ---------------------------------------------------------------------------
# seeded polynomial factory for property checks
# ---------------------------------------------------------------------------

def _disc(u: np.ndarray) -> np.ndarray:
    """Coefficients uniform on the unit disc from pairs of uniforms on the
    last axis, (..., 2N) -> (..., N): radius sqrt(u) then angle 2 pi u', the
    values of one :meth:`SplitMix64.complex_disc` call per pair."""
    rad, ang = np.sqrt(u[..., 0::2]), 2.0 * math.pi * u[..., 1::2]
    coeffs = np.empty(rad.shape, dtype=complex)
    coeffs.real, coeffs.imag = rad * np.cos(ang), rad * np.sin(ang)
    return coeffs


def _random_hompolys(members, degree: int, rng: SplitMix64, count: int) -> list:
    """``count`` dense homogeneous polynomials, one after the other in the
    stream, from one block of two uniforms per coefficient (:func:`_disc`)."""
    expos = _layout(len(members), (degree,))[0]
    rows = _disc(rng.uniforms(2 * count * len(expos)).reshape(count, 2 * len(expos)))
    rows.setflags(write=False)
    return [HomPoly.from_row(row, members, expos) for row in rows]


def random_hompoly(members, degree: int, rng: SplitMix64) -> HomPoly:
    """Dense homogeneous polynomial with coefficients uniform on the unit disc."""
    return _random_hompolys(members, degree, rng, 1)[0]


def random_morphism(
    fam: Eigenfamily, degree: int, rng: SplitMix64, floor: float = 1e-3
) -> RationalMorphism:
    """A random P/Q of two dense degree-``degree`` polynomials in the members:
    P from the next 2M uniforms of ``rng``, then Q from the 2M after them
    (M monomials of that degree, see :func:`_disc`), and while P and Q are
    proportional, a vanishing-probability event, Q again from the next 2M.

    Raises :class:`ValidationError`, before drawing, when there is only one
    degree-``degree`` monomial (one member, or degree 0): every such P and
    Q are proportional, so no quotient exists.
    """
    members = fam.members
    if len(_layout(len(members), (degree,))[0]) < 2:
        raise ValidationError(
            f"{len(members)} member(s) have a single monomial of degree {degree}; "
            "every same-degree P and Q are proportional"
        )
    p, q = _random_hompolys(members, degree, rng, 2)
    while _proportional(p, q):
        q = random_hompoly(members, degree, rng)
    return RationalMorphism(fam, p, q, floor)


# degrees a factory quotient is drawn with: 1 + (a u64 of the stream) % 3
_FACTORY_DEGREES = 3


def random_morphisms(fam: Eigenfamily, count: int, rng: SplitMix64, floor: float = 1e-3) -> list:
    """``count`` random quotients, each of a degree drawn from the stream:
    bit for bit the quotients of ``count`` rounds of
    ``random_morphism(fam, 1 + rng.next_u64() % 3, rng, floor)``, leaving
    ``rng`` where they would.

    A quotient reads one u64 d, then P and Q of degree 1 + d % 3 as
    :func:`random_morphism` does.  The stream is read as one block of the
    most the quotients could read; the degrees are walked off it, the rows
    of each degree are made and tested for proportionality together
    (:func:`_proportional_rows`), and the stream is set just after the last
    u64 read.  A pair that tests proportional, which no suite draw meets
    and every pair of a one-member family is, sets the stream back to where
    the call began, and the ``count`` rounds of :func:`random_morphism` are
    run as they are: they redraw that Q, or refuse the family.
    """
    members = fam.members
    layouts = [_layout(len(members), (d,))[0] for d in range(1, _FACTORY_DEGREES + 1)]
    raw = rng.u64s(count * (1 + 4 * max(map(len, layouts))))
    # quotient i has degree degrees[i]; its P and Q start at starts[i]
    degrees, starts, pos = [], [], 0
    for _ in range(count):
        degrees.append(1 + int(raw[pos]) % _FACTORY_DEGREES)
        starts.append(pos + 1)
        pos += 1 + 4 * len(layouts[degrees[-1] - 1])
    u = SplitMix64.unit(raw)
    polys, proportional = [None] * count, False
    for degree in sorted(set(degrees)):
        expos, ks = layouts[degree - 1], [i for i, d in enumerate(degrees) if d == degree]
        size = len(expos)
        rows = _disc(u[np.add.outer([starts[i] for i in ks], np.arange(4 * size))])
        rows.setflags(write=False)
        for i, row in zip(ks, rows):
            polys[i] = [HomPoly.from_row(half, members, expos) for half in (row[:size], row[size:])]
        proportional |= bool(_proportional_rows(rows[:, :size], rows[:, size:]).any())
    if proportional:
        rng.skip(-len(raw))
        return [random_morphism(fam, 1 + rng.next_u64() % _FACTORY_DEGREES, rng, floor) for _ in range(count)]
    rng.skip(pos - len(raw))
    return [RationalMorphism(fam, p, q, floor) for p, q in polys]
