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
per sample.  Every polynomial in the members follows from the composition
rules of :func:`lgh.jets.compose`, and so does the quotient: a
:class:`RationalMorphism` is the function F(P, Q) = P/Q of its two
arguments, with gradient (1/Q, -P/Q^2) and Hessian
[[0, -1/Q^2], [-1/Q^2, 2P/Q^3]] in (P, Q).

The member tau and kappa are measured, never taken from the family's stated
(lambda, mu), so a wrong member list shows up as a failing residual.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InconclusiveError, ValidationError
from .exprs import HomPoly
from .families import Eigenfamily
from .jets import FrameOperators, compose, frame_operators
from .matrices import GroupId, SignedBasis
from .report import VerificationReport, timed_report
from .sampling import SampleSet, SplitMix64


def power_constants(lam: complex, mu: complex, k: int) -> tuple[complex, complex]:
    """(lambda_k, mu_k) = (k lambda + k(k-1) mu, k^2 mu) for degree-k products."""
    return k * lam + k * (k - 1) * mu, k * k * mu


def _exponents(m: int, degree: int):
    """Exponent tuples of the degree-``degree`` monomials in m arguments."""
    for combo in itertools.combinations_with_replacement(range(m), degree):
        yield tuple(combo.count(i) for i in range(m))


def power_family(fam: Eigenfamily, k: int) -> Eigenfamily:
    """The degree-k monomials in the members of ``fam``, an eigenfamily with
    the constants (lambda_k, mu_k) of :func:`power_constants`."""
    if k < 1:
        raise ValidationError("power family needs k >= 1")
    members = [HomPoly({expo: 1.0}, fam.members) for expo in _exponents(len(fam.members), k)]
    lam_k, mu_k = power_constants(fam.lam, fam.mu, k)
    return Eigenfamily(
        group=fam.group,
        members=members,
        lam=lam_k,
        mu=mu_k,
        provenance=f"{fam.provenance}-power-{k}",
        dual_continuable=fam.dual_continuable,
    )


@dataclass
class RationalMorphism:
    """Quotient P/Q of equal-degree homogeneous polynomials in a family.

    It is the function P/Q of its two arguments ``args = [P, Q]``, so
    :func:`lgh.jets.compose` and :func:`frame_operators` take it like a
    polynomial.
    """

    family: Eigenfamily
    numerator: HomPoly
    denominator: HomPoly
    floor: float = 1e-3

    @property
    def degree(self) -> int:
        return self.numerator.degree

    @property
    def args(self) -> list:
        return [self.numerator, self.denominator]

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
        x = np.asarray(x, dtype=complex)
        empty = SignedBasis(GroupId("GLC-split", x.shape[-1]))
        values = frame_operators(self.family.members, [x], empty).values
        return abs(self.denominator.derivatives(values)[0][0]) > self.floor


def _coeff_table(p: HomPoly, q: HomPoly):
    keys = sorted(set(p.coeffs) | set(q.coeffs))
    u = np.array([p.coeffs.get(k, 0.0) for k in keys], dtype=complex)
    v = np.array([q.coeffs.get(k, 0.0) for k in keys], dtype=complex)
    return u, v


def _proportional(p: HomPoly, q: HomPoly, tol: float = 1e-12) -> bool:
    u, v = _coeff_table(p, q)
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return True
    gram = (nu * nv) ** 2 - abs(np.vdot(u, v)) ** 2
    return gram <= tol * (nu * nv) ** 2


def _as_hompoly(p, members) -> HomPoly:
    if isinstance(p, HomPoly):
        return p
    return HomPoly(p, members)


def quotient_morphism(fam: Eigenfamily, P, Q, floor: float = 1e-3) -> RationalMorphism:
    """Build P/Q over the family members; P, Q may be coefficient maps
    (exponent tuple -> coefficient) or ready HomPoly nodes."""
    pn = _as_hompoly(P, fam.members)
    qn = _as_hompoly(Q, fam.members)
    for name, poly in (("numerator", pn), ("denominator", qn)):
        if not poly.homogeneous:
            raise ValidationError(f"{name} mixes total degrees; P/Q needs homogeneous P and Q")
    if pn.degree != qn.degree:
        raise ValidationError(
            f"degrees differ: numerator {pn.degree}, denominator {qn.degree}"
        )
    if _proportional(pn, qn):
        raise ValidationError("numerator and denominator are proportional")
    return RationalMorphism(fam, pn, qn, floor)


def mobius_transform(m: RationalMorphism, a, b, c, d) -> RationalMorphism:
    """Post-compose with (a t + b)/(c t + d): same-degree pair
    (aP + bQ, cP + dQ)."""
    if abs(a * d - b * c) < 1e-12:
        raise ValidationError("singular Mobius coefficients")
    keys = sorted(set(m.numerator.coeffs) | set(m.denominator.coeffs))
    pc = {k: a * m.numerator.coeffs.get(k, 0.0) + b * m.denominator.coeffs.get(k, 0.0) for k in keys}
    qc = {k: c * m.numerator.coeffs.get(k, 0.0) + d * m.denominator.coeffs.get(k, 0.0) for k in keys}
    pc = {k: v for k, v in pc.items() if v != 0.0}
    qc = {k: v for k, v in qc.items() if v != 0.0}
    return quotient_morphism(m.family, pc, qc, m.floor)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def _collect_in_domain(screen, samples, sampler, min_samples):
    """Screen ``samples``, then draw only the shortfall from ``sampler`` until
    the target count is in domain or ten times the target has been drawn.

    ``screen(batch)`` returns the frame table of a batch's in-domain points.
    """
    tables = [screen(samples)]
    kept = len(tables[0])
    drawn = len(samples)
    target = min_samples if min_samples is not None else drawn
    budget = max(10 * max(target, 1), drawn)
    while sampler is not None and kept < target and drawn < budget:
        batch = sampler(min(target - kept, budget - drawn))
        drawn += len(batch)
        tables.append(screen(batch))
        kept += len(tables[-1])
    return FrameOperators.concat(tables), drawn - kept


def verify_harmonic_morphism(
    m: RationalMorphism,
    basis: SignedBasis,
    samples,
    tol: float = 1e-8,
    min_samples: int | None = None,
    sampler=None,
) -> VerificationReport:
    """Measure max |tau(P/Q)| and |kappa(P/Q, P/Q)| over in-domain samples.

    P, Q and then P/Q are composed from the family members' frame table,
    and ``samples`` may already be that table (see
    :func:`frame_operators`).  Samples where |Q| falls to its domain floor
    are discarded; when a ``sampler(count)`` callable is supplied the
    verifier draws the shortfall again, up to ten times the requested count
    in all, before declaring the run inconclusive.
    """
    members = m.family.members

    def screen(batch):
        table = frame_operators(members, batch, basis)
        q = m.denominator.derivatives(table.values)[0]
        return table.rows(np.abs(q) > m.floor)

    if not isinstance(samples, (FrameOperators, SampleSet, np.ndarray)):
        samples = list(samples)
    with timed_report() as clock:
        table, discarded = _collect_in_domain(screen, samples, sampler, min_samples)
        if not len(table):
            raise InconclusiveError(
                "no sample cleared the domain floor; cannot verify the morphism"
            )
        ops = compose([m], compose(m.args, table))
        tau_res = float(np.max(np.abs(ops.tau)))
        kappa_res = float(np.max(np.abs(ops.kappa)))
    return VerificationReport(
        check="harmonic-morphism",
        target=str(m.family.group),
        params={"degree": m.degree, "floor": m.floor, "members": len(members)},
        residuals={"tau": tau_res, "kappa": kappa_res},
        tol=tol,
        samples_used=len(table),
        samples_discarded=discarded,
        wall_time=clock.elapsed,
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
    the degree-d power constants.  ``samples`` may be the family members'
    frame table."""
    pn = _as_hompoly(P, fam.members)
    qn = _as_hompoly(Q, fam.members)
    lam_p, _ = power_constants(fam.lam, fam.mu, pn.degree)
    lam_q, _ = power_constants(fam.lam, fam.mu, qn.degree)
    with timed_report() as clock:
        table = frame_operators(fam.members, samples, basis)
        ops = compose([pn, qn], table)
        p0, q0 = ops.values[:, 0], ops.values[:, 1]
        k_pp, k_pq, k_qq = ops.kappa[:, 0, 0], ops.kappa[:, 0, 1], ops.kappa[:, 1, 1]
        res = {
            "triple_left": np.abs(q0 * q0 * k_pp - p0 * q0 * k_pq),
            "triple_right": np.abs(p0 * p0 * k_qq - p0 * q0 * k_pq),
            "tau_numerator": np.abs(ops.tau[:, 0] - lam_p * p0),
            "tau_denominator": np.abs(ops.tau[:, 1] - lam_q * q0),
        }
        res = {key: float(np.max(val, initial=0.0)) for key, val in res.items()}
    return VerificationReport(
        check="quotient-condition",
        target=str(fam.group),
        params={"degree_P": pn.degree, "degree_Q": qn.degree},
        residuals=res,
        tol=tol,
        samples_used=len(table),
        wall_time=clock.elapsed,
    )


# ---------------------------------------------------------------------------
# orthogonal harmonic families and composition
# ---------------------------------------------------------------------------

def orthogonal_family(group, members) -> Eigenfamily:
    """An eigenfamily with lambda = mu = 0: every member is harmonic and all
    gradients pairwise isotropic."""
    return Eigenfamily(group, list(members), 0j, 0j, "orthogonal")


def compose_orthogonal(family: Eigenfamily, h: dict) -> HomPoly:
    """Compose a polynomial h (exponent map, any total degrees, a constant
    term included) with the members of an orthogonal harmonic family.

    The result is again harmonic with isotropic gradient.  Only the
    structural lambda = mu = 0 requirement is checked here; measure the
    family with :func:`lgh.families.verify_eigenfamily`.
    """
    if family.lam != 0 or family.mu != 0:
        raise ValidationError("composition requires an orthogonal family (lambda = mu = 0)")
    return HomPoly(h, family.members)


# ---------------------------------------------------------------------------
# seeded polynomial factory for property checks
# ---------------------------------------------------------------------------

def random_hompoly(members, degree: int, rng: SplitMix64) -> HomPoly:
    """Dense homogeneous polynomial with coefficients uniform on the unit disc."""
    return HomPoly({expo: rng.complex_disc() for expo in _exponents(len(members), degree)}, members)


def random_morphism(
    fam: Eigenfamily, degree: int, rng: SplitMix64, floor: float = 1e-3
) -> RationalMorphism:
    p = random_hompoly(fam.members, degree, rng)
    q = random_hompoly(fam.members, degree, rng)
    while _proportional(p, q):  # vanishing-probability event, retry keeps stream seeded
        q = random_hompoly(fam.members, degree, rng)
    return RationalMorphism(fam, p, q, floor)
