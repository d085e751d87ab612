"""Dual pairs: Cartan frames, aligned sampling, sign-flipped verification."""

from dataclasses import replace

import numpy as np
import oracle
import pytest

from lgh import duality as du
from lgh import families as fa
from lgh import harness as H
from lgh import matrices as M
from lgh import morphisms as mo
from lgh.errors import DegeneracyError, InconclusiveError, ValidationError
from lgh.exprs import Entry, HomPoly
from lgh.sampling import GroupSampler, SplitMix64, sample_compact


def _e(n, k=0):
    v = np.zeros(n, dtype=complex)
    v[k] = 1.0
    return v


ALL_PAIRS = [
    M.sl_r(2), M.sl_r(3), M.sl_r(4), M.sl_r(5), M.sl_r(6),
    M.su_star(4), M.su_star(6),
    M.sp_r(1), M.sp_r(2), M.sp_r(3),
    M.so_star(4), M.so_star(6),
    M.so_pq(1, 1), M.so_pq(1, 2), M.so_pq(2, 2), M.so_pq(2, 3), M.so_pq(3, 3), M.so_pq(2, 4),
    M.su_pq(1, 1), M.su_pq(1, 2), M.su_pq(2, 2), M.su_pq(2, 3), M.su_pq(1, 5),
    M.sp_pq(1, 1), M.sp_pq(1, 2),
]


@pytest.mark.parametrize("gid", ALL_PAIRS, ids=str)
def test_dual_pair_invariants(gid):
    pair = du.dual_pair(gid)
    assert len(pair.k_basis) + len(pair.p_basis) == len(M.compact_basis(pair.compact))
    assert pair.frame is pair.frame
    for name in ("matrices", "signs"):
        joined = np.concatenate([getattr(pair.k_basis, name), getattr(pair.p_basis, name)])
        assert getattr(pair.frame, name).tobytes() == joined.tobytes()
    assert pair.residuals["involution"] < 1e-12
    assert pair.residuals["automorphism"] < 1e-10
    assert pair.residuals["bracket_closure"] < 1e-9
    assert pair.residuals["sign_normalization"] < 1e-10
    assert pair.residuals["orthogonality"] < 1e-10
    assert all(pair.k_basis.signs == -1)
    assert all(pair.p_basis.signs == +1)


def test_dual_pair_is_built_once_and_read_only():
    pair = du.dual_pair(M.su_pq(1, 2))
    assert du.dual_pair(M.GroupId("SUpq", p=1, q=2)) is pair
    with pytest.raises(TypeError):
        pair.residuals["orthogonality"] = 0.0
    with pytest.raises(AttributeError):
        pair.frame = pair.k_basis


def _gram_schmidt_reference(spanning, drop_dependent=False):
    """(matrix, sign) pairs of the Gram-Schmidt loop that projects every
    remaining vector off all accepted vectors anew in each round."""
    remaining = [np.array(m, dtype=complex) for m in spanning]
    remaining = [m for m in remaining if np.max(np.abs(m)) > 1e-14]
    accepted = []
    while remaining:
        projected = []
        for v in remaining:
            w = v.copy()
            for u, sign in accepted:
                w -= sign * M.trace_form(w, u) * u
            projected.append(w)
        norms = [abs(M.trace_form(w, w)) for w in projected]
        best = max(range(len(norms)), key=norms.__getitem__)
        if norms[best] < M.NULL_TOL:
            if drop_dependent:
                break
            raise DegeneracyError("null direction")
        w = projected[best]
        b = M.trace_form(w, w)
        accepted.append((w / np.sqrt(abs(b)), +1 if b > 0 else -1))
        remaining.pop(best)
    return accepted


def _bit_equal(basis, reference):
    assert basis.signs.tolist() == [sign for _, sign in reference]
    assert all(z.tobytes() == u.tobytes() for z, (u, _) in zip(basis.matrices, reference))


SUITE_PAIRS = [H.group_from_spec({"family": a, **kw}) for a, kw in H.DUALITY_PAIRS]


@pytest.mark.parametrize(
    "gid", SUITE_PAIRS + [M.sl_r(5), M.su_star(6), M.so_pq(4, 4), M.sp_pq(2, 1)], ids=str
)
def test_gram_schmidt_projects_as_the_reference_loop(gid):
    """Each round subtracts only the newly accepted vector from the running
    projections: the frames and signs of a dual pair are bit-equal to the
    loop that re-projects every vector from scratch."""
    pair = du.dual_pair(gid)
    zs = M.compact_basis(pair.compact).matrices
    tz = oracle.involution_products(gid)(zs)
    fix = [(zs[i] + tz[i]) / 2.0 for i in range(len(zs))]
    anti = [1j * ((zs[i] - tz[i]) / 2.0) for i in range(len(zs))]
    _bit_equal(pair.k_basis, _gram_schmidt_reference(fix, drop_dependent=True))
    _bit_equal(pair.p_basis, _gram_schmidt_reference(anti, drop_dependent=True))


# pairs past the suite's sizes, one per family of the duality
DEEP_PAIRS = [M.sl_r(5), M.su_star(6), M.so_star(6), M.sp_r(3), M.so_pq(4, 4), M.sp_pq(2, 1)]


@pytest.mark.parametrize("gid", SUITE_PAIRS + DEEP_PAIRS, ids=str)
def test_pair_frames_are_those_of_the_reference_involution(gid):
    """theta read from the family table's real structure builds the frames,
    signs and frame residuals of the per-family matrix-product theta byte
    for byte."""
    pair = du.dual_pair(gid)
    want = du._build_pair(gid, pair.compact, oracle.involution_products(gid))
    assert pair.frame.matrices.tobytes() == want.frame.matrices.tobytes()
    assert pair.frame.signs.tobytes() == want.frame.signs.tobytes()
    assert {key: val.hex() for key, val in pair.residuals.items()} == {
        key: val.hex() for key, val in want.residuals.items()
    }


COMPACT_SMALL = [M.GroupId(f, n) for f in ("SO", "U", "SU", "Sp") for n in (2, 3, 4)]


@pytest.mark.parametrize("gid", SUITE_PAIRS + DEEP_PAIRS + COMPACT_SMALL, ids=str)
def test_frames_lie_in_the_algebra_of_their_table_row(gid):
    """Every frame matrix Z solves the Lie-algebra form of the equations the
    family table states, each product an explicit matrix product: the row's
    M conj(Z) M^t = Z ("conj") or Z M + M Z^* = 0 ("unitary"), and the
    compact partner's Z B + B Z^t = 0 and trace Z = 0 where its row has
    them.  The sampler's defects and the pair's frames thus describe one
    group."""
    compact = gid.family not in M.NONCOMPACT_FAMILIES
    zs = (M.compact_basis(gid) if compact else du.dual_pair(gid).frame).matrices
    real = M.real_structure(gid)
    m, zt = real.form.matrix, zs.transpose(0, 2, 1)
    if real.kind == "conj":
        residuals = [m @ zs.conj() @ m.T - zs]
    else:
        residuals = [zs @ m + m @ zt.conj()]
    if real.bilinear is not None:
        b = real.bilinear.matrix
        residuals.append(zs @ b + b @ zt)
    if real.det:
        residuals.append(np.trace(zs, axis1=1, axis2=2))
    assert max(float(np.max(np.abs(r))) for r in residuals) <= 1e-15


def test_gram_schmidt_of_an_indefinite_span_is_the_reference_loop():
    """Signs of both kinds, no dependent vector, and a null direction."""
    from lgh.sampling import SplitMix64

    rng = SplitMix64(5)
    span = [np.array([[rng.complex_uniform(1.0) for _ in range(3)] for _ in range(3)]) for _ in range(6)]
    reference = _gram_schmidt_reference(span)
    assert {sign for _, sign in reference} == {-1, 1}
    _bit_equal(M.gram_schmidt_indefinite(span), reference)
    x12, y12 = M.generator("X", (1, 2), 2), M.generator("Y", (1, 2), 2)
    for gram_schmidt in (M.gram_schmidt_indefinite, _gram_schmidt_reference):
        with pytest.raises(DegeneracyError):
            gram_schmidt([x12, x12 + y12, y12 + 2 * x12])


def test_slr_frame_matches_hand_coded_real_forms():
    # fix of conjugation on su(n) is the real skew-symmetric part so(n);
    # i times the anti-fixed part is the traceless real symmetric matrices
    for n in (2, 3, 4):
        pair = du.dual_pair(M.sl_r(n))
        assert len(pair.k_basis) == n * (n - 1) // 2
        assert len(pair.p_basis) == n * (n + 1) // 2 - 1
        for m in pair.k_basis.matrices:
            assert np.max(np.abs(m.imag)) < 1e-12
            assert np.max(np.abs(m + m.T)) < 1e-12
        for m in pair.p_basis.matrices:
            assert np.max(np.abs(m.imag)) < 1e-12
            assert np.max(np.abs(m - m.T)) < 1e-12
            assert abs(np.trace(m)) < 1e-12


def test_so11_has_empty_compact_part():
    pair = du.dual_pair(M.so_pq(1, 1))
    assert len(pair.k_basis) == 0
    assert len(pair.p_basis) == 1


def test_sp11_dimension_split():
    pair = du.dual_pair(M.sp_pq(1, 1))
    assert len(pair.k_basis) == 6  # sp(1) + sp(1)
    assert len(pair.p_basis) == 4
    assert pair.compact == M.Sp(2)


def test_sustar_compact_part_is_quaternionic():
    pair = du.dual_pair(M.su_star(4))
    assert len(pair.k_basis) == 10  # sp(2)
    j = M.symplectic_matrix(2)
    for m in pair.k_basis.matrices:
        assert np.max(np.abs(j @ m.conj() @ (-j) - m)) < 1e-12


def test_slr_samples_are_real_unimodular():
    pair = du.dual_pair(M.sl_r(2))
    samples = du.sample_noncompact(pair, 20, 0.5, 42)
    for x in samples:
        assert np.max(np.abs(x.imag)) < 1e-10
        assert abs(np.linalg.det(x) - 1.0) < 1e-9
    assert samples.max_defect < 1e-9


def test_sopq_samples_preserve_continued_form():
    # the aligned so(p,q) sits inside the complex orthogonal group, so the
    # continued invariant bilinear form is the identity matrix; the real form
    # is cut out of it by I_pq conj(x) I_pq = x (theta fixes k, negates m)
    pair = du.dual_pair(M.so_pq(2, 2))
    ipq = M.signature_matrix(2, 2)
    samples = du.sample_noncompact(pair, 20, 0.5, 42)
    for x in samples:
        assert np.max(np.abs(x @ x.T - np.eye(4))) < 1e-9
        assert np.max(np.abs(ipq @ x.conj() @ ipq - x)) < 1e-9


def test_zero_radius_gives_identity_samples():
    pair = du.dual_pair(M.sp_r(1))
    samples = du.sample_noncompact(pair, 3, 0.0, 42)
    for x in samples:
        assert np.max(np.abs(x - np.eye(2))) < 1e-14


def test_noncompact_samples_genuinely_leave_the_compact_group():
    pair = du.dual_pair(M.sl_r(2))
    samples = du.sample_noncompact(pair, 20, 0.5, 42)
    dev = max(np.max(np.abs(x @ x.conj().T - np.eye(2))) for x in samples)
    assert dev > 1e-2  # not unitary: these are genuinely non-compact points


@pytest.mark.parametrize(
    "listed",
    [lambda members, f: [*members, f], lambda members, f: [HomPoly({(1, 1): 1.0}, [Entry(1, 1), f])]],
    ids=["member", "polynomial-argument"],
)
def test_dual_verification_refuses_a_foreign_member(listed):
    """Only polynomials in the entries continue: a member, or an argument of
    the polynomial members, that is neither is refused when measured."""

    class ConjEntry:  # an entrywise-conjugation node is not holomorphic
        pass

    pair = du.dual_pair(M.sl_r(2))
    fam = du.default_compact_family(pair)
    foreign = replace(fam, members=listed(fam.members, ConjEntry()))
    with pytest.raises(ValidationError, match="frame-table members"):
        du.verify_dual_eigenfamily(pair, foreign, du.sample_noncompact(pair, 5, 0.5, 42))


@pytest.mark.parametrize(
    "gid",
    [M.sl_r(2), M.sl_r(3), M.su_star(4), M.sp_r(1), M.sp_r(2), M.so_star(4),
     M.so_pq(1, 2), M.so_pq(2, 2), M.su_pq(1, 1), M.su_pq(1, 2), M.sp_pq(1, 1)],
    ids=str,
)
def test_dual_eigenfamily_round_trip(gid):
    pair = du.dual_pair(gid)
    fam = du.default_compact_family(pair)
    # compact side first
    basis = M.compact_basis(fam.group)
    compact_samples = sample_compact(fam.group, 40, 0.5, 42)
    rep_c = fa.verify_eigenfamily(fam, basis, compact_samples, tol=1e-8)
    assert rep_c.passed, (str(gid), rep_c.residuals)
    # then the continued family with negated constants on aligned samples
    samples = du.sample_noncompact(pair, 40, 0.5, 42)
    rep_n = du.verify_dual_eigenfamily(pair, fam, samples, tol=1e-8)
    assert rep_n.passed, (str(gid), rep_n.residuals)


def _without(basis, index):
    return M.SignedBasis(basis.group, np.delete(basis.matrices, index, axis=0), np.delete(basis.signs, index))


@pytest.mark.parametrize("index", [0, -1], ids=["first", "last"])
def test_verifiers_measure_on_the_frame_they_are_given(index):
    """A frame missing one vector has another Casimir and another kappa
    Gram, so the kernel must see it fail on both equations."""
    fam = fa.u_family(3, np.array([1.0, 0.5j, -0.25]))
    basis = M.compact_basis(fam.group)
    samples = sample_compact(fam.group, 20, 0.5, 11)
    full = fa.verify_eigenfamily(fam, basis, samples)
    assert full.residuals["tau"] < 1e-12 and full.residuals["kappa"] < 1e-12
    cut = fa.verify_eigenfamily(fam, _without(basis, index), samples)
    assert not cut.passed
    assert cut.residuals["tau"] > 0.1 and cut.residuals["kappa"] > 0.1

    pair = du.dual_pair(M.su_pq(1, 2))
    dfam = du.default_compact_family(pair)
    samples = du.sample_noncompact(pair, 20, 0.5, 12)
    full = du.verify_dual_eigenfamily(pair, dfam, samples)
    assert full.residuals["tau"] < 1e-12 and full.residuals["kappa"] < 1e-12
    cut = du.verify_dual_eigenfamily(replace(pair, frame=_without(pair.frame, index)), dfam, samples)
    assert not cut.passed
    assert cut.residuals["tau"] > 0.1 and cut.residuals["kappa"] > 0.1


def test_dual_constants_are_negated():
    pair = du.dual_pair(M.sl_r(2))
    fam = du.default_compact_family(pair)
    dfam = du.dual_family(pair, fam)
    assert dfam.lam == -fam.lam == 1.5
    assert dfam.mu == -fam.mu == 0.5
    assert dfam.group == pair.noncompact


def test_dual_family_rejects_wrong_group():
    pair = du.dual_pair(M.sl_r(2))
    with pytest.raises(ValidationError):
        du.dual_family(pair, fa.u_family(2, _e(2)))  # U(2) is not SU(2)


def test_dual_family_continues_the_isotropic_point_family():
    """The family leans on x x^t = I, which holds on all of SO(4, C), so it
    continues as every polynomial family does: same members, negated
    constants."""
    pair = du.dual_pair(M.so_pq(2, 2))
    fam = fa.so_family_special(4, fa.so4_deformation(0, 0))
    dfam = du.dual_family(pair, fam)
    assert dfam.members == fam.members
    assert (dfam.lam, dfam.mu) == (-fam.lam, -fam.mu) == (1.5, 0.5)
    assert dfam.group == pair.noncompact and dfam.provenance == "so-isotropic-point-dual"


def test_identity_pair_reproduces_compact_verification():
    gid = M.U(2)
    pair = du.identity_pair(gid)
    assert len(pair.k_basis) == len(M.compact_basis(gid))
    assert len(pair.p_basis) == 0
    fam = fa.u_family(2, _e(2))
    samples = du.sample_noncompact(pair, 30, 0.5, 42)
    rep_dual = du.verify_dual_eigenfamily(pair, fam, samples, tol=1e-8)
    basis = M.compact_basis(gid)
    compact_samples = sample_compact(gid, 30, 0.5, 42)
    rep_compact = fa.verify_eigenfamily(fam, basis, compact_samples, tol=1e-8)
    # same sample stream, sign-flipped frame; the Gram-Schmidt renorm of the
    # frame moves vectors by one ulp, so agreement is to rounding, not bitwise
    for key in rep_compact.residuals:
        assert abs(rep_dual.residuals[key] - rep_compact.residuals[key]) < 1e-15


def test_isotropic_point_family_on_identity_pair_matches_compact_verification():
    gid = M.SO(4)
    pair = du.identity_pair(gid)
    fam = fa.so_family_special(4, fa.so4_deformation(0, 0))
    samples = du.sample_noncompact(pair, 20, 0.5, 42)
    rep = du.verify_dual_eigenfamily(pair, fam, samples, tol=1e-8)
    assert rep.passed
    basis = M.compact_basis(gid)
    compact_samples = sample_compact(gid, 20, 0.5, 42)
    rep_c = fa.verify_eigenfamily(fam, basis, compact_samples, tol=1e-8)
    for key in rep_c.residuals:
        assert abs(rep.residuals[key] - rep_c.residuals[key]) < 1e-15


def _isotropic_points(n, seed):
    """e_1 + i e_2 and two seeded random complex isotropic vectors of C^n,
    the last entry of each a square root of minus the others' squares."""
    rng = SplitMix64(seed)
    points = [fa.maximal_isotropic_basis(n)[0]]
    for _ in range(2):
        head = np.array([rng.complex_uniform(1.0) for _ in range(n - 1)])
        points.append(np.append(head, np.sqrt(-np.sum(head * head))))
    return points


# the SO(p,q) and SO*(2n) duals of SO(3) to SO(8)
SO_PARTNER_PAIRS = [
    M.so_pq(1, 2), M.so_pq(1, 3), M.so_pq(2, 2), M.so_pq(2, 3), M.so_pq(3, 3), M.so_pq(4, 4),
    M.so_star(4), M.so_star(6), M.so_star(8),
]


@pytest.mark.parametrize("gid", SO_PARTNER_PAIRS, ids=str)
def test_isotropic_point_family_continues_to_every_so_dual(gid):
    """The isotropic-point family passes the gated dual check for three
    isotropic p at radius 0.5 and 1; with the compact constants, not negated,
    the same members fail."""
    pair = du.dual_pair(gid)
    n = pair.compact.n
    for radius in (0.5, 1.0):
        samples = GroupSampler(pair.frame, radius, 7).take(100)
        for p in _isotropic_points(n, 100 + n):
            fam = fa.so_family_special(n, p)
            rep = du.verify_dual_eigenfamily(pair, fam, samples, tol=1e-8)
            assert rep.passed, (str(gid), radius, rep.residuals)
            unflipped = replace(fam, lam=-fam.lam, mu=-fam.mu)
            control = du.verify_dual_eigenfamily(pair, unflipped, samples, tol=1e-8)
            assert not control.passed
            assert min(control.residuals["tau"], control.residuals["kappa"]) > 1.0, (str(gid), control.residuals)


def test_tau_kappa_sign_convention_on_slr2():
    # tau on sl(2,R): minus the so(2) second derivative plus the symmetric
    # ones; at the identity tau(x_11) must equal +lambda* x_11 = 3/2
    pair = du.dual_pair(M.sl_r(2))
    from lgh.jets import frame_operators

    val = frame_operators([Entry(1, 1)], [np.eye(2)], pair.frame).tau[0, 0]
    assert abs(val - 1.5) < 1e-12


def test_verify_dual_eigenfamily_on_no_samples_is_inconclusive():
    pair = du.dual_pair(M.sl_r(2))
    fam = du.default_compact_family(pair)
    with pytest.raises(InconclusiveError):
        du.verify_dual_eigenfamily(pair, fam, GroupSampler(pair.frame, 0.5, 42).take(0))


# the config of the suite's first factory row: seed 42, 50 samples at the
# factory's floor and tol
FACTORY_CFG = next(cfg for _, check, cfg in H.suite_checks() if check == "morphism-factory")
# SO(1,2)'s default family is one member, so it has no same-degree P/Q pair
CONTINUABLE_PAIRS = [gid for gid in SUITE_PAIRS if gid != M.so_pq(1, 2)]


def _dual_default_family(gid):
    pair = du.dual_pair(gid)
    return pair, du.dual_family(pair, du.default_compact_family(pair))


@pytest.mark.parametrize("gid", CONTINUABLE_PAIRS, ids=str)
def test_factory_runner_serves_the_dual_side(gid):
    """The factory verifies a continued family on its dual group with the
    frame the store picks for that group, through the runner the compact
    rows use.  On SL(n,R) and Sp(n,R) these quotients are degenerate maps
    (p = e1), and they pass too."""
    _, dfam = _dual_default_family(gid)
    factory, triple = H._morphism_factory(dfam, FACTORY_CFG, H.SampleStore(), pairs=6)
    for rep in (factory, triple):
        assert rep.passed, (rep.check, rep.residuals)
        assert rep.target == str(gid)
        assert rep.tol == H.FACTORY_TOL


def test_factory_runner_refuses_a_one_member_dual_family():
    _, dfam = _dual_default_family(M.so_pq(1, 2))
    assert len(dfam.members) == 1
    with pytest.raises(ValidationError, match="single monomial"):
        H._morphism_factory(dfam, FACTORY_CFG, H.SampleStore(), pairs=6)


@pytest.mark.parametrize("gid", [M.su_pq(1, 1), M.su_pq(1, 2), M.sl_r(2)], ids=str)
def test_dual_quotients_fail_on_the_frame_with_every_sign_plus(gid):
    """A negative control: the factory's quotients on the same samples,
    measured with the pair's frame but every sign set to +1, are far from
    harmonic, so a dual pass is not vacuous."""
    pair, dfam = _dual_default_family(gid)
    factory, _ = H._morphism_factory(dfam, FACTORY_CFG, H.SampleStore(), pairs=6)
    morphs = mo.random_morphisms(dfam, 6, SplitMix64(factory.params["rng_seed"]), floor=FACTORY_CFG.floor)
    unsigned = M.SignedBasis(gid, pair.frame.matrices, np.ones(len(pair.frame)))
    sampler = GroupSampler(pair.frame, FACTORY_CFG.radius, FACTORY_CFG.seed)
    flipped = mo.verify_harmonic_morphism(
        morphs,
        unsigned,
        sampler.take(FACTORY_CFG.samples),
        tol=H.FACTORY_TOL,
        min_samples=FACTORY_CFG.samples,
        sampler=lambda k: sampler.take(k).points,
    )
    assert factory.passed and not flipped.passed
    assert min(flipped.residuals.values()) > 1.0


@pytest.mark.parametrize("gid", SUITE_PAIRS + [M.sl_r(5), M.so_pq(4, 4), M.sp_pq(2, 1), M.su_star(6)], ids=str)
def test_duality_principle_negates_the_casimir_tensors(gid):
    """The duality principle as one identity: the aligned frame's
    T = sum_b eps_b Z_b (x) Z_b and C = sum_b eps_b Z_b^2 are minus those of
    the compact partner's basis."""

    def tensors(frame):
        zs, signs = frame.matrices, frame.signs
        return np.einsum("b,bij,bkl->ijkl", signs, zs, zs), np.einsum("b,bij,bjk->ik", signs, zs, zs)

    pair = du.dual_pair(gid)
    for dual, compact in zip(tensors(pair.frame), tensors(M.compact_basis(pair.compact))):
        assert np.max(np.abs(dual + compact)) <= 1e-14
        assert np.max(np.abs(compact)) > 0.4
