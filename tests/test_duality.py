"""Dual pairs: Cartan frames, aligned sampling, sign-flipped verification."""

from dataclasses import replace

import numpy as np
import pytest

from lgh import duality as du
from lgh import families as fa
from lgh import harness as H
from lgh import matrices as M
from lgh.errors import DegeneracyError, InconclusiveError, ValidationError
from lgh.exprs import Entry, LinearTrace
from lgh.sampling import GroupSampler, sample_compact


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
    assert len(pair.k_basis) + len(pair.p_basis) == pair.compact.algebra_dim
    assert pair.frame is pair.frame
    assert pair.frame.vectors == pair.k_basis.vectors + pair.p_basis.vectors
    assert pair.residuals["involution"] < 1e-12
    assert pair.residuals["automorphism"] < 1e-10
    assert pair.residuals["bracket_closure"] < 1e-9
    assert pair.residuals["sign_normalization"] < 1e-10
    assert pair.residuals["orthogonality"] < 1e-10
    assert all(v.sign == -1 for v in pair.k_basis)
    assert all(v.sign == +1 for v in pair.p_basis)


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
    assert [v.sign for v in basis] == [sign for _, sign in reference]
    assert all(v.matrix.tobytes() == u.tobytes() for v, (u, _) in zip(basis, reference))


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
    tz = du._involution(gid)(zs)
    fix = [(zs[i] + tz[i]) / 2.0 for i in range(len(zs))]
    anti = [1j * ((zs[i] - tz[i]) / 2.0) for i in range(len(zs))]
    _bit_equal(pair.k_basis, _gram_schmidt_reference(fix, drop_dependent=True))
    _bit_equal(pair.p_basis, _gram_schmidt_reference(anti, drop_dependent=True))


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
        for v in pair.k_basis:
            m = v.matrix
            assert np.max(np.abs(m.imag)) < 1e-12
            assert np.max(np.abs(m + m.T)) < 1e-12
        for v in pair.p_basis:
            m = v.matrix
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
    for v in pair.k_basis:
        m = v.matrix
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
    # continued invariant bilinear form is the identity matrix
    pair = du.dual_pair(M.so_pq(2, 2))
    samples = du.sample_noncompact(pair, 20, 0.5, 42)
    for x in samples:
        assert np.max(np.abs(x @ x.T - np.eye(4))) < 1e-9


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


def test_continue_function_passthrough():
    a = LinearTrace(np.eye(2, dtype=complex))
    assert du.continue_function(a) is a
    fam = fa.u_family(2, _e(2))
    from lgh.exprs import HomPoly

    h = HomPoly({(2, 0): 1.0}, fam.members)
    assert du.continue_function(h) is h
    nested = HomPoly({(1, 1): 2.0, (0, 0): -1.0}, [h, Entry(1, 2)])
    assert du.continue_function(nested) is nested


def test_continue_function_rejects_foreign_nodes():
    class ConjEntry:  # an entrywise-conjugation node is not holomorphic
        pass

    from lgh.exprs import HomPoly

    with pytest.raises(ValidationError):
        du.continue_function(ConjEntry())
    with pytest.raises(ValidationError):
        du.continue_function(HomPoly({(1, 1): 1.0}, [Entry(1, 1), ConjEntry()]))


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
    vectors = list(basis.vectors)
    del vectors[index]
    return M.SignedBasis(basis.group, vectors)


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


def test_dual_family_rejects_noncontinuable():
    pair = du.dual_pair(M.so_pq(2, 2))
    fam = fa.so_family_special(4, fa.so4_deformation(0, 0))
    with pytest.raises(ValidationError):
        du.dual_family(pair, fam)


def test_identity_pair_reproduces_compact_verification():
    gid = M.U(2)
    pair = du.identity_pair(gid)
    assert len(pair.k_basis) == gid.algebra_dim
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


def test_probe_records_residuals_without_failing():
    pair = du.dual_pair(M.so_pq(2, 2))
    fam = fa.so_family_special(4, fa.so4_deformation(0, 0))
    samples = du.sample_noncompact(pair, 20, 0.5, 42)
    rep = du.probe_noncontinuable(pair, fam, samples)
    assert rep.passed  # informational: tol is +inf
    assert rep.notes["informational"]
    assert set(rep.residuals) == {"tau", "kappa"}


def test_probe_on_identity_pair_matches_compact_verification():
    gid = M.SO(4)
    pair = du.identity_pair(gid)
    fam = fa.so_family_special(4, fa.so4_deformation(0, 0))
    samples = du.sample_noncompact(pair, 20, 0.5, 42)
    rep = du.probe_noncontinuable(pair, fam, samples)
    basis = M.compact_basis(gid)
    compact_samples = sample_compact(gid, 20, 0.5, 42)
    rep_c = fa.verify_eigenfamily(fam, basis, compact_samples, tol=1e-8)
    for key in rep_c.residuals:
        assert abs(rep.residuals[key] - rep_c.residuals[key]) < 1e-15


def test_probe_empty_sample_list():
    pair = du.dual_pair(M.so_pq(2, 2))
    fam = fa.so_family_special(4, fa.so4_deformation(0, 0))
    rep = du.probe_noncontinuable(pair, fam, [])
    assert rep.residuals == {}
    assert rep.samples_used == 0


def test_probe_rejects_other_provenances():
    pair = du.dual_pair(M.so_pq(2, 2))
    fam = fa.so_family_V(4, _e(4), fa.maximal_isotropic_basis(4))
    with pytest.raises(ValidationError):
        du.probe_noncontinuable(pair, fam, [])


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
