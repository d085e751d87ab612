"""Eigenfamily constructors, coordinate relations, verification."""

import tracemalloc

import numpy as np
import oracle
import pytest
from oracle import Const, Product, Sum, kappa, tau, value

from lgh import families as fa
from lgh import matrices as M
from lgh.errors import InconclusiveError, ValidationError
from lgh.jets import frame_operators
from lgh.sampling import SplitMix64, compact_sampler, sample_compact


def _e(n, k=0):
    v = np.zeros(n, dtype=complex)
    v[k] = 1.0
    return v


def test_constants_table():
    assert fa.eigen_constants("SO", 4) == (-1.5, -0.5)
    assert fa.eigen_constants("U", 2) == (-2.0, -1.0)
    assert fa.eigen_constants("SU", 2) == (-1.5, -0.5)
    assert fa.eigen_constants("SU", 3) == (-8.0 / 3.0, -2.0 / 3.0)
    assert fa.eigen_constants("Sp", 1) == (-1.5, -0.5)
    assert fa.eigen_constants("Sp", 2) == (-2.5, -0.5)


def test_sp1_constants_equal_su2_constants():
    assert fa.eigen_constants("Sp", 1) == fa.eigen_constants("SU", 2)


def test_so_family_v_single_member():
    fam = fa.so_family_V(2, [1.0, 0.0], [np.array([1.0, 1j])])
    assert len(fam.members) == 1
    assert np.allclose(fam.members[0].matrix, [[1.0, 1j], [0.0, 0.0]], atol=0)
    assert fam.lam == -0.5 and fam.mu == -0.5


def test_so_family_v_two_members_on_so4():
    V = fa.maximal_isotropic_basis(4)
    fam = fa.so_family_V(4, _e(4), V)
    assert len(fam.members) == 2


def test_so_family_v_rejects_non_isotropic():
    with pytest.raises(ValidationError) as err:
        fa.so_family_V(2, _e(2), [np.array([1.0, 0.0])])
    assert "(v_0, v_0)" in str(err.value)


def test_so_family_special_members():
    fam = fa.so_family_special(2, np.array([1.0, 1j]))
    mats = [m.matrix for m in fam.members]
    assert np.allclose(mats[0], [[1.0, 0.0], [1j, 0.0]], atol=0)  # x11 + i x21
    assert np.allclose(mats[1], [[0.0, 1.0], [0.0, 1j]], atol=0)  # x12 + i x22


def test_so_family_special_rejects_non_isotropic_p():
    with pytest.raises(ValidationError):
        fa.so_family_special(2, np.array([1.0, 0.0]))


def test_so4_deformation_values():
    assert np.allclose(fa.so4_deformation(0, 0), [1, 1j, 0, 0], atol=0)
    assert np.allclose(fa.so4_deformation(1, -1), [0, 2j, 0, 2], atol=0)


def test_so4_deformation_isotropy_random():
    rng = SplitMix64(21)
    for _ in range(20):
        p = fa.so4_deformation(rng.complex_uniform(), rng.complex_uniform())
        assert abs(fa.bilinear(p, p)) < 1e-12


def test_so4_deformation_family_is_valid():
    fam = fa.so_family_special(4, fa.so4_deformation(0, 0))
    assert len(fam.members) == 4


def test_u_family_members():
    fam = fa.u_family(2, _e(2))
    assert np.allclose(fam.members[0].matrix, [[1, 0], [0, 0]], atol=0)  # z11
    assert np.allclose(fam.members[1].matrix, [[0, 1], [0, 0]], atol=0)  # z12
    assert (fam.lam, fam.mu) == (-2.0, -1.0)


def test_su_family_constants_measured():
    # oracle for the derived SU constants: direct jet measurement of
    # tau(phi)/phi and kappa(phi,phi)/phi^2 on random SU(2) points
    fam = fa.su_family(2, _e(2))
    assert (fam.lam, fam.mu) == (-1.5, -0.5)
    basis = M.compact_basis(fam.group)
    samples = sample_compact(fam.group, 30, 0.5, 77)
    meas = fa.measure_constants_residual(fam, basis, samples)
    assert meas["lambda_measurement"] < 1e-10
    assert meas["mu_measurement"] < 1e-10


def test_constants_measurement_with_no_value_above_the_floor_is_inconclusive():
    """At p = 0.01 e_1 no |phi| on U(2) clears VALUE_FLOOR: constants off by
    5 and 3 must not measure 0."""
    fam = fa.u_family(2, 0.01 * _e(2))
    wrong = fa.Eigenfamily(fam.group, fam.members, fam.lam + 5.0, fam.mu + 3.0, "wrong-constants")
    basis = M.compact_basis(fam.group)
    with pytest.raises(InconclusiveError):
        fa.measure_constants_residual(wrong, basis, sample_compact(fam.group, 40, 0.5, 42))


def test_sp_family_members():
    fam = fa.sp_family(1, _e(1))
    assert len(fam.members) == 2
    g = sample_compact(M.Sp(1), 1, 0.5, 3).points[0]
    values = frame_operators(fam.members, [g], M.compact_basis(fam.group)).values[0]
    assert (values[0], values[1]) == (g[0, 0], g[0, 1])
    assert fam.lam == -1.5


def test_zero_p_rejected():
    with pytest.raises(ValidationError):
        fa.u_family(2, np.zeros(2))
    with pytest.raises(ValidationError):
        fa.sp_family(2, np.zeros(2))


@pytest.mark.parametrize(
    "fam_builder",
    [
        lambda: fa.so_family_V(4, _e(4), fa.maximal_isotropic_basis(4)),
        lambda: fa.so_family_special(4, fa.so4_deformation(0.4j, -0.2)),
        lambda: fa.u_family(2, _e(2)),
        lambda: fa.u_family(3, np.array([1.0, 2j, -0.5])),
        lambda: fa.su_family(3, _e(3)),
        lambda: fa.sp_family(2, np.array([1.0, -1j])),
    ],
)
def test_verify_eigenfamily_passes(fam_builder):
    fam = fam_builder()
    basis = M.compact_basis(fam.group)
    samples = sample_compact(fam.group, 100, 0.5, 42)
    rep = fa.verify_eigenfamily(fam, basis, samples, tol=1e-8)
    assert rep.passed, rep.residuals
    assert samples.max_defect < 1e-10


def test_verify_eigenfamily_group_mismatch():
    fam = fa.u_family(2, _e(2))
    with pytest.raises(ValidationError):
        fa.verify_eigenfamily(fam, M.compact_basis(M.SU(2)), [])


def test_verify_eigenfamily_negative_control():
    fam = fa.u_family(2, _e(2))
    broken = fa.Eigenfamily(fam.group, fam.members, fam.lam + 0.1, fam.mu, "control")
    basis = M.compact_basis(fam.group)
    samples = sample_compact(fam.group, 50, 0.5, 42)
    rep = fa.verify_eigenfamily(broken, basis, samples, tol=1e-8)
    assert not rep.passed
    peak = np.abs(frame_operators(fam.members, samples, basis).values).max()
    assert abs(rep.residuals["tau"] - 0.1 * peak) < 1e-10


@pytest.mark.parametrize("gid", [M.SO(3), M.U(2), M.Sp(1)], ids=str)
def test_coordinate_lemmas_small(gid):
    samples = sample_compact(gid, 60, 0.5, 42)
    rep = fa.verify_coordinate_lemmas(gid, samples, tol=1e-8)
    assert rep.passed, rep.residuals
    if gid.family == "Sp":
        assert rep.residuals["zw_antisymmetry"] < 1e-10


LEMMA_GROUPS = [M.SO(n) for n in range(2, 7)] + [M.U(n) for n in (2, 3, 4)] + [M.Sp(n) for n in (1, 2, 3)]


def _lemma_sample_bytes(gid) -> int:
    """The bytes a sample adds to the largest table of a lemma block: the
    SO(n) stack runs in float64, the others in complex128."""
    return (8 if gid.family == "SO" else 16) * (gid.n * gid.matrix_dim) ** 2


def _record_blocks(monkeypatch) -> list:
    """The sample count of each block that verify_coordinate_lemmas builds
    tables for, appended as it goes."""
    blocks = []
    tables = fa._coordinate_tables

    def spy(q, basis):
        blocks.append(len(q))
        return tables(q, basis)

    monkeypatch.setattr(fa, "_coordinate_tables", spy)
    return blocks


def _split(total: int, size: int) -> list:
    return [size] * (total // size) + [total % size] * (total % size > 0)


@pytest.mark.parametrize("per_block", [1, 5, 37])
@pytest.mark.parametrize("gid", LEMMA_GROUPS, ids=str)
def test_coordinate_lemma_residuals_do_not_depend_on_the_block(gid, per_block, monkeypatch):
    """With the byte budget set to one sample a block, five, or the whole
    stack, the residuals over 37 samples are bit for bit the largest of the
    37 one-sample residuals."""
    samples = sample_compact(gid, 37, 0.5, 5)
    singles = [fa.verify_coordinate_lemmas(gid, samples.points[k : k + 1]).residuals for k in range(37)]
    blocks = _record_blocks(monkeypatch)
    monkeypatch.setattr(fa, "_BLOCK_BYTES", per_block * _lemma_sample_bytes(gid))
    whole = fa.verify_coordinate_lemmas(gid, samples).residuals
    assert blocks == _split(37, per_block)
    assert all(list(one) == list(whole) for one in singles)
    assert whole == {key: max(one[key] for one in singles) for key in whole}


@pytest.mark.parametrize("gid", LEMMA_GROUPS, ids=str)
def test_lemma_blocks_fill_the_byte_budget(gid, monkeypatch):
    """300 samples go through in blocks of as many samples as fit in
    ``_BLOCK_BYTES`` of the largest table, at least one: SO(2) in one
    block, SO(6) and Sp(3) in several."""
    blocks = _record_blocks(monkeypatch)
    fa.verify_coordinate_lemmas(gid, sample_compact(gid, 300, 0.5, 5))
    assert blocks == _split(300, min(300, fa._BLOCK_BYTES // _lemma_sample_bytes(gid)))
    assert (len(blocks) == 1) == (str(gid) in ("SO(2)", "SO(3)", "U(2)", "Sp(1)"))


@pytest.mark.parametrize("gid", LEMMA_GROUPS, ids=str)
def test_coordinate_lemmas_peak_memory_stays_small(gid):
    """The blocks bound the kernel's temporaries: one check of 300 samples
    allocates at most 2 MB at its peak (tracemalloc sees numpy's buffers).
    Blocks sized by n^4 entries a sample, not (rows x matrix_dim)^2, would
    take Sp(3) to about 4 MB."""
    samples = sample_compact(gid, 300, 0.5, 5)
    fa.verify_coordinate_lemmas(gid, samples.points[:1])  # the frame's caches
    tracemalloc.start()
    try:
        fa.verify_coordinate_lemmas(gid, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def _on_the_slices(table, n) -> bool:
    """Whether the largest |entry| of an oracle SO(n) kappa table, laid out
    (s, i, j, k, l), lies only on the slices j = l."""
    a = np.abs(table)
    d = np.arange(n)
    off = a.copy()
    off[:, :, d, :, d] = 0.0
    return a.max() > off.max()


@pytest.mark.parametrize(
    "diagonal, general_on_slices",
    [((1.375, 1.0, 1.0), True), ((1.375, 1.0, 1.453125), False)],
    ids=["on-the-slices", "one-entry-moved-it-off"],
)
def test_so_kappa_maxima_on_and_off_the_slices_j_eq_l(diagonal, general_on_slices):
    """kappa_general and kappa_on_group share one maximum off the slices
    j = l, whose entries are zeroed there: it must hide no largest entry.
    On a diagonal point with few-bit entries every sum in the tables has one
    nonzero term, so the oracle's tables round the same on any platform.
    On diag(1.375, 1, 1) the worst kappa_general entry lies on a slice;
    moving the last entry to 1.453125 puts it off them, while the point's
    distance from the group keeps kappa_on_group's on a slice.  Both
    residuals equal the oracle's bit for bit either way."""
    gid = M.SO(3)
    x = np.diag(diagonal)[None]
    tables = oracle.coordinate_lemma_tensors(gid, x)
    assert _on_the_slices(tables["kappa_general"], 3) == general_on_slices
    assert _on_the_slices(tables["kappa_on_group"], 3)
    got = fa.verify_coordinate_lemmas(gid, x).residuals
    want = oracle.coordinate_lemma_residuals(gid, x)
    assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}


@pytest.mark.parametrize("gid", LEMMA_GROUPS, ids=str)
def test_side_by_side_frame_gives_the_bits_of_each_product(gid):
    """x [Z_0 | Z_1 | ...] holds every x Z_b: each entry is the same one
    rounded product (the sign of a zero may differ)."""
    zs = M.compact_basis(gid).matrices
    x = sample_compact(gid, 9, 0.5, 3).points
    n = zs.shape[-1]
    wide = (x @ fa._side_by_side(gid)).reshape(9, n, len(zs), n).transpose(0, 2, 1, 3)
    assert np.array_equal(wide, x[:, None] @ zs)


@pytest.mark.parametrize("gid", LEMMA_GROUPS, ids=str)
def test_coordinate_lemma_residuals_are_the_complex_kernels(gid, monkeypatch):
    """SO(n) points run in float64 and the cross tensor is one outer product,
    yet every residual has the bits of the complex einsum-and-gemm kernel."""
    dtypes = []
    tables = fa._coordinate_tables

    def spy(x, basis):
        dtypes.append(x.dtype)
        return tables(x, basis)

    monkeypatch.setattr(fa, "_coordinate_tables", spy)
    samples = sample_compact(gid, 37, 0.5, 5)
    got = fa.verify_coordinate_lemmas(gid, samples).residuals
    want = oracle.coordinate_lemma_residuals(gid, samples.points)
    assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}
    assert set(dtypes) == {np.dtype(float if gid.family == "SO" else complex)}


def test_an_so_stack_with_an_imaginary_part_stays_complex():
    samples = sample_compact(M.SO(3), 3, 0.5, 1).points + 1e-3j
    got = fa.verify_coordinate_lemmas(M.SO(3), samples).residuals
    assert got == oracle.coordinate_lemma_residuals(M.SO(3), samples)
    assert 1e-3 < got["kappa_on_group"] < 2e-3


def test_coordinate_lemmas_tolerance_is_honored():
    gid = M.U(2)
    samples = sample_compact(gid, 20, 0.5, 42)
    rep = fa.verify_coordinate_lemmas(gid, samples, tol=1e-8)
    tight = fa.verify_coordinate_lemmas(gid, samples, tol=rep.max_residual / 2 or 1e-30)
    assert rep.passed and not tight.passed
    assert tight.residuals == rep.residuals


def test_linear_combination_closure():
    fam = fa.u_family(2, _e(2))
    basis = M.compact_basis(fam.group)
    rng = SplitMix64(55)
    phi1, phi2 = fam.members
    for trial in range(5):
        c1 = rng.complex_uniform()
        c2 = rng.complex_uniform()
        combo = Sum([Product([Const(c1), phi1]), Product([Const(c2), phi2])])
        x = sample_compact(fam.group, 1, 0.5, 900 + trial).points[0]
        lhs = tau(combo, x, basis)
        assert abs(lhs - fam.lam * value(combo, x)) < 1e-9
        k = kappa(combo, phi2, x, basis)
        assert abs(k - fam.mu * value(combo, x) * value(phi2, x)) < 1e-9


def test_minor_condition_exact_on_grid_vectors():
    # integer/imaginary-unit data keeps every product exact, so the 2x2
    # minors of A = p^t a, B = p^t b cancel bitwise
    p = np.array([1.0, 2.0, 1j, 0.0])
    a = np.array([3.0, 0.0, 1j, 1.0])
    b = np.array([0.0, 2j, 1.0, 5.0])
    A = np.outer(p, a)
    B = np.outer(p, b)
    n = 4
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    assert A[i, j] * B[k, l] - A[k, j] * B[i, l] == 0


def test_theorem_family_data_has_vanishing_ab_product():
    rng = SplitMix64(66)
    V = fa.maximal_isotropic_basis(4)
    p = np.array([rng.complex_uniform() for _ in range(4)])
    a = rng.complex_uniform() * V[0] + rng.complex_uniform() * V[1]
    b = rng.complex_uniform() * V[0] - 2.0 * V[1]
    A = np.outer(p, a)
    B = np.outer(p, b)
    assert np.max(np.abs(A @ B.T)) < 1e-12


def test_verify_eigenfamily_on_no_samples_is_inconclusive():
    fam = fa.u_family(2, _e(2))
    with pytest.raises(InconclusiveError):
        fa.verify_eigenfamily(fam, M.compact_basis(fam.group), compact_sampler(fam.group).take(0))


def test_verify_coordinate_lemmas_on_no_samples_is_inconclusive():
    for gid in (M.SO(3), M.U(2), M.Sp(1)):
        with pytest.raises(InconclusiveError):
            fa.verify_coordinate_lemmas(gid, compact_sampler(gid).take(0))


def _random_vector(rng, n):
    return np.array([rng.complex_uniform(1.0) for _ in range(n)])


def _block_members(p, vectors, blocks):
    """outer(p, a) in column block b of the first n rows, +0 everywhere else:
    one matrix per (b, a), blocks outermost."""
    n = len(p)
    out = []
    for b in range(blocks):
        for a in vectors:
            m = np.zeros((blocks * n, blocks * n), dtype=complex)
            m[:n, b * n : (b + 1) * n] = p[:, None] * np.asarray(a)[None, :]
            out.append(m)
    return out


def _linear_case(name, n, rng):
    """(family, p, vectors, column blocks) of one public constructor on a
    random complex p (an isotropic one for the isotropic-point family)."""
    eye = np.eye(n, dtype=complex)
    if name == "so_family_V":
        p = _random_vector(rng, n)
        V = [rng.complex_uniform(1.0) * v for v in fa.maximal_isotropic_basis(n)]
        return fa.so_family_V(n, p, V), p, V, 1
    if name == "so_family_special":
        p = sum(rng.complex_uniform(1.0) * v for v in fa.maximal_isotropic_basis(n))
        return fa.so_family_special(n, p), p, eye, 1
    p = _random_vector(rng, n)
    blocks = 2 if name == "sp_family" else 1
    return getattr(fa, name)(n, p), p, eye, blocks


LINEAR_GROUPS = {"so_family_V": "SO", "so_family_special": "SO", "u_family": "U", "su_family": "SU", "sp_family": "Sp"}


# n = 1..6; C^1 has no nonzero isotropic vector, so SO(n) starts at 2
@pytest.mark.parametrize(
    "name, n", [(name, n) for name, g in LINEAR_GROUPS.items() for n in range(1 + (g == "SO"), 7)]
)
def test_linear_members_are_the_block_formula(name, n):
    """Every public constructor's members are outer(p, a) written into one
    block of n columns, z then w on Sp(n), with +0 everywhere else, byte for
    byte; the constants are those of the group."""
    fam, p, vectors, blocks = _linear_case(name, n, SplitMix64(100 * n + len(name)))
    want = _block_members(p, vectors, blocks)
    assert [m.matrix.tobytes() for m in fam.members] == [m.tobytes() for m in want]
    assert fam.group == M.GroupId(LINEAR_GROUPS[name], n)
    assert (fam.lam, fam.mu) == fa.eigen_constants(LINEAR_GROUPS[name], n)


def test_default_family_refuses_a_group_with_no_linear_family():
    for gid in (M.so_pq(1, 2), M.su_pq(1, 1), M.sp_pq(1, 1), M.sl_r(2), M.GroupId("GLC-split", 2)):
        with pytest.raises(ValidationError, match="no linear eigenfamily"):
            fa.default_family(gid)
