"""Generators, bases, generator identities, embeddings, Gram-Schmidt."""

import dataclasses
import math

import numpy as np
import pytest

from lgh import matrices as M
from lgh.errors import DegeneracyError, ValidationError

SQ2 = math.sqrt(2.0)


def test_generator_e():
    assert np.array_equal(M.generator("E", (1, 2), 2), np.array([[0, 1], [0, 0]], dtype=complex))


def test_generator_y():
    expect = np.array([[0, 1 / SQ2], [-1 / SQ2, 0]], dtype=complex)
    assert np.allclose(M.generator("Y", (1, 2), 2), expect, atol=0)


def test_generator_x():
    expect = np.array([[0, 1 / SQ2], [1 / SQ2, 0]], dtype=complex)
    assert np.allclose(M.generator("X", (1, 2), 2), expect, atol=0)


def test_generator_d():
    assert np.array_equal(M.generator("D", 2, 3), np.diag([0, 1, 0]).astype(complex))


def test_generator_index_errors():
    with pytest.raises(ValidationError):
        M.generator("E", (0, 1), 2)
    with pytest.raises(ValidationError):
        M.generator("X", (2, 1), 3)
    with pytest.raises(ValidationError):
        M.generator("D", 4, 3)
    with pytest.raises(ValidationError):
        M.generator("Z", (1, 2), 3)


def test_so3_basis_is_three_rotations():
    basis = M.compact_basis(M.SO(3))
    assert len(basis) == 3
    expected = [M.generator("Y", p, 3) for p in [(1, 2), (1, 3), (2, 3)]]
    for z, sign, exp in zip(basis.matrices, basis.signs, expected):
        assert sign == 1
        assert np.allclose(z, exp, atol=0)


def test_u2_basis_size():
    assert len(M.compact_basis(M.U(2))) == 4


def test_sp1_basis_matches_diagonal_set():
    basis = M.compact_basis(M.Sp(1))
    assert len(basis) == 3
    exp = [
        np.array([[1j, 0], [0, -1j]]) / SQ2,
        np.array([[0, 1j], [1j, 0]]) / SQ2,
        np.array([[0, 1], [-1, 0]]) / SQ2,
    ]
    for z, target in zip(basis.matrices, exp):
        assert np.allclose(z, target, atol=0)


@pytest.mark.parametrize(
    "gid",
    [M.SO(2), M.SO(5), M.U(3), M.U(4), M.SU(2), M.SU(4), M.Sp(1), M.Sp(3)],
    ids=str,
)
def test_compact_basis_orthonormal(gid):
    basis = M.compact_basis(gid)
    n = gid.n
    dims = {"SO": n * (n - 1) // 2, "U": n * n, "SU": n * n - 1, "Sp": n * (2 * n + 1)}
    assert len(basis) == dims[gid.family]
    mats = basis.matrices
    gram = np.einsum("aij,bij->ab", mats, mats.conj()).real
    assert np.max(np.abs(gram - np.eye(len(basis)))) < 1e-12
    assert all(basis.signs == 1)


def test_compact_basis_is_shared_per_group_and_read_only():
    basis = M.compact_basis(M.Sp(2))
    assert M.compact_basis(M.GroupId("Sp", 2)) is basis
    for array in (basis.matrices, basis.signs, basis.casimir, basis.matrices[0]):
        with pytest.raises(ValueError):
            array[...] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        basis.matrices = basis.matrices[:1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        basis.group = M.Sp(3)


def test_a_frame_holds_read_only_copies_of_its_arrays():
    zs, signs = np.array([M.generator("Y", (1, 2), 2)]), [1]
    frame = M.SignedBasis(M.SO(2), zs, signs)
    zs[0, 0, 1] = 5.0
    assert frame.matrices[0, 0, 1] == 1 / SQ2
    assert frame.signs.dtype == float and frame.signs.tolist() == [1.0]
    assert not frame.matrices.flags.writeable and not frame.signs.flags.writeable
    empty = M.SignedBasis(M.Sp(2), (), ())
    assert empty.matrices.shape == (0, 4, 4) and empty.signs.shape == (0,) and len(empty) == 0


@pytest.mark.parametrize(
    "matrices, signs",
    [
        (np.zeros((1, 3, 3)), [1]),  # SO(2) matrices are 2 x 2
        (np.zeros((2, 2)), [1, 1]),  # one matrix, not a stack
        (np.zeros((2, 2, 2)), [1]),  # one sign short
        (np.zeros((1, 2, 2)), [[1]]),  # signs not a vector
        ((), [1]),
    ],
    ids=["matrix-size", "no-stack", "sign-count", "sign-shape", "empty-with-sign"],
)
def test_a_frame_of_the_wrong_shape_is_refused(matrices, signs):
    with pytest.raises(ValidationError, match="needs"):
        M.SignedBasis(M.SO(2), matrices, signs)


def test_frames_compare_and_hash_by_identity():
    basis = M.compact_basis(M.SO(3))
    copy = M.SignedBasis(basis.group, basis.matrices, basis.signs)
    keys = {basis: "shared", copy: "copy"}
    assert len(keys) == 2 and keys[basis] == "shared" and keys[copy] == "copy"
    assert basis == basis and basis != copy
    assert np.array_equal(copy.matrices, basis.matrices) and np.array_equal(copy.signs, basis.signs)


@pytest.mark.parametrize("gid", [M.SO(2), M.SO(5), M.U(3), M.SU(4), M.Sp(1), M.Sp(3)], ids=str)
def test_casimir_is_the_signed_sum_of_squares(gid):
    """sum_b eps_b Z_b^2 is a multiple of the identity on a compact algebra:
    -(n-1)/2 on so(n), -n on u(n), -(n^2-1)/n on su(n), -(2n+1)/2 on sp(n)."""
    basis = M.compact_basis(gid)
    zs = basis.matrices
    assert np.array_equal(basis.casimir, np.tensordot(basis.signs, zs @ zs, axes=1))
    n = gid.n
    scalar = {"SO": -(n - 1) / 2, "U": -n, "SU": -(n * n - 1) / n, "Sp": -(2 * n + 1) / 2}[gid.family]
    assert np.allclose(basis.casimir, scalar * np.eye(gid.matrix_dim), atol=1e-14)


def test_glc_split_n1():
    plus, minus = M.glc_split_basis(1)
    assert len(plus) == 1 and len(minus) == 1
    assert np.allclose(plus.matrices[0], [[1.0]], atol=0)
    assert np.allclose(minus.matrices[0], [[1j]], atol=0)


def test_glc_split_n2_counts_and_norms():
    plus, minus = M.glc_split_basis(2)
    assert len(plus) == 4 and len(minus) == 4
    for basis in (plus, minus):
        for z, sign in zip(basis.matrices, basis.signs):
            assert abs(sign * M.trace_form(z, z) - 1.0) < 1e-12
    # cross-orthogonality of the joint frame under the trace form
    frame = np.concatenate([plus.matrices, minus.matrices])
    for a in range(len(frame)):
        for b in range(a + 1, len(frame)):
            assert abs(M.trace_form(frame[a], frame[b])) < 1e-12


@pytest.mark.parametrize("n", range(2, 11))
def test_matrix_identities(n):
    rep = M.verify_matrix_identities(n)
    assert rep.passed
    assert rep.max_residual < 1e-12


def test_identity_sum_x_squares_n3_is_identity():
    pairs = [(r, s) for r in range(1, 4) for s in range(r + 1, 4)]
    total = sum(M.generator("X", p, 3) @ M.generator("X", p, 3) for p in pairs)
    assert np.max(np.abs(total - np.eye(3))) < 1e-12


def test_identity_sum_y_squares_n2():
    y = M.generator("Y", (1, 2), 2)
    assert np.max(np.abs(y @ y + 0.5 * np.eye(2))) < 1e-15


def test_identity_d_sandwich_off_diagonal_vanishes():
    n = 5
    e23 = M.generator("E", (2, 3), n)
    total = sum(
        M.generator("D", t, n) @ e23 @ M.generator("D", t, n).T for t in range(1, n + 1)
    )
    assert np.max(np.abs(total)) == 0.0


def test_structure_matrices():
    ipq = M.signature_matrix(1, 2)
    assert np.array_equal(ipq, np.diag([-1, 1, 1]).astype(complex))
    assert np.array_equal(ipq @ ipq, np.eye(3, dtype=complex))
    j = M.symplectic_matrix(2)
    assert np.array_equal(j @ j, -np.eye(4, dtype=complex))


def test_gram_schmidt_already_normalized():
    x12 = M.generator("X", (1, 2), 2)
    out = M.gram_schmidt_indefinite([x12])
    assert len(out) == 1
    assert out.signs[0] == 1
    assert np.allclose(out.matrices[0], x12, atol=1e-15)


def test_gram_schmidt_negative_vector():
    y12 = M.generator("Y", (1, 2), 2)
    out = M.gram_schmidt_indefinite([y12])
    assert out.signs[0] == -1
    assert np.allclose(out.matrices[0], y12, atol=1e-15)


def test_gram_schmidt_pivots_past_isotropic_combination():
    # {X12, X12+Y12}: the second vector is isotropic, but pivoting keeps it
    # out of the first slot; hand Gram-Schmidt gives {(X12,+1), (Y12,-1)}.
    x12 = M.generator("X", (1, 2), 2)
    y12 = M.generator("Y", (1, 2), 2)
    out = M.gram_schmidt_indefinite([x12, x12 + y12])
    assert out.signs.tolist() == [1, -1]
    assert np.allclose(out.matrices[0], x12, atol=1e-14)
    assert np.allclose(out.matrices[1], y12, atol=1e-14)


def test_gram_schmidt_null_direction_raises():
    x12 = M.generator("X", (1, 2), 2)
    y12 = M.generator("Y", (1, 2), 2)
    with pytest.raises(DegeneracyError):
        M.gram_schmidt_indefinite([x12 + y12])


def test_gram_schmidt_random_span_orthogonality():
    from lgh.sampling import SplitMix64

    rng = SplitMix64(5)
    n = 3
    span = []
    for _ in range(6):
        m = np.array(
            [[rng.complex_uniform(1.0) for _ in range(n)] for _ in range(n)]
        )
        span.append(m)
    out = M.gram_schmidt_indefinite(span)
    assert len(out) == 6
    for a in range(6):
        za = out.matrices[a]
        assert abs(M.trace_form(za, za) - out.signs[a]) < 1e-10
        for b in range(a + 1, 6):
            assert abs(M.trace_form(za, out.matrices[b])) < 1e-10


def test_group_id_validation():
    with pytest.raises(ValidationError):
        M.GroupId("SO", n=0)
    with pytest.raises(ValidationError):
        M.GroupId("SOpq", n=3)
    with pytest.raises(ValidationError):
        M.GroupId("SUstar", n=3)
    with pytest.raises(ValidationError):
        M.GroupId("XX", n=3)
    assert M.sp_pq(1, 2).matrix_dim == 6
    assert str(M.so_star(4)) == "SO*(4)"
