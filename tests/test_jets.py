"""Jet arithmetic, the stacked walk of linear members, finite-difference
oracle, tau/kappa."""

import itertools
import math

import numpy as np
import oracle
import pytest
from oracle import Const, Product, Sum, walk
from scipy.linalg import expm

from lgh import matrices as M
from lgh.errors import DomainError, ValidationError
from lgh.exprs import Entry, HomPoly, LinearTrace
from lgh.jets import BasisCurves, Jet2, frame_operators
from lgh.sampling import SplitMix64, sample_compact

SQ2 = math.sqrt(2.0)


def _walk(members, base, z):
    """The members' jets along s -> base exp(sZ), walked as one coefficient
    stack, as scalars (f0, f1, f2) per member."""
    base = np.asarray(base, dtype=complex)
    n = base.shape[-1]
    frame = M.SignedBasis(M.U(n), [z], [1])
    jet = LinearTrace(np.stack([f.coefficients(n) for f in members])).eval_jet(BasisCurves(base[None], frame))
    return [(jet.f0[0, a], jet.f1[0, a, 0], jet.f2[0, a, 0]) for a in range(len(members))]


def _tau(f, x, basis):
    return complex(frame_operators([f], [x], basis).tau[0, 0])


def _kappa(f, g, x, basis):
    return complex(frame_operators([f, g], [x], basis).kappa[0, 0, 1])


def test_entry_jet_off_diagonal():
    [(f0, f1, f2)] = _walk([Entry(1, 2)], np.eye(2), M.generator("Y", (1, 2), 2))
    assert abs(f0) == 0
    assert abs(f1 - 1 / SQ2) < 1e-15
    assert abs(f2) < 1e-15


def test_entry_jet_diagonal():
    [(f0, f1, f2)] = _walk([Entry(1, 1)], np.eye(2), M.generator("Y", (1, 2), 2))
    assert f0 == 1
    assert abs(f1) == 0
    assert abs(f2 + 0.5) < 1e-15


def test_entry_jet_zero_direction():
    x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    jets = _walk([Entry(2, 1), Entry(1, 2), LinearTrace(np.ones((2, 2)))], x, np.zeros((2, 2)))
    assert jets == [(3.0, 0.0, 0.0), (2.0, 0.0, 0.0), (10.0, 0.0, 0.0)]


def test_frame_operators_refuse_malformed_members():
    """Only linear members and polynomials in them are measured: anything
    else, an entry out of range or a coefficient matrix of the wrong size
    is a ValidationError, not an AttributeError or a shape error."""
    from lgh import families as fa
    from lgh import morphisms as mo

    gid = M.U(2)
    basis = M.compact_basis(gid)
    samples = sample_compact(gid, 3, 0.5, 4)
    fam = fa.u_family(2, np.array([1.0, 0.0]))
    hopf = mo.quotient_morphism(fam, {(1, 0): 1.0}, {(0, 1): 1.0})
    bad = [
        Const(1.0),
        walk(HomPoly({(2,): 1.0}, [Entry(1, 1)])),
        hopf,
        object(),
        Entry(3, 1),
        Entry(1, 3),
        LinearTrace(np.eye(3)),
        LinearTrace(np.stack([np.eye(2), np.eye(2)])),
        HomPoly({(1,): 1.0}, [Const(1.0)]),
        HomPoly({(1,): 1.0}, [Entry(3, 3)]),
        HomPoly({(1, 1): 1.0}, [Entry(1, 1), object()]),
    ]
    for f in bad:
        with pytest.raises(ValidationError):
            frame_operators([Entry(1, 1), f], samples, basis)
    with pytest.raises(ValidationError):
        LinearTrace(np.ones((2, 3)))
    with pytest.raises(ValidationError):
        Entry(0, 1)


def _rand(rng, n):
    return np.array([[rng.complex_uniform() for _ in range(n)] for _ in range(n)])


def _stack_cases():
    from lgh import duality as du

    rng = SplitMix64(8)
    gid = M.U(3)
    members = [Entry(1, 2), LinearTrace(_rand(rng, 3)), Entry(3, 3), LinearTrace(_rand(rng, 3))]
    yield "U(3)", members, M.compact_basis(gid), sample_compact(gid, 12, 0.5, 6)
    pair = du.dual_pair(M.su_pq(1, 2))
    members = [LinearTrace(_rand(rng, 3)), Entry(2, 1), Entry(1, 1), LinearTrace(_rand(rng, 3))]
    yield "SU(1,2) frame", members, pair.frame, du.sample_noncompact(pair, 12, 0.5, 7)


@pytest.mark.parametrize("case", list(_stack_cases()), ids=lambda c: c[0])
def test_member_values_do_not_depend_on_the_stack(case):
    """A member's column of values is the same bits whether it is walked
    alone or with any subset of the other members, in any order."""
    _, members, basis, samples = case
    alone = [frame_operators([f], samples, basis).values[:, 0] for f in members]
    for size in range(2, len(members) + 1):
        for order in itertools.permutations(range(len(members)), size):
            table = frame_operators([members[a] for a in order], samples, basis)
            for column, a in enumerate(order):
                assert np.array_equal(table.values[:, column], alone[a])


def test_jet_mul_constant_identity():
    assert Jet2(1, 2, 3) * Jet2(1, 0, 0) == Jet2(1, 2, 3)


def test_jet_mul_first_order_square():
    # second derivative of a product of two first-order jets is 2 f' g'
    assert Jet2(0, 1, 0) * Jet2(0, 1, 0) == Jet2(0, 0, 2)


def test_jet_div_self_is_one():
    out = Jet2(1, 1, 0) / Jet2(1, 1, 0)
    assert out == Jet2(1.0, 0.0, 0.0)


def test_jet_div_by_zero_raises():
    with pytest.raises(DomainError):
        Jet2(1, 0, 0) / Jet2(0, 1, 0)


def test_leibniz_consistency_random():
    rng = SplitMix64(99)
    for _ in range(50):
        a = Jet2(rng.complex_uniform(), rng.complex_uniform(), rng.complex_uniform())
        b = Jet2(rng.complex_uniform(), rng.complex_uniform(), rng.complex_uniform())
        ab = a * b
        ba = b * a
        assert abs(ab.f0 - ba.f0) < 1e-12
        assert abs(ab.f1 - ba.f1) < 1e-12
        assert abs(ab.f2 - ba.f2) < 1e-12
        if abs(a.f0) > 0.1:
            back = a * (b / a)
            assert abs(back.f0 - b.f0) < 1e-12
            assert abs(back.f1 - b.f1) < 1e-12
            assert abs(back.f2 - b.f2) < 1e-12


def _random_poly(members, rng):
    # random polynomial of degree <= 3 in a few entry coordinates
    terms = []
    for _ in range(4):
        deg = 1 + rng.next_u64() % 3
        factors = [members[rng.next_u64() % len(members)] for _ in range(deg)]
        terms.append(Product([Const(rng.complex_uniform())] + factors))
    return Sum(terms)


def test_finite_difference_oracle():
    rng = SplitMix64(2024)
    gid = M.U(3)
    basis = M.compact_basis(gid)
    members = [Entry(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
    h = 1e-4
    for trial in range(10):
        x = sample_compact(gid, 1, 0.5, seed=100 + trial).points[0]
        b = rng.next_u64() % len(basis)
        z = basis.matrices[b]
        f = _random_poly(members, rng)
        jet = oracle.jet(f, oracle.Curves(x[None], M.SignedBasis(gid, [z], basis.signs[b : b + 1])))
        vals = {}
        for s in (-h, 0.0, h):
            vals[s] = oracle.value(f, x @ expm(s * z))
        fd1 = (vals[h] - vals[-h]) / (2 * h)
        fd2 = (vals[h] - 2 * vals[0.0] + vals[-h]) / (h * h)
        assert abs(fd1 - complex(jet.f1[0, 0])) < 5e-7
        assert abs(fd2 - complex(jet.f2[0, 0])) < 5e-5


def test_tau_x11_identity_so2():
    basis = M.compact_basis(M.SO(2))
    val = _tau(Entry(1, 1), np.eye(2, dtype=complex), basis)
    assert abs(val + 0.5) < 1e-14


def test_tau_z11_identity_u2():
    basis = M.compact_basis(M.U(2))
    val = _tau(Entry(1, 1), np.eye(2, dtype=complex), basis)
    assert abs(val + 2.0) < 1e-14


def test_tau_constant_vanishes():
    basis = M.compact_basis(M.U(3))
    x = sample_compact(M.U(3), 1, 0.5, 7).points[0]
    assert oracle.tau(Const(3.5 + 1j), x, basis) == 0


def test_kappa_x11_with_itself_at_identity():
    basis = M.compact_basis(M.SO(2))
    assert _kappa(Entry(1, 1), Entry(1, 1), np.eye(2, dtype=complex), basis) == 0


def test_kappa_z11_z22_at_identity():
    basis = M.compact_basis(M.U(2))
    assert abs(_kappa(Entry(1, 1), Entry(2, 2), np.eye(2, dtype=complex), basis)) < 1e-15


def test_kappa_against_constant_vanishes():
    basis = M.compact_basis(M.U(2))
    x = sample_compact(M.U(2), 1, 0.5, 8).points[0]
    assert oracle.kappa(Entry(1, 2), Const(4.0), x, basis) == 0


def test_kappa_bilinearity():
    basis = M.compact_basis(M.U(2))
    rng = SplitMix64(31)
    f = Entry(1, 1)
    g = Entry(1, 2)
    hh = Entry(2, 1)
    for trial in range(5):
        x = sample_compact(M.U(2), 1, 0.5, 300 + trial).points[0]
        alpha = rng.complex_uniform()
        lhs = oracle.kappa(Sum([Product([Const(alpha), f]), g]), hh, x, basis)
        rhs = alpha * _kappa(f, hh, x, basis) + _kappa(g, hh, x, basis)
        assert abs(lhs - rhs) < 1e-10


def _hermitian_gs(mats):
    out = []
    for m in mats:
        w = m.copy()
        for u in out:
            w = w - np.einsum("ij,ij->", u.conj(), w) * u
        w = w / math.sqrt(abs(np.einsum("ij,ij->", w.conj(), w).real))
        out.append(w)
    return out


def test_tau_kappa_basis_independence():
    rng = np.random.default_rng(17)
    gid = M.SU(2)
    basis = M.compact_basis(gid)
    mats = basis.matrices
    o, _ = np.linalg.qr(rng.normal(size=(len(basis), len(basis))))
    mixed = np.einsum("ab,bij->aij", o, mats)
    mixed = _hermitian_gs(list(mixed))
    basis2 = M.SignedBasis(gid, mixed, np.ones(len(mixed)))
    f = Entry(1, 1)
    g = Entry(1, 2)
    for trial in range(5):
        x = sample_compact(gid, 1, 0.5, 500 + trial).points[0]
        assert abs(_tau(f, x, basis) - _tau(f, x, basis2)) < 1e-9
        assert abs(_kappa(f, g, x, basis) - _kappa(f, g, x, basis2)) < 1e-9


def test_basis_curves_match_single_curves():
    """The frame table on the whole frame is the signed sum of the tables
    on its one-vector frames: the curves along every vector at once give
    each curve's jet."""
    gid = M.Sp(1)
    basis = M.compact_basis(gid)
    samples = sample_compact(gid, 5, 0.5, 12)
    members = [HomPoly({(2,): 1.0}, [Entry(1, 2)]), Entry(1, 1)]
    whole = frame_operators(members, samples, basis)
    singles = [
        frame_operators(members, samples, M.SignedBasis(gid, [z], [sign])) for z, sign in zip(basis.matrices, basis.signs)
    ]
    # stacked and single matrix products may take different BLAS paths, so
    # agreement is to rounding rather than bitwise
    assert all(np.array_equal(one.values, whole.values) for one in singles)
    assert np.abs(whole.tau - sum(one.tau for one in singles)).max() < 1e-14
    assert np.abs(whole.kappa - sum(one.kappa for one in singles)).max() < 1e-14


def _frame_cases():
    from lgh import duality as du
    from lgh import families as fa
    from lgh import morphisms as mo

    fam = fa.u_family(2, np.array([1.0, 0.5j]))
    members = fam.members + mo.power_family(fam, 2).members
    yield "U(2)+powers", members, M.compact_basis(fam.group), sample_compact(fam.group, 40, 0.5, 21)
    pair = du.dual_pair(M.su_pq(1, 2))
    dfam = du.default_compact_family(pair)
    members = dfam.members + mo.power_family(dfam, 2).members[:3]
    yield "SU(1,2) frame", members, pair.frame, du.sample_noncompact(pair, 40, 0.5, 22)


@pytest.mark.parametrize("case", list(_frame_cases()), ids=lambda c: c[0])
def test_frame_operators_match_per_sample_tau_and_kappa(case):
    """The kernel, power members composed by the chain rule, against the
    full jet walk of each member at each sample; and every row of the
    stacked table equal, bit for bit, to the one-point table at its sample."""
    from lgh.jets import frame_operators

    _, members, basis, samples = case
    ops = frame_operators(members, samples, basis)
    full = oracle.frame_table(members, samples, basis)
    m = len(members)
    assert ops.values.shape == (len(samples), m)
    assert ops.tau.shape == (len(samples), m)
    assert ops.kappa.shape == (len(samples), m, m)
    for s, x in enumerate(samples):
        one = frame_operators(members, [x], basis)
        assert np.array_equal(ops.values[s], one.values[0])
        assert np.array_equal(ops.tau[s], one.tau[0])
        assert np.array_equal(ops.kappa[s], one.kappa[0])
        assert np.abs(ops.values[s] - full.values[s]).max() <= 1e-12
        assert np.abs(ops.tau[s] - full.tau[s]).max() <= 1e-12
        assert np.abs(ops.kappa[s] - full.kappa[s]).max() <= 1e-12


def test_frame_operators_pass_their_own_table_through_only():
    from lgh import families as fa
    from lgh.errors import ValidationError
    from lgh.exprs import compose
    from lgh.jets import frame_operators

    fam = fa.u_family(2, np.array([1.0, 0.0]))
    basis = M.compact_basis(fam.group)
    samples = sample_compact(fam.group, 5, 0.5, 3)
    table = frame_operators(fam.members, samples, basis)
    assert frame_operators(fam.members, table, basis) is table
    with pytest.raises(ValidationError):
        frame_operators(fam.members[:1], table, basis)
    with pytest.raises(ValidationError):
        frame_operators(fam.members, table, M.compact_basis(M.SU(2)))
    with pytest.raises(ValidationError):
        frame_operators(fam.members, [np.eye(3)], basis)
    empty = frame_operators(fam.members, [], basis)
    assert empty.values.shape == (0, 2) and empty.kappa.shape == (0, 2, 2)
    none = compose([], table)
    assert none.values.shape == (5, 0) and none.kappa.shape == (5, 0, 0)
