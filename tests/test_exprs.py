"""Member and polynomial evaluation, homogeneity, circle action; the
oracle's expression nodes."""

import math

import numpy as np
import oracle
import pytest
from oracle import Const, Product, Quotient

from lgh import matrices as M
from lgh.errors import DomainError, ValidationError
from lgh.exprs import Entry, HomPoly, LinearTrace
from lgh.jets import frame_operators
from lgh.sampling import SplitMix64, sample_compact


def _rand_matrix(rng, n):
    return np.array([[rng.complex_uniform() for _ in range(n)] for _ in range(n)])


def _y12_frame():
    """The one-vector frame of the curve s -> exp(s Y_12) of U(2)."""
    return M.SignedBasis(M.U(2), [M.generator("Y", (1, 2), 2)], [1])


def _value(f, x) -> complex:
    """A member's or a polynomial's value at x: the value of its one-point
    table on an empty frame."""
    frame = M.SignedBasis(M.GroupId("GLC-split", x.shape[-1]), (), ())
    return complex(frame_operators([f], [x], frame).values[0, 0])


def test_linear_trace_single_entry():
    rng = SplitMix64(1)
    x = _rand_matrix(rng, 3)
    f = LinearTrace(M.generator("E", (1, 2), 3))
    assert _value(f, x) == x[0, 1]


def test_linear_trace_outer_product():
    # p = e1, a = e2: trace(p^t a x^t) picks out x_12
    rng = SplitMix64(2)
    x = _rand_matrix(rng, 2)
    a = np.outer([1.0, 0.0], [0.0, 1.0]).astype(complex)
    assert _value(LinearTrace(a), x) == x[0, 1]


def test_hompoly_square_at_identity():
    f = HomPoly({(2,): 1.0}, [Entry(1, 1)])
    assert _value(f, np.eye(2, dtype=complex)) == 1.0


def test_eval_jet_entry_seed():
    """x_12 at the identity along Y_12: value 0, f1 = 1/sqrt(2), f2 = 0, so
    tau = 0 and kappa(x_12, x_12) = 1/2."""
    table = frame_operators([Entry(1, 2)], [np.eye(2)], _y12_frame())
    assert (abs(table.values[0, 0]), abs(table.tau[0, 0])) == (0.0, 0.0)
    assert abs(table.kappa[0, 0, 0] - 0.5) < 1e-15


def test_eval_jet_constant():
    jet = oracle.jet(Const(5), oracle.Curves(np.eye(2)[None], _y12_frame()))
    assert (jet.f0[0], jet.f1[0, 0], jet.f2[0, 0]) == (5.0, 0.0, 0.0)


def test_eval_jet_product_square():
    jet = oracle.jet(Product([Entry(1, 1), Entry(1, 1)]), oracle.Curves(np.eye(2)[None], _y12_frame()))
    assert abs(jet.f0[0] - 1.0) < 1e-15
    assert abs(jet.f1[0, 0]) == 0.0
    assert abs(jet.f2[0, 0] + 1.0) < 1e-15


def test_jet_value_matches_point_evaluation_bitwise():
    """Every member type and a polynomial: the value at a point, its
    one-point table on an empty frame, is bit for bit its value in a
    stacked frame table, and the oracle's value to rounding."""
    rng = SplitMix64(3)
    gid = M.U(2)
    basis = M.compact_basis(gid)
    xs = sample_compact(gid, 20, 0.5, 5).points
    members = [Entry(1, 1), Entry(1, 2)]
    trees = [
        Entry(2, 1),
        LinearTrace(_rand_matrix(rng, 2)),
        HomPoly({(2, 1): 1.5 + 0.5j, (0, 3): -2j}, members),
    ]
    for f in trees:
        table = frame_operators([f], xs, basis)
        for s, x in enumerate(xs):
            assert _value(f, x) == table.values[s, 0]
            assert abs(_value(f, x) - oracle.value(f, x)) <= 1e-14


def test_linear_trace_dimension_mismatch_is_a_validation_error():
    f = LinearTrace(np.eye(3))
    x = sample_compact(M.U(2), 1, 0.5, 5).points
    with pytest.raises(ValidationError):
        f.coefficients(2)
    with pytest.raises(ValidationError):
        frame_operators([f], x, M.compact_basis(M.U(2)))


def test_hompoly_homogeneity():
    rng = SplitMix64(4)
    members = [Entry(1, 1), Entry(1, 2), Entry(2, 1)]
    f = HomPoly({(1, 1, 1): 1.0, (3, 0, 0): 0.5j, (0, 2, 1): -1.0}, members)
    for _ in range(10):
        x = _rand_matrix(rng, 2)
        lam = rng.complex_uniform()
        lhs = _value(f, lam * x)
        rhs = lam**3 * _value(f, x)
        assert abs(lhs - rhs) < 1e-10


def test_equal_degree_quotient_scale_invariance():
    rng = SplitMix64(6)
    members = [Entry(1, 1), Entry(1, 2)]
    p = HomPoly({(2, 0): 1.0, (1, 1): 2.0}, members)
    q = HomPoly({(0, 2): 1.0, (1, 1): -0.5}, members)
    f = Quotient(p, q, 1e-8)
    for _ in range(10):
        x = _rand_matrix(rng, 2)
        lam = rng.complex_uniform()
        if abs(lam) < 0.2 or abs(_value(q, x)) < 1e-3:
            continue
        assert abs(oracle.value(f, lam * x) - oracle.value(f, x)) < 1e-10


def _circle_action(value, theta, x):
    """Values at x and at e^{i theta} x: equal-degree quotients are invariant,
    a degree-d polynomial picks up e^{i d theta}."""
    return value(x), value(np.exp(1j * theta) * x)


def test_scale_action_hopf_invariant():
    x = sample_compact(M.U(2), 1, 0.5, 9).points[0]
    f = Quotient(
        HomPoly({(1, 0): 1.0}, [Entry(1, 1), Entry(1, 2)]),
        HomPoly({(0, 1): 1.0}, [Entry(1, 1), Entry(1, 2)]),
        1e-2,
    )
    a, b = _circle_action(lambda y: oracle.value(f, y), math.pi / 3, x)
    assert abs(a - b) < 1e-10


def test_scale_action_degree_two_quotient_at_pi():
    x = sample_compact(M.U(2), 1, 0.5, 10).points[0]
    members = [Entry(1, 1), Entry(1, 2)]
    f = Quotient(
        HomPoly({(2, 0): 1.0, (1, 1): 1.0}, members),
        HomPoly({(0, 2): 1.0}, members),
        1e-3,
    )
    a, b = _circle_action(lambda y: oracle.value(f, y), math.pi, x)
    assert abs(a - b) < 1e-10


def test_scale_action_negative_control_degree_one():
    x = sample_compact(M.U(2), 1, 0.5, 11).points[0]
    f = HomPoly({(1, 0): 1.0}, [Entry(1, 1), Entry(1, 2)])
    a, b = _circle_action(lambda y: _value(f, y), math.pi / 2, x)
    assert abs(b - 1j * a) < 1e-12
    assert abs(a - b) > 1e-3  # values genuinely differ


def test_quotient_pole_reports_node():
    f = Quotient(Const(1.0), Entry(1, 2), 1e-3)
    with pytest.raises(DomainError) as err:
        oracle.value(f, np.eye(2, dtype=complex))
    assert err.value.node is f


def test_hompoly_validation():
    mixed = HomPoly({(1, 0): 1.0, (2, 0): 1.0, (0, 0): 3.0}, [Entry(1, 1), Entry(1, 2)])
    assert (mixed.degree, mixed.homogeneous) == (2, False)
    assert _value(mixed, 2.0 * np.eye(2, dtype=complex)) == 9.0
    with pytest.raises(ValidationError):
        HomPoly({(1,): 1.0}, [Entry(1, 1), Entry(1, 2)])
    with pytest.raises(ValidationError):
        HomPoly({}, [Entry(1, 1)])


def test_hompoly_refuses_an_empty_argument_list():
    """A constant over no arguments has no monomial table to walk."""
    with pytest.raises(ValidationError):
        HomPoly({(): 3}, [])
    with pytest.raises(ValidationError):
        frame_operators([HomPoly({(): 3}, [])], [np.eye(2)] * 3, M.compact_basis(M.U(2)))
