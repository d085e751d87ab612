"""Batched sampling: the vectorised SplitMix64 block, the batched ``expm``
against scipy's, batch-size invariance of the drawn points and the stacked
defect checks."""

import functools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import oracle
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import linalg

from lgh import duality as du
from lgh import matrices as M
from lgh import sampling
from lgh.errors import ValidationError
from lgh.harness import DUALITY_PAIRS, pair_group_from_spec
from lgh.sampling import _THETA13, GroupSampler, SplitMix64, _matmul, compact_sampler, expm, group_defect

# every compact group the suite samples
COMPACT = [M.SO(n) for n in range(2, 7)] + [M.U(n) for n in (2, 3, 4)] + [M.SU(2), M.SU(3)] + [
    M.Sp(n) for n in (1, 2, 3)
]
PAIRS = {str(p.noncompact): p for p in (du.dual_pair(pair_group_from_spec({"family": a, **kw})) for a, kw in DUALITY_PAIRS)}
# the frames with no imaginary part, which take() exponentiates in float64
REAL_FRAMES = [str(M.SO(n)) for n in range(2, 7)] + ["SL(2,R)", "SL(3,R)", "Sp(1,R)", "Sp(2,R)"]


def _bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("seed", [0, 42, 2**63 + 1, 2**64 - 1])
@pytest.mark.parametrize("count", [0, 1, 17])
def test_uniforms_block_matches_scalar_stream(seed, count):
    block, scalar = SplitMix64(seed), SplitMix64(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = block.uniforms(count, -0.5, 0.5)
        unit = block.uniforms(count)
    want = np.array([scalar.uniform(-0.5, 0.5) for _ in range(count)])
    want_unit = np.array([scalar.uniform() for _ in range(count)])
    assert got.shape == (count,) and got.dtype == np.float64
    assert _bits(got) == _bits(want)
    assert _bits(unit) == _bits(want_unit)
    # the block leaves the stream where the scalar draws would
    assert [block.next_u64() for _ in range(3)] == [scalar.next_u64() for _ in range(3)]
    assert block.uniform(-1.0, 2.0) == scalar.uniform(-1.0, 2.0)


def _frame(name):
    """The frame of a group named by ``str``: a compact group's basis, a dual
    pair's aligned frame, or the identity pair's frame on SU(2)."""
    if name == "identity SU(2)":
        return du.identity_pair(M.SU(2)).frame
    if name in PAIRS:
        return PAIRS[name].frame
    return M.compact_basis(next(g for g in COMPACT + [M.SO(12)] if str(g) == name))


def _defect_and_sampler(name, seed=42, radius=0.5):
    """The defect function and a fresh sampler of a group named by ``str``."""
    frame = _frame(name)
    return (lambda xs: group_defect(frame.group, xs)), GroupSampler(frame, radius, seed)


@pytest.mark.parametrize("name", [str(g) for g in COMPACT] + list(PAIRS))
def test_take_is_independent_of_batching(name):
    total = 40
    whole = _defect_and_sampler(name)[1].take(total)
    assert whole.points.shape[0] == whole.defects.shape[0] == len(whole) == total
    for split in (0, 1, 7, 37):
        sampler = _defect_and_sampler(name)[1]
        parts = sampler.take(split)
        parts.extend(sampler.take(total - split))
        assert _bits(parts.points) == _bits(whole.points), split
        assert _bits(parts.defects) == _bits(whole.defects), split
    assert isinstance(whole.max_defect, float)
    assert whole.max_defect == float(np.max(whole.defects)) < 1e-9
    assert all(np.array_equal(x, whole.points[k]) for k, x in enumerate(whole))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from([str(g) for g in COMPACT] + list(PAIRS) + ["identity SU(2)"]),
    radius=st.floats(0.0, 1.0, exclude_min=True),
    seed=st.integers(0, 2**64 - 1),
    a=st.integers(0, 5),
    b=st.integers(0, 5),
)
def test_any_take_a_then_b_is_take_a_plus_b(name, radius, seed, a, b):
    """On any compact or aligned frame, at any radius in (0, 1] and any
    seed, ``take(a)`` then ``take(b)`` give the points and defects of
    ``take(a + b)`` bit for bit."""
    whole = _defect_and_sampler(name, seed, radius)[1].take(a + b)
    sampler = _defect_and_sampler(name, seed, radius)[1]
    parts = sampler.take(a)
    parts.extend(sampler.take(b))
    assert _bits(parts.points) == _bits(whole.points)
    assert _bits(parts.defects) == _bits(whole.defects)


@pytest.mark.parametrize("name", [str(g) for g in COMPACT] + list(PAIRS) + ["identity SU(2)"])
def test_stacked_defect_equals_one_point_defects(name):
    defect, sampler = _defect_and_sampler(name, seed=7)
    xs = sampler.take(12).points
    stacked = defect(xs)
    assert stacked.shape == (12,)
    single = np.array([defect(xs[k : k + 1])[0] for k in range(12)])
    assert _bits(stacked) == _bits(single)
    assert defect(xs[:0]).shape == (0,)


def test_take_rejects_a_negative_count():
    sampler = compact_sampler(M.U(2), 0.5, 42)
    with pytest.raises(ValidationError):
        sampler.take(-1)
    assert np.array_equal(sampler.take(3).points, compact_sampler(M.U(2), 0.5, 42).take(3).points)


def _generators(name, count, radius, seed=5):
    """``count`` random real combinations of the frame the sampler of the
    group or pair ``name`` draws from, coefficients uniform in [-radius, radius]."""
    mats = _frame(name).matrices
    coeffs = SplitMix64(seed).uniforms(count * len(mats), -radius, radius).reshape(count, len(mats))
    return np.tensordot(coeffs, mats, axes=1)


def _squarings(gens):
    """The s of each matrix: the least s >= 0 with ||A / 2^s||_1 < theta_13."""
    _, e = np.frexp(np.max(np.sum(np.abs(gens), axis=-2), axis=-1) / _THETA13)
    return np.maximum(e, 0)


def _assert_close_to_scipy(gens, rel):
    got, want = expm(gens), linalg.expm(gens)
    assert got.shape == want.shape == gens.shape
    err = np.max(np.abs(got - want), axis=(-2, -1))
    assert np.all(err <= rel * np.max(np.abs(want), axis=(-2, -1))), np.max(err)


@pytest.mark.parametrize("name", [str(g) for g in COMPACT] + list(PAIRS))
def test_expm_matches_scipy_on_every_sampled_frame(name):
    """At the largest radius a config allows, where no matrix is squared."""
    gens = _generators(name, 50, 1.0)
    assert not _squarings(gens).any()
    _assert_close_to_scipy(gens, 2e-15)


@pytest.mark.parametrize("name", ["SO(6)", "U(4)", "Sp(3)", "SU(1,2)", "Sp(2,R)"])
def test_expm_matches_scipy_where_it_squares(name):
    gens = _generators(name, 50, 16.0)
    assert _squarings(gens).min() > 0 and _squarings(gens).max() >= 3
    _assert_close_to_scipy(gens, 5e-14)


def test_expm_of_a_stack_is_the_stack_of_one_matrix_calls():
    """A mixed stack, some matrices squared and some not, gives each matrix
    the bits it gets alone: every step acts on each matrix separately."""
    gens = _generators("Sp(2)", 12, 1.0)
    gens[::3] *= 20.0
    s = _squarings(gens)
    assert (s == 0).any() and (s > 2).any()
    stacked = expm(gens)
    assert _bits(stacked) == _bits(np.array([expm(g) for g in gens]))
    assert _bits(expm(gens.reshape(3, 4, 4, 4))) == _bits(stacked)


def test_expm_of_zero_is_the_identity_and_empty_stacks_keep_their_shape():
    for n in (1, 2, 6):
        want = np.broadcast_to(np.eye(n, dtype=complex), (3, n, n))
        assert _bits(expm(np.zeros((3, n, n), dtype=complex))) == _bits(want)
        got = expm(np.zeros((3, n, n)))
        assert got.dtype == np.float64
        assert _bits(got) == _bits(want.real)
    assert expm(np.zeros((0, 2, 3, 3), dtype=complex)).shape == (0, 2, 3, 3)


def _matmul_by_k(a, b):
    """The reference product: a[:, 0] b[0], then each a[:, k] b[k] added in
    the order k = 1, 2, ..., one term at a time."""
    out = a[:, 0, None] * b[0]
    for k in range(1, a.shape[1]):
        out += a[:, k, None] * b[k]
    return out


def _signed_stack(rng, n, pts, cplx, zeros):
    """An (n, n, pts) stack spread over many binades, with a fraction
    ``zeros`` of its entries, and some whole rows and columns, set to +0.0
    or -0.0, so that products and whole sums of products are signed zeros."""
    def part():
        x = rng.standard_normal((n, n, pts)) * np.exp2(rng.integers(-40, 40, (n, n, pts)))
        for shape in ((n, n, pts), (n, 1, pts), (1, n, 1)):
            x = np.where(rng.random(shape) < zeros, 0.0, x)
        return np.where(rng.random(x.shape) < 0.5, -x, x)

    return part() + 1j * part() if cplx else part()


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 8),
    pts=st.sampled_from([0, 1, 2, 7, 300]),
    cplx=st.booleans(),
    zeros=st.sampled_from([0.0, 0.3, 0.9, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=8, pts=300, cplx=True, zeros=0.3, seed=1)
def test_matmul_adds_in_k_order_bit_for_bit(n, pts, cplx, zeros, seed):
    """The one-call product (two ufunc calls per block of rows, several
    blocks at n = 8 on 300 points) rounds every entry as the loop over k
    does, signs of zero included."""
    rng = np.random.default_rng(seed)
    a, b = _signed_stack(rng, n, pts, cplx, zeros), _signed_stack(rng, n, pts, cplx, zeros)
    for x, y in ((a, b), (b, a), (a, a)):
        got, want = _matmul(x, y), _matmul_by_k(x, y)
        assert got.shape == want.shape == (n, n, pts) and got.dtype == want.dtype
        assert _bits(got) == _bits(want)
    # non-contiguous factors, as take() multiplies them, and an out= buffer
    out = np.empty((n, n, pts), dtype=a.dtype)
    at = np.ascontiguousarray(a.transpose(2, 0, 1)).transpose(1, 2, 0)
    assert _matmul(at, b, out=out) is out
    assert _bits(out) == _bits(_matmul_by_k(a, b))


def test_take_looks_up_expm_and_the_defect_at_call_time(monkeypatch):
    """perfbench's layer table times ``sampling.expm`` and
    ``sampling.compact_defect`` by patching those names: each take() calls
    each of them once, through the module, whatever the count."""
    calls = []

    def spy(name, f):
        def wrapped(*args):
            calls.append(name)
            return f(*args)

        return wrapped

    monkeypatch.setattr(sampling, "expm", spy("expm", expm))
    monkeypatch.setattr(sampling, "compact_defect", spy("defect", group_defect))
    for name in ("SO(4)", "Sp(2)", "SU(1,2)"):
        sampler = _defect_and_sampler(name)[1]
        for count in (0, 1, 37):
            calls.clear()
            sampler.take(count)
            assert calls == ["expm", "defect"], (name, count)


def test_the_cli_loads_no_scipy(tmp_path):
    """``lgh`` depends on numpy alone: importing the CLI and running a sampled
    check leaves no scipy module loaded.  scipy's import alone took longer
    than the rest of the CLI's start-up."""
    code = (
        "import sys, lgh.cli\n"
        f"argv = ['verify-family', '--group', 'su', '--n', '2', '--samples', '5', '--out', {str(tmp_path / 'r.json')!r}]\n"
        "assert lgh.cli.main(argv) == 0\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def _combine(coeffs: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """sum_j coeffs[..., j] * mats[j] for real arrays, added term by term in
    the order j = 0, 1, ..., zero terms included: the dense sum the
    sampler's gather plan skips the zeros of."""
    out = np.zeros(coeffs.shape[:-1] + mats.shape[1:])
    for j in range(mats.shape[0]):
        out += coeffs[..., j, None, None] * mats[j]
    return out


def _complex_take(name, radius, seed, count):
    """The points of ``take(count)`` on a fresh sampler of ``name`` as the
    complex kernel gives them: complex generators, expm and factor product."""
    mats = _frame(name).matrices
    b, n = mats.shape[0], mats.shape[-1]
    coeffs = SplitMix64(seed).uniforms(2 * b * count, -radius, radius).reshape(count, 2, b)
    gens = np.empty((count, 2, n, n), dtype=complex)
    gens.real = _combine(coeffs, mats.real)
    gens.imag = _combine(coeffs, mats.imag)
    factors = np.moveaxis(expm(gens), (0, 1), (-1, 0))
    return np.ascontiguousarray(np.moveaxis(_matmul(*factors), -1, 0))


def _generator_dtypes(monkeypatch, name) -> list:
    """The dtype of each generator stack ``take`` exponentiates for ``name``."""
    seen = []

    def spy(a):
        seen.append(np.asarray(a).dtype)
        return expm(a)

    monkeypatch.setattr(sampling, "expm", spy)
    _defect_and_sampler(name)[1].take(3)
    return seen


@pytest.mark.parametrize("radius", [0.5, 1.0])
@pytest.mark.parametrize("name", REAL_FRAMES)
def test_real_frames_are_sampled_in_float64_with_the_complex_kernels_bits(name, radius, monkeypatch):
    """A complex product of factors with zero imaginary parts rounds as the
    real product, so the float64 points are the complex kernel's, down to the
    sign of every zero.  None of these frames squares a matrix at a radius in
    (0, 1]."""
    assert _generator_dtypes(monkeypatch, name) == [np.float64]
    got = _defect_and_sampler(name, 11, radius)[1].take(60).points
    assert got.dtype == complex
    assert _bits(got) == _bits(_complex_take(name, radius, 11, 60))


# the radius at which each frame squares some of its 120 generators (seed
# 11): SO(12) does at a radius a config allows
SQUARING_RADIUS = {"SO(3)": 8.0, "Sp(2,R)": 8.0, "SO(12)": 1.0}


@pytest.mark.parametrize("name", list(SQUARING_RADIUS))
def test_squared_real_frames_keep_the_complex_kernels_values(name, monkeypatch):
    """Where matrices are squared, the complex kernel can leave -0.0 in an
    imaginary part that float64 returns as +0.0: the values are equal, the
    real parts bit for bit."""
    radius, squared = SQUARING_RADIUS[name], []
    real_expm = sampling.expm

    def spy(a):
        _, s = np.frexp(np.abs(a).sum(axis=-2).max(axis=-1) / _THETA13)
        squared.append(int(np.count_nonzero(s > 0)))
        return real_expm(a)

    monkeypatch.setattr(sampling, "expm", spy)
    got = _defect_and_sampler(name, 11, radius)[1].take(60).points
    want = _complex_take(name, radius, 11, 60)
    assert squared[0] > 0
    assert _bits(got.real) == _bits(want.real)
    assert not want.imag.any() and np.array_equal(got, want)


@pytest.mark.parametrize("name", ["SO(2,2)", "SU(1,1)", "SU*(4)", "SU(2)", "U(3)", "Sp(2)", "identity SU(2)"])
def test_frames_with_an_imaginary_part_stay_complex(name, monkeypatch):
    assert _generator_dtypes(monkeypatch, name) == [np.complex128]


def test_expm_of_a_real_stack_in_float64_is_the_real_part_of_the_complex_one():
    gens = _generators("SO(4)", 6, 1.0).real
    got = expm(gens)
    assert got.dtype == np.float64
    assert _bits(got) == _bits(expm(gens.astype(complex)).real.copy())


# two frames whose gather plan is several terms deep
DEEP_PAIRS = {str(p.noncompact): p for p in map(du.dual_pair, (M.sl_r(5), M.so_pq(4, 4)))}
# every lemma and factory group, the suite's dual frames and the deep ones
GATHER_FRAMES = [str(g) for g in COMPACT] + list(PAIRS) + list(DEEP_PAIRS)


def _gather_sampler(name, seed):
    """The frame of the group or pair ``name`` and a fresh sampler on it."""
    frame = DEEP_PAIRS[name].frame if name in DEEP_PAIRS else _frame(name)
    return frame, GroupSampler(frame, 0.5, seed)


@pytest.mark.parametrize("count", [0, 1, 37])
@pytest.mark.parametrize("name", GATHER_FRAMES)
def test_gathered_generators_are_the_dense_sums_bit_for_bit(name, count, monkeypatch):
    """The generators take() gathers from the frame's nonzeros are the dense
    fixed-order sums over all basis matrices, signs of zero included."""
    basis, sampler = _gather_sampler(name, 9)
    seen = []

    def spy(a):
        seen.append(np.array(a))
        return expm(a)

    monkeypatch.setattr(sampling, "expm", spy)
    sampler.take(count)
    (got,) = seen
    mats = basis.matrices
    coeffs = SplitMix64(9).uniforms(2 * len(mats) * count, -0.5, 0.5).reshape(count, 2, len(mats))
    if basis.real:
        want = _combine(coeffs, mats.real)
    else:
        want = np.empty((count, 2) + mats.shape[1:], dtype=complex)
        want.real = _combine(coeffs, mats.real)
        want.imag = _combine(coeffs, mats.imag)
    assert got.shape == want.shape == (count, 2) + mats.shape[1:]
    assert got.dtype == want.dtype
    assert _bits(got) == _bits(want)
    assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))


def test_the_plan_reaches_four_terms_deep():
    assert len(DEEP_PAIRS["SL(5,R)"].frame.gather_plan) == 4


def test_samplers_on_one_frame_build_its_plan_once(monkeypatch):
    built = []
    plan = M.SignedBasis.__dict__["gather_plan"]

    def counted(basis):
        built.append(basis)
        return plan.func(basis)

    spy = functools.cached_property(counted)
    spy.__set_name__(M.SignedBasis, "gather_plan")
    monkeypatch.setattr(M.SignedBasis, "gather_plan", spy)
    basis = M.compact_basis(M.SU(3))
    frame = M.SignedBasis(M.SU(3), basis.matrices, basis.signs)
    points = [sampling.GroupSampler(frame, 0.5, seed).take(3).points for seed in range(30)]
    assert built == [frame]
    assert _bits(points[7]) == _bits(compact_sampler(M.SU(3), 0.5, 7).take(3).points)


# every frame the suite samples, the deep ones and two more duals, and the
# identity pair's frame, which lives on SU(2)
DEFECT_FRAMES = {
    **{name: _frame(name) for name in [str(g) for g in COMPACT] + list(PAIRS) + ["identity SU(2)"]},
    **{name: pair.frame for name, pair in DEEP_PAIRS.items()},
    **{str(p.noncompact): p.frame for p in map(du.dual_pair, (M.sp_pq(2, 1), M.su_star(6)))},
}


@pytest.mark.parametrize("name", list(DEFECT_FRAMES))
def test_defects_come_from_the_frames_group(name):
    """A sampler built from a frame alone checks each point against the
    equations of the frame's group: its defects are ``group_defect`` of that
    group at its points, bit for bit, and small."""
    frame = DEFECT_FRAMES[name]
    samples = GroupSampler(frame, 0.5, 3).take(9)
    want = group_defect(frame.group, samples.points)
    assert samples.defects.shape == (9,)
    assert _bits(samples.defects) == _bits(want)
    assert samples.max_defect < 1e-9


def test_a_frame_whose_group_has_no_equations_is_refused():
    """GL(n,C)-split, the one family with no compact partner, has no group
    equations to check points against: no sampler is built on its frame."""
    plus, minus = M.glc_split_basis(2)
    frame = M.SignedBasis(
        plus.group, np.concatenate([plus.matrices, minus.matrices]), np.concatenate([plus.signs, minus.signs])
    )
    with pytest.raises(ValidationError, match="no defining equations"):
        GroupSampler(frame, 0.5, 42)
    with pytest.raises(ValidationError):
        group_defect(frame.group, np.eye(2, dtype=complex)[None])


# one suite pair of each non-compact family
ONE_PAIR_PER_FAMILY = {pair.noncompact.family: name for name, pair in reversed(PAIRS.items())}


@pytest.mark.parametrize("name", sorted(ONE_PAIR_PER_FAMILY.values()) + ["SO(4)", "U(3)", "SU(3)", "Sp(2)"])
def test_group_defect_refuses_the_complexified_group(name):
    """exp of a complex combination of a real form's frame, a compact
    group's basis included, lies in the complexified group, where every
    complex-linear equation of the real form still holds: only its reality
    condition tells the points apart.  The real combination passes, the
    complex one is refused."""
    frame = _frame(name)
    zs = frame.matrices
    rng = SplitMix64(11)
    re, im = rng.uniforms(len(zs), -0.5, 0.5), rng.uniforms(len(zs), -0.5, 0.5)
    real = expm(np.tensordot(re, zs, 1)[None])
    complexified = expm(np.tensordot(re + 1j * im, zs, 1)[None])
    assert group_defect(frame.group, real)[0] < 1e-12
    assert group_defect(frame.group, complexified)[0] > 0.1


# every group with equations at two sizes, and the suite's dual pairs
DEFECT_GROUPS = {
    **{str(g): g for f in ("SO", "U", "SU", "Sp") for g in (M.GroupId(f, 2), M.GroupId(f, 3))},
    **{name: pair.noncompact for name, pair in PAIRS.items()},
}


@pytest.mark.parametrize("radius", [0.5, 1.0])
@pytest.mark.parametrize("name", list(DEFECT_GROUPS))
def test_group_defect_is_the_matrix_product_formula(name, radius):
    """The equations read from the family table, with products by J, I_pq
    and kron(I_2, I_pq) as moves and negations of entries, give the defects
    of the per-family matrix products byte for byte."""
    group = DEFECT_GROUPS[name]
    frame = PAIRS[name].frame if name in PAIRS else M.compact_basis(group)
    points = GroupSampler(frame, radius, 17).take(40).points
    assert _bits(group_defect(group, points)) == _bits(oracle.group_defect_products(group, points))
