"""Batched sampling: the vectorised SplitMix64 block, batch-size invariance
of the drawn points and the stacked defect checks."""

import warnings

import numpy as np
import pytest

from lgh import duality as du
from lgh import matrices as M
from lgh.errors import ValidationError
from lgh.harness import DUALITY_PAIRS, pair_from_spec
from lgh.sampling import SplitMix64, compact_defect, compact_sampler

# every compact group the suite samples
COMPACT = [M.SO(n) for n in range(2, 7)] + [M.U(n) for n in (2, 3, 4)] + [M.SU(2), M.SU(3)] + [
    M.Sp(n) for n in (1, 2, 3)
]
PAIRS = {str(p.noncompact): p for p in (pair_from_spec({"family": a, **kw}) for a, kw in DUALITY_PAIRS)}


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


def _defect_and_sampler(name, seed=42):
    """The defect function and a fresh sampler of a group named by ``str``."""
    if name == "identity SU(2)":
        pair = du.identity_pair(M.SU(2))
    elif name in PAIRS:
        pair = PAIRS[name]
    else:
        group = next(g for g in COMPACT if str(g) == name)
        return (lambda xs: compact_defect(group, xs)), compact_sampler(group, 0.5, seed)
    return (lambda xs: du.aligned_defect(pair, xs)), du.aligned_sampler(pair, 0.5, seed)


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
