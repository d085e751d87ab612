"""Power families, rational morphisms, quotient condition, composition."""

from unittest import mock

import numpy as np
import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import Quotient

from lgh import families as fa
from lgh import harness as H
from lgh import matrices as M
from lgh import morphisms as mo
from lgh.errors import InconclusiveError, ValidationError
from lgh.exprs import HomPoly, _coefficients, _layout, compose
from lgh.jets import frame_operators
from lgh.sampling import SplitMix64, compact_sampler, sample_compact


def _e(n, k=0):
    v = np.zeros(n, dtype=complex)
    v[k] = 1.0
    return v


def test_power_family_k1_is_base():
    fam = fa.u_family(2, _e(2))
    pf = mo.power_family(fam, 1)
    assert pf.lam == fam.lam and pf.mu == fam.mu
    assert len(pf.members) == len(fam.members)
    assert pf.provenance == f"{fam.provenance}-power-1"


def test_power_constants_k2():
    lam, mu = -2.0, -1.0
    lam2, mu2 = mo.power_constants(lam, mu, 2)
    assert lam2 == 2 * lam + 2 * mu
    assert mu2 == 4 * mu


def test_power_family_u2_k2_verifies():
    fam = fa.u_family(2, _e(2))
    pf = mo.power_family(fam, 2)
    assert pf.lam == -6.0 and pf.mu == -4.0
    basis = M.compact_basis(fam.group)
    samples = sample_compact(fam.group, 60, 0.5, 42)
    rep = fa.verify_eigenfamily(pf, basis, samples, tol=1e-8)
    assert rep.passed, rep.residuals


@pytest.mark.parametrize("k", [2, 3])
def test_power_family_constants_match_measurement(k):
    for fam in (fa.u_family(2, _e(2)), fa.so_family_V(4, _e(4), fa.maximal_isotropic_basis(4))):
        pf = mo.power_family(fam, k)
        basis = M.compact_basis(fam.group)
        samples = sample_compact(fam.group, 40, 0.5, 42)
        meas = fa.measure_constants_residual(pf, basis, samples)
        assert meas["lambda_measurement"] < 1e-8
        assert meas["mu_measurement"] < 1e-8


def test_quotient_morphism_hopf_members():
    fam = fa.su_family(2, _e(2))
    m = mo.quotient_morphism(fam, {(1, 0): 1.0}, {(0, 1): 1.0})
    g = sample_compact(fam.group, 1, 0.5, 5).points[0]
    # on SU(2) in the standard block form the quotient is z/w
    assert abs(oracle.value(Quotient(m.numerator, m.denominator), g) - g[0, 0] / g[0, 1]) < 1e-14


def test_quotient_morphism_rejects_proportional():
    fam = fa.u_family(2, _e(2))
    with pytest.raises(ValidationError):
        mo.quotient_morphism(fam, {(1, 0): 2.0}, {(1, 0): 1.0})


def test_quotient_morphism_rejects_degree_mismatch():
    fam = fa.u_family(2, _e(2))
    with pytest.raises(ValidationError):
        mo.quotient_morphism(fam, {(2, 0): 1.0}, {(0, 1): 1.0})
    with pytest.raises(ValidationError, match="mixes total degrees"):
        mo.quotient_morphism(fam, {(2, 0): 1.0, (0, 1): 1.0}, {(0, 2): 1.0})


def test_hopf_is_harmonic_morphism():
    fam = fa.su_family(2, _e(2))
    m = mo.quotient_morphism(fam, {(1, 0): 1.0}, {(0, 1): 1.0}, floor=0.1)
    basis = M.compact_basis(fam.group)
    sampler = compact_sampler(fam.group, 0.5, 42)
    rep = mo.verify_harmonic_morphism(
        m, basis, sampler.take(100), tol=1e-9, min_samples=100,
        sampler=lambda k: sampler.take(k).points,
    )
    assert rep.passed, rep.residuals


def test_morphism_at_a_pole_raises_and_the_verifier_screens_it():
    from lgh.errors import DomainError

    fam = fa.su_family(2, _e(2))
    m = mo.quotient_morphism(fam, {(1, 0): 1.0}, {(0, 1): 1.0}, floor=0.1)
    basis = M.compact_basis(fam.group)
    pole = np.eye(2, dtype=complex)  # w = 0 at the identity
    regular = np.array([[0, -1], [1, 0]], dtype=complex)
    pq = frame_operators([m.numerator, m.denominator], [pole, regular], basis).values
    m.derivatives(pq[1:])
    with pytest.raises(DomainError):
        m.derivatives(pq)
    # a quotient is no frame-table member: only the morphism kernel takes it
    for call in (
        lambda: frame_operators([m], [regular], basis),
        lambda: frame_operators([m.numerator, m], [regular], basis),
        lambda: frame_operators([HomPoly({(2,): 1.0}, [m])], [regular], basis),
    ):
        with pytest.raises(ValidationError):
            call()
    rep = mo.verify_harmonic_morphism(m, basis, [pole, regular], tol=1e-9)
    assert (rep.samples_used, rep.samples_discarded, rep.passed) == (1, 1, True)


def test_random_quotient_on_so4_family():
    fam = fa.so_family_V(4, _e(4), fa.maximal_isotropic_basis(4))
    rng = SplitMix64(14)
    m = mo.random_morphism(fam, 2, rng, floor=0.05)
    basis = M.compact_basis(fam.group)
    sampler = compact_sampler(fam.group, 0.5, 42)
    rep = mo.verify_harmonic_morphism(
        m, basis, sampler.take(60), tol=1e-7, min_samples=60,
        sampler=lambda k: sampler.take(k).points,
    )
    assert rep.passed, rep.residuals


def test_random_morphism_refuses_a_family_with_one_monomial_per_degree():
    from lgh import duality as du

    # the SO(1,2) default family is one LinearTrace on SO(3): every P and Q
    # of one degree are proportional, so no quotient exists
    fam = du.default_compact_family(du.dual_pair(M.GroupId("SOpq", p=1, q=2)))
    assert len(fam.members) == 1
    rng = SplitMix64(7)
    untouched = SplitMix64(7)
    for degree in (1, 2, 3):
        with pytest.raises(ValidationError, match="proportional"):
            mo.random_morphism(fam, degree, rng)
    assert rng.next_u64() == untouched.next_u64()


def test_random_hompoly_block_is_bit_for_bit_the_scalar_disc_stream():
    members = fa.sp_family(2, _e(2)).members
    block, scalar = SplitMix64(2024), SplitMix64(2024)
    drawn = 0
    while drawn < 20_000:
        poly = mo.random_hompoly(members, 1 + drawn % 3, block)
        want = [scalar.complex_disc() for _ in poly.coeffs]
        assert [(c.real.hex(), c.imag.hex()) for c in poly.coeffs.values()] == [
            (c.real.hex(), c.imag.hex()) for c in want
        ]
        drawn += len(want)
    assert block.next_u64() == scalar.next_u64()


def _hex(values) -> list:
    return [(complex(c).real.hex(), complex(c).imag.hex()) for c in values]


def _drawn(morphs) -> list:
    """Each quotient's degree and its P and Q as exponent -> float.hex."""
    return [
        (m.degree, [(e, _hex([c])) for f in (m.numerator, m.denominator) for e, c in f.coeffs.items()])
        for m in morphs
    ]


# the suite's factory rows: ten families, each with its own seed
FACTORY_CONFIGS = [cfg for _, name, cfg in H.suite_checks() if name == "morphism-factory"]


def _family_id(cfg) -> str:
    fam = H.family_from_spec(cfg.family)
    return f"{fam.provenance}-{fam.group}"


@pytest.mark.parametrize("cfg", FACTORY_CONFIGS, ids=_family_id)
@pytest.mark.parametrize("seed", [0, 7, 42, 12345, 2**64 - 1])
def test_factory_block_draw_is_the_sequential_stream(cfg, seed):
    """The block draw gives the quotients of the one-at-a-time loop, with the
    same degrees and float.hex-equal rows, and leaves the stream where the
    loop does."""
    fam = H.family_from_spec(cfg.family)
    block, loop = SplitMix64(seed), SplitMix64(seed)
    got = mo.random_morphisms(fam, 20, block, floor=cfg.floor)
    want = oracle.sequential_morphisms(fam, 20, loop, floor=cfg.floor)
    assert _drawn(got) == _drawn(want)
    assert {m.degree for m in got} == {1, 2, 3}
    assert all(m.floor == cfg.floor and m.family is fam for m in got)
    assert block.next_u64() == loop.next_u64()


def _force_proportional_once(monkeypatch, numerator):
    """The first proportionality test of the pair whose P has the row
    ``numerator`` says proportional; every other test is left alone."""
    real, left = mo._proportional_rows, [True]

    def forced(u, v):
        out = real(u, v)
        hits = np.flatnonzero((u == numerator).all(axis=-1)) if u.shape[-1] == len(numerator) else []
        if left[0] and len(hits):
            out[hits[0]], left[0] = True, False
        return out

    monkeypatch.setattr(mo, "_proportional_rows", forced)


@pytest.mark.parametrize("k", [0, 6, 19])
@pytest.mark.parametrize("cfg", FACTORY_CONFIGS[::3], ids=_family_id)
def test_factory_block_draw_redraws_a_proportional_pair_as_the_loop_does(monkeypatch, cfg, k):
    """A pair found proportional at quotient k has its Q redrawn from the
    stream right after it, as the loop's ``while _proportional`` does, and
    every later quotient continues from there."""
    fam = H.family_from_spec(cfg.family)
    plain = mo.random_morphisms(fam, 20, SplitMix64(42))
    numerator = _coefficients([plain[k].numerator], (plain[k].degree,))[0]
    _force_proportional_once(monkeypatch, numerator)
    block = SplitMix64(42)
    got = mo.random_morphisms(fam, 20, block)
    monkeypatch.undo()
    _force_proportional_once(monkeypatch, numerator)
    loop = SplitMix64(42)
    want = oracle.sequential_morphisms(fam, 20, loop)
    assert _drawn(got) == _drawn(want)
    assert block.next_u64() == loop.next_u64()
    assert _drawn(got[:k]) == _drawn(plain[:k])
    assert _hex(got[k].denominator.coeffs.values()) != _hex(plain[k].denominator.coeffs.values())


def test_factory_block_draw_refuses_a_one_member_family_after_its_degree():
    from lgh import duality as du

    fam = du.default_compact_family(du.dual_pair(M.GroupId("SOpq", p=1, q=2)))
    block, loop = SplitMix64(7), SplitMix64(7)
    with pytest.raises(ValidationError, match="proportional"):
        mo.random_morphisms(fam, 20, block)
    with pytest.raises(ValidationError, match="proportional"):
        oracle.sequential_morphisms(fam, 20, loop)
    assert block.next_u64() == loop.next_u64()
    assert mo.random_morphisms(fam, 0, block) == []


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_random_morphism_draws_p_then_q_from_the_scalar_disc_stream(degree):
    """P is the next M ``complex_disc`` values of the stream and Q the M
    after them, and the stream is left after Q."""
    fam = fa.so_family_V(6, _e(6), fa.maximal_isotropic_basis(6))
    block, scalar = SplitMix64(degree), SplitMix64(degree)
    m = mo.random_morphism(fam, degree, block)
    size = len(_layout(len(fam.members), (degree,))[0])
    want = [scalar.complex_disc() for _ in range(2 * size)]
    assert _hex(m.numerator.coeffs.values()) == _hex(want[:size])
    assert _hex(m.denominator.coeffs.values()) == _hex(want[size:])
    assert list(m.numerator.coeffs) == list(_layout(len(fam.members), (degree,))[0])
    assert block.next_u64() == scalar.next_u64()


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_a_polynomial_from_its_row_is_the_polynomial_from_its_dict(degree):
    """A polynomial built from its coefficient row and the one built from
    the same coefficients as a dict agree in every attribute, every layout,
    under Mobius transforms, the chain rule and the oracle's jet walk."""
    fam = fa.u_family(3, _e(3))
    basis = M.compact_basis(fam.group)
    expos = _layout(len(fam.members), (degree,))[0]
    rows = mo._disc(SplitMix64(degree).uniforms(4 * len(expos)).reshape(2, -1))
    rows[0, 1] = 0.0  # a zero coefficient is a term all the same
    from_rows = [HomPoly.from_row(row, fam.members, degree) for row in rows]
    from_dicts = [HomPoly(dict(zip(expos, row.tolist())), fam.members) for row in rows]
    for a, b in zip(from_rows, from_dicts):
        assert list(a.coeffs) == list(b.coeffs) == list(expos)
        assert _hex(a.coeffs.values()) == _hex(b.coeffs.values())
        assert (a.degree, a.homogeneous, a.term_degrees) == (b.degree, b.homogeneous, b.term_degrees)
        assert a.args == b.args
        for degrees in ((degree,), (1, 2, 3), tuple(sorted({1, degree}))):
            assert _coefficients([a], degrees).tobytes() == _coefficients([b], degrees).tobytes()
    pair = [mo.RationalMorphism(fam, *polys) for polys in (from_rows, from_dicts)]
    moved = [mo.mobius_transform(m, 2.0, 1j, 0.5, 3.0) for m in pair]
    assert _drawn(moved[:1]) == _drawn(moved[1:])
    samples = sample_compact(fam.group, 8, 0.5, 3)
    table = frame_operators(fam.members, samples, basis)
    walked = [compose(polys, table) for polys in (from_rows, from_dicts)]
    oracle_walked = [oracle.frame_table(polys, samples, basis) for polys in (from_rows, from_dicts)]
    for ops in (walked, oracle_walked):
        for name in ("values", "tau", "kappa"):
            assert getattr(ops[0], name).tobytes() == getattr(ops[1], name).tobytes()


def test_factory_quotient_condition_reads_the_pair_table_the_morphism_check_built(monkeypatch):
    """The factory's quotient condition is the report of a standalone check
    on a fresh frame table, float.hex for float.hex, and it contracts
    nothing: it reads the pair tables the morphism check kept on the table.
    Another coefficient block on the same table gets its own pair table."""
    cfg = FACTORY_CONFIGS[0]
    fam = H.family_from_spec(cfg.family)
    calls = []
    real_pairs, real_condition = mo.quotient_pairs, mo.quotient_condition
    monkeypatch.setattr(mo, "quotient_pairs", lambda *a: calls.append("pairs") or real_pairs(*a))
    monkeypatch.setattr(mo, "quotient_condition", lambda *a: calls.append("condition") or real_condition(*a))
    _, qrep = H._morphism_factory(fam, cfg, H.SampleStore())
    assert calls[-1] == "condition" and "pairs" in calls
    monkeypatch.undo()

    basis = M.compact_basis(fam.group)
    base = compact_sampler(fam.group, cfg.radius, cfg.seed).take(cfg.samples)
    morphs = mo.random_morphisms(fam, 20, SplitMix64(qrep.params["rng_seed"]), floor=cfg.floor)
    nums, dens = [m.numerator for m in morphs], [m.denominator for m in morphs]

    def condition(table, p, q):
        rep = mo.verify_quotient_condition(fam, p, q, basis, table, tol=cfg.tol)
        return {key: val.hex() for key, val in rep.residuals.items()}

    def fresh():
        return frame_operators(fam.members, base, basis)

    alone = condition(fresh(), nums, dens)
    assert {key: val.hex() for key, val in qrep.residuals.items()} == alone
    shared = fresh()
    assert condition(shared, nums, dens) == alone
    swapped = condition(shared, dens, nums)
    assert swapped == condition(fresh(), dens, nums) != alone


def test_kernel_rows_do_not_depend_on_which_quotients_share_the_call():
    """K quotients in one kernel call, one at a time and in reverse order:
    each quotient's tau, kappa and quotient-condition arrays are the same
    bits, and a lone sample gives the bits of its row in the stack."""
    fam = fa.u_family(3, _e(3))
    basis = M.compact_basis(fam.group)
    samples = sample_compact(fam.group, 30, 0.5, 42)
    table = frame_operators(fam.members, samples, basis)
    rng = SplitMix64(5)
    for degree in (1, 2, 3):
        morphs = [mo.random_morphism(fam, degree, rng, floor=0.05) for _ in range(5)]

        def run(ms, rows_of=table):
            groups = mo._groups([m.numerator for m in ms], [m.denominator for m in ms])
            (pairs,), rows = mo._screen(rows_of, groups, len(ms), ms[0].floor)
            tau, kappa = mo.quotient_operators(ms, pairs, rows)
            cond = mo.quotient_condition(fam, [m.numerator for m in ms], [m.denominator for m in ms], rows_of)
            return {
                id(m): [rows[:, k], tau[:, k], kappa[:, k]] + [cond[key][:, k] for key in sorted(cond)]
                for k, m in enumerate(ms)
            }

        def bits(result, count=None):
            return {key: [a[:count].tobytes() for a in arrays] for key, arrays in result.items()}

        together = run(morphs)
        alone = {key: val for m in morphs for key, val in run([m]).items()}
        assert bits(together) == bits(alone) == bits(run(morphs[::-1]))
        one = frame_operators(fam.members, samples.points[:1], basis)
        lone = {key: val for m in morphs for key, val in run([m], one).items()}
        assert bits(together, 1) == bits(lone)
        assert all(arrays[0].any() for arrays in together.values())


def test_negative_control_z11_over_one_fails():
    # tau(z_11) = -2 z_11 on U(2): the check must fail, with the tau
    # residual exactly 2 max|z_11| over the samples used
    gid = M.U(2)
    basis = M.compact_basis(gid)
    fam = fa.u_family(2, _e(2))
    member = fam.members[0]
    # built directly: quotient_morphism would reject the unequal degrees
    one = HomPoly({(0, 0): 1.0}, fam.members)
    control = mo.RationalMorphism(fam, HomPoly({(1, 0): 1.0}, fam.members), one)
    samples = sample_compact(gid, 50, 0.5, 42)
    rep = mo.verify_harmonic_morphism(control, basis, samples, tol=1e-8)
    assert not rep.passed
    peak = np.abs(frame_operators([member], samples, basis).values).max()
    assert abs(rep.residuals["tau"] - 2.0 * peak) < 1e-12
    assert abs(rep.residuals["kappa"] - peak * peak) < 1e-12


def test_inconclusive_when_everything_below_floor():
    fam = fa.u_family(2, _e(2))
    m = mo.quotient_morphism(fam, {(1, 0): 1.0}, {(0, 1): 1.0}, floor=10.0)
    basis = M.compact_basis(fam.group)
    samples = sample_compact(fam.group, 10, 0.5, 42)
    with pytest.raises(InconclusiveError):
        mo.verify_harmonic_morphism(m, basis, samples)


def test_resampling_tops_up_in_domain_count():
    fam = fa.su_family(2, _e(2))
    m = mo.quotient_morphism(fam, {(1, 0): 1.0}, {(0, 1): 1.0}, floor=0.4)
    basis = M.compact_basis(fam.group)
    sampler = compact_sampler(fam.group, 0.5, 42)
    rep = mo.verify_harmonic_morphism(
        m, basis, sampler.take(40), tol=1e-8, min_samples=40,
        sampler=lambda k: sampler.take(k).points,
    )
    assert rep.samples_used >= 40
    assert rep.samples_discarded > 0


def test_quotient_condition_triple_equality():
    fam = fa.u_family(2, _e(2))
    rng = SplitMix64(3)
    p = mo.random_hompoly(fam.members, 2, rng)
    q = mo.random_hompoly(fam.members, 2, rng)
    basis = M.compact_basis(fam.group)
    samples = sample_compact(fam.group, 50, 0.5, 42)
    rep = mo.verify_quotient_condition(fam, p, q, basis, samples, tol=1e-7)
    assert rep.passed, rep.residuals


def test_quotient_condition_p_equals_q_is_exact():
    fam = fa.u_family(2, _e(2))
    p = HomPoly({(1, 1): 1.0, (2, 0): 0.5j}, fam.members)
    basis = M.compact_basis(fam.group)
    samples = sample_compact(fam.group, 10, 0.5, 42)
    rep = mo.verify_quotient_condition(fam, p, p, basis, samples)
    assert rep.residuals["triple_left"] == 0.0
    assert rep.residuals["triple_right"] == 0.0


def test_quotient_condition_degree_mismatch_fails():
    fam = fa.u_family(2, _e(2))
    rng = SplitMix64(4)
    p = mo.random_hompoly(fam.members, 1, rng)
    q = mo.random_hompoly(fam.members, 3, rng)
    basis = M.compact_basis(fam.group)
    samples = sample_compact(fam.group, 30, 0.5, 42)
    rep = mo.verify_quotient_condition(fam, p, q, basis, samples, tol=1e-7)
    # each polynomial still satisfies its own eigen-equation ...
    assert rep.residuals["tau_numerator"] < 1e-7
    assert rep.residuals["tau_denominator"] < 1e-7
    # ... but the triple equality breaks for generic mixed degrees
    assert max(rep.residuals["triple_left"], rep.residuals["triple_right"]) > 1e-3


def test_mobius_stability():
    fam = fa.su_family(2, _e(2))
    m = mo.quotient_morphism(fam, {(1, 0): 1.0}, {(0, 1): 1.0}, floor=0.05)
    moved = mo.mobius_transform(m, 1.0 + 0.5j, -2.0, 0.25j, 3.0 - 1j)
    basis = M.compact_basis(fam.group)
    sampler = compact_sampler(fam.group, 0.5, 42)
    rep = mo.verify_harmonic_morphism(
        moved, basis, sampler.take(60), tol=1e-7, min_samples=60,
        sampler=lambda k: sampler.take(k).points,
    )
    assert rep.passed, rep.residuals


def test_mobius_rejects_singular():
    fam = fa.su_family(2, _e(2))
    m = mo.quotient_morphism(fam, {(1, 0): 1.0}, {(0, 1): 1.0})
    with pytest.raises(ValidationError):
        mo.mobius_transform(m, 1.0, 2.0, 2.0, 4.0)


def _shared_denominator_orthogonal_family(den=2):
    """The quotients of the U(3) row family by its member ``den``, and the
    samples where that member clears the floor.  The quotients are oracle
    nodes, not frame-table members: :func:`oracle.frame_table` measures
    them."""
    fam = fa.u_family(3, _e(3))
    floor = 0.1
    quotients = [Quotient(f, fam.members[den], floor) for i, f in enumerate(fam.members) if i != den]
    orth = mo.orthogonal_family(fam.group, quotients)
    samples = sample_compact(fam.group, 80, 0.5, 42)
    table = frame_operators(fam.members, samples, M.compact_basis(fam.group))
    return orth, [x for x, q in zip(samples, table.values[:, den]) if abs(q) > floor]


def test_orthogonal_family_of_shared_denominator_quotients():
    orth, samples = _shared_denominator_orthogonal_family()
    basis = M.compact_basis(orth.group)
    rep = fa.verify_eigenfamily(orth, basis, oracle.frame_table(orth.members, samples, basis), tol=1e-7)
    assert rep.passed, rep.residuals


def test_compose_orthogonal_polynomial():
    """A polynomial in an orthogonal family, composed by the chain rule from
    the members' table, is again harmonic with isotropic gradient."""
    orth, samples = _shared_denominator_orthogonal_family()
    basis = M.compact_basis(orth.group)
    table = oracle.frame_table(orth.members, samples, basis)
    head = oracle.frame_table(orth.members, samples[:20], basis)
    assert fa.verify_eigenfamily(orth, basis, head, tol=1e-8).passed
    composed = HomPoly({(2, 0): 1.0, (1, 1): -0.5j, (0, 0): 3.0}, orth.members)
    rep = fa.verify_eigenfamily(
        mo.orthogonal_family(orth.group, [composed]), basis, compose([composed], table), tol=1e-7
    )
    assert rep.passed, rep.residuals


def test_compose_orthogonal_identity_component():
    orth, _ = _shared_denominator_orthogonal_family()
    out = HomPoly({(1, 0): 1.0}, orth.members)
    assert isinstance(out, HomPoly)
    assert out.coeffs == {(1, 0): 1.0}


def test_compose_orthogonal_rejects_bad_exponents():
    orth, _ = _shared_denominator_orthogonal_family()
    with pytest.raises(ValidationError):
        HomPoly({(1, 0, 0): 1.0}, orth.members)


# ---------------------------------------------------------------------------
# the chain-rule layer against the full-jet walk
# ---------------------------------------------------------------------------

def _oracle_cases():
    """(id, family, polynomials in its members, whether they are P and Q,
    samples)."""
    su2 = fa.su_family(2, _e(2))
    samples = sample_compact(su2.group, 30, 0.5, 11)
    hopf = [HomPoly({(1, 0): 1.0}, su2.members), HomPoly({(0, 1): 1.0}, su2.members)]
    yield "hopf-SU(2)", su2, hopf, True, samples
    families = {
        "U(2)": fa.u_family(2, _e(2)),
        "SO(4)-point": fa.so_family_special(4, fa.so4_deformation(0.0, 0.0)),
        "Sp(1)": fa.sp_family(1, _e(1)),
    }
    for name, fam in families.items():
        rng = SplitMix64(7)
        samples = sample_compact(fam.group, 30, 0.5, 11)
        for degree in (1, 2, 3):
            m = mo.random_morphism(fam, degree, rng)
            yield f"{name}-degree-{degree}", fam, [m.numerator, m.denominator], True, samples
    for fam in (fa.u_family(2, _e(2)), fa.so_family_V(4, _e(4), fa.maximal_isotropic_basis(4))):
        samples = sample_compact(fam.group, 30, 0.5, 11)
        for k in (2, 3):
            yield f"power-{fam.group}-k{k}", fam, mo.power_family(fam, k).members, False, samples
    # over z_11, which stays near 1, the frame terms stay O(1) and an absolute
    # 1e-12 measures rounding; |z_13| > 0.1 lets kappa sum ~4e3-sized terms
    orth, samples = _shared_denominator_orthogonal_family(den=0)
    h = {(2, 0): 1.0, (1, 1): -0.5j, (0, 1): 2.0, (0, 0): 3.0}
    yield "composed-orthogonal", orth, [HomPoly(h, orth.members)], False, samples[:30]


@pytest.mark.parametrize("case", list(_oracle_cases()), ids=lambda c: c[0])
def test_chain_rule_matches_full_jet_walk(case):
    """Polynomials composed from their members' frame table, and tau(P/Q)
    and kappa(P/Q, P/Q) from the morphism kernel on the monomial table and
    domain screen the verifier builds, against the oracle's full jet walk
    at every sample.  Quotients are not frame-table members, so
    polynomials in them are composed from the oracle's table of them."""
    _, fam, polys, quotient, samples = case
    basis = M.compact_basis(fam.group)
    if isinstance(fam.members[0], Quotient):
        ops = compose(polys, oracle.frame_table(fam.members, samples, basis))
    else:
        ops = frame_operators(polys, samples, basis)
    full = oracle.frame_table(polys, samples, basis)
    if quotient:
        m = mo.RationalMorphism(fam, *polys, floor=0.2)
        table = frame_operators(fam.members, samples, basis)
        groups = mo._groups([m.numerator], [m.denominator])
        (pairs,), rows = mo._screen(table, groups, 1, m.floor)
        q_tau, q_kappa = mo.quotient_operators([m], pairs, rows)
    for s, x in enumerate(samples):
        assert np.abs(ops.values[s] - full.values[s]).max() <= 1e-12
        assert np.abs(ops.tau[s] - full.tau[s]).max() <= 1e-12
        assert np.abs(ops.kappa[s] - full.kappa[s]).max() <= 1e-12
        if quotient:
            assert rows[s, 0] == (abs(full.values[s, 1]) > 0.2)
        if quotient and rows[s, 0]:
            one = oracle.frame_table([Quotient(*polys, 0.2)], [x], basis)
            assert abs(q_tau[s, 0] - one.tau[0, 0]) <= 1e-12
            assert abs(q_kappa[s, 0] - one.kappa[0, 0, 0]) <= 1e-12
    assert not quotient or np.count_nonzero(rows) >= 10


def test_morphism_layer_reads_measured_not_stated_constants():
    from lgh import harness as H
    from lgh.exprs import Entry

    # the config of the suite's first factory row: seed 42, 50 samples at
    # the factory's floor and tol
    cfg = next(cfg for _, check, cfg in H.suite_checks() if check == "morphism-factory")
    fam = fa.so_family_V(4, _e(4), fa.maximal_isotropic_basis(4))
    wrong = fa.Eigenfamily(fam.group, fam.members, fam.lam + 3.0, fam.mu - 2.0, "wrong-constants")
    factory, _ = H._morphism_factory(wrong, cfg, H.SampleStore(), pairs=6)
    assert factory.passed, factory.residuals
    # a non-member in the member list breaks the eigenfamily, and with it
    # every quotient built from it
    broken = fa.Eigenfamily(fam.group, [fam.members[0], Entry(1, 1)], fam.lam, fam.mu, "non-member")
    factory, _ = H._morphism_factory(broken, cfg, H.SampleStore(), pairs=6)
    assert max(factory.residuals.values()) > 1e-3


def _round_rule(m, seed, base, target):
    """(samples used, samples discarded) of one quotient by the redraw
    round rule, walking the stream one point at a time: a round takes the
    shortfall, capped at ten times the target in all, and keeps what is in
    domain."""
    sampler = compact_sampler(m.family.group, 0.5, seed)
    used = sum(m.in_domain(x) for x in sampler.take(base))
    drawn, budget = base, 10 * target
    while used < target and drawn < budget:
        size = min(target - used, budget - drawn)
        used += sum(m.in_domain(sampler.take(1).points[0]) for _ in range(size))
        drawn += size
    return used, drawn - used


def test_resampling_draws_only_the_shortfall():
    """The counts are those of the round rule, however far the verifier
    reads ahead, and it never asks for more than the quotient's budget."""
    fam = fa.su_family(2, _e(2))
    m = mo.quotient_morphism(fam, {(1, 0): 1.0}, {(0, 1): 1.0}, floor=0.4)
    basis = M.compact_basis(fam.group)
    sampler = compact_sampler(fam.group, 0.5, 42)
    first = sampler.take(40)
    requests = []

    def draw(k):
        requests.append(k)
        return sampler.take(k).points

    rep = mo.verify_harmonic_morphism(m, basis, first, tol=1e-8, min_samples=40, sampler=draw)
    assert rep.samples_used == 40
    assert (rep.samples_used, rep.samples_discarded) == _round_rule(m, 42, 40, 40)
    assert min(requests) >= 1
    assert sum(requests) <= 10 * 40 - len(first)


def test_a_sampler_must_return_the_points_it_was_asked_for():
    """A batch of the wrong size is an error, not a hang (an empty batch)
    or a silent overdraw (extra points)."""
    fam = fa.su_family(2, _e(2))
    m = mo.quotient_morphism(fam, {(1, 0): 1.0}, {(0, 1): 1.0}, floor=0.4)
    basis = M.compact_basis(fam.group)
    sampler = compact_sampler(fam.group, 0.5, 42)
    first = sampler.take(40)
    for wrong in (lambda k: np.empty((0, 2, 2), dtype=complex), lambda k: sampler.take(k + 5).points):
        with pytest.raises(ValidationError):
            mo.verify_harmonic_morphism(m, basis, first, min_samples=40, sampler=wrong)


@pytest.mark.parametrize("block, ahead", [(1, 0.0), (1, 1.0), (64, 4.0)])
def test_look_ahead_block_size_does_not_change_a_report(monkeypatch, block, ahead):
    """Six quotients of degrees 1-3 on Sp(1) at floor 0.5 discard heavily.
    Their report is the same bits whatever the look-ahead: ``(1, 0)`` asks
    for exactly each round's points, as a per-round draw would.  The worst
    quotient replays alone from its ``sampler_skip``."""
    fam = fa.sp_family(1, _e(1))
    basis = M.compact_basis(fam.group)
    rng = SplitMix64(3)
    morphs = [mo.random_morphism(fam, 1 + k % 3, rng, floor=0.5) for k in range(6)]

    def run(requests=None):
        sampler = compact_sampler(fam.group, 0.5, 42)

        def draw(k):
            if requests is not None:
                requests.append(k)
            return sampler.take(k).points

        rep = mo.verify_harmonic_morphism(morphs, basis, sampler.take(50), min_samples=50, sampler=draw)
        residuals = {key: val.hex() for key, val in rep.residuals.items()}
        return rep, (residuals, rep.samples_used, rep.samples_discarded, rep.notes)

    default, expected = run()
    assert default.samples_discarded > 100
    requests = []
    monkeypatch.setattr(mo, "_BLOCK", block)
    monkeypatch.setattr(mo, "_AHEAD", ahead)
    assert run(requests)[1] == expected
    if ahead == 0.0:  # no look-ahead: every point drawn is consumed
        assert sum(requests) == default.samples_used + default.samples_discarded - 6 * 50
    for name in ("tau", "kappa"):
        worst = default.notes[f"worst_{name}"]
        sampler = compact_sampler(fam.group, 0.5, 42)
        base = sampler.take(50)
        sampler.take(worst["sampler_skip"])
        alone = mo.verify_harmonic_morphism(
            morphs[worst["index"]], basis, base, min_samples=50, sampler=lambda k: sampler.take(k).points
        )
        assert alone.residuals[name].hex() == expected[0][name]


def test_resampling_builds_one_monomial_table_per_frame_table_and_degree_group(monkeypatch):
    """Q has one path: every frame table a resampling verifier measures,
    the base rows and each look-ahead block alike, gets exactly one
    monomial table per degree group, which screens its rows and feeds the
    kernel."""
    from lgh import exprs

    fam = fa.sp_family(1, _e(1))
    basis = M.compact_basis(fam.group)
    rng = SplitMix64(3)
    morphs = [mo.random_morphism(fam, 1 + k % 3, rng, floor=0.5) for k in range(6)]
    tables, builds = [], []
    real_frame, real_monomials = mo.frame_operators, exprs.monomials

    def frame_operators(*args):
        tables.append(real_frame(*args))
        return tables[-1]

    def monomials(values, exponents):
        builds.append((id(values), tuple(exponents)))
        return real_monomials(values, exponents)

    monkeypatch.setattr(mo, "frame_operators", frame_operators)
    monkeypatch.setattr(exprs, "monomials", monomials)
    sampler = compact_sampler(fam.group, 0.5, 42)
    rep = mo.verify_harmonic_morphism(
        morphs, basis, sampler.take(50), min_samples=50, sampler=lambda k: sampler.take(k).points
    )
    assert rep.samples_discarded > 100 and len(tables) > 2
    layouts = [_layout(len(fam.members), (d,))[0] for d in (1, 2, 3)]
    assert sorted(builds) == sorted((id(t.values), e) for t in tables for e in layouts)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    block=st.integers(1, 64),
    ahead=st.floats(0.0, 4.0),
    floor=st.floats(0.3, 0.6),
    seed=st.integers(0, 2**64 - 1),
)
def test_any_look_ahead_keeps_the_redraw_contract(block, ahead, floor, seed):
    """Whatever the look-ahead constants, three Sp(1) quotients of degrees
    1-3 give the report of the default constants bit for bit, each one
    alone consumes what the round rule does (inconclusive when no point of
    its budget is in domain), and the worst quotients replay alone from
    their ``sampler_skip``."""
    fam = fa.sp_family(1, _e(1))
    basis = M.compact_basis(fam.group)
    rng = SplitMix64(seed)
    morphs = [mo.random_morphism(fam, degree, rng, floor=floor) for degree in (1, 2, 3)]
    target = 20

    def run(m, skip=0):
        sampler = compact_sampler(fam.group, 0.5, seed)
        base = sampler.take(target)
        sampler.take(skip)
        try:
            rep = mo.verify_harmonic_morphism(
                m, basis, base, min_samples=target, sampler=lambda k: sampler.take(k).points
            )
        except InconclusiveError:
            return None
        residuals = {key: val.hex() for key, val in rep.residuals.items()}
        return residuals, rep.samples_used, rep.samples_discarded, rep.notes

    default = run(morphs)
    with mock.patch.multiple(mo, _BLOCK=block, _AHEAD=ahead):
        assert run(morphs) == default
        for m in morphs:
            used, discarded = _round_rule(m, seed, target, target)
            alone = run(m)
            assert (alone[1:3] == (used, discarded)) if used else (alone is None)
        if default is not None:
            for name in ("tau", "kappa"):
                worst = default[3][f"worst_{name}"]
                assert run(morphs[worst["index"]], worst["sampler_skip"])[0][name] == default[0][name]


def test_frame_table_must_describe_the_family_members():
    fam = fa.u_family(2, _e(2))
    other = fa.u_family(2, _e(2, 1))
    basis = M.compact_basis(fam.group)
    table = frame_operators(other.members, sample_compact(fam.group, 10, 0.5, 42), basis)
    m = mo.quotient_morphism(fam, {(1, 0): 1.0}, {(0, 1): 1.0})
    with pytest.raises(ValidationError):
        mo.verify_harmonic_morphism(m, basis, table)


def test_verify_quotient_condition_on_no_samples_is_inconclusive():
    fam = fa.u_family(2, _e(2))
    with pytest.raises(InconclusiveError):
        mo.verify_quotient_condition(
            fam, {(1, 0): 1.0}, {(0, 1): 1.0}, M.compact_basis(fam.group), compact_sampler(fam.group).take(0)
        )
