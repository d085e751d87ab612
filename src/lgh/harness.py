"""Run configuration, check orchestration, and the full verification suite.

Configs and reports are plain JSON: complex numbers as two-element
[re, im] arrays and polynomial coefficients as {"exponents": [...],
"coeff": [re, im]} lists.  Identical configs (seed included) produce
bit-identical residuals; wall-clock fields are the only run-dependent
output.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from . import duality as du
from . import families as fa
from . import morphisms as mo
from .errors import ConfigError, ValidationError
from .jets import frame_operators
from .matrices import (
    FAMILIES,
    FAMILY_BY_ALIAS,
    NONCOMPACT_FAMILIES,
    GroupId,
    SignedBasis,
    verify_matrix_identities,
)
from .report import VerificationReport, timed_report
from .sampling import GroupSampler, SampleSet, SplitMix64
from .serialize import pair_to_complex, vector_from_json

DEFAULT_SEED = 42


# JSON type of each RunConfig field: the Python types a value may have (bool
# never counts as a number), and how the error names them.
_FIELD_TYPES = {
    "check": ((str, type(None)), "a string or null"),
    **dict.fromkeys(("group", "pair", "family", "morphism"), ((dict, type(None)), "an object or null")),
    "n": ((int, type(None)), "an integer or null"),
    **dict.fromkeys(("samples", "seed"), (int, "an integer")),
    **dict.fromkeys(("radius", "tol", "floor"), ((int, float), "a number")),
}


@dataclass
class RunConfig:
    check: str | None = None
    group: dict | None = None
    pair: dict | None = None
    family: dict | None = None
    morphism: dict | None = None
    n: int | None = None
    samples: int = 100
    seed: int = DEFAULT_SEED
    radius: float = 0.5
    tol: float = 1e-8
    floor: float = 1e-3

    def validate(self) -> "RunConfig":
        """Check the JSON types of ``docs/schemas/config.schema.json``, then
        the ranges."""
        for key, kinds in _FIELD_TYPES.items():
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, kinds[0]):
                raise ConfigError(f"{key} must be {kinds[1]}", field=key)
        if self.n is not None and self.n < 1:
            raise ConfigError("n must be >= 1", field="n")
        if self.samples < 1:
            raise ConfigError("samples must be >= 1", field="samples")
        if not (0.0 < self.radius <= 1.0):
            raise ConfigError("radius must lie in (0, 1]", field="radius")
        if not 0.0 < self.tol < math.inf:
            raise ConfigError("tol must be positive and finite", field="tol")
        if not 0.0 <= self.floor < math.inf:
            raise ConfigError("floor must be nonnegative and finite", field="floor")
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        known = set(cls.__dataclass_fields__)
        for key in d:
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}", field=key)
        return cls(**d).validate()


_NON_FINITE = object()  # a number literal with no finite double: NaN, Infinity, 1e999


def _number(text: str):
    value = float(text)
    return value if math.isfinite(value) else _NON_FINITE


class _Repeated(dict):
    """A JSON object that sets ``key`` more than once; the object keeps the
    last value, as ``json.load`` would."""

    def __init__(self, pairs, key: str):
        super().__init__(pairs)
        self.key = key


def _object(pairs: list) -> dict:
    """``object_pairs_hook`` of :func:`load_config`: the object, marked when
    a key repeats."""
    seen = set()
    for key, _ in pairs:
        if key in seen:
            return _Repeated(pairs, key)
        seen.add(key)
    return dict(pairs)


def _config_fault(data, path: str):
    """(dotted path, message) of the first non-finite number or repeated key
    of a loaded config, or None."""
    if data is _NON_FINITE:
        return path, "config numbers must be finite"
    if isinstance(data, _Repeated):
        return f"{path}.{data.key}", f"config key {data.key!r} is set more than once"
    items = data.items() if isinstance(data, dict) else enumerate(data) if isinstance(data, list) else ()
    return next(filter(None, (_config_fault(v, f"{path}.{k}") for k, v in items)), None)


def load_config(path: str) -> tuple[RunConfig, tuple]:
    """The config of a JSON file, and the keys the file sets."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_float=_number, parse_constant=_number, object_pairs_hook=_object)
        fault = _config_fault(data, "config")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}", field="config") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}", field="config") from exc
    except RecursionError as exc:
        raise ConfigError("config is nested too deeply", field="config") from exc
    if fault:
        field, message = fault
        raise ConfigError(message, field=field.removeprefix("config."))
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object", field="config")
    return RunConfig.from_dict(data), tuple(data)


# ---------------------------------------------------------------------------
# spec blocks -> objects
# ---------------------------------------------------------------------------

def _is_integer(value) -> bool:
    """A JSON integer: bool never counts."""
    return isinstance(value, int) and not isinstance(value, bool)


def _block(d, keys: tuple, field: str) -> dict:
    """``d``, when it is an object that sets no key but ``keys``; ``field``
    names it in errors."""
    if not isinstance(d, dict):
        raise ConfigError(f"{field} must be an object", field=field)
    for key in d:
        if key not in keys:
            raise ConfigError(f"{field} takes only {', '.join(keys)}", field=f"{field}.{key}")
    return d


def group_from_spec(d: dict, field: str = "group") -> GroupId:
    """The group of a spec block; ``field`` names the block in errors."""
    if not isinstance(d, dict) or not isinstance(d.get("family"), str):
        raise ConfigError("group spec needs a 'family' name", field=f"{field}.family")
    _block(d, ("family", "n", "p", "q"), field)
    for key in ("n", "p", "q"):
        if d.get(key) is not None and not _is_integer(d[key]):
            raise ConfigError(f"{key} must be an integer", field=f"{field}.{key}")
    try:
        return GroupId(FAMILY_BY_ALIAS.get(d["family"], d["family"]), d.get("n"), d.get("p"), d.get("q"))
    except ValidationError as exc:
        raise ConfigError(str(exc), field=field) from exc


def family_from_spec(d: dict) -> fa.Eigenfamily:
    """The linear family of a spec block: the group's
    :func:`lgh.families.default_family` unless the spec states p, V or an
    SO(4) deformation; on SO(n) a p with no V gives the isotropic-point
    family."""
    _block(d, ("group", "p", "V", "deformation"), "family")
    gid = group_from_spec(d.get("group", {}), "family.group")
    if gid.family not in fa.LINEAR_FAMILIES:
        raise ConfigError(f"no linear eigenfamily on {gid}", field="family.group")
    n = gid.n
    if "V" in d and gid.family != "SO":
        raise ConfigError("V picks an isotropic subspace on SO(n)", field="family.V")
    if "deformation" in d:
        if "p" in d or (gid.family, n) != ("SO", 4):
            raise ConfigError("deformation is the point of an SO(4) family, in place of p", field="family.deformation")
        zw = _block(d["deformation"], ("z", "w"), "family.deformation")
        z, w = (pair_to_complex(zw.get(key, 0.0), f"family.deformation.{key}") for key in ("z", "w"))
        p = fa.so4_deformation(z, w)
    else:
        p = vector_from_json(d["p"], "family.p") if "p" in d else None
    try:
        if gid.family == "SO" and "V" not in d and p is not None:
            return fa.so_family_special(n, p)
        if d.get("V", "standard") == "standard":
            return fa.default_family(gid, p)
        if not isinstance(d["V"], list) or not d["V"]:
            raise ConfigError('V must be "standard" or a nonempty list of vectors', field="family.V")
        V = [vector_from_json(v, "family.V") for v in d["V"]]
        return fa.so_family_V(n, fa.default_point(n) if p is None else p, V)
    except ValidationError as exc:
        raise ConfigError(str(exc), field="family") from exc


def _coeff_map(items, field_name: str) -> dict:
    if not isinstance(items, list) or not items:
        raise ConfigError(f"{field_name} must be a nonempty list of terms", field=field_name)
    out = {}
    for item in items:
        try:
            expo, coeff = item["exponents"], item["coeff"]
        except (KeyError, TypeError) as exc:
            raise ConfigError(
                f"{field_name} terms need 'exponents' and 'coeff'", field=field_name
            ) from exc
        _block(item, ("exponents", "coeff"), field_name)
        if not isinstance(expo, list) or not all(_is_integer(e) for e in expo):
            raise ConfigError(f"{field_name} exponents must be a list of integers", field=field_name)
        if tuple(expo) in out:
            raise ConfigError(f"{field_name} repeats the exponents {expo}", field=field_name)
        out[tuple(expo)] = pair_to_complex(coeff, field_name)
    return out


def morphism_from_spec(fam: fa.Eigenfamily, d: dict, floor: float) -> mo.RationalMorphism:
    _block(d, ("P", "Q"), "morphism")
    p = _coeff_map(d.get("P"), "morphism.P")
    q = _coeff_map(d.get("Q"), "morphism.Q")
    try:
        return mo.quotient_morphism(fam, p, q, floor=floor)
    except ValidationError as exc:
        raise ConfigError(str(exc), field="morphism") from exc


def pair_group_from_spec(d: dict) -> GroupId:
    """The non-compact group of a pair spec."""
    gid = group_from_spec(d, "pair")
    if gid.family not in NONCOMPACT_FAMILIES:
        raise ConfigError(f"{gid} is not a non-compact dual group", field="pair.family")
    return gid


# ---------------------------------------------------------------------------
# the sample store of a run
# ---------------------------------------------------------------------------

class _Stream:
    """One (frame, radius, seed) stream: its sampler and the points drawn so
    far, write-protected."""

    def __init__(self, sampler: GroupSampler):
        self.sampler = sampler
        self.drawn = SampleSet(np.empty((0, *sampler.frame.matrices.shape[1:]), dtype=complex), np.empty(0))

    def read(self, start: int, count: int) -> SampleSet:
        """Points ``start`` to ``start + count`` of the stream, drawing the
        shortfall in one take."""
        end = start + count
        if end > len(self.drawn):
            self.drawn.extend(self.sampler.take(end - len(self.drawn)))
            self.drawn.points.setflags(write=False)
            self.drawn.defects.setflags(write=False)
        return SampleSet(self.drawn.points[start:end], self.drawn.defects[start:end])


class StreamCursor:
    """A reader's place in a stream of the store: ``take`` gives the next
    points, as :meth:`GroupSampler.take` does, as read-only slices of the
    stream's one draw."""

    def __init__(self, stream: _Stream):
        self._stream = stream
        self._used = 0

    def take(self, count: int) -> SampleSet:
        if count < 0:
            raise ValidationError("count must be nonnegative")
        out = self._stream.read(self._used, count)
        self._used += count
        return out


class SampleStore:
    """The sample streams of one run.

    Each (frame, radius, seed) stream is drawn once, by one sampler on the
    frame, and every row that reads it gets a :class:`StreamCursor` from its
    first point.  As ``take(a)`` then ``take(b)`` gives the points of
    ``take(a + b)`` bit for bit, a reader's points do not depend on which
    reader drew them first.  A frame keys its streams by identity, not by
    its group or its values: an identity pair and a compact group share a
    group but not a frame, and an equal copy of a frame has streams of its
    own.  The runners read every frame from :func:`lgh.duality.group_frame`.
    A store lives for one :func:`run` or one :func:`run_suite` and is never
    shared between threads.
    """

    def __init__(self):
        self._streams: dict[tuple, _Stream] = {}

    def cursor(self, frame: SignedBasis, radius: float, seed: int) -> StreamCursor:
        """A cursor on the frame's stream of ``radius`` and ``seed``."""
        key = (frame, radius, seed)
        if key not in self._streams:
            self._streams[key] = _Stream(GroupSampler(frame, radius, seed))
        return StreamCursor(self._streams[key])


# ---------------------------------------------------------------------------
# command runners
# ---------------------------------------------------------------------------

# verify-identities checks exact identities: its tol is at most this one,
# which the default tol stands for.
IDENTITY_TOL = 1e-12


def run_identities(cfg: RunConfig, store: SampleStore) -> VerificationReport:
    """The identities at ``IDENTITY_TOL`` or a tighter ``cfg.tol``; the
    default tol means ``IDENTITY_TOL``, and a looser one is refused."""
    if cfg.tol > IDENTITY_TOL and cfg.tol != RunConfig.tol:
        raise ConfigError(f"verify-identities takes a tol of at most {IDENTITY_TOL:g}", field="tol")
    n = cfg.n if cfg.n is not None else 5
    return verify_matrix_identities(n, tol=min(cfg.tol, IDENTITY_TOL))


def run_lemma(cfg: RunConfig, store: SampleStore) -> VerificationReport:
    gid = group_from_spec(cfg.group or {})
    if gid.family not in fa.LEMMA_FAMILIES:
        aliases = ", ".join(FAMILIES[f].alias for f in fa.LEMMA_FAMILIES)
        raise ConfigError(f"coordinate relations exist for {aliases}", field="group.family")
    samples = store.cursor(du.group_frame(gid), cfg.radius, cfg.seed).take(cfg.samples)
    return fa.verify_coordinate_lemmas(gid, samples, tol=cfg.tol)


def run_family(cfg: RunConfig, store: SampleStore) -> VerificationReport:
    if cfg.family is None:
        raise ConfigError("missing family spec", field="family")
    fam = family_from_spec(cfg.family)
    basis = du.group_frame(fam.group)
    samples = store.cursor(basis, cfg.radius, cfg.seed).take(cfg.samples)
    return fa.verify_eigenfamily(fam, basis, samples, tol=cfg.tol)


def run_morphism(cfg: RunConfig, store: SampleStore) -> VerificationReport:
    if cfg.family is None or cfg.morphism is None:
        raise ConfigError("morphism run needs family and morphism specs", field="morphism")
    fam = family_from_spec(cfg.family)
    morph = morphism_from_spec(fam, cfg.morphism, cfg.floor)
    basis = du.group_frame(fam.group)
    sampler = store.cursor(basis, cfg.radius, cfg.seed)
    first = sampler.take(cfg.samples)
    return mo.verify_harmonic_morphism(
        morph,
        basis,
        first,
        tol=cfg.tol,
        min_samples=cfg.samples,
        sampler=lambda k: sampler.take(k).points,
    )


def run_duality(cfg: RunConfig, store: SampleStore) -> VerificationReport:
    if cfg.pair is None:
        raise ConfigError("missing pair spec", field="pair")
    pair = du.dual_pair(pair_group_from_spec(cfg.pair))
    fam = family_from_spec(cfg.family) if cfg.family else du.default_compact_family(pair)
    samples = store.cursor(du.group_frame(pair.noncompact), cfg.radius, cfg.seed).take(cfg.samples)
    return du.verify_dual_eigenfamily(pair, fam, samples, tol=cfg.tol)


# ---------------------------------------------------------------------------
# suite-only checks: runners of a config, like the commands, that no
# subcommand reaches
# ---------------------------------------------------------------------------

def _frame_table(fam: fa.Eigenfamily, cfg: RunConfig, store: SampleStore):
    """The members' frame table on the config's samples, measured with the
    frame of the family's group, which is ``table.basis``."""
    frame = du.group_frame(fam.group)
    return frame_operators(fam.members, store.cursor(frame, cfg.radius, cfg.seed).take(cfg.samples), frame)


def _deformations(cfg: RunConfig, store: SampleStore) -> VerificationReport:
    """Ten seeded (z, w) deformations of the isotropic-point family on SO(4)."""
    gid = GroupId("SO", 4)
    basis = du.group_frame(gid)
    samples = store.cursor(basis, cfg.radius, cfg.seed).take(cfg.samples)
    rng_seed = cfg.seed ^ 0x5EED5EED
    rng = SplitMix64(rng_seed)
    residuals = {"tau": 0.0, "kappa": 0.0, "isotropy": 0.0}
    for _ in range(10):
        p = fa.so4_deformation(rng.complex_uniform(1.0), rng.complex_uniform(1.0))
        rep = fa.verify_eigenfamily(fa.so_family_special(4, p), basis, samples, tol=cfg.tol)
        for key, value in (*rep.residuals.items(), ("isotropy", abs(fa.bilinear(p, p)))):
            residuals[key] = max(residuals[key], value)
    params = {"deformations": 10, "rng_seed": rng_seed}
    return VerificationReport("eigenfamily-deformations", str(gid), params, residuals, cfg.tol, len(samples))


def _constants_crosscheck(cfg: RunConfig, store: SampleStore) -> VerificationReport:
    """Sp(1) = SU(2): both tables give the constants (-3/2, -1/2)."""
    (sp_lam, sp_mu), (su_lam, su_mu) = fa.eigen_constants("Sp", 1), fa.eigen_constants("SU", 2)
    residuals = {
        "lambda_match": abs(sp_lam - su_lam),
        "mu_match": abs(sp_mu - su_mu),
        "lambda_value": abs(sp_lam + 1.5),
        "mu_value": abs(sp_mu + 0.5),
    }
    return VerificationReport("constants-crosscheck", "Sp(1)/SU(2)", {}, residuals, cfg.tol)


def _family_negative_control(cfg: RunConfig, store: SampleStore) -> VerificationReport:
    """A wrong lambda must be detected with residual |dlambda| * max|phi|."""
    fam = family_from_spec(cfg.family)
    broken = fa.Eigenfamily(fam.group, fam.members, fam.lam + 0.1, fam.mu, "control")
    table = _frame_table(broken, cfg, store)
    tau = fa.verify_eigenfamily(broken, table.basis, table, tol=cfg.tol).residuals["tau"]
    predicted = 0.1 * float(np.max(np.abs(table.values)))
    residuals = {
        "deviation_from_prediction": abs(tau - predicted),
        "control_must_fail": 0.0 if tau > cfg.tol else 1.0,
    }
    return VerificationReport(
        "family-negative-control", str(fam.group), {"lambda_shift": 0.1}, residuals, cfg.tol, len(table),
        notes={"observed_tau_residual": tau, "predicted": predicted},
    )


def _morphism_negative_control(cfg: RunConfig, store: SampleStore) -> VerificationReport:
    """A member phi of an eigenfamily, as the 'quotient' phi/1, must fail with
    tau residual |lambda| max|phi| and kappa residual |mu| max|phi|^2: its
    residuals as an orthogonal family.  On U(2), z_11 fails with 2 max|z_11|
    and max|z_11|^2."""
    fam = family_from_spec(cfg.family)
    phi = mo.orthogonal_family(fam.group, fam.members[:1])
    table = _frame_table(phi, cfg, store)
    rep = fa.verify_eigenfamily(phi, table.basis, table, tol=cfg.tol)
    tau, kappa = rep.residuals["tau"], rep.residuals["kappa"]
    peak = float(np.max(np.abs(table.values)))
    predicted = abs(fam.lam) * peak
    residuals = {
        "tau_deviation_from_prediction": abs(tau - predicted),
        "kappa_deviation_from_prediction": abs(kappa - abs(fam.mu) * peak * peak),
        "control_must_fail": 0.0 if tau > cfg.tol and kappa > cfg.tol else 1.0,
    }
    return VerificationReport(
        "morphism-negative-control", str(fam.group), {}, residuals, cfg.tol, len(table),
        notes={"observed_tau_residual": tau, "predicted": predicted},
    )


def _morphism_factory(fam: fa.Eigenfamily, cfg: RunConfig, store: SampleStore, pairs: int = 20):
    """Random same-degree (P, Q) quotients of floor ``cfg.floor`` must all
    verify; the quotient condition triple equality is measured on the same
    instances.  ``fam`` may be a family no spec describes, a continued
    family on a dual group among them: its group picks the frame.

    All quotients are drawn first, by :func:`lgh.morphisms.random_morphisms`
    (per quotient a u64 for its degree 1 + u % 3, then P, then Q), then
    verified together on the member frame table of ``cfg.samples`` base
    samples.  The quotient-condition check shares that table, and with it
    the pair tables the morphism check built there.  Samples come from
    ``cfg.seed``, the polynomials from
    ``rng_seed = cfg.seed ^ 0xFAC7041``, which both reports record; the
    factory report's ``notes`` name the quotients with the worst tau and
    the worst kappa by their index in the polynomial stream.
    """
    basis = du.group_frame(fam.group)
    rng_seed = cfg.seed ^ 0xFAC7041
    rng = SplitMix64(rng_seed)
    sampler = store.cursor(basis, cfg.radius, cfg.seed)
    base = frame_operators(fam.members, sampler.take(cfg.samples), basis)
    morphs = mo.random_morphisms(fam, pairs, rng, floor=cfg.floor)
    rep = mo.verify_harmonic_morphism(
        morphs, basis, base, tol=cfg.tol, min_samples=cfg.samples, sampler=lambda k: sampler.take(k).points
    )
    qrep = mo.verify_quotient_condition(
        fam, [m.numerator for m in morphs], [m.denominator for m in morphs], basis, base, tol=cfg.tol
    )
    params = {"pairs": pairs, "provenance": fam.provenance, "rng_seed": rng_seed}
    return (
        replace(rep, check="morphism-factory", params={**params, "floor": cfg.floor}),
        replace(qrep, params=params),
    )


def _power_family(k: int, cfg: RunConfig, store: SampleStore) -> VerificationReport:
    """The degree-k monomials in the family's members, an eigenfamily with
    the power constants; the constants are measured too."""
    pfam = mo.power_family(family_from_spec(cfg.family), k)
    table = _frame_table(pfam, cfg, store)
    residuals = dict(fa.verify_eigenfamily(pfam, table.basis, table, tol=cfg.tol).residuals)
    residuals.update(fa.measure_constants_residual(pfam, table.basis, table))
    params = {
        "k": k,
        "members": len(pfam.members),
        "lambda_k": [pfam.lam.real, pfam.lam.imag],
        "mu_k": [pfam.mu.real, pfam.mu.imag],
    }
    return VerificationReport(f"power-family-k{k}", str(pfam.group), params, residuals, cfg.tol, len(table))


@dataclass(frozen=True)
class Check:
    """A check's runner, a function of (config, store), and the RunConfig
    fields it reads; the CLI rejects any other field that a flag or a config
    file sets.  ``run`` reads ``check`` for every check."""

    runner: Callable
    reads: tuple


_SAMPLED = ("check", "family", "samples", "seed", "radius", "tol")

# Every check by name: the ``lgh`` subcommands, then the suite-only checks.
# The factory gives two reports, its own and the quotient condition's.
CHECKS = {
    "verify-identities": Check(run_identities, ("check", "n", "tol")),
    "verify-lemma": Check(run_lemma, ("check", "group", "samples", "seed", "radius", "tol")),
    "verify-family": Check(run_family, _SAMPLED),
    "verify-morphism": Check(run_morphism, ("check", "family", "morphism", "samples", "seed", "radius", "tol", "floor")),
    "verify-duality": Check(run_duality, ("check", "pair", "family", "samples", "seed", "radius", "tol")),
    "eigenfamily-deformations": Check(_deformations, ("check", "samples", "seed", "radius", "tol")),
    "constants-crosscheck": Check(_constants_crosscheck, ("check", "tol")),
    "family-negative-control": Check(_family_negative_control, _SAMPLED),
    "morphism-factory": Check(
        lambda cfg, store: _morphism_factory(family_from_spec(cfg.family), cfg, store), (*_SAMPLED, "floor")
    ),
    "morphism-negative-control": Check(_morphism_negative_control, _SAMPLED),
    **{f"power-family-k{k}": Check(partial(_power_family, k), _SAMPLED) for k in (2, 3)},
}

# The suite runs a fixed matrix and reads only these.
SUITE_READS = ("seed", "tol")


def run(name: str, cfg: RunConfig, store: SampleStore | None = None):
    """The report of check ``name`` on a config: an ``lgh`` subcommand as
    the CLI runs it, or a suite-only check.  The morphism factory gives a
    pair of reports, its own and its quotient condition's.

    Points are read from ``store``, a fresh one when None; the reports do
    not depend on what the store held before.  Every report of a check that
    reads ``seed`` records its sampler's seed and radius in ``params``, so
    it replays from them; ``cfg.check``, when set, names the report.
    ``wall_time`` is the time of the whole run, spec parsing included, and
    sampling too unless another run drew the points into ``store``; of a
    pair, the second report records 0, its time being in the first's.
    """
    store = SampleStore() if store is None else store
    with timed_report() as clock:
        result = CHECKS[name].runner(cfg, store)
    for i, report in enumerate(result if isinstance(result, tuple) else (result,)):
        if "seed" in CHECKS[name].reads:
            report.params.update(sampler_seed=cfg.seed, radius=cfg.radius)
        if cfg.check is not None:
            report.check = cfg.check
        report.wall_time = 0.0 if i else clock.elapsed
    return result


# ---------------------------------------------------------------------------
# the full suite
# ---------------------------------------------------------------------------

# The linear eigenfamilies of the suite as family specs: the SO(n)
# isotropic-subspace families, U(n), SU(n) and Sp(n) from e_1.
FAMILY_SPECS = (
    *({"group": {"family": "so", "n": n}, "V": "standard"} for n in (4, 5, 6)),
    *({"group": {"family": g, "n": n}} for n in (2, 3) for g in ("u", "su")),
    *({"group": {"family": "sp", "n": n}} for n in (1, 2)),
)
U2_SPEC = {"group": {"family": "u", "n": 2}}
SO4_POINT_SPEC = {"group": {"family": "so", "n": 4}, "deformation": {}}


def isotropic_point(n: int) -> list:
    """p = e_1 + i e_2 in C^n as a JSON vector: the point of the SO(n)
    isotropic-point family that the suite and ``verify-family --special``
    name."""
    return [[1.0, 0.0], [0.0, 1.0]] + [[0.0, 0.0]] * (n - 2)


# The Hopf map z/w on SU(2), in the coordinates of the SU(2) family.
HOPF_SPEC = {
    "P": [{"exponents": [1, 0], "coeff": [1.0, 0.0]}],
    "Q": [{"exponents": [0, 1], "coeff": [1.0, 0.0]}],
}

DUALITY_PAIRS = (
    ("sl_r", {"n": 2}),
    ("sl_r", {"n": 3}),
    ("su_star", {"n": 4}),
    ("sp_r", {"n": 1}),
    ("sp_r", {"n": 2}),
    ("so_star", {"n": 4}),
    ("so_pq", {"p": 1, "q": 2}),
    ("so_pq", {"p": 2, "q": 2}),
    ("su_pq", {"p": 1, "q": 1}),
    ("su_pq", {"p": 1, "q": 2}),
    ("sp_pq", {"p": 1, "q": 1}),
)

FACTORY_FLOOR = 0.05  # keeps quotient jets away from the 1/Q^4 rounding blow-up
FACTORY_TOL = 1e-7
HOPF_TOL = 1e-9
CONTROL_TOL = 1e-10  # least tol of a negative control, whose deviations are rounding


def suite_checks(seed: int = DEFAULT_SEED, tol: float = 1e-8):
    """The acceptance matrix as (label, name, config) rows, in report order.

    ``run(name, config)`` gives each row's reports.  Where ``name`` is an
    ``lgh`` subcommand, that is what ``lgh <name> --config`` gives for the
    config, wall time aside; the other names are the suite-only checks,
    which no subcommand reaches.  A config holds only the fields its check
    reads (``CHECKS``).
    """

    def row(label, name, **fields):
        fields = {"seed": seed, "tol": tol, **fields}
        return label, name, RunConfig(**{k: v for k, v in fields.items() if k in CHECKS[name].reads})

    rows = [row(f"identities-n{n}", "verify-identities", n=n, tol=min(tol, IDENTITY_TOL)) for n in range(2, 11)]
    for alias, sizes in (("so", range(2, 7)), ("u", range(2, 5)), ("sp", range(1, 4))):
        for n in sizes:
            group = {"family": alias, "n": n}
            rows.append(row(f"coordinate-lemmas-{group_from_spec(group)}", "verify-lemma", group=group, samples=200))
    for spec in FAMILY_SPECS:
        rows.append(row(f"eigenfamily-{group_from_spec(spec['group'])}", "verify-family", family=spec))
    rows += [
        row("eigenfamily-deformations", "eigenfamily-deformations"),
        row("constants-crosscheck", "constants-crosscheck"),
        row("family-negative-control", "family-negative-control", family=U2_SPEC, tol=max(tol, CONTROL_TOL)),
    ]
    # the linear families plus the isotropic-point family on SO(4)
    for i, spec in enumerate(FAMILY_SPECS[:3] + (SO4_POINT_SPEC,) + FAMILY_SPECS[3:]):
        fam = family_from_spec(spec)
        fields = {"family": spec, "seed": seed + i, "samples": 50, "tol": FACTORY_TOL, "floor": FACTORY_FLOOR}
        rows.append(row(f"morphism-factory[{fam.provenance}-{fam.group}]", "morphism-factory", **fields))
    rows.append(
        row(
            "morphism-hopf",
            "verify-morphism",
            check="morphism-hopf",
            family={"group": {"family": "su", "n": 2}},
            morphism=HOPF_SPEC,
            floor=0.1,
            tol=HOPF_TOL,
        )
    )
    rows.append(row("morphism-negative-control", "morphism-negative-control", family=U2_SPEC, tol=max(tol, CONTROL_TOL)))
    for spec in (U2_SPEC, FAMILY_SPECS[0]):
        for k in (2, 3):
            rows.append(row(f"power-family-{group_from_spec(spec['group'])}-k{k}", f"power-family-k{k}", family=spec))
    pairs = [{"family": alias, **params} for alias, params in DUALITY_PAIRS]
    for pair in pairs:
        rows.append(row(f"duality-{group_from_spec(pair)}", "verify-duality", check="duality", pair=pair))
    # the isotropic-point family continues to every dual of an SO(n)
    for pair in pairs:
        gid = group_from_spec(pair)
        if gid.compact_partner.family == "SO":
            n = gid.compact_partner.n
            family = {"group": {"family": "so", "n": n}, "p": isotropic_point(n)}
            rows.append(row(f"duality-isotropic-point-{gid}", "verify-duality", check="duality-isotropic-point",
                            pair=pair, family=family))
    return rows


def run_suite(seed: int = DEFAULT_SEED, tol: float = 1e-8) -> dict:
    """Run every row of :func:`suite_checks`; an aggregate JSON-ready
    document with the reports in row order.  The rows share one
    :class:`SampleStore`, so a stream that several rows read is drawn once."""
    store = SampleStore()
    flat = []
    for _, name, cfg in suite_checks(seed, tol):
        result = run(name, cfg, store)
        flat.extend(result if isinstance(result, tuple) else (result,))
    return {
        "suite": "lgh",
        "seed": seed,
        "tol": tol,
        "passed": all(rep.passed for rep in flat),
        "checks": [rep.to_dict() for rep in flat],
    }
