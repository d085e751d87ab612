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
from dataclasses import asdict, dataclass
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
    compact_basis,
    verify_matrix_identities,
)
from .report import VerificationReport, timed_report
from .sampling import SplitMix64, compact_sampler
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


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_float=_number, parse_constant=_number, object_pairs_hook=_object)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}", field="config") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}", field="config") from exc
    fault = _config_fault(data, "config")
    if fault:
        field, message = fault
        raise ConfigError(message, field=field.removeprefix("config."))
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object", field="config")
    return RunConfig.from_dict(data)


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


def group_to_spec(gid: GroupId) -> dict:
    sizes = {"p": gid.p, "q": gid.q} if FAMILIES[gid.family].pq else {"n": gid.n}
    return {"family": FAMILIES[gid.family].alias, **sizes}


def family_from_spec(d: dict) -> fa.Eigenfamily:
    _block(d, ("group", "p", "V", "deformation"), "family")
    gid = group_from_spec(d.get("group", {}), "family.group")
    n = gid.n
    if "V" in d and gid.family != "SO":
        raise ConfigError("V picks an isotropic subspace on SO(n)", field="family.V")
    if "deformation" in d:
        if "p" in d or (gid.family, n) != ("SO", 4):
            raise ConfigError("deformation is the point of an SO(4) family, in place of p", field="family.deformation")
        zw = _block(d["deformation"], ("z", "w"), "family.deformation")
        p = fa.so4_deformation(pair_to_complex(zw.get("z", 0.0)), pair_to_complex(zw.get("w", 0.0)))
    elif "p" in d:
        p = vector_from_json(d["p"])
    else:
        p = np.zeros(n, dtype=complex)
        p[0] = 1.0
    try:
        if gid.family in ("U", "SU", "Sp"):
            return {"U": fa.u_family, "SU": fa.su_family, "Sp": fa.sp_family}[gid.family](n, p)
        if gid.family == "SO":
            if "V" in d and d["V"] != "standard":
                V = [vector_from_json(v) for v in d["V"]]
                return fa.so_family_V(n, p, V)
            if d.get("V") == "standard" or ("p" not in d and "deformation" not in d):
                return fa.so_family_V(n, p, fa.maximal_isotropic_basis(n))
            return fa.so_family_special(n, p)
    except ValidationError as exc:
        raise ConfigError(str(exc), field="family") from exc
    raise ConfigError(f"no family constructor for group {gid}", field="family.group")


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
        try:
            out[tuple(expo)] = pair_to_complex(coeff)
        except (ConfigError, TypeError, ValueError) as exc:
            raise ConfigError(f"{field_name} coeff must be a number or [re, im]", field=field_name) from exc
    return out


def morphism_from_spec(fam: fa.Eigenfamily, d: dict, floor: float) -> mo.RationalMorphism:
    _block(d, ("P", "Q"), "morphism")
    p = _coeff_map(d.get("P"), "morphism.P")
    q = _coeff_map(d.get("Q"), "morphism.Q")
    try:
        return mo.quotient_morphism(fam, p, q, floor=floor)
    except ValidationError as exc:
        raise ConfigError(str(exc), field="morphism") from exc


def pair_from_spec(d: dict) -> du.DualPair:
    gid = group_from_spec(d, "pair")
    if gid.family not in NONCOMPACT_FAMILIES:
        raise ConfigError(f"{gid} is not a non-compact dual group", field="pair.family")
    return du.dual_pair(gid)


# ---------------------------------------------------------------------------
# command runners
# ---------------------------------------------------------------------------

def run_identities(cfg: RunConfig) -> VerificationReport:
    n = cfg.n if cfg.n is not None else 5
    return verify_matrix_identities(n, tol=min(cfg.tol, 1e-12))


def run_lemma(cfg: RunConfig) -> VerificationReport:
    gid = group_from_spec(cfg.group or {})
    if gid.family not in fa.LEMMA_FAMILIES:
        aliases = ", ".join(FAMILIES[f].alias for f in fa.LEMMA_FAMILIES)
        raise ConfigError(f"coordinate relations exist for {aliases}", field="group.family")
    samples = compact_sampler(gid, cfg.radius, cfg.seed).take(cfg.samples)
    return fa.verify_coordinate_lemmas(gid, samples, tol=cfg.tol)


def run_family(cfg: RunConfig) -> VerificationReport:
    if cfg.family is None:
        raise ConfigError("missing family spec", field="family")
    fam = family_from_spec(cfg.family)
    basis = compact_basis(fam.group)
    samples = compact_sampler(fam.group, cfg.radius, cfg.seed).take(cfg.samples)
    return fa.verify_eigenfamily(fam, basis, samples, tol=cfg.tol)


def run_morphism(cfg: RunConfig) -> VerificationReport:
    if cfg.family is None or cfg.morphism is None:
        raise ConfigError("morphism run needs family and morphism specs", field="morphism")
    fam = family_from_spec(cfg.family)
    morph = morphism_from_spec(fam, cfg.morphism, cfg.floor)
    basis = compact_basis(fam.group)
    sampler = compact_sampler(fam.group, cfg.radius, cfg.seed)
    first = sampler.take(cfg.samples)
    return mo.verify_harmonic_morphism(
        morph,
        basis,
        first,
        tol=cfg.tol,
        min_samples=cfg.samples,
        sampler=lambda k: sampler.take(k).points,
    )


def run_duality(cfg: RunConfig) -> VerificationReport:
    if cfg.pair is None:
        raise ConfigError("missing pair spec", field="pair")
    pair = pair_from_spec(cfg.pair)
    fam = family_from_spec(cfg.family) if cfg.family else du.default_compact_family(pair)
    samples = du.sample_noncompact(pair, cfg.samples, cfg.radius, cfg.seed)
    rep = du.verify_dual_eigenfamily(pair, fam, samples, tol=cfg.tol)
    rep.residuals.update({f"frame_{k}": v for k, v in pair.residuals.items()})
    rep.notes["max_aligned_defect"] = rep.notes["max_group_defect"]
    return rep


def run_probe(cfg: RunConfig) -> VerificationReport:
    if cfg.pair is None:
        raise ConfigError("missing pair spec", field="pair")
    pair = pair_from_spec(cfg.pair)
    if cfg.family:
        fam = family_from_spec(cfg.family)
    else:
        n = pair.compact.n
        fam = fa.so_family_special(n, _first_isotropic(n))
    samples = du.sample_noncompact(pair, cfg.samples, cfg.radius, cfg.seed)
    return du.probe_noncontinuable(pair, fam, samples)


def _first_isotropic(n: int) -> np.ndarray:
    if n < 2:
        raise ConfigError("isotropic vectors need n >= 2", field="family")
    p = np.zeros(n, dtype=complex)
    p[0] = 1.0
    p[1] = 1j
    return p


COMMANDS = {
    "verify-identities": run_identities,
    "verify-lemma": run_lemma,
    "verify-family": run_family,
    "verify-morphism": run_morphism,
    "verify-duality": run_duality,
    "probe-duality": run_probe,
}

# The RunConfig fields each command reads; the CLI rejects any other field
# that a flag or a config file sets.  ``run`` reads ``check`` for every
# subcommand; the suite runs a fixed matrix and reads only seed and tol.
READS = {
    "verify-identities": ("check", "n", "tol"),
    "verify-lemma": ("check", "group", "samples", "seed", "radius", "tol"),
    "verify-family": ("check", "family", "samples", "seed", "radius", "tol"),
    "verify-morphism": ("check", "family", "morphism", "samples", "seed", "radius", "tol", "floor"),
    "verify-duality": ("check", "pair", "family", "samples", "seed", "radius", "tol"),
    "probe-duality": ("check", "pair", "family", "samples", "seed", "radius"),
    "suite": ("seed", "tol"),
}


def run(command: str, cfg: RunConfig) -> VerificationReport:
    """One ``lgh`` subcommand on a config, as the CLI and the suite run it;
    ``cfg.check``, when set, names the report."""
    report = COMMANDS[command](cfg)
    if "seed" in READS[command]:
        # the sampler's seed and radius, so the report replays from its params
        report.params.update(sampler_seed=cfg.seed, radius=cfg.radius)
    if cfg.check is not None:
        report.check = cfg.check
    return report


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

# The Hopf map z/w on SU(2), in the coordinates of the SU(2) family.
HOPF_SPEC = {
    "P": [{"exponents": [1, 0], "coeff": [1.0, 0.0]}],
    "Q": [{"exponents": [0, 1], "coeff": [1.0, 0.0]}],
}


def _factory_families():
    """The linear families plus the isotropic-point family on SO(4)."""
    specs = FAMILY_SPECS[:3] + (SO4_POINT_SPEC,) + FAMILY_SPECS[3:]
    return [family_from_spec(spec) for spec in specs]


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


# Sampling radius of the suite-only checks; their reports record it next
# to their sampler seed.
SUITE_RADIUS = 0.5


def _check_deformed_families(seed: int, tol: float) -> VerificationReport:
    """Ten seeded (z, w) deformations of the isotropic-point family on SO(4)."""
    rng_seed = seed ^ 0x5EED5EED
    rng = SplitMix64(rng_seed)
    residuals = {"tau": 0.0, "kappa": 0.0, "isotropy": 0.0}
    basis = compact_basis(GroupId("SO", 4))
    with timed_report() as clock:
        samples = compact_sampler(GroupId("SO", 4), SUITE_RADIUS, seed).take(100)
        for _ in range(10):
            z = rng.complex_uniform(1.0)
            w = rng.complex_uniform(1.0)
            p = fa.so4_deformation(z, w)
            residuals["isotropy"] = max(residuals["isotropy"], abs(fa.bilinear(p, p)))
            fam = fa.so_family_special(4, p)
            rep = fa.verify_eigenfamily(fam, basis, samples, tol=tol)
            residuals["tau"] = max(residuals["tau"], rep.residuals["tau"])
            residuals["kappa"] = max(residuals["kappa"], rep.residuals["kappa"])
    return VerificationReport(
        check="eigenfamily-deformations",
        target="SO(4)",
        params={"deformations": 10, "sampler_seed": seed, "radius": SUITE_RADIUS, "rng_seed": rng_seed},
        residuals=residuals,
        tol=tol,
        samples_used=100,
        wall_time=clock.elapsed,
    )


def _check_constants_crosscheck(tol: float) -> VerificationReport:
    sp1 = fa.eigen_constants("Sp", 1)
    su2 = fa.eigen_constants("SU", 2)
    res = {
        "lambda_match": abs(sp1[0] - su2[0]),
        "mu_match": abs(sp1[1] - su2[1]),
        "lambda_value": abs(sp1[0] + 1.5),
        "mu_value": abs(sp1[1] + 0.5),
    }
    return VerificationReport(
        check="constants-crosscheck",
        target="Sp(1)/SU(2)",
        params={},
        residuals=res,
        tol=tol,
    )


def _check_family_negative_control(seed: int, tol: float) -> VerificationReport:
    """A wrong lambda must be detected with residual |dlambda| * max|phi|."""
    fam = family_from_spec(U2_SPEC)
    broken = fa.Eigenfamily(fam.group, fam.members, fam.lam + 0.1, fam.mu, "control")
    basis = compact_basis(fam.group)
    with timed_report() as clock:
        samples = compact_sampler(fam.group, SUITE_RADIUS, seed).take(100)
        table = frame_operators(fam.members, samples, basis)
        rep = fa.verify_eigenfamily(broken, basis, table, tol=tol)
        peak = float(np.max(np.abs(table.values)))
        predicted = 0.1 * peak
        deviation = abs(rep.residuals["tau"] - predicted)
        failed_as_expected = 0.0 if rep.residuals["tau"] > tol else 1.0
    return VerificationReport(
        check="family-negative-control",
        target=str(fam.group),
        params={"lambda_shift": 0.1, "sampler_seed": seed, "radius": SUITE_RADIUS},
        residuals={"deviation_from_prediction": deviation, "control_must_fail": failed_as_expected},
        tol=max(tol, 1e-10),
        samples_used=len(table),
        wall_time=clock.elapsed,
        notes={"observed_tau_residual": rep.residuals["tau"], "predicted": predicted},
    )


FACTORY_FLOOR = 0.05  # keeps quotient jets away from the 1/Q^4 rounding blow-up
FACTORY_TOL = 1e-7
HOPF_TOL = 1e-9


def _check_morphism_factory(fam: fa.Eigenfamily, seed: int, pairs: int = 20, min_samples: int = 50):
    """Random same-degree (P, Q) quotients must all verify; the quotient
    condition triple equality is measured on the same instances.

    All quotients are drawn first, then verified together on the member
    frame table of the base samples, which the quotient-condition check
    shares, so each degree's monomial table is built once.  Samples come
    from ``seed``, the polynomials from ``seed ^ 0xFAC7041``; both are
    recorded, and ``notes`` names the quotients with the worst tau and the
    worst kappa by their index in the polynomial stream.
    """
    basis = compact_basis(fam.group)
    rng_seed = seed ^ 0xFAC7041
    rng = SplitMix64(rng_seed)
    with timed_report() as clock:
        sampler = compact_sampler(fam.group, SUITE_RADIUS, seed)
        base = frame_operators(fam.members, sampler.take(min_samples), basis)
        morphs = [
            mo.random_morphism(fam, int(1 + rng.next_u64() % 3), rng, floor=FACTORY_FLOOR)
            for _ in range(pairs)
        ]
        rep = mo.verify_harmonic_morphism(
            morphs,
            basis,
            base,
            tol=FACTORY_TOL,
            min_samples=min_samples,
            sampler=lambda k: sampler.take(k).points,
        )
        qrep = mo.verify_quotient_condition(
            fam, [m.numerator for m in morphs], [m.denominator for m in morphs], basis, base, tol=FACTORY_TOL
        )
    seeds = {"sampler_seed": seed, "radius": SUITE_RADIUS, "rng_seed": rng_seed}
    factory = VerificationReport(
        check="morphism-factory",
        target=str(fam.group),
        params={"pairs": pairs, "floor": FACTORY_FLOOR, "provenance": fam.provenance, **seeds},
        residuals=rep.residuals,
        tol=FACTORY_TOL,
        samples_used=rep.samples_used,
        samples_discarded=rep.samples_discarded,
        wall_time=clock.elapsed,
        notes=rep.notes,
    )
    triple = VerificationReport(
        check="quotient-condition",
        target=str(fam.group),
        params={"pairs": pairs, "provenance": fam.provenance, **seeds},
        residuals=qrep.residuals,
        tol=FACTORY_TOL,
        samples_used=len(base),
    )
    return factory, triple


def _check_morphism_negative_control(seed: int, tol: float) -> VerificationReport:
    """tau(z_11) = -2 z_11 on U(2), so the 'quotient' z_11/1 must fail with
    tau residual 2 max|z_11| and kappa residual max|z_11|^2."""
    gid = GroupId("U", 2)
    basis = compact_basis(gid)
    member = family_from_spec(U2_SPEC).members[0]
    with timed_report() as clock:
        samples = compact_sampler(gid, SUITE_RADIUS, seed).take(100)
        ops = frame_operators([member], samples, basis)
        tau_res = float(np.max(np.abs(ops.tau)))
        kappa_res = float(np.max(np.abs(ops.kappa)))
        peak = float(np.max(np.abs(ops.values)))
        dev_tau = abs(tau_res - 2.0 * peak)
        dev_kappa = abs(kappa_res - peak * peak)
        must_fail = 0.0 if tau_res > tol and kappa_res > tol else 1.0
    return VerificationReport(
        check="morphism-negative-control",
        target=str(gid),
        params={"sampler_seed": seed, "radius": SUITE_RADIUS},
        residuals={
            "tau_deviation_from_prediction": dev_tau,
            "kappa_deviation_from_prediction": dev_kappa,
            "control_must_fail": must_fail,
        },
        tol=max(tol, 1e-10),
        samples_used=len(samples),
        wall_time=clock.elapsed,
        notes={"observed_tau_residual": tau_res, "predicted": 2.0 * peak},
    )


def _check_power_family(fam: fa.Eigenfamily, k: int, seed: int, tol: float) -> VerificationReport:
    pfam = mo.power_family(fam, k)
    basis = compact_basis(fam.group)
    with timed_report() as clock:
        samples = compact_sampler(fam.group, SUITE_RADIUS, seed).take(100)
        table = frame_operators(pfam.members, samples, basis)
        rep = fa.verify_eigenfamily(pfam, basis, table, tol=tol)
        measured = fa.measure_constants_residual(pfam, basis, table)
        res = dict(rep.residuals)
        res.update(measured)
    return VerificationReport(
        check=f"power-family-k{k}",
        target=str(fam.group),
        params={
            "k": k,
            "members": len(pfam.members),
            "lambda_k": [pfam.lam.real, pfam.lam.imag],
            "mu_k": [pfam.mu.real, pfam.mu.imag],
            "sampler_seed": seed,
            "radius": SUITE_RADIUS,
        },
        residuals=res,
        tol=tol,
        samples_used=len(samples),
        wall_time=clock.elapsed,
    )


def suite_checks(seed: int = DEFAULT_SEED, tol: float = 1e-8):
    """The acceptance matrix as (label, command, config) rows, in report order.

    Where ``command`` is an ``lgh`` subcommand, the row's report is what
    ``lgh <command> --config`` gives for ``config``, wall time aside; the
    config holds only fields the command reads.  The suite-only checks
    carry a callable instead, and no config.
    """

    def cli(label, command, **fields):
        fields = {"seed": seed, "tol": tol, **fields}
        return label, command, RunConfig(**{k: v for k, v in fields.items() if k in READS[command]})

    rows = [cli(f"identities-n{n}", "verify-identities", n=n) for n in range(2, 11)]
    for alias, sizes in (("so", range(2, 7)), ("u", range(2, 5)), ("sp", range(1, 4))):
        for n in sizes:
            group = {"family": alias, "n": n}
            rows.append(cli(f"coordinate-lemmas-{group_from_spec(group)}", "verify-lemma", group=group, samples=200))
    for spec in FAMILY_SPECS:
        rows.append(cli(f"eigenfamily-{group_from_spec(spec['group'])}", "verify-family", family=spec))
    rows += [
        ("eigenfamily-deformations", partial(_check_deformed_families, seed, tol), None),
        ("constants-crosscheck", partial(_check_constants_crosscheck, tol), None),
        ("family-negative-control", partial(_check_family_negative_control, seed, tol), None),
    ]
    for i, fam in enumerate(_factory_families()):
        rows.append((f"morphism-factory[{fam.provenance}-{fam.group}]", partial(_check_morphism_factory, fam, seed + i), None))
    rows.append(
        cli(
            "morphism-hopf",
            "verify-morphism",
            check="morphism-hopf",
            family={"group": {"family": "su", "n": 2}},
            morphism=HOPF_SPEC,
            floor=0.1,
            tol=HOPF_TOL,
        )
    )
    rows.append(("morphism-negative-control", partial(_check_morphism_negative_control, seed, tol), None))
    for spec in (U2_SPEC, FAMILY_SPECS[0]):
        fam = family_from_spec(spec)
        for k in (2, 3):
            rows.append((f"power-family-{fam.group}-k{k}", partial(_check_power_family, fam, k, seed, tol), None))
    for alias, params in DUALITY_PAIRS:
        pair = {"family": alias, **params}
        rows.append(cli(f"duality-{group_from_spec(pair)}", "verify-duality", check="duality", pair=pair))
    rows.append(cli("probe-noncontinuable-SO(2,2)", "probe-duality", pair={"family": "so_pq", "p": 2, "q": 2}))
    return rows


def run_suite(seed: int = DEFAULT_SEED, tol: float = 1e-8) -> dict:
    """Run the whole acceptance matrix; an aggregate JSON-ready document.

    Results are ordered by the check list.
    """
    flat = []
    for _, command, cfg in suite_checks(seed, tol):
        result = command() if cfg is None else run(command, cfg)
        flat.extend(result if isinstance(result, tuple) else (result,))
    return {
        "suite": "lgh",
        "seed": seed,
        "tol": tol,
        "passed": all(rep.passed for rep in flat),
        "checks": [rep.to_dict() for rep in flat],
    }
