"""Config round-trips, CLI exit codes, report format, determinism basics."""

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgh import families as fa
from lgh import harness as H
from lgh.cli import build_parser, main
from lgh.duality import default_compact_family, dual_pair, group_frame
from lgh.errors import ConfigError, ValidationError
from lgh.families import LEMMA_FAMILIES
from lgh.matrices import FAMILIES, NONCOMPACT_FAMILIES


def test_config_round_trip():
    cfg = H.RunConfig(
        check="family",
        family={"group": {"family": "u", "n": 2}},
        samples=50,
        seed=7,
        radius=0.8,
        tol=1e-9,
        floor=0.01,
    )
    assert H.RunConfig.from_dict(cfg.to_dict()) == cfg


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError) as err:
        H.RunConfig.from_dict({"samples": 10, "bogus": 1})
    assert err.value.field == "bogus"


@pytest.mark.parametrize(
    "bad, field",
    [
        ({"samples": 0}, "samples"),
        ({"radius": 0.0}, "radius"),
        ({"radius": 1.5}, "radius"),
        ({"tol": 0.0}, "tol"),
        ({"floor": -1.0}, "floor"),
    ],
)
def test_config_validation(bad, field):
    with pytest.raises(ConfigError) as err:
        H.RunConfig.from_dict(bad)
    assert err.value.field == field


# One spec per alias, with its label, matrix size and compact partner.
GROUP_SPECS = (
    ({"family": "so", "n": 4}, "SO(4)", 4, "SO(4)"),
    ({"family": "u", "n": 3}, "U(3)", 3, "U(3)"),
    ({"family": "su", "n": 2}, "SU(2)", 2, "SU(2)"),
    ({"family": "sp", "n": 2}, "Sp(2)", 4, "Sp(2)"),
    ({"family": "glc_split", "n": 3}, "GL(3,C)-split", 3, None),
    ({"family": "sl_r", "n": 3}, "SL(3,R)", 3, "SU(3)"),
    ({"family": "su_star", "n": 4}, "SU*(4)", 4, "SU(4)"),
    ({"family": "sp_r", "n": 2}, "Sp(2,R)", 4, "Sp(2)"),
    ({"family": "so_star", "n": 4}, "SO*(4)", 4, "SO(4)"),
    ({"family": "so_pq", "p": 2, "q": 3}, "SO(2,3)", 5, "SO(5)"),
    ({"family": "su_pq", "p": 1, "q": 2}, "SU(1,2)", 3, "SU(3)"),
    ({"family": "sp_pq", "p": 1, "q": 1}, "Sp(1,1)", 4, "Sp(2)"),
)


def test_group_spec_round_trip():
    assert sorted(spec["family"] for spec, *_ in GROUP_SPECS) == sorted(row.alias for row in FAMILIES.values())
    for spec, label, dim, partner in GROUP_SPECS:
        gid = H.group_from_spec(spec)
        assert H.group_from_spec({**spec, "family": gid.family}) == gid  # the raw family name
        assert (str(gid), gid.matrix_dim) == (label, dim)
        if partner is None:
            with pytest.raises(ValidationError):
                gid.compact_partner
        else:
            assert str(gid.compact_partner) == partner
        if gid.family in NONCOMPACT_FAMILIES:
            assert dual_pair(gid).compact == gid.compact_partner


def test_schema_and_cli_aliases_are_the_table_aliases():
    schema = json.loads((Path(__file__).parents[1] / "docs" / "schemas" / "config.schema.json").read_text())
    assert schema["$defs"]["group"]["properties"]["family"]["enum"] == [row.alias for row in FAMILIES.values()]
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    pair = next(a for a in commands["verify-duality"]._actions if a.dest == "pair")
    assert pair.choices == [FAMILIES[f].alias for f in NONCOMPACT_FAMILIES]
    for command, families in (("verify-lemma", LEMMA_FAMILIES), ("verify-family", fa.LINEAR_FAMILIES)):
        group = next(a for a in commands[command]._actions if a.dest == "group")
        assert group.choices == [FAMILIES[f].alias for f in families], command


def test_schema_sizes_each_group_as_the_table_does():
    """One if/then per family says which of n, p, q it takes; even n for
    the families the table marks even."""
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((Path(__file__).parents[1] / "docs" / "schemas" / "config.schema.json").read_text())
    rules = {r["if"]["properties"]["family"]["const"]: r["then"] for r in schema["$defs"]["group"]["allOf"]}
    assert list(rules) == [row.alias for row in FAMILIES.values()]
    for row in FAMILIES.values():
        sizes, unused = (["p", "q"], ["n"]) if row.pq else (["n"], ["p", "q"])
        rule = rules[row.alias]
        assert rule["required"] == sizes
        assert [rule["properties"][key] for key in unused] == [False] * len(unused)
        assert (rule["properties"].get("n") == {"multipleOf": 2}) == row.even
        good = {"family": row.alias, "p": 1, "q": 2} if row.pq else {"family": row.alias, "n": 2}
        jsonschema.validate({"pair": good}, schema)
        H.group_from_spec(good)
        extra = [{**good, key: 4} for key in unused]
        missing = [{k: v for k, v in good.items() if k != key} for key in sizes]
        for bad in extra + missing:
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate({"pair": bad}, schema)
            with pytest.raises(ConfigError):
                H.group_from_spec(bad)
    for alias in ("su_star", "so_star"):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({"pair": {"family": alias, "n": 3}}, schema)
        with pytest.raises(ConfigError):
            H.group_from_spec({"family": alias, "n": 3})


def test_family_from_spec_defaults_to_standard_subspace():
    fam = H.family_from_spec({"group": {"family": "so", "n": 4}})
    assert fam.provenance == "so-isotropic-subspace"
    assert len(fam.members) == 2


def test_family_from_spec_takes_p_e1_with_a_stated_subspace():
    v = [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    fam = H.family_from_spec({"group": {"family": "so", "n": 4}, "V": [v]})
    want = fa.so_family_V(4, np.eye(4)[0], [np.array([0, 0, 1, 1j])])
    assert _family_bytes(fam) == _family_bytes(want)


def test_family_from_spec_deformation():
    fam = H.family_from_spec(
        {"group": {"family": "so", "n": 4}, "deformation": {"z": [0.0, 0.0], "w": [0.0, 0.0]}}
    )
    assert fam.provenance == "so-isotropic-point"
    assert len(fam.members) == 4


def test_family_from_spec_rejects_bad_group():
    with pytest.raises(ConfigError):
        H.family_from_spec({"group": {"family": "nope", "n": 2}})


def _family_bytes(fam):
    return fam.group, fam.lam, fam.mu, fam.provenance, [m.matrix.tobytes() for m in fam.members]


SUITE_GROUPS = {H.group_from_spec(spec["group"]) for spec in H.FAMILY_SPECS}
SUITE_PAIRS = [H.pair_group_from_spec({"family": alias, **params}) for alias, params in H.DUALITY_PAIRS]


@pytest.mark.parametrize("gid", sorted(SUITE_GROUPS, key=str) + SUITE_PAIRS, ids=str)
def test_one_default_family_per_group(gid):
    """A spec that names only the group, the families module's default and,
    on a pair, the default compact family build the same members: one
    default family, stated once."""
    pair = dual_pair(gid) if gid.family in NONCOMPACT_FAMILIES else None
    compact = pair.compact if pair else gid
    want = _family_bytes(fa.default_family(compact))
    spec = {"family": FAMILIES[compact.family].alias, "n": compact.n}
    assert _family_bytes(H.family_from_spec({"group": spec})) == want
    if pair:
        assert _family_bytes(default_compact_family(pair)) == want


@pytest.mark.parametrize("command", ["verify-family", "verify-morphism"])
@pytest.mark.parametrize("alias", ["so_pq", "su_pq", "sp_pq"])
def test_cli_family_on_a_dual_group_is_a_config_error(command, alias, tmp_path, capsys):
    """A family spec on a (p, q) group names a group with no linear family:
    refused as a config error on its group field, before any size is read."""
    doc = {"family": {"group": {"family": alias, "p": 1, "q": 2}}}
    if command == "verify-morphism":
        doc["morphism"] = H.HOPF_SPEC
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main([command, "--config", str(cfg)]) == 2
    assert "config error (field: family.group)" in capsys.readouterr().err


def test_schema_family_groups_are_the_linear_families():
    """The schema takes a family spec on exactly the groups that have a
    linear family."""
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((Path(__file__).parents[1] / "docs" / "schemas" / "config.schema.json").read_text())
    for family, row in FAMILIES.items():
        group = {"family": row.alias, **({"p": 1, "q": 2} if row.pq else {"n": 2})}
        config = {"family": {"group": group}}
        if family in fa.LINEAR_FAMILIES:
            jsonschema.validate(config, schema)
        else:
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(config, schema)


def test_morphism_spec_requires_terms():
    fam = H.family_from_spec({"group": {"family": "u", "n": 2}})
    with pytest.raises(ConfigError):
        H.morphism_from_spec(fam, {"P": [], "Q": []}, 1e-3)


def test_cli_verify_identities_exit_zero(capsys):
    assert main(["verify-identities", "--n", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert len(doc["residuals"]) == 6
    assert all(v < 1e-12 for v in doc["residuals"].values())


def test_cli_verify_identities_reads_n_from_config(tmp_path, capsys):
    cfg = tmp_path / "identities.json"
    cfg.write_text(json.dumps({"n": 3}))
    assert main(["verify-identities", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["target"] == "gl(3)"
    assert main(["verify-identities", "--config", str(cfg), "--n", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["target"] == "gl(4)"
    assert main(["verify-identities"]) == 0
    assert json.loads(capsys.readouterr().out)["target"] == "gl(5)"


def test_cli_verify_identities_honours_a_tighter_tol(capsys):
    assert main(["verify-identities", "--n", "3", "--tol", "1e-13"]) == 0
    assert json.loads(capsys.readouterr().out)["tol"] == 1e-13


def test_config_check_names_the_report(tmp_path, capsys):
    cfg = tmp_path / "pair.json"
    cfg.write_text(json.dumps({"pair": {"family": "sl_r", "n": 2}, "samples": 10}))
    assert main(["verify-duality", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["check"] == "dual-eigenfamily"
    cfg.write_text(json.dumps({"check": "duality", "pair": {"family": "sl_r", "n": 2}, "samples": 10}))
    assert main(["verify-duality", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["check"] == "duality"


def test_cli_verify_lemma_exit_zero(capsys):
    assert main(["verify-lemma", "--group", "so", "--n", "4", "--samples", "50", "--seed", "7"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True


def test_cli_missing_config_is_exit_two(capsys):
    assert main(["verify-family", "--config", "missing.json"]) == 2
    err = capsys.readouterr().err
    assert "config" in err


@pytest.mark.parametrize("depth", [600, 100_000])
def test_cli_refuses_a_deeply_nested_config(depth, tmp_path, capsys):
    """600 levels overflow the stack of the config walk, 100,000 that of
    json.load; either way the config is refused, not a traceback."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n": ' + "[" * depth + "3" + "]" * depth + "}")
    assert main(["verify-identities", "--config", str(cfg)]) == 2
    assert "config error (field: config)" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["verify-identities", "--n", "3"], ["suite"]], ids=["command", "suite"])
def test_cli_unwritable_out_is_exit_two(argv, tmp_path, capsys):
    """Exit 1 means a check failed; a report that cannot be written is a
    config error naming --out and its path."""
    out = tmp_path / "missing" / "r.json"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error (field: out)" in err and str(out) in err
    assert not out.parent.exists()


@pytest.mark.parametrize("V", [[[[0, 0]] * 4], [[[1, 0], [0, 1], [0, 0]]]])
def test_cli_refuses_a_zero_or_short_v_vector(V, tmp_path, capsys):
    """A zero V vector is isotropic, and its zero member would pass with
    tau = kappa = 0; a vector of the wrong length names the family too."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": {"group": {"family": "so", "n": 4}, "V": V}}))
    assert main(["verify-family", "--config", str(cfg)]) == 2
    assert "(field: family)" in capsys.readouterr().err


def test_cli_bad_radius_is_exit_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": {"group": {"family": "u", "n": 2}}, "radius": 2.0}))
    assert main(["verify-family", "--config", str(cfg)]) == 2
    assert "radius" in capsys.readouterr().err


def test_cli_family_config_file(tmp_path, capsys):
    cfg = tmp_path / "family.json"
    cfg.write_text(
        json.dumps(
            {
                "family": {
                    "group": {"family": "u", "n": 2},
                    "p": [[1.0, 0.0], [0.0, 0.0]],
                },
                "samples": 40,
                "seed": 3,
            }
        )
    )
    out = tmp_path / "report.json"
    assert main(["verify-family", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["samples_used"] == 40


def test_cli_morphism_config_file(tmp_path, capsys):
    cfg = tmp_path / "morphism.json"
    cfg.write_text(
        json.dumps(
            {
                "family": {"group": {"family": "su", "n": 2}},
                "morphism": {
                    "P": [{"exponents": [1, 0], "coeff": [1.0, 0.0]}],
                    "Q": [{"exponents": [0, 1], "coeff": [1.0, 0.0]}],
                },
                "samples": 40,
                "floor": 0.1,
                "tol": 1e-8,
            }
        )
    )
    assert main(["verify-morphism", "--config", str(cfg)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("degree", [120, 10**6])
def test_cli_refuses_a_monomial_layout_past_the_hessian_budget(degree, tmp_path, capsys):
    """P = z_1^d, Q = z_2^d on U(3) would need every degree-d monomial in 3
    members: 7381 of them at d = 120, whose Hessians take 1 MB a sample
    (2.5 GB over 100 samples), and about 5e11 at d = 1e6.  The layout is
    counted, not enumerated, and refused at once, small in time and memory."""
    import tracemalloc

    from lgh.exprs import HESSIAN_BUDGET

    cfg = tmp_path / "morphism.json"
    cfg.write_text(
        json.dumps(
            {
                "family": {"group": {"family": "u", "n": 3}},
                "morphism": {
                    "P": [{"exponents": [degree, 0, 0], "coeff": [1.0, 0.0]}],
                    "Q": [{"exponents": [0, degree, 0], "coeff": [1.0, 0.0]}],
                },
                "samples": 100,
            }
        )
    )
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = main(["verify-morphism", "--config", str(cfg)])
        elapsed, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    count = math.comb(degree + 2, 2)
    err = capsys.readouterr().err
    assert code == 2 and "(field: morphism)" in err
    assert f"{count} monomials" in err and f"{count * 9 * 16} bytes" in err and str(HESSIAN_BUDGET) in err
    assert elapsed < 1.0 and peak < 4 << 20


def test_cli_duality_pair_flags(capsys):
    assert main(["verify-duality", "--pair", "su_pq", "--p", "1", "--q", "1", "--samples", "30"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert doc["residuals"]["frame_involution"] < 1e-12


def test_cli_duality_of_the_isotropic_point_family(tmp_path, capsys):
    """The isotropic-point family continues to SO(2,2) through the gated
    verify-duality; no probe-duality command remains."""
    cfg = tmp_path / "cfg.json"
    family = {"group": {"family": "so", "n": 4}, "p": [[1, 0], [0, 1], [0, 0], [0, 0]]}
    cfg.write_text(json.dumps({"pair": {"family": "so_pq", "p": 2, "q": 2}, "family": family, "samples": 20}))
    assert main(["verify-duality", "--config", str(cfg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True and math.isfinite(doc["tol"])
    assert doc["params"]["provenance"] == "so-isotropic-point-dual"
    with pytest.raises(SystemExit) as exit_:
        main(["probe-duality", "--p", "2", "--q", "2"])
    assert exit_.value.code == 2


def _strict_json(text: str):
    """The document of a JSON text that holds no NaN or Infinity."""

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize(
    "argv",
    [
        ["suite"],
        ["verify-duality", "--pair", "so_pq", "--p", "2", "--q", "2", "--samples", "20"],
        ["verify-identities", "--n", "4"],
        ["verify-lemma", "--group", "sp", "--n", "2", "--samples", "20"],
        ["verify-family", "--group", "su", "--n", "3", "--samples", "20"],
        ["verify-morphism", "--samples", "20"],
    ],
    ids=["suite", "verify-duality", "verify-identities", "verify-lemma", "verify-family", "verify-morphism"],
)
def test_cli_output_is_strict_json_valid_against_the_report_schema(argv, tmp_path):
    """What ``--out`` writes parses with no NaN or Infinity constant, and
    the parsed document is valid against ``docs/schemas/report.schema.json``.
    verify-morphism checks the suite's Hopf map on SU(2) from a config file."""
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((Path(__file__).parents[1] / "docs" / "schemas" / "report.schema.json").read_text())
    if argv[0] == "verify-morphism":
        cfg = tmp_path / "hopf.json"
        cfg.write_text(json.dumps({"family": {"group": {"family": "su", "n": 2}}, "morphism": H.HOPF_SPEC}))
        argv = argv + ["--config", str(cfg)]
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 0
    jsonschema.validate(_strict_json(out.read_text()), schema)


def test_cli_report_with_a_non_finite_number_exits_1_and_writes_nothing(monkeypatch, tmp_path, capsys):
    """A report holding NaN has no strict JSON text: the command exits 1
    with a one-line diagnostic and no traceback, and writes no ``--out``."""
    from lgh import cli

    measured = cli.run

    def nan_residual(command, cfg):
        report = measured(command, cfg)
        report.residuals["tau"] = float("nan")
        return report

    monkeypatch.setattr(cli, "run", nan_residual)
    out = tmp_path / "out.json"
    assert main(["verify-family", "--group", "u", "--n", "2", "--samples", "10", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert not out.exists() and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
    assert "not strict JSON" in captured.err


def test_cli_reports_are_deterministic(capsys):
    argv = ["verify-family", "--group", "u", "--n", "2", "--samples", "30", "--seed", "9"]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    second = json.loads(capsys.readouterr().out)
    first.pop("wall_time")
    second.pop("wall_time")
    assert first == second


def test_suite_subset_thread_pool_matches_sequential():
    rows = H.suite_checks(seed=42, tol=1e-8)[:6]
    sequential = [H.run(command, cfg).to_dict() for _, command, cfg in rows]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = [rep.to_dict() for rep in pool.map(lambda row: H.run(*row[1:]), rows)]
    assert len(threaded) == len(sequential) == 6
    for a, b in zip(sequential, threaded):
        a.pop("wall_time")
        b.pop("wall_time")
        assert a == b


def test_report_pass_iff_residuals_below_tol():
    from lgh.report import VerificationReport

    rep = VerificationReport("x", "y", {}, {"a": 1e-9, "b": 1e-7}, tol=1e-8)
    assert not rep.passed
    rep2 = VerificationReport("x", "y", {}, {"a": 1e-9, "b": 1e-9}, tol=1e-8)
    assert rep2.passed
    nan = VerificationReport("x", "y", {}, {"a": float("nan")}, tol=1e-8)
    assert not nan.passed


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--samples", "3", "--radius", "1.0", "--floor", "0.9"], "samples"),
        (["--radius", "0.5"], "radius"),
        (["--floor", "0.001"], "floor"),
    ],
)
def test_cli_suite_rejects_flags_it_does_not_read(flags, field, capsys):
    assert main(["suite"] + flags) == 2
    assert f"field: {field}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, field",
    [
        (["verify-identities", "--samples", "7", "--radius", "0.1"], "samples"),
        (["verify-identities", "--config", "{config}"], "group"),
        (["verify-family", "--group", "u", "--n", "2", "--floor", "0.3"], "floor"),
        (["verify-family", "--group", "u", "--n", "2", "--special"], "special"),
        (["verify-duality", "--pair", "sl_r", "--n", "2", "--q", "3"], "q"),
        (["verify-lemma", "--config", "{config}", "--n", "5"], "n"),
        (["verify-family", "--config", "{samples_text}"], "samples"),
        (["verify-family", "--config", "{seed_bool}"], "seed"),
        (["verify-identities", "--config", "{n_float}"], "n"),
        (["verify-family", "--config", "{radius_text}"], "radius"),
        (["verify-morphism", "--config", "{floor_list}"], "floor"),
        (["verify-duality", "--config", "{pair_list}"], "pair"),
        (["verify-family", "--config", "{deformation_list}"], "family.deformation"),
        (["verify-lemma", "--config", "{group_n_text}"], "group.n"),
        (["verify-lemma", "--config", "{group_n_float}"], "group.n"),
        (["verify-lemma", "--config", "{group_n_bool}"], "group.n"),
        (["verify-duality", "--config", "{pair_p_text}"], "pair.p"),
        (["verify-morphism", "--config", "{exponents_text}"], "morphism.P"),
        (["verify-identities", "--n", "0"], "n"),
        (["verify-lemma", "--config", "{config}", "--group", "so", "--n", "0"], "group"),
        (["verify-duality", "--config", "{pair_pq_with_n}"], "pair"),
        (["verify-lemma", "--config", "{group_family_list}"], "group.family"),
        (["verify-family", "--config", "{deformation_typo}"], "family.deformaton"),
        (["verify-family", "--config", "{p_and_deformation}"], "family.deformation"),
        (["verify-family", "--config", "{deformation_on_u4}"], "family.deformation"),
        (["verify-family", "--config", "{v_on_u2}"], "family.V"),
        (["verify-morphism", "--config", "{morphism_floor}"], "morphism.floor"),
        (["verify-morphism", "--config", "{coeff_extra}"], "morphism.P.scale"),
        (["verify-duality", "--config", "{pair_extra}"], "pair.extra"),
        (["verify-lemma", "--config", "{group_extra}"], "group.m"),
        (["verify-family", "--config", "{deformation_zz}"], "family.deformation.zz"),
        (["verify-morphism", "--config", "{floor_nan}"], "floor"),
        (["verify-family", "--config", "{tol_infinity}"], "tol"),
        (["verify-morphism", "--config", "{coeff_nan}"], "morphism.P.0.coeff"),
        (["verify-morphism", "--config", "{hopf}", "--floor", "nan"], "floor"),
        (["verify-family", "--group", "u", "--n", "2", "--tol", "inf"], "tol"),
        (["suite", "--tol", "inf"], "tol"),
        (["verify-family", "--config", "{tol_twice}"], "tol"),
        (["verify-family", "--config", "{group_n_twice}"], "family.group.n"),
        (["verify-identities", "--n", "3", "--tol", "1e-3"], "tol"),
        (["verify-identities", "--config", "{identities_loose_tol}"], "tol"),
        (["verify-family", "--config", "{p_number}"], "family.p"),
        (["verify-family", "--config", "{p_text_entry}"], "family.p"),
        (["verify-family", "--config", "{v_number_rows}"], "family.V"),
        (["verify-family", "--config", "{v_number}"], "family.V"),
        (["verify-family", "--config", "{deformation_text}"], "family.deformation.z"),
        (["verify-morphism", "--config", "{coeff_text}"], "morphism.Q"),
        (["verify-morphism", "--config", "{p_exponents_twice}"], "morphism.P"),
        (["verify-morphism", "--config", "{q_exponents_twice}"], "morphism.Q"),
        (["verify-family", "--config", "{floor_at_default}"], "floor"),
        (["verify-identities", "--config", "{sampling_at_default}"], "seed"),
    ],
)
def test_cli_rejects_flags_and_fields_the_command_does_not_read(argv, field, tmp_path, capsys):
    """Each config file the parser rejects is rejected by
    ``docs/schemas/config.schema.json`` too, except where the schema cannot
    tell: a field the command does not read, at its default value or not,
    a verify-identities tol above 1e-12, number literals JSON does not have
    (NaN, Infinity), a key set twice in one object, which a loaded JSON
    object cannot hold, and two terms of P or Q with the same exponents,
    which would keep only the last coefficient."""
    u2 = {"group": {"family": "u", "n": 2}}
    so4 = {"family": "so", "n": 4}
    configs = {
        "config": {"group": {"family": "so", "n": 3}},
        "samples_text": {"family": u2, "samples": "100"},
        "seed_bool": {"family": u2, "seed": True},
        "n_float": {"n": 2.5},
        "radius_text": {"family": u2, "radius": "0.5"},
        "floor_list": {"family": u2, "morphism": H.HOPF_SPEC, "floor": [0.1]},
        "pair_list": {"pair": ["sl_r", 2]},
        "deformation_list": {"family": {"group": {"family": "so", "n": 4}, "deformation": [1, 2]}},
        "group_n_text": {"group": {"family": "so", "n": "3"}},
        "group_n_float": {"group": {"family": "so", "n": 2.5}},
        "group_n_bool": {"group": {"family": "so", "n": True}},
        "pair_p_text": {"pair": {"family": "so_pq", "p": "1", "q": 2}},
        "pair_pq_with_n": {"pair": {"family": "so_pq", "p": 2, "q": 2, "n": 4}},
        "group_family_list": {"group": {"family": ["so"], "n": 3}},
        "exponents_text": {
            "family": u2,
            "morphism": {
                "P": [{"exponents": ["a", 0], "coeff": 1.0}],
                "Q": [{"exponents": [0, 1], "coeff": 1.0}],
            },
        },
        "deformation_typo": {"family": {"group": so4, "deformaton": {"z": 0.5}}},
        "p_and_deformation": {"family": {"group": so4, "p": [1, [0, 1], 0, 0], "deformation": {"z": 0.5}}},
        "deformation_on_u4": {"family": {"group": {"family": "u", "n": 4}, "deformation": {"z": 0.5}}},
        "v_on_u2": {"family": {**u2, "V": "standard"}},
        "morphism_floor": {"family": u2, "morphism": {**H.HOPF_SPEC, "floor": 0.5}},
        "coeff_extra": {
            "family": u2,
            "morphism": {**H.HOPF_SPEC, "P": [{"exponents": [1, 0], "coeff": 1.0, "scale": 2.0}]},
        },
        "pair_extra": {"pair": {"family": "sl_r", "n": 2, "extra": 1}},
        "group_extra": {"group": {"family": "so", "n": 3, "m": 2}},
        "deformation_zz": {"family": {"group": so4, "deformation": {"z": 0.5, "zz": 1.0}}},
        "floor_nan": {"family": u2, "morphism": H.HOPF_SPEC, "floor": float("nan")},
        "tol_infinity": {"family": u2, "tol": float("inf")},
        "coeff_nan": {
            "family": u2,
            "morphism": {**H.HOPF_SPEC, "P": [{"exponents": [1, 0], "coeff": float("nan")}]},
        },
        "hopf": {"family": u2, "morphism": H.HOPF_SPEC},
        "identities_loose_tol": {"n": 3, "tol": 1e-6},
        "p_number": {"family": {"group": so4, "p": 5}},
        "p_text_entry": {"family": {"group": so4, "p": [1, ["0", 1], 0, 0]}},
        "v_number_rows": {"family": {"group": so4, "V": [5]}},
        "v_number": {"family": {"group": so4, "V": 5}},
        "deformation_text": {"family": {"group": so4, "deformation": {"z": ["a", 0]}}},
        "coeff_text": {"family": u2, "morphism": {**H.HOPF_SPEC, "Q": [{"exponents": [0, 1], "coeff": [1, "i"]}]}},
        "p_exponents_twice": {"family": u2, "morphism": {**H.HOPF_SPEC, "P": [*H.HOPF_SPEC["P"], {"exponents": [1, 0], "coeff": 5}]}},
        "q_exponents_twice": {"family": u2, "morphism": {**H.HOPF_SPEC, "Q": [*H.HOPF_SPEC["Q"], {"exponents": [0, 1], "coeff": 5}]}},
        "floor_at_default": {"family": u2, "floor": 0.001},
        "sampling_at_default": {"seed": 42, "radius": 0.5},
    }
    texts = {name: json.dumps(config) for name, config in configs.items()}
    # json.load keeps the last of repeated keys: tol 1e-8, and U(2)
    texts["tol_twice"] = '{"family": {"group": {"family": "u", "n": 2}}, "tol": 1e-30, "tol": 1e-8}'
    texts["group_n_twice"] = '{"family": {"group": {"family": "u", "n": 3, "n": 2}}}'
    for name, text in texts.items():
        (tmp_path / f"{name}.json").write_text(text)
    assert main([arg.format(**{name: tmp_path / f"{name}.json" for name in texts}) for arg in argv]) == 2
    assert f"field: {field}" in capsys.readouterr().err
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((Path(__file__).parents[1] / "docs" / "schemas" / "config.schema.json").read_text())
    silent = {
        "config", "floor_nan", "tol_infinity", "coeff_nan", "hopf", "tol_twice", "group_n_twice",
        "identities_loose_tol", "p_exponents_twice", "q_exponents_twice", "floor_at_default",
        "sampling_at_default",
    }
    for name in {arg[1:-1] for arg in argv if arg.startswith("{")} - silent:
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(configs[name], schema)


def test_cli_suite_reads_seed_tol_and_out(tmp_path, capsys):
    out = tmp_path / "suite.json"
    assert main(["suite", "--seed", "3", "--tol", "1e-8", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert (doc["seed"], doc["tol"], doc["passed"]) == (3, 1e-8, True)


def test_cli_suite_rejects_config_fields_it_does_not_read(tmp_path, capsys):
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({"seed": 3, "samples": 7}))
    assert main(["suite", "--config", str(cfg)]) == 2
    assert "field: samples" in capsys.readouterr().err


def _factory_rows():
    """The morphism-factory rows of the seed-42 suite, in report order."""
    return [row for row in H.suite_checks() if row[1] == "morphism-factory"]


def test_factory_check_replays_from_its_recorded_seeds():
    from lgh import morphisms as mo
    from lgh.jets import frame_operators
    from lgh.matrices import compact_basis
    from lgh.sampling import SplitMix64, compact_sampler

    index, (_, name, cfg) = 4, _factory_rows()[4]
    fam = H.family_from_spec(cfg.family)
    factory, triple = H.run(name, cfg)
    params = factory.params
    assert params["sampler_seed"] == H.DEFAULT_SEED + index
    assert params["rng_seed"] == params["sampler_seed"] ^ 0xFAC7041
    assert triple.params["rng_seed"] == params["rng_seed"]
    # replay with the public API and the recorded seeds alone
    basis = compact_basis(fam.group)
    sampler = compact_sampler(fam.group, params["radius"], params["sampler_seed"])
    rng = SplitMix64(params["rng_seed"])
    table = frame_operators(fam.members, sampler.take(50), basis)
    tau = kappa = 0.0
    for _ in range(params["pairs"]):
        morph = mo.random_morphism(fam, 1 + rng.next_u64() % 3, rng, floor=params["floor"])
        rep = mo.verify_harmonic_morphism(
            morph, basis, table, tol=factory.tol, min_samples=50,
            sampler=lambda k: sampler.take(k).points,
        )
        tau = max(tau, rep.residuals["tau"])
        kappa = max(kappa, rep.residuals["kappa"])
    assert (tau, kappa) == (factory.residuals["tau"], factory.residuals["kappa"])


def test_factory_worst_quotients_replay_alone_from_the_notes():
    """The notes name the worst-tau and worst-kappa quotients by stream
    index, degree and sampler skip; each replays alone to the report's
    residual.  On Sp(1) both worst quotients redraw after earlier ones."""
    from lgh import morphisms as mo
    from lgh.matrices import compact_basis
    from lgh.sampling import SplitMix64, compact_sampler

    _, check, cfg = _factory_rows()[8]
    fam = H.family_from_spec(cfg.family)
    factory, _ = H.run(check, cfg)
    params = factory.params
    basis = compact_basis(fam.group)
    for name in ("tau", "kappa"):
        worst = factory.notes[f"worst_{name}"]
        assert worst["sampler_skip"] > 0
        rng = SplitMix64(params["rng_seed"])
        for _ in range(worst["index"] + 1):
            morph = mo.random_morphism(fam, 1 + rng.next_u64() % 3, rng, floor=params["floor"])
        assert morph.degree == worst["degree"]
        sampler = compact_sampler(fam.group, params["radius"], params["sampler_seed"])
        base = sampler.take(50)
        sampler.take(worst["sampler_skip"])
        rep = mo.verify_harmonic_morphism(
            morph, basis, base, tol=factory.tol, min_samples=50,
            sampler=lambda k: sampler.take(k).points,
        )
        assert rep.residuals[name] == factory.residuals[name]


def test_factory_redraws_in_look_ahead_blocks(monkeypatch):
    """A count, not a timer: the seed-42 factory rows make 10 base takes and
    10 redraw takes (49 takes in all when every redraw round drew its own
    points), with the golden counts unchanged."""
    from lgh.sampling import GroupSampler

    takes = []
    real_take = GroupSampler.take

    def take(self, count):
        takes.append(count)
        return real_take(self, count)

    monkeypatch.setattr(GroupSampler, "take", take)
    for _, name, cfg in _factory_rows():
        H.run(name, cfg)
    assert len(takes) == 20


def test_identities_refuse_a_looser_tol_through_the_api():
    with pytest.raises(ConfigError) as err:
        H.run("verify-identities", H.RunConfig(n=3, tol=1e-3))
    assert err.value.field == "tol"
    assert H.run("verify-identities", H.RunConfig(n=3)).tol == H.IDENTITY_TOL
    assert H.run("verify-identities", H.RunConfig(n=3, tol=1e-13)).tol == 1e-13


def test_factory_composes_nothing_and_builds_each_degree_table_once(monkeypatch):
    """A count, not a timer: the factory composes no polynomial into a frame
    table (no ``exprs.compose`` call), and builds at most one monomial table
    per degree on its base frame table, shared by the morphism and
    quotient-condition checks."""
    from lgh import exprs

    compose_calls = []
    bases = []
    builds = []
    real_compose, real_monomials, real_frame = exprs.compose, exprs.monomials, H.frame_operators

    def compose(*args, **kwargs):
        compose_calls.append(1)
        return real_compose(*args, **kwargs)

    def frame_operators(*args, **kwargs):
        bases.append(real_frame(*args, **kwargs))
        return bases[-1]

    def monomials(values, exponents):
        builds.append((id(values), len(exponents)))
        return real_monomials(values, exponents)

    monkeypatch.setattr(exprs, "compose", compose)
    monkeypatch.setattr(H, "frame_operators", frame_operators)
    monkeypatch.setattr(exprs, "monomials", monomials)
    for _, name, cfg in _factory_rows():
        bases.clear()
        builds.clear()
        factory, triple = H.run(name, cfg)
        assert factory.passed and triple.passed
        (base,) = bases
        on_base = [b for b in builds if b[0] == id(base.values)]
        assert 1 <= len(on_base) == len(set(on_base)) <= 3
    assert compose_calls == []


def test_power_family_check_replays_from_its_params():
    from lgh import families as fa
    from lgh import morphisms as mo
    from lgh.matrices import compact_basis
    from lgh.sampling import compact_sampler

    _, name, cfg = next(row for row in H.suite_checks() if row[0] == "power-family-U(2)-k3")
    fam = H.family_from_spec(cfg.family)
    report = H.run(name, cfg)
    params = report.params
    assert (params["sampler_seed"], params["radius"]) == (H.DEFAULT_SEED, 0.5)
    # replay with the public API and the recorded params alone
    pfam = mo.power_family(fam, params["k"])
    basis = compact_basis(fam.group)
    samples = compact_sampler(fam.group, params["radius"], params["sampler_seed"]).take(report.samples_used)
    residuals = dict(fa.verify_eigenfamily(pfam, basis, samples, tol=report.tol).residuals)
    residuals.update(fa.measure_constants_residual(pfam, basis, samples))
    assert residuals == report.residuals


@pytest.fixture(scope="module")
def suite_document():
    """The seed-42 suite document as the CLI would print it."""
    return json.loads(json.dumps(H.run_suite(seed=42, tol=1e-8)))


def test_every_cli_suite_row_replays_through_the_cli(suite_document, tmp_path):
    """``lgh <command> --config`` of each CLI-backed row gives the suite's
    report for that row; the configs, the reports and the suite document
    are valid against ``docs/schemas``.  Every sampled report records its
    sampler's seed and radius, and an eigenfamily row replays from its
    report alone."""
    jsonschema = pytest.importorskip("jsonschema")
    schemas = Path(__file__).parents[1] / "docs" / "schemas"
    schema = json.loads((schemas / "config.schema.json").read_text())
    report_schema = json.loads((schemas / "report.schema.json").read_text())
    jsonschema.validate(suite_document, report_schema)
    suite_reports = [{k: v for k, v in c.items() if k != "wall_time"} for c in suite_document["checks"]]
    commands = set(next(a for a in build_parser()._actions if a.dest == "command").choices) - {"suite"}
    rows = [row for row in H.suite_checks(seed=42, tol=1e-8) if row[1] in commands]
    assert len(rows) == 44
    assert {command for _, command, _ in rows} == commands
    for i, (label, command, cfg) in enumerate(rows):
        # the fields the command reads: the CLI refuses any other a file sets
        config = {k: v for k, v in cfg.to_dict().items() if v is not None and k in H.CHECKS[command].reads}
        jsonschema.validate(config, schema)
        path, out = tmp_path / f"row{i}.json", tmp_path / f"report{i}.json"
        path.write_text(json.dumps(config))
        assert main([command, "--config", str(path), "--out", str(out)]) == 0, label
        report = json.loads(out.read_text())
        jsonschema.validate(report, report_schema)
        report.pop("wall_time")
        same = [c for c in suite_reports if (c["check"], c["target"]) == (report["check"], report["target"])]
        assert same == [report], label
        if "seed" in H.CHECKS[command].reads:
            assert (report["params"]["sampler_seed"], report["params"]["radius"]) == (cfg.seed, cfg.radius)
    # the U(2) eigenfamily row, rebuilt from its target, params and sample count
    from lgh import families as fa
    from lgh.matrices import compact_basis
    from lgh.sampling import compact_sampler

    row = next(c for c in suite_reports if (c["check"], c["target"]) == ("eigenfamily", "U(2)"))
    params = row["params"]
    assert params["provenance"] == "u-linear"
    fam = fa.u_family(2, np.array([1.0, 0.0]))
    samples = compact_sampler(fam.group, params["radius"], params["sampler_seed"]).take(row["samples_used"])
    replay = fa.verify_eigenfamily(fam, compact_basis(fam.group), samples, tol=row["tol"])
    assert replay.residuals == row["residuals"]
    assert replay.notes["max_group_defect"] == row["notes"]["max_group_defect"]


def test_every_suite_row_replays_through_run(suite_document):
    """Every row of the suite is a config that ``harness.run`` replays: the
    configs are valid against ``docs/schemas/config.schema.json`` and hold
    only fields their check reads, and the 62 rows give the suite's 72
    reports bit for bit, wall time aside."""
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((Path(__file__).parents[1] / "docs" / "schemas" / "config.schema.json").read_text())
    rows = H.suite_checks(seed=42, tol=1e-8)
    assert len(rows) == 62
    replayed = []
    for label, name, cfg in rows:
        assert isinstance(cfg, H.RunConfig), label
        config = {k: v for k, v in cfg.to_dict().items() if v is not None}
        jsonschema.validate(config, schema)
        default = H.RunConfig()
        assert {k for k, v in cfg.to_dict().items() if v != getattr(default, k)} <= set(H.CHECKS[name].reads), label
        result = H.run(name, cfg)
        replayed += result if isinstance(result, tuple) else [result]
    reports = json.loads(json.dumps([rep.to_dict() for rep in replayed]))
    suite_reports = [{k: v for k, v in c.items() if k != "wall_time"} for c in suite_document["checks"]]
    assert len(reports) == 72
    assert [{k: v for k, v in c.items() if k != "wall_time"} for c in reports] == suite_reports
    # every check is a subcommand or a suite-only check that no subcommand reaches
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    assert set(H.CHECKS) == {name for _, name, _ in rows}
    assert set(H.CHECKS) & set(commands) == set(commands) - {"suite"}


def test_run_times_the_whole_row(monkeypatch):
    """For a row run alone, a report's wall time is its whole row, sampling
    included; the factory's quotient-condition report shares its row's time
    and records 0."""
    real_sampler = H.GroupSampler

    def slow_sampler(*args):
        time.sleep(0.05)
        return real_sampler(*args)

    monkeypatch.setattr(H, "GroupSampler", slow_sampler)
    _, name, cfg = next(row for row in H.suite_checks() if row[0] == "eigenfamily-U(2)")
    assert H.run(name, cfg).wall_time >= 0.05
    factory, triple = H.run(*_factory_rows()[0][1:])
    assert factory.wall_time >= 0.05 and triple.wall_time == 0.0


def test_suite_draws_each_stream_and_pair_once(monkeypatch):
    """A count, not a timer: the seed-42 suite draws its 33 distinct
    (frame, radius, seed) streams in 43 takes of 4110 points (5776 points
    in 61 takes when every row drew its own), and on a process with no
    pair built yet builds each of its 11 dual pairs once.  A second suite
    in the same process draws its streams again, as nothing of one run's
    store carries over, and builds no pair: each group's pair is built
    once per process."""
    import functools

    from lgh import duality
    from lgh.sampling import GroupSampler

    takes, pairs = [], []
    real_take, real_build = GroupSampler.take, duality._build_pair

    def take(self, count):
        takes.append(count)
        return real_take(self, count)

    def build(noncompact, compact, theta):
        pairs.append(noncompact)
        return real_build(noncompact, compact, theta)

    monkeypatch.setattr(GroupSampler, "take", take)
    monkeypatch.setattr(duality, "_build_pair", build)
    # a cache of its own, empty, so that the first run builds every pair
    monkeypatch.setattr(duality, "dual_pair", functools.cache(duality.dual_pair.__wrapped__))
    for built in (11, 0):
        takes.clear()
        pairs.clear()
        H.run_suite(seed=42, tol=1e-8)
        assert (sum(takes), len(takes), len(pairs)) == (4110, 43, built)
        assert len(set(pairs)) == built


def test_suite_rows_read_one_store_in_any_order(suite_document):
    """The 60 rows run in reverse order through one store give the suite's
    reports, wall time aside: a reader's points do not depend on which row
    drew them first."""
    store = H.SampleStore()
    reports = []
    for _, name, cfg in reversed(H.suite_checks(seed=42, tol=1e-8)):
        result = H.run(name, cfg, store)
        reports[:0] = result if isinstance(result, tuple) else (result,)
    reports = json.loads(json.dumps([rep.to_dict() for rep in reports]))
    strip = lambda checks: [{k: v for k, v in c.items() if k != "wall_time"} for c in checks]  # noqa: E731
    assert strip(reports) == strip(suite_document["checks"])


def test_store_hands_out_read_only_slices_of_one_draw():
    """Cursors on one stream read the sampler's points bit for bit, however
    their takes interleave, and no reader can write into the shared draw."""
    from lgh.matrices import U, compact_basis
    from lgh.sampling import compact_sampler

    store = H.SampleStore()
    first, second = store.cursor(compact_basis(U(2)), 0.5, 42), store.cursor(compact_basis(U(2)), 0.5, 42)
    head = first.take(3)
    whole = second.take(10)
    tail = first.take(7)
    fresh = compact_sampler(U(2), 0.5, 42).take(10)
    for got, want in ((head, slice(0, 3)), (whole, slice(0, 10)), (tail, slice(3, 10))):
        assert got.points.tobytes() == fresh.points[want].tobytes()
        assert got.defects.tobytes() == fresh.defects[want].tobytes()
    for samples in (head, whole, tail):
        with pytest.raises(ValueError):
            samples.points[0, 0, 0] = 0.0
        with pytest.raises(ValueError):
            samples.defects[0] = 0.0
    with pytest.raises(ValidationError):
        first.take(-1)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    stream=st.sampled_from([("compact", "U(2)"), ("compact", "Sp(1)"), ("aligned", "SL(2,R)"), ("aligned", "SU(1,1)")]),
    radius=st.floats(0.0, 1.0, exclude_min=True),
    seed=st.integers(0, 2**64 - 1),
    takes=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4)), max_size=10),
)
def test_store_cursors_read_the_same_bits_in_any_interleaving(stream, radius, seed, takes):
    """Three cursors on one stream of a store, taking in any interleaving,
    each read the stream's points from its start, bit for bit the points of
    one fresh sampler."""
    from lgh.matrices import GroupId, Sp, U, compact_basis
    from lgh.sampling import GroupSampler

    kind, name = stream
    store = H.SampleStore()
    if kind == "compact":
        frame = compact_basis({"U(2)": U(2), "Sp(1)": Sp(1)}[name])
    else:
        gid = {"SL(2,R)": GroupId("SLR", n=2), "SU(1,1)": GroupId("SUpq", p=1, q=1)}[name]
        frame = group_frame(gid)
    cursors = [store.cursor(frame, radius, seed) for _ in range(3)]
    fresh = GroupSampler(frame, radius, seed)
    read = [[] for _ in cursors]
    for i, count in takes:
        read[i].append(cursors[i].take(count))
    want = fresh.take(max([sum(len(s) for s in got) for got in read], default=0))
    for got in read:
        count = sum(len(s) for s in got)
        points = np.concatenate([s.points for s in got]) if got else want.points[:0]
        defects = np.concatenate([s.defects for s in got]) if got else want.defects[:0]
        assert points.tobytes() == want.points[:count].tobytes()
        assert defects.tobytes() == want.defects[:count].tobytes()


def test_store_keys_streams_by_frame():
    """SU(2)'s basis and the identity pair's frame share a group but not a
    frame: a store gives them two streams, each bit for bit a fresh sampler
    on its own frame."""
    from lgh.duality import identity_pair
    from lgh.matrices import SU, compact_basis
    from lgh.sampling import GroupSampler

    store = H.SampleStore()
    frames = (compact_basis(SU(2)), identity_pair(SU(2)).frame)
    assert frames[0].group == frames[1].group
    got = [store.cursor(frame, 0.5, 42).take(8) for frame in frames]
    for samples, frame in zip(got, frames):
        want = GroupSampler(frame, 0.5, 42).take(8)
        assert samples.points.tobytes() == want.points.tobytes()
        assert samples.defects.tobytes() == want.defects.tobytes()
    assert got[0].points.tobytes() != got[1].points.tobytes()


def test_store_gives_an_equal_copy_of_a_frame_its_own_stream(monkeypatch):
    """Streams are keyed by the frame itself: an equal copy of a frame is
    another key, so the store draws it a stream of its own, whose points
    are bit for bit those of the original's."""
    from lgh.matrices import SU, SignedBasis, compact_basis
    from lgh.sampling import GroupSampler

    takes = []
    real_take = GroupSampler.take
    monkeypatch.setattr(GroupSampler, "take", lambda self, count: takes.append(count) or real_take(self, count))
    store = H.SampleStore()
    frame = compact_basis(SU(2))
    copy = SignedBasis(frame.group, frame.matrices, frame.signs)
    got = [store.cursor(f, 0.5, 42).take(4) for f in (frame, copy, frame)]
    assert takes == [4, 4]
    assert got[0].points.tobytes() == got[1].points.tobytes() == got[2].points.tobytes()


def test_group_frame_is_the_compact_basis_or_the_pair_frame():
    """A compact group's frame is its compact basis, a dual group's the
    aligned frame of its one pair; a group with neither is refused."""
    from lgh.matrices import GroupId, U, compact_basis

    assert group_frame(U(3)) is compact_basis(U(3))
    for alias, sizes in H.DUALITY_PAIRS:
        gid = H.pair_group_from_spec({"family": alias, **sizes})
        assert group_frame(gid) is dual_pair(gid).frame is group_frame(gid)
    with pytest.raises(ValidationError):
        group_frame(GroupId("GLC-split", 2))


def test_every_suite_row_samples_on_its_groups_frame(monkeypatch):
    """No runner picks a frame of its own: every cursor of every suite row
    is opened on a frame that ``duality.group_frame`` returned."""
    from lgh import duality

    picked = set()

    def recording(gid):
        frame = group_frame(gid)
        picked.add(frame)
        return frame

    class Checking(H.SampleStore):
        def cursor(self, frame, radius, seed):
            assert frame in picked, frame.group
            return super().cursor(frame, radius, seed)

    monkeypatch.setattr(duality, "group_frame", recording)
    store = Checking()
    for _, name, cfg in H.suite_checks():
        H.run(name, cfg, store)
    for alias, sizes in H.DUALITY_PAIRS:
        assert dual_pair(H.pair_group_from_spec({"family": alias, **sizes})).frame in picked


def test_config_fields_field_types_and_schema_properties_are_one_set():
    """A new config knob cannot slip in unlisted: the RunConfig fields, the
    JSON types ``validate`` checks and the schema's top-level properties
    name the same fields."""
    schema = json.loads((Path(__file__).parents[1] / "docs" / "schemas" / "config.schema.json").read_text())
    fields = set(H.RunConfig.__dataclass_fields__)
    assert fields == set(H._FIELD_TYPES) == set(schema["properties"])
    assert schema.get("additionalProperties") is False


def test_lemma_on_so1_has_an_empty_frame(capsys):
    """SO(1) has no frame vectors: the lemma report passes with basis size 0
    and every residual 0."""
    assert main(["verify-lemma", "--group", "so", "--n", "1", "--samples", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"]["basis_size"] == 0 and doc["samples_used"] == 2
    assert doc["passed"] and set(doc["residuals"].values()) == {0.0}
