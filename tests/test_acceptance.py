"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s``).  The full
verification matrix is computed once through the harness and shared; the
determinism criterion reruns it from scratch.
"""

import math

import numpy as np
import pytest

from lgh.harness import run_suite

SEED = 42


@pytest.fixture(scope="module")
def suite_doc():
    return run_suite(seed=SEED, tol=1e-8)


def _by_check(doc, name):
    return [c for c in doc["checks"] if c["check"] == name]


def _line(num, ok, text):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_1_matrix_identities(suite_doc):
    reports = _by_check(suite_doc, "matrix-identities")
    assert {c["target"] for c in reports} == {f"gl({n})" for n in range(2, 11)}
    worst = max(max(c["residuals"].values()) for c in reports)
    runtime = sum(c["wall_time"] for c in reports)
    ok = all(c["passed"] for c in reports) and worst < 1e-12 and runtime < 1.0
    _line(1, ok, f"six generator identities, n=2..10: max residual {worst:.2e}, {runtime:.2f}s")


def test_criterion_2_so_coordinate_relations(suite_doc):
    reports = [c for c in _by_check(suite_doc, "coordinate-lemmas") if c["target"].startswith("SO")]
    assert {c["target"] for c in reports} == {f"SO({n})" for n in range(2, 7)}
    worst = 0.0
    for c in reports:
        assert c["samples_used"] == 200
        assert c["residuals"]["tau"] < 1e-8
        assert c["residuals"]["kappa_general"] < 1e-8
        assert c["residuals"]["kappa_on_group"] < 1e-8
        worst = max(worst, max(c["residuals"].values()))
    runtime = sum(c["wall_time"] for c in reports)
    ok = all(c["passed"] for c in reports) and runtime < 30.0
    _line(2, ok, f"SO(n) tau/kappa relations, 200 samples: max residual {worst:.2e}, {runtime:.1f}s")


def test_criterion_3_u_coordinate_relations(suite_doc):
    reports = [c for c in _by_check(suite_doc, "coordinate-lemmas") if c["target"].startswith("U")]
    assert {c["target"] for c in reports} == {f"U({n})" for n in (2, 3, 4)}
    worst = 0.0
    for c in reports:
        assert c["samples_used"] == 200
        assert c["residuals"]["tau"] < 1e-8
        assert c["residuals"]["kappa"] < 1e-8
        worst = max(worst, max(c["residuals"].values()))
    _line(3, all(c["passed"] for c in reports), f"U(n) tau/kappa relations: max residual {worst:.2e}")


def test_criterion_4_sp_coordinate_relations(suite_doc):
    reports = [c for c in _by_check(suite_doc, "coordinate-lemmas") if c["target"].startswith("Sp")]
    assert {c["target"] for c in reports} == {f"Sp({n})" for n in (1, 2, 3)}
    worst = 0.0
    for c in reports:
        assert c["samples_used"] == 200
        for key in ("tau_z", "tau_w", "kappa_zz", "kappa_ww", "kappa_zw"):
            assert c["residuals"][key] < 1e-8, (c["target"], key)
        assert c["residuals"]["zw_antisymmetry"] < 1e-10
        worst = max(worst, max(c["residuals"].values()))
    _line(4, all(c["passed"] for c in reports), f"Sp(n) relations incl. zw^t-wz^t=0: max residual {worst:.2e}")


def test_criterion_5_eigenfamily_theorems(suite_doc):
    fams = _by_check(suite_doc, "eigenfamily")
    targets = {c["target"]: c for c in fams}
    expected = {"SO(4)", "SO(5)", "SO(6)", "U(2)", "U(3)", "SU(2)", "SU(3)", "Sp(1)", "Sp(2)"}
    assert expected <= set(targets)
    worst = 0.0
    for name in expected:
        c = targets[name]
        assert c["passed"], (name, c["residuals"])
        worst = max(worst, max(c["residuals"].values()))
    deform = _by_check(suite_doc, "eigenfamily-deformations")[0]
    assert deform["passed"] and deform["params"]["deformations"] == 10
    assert deform["residuals"]["isotropy"] < 1e-12
    cross = _by_check(suite_doc, "constants-crosscheck")[0]
    assert cross["residuals"]["lambda_match"] == 0.0
    assert cross["residuals"]["mu_match"] == 0.0
    su2 = targets["SU(2)"]
    assert su2["notes"]["lambda"] == [-1.5, 0.0] and su2["notes"]["mu"] == [-0.5, 0.0]
    negative = _by_check(suite_doc, "family-negative-control")[0]
    assert negative["passed"]
    assert negative["notes"]["observed_tau_residual"] > 1e-2
    ok = worst < 1e-8 and deform["passed"] and cross["passed"] and negative["passed"]
    _line(5, ok, f"eigenfamilies on SO/U/SU/Sp (+10 deformations, Sp(1)=SU(2) cross-check): max residual {worst:.2e}")


def test_criterion_6_morphism_factory(suite_doc):
    factory = _by_check(suite_doc, "morphism-factory")
    assert len(factory) == 10
    worst = 0.0
    for c in factory:
        assert c["params"]["pairs"] == 20
        assert c["samples_used"] >= 20 * 50
        assert c["residuals"]["tau"] < 1e-7, (c["target"], c["residuals"])
        assert c["residuals"]["kappa"] < 1e-7
        worst = max(worst, max(c["residuals"].values()))
    hopf = _by_check(suite_doc, "morphism-hopf")[0]
    assert hopf["tol"] == 1e-9 and hopf["passed"]
    negative = _by_check(suite_doc, "morphism-negative-control")[0]
    assert negative["passed"]
    assert abs(negative["notes"]["observed_tau_residual"] - negative["notes"]["predicted"]) < 1e-10
    ok = worst < 1e-7 and hopf["passed"] and negative["passed"]
    _line(6, ok, f"20 random quotients x 10 families at 1e-7, Hopf at 1e-9, z11/1 control: max residual {worst:.2e}")


def test_criterion_7_powers_and_quotient_condition(suite_doc):
    powers = [c for c in suite_doc["checks"] if c["check"].startswith("power-family-k")]
    assert {(c["target"], c["params"]["k"]) for c in powers} == {
        ("U(2)", 2), ("U(2)", 3), ("SO(4)", 2), ("SO(4)", 3),
    }
    worst = 0.0
    for c in powers:
        lam_k = complex(*c["params"]["lambda_k"])
        mu_k = complex(*c["params"]["mu_k"])
        # lambda_k = k lambda + k(k-1) mu, mu_k = k^2 mu for the base family
        base_lam = {"U(2)": -2.0, "SO(4)": -1.5}[c["target"]]
        base_mu = {"U(2)": -1.0, "SO(4)": -0.5}[c["target"]]
        k = c["params"]["k"]
        assert lam_k == k * base_lam + k * (k - 1) * base_mu
        assert mu_k == k * k * base_mu
        assert c["residuals"]["lambda_measurement"] < 1e-8
        assert c["residuals"]["mu_measurement"] < 1e-8
        worst = max(worst, max(c["residuals"].values()))
    triples = _by_check(suite_doc, "quotient-condition")
    assert len(triples) == 10
    for c in triples:
        assert c["residuals"]["triple_left"] < 1e-7
        assert c["residuals"]["triple_right"] < 1e-7
    ok = worst < 1e-8 and all(c["passed"] for c in powers + triples)
    _line(7, ok, f"power-family constants (k=2,3) and triple equality on factory instances: max residual {worst:.2e}")


def test_criterion_8_duality(suite_doc):
    reports = _by_check(suite_doc, "duality")
    expected = {
        "SL(2,R) ~ SU(2)", "SL(3,R) ~ SU(3)", "SU*(4) ~ SU(4)",
        "Sp(1,R) ~ Sp(1)", "Sp(2,R) ~ Sp(2)", "SO*(4) ~ SO(4)",
        "SO(1,2) ~ SO(3)", "SO(2,2) ~ SO(4)", "SU(1,1) ~ SU(2)",
        "SU(1,2) ~ SU(3)", "Sp(1,1) ~ Sp(2)",
    }
    assert {c["target"] for c in reports} == expected
    worst = 0.0
    for c in reports:
        assert c["samples_used"] == 100
        assert c["residuals"]["frame_involution"] < 1e-12
        assert c["residuals"]["frame_automorphism"] < 1e-10
        assert c["residuals"]["frame_bracket_closure"] < 1e-9
        assert c["residuals"]["frame_sign_normalization"] < 1e-10
        assert c["residuals"]["tau"] < 1e-8, (c["target"], c["residuals"])
        assert c["residuals"]["kappa"] < 1e-8
        # continued constants are the negated compact ones
        lam = complex(*c["notes"]["lambda"])
        lam_c = complex(*c["notes"]["compact_lambda"])
        assert lam == -lam_c
        worst = max(worst, max(v for k, v in c["residuals"].items()))
    runtime = sum(c["wall_time"] for c in reports)
    # the isotropic-point family continues to every dual of an SO(n)
    isotropic = _by_check(suite_doc, "duality-isotropic-point")
    assert {c["target"] for c in isotropic} == {"SO*(4) ~ SO(4)", "SO(1,2) ~ SO(3)", "SO(2,2) ~ SO(4)"}
    for c in isotropic:
        assert c["params"]["provenance"] == "so-isotropic-point-dual"
        assert c["tol"] == 1e-8 and c["residuals"]["tau"] < 1e-8 and c["residuals"]["kappa"] < 1e-8
    ok = all(c["passed"] for c in reports + isotropic) and runtime < 120.0
    _line(8, ok, f"eleven dual pairs and three isotropic-point continuations with negated constants: "
                 f"max residual {worst:.2e}, {runtime:.1f}s")


def test_criterion_9_determinism(suite_doc):
    second = run_suite(seed=SEED, tol=1e-8)

    def strip(doc):
        out = []
        for c in doc["checks"]:
            c = dict(c)
            c.pop("wall_time")
            out.append(c)
        return out

    same = strip(suite_doc) == strip(second)
    _line(9, same, "full suite rerun with seed 42 reproduces every residual bit for bit")


def test_suite_passes_overall(suite_doc):
    failed = [c["check"] + "/" + c["target"] for c in suite_doc["checks"] if not c["passed"]]
    assert suite_doc["passed"], failed
