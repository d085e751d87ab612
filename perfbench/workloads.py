"""The benchmark's three workloads.

Each workload is built from the benchmark seed: it derives every seed the
program receives, constructs its inputs, and runs one *pass* at a time.  A
pass returns one :class:`CheckResult` per verification report, which the
correctness gate in ``run.py`` judges.  All calls into ``lgh`` go through
module attributes at call time, so the span recorder's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

RADIUS = 0.5
FACTORY_TOL = 1e-7  # the tolerance the suite applies to its morphism factory
OVERSAMPLE_FLOOR = 0.5


class StartError(RuntimeError):
    """The benchmark cannot run in this tree."""


def import_lgh():
    """Import ``lgh`` from this checkout's ``src`` directory, never from an
    installed copy, so the benchmark always measures the tree it sits in."""
    if not (SRC / "lgh" / "__init__.py").is_file():
        raise StartError(f"no lgh sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import lgh
    import lgh.cli  # noqa: F401  (loads every submodule the workloads use)

    if Path(lgh.__file__).resolve().parent != (SRC / "lgh").resolve():
        raise StartError(f"lgh was imported from {lgh.__file__}, not from {SRC}")
    return lgh


def derive_seed(seed: int, label: str) -> int:
    """A 31-bit program seed derived from the benchmark seed and a label."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


@dataclass
class CheckResult:
    name: str
    report: dict | None  # VerificationReport.to_dict() layout
    error: str | None = None
    min_samples: int = 0  # samples the check must have used ...
    oversample: int = 1  # ... unless it examined oversample * min_samples


def attempt(name: str, check, min_samples: int, oversample: int = 1) -> CheckResult:
    """Run one verification; an exception becomes a failed check, so one
    broken check cannot hide the state of the others."""
    try:
        report = check()
    except Exception as exc:  # the gate reports it; the pass goes on
        return CheckResult(name, None, f"{type(exc).__name__}: {exc}")
    return CheckResult(name, report.to_dict(), None, min_samples, oversample)


def _unit(n: int):
    e = np.zeros(n, dtype=complex)
    e[0] = 1.0
    return e


def factory_families(lgh) -> list:
    """The ten eigenfamilies of the suite's morphism factory: the nine
    criterion-5 linear families plus the isotropic-point family on SO(4)."""
    fa = lgh.families
    fams = [fa.so_family_V(n, _unit(n), fa.maximal_isotropic_basis(n)) for n in (4, 5, 6)]
    fams.append(fa.so_family_special(4, fa.so4_deformation(0.0, 0.0)))
    for n in (2, 3):
        fams.append(fa.u_family(n, _unit(n)))
        fams.append(fa.su_family(n, _unit(n)))
    for n in (1, 2):
        fams.append(fa.sp_family(n, _unit(n)))
    return fams


LEMMA_GROUPS = [("SO", n) for n in range(2, 7)] + [("U", n) for n in (2, 3, 4)] + [("Sp", n) for n in (1, 2, 3)]

DUAL_GROUPS = [
    ("SLR", {"n": 2}),
    ("SLR", {"n": 3}),
    ("SUstar", {"n": 4}),
    ("SpR", {"n": 1}),
    ("SpR", {"n": 2}),
    ("SOstar", {"n": 4}),
    ("SOpq", {"p": 1, "q": 2}),
    ("SOpq", {"p": 2, "q": 2}),
    ("SUpq", {"p": 1, "q": 1}),
    ("SUpq", {"p": 1, "q": 2}),
    ("Sppq", {"p": 1, "q": 1}),
]


class Suite:
    """``lgh suite --seed S --out FILE`` through ``lgh.cli.main``, JSON emit
    included; the pass reads the emitted document back.

    ``tiny`` swaps the full matrix for a four-sample ``verify-family`` run
    through the same CLI and gate, for the benchmark's own smoke test.
    """

    name = "suite"

    def __init__(self, lgh, seed: int, workdir: Path, tiny: bool = False):
        self.lgh = lgh
        self.program_seed = derive_seed(seed, "suite")
        self.out = Path(workdir) / "suite.json"
        self.warm_out = Path(workdir) / "warm-up.json"
        if tiny:
            self.argv = ["verify-family", "--group", "su", "--n", "2", "--samples", "4"]
        else:
            self.argv = ["suite"]
        self.argv += ["--seed", str(self.program_seed), "--out", str(self.out)]
        self.doc_bytes = 0

    def warm_up(self):
        argv = ["verify-lemma", "--group", "so", "--n", "2", "--samples", "2", "--out", str(self.warm_out)]
        if self.lgh.cli.main(argv) != 0:
            raise RuntimeError("warm-up run of lgh verify-lemma failed")

    def run_pass(self) -> list[CheckResult]:
        if self.out.exists():
            self.out.unlink()
        try:
            code = self.lgh.cli.main(list(self.argv))
            self.doc_bytes = os.path.getsize(self.out)
            with open(self.out, encoding="utf-8") as fh:
                doc = json.load(fh)
        except Exception as exc:  # the gate reports it as a failed check
            return [CheckResult(f"lgh {self.argv[0]}", None, f"{type(exc).__name__}: {exc}")]
        reports = doc["checks"] if "checks" in doc else [doc]
        results = [CheckResult(f"{i:02d}:{r['check']}:{r['target']}", r) for i, r in enumerate(reports)]
        if code != 0:
            results.append(CheckResult("cli-exit-code", None, f"lgh exited with {code}"))
        return results


class LinearSweep:
    """The linear eigenfamilies, coordinate lemmas and dual pairs, each on
    freshly drawn samples, so sampling carries a large share of the pass."""

    name = "linear-sweep"

    def __init__(self, lgh, seed: int, samples: int = 300):
        self.lgh = lgh
        self.samples = samples
        self.families = [
            (fam, lgh.compact_basis(fam.group), derive_seed(seed, f"family-{i}"))
            for i, fam in enumerate(factory_families(lgh))
        ]
        self.lemma_groups = [
            (lgh.matrices.GroupId(fam, n), derive_seed(seed, f"lemma-{i}"))
            for i, (fam, n) in enumerate(LEMMA_GROUPS)
        ]
        self.pairs = []
        for i, (fam, params) in enumerate(DUAL_GROUPS):
            pair = lgh.duality.dual_pair(lgh.matrices.GroupId(fam, **params))
            self.pairs.append((pair, lgh.duality.default_compact_family(pair), derive_seed(seed, f"dual-{i}")))

    def warm_up(self):
        self._eigenfamily(*self.families[0], 2)
        self._lemmas(*self.lemma_groups[0], 2)
        self._dual(*self.pairs[0], 2)

    def _eigenfamily(self, fam, basis, seed, count):
        samples = self.lgh.sampling.compact_sampler(fam.group, RADIUS, seed).take(count)
        return self.lgh.families.verify_eigenfamily(fam, basis, samples)

    def _lemmas(self, group, seed, count):
        samples = self.lgh.sampling.compact_sampler(group, RADIUS, seed).take(count)
        return self.lgh.families.verify_coordinate_lemmas(group, samples)

    def _dual(self, pair, fam, seed, count):
        samples = self.lgh.duality.sample_noncompact(pair, count, RADIUS, seed)
        return self.lgh.duality.verify_dual_eigenfamily(pair, fam, samples)

    def run_pass(self) -> list[CheckResult]:
        n = self.samples
        out = [
            attempt(f"eigenfamily:{f.provenance}:{f.group}", lambda a=(f, b, s, n): self._eigenfamily(*a), n)
            for f, b, s in self.families
        ]
        out += [attempt(f"coordinate-lemmas:{g}", lambda a=(g, s, n): self._lemmas(*a), n) for g, s in self.lemma_groups]
        out += [attempt(f"dual:{p.noncompact}", lambda a=(p, f, s, n): self._dual(*a), n) for p, f, s in self.pairs]
        return out


class MorphismOversample:
    """One seeded random P/Q of each degree 1, 2 and 3 per factory family at
    domain floor 0.5, verified with a resampling sampler: the domain test,
    incremental ``take`` and the kept/drawn ratio carry the load.

    Each morphism is the first of its seeded ``random_morphism`` stream whose
    domain contains the identity.  Without that screen about 1.4% of the
    draws (mostly on Sp(1)) have no sample in their domain at all, and the
    verifier rightly refuses them as inconclusive.
    """

    name = "morphism-oversample"

    def __init__(self, lgh, seed: int, samples: int = 40):
        self.lgh = lgh
        self.samples = samples
        self.cases = []
        for i, fam in enumerate(factory_families(lgh)):
            basis = lgh.compact_basis(fam.group)
            eye = np.eye(fam.group.matrix_dim, dtype=complex)
            for degree in (1, 2, 3):
                label = f"{i}-{degree}"
                morph_seed = derive_seed(seed, f"morphism-{label}")
                draws = 1
                while not self._morphisms(fam, degree, morph_seed, draws)[-1].in_domain(eye):
                    draws += 1
                self.cases.append((fam, basis, degree, morph_seed, draws, derive_seed(seed, f"samples-{label}")))

    def _morphisms(self, fam, degree, morph_seed, draws):
        rng = self.lgh.SplitMix64(morph_seed)
        return [
            self.lgh.morphisms.random_morphism(fam, degree, rng, floor=OVERSAMPLE_FLOOR) for _ in range(draws)
        ]

    def _verify(self, case, count):
        fam, basis, degree, morph_seed, draws, sample_seed = case
        morph = self._morphisms(fam, degree, morph_seed, draws)[-1]
        sampler = self.lgh.sampling.compact_sampler(fam.group, RADIUS, sample_seed)
        return self.lgh.morphisms.verify_harmonic_morphism(
            morph,
            basis,
            sampler.take(count),
            tol=FACTORY_TOL,
            min_samples=count,
            sampler=lambda k: sampler.take(k).points,
        )

    def warm_up(self):
        self._verify(self.cases[0], 2)

    def run_pass(self) -> list[CheckResult]:
        return [
            attempt(
                f"morphism:{case[0].provenance}:{case[0].group}:degree-{case[2]}",
                lambda c=case: self._verify(c, self.samples),
                self.samples,
                oversample=10,  # the verifier draws at most ten times the target
            )
            for case in self.cases
        ]


NAMES = (Suite.name, LinearSweep.name, MorphismOversample.name)


def build(lgh, name: str, seed: int, workdir: Path, tiny: bool = False):
    """Construct a workload's inputs and return it ready to warm up."""
    if name == Suite.name:
        return Suite(lgh, seed, workdir, tiny=tiny)
    if name == LinearSweep.name:
        return LinearSweep(lgh, seed, samples=3 if tiny else 300)
    if name == MorphismOversample.name:
        return MorphismOversample(lgh, seed, samples=3 if tiny else 40)
    raise ValueError(f"unknown workload {name!r}")
