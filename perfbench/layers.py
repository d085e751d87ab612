"""Which ``lgh`` functions form each layer, and the per-layer metrics.

Span names are ``<module>.<layer>``.  The metric table in README.md says
which end-to-end metric each of them should move, and on which workload.
"""

from __future__ import annotations

from statistics import median

from spans import Recorder, summarize, top_level_seconds

# (module, function, span name) for module-level functions
FUNCTIONS = [
    ("cli", "main", "cli.main"),
    ("harness", "run_suite", "harness.suite"),
    ("sampling", "expm", "sampling.expm"),
    ("sampling", "compact_defect", "sampling.defect"),
    ("duality", "aligned_defect", "sampling.defect"),
    ("families", "verify_eigenfamily", "families.reduce"),
    ("families", "verify_coordinate_lemmas", "families.reduce"),
    ("families", "measure_constants_residual", "families.reduce"),
    ("duality", "verify_dual_eigenfamily", "duality.reduce"),
    ("duality", "probe_noncontinuable", "duality.reduce"),
    ("duality", "dual_pair", "duality.pair"),
    ("duality", "identity_pair", "duality.pair"),
    ("matrices", "compact_basis", "matrices.basis"),
    ("morphisms", "verify_harmonic_morphism", "morphisms.reduce"),
    ("morphisms", "verify_quotient_condition", "morphisms.reduce"),
    ("morphisms", "random_morphism", "morphisms.build"),
    ("morphisms", "random_hompoly", "morphisms.build"),
    ("morphisms", "quotient_morphism", "morphisms.build"),
    ("morphisms", "power_family", "morphisms.build"),
    ("morphisms", "mobius_transform", "morphisms.build"),
]

# (module, class, method, span name); every Expr subclass is added at install
METHODS = [
    ("jets", "BasisCurves", "__init__", "jets.seed"),
    ("sampling", "GroupSampler", "take", "sampling.take"),
]

COUNTED = [
    ("jets", "Jet2", "__mul__", "jets.mul"),
    ("jets", "Jet2", "__truediv__", "jets.div"),
]

# per-layer metric -> unit and which way is better, in BENCHMARK.json order
PER_LAYER = {
    "exprs.walk_calls": ("count", "lower"),
    "exprs.walk_s": ("s", "lower"),
    "jets.mul_calls": ("count", "lower"),
    "jets.div_calls": ("count", "lower"),
    "sampling.points": ("count", "lower"),
    "sampling.take_s": ("s", "lower"),
    "sampling.expm_calls": ("count", "lower"),
    "sampling.expm_s": ("s", "lower"),
    "sampling.defect_s": ("s", "lower"),
    "jets.seed_calls": ("count", "lower"),
    "jets.seed_s": ("s", "lower"),
    "families.reduce_s": ("s", "lower"),
    "duality.reduce_s": ("s", "lower"),
    "morphisms.reduce_s": ("s", "lower"),
    "morphisms.build_s": ("s", "lower"),
    "morphisms.kept_ratio": ("ratio", "higher"),
    "exprs.point_calls": ("count", "lower"),
    "exprs.point_s": ("s", "lower"),
    "duality.pair_s": ("s", "lower"),
    "matrices.basis_s": ("s", "lower"),
    "harness.self_s": ("s", "lower"),
    "cli.emit_s": ("s", "lower"),
    "cli.doc_bytes": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}


class Tally:
    """Points drawn by ``GroupSampler.take``, and samples kept and examined
    by ``verify_harmonic_morphism``, in one pass."""

    def __init__(self):
        self.points = 0
        self.kept = 0
        self.drawn = 0

    def add_points(self, sample_set):
        self.points += len(sample_set)

    def add_report(self, report):
        self.kept += report.samples_used
        self.drawn += report.samples_used + report.samples_discarded


def install(lgh, recorder: Recorder, tally: Tally):
    """Wrap every layer boundary of ``lgh``; ``recorder.missing`` lists the
    names that no longer exist."""
    for mod, fn, name in FUNCTIONS:
        on_result = tally.add_report if (mod, fn) == ("morphisms", "verify_harmonic_morphism") else None
        recorder.patch_function(
            getattr(lgh, mod), fn, lambda f, n=name, cb=on_result: recorder.timed(f, n, cb)
        )
    expr_base = lgh.exprs.Expr
    expr_classes = {
        obj
        for module in (getattr(lgh, m) for m in ("exprs", "morphisms", "duality", "families"))
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, expr_base) and obj is not expr_base
    }
    for cls in sorted(expr_classes, key=lambda c: c.__name__):
        for method, name in (("eval_jet", "exprs.walk"), ("eval_point", "exprs.point")):
            if method in vars(cls):
                recorder.patch_method(cls, method, lambda f, n=name: recorder.timed(f, n))
    for mod, cls, method, name in METHODS:
        on_result = tally.add_points if name == "sampling.take" else None
        recorder.patch_method(
            getattr(getattr(lgh, mod), cls, None),
            method,
            lambda f, n=name, cb=on_result: recorder.timed(f, n, cb),
        )
    for mod, cls, method, name in COUNTED:
        recorder.patch_method(getattr(getattr(lgh, mod), cls, None), method, lambda f, n=name: recorder.counted(f, n))


def pass_metrics(recorder: Recorder, tally: Tally, wall: float, doc_bytes: int) -> dict:
    """Per-layer numbers of one traced pass (before overhead is known)."""
    rows = summarize(recorder.spans)

    def total(name):
        return rows.get(name, {}).get("total_s", 0.0)

    def own(name):
        return rows.get(name, {}).get("self_s", 0.0)

    return {
        "exprs.walk_calls": recorder.calls("exprs.walk"),
        "exprs.walk_s": total("exprs.walk"),
        "jets.mul_calls": recorder.calls("jets.mul"),
        "jets.div_calls": recorder.calls("jets.div"),
        "sampling.points": tally.points,
        "sampling.take_s": total("sampling.take"),
        "sampling.expm_calls": recorder.calls("sampling.expm"),
        "sampling.expm_s": total("sampling.expm"),
        "sampling.defect_s": total("sampling.defect"),
        "jets.seed_calls": recorder.calls("jets.seed"),
        "jets.seed_s": total("jets.seed"),
        "families.reduce_s": own("families.reduce"),
        "duality.reduce_s": own("duality.reduce"),
        "morphisms.reduce_s": own("morphisms.reduce"),
        "morphisms.build_s": total("morphisms.build"),
        "morphisms.kept_ratio": tally.kept / tally.drawn if tally.drawn else 0.0,
        "exprs.point_calls": recorder.calls("exprs.point"),
        "exprs.point_s": total("exprs.point"),
        "duality.pair_s": total("duality.pair"),
        "matrices.basis_s": total("matrices.basis"),
        "harness.self_s": own("harness.suite"),
        "cli.emit_s": own("cli.main"),
        "cli.doc_bytes": doc_bytes,
        "trace.unattributed_s": wall - top_level_seconds(recorder.spans),
    }


def run_metrics(passes: list[dict], traced_walls: list[float], untraced_walls: list[float]) -> dict:
    """Median of each per-layer metric over the traced passes, plus the
    tracing overhead: median traced pass minus median untraced pass."""
    out = {key: median(p[key] for p in passes) for key in passes[0]}
    out["trace.overhead_s"] = median(traced_walls) - median(untraced_walls)
    return {key: out[key] for key in PER_LAYER}
