"""The suite report at seed 42 against its committed golden copy, exactly.

Every float of ``run_suite(42)`` is stored as ``float.hex`` and every
``wall_time`` is stripped, so a change to the numerics shows up as a diff of
``tests/golden/suite-seed42.json`` rather than silently.  After an intended
numeric change, regenerate the file with

    PYTHONPATH=src python tests/test_golden.py

which prints the largest residual drift of each check before it overwrites
the file; record that table in CHANGES.md.
"""

import json
from pathlib import Path

from lgh.harness import run_suite

SEED = 42
GOLDEN = Path(__file__).parent / "golden" / f"suite-seed{SEED}.json"


def exact(obj):
    """The report with floats as ``float.hex`` strings, wall times dropped."""
    if isinstance(obj, dict):
        return {k: exact(v) for k, v in obj.items() if k != "wall_time"}
    if isinstance(obj, (list, tuple)):
        return [exact(v) for v in obj]
    if isinstance(obj, float):
        return float.hex(obj)
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    raise TypeError(f"unexpected {type(obj).__name__} in a suite report")


def test_suite_matches_golden_report_exactly():
    golden = json.loads(GOLDEN.read_text())
    doc = exact(run_suite(SEED))
    assert [(c["check"], c["target"]) for c in doc["checks"]] == [
        (c["check"], c["target"]) for c in golden["checks"]
    ]
    for got, want in zip(doc["checks"], golden["checks"]):
        assert got == want, (got["check"], got["target"])
    assert doc == golden


def residual_drift(old, new):
    """``(check, target, max |new - old|)`` over the residuals of each check
    of two :func:`exact` documents; a residual on one side only counts inf."""
    for was, now in zip(old["checks"], new["checks"], strict=True):
        assert (was["check"], was["target"]) == (now["check"], now["target"])
        a, b = was["residuals"], now["residuals"]
        drift = (abs(float.fromhex(b.get(k, "inf")) - float.fromhex(a.get(k, "inf"))) for k in a | b)
        yield now["check"], now["target"], max(drift, default=0.0)


if __name__ == "__main__":
    doc = exact(run_suite(SEED))
    if GOLDEN.exists():
        for check, target, worst in residual_drift(json.loads(GOLDEN.read_text()), doc):
            print(f"{check:<28} {target:<24} {worst:.1e}")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
