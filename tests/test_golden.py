"""The suite report at seed 42 against its committed golden copy, exactly.

Every float of ``run_suite(42)`` is stored as ``float.hex`` and every
``wall_time`` is stripped, so a change to the numerics shows up as a diff of
``tests/golden/suite-seed42.json`` rather than silently.  After an intended
numeric change, regenerate the file with

    PYTHONPATH=src python tests/test_golden.py

and record the largest drift per check in CHANGES.md.
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


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(exact(run_suite(SEED)), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
