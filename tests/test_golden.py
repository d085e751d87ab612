"""The suite report at seed 42 against its committed golden copy, exactly.

Every float of ``run_suite(42)`` is stored as ``float.hex`` and every
``wall_time`` is stripped, so a change to the numerics shows up as a diff of
``tests/golden/suite-seed42.json`` rather than silently.  After an intended
numeric change, regenerate the file with

    PYTHONPATH=src python tests/test_golden.py

which prints the largest residual drift of each check and every check whose
verdict or sample counts changed; record that table in CHANGES.md.  It
overwrites the file only when no check's ``passed`` changed, and exits 1
otherwise.
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


# the fields of a check that say what was judged, not how closely
VERDICT_KEYS = ("passed", "samples_used", "samples_discarded")


def verdict_changes(old, new):
    """``(check, target, key, old value, new value)`` for every field in
    VERDICT_KEYS that differs between the checks of two documents."""
    for was, now in zip(old["checks"], new["checks"], strict=True):
        assert (was["check"], was["target"]) == (now["check"], now["target"])
        for key in VERDICT_KEYS:
            if was.get(key) != now.get(key):
                yield now["check"], now["target"], key, was.get(key), now.get(key)


def test_verdict_changes_lists_a_flipped_check():
    golden = json.loads(GOLDEN.read_text())
    assert list(verdict_changes(golden, golden)) == []
    flipped = json.loads(GOLDEN.read_text())
    row = flipped["checks"][3]
    row["passed"] = not row["passed"]
    row["samples_used"] += 1
    assert list(verdict_changes(golden, flipped)) == [
        (row["check"], row["target"], "passed", not row["passed"], row["passed"]),
        (row["check"], row["target"], "samples_used", row["samples_used"] - 1, row["samples_used"]),
    ]


def test_regeneration_refuses_a_flipped_verdict(tmp_path, capsys):
    flipped = json.loads(GOLDEN.read_text())
    flipped["checks"][0]["passed"] = not flipped["checks"][0]["passed"]
    text = json.dumps(flipped, indent=1) + "\n"
    copy = tmp_path / GOLDEN.name
    copy.write_text(text)
    assert main(copy) == 1
    assert copy.read_text() == text
    assert "changed: matrix-identities gl(2) passed" in capsys.readouterr().out


def main(golden_path=GOLDEN) -> int:
    doc = exact(run_suite(SEED))
    if golden_path.exists():
        golden = json.loads(golden_path.read_text())
        for check, target, worst in residual_drift(golden, doc):
            print(f"{check:<28} {target:<24} {worst:.1e}")
        changes = list(verdict_changes(golden, doc))
        for check, target, key, was, now in changes:
            print(f"changed: {check} {target} {key} {was} -> {now}")
        if any(key == "passed" for _, _, key, _, _ in changes):
            print(f"a verdict changed; {golden_path} is left as it was")
            return 1
    golden_path.parent.mkdir(exist_ok=True)
    golden_path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {golden_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
