"""The suite report at seed 42 against its committed golden copy, exactly.

Every float of ``run_suite(42)`` is stored as ``float.hex`` and every
``wall_time`` is stripped, so a change to the numerics shows up as a diff of
``tests/golden/suite-seed42.json`` rather than silently.  After an intended
numeric change, regenerate the file with

    PYTHONPATH=src python tests/test_golden.py

which prints the drift of every float field that moved (residuals, notes,
params and tolerances, each with its path), every check whose verdict or
sample counts changed, and every check added or removed; record that table
in CHANGES.md.  It
overwrites the file only when something changed and no check's ``passed``
did, and exits 1 when one did.
"""

import json
import re
from collections import Counter
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


# float.hex of a finite float, an infinity or a NaN
FLOAT_HEX = re.compile(r"-?(0x[01]\.[0-9a-f]+p[+-][0-9]+|inf)|nan")


def _floats(obj, path=""):
    """``(path, hex string)`` for every float field of an :func:`exact`
    check, paths such as ``residuals.tau`` or ``notes.lambda[1]``."""
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from _floats(val, f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            yield from _floats(val, f"{path}[{i}]")
    elif isinstance(obj, str) and FLOAT_HEX.fullmatch(obj):
        yield path, obj


def _keyed(doc):
    """The checks of a document by ``(check, target, i)``, where i counts the
    earlier checks with the same check and target."""
    seen = Counter()
    keyed = {}
    for c in doc["checks"]:
        pair = (c["check"], c["target"])
        keyed[(*pair, seen[pair])] = c
        seen[pair] += 1
    return keyed


def _shared(old, new):
    """``(old check, new check)`` for the checks both documents hold, in the
    new document's order."""
    was = _keyed(old)
    return [(was[key], now) for key, now in _keyed(new).items() if key in was]


def row_changes(old, new):
    """``("removed" | "added", check, target)`` for every check that only
    one of two documents holds."""
    a, b = _keyed(old), _keyed(new)
    yield from (("removed", c["check"], c["target"]) for key, c in a.items() if key not in b)
    yield from (("added", c["check"], c["target"]) for key, c in b.items() if key not in a)


def float_drift(old, new):
    """``(check, target, path, |new - old|)`` for every float field, residuals,
    notes, params and tol alike, that differs between the checks both
    :func:`exact` documents hold; a field on one side only drifts by inf."""
    for was, now in _shared(old, new):
        a, b = dict(_floats(was)), dict(_floats(now))
        for path in [*a, *(p for p in b if p not in a)]:
            if a.get(path) != b.get(path):
                drift = abs(float.fromhex(b.get(path, "inf")) - float.fromhex(a.get(path, "inf")))
                yield now["check"], now["target"], path, drift


# the fields of a check that say what was judged, not how closely
VERDICT_KEYS = ("passed", "samples_used", "samples_discarded")


def verdict_changes(old, new):
    """``(check, target, key, old value, new value)`` for every field in
    VERDICT_KEYS that differs between the checks both documents hold."""
    for was, now in _shared(old, new):
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


def test_float_drift_lists_every_moved_float_with_its_path():
    golden = json.loads(GOLDEN.read_text())
    assert list(float_drift(golden, golden)) == []
    k = next(i for i, c in enumerate(golden["checks"]) if "radius" in c["params"] and "max_group_defect" in c["notes"])
    was = golden["checks"][k]
    defect = float.fromhex(was["notes"]["max_group_defect"])
    assert defect > 0
    moved = json.loads(GOLDEN.read_text())
    row = moved["checks"][k]
    row["params"]["radius"] = float.hex(float.fromhex(was["params"]["radius"]) + 0.25)
    dropped = next(iter(row["residuals"]))
    del row["residuals"][dropped]
    row["notes"]["max_group_defect"] = float.hex(2 * defect)
    assert list(float_drift(golden, moved)) == [
        (row["check"], row["target"], "params.radius", 0.25),
        (row["check"], row["target"], f"residuals.{dropped}", float("inf")),
        (row["check"], row["target"], "notes.max_group_defect", defect),
    ]


def test_row_changes_list_removed_and_added_checks_apart_from_drift():
    """A check replaced by another is one removal and one addition; the
    drift and verdict tables compare only the checks both sides hold, a
    repeated (check, target) by its order among its repeats."""
    golden = json.loads(GOLDEN.read_text())
    assert list(row_changes(golden, golden)) == []
    pairs = [(c["check"], c["target"]) for c in golden["checks"]]
    repeat = next(k for k, pair in enumerate(pairs) if pair in pairs[:k])
    changed = json.loads(GOLDEN.read_text())
    last = changed["checks"].pop()
    changed["checks"].append({**last, "check": "another-check"})
    del changed["checks"][repeat]
    assert list(row_changes(golden, changed)) == [
        ("removed", *pairs[repeat]),
        ("removed", last["check"], last["target"]),
        ("added", "another-check", last["target"]),
    ]
    assert list(float_drift(golden, changed)) == []
    assert list(verdict_changes(golden, changed)) == []


def test_regeneration_refuses_a_flipped_verdict(tmp_path, capsys):
    flipped = json.loads(GOLDEN.read_text())
    flipped["checks"][0]["passed"] = not flipped["checks"][0]["passed"]
    text = json.dumps(flipped, indent=1) + "\n"
    copy = tmp_path / GOLDEN.name
    copy.write_text(text)
    assert main(copy) == 1
    assert copy.read_text() == text
    assert "changed: matrix-identities gl(2) passed" in capsys.readouterr().out


def test_regeneration_leaves_an_unchanged_report_byte_for_byte(tmp_path, capsys):
    """Equal documents are not rewritten, whatever their key order."""
    text = json.dumps(json.loads(GOLDEN.read_text()), indent=1, sort_keys=True) + "\n"
    copy = tmp_path / GOLDEN.name
    copy.write_text(text)
    assert main(copy) == 0
    assert copy.read_text() == text
    assert "nothing changed" in capsys.readouterr().out


def main(golden_path=GOLDEN) -> int:
    doc = exact(run_suite(SEED))
    if golden_path.exists():
        golden = json.loads(golden_path.read_text())
        for check, target, path, drift in float_drift(golden, doc):
            print(f"{check:<28} {target:<24} {path:<32} {drift:.1e}")
        for change, check, target in row_changes(golden, doc):
            print(f"{change}: {check} {target}")
        changes = list(verdict_changes(golden, doc))
        for check, target, key, was, now in changes:
            print(f"changed: {check} {target} {key} {was} -> {now}")
        if any(key == "passed" for _, _, key, _, _ in changes):
            print(f"a verdict changed; {golden_path} is left as it was")
            return 1
        if doc == golden:
            print(f"nothing changed; {golden_path} is left as it was")
            return 0
    golden_path.parent.mkdir(exist_ok=True)
    golden_path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {golden_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
