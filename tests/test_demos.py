"""Every demo script runs to completion against the library as it stands."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# README's "Library tour" code block, run as one more demo
TOUR = (ROOT / "README.md").read_text().split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


def test_demos_exist():
    assert len(DEMOS) == 5


@pytest.mark.parametrize(
    "args",
    [pytest.param([str(script)], id=script.name) for script in DEMOS] + [pytest.param(["-c", TOUR], id="README-library-tour")],
)
def test_demo_exits_zero(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
