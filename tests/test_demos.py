"""The demos are deterministic: each must print exactly its committed text
in `demos/expected/`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*_*.py"))


def test_every_demo_has_a_golden():
    assert len(DEMOS) == 4
    assert sorted(p.stem for p in (ROOT / "demos" / "expected").glob("*.txt")) == [
        p.stem for p in DEMOS
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_prints_its_golden_text(demo):
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == (ROOT / "demos" / "expected" / f"{demo.stem}.txt").read_bytes()
