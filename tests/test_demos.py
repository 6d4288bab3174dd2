"""Every demo script runs to completion with warnings as errors.

The exact demos must print the text kept in ``expected/<demo>.txt``, byte
for byte; ``spurious_levels`` prints LAPACK floats, so it only has to print
something.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = Path(__file__).resolve().parent / "expected"
EXACT = ("bracket_tour", "free_body_centre", "sphere_algebra", "two_body_split")


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    done = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    if demo.stem in EXACT:
        assert done.stdout == (EXPECTED / f"{demo.stem}.txt").read_text(encoding="utf-8")
