"""Pinned answers: a few ``algebra`` benchmark instances, run through
``bench/workloads.py``, must reproduce the SHA-256 digests of their
canonical output recorded in ``bench/golden/algebra.json`` (read only).

The instances cover the answers most exposed to a change in the exact
engine: ``sp4-sub/2`` pins the row order ``nullspace`` depends on,
``sp6-full/0`` the largest elimination, and ``cm/1`` and ``nsphere/1``
centre searches at degree 5.  A drift shows here before a benchmark run.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
PINNED = ["sp4-sub/2", "sp6-full/0", "cm/1", "nsphere/1"]


@pytest.mark.parametrize("instance", PINNED)
def test_algebra_instance_matches_golden_digest(instance, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    golden = json.loads((BENCH / "golden" / "algebra.json").read_text())["digests"]
    cls, k = instance.split("/")
    job = workloads.WORKLOADS["algebra"]().instance(cls, int(k))
    out = job.run()
    assert job.check(out, random.Random(instance)) == []
    assert hashlib.sha256(job.canon(out)).hexdigest() == golden[job.id]
    if cls in ("cm", "nsphere"):
        assert out["center"].degree == 5
