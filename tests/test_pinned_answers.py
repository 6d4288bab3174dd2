"""Pinned answers: a few benchmark instances, run through
``bench/workloads.py``, must reproduce the SHA-256 digests of their
canonical output recorded in ``bench/golden/<workload>.json`` (read only)
and pass the workload's own oracle check.

The ``algebra`` instances cover the answers most exposed to a change in the
exact engine: ``sp4-sub/2`` pins the row order ``nullspace`` depends on,
``sp6-full/0`` the largest elimination, ``sp4-full/0`` ``verify`` on the
full 10-element sp(4) closure, whose structure constants are large
rationals (``sp6-full`` skips ``verify``), and ``cm/1`` and ``nsphere/1``
centre searches at degree 5 and ``verify`` on small bases.  The ``brackets`` instances pin the packed
kernel's output: the largest Moyal series (D=6, degree 6, 96 terms), a
large Poisson bracket at D=5 and a small one at D=3.  The ``pipeline``
instances pin one report of every class.  Two are ``invariants`` reports,
whose rows come from the batched bracket kernel: the degree-4 centre of
``nsphere`` and the degree-2 centre of a generated D=2 Moyal problem.
Three are ``close`` reports: a bundled problem, ``quartic`` stopped at its
cap and a generated problem.  One is a 3-body ``separate`` report in 3
dimensions, which brackets the 18 images of ``new_variable_images`` in
``verify_canonical`` and substitutes them to reassemble the Hamiltonian.
The rest are one report of each level table built by ``spectra._levels``:
a 216-level box, FD levels of all four internal potentials, and a spurious
and a shifted composite.  A change to a CLI option or to the spectra that
moves a report shows here before a benchmark run.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
PINNED_ALGEBRA = ["sp4-sub/2", "sp6-full/0", "sp4-full/0", "cm/1", "nsphere/1"]
PINNED_BRACKETS = ["D6-deg6-L-moyal/0", "D5-deg6-L-poisson/3", "D3-deg4-S-poisson/0"]
PINNED_PIPELINE = [
    "close-bundled/0", "close-quartic/0", "close-generated/0",
    "invariants-bundled/0", "invariants-generated/6", "separate/2", "spectrum-box/0",
    "internal-harmonic/0", "internal-box/0", "internal-coulomb/0", "internal-tabulated/0",
    "composite-spurious/0", "composite-right/0",
]


def run_pinned(workload: str, instance: str, monkeypatch):
    """Run one instance, check it against its golden digest and its oracle
    check, and return its output."""
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    golden = json.loads((BENCH / "golden" / f"{workload}.json").read_text())["digests"]
    cls, k = instance.split("/")
    bench = workloads.WORKLOADS[workload]()
    bench.prepare()
    job = bench.instance(cls, int(k))
    out = job.run()
    assert job.check(out, random.Random(instance)) == []
    assert hashlib.sha256(job.canon(out)).hexdigest() == golden[job.id]
    return out


@pytest.mark.parametrize("instance", PINNED_ALGEBRA)
def test_algebra_instance_matches_golden_digest(instance, monkeypatch):
    out = run_pinned("algebra", instance, monkeypatch)
    if instance.split("/")[0] in ("cm", "nsphere"):
        assert out["center"].degree == 5
    if instance == "sp4-full/0":
        assert len(out["closure"].basis) == 10 and out["verify"] is True


@pytest.mark.parametrize("instance", PINNED_BRACKETS)
def test_brackets_instance_matches_golden_digest(instance, monkeypatch):
    run_pinned("brackets", instance, monkeypatch)


@pytest.mark.parametrize("instance", PINNED_PIPELINE)
def test_pipeline_instance_matches_golden_digest(instance, monkeypatch, tmp_path):
    # the report echoes the relative paths the workload writes its inputs to
    monkeypatch.chdir(tmp_path)
    # quartic does not close: its report is written with exit code 3
    expect = 3 if instance.startswith("close-quartic/") else 0
    assert run_pinned("pipeline", instance, monkeypatch) == expect
