"""Tests of the benchmark itself (not of phasealg).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from phasealg.poly import PhasePoly  # noqa: E402


@pytest.fixture(autouse=True)
def _in_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("cls", ["D3-deg4-M-poisson", "D4-deg5-S-moyal"])
def test_bracket_oracle_rejects_sign_flip(cls):
    job = WORKLOADS["brackets"]().instance(cls, 0)
    out = job.run()
    assert job.check(out, random.Random(1)) == []
    flipped = PhasePoly(out.ctx, {e: -c for e, c in out.term_items()})
    assert job.check(flipped, random.Random(1)) != []


def test_jacobi_oracle_rejects_broken_table():
    # so(3): {L1, L2} = L3 and cyclic; breaking one constant breaks Jacobi.
    table = {(0, 1, 2): 1, (1, 2, 0): 1, (0, 2, 1): -1}
    assert oracle.jacobi_holds(table, 3, random.Random(2))
    table[(0, 2, 1)] = 2
    table[(0, 1, 0)] = 1
    assert not oracle.jacobi_holds(table, 3, random.Random(2))


def test_changed_output_fails_digest():
    workload = WORKLOADS["pipeline"]()
    workload.prepare()
    golden = run.load_golden("pipeline")
    job = workload.instance("spectrum-box", 0)
    _, problems = run.attempt(job, golden, random.Random(3), run.timed)
    assert problems == []

    def run_then_touch():
        code = job.run()
        with open(workload.report, "a", encoding="utf-8") as fh:
            fh.write(" ")
        return code

    changed = dataclasses.replace(job, run=run_then_touch)
    _, problems = run.attempt(changed, golden, random.Random(3), run.timed)
    assert problems == ["output digest differs from the seed commit"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layer_self_times_sum_to_traced_job_time(name):
    workload = WORKLOADS[name]()
    workload.prepare()
    golden = run.load_golden(name)
    jobs = next(workload.rounds(seed=5))[:12]
    plain_mul = PhasePoly.__dict__["__mul__"]
    tally = run.Tally()
    tracer = Tracer()
    untraced, traced = run.traced_run(jobs, golden, random.Random(4), tally, tracer)
    assert tally.failures == []
    overhead = traced - untraced
    unattributed = traced - tracer.layer_self_total()
    assert unattributed >= -1e-9
    assert unattributed <= max(overhead, 0.0) + 0.02 * traced + 1e-3
    assert sum(tracer.calls[1:]) > 0
    assert PhasePoly.__dict__["__mul__"] is plain_mul   # wrappers removed again


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "brackets", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
