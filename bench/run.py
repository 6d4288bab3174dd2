"""phasealg benchmark: one workload per process, closed loop, one client.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload brackets|algebra|pipeline --seed N \
        --seconds S --trace 0|1

Jobs run one after another in this single process; each starts only after
the previous one has finished.  Every answer is checked outside the timed
region: its canonical output against the SHA-256 digest recorded at the
seed commit (``bench/golden``), plus the workload's independent checks
(``bench/oracle.py``).  Any mismatch, unexpected exception or unexpected
exit code counts as a failed job.

``--trace 0`` measures the end-to-end metrics; their times are scaled to a
reference host speed (job times see ``Speed``, set-up time see
``measure_setup``), and the plain wall times are kept in the record.
``--trace 1`` runs a fixed list of jobs, each untraced and then traced,
and reports per-layer self times and counts (wall seconds) plus the
tracing overhead, traced minus untraced job time.
The last line of standard output is the JSON result; detailed records go to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)   # before numpy is imported, here or in a child

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = Path(".bench_out")

REF_KERNEL_S = 0.0006   # kernel time that scaled seconds are expressed at
MIN_JOBS = 110          # so at least ten samples lie beyond the 90th percentile
LOOP_LIMIT_S = 120.0    # hard stop for the measured loop, whatever the job sizes
SETUP_REPEATS = 7
SETUP_SNIPPET = (
    "import phasealg.cli as cli\n"
    "for name in ('nsphere', 'cm', 'quartic'):\n"
    "    cli.load_problem(name)\n"
)
# The yardstick for set-up: a fresh interpreter importing modules phasealg
# does not control, the same kind of work (start-up, unmarshalling, loading
# extensions) as SETUP_SNIPPET.
REFERENCE_SNIPPET = (
    "import argparse, asyncio, concurrent.futures, csv, decimal, difflib\n"
    "import email.mime.multipart, http.server, inspect, json, logging.handlers\n"
    "import multiprocessing.pool, pickle, pydoc, sqlite3, ssl, statistics\n"
    "import tarfile, tomllib, unittest, urllib.request, xml.dom.minidom, zipfile\n"
    "import numpy\n"
)
REF_REFERENCE_S = 0.4   # reference time that scaled set-up seconds are expressed at

END_TO_END_UNITS = {
    "job_s_p50": "s", "job_s_p90": "s", "jobs_per_s": "1/s",
    "setup_s": "s", "peak_rss_mb": "MB",
}


def load_golden(workload: str) -> dict[str, str]:
    path = BENCH / "golden" / f"{workload}.json"
    return json.loads(path.read_text())["digests"]


def attempt(job, golden: dict[str, str], check_rng: random.Random, timer):
    """Run one job through ``timer`` and check its answer.

    Returns (seconds or None if the job raised, list of problems).
    """
    if job.reset is not None:
        job.reset()
    try:
        out, seconds = timer(job.run)
    except Exception as exc:  # any exception is a failed job, not a crash
        return None, [f"raised {type(exc).__name__}: {exc}"]
    try:
        problems = list(job.check(out, check_rng))
        digest = hashlib.sha256(job.canon(out)).hexdigest()
    except Exception as exc:  # malformed output: the check itself cannot finish
        return seconds, [f"check raised {type(exc).__name__}: {exc}"]
    want = golden.get(job.id)
    if want is None:
        problems.append("no digest recorded for this instance")
    elif digest != want:
        problems.append("output digest differs from the seed commit")
    return seconds, problems


def timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: list[tuple[str, list[str]]] = []

    def add(self, job, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append((job.id, problems))


def warm_up(workload, golden, check_rng, tally: Tally) -> None:
    """Run instance 0 of each warm-up class untimed, so lazy set-up is done."""
    for cls in workload.warmup_classes:
        job = workload.instance(cls, 0)
        _, problems = attempt(job, golden, check_rng, timed)
        tally.add(job, problems)


def measure(workload, seed: int, seconds: float, golden, tally: Tally):
    """Closed loop over whole rounds of the seeded job stream.

    Whole rounds keep the mix of job classes the same in every run.  The
    loop stops after the round in which ``seconds`` of scaled job time and
    MIN_JOBS jobs are reached, so a run does the same work however fast the
    host is at the time.  Returns (scaled seconds, wall seconds) per job
    that passed its checks.
    """
    check_rng = random.Random(f"check/{seed}")
    speed = Speed()
    scaled: list[float] = []
    wall: list[float] = []
    start = time.perf_counter()
    for rnd in workload.rounds(seed):
        if sum(scaled) >= seconds and len(scaled) >= MIN_JOBS:
            break
        for job in rnd:
            dt, problems = attempt(job, golden, check_rng, speed.timed)
            tally.add(job, problems)
            if dt is not None and not problems:
                wall.append(dt)
                scaled.append(dt * speed.factor)
        if time.perf_counter() - start > LOOP_LIMIT_S:
            break
    return scaled, wall


def job_metrics(times: list[float]) -> dict[str, float]:
    if len(times) < 2:
        raise SystemExit("error: fewer than two jobs passed their checks")
    return {
        "job_s_p50": statistics.median(times),
        "job_s_p90": statistics.quantiles(times, n=10)[-1],
        "jobs_per_s": len(times) / sum(times),
    }


def trace_jobs(workload, seed: int):
    """The fixed job list of a traced run: the first ``trace_rounds`` rounds."""
    return [job for rnd in itertools.islice(workload.rounds(seed), workload.trace_rounds)
            for job in rnd]


def traced_run(jobs, golden, check_rng, tally: Tally, tracer):
    """Run each job untraced and then traced, back to back, so that both
    executions see the same host speed; returns (untraced s, traced s)."""
    untraced = traced = 0.0
    for job_no, job in enumerate(jobs):
        dt, problems = attempt(job, golden, check_rng, timed)
        tally.add(job, problems)
        untraced += dt or 0.0
        tracer.install()
        try:
            dt, problems = attempt(
                job, golden, check_rng, lambda fn: tracer.run_job(job_no, fn))
        finally:
            tracer.uninstall()
        tally.add(job, problems)
        traced += dt or 0.0
    return untraced, traced


def _speed_kernel() -> None:
    rng = random.Random(0)
    terms = {(rng.randrange(4), rng.randrange(4), rng.randrange(4)):
             Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(14)}
    out: dict = {}
    for e1, c1 in terms.items():
        for e2, c2 in terms.items():
            key = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            out[key] = out.get(key, 0) + c1 * c2


def kernel_seconds() -> float:
    """Fastest of three runs of a fixed pure-Python kernel (dicts and
    Fractions, none of phasealg): 0.6 ms on an idle 2.0 GHz Intel Xeon core."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _speed_kernel()
        best = min(best, time.perf_counter() - start)
    return best


class Speed:
    """The host's current speed, from the kernel timed around each job.

    On a shared host, other tenants slow the CPU by up to a third in
    episodes lasting from seconds to minutes, more than averaging within one
    run removes.  Each timed region is therefore reported scaled to a fixed
    kernel time: wall seconds * REF_KERNEL_S / k, with k the mean of the
    kernel times just before and just after the region.  A change to
    phasealg moves the scaled time as it moves the wall time; the kernel
    runs no phasealg code.
    """

    def __init__(self):
        self.last = kernel_seconds()
        self.factor = 1.0

    def timed(self, fn):
        before = self.last
        out, seconds = timed(fn)
        self.last = kernel_seconds()
        self.factor = REF_KERNEL_S / ((before + self.last) / 2)
        return out, seconds


def measure_setup() -> tuple[float, float]:
    """Time of a fresh interpreter importing the CLI and loading the bundled
    problems, scaled and wall.

    Set-up spawns alternate with spawns of REFERENCE_SNIPPET.  Each set-up
    time is divided by the mean of the reference times just before and just
    after it and expressed at REF_REFERENCE_S; the result is the median of
    these, with the median wall time beside it.  Other tenants slow both
    spawns of a pair alike, a change to phasealg only the set-up one.  One
    unmeasured spawn of each first compiles the bytecode.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def spawn(snippet: str) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", snippet], cwd=ROOT, env=env, check=True,
                       timeout=60, stdout=subprocess.DEVNULL)
        return time.perf_counter() - start

    spawn(SETUP_SNIPPET)
    before = spawn(REFERENCE_SNIPPET)
    scaled, wall = [], []
    for _ in range(SETUP_REPEATS):
        seconds = spawn(SETUP_SNIPPET)
        after = spawn(REFERENCE_SNIPPET)
        wall.append(seconds)
        scaled.append(seconds * REF_REFERENCE_S / ((before + after) / 2))
        before = after
    return statistics.median(scaled), statistics.median(wall)


def machine_record(workload: str, seed: int, trace: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def source_digest() -> str:
    """SHA-256 over the package sources, which names the code in a checkout
    that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "phasealg").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    """HEAD of the checkout, read from .git directly; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "phasealg" / "__init__.py").is_file():
        print(f"error: no phasealg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    golden = load_golden(args.workload)
    record = machine_record(args.workload, args.seed, args.trace)
    tally = Tally()
    (OUT / "results").mkdir(parents=True, exist_ok=True)

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        workload.prepare()
        check_rng = random.Random(f"check/{args.seed}")
        warm_up(workload, golden, check_rng, tally)
        jobs = trace_jobs(workload, args.seed)
        untraced, traced = traced_run(jobs, golden, check_rng, tally, tracer)
        metrics = tracer.layer_metrics()
        metrics["trace.untraced_job_s"] = untraced
        metrics["trace.traced_job_s"] = traced
        metrics["trace.overhead_s"] = traced - untraced
        metrics["trace.unattributed_s"] = traced - tracer.layer_self_total()
        units = {name: ("s" if name.endswith("_s") else "count") for name in metrics}
        (OUT / "trace").mkdir(parents=True, exist_ok=True)
        tracer.dump(OUT / "trace" / f"{args.workload}-seed{args.seed}.npz")
        record["jobs_per_run"] = len(jobs)
        record["spans"] = tracer.spans_total
    else:
        setup_s, setup_wall = measure_setup()
        workload.prepare()
        warm_up(workload, golden, random.Random(f"warmup/{args.seed}"), tally)
        scaled, wall = measure(workload, args.seed, args.seconds, golden, tally)
        metrics = {**job_metrics(scaled), "setup_s": setup_s,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END_UNITS
        record["wall"] = {**job_metrics(wall), "setup_s": setup_wall}
        record["jobs_per_run"] = len(wall)
        record["samples_beyond_p90"] = sum(d > metrics["job_s_p90"] for d in scaled)

    failed = len(tally.failures)
    fail_ratio = failed / max(tally.attempted, 1)
    record.update(attempted=tally.attempted, failed=failed, fail_ratio=fail_ratio,
                  failures=tally.failures[:20], metrics=metrics)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / "results" / name).write_text(json.dumps(record, indent=1) + "\n")

    print("# " + json.dumps({k: v for k, v in record.items()
                             if k not in ("metrics", "failures")}))
    for job_id, problems in tally.failures[:20]:
        print(f"# FAILED {job_id}: {'; '.join(problems)}")
    for key, value in metrics.items():
        print(f"{key} {value:.6g} {units[key]}")
    print(f"fail_ratio {fail_ratio:.6g} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
