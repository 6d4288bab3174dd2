"""Record the output digests that benchmark runs are checked against.

Run once per workload at the commit whose outputs define correct answers::

    python3 bench/record.py brackets algebra pipeline

For every instance in the workload's pool this runs the job, applies the
independent checks (recording stops with an error if any fails) and writes
the SHA-256 of the canonical output to ``bench/golden/<workload>.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import time

import run


def record(name: str) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    workload.prepare()
    check_rng = random.Random("record")
    digests, seconds = {}, {}
    for job in workload.all_instances():
        if job.reset is not None:
            job.reset()
        out, seconds[job.id] = run.timed(job.run)
        problems = job.check(out, check_rng)
        if problems:
            raise SystemExit(f"{job.id}: {'; '.join(problems)}")
        digests[job.id] = hashlib.sha256(job.canon(out)).hexdigest()
    slowest = sorted(seconds.items(), key=lambda kv: -kv[1])[:3]
    print(f"{name}: {len(digests)} instances, {sum(seconds.values()):.1f} s, slowest "
          + ", ".join(f"{k} {v:.3f}s" for k, v in slowest), file=sys.stderr)
    return {"commit": run.git_commit(), "source_sha256": run.source_digest(),
            "digests": digests}


def main() -> int:
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.ROOT / "src"))
    for name in sys.argv[1:]:
        start = time.perf_counter()
        data = record(name)
        path = run.BENCH / "golden" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")
        print(f"wrote {path} in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
