"""Which layer each end-to-end metric is made of, from a traced run's spans.

    python3 bench/analyze.py .bench_out/trace/<workload>-seed<N>.npz

Jobs are ranked by traced duration.  For the jobs around the median (40th
to 60th percentile, which set job_s_p50), the tail (at or above the 90th
percentile, which sets job_s_p90) and all jobs (whose total sets
jobs_per_s), it prints each layer's share of the self time, then each span
name's.  A layer is the first part of a span name (``poly``, ``brackets``,
...); ``job`` is time in no layer span, the tracing overhead at the job's
top level.  Shares under half a percent everywhere are left out.
"""

from __future__ import annotations

import sys

import numpy as np


def layer_shares(path: str, depth: int = 1) -> dict[str, dict[str, float]]:
    """Share of self time per span-name prefix of ``depth`` parts, per metric band."""
    data = np.load(path)
    names = [str(n) for n in data["names"]]
    ids, parent, job = data["id"], data["parent"], data["job"]
    duration = data["end"] - data["start"]
    row_of = np.full(int(data["spans_total"]) + 1, -1, dtype=np.int64)
    row_of[ids] = np.arange(len(ids))
    has_parent = parent >= 0
    child_time = np.zeros(len(ids))
    np.add.at(child_time, row_of[parent[has_parent]], duration[has_parent])
    self_time = duration - child_time

    prefix = [".".join(n.split(".")[:depth]) for n in names]
    layers = sorted(set(prefix))
    layer_of_name = np.array([layers.index(p) for p in prefix])
    span_layer = layer_of_name[data["name"]]
    njobs = int(job.max()) + 1
    per_job = np.zeros((njobs, len(layers)))
    np.add.at(per_job, (job, span_layer), self_time)
    job_time = per_job.sum(axis=1)

    order = np.argsort(job_time)
    bands = {
        "job_s_p50": order[int(0.4 * njobs):max(int(0.6 * njobs), int(0.4 * njobs) + 1)],
        "job_s_p90": order[int(0.9 * njobs):],
        "jobs_per_s": order,
    }
    out = {}
    for metric, rows in bands.items():
        total = per_job[rows].sum()
        out[metric] = {layer: float(per_job[rows, i].sum() / total)
                       for i, layer in enumerate(layers)}
    return out


def main() -> int:
    for path in sys.argv[1:]:
        print(path)
        for depth in (1, 2):
            shares = layer_shares(path, depth)
            rows = sorted(shares["jobs_per_s"], key=lambda l: -shares["jobs_per_s"][l])
            print(f"  {'layer' if depth == 1 else 'span':32s}"
                  + "".join(f"{m:>12s}" for m in shares))
            for row in rows:
                if max(shares[m][row] for m in shares) >= 0.005:
                    print(f"  {row:32s}" + "".join(f"{shares[m][row]:12.1%}" for m in shares))
    return 0


if __name__ == "__main__":
    sys.exit(main())
