"""Memory a benchmark run keeps per answer, at a fixed request count.

Usage (from the repository root):

    python3 tools/kept.py TREEISH WORKLOAD [--requests 1000] [--seed 11]

TREEISH is a git tree-ish, exported with ``git archive`` into a fresh
directory as ``tools/ab.py`` does.  A fresh interpreter there sets the
workload up from that tree's ``perfbench/workloads.py`` and serves
``--requests`` seeded requests with ``perfbench/run.py``'s closed loop,
keeping every record as a timed run does until it ends.  It reports
``ru_maxrss`` after those requests.  It then serves as many more under
tracemalloc and reports the bytes per request that dropping their answers
frees, and that dropping the whole records frees.

perfbench keeps every answer, so a run's peak RSS grows with the requests
it serves, and a faster tree serves more.  Run this on both trees before
an A/B run: the answer bytes times the requests a run serves is what the
faster tree adds to its peak RSS.

Only the standard library and numpy are used.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from ab import export

# runs in the exported tree; argv: workload, seed, requests
CHILD = r"""
import gc, json, resource, sys, tracemalloc
sys.path.insert(0, "perfbench")
import numpy as np
import run, workloads

name, seed, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
wl = workloads.WORKLOADS[name](run._import_fluxmod(), run.WORKDIR / f"kept-{name}")
try:
    wl.setup(seed + run.WARM_SEED_OFFSET)
    stream = wl.requests(np.random.default_rng(seed))
    kept, _ = run._serve(wl, stream, count=count)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tracemalloc.start()
    more, _ = run._serve(wl, stream, count=count)
    gc.collect()
    held = tracemalloc.get_traced_memory()[0]
    for rec in more:
        rec.answer = None
    gc.collect()
    without_answers = tracemalloc.get_traced_memory()[0]
    del more
    gc.collect()
    without_records = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
finally:
    wl.close()
print(json.dumps({
    "requests": count,
    "errors": sum(rec.error is not None for rec in kept),
    "ru_maxrss_mb": rss_kb / 1024.0,
    "answer_bytes": (held - without_answers) / count,
    "record_bytes": (held - without_records) / count,
}))
"""


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("treeish")
    ap.add_argument("workload")
    ap.add_argument("--requests", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args(argv)
    if args.requests < 1:
        ap.error("--requests must be at least 1")

    with tempfile.TemporaryDirectory(prefix="kept-") as tmp:
        tree = Path(tmp) / "tree"
        oid = export(args.treeish, tree)
        out = subprocess.run(
            [sys.executable, "-c", CHILD, args.workload, str(args.seed), str(args.requests)],
            cwd=tree, capture_output=True, text=True,
            # one BLAS thread, as perfbench's workers run
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        )
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return 1
    report = {"treeish": args.treeish, "object": oid, "workload": args.workload,
              "seed": args.seed, **json.loads(out.stdout.strip().splitlines()[-1])}
    print(f"{args.treeish} {args.workload}: {report['requests']} requests "
          f"({report['errors']} raised), ru_maxrss {report['ru_maxrss_mb']:.2f} MB, "
          f"kept per request: answer {report['answer_bytes']:.0f} B, "
          f"record {report['record_bytes']:.0f} B")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
