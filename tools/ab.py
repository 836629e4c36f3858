"""Alternating A/B runs of perfbench on two git trees, summarized as JSON.

Usage (from the repository root):

    python3 tools/ab.py BASE CHANGE --out BENCH_<n>.json \
        [--pairs 10] [--seed0 9001] [--trace-seed 11]

BASE and CHANGE are git tree-ishes: a commit, a branch, or the staged index
as printed by ``git write-tree``.  Each is exported with ``git archive`` into
a fresh directory, and ``perfbench/run.py`` of that tree runs there
unchanged, so each side is measured with its own copy of the benchmark.
Every workload of the base tree's ``BENCHMARK.json`` runs, each run for its
``run_seconds``.

Pair i uses seed ``seed0 + i`` on both sides.  The side that runs first
alternates from pair to pair, and the first pair of each workload starts
with the side the previous workload ended with, so slow drift of a shared
machine falls on both sides alike.  For every workload and end-to-end
metric of ``BENCHMARK.json`` the output holds both sides' medians and
quartiles, how many pairs the change won (by the metric's ``better``
direction), the pair count and the seeds.  Each run's ``attempted`` request
count is kept per side too, and its median is printed beside
``peak_rss_mb``: perfbench keeps every answer until a run ends, so a tree
that serves more requests reads a higher peak RSS.  With ``--trace-seed``
one traced run per side and workload adds the per-layer totals.

Only the standard library and numpy are used.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def export(treeish: str, dest: Path) -> str:
    """Write ``git archive treeish`` into dest; return the resolved object id."""
    oid = subprocess.run(
        ["git", "rev-parse", treeish], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", oid], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {treeish} failed")
    return oid


def bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in ``tree``: its final JSON line, plus wall time."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {out.returncode}:\n{out.stderr}")
    report = json.loads(out.stdout.strip().splitlines()[-1])
    report["wall_s"] = time.perf_counter() - t0
    return report


def summarize(values: dict[str, list[float]], better: str) -> dict:
    base, change = np.array(values["base"]), np.array(values["change"])
    won = change < base if better == "lower" else change > base
    q = {side: np.percentile(v, [25, 50, 75]) for side, v in (("base", base), ("change", change))}
    return {
        "base": {"median": q["base"][1], "q1": q["base"][0], "q3": q["base"][2],
                 "values": base.tolist()},
        "change": {"median": q["change"][1], "q1": q["change"][0], "q3": q["change"][2],
                   "values": change.tolist()},
        "better": better,
        "change_wins": int(won.sum()),
        "pairs": int(base.size),
        "median_gap": float(q["change"][1] - q["base"][1]),
        "base_iqr": float(q["base"][2] - q["base"][0]),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=9001)
    ap.add_argument("--trace-seed", type=int, default=None)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {side: Path(tmp) / side for side in ("base", "change")}
        oids = {side: export(getattr(args, side), trees[side]) for side in trees}
        spec = json.loads((trees["base"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        seconds = spec["run_seconds"]
        metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
        workloads = [w["name"] for w in spec["workloads"]]
        seeds = [args.seed0 + i for i in range(args.pairs)]

        result: dict = {
            "base": {"treeish": args.base, "object": oids["base"]},
            "change": {"treeish": args.change, "object": oids["change"]},
            "seconds": seconds, "seeds": seeds, "workloads": {},
        }
        first = "base"
        for wl in workloads:
            values = {m: {"base": [], "change": []} for m in metrics}
            failed = {"base": [], "change": []}
            attempted = {"base": [], "change": []}
            for seed in seeds:
                order = (first, "change" if first == "base" else "base")
                for side in order:
                    report = bench(trees[side], wl, seed, seconds, 0)
                    for m in metrics:
                        values[m][side].append(report["metrics"][m]["value"])
                    failed[side].append(report["failed"] / max(report["attempted"], 1))
                    attempted[side].append(report["attempted"])
                    print(f"{wl} seed={seed} {side:<6} " + " ".join(
                        f"{m}={report['metrics'][m]['value']:.4g}" for m in metrics),
                        flush=True)
                first = order[1]
            entry = {m: summarize(v, metrics[m]) for m, v in values.items()}
            entry["failed_frac"] = failed
            entry["attempted"] = attempted
            if args.trace_seed is not None:
                entry["traced"] = {"seed": args.trace_seed, **{
                    side: {name: m["value"] for name, m in bench(
                        trees[side], wl, args.trace_seed, seconds, 1)["metrics"].items()}
                    for side in ("base", "change")
                }}
            result["workloads"][wl] = entry
            args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for wl, entry in result["workloads"].items():
        for m in metrics:
            s = entry[m]
            served = ""
            if m == "peak_rss_mb":
                served = " attempted base {:g} change {:g}".format(
                    *(np.median(entry["attempted"][side]) for side in ("base", "change")))
            print(f"{wl:<8} {m:<16} base {s['base']['median']:<10.4g} change "
                  f"{s['change']['median']:<10.4g} wins {s['change_wins']}/{s['pairs']} "
                  f"base IQR {s['base_iqr']:.3g}{served}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
