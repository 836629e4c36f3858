"""fluxmod benchmark: one seeded closed-loop workload per run.

Usage (from the repository root):

    python3 perfbench/run.py --workload atlas --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it reports per-layer totals from a separate traced pass.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See perfbench/README.md for every metric.

Load model: one caller in a closed loop (the next request is sent only
after the previous one returns), ``jobs=1``, no process pool, each
workload in fresh worker processes started by this script.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
PREFIX = "@perfbench "
# fresh interpreters whose set-up time is measured; the last one serves
SETUP_REPEATS = 3
RATE_SLICES = 5
DEADLINE_S = 170.0
# the warm-up request comes from its own stream, never from the measured one
WARM_SEED_OFFSET = 7_777_777
PROBE_SEED_OFFSET = 3_333_333

END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metrics: span name and the totals reported for it, over set-up
# plus the traced pass; a stat ending in _s is seconds, any other a count
LAYER_STATS = (
    ("transmon.transition_frequencies", "calls points self_s"),
    ("transmon.fit_spec", "calls self_s"),
    ("transmon.fourier_coefficients", "calls self_s"),
    ("transmon.series_cache", "hits misses"),
    ("transmon.load_device", "calls self_s"),
    ("modulation.sweet_spot_solve", "calls self_s roots no_root"),
    ("modulation.sweet_spot_atlas", "calls nodes no_root self_s"),
    ("modulation.operating_point", "calls self_s"),
    ("modulation.sideband_weights", "calls self_s"),
    ("gates.plan_gate", "calls self_s"),
    ("gates.check_collisions", "calls self_s reports"),
    ("gates.enumerate_resonances", "calls self_s"),
    ("gates.resonance_fm", "calls self_s wrong_sideband"),
    ("calibration.calibrate_and_verify", "calls self_s"),
    ("calibration.calibrate_theta0", "calls self_s"),
    ("calibration.calibrate_transfer_function", "calls self_s"),
    ("calibration.virtual_ramsey", "calls self_s"),
    ("pulses.distort_pulse", "calls self_s"),
    ("pulses.compensate_pulse", "calls self_s"),
    ("cli.sweep", "calls self_s"),
    ("cli.plan", "calls self_s"),
    ("cli.calibrate", "calls self_s"),
)
EXIT_CODES = (0, 1, 2, 3, 4)


class BenchError(RuntimeError):
    pass


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 of n requests beyond it.

    Never below the median: with fewer than 20 requests p50 is reported.
    """
    return max(50, math.floor(100.0 - 1000.0 / n))


def sliced_rate(latencies: list[float], slices: int = RATE_SLICES) -> float:
    """Median over consecutive equal slices of the loop of requests per second.

    The caller is a closed loop, so a slice's duration is the sum of its
    latencies. The median keeps one slow stretch of a shared machine from
    moving the whole run's rate.
    """
    parts = [p for p in np.array_split(np.asarray(latencies), slices) if p.size]
    return float(np.median([p.size / p.sum() for p in parts]))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


# ---------------------------------------------------------------- worker side


def _emit(**msg) -> None:
    sys.stdout.write(PREFIX + json.dumps(msg) + "\n")
    sys.stdout.flush()


def _environment(seed: int) -> dict:
    import ctypes
    from importlib.metadata import version

    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    except OSError:
        libs = set()
    for lib_path in sorted(libs):
        lib = ctypes.CDLL(lib_path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_cfg = getattr(lib, f"{prefix}_get_config{suffix}", None)
                get_n = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get_cfg is not None and get_n is not None:
                    get_cfg.restype = ctypes.c_char_p
                    env["openblas"] = get_cfg().decode().strip()
                    env["openblas_threads"] = int(get_n())
                    return env
    env["openblas"] = "not found"
    return env


def _import_fluxmod():
    sys.path.insert(0, str(SRC))
    import fluxmod

    if Path(fluxmod.__file__).resolve().parent != (SRC / "fluxmod").resolve():
        raise BenchError(f"fluxmod imported from {fluxmod.__file__}, not {SRC}")
    return fluxmod


def _serve(wl, stream, *, seconds: float | None = None, count: int | None = None):
    """Closed loop: one request at a time, until the time or count is spent."""
    records = []
    clock = time.perf_counter
    start = clock()
    deadline = start + (seconds or 0.0)
    while True:
        req = next(stream)
        t0 = clock()
        try:
            answer, error = wl.run(req), None
        except Exception as exc:  # a failed request is data, not a crash
            answer, error = None, exc
        t1 = clock()
        records.append(workloads.Record(req, answer, error, t1 - t0))
        if (count is not None and len(records) >= count) or (
                count is None and t1 >= deadline):
            return records, t1 - start


def _verdicts(wl, records) -> list[tuple[str, str]]:
    """Verdict per record; a check that itself raises gives 'unchecked'."""
    n = len(records)
    if wl.max_checks and n > wl.max_checks:
        picked = {round(i * (n - 1) / (wl.max_checks - 1)) for i in range(wl.max_checks)}
    else:
        picked = set(range(n))
    out = []
    for i, rec in enumerate(records):
        try:
            out.append(wl.verdict(rec, i in picked))
        except Exception as exc:  # the benchmark could not judge this answer
            out.append(("unchecked", f"{type(exc).__name__}: {exc}"))
    return out


def _summarize(verdicts) -> dict:
    counts = {"ok": 0, "failed": 0, "refused": 0, "unchecked": 0}
    reasons = []
    for outcome, reason in verdicts:
        counts[outcome] += 1
        if reason and len(reasons) < 5:
            reasons.append(f"{outcome}: {reason}")
    return {"counts": counts, "reasons": reasons}


def worker(args) -> int:
    import resource

    fluxmod = _import_fluxmod()
    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](fluxmod, workdir)
    warm_seed = args.seed + WARM_SEED_OFFSET
    try:
        if args.role == "setup":
            wl.setup(warm_seed)
            _emit(event="ready")
            return 0
        if args.trace:
            return _worker_traced(args, wl, warm_seed)
        wl.setup(warm_seed)
        _emit(event="ready")
        records, elapsed = _serve(
            wl, wl.requests(np.random.default_rng(args.seed)), seconds=args.seconds)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        summary = _summarize(_verdicts(wl, records))
        _emit(event="result", latencies=[r.latency_s for r in records],
              elapsed=elapsed, rss_kb=rss_kb, env=_environment(args.seed), **summary)
        return 0
    finally:
        wl.close()


def _worker_traced(args, wl, warm_seed: int) -> int:
    """Set-up traced, then an untraced and a traced pass of equal size.

    The passes draw consecutive requests from one seeded stream, so no
    request repeats and no input-keyed cache is warmed for the traced pass.
    """
    # the package does not import its CLI; import it before any rebinding so
    # every namespace exists when the wrappers go in and come out
    import fluxmod.cli  # noqa: F401

    tr = tracing.Tracer()
    tr.install()
    tr.active, tr.request = True, "setup"
    wl.setup(warm_seed)
    tr.active = False
    tr.uninstall()
    _emit(event="ready")

    count = max(1, round(args.seconds / 2.0 * wl.trace_rate))
    stream = wl.requests(np.random.default_rng(args.seed))
    plain, plain_s = _serve(wl, stream, count=count)

    tr.install()
    traced = []
    for i in range(count):
        tr.request = i
        tr.active = True
        batch, _ = _serve(wl, stream, count=1)
        tr.active = False
        traced += batch
    tr.uninstall()
    traced_s = sum(r.latency_s for r in traced)
    probes = []
    if wl.probes:
        probes, _ = _serve(wl, wl.probe_requests(
            np.random.default_rng(args.seed + PROBE_SEED_OFFSET)), count=wl.probes)
    request_spans = [s for s in tr.spans if s.request != "setup"]

    stats = tracing.layer_stats(tr.spans)
    spans_file = WORKDIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tr.dump(spans_file)
    exits = {str(c): 0 for c in EXIT_CODES}
    for rec in traced:
        for code in wl.exit_codes(rec):
            if str(code) in exits:
                exits[str(code)] += 1
    summary = _summarize(_verdicts(wl, plain + traced))
    _emit(
        event="result", stats=stats, exits=exits, notes=tr.notes,
        probes=_summarize(_verdicts(wl, probes)),
        spans_file=str(spans_file.relative_to(ROOT)),
        overhead=traced_s / sum(r.latency_s for r in plain) - 1.0,
        coverage=tracing.covered_time(request_spans) / traced_s,
        requests=len(plain) + len(traced), plain_s=plain_s, traced_s=traced_s,
        env=_environment(args.seed), **summary,
    )
    return 0


# ---------------------------------------------------------------- parent side


def _child_env() -> dict:
    # one caller, one BLAS thread: the second core stays free, which keeps
    # runs steadier on a shared 2-core machine
    return {**os.environ, "OPENBLAS_NUM_THREADS": "1"}


def _spawn(args, role: str, deadline: float) -> tuple[float, dict | None]:
    """Run one worker; return (seconds from spawn to ready, result message)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    ready = result = None
    try:
        for line in proc.stdout:
            if not line.startswith(PREFIX):
                continue
            msg = json.loads(line[len(PREFIX):])
            if msg["event"] == "ready":
                ready = time.perf_counter() - t0
            elif msg["event"] == "result":
                result = msg
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None or (role == "serve" and result is None):
        raise BenchError(f"{role} worker exited with code {proc.returncode}")
    return ready, result


def _print_env(env: dict) -> None:
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))


def _outcomes(res: dict) -> dict:
    """Print failed_frac with its base; return the JSON line's count fields."""
    c = res["counts"]
    attempted = sum(c.values())
    bad = c["failed"] + c["refused"]
    print(f"{'failed_frac':<34}{bad / attempted:<14.6g}fraction  "
          f"(failed {c['failed']} + refused {c['refused']} of {attempted} attempted"
          f"; {c['unchecked']} could not be checked)")
    for reason in res["reasons"]:
        print(f"  {reason}")
    return {"correct": c["unchecked"] == 0, "attempted": attempted, "failed": bad}


def end_to_end(args, deadline: float) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        setups.append(_spawn(args, "setup", deadline)[0])
    ready, res = _spawn(args, "serve", deadline)
    setups.append(ready)
    lat_ms = [x * 1e3 for x in res["latencies"]]
    n = len(lat_ms)
    q = tail_percentile(n)
    values = {
        "setup_s": statistics.median(setups),
        "requests_per_s": sliced_rate(res["latencies"]),
        "latency_p50_ms": percentile(lat_ms, 50),
        "latency_tail_ms": percentile(lat_ms, q),
        "peak_rss_mb": res["rss_kb"] / 1024.0,
    }
    notes = {
        "setup_s": "median of %d fresh interpreters: %s" % (
            len(setups), ", ".join(f"{s:.3f}" for s in setups)),
        "requests_per_s": f"median of {RATE_SLICES} slices; {n} requests in "
                          f"{res['elapsed']:.3f} s, one closed-loop caller",
        "latency_p50_ms": f"n={n}",
        "latency_tail_ms": f"p{q}, n={n}, {n - math.ceil(q / 100 * n)} requests beyond",
        "peak_rss_mb": "ru_maxrss of the serving process after the timed loop",
    }
    _print_env(res["env"])
    for name, unit in END_TO_END.items():
        print(f"{name:<34}{values[name]:<14.6g}{unit:<10}({notes[name]})")
    return {**_outcomes(res),
            "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}}


def traced(args, deadline: float) -> dict:
    _, res = _spawn(args, "serve", deadline)
    stats = res["stats"]
    metrics = {}
    for span, names in LAYER_STATS:
        for stat in names.split():
            metrics[f"{span}.{stat}"] = {
                "value": float(stats.get(span, {}).get(stat, 0.0)),
                "unit": "s" if stat.endswith("_s") else "count",
            }
    for code in EXIT_CODES:
        metrics[f"cli.exit.{code}"] = {"value": float(res["exits"][str(code)]),
                                       "unit": "count"}
    probe = res["probes"]["counts"]
    metrics["accuracy.wide_range.failed"] = {
        "value": float(sum(probe.values()) - probe["ok"]), "unit": "count"}
    metrics["trace.overhead_frac"] = {"value": res["overhead"], "unit": "fraction"}
    metrics["trace.coverage_frac"] = {"value": res["coverage"], "unit": "fraction"}
    _print_env(res["env"])
    print(f"traced pass: {res['requests'] // 2} requests in {res['traced_s']:.3f} s "
          f"after an untraced pass of the same size in {res['plain_s']:.3f} s; "
          f"totals include set-up; spans in {res['spans_file']}")
    for note in res["notes"]:
        print(f"note: {note}")
    if sum(probe.values()):
        print(f"wide-range probes (untimed, not in failed): {probe['ok']} ok of "
              f"{sum(probe.values())}")
        for reason in res["probes"]["reasons"]:
            print(f"  probe {reason}")
    for name, m in metrics.items():
        print(f"{name:<48}{m['value']:<14.6g}{m['unit']}")
    return {**_outcomes(res), "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("main", "setup", "serve"), default="main",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.role != "main":
        return worker(args)

    if not (SRC / "fluxmod" / "__init__.py").is_file():
        print(f"error: no fluxmod sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    try:
        report = traced(args, deadline) if args.trace else end_to_end(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
