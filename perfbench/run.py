"""permpaths benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload oracle-count --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root.  The package is used from ``src`` (it
need not be installed) and ``PERMPATHS_WORKERS`` is set to the number
of usable cores.  Every pass is a fresh interpreter running one cycle
of the workload, so the package's ``lru_cache``s start cold as they do
for a command-line call.

Workloads (closed loops, one client; see workloads.py):

  oracle-count         op = one oracle_count / count_perms call
  verify-battery       op = one check of verify.run_suite(suite, nmax)
  bijection-roundtrip  op = one forward map and its inverse
  cli-enumerate        op = one row written by ``permpaths enumerate``

``--trace 0`` reports the end-to-end metrics: set-up time (median over
the passes and extra set-up probes, at least five), ops per second of
time spent inside program calls, median and tail op latency over all
passes, and the largest peak RSS of a pass.  ``--seconds`` sets the
number of passes (see PASS_SECONDS).  Times are quoted at a reference
speed: each interpreter also times a fixed pure-Python loop, and its
times are scaled by how much slower or faster than ``REFERENCE_LOOP_S``
that loop ran: right beside each op for op times, over the pass for
set-up.  The record line keeps the raw busy times.

``--trace 1`` reports per-layer metrics from one cycle each of an
untraced pass, a traced pass and, for workloads whose counts can use
the worker pool, an untraced pass with one worker.

Every output is checked; the last stdout line is
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is 1
when any op failed.  Lines before it give each metric with its unit,
``failed_share``, and a record of the run's settings.
"""

from __future__ import annotations

import argparse
import base64
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("oracle-count", "verify-battery", "bijection-roundtrip", "cli-enumerate")
SETUP_SAMPLES = 7
MIN_SAMPLES = 21  # ten samples above the tail and the tail above the median
# Nominal seconds of one pass (one cycle) at the reference speed; a run
# makes round(--seconds / this) passes.  A fixed pass count keeps the
# mix of ops fixed, so the latency percentiles always fall on the same
# kind of op however fast the host is that minute.
PASS_SECONDS = {
    "oracle-count": 10.0,
    "verify-battery": 3.3,
    "bijection-roundtrip": 4.5,
    "cli-enumerate": 6.0,
}
# Time of the speed reference loop (workloads.speed_loop) at the speed
# the metrics are quoted for.  The shared host's speed drifts by up to a
# factor of two over minutes.  Workers report op times in units of the
# loop's time next to each op, and set-up is scaled by the loop's median
# time over the pass; both are multiplied by REFERENCE_LOOP_S.
REFERENCE_LOOP_S = 0.015
DEADLINE_S = 170.0
SIZES = (16, 24, 32, 48, 64)  # bijection-roundtrip sizes, as in workloads.py

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class WorkerError(RuntimeError):
    pass


class Runner:
    """Starts worker interpreters one at a time, each in its own process
    group so that a stuck pass and its pool can be stopped together."""

    def __init__(self, workload: str, seed: int, workers: int) -> None:
        self.workload = workload
        self.seed = seed
        self.workers = workers
        self.deadline = time.monotonic() + DEADLINE_S

    def env(self, workers: int) -> dict:
        env = dict(os.environ)
        env.pop("PYTHONOPTIMIZE", None)
        env["PYTHONPATH"] = str(SRC)
        env["PERMPATHS_WORKERS"] = str(workers)
        return env

    def run(self, *extra: str, workers: int | None = None) -> tuple[float, dict | None]:
        """Start a worker; return (seconds until it was ready, its result)."""
        argv = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed), *extra,
        ]
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=self.env(workers or self.workers),
            stdout=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            if ready.strip() != "ready":
                raise WorkerError(f"worker did not start: {ready.strip()!r}")
            out, _ = proc.communicate(timeout=max(self.deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            raise WorkerError("worker ran past the deadline") from None
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        if proc.returncode != 0:
            raise WorkerError(f"worker exited with {proc.returncode}")
        lines = out.strip().splitlines()
        return setup_s, json.loads(lines[-1]) if lines else None


def latency_stats(samples: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples
    above it."""
    values = sorted(samples)
    n = len(values)
    k = n - 11
    return {
        "samples": n,
        "p50": statistics.median(values),
        "tail": values[k],
        "tail_percentile": 100.0 * (k + 1) / n,
    }


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, list[dict]]:
    """Fresh passes of one cycle each; ops and latencies pool over them."""
    want = max(1, round(seconds / PASS_SECONDS[runner.workload]))
    passes, setups, latencies = [], [], []
    while len(passes) < want or len(latencies) < MIN_SAMPLES:
        setup_s, result = runner.run("--cycle", str(len(passes)))
        result["scale"] = REFERENCE_LOOP_S / result["calibration_s"]
        passes.append(result)
        setups.append(setup_s * result["scale"])
        in_loops = array("d", base64.b64decode(result.pop("latencies_loops")))
        latencies.extend(v * REFERENCE_LOOP_S for v in in_loops)
    while len(setups) < SETUP_SAMPLES:
        setup_s, probe = runner.run("--probe")
        setups.append(setup_s * REFERENCE_LOOP_S / probe["calibration_s"])
    stats = latency_stats(latencies)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": sum(p["attempted"] for p in passes) / (
            REFERENCE_LOOP_S * sum(p["busy_loops"] for p in passes)
        ),
        "op_p50_ms": stats["p50"] * 1e3,
        "op_tail_ms": stats["tail"] * 1e3,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    notes = {
        "passes": len(passes),
        "speed_scale": [p["scale"] for p in passes],
        "raw_busy_s": [p["busy_s"] for p in passes],
        "setup_samples_s": setups,
        "op_tail_percentile": stats["tail_percentile"],
        "latency_samples": stats["samples"],
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics | {"_notes": notes}, passes


def scaling_exponent(by_size: dict) -> float:
    """Least-squares slope of log(seconds per object) against log(n)."""
    points = [(math.log(int(n)), math.log(s)) for n, s in by_size.items() if s > 0]
    if len(points) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    den = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / den


def per_layer(runner: Runner) -> tuple[dict, list[dict]]:
    _, plain = runner.run()
    _, traced = runner.run("--trace")
    passes = [plain, traced]
    trace = traced["trace"]
    o = trace["oracle"]
    pool_speedup = 0.0
    if o["pool_calls"]:
        _, single = runner.run(workers=1)
        passes.append(single)
        pool_speedup = single["busy_s"] / plain["busy_s"]
    m: dict[str, tuple[float, str]] = {
        "oracle.calls": (o["calls"], "count"),
        "oracle.self_s": (o["self_s"], "s"),
        "oracle.rows_scanned": (o["rows_scanned"], "rows"),
        "oracle.rows_per_s": (o["rows_scanned"] / o["total_s"] if o["total_s"] else 0.0, "rows/s"),
        "oracle.child_cpu_s": (traced["child_cpu_s"], "s"),
        "oracle.cpu_util": (
            (o["own_cpu_s"] + traced["child_cpu_s"]) / (o["total_s"] * runner.workers)
            if o["total_s"] else 0.0,
            "ratio",
        ),
        "oracle.pool_speedup": (pool_speedup, "ratio"),
    }
    for layer in ("permutations", "bijections", "formulas", "paths", "series"):
        m[f"{layer}.calls"] = (trace[layer]["calls"], "count")
        m[f"{layer}.self_s"] = (trace[layer]["self_s"], "s")
    m["permutations.word_len_mean"] = (trace["permutations"]["word_len_mean"], "letters")
    by_size = plain["by_size_s"]
    for n in SIZES:
        m[f"bijections.s_per_object.n{n}"] = (by_size.get(str(n), 0.0), "s")
    m["bijections.scaling_exp"] = (scaling_exponent(by_size), "ratio")
    for suite in ("formulas", "bijections", "identities", "series"):
        m[f"verify.{suite}_s"] = (plain["suite_s"].get(suite, 0.0), "s")
    m["verify.checks"] = (plain["attempted"] if runner.workload == "verify-battery" else 0, "count")
    m["cli.self_s"] = (trace["cli"]["self_s"], "s")
    m["cli.rows_out"] = (plain["rows"], "rows")
    m["cli.bytes_out"] = (plain["bytes"], "bytes")
    m["cli.first_row_ms"] = (plain["first_row_ms"], "ms")
    m["trace.overhead_s"] = (traced["busy_s"] - plain["busy_s"], "s")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
    notes = {"spans": trace["spans"], "untraced_busy_s": plain["busy_s"]}
    return metrics | {"_notes": notes}, passes


def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def self_test(workers: int) -> int:
    _, result = Runner("oracle-count", 0, workers).run("--self-test")
    share = result["failed"] / result["attempted"]
    print(f"self-test: failed_share {share:.4f} with one wrong expected value")
    for failure in result["failures"]:
        print(f"  caught: {failure}")
    return 0 if share > 0 else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if sys.flags.optimize:
        print("refusing to run under python -O: it strips the package's asserts", file=sys.stderr)
        return 2
    if not (SRC / "permpaths" / "__init__.py").is_file():
        print(f"no package source at {SRC}", file=sys.stderr)
        return 1
    workers = len(os.sched_getaffinity(0))
    if args.self_test:
        return self_test(workers)
    if args.workload is None:
        parser.error("--workload is required")

    runner = Runner(args.workload, args.seed, workers)
    try:
        if args.trace:
            metrics, passes = per_layer(runner)
        else:
            metrics, passes = end_to_end(runner, args.seconds)
    except WorkerError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    notes = metrics.pop("_notes")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "nproc": workers,
        "PERMPATHS_WORKERS": workers,
        "python": sys.version.split()[0],
        "numpy": passes[0]["numpy"],
        "optimize": sys.flags.optimize,
        "failed_share": failed / attempted,
        "failures": [f for p in passes for f in p["failures"]],
        **notes,
    }
    for name, m in metrics.items():
        print(f"{args.workload:20s} {name:32s} {m['value']:>16.6g} {m['unit']}")
    print(f"{args.workload:20s} {'failed_share':32s} {failed / attempted:>16.6g} ratio")
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
