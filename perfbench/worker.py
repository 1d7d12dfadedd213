"""One pass in a fresh interpreter; started by run.py.

The worker imports the package, builds the seeded inputs and prints
``ready``; run.py times that as set-up.  It then runs one cycle of its
workload, ``--cycle`` picking which, and prints one JSON line with what
the pass measured.  Before, after and every second or so between ops
it times a fixed pure-Python loop, the speed reference, which run.py
scales set-up time by.  Op latencies and busy time come from the
workload in units of that loop's time, probed next to each op.

``--probe`` stops after ``ready`` and the speed reference.  ``--trace``
records layer spans during the cycle.  ``--self-test`` runs a few small
oracle counts with one wrong expected value, to show that the checks
catch it.
"""

from __future__ import annotations

import argparse
import base64
import json
import resource
import statistics
import sys
import time

CALIBRATE_EVERY_S = 1.0  # between ops, so the reference follows the host's drift


def calibrate(samples: list[float], repeats: int = 3) -> None:
    """Time the speed reference loop, the pass's speed reference."""
    from workloads import speed_loop

    samples.extend(speed_loop() for _ in range(repeats))


def self_test() -> dict:
    """Give the oracle-count checker one wrong expected value."""
    import dataclasses

    import workloads
    from permpaths import oracle

    tally = workloads.Tally()
    workload = workloads.OracleCount(0)
    for i, family in enumerate(oracle.FAMILY_CONDITIONS):
        call = workloads.family_call(family, 7)
        if i == 0:
            right = call.expected
            call = dataclasses.replace(call, expected=lambda: right() + 1)
        workload.run(call, tally)
    return {"attempted": tally.attempted, "failed": tally.failed, "failures": tally.failures}


def median(values) -> float:
    return statistics.median(values) if len(values) else 0.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cycle", type=int, default=0)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if sys.flags.optimize:
        print("refusing to run under python -O: it strips the package's asserts", file=sys.stderr)
        return 2

    import numpy

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    cal: list[float] = []
    calibrate(cal)
    if args.probe:
        print(json.dumps({"calibration_s": median(cal)}))
        return 0
    if args.self_test:
        print(json.dumps(self_test()))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    tally = workloads.Tally()
    children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    last = time.perf_counter()
    for call in workload.cycle(args.cycle):
        workload.run(call, tally)
        if time.perf_counter() - last >= CALIBRATE_EVERY_S:
            calibrate(cal)
            last = time.perf_counter()
    workload.finish(tally)
    if tracer is not None:
        tracer.uninstall()
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    own = resource.getrusage(resource.RUSAGE_SELF)
    calibrate(cal)

    result = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "busy_s": tally.busy_s,
        "calibration_s": median(cal),
        # busy time and op latencies in units of the speed loop's time
        "busy_loops": tally.busy_loops,
        "latencies_loops": base64.b64encode(tally.latencies.tobytes()).decode(),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": max(own.ru_maxrss, children.ru_maxrss) / 1024,
        "child_cpu_s": (children.ru_utime + children.ru_stime)
        - (children0.ru_utime + children0.ru_stime),
        "numpy": numpy.__version__,
        "by_size_s": {str(n): median(v) for n, v in sorted(tally.by_size.items())},
        "suite_s": tally.suite_s,
        "first_row_ms": median(tally.first_row_s) * 1e3,
        "rows": tally.rows,
        "bytes": tally.bytes,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
