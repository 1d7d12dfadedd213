"""The four workloads: seeded op cycles, the timed calls and the output
checks.

Every workload is a closed loop with one client: a cycle is a fixed
multiset of calls in a seeded order, and each call starts after the
previous one returned.  A fresh interpreter runs one cycle.  Only the time inside program calls is counted
as busy time; building inputs and checking outputs happen off the
clock.  Program functions are looked up on their module at call time,
so a tracer that rewraps them sees every call.

Times are quoted against a speed reference, a fixed pure-Python loop
(``speed_loop``).  The shared host slows down in bursts of up to a
second, by up to half, which a reference taken once a second tracks too
coarsely for single ops.  So every workload times a short probe of the
loop next to each op (on either side of it, or between rows for
cli-enumerate) and records the op in units of the loop's time there.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import random
import time
from array import array
from typing import Callable

import numpy as np

import inputs
from permpaths import bijections, cli, formulas, oracle, series, verify

# sizes (letters, or semilength for paths) of the bijection round trips
SIZES = (16, 24, 32, 48, 64)
# rounds of the same ops in one pass of bijection-roundtrip and of
# cli-enumerate; an op's latency is its fastest round
ROUNDTRIP_ROUNDS = 3
CLI_ROUNDS = 2
VERIFY_NMAX = 7
# cycles of inputs built at set-up; passes past the last reuse them
PREPARED_CYCLES = 8
# iterations of the speed reference loop, and of the short probe taken
# next to every op
CALIBRATION_LOOP = 200_000
PROBE_LOOP = 30_000
PROBE_EVERY_S = 0.05  # between probes while enumerate writes rows


class Tally:
    """What one pass measured."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0
        self.latencies = array("d")
        self.failures: list[str] = []
        self.by_size: dict[int, list[float]] = {}
        self.suite_s: dict[str, float] = {}
        self.first_row_s: list[float] = []
        self.rows = 0
        self.bytes = 0
        # busy time in units of the speed loop's time next to each op;
        # ``latencies`` are in those units too
        self.busy_loops = 0.0

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 5:
            self.failures.append(message)

    def op(self, latency: float, ok: bool, message: str) -> None:
        self.attempted += 1
        self.latencies.append(latency)
        if not ok:
            self.fail(message)


def speed_loop(iterations: int = CALIBRATION_LOOP) -> float:
    """Seconds for a fixed pure-Python loop: how fast the host runs
    interpreter code just now."""
    t0 = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i * i % 7
    return time.perf_counter() - t0


def _timed(fn: Callable, *args):
    """Run fn(*args); return (seconds, result, error message or None)."""
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as e:  # a raising op is a failed op, not a crash
        return time.perf_counter() - t0, None, f"{type(e).__name__}: {e}"
    return time.perf_counter() - t0, result, None


def _loop_s(before: float, after: float) -> float:
    """The speed loop's time, from probes taken before and after an op."""
    return (before + after) / 2 * (CALIBRATION_LOOP / PROBE_LOOP)


def _probed(fn: Callable, *args):
    """``_timed`` between two speed probes; return (seconds, seconds in
    units of the speed loop's time, result, error message or None)."""
    before = speed_loop(PROBE_LOOP)
    seconds, result, error = _timed(fn, *args)
    return seconds, seconds / _loop_s(before, speed_loop(PROBE_LOOP)), result, error


class Workload:
    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cycles = [
            self.build_cycle(random.Random(seed * 7919 + c), c) for c in range(PREPARED_CYCLES)
        ]

    def build_cycle(self, rng: random.Random, index: int) -> list:
        raise NotImplementedError

    def cycle(self, index: int) -> list:
        return self.cycles[index % len(self.cycles)]

    def run(self, call, tally: Tally) -> None:
        raise NotImplementedError

    def finish(self, tally: Tally) -> None:
        """Called once after the cycle's last op."""


# ---------------------------------------------------------------------------
# oracle-count


@dataclasses.dataclass(frozen=True)
class CountCall:
    """One oracle count and the closed form it must equal."""

    label: str
    count: Callable[[], int]
    expected: Callable[[], int]


def family_call(family: str, n: int) -> CountCall:
    return CountCall(
        f"{family} n={n}",
        lambda: oracle.oracle_count(family, n),
        lambda: formulas.count(family, n),
    )


def _filter_call(n: int, condition, constraint) -> CountCall:
    conditions = (oracle.PatternCount((3, 2, 1), 0), condition)
    return CountCall(
        f"321-avoiders {condition} n={n}",
        lambda: oracle.count_perms(n, conditions),
        lambda: formulas.count_avoider_class(n, constraint),
    )


def pooled_filters(n: int) -> list[CountCall]:
    """321-avoider filters that leave every first letter open, so the
    scan is split across the worker pool."""
    calls = []
    for m in range(2, n + 1):
        calls.append(_filter_call(n, oracle.OnePosGe(m), formulas.OneNotBeforePos(m)))
        calls.append(_filter_call(n, oracle.LastLe(m - 1), formulas.LastEntryLe(m - 1)))
        calls.append(
            _filter_call(n, oracle.MaxPosLe(m - 1), formulas.MaxNotAfterPosFromEnd(n + 2 - m))
        )
        calls.append(_filter_call(n, oracle.LastRunIncreasing(m), formulas.LastIIncreasing(m)))
    return calls


def serial_filters(n: int) -> list[CountCall]:
    """321-avoider filters fixing one first letter: one block, scanned
    in the calling process."""
    return [_filter_call(n, oracle.FirstEq(k), formulas.FirstEntryEq(k)) for k in range(1, n + 1)]


def _pattern_conditions(family: str) -> int:
    return sum(isinstance(c, oracle.PatternCount) for c in oracle.FAMILY_CONDITIONS[family])


class OracleCount(Workload):
    """Per cycle: half of the families at n = 9, the other half in the
    next cycle; two families at n = 10, one with one pattern-count
    condition and one with two, which cost differently; one pooled and
    eight serial 321-avoider filters at n = 10.

    Two cycles make 34 ops.  The ten slowest are the n = 10 families,
    the pooled filters and four serial filters, so both the median and
    the tail fall among the sixteen serial scans, which cost the same,
    rather than on the boundary between two kinds of op.
    """

    name = "oracle-count"

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        families = list(oracle.FAMILY_CONDITIONS)
        self._n9 = list(families)
        self._strata = [
            [f for f in families if _pattern_conditions(f) == 1],
            [f for f in families if _pattern_conditions(f) == 2],
        ]
        self._pooled = pooled_filters(10)
        self._serial = serial_filters(10)
        for group in (self._n9, *self._strata, self._pooled, self._serial):
            rng.shuffle(group)
        super().__init__(seed)

    def build_cycle(self, rng: random.Random, c: int) -> list[CountCall]:
        half = len(self._n9) // 2
        calls = [family_call(f, 9) for f in self._n9[(c % 2) * half:][:half]]
        calls += [family_call(group[c % len(group)], 10) for group in self._strata]
        calls.append(self._pooled[c % len(self._pooled)])
        calls += [self._serial[(8 * c + i) % len(self._serial)] for i in range(8)]
        rng.shuffle(calls)
        return calls

    def run(self, call: CountCall, tally: Tally) -> None:
        seconds, loops, got, error = _probed(call.count)
        tally.busy_s += seconds
        tally.busy_loops += loops
        if error is None:
            want = call.expected()
            error = None if got == want else f"{call.label}: oracle {got}, closed form {want}"
        tally.op(loops, error is None, error or "")


# ---------------------------------------------------------------------------
# verify-battery


class VerifyBattery(Workload):
    """Per cycle: run_suite(suite, 7) for each of the four suites.

    verify keeps its checks in the registry ``verify._CHECKS``; each
    entry is timed and probed from here so that one check is one op.
    """

    name = "verify-battery"

    def __init__(self, seed: int) -> None:
        registry = getattr(verify, "_CHECKS", None)
        if not isinstance(registry, dict) or set(registry) != set(verify.SUITE_NAMES):
            raise RuntimeError("verify._CHECKS no longer lists the suites; update perfbench")
        self._expected = {suite: len(entries) for suite, entries in registry.items()}
        self._check_s: list[tuple[float, float]] = []  # (seconds, loops)
        for entries in registry.values():
            entries[:] = [(name, self._clocked(check)) for name, check in entries]
        super().__init__(seed)

    def _clocked(self, check):
        def clocked(nmax):
            before = speed_loop(PROBE_LOOP)
            t0 = time.perf_counter()
            try:
                return check(nmax)
            finally:
                seconds = time.perf_counter() - t0
                loop_s = _loop_s(before, speed_loop(PROBE_LOOP))
                self._check_s.append((seconds, seconds / loop_s))

        return clocked

    def build_cycle(self, rng: random.Random, index: int) -> list[str]:
        # The order of ``verify --suite all``.  The seed does not reorder
        # it: the suites share lru_caches, so the order decides which
        # check pays for filling them.
        return list(verify.SUITE_NAMES)

    def run(self, suite: str, tally: Tally) -> None:
        self._check_s.clear()
        _, results, error = _timed(verify.run_suite, suite, VERIFY_NMAX)
        # busy time is the checks' own time, without the probes
        seconds = sum(s for s, _ in self._check_s)
        tally.busy_s += seconds
        tally.busy_loops += sum(loops for _, loops in self._check_s)
        tally.suite_s[suite] = tally.suite_s.get(suite, 0.0) + seconds
        expected = self._expected[suite]
        if error is not None:
            tally.attempted += expected
            tally.fail(f"{suite}: {error}", expected)
            return
        for result, (_, loops) in zip(results, self._check_s):
            tally.op(loops, result.passed, f"{suite}/{result.name}: {result.detail}")
        if len(results) != expected or len(self._check_s) != expected:
            missing = max(expected - len(results), 0)
            tally.attempted += missing
            tally.fail(f"{suite}: {len(results)} results for {expected} checks", max(missing, 1))


# ---------------------------------------------------------------------------
# bijection-roundtrip


def _records(p):
    return bijections.dyck_to_records(bijections.records_to_dyck(p)) == p


def _returns(arg):
    path, j = arg
    return bijections.insert_returns(bijections.delete_returns(path), j) == path


def _transfer(arg):
    d, i = arg
    return bijections.transfer_upsteps_inverse(bijections.transfer_upsteps(d, i), i) == d


def _rotation(arg):
    p, i = arg
    return bijections.tail_rotate_inverse(bijections.tail_rotate(p, i), i) == p


def _one132(p):
    return bijections.join_one132(*bijections.split_one132(p)) == p


def _one321(p):
    return bijections.join_one321(*bijections.split_one321(p)) == p


def _two321_shared(p):
    return bijections.join_two321_shared(*bijections.split_two321_shared(p)) == p


def _two321_distinct(p):
    return bijections.join_two321_distinct(*bijections.split_two321_distinct(p)) == p


def _returns_input(rng: random.Random, n: int):
    path = inputs.dyck_path(rng, n) + "U" * rng.randint(0, 3)
    return path, inputs.returns(path)


# pair name -> (input generator, forward-then-inverse round trip)
PAIRS = {
    "records": (inputs.avoider321, _records),
    "returns": (_returns_input, _returns),
    "transfer": (inputs.transfer_input, _transfer),
    "tail-rotation": (inputs.rotation_input, _rotation),
    "one-132": (inputs.one132, _one132),
    "one-321": (lambda rng, n: inputs.with_321s(rng, n, "one"), _one321),
    "two-321-shared": (lambda rng, n: inputs.with_321s(rng, n, "shared"), _two321_shared),
    "two-321-distinct": (lambda rng, n: inputs.with_321s(rng, n, "distinct"), _two321_distinct),
}


class BijectionRoundtrip(Workload):
    """Per cycle: every pair once at every size, on fresh seeded inputs,
    run in ROUNDTRIP_ROUNDS rounds over the same shuffled list.

    Every round is probed, and an op's latency is its fastest round in
    loop units, as ``timeit`` reports a best of several.  The bijections
    keep no cache, so every round does the same work; a round takes over
    a second, so a slow burst of the host rarely covers all three.
    Every round's output is checked; a failing op counts once.
    """

    name = "bijection-roundtrip"

    def __init__(self, seed: int) -> None:
        self._ops: dict[int, tuple[str, int]] = {}
        self._best_s: dict[int, float] = {}  # raw seconds, for per-layer times
        self._best_loops: dict[int, float] = {}
        self._errors: dict[int, str] = {}
        super().__init__(seed)

    def build_cycle(self, rng: random.Random, index: int) -> list:
        calls = [
            (pair, n, make(rng, n), roundtrip)
            for pair, (make, roundtrip) in PAIRS.items()
            for n in SIZES
        ]
        rng.shuffle(calls)
        return [(i, *call) for i, call in enumerate(calls)] * ROUNDTRIP_ROUNDS

    def run(self, call, tally: Tally) -> None:
        i, pair, n, arg, roundtrip = call
        seconds, loops, ok, error = _probed(roundtrip, arg)
        self._ops[i] = (pair, n)
        self._best_s[i] = min(seconds, self._best_s.get(i, math.inf))
        self._best_loops[i] = min(loops, self._best_loops.get(i, math.inf))
        if (error or not ok) and i not in self._errors:
            self._errors[i] = error or f"{pair} n={n}: round trip changed {arg!r}"

    def finish(self, tally: Tally) -> None:
        for i, (pair, n) in self._ops.items():
            tally.busy_s += self._best_s[i]
            tally.busy_loops += self._best_loops[i]
            tally.by_size.setdefault(n, []).append(self._best_s[i])
            tally.op(self._best_loops[i], i not in self._errors, self._errors.get(i, ""))
        for record in (self._ops, self._best_s, self._best_loops, self._errors):
            record.clear()


# ---------------------------------------------------------------------------
# cli-enumerate


class RowSink:
    """In-memory stdout for ``cli.main``: keeps the bytes written and the
    time each row was completed.

    Every PROBE_EVERY_S, after a row, it times a speed probe, noting how
    many rows came before it; ``clock`` leaves the probes' own time out.
    """

    def __init__(self) -> None:
        self.data = bytearray()
        self.times = array("d")
        self.probe_rows = array("d")
        self.probe_loop_s = array("d")
        self.paused = 0.0
        self.probe()

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def probe(self) -> None:
        start = time.perf_counter()
        loop_s = speed_loop(PROBE_LOOP) * (CALIBRATION_LOOP / PROBE_LOOP)
        if self.probe_rows and self.probe_rows[-1] == len(self.times):
            self.probe_loop_s[-1] = (self.probe_loop_s[-1] + loop_s) / 2
        else:
            self.probe_rows.append(len(self.times))
            self.probe_loop_s.append(loop_s)
        self.last_probe = time.perf_counter()
        self.paused += self.last_probe - start

    def row_loop_s(self) -> np.ndarray:
        """The speed loop's time at each row, between the probes around it."""
        rows = np.arange(1, len(self.times) + 1) - 0.5
        return np.interp(rows, self.probe_rows, self.probe_loop_s)

    def write(self, text: str) -> int:
        self.data += text.encode()
        if "\n" in text:
            self.times.extend([self.clock()] * text.count("\n"))
            if time.perf_counter() - self.last_probe >= PROBE_EVERY_S:
                self.probe()
        return len(text)

    def flush(self) -> None:
        pass


def _perm_rows_bad(data: bytes, n: int) -> tuple[int, int]:
    """(rows, rows that are not permutations of [n] with exactly one 321
    or do not come strictly after the previous row)."""
    rows = data.decode().splitlines()
    bad = 0
    previous: tuple[int, ...] = ()
    full = list(range(1, n + 1))
    for row in rows:
        p = tuple(int(v) for v in row.split())
        ones = sum(
            sum(1 for a in p[:j] if a > b) * sum(1 for c in p[j + 1:] if c < b)
            for j, b in enumerate(p)
        )
        bad += sorted(p) != full or ones != 1 or p <= previous
        previous = p
    return len(rows), bad


def _dyck_rows_bad(data: bytes, n: int, height: int) -> tuple[int, int]:
    """(rows, rows that are not Dyck n-paths of height <= ``height`` or
    do not come strictly after the previous row, 'D' < 'U')."""
    width = 2 * n + 1
    if len(data) % width:
        rows = data.count(b"\n")
        return rows, rows
    grid = np.frombuffer(bytes(data), dtype=np.uint8).reshape(-1, width)
    steps = grid[:, :-1]
    walk = np.cumsum((steps == ord("U")).astype(np.int8) * 2 - 1, axis=1, dtype=np.int8)
    bad = (grid[:, -1] != ord("\n")) | ~np.isin(steps, (ord("U"), ord("D"))).all(axis=1)
    bad |= (walk.min(axis=1) < 0) | (walk[:, -1] != 0) | (walk.max(axis=1) > height)
    keys = np.frombuffer(bytes(data), dtype=f"S{width}")
    out_of_order = int((keys[1:] <= keys[:-1]).sum())
    return len(grid), int(bad.sum()) + out_of_order


@dataclasses.dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    expected_rows: int
    rows_bad: Callable[[bytes], tuple[int, int]]


class CliEnumerate(Workload):
    """Per cycle: both enumerate commands in a seeded order, run in
    CLI_ROUNDS rounds.

    Each command writes the same rows in every round.  A command runs
    for a second or more, so the sink probes the host's speed as rows
    come out, and each row's gap is taken in units of the speed loop's
    time there.  A command's rows are timed in its fastest round, as
    ``timeit`` reports a best of several.  Every round's output is
    checked; a failing command counts its rows once.
    """

    name = "cli-enumerate"

    def __init__(self, seed: int) -> None:
        self._commands = [
            Command(
                ("enumerate", "--n", "8", "--filter", "pattern(3 2 1)==1"),
                formulas.count("p321-1", 8),
                lambda data: _perm_rows_bad(data, 8),
            ),
            Command(
                ("enumerate", "--kind", "dyck", "--n", "12", "--filter", "height<=5"),
                series.bounded_height_count(12, 5),
                lambda data: _dyck_rows_bad(data, 12, 5),
            ),
        ]
        # per command: fastest round (seconds, loops), the gap before each
        # row in it in loops, rows and bytes of a round, first failure
        self._best: dict[tuple[str, ...], tuple[float, float]] = {}
        self._gaps: dict[tuple[str, ...], np.ndarray] = {}
        self._output: dict[tuple[str, ...], tuple[int, int]] = {}
        self._failure: dict[tuple[str, ...], tuple[str, int]] = {}
        super().__init__(seed)

    def build_cycle(self, rng: random.Random, index: int) -> list[Command]:
        commands = list(self._commands)
        rng.shuffle(commands)
        return commands * CLI_ROUNDS

    def run(self, command: Command, tally: Tally) -> None:
        sink = RowSink()
        paused, t0 = sink.paused, sink.clock()
        with contextlib.redirect_stdout(sink):
            seconds, code, error = _timed(cli.main, list(command.argv))
        seconds -= sink.paused - paused
        sink.probe()
        times = np.frombuffer(sink.times, dtype=np.float64)
        if len(times):
            tally.first_row_s.append(times[0] - t0)
        gaps = np.diff(times, prepend=t0) / sink.row_loop_s()
        key = command.argv
        loops = float(gaps.sum())
        if loops < self._best.get(key, (math.inf, math.inf))[1]:
            self._best[key] = (seconds, loops)
            self._gaps[key] = gaps
        rows, bad = command.rows_bad(sink.data)
        self._output[key] = (rows, len(sink.data))
        label = " ".join(command.argv)
        if key in self._failure:
            return
        if error is not None or code != 0:
            self._failure[key] = (f"{label}: exit {code} {error or ''}", max(command.expected_rows, 1))
        elif bad or rows != command.expected_rows:
            self._failure[key] = (
                f"{label}: {rows} rows for {command.expected_rows}, {bad} out of class or order",
                bad + abs(rows - command.expected_rows),
            )

    def finish(self, tally: Tally) -> None:
        for command in self._commands:
            key = command.argv
            if key not in self._best:
                continue
            seconds, loops = self._best[key]
            tally.busy_s += seconds
            tally.busy_loops += loops
            tally.latencies.frombytes(self._gaps[key].tobytes())
            rows, size = self._output[key]
            tally.rows += rows
            tally.bytes += size
            tally.attempted += max(rows, command.expected_rows)
            if key in self._failure:
                tally.fail(*self._failure[key])
        for record in (self._best, self._gaps, self._output, self._failure):
            record.clear()


WORKLOADS = {w.name: w for w in (OracleCount, VerifyBattery, BijectionRoundtrip, CliEnumerate)}
