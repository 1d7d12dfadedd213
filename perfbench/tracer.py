"""Layer spans for the traced pass, recorded from outside the package.

``Tracer.install`` wraps every public function of each layer module and
rebinds the wrapper in every ``permpaths`` module that holds the
function, so calls made through a name imported elsewhere (for example
``verify.count_perms`` or ``cli.count_occurrences``) land in the
callee's layer too.  A span is opened only where a call crosses from
one layer into another; calls inside a layer run unwrapped.  Each
resumption of a generator a layer returns is a span of that layer.

Spans stay in memory as flat arrays with parent ids and are reduced
once, at the end: a layer's self time is the length of its spans minus
the time covered by their child spans.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
import types
from array import array

import numpy as np

LAYERS = ("oracle", "permutations", "bijections", "formulas", "paths", "series", "verify", "cli")
ORACLE = LAYERS.index("oracle")
PERMUTATIONS = LAYERS.index("permutations")
_PARALLEL_MIN_N = 9  # n from which count_perms may split its scan across workers


class Tracer:
    def __init__(self, package: str = "permpaths") -> None:
        self.package = package
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.layer = array("b")
        self.is_call = array("b")
        self._stack = [-1]  # open span ids
        self._layers = [-1]  # layer of each open span
        self._undo: list[tuple[object, str, object]] = []
        self.oracle_cpu_s = 0.0
        self.count_rows = 0  # computed: rows the oracle's counting scans visit
        self.streamed_rows = 0  # counted: rows its generators handed out
        self.pool_calls = 0  # counts whose scan may be split across workers
        self.word_len_sum = 0
        self.word_len_n = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        holders = [
            m for name, m in sys.modules.items()
            if name == self.package or name.startswith(self.package + ".")
        ]
        for index, name in enumerate(LAYERS):
            module = sys.modules[f"{self.package}.{name}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(fn, index)
                for holder in holders:
                    for hattr, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, hattr, wrapped)
                            self._undo.append((holder, hattr, fn))

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._undo):
            setattr(holder, attr, fn)
        self._undo.clear()

    def _wrap(self, fn, layer: int):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._layers[-1] == layer:
                return fn(*args, **kwargs)
            if layer == PERMUTATIONS and args and hasattr(args[0], "__len__"):
                self.word_len_sum += len(args[0])
                self.word_len_n += 1
            elif layer == ORACLE:
                self._note_count(fn.__name__, args, kwargs)
            result = self._span(fn, layer, True, args, kwargs)
            if isinstance(result, types.GeneratorType):
                return self._resumptions(result, layer)
            return result

        return traced

    # -- spans --------------------------------------------------------------

    def _span(self, fn, layer: int, is_call: bool, args, kwargs):
        sid = len(self.start)
        self.parent.append(self._stack[-1])
        self.layer.append(layer)
        self.is_call.append(is_call)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        self._layers.append(layer)
        t0 = time.perf_counter()
        cpu0 = time.process_time() if layer == ORACLE else 0.0
        try:
            return fn(*args, **kwargs)
        finally:
            if layer == ORACLE:
                self.oracle_cpu_s += time.process_time() - cpu0
            self.end[sid] = time.perf_counter()
            self.start[sid] = t0
            self._stack.pop()
            self._layers.pop()

    def _resumptions(self, gen, layer: int):
        step = gen.__next__
        while True:
            try:
                if self._layers[-1] == layer:
                    item = step()
                else:
                    item = self._span(step, layer, False, (), {})
            except StopIteration:
                return
            if layer == ORACLE:
                self.streamed_rows += 1
            yield item

    def _note_count(self, name: str, args, kwargs) -> None:
        """Rows a counting call scans, computed from n and the allowed
        first letters the same way the scan partitions them."""
        if name == "oracle_count":
            family, n = args[0], args[1]
            conditions = sys.modules[f"{self.package}.oracle"].FAMILY_CONDITIONS.get(family, ())
        elif name == "count_perms":
            n = args[0]
            conditions = tuple(args[1] if len(args) > 1 else kwargs.get("conditions", ()))
        else:
            return
        firsts = set(range(1, n + 1))
        for c in conditions:
            kind = type(c).__name__
            if kind == "FirstEq":
                firsts &= {c.value}
            elif kind == "FirstGe":
                firsts &= set(range(c.value, n + 1))
        self.count_rows += len(firsts) * math.factorial(max(n - 1, 0))
        workers = kwargs.get("workers") or int(os.environ.get("PERMPATHS_WORKERS", "1"))
        if n >= _PARALLEL_MIN_N and workers > 1 and len(firsts) > 1:
            self.pool_calls += 1

    # -- reduction ----------------------------------------------------------

    def summary(self) -> dict:
        """Per layer: boundary calls, self seconds and inclusive seconds."""
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        layer = np.frombuffer(self.layer, dtype=np.int8)
        is_call = np.frombuffer(self.is_call, dtype=np.int8)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - covered
        out = {"spans": int(len(dur))}
        for index, name in enumerate(LAYERS):
            mine = layer == index
            out[name] = {
                "calls": int(is_call[mine].sum()),
                "self_s": float(own[mine].sum()),
                "total_s": float(dur[mine].sum()),
            }
        out["oracle"].update(
            own_cpu_s=self.oracle_cpu_s,
            rows_scanned=self.count_rows + self.streamed_rows,
            pool_calls=self.pool_calls,
        )
        out["permutations"]["word_len_mean"] = (
            self.word_len_sum / self.word_len_n if self.word_len_n else 0.0
        )
        return out
