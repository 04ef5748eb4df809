"""Outside-in span tracer for the sortcycles package.

The tracer replaces each layer's public functions with timing wrappers at
every binding site inside the package: the defining module's attribute and
every name another module brought in with ``from ... import``.  Calls between
layers (``dynamics`` -> ``solve_static``) are therefore seen without editing
the package.  ``uninstall`` puts every original back.

Spans are aggregated in memory rather than stored one by one: per name, the
call count, total time and self time (total minus the time of the spans it
directly caused).  Each thread keeps its own span stack and its own tables,
so work done in a worker thread is never subtracted from a span on another
thread and self time cannot go negative.  Times are integer nanoseconds, so
the subtraction is exact.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    def __init__(self, counters=None):
        # span name -> (counter name, fn(result) -> amount), applied after each call
        self.counters = dict(counters or {})
        self.wrapped: set[str] = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[tuple[list, dict, dict]] = []
        self._patches: list[tuple[object, str, object]] = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            # (stack of child-time cells, span name -> [calls, total_ns, self_ns], counters)
            state = ([], {}, {})
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    @staticmethod
    def _close(state, name, cell, elapsed):
        stack, spans, _ = state
        stack.pop()
        if stack:
            stack[-1][0] += elapsed
        row = spans.get(name)
        if row is None:
            row = spans[name] = [0, 0, 0]
        row[0] += 1
        row[1] += elapsed
        row[2] += elapsed - cell[0]

    @contextmanager
    def span(self, name: str):
        state = self._state()
        cell = [0]
        state[0].append(cell)
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            self._close(state, name, cell, perf_counter_ns() - t0)

    def _wrap(self, name, fn):
        counter = self.counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._state()
            cell = [0]
            state[0].append(cell)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(state, name, cell, perf_counter_ns() - t0)
            if counter is not None:
                key, amount = counter
                state[2][key] = state[2].get(key, 0) + amount(result)
            return result

        return traced

    def add(self, key: str, amount) -> None:
        """Add to a counter of the calling thread."""
        counters = self._state()[2]
        counters[key] = counters.get(key, 0) + amount

    def install(self, package: str, layers: tuple[str, ...]) -> None:
        """Wrap the public functions of ``package.<layer>`` for each layer.

        A public function is a name without a leading underscore whose value
        is a function defined in that module, aliases such as
        ``kernels.time_iteration`` included.  Every name in the package bound
        to such a function, private aliases too, is rebound to its wrapper.
        Layers that are not loaded are skipped.
        """
        wrappers = {}
        for layer in layers:
            mod = sys.modules.get(f"{package}.{layer}")
            if mod is None:
                continue
            for attr, value in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == mod.__name__ and id(value) not in wrappers):
                    name = f"{layer}.{attr}"
                    wrappers[id(value)] = self._wrap(name, value)
                    self.wrapped.add(name)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def spans(self) -> dict[str, dict[str, float]]:
        """Span name -> {calls, total_s, self_s}, merged across threads."""
        merged: dict[str, list[int]] = {}
        with self._lock:
            states = list(self._states)
        for _, spans, _ in states:
            for name, values in spans.items():
                row = merged.setdefault(name, [0, 0, 0])
                for i, v in enumerate(values):
                    row[i] += v
        return {name: {"calls": c, "total_s": t * 1e-9, "self_s": s * 1e-9}
                for name, (c, t, s) in merged.items()}

    def counts(self) -> dict[str, float]:
        """Counter name -> sum across threads."""
        merged: dict[str, float] = {}
        with self._lock:
            states = list(self._states)
        for _, _, counters in states:
            for key, v in counters.items():
                merged[key] = merged.get(key, 0) + v
        return merged
