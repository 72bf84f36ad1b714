"""Span tracer that wraps the package's public functions from outside.

The traced run rebinds each function in PATCHES where its caller looks it
up, so no file of the package changes. Every request opens a root span;
spans opened inside it carry the request id and their parent's span id
while open. When a span closes it is folded into an aggregate keyed by the
request kind and the path of span names from the request down to it
(calls, total time, self time). Memory therefore stays bounded by the
number of distinct call paths, however cheap and numerous the calls get.
Only the request spans themselves are kept one by one.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

#: (module, attribute, span name). The module is where the caller looks the
#: name up: physics functions are called through ``kljnsim.protocol``.
PATCHES = (
    ("kljnsim.protocol", "run_bit_period", "protocol.period"),
    ("kljnsim.protocol", "synthesize_period", "protocol.synthesize"),
    ("kljnsim.protocol", "sample_bandlimited_gaussian", "physics.sample"),
    ("kljnsim.protocol", "solve_loop", "physics.solve_loop"),
    ("kljnsim.protocol", "monitor_endpoints", "protocol.monitor"),
    ("kljnsim.protocol", "measure_period", "protocol.measure"),
    ("kljnsim.adversary", "synthesize_period", "adversary.synthesize"),
    ("kljnsim.adversary", "apply_injection", "adversary.apply_injection"),
    ("kljnsim.adversary", "monitor_endpoints", "adversary.monitor"),
    ("kljnsim.adversary", "passive_guess", "adversary.passive_guess"),
    ("kljnsim.vanet", "run_scenario", "vanet.run_scenario"),
    ("kljnsim.vanet", "build_topology", "vanet.build_topology"),
    ("kljnsim.cli", "main", "cli.main"),
)


class _Span:
    __slots__ = ("id", "request", "parent", "name", "start", "child_s")

    def __init__(self, span_id, name, parent: "_Span | None"):
        self.id = span_id
        self.request = parent.request if parent else span_id
        self.parent = parent.id if parent else None
        self.name = name
        self.child_s = 0.0
        self.start = time.perf_counter()


class Tracer:
    """Collects request spans and per-path aggregates of the spans inside."""

    def __init__(self):
        self._stack: list[_Span] = []
        self._next_id = 0
        #: (request kind, path of span names) -> [calls, total_s, self_s]
        self.paths: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0])
        #: (request id, kind, start, end) per finished request
        self.requests: list[tuple] = []
        #: counters filled by result hooks
        self.counters: dict[str, float] = defaultdict(float)
        self._originals: list[tuple] = []
        self.missing: set[str] = set()

    def _open(self, name: str) -> _Span:
        span = _Span(self._next_id, name, self._stack[-1] if self._stack else None)
        self._next_id += 1
        self._stack.append(span)
        return span

    def _close(self) -> float:
        span = self._stack.pop()
        duration = time.perf_counter() - span.start
        if self._stack:
            self._stack[-1].child_s += duration
        return duration

    @contextmanager
    def request(self, kind: str):
        """Root span of one request; spans opened inside share its id."""
        span = self._open(kind)
        try:
            yield
        finally:
            duration = self._close()
            self.requests.append((span.id, kind, span.start, span.start + duration))

    def wrap(self, name: str, fn, hook=None):
        """Return ``fn`` recording a span named ``name`` inside requests."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self._close()
                path = tuple(s.name for s in self._stack[1:]) + (name,)
                agg = self.paths[(self._stack[0].name, path)]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - span.child_s
            if hook is not None:
                hook(self, args, result, duration)
            return result

        return traced

    def install(self, hooks=None) -> None:
        """Rebind every name in PATCHES; a name that no longer exists is
        recorded in ``missing`` and simply reports zero calls."""
        hooks = hooks or {}
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.add(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, hooks.get(name)))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    # -- queries ---------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(a[0] for (_, path), a in self.paths.items() if path[-1] == name)

    def total_s(self, name: str) -> float:
        return sum(a[1] for (_, path), a in self.paths.items() if path[-1] == name)

    def mean_us(self, name: str) -> float:
        calls = self.calls(name)
        return 1e6 * self.total_s(name) / calls if calls else 0.0

    def total_inside_s(self, outer: str, names, direct: bool = False) -> float:
        """Time spent in spans named in ``names`` below spans named ``outer``
        (only direct children when ``direct``)."""
        total = 0.0
        for (_, path), agg in self.paths.items():
            if path[-1] not in names or outer not in path[:-1]:
                continue
            if direct and path[-2] != outer:
                continue
            total += agg[1]
        return total
