"""Span tracing of eqflow from outside the package.

The tracer replaces module-level names that ``eqflow.cli`` and
``eqflow.flow.run`` look up at call time with wrappers that record a
call count and the self time of each call: its duration minus the time
covered by the traced calls it made.  Spans are kept in memory as
per-name totals.  A name missing from the package is skipped, so the
metrics built on it are absent instead of the benchmark failing.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

# (module, attribute, span).  Methods are given as "Class.method".
TARGETS = (
    ("eqflow.cli", "cmd_run", "cli.run"),
    ("eqflow.cli", "load_config", "config.load"),
    ("eqflow.config", "RunConfig.build_space", "config.load"),
    ("eqflow.config", "RunConfig.build_initial", "config.load"),
    ("eqflow.flow", "run", "flow.run"),
    ("eqflow.flow", "_light_eval", "flow.eval"),
    ("eqflow.flow", "_full_eval", "flow.eval"),
    ("eqflow.flow", "_imex_update", "flow.solve"),
    ("eqflow.flow", "run_monitors", "bounds.monitor"),
    ("eqflow.flow", "compute_bound_set", "bounds.freeze"),
    ("eqflow.bounds", "radial_measure_inverse", "ambient.inverse"),
)


class Tracer:
    """Installs the wrappers; ``take()`` returns and resets the totals.

    Every installed span appears in the totals, with zero calls if it
    was not entered.  ``clock`` times the spans.
    """

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.update_attempts = 0
        self._stack: list[float] = []
        self._last_full = None
        self._spans: set[str] = set()

    def install(self) -> None:
        for module, attr, span in TARGETS:
            try:
                owner = importlib.import_module(module)
            except ModuleNotFoundError:
                continue
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, name, None)
            if fn is None:
                continue
            setattr(owner, name, self._wrap(fn, span, attr))
            self._spans.add(span)
        self.take()

    def take(self) -> dict:
        out = {"calls": self.calls, "self_s": self.self_s,
               "update_attempts": self.update_attempts}
        self.calls = dict.fromkeys(self._spans, 0)
        self.self_s = dict.fromkeys(self._spans, 0.0)
        self.update_attempts = 0
        self._last_full = None
        return out

    def _wrap(self, fn, span: str, attr: str):
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if attr == "_imex_update" and len(args) > 1 \
                    and args[1] is self._last_full:
                # Both trial updates of a step attempt (full and first
                # half step) start from the last fully evaluated state.
                self.update_attempts += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                inner = stack.pop()
                self.calls[span] += 1
                self.self_s[span] += took - inner
                if stack:
                    stack[-1] += took
            if attr == "_full_eval":
                self._last_full = result
            return result

        return traced
