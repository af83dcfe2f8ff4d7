"""Span tracing of noetherkit's public functions, installed from outside ``src/``.

Each wrapped function records a span (id, parent id, name, start, end) and,
for some functions, exact counts read from its return value.  A function is
replaced at every noetherkit module that holds it, so calls through
``cli.verify`` or ``conditions.is_zero`` are seen as well as direct ones.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time


def _is_zero(result, args, kwargs, counts):
    _add(counts, "normal.is_zero." + result.status.value)
    if result.samples:
        _add(counts, "normal.is_zero.sampled")


def _reduce(result, args, kwargs, counts):
    _add(counts, "solver.reduce.rows", result.matrix.rows)
    _add(counts, "solver.reduce.cols", result.matrix.cols)


def _traj(args, kwargs):
    return kwargs["traj"] if "traj" in kwargs else args[2]


COUNTERS = {
    "conditions.build_conditions":
        lambda r, a, k, c: _add(c, "conditions.build_conditions.equations", len(r.equations)),
    "normal.is_zero": _is_zero,
    "solver.reduce": _reduce,
    "solver.nullspace": lambda r, a, k, c: _add(c, "solver.nullspace.dim", r.nullspace_dim),
    "solver.contains": lambda r, a, k, c: _add(c, "solver.contains.in_span", int(bool(r))),
    "dynamics.integrate":
        lambda r, a, k, c: _add(c, "dynamics.integrate.steps", len(r.times) - 1),
    "dynamics.drift":
        lambda r, a, k, c: _add(c, "dynamics.drift.points", len(_traj(a, k).times)),
}
COUNT_NAMES = (
    "conditions.build_conditions.equations",
    "normal.is_zero.zero", "normal.is_zero.nonzero", "normal.is_zero.undecided",
    "normal.is_zero.sampled",
    "solver.reduce.rows", "solver.reduce.cols",
    "solver.nullspace.dim",
    "solver.contains.in_span",
    "dynamics.integrate.steps",
    "dynamics.drift.points",
)
TRACED = (
    "problem.load_problem",
    "conditions.build_conditions", "conditions.recover_boundary_terms",
    "conditions.verify",
    "normal.is_zero", "normal.normalize",
    "solver.instantiate", "solver.reduce", "solver.nullspace", "solver.contains",
    "geometry.solve_homothetic",
    "conservation.total_integral", "conservation.symbolic_drift",
    "conservation.accelerations",
    "dynamics.integrate", "dynamics.drift",
    "cli.main",
)


def _add(counts, name, n=1):
    counts[name] = counts.get(name, 0) + n


class Recorder:
    """In-memory spans and counts of one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append([sid, self._stack[-1] if self._stack else None, name,
                               time.perf_counter(), None])
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[sid][4] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(result, args, kwargs, self.counts)
            return result

        traced.__wrapped__ = fn
        return traced


def install(recorder: Recorder):
    """Wrap every TRACED function wherever noetherkit holds it; return an undo."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "noetherkit" or name.startswith("noetherkit.")]
    undo = []
    for qual in TRACED:
        mod_name, fn_name = qual.split(".")
        original = getattr(sys.modules[f"noetherkit.{mod_name}"], fn_name)
        traced = recorder.wrap(qual, original, COUNTERS.get(qual))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)
                    undo.append((mod, attr, original))

    def uninstall():
        for mod, attr, value in undo:
            setattr(mod, attr, value)

    return uninstall


def self_times(spans) -> dict[str, tuple[int, float]]:
    """name -> (calls, self seconds) from span records."""
    child = [0.0] * len(spans)
    for sid, parent, _, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[str, tuple[int, float]] = {}
    for sid, _, name, start, end in spans:
        calls, self_s = out.get(name, (0, 0.0))
        out[name] = (calls + 1, self_s + (end - start) - child[sid])
    return out
