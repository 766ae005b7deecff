"""Spans around the public functions of each sfos layer, installed from outside.

Nothing under ``src/`` knows about tracing.  :class:`Tracer` wraps every
public module-level function of the layer modules and rebinds the wrapper
at every import site -- any module attribute, in ``sfos`` or in the
benchmark, that refers to the original function -- because modules such as
``sfos.synthesis`` bind ``solve_feasibility`` by name.  Spans (name, layer,
start, end, parent, operation) stay in memory until the run writes them
out.  A layer's self time is the time its spans cover minus the part their
child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time

LAYERS = ("lmi", "synthesis", "lifting", "descriptor", "simulator", "cli", "fpdm")


def _annotations(qualname, result):
    """Counts read off a traced call's result."""
    if qualname == "lmi.solve_feasibility":
        return {"status": result.status, "newton_steps": result.newton_steps}
    if qualname == "simulator.simulate":
        return {"steps": len(result.times) - 1}
    if qualname in ("synthesis.synth_observer", "synthesis.synth_output_feedback"):
        return {"marginal": sum(c.status == "Marginal"
                                for c in result.certificates.values())}
    return None


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op", "info")

    def __init__(self, name, layer, start, parent, op):
        self.name, self.layer, self.start = name, layer, start
        self.parent, self.op = parent, op
        self.end = None
        self.info = None

    @property
    def duration(self):
        return self.end - self.start

    def to_dict(self):
        return {"name": self.name, "layer": self.layer, "start": self.start,
                "end": self.end, "parent": self.parent, "op": self.op,
                **(self.info or {})}


class Tracer:
    """Context manager that installs the wrappers and removes them on exit."""

    def __init__(self, extra_modules=()):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = None
        self._extra = list(extra_modules)
        self._rebound: list[tuple] = []    # (module, attribute, original)

    # -- spans ---------------------------------------------------------------

    def _open(self, name, layer):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, time.perf_counter(), parent, self._op))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def operation(self, op_name):
        """Root span of one benchmark operation; layer spans nest under it."""
        self._op = op_name
        span = self._open(op_name, "bench")
        try:
            yield span
        finally:
            self._close(span)
            self._op = None

    def _wrap(self, fn, layer):
        qualname = f"{layer}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(qualname, layer)
            try:
                result = fn(*args, **kwargs)
                span.info = _annotations(qualname, result)
                return result
            finally:
                self._close(span)
        return traced

    # -- installation --------------------------------------------------------

    def __enter__(self):
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"sfos.{layer}"]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(obj, layer))
        sites = [m for name, m in list(sys.modules.items())
                 if name == "sfos" or name.startswith("sfos.")] + self._extra
        for module in sites:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._rebound.append((module, attr, value))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()
        return False


def self_times(spans):
    """Self time of each span: its duration minus its children's."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own
