"""Span tracing for the benchmark, applied from outside the program.

``Tracer.install`` replaces every public function of the afq layer
modules with a wrapper that records a span (name, start, end, parent
span, op id) while recording is on. References held elsewhere in the
package (``from .explorer import sweep`` in ``cli``, the ``ALL_CHECKS``
tuple, the ``COMMANDS`` dict) are replaced too, so calls made inside
the program are traced as well. Spans stay in memory until the caller
writes them out. afq itself carries no instrumentation.

A few boundaries also record counts as span attributes (grid points,
CSV rows and bytes, probe points, exit codes), so ratios are measured
where the work happens.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time

LAYERS = ("potential", "cantilever", "spectrum", "explorer", "oracle",
          "cqad", "config", "cli", "validate")


def _sweep_before(attrs, args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    attrs["points"] = len(spec.lengths) * len(spec.gaps_over_sigma)


def _sweep_after(attrs, args, out):
    attrs["ok_points"] = int((out.flag == 0).sum())


def _emit_csv_before(attrs, args, kwargs):
    attrs["rows"] = len(args[1])
    attrs["pos0"] = args[2].tell()


def _emit_csv_after(attrs, args, out):
    attrs["bytes"] = args[2].tell() - attrs.pop("pos0")


def _emit_before(attrs, args, kwargs):
    payload = args[4] if len(args) > 4 else kwargs.get("csv_payload")
    attrs["json"] = not (args[1] == "csv" and payload is not None)


def _main_after(attrs, args, out):
    attrs["rc"] = out


def _response_before(attrs, args, kwargs):
    grid = args[1] if len(args) > 1 else kwargs["omega_grid"]
    attrs["probe_points"] = len(grid)


# name -> (before(attrs, args, kwargs), after(attrs, args, result))
HOOKS = {
    "explorer.sweep": (_sweep_before, _sweep_after),
    "cli.emit_csv": (_emit_csv_before, _emit_csv_after),
    "cli.emit": (_emit_before, None),
    "cli.main": (None, _main_after),
    "cqad.frequency_response": (_response_before, None),
}


class Tracer:
    """Collects spans in memory; ``recording`` gates every wrapper."""

    def __init__(self):
        self.spans = []          # dicts: id, parent, op, name, t0, t1, attrs
        self.recording = False
        self.op = None
        self._stack = []
        self._restore = []       # (owner, attribute, original value)

    # -- span bookkeeping -------------------------------------------------
    def _open(self, name):
        span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack
                else None, "op": self.op, "name": name,
                "t0": time.perf_counter_ns(), "t1": None, "attrs": {}}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span):
        span["t1"] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name, op=None):
        """Span opened by the harness itself, e.g. one per operation."""
        if op is not None:
            self.op = op
        if not self.recording:
            yield None
            return
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    @contextlib.contextmanager
    def paused(self):
        """Run harness-side reference computations untraced."""
        was, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = was

    # -- patching ---------------------------------------------------------
    def _wrap(self, name, fn):
        tracer = self
        before, after = HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                if before is not None:
                    before(span["attrs"], args, kwargs)
                out = fn(*args, **kwargs)
                if after is not None:
                    after(span["attrs"], args, out)
                return out
            except BaseException as exc:
                span["attrs"]["error"] = type(exc).__name__
                raise
            finally:
                tracer._close(span)

        return traced

    def install(self):
        """Wrap the public functions of every afq layer module."""
        modules = {name: importlib.import_module(f"afq.{name}")
                   for name in LAYERS}
        modules["afq"] = importlib.import_module("afq")
        wrapped = {}             # id(original) -> wrapper
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                new = self._replacement(obj, wrapped)
                if new is not obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, new)
        return len(wrapped)

    @staticmethod
    def _replacement(obj, wrapped):
        if id(obj) in wrapped and inspect.isfunction(obj):
            return wrapped[id(obj)]
        if isinstance(obj, tuple) and any(id(v) in wrapped for v in obj):
            return tuple(wrapped.get(id(v), v) for v in obj)
        if isinstance(obj, dict) and any(id(v) in wrapped
                                         for v in obj.values()):
            return {k: wrapped.get(id(v), v) for k, v in obj.items()}
        return obj

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def self_times(spans):
    """Per-span self time in ns: duration minus its direct children."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0) + s["t1"] - s["t0"]
    return {s["id"]: s["t1"] - s["t0"] - child.get(s["id"], 0) for s in spans}


def graft(spans, child_spans, parent):
    """Append spans recorded in a child process under span ``parent``.

    perf_counter_ns is the system-wide monotonic clock on Linux, so the
    child's timestamps share the parent's time base.
    """
    base = len(spans)
    op = spans[parent]["op"]
    for s in child_spans:
        spans.append({**s, "id": base + s["id"], "op": op,
                      "parent": parent if s["parent"] is None
                      else base + s["parent"]})
