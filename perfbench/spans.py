"""Span tracing from outside the package, by wrapping module attributes.

While a Tracer is active, each target ``(module, attribute)`` is replaced by
a wrapper that records one span per call: name, parent span (same thread),
start, end and an optional work count.  Spans are kept in compact per-thread
arrays and aggregated only when the run ends; a span's self time is its
duration minus the durations of its children.  A target the package no
longer has is skipped, so its spans report zero calls.

Spans are wall time.  On threads that share the interpreter lock (the CLI's
chain pool) a span also covers the time its thread waited for the lock.
"""

from __future__ import annotations

import contextlib
import importlib
import threading
from array import array
from time import perf_counter

import numpy as np


def _rows(args, kwargs):
    """Constraint rows handed to the hit kernel: first_hit(fa, fb, h, ...)."""
    fa = args[0] if args else kwargs["fa"]
    return len(fa)


# (module, attribute, span name, work counter).  The layer is the span
# name's prefix.  Each attribute is patched where the caller looks it up, so
# a function imported into two modules is listed once per module.
TARGETS = [
    ("pwhmc.cli", "main", "cli.main", None),
    ("pwhmc.cli", "_write_samples", "cli.write_samples", None),
    ("pwhmc.cli", "_write_events", "cli.write_events", None),
    ("pwhmc.cli", "load_model_file", "model.load_model_file", None),
    ("pwhmc.cli", "validate_model", "model.validate_model", None),
    ("pwhmc.cli", "initial_point_check", "sampler.initial_point_check", None),
    ("pwhmc.cli", "run_chain", "sampler.run_chain", None),
    ("pwhmc.model", "load_model_file", "model.load_model_file", None),
    ("pwhmc.model", "validate_model", "model.validate_model", None),
    ("pwhmc.sampler", "initial_point_check", "sampler.initial_point_check", None),
    ("pwhmc.sampler", "run_chain", "sampler.run_chain", None),
    ("pwhmc.sampler", "refresh_velocity", "sampler.refresh_velocity", None),
    ("pwhmc.sampler", "ell", "model.ell", None),
    ("pwhmc.sampler", "min_slack", "model.min_slack", None),
    ("pwhmc.sampler", "potential", "model.potential", None),
    ("pwhmc.sampler", "evolve_segment_detail", "dynamics.segment", None),
    ("pwhmc.dynamics", "potential", "model.potential", None),
    ("pwhmc.dynamics", "region_boundaries", "model.region_boundaries", None),
    ("pwhmc.dynamics", "ode_coef", "subspace.ode_coef", None),
    ("pwhmc.dynamics", "boundary_normal", "subspace.boundary_normal", None),
    ("pwhmc.subspace", "ode_param", "subspace.ode_param", None),
    ("pwhmc.dynamics", "first_hit", "kernels.first_hit", _rows),
]

# Context managers whose body is waiting, not work: the CLI's chain pool.
WAIT_TARGETS = [
    ("pwhmc.cli", "ThreadPoolExecutor", "wait.chain_pool"),
]


class _Buffer:
    """Spans of one thread, in parallel arrays; stack holds open span rows."""

    def __init__(self, main: bool):
        self.main = main
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self.stack = []


class Tracer:
    """Patch the targets on enter, restore them on exit, aggregate after."""

    def __init__(self):
        self.names: list[str] = []
        self._buffers: list[_Buffer] = []
        self._local = threading.local()
        self._saved = []

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer(threading.current_thread() is threading.main_thread())
            self._local.buf = buf
            self._buffers.append(buf)
        return buf

    def _open(self, nid, work) -> tuple[_Buffer, int]:
        buf = self._buffer()
        i = len(buf.start)
        buf.name.append(nid)
        buf.parent.append(buf.stack[-1] if buf.stack else -1)
        buf.work.append(work)
        buf.start.append(perf_counter())
        buf.end.append(0.0)
        buf.stack.append(i)
        return buf, i

    @staticmethod
    def _close(buf, i):
        buf.end[i] = perf_counter()
        buf.stack.pop()

    def _id(self, name) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, fn, name, work):
        nid = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            buf, i = tracer._open(nid, work(args, kwargs) if work else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(buf, i)

        return traced

    def _wrap_wait(self, cm_factory, name):
        nid = self._id(name)
        tracer = self

        @contextlib.contextmanager
        def traced(*args, **kwargs):
            buf, i = tracer._open(nid, 0)
            try:
                with cm_factory(*args, **kwargs) as inner:
                    yield inner
            finally:
                tracer._close(buf, i)

        return traced

    def __enter__(self):
        for module_name, attr, name, work in TARGETS:
            self._patch(module_name, attr, lambda fn: self._wrap(fn, name, work))
        for module_name, attr, name in WAIT_TARGETS:
            self._patch(module_name, attr, lambda fn: self._wrap_wait(fn, name))
        return self

    def _patch(self, module_name, attr, make):
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.names, self._buffers)


class SpanSummary:
    """Per-name call counts, total and self seconds, and work counts."""

    def __init__(self, names, buffers):
        k = len(names)
        self.index = {name: i for i, name in enumerate(names)}
        self.calls = np.zeros(k)
        self.total = np.zeros(k)
        self.self_time = np.zeros(k)
        self.work = np.zeros(k)
        self.main_self = 0.0               # self seconds on the main thread
        for buf in buffers:
            if buf.stack:
                raise RuntimeError("span still open when the trace was read")
            name = np.frombuffer(buf.name, dtype=np.int32).astype(np.intp)
            parent = np.frombuffer(buf.parent, dtype=np.int32).astype(np.intp)
            dur = np.frombuffer(buf.end) - np.frombuffer(buf.start)
            child = np.zeros_like(dur)
            has_parent = parent >= 0
            np.add.at(child, parent[has_parent], dur[has_parent])
            self_time = dur - child
            self.calls += np.bincount(name, minlength=k)
            self.total += np.bincount(name, weights=dur, minlength=k)
            self.self_time += np.bincount(name, weights=self_time, minlength=k)
            self.work += np.bincount(
                name, weights=np.frombuffer(buf.work, dtype=np.int64), minlength=k)
            if buf.main:
                self.main_self += float(self_time.sum())

    def _get(self, arr, name) -> float:
        i = self.index.get(name)
        return 0.0 if i is None else float(arr[i])

    def calls_of(self, name):
        return self._get(self.calls, name)

    def total_of(self, name):
        return self._get(self.total, name)

    def self_of(self, name):
        return self._get(self.self_time, name)

    def work_of(self, name):
        return self._get(self.work, name)

    def mean_of(self, name):
        calls = self.calls_of(name)
        return self.total_of(name) / calls if calls else 0.0

    def layer_self(self) -> dict[str, float]:
        """Self seconds per layer, summed over threads."""
        out: dict[str, float] = {}
        for name, i in self.index.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + float(self.self_time[i])
        return out
