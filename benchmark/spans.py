"""In-memory span tracer that measures opscal's layers from the outside.

A traced call swaps module-level names of the package (for example
``opscal.kernels.ons_pass`` or ``opscal.pipeline.platt_apply``) for
wrappers that record a span around each call. The package resolves those
names at call time, so nothing under ``src/`` changes and the wrappers come
off again when the traced call returns.

Each span has a name, a start and end (``perf_counter_ns``), the span that
was open when it started (its parent, -1 for none) and a replication id:
every span opened while a replication span is open carries that
replication's id, so the spans of one replication share it. Spans are kept
in typed arrays and written out once, when the run ends.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np


@contextmanager
def patched(patches):
    """Swap each ``(module, attribute, make)`` for ``make(original)`` and put
    the originals back on exit."""
    saved = []
    try:
        for module_name, attr, make in patches:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, make(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.rep = array("q")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._rep = -1
        self._n_reps = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, replication: bool = False, rows: bool = False):
        """``fn`` recording a span per call and counting ``<name>.calls``.

        ``replication`` opens a new replication id for the call; ``rows``
        also counts the rows of the first argument as ``<name>.rows``.
        """
        nid = self._name_id(name)
        calls_key, rows_key = name + ".calls", name + ".rows"

        def traced(*args, **kwargs):
            sid = len(self.start)
            outer_rep = self._rep
            if replication:
                self._rep = self._n_reps
                self._n_reps += 1
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.rep.append(self._rep)
            self.end.append(0)
            self.counts[calls_key] += 1
            if rows:
                self.counts[rows_key] += len(args[0])
            self._stack.append(sid)
            self.start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[sid] = perf_counter_ns()
                self._stack.pop()
                self._rep = outer_rep

        return traced

    def counting(self, key: str, fn, result_count=None):
        """``fn`` adding one to ``key`` per call, or ``result_count(result)``."""

        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.counts[key] += 1 if result_count is None else result_count(out)
            return out

        return counted

    def layer_times(self):
        """name -> (calls, inclusive ns, self ns) over every recorded span.

        A span's self time is its duration minus that of its children; the
        load is single-threaded, so children never overlap.
        """
        name = np.array(self.name, dtype=np.int32)
        dur = np.array(self.end, dtype=np.int64) - np.array(self.start, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        child_ns = np.zeros(len(dur), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child_ns, parent[has_parent], dur[has_parent])
        self_ns = dur - child_ns
        out = {}
        for nid, label in enumerate(self.names):
            sel = name == nid
            out[label] = (int(sel.sum()), int(dur[sel].sum()), int(self_ns[sel].sum()))
        return out

    def save(self, path):
        """Write every span (and the name table) to a compressed ``.npz``."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.name, dtype=np.int32),
            start_ns=np.array(self.start, dtype=np.int64),
            end_ns=np.array(self.end, dtype=np.int64),
            parent=np.array(self.parent, dtype=np.int64),
            rep=np.array(self.rep, dtype=np.int64),
        )
