"""Span tracer for the benchmark's traced run.

The tracer wraps public callables of the program from outside.  A function
is replaced in every ``dunklriesz`` module namespace that binds it, and in
every module-level dict that holds it (the check table in ``verify``), so a
name imported with ``from .kernels import f`` is traced as well.  Methods
are replaced on their class.

Spans (name, parent, start, end) are kept in flat arrays in memory and
written out at the end; self times are computed from the spans afterwards.
A name that no longer exists in the program is recorded as absent instead
of raising, so a later refactor does not break the traced run.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import sys
import time

import numpy as np

PACKAGE = "dunklriesz"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: dict[str, str] = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack = [-1]
        self._undo: list = []

    # -- installing ---------------------------------------------------------

    def _register(self, span: str, layer: str) -> int:
        self.layer_of[span] = layer
        self.names.append(span)
        return len(self.names) - 1

    def _wrapper(self, fn, span: str, layer: str, count):
        nid = self._register(span, layer)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def wrap_function(self, module: str, attr: str, span: str, layer: str, count=None):
        """Trace ``module.attr`` in every namespace of the program bound to it."""
        try:
            mod = importlib.import_module(module)
        except ImportError:
            self.absent.append(span)
            return
        orig = getattr(mod, attr, None)
        if not callable(orig):
            self.absent.append(span)
            return
        wrapped = self._wrapper(orig, span, layer, count)
        spaces = [mod] + [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for m in dict.fromkeys(spaces):
            for key, val in list(vars(m).items()):
                if val is orig:
                    self._undo.append((setattr, m, key, val))
                    setattr(m, key, wrapped)
                elif isinstance(val, dict):
                    for dkey, dval in list(val.items()):
                        if dval is orig:
                            self._undo.append((dict.__setitem__, val, dkey, dval))
                            val[dkey] = wrapped

    def wrap_method(self, module: str, cls: str, attr: str, span: str, layer: str, count=None):
        """Trace a method defined on ``module.cls``."""
        try:
            klass = getattr(importlib.import_module(module), cls, None)
        except ImportError:
            klass = None
        orig = None if klass is None else klass.__dict__.get(attr)
        if not callable(orig):
            self.absent.append(span)
            return
        self._undo.append((setattr, klass, attr, orig))
        setattr(klass, attr, self._wrapper(orig, span, layer, count))

    def uninstall(self):
        while self._undo:
            fn, owner, key, val = self._undo.pop()
            fn(owner, key, val)

    # -- reading ------------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span; spans from a mark on belong to one phase."""
        return len(self.start)

    def _arrays(self, since: int = 0):
        ids = np.array(self.name_id, dtype=np.int32)[since:]
        par = np.array(self.parent, dtype=np.int32)[since:]
        dur = (np.array(self.end, dtype=np.float64) - np.array(self.start, dtype=np.float64))[since:]
        return ids, par, dur

    def span_totals(self, since: int = 0) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Inclusive time is the plain sum of span durations; no wrapped name
        calls itself, so nothing is counted twice.
        """
        ids, par, dur = self._arrays(since)
        child = np.zeros(dur.size)
        inner = par >= since
        np.add.at(child, par[inner] - since, dur[inner])
        self_t = dur - child
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        incl = np.bincount(ids, weights=dur, minlength=n)
        selfs = np.bincount(ids, weights=self_t, minlength=n)
        out: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += int(calls[i])
            row["s"] += float(incl[i])
            row["self_s"] += float(selfs[i])
        return out

    def layer_self_seconds(self, since: int = 0) -> dict:
        out: dict[str, float] = {}
        for name, row in self.span_totals(since).items():
            layer = self.layer_of[name]
            out[layer] = out.get(layer, 0.0) + row["self_s"]
        return out

    def write(self, path_prefix: str, extra: dict):
        """Spans to ``<prefix>.spans.npz``, the summary to ``<prefix>.json``."""
        np.savez_compressed(
            path_prefix + ".spans.npz",
            name_id=np.array(self.name_id, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            names=np.array(self.names),
        )
        with open(path_prefix + ".json", "w") as fh:
            json.dump(
                {"spans": self.span_totals(), "counts": self.counts, "absent": self.absent, **extra},
                fh, indent=1, sort_keys=True,
            )
