"""Span tracer that wraps gearlab's functions from outside the package.

Every public function defined in a gearlab module is replaced by a
wrapper in *every* gearlab namespace that binds it, so names re-bound by
importing modules (``markov.scan_spectrum``, ``transplant.vertex_residual``,
the names ``cli`` imports, the package re-exports) are traced too.
``SparsePolynomial.__mul__``/``__rmul__`` are traced as ``polynomials.mul``.

Each call records one span: name, start, end, parent span and the id of
the verdict it belongs to.  Spans stay in memory; metrics are derived
from them after the run and the spans are written out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import time

MODULES = ("graphs", "spectral", "transplant", "markov", "linalg",
           "polynomials", "zeta", "io", "cli")


class Tracer:
    def __init__(self):
        self.names = []          # span name table
        self._ids = {}
        # one entry per span, in start order
        self.name_of = []
        self.start = []
        self.end = []
        self.parent = []
        self.verdict_of = []
        self._stack = []
        self._verdict = -1
        self._patches = []       # (owner, attribute, original) to restore
        self.results = {}        # span name -> list of observed values

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.verdict_of.append(self._verdict)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name, fn, observe=None):
        """Traced version of ``fn``; ``observe(result)`` values are kept per name."""
        nid = self._name_id(name)
        opened, closed = self._open, self._close
        kept = self.results.setdefault(name, []) if observe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = opened(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                closed(idx)
            if kept is not None:
                kept.append(observe(out))
            return out

        return traced

    @contextlib.contextmanager
    def verdict(self, verdict_id):
        """Root span ``bench.verdict`` around one verdict."""
        self._verdict = verdict_id
        idx = self._open(self._name_id("bench.verdict"))
        try:
            yield
        finally:
            self._close(idx)
            self._verdict = -1

    # -- installing and removing the wrappers ---------------------------
    def install(self, observers=None):
        observers = observers or {}
        import gearlab
        mods = [importlib.import_module(f"gearlab.{m}") for m in MODULES]
        wrapped = {}
        for short, mod in zip(MODULES, mods):
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{short}.{attr}"
                    wrapped[id(obj)] = self.wrap(name, obj, observers.get(name))
        for mod in [gearlab, *mods]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        poly = mods[MODULES.index("polynomials")].SparsePolynomial
        mul = self.wrap("polynomials.mul", poly.__mul__)
        for attr in ("__mul__", "__rmul__"):
            self._patches.append((poly, attr, poly.__dict__[attr]))
            setattr(poly, attr, mul)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis -----------------------------------------------------------
    def self_times(self):
        """Per span: duration minus the durations of its direct children (ns)."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def by_name(self):
        """name -> [calls, self time in s]."""
        own = self.self_times()
        out = {name: [0, 0.0] for name in self.names}
        for i, nid in enumerate(self.name_of):
            entry = out[self.names[nid]]
            entry[0] += 1
            entry[1] += own[i] * 1e-9
        return out

    def count_under(self, name, ancestor):
        """Calls of ``name`` that have a span named ``ancestor`` above them."""
        nid, aid = self._ids.get(name), self._ids.get(ancestor)
        if nid is None or aid is None:
            return 0
        total = 0
        for i, n in enumerate(self.name_of):
            if n != nid:
                continue
            p = self.parent[i]
            while p >= 0 and self.name_of[p] != aid:
                p = self.parent[p]
            total += p >= 0
        return total

    def write(self, path):
        """Spans as gzip CSV: verdict,span,parent,name,start_ns,end_ns."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("verdict,span,parent,name,start_ns,end_ns\n")
            for i, nid in enumerate(self.name_of):
                fh.write(f"{self.verdict_of[i]},{i},{self.parent[i]},{self.names[nid]},"
                         f"{self.start[i]},{self.end[i]}\n")
