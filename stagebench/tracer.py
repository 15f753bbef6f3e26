"""In-memory span tracer for the conespectra modules.

Spans are recorded from outside the library: ``install`` replaces every
public function of the package, at every module binding that refers to it
(``from .numerics import integrate_surface`` creates a second binding in
``curveperiods``; ``cli._COMMANDS`` holds a third kind), by a wrapper that
records one span per call. ``uninstall`` puts the originals back, so code
timed without tracing runs the unmodified functions.

A span is ``[name, start, end, parent, op, scope]``: ``parent`` is the index
of the enclosing span (-1 for none), ``op`` the id shared by all spans of one
operation, and ``scope`` one of ``setup``, ``op`` and ``extra``. Spans stay in
memory until ``dump`` writes them out at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from contextlib import contextmanager

NAME, START, END, PARENT, OP, SCOPE = range(6)

# methods traced in addition to the module-level public functions
CLASS_METHODS = {"conespectra.green": {"GreenSolver": ("__init__", "green")}}


def layer_of(module_name):
    """Layer name of a conespectra module: ``conespectra._core.kernels_py``
    belongs to ``core`` (metric names must start with a letter)."""
    parts = module_name.split(".")
    return parts[1].lstrip("_") if len(parts) > 1 else parts[0]


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self.op = None
        self.scope = "setup"
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, self.clock(), None, parent, self.op, self.scope]
        self.spans.append(span)
        self._stack.append(idx)
        return span

    def _close(self, span):
        span[END] = self.clock()
        self._stack.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    @contextmanager
    def span(self, name, scope, op=None):
        """Harness span (an operation root, the set-up, the run's extras)."""
        saved = self.op, self.scope
        self.op, self.scope = op, scope
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)
            self.op, self.scope = saved

    # -- patching ----------------------------------------------------------

    def install(self, modules):
        """Wrap the public functions defined in ``modules`` wherever any of
        them binds one, plus the methods named in CLASS_METHODS."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__ or ""
                if not home.startswith("conespectra.") \
                        or obj.__name__.startswith("_"):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self.wrap(
                        f"{layer_of(home)}.{obj.__name__}", obj)
                self._patch(mod, attr, wrappers[obj])
        for mod in modules:
            for value in list(vars(mod).values()):
                if isinstance(value, dict):
                    for key, fn in list(value.items()):
                        if inspect.isfunction(fn) and fn in wrappers:
                            self._patch_item(value, key, wrappers[fn])
            for cls_name, methods in CLASS_METHODS.get(mod.__name__,
                                                       {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = vars(cls)[meth]
                    self._patch(cls, meth, self.wrap(
                        f"{layer_of(mod.__name__)}.{cls_name}.{meth}", fn))

    def _patch(self, target, attr, new):
        self._patches.append((setattr, target, attr, getattr(target, attr)))
        setattr(target, attr, new)

    def _patch_item(self, mapping, key, new):
        self._patches.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = new

    def uninstall(self):
        while self._patches:
            restore, target, key, original = self._patches.pop()
            restore(target, key, original)

    @contextmanager
    def installed(self, modules):
        self.install(modules)
        try:
            yield self
        finally:
            self.uninstall()

    # -- output ------------------------------------------------------------

    def dump(self, path, meta):
        with open(path, "w") as fh:
            json.dump({"meta": meta,
                       "fields": ["name", "start", "end", "parent", "op",
                                  "scope"],
                       "spans": self.spans}, fh)


def self_times(spans):
    """Per-span self time: duration minus the union of its children's
    intervals."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        for c in sorted(children[i], key=lambda j: spans[j][START]):
            lo, hi = spans[c][START], spans[c][END]
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s[END] - s[START]) - covered)
    return out


def aggregate(spans, root_names=("op", "setup", "extra")):
    """Totals per span name, split into operation scope and the rest.

    Returns ``(by_name, ops)``: ``by_name[name][scope_kind]`` is
    ``[inclusive_s, self_s, calls]`` with ``scope_kind`` ``"op"`` or
    ``"other"``; ``ops`` maps op id to the duration of its root span.
    Harness root spans are left out of ``by_name``. The inclusive time of a
    recursive function counts its outermost call only.
    """
    selfs = self_times(spans)
    by_name, ops = {}, {}
    for i, (s, own) in enumerate(zip(spans, selfs)):
        dur = s[END] - s[START]
        if s[PARENT] < 0 and s[NAME] in root_names:
            if s[SCOPE] == "op":
                ops[s[OP]] = dur
            continue
        kind = "op" if s[SCOPE] == "op" else "other"
        acc = by_name.setdefault(s[NAME], {}).setdefault(kind, [0.0, 0.0, 0])
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != s[NAME]:
            p = spans[p][PARENT]
        if p < 0:
            acc[0] += dur
        acc[1] += own
        acc[2] += 1
    return by_name, ops
