"""Tracing from outside the library: spans around the public functions of each layer.

``Tracer.install`` replaces every binding of a traced function with a
wrapper: the definition in its module, each ``from .x import f`` copy in a
consumer module, the method on its class, and the ``numpy.linalg``
functions the library calls.  Each wrapper records a span (name, start,
end, parent) in memory, plus counts of the work it was handed.
``Tracer.remove`` puts every original binding back.

A span's self time is its duration minus the part of it covered by its
child spans, minus the tracer's own bookkeeping inside it.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import hashlib
import importlib
import sys
import time
from dataclasses import dataclass

import numpy as np
from phwc_lab.suites import SUITE_TOLERANCES

ROOT = "pass"
SUITE_PREFIX = "suites."
HOLDER = "suites.identity_suites"


@dataclass(frozen=True)
class Target:
    """One traced function.

    ``work`` names how the work handed to a call is counted:
    ``points`` rows of argument ``arg``; ``stencil`` the 2m shifted rows a
    central-difference stencil evaluates; ``nodes`` the quadrature nodes;
    ``matrices`` the matrices in a (batched) linear-algebra call.
    """

    metric: str
    module: str
    attr: str
    work: str | None = "points"
    arg: int = 1
    out_bytes: bool = False
    repeat: bool = False
    self_s: bool = True


T = Target
TARGETS = (
    T("autodiff.tensor_value", "phwc_lab.autodiff", "tensor_value", repeat=True),
    T("autodiff.tensor_jet", "phwc_lab.autodiff", "tensor_jet", out_bytes=True, repeat=True),
    T("autodiff.tensor_second", "phwc_lab.autodiff", "tensor_second", out_bytes=True, repeat=True),
    T("autodiff.field_partials", "phwc_lab.autodiff", "field_partials", work="stencil", out_bytes=True),
    T("geometry.metric_at", "phwc_lab.geometry", "ChartManifold.metric_at"),
    T("geometry.inverse_metric_at", "phwc_lab.geometry", "ChartManifold.inverse_metric_at"),
    T("geometry.christoffel_at", "phwc_lab.geometry", "ChartManifold.christoffel_at", out_bytes=True),
    T("geometry.volume_weight", "phwc_lab.geometry", "ChartManifold.volume_weight"),
    T("geometry.sharp", "phwc_lab.geometry", "ChartManifold.sharp"),
    T("geometry.frame_at", "phwc_lab.geometry", "ChartManifold.frame_at"),
    T("geometry.integrate", "phwc_lab.geometry", "ChartManifold.integrate", work="nodes"),
    T("geometry.codifferential_two_form", "phwc_lab.geometry", "codifferential_two_form", arg=2),
    T("linalg.svd", "numpy.linalg", "svd", work="matrices", arg=0, repeat=True),
    T("linalg.inv", "numpy.linalg", "inv", work="matrices", arg=0),
    T("linalg.solve", "numpy.linalg", "solve", work="matrices", arg=0),
    T("linalg.det", "numpy.linalg", "det", work="matrices", arg=0),
    T("linalg.eigvalsh", "numpy.linalg", "eigvalsh", work="matrices", arg=0),
    T("linalg.eigh", "numpy.linalg", "eigh", work="matrices", arg=0),
    T("maps.jet", "phwc_lab.maps", "SmoothMap.jet"),
    T("maps.second_jet", "phwc_lab.maps", "SmoothMap.second_jet", out_bytes=True),
    T("maps.adjoint_differential", "phwc_lab.maps", "adjoint_differential"),
    T("maps.horizontal_projector", "phwc_lab.maps", "horizontal_projector"),
    T("maps.horizontal_lift", "phwc_lab.maps", "horizontal_lift"),
    T("maps.horizontal_frame", "phwc_lab.maps", "horizontal_frame"),
    T("maps.fibre_splitting", "phwc_lab.maps", "fibre_splitting"),
    T("structures.phwc_residual", "phwc_lab.structures", "phwc_residual", arg=2),
    T("structures.induced_f_structure", "phwc_lab.structures", "induced_f_structure", work=None),
    T("variational.z_field", "phwc_lab.variational", "z_field", arg=2),
    T("variational.criticality_residual", "phwc_lab.variational", "criticality_residual", arg=2),
    T("variational.fh_energy", "phwc_lab.variational", "fh_energy", work=None),
    T("variational.pullback_two_form", "phwc_lab.variational", "pullback_two_form", arg=2),
    T("stability.hessian", "phwc_lab.stability", "hessian", work=None),
    T("stability.hessian_suite", "phwc_lab.stability", "hessian_suite", work=None),
    T("stability.sasakian_hessian", "phwc_lab.stability", "sasakian_hessian", work=None),
    T("stability.killing_reduced_hessian", "phwc_lab.stability", "killing_reduced_hessian", work=None),
    T("stability.variation_l2_norm2", "phwc_lab.stability", "variation_l2_norm2", work=None),
    T("stability.vertical_codifferential_formula", "phwc_lab.stability",
      "vertical_codifferential_formula", arg=3),
    T("stability.VariationField.eval", "phwc_lab.stability", "VariationField.eval", self_s=False),
    T("validation.validate_scenario", "phwc_lab.validation", "validate_scenario", work=None),
    # Parent of the per-suite spans; reported through them, not by itself.
    T(HOLDER, "phwc_lab.suites", "identity_suites", work=None, self_s=False),
)
del T

SUITES = tuple(SUITE_TOLERANCES)  # one span and one metric per identity suite


def _fields(t):
    """The (field, unit) pairs target ``t`` reports."""
    if t.metric == HOLDER:
        return
    yield "calls", "count"
    if t.self_s:
        yield "self_s", "s"
    if t.work == "matrices":
        yield "matrices", "matrices"
    elif t.work:
        yield "points", "rows"
    if t.out_bytes:
        yield "out_bytes", "bytes_computed"
    if t.repeat:
        yield "repeat_ratio", "ratio"


def metric_units():
    """Every per-layer metric name the traced run emits, with its unit."""
    units = {f"{t.metric}.{field}": unit for t in TARGETS for field, unit in _fields(t)}
    units.update({f"{SUITE_PREFIX}{suite}.total_s": "s" for suite in SUITES})
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"  # filled in by run.py from two passes
    return units


# ---------------------------------------------------------------------------
# work counts


def _rows(x):
    shape = np.shape(x)
    return shape[0] if len(shape) >= 2 else 1


def _work(target, args):
    if target.work == "nodes":
        return args[0].quadrature.weights.shape[0]
    x = args[target.arg]
    if target.work == "matrices":
        return int(np.prod(np.shape(x)[:-2], dtype=np.int64))
    rows = _rows(x)
    if target.work == "stencil":
        return rows * 2 * np.shape(x)[-1]
    return rows


def _nbytes(obj):
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o) for o in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(_nbytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return 0


def _digest(x):
    a = np.ascontiguousarray(x, dtype=float)
    return a.shape, hashlib.blake2b(a, digest_size=16).digest()


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(t0, t1, parent, overhead=None):
    """Duration of each span minus the union of its children's intervals.

    ``parent[i]`` is the index of span i's parent, or -1.  ``overhead[i]``
    is bookkeeping time inside span i not covered by a child; it is
    subtracted too.
    """
    t0 = np.asarray(t0, dtype=float)
    t1 = np.asarray(t1, dtype=float)
    out = t1 - t0
    children = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(int(p), []).append(i)
    for p, kids in children.items():
        lo_p, hi_p = t0[p], t1[p]
        covered, end = 0.0, lo_p
        for k in sorted(kids, key=lambda k: t0[k]):
            lo, hi = max(t0[k], end), min(t1[k], hi_p)
            if hi > lo:
                covered += hi - lo
                end = hi
        out[p] -= covered
    if overhead is not None:
        out = out - np.asarray(overhead, dtype=float)
    return out


def split_suites(names, t0, t1, parent, marks):
    """Cut each ``identity_suites`` span into one span per suite.

    ``marks`` holds (time, suite, holder) for each suite result created
    inside holder span ``holder``; suite k covers the time from the
    previous mark (or the holder's start) to its own mark.  The holder's
    children are re-parented to the suite span they started in.  Returns
    new lists; the inputs are not modified.
    """
    names, t0, t1, parent = list(names), list(t0), list(t1), list(parent)
    by_holder = {}
    for t, suite, holder in marks:
        by_holder.setdefault(holder, []).append((t, suite))
    children = {}
    for i, p in enumerate(parent):
        if p in by_holder:
            children.setdefault(p, []).append(i)
    for holder, hmarks in by_holder.items():
        hmarks.sort()
        ends = [t for t, _ in hmarks]
        starts = [t0[holder]] + ends[:-1]
        ids = []
        for (end, suite), start in zip(hmarks, starts):
            ids.append(len(names))
            names.append(SUITE_PREFIX + suite)
            t0.append(start)
            t1.append(end)
            parent.append(holder)
        for c in children.get(holder, ()):
            k = bisect.bisect_right(ends, t0[c])
            if k < len(ends):
                parent[c] = ids[k]
    return names, t0, t1, parent


# ---------------------------------------------------------------------------
# the tracer


def _library_modules():
    import phwc_lab

    for name in (
        "autodiff", "geometry", "maps", "structures", "variational",
        "stability", "validation", "scenarios", "suites", "report",
    ):
        importlib.import_module(f"phwc_lab.{name}")
    return [m for n, m in sys.modules.items() if n == "phwc_lab" or n.startswith("phwc_lab.")]


class Tracer:
    """Records spans around every function in ``TARGETS`` while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.patches = []  # (owner, attribute, original)
        self.names = [ROOT]
        self.t0 = [0.0]
        self.t1 = [0.0]
        self.parent = [-1]
        self.overhead = [0.0]
        self.marks = []
        self.stats = {}  # metric -> [calls, work, out_bytes, repeated work]
        self._stack = [0]
        self._seen = set()
        self._keep = {}  # keeps hashed callables alive so their ids stay unique

    # -- patching --------------------------------------------------------------
    def install(self):
        modules = _library_modules()
        for target in TARGETS:
            owner = importlib.import_module(target.module)
            if "." in target.attr:
                cls_name, meth = target.attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(target, cls.__dict__[meth]))
                continue
            orig = getattr(owner, target.attr)
            wrapper = self._wrap(target, orig)
            homes = [owner] if target.module == "numpy.linalg" else modules
            for mod in homes:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, attr, wrapper)
        suites = importlib.import_module("phwc_lab.suites")
        result_cls = suites.SuiteResult

        def suite_result(*args, **kwargs):
            self.marks.append((self.clock(), kwargs["suite"], self._stack[-1]))
            return result_cls(*args, **kwargs)

        self._patch(suites, "SuiteResult", suite_result)
        self.t0[0] = self.clock()

    def _patch(self, owner, attr, value):
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self):
        self.t1[0] = self.clock()
        while self.patches:
            owner, attr, orig = self.patches.pop()
            setattr(owner, attr, orig)

    def _wrap(self, target, fn):
        clock = self.clock
        names, t0s, t1s, parents, overhead = self.names, self.t0, self.t1, self.parent, self.overhead
        stack, seen, keep = self._stack, self._seen, self._keep
        stats = self.stats.setdefault(target.metric, [0, 0, 0, 0])
        counted = target.work is not None
        autodiff = target.module == "phwc_lab.autodiff"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = clock()
            parent = stack[-1]
            sid = len(names)
            names.append(target.metric)
            t0s.append(0.0)
            t1s.append(0.0)
            parents.append(parent)
            overhead.append(0.0)
            stats[0] += 1
            if counted:
                work = _work(target, args)
                stats[1] += work
                if target.repeat:
                    if autodiff:
                        fn_arg, x = args[0], args[1]
                        keep[id(fn_arg)] = fn_arg
                        key = (id(fn_arg),) + _digest(x)
                    else:
                        key = _digest(args[0])
                    if key in seen:
                        stats[3] += work
                    else:
                        seen.add(key)
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                t0s[sid] = start
                t1s[sid] = end
            if target.out_bytes:
                stats[2] += _nbytes(out)
            overhead[parent] += (start - enter) + (clock() - end)
            return out

        return wrapper

    # -- results ---------------------------------------------------------------
    def spans(self):
        """Span table with the per-suite spans cut in; times relative to the pass start."""
        names, t0, t1, parent = split_suites(self.names, self.t0, self.t1, self.parent, self.marks)
        overhead = self.overhead + [0.0] * (len(names) - len(self.overhead))
        base = self.t0[0]
        t0 = np.asarray(t0) - base
        t1 = np.asarray(t1) - base
        parent = np.asarray(parent, dtype=np.int64)
        return {
            "name": np.asarray(names),
            "t0": t0,
            "t1": t1,
            "parent": parent,
            "self_s": self_times(t0, t1, parent, overhead),
        }

    def layer_metrics(self, table):
        """Per-layer metrics by ``<layer>.<function>.<field>``, all but trace.overhead_s."""
        self_by_name, total_by_name = {}, {}
        for name, s, a, b in zip(table["name"], table["self_s"], table["t0"], table["t1"]):
            self_by_name[name] = self_by_name.get(name, 0.0) + float(s)
            total_by_name[name] = total_by_name.get(name, 0.0) + float(b - a)
        out = {}
        for t in TARGETS:
            calls, work, nbytes, repeated = self.stats[t.metric]
            values = {
                "calls": calls,
                "self_s": self_by_name.get(t.metric, 0.0),
                "points": int(work),
                "matrices": int(work),
                "out_bytes": int(nbytes),
                "repeat_ratio": repeated / work if work else 0.0,
            }
            for field, _ in _fields(t):
                out[f"{t.metric}.{field}"] = values[field]
        for suite in SUITES:
            out[f"{SUITE_PREFIX}{suite}.total_s"] = total_by_name.get(SUITE_PREFIX + suite, 0.0)
        out["trace.spans"] = len(table["name"])
        return out

    def write(self, path, table):
        """Save the span table as .npz; README.md shows how to read it."""
        names, index = np.unique(table["name"], return_inverse=True)
        np.savez(
            path,
            names=names,
            name=index.astype(np.int32),
            t0=table["t0"],
            t1=table["t1"],
            parent=table["parent"],
            self_s=table["self_s"],
        )
