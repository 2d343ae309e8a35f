"""Spans around calls into tvtomo's layers, recorded from outside the package.

A `Tracer` replaces module attributes that callers look up at call time:
every public function of the measured tvtomo modules (in every tvtomo
module that binds it) and the scipy linear-algebra entry points that
`tvtomo.pdip` calls through `scipy.linalg` / `scipy.sparse.linalg`.  Each
call becomes a `Span` with its name, start, end, parent span and run id,
kept in memory until the benchmark writes them out.  `uninstall` puts the
original attributes back, so an untraced run executes the unmodified code.
"""

import inspect
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import scipy.linalg
import scipy.sparse.linalg

# modules whose public functions are layers; cli only wraps these and
# errors does no work
LAYERS = ("geometry", "grid", "qp", "pdip", "select", "fileio", "phantoms")

# scipy calls made by tvtomo.pdip, recorded as part of the pdip layer
_SCIPY_TARGETS = (
    (scipy.sparse.linalg, "splu"),
    (scipy.sparse.linalg, "cg"),
    (scipy.linalg, "cho_factor"),
    (scipy.linalg, "cho_solve"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int = None  # index into Tracer.spans
    run: str = None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


def _file_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


# extra counts recorded on a span from the call's arguments and result
_ANNOTATE = {
    "geometry.assemble_system_matrix": lambda args, kwargs, out: {
        "mode": args[0].mode, "rays": args[0].num_rays, "nnz": int(out.matrix.nnz),
    },
    "pdip.pdip_solve": lambda args, kwargs, out: {
        "iterations": out[1].iterations, "converged": out[1].reason == "converged",
    },
    "select.run_sweep": lambda args, kwargs, out: {"cells": int(out.tv.size)},
    "fileio.write_sinogram": _file_bytes,
    "fileio.read_sinogram": _file_bytes,
    "fileio.write_sweep_csv": _file_bytes,
    "fileio.read_sweep_csv": _file_bytes,
    "pdip.cg": lambda args, kwargs, out: {
        "iterations": kwargs["callback"].count, "info": int(out[1]),
    },
}


class _CountingCallback:
    """CG callback that counts iterations and forwards to the caller's."""

    def __init__(self, inner):
        self.count = 0
        self.inner = inner

    def __call__(self, xk):
        self.count += 1
        if self.inner is not None:
            self.inner(xk)


class _TracedLu:
    """Stand-in for a SuperLU factor whose `solve` calls are spans."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self.solve = tracer.wrap("pdip.precond_apply", lu.solve)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Records spans, tagged with the current run id, while installed."""

    def __init__(self):
        self.spans = []
        self.run = None
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def _open(self, name):
        span = Span(name, 0.0, 0.0, parent=self._stack[-1] if self._stack else None,
                    run=self.run)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def wrap(self, name, fn, annotate=None):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if annotate is not None:
                span.attrs.update(annotate(args, kwargs, out))
            return out

        return traced

    def _wrap_scipy(self, attr, fn):
        traced = self.wrap(f"pdip.{attr}", fn, _ANNOTATE.get(f"pdip.{attr}"))
        if attr == "cg":
            def cg(*args, callback=None, **kwargs):
                return traced(*args, callback=_CountingCallback(callback), **kwargs)
            return cg
        if attr == "splu":
            return lambda *args, **kwargs: _TracedLu(traced(*args, **kwargs), self)
        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every layer function and pdip's scipy calls in place."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if name == "tvtomo" or name.startswith("tvtomo.")]
        for layer in LAYERS:
            module = sys.modules[f"tvtomo.{layer}"]
            for name in module.__all__:
                fn = getattr(module, name)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                span_name = f"{layer}.{name}"
                traced = self.wrap(span_name, fn, _ANNOTATE.get(span_name))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(m, attr, traced)
        for owner, attr in _SCIPY_TARGETS:
            self._patch(owner, attr, self._wrap_scipy(attr, getattr(owner, attr)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def recording(self, run):
        """Install for the duration of the block, tagging spans with `run`."""
        self.install()
        self.run = run
        try:
            yield
        finally:
            self.run = None
            self.uninstall()


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    reach = -float("inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        clipped = [(max(k.start, span.start), min(k.end, span.end)) for k in kids]
        out.append(span.duration - _covered([c for c in clipped if c[1] > c[0]]))
    return out


def layer_table(spans, selfs, runs):
    """Per layer over the given runs: total seconds (outermost spans of the
    layer), self seconds and calls."""
    table = {}
    for span, own in zip(spans, selfs):
        if span.run not in runs:
            continue
        row = table.setdefault(span.layer, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
        row["self_s"] += own
        row["calls"] += 1
        if span.parent is None or spans[span.parent].layer != span.layer:
            row["total_s"] += span.duration
    return table


def write_spans(path, spans, selfs):
    """One JSON object per span, in the order the spans opened."""
    with open(path, "w") as fh:
        for i, (span, own) in enumerate(zip(spans, selfs)):
            fh.write(json.dumps({
                "id": i, "name": span.name, "start": span.start, "end": span.end,
                "self_s": own, "parent": span.parent, "run": span.run, **span.attrs,
            }) + "\n")


_RULES = ("select.select_multiresolution", "select.select_lcurve", "select.select_scurve",
          "select.estimate_s_hat", "select.spread_profile")
_PDIP_OWN = ("pdip.pdip_solve", "pdip.reconstruct", "pdip.solve_newton_system")


def _run_metrics(spans, selfs, run, cap_hits):
    mine = [(s, own) for s, own in zip(spans, selfs) if s.run == run]

    def total(*names, **attrs):
        return sum(s.duration for s, _ in mine if s.name in names
                   and all(s.attrs.get(k) == v for k, v in attrs.items()))

    def count(*names):
        return sum(1 for s, _ in mine if s.name in names)

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s, _ in mine if s.name == name)

    def own(*names):
        return sum(o for s, o in mine if s.name in names)

    def ratio(a, b):
        return a / b if b else 0.0

    assemble = "geometry.assemble_system_matrix"
    solves = count("pdip.pdip_solve")
    outer = attr_sum("pdip.pdip_solve", "iterations")
    cg_calls = count("pdip.cg")
    cg_iters = attr_sum("pdip.cg", "iterations")
    writes = [s.name for s, _ in mine if s.name.startswith("fileio.write_")]
    reads = [s.name for s, _ in mine if s.name.startswith("fileio.read_")]
    return {
        "geometry.assemble_s": total(assemble),
        "geometry.assemble_parallel_s": total(assemble, mode="parallel"),
        "geometry.assemble_fan_s": total(assemble, mode="fan"),
        "geometry.rays": attr_sum(assemble, "rays"),
        "geometry.nnz": attr_sum(assemble, "nnz"),
        "geometry.project_s": total("geometry.forward_project", "geometry.adjoint_project"),
        "pdip.solve_s": total("pdip.pdip_solve"),
        "pdip.solves": solves,
        "pdip.outer_iters": outer,
        "pdip.s_per_outer_iter": ratio(total("pdip.pdip_solve"), outer),
        "pdip.converged_ratio": ratio(attr_sum("pdip.pdip_solve", "converged"), solves),
        "pdip.factor_s": total("pdip.splu"),
        "pdip.factors": count("pdip.splu"),
        "pdip.precond_apply_s": total("pdip.precond_apply"),
        "pdip.precond_applies": count("pdip.precond_apply"),
        "pdip.cg_s": total("pdip.cg"),
        "pdip.cg_self_s": own("pdip.cg"),
        "pdip.cg_calls": cg_calls,
        "pdip.cg_iters": cg_iters,
        "pdip.cg_iters_per_call": ratio(cg_iters, cg_calls),
        "pdip.cg_cap_hits": cap_hits.get(run, 0),
        "pdip.dense_factor_s": total("pdip.cho_factor"),
        "pdip.dense_solve_s": total("pdip.cho_solve"),
        "pdip.self_s": own(*_PDIP_OWN),
        "qp.build_s": total("qp.build_qp"),
        "qp.builds": count("qp.build_qp"),
        "grid.ops_s": total("grid.build_difference_operators"),
        "grid.tv_norm_s": total("grid.tv_norm"),
        "select.sweep_s": total("select.run_sweep"),
        "select.self_s": sum(o for s, o in mine if s.layer == "select"),
        "select.cells": attr_sum("select.run_sweep", "cells"),
        "select.rules_s": total(*_RULES),
        "fileio.write_s": total(*writes),
        "fileio.read_s": total(*reads),
        "fileio.bytes": sum(s.attrs.get("bytes", 0) for s, _ in mine if s.name in writes),
        "phantoms.render_s": total("phantoms.render_phantom"),
        "phantoms.noise_s": total("phantoms.add_noise"),
    }


UNITS = {"rays": "count", "nnz": "count", "solves": "count", "outer_iters": "count",
         "converged_ratio": "ratio", "factors": "count", "precond_applies": "count",
         "cg_calls": "count", "cg_iters": "count", "cg_iters_per_call": "count",
         "cg_cap_hits": "count", "builds": "count", "cells": "count", "bytes": "B",
         "s_per_outer_iter": "s"}


def per_layer_metrics(spans, selfs, body_runs, setup_runs, cap_hits):
    """Median over traced bodies of each per-layer metric; phantoms.* are
    set-up work and take the median over the set-up runs instead."""
    body = [_run_metrics(spans, selfs, r, cap_hits) for r in body_runs]
    setup = [_run_metrics(spans, selfs, r, cap_hits) for r in setup_runs]
    out = {}
    for name in body[0]:
        runs = setup if name.startswith("phantoms.") else body
        value = statistics.median(r[name] for r in runs)
        out[name] = {"value": value, "unit": UNITS.get(name.split(".", 1)[1], "s")}
    return out
