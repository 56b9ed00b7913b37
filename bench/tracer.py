"""Spans around the public functions of revspec, recorded from outside.

:meth:`Tracer.install` wraps each function of :data:`LAYERS` and replaces
it under every name that holds it in a loaded ``revspec`` module, so calls
between the program's own modules pass through the wrapper too.  A span is
``(name, start, end, parent, operation)``; spans are kept in memory and
written out when the run ends.  A span's self time is its duration minus
the durations of its child spans.

Counts recorded at the same boundaries:

* ``quadrature.gauss_legendre.misses`` from the function's cache
  statistics, taken around each operation;
* ``solver.assemble.nodes``: quadrature nodes times basis size per call;
* ``solver.eigh.n3``: the cube of the matrix order per call;
* ``solver.refine.k0``: refine calls on channel 0;
* ``embed.export_obj.bytes``: length of the OBJ text.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# (module, attribute) of every wrapped function; the span name is the
# module without its package prefix, then the attribute.
LAYERS = (
    ("revspec.quadrature", "gauss_legendre"),
    ("revspec.solver", "assemble"),
    ("revspec.solver", "eigh"),
    ("revspec.solver", "solve_channel"),
    ("revspec.solver", "refine"),
    ("revspec.profile", "validate"),
    ("revspec.profile", "arclength_recover"),
    ("revspec.profile", "momentum_transform"),
    ("revspec.exprs", "evaluate"),
    ("revspec.spectrum", "trace0_integral"),
    ("revspec.spectrum", "enumerate_below"),
    ("revspec.spectrum", "check_invariants"),
    ("revspec.obstruction", "full_report"),
    ("revspec.obstruction", "sup_test"),
    ("revspec.obstruction", "even_multiplicity_test"),
    ("revspec.obstruction", "trace_flag"),
    ("revspec.obstruction", "negative_curvature_witness"),
    ("revspec.embed", "embed_profile_curve"),
    ("revspec.embed", "make_mesh"),
    ("revspec.embed", "induced_metric_residual"),
    ("revspec.embed", "mesh_area"),
    ("revspec.embed", "euler_characteristic"),
    ("revspec.embed", "export_obj"),
    ("revspec.serialize", "json_text"),
    ("revspec.cli", "main"),
)
# methods wrapped on the class itself, which every module shares; the
# constructor's span is named after the class
CLASS_LAYERS = (("revspec.quadrature", "CumulativeIntegral", "__init__"),
                ("revspec.quadrature", "CumulativeIntegral", "value"))
# layers reported over the set-up (operation id SETUP) instead of per
# timed operation: Profile construction happens in set-up
SETUP_LAYERS = ("profile.momentum_transform",)
SETUP = -2


def _short(module: str) -> str:
    return module.split(".", 1)[1]


LAYER_NAMES = tuple(
    [f"{_short(m)}.{attr}" for m, attr in LAYERS]
    + [f"{_short(m)}.{cls}" + ("" if attr == "__init__" else f".{attr}")
       for m, cls, attr in CLASS_LAYERS])


COUNTERS = {
    "solver.assemble": ("nodes", lambda args, kwargs, r: r.quad_points * r.basis_size),
    "solver.eigh": ("n3", lambda args, kwargs, r: args[0].shape[0] ** 3),
    "solver.refine": ("k0", lambda args, kwargs, r:
                      int((args[1] if len(args) > 1 else kwargs["k"]) == 0)),
    "embed.export_obj": ("bytes", lambda args, kwargs, r: len(r)),
}
MISSES = "quadrature.gauss_legendre.misses"


class Tracer:
    """Collects spans and counts; ``op`` is the current operation id:
    ``SETUP`` until the set-up ends, -1 in untimed operations."""

    def __init__(self):
        self.spans: list[list] = []  # [name id, start, end, parent, op, count]
        self._stack: list[int] = []
        self.op = SETUP
        self.misses = 0
        self._misses_at_start = 0
        self._gauss = None

    def _wrap(self, name_id: int, fn):
        counter = COUNTERS.get(LAYER_NAMES[name_id], (None, None))[1]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0.0]
            spans.append(span)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                span[1] = start
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer under every name that holds it in ``revspec``."""
        for mod_name, *_ in LAYERS + CLASS_LAYERS:
            importlib.import_module(mod_name)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "revspec" or n.startswith("revspec."))]
        self._gauss = sys.modules["revspec.quadrature"].gauss_legendre
        for name_id, (mod_name, attr) in enumerate(LAYERS):
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(name_id, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        for name_id, (mod_name, cls_name, attr) in enumerate(CLASS_LAYERS, len(LAYERS)):
            cls = getattr(sys.modules[mod_name], cls_name)
            setattr(cls, attr, self._wrap(name_id, getattr(cls, attr)))

    def _cache_misses(self) -> int:
        # a Gauss rule without a cache computes on every call
        info = getattr(self._gauss, "cache_info", None)
        return info().misses if info is not None else 0

    def begin_op(self, op: int) -> None:
        self.op = op
        self._misses_at_start = self._cache_misses()

    def end_op(self) -> None:
        self.misses += self._cache_misses() - self._misses_at_start
        self.op = -1

    def end_setup(self) -> None:
        self.op = -1

    def tables(self) -> dict:
        """The spans as columns, with the layer names alongside."""
        s = np.asarray(self.spans, dtype=float).reshape(-1, 6)
        return {"name": s[:, 0].astype(np.int64), "start": s[:, 1], "end": s[:, 2],
                "parent": s[:, 3].astype(np.int64), "op": s[:, 4].astype(np.int64),
                "count": s[:, 5], "names": np.asarray(LAYER_NAMES, dtype=str),
                "misses": np.asarray([self.misses], dtype=float)}


def merge(parts: list[dict]) -> dict:
    """Concatenate the span tables of separate processes, one operation
    each, renumbering parents and giving part ``i`` operation id ``i``."""
    offsets = np.cumsum([0] + [p["start"].size for p in parts[:-1]])
    out = {k: np.concatenate([p[k] for p in parts])
           for k in ("name", "start", "end", "count")}
    out["parent"] = np.concatenate([np.where(p["parent"] >= 0, p["parent"] + off, -1)
                                    for p, off in zip(parts, offsets)])
    out["op"] = np.concatenate([np.where(p["op"] >= 0, i, p["op"])
                                for i, p in enumerate(parts)])
    out["names"] = parts[0]["names"]
    out["misses"] = np.asarray([sum(float(p["misses"][0]) for p in parts)])
    return out


def layer_metrics(tables: dict, n_ops: int) -> dict[str, float]:
    """Per-operation ``calls``, ``self_s`` and counts of every layer over the
    spans of timed operations, plus the refine and report ratios."""
    names = [str(n) for n in tables["names"]]
    name, parent = tables["name"], tables["parent"]
    dur = tables["end"] - tables["start"]
    has_parent = parent >= 0
    self_s = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=dur.size)
    timed = tables["op"] >= 0
    out: dict[str, float] = {MISSES: float(tables["misses"][0]) / n_ops}
    total = {}
    for i, nm in enumerate(names):
        if nm in SETUP_LAYERS:
            sel = (tables["op"] == SETUP) & (name == i)
            out[f"{nm}.calls"] = float(np.count_nonzero(sel))
            out[f"{nm}.self_s"] = float(np.sum(self_s[sel]))
            continue
        sel = timed & (name == i)
        total[nm] = np.count_nonzero(sel)
        out[f"{nm}.calls"] = total[nm] / n_ops
        out[f"{nm}.self_s"] = float(np.sum(self_s[sel])) / n_ops
        if nm in COUNTERS:
            out[f"{nm}.{COUNTERS[nm][0]}"] = float(np.sum(tables["count"][sel])) / n_ops
    refine, solve = names.index("solver.refine"), names.index("solver.solve_channel")
    under = parent[timed & (name == solve) & has_parent]
    per_refine = np.bincount(under[name[under] == refine], minlength=dur.size)
    out["solver.refine.retries"] = float(
        np.sum(np.clip(per_refine[timed & (name == refine)] - 1, 0, None))) / n_ops
    n_solve = total["solver.solve_channel"]
    out["solver.refine.kept_ratio"] = total["solver.refine"] / n_solve if n_solve else 0.0
    reports = total["obstruction.full_report"]
    k0 = out.pop("solver.refine.k0") * n_ops
    out["obstruction.refine_k0_per_report"] = k0 / reports if reports else 0.0
    return out
