"""Span tracer for the benchmark's traced runs.

`Tracer.install()` replaces every public function and every public method
of the public classes of the six layer modules with a wrapper that records
a span (name, start, end, parent).  A function is replaced under every name
that any curveflow module binds it to (`geodesic_api` imports `simulate`
by name, `simulate` looks up the module-level `rattle_step`, ...), so every
call between layers is seen.  `numpy.linalg.solve` is wrapped as well; its
spans count towards the layer that called it.  Spans stay in memory until
`write()`; `uninstall()` restores the original objects.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("curve_core", "metric_suite", "rtransform", "pointwise_geometry",
          "constrained_hamiltonian", "geodesic_api")
SOLVE = "numpy.linalg.solve"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        span_name, start, end, parent, stack = (self.span_name, self.start,
                                                self.end, self.parent, self._stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        mods = [sys.modules[f"curveflow.{layer}"] for layer in LAYERS]
        everywhere = [m for name, m in sorted(sys.modules.items())
                      if name == "curveflow" or name.startswith("curveflow.")]
        for layer, mod in zip(LAYERS, mods):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{attr}", obj)
                    for other in everywhere:
                        for name, val in list(vars(other).items()):
                            if val is obj:
                                self._replace(other, name, wrapped)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._replace(obj, meth,
                                          self._wrap(f"{layer}.{attr}.{meth}", fn))
        self._replace(np.linalg, "solve", self._wrap(SOLVE, np.linalg.solve))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def mark(self) -> int:
        return len(self.span_name)

    def arrays(self, lo: int, hi: int):
        """Spans lo..hi-1 as arrays, with parents re-indexed into the slice
        (-1 for a span whose parent lies outside it)."""
        name = np.array(self.span_name[lo:hi], dtype=int)
        t0 = np.array(self.start[lo:hi])
        t1 = np.array(self.end[lo:hi])
        par = np.array(self.parent[lo:hi], dtype=int) - lo
        par[par < 0] = -1
        return name, t0, t1, par

    def write(self, path: str, meta: dict) -> None:
        data = dict(meta, names=self.names, name=self.span_name,
                    start=self.start, end=self.end, parent=self.parent)
        with open(path, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))


def layer_metrics(tracer: Tracer, ranges: list[tuple[int, int]], solves: int,
                  set_up: list[tuple[int, int]]) -> dict:
    """Per-layer figures for the traced solves, whose spans are in `ranges`
    (lo, hi).  Totals and counts are per solve; rattle_step_s and
    fiber_solve_s are medians per call.  `set_up` holds the span ranges of
    the traced set-ups."""
    parts = [tracer.arrays(lo, hi) for lo, hi in ranges]
    offsets = np.cumsum([0] + [p[0].size for p in parts[:-1]])
    name, t0, t1 = (np.concatenate([p[i] for p in parts]) for i in range(3))
    par = np.concatenate([np.where(p[3] >= 0, p[3] + off, -1)
                          for p, off in zip(parts, offsets)])
    names = tracer.names
    dur = t1 - t0
    m = name.size
    child = np.zeros(m)
    has_par = par >= 0
    np.add.at(child, par[has_par], dur[has_par])
    self_time = dur - child

    ids = {n: i for i, n in enumerate(names)}
    prefixes = [n.split(".")[0] for n in names]
    layer_of_name = np.array([LAYERS.index(p) if p in LAYERS else -1 for p in prefixes] + [-1])
    layer = layer_of_name[name]
    for i in np.flatnonzero(layer < 0):     # numpy.linalg.solve: the caller's layer
        layer[i] = layer[par[i]] if par[i] >= 0 else -1

    def is_(n):
        return name == ids.get(n, -1)

    def total(mask):
        return float(np.sum(dur[mask])) / solves

    def count(mask):
        return float(np.count_nonzero(mask)) / solves

    parent_name = np.where(par >= 0, name[np.maximum(par, 0)], -1)

    def parent_is(mask, n):
        return mask & (parent_name == ids.get(n, -2))

    out = {}
    solve_span = is_(SOLVE)
    for k, lay in enumerate(LAYERS):
        out[f"{lay}.self_s"] = float(np.sum(self_time[layer == k])) / solves
        out[f"{lay}.calls"] = count((layer == k) & ~solve_span)

    ch = "constrained_hamiltonian"
    rattle = is_(f"{ch}.rattle_step")
    steps = np.count_nonzero(rattle)
    value = is_(f"{ch}.ConstraintSystem.value")
    out[f"{ch}.rattle_steps"] = count(rattle)
    out[f"{ch}.rattle_step_s"] = float(np.median(dur[rattle])) if steps else 0.0
    out[f"{ch}.newton_iters_per_step"] = (
        np.count_nonzero(parent_is(value, f"{ch}.rattle_step")) / steps if steps else 0.0)
    out[f"{ch}.jacobian_s"] = total(is_(f"{ch}.ConstraintSystem.jacobian"))
    out[f"{ch}.dense_solve_s"] = total(solve_span & (layer == LAYERS.index(ch)))
    diag = is_(f"{ch}.discrete_energy") | is_(f"{ch}.hidden_residual") | value
    out[f"{ch}.diagnostics_s"] = total(parent_is(diag, f"{ch}.simulate"))
    out[f"{ch}.project_consistent_s"] = total(is_(f"{ch}.project_consistent"))

    bvps = np.count_nonzero(is_("geodesic_api.geodesic_bvp"))
    out["geodesic_api.simulations_per_bvp"] = (
        np.count_nonzero(is_(f"{ch}.simulate")) / bvps if bvps else 0.0)
    out["rtransform.project_image_s"] = total(is_("rtransform.project_image"))
    out["rtransform.tangent_from_free_s"] = total(is_("rtransform.tangent_from_free"))

    fiber = is_("pointwise_geometry.fiber_distance") | is_("pointwise_geometry.bvp2")
    out["pointwise_geometry.fiber_solves"] = count(fiber)
    out["pointwise_geometry.fiber_solve_s"] = (
        float(np.median(dur[fiber])) if np.any(fiber) else 0.0)
    builds = []
    for a, b in set_up:
        sn, s0, s1, _ = tracer.arrays(a, b)
        builds.append(float(np.sum((s1 - s0)[sn == ids.get("pointwise_geometry.tables", -1)])))
    out["pointwise_geometry.tables_build_s"] = float(np.median(builds)) if builds else 0.0

    out["metric_suite.apply_L_calls"] = count(is_("metric_suite.apply_L"))
    out["geodesic_api.vertical_operator_s"] = total(is_("geodesic_api.vertical_operator_matrix"))
    out["geodesic_api.dense_solve_s"] = total(
        solve_span & (layer == LAYERS.index("geodesic_api")))
    out["curve_core.build_frame_s"] = total(is_("curve_core.build_frame"))
    out["trace.layers_s"] = float(np.sum(self_time[layer >= 0])) / solves
    return out
