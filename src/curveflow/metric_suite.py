"""The four second-order metrics on curve space: evaluation, operator
fields L_c, kernel bases, and the quadratic momentum source used to
validate geodesics.

Metric integrands (all integrated against ds):

    M1: kappa^{-3/2} <D_s^2 h, n><D_s^2 k, n> + <D_s h, v><D_s k, v>
    M2: <D_s h, v><D_s k, v> + <D_s^2 h, n><D_s^2 k, n>
    M3: <D_s h, D_s k> + <D_s^2 h, n><D_s^2 k, n>
    M4: <D_s h, D_s k> + <D_s^2 h, D_s^2 k>

M1 is defined only on strictly convex curves.  The operator and
momentum forms hold without boundary terms on closed curves only.  All
forms read the field's curve_core.FieldJet; _integrand also serves the M2
sectional curvature.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from .curve_core import (
    CurveFrame,
    DiscreteCurve,
    FieldJet,
    _check_samples,
    _dot,
    ds_derivative,
    integrate_ds,
    rotate90,
    trapezoid_weights,
)
from .errors import BadInput, NotConvex, OpenCurveUnsupported

EPS_CONVEX = 1e-8


class MetricId(Enum):
    M1 = "M1"
    M2 = "M2"
    M3 = "M3"
    M4 = "M4"

    @classmethod
    def parse(cls, name) -> "MetricId":
        if isinstance(name, cls):
            return name
        return cls(str(name).upper())

    @property
    def fiber_dim(self) -> int:
        return {"M1": 2, "M2": 2, "M3": 3, "M4": 4}[self.value]


@dataclass(frozen=True)
class MomentumDensity:
    """Planar covector samples p with the |c'| weight already included,
    paired against fields by <p, h> = sum_k <p_k, h_k> w_k dtheta."""

    values: np.ndarray
    theta_step: float
    closed: bool = True

    def pair(self, h: np.ndarray) -> float:
        h = _check_samples(h, [self.values.shape], "h")
        w = trapezoid_weights(self.values.shape[0], self.closed)
        return float(np.einsum("k,ki,ki->", w, self.values, h) * self.theta_step)


def _require_convex(frame: CurveFrame) -> None:
    kmin = frame.kappa.min()
    if kmin <= EPS_CONVEX:
        raise NotConvex(f"min kappa = {kmin:.3e} <= EPS_CONVEX = {EPS_CONVEX:.1e}")


def _integrand(metric_id: MetricId, frame: CurveFrame, jh: FieldJet, jk: FieldJet):
    """The per-sample integrand of G_c(h, k), from the jets of h and k."""
    if metric_id is MetricId.M1:
        _require_convex(frame)
        # grouping (b2h*b2k) keeps the evaluation exactly symmetric in (h, k)
        return frame.kappa ** (-1.5) * (jh.b2 * jk.b2) + jh.a1 * jk.a1
    if metric_id is MetricId.M2:
        return jh.a1 * jk.a1 + jh.b2 * jk.b2
    if metric_id is MetricId.M3:
        return _dot(jh.d1, jk.d1) + jh.b2 * jk.b2
    return _dot(jh.d1, jk.d1) + _dot(jh.d2, jk.d2)


def metric_eval(metric_id, curve: DiscreteCurve, h, k) -> float:
    """G_c(h, k) for the requested metric, by trapezoid quadrature."""
    metric_id = MetricId.parse(metric_id)
    jh, jk = FieldJet(curve, h), FieldJet(curve, k, "k")
    return integrate_ds(curve, _integrand(metric_id, curve.frame, jh, jk))


def apply_L(metric_id, curve: DiscreteCurve, h) -> np.ndarray:
    """The operator field L_c h with integrate_ds(<L_c h, k>) = G_c(h, k).

    Built from the same difference stencils as metric_eval, which makes the
    adjoint identity hold to machine precision on closed grids.  On an
    (N,2,r) stack h all is elementwise: each column is bitwise one field's.
    """
    metric_id = MetricId.parse(metric_id)
    if not curve.closed:
        raise OpenCurveUnsupported(
            "operator form of the metric needs a closed curve "
            "(open curves produce boundary terms)")
    jet = FieldJet(curve, h, columns=True)
    frame, ds = jet.frame, partial(ds_derivative, curve)
    if metric_id is MetricId.M1:
        _require_convex(frame)
        w = frame.kappa ** (-1.5) * jet.b2
        return ds(ds(w[:, None] * frame.n)) - ds(jet.a1[:, None] * frame.v)
    if metric_id is MetricId.M2:
        return ds(ds(jet.b2[:, None] * frame.n)) - ds(jet.a1[:, None] * frame.v)
    if metric_id is MetricId.M3:
        return ds(ds(jet.b2[:, None] * frame.n)) - jet.d2
    return ds(ds(jet.d2)) - jet.d2


def hc_quadratic(metric_id, curve: DiscreteCurve, h) -> MomentumDensity:
    """(1/2) H_c(h, h): the right-hand side of the momentum form p_t of the
    geodesic equation, returned as a momentum density.

    H_c is the metric's gradient in the footpoint direction,
    <H_c(h,h), m> = D_{c,m} G_c(h,h); all four metrics yield H_c = D_s(X) ds
    for a bracket X assembled below.
    """
    metric_id = MetricId.parse(metric_id)
    if not curve.closed:
        raise OpenCurveUnsupported("momentum form requires a closed curve")
    jet = FieldJet(curve, h)
    frame = jet.frame
    a1, b1, a2, b2 = jet.a1, jet.b1, jet.a2, jet.b2
    v, n, ds = frame.v, frame.n, partial(ds_derivative, curve)
    if metric_id is MetricId.M1:
        _require_convex(frame)
        km32 = frame.kappa ** (-1.5)
        km52 = frame.kappa ** (-2.5)
        X = (a1 ** 2)[:, None] * v - 2.0 * (b1 * a1)[:, None] * n \
            - 2.0 * ds(km32 * b1 * b2)[:, None] * v \
            + 2.0 * (km32 * a2 * b2)[:, None] * n \
            - 1.5 * ds((km52 * b2 ** 2)[:, None] * n)
    elif metric_id is MetricId.M2:
        # last term pairs with <D_s m, v>, hence the v factor
        X = (a1 ** 2)[:, None] * v - 2.0 * (b1 * a1)[:, None] * n \
            - 2.0 * ds(b1 * b2)[:, None] * v \
            + 2.0 * (a2 * b2)[:, None] * n + 3.0 * (b2 ** 2)[:, None] * v
    elif metric_id is MetricId.M3:
        X = _dot(jet.d1, jet.d1)[:, None] * v - 2.0 * ds(b1 * b2)[:, None] * v \
            + 2.0 * (a2 * b2)[:, None] * n + 3.0 * (b2 ** 2)[:, None] * v
    else:
        X = 3.0 * _dot(jet.d2, jet.d2)[:, None] * v - 2.0 * ds(_dot(jet.d1, jet.d2))[:, None] * v \
            + _dot(jet.d1, jet.d1)[:, None] * v
    values = 0.5 * ds(X) * frame.speed[:, None]
    return MomentumDensity(values=values, theta_step=curve.theta_step,
                           closed=curve.closed)


def momentum_of(metric_id, curve: DiscreteCurve, h) -> MomentumDensity:
    """p = L_c h (x) ds as a per-dtheta momentum density."""
    lh = apply_L(metric_id, curve, _check_samples(h, [curve.points.shape], "h"))
    return MomentumDensity(values=lh * curve.frame.speed[:, None],
                           theta_step=curve.theta_step, closed=curve.closed)


def kernel_basis(metric_id, curve: DiscreteCurve) -> list[np.ndarray]:
    """Null-space fields of G_c: constants, plus Jc for M1/M2 (rotations)."""
    metric_id = MetricId.parse(metric_id)
    n = curve.n_samples
    e1 = np.tile([1.0, 0.0], (n, 1))
    e2 = np.tile([0.0, 1.0], (n, 1))
    basis = [e1, e2]
    if metric_id in (MetricId.M1, MetricId.M2):
        basis.append(rotate90(curve.points))
    return basis


def _time_velocity(stack: np.ndarray, dt: float) -> np.ndarray:
    """Second-order d/dt of a (K, N, 2) snapshot stack."""
    ct = np.empty_like(stack)
    ct[1:-1] = (stack[2:] - stack[:-2]) / (2.0 * dt)
    ct[0] = (4.0 * (stack[1] - stack[0]) - (stack[2] - stack[0])) / (2.0 * dt)
    ct[-1] = (4.0 * (stack[-1] - stack[-2]) - (stack[-1] - stack[-3])) / (2.0 * dt)
    return ct


def geodesic_residual(metric_id, path) -> dict:
    """Residual of the momentum form p_t = (1/2) H_c(c_t, c_t) along a path.

    `path` needs `.curves` (list of closed DiscreteCurve sharing a grid) and
    `.times` (uniform).  Velocities use second-order time stencils, p_t uses
    central time differences at interior snapshots.  Returns the L2(dtheta)
    residual norm per interior time plus max/mean.
    """
    metric_id = MetricId.parse(metric_id)
    curves = list(path.curves)
    times = np.asarray(path.times, dtype=float)
    if len(curves) < 3:
        raise BadInput("need at least 3 snapshots")
    dt = times[1] - times[0]
    if not np.allclose(np.diff(times), dt):
        raise BadInput("snapshots must be uniform in time")
    stack = np.stack([c.points for c in curves])
    ct = _time_velocity(stack, dt)
    p = np.stack([momentum_of(metric_id, c, u).values for c, u in zip(curves, ct)])
    pt = (p[2:] - p[:-2]) / (2.0 * dt)
    dtheta = curves[0].theta_step
    norms = []
    for j in range(1, len(curves) - 1):
        hc = hc_quadratic(metric_id, curves[j], ct[j]).values
        r = pt[j - 1] - hc
        norms.append(float(np.sqrt(np.sum(r ** 2) * dtheta)))
    norms = np.array(norms)
    return {"per_step": norms, "max": float(norms.max()),
            "mean": float(norms.mean()), "times": times[1:-1]}
