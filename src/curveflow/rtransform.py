"""The four curve transforms, their inverses and differentials, the
closedness/derivative constraints cutting out their images, constraint
gradients, and orthogonal projections onto image tangent spaces.

Transform components per metric (q1 is always sqrt(|c'|)-based and positive):

    M1: sqrt(|c'|) (2, 4 kappa^{1/4})          convex curves only
    M2: (sqrt(|c'|), kappa |c'|^2)
    M3: (sqrt(|c'|), alpha, kappa |c'|^2)
    M4: (sqrt(|c'|), alpha, D_s|c'|, kappa |c'|^2)

For M3/M4 the alpha component stores the real-valued lift (not mod 2pi);
for closed curves the winding number is carried alongside so that wrapped
differences are single-valued.

Discretization conventions: the M3 derivative constraint is the trapezoid
(box-scheme) row (w_k + w_{k+1})/2 - (q2_{k+1} - q2_k)/dtheta with
w = q1^-2 q3, centred at the half node and so second-order consistent; the
M4 rows use forward differences.  The closedness constraint uses the grid
quadrature (periodic trapezoid = left Riemann sum on closed grids), and
the constraint gradients are the exact adjoints of these discrete
functionals.  This module is the one definition of the constraints: rows
(constraints, and constraint_rows for the H(q) of closed M3/M4 grids),
the closedness derivative (_closure_coeffs), the M3 products DH.X,
DH^T.lam and Gram bands with coefficients cached per q (M3Jacobian; no
dense DH is built), their derivative along a tangent of q
(_m3_jacobian_tangent, for the tangent-linear RATTLE step).  The M4 rows
are geometry only: no solver here differentiates them.  Each M3 point is
built once (_M3Point, the one place the M3 solver evaluates g^-1 and its
q1-derivatives; an RPoint keeps its own) and handed to every solve at it,
with its Gram solve of A g^-1 A^T (A the derivative rows bordered by the
closedness rows), the one M3 constraint projection.
project_image takes the L2(g) projection P from that solve; the consistent
momentum and the RATTLE lambda_2 step take p -> g P(g^-1 p) = p - A^T mu
(constrained_hamiltonian._tangent_momentum).  One
solver serves every "cyclic banded + low-rank border" system - P, the
RATTLE Newton step, the periodic elliptic solve and the horizontal
projection: CyclicFactor factors [[A, cols], [rows, corner]] once (A
cyclic banded, nonsymmetric, of any half-width b; LAPACK gbtrf for its
band part, one small capacitance matrix for the wrap corners and the
border together), and each solve after that is substitution only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .curve_core import (CurveFrame, DiscreteCurve, build_frame, ds_derivative, load_json,
                         trapezoid_weights)
from .errors import BadInput, CurveflowError, NonPositive, OffImage, SingularSystem
from .metric_suite import MetricId, _require_convex
from .pointwise_geometry import _g_inv_diag, g_eval, g_inv


@dataclass(frozen=True)
class RPoint:
    """Sampled map into the transform target R^d_+ for one metric."""

    metric_id: MetricId
    q: np.ndarray
    closed: bool
    winding: int | None = None

    def __post_init__(self):
        mid = MetricId.parse(self.metric_id)
        object.__setattr__(self, "metric_id", mid)
        q = np.ascontiguousarray(np.asarray(self.q, dtype=float))
        if q.ndim != 2 or q.shape[1] != mid.fiber_dim:
            raise BadInput(f"q must be (N, {mid.fiber_dim}) for {mid.value}")
        q.setflags(write=False)
        object.__setattr__(self, "q", q)

    @property
    def n_samples(self) -> int:
        return self.q.shape[0]

    @property
    def theta_step(self) -> float:
        n = self.n_samples
        return 2.0 * np.pi / n if self.closed else 2.0 * np.pi / (n - 1)

    def with_q(self, q) -> "RPoint":
        return RPoint(self.metric_id, q, self.closed, self.winding)

    @cached_property
    def _m3(self) -> "_M3Point":
        """The record of q as a closed M3 grid point, built on first use."""
        return _M3Point(self.q)


@dataclass(frozen=True)
class ConstraintValue:
    """h_diff: per-sample derivative-compatibility residuals (None for
    M1/M2); h_cl: the planar closedness gap, equal to c(2pi) - c(0) of the
    reconstructed curve."""

    h_diff: np.ndarray | None
    h_cl: np.ndarray


def check_pattern(rpoint: RPoint) -> None:
    q = rpoint.q
    if np.any(q[:, 0] <= 0.0):
        raise NonPositive("q1 must be positive everywhere")
    if rpoint.metric_id is MetricId.M1 and np.any(q[:, 1] <= 0.0):
        raise NonPositive("M1 requires q2 > 0 (convexity)")


# -- forward / inverse / differential ---------------------------------------

def r_forward(metric_id, curve: DiscreteCurve,
              frame: CurveFrame | None = None) -> RPoint:
    metric_id = MetricId.parse(metric_id)
    if frame is None:
        frame = build_frame(curve)
    root = np.sqrt(frame.speed)
    if metric_id is MetricId.M1:
        _require_convex(frame)
        q = np.stack([2.0 * root, 4.0 * frame.kappa ** 0.25 * root], axis=1)
    elif metric_id is MetricId.M2:
        q = np.stack([root, frame.kappa * frame.speed ** 2], axis=1)
    elif metric_id is MetricId.M3:
        q = np.stack([root, frame.alpha, frame.kappa * frame.speed ** 2], axis=1)
    else:
        ds_speed = ds_derivative(curve, frame.speed, frame)
        q = np.stack([root, frame.alpha, ds_speed,
                      frame.kappa * frame.speed ** 2], axis=1)
    winding = frame.winding if (curve.closed and
                                metric_id in (MetricId.M3, MetricId.M4)) else None
    return RPoint(metric_id, q, curve.closed, winding)


def _alpha_of(rpoint: RPoint) -> np.ndarray:
    """The turning angle encoded by an RPoint (cumulative for M1/M2)."""
    q = rpoint.q
    dth = rpoint.theta_step
    mid = rpoint.metric_id
    if mid is MetricId.M1:
        w = 2.0 ** -6 * q[:, 0] ** -2 * q[:, 1] ** 4
        return cumulative_trapezoid(w, dx=dth, initial=0.0)
    if mid is MetricId.M2:
        w = q[:, 1] * q[:, 0] ** -2
        return cumulative_trapezoid(w, dx=dth, initial=0.0)
    return q[:, 1]


def _speed_of(rpoint: RPoint) -> np.ndarray:
    """|c'| encoded by an RPoint (includes the M1 inversion constant)."""
    q1 = rpoint.q[:, 0]
    if rpoint.metric_id is MetricId.M1:
        return 2.0 ** -2 * q1 ** 2
    return q1 ** 2


def r_inverse(metric_id, rpoint: RPoint | None = None) -> DiscreteCurve:
    """Reconstruct the curve (translation representative starting at the
    origin) by cumulative trapezoid integration of |c'| exp(i alpha)."""
    if rpoint is None:
        rpoint = metric_id
    elif MetricId.parse(metric_id) is not rpoint.metric_id:
        raise CurveflowError(f"metric {MetricId.parse(metric_id).value} does not "
                             f"match the {rpoint.metric_id.value} transform")
    check_pattern(rpoint)
    speed = _speed_of(rpoint)
    alpha = _alpha_of(rpoint)
    dth = rpoint.theta_step
    integrand = speed[:, None] * np.stack([np.cos(alpha), np.sin(alpha)], axis=1)
    pts = cumulative_trapezoid(integrand, dx=dth, initial=0.0, axis=0)
    return DiscreteCurve(pts, rpoint.closed)


def dr(metric_id, curve: DiscreteCurve, h,
       frame: CurveFrame | None = None) -> np.ndarray:
    """Differential of the transform at c applied to the field h."""
    metric_id = MetricId.parse(metric_id)
    if frame is None:
        frame = build_frame(curve)
    h = np.asarray(h, dtype=float)
    dsh = ds_derivative(curve, h, frame)
    ds2h = ds_derivative(curve, dsh, frame)
    a1 = np.einsum("ki,ki->k", dsh, frame.v)
    b1 = np.einsum("ki,ki->k", dsh, frame.n)
    a2 = np.einsum("ki,ki->k", ds2h, frame.v)
    b2 = np.einsum("ki,ki->k", ds2h, frame.n)
    root = np.sqrt(frame.speed)
    if metric_id is MetricId.M1:
        _require_convex(frame)
        return np.stack([a1 * root, frame.kappa ** -0.75 * b2 * root], axis=1)
    if metric_id is MetricId.M2:
        return np.stack([0.5 * a1 * root, b2 * frame.speed ** 2], axis=1)
    if metric_id is MetricId.M3:
        return np.stack([0.5 * a1 * root, b1, b2 * frame.speed ** 2], axis=1)
    return np.stack([0.5 * a1 * root, b1,
                     frame.speed * a2 + frame.speed * frame.kappa * b1,
                     b2 * frame.speed ** 2], axis=1)


# -- constraints ------------------------------------------------------------

def _shift(v: np.ndarray, j: int) -> np.ndarray:
    """v_{k+j} along axis 0 on a closed grid (np.roll(v, -j, 0), cheaper)."""
    return np.concatenate((v[j:], v[:j]))


def _forward_diff(f: np.ndarray, dth: float, closed: bool,
                  wrap_offset: float = 0.0) -> np.ndarray:
    """(f_{k+1} - f_k)/dth; closed grids wrap, adding wrap_offset at the
    seam (2 pi winding for angle lifts).  Open grids return N-1 values."""
    if closed:
        nxt = _shift(f, 1)
        nxt[-1] += wrap_offset
        return (nxt - f) / dth
    return (f[1:] - f[:-1]) / dth


def _m3_rate(q: np.ndarray) -> np.ndarray:
    """w = q1^-2 q3, the turning rate alpha' the constraint predicts."""
    return q[:, 2] * q[:, 0] ** -2


def m3_diff_value(q: np.ndarray, dth: float, closed: bool = True,
                  wrap: float = 0.0) -> np.ndarray:
    """The M3 derivative-constraint rows (N on closed grids, N-1 open)."""
    w = _m3_rate(q)
    mean = 0.5 * (w + _shift(w, 1)) if closed else 0.5 * (w[:-1] + w[1:])
    return mean - _forward_diff(q[:, 1], dth, closed, wrap)


def m4_diff_value(q: np.ndarray, dth: float, closed: bool = True,
                  wrap: float = 0.0) -> np.ndarray:
    """The stacked M4 derivative-constraint rows (q3 - 2 q1^-1 D+q1,
    q4 - q1^2 D+q2), 2N on closed grids and 2(N-1) open."""
    d1 = _forward_diff(q[:, 0], dth, closed)
    d2 = _forward_diff(q[:, 1], dth, closed, wrap)
    head = q if closed else q[:-1]
    return np.concatenate([head[:, 2] - 2.0 * head[:, 0] ** -1 * d1,
                           head[:, 3] - head[:, 0] ** 2 * d2])


_DIFF_ROWS = {MetricId.M3: m3_diff_value, MetricId.M4: m4_diff_value}


def _closedness(weight: np.ndarray, angle: np.ndarray, dth: float) -> np.ndarray:
    """The two closedness rows sum_k weight_k (cos, sin)(angle_k) dtheta;
    weight is tau q1^2 and angle the turning angle (q2 for M3/M4)."""
    return np.array([np.sum(weight * np.cos(angle)) * dth,
                     np.sum(weight * np.sin(angle)) * dth])


def _closure_coeffs(q1: np.ndarray, angle: np.ndarray, dth: float) -> np.ndarray:
    """gc[i, j, k]: d(closedness row i)/d(q1, angle)_j at sample k, for the
    rows sum_k q1^2 (cos angle, sin angle) dtheta."""
    gc = np.empty((2, 2, q1.shape[0]))
    gc[0, 0] = 2.0 * q1 * np.cos(angle) * dth
    gc[0, 1] = -q1 ** 2 * np.sin(angle) * dth
    gc[1, 0] = 2.0 * q1 * np.sin(angle) * dth
    gc[1, 1] = q1 ** 2 * np.cos(angle) * dth
    return gc


def _closedness_newton(q: np.ndarray, dth: float, cl: np.ndarray) -> np.ndarray:
    """The (n, 2) Newton correction of (q1, q2) for the closedness rows cl
    of a closed M3/M4 grid, along their Euclidean gradient span."""
    gc = _closure_coeffs(q[:, 0], q[:, 1], dth)
    mu = np.linalg.solve(np.einsum("ijk,ljk->il", gc, gc), cl)
    return np.einsum("ijk,i->kj", gc, mu)


def constraint_rows(metric_id: MetricId, q: np.ndarray, winding: int) -> np.ndarray:
    """H(q) of a closed M3/M4 grid, q2 wrapping by 2 pi winding: the
    derivative rows, then the two closedness rows, of constraints()."""
    dth = 2.0 * np.pi / q.shape[0]
    diff = _DIFF_ROWS[MetricId.parse(metric_id)](q, dth, True, 2.0 * np.pi * winding)
    return np.concatenate([diff, _closedness(q[:, 0] ** 2, q[:, 1], dth)])


class M3Jacobian:
    """DH(q) of a closed M3 grid (N trapezoid rows J, then the closedness
    rows C) as O(n) products: apply(X) = DH . X for X (n, 3) or (n, 3, r),
    apply_t(lam) = DH^T . lam for lam (n+2,) or (n+2, r).  The coefficients
    are computed once per q: gw1, gw3 = dw/dq1, dw/dq3 for w = q1^-2 q3
    (row k of J is (gw1/2, 1/dth, gw3/2) at sample k and (gw1/2, -1/dth,
    gw3/2) at k+1) and gc = _closure_coeffs."""

    def __init__(self, q: np.ndarray, dth: float):
        q1 = q[:, 0]
        self.n, self.dth = q.shape[0], dth
        self.gw1, self.gw3 = -2.0 * q[:, 2] * q1 ** -3, q1 ** -2
        self.gc = _closure_coeffs(q1, q[:, 1], dth)

    def apply(self, X: np.ndarray) -> np.ndarray:
        sl = (slice(None),) + (None,) * (X.ndim - 2)
        half_y = 0.5 * (self.gw1[sl] * X[:, 0] + self.gw3[sl] * X[:, 2])
        d2 = X[:, 1] / self.dth
        # row k = (half_y + d2)_k + (half_y - d2)_{k+1}: one cyclic shift
        return np.concatenate([half_y + d2 + _shift(half_y - d2, 1),
                               np.einsum("ijk,kj...->i...", self.gc, X[:, :2])])

    def apply_t(self, lam: np.ndarray) -> np.ndarray:
        mu = lam[:self.n]
        sl = (slice(None),) + (None,) * (lam.ndim - 1)
        prev = _shift(mu, -1)
        avg = 0.5 * (mu + prev)
        out = np.stack([self.gw1[sl] * avg, (mu - prev) / self.dth,
                        self.gw3[sl] * avg], axis=1)
        out[:, :2] += np.einsum("ijk,i...->kj...", self.gc, lam[self.n:])
        return out

    def gram_bands(self, ginv: np.ndarray) -> np.ndarray:
        """The (3, n) cyclic bands of S = J g^-1 J^T (CyclicFactor's
        layout) for a diagonal g^-1 given as (n, 3): S[k, k] and S[k, k+1]
        = S[k+1, k]."""
        s = self.gw1 ** 2 * ginv[:, 0] + self.gw3 ** 2 * ginv[:, 2]
        g2 = ginv[:, 1]
        s_next, g2_next = _shift(s, 1), _shift(g2, 1)
        upper = 0.25 * s_next - g2_next / self.dth ** 2
        return np.stack([_shift(upper, -1),
                         0.25 * (s + s_next) + (g2 + g2_next) / self.dth ** 2, upper])


def _m3_jacobian_tangent(pt: "_M3Point", dq: np.ndarray):
    """The derivative of DH(q) at the M3 point pt along the columns dq (n,
    3, r) of q, as the products (k -> dDH k, lam -> dDH^T lam) for one k
    (n, 3) or one lam (n+2,), giving (n+2, r) and (n, 3, r).  Only
    M3Jacobian's coefficients move with q: gw1 = q3 dginv2 and gw3 = ginv2
    (the partials of w = q1^-2 q3) and gc; the +-1/dtheta entries are
    constant.  dDH^T lam is the Hessian of lam . H(q) applied to dq."""
    n, dth = pt.q.shape[0], pt.dth
    x, a, q3 = pt.q[:, 0, None], pt.q[:, 1, None], pt.q[:, 2, None]
    dx, da, d3 = dq[:, 0], dq[:, 1], dq[:, 2]
    dgw1 = q3 * pt.d2ginv[:, 1, None] * dx + pt.dginv[:, 1, None] * d3
    dgw3 = pt.dginv[:, 1, None] * dx
    c, s = np.cos(a) * dth, np.sin(a) * dth
    dgc = np.array([[2.0 * (c * dx - x * s * da), -(2.0 * x * s * dx + x ** 2 * c * da)],
                    [2.0 * (s * dx + x * c * da), 2.0 * x * c * dx - x ** 2 * s * da]])

    def apply(k):
        half_y = 0.5 * (dgw1 * k[:, 0, None] + dgw3 * k[:, 2, None])
        return np.concatenate([half_y + _shift(half_y, 1),
                               np.einsum("ijkr,kj->ir", dgc, k[:, :2])])

    def apply_t(lam):
        mu = lam[:n]
        avg = 0.5 * (mu + _shift(mu, -1))[:, None]
        out = np.zeros_like(dq)
        out[:, 0], out[:, 2] = dgw1 * avg, dgw3 * avg
        out[:, :2] += np.einsum("ijkr,i->kjr", dgc, lam[n:])
        return out

    return apply, apply_t


def _winding_of(rpoint: RPoint) -> int:
    if rpoint.winding is not None:
        return rpoint.winding
    diff = _DIFF_ROWS.get(rpoint.metric_id)
    if not rpoint.closed or diff is None:
        return 0
    # the wrap that zeroes the seam derivative row: dtheta times that row
    # without it (divided by q1^2 in the M4 q4 row)
    q, dth = rpoint.q, rpoint.theta_step
    seam = diff(q, dth)[-1] / (q[-1, 0] ** 2 if rpoint.metric_id is MetricId.M4 else 1.0)
    return int(round(dth * seam / (2.0 * np.pi)))


def constraints(rpoint: RPoint) -> ConstraintValue:
    """Evaluate the image constraints at an RPoint.

    h_cl equals the endpoint gap c(2pi) - c(0) of r_inverse(q) under the
    grid quadrature (for M1 this includes the 2^-2 inversion constant, so
    the zero set is unchanged but the value is the geometric gap).
    For M3 h_diff is the trapezoid row (w_k + w_{k+1})/2 -
    (q2^{k+1} - q2^k)/dtheta with w = q1^-2 q3; for M4 it is the stacked
    forward-difference pair (q3 - 2 q1^-1 q1', q4 - q1^2 q2').
    """
    check_pattern(rpoint)
    q = rpoint.q
    dth = rpoint.theta_step
    mid = rpoint.metric_id
    tau = trapezoid_weights(rpoint.n_samples, rpoint.closed)
    scale = 2.0 ** -2 if mid is MetricId.M1 else 1.0
    h_cl = scale * _closedness(tau * q[:, 0] ** 2, _alpha_of(rpoint), dth)
    diff = _DIFF_ROWS.get(mid)
    h_diff = None if diff is None else diff(q, dth, rpoint.closed,
                                            2.0 * np.pi * _winding_of(rpoint))
    return ConstraintValue(h_diff=h_diff, h_cl=h_cl)


def closure_scale(rpoint: RPoint) -> float:
    """Length-like scale sum q1^2 dtheta used for relative tolerances."""
    tau = trapezoid_weights(rpoint.n_samples, rpoint.closed)
    return float(np.sum(tau * rpoint.q[:, 0] ** 2) * rpoint.theta_step)


# -- exact discrete constraint gradients ------------------------------------

def _adjoint_cumtrapz(u: np.ndarray, dth: float) -> np.ndarray:
    """Transpose of w -> cumulative_trapezoid(w, initial=0) applied to u.

    With alpha_k = dth * (w_0/2 + w_1 + ... + w_{k-1} + w_k/2), the
    adjoint is a reverse cumulative sum: the discrete tail integral."""
    n = u.shape[0]
    tail = np.concatenate([np.cumsum(u[::-1])[::-1][1:], [0.0]])
    out = dth * (0.5 * u + tail)
    out[0] = dth * 0.5 * tail[0]
    return out


def weighted_inner(metric_id, q_array, a, b, closed: bool) -> float:
    """The L2(g) pairing sum tau_k g_{q_k}(a_k, b_k) dtheta."""
    n = q_array.shape[0]
    dth = 2.0 * np.pi / n if closed else 2.0 * np.pi / (n - 1)
    tau = trapezoid_weights(n, closed)
    vals = g_eval(metric_id, q_array, np.asarray(a, float), np.asarray(b, float))
    return float(np.sum(tau * vals) * dth)


def constraint_gradients(rpoint: RPoint) -> list[np.ndarray]:
    """L2(g)-gradients of the two closedness constraint components.

    These are the exact adjoints of the discrete constraints() functional
    (tail integrals realized as reverse cumulative sums), so directional
    derivatives match finite differences to solver precision; on closed
    grids they agree with the continuum formulas to quadrature order, and
    for M3 exactly.
    """
    check_pattern(rpoint)
    q = rpoint.q
    mid = rpoint.metric_id
    dth = rpoint.theta_step
    tau = trapezoid_weights(rpoint.n_samples, rpoint.closed)
    scale = 2.0 ** -2 if mid is MetricId.M1 else 1.0
    q1 = q[:, 0]
    # d(closedness row i)/d(q1, alpha) per sample
    gc = scale * tau * _closure_coeffs(q1, _alpha_of(rpoint), dth)
    grads = []
    for dq1, dalpha in gc:
        e = np.zeros_like(q)
        e[:, 0] = dq1
        if mid in (MetricId.M3, MetricId.M4):
            e[:, 1] = dalpha
        else:
            t = _adjoint_cumtrapz(dalpha, dth)  # multiplier of d(alpha'-density)
            if mid is MetricId.M1:
                e[:, 0] += t * (-2.0) * 2.0 ** -6 * q1 ** -3 * q[:, 1] ** 4
                e[:, 1] = t * 4.0 * 2.0 ** -6 * q1 ** -2 * q[:, 1] ** 3
            else:
                e[:, 0] += t * (-2.0) * q[:, 1] * q1 ** -3
                e[:, 1] = t * q1 ** -2
        grads.append(g_inv(mid, q, e / (tau * dth)[:, None]))
    return grads


# -- cyclic banded solves -------------------------------------------------------

class CyclicFactor:
    """The bordered cyclic banded system [[A, cols], [rows, corner]], factored
    once: A[i, (i + j) % n] = bands[b + j, i] for |j| <= b, bands (2b+1, n)
    with n > 2b (A need not be symmetric), an (n, k) column border, a (k, n)
    row border and a (k, k) corner, k = 0 without a border.  LAPACK gbtrf
    factors the band part A' of A.  The wrap corners A - A' = E W E^T (E the
    first and last b unit columns) and the border enter through one
    (2b + k) capacitance matrix, inverted once: with Z = A'^-1 [E, cols],
    [x; y] = [A'^-1 f - Z s; s[2b:]] where K s = P A'^-1 f + [0; g], P =
    [W E^T; -rows] and K = diag(I, corner) + P Z.  solve([f; g]) is then
    substitution only, for (n + k,) or (n + k, r) right-hand sides, and
    each column must pass a residual check on the whole bordered system;
    a failed check or a singular band part raises SingularSystem, a partial
    or misshapen border or right-hand side BadInput."""

    def __init__(self, bands, cols=None, rows=None, corner=None):
        bands = np.asarray(bands, dtype=float)
        w, n = bands.shape if bands.ndim == 2 else (0, 0)
        b = w // 2
        if w != 2 * b + 1 or n <= 2 * b:
            raise BadInput(f"bands must be (2b+1, n) with n > 2b, got {bands.shape}")
        self.bands, self.b, self.n = bands, b, n
        if cols is None and rows is None and corner is None:
            cols, rows, corner = np.zeros((n, 0)), np.zeros((0, n)), np.zeros((0, 0))
        # a missing part becomes a 0-d NaN array, of the wrong shape
        self.cols, self.rows, self.corner = (np.asarray(x, dtype=float)
                                             for x in (cols, rows, corner))
        k = self.cols.shape[-1] if self.cols.ndim else -1
        shapes = (self.cols.shape, self.rows.shape, self.corner.shape)
        if shapes != ((n, k), (k, n), (k, k)):
            raise BadInput(f"border must be cols (n, k), rows (k, n) and corner (k, k) together, "
                           f"n = {n}; got {shapes}")
        self._ends = np.arange(2 * b)       # rows of E: the first and last b
        self._ends[b:] += n - 2 * b
        ab = np.zeros((3 * b + 1, n))       # gbtrf layout ab[2b + i - k, k] = A'[i, k]
        self._W = np.zeros((2 * b, 2 * b))  # [[0, R], [L, 0]]
        ab[2 * b] = bands[b]
        for j in range(1, b + 1):
            ab[2 * b - j, j:] = bands[b + j, :n - j]
            ab[2 * b + j, :n - j] = bands[b - j, j:]
            i = np.arange(j)
            self._W[i, 2 * b - j + i] = bands[b - j, :j]
            self._W[2 * b - j + i, i] = bands[b + j, n - j:]
        self._lu, self._piv, info = dgbtrf(ab, b, b, overwrite_ab=True)
        if info > 0:
            raise SingularSystem("cyclic banded solve: singular matrix")
        E = np.zeros((n, 2 * b + self.cols.shape[1]))
        E[self._ends, np.arange(2 * b)] = 1.0
        E[:, 2 * b:] = self.cols
        self._Z = dgbtrs(self._lu, b, b, E, self._piv, overwrite_b=True)[0]
        K = self._border(self._Z)
        K[:2 * b, :2 * b] += np.eye(2 * b)
        K[2 * b:, 2 * b:] += self.corner
        try:
            self._kinv = np.linalg.inv(K)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"cyclic banded solve: {exc}") from exc

    def _border(self, X):
        """P X = [W E^T X; -rows X] for X (n, r)."""
        return np.concatenate([self._W @ X[self._ends], -self.rows @ X])

    def solve(self, rhs) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        n, b = self.n, self.b
        if rhs.ndim not in (1, 2) or rhs.shape[0] != n + self.cols.shape[1]:
            raise BadInput(f"right-hand side must be (n + k,) or (n + k, r) with n + k = "
                           f"{n + self.cols.shape[1]}, got {rhs.shape}")
        cols = rhs.reshape(rhs.shape[0], -1)
        y = dgbtrs(self._lu, b, b, cols[:n], self._piv)[0]
        small = self._border(y)
        small[2 * b:] += cols[n:]
        s = self._kinv @ small
        u = np.concatenate([y - self._Z @ s, s[2 * b:]])
        x, bands = u[:n], self.bands
        res = np.concatenate([bands[b][:, None] * x + self.cols @ u[n:],
                              self.rows @ x + self.corner @ u[n:]]) - cols
        for j in range(1, b + 1):
            res[:n] += bands[b + j][:, None] * _shift(x, j) + bands[b - j][:, None] * _shift(x, -j)
        if not np.all(np.abs(res).max(axis=0)
                      <= 1e-8 * np.maximum(1.0, np.abs(cols).max(axis=0))):
            raise SingularSystem("cyclic banded solve failed to converge")
        return u.reshape(rhs.shape)


def elliptic_solve(a, b, f, dtheta: float) -> np.ndarray:
    """Solve the periodic equation -(a u')' + b u = f with the conservative
    second-order stencil

        -(a_{k+1/2}(u_{k+1}-u_k) - a_{k-1/2}(u_k-u_{k-1}))/dtheta^2 + b_k u_k = f_k

    by CyclicFactor; edge values a_{k+1/2} are arithmetic means of node
    values.
    """
    a, b, f = (np.asarray(x, dtype=float) for x in (a, b, f))
    if a.ndim != 1 or not a.shape == b.shape == f.shape or not np.isfinite([a, b, f]).all():
        raise BadInput(f"a, b and f must be finite (n,) arrays, got {a.shape}, {b.shape}, "
                       f"{f.shape}")
    if np.any(a <= 0.0) or np.any(b < 0.0):
        raise BadInput("need a > 0 and b >= 0")
    ae = 0.5 * (a + _shift(a, 1)) / dtheta ** 2     # a_{k+1/2} / dtheta^2
    aw = _shift(ae, -1)                             # a_{k-1/2} / dtheta^2
    return CyclicFactor(np.stack([-aw, ae + aw + b, -ae])).solve(f)


# -- orthogonal projection onto the image tangent space ----------------------

class _M3Point:
    """One point q of a closed M3 grid, built once and handed along: the
    diagonal g^-1 (n, 3) and, made on first use, DH(q) (jac), the q1-
    derivatives dginv and d2ginv of g^-1 (d2ginv for the tangent pass only)
    and the Gram solve (gram).  q1 > 0 is checked here, once."""

    def __init__(self, q: np.ndarray):
        x = q[:, 0]
        if np.any(x <= 0.0):
            raise NonPositive(f"M3: q1 must be positive (min {np.min(x):.3e})")
        self.q, self.dth = q, 2.0 * np.pi / q.shape[0]
        self.ginv = _g_inv_diag(MetricId.M3, q)

    @cached_property
    def jac(self) -> M3Jacobian:
        return M3Jacobian(self.q, self.dth)

    @cached_property
    def dginv(self) -> np.ndarray:
        """(0, -2 q1^-3, 6 q1^5), the q1-derivative of g^-1 = (1/4, q1^-2, q1^6)."""
        return self.ginv * [0.0, -2.0, 6.0] / self.q[:, :1]

    @cached_property
    def d2ginv(self) -> np.ndarray:
        """(0, 6 q1^-4, 30 q1^4), the second q1-derivative of g^-1."""
        return self.dginv * [0.0, -3.0, 5.0] / self.q[:, :1]

    @cached_property
    def gram(self):
        """solve(rhs) = (A g^-1 A^T)^-1 rhs for rhs (n+2,) or (n+2, r), where
        A is the trapezoid derivative rows J bordered by the closedness rows
        C.  A g^-1 A^T is the cyclic tridiagonal J g^-1 J^T (gram_bands)
        bordered by J g^-1 C^T, its transpose and C g^-1 C^T: one
        CyclicFactor for every solve at the point."""
        n, jac, ginv = self.q.shape[0], self.jac, self.ginv
        border = np.zeros(self.q.shape + (2,))                 # g^-1 C^T
        border[:, :2] = ginv[:, :2, None] * jac.gc.transpose(2, 1, 0)
        ab = jac.apply(border)
        return CyclicFactor(jac.gram_bands(ginv), ab[:n], ab[:n].T, ab[n:]).solve


def _remove_span(metric_id, q, closed, h, basis):
    """Subtract the L2(g)-orthogonal projection of h onto span(basis)."""
    m = len(basis)
    gram = np.empty((m, m))
    rhs = np.empty(m)
    for i in range(m):
        rhs[i] = weighted_inner(metric_id, q, h, basis[i], closed)
        for j in range(i, m):
            gram[i, j] = gram[j, i] = weighted_inner(metric_id, q,
                                                     basis[i], basis[j], closed)
    beta = np.linalg.solve(gram, rhs)
    out = h.copy()
    for i in range(m):
        out -= beta[i] * basis[i]
    return out


def project_image(rpoint: RPoint, h, image_tol: float = 1e-3) -> np.ndarray:
    """L2(g)-orthogonal projection of an ambient tangent h onto the tangent
    space of the image of the transform (closed curves).

    M1/M2: subtract the span of the two closedness gradients.  M3: k = h -
    g^-1 A^T mu with (A g^-1 A^T) mu = A h by _M3Point.gram, exact for the
    discrete rows; h may also be (n, 3, r), r fields.  M4 is BadInput.
    Raises OffImage when the constraints at q exceed image_tol relative to
    the closure scale.
    """
    metric_id = rpoint.metric_id
    if metric_id is MetricId.M4:
        raise BadInput("image projection is provided for M1, M2 and M3, not M4")
    if not rpoint.closed:
        raise OffImage("projection is defined on closed-curve images")
    val = constraints(rpoint)
    if np.linalg.norm(val.h_cl) > image_tol * closure_scale(rpoint):
        raise OffImage(f"|H_cl| = {np.linalg.norm(val.h_cl):.3e} too large")
    if val.h_diff is not None and np.max(np.abs(val.h_diff)) > image_tol * max(
            1.0, float(np.max(np.abs(rpoint.q[:, 2])))):
        raise OffImage("derivative constraint residual too large")
    h = np.asarray(h, dtype=float)
    if metric_id is MetricId.M3:
        pt = rpoint._m3
        lam = pt.gram(pt.jac.apply(h))
        return h - pt.ginv.reshape(pt.ginv.shape + (1,) * (h.ndim - 2)) * pt.jac.apply_t(lam)
    return _remove_span(metric_id, rpoint.q, rpoint.closed, h,
                        constraint_gradients(rpoint))


# -- file format ------------------------------------------------------------

def rpoint_to_dict(rpoint: RPoint) -> dict:
    data = {"metric": rpoint.metric_id.value, "closed": bool(rpoint.closed),
            "q": [[float(x) for x in row] for row in rpoint.q]}
    if rpoint.winding is not None:
        data["winding"] = int(rpoint.winding)
    return data


def rpoint_from_dict(data: dict) -> RPoint:
    return RPoint(MetricId.parse(data["metric"]),
                  np.array(data["q"], dtype=float),
                  bool(data["closed"]),
                  data.get("winding"))


def save_rpoint(rpoint: RPoint, path) -> None:
    with open(path, "w") as fh:
        json.dump(rpoint_to_dict(rpoint), fh)
        fh.write("\n")


def load_rpoint(path) -> RPoint:
    return load_json(path, rpoint_from_dict, "transform")
