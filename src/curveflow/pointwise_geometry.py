"""Finite-dimensional model geometry behind the transforms.

Fiber metrics on the transform targets:

    M1: identity (flat L2 target)
    M2: diag(4, q1^-6)                     on R_{>0} x R
    M3: diag(4, q1^2, q1^-6)               on R_{>0} x R x R
    M4: 4x4 with a coupled (q2, q3) block  on R_{>0} x R x R x R

`_fiber` is the one definition of g and g^-1: every reader of either, in
this module or another, takes it from there.  Plus the complete geometry
of the half-plane (R_{>0} x R, 4dx^2 + x^-6 dy^2): geodesic spray (with
RK4, the reference), exact trajectories via the incomplete integral
F(u) = int_0^u z^6 / sqrt(1 - z^6) dz, the boundary value solver,
Gauss curvature -3/x^2, a geodesic-distance lower bound, and the
sectional curvature of metric M2 on curve space.

The solvers work on whole arrays of fibers, one half-plane problem per
theta of an M2 geodesic or distance.  `_fiber_ivp` walks the closed-form
geodesics from initial velocities; `_solve_fibers` solves the boundary
problems (point, ray, arc1, arc2; both arcs in one root solve) and samples
each path by that walk.  `bvp2` and `fiber_distance` are its one-fiber calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np
from scipy.linalg import solve_banded

from .curve_core import DiscreteCurve, FieldJet, _finite, integrate_ds
from .errors import (
    BadInput,
    DegeneratePlane,
    DomainExit,
    NoConvergence,
    NonPositive,
    OutOfRange,
)
from .metric_suite import MetricId, _integrand

# -- fiber metrics ----------------------------------------------------------


def _as2d(q, dim):
    q = _finite(q, "q")
    squeeze = q.ndim == 1
    q = np.atleast_2d(q)
    if q.shape[-1] != dim:
        raise BadInput(f"expected last axis {dim}, got {q.shape}")
    return q, squeeze


def _fiber(metric_id, q, power):
    """The fiber metric g (power 1) or its inverse (power -1) at the points
    q (n, d): the (n, d) diagonal of M1-M3, the (n, 4, 4) matrices of M4.
    The one definition of both; q1 > 0 is checked here."""
    q1 = q[:, 0]
    if np.any(q1 <= 0.0):
        raise NonPositive(f"{metric_id.value}: q1 must be positive (min {np.min(q1):.3e})")
    if metric_id is MetricId.M1:
        return np.ones_like(q)
    diag = np.empty_like(q)
    diag[:, 0], diag[:, -1] = 4.0 ** power, q1 ** (-6 * power)
    if metric_id is MetricId.M3:
        diag[:, 1] = q1 ** (2 * power)
    if metric_id is not MetricId.M4:
        return diag
    # the (q2, q3) block has determinant 1: g^-1 swaps its diagonal and
    # negates its coupling
    q4 = q[:, 3]
    outer, inner = q1 ** 2 + q4 ** 2 * q1 ** -6, q1 ** -2
    g = np.zeros(q.shape + (4,))
    g[:, 0, 0], g[:, 3, 3] = diag[:, 0], diag[:, 3]
    g[:, 1, 1], g[:, 2, 2] = (outer, inner) if power == 1 else (inner, outer)
    g[:, 1, 2] = g[:, 2, 1] = -power * q4 * q1 ** -4
    return g


def _apply(metric_id, q, v, power):
    """g (power 1) or g^-1 (power -1) at q applied to v.  M1-M3 multiply by
    the diagonal, so v may also be (n, d, r), r fields at once; only M4
    contracts the dense matrix."""
    metric_id = MetricId.parse(metric_id)
    v = np.asarray(v, dtype=float)
    q, squeeze = _as2d(q, metric_id.fiber_dim)
    g = _fiber(metric_id, q, power)
    g = g[0] if squeeze else g
    if metric_id is MetricId.M4:
        return g @ v if squeeze else np.einsum("kij,kj->ki", g, v)
    return g.reshape(g.shape + (1,) * (v.ndim - g.ndim)) * v


def g_matrix(metric_id, q) -> np.ndarray:
    """Fiber metric as (..., d, d) matrices at the points q."""
    metric_id = MetricId.parse(metric_id)
    d = metric_id.fiber_dim
    q, squeeze = _as2d(q, d)
    g = _fiber(metric_id, q, 1)
    if metric_id is not MetricId.M4:
        diag, g = g, np.zeros(q.shape + (d,))
        g[:, np.arange(d), np.arange(d)] = diag
    return g[0] if squeeze else g


def g_apply(metric_id, q, h) -> np.ndarray:
    """Lower an index: g_q(h, .)."""
    return _apply(metric_id, q, h, 1)


def _paired(gv, k):
    """gv . k pointwise, for gv = g v or g^-1 v already applied (_apply)."""
    k = np.asarray(k, dtype=float)
    return float(gv @ k) if gv.ndim == 1 else np.einsum("ki,ki->k", gv, k)


def g_eval(metric_id, q, h, k):
    """g_q(h, k) pointwise (scalar or per-sample array)."""
    return _paired(_apply(metric_id, q, h, 1), k)


def g_inv(metric_id, q, p) -> np.ndarray:
    """Raise an index: g_q^{-1}(p, .)."""
    return _apply(metric_id, q, p, -1)


# -- the singular integral F and its arclength sibling ----------------------

def _psi(z):
    """(1 - z^6)/(1 - z) = 1 + z + z^2 + z^3 + z^4 + z^5."""
    return 1.0 + z * (1.0 + z * (1.0 + z * (1.0 + z * (1.0 + z))))


def F_integral(u: float) -> float:
    """F(u) = int_0^u z^6 / sqrt(1 - z^6) dz, absolute error < 1e-10.

    The endpoint singularity at z = 1 is removed by the substitution
    z = 1 - t^2, under which the integrand becomes 2 z^6 / sqrt(psi(z)).
    """
    from scipy.integrate import quad
    if not -1e-12 <= u <= 1.0 + 1e-12:
        raise OutOfRange(f"F is defined on [0, 1]; got {u}")
    u = min(max(u, 0.0), 1.0)
    if u <= 0.9:
        val, _ = quad(lambda z: z ** 6 / np.sqrt(1.0 - z ** 6), 0.0, u,
                      epsabs=1e-13, epsrel=1e-13, limit=200)
        return val
    head, _ = quad(lambda z: z ** 6 / np.sqrt(1.0 - z ** 6), 0.0, 0.9,
                   epsabs=1e-13, epsrel=1e-13, limit=200)
    tail, _ = quad(lambda t: 2.0 * (1.0 - t * t) ** 6 / np.sqrt(_psi(1.0 - t * t)),
                   np.sqrt(1.0 - u), np.sqrt(0.1),
                   epsabs=1e-13, epsrel=1e-13, limit=200)
    return head + tail


def _cumulative_simpson(y, x):
    """scipy's cumulative_simpson(y, x=x, initial=0.0), same formulas and bits:
    each even step by Simpson on the triple it starts, odd and last ones on the triple they end."""
    def first_steps(y, dx):              # scipy's unequal-interval formula
        x21, x32 = dx[:-1], dx[1:]
        x21_x31 = x21 / (x21 + x32)
        x21x21_x31x32 = x21_x31 * (x21 / x32)
        return x21 / 6 * ((3 - x21_x31) * y[:-2] + (3 + x21x21_x31x32 + x21_x31) * y[1:-1]
                          + -x21x21_x31x32 * y[2:])
    dx = np.diff(x)
    ahead, behind = first_steps(y, dx), first_steps(y[::-1], dx[::-1])[::-1]
    steps = np.empty(dx.size)
    steps[:-1:2], steps[1::2], steps[-1] = ahead[::2], behind[::2], behind[-1]
    return np.concatenate(([0.0], np.cumsum(steps)))


def _spline(x, y):
    """scipy's not-a-knot CubicSpline(x, y).c, the (4, n - 1) coefficients
    highest power first, same formulas and bits: the tridiagonal solve for
    the knot slopes m, then the Hermite cubic on each step."""
    dx = np.diff(x)
    slope = np.diff(y) / dx
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    A = np.array([np.r_[0.0, d0, dx[:-1]], np.r_[dx[1], 2 * (dx[:-1] + dx[1:]), dx[-2]],
                  np.r_[dx[1:], d1, 0.0]])
    b = np.r_[((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0,
              3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:]),
              (dx[-1] ** 2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1]
    m = solve_banded((1, 1), A, b[:, None], overwrite_ab=True, overwrite_b=True,
                     check_finite=False)[:, 0]
    t = (m[:-1] + m[1:] - 2 * slope) / dx
    return np.stack([t / dx, (slope - m[:-1]) / dx - t, m[:-1], y[:-1]])


class _Tables:
    """Dense spline tables in s = sqrt(1 - u), which resolves the endpoint,
    for F and the arclength integral Phi(u) = int_0^u dz / sqrt(1 - z^6),
    on 4001 uniform knots by numpy ports of scipy's cumulative_simpson and
    CubicSpline (same bits).  The first M2 half-plane geodesic builds them,
    once per process, in about a millisecond."""

    _steps = 4000                            # of the uniform s grid

    def __init__(self):
        s = np.linspace(0.0, 1.0, self._steps + 1)
        z = 1.0 - s * s
        root = np.sqrt(_psi(z))
        f_int = 2.0 * z ** 6 / root          # dF in -s direction
        p_int = 2.0 / root                   # dPhi in -s direction
        cf = _cumulative_simpson(f_int, s)
        cp = _cumulative_simpson(p_int, s)
        self.A, self.phi1 = float(cf[-1]), float(cp[-1])     # F(1), Phi(1)
        self._f = _spline(s, self.A - cf)
        self._phi = _spline(s, self.phi1 - cp)
        # piece i holds s_i <= v < s_i+1; the end pieces extend past 0 and 1
        self._s, self._lo, self._hi = s, np.r_[-np.inf, s[1:-1]], np.r_[s[1:-1], np.inf]
        # ascending-Phi arrays for inverse interpolation of Phi in s
        self._phi_asc, self._s_desc = (self.phi1 - cp)[::-1], s[::-1]
        # F(u) = u^7 sum_k b_k u^6k / (7 + 6k) and Phi(u) = u sum_k b_k u^6k /
        # (1 + 6k), b_k = binom(2k, k) 4^-k, for polyval below u = 1/2
        b = {k: comb(2 * k, k) / 4 ** k for k in range(9, -1, -1)}
        self._f_series = [bk / (7 + 6 * k) for k, bk in b.items()]
        self._phi_series = [bk / (1 + 6 * k) for k, bk in b.items()]

    def _cubic(self, c, v):
        """The spline with coefficients c at v, as scipy evaluates it: the
        piece from v * _steps, moved by one knot where that rounds across
        one, and c3 + c2 d + c1 d^2 + c0 d^3 in d = v - s_i."""
        i = np.fmin(np.fmax(v * self._steps, 0.0), self._steps - 1).astype(np.intp)
        i = i - (v < self._lo[i]) + (v >= self._hi[i])
        d = v - self._s[i]
        d2 = d * d
        return c[3][i] + c[2][i] * d + c[1][i] * d2 + c[0][i] * (d2 * d)

    def F(self, u):
        return self._cubic(self._f, np.sqrt(1.0 - np.minimum(np.maximum(u, 0.0), 1.0)))

    def _rel(self, c, series, power, u, s):
        """u^power times the series in u^6 below u = 1/2, else the spline c at s."""
        out, low = np.empty_like(u), u < 0.5
        out[low] = u[low] ** power * np.polyval(series, u[low] ** 6)
        out[~low] = self._cubic(c, s[~low])
        return out

    def F_rel(self, u, s):
        """F at u = 1 - s^2 to relative rounding: the series where F << A."""
        return self._rel(self._f, self._f_series, 7, u, s)

    def phi(self, u, s):
        """Phi at u = 1 - s^2 to relative rounding: the series below u = 1/2."""
        return self._rel(self._phi, self._phi_series, 1, u, s)

    def u_of_phi(self, val):
        """u and s = sqrt(1 - u) with Phi(u) = val: Newton in s, where dPhi/ds
        = -2 / sqrt(psi(1 - s^2)) stays away from 0 up to the apex s = 0, then
        below u = 1/2 one Newton step on the series, to u's relative rounding."""
        val = np.minimum(np.maximum(val, 0.0), self.phi1)
        s = np.interp(val, self._phi_asc, self._s_desc)
        for _ in range(3):
            s = s + 0.5 * (self._cubic(self._phi, s) - val) * np.sqrt(_psi(1.0 - s * s))
        s = np.minimum(np.maximum(s, 0.0), 1.0)
        u = 1.0 - s * s
        low = u < 0.5
        ul, vl = u[low], val[low]
        u[low] = ul - (ul * np.polyval(self._phi_series, ul ** 6) - vl) * np.sqrt(1.0 - ul ** 6)
        s[low] = np.sqrt(1.0 - u[low])
        return u, s


_tables: _Tables | None = None


def tables() -> _Tables:
    global _tables
    if _tables is None:
        _tables = _Tables()
    return _tables


# -- geodesics of (R_{>0} x R, 4dx^2 + x^-6 dy^2) ---------------------------

def spray2(p, v):
    """Geodesic acceleration (xdd, ydd) = (-3/4 x^-7 yd^2, 6 x^-1 xd yd)."""
    return _spray(_finite(p, "p"), _finite(v, "v"))


def _spray(p, v):
    """spray2 on float arrays, unchecked for finiteness: the RK4 stages."""
    x = p[..., 0]
    if np.any(x <= 0.0):
        raise DomainExit("spray evaluated at x <= 0")
    xd, yd = v[..., 0], v[..., 1]
    return np.stack([-0.75 * x ** -7 * yd ** 2, 6.0 * xd * yd / x], axis=-1)


def integrate_spray2(p0, v0, T: float, steps: int):
    """RK4 integration of the plane spray, increments Kahan-summed; stacks fibers.

    Returns (times, positions, velocities) with leading time axis.  Raises
    DomainExit (with the last in-domain time) if any fiber reaches x <= 0.
    """
    p = np.atleast_2d(_finite(p0, "p0")).copy()
    v = np.atleast_2d(_finite(v0, "v0")).copy()
    lost = 0.0  # the rounding the sums of p and v dropped
    dt = T / steps
    times = np.linspace(0.0, T, steps + 1)
    ps = np.empty((steps + 1,) + p.shape)
    vs = np.empty_like(ps)
    ps[0], vs[0] = p, v
    for j in range(steps):
        try:
            k1p, k1v = v, _spray(p, v)
            k2p, k2v = v + 0.5 * dt * k1v, _spray(p + 0.5 * dt * k1p, v + 0.5 * dt * k1v)
            k3p, k3v = v + 0.5 * dt * k2v, _spray(p + 0.5 * dt * k2p, v + 0.5 * dt * k2v)
            k4p, k4v = v + dt * k3v, _spray(p + dt * k3p, v + dt * k3v)
        except DomainExit as exc:
            raise DomainExit("geodesic left x > 0", exit_time=times[j]) from exc
        pv = np.stack([p, v])
        step = (dt / 6.0) * np.stack([k1p + 2.0 * k2p + 2.0 * k3p + k4p,
                                      k1v + 2.0 * k2v + 2.0 * k3v + k4v]) + lost
        p, v = new = pv + step
        lost = step - (new - pv)
        if np.any(p[..., 0] <= 0.0):
            raise DomainExit("geodesic left x > 0", exit_time=times[j + 1])
        ps[j + 1], vs[j + 1] = p, v
    return times, ps, vs


@dataclass(frozen=True)
class Trajectory2:
    """Trajectory y(x) of a plane geodesic: kind 'ray' or 'arc'.

    For arcs, C > 0 is the trajectory constant: the branch through the
    initial point is y(x) = y0 + sgn * (2/C^4) (F(Cx) - F(Cx0)) on
    0 < x <= 1/C, the apex sits at x = 1/C, and the other branch is the
    reflection about the apex level.
    """

    kind: str
    x0: float
    y0: float
    C: float = np.nan
    sgn: float = 0.0
    apex: tuple[float, float] | None = None

    def y_of_x(self, x):
        tab = tables()
        x = _finite(x, "x")
        if self.kind == "ray":
            return np.full_like(x, self.y0)
        if np.any((x <= 0) | (self.C * x > 1.0 + 1e-12)):
            raise OutOfRange("x outside (0, 1/C]")
        return self.y0 + self.sgn * (2.0 / self.C ** 4) * (
            tab.F(self.C * x) - tab.F(self.C * self.x0))


def _arc_constant(x, xd, yd):
    """The g-speed L and trajectory constant C = (|yd| / (x^6 L))^(1/3) at x
    with velocity (xd, yd): yd / x^6 and L are conserved, and C x = 1 where xd = 0."""
    L = np.sqrt(4.0 * xd ** 2 + yd ** 2 / x ** 6)
    return L, np.cbrt(np.abs(yd) / (x ** 6 * L))


def trajectory2(p0, v0) -> Trajectory2:
    """Closed-form trajectory through p0 with velocity v0, C from
    _arc_constant; the apex is at x = 1/C."""
    p0, v0 = _finite(p0, "p0"), _finite(v0, "v0")
    x0, y0 = float(p0[0]), float(p0[1])
    xd0, yd0 = float(v0[0]), float(v0[1])
    if x0 <= 0.0:
        raise DomainExit("x0 must be positive")
    if yd0 == 0.0:
        return Trajectory2(kind="ray", x0=x0, y0=y0)
    C = float(_arc_constant(x0, xd0, yd0)[1])
    # at the apex (xd0 = 0), the ascending branch
    sgn = np.sign(yd0) if xd0 == 0.0 else np.sign(yd0 / xd0)
    tab = tables()
    apex_y = y0 + sgn * (2.0 / C ** 4) * (tab.A - tab.F(C * x0))
    return Trajectory2(kind="arc", x0=x0, y0=y0, C=C, sgn=sgn,
                       apex=(1.0 / C, apex_y))


@dataclass(frozen=True)
class FiberGeodesic:
    """Solved point-to-point geodesic in the half plane, unit time.

    The batch solver `_solve_fibers` returns one of these with a leading
    fiber axis on every field except `times`."""

    length: float
    case: str                      # 'point' | 'ray' | 'arc1' | 'arc2'
    times: np.ndarray
    points: np.ndarray             # (K, 2)
    velocities: np.ndarray         # (K, 2), d/dt at unit total time
    C: float = np.nan
    xbar: float = np.nan


def _find_roots(equation, lo, hi, tol, z):
    """Root of equation(z, i) -> (value, dvalue/dz) for each fiber i, where
    the value rises through zero on [lo_i, hi_i]: Newton from z clipped to
    the bracket, which each value's sign shrinks and a step that leaves it
    bisects.  A root is frozen once |value| < tol or its bracket closes to
    adjacent doubles; NoConvergence, with the count and the worst |value|,
    if any is open after 60 steps.  No fibers, no equation call."""
    lo, hi = lo.copy(), hi.copy()
    z = np.minimum(np.maximum(z, lo), hi)
    live = np.arange(z.size)
    for k in range(61):
        if live.size == 0:
            break
        val, der = equation(z[live], live)
        open_ = ~(np.abs(val) < tol)
        live, val, der = live[open_], val[open_], der[open_]
        if k == 60 and live.size:
            raise NoConvergence(f"{live.size} fiber roots open after 60 Newton steps, "
                                f"worst |value| {np.max(np.abs(val)):.3e}")
        zl, lol, hil = z[live], lo[live], hi[live]
        step = np.divide(val, der, out=np.zeros_like(val), where=der != 0.0)
        new = zl - step
        bisect = ~((lol <= new) & (new <= hil)) | (step == 0.0)
        below = val < 0.0
        lo[live] = lol = np.where(below, zl, lol)
        hi[live] = hil = np.where(below, hil, zl)
        mid = 0.5 * (lol + hil)
        z[live] = np.where(bisect, mid, new)
        live = live[(lol < mid) & (mid < hil)]
    return z


def _arc_roots(x0, x1, dy):
    """The arcs from (x0, 0) to (x1, dy), x0 <= x1 and dy > 0: u = Cx and
    s = sqrt(1 - u) at x1 (row 0) and x0 (row 1), to relative rounding, and
    whether each passes its apex xbar = 1/C (arc2, else arc1).  In z = 1 -+
    sqrt(1 - C x1), below and past the apex, the rise 2 xbar^4 (G - F(C x0)),
    G = F(C x1) below and 2A - F(C x1) past, is smooth.  The root variable
    w is z, or 2 - z if dy is above the rise at the apex, so that its end
    w -> 0 is the flat end (C -> 0) or the tall one (xbar -> inf), as needed.
    Newton starts at the small-u limit C = (7 dy / 2(x1^7 - x0^7))^(1/3), or
    the apex tangent if flatter, and above the apex at xbar = max(x1,
    (dy / 4A)^(1/4)), the large-dy limit."""
    tab = tables()
    thresh = 2.0 * x1 ** 4 * (tab.A - tab.F(x0 / x1))       # the rise at the apex
    tall = dy > thresh
    sgn = np.where(tall, -1.0, 1.0)            # dz/dw, z = w below the apex
    r, gap = x0 / x1, (x1 - x0) / x1

    def abscissae(w, i):
        u1, s1 = w * (2.0 - w), np.abs(1.0 - w)
        return np.stack([u1, r[i] * u1]), np.stack([s1, np.sqrt(gap[i] + r[i] * s1 * s1)])

    def equation(w, i):
        (u1, u0), (s1, s0) = abscissae(w, i)
        F1, F0 = tab.F_rel(np.stack([u1, u0]), np.stack([s1, s0]))
        G = np.where((w > 1.0) != tall[i], 2.0 * tab.A - F1, F1)
        # d/dz: dG = 2 u1^6 / sqrt(psi(u1)) on both branches, and dF(C x0)
        # has the factor (1 - z) / s0, -1 at the apex if x0 = x1
        c = sgn[i] * (1.0 - w)
        q = np.divide(c, s0, out=-np.ones_like(w), where=s0 > 0.0)
        slope = 2.0 * (u1 ** 6 / np.sqrt(_psi(u1))
                       - r[i] * q * u0 ** 6 / np.sqrt(_psi(u0)))
        # the rise - dy and its z-derivative over 2 xbar^4 (G + F0), so that
        # |value| is relative to the rounding of the terms
        rest, size = G - F0, G + F0
        return (sgn[i] * (rest - 0.5 * dy[i] * (u1 / x1[i]) ** 4) / size,
                (slope - 8.0 * c * rest / u1) / size)

    u = x1 / np.maximum(x1, np.sqrt(np.sqrt(dy / (4.0 * tab.A))))
    a = np.flatnonzero(~tall)
    u[a] = np.minimum(np.cbrt(3.5 * dy[a] / (x1[a] ** 7 - x0[a] ** 7)) * x1[a], 1.0)
    w = u / (1.0 + np.sqrt(1.0 - u))
    w[a] = np.minimum(w[a], 1.0 + (dy[a] - thresh[a]) * np.sqrt(1.5) / (2.0 * x1[a] ** 4))
    lo, hi = 5e-41, np.nextafter(2.0, 0.0)     # C x1 >= 1e-40: F(C x1) > 0
    w = _find_roots(equation, np.full_like(w, lo), np.full_like(w, hi), 1e-13, w)
    return (*abscissae(w, slice(None)), (w > 1.0) != tall)


def fiber_distance(p0, p1) -> float:
    """Geodesic distance in the half plane (no path construction)."""
    return float(_solve_fibers([p0], [p1], full=False)[0])


def bvp2(p0, p1, samples: int = 33) -> FiberGeodesic:
    """Unique geodesic between two points of the half plane, returned as
    `samples` uniform time samples on [0, 1] with constant g-speed."""
    geo = _solve_fibers([p0], [p1], full=True, samples=samples)
    return FiberGeodesic(length=float(geo.length[0]), case=str(geo.case[0]),
                         times=geo.times, points=geo.points[0],
                         velocities=geo.velocities[0], C=float(geo.C[0]),
                         xbar=float(geo.xbar[0]))


def _solve_fibers(p0s, p1s, full: bool, samples: int = 33):
    """Half-plane geodesics between the rows of the (n, 2) arrays p0s and
    p1s, all fibers at once.  Returns the (n,) lengths, or with `full` a
    FiberGeodesic whose fields carry a leading fiber axis."""
    p0s, p1s = _finite(p0s, "p0"), _finite(p1s, "p1")
    if np.any(p0s[:, 0] <= 0.0) or np.any(p1s[:, 0] <= 0.0):
        raise NonPositive("fiber points need x > 0")
    tab = tables()

    # symmetry normalization: time reversal (swap) puts x0 <= x1, and a
    # reflection of y makes dy >= 0
    swap = p0s[:, 0] > p1s[:, 0]
    x0, x1 = np.minimum(p0s[:, 0], p1s[:, 0]), np.maximum(p0s[:, 0], p1s[:, 0])
    dy = np.abs(p1s[:, 1] - p0s[:, 1])

    arc = np.flatnonzero(dy > 0.0)
    (u1, u0), (s1, s0), past = _arc_roots(x0[arc], x1[arc], dy[arc])
    case = np.where(np.all(p0s == p1s, axis=1), "point", "ray")
    case[arc] = np.where(past, "arc2", "arc1")
    C = np.full(x0.shape, np.nan)
    C[arc] = c = u1 / x1[arc]

    length = 2.0 * (x1 - x0)              # rays; a point is a ray of length 0
    phi1, phi0 = tab.phi(np.stack([u1, u0]), np.stack([s1, s0]))
    length[arc] = np.where(past, (2.0 / c) * (2.0 * tab.phi1 - phi0 - phi1),
                           (2.0 / c) * (phi1 - phi0))
    if not full:
        return length

    # the initial velocity at unit total time, in the caller's orientation:
    # an arc leaves toward the apex, but for an arc1 run from its higher end
    v0 = p1s - p0s
    u, s = np.where(swap[arc], u1, u0), np.where(swap[arc], s1, s0)
    up = np.where(~past & swap[arc], -0.5, 0.5)
    v0[arc, 0] = up * length[arc] * s * np.sqrt(_psi(u))
    v0[arc, 1] = np.sign(v0[arc, 1]) * length[arc] * u ** 6 / c ** 3
    times = np.linspace(0.0, 1.0, int(samples))
    pts, vel, _ = _fiber_ivp(p0s, v0, times)
    # exact endpoints (the root solve already matches them to tolerance)
    pts[:, 0], pts[:, -1] = p0s, p1s
    return FiberGeodesic(length=length, case=case, times=times, points=pts,
                         velocities=vel, C=C, xbar=1.0 / C)


def _fiber_ivp(p, v, times):
    """Exact half-plane geodesics from the rows of p (n, 2) with velocities
    v (n, 2) at the times (K,): points and velocities (n, K, 2) and exit
    times (n,).  A ray (yd = 0) moves at constant xd.  An arc, L and C from
    _arc_constant, moves Phi(Cx) at the rate C L / 2: up to the apex and
    down past it, or down from a falling start, and exits where it reaches
    0; y = y0 + sgn(yd) (2/C^4) G with G the change of F(Cx), or of 2A -
    F(Cx) past the apex."""
    x0, xd, yd = p[:, 0], v[:, 0], v[:, 1]
    pts = np.stack([x0[:, None] + xd[:, None] * times, np.repeat(p[:, 1, None], times.size, 1)], 2)
    vel = np.repeat(v[:, None, :], times.size, axis=1)
    falling = xd < 0.0
    exit_time = np.where(falling, x0 / np.where(falling, -xd, 1.0), np.inf)
    arc = np.flatnonzero(yd != 0.0)
    tab = tables()
    xa, xda, yda = x0[arc, None], xd[arc, None], yd[arc, None]
    L, C = _arc_constant(xa, xda, yda)
    u0 = np.minimum(C * xa, 1.0)
    s0 = np.sqrt(1.0 - u0)
    phi0, F0 = tab.phi(u0, s0), tab.F_rel(u0, s0)
    b0 = falling[arc, None].astype(float)        # 1 past the apex, else 0
    # Phi(Cx) on the start's branch, counted down from phi0 on a falling
    # start, so that a small Cx keeps its relative rounding
    w = phi0 + (0.5 - b0) * C * L * times
    b = np.maximum(b0, w > tab.phi1)
    u, s = tab.u_of_phi(np.where(w > tab.phi1, 2.0 * tab.phi1 - w, w))
    # G(w) - G(w0), the 2A terms cancelling exactly on one branch
    dG = 2.0 * tab.A * (b - b0) + (1.0 - 2.0 * b) * tab.F_rel(u, s) - (1.0 - 2.0 * b0) * F0
    pts[arc, :, 0] = u / C
    pts[arc, :, 1] = p[arc, 1, None] + np.sign(yda) * (2.0 / C ** 4) * dG
    vel[arc, :, 0] = (0.5 - b) * L * s * np.sqrt(_psi(u))
    vel[arc, :, 1] = yda * (u / u0) ** 6           # yd / x^6 is conserved
    exit_time[arc] = 2.0 * np.where(b0, phi0, 2.0 * tab.phi1 - phi0)[:, 0] / (C * L)[:, 0]
    return pts, vel, exit_time


# -- curvature --------------------------------------------------------------

def scal2(p) -> float:
    """Gauss curvature of the half-plane metric: -3 / x^2."""
    x = float(np.asarray(p, dtype=float).reshape(-1)[0])
    if not np.isfinite(x):
        raise BadInput(f"scal2 needs a finite x, got {x}")
    if x <= 0.0:
        raise NonPositive("scal2 needs x > 0")
    return -3.0 / x ** 2


def curvature_quadratic(q1, h, k):
    """g_q(R^g(h,k)k, h) = -12 / q1^8 * (h1 k2 - h2 k1)^2 (pointwise)."""
    q1 = np.asarray(q1, dtype=float)
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    det = h[..., 0] * k[..., 1] - h[..., 1] * k[..., 0]
    return -12.0 / q1 ** 8 * det ** 2


def dist2_lower_bound(p0, p1):
    """Lower bound for the half-plane geodesic distance, per point of
    (..., 2) arrays:

        2 sqrt( dx^2 + dy^2 / ( sqrt(2) (x0^4 + x1^4 + |dy|/(2A))^{3/2} ) )

    Tight on y-constant rays and for coincident x in the short-distance
    limit.  (The rescaling constant is sqrt(2) = 2^{1/2}: with
    r = 2^{-1/12} X^{-1/4} one has r^6 = 2^{-1/2} X^{-3/2}.)
    """
    p0, p1 = _finite(p0, "p0"), _finite(p1, "p1")
    x0, x1 = p0[..., 0], p1[..., 0]
    if np.any(x0 <= 0.0) or np.any(x1 <= 0.0):
        raise NonPositive("lower bound needs x > 0")
    dy = np.abs(p1[..., 1] - p0[..., 1])
    X = x0 ** 4 + x1 ** 4 + dy / (2.0 * tables().A)
    return 2.0 * np.sqrt((x0 - x1) ** 2 + dy ** 2 / (np.sqrt(2.0) * X ** 1.5))


def sectional_curvature_m2(curve: DiscreteCurve, h, k) -> float:
    """Sectional curvature of metric M2 for the plane spanned by (h, k):

        -3 int ( <D_s h, v><D_s^2 k, n> - <D_s k, v><D_s^2 h, n> )^2 ds
        -----------------------------------------------------------------
                  G(h,h) G(k,k) - G(h,k)^2

    Always <= 0; raises DegeneratePlane when the Gram determinant is
    numerically zero (e.g. k parallel to h modulo the kernel).
    """
    jh, jk = FieldJet(curve, h), FieldJet(curve, k, "k")
    ghh, gkk, ghk = (integrate_ds(curve, _integrand(MetricId.M2, curve.frame, a, b))
                     for a, b in ((jh, jh), (jk, jk), (jh, jk)))
    gram = ghh * gkk - ghk ** 2
    if gram <= 1e-12 * max(ghh * gkk, 1e-300):
        raise DegeneratePlane("plane spanned by (h, k) is degenerate")
    w = jh.a1 * jk.b2 - jk.a1 * jh.b2
    numerator = -3.0 * integrate_ds(curve, w ** 2)
    return numerator / gram
