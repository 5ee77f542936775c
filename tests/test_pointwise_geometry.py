import time

import numpy as np
import pytest

from conftest import smooth_field, wavy_curve
from curveflow import curve_core as cc
from curveflow import pointwise_geometry as pg
from curveflow import rtransform as rt
from curveflow import metric_suite as ms
from curveflow.errors import (BadInput, DegeneratePlane, DomainExit, NoConvergence,
                              NonPositive, OutOfRange)
from curveflow.validation import fd_gauss_curvature


def test_fiber_metric_values():
    assert np.allclose(pg.g_matrix("M3", np.array([1.0, 0.3, -2.0])),
                       np.diag([4.0, 1.0, 1.0]))
    g4 = pg.g_matrix("M4", np.array([1.0, 0.5, -0.2, 0.0]))
    assert np.allclose(g4, np.diag([4.0, 1.0, 1.0, 1.0]))
    g2 = pg.g_matrix("M2", np.array([2.0, 7.0]))
    assert np.allclose(g2, np.diag([4.0, 2.0 ** -6]))


def test_fiber_metric_inverse_and_determinant():
    rng = np.random.default_rng(0)
    for lo, hi, tol in ((0.7, 1.5, 1e-13), (0.3, 2.0, 1e-9)):
        for mid in ("M1", "M2", "M3", "M4"):
            d = ms.MetricId.parse(mid).fiber_dim
            q = np.empty((40, d))
            q[:, 1:] = rng.standard_normal((40, d - 1))
            q[:, 0] = rng.uniform(lo, hi, 40)
            if mid == "M1":
                q[:, 1] = rng.uniform(lo, hi, 40)
            h = rng.standard_normal((40, d))
            back = pg.g_inv(mid, q, pg.g_apply(mid, q, h))
            assert np.abs(back - h).max() < tol
            # g_inv is the inverse of g_matrix, on arrays and on single
            # points, to tol relative to the largest entry (M4's reaches 4e3)
            gi = np.linalg.inv(pg.g_matrix(mid, q))
            for got, want in ((pg.g_inv(mid, q, h), np.einsum("kij,kj->ki", gi, h)),
                              (pg.g_inv(mid, q[0], h[0]), gi[0] @ h[0])):
                assert np.abs(got - want).max() <= tol * np.abs(want).max()
            g = pg.g_matrix(mid, q)
            assert np.all(np.linalg.eigvalsh(g) > 0.0)
            if mid == "M4":
                # the (q2, q3) block has determinant exactly 1, hence
                # det(g) = 4 q1^-6 > 0 on the positivity pattern
                det = np.linalg.det(g)
                expected = 4.0 * q[:, 0] ** -6
                assert np.abs(det / expected - 1.0).max() < 1e-10


def test_spray_values():
    assert np.allclose(pg.spray2([1.0, 0.0], [1.0, 0.0]), [0.0, 0.0])
    acc = pg.spray2([1.0, 5.0], [0.0, 1.0])
    assert np.allclose(acc, [-0.75, 0.0])
    with pytest.raises(DomainExit):
        pg.spray2([-1.0, 0.0], [1.0, 0.0])


def test_spray_first_integrals():
    t, ps, vs = pg.integrate_spray2([1.0, 0.0], [1.0, 1.0], 1.0, 1000)
    ps, vs = ps[:, 0], vs[:, 0]
    c1 = vs[:, 1] / ps[:, 0] ** 6
    e = 4 * vs[:, 0] ** 2 + ps[:, 0] ** -6 * vs[:, 1] ** 2
    assert np.abs(c1 / c1[0] - 1).max() < 1e-8
    assert np.abs(e / e[0] - 1).max() < 1e-8


def _romberg(f, a, b, levels=18):
    table = []
    for k in range(levels):
        n = 2 ** k
        x = np.linspace(a, b, n + 1)
        t = np.trapezoid(f(x), x)
        row = [t]
        if table:
            for m, prev in enumerate(table[-1]):
                row.append(row[-1] + (row[-1] - prev) / (4 ** (m + 1) - 1))
        table.append(row)
        if k > 3 and abs(table[-1][-1] - table[-2][-1]) < 1e-13:
            break
    return table[-1][-1]


def test_F_integral_values_and_speed():
    assert pg.F_integral(0.0) == 0.0
    t0 = time.perf_counter()
    a = pg.F_integral(1.0)
    assert time.perf_counter() - t0 < 0.1
    assert abs(a - 0.30358) < 5e-5
    # frozen oracle: Romberg on the desingularized integrand (z = 1 - t^2)
    orac = _romberg(lambda t: 2 * (1 - t * t) ** 6
                    / np.sqrt(pg._psi(1 - t * t)), np.sqrt(0.5), 1.0)
    assert abs(pg.F_integral(0.5) - orac) < 1e-12
    with pytest.raises(OutOfRange):
        pg.F_integral(1.5)
    # table-backed fast path agrees with the adaptive quadrature
    tab = pg.tables()
    for u in np.linspace(0.0, 1.0, 23):
        assert abs(tab.F(u) - pg.F_integral(float(u))) < 1e-9


def test_tables_match_scipy():
    """The M2 tables are numpy ports of scipy's cumulative_simpson and
    not-a-knot CubicSpline: the same sums, coefficients and values, bit for
    bit, on the knots, their neighbours, the ends and random points, and
    for a float or a 0-d array as inside an array."""
    from scipy.integrate import cumulative_simpson
    from scipy.interpolate import CubicSpline
    tab = pg.tables()
    s = np.linspace(0.0, 1.0, 4001)
    z = 1.0 - s * s
    root = np.sqrt(pg._psi(z))
    rng = np.random.default_rng(24)
    v = np.concatenate([s, np.nextafter(s, -np.inf), np.nextafter(s, np.inf), [0.0, 1.0],
                        rng.uniform(0.0, 1.0, 100_000)])
    for integrand, c, total in ((2.0 * z ** 6 / root, tab._f, tab.A),
                                (2.0 / root, tab._phi, tab.phi1)):
        cum = cumulative_simpson(integrand, x=s, initial=0.0)
        assert np.array_equal(pg._cumulative_simpson(integrand, s), cum)
        assert total == cum[-1]
        spline = CubicSpline(s, total - cum)
        assert np.array_equal(c, spline.c)
        values = tab._cubic(c, v)
        assert np.array_equal(values, spline(v))
        for k in (0, 1234, 4000, 4001, 2 * 4001 + 4000, 3 * 4001 + 2, v.size - 1):
            for arg in (float(v[k]), np.array(v[k])):
                assert np.asarray(tab._cubic(c, arg)).tobytes() == values[k].tobytes()


def test_trajectory_examples():
    ray = pg.trajectory2((2.0, 1.5), (0.7, 0.0))
    assert ray.kind == "ray"
    assert float(ray.y_of_x(3.0)) == 1.5
    # RK4 cross-check and apex identities
    traj = pg.trajectory2((1.0, 0.0), (1.0, 1.0))
    t, ps, _ = pg.integrate_spray2([1.0, 0.0], [1.0, 1.0], 0.2, 20000)
    xs = ps[:, 0, 0]
    keep = xs <= 0.9 / traj.C
    assert np.abs(traj.y_of_x(xs[keep]) - ps[keep, 0, 1]).max() < 1e-6
    tab = pg.tables()
    xbar, ybar = traj.apex
    assert abs(xbar - 1.0 / traj.C) < 1e-14
    # y(1/C) - y(x->0) = 2 F(1) / C^4 along the ascending branch
    y0 = traj.y_of_x(1e-9)
    assert abs((ybar - y0) - 2 * tab.A / traj.C ** 4) < 1e-9


def test_bvp2_basic_cases():
    geo = pg.bvp2((1.3, -0.4), (1.3, -0.4), samples=7)
    assert geo.case == "point" and geo.length == 0.0
    ray = pg.bvp2((1.0, 0.5), (2.0, 0.5), samples=5)
    assert ray.case == "ray"
    assert abs(ray.length - 2.0) < 1e-14
    assert np.abs(ray.points[:, 1] - 0.5).max() == 0.0
    # equal-x pair needs the apex branch
    arc = pg.bvp2((1.0, 0.0), (1.0, 1.0), samples=9)
    assert arc.case == "arc2"
    assert arc.xbar > 1.0
    assert np.abs(arc.points[0] - [1.0, 0.0]).max() < 1e-12
    assert np.abs(arc.points[-1] - [1.0, 1.0]).max() < 1e-12


def test_bvp2_case_boundary_continuity():
    tab = pg.tables()
    x0, x1 = 0.8, 1.1
    thresh = 2 * x1 ** 4 * (tab.A - tab.F(x0 / x1))
    below = pg.bvp2((x0, 0.0), (x1, thresh * (1 - 1e-9)), samples=9)
    above = pg.bvp2((x0, 0.0), (x1, thresh * (1 + 1e-9)), samples=9)
    assert below.case == "arc1" and above.case == "arc2"
    assert abs(below.length - above.length) < 1e-6
    assert np.abs(below.points - above.points).max() < 1e-4


def test_bvp2_random_pairs_quality():
    rng = np.random.default_rng(33)
    for _ in range(100):
        p0 = (float(np.exp(rng.uniform(-1, 1))), float(rng.uniform(-2, 2)))
        p1 = (float(np.exp(rng.uniform(-1, 1))), float(rng.uniform(-2, 2)))
        geo = pg.bvp2(p0, p1, samples=17)
        assert np.abs(geo.points[0] - p0).max() < 1e-9
        assert np.abs(geo.points[-1] - p1).max() < 1e-9
        speeds = np.sqrt(4 * geo.velocities[:, 0] ** 2
                         + geo.points[:, 0] ** -6 * geo.velocities[:, 1] ** 2)
        if geo.length > 1e-12:
            assert np.abs(speeds - geo.length).max() < 1e-9 * max(1, geo.length)
        # translation and scaling equivariance
        a = 0.7
        shifted = pg.bvp2((p0[0], p0[1] + a), (p1[0], p1[1] + a), samples=17)
        assert abs(shifted.length - geo.length) < 1e-10 * max(1, geo.length)
        r = 1.5
        scaled = pg.bvp2((r * p0[0], r ** 4 * p0[1]),
                         (r * p1[0], r ** 4 * p1[1]), samples=17)
        assert abs(scaled.length - r * geo.length) < 1e-8
        assert np.abs(scaled.points - geo.points * [r, r ** 4]).max() < 1e-8


def test_fiber_batch_matches_rows():
    """One batch mixing all four cases, both swap directions and both flip
    signs gives the row-by-row bvp2/fiber_distance answers."""
    base = [((0.8, 0.1), (1.1, 0.2)), ((1.0, 0.0), (1.3, 3.0)),
            ((0.7, -0.3), (1.9, 0.4)), ((1.2, 0.0), (1.25, 0.9)),
            ((1.0, 0.5), (2.0, 0.5)), ((1.3, -0.4), (1.3, -0.4))]
    pairs = []
    for (x0, y0), (x1, y1) in base:
        for s in (1.0, -1.0):
            pairs += [((x0, s * y0), (x1, s * y1)), ((x1, s * y1), (x0, s * y0))]
    rng = np.random.default_rng(5)
    for _ in range(40):
        pairs.append(((float(np.exp(rng.uniform(-1, 1))), float(rng.uniform(-2, 2))),
                      (float(np.exp(rng.uniform(-1, 1))), float(rng.uniform(-2, 2)))))
    pairs = [pairs[k] for k in rng.permutation(len(pairs))]
    p0s = np.array([a for a, _ in pairs])
    p1s = np.array([b for _, b in pairs])
    assert np.any(p0s[:, 0] > p1s[:, 0]) and np.any(p0s[:, 0] < p1s[:, 0])
    batch = pg._solve_fibers(p0s, p1s, full=True, samples=9)
    lengths = pg._solve_fibers(p0s, p1s, full=False)
    assert set(batch.case) == {"point", "ray", "arc1", "arc2"}
    flips = set()
    for k, (a, b) in enumerate(pairs):
        row = pg.bvp2(a, b, samples=9)
        assert batch.case[k] == row.case
        assert abs(batch.length[k] - row.length) <= 1e-12 * max(1.0, row.length)
        assert abs(lengths[k] - pg.fiber_distance(a, b)) <= 1e-12 * max(1.0, row.length)
        assert np.abs(batch.points[k] - row.points).max() <= 1e-12
        assert np.abs(batch.velocities[k] - row.velocities).max() <= 1e-12
        if row.case.startswith("arc"):
            flips.add((a[0] > b[0], (b[1] < a[1]) != (a[0] > b[0])))
    assert flips == {(False, False), (False, True), (True, False), (True, True)}


def test_bvp2_walk_crosses_the_apex():
    # a fiber whose path passes within 1e-9 of its apex: the samples follow
    # the geodesic of the solver's own initial velocity (a fine RK4 run) and
    # stay below the apex, where a Newton inverse of Phi in u stuck at u = 1
    geo = pg.bvp2((1.35227301, 1.33324122), (1.10496834, -0.85067066), samples=17)
    assert geo.case == "arc2"
    _, ps, vs = pg.integrate_spray2(geo.points[:1], geo.velocities[:1], 1.0, 16000)
    assert np.abs(ps[::1000, 0] - geo.points).max() <= 1e-10
    assert np.abs(vs[::1000, 0] - geo.velocities).max() <= 1e-10
    assert np.all(1.0 - geo.C * geo.points[1:-1, 0] > 0.0)


def test_fiber_ivp_against_rk4():
    # rays, arcs starting on either branch and at the apex, and nearly flat
    # arcs (vertical speeds of 1e-6 and 1e-12), whose y motion is F(Cx) ~
    # (Cx)^7 / 7 scaled by 2 / C^4
    p = np.array([[1.0, 0.3], [1.0, 0.3], [0.8, -1.0], [1.2, 0.5], [0.9, 0.0],
                  [1.0, 0.3], [1.0, 0.3], [1.0, 0.3]])
    v = np.array([[0.4, 1.0], [-0.4, -1.0], [0.0, 0.5], [0.3, 0.0], [-0.2, 0.0],
                  [0.4, 1e-6], [-0.4, -1e-6], [0.4, 1e-12]])
    times = np.linspace(0.0, 0.8, 5)
    pts, vel, exits = pg._fiber_ivp(p, v, times)
    _, ps, vs = pg.integrate_spray2(p, v, 0.8, 8000)
    assert np.abs(ps[::2000].transpose(1, 0, 2) - pts).max() <= 1e-10
    assert np.abs(vs[::2000].transpose(1, 0, 2) - vel).max() <= 1e-10
    assert np.all(exits[[0, 1, 2, 5, 6, 7]] > 0.8)
    assert exits[3] == np.inf and exits[4] == pytest.approx(0.9 / 0.2, rel=1e-15)


def test_bvp2_flat_arcs_reach_their_endpoint():
    # nearly flat arcs: the root solve's rise F(Cx) ~ (Cx)^7 / 7 is to
    # relative rounding, so the walk from the solver's initial velocity ends
    # where the solver's path does
    p0 = np.array([1.0, 0.3])
    for dy in (1e-5, 1e-6, 1e-8):
        p1 = np.array([1.4, 0.3 + dy])
        geo = pg.bvp2(p0, p1, samples=9)
        assert geo.case == "arc1"
        pts, _, _ = pg._fiber_ivp(p0[None], geo.velocities[:1], np.array([0.0, 1.0]))
        assert np.abs(pts[0, -1] - p1).max() <= 1e-12


def test_fiber_ivp_flat_arcs_to_relative_rounding():
    # arcs with yd / (x^6 L) = 1e-10 and 1e-14 from (1, 0.3), rising and
    # falling: x keeps its relative rounding where it was off by about
    # 1e-16 / C, and is the ray's x0 + xd t, up to (Cx)^6 <= 1e-19
    ratio = np.array([1e-10, 1e-14, 1e-10, 1e-14])
    xd = np.array([0.4, 0.4, -0.4, -0.4])
    p = np.tile([1.0, 0.3], (4, 1))
    v = np.stack([xd, ratio * 0.8 * np.sign(xd)], 1)
    times = np.linspace(0.0, 0.8, 5)
    pts, _, _ = pg._fiber_ivp(p, v, times)
    _, ps, _ = pg.integrate_spray2(p, v, 0.8, 4000)
    assert np.abs(ps[::1000, :, 0].T - pts[..., 0]).max() <= 1e-15
    assert np.abs(pts[..., 0] - (1.0 + xd[:, None] * times)).max() <= 1e-15


def test_integrate_spray2_sums_without_drift():
    # a ray to 1e-40: x is x0 + xd t at every snapshot to rounding, however
    # many steps; plain sums of the RK4 increments drift by 1e-13 to 1e-12
    # over these step counts
    for steps in (1000, 4000, 16000):
        t, ps, _ = pg.integrate_spray2([1.0, 0.3], [0.4, 1e-20], 0.8, steps)
        assert np.abs(ps[:, 0, 0] - (1.0 + 0.4 * t)).max() <= 1e-15, steps


def test_find_roots_refuses_an_open_root():
    # a derivative so large that every Newton step rounds to no move: the
    # root is refused, with the count and worst |value|, not returned
    def stuck(z, i):
        return z - 0.5, np.full_like(z, 1e300)
    one = np.ones(1)
    with pytest.raises(NoConvergence, match=r"1 fiber roots .* 2\.500e-01"):
        pg._find_roots(stuck, 0.0 * one, one, 1e-12, 0.25 * one)
    # a bracket that closes to adjacent doubles counts as converged, even
    # where the value jumps across zero without reaching it
    def jump(z, i):
        return np.where(z < 0.3, -1.0, 1.0), np.ones_like(z)
    root = pg._find_roots(jump, 0.0 * one, one, 1e-12, 0.9 * one)
    assert abs(root[0] - 0.3) <= 1e-15
    # no fibers, no equation call
    empty = np.empty(0)
    assert pg._find_roots(None, empty, empty, 1e-12, empty).size == 0


def test_lower_bound_examples():
    assert pg.dist2_lower_bound((1.0, 2.0), (1.0, 2.0)) == 0.0
    assert abs(pg.dist2_lower_bound((1.0, 0.0), (2.0, 0.0)) - 2.0) < 1e-14
    rng = np.random.default_rng(4)
    for _ in range(100):
        p0 = (float(np.exp(rng.uniform(-1, 1))), float(rng.uniform(-2, 2)))
        p1 = (float(np.exp(rng.uniform(-1, 1))), float(rng.uniform(-2, 2)))
        assert pg.fiber_distance(p0, p1) >= pg.dist2_lower_bound(p0, p1) - 1e-11


def test_lower_bound_arrays():
    # (..., 2) arrays give the bound per point, as the scalar calls do
    rng = np.random.default_rng(5)
    p0 = np.stack([np.exp(rng.uniform(-1, 1, 40)), rng.uniform(-2, 2, 40)], 1)
    p1 = np.stack([np.exp(rng.uniform(-1, 1, 40)), rng.uniform(-2, 2, 40)], 1)
    rows = np.array([pg.dist2_lower_bound(tuple(a), tuple(b)) for a, b in zip(p0, p1)])
    bound = pg.dist2_lower_bound(p0, p1)
    assert bound.shape == (40,)
    assert np.abs(bound - rows).max() <= 1e-15 * rows.max()
    x0_zero, x1_negative = p0.copy(), p1.copy()
    x0_zero[7, 0] = 0.0
    x1_negative[31, 0] = -0.5
    with pytest.raises(NonPositive):
        pg.dist2_lower_bound(x0_zero, p1)
    with pytest.raises(NonPositive):
        pg.dist2_lower_bound(p0, x1_negative)


def test_scal2_and_curvature_tensor():
    assert pg.scal2((1.0, 3.0)) == -3.0
    assert abs(fd_gauss_curvature(2.0) + 0.75) < 1e-4
    val = pg.curvature_quadratic(1.0, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert val == -12.0
    with pytest.raises(NonPositive):
        pg.scal2((-1.0, 0.0))
    for x in (np.nan, np.inf):
        with pytest.raises(BadInput, match="finite x"):
            pg.scal2((x, 0.0))
    with pytest.raises(BadInput, match="last axis 3"):
        pg.g_matrix("M3", np.ones((4, 2)))


def test_sectional_curvature_degenerate_and_zero():
    c = wavy_curve(128, seed=14, closed=False)
    h = smooth_field(128, seed=1, closed=False)
    with pytest.raises(DegeneratePlane):
        pg.sectional_curvature_m2(c, h, 0.5 * h)
    # fields with vanishing <D_s ., v>: the numerator is O(dtheta^4)-small
    n = 512
    th = (2 * np.pi / (n - 1)) * np.arange(n)
    circ = cc.DiscreteCurve(np.stack([np.cos(th), np.sin(th)], 1), False)
    f = cc.build_frame(circ)
    h = np.sin(th)[:, None] * f.v + np.cos(th)[:, None] * f.n
    k = np.cos(2 * th)[:, None] * f.v - (np.sin(2 * th) / 2)[:, None] * f.n
    val = pg.sectional_curvature_m2(circ, h, k)
    assert abs(val) < 1e-3


def test_sectional_curvature_sign_and_oracle():
    rng = np.random.default_rng(35)
    c = wavy_curve(128, seed=14, closed=False)
    q = rt.r_forward("M2", c)
    tau = cc.trapezoid_weights(128, False)
    for _ in range(30):
        h = smooth_field(128, seed=int(rng.integers(1e6)), closed=False)
        k = smooth_field(128, seed=int(rng.integers(1e6)), closed=False)
        val = pg.sectional_curvature_m2(c, h, k)
        assert val <= 1e-12
        dh = rt.dr("M2", c, h)
        dk = rt.dr("M2", c, k)
        num = float(np.sum(tau * pg.curvature_quadratic(q.q[:, 0], dh, dk))
                    * q.theta_step)
        ghh = ms.metric_eval("M2", c, h, h)
        gkk = ms.metric_eval("M2", c, k, k)
        ghk = ms.metric_eval("M2", c, h, k)
        oracle = num / (ghh * gkk - ghk ** 2)
        assert abs(val - oracle) <= 1e-6 * abs(val)
