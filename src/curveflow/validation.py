"""Named invariant checks behind the `validate` CLI subcommand.

Each check returns (ok, detail).  They are compact re-statements of the
module invariants; the pytest suite carries the granular versions with
frozen oracle values.
"""

from __future__ import annotations

import numpy as np

from . import (
    constrained_hamiltonian as ch,
    curve_core as cc,
    geodesic_api as ga,
    metric_suite as ms,
    pointwise_geometry as pg,
    rtransform as rt,
)

ALL_METRICS = ("M1", "M2", "M3", "M4")


def circle(n, r=1.0, closed=True, centre=(0.0, 0.0)):
    th = (2 * np.pi / n) * np.arange(n) if closed else \
        (2 * np.pi / (n - 1)) * np.arange(n)
    pts = np.stack([centre[0] + r * np.cos(th), centre[1] + r * np.sin(th)], 1)
    return cc.DiscreteCurve(pts, closed)


def wavy_curve(n, seed=1, amp=0.2, modes=4, closed=True):
    rng = np.random.default_rng(seed)
    th = (2 * np.pi / n) * np.arange(n) if closed else \
        (2 * np.pi / (n - 1)) * np.arange(n)
    if closed:
        pts = np.stack([np.cos(th), np.sin(th)], 1)
    else:
        pts = np.stack([th, np.zeros(n)], 1)
    for m in range(1, modes + 1):
        a = amp * rng.standard_normal(4) / (m * m)
        pts[:, 0] += a[0] * np.cos(m * th) + a[1] * np.sin(m * th)
        pts[:, 1] += a[2] * np.cos(m * th) + a[3] * np.sin(m * th)
    return cc.DiscreteCurve(pts, closed)


def convex_arc(n, seed=3):
    rng = np.random.default_rng(seed)
    th = (2 * np.pi / (n - 1)) * np.arange(n)
    alpha = 0.8 * th + 0.2 * rng.uniform(0.5, 1.0) * np.sin(th)
    sigma = 1.0 + 0.3 * rng.uniform(0.5, 1.0) * np.cos(th)
    integ = sigma[:, None] * np.stack([np.cos(alpha), np.sin(alpha)], 1)
    pts = rt._cumulative_trapezoid(integ, th[1] - th[0])
    return cc.DiscreteCurve(pts, False)


def convex_closed(n, seed=5, amp=0.08):
    rng = np.random.default_rng(seed)
    th = (2 * np.pi / n) * np.arange(n)
    r = 1.0 + amp * np.cos(2 * th) + 0.5 * amp * rng.uniform() * np.sin(3 * th)
    return cc.DiscreteCurve(np.stack([r * np.cos(th), r * np.sin(th)], 1), True)


def smooth_field(n, seed=2, closed=True, modes=4):
    rng = np.random.default_rng(seed)
    th = (2 * np.pi / n) * np.arange(n) if closed else \
        (2 * np.pi / (n - 1)) * np.arange(n)
    h = np.zeros((n, 2))
    for m in range(modes + 1):
        a = rng.standard_normal(4) / (1 + m * m)
        h[:, 0] += a[0] * np.cos(m * th) + a[1] * np.sin(m * th)
        h[:, 1] += a[2] * np.cos(m * th) + a[3] * np.sin(m * th)
    return h


def rotation_representative(curve):
    """Rotate so the initial tangent angle vanishes (the Mot section used
    by the open-curve transforms when reconstructing)."""
    a0 = curve.frame.alpha[0]
    rot = np.array([[np.cos(a0), np.sin(a0)], [-np.sin(a0), np.cos(a0)]])
    return curve.with_points(curve.points @ rot.T)


def curve_for(mid, n, seed=1):
    mid = ms.MetricId.parse(mid)
    if mid is ms.MetricId.M1:
        return convex_arc(n, seed)
    if mid is ms.MetricId.M2:
        return rotation_representative(wavy_curve(n, seed, closed=False))
    return wavy_curve(n, seed, closed=True)


# -- checks -------------------------------------------------------------------

def check_frame_circle():
    n = 256
    c = circle(n)
    f = c.frame
    th = c.theta
    errs = [np.abs(f.kappa - 1.0).max(), np.abs(f.alpha - (th + np.pi / 2)).max(),
            np.abs(np.einsum("ki,ki->k", f.v, f.n)).max(),
            abs(cc.curve_length(c) - 2 * np.pi)]
    ok = errs[0] < 1e-3 and errs[1] < 1e-10 and errs[2] < 1e-14 and errs[3] < 1e-2
    return ok, f"kappa {errs[0]:.2e} alpha {errs[1]:.2e} <v,n> {errs[2]:.2e}"


def check_gauss_bonnet():
    c = wavy_curve(256, seed=7)
    f = c.frame
    total = cc.integrate_ds(c, f.kappa)
    err = abs(total - 2 * np.pi * f.winding)
    return err < 10 * c.theta_step ** 2, f"total turning err {err:.2e}"


def check_first_variation_fd():
    n = 4096
    c = wavy_curve(n, seed=11)
    h = smooth_field(n, seed=12)
    m = smooth_field(n, seed=13)
    eps = 1e-5
    worst = 0.0
    for qty in cc.FIRST_VARIATION_QUANTITIES:
        def F(pts):
            fr = cc.DiscreteCurve(pts, True).frame
            return {"alpha": fr.alpha, "v": fr.v, "n": fr.n,
                    "speed": fr.speed, "kappa": fr.kappa}[qty]
        fd = (F(c.points + eps * m) - F(c.points - eps * m)) / (2 * eps)
        an = cc.first_variation(c, m, qty)
        worst = max(worst, np.max(np.abs(fd - an)) / max(np.max(np.abs(fd)), 1e-12))
    return worst < 1e-5, f"worst rel err {worst:.2e}"


def check_reparam_covariance():
    n = 256

    def sample(npts, warp):
        th = (2 * np.pi / npts) * np.arange(npts)
        phi = th + 0.3 * np.sin(th) if warp else th
        return cc.DiscreteCurve(np.stack([np.cos(phi) * (1 + 0.2 * np.cos(2 * phi)),
                                          np.sin(phi)], 1), True), phi
    cw, phi = sample(n, True)
    c0, _ = sample(4 * n, False)
    kap_ref = np.interp(phi, c0.theta, c0.frame.kappa, period=2 * np.pi)
    err = np.abs(cw.frame.kappa - kap_ref).max()
    return err < 50 * cw.theta_step ** 2, f"kappa covariance err {err:.2e}"


def check_metric_symmetry_psd():
    worst = 0.0
    neg = 0.0
    for mid in ALL_METRICS:
        c = curve_for(mid, 128)
        h = smooth_field(128, seed=21, closed=c.closed)
        k = smooth_field(128, seed=22, closed=c.closed)
        a = ms.metric_eval(mid, c, h, k)
        b = ms.metric_eval(mid, c, k, h)
        worst = max(worst, abs(a - b))
        neg = min(neg, ms.metric_eval(mid, c, h, h))
    return worst == 0.0 and neg > -1e-12, \
        f"asymmetry {worst:.1e}, min G(h,h) {neg:.1e}"


def check_kernel():
    worst_const = 0.0
    for mid in ALL_METRICS:
        c = convex_closed(128) if mid == "M1" else wavy_curve(128, seed=3)
        for b in ms.kernel_basis(mid, c)[:2]:
            worst_const = max(worst_const, abs(ms.metric_eval(mid, c, b, b)))
    # rotation field: discrete null only to O(dtheta^4); check the decay
    vals = []
    for n in (64, 128):
        c = convex_closed(n)
        jc = ms.kernel_basis("M2", c)[2]
        vals.append(ms.metric_eval("M2", c, jc, jc))
    ratio = vals[0] / vals[1]
    return worst_const < 1e-12 and ratio > 8.0, \
        f"constants {worst_const:.1e}, Jc decay ratio {ratio:.1f}"


def check_operator_adjoint():
    worst = 0.0
    for mid in ALL_METRICS:
        c = convex_closed(96) if mid == "M1" else wavy_curve(96, seed=5)
        h = smooth_field(96, seed=23)
        k = smooth_field(96, seed=24)
        lhs = cc.integrate_ds(c, np.einsum("ki,ki->k",
                                           ms.apply_L(mid, c, h), k))
        rhs = ms.metric_eval(mid, c, h, k)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-12))
    return worst < 1e-11, f"worst rel defect {worst:.2e}"


def check_hc_directional():
    n = 4096
    worst = 0.0
    for mid in ALL_METRICS:
        c = convex_closed(n) if mid == "M1" else wavy_curve(n, seed=6)
        h = smooth_field(n, seed=25)
        m = smooth_field(n, seed=26)
        eps = 1e-5
        gp = ms.metric_eval(mid, cc.DiscreteCurve(c.points + eps * m, True), h, h)
        gm = ms.metric_eval(mid, cc.DiscreteCurve(c.points - eps * m, True), h, h)
        fd = (gp - gm) / (2 * eps)
        pred = 2.0 * ms.hc_quadratic(mid, c, h).pair(m)
        worst = max(worst, abs(fd - pred) / max(abs(fd), 1e-12))
    return worst < 1e-4, f"worst rel err {worst:.2e}"


def check_roundtrips():
    ok = True
    details = []
    for mid in ALL_METRICS:
        errs = []
        for n in (128, 256):
            c = curve_for(mid, n, seed=9)
            c2 = rt.r_inverse(rt.r_forward(mid, c))
            errs.append(np.abs(c2.points - (c.points - c.points[0])).max())
        ratio = errs[0] / errs[1]
        ok = ok and 3.5 <= ratio <= 4.5
        details.append(f"{mid}:{ratio:.2f}")
    return ok, "error ratios " + " ".join(details)


def check_isometry():
    worst = 0.0
    for mid in ALL_METRICS:
        c = curve_for(mid, 256, seed=10)
        h = smooth_field(256, seed=27, closed=c.closed)
        G = ms.metric_eval(mid, c, h, h)
        d = rt.dr(mid, c, h)
        q = rt.r_forward(mid, c)
        worst = max(worst, abs(G - rt.weighted_inner(mid, q.q, d, d, c.closed)) / G)
    return worst < 1e-8, f"worst rel err {worst:.2e}"


def check_constraint_gradients():
    worst = 0.0
    rng = np.random.default_rng(30)
    for mid in ALL_METRICS:
        c = convex_closed(96) if mid == "M1" else wavy_curve(96, seed=12)
        q = rt.r_forward(mid, c)
        grads = rt.constraint_gradients(q)
        dq = rng.standard_normal(q.q.shape)
        eps = 1e-6
        for i in range(2):
            fd = (rt.constraints(q.with_q(q.q + eps * dq)).h_cl[i]
                  - rt.constraints(q.with_q(q.q - eps * dq)).h_cl[i]) / (2 * eps)
            pred = rt.weighted_inner(mid, q.q, grads[i], dq, True)
            worst = max(worst, abs(fd - pred) / max(abs(fd), 1e-9))
    return worst < 1e-5, f"worst rel err {worst:.2e}"


def _on_image_point(n=96, seed=13):
    rng = np.random.default_rng(seed)
    th = (2 * np.pi / n) * np.arange(n)
    q1 = 1.0 + 0.1 * np.cos(th) + 0.05 * np.sin(2 * th) * rng.uniform(0.5, 1)
    q2 = th + np.pi / 2 + 0.08 * np.sin(th)
    q = np.stack([q1, q2, np.zeros(n)], 1)
    rp = rt.RPoint("M3", q, True, winding=1)
    return ch.project_to_manifold(rp)


def check_projection():
    rp = _on_image_point()
    rng = np.random.default_rng(31)
    h = rng.standard_normal(rp.q.shape)
    k = rt.project_image(rp, h)
    grads = rt.constraint_gradients(rp)
    pair = max(abs(rt.weighted_inner("M3", rp.q, g, k, True)) for g in grads)
    idem = np.abs(rt.project_image(rp, k) - k).max()
    h2 = rng.standard_normal(rp.q.shape)
    sym = abs(rt.weighted_inner("M3", rp.q, rt.project_image(rp, h), h2, True)
              - rt.weighted_inner("M3", rp.q, h, rt.project_image(rp, h2), True))
    ok = pair < 1e-9 and idem < 1e-10 and sym < 1e-9
    return ok, f"grad pair {pair:.1e} idem {idem:.1e} selfadj {sym:.1e}"


def check_cyclic_banded():
    # b = 4 on an N that is not a multiple of 9 is the horizontal projection's
    # case, b = 1 with a k = 2 border the RATTLE Newton and Gram systems';
    # each factorization serves two right-hand sides
    rng = np.random.default_rng(8)
    errs = []
    for n, b, k in ((63, 2, 0), (67, 4, 0), (64, 1, 2)):
        bands = rng.uniform(-1.0, 1.0, (2 * b + 1, n))
        bands[b] += 2.0 * b + 2.0
        dense = rng.standard_normal((n + k, n + k))
        idx = np.arange(n)
        dense[:n, :n] = 0.0
        for j in range(-b, b + 1):
            dense[idx, (idx + j) % n] = bands[b + j]
        factor = rt.CyclicFactor(bands, dense[:n, n:], dense[n:, :n], dense[n:, n:])
        worst = 0.0
        for f in rng.standard_normal((2, n + k, 3)):
            ref = np.linalg.solve(dense, f)
            worst = max(worst, np.abs(factor.solve(f) - ref).max() / np.abs(ref).max())
        errs.append(worst)
    return max(errs) < 1e-12, "vs dense solve " + " / ".join(f"{e:.1e}" for e in errs)


def check_spray_conservation():
    t, ps, vs = pg.integrate_spray2([1.0, 0.0], [1.0, 1.0], 1.0, 1000)
    ps, vs = ps[:, 0], vs[:, 0]
    c1 = vs[:, 1] / ps[:, 0] ** 6
    e = 4 * vs[:, 0] ** 2 + ps[:, 0] ** -6 * vs[:, 1] ** 2
    drift = max(np.abs(c1 - c1[0]).max() / abs(c1[0]),
                np.abs(e - e[0]).max() / e[0])
    return drift < 1e-8, f"first-integral drift {drift:.2e}"


def check_F_constant():
    a = pg.F_integral(1.0)
    return abs(a - 0.30358) < 5e-5, f"F(1) = {a:.6f}"


def check_trajectory_vs_rk4():
    t, ps, vs = pg.integrate_spray2([1.0, 0.0], [1.0, 1.0], 0.2, 20000)
    traj = pg.trajectory2((1.0, 0.0), (1.0, 1.0))
    xs = ps[:, 0, 0]
    keep = xs <= 0.9 / traj.C
    err = np.abs(traj.y_of_x(xs[keep]) - ps[keep, 0, 1]).max()
    return err < 1e-6, f"y(x) err {err:.2e}"


def check_bvp2():
    rng = np.random.default_rng(33)
    worst_end = worst_sym = 0.0
    bound_ok = True
    for _ in range(100):
        p0 = (float(np.exp(rng.uniform(-1, 1))), float(rng.uniform(-2, 2)))
        p1 = (float(np.exp(rng.uniform(-1, 1))), float(rng.uniform(-2, 2)))
        geo = pg.bvp2(p0, p1, samples=17)
        worst_end = max(worst_end, np.abs(geo.points[0] - p0).max(),
                        np.abs(geo.points[-1] - p1).max())
        r = 1.5
        geor = pg.bvp2((r * p0[0], r ** 4 * p0[1]), (r * p1[0], r ** 4 * p1[1]),
                       samples=17)
        worst_sym = max(worst_sym, abs(geor.length - r * geo.length))
        bound_ok = bound_ok and geo.length >= pg.dist2_lower_bound(p0, p1) - 1e-9
    ok = worst_end < 1e-9 and worst_sym < 1e-8 and bound_ok
    return ok, f"endpoints {worst_end:.1e} scaling {worst_sym:.1e} bounds {bound_ok}"


def fd_gauss_curvature(x: float, delta: float = 1e-3) -> float:
    """Gauss curvature of the half-plane metric from its components only,
    by nested fourth-order finite differences of K = -(G_x/sqrt(EG))_x
    / (2 sqrt(EG)) for the orthogonal metric E dx^2 + G dy^2."""
    def Gfun(xx):
        return pg.g_matrix("M2", np.array([xx, 0.0]))[1, 1]

    def d4(f, xx):
        return (-f(xx + 2 * delta) + 8 * f(xx + delta)
                - 8 * f(xx - delta) + f(xx - 2 * delta)) / (12 * delta)

    def P(xx):
        E = pg.g_matrix("M2", np.array([xx, 0.0]))[0, 0]
        return d4(Gfun, xx) / np.sqrt(E * Gfun(xx))

    E = pg.g_matrix("M2", np.array([x, 0.0]))[0, 0]
    return -d4(P, x) / (2.0 * np.sqrt(E * Gfun(x)))


def check_scal2_fd():
    worst = 0.0
    for x in (0.5, 1.0, 2.0):
        worst = max(worst, abs(fd_gauss_curvature(x) - pg.scal2((x, 0.0))))
    return worst < 1e-4, f"worst FD curvature err {worst:.2e}"


def check_sectional():
    rng = np.random.default_rng(35)
    c = wavy_curve(128, seed=14, closed=False)
    worst_pos = -np.inf
    worst_rel = 0.0
    for _ in range(20):
        h = smooth_field(128, seed=rng.integers(1e6), closed=False)
        k = smooth_field(128, seed=rng.integers(1e6), closed=False)
        val = pg.sectional_curvature_m2(c, h, k)
        worst_pos = max(worst_pos, val)
        q = rt.r_forward("M2", c)
        dh = rt.dr("M2", c, h)
        dk = rt.dr("M2", c, k)
        tau = cc.trapezoid_weights(128, False)
        num = float(np.sum(tau * pg.curvature_quadratic(q.q[:, 0], dh, dk))
                    * q.theta_step)
        ghh = ms.metric_eval("M2", c, h, h)
        gkk = ms.metric_eval("M2", c, k, k)
        ghk = ms.metric_eval("M2", c, h, k)
        worst_rel = max(worst_rel,
                        abs(val - num / (ghh * gkk - ghk ** 2)) / abs(val))
    ok = worst_pos <= 1e-12 and worst_rel < 1e-6
    return ok, f"max value {worst_pos:.1e}, oracle rel {worst_rel:.1e}"


def check_energy_gradients():
    rng = np.random.default_rng(36)
    rp = _on_image_point()
    q = rp.q
    p = rng.standard_normal(q.shape)
    eps = 1e-7
    worst = 0.0
    pt = rt._M3Point(q)
    gq, gp_ = ch._grad_q(pt, p), ch._grad_p(pt, p)
    for _ in range(3):
        d = rng.standard_normal(q.shape)
        fd = (ch.discrete_energy(ch.HamiltonianState("M3", q + eps * d, p, 0, 1))
              - ch.discrete_energy(ch.HamiltonianState("M3", q - eps * d, p, 0, 1))) / (2 * eps)
        worst = max(worst, abs(fd - np.sum(gq * d)) / abs(fd))
        fd = (ch.discrete_energy(ch.HamiltonianState("M3", q, p + eps * d, 0, 1))
              - ch.discrete_energy(ch.HamiltonianState("M3", q, p - eps * d, 0, 1))) / (2 * eps)
        worst = max(worst, abs(fd - np.sum(gp_ * d)) / abs(fd))
    d = rng.standard_normal(q.shape)
    fdj = (rt.constraint_rows("M3", q + eps * d, 1)
           - rt.constraint_rows("M3", q - eps * d, 1)) / (2 * eps)
    jerr = np.abs(pt.jac.apply(d) - fdj).max() / np.abs(fdj).max()
    ok = worst < 1e-6 and jerr < 1e-6
    return ok, f"energy grads {worst:.1e}, jacobian {jerr:.1e}"


def check_rattle_short():
    n = 64
    th = (2 * np.pi / n) * np.arange(n)
    c = cc.DiscreteCurve(np.stack([np.cos(th), np.sin(th)], 1), True)
    q0 = ch.project_to_manifold(rt.r_forward("M3", c))
    u0 = np.stack([np.zeros(n), np.sin(th)], 1)
    p_raw = pg.g_apply("M3", q0.q, rt.dr("M3", c, u0)) / q0.theta_step
    s0 = ch.project_consistent(q0, p_raw)
    res = ch.simulate(s0, 0.5, 1e-2)
    drift = np.abs(res.energy - res.energy[0]).max() / res.energy[0]
    back = ch.HamiltonianState("M3", res.qs[-1], -res.ps[-1], 0.0, 1)
    res2 = ch.simulate(back, 0.5, 1e-2)
    rev = np.abs(res2.qs[-1] - s0.q).max()
    ok = res.constraint_norm.max() < 1e-9 and drift < 1e-4 and rev < 1e-6
    return ok, (f"|H| {res.constraint_norm.max():.1e} drift {drift:.1e} "
                f"reverse {rev:.1e}")


def circle_ivp_errors(rho, grids):
    """Errors of the radius (mean q1^2) at t = 1 of M3 geodesic_ivp from the
    unit circle with velocity rho (cos th, sin th), per (N, dt) of grids:
    centred circles are totally geodesic, so r' = rho sqrt(G(1)/G(r)) with
    G(r) = 2 pi (1/r + 1/r^3), the M3 metric on them."""
    from scipy.integrate import solve_ivp
    exact = solve_ivp(lambda t, r: rho * np.sqrt(2 / (1 / r + r ** -3)), (0.0, 1.0), [1.0],
                      rtol=1e-12, atol=1e-14).y[0, -1]
    paths = [ga.geodesic_ivp("M3", circle(n), rho * circle(n).points, 1.0, steps=round(1 / dt))
             for n, dt in grids]
    return [abs(np.mean(p.diagnostics["rspace"][-1, :, 0] ** 2) - exact) for p in paths]


def check_m3_exact_circles():
    e = circle_ivp_errors(0.6, ((32, 0.1), (64, 0.05)))
    order = np.log2(e[0] / e[1])
    return 1.8 <= order <= 2.2, f"radius errors {e[0]:.2e}, {e[1]:.2e}, order {order:.2f}"


def check_shooting_jacobian():
    n = 32
    th = (2 * np.pi / n) * np.arange(n)
    c1 = cc.DiscreteCurve(np.stack([1.15 * np.cos(th), 0.87 * np.sin(th)], 1), True)
    q0, target = ga._shooting_endpoints(circle(n), c1)
    residual, jacobian = ga._shooting_maps(q0, target, 1.0, 20)
    basis = ga._fourier_basis(n, 4)
    xi = 0.1 * np.random.default_rng(31).standard_normal((basis.shape[1], 2))
    J = jacobian(residual(xi, basis)[1], basis)
    eps, worst = 1e-5, 0.0
    for a in (2, 16, 5):              # k1 along cos t and sin 4t, k2 along sin t
        e = eps * np.eye(xi.size)[a].reshape(xi.shape)
        fd = (residual(xi + e, basis)[0] - residual(xi - e, basis)[0]) / (2 * eps)
        worst = max(worst, np.linalg.norm(J[:, a] - fd) / np.linalg.norm(fd))
    return worst < 1e-6, f"3 columns, worst rel err {worst:.1e}"


def check_m1_exactness():
    n = 128
    th = (2 * np.pi / (n - 1)) * np.arange(n)
    c0 = cc.DiscreteCurve(np.stack([np.cos(th), np.sin(th)], 1), False)
    c1 = cc.DiscreteCurve(4 * np.stack([np.cos(th), np.sin(th)], 1), False)
    d = ga.distance("M1", c0, c1)
    path = ga.geodesic_bvp("M1", c0, c1, K=17)
    e = ga.path_energy_rspace(path)
    err = abs(e - d.value ** 2) / d.value ** 2
    return err < 1e-6, f"energy vs dist^2 rel {err:.2e}"


def check_m2_ivp_bvp():
    geo = pg.bvp2((1.0, 0.0), (1.3, 0.8), samples=9)
    _, ps, _ = pg.integrate_spray2(np.array([[1.0, 0.0]]),
                                   geo.velocities[:1], 1.0, 2000)
    err = np.abs(ps[-1][0] - np.array([1.3, 0.8])).max()
    return err < 1e-6, f"endpoint err {err:.2e}"


def check_horizontality():
    errs = {}
    for n in (128, 256):
        th = (2 * np.pi / n) * np.arange(n)
        c = cc.DiscreteCurve(np.stack([np.cos(th), np.sin(th)], 1), True)
        f = c.frame
        hstar = np.cos(2 * th)[:, None] * f.n \
            + (8.0 / 7.0) * np.sin(2 * th)[:, None] * f.v
        errs[n] = ga.horizontality_residual(c, hstar)
    ratio = errs[128] / errs[256]
    return 3.0 <= ratio <= 5.0, f"residual decay ratio {ratio:.2f}"


def check_distance_bounds():
    rng = np.random.default_rng(40)
    ok = True
    for i in range(10):
        s0, s1 = np.exp(rng.uniform(-0.5, 0.5, 2))
        c0 = cc.DiscreteCurve(convex_arc(96, seed=50 + i).points * s0, False)
        c1 = cc.DiscreteCurve(convex_arc(96, seed=60 + i).points * s1, False)
        d1 = ga.distance("M1", c0, c1)
        d2 = ga.distance("M2", c0, c1)
        ok = ok and d1.value >= d1.lower_bounds["sqrt_length"] - 1e-9
        ok = ok and d2.value >= d2.lower_bounds["sqrt_length"] - 1e-9
        ok = ok and d2.value >= d2.lower_bounds["pointwise_integral"] - 1e-9
        ok = ok and abs(d1.value - ga.distance("M1", c1, c0).value) < 1e-9
    return ok, "sqrt-length and pointwise bounds hold; distance symmetric"


CHECKS = [
    ("frame/circle analytic values", check_frame_circle),
    ("total turning (Gauss-Bonnet)", check_gauss_bonnet),
    ("first variations vs finite differences", check_first_variation_fd),
    ("reparameterization covariance of frames", check_reparam_covariance),
    ("metric symmetry and positivity", check_metric_symmetry_psd),
    ("metric kernels", check_kernel),
    ("operator/metric adjoint identity", check_operator_adjoint),
    ("momentum source directional derivative", check_hc_directional),
    ("transform round trips at second order", check_roundtrips),
    ("transform isometry identity", check_isometry),
    ("closedness gradient finite differences", check_constraint_gradients),
    ("image projection oracles", check_projection),
    ("cyclic banded solver (b = 2, 4; b = 1 bordered, k = 2)", check_cyclic_banded),
    ("plane spray first integrals", check_spray_conservation),
    ("F(1) constant", check_F_constant),
    ("trajectory formula vs RK4", check_trajectory_vs_rk4),
    ("plane boundary solver quality", check_bvp2),
    ("Gauss curvature -3/x^2", check_scal2_fd),
    ("sectional curvature sign and oracle", check_sectional),
    ("Hamiltonian gradients and jacobian", check_energy_gradients),
    ("RATTLE conservation and reversibility", check_rattle_short),
    ("M3 geodesic of centred circles vs exact radius", check_m3_exact_circles),
    ("shooting Jacobian vs central differences", check_shooting_jacobian),
    ("flat-metric exactness", check_m1_exactness),
    ("fiber IVP/BVP agreement", check_m2_ivp_bvp),
    ("horizontal example decay", check_horizontality),
    ("distance lower bounds and symmetry", check_distance_bounds),
]


def run_all(verbose=True):
    failures = 0
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # noqa: BLE001 - report, don't crash the table
            ok, detail = False, f"exception: {exc!r}"
        failures += 0 if ok else 1
        if verbose:
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return failures
