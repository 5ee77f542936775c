"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with the measured quantity before asserting at the stated tolerance.

Three criteria are checked in the form the mathematics allows, with their
stated bounds kept: 2b compares the finite-difference derivative of the
transform with the metric after Richardson extrapolation (a central
difference cannot satisfy the product rule, so at fixed N the defect has
an O(dtheta^2) floor), 6b uses the provable factor 2 and pins it as sharp
(the factor 4 is falsified by concentric arcs), and 9a measures the
printed example against its own nonzero vertical pairing (it is not
horizontal).  Criterion 8 asserts its second-order target as stated;
velocity 1 meets it, velocity 2 does not at these resolutions, where the
residual diagnostic's own discretization error dominates.  The companion
tests pin the measured constants and orders.
Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
"""

import time
import types

import numpy as np
from scipy.integrate import quad

from conftest import circle, convex_arc, smooth_field, wavy_curve
from curveflow import constrained_hamiltonian as ch
from curveflow import curve_core as cc
from curveflow import geodesic_api as ga
from curveflow import metric_suite as ms
from curveflow import pointwise_geometry as pg
from curveflow import rtransform as rt
from curveflow.validation import curve_for, fd_gauss_curvature

ALL = ("M1", "M2", "M3", "M4")


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    return ok


# -- 1 ------------------------------------------------------------------------

def test_criterion01_F_constant():
    t0 = time.perf_counter()
    val = pg.F_integral(1.0)
    elapsed = time.perf_counter() - t0
    ok = abs(val - 0.30358) < 5e-5 and elapsed < 0.1
    assert report("1", ok, f"F(1) = {val:.7f} (|err| = {abs(val-0.30358):.2e}), "
                           f"runtime {elapsed*1e3:.1f} ms")


# -- 2 ------------------------------------------------------------------------

def _isometry_defects(n, fd):
    """Signed relative defects (G - G_r)/G of the 80 trials (4 metrics x 20)."""
    defects = []
    for mid in ALL:
        for trial in range(20):
            c = curve_for(mid, n, seed=300 + trial)
            h = smooth_field(n, seed=400 + trial, closed=c.closed)
            G = ms.metric_eval(mid, c, h, h)
            q = rt.r_forward(mid, c)
            if fd:
                eps = 1e-5
                qp = rt.r_forward(mid, cc.DiscreteCurve(c.points + eps * h, c.closed))
                qm = rt.r_forward(mid, cc.DiscreteCurve(c.points - eps * h, c.closed))
                d = (qp.q - qm.q) / (2 * eps)
            else:
                d = rt.dr(mid, c, h)
            G2 = rt.weighted_inner(mid, q.q, d, d, c.closed)
            defects.append((G - G2) / G)
    return np.array(defects)


def _isometry_errors(n, fd):
    return float(np.abs(_isometry_defects(n, fd)).max())


def test_criterion02_isometry_analytic():
    t0 = time.perf_counter()
    worst = _isometry_errors(256, fd=False)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 10.0
    assert report("2 (analytic dr)", ok,
                  f"worst relative error {worst:.2e}, runtime {elapsed:.1f} s")


def test_criterion02_isometry_fd_as_stated():
    """The finite-difference derivative of r_forward is isometric to 1e-5
    once its discretization defect is extrapolated away.

    Central differences do not satisfy the product rule, so the exact
    linearization of the discrete transform differs from the continuum
    differential (which metric_eval matches to rounding) by C dtheta^2,
    about 3e-3 at N = 256; the raw defect falls below 1e-5 only near
    N = 4600.  The signed defect e(N) of each trial is measured at
    N = 256, 512, 1024 and extrapolated twice (Richardson, h^2 and h^4
    terms).  An error in a metric formula is O(1) and survives the
    extrapolation; the companion pins the raw floor's decay rate.
    """
    e = {n: _isometry_defects(n, fd=True) for n in (256, 512, 1024)}
    extrapolated = (64 * e[1024] - 20 * e[512] + e[256]) / 45
    worst = float(np.abs(extrapolated).max())
    ok = worst <= 1e-5
    report("2 (finite-difference dr, extrapolated)", ok,
           f"worst extrapolated relative error {worst:.2e} vs target 1e-5 "
           f"(raw at N = 256: {np.abs(e[256]).max():.2e})")
    assert ok


def test_criterion02_companion_fd_floor_is_second_order():
    errs = [_isometry_errors(n, fd=True) for n in (128, 256)]
    ratio = errs[0] / errs[1]
    ok = 3.0 < ratio < 5.5
    assert report("2 (companion: FD floor decay)", ok,
                  f"floor {errs[0]:.2e} -> {errs[1]:.2e}, ratio {ratio:.2f}")


# -- 3 ------------------------------------------------------------------------

def _criterion3_curves(mid, n):
    # M1/M2 reconstruct the rotation representative (alpha(0) = 0), so the
    # identity is tested on that section of the motion quotient
    from conftest import rotation_representative
    th = (2 * np.pi / (n - 1)) * np.arange(n)
    if mid in ("M1", "M2"):
        return [rotation_representative(
                    cc.DiscreteCurve(np.stack([np.cos(th), np.sin(th)], 1), False)),
                rotation_representative(
                    cc.DiscreteCurve(np.stack([2 * np.cos(th), np.sin(th)], 1), False)),
                curve_for(mid, n, seed=7)]
    thc = (2 * np.pi / n) * np.arange(n)
    return [cc.DiscreteCurve(np.stack([np.cos(thc), np.sin(thc)], 1), True),
            cc.DiscreteCurve(np.stack([2 * np.cos(thc), np.sin(thc)], 1), True),
            wavy_curve(n, seed=7)]


def test_criterion03_round_trips():
    ok = True
    lines = []
    for mid in ALL:
        for which in range(3):
            ratios = []
            for direction in ("inv_fwd", "fwd_inv"):
                errs = []
                for n in (128, 256):
                    c = _criterion3_curves(mid, n)[which]
                    q = rt.r_forward(mid, c)
                    if direction == "inv_fwd":
                        back = rt.r_inverse(q)
                        errs.append(np.abs(back.points
                                           - (c.points - c.points[0])).max())
                    else:
                        q2 = rt.r_forward(mid, rt.r_inverse(q))
                        errs.append(np.abs(q2.q - q.q).max())
                ratios.append(errs[0] / errs[1])
            ok = ok and all(3.5 <= r <= 4.5 for r in ratios)
            lines.append(f"{mid}#{which}:{ratios[0]:.2f}/{ratios[1]:.2f}")
    assert report("3", ok, "error ratios (inverse/forward trips) "
                  + " ".join(lines))


# -- 4 ------------------------------------------------------------------------

def test_criterion04_flat_metric_exactness():
    # input-sampling error is the only error source and decays at second
    # order (criterion 3); N is chosen to push it below the tolerance
    n = 1 << 20
    th = (2 * np.pi / (n - 1)) * np.arange(n)
    c0 = cc.DiscreteCurve(np.stack([np.cos(th), np.sin(th)], 1), False)
    c1 = cc.DiscreteCurve(4 * np.stack([np.cos(th), np.sin(th)], 1), False)
    d = ga.distance("M1", c0, c1)
    expect = np.sqrt(2 * np.pi * (16 * (4 ** 0.25 - 1) ** 2 + 4 * (2 - 1) ** 2))
    err = abs(d.value - expect)
    ok = err < 1e-10
    # energy identity at working resolution
    m = 256
    thm = (2 * np.pi / (m - 1)) * np.arange(m)
    b0 = cc.DiscreteCurve(np.stack([np.cos(thm), np.sin(thm)], 1), False)
    b1 = cc.DiscreteCurve(4 * np.stack([np.cos(thm), np.sin(thm)], 1), False)
    path = ga.geodesic_bvp("M1", b0, b1, K=33)
    e = ga.path_energy_rspace(path)
    dm = ga.distance("M1", b0, b1)
    rel = abs(e - dm.value ** 2) / dm.value ** 2
    ok = ok and rel < 1e-6
    assert report("4", ok, f"|dist - closed form| = {err:.2e} (N = 2^20); "
                           f"|energy - dist^2|/dist^2 = {rel:.2e}")


# -- 5 ------------------------------------------------------------------------

def test_criterion05_plane_geometry():
    # (a) RK4 vs trajectory formula
    traj = pg.trajectory2((1.0, 0.0), (1.0, 1.0))
    t, ps, _ = pg.integrate_spray2([1.0, 0.0], [1.0, 1.0], 0.2, 20000)
    xs = ps[:, 0, 0]
    keep = xs <= 0.9 / traj.C
    err_a = np.abs(traj.y_of_x(xs[keep]) - ps[keep, 0, 1]).max()
    # (b) finite-difference Gauss curvature
    err_b = max(abs(fd_gauss_curvature(x) - pg.scal2((x, 0.0)))
                for x in (0.5, 1.0, 2.0))
    # (c) endpoints + equivariance, (d) lower bound, on 100 random pairs
    rng = np.random.default_rng(55)
    err_end = err_sym = 0.0
    bound_ok = True
    for _ in range(100):
        p0 = (float(np.exp(rng.uniform(-1, 1))), float(rng.uniform(-2, 2)))
        p1 = (float(np.exp(rng.uniform(-1, 1))), float(rng.uniform(-2, 2)))
        geo = pg.bvp2(p0, p1, samples=9)
        err_end = max(err_end, np.abs(geo.points[0] - p0).max(),
                      np.abs(geo.points[-1] - p1).max())
        r, a = 1.5, 0.8
        moved = pg.bvp2((r * p0[0], r ** 4 * p0[1] + a),
                        (r * p1[0], r ** 4 * p1[1] + a), samples=9)
        err_sym = max(err_sym, abs(moved.length - r * geo.length),
                      np.abs(moved.points - (geo.points * [r, r ** 4] + [0, a])).max())
        bound_ok = bound_ok and geo.length >= pg.dist2_lower_bound(p0, p1) - 1e-11
    ok = err_a < 1e-6 and err_b < 1e-4 and err_end < 1e-9 \
        and err_sym < 1e-8 and bound_ok
    assert report("5", ok, f"(a) y(x) err {err_a:.1e}; (b) curvature err "
                           f"{err_b:.1e}; (c) endpoints {err_end:.1e}, "
                           f"equivariance {err_sym:.1e}; (d) bounds hold: "
                           f"{bound_ok}")


# -- 6 ------------------------------------------------------------------------

def _random_pairs(count=50):
    rng = np.random.default_rng(12345)
    pairs = []
    for i in range(count):
        s0, s1 = np.exp(rng.uniform(-0.6, 0.6, 2))
        pairs.append((cc.DiscreteCurve(convex_arc(96, seed=100 + 2 * i).points * s0,
                                       False),
                      cc.DiscreteCurve(convex_arc(96, seed=101 + 2 * i).points * s1,
                                       False)))
    return pairs


def test_criterion06_sqrt_length_bound_m1():
    worst = np.inf
    for c0, c1 in _random_pairs():
        d = ga.distance("M1", c0, c1).value
        b = 2 * abs(np.sqrt(cc.curve_length(c1)) - np.sqrt(cc.curve_length(c0)))
        worst = min(worst, d - b)
    ok = worst > -1e-12
    assert report("6 (M1, factor 2)", ok, f"min(dist - bound) = {worst:.3e}")


def _scaling_path_length_m2(r0, r1, length):
    """M2 length of r -> r c, r0 <= r <= r1, for a unit-curvature arc c of
    the given length: h = c gives <D_s h, v> = 1/r and <D_s^2 h, n> = 1/r^2
    against ds = r dsigma, so the speed is sqrt(length (1/r + 1/r^3))."""
    val, _ = quad(lambda r: np.sqrt(1.0 / r + 1.0 / r ** 3), r0, r1)
    return np.sqrt(length) * val


def test_criterion06_sqrt_length_bound_m2_as_stated():
    """dist_M2(c0, c1) >= 2 |sqrt(l1) - sqrt(l0)|, and the constant 2 is
    sharp.

    The factor 4 cannot hold for M2: the pure scaling path between
    concentric half-circle arcs of radii 1 and 16 has length
    sqrt(pi) int_1^16 sqrt(1/r + 1/r^3) dr = 11.17, below
    4 |sqrt(l1) - sqrt(l0)| = 21.27.  The provable constant is 2 (distance
    reports it as its sqrt_length bound).  On that arc pair the distance
    must lie between the factor-2 bound and the scaling-path length, and
    its ratio to |sqrt(l1) - sqrt(l0)| must stay below 2.05, so no
    constant noticeably above 2 holds.
    """
    violations = 0
    for c0, c1 in _random_pairs():
        d = ga.distance("M2", c0, c1).value
        b = 2 * abs(np.sqrt(cc.curve_length(c1)) - np.sqrt(cc.curve_length(c0)))
        if d < b - 1e-12:
            violations += 1
    n = 96
    th = (2 * np.pi / (n - 1)) * np.arange(n)
    arc = np.stack([np.cos(th / 2), np.sin(th / 2)], 1)
    a0 = cc.DiscreteCurve(arc, False)
    a1 = cc.DiscreteCurve(16 * arc, False)
    d_arc = ga.distance("M2", a0, a1).value
    gap = abs(np.sqrt(cc.curve_length(a1)) - np.sqrt(cc.curve_length(a0)))
    path = _scaling_path_length_m2(1.0, 16.0, np.pi)
    ratio = d_arc / gap
    ok = violations == 0 and 2 * gap - 1e-12 <= d_arc <= path and ratio < 2.05
    report("6 (M2, factor 2, sharp)", ok,
           f"{violations}/50 pairs violate the factor-2 bound; arcs r = 1, 16: "
           f"2|dsqrt(l)| = {2 * gap:.2f} <= dist = {d_arc:.2f} <= scaling "
           f"path {path:.2f}; dist/|dsqrt(l)| = {ratio:.3f} (< 2.05)")
    assert ok


def test_criterion06_companion_m2_factor2():
    worst = np.inf
    for c0, c1 in _random_pairs():
        res = ga.distance("M2", c0, c1)
        b = 2 * abs(np.sqrt(cc.curve_length(c1)) - np.sqrt(cc.curve_length(c0)))
        worst = min(worst, res.value - b,
                    res.value - res.lower_bounds["pointwise_integral"])
    ok = worst > -1e-9
    assert report("6 (companion: M2 factor 2 + integral bound)", ok,
                  f"min slack {worst:.3e}")


# -- 7 ------------------------------------------------------------------------

def _fig2_state(n=100):
    th = (2 * np.pi / n) * np.arange(n)
    c = circle(n)
    u0 = np.stack([np.zeros(n), np.sin(th)], 1)
    q0 = ch.project_to_manifold(rt.r_forward("M3", c))
    p_raw = pg.g_apply("M3", q0.q, rt.dr("M3", c, u0)) / q0.theta_step
    return ch.project_consistent(q0, p_raw)


def test_criterion07_rattle_fig2():
    t0 = time.perf_counter()
    s0 = _fig2_state()
    res = ch.simulate(s0, 2.0, 1e-3)
    hmax = res.constraint_norm.max()
    edrift = np.abs(res.energy - res.energy[0]).max() / res.energy[0]
    back = ch.HamiltonianState("M3", res.qs[-1], -res.ps[-1], 0.0, s0.winding)
    res2 = ch.simulate(back, 2.0, 1e-3)
    rev = max(np.abs(res2.qs[-1] - s0.q).max(), np.abs(res2.ps[-1] + s0.p).max())

    def endpoint(steps):
        return ch.simulate(s0, 0.5, 0.5 / steps).qs[-1]
    ref = endpoint(1600)
    e1 = np.abs(endpoint(100) - ref).max()
    e2 = np.abs(endpoint(200) - ref).max()
    order = float(np.log2(e1 / e2))
    elapsed = time.perf_counter() - t0
    ok = hmax < 1e-9 and edrift < 1e-4 and 1.8 <= order <= 2.2 \
        and rev < 1e-6 and elapsed < 60.0
    assert report("7", ok, f"max|H| = {hmax:.1e}; energy drift {edrift:.1e}; "
                           f"order {order:.2f}; reverse error {rev:.1e}; "
                           f"runtime {elapsed:.1f} s")


# -- 8 ------------------------------------------------------------------------

def _momentum_residual(n, steps, which, T=0.5):
    th = (2 * np.pi / n) * np.arange(n)
    c = circle(n)
    if which == 1:
        u0 = np.stack([np.zeros(n), np.sin(th)], 1)
    else:
        u0 = -(np.sin(th) ** 2)[:, None] * np.stack([np.cos(th), np.sin(th)], 1)
    u0 = u0 - cc.integrate_ds(c, u0) / cc.curve_length(c)
    q0 = ch.project_to_manifold(rt.r_forward("M3", c))
    p_raw = pg.g_apply("M3", q0.q, rt.dr("M3", c, u0)) / q0.theta_step
    s0 = ch.project_consistent(q0, p_raw)
    sim = ch.simulate(s0, T, T / steps)
    mid = steps // 2
    curves = [cc.center(rt.r_inverse(rt.RPoint("M3", sim.qs[j], True, 1)))
              for j in range(mid - 2, mid + 3)]
    path = types.SimpleNamespace(curves=curves, times=sim.times[mid - 2: mid + 3])
    return ms.geodesic_residual("M3", path)["max"]


def _residual_orders():
    orders = []
    for which in (1, 2):
        r = [_momentum_residual(n, s, which)
             for n, s in ((32, 80), (64, 160), (128, 320))]
        orders.append(float(np.log2(r[1] / r[2])))
    return orders


def test_criterion08_momentum_residual_as_stated():
    """Second-order decay of the momentum-form residual under joint
    refinement.  With the trapezoid derivative rows the scheme is
    second-order consistent and velocity 1 meets the target.  Velocity 2
    misses it at N = 64 -> 128: geodesic_residual evaluated on a 4x finer
    solution sampled down to the same grids gives nearly the solver's own
    values, so at this resolution the figure is mostly the diagnostic's
    own discretization error.  The target is kept as stated.
    """
    orders = _residual_orders()
    ok = all(1.8 <= o <= 2.2 for o in orders)
    report("8 (as stated)", ok,
           f"joint-refinement orders {orders[0]:.2f}, {orders[1]:.2f} "
           "vs target [1.8, 2.2]")
    assert ok


def test_criterion08_companion_first_order_convergence():
    """Pins the measured orders of the trapezoid-row scheme: velocity 1 in
    [1.8, 2.2], velocity 2 at least 1.4 (measured 1.86 and 1.50).  This
    excludes the first-order band (orders ~1.06/0.90) of the earlier
    forward-difference rows, whose name the test keeps."""
    orders = _residual_orders()
    ok = 1.8 <= orders[0] <= 2.2 and orders[1] >= 1.4
    assert report("8 (companion: measured orders)", ok,
                  f"orders {orders[0]:.2f}, {orders[1]:.2f}")


# -- 9 ------------------------------------------------------------------------

def test_criterion09_horizontality_printed_example_as_stated():
    """The discrete vertical pairing of the printed example converges at
    O(dtheta^2) to its continuum value.

    On the unit circle h = -(2 - cos 2t, 2 sin 2t) has normal and tangent
    components a = 2.5 cos t - 1.5 cos 3t and b = 1.5 sin t - 1.5 sin 3t,
    whose continuum pairing -2a''' + 4a' - 5b'' + b = -6 sin t + 30 sin 3t
    is not zero: the printed field is not horizontal.  The sup error of
    <L_c h, v> against that function must decay with ratio in [3, 5]
    between N = 128 and 256, and horizontality_residual must tend to its
    sup-norm 36.  The companion checks a truly horizontal field.
    """
    errs, resid = {}, {}
    for n in (128, 256):
        th = (2 * np.pi / n) * np.arange(n)
        c = circle(n)
        f = cc.build_frame(c)
        h = -np.stack([2 - np.cos(2 * th), 2 * np.sin(2 * th)], 1)
        pairing = np.einsum("ki,ki->k", ms.apply_L("M3", c, h), f.v)
        errs[n] = np.abs(pairing - (-6 * np.sin(th) + 30 * np.sin(3 * th))).max()
        resid[n] = ga.horizontality_residual(c, h)
    ratio = errs[128] / errs[256]
    # |sup|x| - sup|y|| <= sup|x - y|: the residual nears 36 at the same rate
    ok = 3.0 <= ratio <= 5.0 and all(abs(resid[n] - 36.0) <= errs[n] + 1e-9
                                     for n in errs)
    report("9 (printed example vs its continuum pairing)", ok,
           f"sup error {errs[128]:.3f} -> {errs[256]:.3f}, decay ratio "
           f"{ratio:.2f}; sup residual {resid[128]:.2f} -> {resid[256]:.2f} "
           "(-> 36)")
    assert ok


def test_criterion09_companion_corrected_example_and_fig3():
    # a = cos 2t, b = (8/7) sin 2t solves -2a''' + 4a' - 5b'' + b = 0
    errs = {}
    for n in (128, 256):
        th = (2 * np.pi / n) * np.arange(n)
        c = circle(n)
        f = cc.build_frame(c)
        hstar = np.cos(2 * th)[:, None] * f.n \
            + (8.0 / 7.0) * np.sin(2 * th)[:, None] * f.v
        errs[n] = ga.horizontality_residual(c, hstar)
    ratio = errs[128] / errs[256]
    n = 100
    th = (2 * np.pi / n) * np.arange(n)
    c = circle(n)
    h = -np.stack([2 - np.cos(2 * th), 2 * np.sin(2 * th)], 1)
    path = ga.shape_geodesic(c, h, T=0.3, steps=300, snapshots=31)
    rel = path.diagnostics["horizontality_rel"]
    growth = rel.max() / rel[0]
    ok = 3.0 <= ratio <= 5.0 and growth <= 10.0
    assert report("9 (companion: corrected example + growth bound)", ok,
                  f"decay ratio {ratio:.2f}; relative residual growth "
                  f"{growth:.2f}x (<= 10x)")


# -- 10 -----------------------------------------------------------------------

def test_criterion10_sectional_curvature():
    rng = np.random.default_rng(99)
    c = wavy_curve(128, seed=14, closed=False)
    q = rt.r_forward("M2", c)
    tau = cc.trapezoid_weights(128, False)
    worst_sign = -np.inf
    worst_rel = 0.0
    for _ in range(100):
        h = smooth_field(128, seed=int(rng.integers(1e6)), closed=False)
        k = smooth_field(128, seed=int(rng.integers(1e6)), closed=False)
        val = pg.sectional_curvature_m2(c, h, k)
        worst_sign = max(worst_sign, val)
        dh = rt.dr("M2", c, h)
        dk = rt.dr("M2", c, k)
        num = float(np.sum(tau * pg.curvature_quadratic(q.q[:, 0], dh, dk))
                    * q.theta_step)
        gram = (ms.metric_eval("M2", c, h, h) * ms.metric_eval("M2", c, k, k)
                - ms.metric_eval("M2", c, h, k) ** 2)
        worst_rel = max(worst_rel, abs(val - num / gram) / abs(val))
    ok = worst_sign <= 1e-12 and worst_rel < 1e-6
    assert report("10", ok, f"max sectional curvature {worst_sign:.2e} "
                            f"(<= 0); oracle agreement {worst_rel:.2e}")
