import types

import numpy as np
import pytest

from conftest import circle, convex_closed, curve_for, smooth_field, wavy_curve
from curveflow import curve_core as cc
from curveflow import metric_suite as ms
from curveflow import pointwise_geometry as pg
from curveflow import rtransform as rt
from curveflow.errors import BadInput, NotConvex, OpenCurveUnsupported

ALL = ("M1", "M2", "M3", "M4")


def test_kernel_fields_evaluate_to_zero():
    for mid in ALL:
        c = convex_closed(128) if mid == "M1" else wavy_curve(128, seed=2)
        e1, e2 = ms.kernel_basis(mid, c)[:2]
        assert ms.metric_eval(mid, c, e1, e1) == 0.0
        assert ms.metric_eval(mid, c, e2, e2) == 0.0
        assert ms.metric_eval(mid, c, e1, e2) == 0.0


def test_rotation_field_kernel_m1_m2():
    # Jc is null for the continuum form; discretely the square integrand is
    # O(dtheta^4), so assert the decay rate rather than an absolute epsilon
    for mid in ("M1", "M2"):
        vals = []
        for n in (64, 128):
            c = convex_closed(n)
            jc = ms.kernel_basis(mid, c)[2]
            vals.append(ms.metric_eval(mid, c, jc, jc))
        assert vals[0] / vals[1] > 8.0
        assert vals[1] < 1e-4 * ms.metric_eval(mid, convex_closed(128),
                                               smooth_field(128, 3),
                                               smooth_field(128, 3))


def test_rotations_not_in_m4_kernel():
    c = circle(128)
    jc = ms.kernel_basis("M4", c)
    assert len(jc) == 2  # constants only
    rot = cc.rotate90(c.points)
    val = ms.metric_eval("M4", c, rot, rot)
    assert val > 1.0  # G(Jc, Jc) = int |D_s Jc|^2 + ... ~ 2 pi on the circle


def test_m4_circle_symbolic_value():
    # h = sin(theta) n on the unit circle: |D_s h|^2 = 1, |D_s^2 h|^2 = 4,
    # so G_M4(h, h) = int (1 + 4) ds = 10 pi
    n = 512
    c = circle(n)
    f = cc.build_frame(c)
    h = np.sin(c.theta)[:, None] * f.n
    val = ms.metric_eval("M4", c, h, h)
    assert abs(val - 10 * np.pi) < 10 * np.pi * 3 * c.theta_step ** 2
    # brute-force assembly with the same stencils matches bit for bit
    dsh = cc.ds_derivative(c, h)
    ds2h = cc.ds_derivative(c, dsh)
    integrand = np.einsum("ki,ki->k", dsh, dsh) + np.einsum("ki,ki->k", ds2h, ds2h)
    assert cc.integrate_ds(c, integrand) == val


def test_metric_symmetry_exact_and_psd():
    rng = np.random.default_rng(1)
    for mid in ALL:
        c = curve_for(mid, 128, seed=3)
        for trial in range(5):
            h = smooth_field(128, seed=rng.integers(1e6), closed=c.closed)
            k = smooth_field(128, seed=rng.integers(1e6), closed=c.closed)
            assert ms.metric_eval(mid, c, h, k) == ms.metric_eval(mid, c, k, h)
            assert ms.metric_eval(mid, c, h, h) >= -1e-12


def test_m1_requires_convexity():
    c = wavy_curve(128, seed=9, amp=0.5)  # loses positive curvature
    h = smooth_field(128, seed=1)
    assert cc.build_frame(c).kappa.min() <= 0
    with pytest.raises(NotConvex):
        ms.metric_eval("M1", c, h, h)


def test_operator_requires_closed():
    c = curve_for("M2", 64)
    with pytest.raises(OpenCurveUnsupported):
        ms.apply_L("M2", c, smooth_field(64, 1, closed=False))
    with pytest.raises(OpenCurveUnsupported):
        ms.hc_quadratic("M3", c, smooth_field(64, 1, closed=False))


def test_operator_metric_adjoint_identity():
    # discrete central differences are exactly skew-adjoint on periodic
    # grids, so <L h, k>_ds reproduces G(h, k) to machine precision
    for mid in ALL:
        c = convex_closed(96) if mid == "M1" else wavy_curve(96, seed=5)
        h = smooth_field(96, seed=11)
        k = smooth_field(96, seed=12)
        lhs = cc.integrate_ds(c, np.einsum("ki,ki->k", ms.apply_L(mid, c, h), k))
        rhs = ms.metric_eval(mid, c, h, k)
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))


@pytest.mark.parametrize("n", [64, 65])
def test_apply_L_stack_is_bitwise_per_column(n):
    # every operation on an (N, 2, r) stack is elementwise, so each column
    # is bitwise the single field's: r = 1, r = 5 in C order, and a stack
    # that is a strided view (not C-contiguous)
    fields = [smooth_field(n, seed=s) for s in range(1, 6)]
    stacks = [fields[0][..., None], np.stack(fields, axis=2),
              np.stack(fields)[::2].transpose(1, 2, 0)]
    assert not stacks[2].flags.c_contiguous
    for mid in ALL:
        c = convex_closed(n) if mid == "M1" else wavy_curve(n, seed=2)
        for stack in stacks:
            out = ms.apply_L(mid, c, stack)
            assert out.shape == stack.shape
            for j in range(stack.shape[2]):
                assert np.array_equal(out[..., j], ms.apply_L(mid, c, stack[..., j])), (mid, j)


def test_single_field_readers_refuse_stacks():
    # the forms that take one field refuse an (N, 2, r) stack by name, as
    # they do any other shape
    n = 64
    c, h = wavy_curve(n, seed=2), smooth_field(n, seed=1)
    stack = np.stack([h, 2.0 * h], axis=2)
    readers = [lambda: ms.metric_eval("M3", c, stack, h),
               lambda: ms.hc_quadratic("M3", c, stack),
               lambda: ms.momentum_of("M3", c, stack),
               lambda: cc.first_variation(c, stack, "kappa"),
               lambda: pg.sectional_curvature_m2(c, stack, h),
               lambda: rt.dr("M3", c, stack)]
    for read in readers:
        with pytest.raises(BadInput, match=r"^h must be an array of shape \(64, 2\)"):
            read()


def test_apply_L_kernel_examples():
    c = circle(128)
    const = ms.kernel_basis("M3", c)[0]
    assert np.abs(ms.apply_L("M3", c, const)).max() == 0.0
    jc = cc.rotate90(c.points)
    lj = ms.apply_L("M2", c, jc)
    assert np.abs(lj).max() < 10 * c.theta_step ** 2


def test_apply_L_m4_fourier_diagonal():
    # on the unit circle L_M4 acts diagonally on Fourier modes with the
    # discrete symbol s^2 (s^2 + 1), s = sin(m dtheta)/dtheta
    n = 256
    c = circle(n)
    f = cc.build_frame(c)
    th = c.theta
    for m in (1, 2, 5):
        h = np.stack([np.cos(m * th), np.zeros(n)], 1)
        val = cc.integrate_ds(c, np.einsum("ki,ki->k",
                                           ms.apply_L("M4", c, h), h))
        s2 = (np.sin(m * c.theta_step) / c.theta_step) ** 2
        speed = f.speed[0]
        # discrete D_s carries 1/speed factors; speed is grid-constant here
        sym = (s2 / speed ** 2) ** 2 + s2 / speed ** 2
        expected = sym * np.pi * speed
        assert val >= 0.0
        assert abs(val - expected) < 1e-10 * expected


def test_hc_quadratic_zero_and_kernel():
    c = circle(96)
    zero = np.zeros((96, 2))
    assert np.abs(ms.hc_quadratic("M3", c, zero).values).max() == 0.0
    for mid in ALL:
        cconv = convex_closed(96)
        const = ms.kernel_basis(mid, cconv)[0]
        assert np.abs(ms.hc_quadratic(mid, cconv, const).values).max() == 0.0
    for mid in ("M1", "M2"):
        cconv = convex_closed(128)
        jc = ms.kernel_basis(mid, cconv)[2]
        hc = ms.hc_quadratic(mid, cconv, jc).values
        assert np.abs(hc).max() < 50 * cconv.theta_step ** 2 * 10


def test_hc_quadratic_directional_derivative():
    n = 4096
    for mid in ALL:
        c = convex_closed(n) if mid == "M1" else wavy_curve(n, seed=6)
        h = smooth_field(n, seed=21)
        m = smooth_field(n, seed=22)
        eps = 1e-5
        gp = ms.metric_eval(mid, cc.DiscreteCurve(c.points + eps * m, True), h, h)
        gm = ms.metric_eval(mid, cc.DiscreteCurve(c.points - eps * m, True), h, h)
        fd = (gp - gm) / (2 * eps)
        pred = 2.0 * ms.hc_quadratic(mid, c, h).pair(m)
        assert abs(fd - pred) / abs(fd) < 1e-4


def test_momentum_pairing_reproduces_metric():
    c = wavy_curve(96, seed=7)
    h = smooth_field(96, seed=31)
    k = smooth_field(96, seed=32)
    p = ms.momentum_of("M3", c, h)
    assert abs(p.pair(k) - ms.metric_eval("M3", c, h, k)) < 1e-11


def test_reparameterization_invariance_of_metric():
    n = 256

    def data(warp):
        th = (2 * np.pi / n) * np.arange(n)
        phi = th + 0.25 * np.sin(th) if warp else th
        c = cc.DiscreteCurve(np.stack([np.cos(phi) * (1 + 0.15 * np.cos(2 * phi)),
                                       np.sin(phi)], 1), True)
        h = np.stack([np.sin(phi), np.cos(2 * phi)], 1)
        k = np.stack([np.cos(phi), np.sin(3 * phi)], 1)
        return c, h, k

    def ghh(c, h, k):
        return ms.metric_eval("M3", c, h, h)

    vals = [ghh(*data(False)), ghh(*data(True))]
    assert abs(vals[0] - vals[1]) / abs(vals[0]) < 20 * (2 * np.pi / n) ** 2


def test_geodesic_residual_trivial_paths():
    c = wavy_curve(64, seed=8)
    times = np.linspace(0.0, 1.0, 5)
    const_path = types.SimpleNamespace(curves=[c] * 5, times=times)
    res = ms.geodesic_residual("M3", const_path)
    assert res["max"] == 0.0
    shift = np.array([0.3, -0.2])
    translating = types.SimpleNamespace(
        curves=[c.with_points(c.points + t * shift) for t in times], times=times)
    res = ms.geodesic_residual("M3", translating)
    # rounding of c + t*shift, amplified by D_s^4 / dt, sets the noise floor
    assert res["max"] < 1e-8
