import numpy as np
import pytest

from conftest import analytic_circle_frame, circle, smooth_field, wavy_curve
from curveflow import curve_core as cc
from curveflow.errors import BadInput, DegenerateCurve, TurningTooFast


def test_unit_circle_frame():
    n = 128
    c = circle(n)
    f = cc.build_frame(c)
    th, v, nrm = analytic_circle_frame(n)
    dth2 = c.theta_step ** 2
    assert np.abs(f.v - v).max() < dth2
    assert np.abs(f.n - nrm).max() < dth2
    assert np.abs(f.kappa - 1.0).max() < dth2
    assert np.abs(f.alpha - (th + np.pi / 2)).max() < dth2
    assert np.abs(f.speed - 1.0).max() < dth2
    assert f.winding == 1


def test_segment_frame():
    n = 64
    th = (2 * np.pi / (n - 1)) * np.arange(n)
    c = cc.DiscreteCurve(np.stack([th, np.zeros(n)], 1), False)
    f = cc.build_frame(c)
    assert np.abs(f.v - [1.0, 0.0]).max() < 1e-14
    assert np.abs(f.n - [0.0, 1.0]).max() < 1e-14
    assert np.abs(f.kappa).max() < 1e-12
    assert np.abs(f.alpha).max() < 1e-14
    assert np.abs(f.speed - 1.0).max() < 1e-13


def test_ellipse_curvature_closed_form():
    # kappa = a b / (a^2 sin^2 + b^2 cos^2)^{3/2} for (a cos, b sin)
    n = 256
    a, b = 2.0, 1.0
    th = (2 * np.pi / n) * np.arange(n)
    c = cc.DiscreteCurve(np.stack([a * np.cos(th), b * np.sin(th)], 1), True)
    f = cc.build_frame(c)
    exact = a * b / (a ** 2 * np.sin(th) ** 2 + b ** 2 * np.cos(th) ** 2) ** 1.5
    assert abs(exact[0] - 2.0) < 1e-14 and abs(exact[n // 4] - 0.25) < 1e-14
    assert np.abs(f.kappa - exact).max() < 20 * c.theta_step ** 2


def test_frame_orthonormality_and_winding():
    c = wavy_curve(200, seed=4)
    f = cc.build_frame(c)
    assert np.abs(np.einsum("ki,ki->k", f.v, f.v) - 1.0).max() < 1e-14
    assert np.abs(np.einsum("ki,ki->k", f.v, f.n)).max() < 1e-14
    assert f.winding == 1
    # doubly traversed circle has winding 2
    n = 128
    th = (2 * np.pi / n) * np.arange(n)
    c2 = cc.DiscreteCurve(np.stack([np.cos(2 * th), np.sin(2 * th)], 1), True)
    assert cc.build_frame(c2).winding == 2


def test_degenerate_and_turning_errors():
    n = 32
    pts = np.zeros((n, 2))
    pts[:, 0] = np.linspace(0, 1, n) ** 2  # stalls at the left endpoint
    with pytest.raises(DegenerateCurve):
        cc.build_frame(cc.DiscreteCurve(pts, False))
    # tangent rotating by almost pi per sample: branch is unresolvable
    m = 17
    t = (2 * np.pi / (m - 1)) * np.arange(m)
    freq = (np.pi - 0.005) * (m - 1) / (2 * np.pi)
    fast = np.stack([np.cos(freq * t), np.sin(freq * t)], 1)
    with pytest.raises(TurningTooFast):
        cc.build_frame(cc.DiscreteCurve(fast, False))


def test_ds_derivative_frenet():
    c = circle(256)
    f = cc.build_frame(c)
    tol = 2 * c.theta_step ** 2
    assert np.abs(cc.ds_derivative(c, f.v) - f.n).max() < tol
    assert np.abs(cc.ds_derivative(c, f.n) + f.v).max() < tol


def test_closed_theta_derivative_is_the_roll_stencil():
    # the wrapped stencil is np.roll's: the same f[k+1] - f[k-1], bit for
    # bit, on samples, fields and stacks of fields
    n, dth = 65, 2 * np.pi / 65
    f = wavy_curve(n, seed=3).points
    for values in (f[:, 0], f, np.stack([f, smooth_field(n, seed=1), -f], axis=2)):
        roll = (np.roll(values, -1, axis=0) - np.roll(values, 1, axis=0)) / (2.0 * dth)
        assert np.array_equal(cc.theta_derivative(values, True, dth), roll)


def test_ds_derivative_open_scalar():
    # c(theta) = (2 theta, 0): D_s sin = cos/2
    n = 200
    th = (2 * np.pi / (n - 1)) * np.arange(n)
    c = cc.DiscreteCurve(np.stack([2 * th, np.zeros(n)], 1), False)
    out = cc.ds_derivative(c, np.sin(th))
    assert np.abs(out - np.cos(th) / 2).max() < 2 * c.theta_step ** 2


def test_integrate_ds_lengths():
    assert abs(cc.integrate_ds(circle(128), np.ones(128)) - 2 * np.pi) < 1e-2
    c = circle(128, r=3.0)
    assert abs(cc.curve_length(c) - 6 * np.pi) < 3e-2
    # exact for grid-constant integrand against the discrete measure
    f = cc.build_frame(c)
    assert abs(cc.integrate_ds(c, np.ones(128))
               - f.speed[0] * 2 * np.pi) < 1e-12


def test_gauss_bonnet_total_turning():
    for seed in (1, 2, 3):
        c = wavy_curve(256, seed=seed)
        f = cc.build_frame(c)
        total = cc.integrate_ds(c, f.kappa)
        assert abs(total - 2 * np.pi * f.winding) < 10 * c.theta_step ** 2


def test_field_jet_is_second_order_on_the_circle():
    # h = (cos 2t, sin 2t) on the unit circle has the exact jet
    # a1 = 2 cos t, b1 = 2 sin t, a2 = -4 sin t, b2 = 4 cos t; each part
    # converges at second order (h = c would be exact to rounding)
    errors = []
    for n in (64, 128):
        c = circle(n)
        th = c.theta
        jet = cc.FieldJet(c, np.stack([np.cos(2 * th), np.sin(2 * th)], 1))
        exact = {"a1": 2 * np.cos(th), "b1": 2 * np.sin(th),
                 "a2": -4 * np.sin(th), "b2": 4 * np.cos(th)}
        errors.append({name: np.abs(getattr(jet, name) - value).max()
                       for name, value in exact.items()})
    for name, coarse in errors[0].items():
        assert 3.5 <= coarse / errors[1][name] <= 4.5, name


def test_first_variation_translation_invariance():
    c = wavy_curve(96, seed=8)
    h = np.tile([0.7, -0.3], (96, 1))
    for qty in cc.FIRST_VARIATION_QUANTITIES:
        assert np.abs(cc.first_variation(c, h, qty)).max() == 0.0
    with pytest.raises(BadInput, match="unknown quantity"):
        cc.first_variation(c, h, "torsion")


def test_first_variation_scaling_field():
    # h = c on the unit circle: scaling c -> (1+t)c gives |c'| = 1+t and
    # kappa = 1/(1+t), so d|c'|.h = |c'| and d kappa.h = -kappa
    c = circle(256)
    f = cc.build_frame(c)
    h = c.points
    dspeed = cc.first_variation(c, h, "speed")
    dkappa = cc.first_variation(c, h, "kappa")
    tol = 5 * c.theta_step ** 2
    assert np.abs(dspeed - f.speed).max() < tol
    assert np.abs(dkappa + f.kappa).max() < tol
    # cross-check against the analytic scaling family at finite step
    eps = 1e-6
    ks = cc.build_frame(cc.DiscreteCurve((1 + eps) * c.points, True)).kappa
    fd = (ks - f.kappa) / eps
    assert np.abs(fd - dkappa).max() < 1e-5


def test_first_variation_finite_differences():
    # the kappa formula agrees with the discrete functional to O(dtheta^2),
    # so N is chosen large enough to place that bound inside the tolerance
    n = 4096
    rng = np.random.default_rng(17)
    worst = 0.0
    for trial in range(20):
        c = wavy_curve(n, seed=100 + trial, amp=0.15)
        m = smooth_field(n, seed=200 + trial)
        qty = cc.FIRST_VARIATION_QUANTITIES[trial % 5]
        eps = 1e-5

        def value(pts):
            fr = cc.build_frame(cc.DiscreteCurve(pts, True))
            return {"alpha": fr.alpha, "v": fr.v, "n": fr.n,
                    "speed": fr.speed, "kappa": fr.kappa}[qty]
        fd = (value(c.points + eps * m) - value(c.points - eps * m)) / (2 * eps)
        an = cc.first_variation(c, m, qty)
        worst = max(worst, np.abs(fd - an).max() / max(np.abs(fd).max(), 1e-12))
    assert worst < 1e-5


def test_center():
    c = circle(64, centre=(5.0, 5.0))
    out = cc.center(c)
    assert np.abs(cc.centroid(out)).max() < 1e-12
    again = cc.center(out)
    assert np.abs(again.points - out.points).max() < 1e-12
    ell = cc.DiscreteCurve(
        np.stack([2 * np.cos((2 * np.pi / 64) * np.arange(64)) + 1.0,
                  np.sin((2 * np.pi / 64) * np.arange(64)) - 2.0], 1), True)
    assert np.abs(cc.centroid(cc.center(ell))).max() < 1e-12


def test_normalize_rotation():
    # centring and rotating by section_rotation puts alpha on the section
    c = wavy_curve(128, seed=3)
    out = c.moved(cc.section_rotation(c), -cc.centroid(c))
    f = cc.build_frame(out)
    mean = cc.integrate_ds(out, f.alpha) / cc.curve_length(out)
    assert abs(mean) < 1e-10


@pytest.mark.parametrize("turns", [None, 0.5, 1.3, 2.7])
def test_rigid_motion_carries_the_frame(turns):
    # moved() rotates v and n, keeps speed and kappa and shifts alpha by the
    # angle, as build_frame of the moved points gives it, alpha(0) in
    # (-pi, pi] included: on the spirals alpha(0) + phi leaves that range
    if turns is None:
        c = wavy_curve(128, seed=5)
    else:
        th = np.linspace(0.0, 2 * np.pi, 256)
        c = cc.DiscreteCurve((1.0 + 0.3 * th)[:, None]
                             * np.stack([np.cos(turns * th), np.sin(turns * th)], 1), False)
    wrapped = False
    for phi in (2.5, -2.9, 0.4):
        rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
        moved = c.moved(rot, (0.7, -1.3))
        assert np.abs(moved.points - (c.points + (0.7, -1.3)) @ rot.T).max() == 0.0
        carried, ref = moved.frame, cc.build_frame(moved)
        for name in ("speed", "v", "n", "alpha"):
            assert np.abs(getattr(carried, name) - getattr(ref, name)).max() < 1e-12
            assert not getattr(carried, name).flags.writeable
        assert np.abs(carried.kappa - ref.kappa).max() < 1e-11 * np.abs(ref.kappa).max()
        assert carried.winding == ref.winding
        assert -np.pi < carried.alpha[0] <= np.pi
        wrapped |= not -np.pi < c.frame.alpha[0] + phi <= np.pi
    assert wrapped or turns is None


def test_richardson_refinement_circle_ellipse():
    # circle: discrete kappa is exact, so refine the speed error instead
    errs = []
    for n in (128, 256):
        f = cc.build_frame(circle(n))
        errs.append(np.abs(f.speed - 1.0).max())
    assert 3.5 < errs[0] / errs[1] < 4.5
    # ellipse: the curvature error decays at second order (the turning
    # angle of a pure trig curve is exact under central differences)
    errs = []
    for n in (128, 256):
        th = (2 * np.pi / n) * np.arange(n)
        c = cc.DiscreteCurve(np.stack([2 * np.cos(th), np.sin(th)], 1), True)
        f = cc.build_frame(c)
        exact = 2.0 / (4 * np.sin(th) ** 2 + np.cos(th) ** 2) ** 1.5
        errs.append(np.abs(f.kappa - exact).max())
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_reparameterization_covariance():
    n = 256

    def sampled(npts, warp):
        th = (2 * np.pi / npts) * np.arange(npts)
        phi = th + 0.3 * np.sin(th) if warp else th
        pts = np.stack([np.cos(phi) * (1 + 0.2 * np.cos(2 * phi)),
                        np.sin(phi)], 1)
        return cc.DiscreteCurve(pts, True), phi

    cw, phi = sampled(n, True)
    cref, _ = sampled(8 * n, False)
    fw = cc.build_frame(cw)
    fref = cc.build_frame(cref)
    kap = np.interp(phi, cref.theta, fref.kappa, period=2 * np.pi)
    alpha = np.interp(phi, cref.theta, fref.alpha, period=2 * np.pi)
    assert np.abs(fw.kappa - kap).max() < 60 * cw.theta_step ** 2
    assert np.abs(fw.alpha - alpha).max() < 10 * cw.theta_step ** 2


def test_curve_json_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((32, 2)) * np.array([1e-200, 1e200])
    pts[0] = [np.pi, -1.0 / 3.0]
    pts[1] = [5e-324, 1.7976931348623157e308]
    c = cc.DiscreteCurve(pts, False)
    path = tmp_path / "curve.json"
    cc.save_curve(c, path)
    back = cc.load_curve(path)
    assert back.closed == c.closed
    assert back.points.tobytes() == c.points.tobytes()


def test_invariants_rejects_bad_input():
    with pytest.raises(ValueError):
        cc.DiscreteCurve(np.zeros((4, 2)), True)          # too few samples
    with pytest.raises(ValueError):
        cc.DiscreteCurve(np.full((16, 2), np.nan), True)  # non-finite
