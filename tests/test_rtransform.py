import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.linalg import null_space

from conftest import (
    circle,
    convex_arc,
    convex_closed,
    curve_for,
    m3_jacobian_rows,
    rotation_representative,
    smooth_field,
    wavy_curve,
)
from curveflow import curve_core as cc
from curveflow import metric_suite as ms
from curveflow import rtransform as rt
from curveflow.constrained_hamiltonian import project_to_manifold
from curveflow.errors import BadInput, NonPositive, NotConvex, OffImage, SingularSystem

ALL = ("M1", "M2", "M3", "M4")


def circle_rpoint(n=100):
    th = (2 * np.pi / n) * np.arange(n)
    q = np.stack([np.ones(n), th + np.pi / 2, np.ones(n)], 1)
    return rt.RPoint("M3", q, True, winding=1)


def on_image_point(n=96, seed=13):
    rng = np.random.default_rng(seed)
    th = (2 * np.pi / n) * np.arange(n)
    q1 = 1.0 + 0.1 * np.cos(th) + 0.05 * rng.uniform(0.5, 1) * np.sin(2 * th)
    q2 = th + np.pi / 2 + 0.08 * np.sin(th)
    q = np.stack([q1, q2, np.zeros(n)], 1)
    return project_to_manifold(rt.RPoint("M3", q, True, winding=1))


def tangent_fields(rp, r, seed):
    """r random tangent fields (n, 3, r) at the M3 point rp: combinations
    of an orthonormal basis of the null space of the dense DH
    (m3_jacobian_rows), the test-side reference for the tangent space."""
    null = null_space(m3_jacobian_rows(rp.q))
    coef = np.random.default_rng(seed).standard_normal((null.shape[1], r))
    return (null @ coef).reshape(rp.n_samples, 3, r)


def test_forward_values_on_circles():
    c = circle(128)
    q1 = rt.r_forward("M1", c)
    # discrete speed of a sampled circle is sinc-flat; kappa is exactly 1
    assert np.abs(q1.q[:, 0] - 2 * np.sqrt(np.sin(c.theta_step) / c.theta_step)).max() < 1e-13
    assert q1.q[:, 0].std() < 1e-13 and q1.q[:, 1].std() < 1e-12
    assert np.abs(q1.q - [2.0, 4.0]).max() < c.theta_step ** 2

    r = 2.37
    q2 = rt.r_forward("M2", circle(128, r=r))
    assert np.abs(q2.q[:, 0] - np.sqrt(r)).max() < r * c.theta_step ** 2
    assert np.abs(q2.q[:, 1] - r).max() < 2 * r * c.theta_step ** 2

    q3 = rt.r_forward("M3", c)
    assert np.abs(q3.q[:, 1] - (c.theta + np.pi / 2)).max() < 1e-12
    assert q3.winding == 1


def test_r_inverse_examples():
    # M3 circle point -> unit circle through the origin
    rp = circle_rpoint(128)
    c = rt.r_inverse(rp)
    th = c.theta
    expected = np.stack([np.cos(th) - 1.0, np.sin(th)], 1)
    assert np.abs(c.points - expected).max() < 2 * c.theta_step ** 2
    # M1 constant (2, 4) -> unit-speed unit circle from the origin
    n = 200
    q = rt.RPoint("M1", np.tile([2.0, 4.0], (n, 1)), False)
    c = rt.r_inverse(q)
    expected = np.stack([np.sin(c.theta), 1.0 - np.cos(c.theta)], 1)
    assert np.abs(c.points - expected).max() < 2 * c.theta_step ** 2
    # M2 constant (1, 0) -> straight segment (exact: trapezoid of constants)
    q = rt.RPoint("M2", np.tile([1.0, 0.0], (n, 1)), False)
    c = rt.r_inverse(q)
    assert np.abs(c.points - np.stack([c.theta, np.zeros(n)], 1)).max() < 1e-12


@pytest.mark.parametrize("shape", [(400,), (401,), (64, 2), (401, 2), (2, 3)])
def test_cumulative_trapezoid_is_scipys(shape):
    y = np.random.default_rng(shape[0]).standard_normal(shape)
    dx = 2 * np.pi / (shape[0] - 1)
    assert np.array_equal(rt._cumulative_trapezoid(y, dx),
                          cumulative_trapezoid(y, dx=dx, initial=0.0, axis=0))


@pytest.mark.parametrize("mid", ALL)
def test_round_trip_second_order(mid):
    errs = []
    for n in (128, 256):
        c = curve_for(mid, n, seed=9)
        back = rt.r_inverse(rt.r_forward(mid, c))
        errs.append(np.abs(back.points - (c.points - c.points[0])).max())
    assert 3.5 <= errs[0] / errs[1] <= 4.5


@pytest.mark.parametrize("mid", ALL)
def test_forward_round_trip(mid):
    # analytic on-pattern q (continuum constraints hold exactly); open grid
    errs = []
    for n in (128, 256):
        th = (2 * np.pi / (n - 1)) * np.arange(n)
        q1 = 1.0 + 0.3 * np.cos(th)
        q2v = 0.8 * th + 0.2 * np.sin(th)
        dq2 = 0.8 + 0.2 * np.cos(th)
        if mid == "M1":
            q = np.stack([q1, 1.0 + 0.2 * np.sin(th)], 1)
        elif mid == "M2":
            q = np.stack([q1, q1 ** 2 * dq2], 1)  # kappa |c'|^2 = q1^2 alpha'
        elif mid == "M3":
            q = np.stack([q1, q2v, q1 ** 2 * dq2], 1)
        else:
            dq1 = -0.3 * np.sin(th)
            q = np.stack([q1, q2v, 2 * dq1 / q1, q1 ** 2 * dq2], 1)
        rp = rt.RPoint(mid, q, False)
        q_back = rt.r_forward(mid, rt.r_inverse(rp))
        errs.append(np.abs(q_back.q - q).max())
    assert 3.3 <= errs[0] / errs[1] <= 4.7


def test_dr_constant_field_vanishes():
    for mid in ALL:
        c = curve_for(mid, 96, seed=2)
        h = np.tile([0.4, -1.1], (96, 1))
        assert np.abs(rt.dr(mid, c, h)).max() == 0.0


@pytest.mark.parametrize("mid", ALL)
def test_isometry_identity_machine_precision(mid):
    c = curve_for(mid, 256, seed=10)
    for seed in (1, 2, 3):
        h = smooth_field(256, seed=seed, closed=c.closed)
        G = ms.metric_eval(mid, c, h, h)
        d = rt.dr(mid, c, h)
        q = rt.r_forward(mid, c)
        G2 = rt.weighted_inner(mid, q.q, d, d, c.closed)
        assert abs(G - G2) / G < 1e-12


@pytest.mark.parametrize("mid", ALL)
def test_fd_dr_converges_to_analytic(mid):
    # the exact derivative of the stencil transform differs from the
    # analytic differential at O(dtheta^2); verify exactly that decay
    errs = []
    for n in (256, 512):
        c = curve_for(mid, n, seed=12)
        h = smooth_field(n, seed=12, closed=c.closed)
        eps = 1e-5
        qp = rt.r_forward(mid, cc.DiscreteCurve(c.points + eps * h, c.closed))
        qm = rt.r_forward(mid, cc.DiscreteCurve(c.points - eps * h, c.closed))
        dfd = (qp.q - qm.q) / (2 * eps)
        d = rt.dr(mid, c, h)
        errs.append(np.abs(dfd - d).max() / np.abs(d).max())
    assert 3.0 <= errs[0] / errs[1] <= 5.2


def test_constraints_circle_point():
    rp = circle_rpoint(100)
    val = rt.constraints(rp)
    assert np.abs(val.h_diff).max() < 1e-13          # exact on the grid
    assert np.linalg.norm(val.h_cl) < 1e-13          # roots of unity sum to 0
    bumped = rp.with_q(np.stack([rp.q[:, 0], rp.q[:, 1],
                                 np.full(100, 1.1)], 1))
    val = rt.constraints(bumped)
    assert np.abs(val.h_diff - 0.1).max() < 1e-13


def test_constraints_m1_chord_gap():
    c = convex_arc(128, seed=3)
    q = rt.r_forward("M1", c)
    gap = rt.r_inverse(q).points[-1] - rt.r_inverse(q).points[0]
    val = rt.constraints(q)
    assert np.abs(val.h_cl - gap).max() < 1e-12


def test_m4_constraints_forward_difference_form():
    c = wavy_curve(128, seed=4)
    q = rt.r_forward("M4", c)
    val = rt.constraints(q)
    assert val.h_diff.shape == (256,)
    assert np.abs(val.h_diff).max() < 0.5  # O(dtheta) forward-difference order
    finer = rt.constraints(rt.r_forward("M4", wavy_curve(256, seed=4)))
    assert np.abs(finer.h_diff).max() < 0.6 * np.abs(val.h_diff).max()


def test_constraint_gradient_fd_oracle():
    rng = np.random.default_rng(7)
    for mid in ALL:
        c = convex_closed(96) if mid == "M1" else wavy_curve(96, seed=3)
        q = rt.r_forward(mid, c)
        grads = rt.constraint_gradients(q)
        dq = rng.standard_normal(q.q.shape)
        eps = 1e-6
        for i in range(2):
            fd = (rt.constraints(q.with_q(q.q + eps * dq)).h_cl[i]
                  - rt.constraints(q.with_q(q.q - eps * dq)).h_cl[i]) / (2 * eps)
            pred = rt.weighted_inner(mid, q.q, grads[i], dq, True)
            assert abs(fd - pred) / max(abs(fd), 1e-9) < 1e-5


def test_m3_circle_gradient_matches_printed_formula():
    rp = circle_rpoint(100)
    th = (2 * np.pi / 100) * np.arange(100)
    g1, g2 = rt.constraint_gradients(rp)
    exp1 = np.stack([0.5 * np.cos(th + np.pi / 2),
                     -np.sin(th + np.pi / 2), np.zeros(100)], 1)
    exp2 = np.stack([0.5 * np.sin(th + np.pi / 2),
                     np.cos(th + np.pi / 2), np.zeros(100)], 1)
    assert np.abs(g1 - exp1).max() < 1e-13
    assert np.abs(g2 - exp2).max() < 1e-13


def test_m2_gradient_open_endpoint():
    # tail integral vanishes at the right endpoint: the second component of
    # grad H^1 ends at O(dtheta) and the first at q1 cos(alpha)/2
    vals = []
    for n in (128, 256):
        c = rotation_representative(wavy_curve(n, seed=5, closed=False))
        q = rt.r_forward("M2", c)
        g1 = rt.constraint_gradients(q)[0]
        alpha = rt._alpha_of(q.metric_id, q.q, q.theta_step)
        vals.append(abs(g1[-1, 1]))
        assert abs(g1[-1, 0] - 0.5 * q.q[-1, 0] * np.cos(alpha[-1])) < 0.1
    assert vals[1] < 0.7 * vals[0]  # O(dtheta) endpoint decay


def test_project_image_m1_m2():
    for mid in ("M1", "M2"):
        c = convex_closed(96)
        q = rt.r_forward(mid, c)
        g1, g2 = rt.constraint_gradients(q)
        out = rt.project_image(q, g1, image_tol=1e-2)
        assert np.linalg.norm(out) < 1e-10 * np.linalg.norm(g1)
        rng = np.random.default_rng(8)
        h = rng.standard_normal(q.q.shape)
        k = rt.project_image(q, h, image_tol=1e-2)
        assert np.abs(rt.project_image(q, k, image_tol=1e-2) - k).max() < 1e-10


def test_project_image_m3_oracles():
    rp = on_image_point()
    rng = np.random.default_rng(11)
    h = rng.standard_normal(rp.q.shape)
    k = rt.project_image(rp, h)
    # (a) derivative-constraint Jacobian annihilates k
    eps = 1e-7
    num = (rt.constraints(rp.with_q(rp.q + eps * k)).h_diff
           - rt.constraints(rp.with_q(rp.q - eps * k)).h_diff) / (2 * eps)
    assert np.abs(num).max() < 1e-6        # finite-difference noise level
    exact = rt.M3Jacobian(rp.q, rp.theta_step).apply(k)[: rp.n_samples]
    assert np.abs(exact).max() < 1e-9
    # fields stacked as (n, 3, r) project column by column
    hs = np.stack([h, 2.0 * h, rng.standard_normal(rp.q.shape)], axis=-1)
    ks = rt.project_image(rp, hs)
    for j in range(3):
        col = rt.project_image(rp, hs[..., j])
        assert np.abs(ks[..., j] - col).max() <= 1e-13 * np.abs(col).max()
    # (b) closedness gradients pair to zero
    for g in rt.constraint_gradients(rp):
        assert abs(rt.weighted_inner("M3", rp.q, g, k, True)) < 1e-9
    # (c) h - k is orthogonal to 50 random tangent fields
    fields = tangent_fields(rp, 50, 100)
    for s in range(50):
        t = fields[..., s]
        pair = rt.weighted_inner("M3", rp.q, h - k, t, True)
        assert abs(pair) < 1e-9 * np.linalg.norm(t)


def test_project_image_idempotent_selfadjoint():
    rp = on_image_point(seed=21)
    rng = np.random.default_rng(2)
    h = rng.standard_normal(rp.q.shape)
    k = rt.project_image(rp, h)
    assert np.abs(rt.project_image(rp, k) - k).max() < 1e-10
    h2 = rng.standard_normal(rp.q.shape)
    a = rt.weighted_inner("M3", rp.q, rt.project_image(rp, h), h2, True)
    b = rt.weighted_inner("M3", rp.q, h, rt.project_image(rp, h2), True)
    assert abs(a - b) < 1e-9
    # tangent inputs are returned unchanged
    t = tangent_fields(rp, 1, 4)[..., 0]
    assert np.abs(rt.project_image(rp, t) - t).max() < 1e-9


def test_project_image_off_image_raises():
    rp = circle_rpoint(64)
    bad = rp.with_q(rp.q + np.array([0.5, 0.0, 0.0]))  # breaks H_diff badly
    with pytest.raises(OffImage):
        rt.project_image(bad, np.ones((64, 3)))


def _cyclic_dense(bands):
    w, n = bands.shape
    A = np.zeros((n, n))
    idx = np.arange(n)
    for j in range(-(w // 2), w // 2 + 1):
        A[idx, (idx + j) % n] += bands[w // 2 + j]
    return A


def _bordered_system(rng, n, b, k):
    """A diagonally dominant cyclic banded A of half-width b with a random
    k-wide border and 2 x 2-dominant corner: (bands, dense [[A, cols], [rows,
    corner]])."""
    bands = rng.uniform(-1.0, 1.0, (2 * b + 1, n))
    bands[b] += 2.0 * b + 2.0
    dense = np.zeros((n + k, n + k))
    dense[:n, :n] = _cyclic_dense(bands)
    dense[:n, n:], dense[n:, :n] = rng.standard_normal((n, k)), rng.standard_normal((k, n))
    dense[n:, n:] = rng.standard_normal((k, k)) + 4.0 * np.sqrt(n) * np.eye(k)
    return bands, dense


def test_cyclic_banded_solve_columns():
    # nonsymmetric bands of half-width 1, 2 and 4, without a border and with
    # a 2-wide one, on even, odd and the smallest (2b + 1) grids, against a
    # dense solve; one factorization serves several right-hand sides, and
    # each column of an (n + k, 3) right-hand side equals its
    # single-column solve
    rng = np.random.default_rng(4)
    for b in (1, 2, 4):
        for k in (0, 2):
            for n in (64, 65, 2 * b + 1):
                bands, dense = _bordered_system(rng, n, b, k)
                factor = rt.CyclicFactor(bands, dense[:n, n:], dense[n:, :n], dense[n:, n:])
                for _ in range(2):
                    f = rng.standard_normal((n + k, 3))
                    u = factor.solve(f)
                    assert u.shape == (n + k, 3)
                    ref = np.linalg.solve(dense, f)
                    assert np.abs(u - ref).max() < 1e-13 * np.abs(ref).max()
                    for j in range(3):
                        single = factor.solve(f[:, j])
                        assert np.abs(u[:, j] - single).max() <= 1e-15 * np.abs(single).max()


@pytest.mark.parametrize("stencil", [(-1.0, 2.0, -1.0), (1.0, -4.0, 6.0, -4.0, 1.0)])
def test_cyclic_banded_solve_singular(stencil):
    # periodic difference operators annihilate constants: no solution for
    # a right-hand side with nonzero mean
    n = 65
    bands = np.repeat(np.array(stencil)[:, None], n, axis=1)
    with pytest.raises(SingularSystem):
        rt.CyclicFactor(bands).solve(np.ones(n))
    with pytest.raises(SingularSystem):
        rt.CyclicFactor(bands, np.zeros((n, 2)), np.zeros((2, n)),
                        np.eye(2)).solve(np.ones(n + 2))
    # zero bands fail the band factorization; NaN bands get through it
    # and fail the residual check
    for fill, words in ((0.0, "singular matrix"), (np.nan, "failed to converge")):
        with pytest.raises(SingularSystem, match=words):
            rt.CyclicFactor(np.full_like(bands, fill)).solve(np.ones(n))


def test_cyclic_factor_checks_border_rows():
    # a corner changed after the factorization: the band rows of the
    # solution still hold, so only the residual check on the border rows
    # can see it
    rng = np.random.default_rng(5)
    n, b, k = 64, 1, 2
    bands, dense = _bordered_system(rng, n, b, k)
    factor = rt.CyclicFactor(bands, dense[:n, n:], dense[n:, :n], dense[n:, n:].copy())
    f = rng.standard_normal(n + k)
    factor.solve(f)
    factor.corner[0, 0] += 1.0
    with pytest.raises(SingularSystem, match="failed to converge"):
        factor.solve(f)


def test_banded_solvers_name_bad_input(capfd):
    # an even band count, n <= 2b, flat bands, a partial or misshapen
    # border and a right-hand side of the wrong length are BadInput (a
    # ValueError too, for older callers), and LAPACK prints nothing
    for bands in (np.ones((4, 20)), np.ones((9, 8)), np.ones(20)):
        with pytest.raises(BadInput, match="bands must be"):
            rt.CyclicFactor(bands)
    n = 16
    bands = np.stack([-np.ones(n), 3.0 * np.ones(n), -np.ones(n)])
    for border in ((np.ones((n, 2)),), (np.ones((n, 2)), np.ones((2, n))),
                   (None, np.ones((2, n)), np.eye(2))):
        with pytest.raises(BadInput, match="together"):
            rt.CyclicFactor(bands, *border)
    for border in ((np.ones((n, 2)), np.ones((2, n - 1)), np.eye(2)),
                   (np.ones((n + 1, 2)), np.ones((2, n)), np.eye(2)),
                   (np.ones((n, 2)), np.ones((2, n)), np.eye(3)),
                   (np.ones(n), np.ones(n), np.ones(1))):
        with pytest.raises(BadInput, match="border must be"):
            rt.CyclicFactor(bands, *border)
    bordered = rt.CyclicFactor(bands, np.ones((n, 2)), np.ones((2, n)), 4.0 * np.eye(2))
    for factor, rhs in ((rt.CyclicFactor(bands), np.ones(n - 1)),
                        (rt.CyclicFactor(bands), np.ones(n + 1)),
                        (rt.CyclicFactor(bands), np.ones((n, 2, 2))),
                        (bordered, np.ones(n)), (bordered, np.ones((n + 1, 3)))):
        with pytest.raises(BadInput, match="right-hand side"):
            factor.solve(rhs)
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("b, k", [(1, 2), (4, 0)])
@pytest.mark.parametrize("n", [64, 65])
def test_stacked_cyclic_factor_is_single_factors(b, k, n):
    # K systems factored in one call, as one block-diagonal band
    # factorization, solve as K single factorizations do, bit for bit, for
    # one right-hand side per system and for r at once: half-width 1 with
    # the 2-wide closedness border (the Gram systems) and half-width 4 with
    # none (the horizontal projection's shape)
    rng = np.random.default_rng(11)
    systems = [_bordered_system(rng, n, b, k) for _ in range(5)]
    bands = np.stack([bands for bands, _ in systems])
    border = [np.stack([dense[rows, cols] for _, dense in systems])
              for rows, cols in ((slice(n), slice(n, None)), (slice(n, None), slice(n)),
                                 (slice(n, None), slice(n, None)))] if k else []
    stacked = rt.CyclicFactor(bands, *border)
    singles = [rt.CyclicFactor(bands[i], *(x[i] for x in border)) for i in range(5)]
    for shape in ((5, n + k), (5, n + k, 3)):
        f = rng.standard_normal(shape)
        u = stacked.solve(f)
        assert u.shape == shape
        for i, single in enumerate(singles):
            assert np.array_equal(u[i], single.solve(f[i]))
            ref = np.linalg.solve(systems[i][1], f[i])
            assert np.abs(u[i] - ref).max() < 1e-13 * np.abs(ref).max()
    with pytest.raises(BadInput, match="right-hand side"):
        stacked.solve(np.ones((4, n + k)))


def test_stacked_cyclic_factor_fails_by_block():
    # one singular block fails the stacked band factorization, and one
    # block whose corner changed after it fails the residual check of the
    # whole solve
    rng = np.random.default_rng(12)
    n = 64
    systems = [_bordered_system(rng, n, 1, 2) for _ in range(3)]
    bands = np.stack([bands for bands, _ in systems])
    cols, rows, corner = (np.stack([dense[r, c] for _, dense in systems]) for r, c in
                          ((slice(n), slice(n, None)), (slice(n, None), slice(n)),
                           (slice(n, None), slice(n, None))))
    singular = bands.copy()
    singular[1] = 0.0
    with pytest.raises(SingularSystem, match="singular matrix"):
        rt.CyclicFactor(singular, cols, rows, corner)
    factor = rt.CyclicFactor(bands, cols, rows, corner)
    f = rng.standard_normal((3, n + 2))
    factor.solve(f)
    factor.corner[2, 0, 0] += 1.0
    with pytest.raises(SingularSystem, match="failed to converge"):
        factor.solve(f)


def test_bordered_cyclic_solve():
    rng = np.random.default_rng(6)
    n = 65
    bands = rng.uniform(-1.0, 1.0, (3, n))
    bands[1] += 4.0
    cols = rng.standard_normal((n, 2))
    rows = rng.standard_normal((2, n))
    corner = rng.standard_normal((2, 2))
    factor = rt.CyclicFactor(bands, cols, rows, corner)
    f = rng.standard_normal(n + 2)
    full = np.block([[_cyclic_dense(bands), cols], [rows, corner]])
    ref = np.linalg.solve(full, f)
    assert np.abs(factor.solve(f) - ref).max() < 1e-13 * np.abs(ref).max()
    # r right-hand sides at once: column by column the same solution
    F = rng.standard_normal((n + 2, 4))
    X = factor.solve(F)
    ref = np.linalg.solve(full, F)
    assert X.shape == (n + 2, 4)
    assert np.abs(X - ref).max() < 1e-13 * np.abs(ref).max()


def test_positivity_errors():
    n = 64
    q = np.ones((n, 3))
    q[5, 0] = -1.0
    with pytest.raises(NonPositive):
        rt.r_inverse(rt.RPoint("M3", q, False))
    c = wavy_curve(128, seed=9, amp=0.5)
    with pytest.raises(NotConvex):
        rt.r_forward("M1", c)


def test_rpoint_json_roundtrip(tmp_path):
    rp = on_image_point()
    path = tmp_path / "p.json"
    rt.save_rpoint(rp, path)
    back = rt.load_rpoint(path)
    assert back.metric_id == rp.metric_id
    assert back.closed == rp.closed
    assert back.winding == rp.winding
    assert back.q.tobytes() == rp.q.tobytes()
    # winding inference when the field is dropped
    import json
    data = json.loads(path.read_text())
    del data["winding"]
    (tmp_path / "q.json").write_text(json.dumps(data))
    inferred = rt.load_rpoint(tmp_path / "q.json")
    assert rt._winding_of(inferred) == 1


def test_raw_transform_constraint_decay():
    # transforms of genuinely closed curves: the closedness gap vanishes to
    # rounding (q1^2 exp(i q2) reproduces the central-difference vector,
    # which telescopes over the periodic grid) and the trapezoid derivative
    # rows, centred at the half nodes, give |H_diff| = O(dtheta^2)
    df = {}
    for n in (128, 256):
        q = rt.r_forward("M3", wavy_curve(n, seed=4))
        val = rt.constraints(q)
        assert np.linalg.norm(val.h_cl) < 1e-12 * rt.closure_scale(q)
        df[n] = np.abs(val.h_diff).max()
    assert 3.0 <= df[128] / df[256] <= 5.0
