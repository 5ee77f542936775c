import numpy as np
import pytest

from conftest import circle, m3_jacobian_rows, wavy_curve
from curveflow import constrained_hamiltonian as ch
from curveflow import curve_core as cc
from curveflow import metric_suite as ms
from curveflow import pointwise_geometry as pg
from curveflow import rtransform as rt
from curveflow.errors import (BadInput, CurveflowError, NewtonDivergence, RankDeficiency,
                              SingularSystem, StepLeftDomain)


def circle_state(n=64, amp=1.0, velocity="sin"):
    th = (2 * np.pi / n) * np.arange(n)
    c = circle(n)
    q0 = ch.project_to_manifold(rt.r_forward("M3", c))
    if velocity == "sin":
        u0 = amp * np.stack([np.zeros(n), np.sin(th)], 1)
    else:
        u0 = -amp * (np.sin(th) ** 2)[:, None] * np.stack([np.cos(th), np.sin(th)], 1)
    u0 = u0 - cc.integrate_ds(c, u0) / cc.curve_length(c)
    p_raw = pg.g_apply("M3", q0.q, rt.dr("M3", c, u0)) / q0.theta_step
    return ch.project_consistent(q0, p_raw)


def d_ginvp_dq(q, p):
    """T[k, a, j] = d (g^-1_q p)_j / d q_a for the M3 g^-1 = diag(1/4,
    q1^-2, q1^6): only the q1 row is nonzero."""
    T = np.zeros(q.shape + (3,))
    q1 = q[:, 0]
    T[:, 0, 1] = -2.0 * q1 ** -3 * p[:, 1]
    T[:, 0, 2] = 6.0 * q1 ** 5 * p[:, 2]
    return T


def dense_m3_newton(pt0, dt):
    """The reduced Newton solve of an M3 RATTLE step with dense per-sample
    3 x 3 blocks and the dense DH of m3_jacobian_rows: A^-1 and D^-1 by
    batched solves, GW = G(q1) D^-1 C A^-1 (-dt/2) G(q0)^T and a dense
    solve for the multipliers.  The reference for ch._m3_newton, with its
    signature and return pair: factor(pt1, ph) -> solve(f1, f2, f3), the
    points pt0, pt1 read only for their q."""
    q0 = pt0.q
    n = q0.shape[0]
    half = 0.5 * dt * 2 * np.pi / n
    eye = np.eye(3)

    def ginv(q):
        return eye * pg.g_inv("M3", q, np.ones_like(q))[:, :, None]
    gi0 = ginv(q0)
    jac0_t = m3_jacobian_rows(q0).reshape(n + 2, n, 3).transpose(1, 2, 0)
    B = -0.5 * dt * jac0_t

    def factor(pt1, ph):
        return lambda f1, f2, f3: solve(pt1.q, ph, f1, f2, f3)

    def solve(q1, ph, f1, f2, f3):
        A = eye + half * d_ginvp_dq(q0, ph)
        C = -half * (gi0 + ginv(q1))
        D = eye - half * np.transpose(d_ginvp_dq(q1, ph), (0, 2, 1))
        sol1 = np.linalg.solve(A, np.concatenate([f1[:, :, None], B], axis=2))
        rhs2 = np.matmul(C, sol1)
        rhs2[:, :, 0] -= f2
        sol2 = np.linalg.solve(D, rhs2)
        G = m3_jacobian_rows(q1)
        dlam = np.linalg.solve(G @ sol2[:, :, 1:].reshape(3 * n, n + 2),
                               -f3 - G @ sol2[:, :, 0].ravel())
        return (sol2[:, :, 0] + sol2[:, :, 1:] @ dlam,
                sol1[:, :, 0] + sol1[:, :, 1:] @ dlam, dlam)

    return factor, lambda lam: jac0_t @ lam


def exact_newton_step(state, dt, tol=1e-12, max_iter=50, lam_guess=None):
    """One RATTLE step by the exact Newton iteration, the reduced matrix
    factored again at every iterate, ending with the step's own end
    momentum: the reference for the simplified iteration of
    ch._rattle_step.  Returns (new_state, lambda_1); raises
    NewtonDivergence with the residual history."""
    mid, dth, winding = state.metric_id, state.theta_step, state.winding
    q0, p0 = state.q, state.p
    ph, q1 = p0.copy(), q0 + dt * ch.energy_grad_p(mid, q0, p0, dth)
    lam = np.zeros(q0.shape[0] + 2) if lam_guess is None else lam_guess.copy()
    factor, jt0 = ch._m3_newton(rt._M3Point(q0), dt)
    history = []
    for _ in range(max_iter):
        f1 = ph - p0 + 0.5 * dt * ch.energy_grad_q(mid, q0, ph, dth) - 0.5 * dt * jt0(lam)
        f2 = q1 - q0 - 0.5 * dt * (ch.energy_grad_p(mid, q0, ph, dth)
                                   + ch.energy_grad_p(mid, q1, ph, dth))
        f3 = rt.constraint_rows(mid, q1, winding)
        history.append(max(np.abs(f1).max(), np.abs(f2).max(), np.abs(f3).max()))
        if history[-1] < tol:
            break
        dq, dph, dlam = factor(rt._M3Point(q1), ph)(f1, f2, f3)
        q1, ph, lam = q1 + dq, ph - dph, lam + dlam
    else:
        raise NewtonDivergence("exact Newton reference did not converge", history)
    pt1 = rt._M3Point(q1)
    p1 = ch._tangent_momentum(pt1, ph - 0.5 * dt * ch._grad_q(pt1, ph))[0]
    return ch.HamiltonianState(mid, q1, p1, state.t + dt, winding), lam


def test_discrete_energy_values():
    n = 50
    q = np.stack([np.ones(n), np.linspace(0, 2 * np.pi, n), np.zeros(n)], 1)
    st = ch.HamiltonianState("M3", q, np.zeros((n, 3)), 0.0, 1)
    assert ch.discrete_energy(st) == 0.0
    a = 1.7
    p = np.tile([0.0, a, 0.0], (n, 1))
    st = ch.HamiltonianState("M3", q, p, 0.0, 1)
    assert abs(ch.discrete_energy(st) - np.pi * a ** 2) < 1e-12


def test_energy_gradients_fd():
    rng = np.random.default_rng(3)
    for mid, d in (("M3", 3), ("M4", 4)):
        n = 40
        q = rng.uniform(0.5, 1.5, (n, d))
        q[:, 1] = np.linspace(0, 2 * np.pi, n)
        p = rng.standard_normal((n, d))
        dth = 2 * np.pi / n
        gq = ch.energy_grad_q(mid, q, p, dth)
        gp = ch.energy_grad_p(mid, q, p, dth)
        eps = 1e-7
        for _ in range(4):
            dq = rng.standard_normal((n, d))

            def e(qq, pp):
                return 0.5 * float(np.sum(pg.g_inv_quad(mid, qq, pp))) * dth
            fd = (e(q + eps * dq, p) - e(q - eps * dq, p)) / (2 * eps)
            assert abs(fd - np.sum(gq * dq)) < 1e-6 * max(1.0, abs(fd))
            fd = (e(q, p + eps * dq) - e(q, p - eps * dq)) / (2 * eps)
            assert abs(fd - np.sum(gp * dq)) < 1e-6 * max(1.0, abs(fd))


def test_point_algebra_matches_references():
    # at an on-image point, the M3 point's energy gradients equal the
    # generic ones, and the derivatives built from its g^-1 derivatives
    # (_energy_grad_tangents, _m3_jacobian_tangent) match central
    # differences of _grad_q, _grad_p, DH . k and DH^T . lam along random
    # (dq, dp)
    rng = np.random.default_rng(37)
    n = 64
    rp = ch.project_to_manifold(rt.r_forward("M3", wavy_curve(n, seed=2)))
    pt, dth = rp._m3, rp.theta_step
    p = rng.standard_normal((n, 3))
    for ours, ref in ((ch._grad_q(pt, p), ch.energy_grad_q("M3", rp.q, p, dth)),
                      (ch._grad_p(pt, p), ch.energy_grad_p("M3", rp.q, p, dth))):
        assert np.abs(ours - ref).max() <= 1e-14 * np.abs(ref).max()
    dq, dp = rng.standard_normal((2, n, 3, 3))
    k, lam = rng.standard_normal((n, 3)), rng.standard_normal(n + 2)
    eq, ep = ch._energy_grad_tangents(pt, p, dq, dp)
    d_apply, d_apply_t = rt._m3_jacobian_tangent(pt, dq)
    dk, dlam = d_apply(k), d_apply_t(lam)
    eps = 1e-6
    for j in range(3):
        (a, pa), (b, pb) = [(rt._M3Point(rp.q + s * dq[..., j]), p + s * dp[..., j])
                            for s in (eps, -eps)]
        for tangent, f in ((eq[..., j], ch._grad_q), (ep[..., j], ch._grad_p),
                           (dk[:, j], lambda pt_, _: pt_.jac.apply(k)),
                           (dlam[..., j], lambda pt_, _: pt_.jac.apply_t(lam))):
            fd = (f(a, pa) - f(b, pb)) / (2 * eps)
            assert np.linalg.norm(tangent - fd) <= 1e-6 * np.linalg.norm(fd)


def test_constraint_jacobian_fd():
    rng = np.random.default_rng(5)
    c = wavy_curve(48, seed=2)
    q = rt.r_forward("M3", c).q.copy()
    d = rng.standard_normal(q.shape)
    eps = 1e-7
    fd = (rt.constraint_rows("M3", q + eps * d, 1)
          - rt.constraint_rows("M3", q - eps * d, 1)) / (2 * eps)
    for jd in (rt.M3Jacobian(q, 2 * np.pi / 48).apply(d), m3_jacobian_rows(q) @ d.ravel()):
        assert np.abs(jd - fd).max() < 1e-6 * max(1.0, np.abs(fd).max())


def test_structured_products_match_dense():
    # DH . X and DH^T . lam of M3Jacobian against the row-by-row reference
    # on an even and an odd grid
    rng = np.random.default_rng(7)
    for n in (48, 49):
        q = rt.r_forward("M3", wavy_curve(n, seed=2)).q
        ref = m3_jacobian_rows(q)
        jac = rt.M3Jacobian(q, 2 * np.pi / n)
        X = rng.standard_normal((n, 3, 5))
        lam = rng.standard_normal((n + 2, 5))
        assert np.abs(jac.apply(X) - ref @ X.reshape(3 * n, 5)).max() < 1e-12
        assert np.abs(jac.apply(X[:, :, 0]) - ref @ X[:, :, 0].ravel()).max() < 1e-12
        assert np.abs(jac.apply_t(lam) - (ref.T @ lam).reshape(n, 3, 5)).max() < 1e-12
        assert np.abs(jac.apply_t(lam[:, 0]) - (ref.T @ lam[:, 0]).reshape(n, 3)).max() < 1e-12


def test_m3_projection_matches_dense():
    # the one M3 tangent projection (derivative rows bordered by the two
    # closedness rows) against k = h - g^-1 A^T mu, (A g^-1 A^T) mu = A h,
    # with the dense Jacobian A and a dense solve
    rng = np.random.default_rng(17)
    for n in (64, 65, 400):
        rp = ch.project_to_manifold(rt.r_forward("M3", wavy_curve(n, seed=2)))
        A = m3_jacobian_rows(rp.q)
        gi = pg.g_inv("M3", rp.q, np.ones_like(rp.q)).ravel()
        S = (A * gi) @ A.T
        h = rng.standard_normal((n, 3))
        ref = h - (gi * (A.T @ np.linalg.solve(S, A @ h.ravel()))).reshape(n, 3)
        k = rt.project_image(rp, h)
        assert np.abs(k - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.abs(rt.project_image(rp, k) - k).max() <= 1e-12 * np.abs(k).max()
        # the consistent momentum is the same projection: p = g P(g^-1 p_raw)
        p_raw = rng.standard_normal((n, 3))
        mu = np.linalg.solve(S, A @ (gi * p_raw.ravel()))
        p_ref = p_raw - (A.T @ mu).reshape(n, 3)
        p = ch.project_consistent(rp, p_raw).p
        assert np.abs(p - p_ref).max() <= 1e-12 * np.abs(p_ref).max()
    # and so is the RATTLE hidden-constraint step
    new, _ = ch.rattle_step(circle_state(65), 1e-2)
    assert ch.hidden_residual(new) <= 1e-11


def step_with(newton, state, **kwargs):
    """One RATTLE step with newton as the M3 Newton solve."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ch, "_m3_newton", newton)
        return ch.rattle_step(state, 1e-2, **kwargs)


def test_m3_rattle_step_matches_dense():
    # the banded, bordered Newton step against the dense reduced system.
    # The closedness multipliers vanish on the circle by symmetry, so they
    # are compared through the force DH(q0)^T lambda they exert.
    rng = np.random.default_rng(19)
    for n in (64, 65, 400):
        st = circle_state(n)
        rp = ch.project_to_manifold(rt.r_forward("M3", wavy_curve(n, seed=2)))
        wavy = ch.project_consistent(rp, 0.3 * rng.standard_normal((n, 3)))
        for state in (st, wavy):
            new, lam = ch.rattle_step(state, 1e-2)
            ref, lam_ref = step_with(dense_m3_newton, state)
            jac = m3_jacobian_rows(state.q)
            for a, b in ((new.q, ref.q), (new.p, ref.p), (lam[:n], lam_ref[:n]),
                         (jac.T @ lam, jac.T @ lam_ref)):
                assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
        # the same Newton matrix: equal residuals after one iteration
        after_one = []
        for newton in (ch._m3_newton, dense_m3_newton):
            with pytest.raises(NewtonDivergence) as exc:
                step_with(newton, st, max_iter=2)
            after_one.append(exc.value.residual_history[1])
        assert after_one[0] == pytest.approx(after_one[1], rel=1e-8)


def test_m3_newton_matrix_is_exact():
    # quadratic decay of the Newton residuals when the reduced matrix is
    # factored at every iterate: it is the exact Jacobian of (f1, f2, f3),
    # not an approximation of it.  The simplified iteration factors it at
    # the first iterate, so its first step is that exact Newton step
    rng = np.random.default_rng(23)
    for n in (64, 65, 400):
        rp = ch.project_to_manifold(rt.r_forward("M3", wavy_curve(n, seed=2)))
        wavy = ch.project_consistent(rp, 0.3 * rng.standard_normal((n, 3)))
        for state in (circle_state(n), wavy):
            with pytest.raises(NewtonDivergence) as exc:
                exact_newton_step(state, 1e-2, tol=0.0, max_iter=4)
            r0, r1, r2 = exc.value.residual_history[:3]
            assert r1 <= 10 * r0 ** 2
            assert r2 <= max(10 * r1 ** 2, 1e-13)
            with pytest.raises(NewtonDivergence) as exc:
                ch.rattle_step(state, 1e-2, tol=0.0, max_iter=4)
            assert exc.value.residual_history[:2] == pytest.approx([r0, r1], rel=1e-6)


def test_simplified_newton_matches_exact_newton():
    # the simplified iteration converges to the exact Newton iteration's
    # states; at dt = 1e-2 every step keeps its first factorization, and a
    # step at a large dt, whose residual stops falling tenfold, factors the
    # matrix again at the current iterate and still converges
    rng = np.random.default_rng(31)
    rp = ch.project_to_manifold(rt.r_forward("M3", wavy_curve(64, seed=2)))
    wavy = ch.project_consistent(rp, 0.3 * rng.standard_normal((64, 3)))
    for state, dt, steps, factorizations in ((circle_state(64), 1e-2, 6, 1),
                                             (wavy, 1e-2, 6, 1),
                                             (circle_state(64, velocity="lobe"), 0.2, 1, 2)):
        sim = ch.simulate(state, steps * dt, dt)
        assert np.all(sim.factorizations == factorizations)
        assert np.all(sim.newton_residual < 1e-12)
        ref, lam = state, None
        for j in range(steps):
            ref, lam = exact_newton_step(ref, dt, lam_guess=lam)
            for a, b in ((sim.qs[j + 1], ref.q), (sim.ps[j + 1], ref.p)):
                assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def test_m3_simulate_makes_no_dense_solve(monkeypatch):
    # only the (2b + k) capacitance matrices of the bordered cyclic
    # factorizations and the 2 x 2 closedness systems reach a dense solve
    # or inverse; nothing of size O(N), in simulate or in the tangent pass
    # that carries 6 columns through the same steps
    st = circle_state(32)
    sizes = []
    for name in ("solve", "inv"):
        def recorded(a, *args, dense=getattr(np.linalg, name)):
            sizes.append(np.shape(a)[-1])
            return dense(a, *args)
        monkeypatch.setattr(np.linalg, name, recorded)
    res = ch.simulate(st, 0.05, 1e-2)
    assert sizes and max(sizes) <= 8
    assert res.constraint_norm.max() < 1e-9
    assert res.hidden_norm.max() < 1e-9
    shot = ch.simulate(st, 0.05, 1e-2, _shooting=rt._M3Point(st.q))
    sizes.clear()
    dq = ch._position_tangent(shot, 1e-2, np.random.default_rng(3).standard_normal((32, 3, 6)))
    assert sizes and max(sizes) <= 8
    assert dq.shape == (32, 3, 6) and np.all(np.isfinite(dq))


def test_rattle_tangent_matches_central_differences():
    # the tangent-linear step is the derivative of the computed step: its
    # columns match central differences of rattle_step (q0, p0) -> (q1, p1),
    # and it linearizes simulate's own step, bit for bit
    rng = np.random.default_rng(29)
    eps = 1e-6
    for n in (64, 65):
        rp = ch.project_to_manifold(rt.r_forward("M3", wavy_curve(n, seed=2)))
        wavy = ch.project_consistent(rp, 0.3 * rng.standard_normal((n, 3)))
        for state in (circle_state(n), wavy):
            dq0, dp0 = rng.standard_normal((2, n, 3, 3))
            sim = ch.simulate(state, 1e-2, 1e-2, _shooting=rt._M3Point(state.q))
            dq1, dp1 = ch._rattle_tangent(sim, 0, 1e-2, dq0, dp0)[:2]
            ref, lam_ref = ch.rattle_step(state, 1e-2)
            assert np.array_equal(sim.qs[1], ref.q) and np.array_equal(sim._lam[0], lam_ref)
            assert np.array_equal(sim.ps[1], ref.p)
            pt1, ph = rt._M3Point(sim.qs[1]), sim._ph[0]
            assert np.array_equal(sim._mu[0], ch._tangent_momentum(
                pt1, ph - 0.5 * 1e-2 * ch._grad_q(pt1, ph))[1])
            for j in range(3):
                moved = [ch.rattle_step(ch.HamiltonianState(
                    "M3", state.q + s * dq0[..., j], state.p + s * dp0[..., j],
                    0.0, state.winding), 1e-2)[0] for s in (eps, -eps)]
                for tangent, a, b in ((dq1, moved[0].q, moved[1].q),
                                      (dp1, moved[0].p, moved[1].p)):
                    fd = (a - b) / (2 * eps)
                    assert np.linalg.norm(tangent[..., j] - fd) <= 1e-6 * np.linalg.norm(fd)


def _snapshots(times):
    c = circle(32)
    return type("Path", (), {"curves": [c] * len(times), "times": times})


def _m4_point():
    return rt.r_forward("M4", wavy_curve(48, seed=3))


@pytest.mark.parametrize("make, message", [
    (lambda: cc.DiscreteCurve(np.zeros((16, 3)), True), "(N, 2)"),
    (lambda: cc.DiscreteCurve(np.zeros((5, 2)), True), "8 samples"),
    (lambda: cc.DiscreteCurve(np.full((16, 2), np.nan), True), "finite"),
    (lambda: rt.RPoint("M3", np.ones((16, 2)), True), "(N, 3)"),
    (lambda: ch.HamiltonianState("M3", np.ones((16, 3)), np.ones((16, 2))), "(N, 3)"),
    (lambda: ch.HamiltonianState("M4", np.ones((16, 4)), np.ones((16, 4))), "M4"),
    (lambda: ch.project_to_manifold(_m4_point()), "M4"),
    (lambda: ch.project_consistent(_m4_point(), np.ones((48, 4))), "M4"),
    (lambda: rt.project_image(_m4_point(), np.ones((48, 4))), "M4"),
    (lambda: ms.geodesic_residual("M3", _snapshots([0.0, 1.0])), "3 snapshots"),
    (lambda: ms.geodesic_residual("M3", _snapshots([0.0, 1.0, 3.0])), "uniform"),
], ids=["curve-shape", "curve-size", "curve-nan", "rpoint-shape", "state-shape",
        "state-m4", "manifold-m4", "consistent-m4", "project-image-m4",
        "residual-snapshots", "residual-uniform"])
def test_bad_input_is_named_error(make, message):
    # BadInput is a CurveflowError and, for older callers, a ValueError
    with pytest.raises(BadInput) as exc:
        make()
    assert isinstance(exc.value, CurveflowError) and isinstance(exc.value, ValueError)
    assert message in str(exc.value)


def test_singular_reduced_system_reports_history(monkeypatch):
    # a zero band block makes the reduced Newton system singular
    st = circle_state(32)
    factor = ch.CyclicFactor
    monkeypatch.setattr(ch, "CyclicFactor", lambda bands, *args: factor(0.0 * bands, *args))
    with pytest.raises(NewtonDivergence) as exc:
        ch.rattle_step(st, 1e-2)
    assert len(exc.value.residual_history) == 1
    assert isinstance(exc.value.__cause__, SingularSystem)


def test_project_to_manifold():
    c = wavy_curve(80, seed=4)
    raw = rt.r_forward("M3", c)
    onm = ch.project_to_manifold(raw)
    assert np.abs(rt.constraint_rows("M3", onm.q, 1)).max() < 1e-13
    # the move is discretization-small
    assert np.abs(onm.q - raw.q).max() < 10 * raw.theta_step ** 2 * 10


def test_consistency_projections_are_second_order():
    # the trapezoid derivative rows are second-order consistent, so raw
    # transforms and raw momenta are moved by O(dtheta^2)
    moves = []
    for n in (128, 256):
        raw = rt.r_forward("M3", wavy_curve(n, seed=4))
        moves.append(np.abs(ch.project_to_manifold(raw).q - raw.q).max())
    assert moves[0] / moves[1] >= 3.5
    shifts = []
    for n in (100, 200):
        th = (2 * np.pi / n) * np.arange(n)
        c = circle(n)
        q0 = ch.project_to_manifold(rt.r_forward("M3", c))
        qdot = rt.dr("M3", c, np.stack([np.zeros(n), np.sin(th)], 1))
        st = ch.project_consistent(q0, pg.g_apply("M3", q0.q, qdot) / q0.theta_step)
        shifts.append(np.abs(pg.g_inv("M3", st.q, st.p) * st.theta_step - qdot).max())
    assert shifts[0] / shifts[1] >= 3.5
    # odd grids have no alternating null mode in the cyclic average
    onm = ch.project_to_manifold(rt.r_forward("M3", wavy_curve(81, seed=4)))
    assert np.abs(rt.constraint_rows("M3", onm.q, 1)).max() < 1e-13


def test_project_consistent():
    st = circle_state(48)
    assert ch.hidden_residual(st) < 1e-11
    # consistent momentum is a fixed point
    again = ch.project_consistent(st.rpoint(), st.p)
    assert np.abs(again.p - st.p).max() < 1e-12
    # pure constraint-normal momentum projects to zero
    rng = np.random.default_rng(9)
    mu = rng.standard_normal(50)
    p_raw = (m3_jacobian_rows(st.q).T @ mu).reshape(st.q.shape)
    out = ch.project_consistent(st.rpoint(), p_raw)
    assert np.abs(out.p).max() < 1e-9 * np.abs(p_raw).max()


def test_zero_momentum_is_equilibrium():
    st = circle_state(48, amp=0.0)
    assert np.abs(st.p).max() < 1e-14
    new, lam = ch.rattle_step(st, 1e-2)
    assert np.abs(new.q - st.q).max() < 1e-12
    assert np.abs(new.p).max() < 1e-12
    assert np.abs(lam).max() < 1e-10


def test_rattle_preserves_constraints_and_reverses():
    st = circle_state(64)
    res = ch.simulate(st, 0.5, 5e-3)
    assert res.constraint_norm.max() < 1e-9
    assert res.hidden_norm.max() < 1e-9
    drift = np.abs(res.energy - res.energy[0]).max() / res.energy[0]
    assert drift < 1e-4
    # the recorded diagnostics reuse each step's own H(q1) and DH(q1): the
    # same numbers as computing them afresh from the stored states
    for q, p, cnorm, hnorm in zip(res.qs, res.ps, res.constraint_norm, res.hidden_norm):
        assert cnorm == np.abs(rt.constraint_rows("M3", q, st.winding)).max()
        assert hnorm == ch.hidden_residual(ch.HamiltonianState("M3", q, p, 0.0, st.winding))
    back =ch.HamiltonianState("M3", res.qs[-1], -res.ps[-1], 0.0, st.winding)
    res2 = ch.simulate(back, 0.5, 5e-3)
    assert np.abs(res2.qs[-1] - st.q).max() < 1e-6
    assert np.abs(res2.ps[-1] + st.p).max() < 1e-6


def test_rattle_second_order_self_convergence():
    for velocity in ("sin", "lobe"):
        st = circle_state(48, velocity=velocity)

        def endpoint(steps):
            return ch.simulate(st, 0.4, 0.4 / steps).qs[-1]
        ref = endpoint(1024)
        e1 = np.abs(endpoint(64) - ref).max()
        e2 = np.abs(endpoint(128) - ref).max()
        order = np.log2(e1 / e2)
        assert 1.8 <= order <= 2.2


def test_simulate_zero_velocity_constant():
    st = circle_state(48, amp=0.0)
    res = ch.simulate(st, 0.2, 1e-2)
    assert np.abs(res.qs - res.qs[0]).max() < 1e-11


def test_step_left_domain():
    st = circle_state(48)
    # drive q1 hard toward zero
    p = st.p.copy()
    p[:, 0] = -2000.0
    bad = ch.HamiltonianState("M3", st.q, p, 0.0, st.winding)
    with pytest.raises(StepLeftDomain):
        ch.simulate(bad, 1.0, 5e-2)


def test_step_left_domain_partial_keeps_step_arrays():
    # the partial result carries each completed step's ph, lambda_1, mu
    # and Newton record, one per step between its times; a shooting
    # simulation's partial also its points (one per snapshot) and Newton
    # factor slots (one per step), with the diagnostics it otherwise defers
    st = circle_state(48)
    bad = ch.HamiltonianState("M3", st.q, st.p - [160.0, 0.0, 0.0], 0.0, st.winding)
    with pytest.raises(StepLeftDomain) as exc:
        ch.simulate(bad, 1.0, 5e-2)
    part = exc.value.partial
    steps = len(part.times) - 1
    assert steps >= 2
    assert part._ph.shape == (steps, 48, 3)
    assert part._lam.shape == part._mu.shape == (steps, 50)
    assert part.newton_iters.shape == part.newton_residual.shape == (steps,)
    assert part.factorizations.shape == (steps,)
    assert part._points is None and part._newton is None
    full = ch.simulate(bad, steps * 5e-2, 5e-2)
    for name in ("_ph", "_lam", "_mu", "newton_iters", "newton_residual", "factorizations"):
        assert np.array_equal(getattr(part, name), getattr(full, name))
    assert np.all(part.newton_iters >= 1) and np.all(part.newton_residual < 1e-12)
    assert np.all(part.factorizations >= 1)
    with pytest.raises(StepLeftDomain) as exc:
        ch.simulate(bad, 1.0, 5e-2, _shooting=rt._M3Point(bad.q))
    shot = exc.value.partial
    assert len(shot._points) == steps + 1 and shot._newton == [None] * steps
    assert all(np.array_equal(pt.q, q) for pt, q in zip(shot._points, shot.qs))
    for name in ("qs", "ps", "energy", "constraint_norm", "hidden_norm", "_ph", "_lam", "_mu",
                 "newton_iters", "newton_residual", "factorizations"):
        assert np.array_equal(getattr(shot, name), getattr(part, name))


def test_newton_divergence_reports_history():
    st = circle_state(48)
    with pytest.raises(NewtonDivergence) as exc:
        ch.rattle_step(st, 1e-3, max_iter=1)
    assert len(exc.value.residual_history) == 1


@pytest.mark.parametrize("error", [SingularSystem, np.linalg.LinAlgError])
def test_projection_failures_keep_named_errors(monkeypatch, error):
    st = circle_state(32)

    def singular(*args, **kwargs):
        raise error("singular")
    monkeypatch.setattr(rt._M3Point, "gram", property(singular))
    with pytest.raises(RankDeficiency):
        ch.project_consistent(st.rpoint(), st.p)
    with pytest.raises(NewtonDivergence) as exc:
        ch.rattle_step(st, 1e-2)
    assert exc.value.residual_history[-1] < 1e-12


def test_csv_exports(tmp_path):
    st = circle_state(32)
    res = ch.simulate(st, 0.05, 1e-2)
    tpath = tmp_path / "traj.csv"
    dpath = tmp_path / "diag.csv"
    res.write_trajectory_csv(tpath)
    res.write_diagnostics_csv(dpath)
    traj = np.loadtxt(tpath, delimiter=",", skiprows=1)
    assert traj.shape == (6 * 32, 2 + 6)
    diag = np.loadtxt(dpath, delimiter=",", skiprows=1)
    assert diag.shape == (6, 4)
    header = tpath.read_text().splitlines()[0]
    assert header == "t,k,q1,q2,q3,p1,p2,p3"


def test_long_horizon_energy_no_secular_drift():
    # symplectic signature: bounded oscillation, no secular growth
    st = circle_state(64)
    res = ch.simulate(st, 6.0, 1e-3)
    rel = np.abs(res.energy - res.energy[0]) / res.energy[0]
    assert rel.max() < 1e-3
    first, second = rel[: len(rel) // 2].max(), rel[len(rel) // 2:].max()
    assert second < 10 * max(first, 1e-12)
