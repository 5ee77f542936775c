from types import SimpleNamespace

import numpy as np
import pytest

from conftest import circle, m3_jacobian_rows, wavy_curve
from curveflow import constrained_hamiltonian as ch
from curveflow import curve_core as cc
from curveflow import geodesic_api as ga
from curveflow import metric_suite as ms
from curveflow import pointwise_geometry as pg
from curveflow import rtransform as rt
from curveflow import validation as va
from curveflow.errors import (BadInput, CurveflowError, NewtonDivergence, OffImage,
                              RankDeficiency, SingularSystem, StepLeftDomain)


def circle_state(n=64, amp=1.0, velocity="sin", curve=None):
    """A consistent M3 state on the circle, or on curve if given, with the
    velocity field "sin" or "lobe" of criterion 7."""
    th = (2 * np.pi / n) * np.arange(n)
    c = circle(n) if curve is None else curve
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
    """The reduced Newton matrix of an M3 RATTLE step with dense per-sample
    3 x 3 blocks and the dense DH of m3_jacobian_rows: A^-1 and D^-1 by
    batched solves and GW = G(q1) D^-1 C A^-1 (-dt/2) G(q0)^T, solved
    densely.  The reference for ch._m3_newton, with its signature and
    return: factor(pt1, ph) -> (GW, solve(f1, f2, f3)), GW with a solve
    method, the points pt0, pt1 read only for their q."""
    q0 = pt0.q
    n = q0.shape[0]
    half = 0.5 * dt * 2 * np.pi / n
    eye = np.eye(3)

    def ginv(q):
        return eye * pg.g_inv("M3", q, np.ones_like(q))[:, :, None]
    gi0 = ginv(q0)
    B = -0.5 * dt * m3_jacobian_rows(q0).reshape(n + 2, n, 3).transpose(1, 2, 0)

    def factor(pt1, ph):
        A = eye + half * d_ginvp_dq(q0, ph)
        C = -half * (gi0 + ginv(pt1.q))
        D = eye - half * np.transpose(d_ginvp_dq(pt1.q, ph), (0, 2, 1))
        G = m3_jacobian_rows(pt1.q)
        sol1 = np.linalg.solve(A, B)
        sol2 = np.linalg.solve(D, C @ sol1)
        gw = G @ sol2.reshape(3 * n, n + 2)

        def solve(f1, f2, f3):
            s1 = np.linalg.solve(A, f1[:, :, None])
            s2 = np.linalg.solve(D, C @ s1 - f2[:, :, None])[:, :, 0]
            dlam = np.linalg.solve(gw, -f3 - G @ s2.ravel())
            return s2 + sol2 @ dlam, s1[:, :, 0] + sol1 @ dlam, dlam
        return SimpleNamespace(solve=lambda rhs: np.linalg.solve(gw, rhs)), solve

    return factor


def explicit_update(state, pt0, lam, dt):
    """(ph, q1, the point of q1) with f1 = 0 and f2 = 0 of the RATTLE step
    from state at lambda_1 = lam: ph's columns 2-3, then its column 1 (dE/dq
    has only a q1 row, which reads ph's columns 2-3); q1's column 1 (g^-1's
    first entry is constant), then its columns 2-3 from g^-1 at q1."""
    q0, p0 = state.q, state.p
    force = 0.5 * dt * pt0.jac.apply_t(lam)
    ph = p0 + force
    ph[:, 0] = p0[:, 0] - 0.5 * dt * ch._grad_q(pt0, ph)[:, 0] + force[:, 0]
    q1 = q0.copy()
    q1[:, 0] += dt * ch._grad_p(pt0, ph)[:, 0]
    pt1 = rt._M3Point(q1.copy())
    q1[:, 1:] += 0.5 * dt * (ch._grad_p(pt0, ph) + ch._grad_p(pt1, ph))[:, 1:]
    return ph, q1, rt._M3Point(q1)


def exact_newton_step(state, dt, tol=1e-12, max_iter=50, lam_guess=None):
    """One RATTLE step by the exact Newton iteration on H(q1(lambda_1)) =
    0, GW factored again at every iterate, ending with the step's own end
    momentum: the reference for the simplified iteration of
    ch._rattle_step.  Returns (new_state, lambda_1); raises
    NewtonDivergence with the history of sup |H|."""
    pt0 = rt._M3Point(state.q)
    lam = np.zeros(state.n_samples + 2) if lam_guess is None else lam_guess
    factor = ch._m3_newton(pt0, dt)
    history = []
    for _ in range(max_iter):
        ph, q1, pt1 = explicit_update(state, pt0, lam, dt)
        f3 = rt.constraint_rows("M3", q1, state.winding)
        history.append(np.abs(f3).max())
        if history[-1] < tol:
            break
        lam = lam + factor(pt1, ph)[0].solve(-f3)
    else:
        raise NewtonDivergence("exact Newton reference did not converge", history)
    p1 = ch._tangent_momentum(pt1, ph - 0.5 * dt * ch._grad_q(pt1, ph))
    return ch.HamiltonianState("M3", q1, p1, state.t + dt, state.winding), lam


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
    # the M3 point's gradients against central differences of discrete_energy
    rng = np.random.default_rng(3)
    n = 40
    q = rng.uniform(0.5, 1.5, (n, 3))
    q[:, 1] = np.linspace(0, 2 * np.pi, n)
    p = rng.standard_normal((n, 3))
    pt = rt._M3Point(q)
    gq, gp = ch._grad_q(pt, p), ch._grad_p(pt, p)
    eps = 1e-7

    def e(qq, pp):
        return ch.discrete_energy(ch.HamiltonianState("M3", qq, pp))
    for _ in range(4):
        dq = rng.standard_normal((n, 3))
        fd = (e(q + eps * dq, p) - e(q - eps * dq, p)) / (2 * eps)
        assert abs(fd - np.sum(gq * dq)) < 1e-6 * max(1.0, abs(fd))
        fd = (e(q, p + eps * dq) - e(q, p - eps * dq)) / (2 * eps)
        assert abs(fd - np.sum(gp * dq)) < 1e-6 * max(1.0, abs(fd))


def test_point_algebra_matches_references():
    # at an on-image point, the derivatives built from the M3 point's g^-1
    # derivatives (_grad_q_tangent, _grad_p_tangent, _m3_jacobian_tangent) match
    # central differences of _grad_q, _grad_p and DH^T . lam along random
    # (dq, dp)
    rng = np.random.default_rng(37)
    n = 64
    rp = ch.project_to_manifold(rt.r_forward("M3", wavy_curve(n, seed=2)))
    pt = rp._m3
    p = rng.standard_normal((n, 3))
    dq, dp = rng.standard_normal((2, n, 3, 3))
    lam = rng.standard_normal(n + 2)
    eq = ch._grad_q_tangent(pt, p, dq, dp)
    ep = ch._grad_p_tangent(pt, p, dq) + pt.dth * pt.ginv[..., None] * dp
    dlam = rt._m3_jacobian_tangent(pt, dq, lam)
    eps = 1e-6
    for j in range(3):
        (a, pa), (b, pb) = [(rt._M3Point(rp.q + s * dq[..., j]), p + s * dp[..., j])
                            for s in (eps, -eps)]
        for tangent, f in ((eq[..., j], ch._grad_q), (ep[..., j], ch._grad_p),
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


def test_jacobian_product_ignores_memory_order():
    # DH . X is the same to the bit for C- and Fortran-ordered copies of
    # one block of columns
    rng = np.random.default_rng(8)
    q = rt.r_forward("M3", wavy_curve(64, seed=2)).q
    jac = rt.M3Jacobian(q, 2 * np.pi / 64)
    X = rng.standard_normal((64, 3, 18))
    assert np.array_equal(jac.apply(np.ascontiguousarray(X)), jac.apply(np.asfortranarray(X)))


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
    assert ch._hidden_norm(rt._M3Point(new.q), new.p) <= 1e-11


def step_with(newton, state, **kwargs):
    """One RATTLE step with newton as the M3 Newton solve."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ch, "_m3_newton", newton)
        return ch.rattle_step(state, 1e-2, **kwargs)


def test_m3_rattle_step_matches_dense():
    # the banded, bordered Newton matrix against the dense reduced system:
    # the same converged step, the same correction on every residual of the
    # iteration, and the same full solve (f1, f2, f3) that the tangent pass
    # makes at the converged point.  The closedness multipliers vanish on
    # the circle by symmetry, so multipliers are compared through the force
    # DH(q0)^T lambda they exert.  The forces of two separately iterated
    # runs are compared per correction, not at their end: each run
    # recomputes q1 from its lambda, an ulp that flips in q1 moves H by
    # ~5e-14 at N = 400, and GW^-1 carries that into the end force at a few
    # 1e-12 relative on the circle, a difference of rounding, not of GW
    rng = np.random.default_rng(19)
    for n in (64, 65, 400):
        st = circle_state(n)
        rp = ch.project_to_manifold(rt.r_forward("M3", wavy_curve(n, seed=2)))
        wavy = ch.project_consistent(rp, 0.3 * rng.standard_normal((n, 3)))
        for state in (st, wavy):
            pt0, jac = rt._M3Point(state.q), m3_jacobian_rows(state.q)
            factor, dense = ch._m3_newton(pt0, 1e-2), dense_m3_newton(pt0, 1e-2)
            pairs = []

            def checked(pt0_, dt, pairs=pairs, factor=factor, dense=dense):
                def factor_both(pt1, ph):
                    (gw, solve), gw_ref = factor(pt1, ph), dense(pt1, ph)[0]

                    def solve_both(rhs):
                        dlam = gw.solve(rhs)
                        pairs.append((jac.T @ dlam, jac.T @ gw_ref.solve(rhs)))
                        return dlam
                    return SimpleNamespace(solve=solve_both), solve
                return factor_both
            new, lam = step_with(checked, state)
            ref, lam_ref = step_with(dense_m3_newton, state)
            assert pairs
            for a, b in ((new.q, ref.q), (new.p, ref.p), (lam[:n], lam_ref[:n]), *pairs):
                assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
            pt1, ph = rt._M3Point(new.q), ch._rattle_step(state, pt0, 1e-2)[4]
            f = (rng.standard_normal((n, 3)), rng.standard_normal((n, 3)),
                 rng.standard_normal(n + 2))
            (dq, dph, dlam), (dq_ref, dph_ref, dlam_ref) = (
                make(pt1, ph)[1](*f) for make in (factor, dense))
            for a, b in ((dq, dq_ref), (dph, dph_ref), (jac.T @ dlam, jac.T @ dlam_ref)):
                assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
        # the same Newton matrix: equal residuals after one iteration
        after_one = []
        for newton in (ch._m3_newton, dense_m3_newton):
            with pytest.raises(NewtonDivergence) as exc:
                step_with(newton, st, max_iter=2)
            after_one.append(exc.value.residual_history[1])
        assert after_one[0] == pytest.approx(after_one[1], rel=1e-8)


def test_m3_newton_matrix_is_exact():
    # quadratic decay of the Newton residuals when GW is factored at every
    # iterate: it is the exact derivative of H(q1(lambda_1)), not an
    # approximation of it.  The simplified iteration factors it at the
    # first iterate, so its first step is that exact Newton step.  The wavy
    # starts take a random lambda_1 guess: from 0 their first residual is
    # already near rounding (2e-8 at N = 400)
    rng = np.random.default_rng(23)
    for n in (64, 65, 400):
        rp = ch.project_to_manifold(rt.r_forward("M3", wavy_curve(n, seed=2)))
        wavy = ch.project_consistent(rp, 0.3 * rng.standard_normal((n, 3)))
        for state, guess in ((circle_state(n), None),
                             (wavy, 10.0 * rng.standard_normal(n + 2))):
            with pytest.raises(NewtonDivergence) as exc:
                exact_newton_step(state, 1e-2, tol=0.0, max_iter=4, lam_guess=guess)
            r0, r1, r2 = exc.value.residual_history[:3]
            assert r0 > 1e-5
            assert r1 <= 10 * r0 ** 2
            assert r2 <= max(10 * r1 ** 2, 1e-13)
            with pytest.raises(NewtonDivergence) as exc:
                ch.rattle_step(state, 1e-2, tol=0.0, max_iter=4, lam_guess=guess)
            assert exc.value.residual_history[:2] == pytest.approx([r0, r1], rel=1e-6)


def test_simplified_newton_matches_exact_newton():
    # the simplified iteration converges to the exact Newton iteration's
    # states; at dt = 1e-2 every step that iterates keeps its first
    # factorization (a step whose extrapolated lambda_1 already meets tol
    # makes none), and a step at a large dt, whose residual stops falling
    # tenfold, factors GW again at the current iterate and still converges
    rng = np.random.default_rng(31)
    rp = ch.project_to_manifold(rt.r_forward("M3", wavy_curve(64, seed=2)))
    wavy = ch.project_consistent(rp, 0.3 * rng.standard_normal((64, 3)))
    for state, dt, steps, factorizations in ((circle_state(64), 1e-2, 6, 1),
                                             (wavy, 1e-2, 6, 1),
                                             (circle_state(64, velocity="lobe"), 0.2, 1, 2)):
        sim = ch.simulate(state, steps * dt, dt)
        iterated = sim.newton_iters > 0
        assert np.all(sim.factorizations[iterated] == factorizations)
        assert np.all(sim.factorizations[~iterated] == 0)
        assert np.all(sim.newton_residual < 1e-12)
        ref, lam = state, None
        for j in range(steps):
            ref, lam = exact_newton_step(ref, dt, lam_guess=lam)
            for a, b in ((sim.qs[j + 1], ref.q), (sim.ps[j + 1], ref.p)):
                assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def test_rattle_call_budget():
    # the RATTLE step's call budget at N = 400, dt = 1e-2 on the circle and
    # a wavy curve: the warm start (_warm_start) leaves every step from the
    # fourth on one Newton iteration and one factorization, and every step
    # from the third on at most two CyclicFactor solves (GW, and after the
    # last step the stacked hidden-constraint Gram)
    wavy = wavy_curve(400, seed=2, amp=0.12)
    for state in (circle_state(400), circle_state(400, curve=wavy)):
        counts, step = [], ch._rattle_step
        solve = rt.CyclicFactor.solve

        def counted_solve(self, rhs):
            counts[-1] += 1
            return solve(self, rhs)

        def counted_step(*args, **kwargs):
            counts.append(0)
            return step(*args, **kwargs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rt.CyclicFactor, "solve", counted_solve)
            mp.setattr(ch, "_rattle_step", counted_step)
            sim = ch.simulate(state, 0.1, 1e-2)
        assert len(counts) == 10
        assert np.all(sim.newton_iters[3:] == 1)
        assert np.all(sim.factorizations == 1)
        assert max(counts[2:]) <= 2


def test_full_residual_check_is_live(monkeypatch):
    # the step solves f1 = 0 and f2 = 0 explicitly and iterates on H alone;
    # f1 and f2 are then evaluated once, from their own formulas, and the
    # whole residual must meet tol.  A mismatch of 1e-8 planted in dE/dp,
    # which only f2 reads, is caught there and reported with the history
    st = circle_state(64)
    ch.rattle_step(st, 1e-2)
    grad_p = ch._grad_p
    monkeypatch.setattr(ch, "_grad_p", lambda pt, p: (1.0 + 1e-8) * grad_p(pt, p))
    with pytest.raises(NewtonDivergence) as exc:
        ch.rattle_step(st, 1e-2)
    assert "in (f1, f2)" in str(exc.value)
    assert len(exc.value.residual_history) >= 2 and exc.value.residual_history[-1] > 1e-12


def test_simulate_energy_is_discrete_energy():
    # simulate reads each snapshot's energy from the step's point, with the
    # same result as discrete_energy of the snapshot, bit for bit
    st = circle_state(64, velocity="lobe")
    sim = ch.simulate(st, 0.05, 1e-2)
    assert list(sim.energy) == [ch.discrete_energy(ch.HamiltonianState("M3", q, p))
                                for q, p in zip(sim.qs, sim.ps)]


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


def shake_step(state, dt, lam_guess=None):
    """The SHAKE step of ch._rattle_step from state: (end state, lambda_1,
    ph), the end momentum unprojected."""
    q1, p1, _, lam, ph = ch._rattle_step(state, rt._M3Point(state.q), dt, lam_guess=lam_guess)[:5]
    return ch.HamiltonianState("M3", q1, p1, state.t + dt, state.winding), lam, ph


def test_shooting_simulation_leaves_diagnostics_nan():
    # a shooting simulation takes _rattle_step's SHAKE steps with simulate's
    # warm start, bit for bit, and
    # leaves its energy and hidden-constraint residual NaN, not
    # uninitialized memory, until _diagnosed projects the momenta after the
    # start in one stacked pass, bit for bit _tangent_momentum at each point
    # alone, and fills them in from the projected momenta
    st = circle_state(32)
    shot = ch.simulate(st, 0.05, 1e-2, _shooting=rt._M3Point(st.q))
    assert np.all(np.isnan(shot.energy)) and np.all(np.isnan(shot.hidden_norm))
    cur, lams = st, []
    for j in range(5):
        guess = ch._warm_start(lams, j)
        cur, lam, ph = shake_step(cur, 1e-2, guess)
        lams.append(lam)
        assert np.array_equal(shot.qs[j + 1], cur.q) and np.array_equal(shot.ps[j + 1], cur.p)
        assert np.array_equal(shot._lam[j], lam) and np.array_equal(shot._ph[j], ph)
    shake = shot.ps.copy()
    shot._diagnosed()
    assert np.array_equal(shot.ps[0], st.p)
    for j, pt in enumerate(shot._points):
        p = ch._tangent_momentum(pt, shake[j]) if j else st.p
        assert np.array_equal(shot.ps[j], p)
        assert (shot.energy[j], shot.hidden_norm[j]) == (ch._energy(pt, p),
                                                         ch._hidden_norm(pt, p))
    assert shot.hidden_norm.max() < 1e-9


def test_shooting_makes_no_hidden_constraint_projection(monkeypatch):
    # a shooting simulation factors no Gram system and its tangent pass
    # makes no Gram solve: only _diagnosed projects, one stacked Gram
    # system over the kept points after the start, with one solve
    st = circle_state(32)
    start = rt._M3Point(st.q)
    grams, solves, gram = [], [], rt._M3Point.__dict__["gram"].func

    def counted(pt):
        grams.append(pt)
        solve = gram(pt)

        def counted_solve(rhs):
            solves.append(rhs.shape)
            return solve(rhs)
        return counted_solve
    monkeypatch.setattr(rt._M3Point, "gram", property(counted))
    shot = ch.simulate(st, 0.2, 1e-2, _shooting=start)
    assert grams == []
    dq = ch._position_tangent(shot, 1e-2, np.random.default_rng(3).standard_normal((32, 3, 6)))
    assert grams == [] and solves == []
    assert np.all(np.isfinite(dq))
    shot._diagnosed()
    assert len(grams) == 1 and solves == [(34, 20)]
    assert np.array_equal(grams[0].q, shot.qs[1:].transpose(1, 2, 0))


def test_simulate_projects_in_one_stacked_pass(monkeypatch):
    # plain simulate takes SHAKE steps too: over 10 steps at N = 400 it
    # factors one Newton matrix per step and, after the loop, one stacked
    # Gram system for the 10 momenta after the start; every kept point
    # meets the hidden constraint
    made = []

    def counted(kind, cls):
        class Counted(cls):
            def __init__(self, bands, *border):
                made.append((kind, np.ndim(bands)))
                super().__init__(bands, *border)
        return Counted
    wavy = wavy_curve(400, seed=2, amp=0.12)
    for state, iters in ((circle_state(400), [2, 2, 2] + [1] * 7),
                         (circle_state(400, curve=wavy), [3, 3, 2] + [1] * 7)):
        made.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rt, "CyclicFactor", counted("gram", rt.CyclicFactor))
            mp.setattr(ch, "CyclicFactor", counted("newton", ch.CyclicFactor))
            sim = ch.simulate(state, 0.1, 1e-2)
        assert made == [("newton", 2)] * 10 + [("gram", 3)]
        assert sim.newton_iters.tolist() == iters and np.all(sim.factorizations == 1)
        assert sim.hidden_norm.max() <= 1e-9 and sim.constraint_norm.max() <= 1e-9


def test_stacked_projection_keeps_its_blocks_small(monkeypatch):
    # _diagnosed cuts its stacked pass into blocks whose largest arrays, K n
    # rows of 4 floats, stay below _STACK_BYTES: with room for 3 points, 20
    # points after the start take 7 factorizations, and every momentum,
    # energy and hidden residual has the bits of the one-block pass
    st = circle_state(64, velocity="lobe")
    whole = ch.simulate(st, 0.2, 1e-2, _shooting=rt._M3Point(st.q))._diagnosed()
    stacks = []

    class Counted(rt.CyclicFactor):
        def __init__(self, bands, *border):
            stacks.append(np.shape(bands)[0])
            super().__init__(bands, *border)
    monkeypatch.setattr(rt, "CyclicFactor", Counted)
    monkeypatch.setattr(ch, "_STACK_BYTES", 4 * 8 * 64 * 3 + 1)
    blocks = ch.simulate(st, 0.2, 1e-2, _shooting=rt._M3Point(st.q))._diagnosed()
    assert stacks == [3] * 6 + [2]
    for name in ("ps", "energy", "hidden_norm"):
        assert np.array_equal(getattr(blocks, name), getattr(whole, name))


def test_warm_start_extrapolates_quadratically():
    # from step 4 on, the multipliers of steps 1-3, which all carry a SHAKE
    # jump, extrapolate quadratically: on a wavy curve of amplitude 0.2 at
    # N = 400, 30 steps take 36 Newton solves, every step from the 5th on
    # one (the linear rule takes 62: 2 at each step from the 4th on)
    wavy = wavy_curve(400, seed=2, amp=0.2)
    sim = ch.simulate(circle_state(400, curve=wavy), 0.3, 1e-2)
    assert sim.newton_iters.sum() == 36 and np.all(sim.newton_iters[4:] == 1)
    assert sim.hidden_norm.max() <= 1e-9


@pytest.mark.parametrize("n", [64, 400])
def test_shooting_run_is_the_plain_run(n):
    # from one consistent state, a shooting simulation takes the plain
    # run's steps bit for bit, with the same warm start, Newton solves and
    # factorizations, and after _diagnosed has the plain run's momenta and
    # diagnostics bit for bit too
    curve = wavy_curve(n, seed=2, amp=0.12)
    for state in (circle_state(n), circle_state(n, curve=curve)):
        plain = ch.simulate(state, 0.2, 1e-2)
        shot = ch.simulate(state, 0.2, 1e-2, _shooting=rt._M3Point(state.q))
        for name in ("qs", "_lam", "_ph", "newton_iters", "factorizations",
                     "constraint_norm"):
            assert np.array_equal(getattr(shot, name), getattr(plain, name)), name
        shot._diagnosed()
        for name in ("ps", "energy", "hidden_norm"):
            assert np.array_equal(getattr(shot, name), getattr(plain, name)), name


@pytest.mark.parametrize("n", [64, 65])
def test_shooting_positions_are_rattle_positions(n):
    # the hidden-constraint projection moves only the multiplier the next
    # step solves for: over 20 steps on the circle and a wavy curve, a
    # shooting simulation's SHAKE positions are simulate's, bit for bit,
    # and its momenta, projected by _diagnosed, meet the hidden constraint
    rng = np.random.default_rng(43)
    rp = ch.project_to_manifold(rt.r_forward("M3", wavy_curve(n, seed=2)))
    wavy = ch.project_consistent(rp, 0.3 * rng.standard_normal((n, 3)))
    for state in (circle_state(n), wavy):
        plain = ch.simulate(state, 0.2, 1e-2)
        shot = ch.simulate(state, 0.2, 1e-2, _shooting=rt._M3Point(state.q))._diagnosed()
        assert np.array_equal(shot.qs, plain.qs)
        assert shot.hidden_norm.max() <= 1e-9


def test_rattle_tangent_matches_central_differences():
    # the tangent-linear step is the derivative of the computed SHAKE step:
    # its columns match central differences of the step map (q0, p0) ->
    # (q1, p~1), and it linearizes simulate's own shooting step, bit for bit
    rng = np.random.default_rng(29)
    eps = 1e-6
    for n in (64, 65):
        rp = ch.project_to_manifold(rt.r_forward("M3", wavy_curve(n, seed=2)))
        wavy = ch.project_consistent(rp, 0.3 * rng.standard_normal((n, 3)))
        for state in (circle_state(n), wavy):
            dq0, dp0 = rng.standard_normal((2, n, 3, 3))
            sim = ch.simulate(state, 1e-2, 1e-2, _shooting=rt._M3Point(state.q))
            dq1, dp1 = ch._rattle_tangent(sim, 0, 1e-2, dq0, dp0)
            ref, lam_ref, ph_ref = shake_step(state, 1e-2)
            assert np.array_equal(sim.qs[1], ref.q) and np.array_equal(sim.ps[1], ref.p)
            assert np.array_equal(sim._lam[0], lam_ref) and np.array_equal(sim._ph[0], ph_ref)
            for j in range(3):
                moved = [shake_step(ch.HamiltonianState(
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


def _m3_point():
    return circle_state(16).rpoint()


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
    (lambda: rt.RPoint("M3", np.full((16, 3), np.nan), True, 1), "finite"),
    (lambda: pg.bvp2((1.0, np.nan), (1.2, 0.3)), "finite"),
    (lambda: pg.bvp2((1.0, 0.2), (np.inf, 0.3)), "finite"),
    (lambda: pg.dist2_lower_bound((1.0, np.nan), (1.2, 0.3)), "finite"),
    (lambda: rt.project_image(_m3_point(), np.ones((16, 2))), "h must be an array of shape"),
    (lambda: rt.project_image(_m3_point(), np.ones((15, 3))), "h must be an array of shape"),
    (lambda: rt.project_image(_m3_point(), np.ones((15, 3, 2))), "h must be an array of shape"),
    (lambda: rt.project_image(_m3_point(), np.full((16, 3), np.nan)), "h must be finite"),
    (lambda: rt.project_image(rt.r_forward("M2", circle(16)), np.full((16, 2), np.nan)),
     "h must be finite"),
    (lambda: ch.project_consistent(_m3_point(), np.ones((16, 2))), "p_raw must be an array"),
    (lambda: ch.project_consistent(_m3_point(), np.full((16, 3), np.nan)), "p_raw must be finite"),
    (lambda: ch.HamiltonianState("M3", np.ones((16, 3)), np.full((16, 3), np.nan)),
     "p must be finite"),
    (lambda: ch.HamiltonianState("M3", np.full((16, 3), np.inf), np.ones((16, 3))),
     "q must be finite"),
    (lambda: pg.g_matrix("M3", [np.nan, 0.0, 0.0]), "q must be finite"),
    (lambda: pg.g_inv("M4", np.full((3, 4), np.nan), np.ones((3, 4))), "q must be finite"),
    (lambda: pg.trajectory2((np.nan, 0.0), (1.0, 1.0)), "p0 must be finite"),
    (lambda: pg.trajectory2((1.0, 0.0), (np.nan, 1.0)), "v0 must be finite"),
    (lambda: pg.trajectory2((1.0, 0.0), (1.0, 1.0)).y_of_x(np.nan), "x must be finite"),
    (lambda: pg.spray2((1.0, np.nan), (1.0, 1.0)), "p must be finite"),
    (lambda: pg.integrate_spray2((1.0, 0.0), (np.nan, 1.0), 1.0, 10), "v0 must be finite"),
], ids=["curve-shape", "curve-size", "curve-nan", "rpoint-shape", "state-shape",
        "state-m4", "manifold-m4", "consistent-m4", "project-image-m4",
        "residual-snapshots", "residual-uniform", "rpoint-nan", "bvp2-nan", "bvp2-inf",
        "lower-bound-nan", "project-image-2d", "project-image-rows", "project-image-fields",
        "project-image-nan", "project-image-m2-nan", "consistent-shape", "consistent-nan",
        "state-p-nan", "state-q-inf", "g-matrix-nan", "g-inv-nan", "trajectory-p0-nan",
        "trajectory-v0-nan", "y-of-x-nan", "spray-nan", "integrate-spray-nan"])
def test_bad_input_is_named_error(make, message):
    # BadInput is a CurveflowError and, for older callers, a ValueError;
    # points and fields that are not finite are refused before any numerics
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


def raw_transforms():
    """Raw M3 transforms of the circle, the (1.15, 0.87) ellipse and a wavy
    curve on even and odd grids."""
    for n in (64, 65, 128):
        th = (2 * np.pi / n) * np.arange(n)
        ellipse = cc.DiscreteCurve(np.stack([1.15 * np.cos(th), 0.87 * np.sin(th)], 1), True)
        for c in (circle(n), ellipse, wavy_curve(n, seed=4)):
            yield rt.r_forward("M3", c)


def test_projection_keeps_the_curve():
    # q3 absorbs the derivative rows, and (q1, q2) move only along the
    # closedness gradients, whose rows a raw transform meets to rounding:
    # the curve that r_inverse reads off q1 and q2 stays put.  An
    # L2(g)-nearest projection would move q1, and the N = 32 circle by 1e-2.
    for raw in raw_transforms():
        onm = ch.project_to_manifold(raw)
        assert np.abs(rt.constraint_rows("M3", onm.q, 1)).max() < 1e-13
        assert np.abs(onm.q[:, 0] - raw.q[:, 0]).max() <= 1e-14
        assert np.abs(rt.r_inverse(onm).points - rt.r_inverse(raw).points).max() <= 1e-7


def test_projection_is_one_banded_solve_per_newton_step(monkeypatch):
    # a raw transform takes one Newton step, the synthetic off-manifold
    # point a few; each is one CyclicFactor, whose capacitance matrix
    # (2 wrap corners and at most 3 border rows) is the only dense inverse
    factor, made, sizes = ch.CyclicFactor, [], []

    def counted(*args):
        made.append(1)
        return factor(*args)
    monkeypatch.setattr(ch, "CyclicFactor", counted)
    for name in ("solve", "inv"):
        def recorded(a, *args, dense=getattr(np.linalg, name)):
            sizes.append(np.shape(a)[-1])
            return dense(a, *args)
        monkeypatch.setattr(np.linalg, name, recorded)
    for n in (64, 65):
        made.clear()
        ch.project_to_manifold(rt.r_forward("M3", wavy_curve(n, seed=4)))
        assert len(made) == 1
    for n in (96, 97):
        made.clear()
        onm = va._on_image_point(n)
        assert np.abs(rt.constraint_rows("M3", onm.q, 1)).max() < 1e-13
        assert 2 <= len(made) <= 4
    assert sizes and max(sizes) <= 5


def test_singular_projection_system(monkeypatch):
    factor = ch.CyclicFactor
    monkeypatch.setattr(ch, "CyclicFactor", lambda bands, *args: factor(0.0 * bands, *args))
    with pytest.raises(NewtonDivergence) as exc:
        ch.project_to_manifold(rt.r_forward("M3", wavy_curve(64, seed=4)))
    assert len(exc.value.residual_history) == 1
    assert isinstance(exc.value.__cause__, SingularSystem)


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
    assert ch._hidden_norm(rt._M3Point(st.q), st.p) < 1e-11
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
        assert hnorm == ch._hidden_norm(rt._M3Point(q), p)
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


def test_simulate_start_off_the_constraints():
    # a projected circle has winding 1; the same q with the default winding
    # 0 misses the 2 pi seam jump of alpha, a derivative row of 2 pi/dtheta
    # = N, which simulate names before any step
    st = circle_state(48)
    with pytest.raises(OffImage, match=r"max \|H\(q0\)\| = 4\.800e\+01 > 1e-9 \(winding 0\)"):
        ch.simulate(ch.HamiltonianState("M3", st.q, st.p), 1.0, 5e-2)
    assert ch.simulate(st, 5e-2, 5e-2).constraint_norm[0] <= 1e-9


def test_step_left_domain_partial_keeps_step_arrays():
    # the partial result carries each completed step's ph, lambda_1 and
    # Newton record, one per step between its times; a shooting
    # simulation's partial also its points (one per snapshot) and Newton
    # factor slots (one per step), with the projection and diagnostics it
    # otherwise defers: its arrays are those of the shooting simulation of
    # its steps, diagnosed, and its positions the plain partial's to the
    # Newton tolerance, on this path to the domain's edge
    st = circle_state(48)
    bad = ch.HamiltonianState("M3", st.q, st.p - [160.0, 0.0, 0.0], 0.0, st.winding)
    with pytest.raises(StepLeftDomain) as exc:
        ch.simulate(bad, 1.0, 5e-2)
    part = exc.value.partial
    steps = len(part.times) - 1
    assert steps >= 2
    assert part._ph.shape == (steps, 48, 3)
    assert part._lam.shape == (steps, 50)
    assert part.newton_iters.shape == part.newton_residual.shape == (steps,)
    assert part.factorizations.shape == (steps,)
    assert part._points is None and part._newton is None
    full = ch.simulate(bad, steps * 5e-2, 5e-2)
    for name in ("_ph", "_lam", "newton_iters", "newton_residual", "factorizations"):
        assert np.array_equal(getattr(part, name), getattr(full, name))
    assert np.all(part.newton_iters >= 1) and np.all(part.newton_residual < 1e-12)
    assert np.all(part.factorizations >= 1)
    with pytest.raises(StepLeftDomain) as exc:
        ch.simulate(bad, 1.0, 5e-2, _shooting=rt._M3Point(bad.q))
    shot = exc.value.partial
    assert len(shot._points) == steps + 1 and shot._newton == [None] * steps
    assert all(np.array_equal(pt.q, q) for pt, q in zip(shot._points, shot.qs))
    whole = ch.simulate(bad, steps * 5e-2, 5e-2, _shooting=rt._M3Point(bad.q))._diagnosed()
    for name in ("qs", "ps", "energy", "constraint_norm", "hidden_norm", "_ph", "_lam",
                 "newton_iters", "newton_residual", "factorizations"):
        assert np.array_equal(getattr(shot, name), getattr(whole, name))
    assert np.abs(shot.qs - part.qs).max() <= 1e-11 * np.abs(part.qs).max()


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
    # the trajectory CSV of a simulation, and the diagnostics CSV that the
    # export of a path built from it writes, a row per snapshot
    st = circle_state(32)
    res = ch.simulate(st, 0.05, 1e-2)
    tpath = tmp_path / "traj.csv"
    res.write_trajectory_csv(tpath)
    traj = np.loadtxt(tpath, delimiter=",", skiprows=1)
    assert traj.shape == (6 * 32, 2 + 6)
    header = tpath.read_text().splitlines()[0]
    assert header == "t,k,q1,q2,q3,p1,p2,p3"
    ga._path_from_simulation(res, 5, 6).export(tmp_path / "path")
    dpath = tmp_path / "path" / "diagnostics.csv"
    columns = dpath.read_text().splitlines()[0].split(",")
    diag = np.loadtxt(dpath, delimiter=",", skiprows=1)
    assert diag.shape == (6, len(columns))
    for name, values in (("t", res.times), ("energy", res.energy),
                         ("constraint_norm", res.constraint_norm),
                         ("hidden_norm", res.hidden_norm)):
        assert np.array_equal(diag[:, columns.index(name)], values)


def test_long_horizon_energy_no_secular_drift():
    # symplectic signature: bounded oscillation, no secular growth
    st = circle_state(64)
    res = ch.simulate(st, 6.0, 1e-3)
    rel = np.abs(res.energy - res.energy[0]) / res.energy[0]
    assert rel.max() < 1e-3
    first, second = rel[: len(rel) // 2].max(), rel[len(rel) // 2:].max()
    assert second < 10 * max(first, 1e-12)
