import json
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import circle, convex_arc, rotation_representative, smooth_field, wavy_curve
from curveflow import constrained_hamiltonian as ch
from curveflow import curve_core as cc
from curveflow import geodesic_api as ga
from curveflow import metric_suite as ms
from curveflow import pointwise_geometry as pg
from curveflow import rtransform as rt
from curveflow.errors import (BadInput, CurveflowError, DomainExit, NonPositive,
                              ShootingStall, SingularVerticalOperator, StepLeftDomain)
from curveflow.validation import circle_ivp_errors


def open_circle(n, r=1.0):
    th = (2 * np.pi / (n - 1)) * np.arange(n)
    return cc.DiscreteCurve(r * np.stack([np.cos(th), np.sin(th)], 1), False)


def m1_distance_formula(c0, c1):
    """Independent evaluation of the closed-form distance integrand."""
    f0 = cc.build_frame(c0)
    f1 = cc.build_frame(c1)
    integrand = (16 * (np.sqrt(f1.speed) * f1.kappa ** 0.25
                       - np.sqrt(f0.speed) * f0.kappa ** 0.25) ** 2
                 + 4 * (np.sqrt(f1.speed) - np.sqrt(f0.speed)) ** 2)
    tau = cc.trapezoid_weights(c0.n_samples, c0.closed)
    return float(np.sqrt(np.sum(tau * integrand) * c0.theta_step))


def test_m1_identical_curves():
    c = open_circle(96)
    d = ga.distance("M1", c, c)
    assert d.value == 0.0
    path = ga.geodesic_bvp("M1", c, c, K=5)
    for snap in path.curves:
        assert np.abs(snap.points - path.curves[0].points).max() < 1e-12


def test_m1_distance_matches_theorem_integrand():
    for seeds in ((3, 4), (5, 6)):
        c0 = convex_arc(128, seed=seeds[0])
        c1 = cc.DiscreteCurve(convex_arc(128, seed=seeds[1]).points * 1.3, False)
        d = ga.distance("M1", c0, c1)
        assert abs(d.value - m1_distance_formula(c0, c1)) < 1e-10
        assert d.value >= d.lower_bounds["sqrt_length"] - 1e-12


def test_m1_circle_family_bvp():
    # circle -> circle geodesic stays within circles: transform components
    # remain grid-constant along the path and kappa stays constant
    c0, c1 = open_circle(128, 1.0), open_circle(128, 4.0)
    path = ga.geodesic_bvp("M1", c0, c1, K=9)
    qs = path.diagnostics["rspace"]
    for j in range(9):
        # theta-constant to discretization accuracy (open-grid endpoint
        # stencils differ from the interior at fourth order)
        assert qs[j].std(axis=0).max() / np.abs(qs[j]).max() < 1e-3
        f = cc.build_frame(path.curves[j])
        assert f.kappa.std() / f.kappa.mean() < 1e-3
    e = ga.path_energy_rspace(path)
    d = ga.distance("M1", c0, c1)
    assert abs(e - d.value ** 2) / d.value ** 2 < 1e-6
    # q-components are linear in t: midpoint equals the average of the ends
    assert np.abs(qs[4] - 0.5 * (qs[0] + qs[-1])).max() < 1e-12


def test_m1_ivp_exit_time():
    c = open_circle(96)
    u0 = -0.25 * c.points  # shrinking field: transform components decay
    q0, d = ga._on_section(ms.MetricId.M1, c, u0)
    expected_exit = np.min(np.where(d < 0, q0.q / -d, np.inf))
    with pytest.raises(DomainExit) as exc:
        ga.geodesic_ivp("M1", c, u0, T=2 * expected_exit, snapshots=65)
    assert abs(exc.value.exit_time - expected_exit) < 1e-9
    assert exc.value.partial.n_snapshots >= 1
    # zero velocity: constant path
    path = ga.geodesic_ivp("M1", c, np.zeros((96, 2)), T=1.0, snapshots=5)
    assert np.abs(path.curves[-1].points - path.curves[0].points).max() < 1e-12


def test_m2_bvp_distance_and_initial_velocity():
    c0, c1 = open_circle(96, 1.0), open_circle(96, 2.0)
    d = ga.distance("M2", c0, c1)
    path = ga.geodesic_bvp("M2", c0, c1, K=9)
    assert abs(path.diagnostics["distance"] - d.value) < 1e-12
    assert d.value >= d.lower_bounds["sqrt_length"] - 1e-12
    assert d.value >= d.lower_bounds["pointwise_integral"] - 1e-9
    # shooting the boundary solver's initial velocity through the fiber
    # initial value problem reproduces the endpoint
    q0 = path.diagnostics["rspace"][0]
    q1 = path.diagnostics["rspace"][-1]
    v0 = path.diagnostics["initial_velocity_rspace"]
    _, ps, _ = pg.integrate_spray2(q0, v0, 1.0, 2000)
    assert np.abs(ps[-1] - q1).max() < 1e-6


def test_m2_ivp_runs_and_exits():
    c = open_circle(64)
    u0 = smooth_field(64, seed=3, closed=False) * 0.1
    path = ga.geodesic_ivp("M2", c, u0, T=0.5, snapshots=6)
    assert path.n_snapshots == 6
    # strong shrinking velocity leaves x > 0 in finite time
    u_bad = -2.0 * c.points
    with pytest.raises(DomainExit) as exc:
        ga.geodesic_ivp("M2", c, u_bad, T=5.0, snapshots=11)
    assert exc.value.exit_time is not None


def open_arc(n, slope, bend, phase, stretch, scale):
    """Arc with turning angle slope th + bend sin(th + phase) and speed
    scale (1 + stretch cos th) on [0, 2 pi]; convex when slope > |bend|."""
    th = (2 * np.pi / (n - 1)) * np.arange(n)
    alpha = slope * th + bend * np.sin(th + phase)
    integ = (scale * (1.0 + stretch * np.cos(th)))[:, None] * np.stack(
        [np.cos(alpha), np.sin(alpha)], 1)
    pts = np.zeros((n, 2))
    pts[1:] = np.cumsum(0.5 * (integ[1:] + integ[:-1]) * (th[1] - th[0]), axis=0)
    return cc.DiscreteCurve(pts, False)


def seeded_arcs(seed):
    """Three convex arcs (two of one shape at two scales) and two non-convex
    ones at N = 400, drawn from the seed."""
    u = np.random.default_rng([seed, 3]).uniform
    base = dict(slope=u(0.6, 0.8), bend=u(0.1, 0.2), phase=u(0, 2 * np.pi),
                stretch=u(0.15, 0.3))
    small = u(0.7, 0.9)
    specs = [dict(base, scale=small), dict(base, scale=2.0 * small),
             dict(slope=u(0.5, 0.7), bend=u(0.1, 0.3), phase=u(0, 2 * np.pi),
                  stretch=u(0.1, 0.3), scale=u(1.2, 1.5))]
    specs += [dict(slope=u(0.05, 0.15), bend=u(0.6, 0.9), phase=u(0, 2 * np.pi),
                   stretch=u(0.1, 0.3), scale=u(0.8, 1.2)) for _ in range(2)]
    return [open_arc(400, **spec) for spec in specs]


@pytest.mark.parametrize("target", [1, 3], ids=["convex", "non-convex"])
def test_m2_ivp_reaches_the_bvp_endpoint(target):
    # the exact fiber walk from the boundary solver's initial velocity ends
    # on every fiber where the solver's path ends, and the solver's
    # snapshots follow a fine RK4 run of that velocity (fibers of the
    # non-convex pair pass near their apex)
    arcs = seeded_arcs(301)
    path = ga.geodesic_bvp("M2", arcs[0], arcs[target], K=9)
    qs, v0 = path.diagnostics["rspace"], path.diagnostics["initial_velocity_rspace"]
    pts, _, exits = pg._fiber_ivp(qs[0], v0, path.times)
    assert np.all(exits > 1.0)
    assert np.abs(pts[:, -1] - qs[-1]).max() <= 1e-10
    _, ps, _ = pg.integrate_spray2(qs[0], v0, 1.0, 1600)
    assert np.abs(ps[::200] - qs).max() <= 1e-10
    # the walk leaves the lengths alone: the distance's are the same bits
    lengths = ga.distance("M2", arcs[0], arcs[target]).details["fiber_lengths"]
    assert np.array_equal(path.diagnostics["fiber_lengths"], lengths)


def test_m2_root_solve_calls(monkeypatch):
    # Newton from the closed-form starts: the root solve of a distance
    # between seeded arcs (arc1 and arc2 fibers in one batch) evaluates its
    # equation at most 10 times (5-9 measured); bisection to a bracket took
    # 14-31 calls
    calls = []
    find_roots = pg._find_roots

    def counted(equation, *args):
        calls.append(0)

        def eq(z, i):
            calls[-1] += 1
            return equation(z, i)
        return find_roots(eq, *args)
    monkeypatch.setattr(pg, "_find_roots", counted)
    cases = set()
    for seed in (301, 302):
        arcs = seeded_arcs(seed)
        for i, j in ((0, 1), (0, 3), (2, 4), (4, 1)):
            q0, q1 = (ga._on_section(ms.MetricId.M2, c).q for c in (arcs[i], arcs[j]))
            cases |= set(pg._solve_fibers(q0, q1, full=True, samples=3).case)
    assert cases == {"arc1", "arc2"}
    assert len(calls) == 8 and max(calls) <= 10


def test_m2_ivp_matches_rk4():
    c = open_circle(64)
    u0 = smooth_field(64, seed=3, closed=False) * 0.1
    path = ga.geodesic_ivp("M2", c, u0, T=0.5, snapshots=6)
    assert np.array_equal(path.times, np.linspace(0.0, 0.5, 6))
    q0, v0 = ga._on_section(ms.MetricId.M2, c, u0)
    _, ps, _ = pg.integrate_spray2(q0.q, v0, 0.5, 4000)
    assert np.abs(path.diagnostics["rspace"] - ps[::800]).max() <= 1e-10
    assert path.diagnostics["exit_time"] > 0.5


def test_m2_ivp_exits():
    c = open_circle(64)
    # the snapshots reached lie before the exit time, which a fine RK4 run
    # of the same fibers brackets
    u_bad = -2.0 * c.points
    with pytest.raises(DomainExit) as exc:
        ga.geodesic_ivp("M2", c, u_bad, T=5.0, snapshots=11)
    partial = exc.value.partial
    assert np.all(partial.times < exc.value.exit_time)
    assert np.array_equal(partial.times, np.linspace(0.0, 5.0, 11)[:partial.n_snapshots])
    q0, v0 = ga._on_section(ms.MetricId.M2, c, u_bad)
    with pytest.raises(DomainExit) as rk4:
        pg.integrate_spray2(q0.q, v0, 0.8, 8000)
    assert abs(rk4.value.exit_time - exc.value.exit_time) <= 1e-4
    # a ray moving down in x leaves at x0 / -xd
    _, _, exits = pg._fiber_ivp(np.array([[0.9, 0.2]]), np.array([[-0.3, 0.0]]), np.zeros(1))
    assert exits[0] == pytest.approx(3.0, rel=1e-15)
    # zero velocity: constant path
    path = ga.geodesic_ivp("M2", c, np.zeros((64, 2)), T=1.0, snapshots=5)
    assert path.diagnostics["exit_time"] == np.inf
    assert np.abs(path.curves[-1].points - path.curves[0].points).max() < 1e-12


def test_ivp_steps_are_used_or_refused():
    # M1 and M2 are exact: a step count would be ignored, so it is refused
    c = open_circle(64)
    u0 = smooth_field(64, seed=3, closed=False) * 0.1
    for metric in ("M1", "M2"):
        with pytest.raises(CurveflowError, match="steps"):
            ga.geodesic_ivp(metric, c, u0, T=0.5, steps=64)


def test_m3_ivp_second_initial_velocity():
    n = 64
    th = (2 * np.pi / n) * np.arange(n)
    c = circle(n)
    u0 = -(np.sin(th) ** 2)[:, None] * np.stack([np.cos(th), np.sin(th)], 1)
    path = ga.geodesic_ivp("M3", c, u0, T=1.0, steps=100, snapshots=11)
    assert path.diagnostics["constraint_norm_full"].max() < 1e-9
    assert len(path.curves) == 11
    # snapshots stay centered and regular
    for snap in path.curves[::5]:
        assert np.abs(cc.centroid(snap)).max() < 1e-9
        cc.build_frame(snap)


def test_m3_ivp_domain_exit_carries_path():
    # an M3 path that leaves the domain raises with the snapshots of the
    # full run it reached, as a GeodesicPath like M1's and M2's: 40 steps
    # of 0.05 with 9 snapshots are one every 5 steps, and the run leaves
    # at step 7
    n = 64
    th = (2 * np.pi / n) * np.arange(n)
    c = circle(n)
    u0 = -3.0 * (1.0 + 0.5 * np.cos(2 * th))[:, None] * c.points
    with pytest.raises(StepLeftDomain) as exc:
        ga.geodesic_ivp("M3", c, u0, T=2.0, steps=40, snapshots=9)
    assert exc.value.exit_time == pytest.approx(0.35)
    partial = exc.value.partial
    assert isinstance(partial, ga.GeodesicPath)
    assert partial.n_snapshots == 2
    assert np.allclose(partial.times, [0.0, 0.25])
    assert len(partial.diagnostics["times_full"]) == 8


def test_m3_bvp_steps_keep_one_factorization(monkeypatch):
    # on the small boundary solve of the benchmark (N = 64) every RATTLE
    # step of every simulation converges on the Newton matrix factored at
    # its first iterate: one factorization, no refresh.  The solve makes 2
    # simulations: the start and one accepted step, the basis growing first
    n = 64
    th = (2 * np.pi / n) * np.arange(n)
    c1 = cc.DiscreteCurve(np.stack([1.15 * np.cos(th), 0.87 * np.sin(th)], 1), True)
    sims, simulate = [], ga.simulate

    def kept(*args, **kwargs):
        sims.append(simulate(*args, **kwargs))
        return sims[-1]
    monkeypatch.setattr(ga, "simulate", kept)
    ga.geodesic_bvp("M3", circle(n), c1, K=21, T=1.0, dt=0.05, modes=4, tol=5e-3,
                    max_iter=25)
    assert len(sims) == 2
    for sim in sims:
        assert np.all(sim.factorizations == 1)
        assert np.all(sim.newton_residual < 1e-12)


def test_m3_shooting_bvp_small():
    n = 32
    th = (2 * np.pi / n) * np.arange(n)
    c0 = circle(n)
    c1 = cc.DiscreteCurve(np.stack([1.15 * np.cos(th), 0.87 * np.sin(th)], 1), True)
    path = ga.geodesic_bvp("M3", c0, c1, K=5, T=1.0, dt=0.05, modes=4,
                           tol=5e-3, max_iter=25)
    rel = path.diagnostics["endpoint_mismatch"] / path.diagnostics["mismatch_scale"]
    assert rel <= 5e-3
    # endpoints reproduce the data
    assert np.abs(path.curves[0].points - cc.center(c0).points).max() < 1e-2
    assert np.abs(path.curves[-1].points - cc.center(c1).points).max() < 5e-2
    # the distance wrapper reports the transform-space path length
    d = ga.distance("M3", c0, c1, T=1.0, dt=0.05, modes=4, tol=5e-3,
                    max_iter=25)
    assert d.value > 0.0
    assert d.details["endpoint_mismatch"] <= 5e-3 * path.diagnostics["mismatch_scale"]


def test_shooting_stall_carries_best_path():
    # one iteration at 2 modes cannot reach 1e-12: the solve ends in its one
    # exit, which raises with the best path and its diagnostics
    n = 32
    th = (2 * np.pi / n) * np.arange(n)
    c0 = circle(n)
    c1 = cc.DiscreteCurve(np.stack([1.15 * np.cos(th), 0.87 * np.sin(th)], 1), True)
    with pytest.raises(ShootingStall) as exc:
        ga.geodesic_bvp("M3", c0, c1, K=5, T=1.0, dt=0.05, modes=2, tol=1e-12,
                        max_iter=1)
    path = exc.value.best_path
    assert exc.value.residual == path.diagnostics["endpoint_mismatch"]
    assert path.diagnostics["mismatch_scale"] > 0.0
    assert path.diagnostics["modes"] == 2
    assert np.abs(path.curves[0].points - cc.center(c0).points).max() < 1e-2
    # and it carries the Levenberg-Marquardt log of its one iteration, a
    # step from the start's residual to the best one
    [record] = path.diagnostics["trace"]["lm"]
    assert (record["modes"], record["trials"], record["action"]) == (2, 1, "step")
    assert record["residual"] > exc.value.residual


@pytest.mark.parametrize("n", [32, 33])
def test_shooting_jacobian_matches_central_differences(n):
    # the tangent-linear RATTLE map gives the derivative of the computed
    # residual: every column matches its central difference
    th = (2 * np.pi / n) * np.arange(n)
    c1 = cc.DiscreteCurve(np.stack([1.15 * np.cos(th), 0.87 * np.sin(th)], 1), True)
    q0, target = ga._shooting_endpoints(circle(n), c1)
    residual, jacobian = ga._shooting_maps(q0, target, 1.0, 20)
    basis = ga._fourier_basis(n, 4)
    xi = 0.1 * np.random.default_rng(31).standard_normal((basis.shape[1], 2))
    J = jacobian(residual(xi, basis)[1], basis)
    eps = 1e-5
    for a, e in enumerate(eps * np.eye(xi.size).reshape(-1, *xi.shape)):
        fd = (residual(xi + e, basis)[0] - residual(xi - e, basis)[0]) / (2 * eps)
        assert np.linalg.norm(J[:, a] - fd) <= 1e-6 * np.linalg.norm(fd)


def test_grown_basis_appends_jacobian_columns():
    # the functions a grown basis adds, differentiated over the same
    # simulation, are the columns the Jacobian of the whole basis has there
    n = 32
    th = (2 * np.pi / n) * np.arange(n)
    c1 = cc.DiscreteCurve(np.stack([1.15 * np.cos(th), 0.87 * np.sin(th)], 1), True)
    residual, jacobian = ga._shooting_maps(*ga._shooting_endpoints(circle(n), c1), 1.0, 20)
    small, large = ga._fourier_basis(n, 4), ga._fourier_basis(n, 8)
    xi = 0.1 * np.random.default_rng(31).standard_normal((small.shape[1], 2))
    sim = residual(xi, small)[1]
    grown = np.hstack([jacobian(sim, small), jacobian(sim, large[:, small.shape[1]:])])
    whole = jacobian(sim, large)
    assert np.linalg.norm(grown - whole) <= 1e-12 * np.linalg.norm(whole)


def far_target(n, amp):
    th = (2 * np.pi / n) * np.arange(n)
    r = 1.0 + amp * np.cos(5 * th)
    return cc.DiscreteCurve(np.stack([r * np.cos(th), r * np.sin(th)], 1), True)


@pytest.mark.parametrize("amp, dt, max_iter", [(None, 0.05, 25), (0.2, 0.1, 15)])
def test_shooting_returns_smallest_residual(monkeypatch, amp, dt, max_iter):
    # the returned mismatch is the smallest residual the solve evaluated,
    # also where trial steps were rejected and the solve stalls (the second
    # pair, a far target)
    n = 32
    th = (2 * np.pi / n) * np.arange(n)
    if amp is None:
        c1 = cc.DiscreteCurve(np.stack([1.15 * np.cos(th), 0.87 * np.sin(th)], 1), True)
    else:
        c1 = far_target(n, amp)
    norms, maps = [], ga._shooting_maps

    def recorded(*args):
        residual, jacobian = maps(*args)

        def kept(xi, basis):
            r, sim = residual(xi, basis)
            norms.append(np.linalg.norm(r))
            return r, sim
        return kept, jacobian
    monkeypatch.setattr(ga, "_shooting_maps", recorded)
    try:
        path = ga.geodesic_bvp("M3", circle(n), c1, K=5, T=1.0, dt=dt, modes=4, tol=5e-3,
                               max_iter=max_iter)
    except ShootingStall as exc:
        path = exc.best_path
    assert path.diagnostics["endpoint_mismatch"] == min(norms)
    rejected = sum(b >= min(norms[:j + 1]) for j, b in enumerate(norms[1:]))
    assert (rejected > 0) == (amp is not None)


def test_shooting_start_off_the_domain_restarts_from_rest(monkeypatch):
    # the least-squares start toward a far target leaves the domain; the
    # solve restarts once from xi = 0, the rest state, and ends in a stall
    # with its best path, not in the start's StepLeftDomain
    n = 32
    starts, maps = [], ga._shooting_maps

    def recorded(*args):
        residual, jacobian = maps(*args)

        def kept(xi, basis):
            starts.append(xi.copy())
            try:
                return residual(xi, basis)
            except StepLeftDomain:
                starts.append("left")
                raise
        return kept, jacobian
    monkeypatch.setattr(ga, "_shooting_maps", recorded)
    with pytest.raises(ShootingStall) as exc:
        ga.geodesic_bvp("M3", circle(n), far_target(n, 0.2), K=5, T=1.0, dt=0.1, modes=15,
                        tol=5e-3, max_iter=15)
    assert starts[1] == "left" and np.any(starts[0]) and not np.any(starts[2])
    path = exc.value.best_path
    assert path.diagnostics["modes"] == 15 and len(path.curves) == 5
    assert exc.value.residual < path.diagnostics["trace"]["lm"][0]["residual"]


def test_default_distance_grows_the_basis_past_24_modes(monkeypatch):
    # the default M3 distance from the circle to r = 1 + 0.1 cos 5 theta at
    # N = 64 needs more than 24 modes: the basis grows to 31, the most
    # below N/2, and the solve converges (a cap at 24 stalled at 0.140)
    used, fourier = [], ga._fourier_basis

    def kept(n, modes):
        used.append(modes)
        return fourier(n, modes)
    monkeypatch.setattr(ga, "_fourier_basis", kept)
    res = ga.distance("M3", circle(64), far_target(64, 0.1))
    assert max(used) == 31
    assert res.value == pytest.approx(3.6847, abs=1e-4)
    assert res.details["endpoint_mismatch"] <= 1e-4 * 4.47


@pytest.mark.parametrize("n, modes, max_iter", [(16, 10, 40), (32, 12, 8)])
def test_shooting_basis_has_full_column_rank(monkeypatch, n, modes, max_iter):
    # a Fourier basis of more than (N - 1) / 2 modes holds aliased
    # functions; the solve caps its start and its growth there (10 -> 7
    # at N = 16, 12 -> 15 at N = 32) and reports the modes it used
    th = (2 * np.pi / n) * np.arange(n)
    c1 = cc.DiscreteCurve(np.stack([1.15 * np.cos(th), 0.87 * np.sin(th)], 1), True)
    bases, fourier = [], ga._fourier_basis

    def kept(*args):
        bases.append(fourier(*args))
        return bases[-1]
    monkeypatch.setattr(ga, "_fourier_basis", kept)
    with pytest.raises(ShootingStall) as exc:
        ga.geodesic_bvp("M3", circle(n), c1, K=5, T=1.0, dt=0.05, modes=modes, tol=1e-12,
                        max_iter=max_iter)
    assert exc.value.best_path.diagnostics["modes"] == (n - 1) // 2
    assert bases[-1].shape[1] == n - 1
    for basis in bases:
        assert np.linalg.matrix_rank(basis) == basis.shape[1]


@pytest.mark.parametrize("n", [32, 33])
def test_unit_momenta_match_single_columns(n):
    # the batched pass at xi = I gives, column by column, the momentum that
    # one unit xi gets on its own
    th = (2 * np.pi / n) * np.arange(n)
    c1 = cc.DiscreteCurve(np.stack([1.15 * np.cos(th), 0.87 * np.sin(th)], 1), True)
    q0, _ = ga._shooting_endpoints(circle(n), c1)
    basis = ga._fourier_basis(n, 4)
    r = 2 * basis.shape[1]
    units = np.eye(r).reshape(-1, 2, r)
    momenta = ga._consistent_momentum(q0, ga._shooting_velocity(q0, units, basis))
    assert momenta.shape == (n, 3, r)
    for a in range(r):
        ref = ga._consistent_state(q0, ga._shooting_velocity(q0, units[..., a], basis)).p
        assert np.abs(momenta[..., a] - ref).max() <= 1e-13 * np.abs(ref).max()


def test_shooting_tangent_passes_make_no_newton_iteration(monkeypatch):
    # the Jacobian linearizes the residual's stored trajectory: no RATTLE
    # Newton loop runs inside a tangent pass.  And each M3 point is built
    # once: one DH (M3Jacobian) per distinct q, no Gram system factored
    # twice and none in a tangent pass, whose Newton factors are the only
    # ones it makes; the pass after the basis grows from 4 to 8 modes runs
    # over the same simulation, carries only the 16 new columns and
    # factors nothing.  2 passes over 2 simulations: that growth pass over
    # the start and a full one over the accepted step
    n = 32
    th = (2 * np.pi / n) * np.arange(n)
    c1 = cc.DiscreteCurve(np.stack([1.15 * np.cos(th), 0.87 * np.sin(th)], 1), True)
    step, tangent = ch._rattle_step, ga._position_tangent
    calls = {"steps": 0, "inside": 0, "passes": 0}
    inside, passes, points, made = [], [], [], []

    def counted_step(*args, **kwargs):
        calls["steps"] += 1
        calls["inside"] += bool(inside)
        return step(*args, **kwargs)

    def counted_tangent(sim, dt, dp0):
        calls["passes"] += 1
        inside.append(1)
        start = len(made)
        try:
            return tangent(sim, dt, dp0)
        finally:
            inside.pop()
            passes.append((sim, dp0.shape[-1], made[start:]))

    def counted(kind, cls):
        class Counted(cls):
            def __init__(self, bands, *border):
                made.append((kind, bands.tobytes(), len(border)))
                super().__init__(bands, *border)
        return Counted
    jacobian = rt.M3Jacobian.__init__

    def counted_jacobian(self, q, dth):
        points.append(q.tobytes())
        jacobian(self, q, dth)
    monkeypatch.setattr(ch, "_rattle_step", counted_step)
    monkeypatch.setattr(ga, "_position_tangent", counted_tangent)
    monkeypatch.setattr(rt, "CyclicFactor", counted("gram", rt.CyclicFactor))
    monkeypatch.setattr(ch, "CyclicFactor", counted("newton", ch.CyclicFactor))
    monkeypatch.setattr(rt.M3Jacobian, "__init__", counted_jacobian)
    ga.geodesic_bvp("M3", circle(n), c1, K=5, T=1.0, dt=0.05, modes=4, tol=5e-3,
                    max_iter=25)
    assert calls["passes"] == 2
    assert calls["inside"] == 0
    assert calls["steps"] == 2 * 20       # 2 simulate calls of 20 steps
    assert len(points) == len(set(points))
    grams = [key for key in made if key[0] == "gram"]
    assert grams and len(grams) == len(set(grams))
    for j, (sim, columns, factored) in enumerate(passes):
        if j and sim is passes[j - 1][0]:
            assert (columns, factored) == (2 * 17 - 2 * 9, [])
        else:
            assert [kind for kind, *_ in factored] == ["newton"] * 20
    assert sum(j and sim is passes[j - 1][0] for j, (sim, *_) in enumerate(passes)) == 1


def test_ivp_simulation_keeps_no_step_factors(monkeypatch):
    # only a shooting simulation keeps its points and factors for the
    # tangent pass; the simulation of an initial value solve keeps none
    n = 32
    th = (2 * np.pi / n) * np.arange(n)
    sims, simulate = [], ga.simulate

    def kept(*args, **kwargs):
        sims.append(simulate(*args, **kwargs))
        return sims[-1]
    monkeypatch.setattr(ga, "simulate", kept)
    ga.geodesic_ivp("M3", circle(n), np.stack([np.zeros(n), np.sin(th)], 1), 0.1,
                    steps=10, snapshots=3)
    c1 = cc.DiscreteCurve(np.stack([1.15 * np.cos(th), 0.87 * np.sin(th)], 1), True)
    residual = ga._shooting_maps(*ga._shooting_endpoints(circle(n), c1), 1.0, 20)[0]
    residual(np.zeros((9, 2)), ga._fourier_basis(n, 4))
    ivp, shot = sims
    assert ivp._points is None and ivp._newton is None
    assert not any(isinstance(v, (list, rt._M3Point)) for v in vars(ivp).values())
    assert len(shot._points) == 21 and len(shot._newton) == 20
    assert all(isinstance(pt, rt._M3Point) for pt in shot._points)


def test_failed_trial_step_is_rejected(monkeypatch):
    # a Levenberg-Marquardt trial whose simulation leaves the domain is a
    # rejected step, not the end of the solve: the best path survives.  On
    # this far target 3 trials leave the domain, once the basis has grown
    n = 32
    c1 = far_target(n, 0.25)
    left = []
    simulate = ga.simulate

    def watched(*args, **kwargs):
        try:
            return simulate(*args, **kwargs)
        except DomainExit:
            left.append(1)
            raise
    monkeypatch.setattr(ga, "simulate", watched)
    try:
        path = ga.geodesic_bvp("M3", circle(n), c1, K=5, T=1.0, dt=0.1, modes=4,
                               tol=5e-3, max_iter=15)
    except ShootingStall as exc:
        path = exc.best_path
        assert exc.residual == path.diagnostics["endpoint_mismatch"]
    assert left
    assert np.abs(path.curves[0].points - cc.center(circle(n)).points).max() < 1e-2


def test_spent_basis_grows_with_no_trial():
    # 4 modes cannot represent this far target: at once the Gauss-Newton
    # model shows that no step can halve the residual, and the basis grows
    # with no trial simulate, up to its top of 15 modes at N = 32.  The
    # solve then ends near the tolerance (5.7e-3 relative) where a basis
    # that grew only on a stalled step crawled at 4 modes to 0.81
    n = 32
    try:
        path = ga.geodesic_bvp("M3", circle(n), far_target(n, 0.15), K=5, T=1.0, dt=0.1,
                               modes=4, tol=5e-3, max_iter=15)
    except ShootingStall as exc:
        path = exc.best_path
    lm = path.diagnostics["trace"]["lm"]
    assert path.diagnostics["modes"] > 4
    assert path.diagnostics["endpoint_mismatch"] < 0.1 * path.diagnostics["mismatch_scale"]
    assert (lm[0]["modes"], lm[0]["trials"], lm[0]["action"]) == (4, 0, "grow")
    for record in lm[:-1]:
        if record["floor"] > 0.5 * record["residual"] and record["modes"] < 15:
            assert (record["trials"], record["action"]) == (0, "grow")


def test_basis_at_its_top_keeps_its_trials():
    # at the top mode count (7 at N = 16) the basis cannot grow, so a floor
    # above half the residual leaves the Levenberg-Marquardt trials to run
    n = 16
    th = (2 * np.pi / n) * np.arange(n)
    c1 = cc.DiscreteCurve(np.stack([1.15 * np.cos(th), 0.87 * np.sin(th)], 1), True)
    with pytest.raises(ShootingStall) as exc:
        ga.geodesic_bvp("M3", circle(n), c1, K=5, T=1.0, dt=0.05, modes=7, tol=1e-12,
                        max_iter=6)
    lm = exc.value.best_path.diagnostics["trace"]["lm"]
    assert all(record["modes"] == 7 and record["action"] != "grow" for record in lm)
    assert any(record["floor"] > 0.5 * record["residual"] and record["trials"] > 0
               for record in lm)


def test_solve_off_its_floor_keeps_its_path(monkeypatch):
    # circle -> (1.15, 0.87) at N = 64 with the default settings reaches no
    # floor: each floor is below half the residual and below the tolerance,
    # two steps at 10 modes, and the path of the same solve with the floor
    # test switched off, bit for bit
    n = 64
    th = (2 * np.pi / n) * np.arange(n)
    c1 = cc.DiscreteCurve(np.stack([1.15 * np.cos(th), 0.87 * np.sin(th)], 1), True)
    path = ga.geodesic_bvp("M3", circle(n), c1, K=5)
    lm = path.diagnostics["trace"]["lm"]
    assert [(record["modes"], record["trials"], record["action"]) for record in lm] \
        == [(10, 1, "step")] * 2
    stop = 1e-4 * path.diagnostics["mismatch_scale"]
    assert all(record["floor"] <= min(0.5 * record["residual"], stop) for record in lm)
    monkeypatch.setattr(ga, "_gauss_newton_floor", lambda J, r: 0.0)
    off = ga.geodesic_bvp("M3", circle(n), c1, K=5)
    assert np.array_equal(path.diagnostics["rspace"], off.diagnostics["rspace"])


def test_basis_that_cannot_reach_the_tolerance_grows_first(monkeypatch):
    # the benchmark's boundary solve (N = 64): at 4 modes no step can reach
    # the tolerance to first order (floor 9.1e-3 against tol * scale
    # 2.1e-3), though one could halve the residual (6.6e-2).  So the basis
    # grows to 8 modes with no trial, and one step finishes: 2 simulate
    # calls, a full tangent pass of 18 columns and a growth pass of 16
    n = 64
    th = (2 * np.pi / n) * np.arange(n)
    c1 = cc.DiscreteCurve(np.stack([1.15 * np.cos(th), 0.87 * np.sin(th)], 1), True)
    calls, simulate = [], ga.simulate

    def counted(*args, **kwargs):
        calls.append(1)
        return simulate(*args, **kwargs)
    monkeypatch.setattr(ga, "simulate", counted)
    path = ga.geodesic_bvp("M3", circle(n), c1, K=21, T=1.0, dt=0.05, modes=4, tol=5e-3,
                           max_iter=25)
    lm = path.diagnostics["trace"]["lm"]
    stop = 5e-3 * path.diagnostics["mismatch_scale"]
    assert [(record["modes"], record["trials"], record["action"]) for record in lm] \
        == [(4, 0, "grow"), (8, 1, "step")]
    assert stop < lm[0]["floor"] <= 0.5 * lm[0]["residual"]
    assert [record["columns"] for record in lm] == [18, 16]
    assert len(calls) == 2
    assert path.diagnostics["endpoint_mismatch"] <= stop


def test_m3_distance_sums_a_chord_per_step():
    # M3 distance measures the simulation it solved by a chord per RATTLE
    # step: the chord sum of the K = 21 path, all 20 steps, well within the
    # shooting tol; the K = 5 snapshots it used to sum miss it by 7e-5
    n = 32
    th = (2 * np.pi / n) * np.arange(n)
    c1 = cc.DiscreteCurve(np.stack([1.15 * np.cos(th), 0.87 * np.sin(th)], 1), True)
    options = dict(T=1.0, dt=0.05, modes=4, tol=5e-3, max_iter=25)
    d = ga.distance("M3", circle(n), c1, **options).value
    qs = ga.geodesic_bvp("M3", circle(n), c1, K=21, **options).diagnostics["rspace"]
    every_step = ga._rspace_length(qs)
    assert abs(d - every_step) <= 1e-9 * every_step
    assert abs(ga._rspace_length(qs[::5]) - every_step) > 1e-5 * every_step


# (N, dt) refined jointly: the M3 solver is second order in both
CIRCLE_GRIDS = ((32, 0.1), (64, 0.05), (128, 0.025))


def test_m3_distance_between_centred_circles():
    # centred circles are totally geodesic, the M3 metric on them is
    # G(r) r'^2 with G(r) = 2 pi (1/r + 1/r^3), so the distance from radius
    # 1 to 1.6 is the integral of sqrt(G); measured errors 1.36e-3, 3.43e-4
    # and 8.58e-5
    exact = quad(lambda r: np.sqrt(2 * np.pi * (1 / r + r ** -3)), 1.0, 1.6,
                 epsabs=1e-12, epsrel=1e-12)[0]
    errs = np.array([abs(ga.distance("M3", circle(n), circle(n, 1.6), T=1.0, dt=dt, modes=4,
                                     tol=1e-10).value - exact) for n, dt in CIRCLE_GRIDS])
    orders = np.log2(errs[:-1] / errs[1:])
    assert np.all((orders >= 1.8) & (orders <= 2.2)), orders


@pytest.mark.parametrize("rho", [0.6, -0.3])
def test_m3_ivp_on_centred_circles(rho):
    # from a radial start the radius at t = 1 (the mean of q1^2) converges
    # to the exact r(1) at second order: errors 1.08e-2, 2.69e-3 and 6.73e-4
    # for rho = 0.6
    errs = np.array(circle_ivp_errors(rho, CIRCLE_GRIDS))
    orders = np.log2(errs[:-1] / errs[1:])
    assert np.all((orders >= 1.8) & (orders <= 2.2)), orders


def test_m3_shooting_cost_is_rotation_invariant(monkeypatch):
    # the metric is rotation invariant; so must the solve's path be, not
    # only its answer: no Levenberg-Marquardt step is bought for a model
    # decrease at rounding level.  With the exact Jacobian each residual
    # evaluation is one simulate call: the start and one accepted step.
    # Growing the basis from 4 to 8 modes first, at its Gauss-Newton floor,
    # zero-pads the coefficients, the same velocity, so it needs none
    n = 32
    th = (2 * np.pi / n) * np.arange(n)
    calls = []
    simulate = ga.simulate

    def counted(*args, **kwargs):
        calls.append(1)
        return simulate(*args, **kwargs)
    monkeypatch.setattr(ga, "simulate", counted)
    counts, lengths = [], []
    for angle in (0.0, 1.0, 2.0):
        rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        c0 = cc.DiscreteCurve(np.stack([np.cos(th), np.sin(th)], 1) @ rot.T, True)
        c1 = cc.DiscreteCurve(np.stack([1.15 * np.cos(th), 0.87 * np.sin(th)], 1)
                              @ rot.T, True)
        calls.clear()
        path = ga.geodesic_bvp("M3", c0, c1, K=5, T=1.0, dt=0.05, modes=4,
                               tol=5e-3, max_iter=25)
        counts.append(len(calls))
        lengths.append(ga._rspace_length(path.diagnostics["rspace"]))
    assert counts == [2, 2, 2]
    assert lengths[0] == pytest.approx(lengths[1], rel=1e-6)
    assert lengths[0] == pytest.approx(lengths[2], rel=1e-6)


def test_m3_winding_mismatch_rejected():
    n = 64
    th = (2 * np.pi / n) * np.arange(n)
    c0 = circle(n)
    double = cc.DiscreteCurve(np.stack([np.cos(2 * th), np.sin(2 * th)], 1), True)
    with pytest.raises(CurveflowError):
        ga.geodesic_bvp("M3", c0, double, K=3, T=1.0)


def test_distance_symmetry_and_triangle():
    c0 = convex_arc(96, seed=11)
    c1 = cc.DiscreteCurve(convex_arc(96, seed=12).points * 0.8, False)
    c2 = cc.DiscreteCurve(convex_arc(96, seed=13).points * 1.2, False)
    for mid in ("M1", "M2"):
        dab = ga.distance(mid, c0, c1).value
        dba = ga.distance(mid, c1, c0).value
        assert abs(dab - dba) < 1e-9
    # triangle inequality holds exactly for the flat metric
    dac = ga.distance("M1", c0, c2).value
    dab = ga.distance("M1", c0, c1).value
    dbc = ga.distance("M1", c1, c2).value
    assert dac <= dab + dbc + 1e-12


@pytest.mark.parametrize("mid", ["M1", "M2"])
def test_m1_m2_refuse_closed_curves(mid):
    # on closed curves the transform-space segment leaves the image, so
    # its length is only a lower bound: distance refuses the pair that
    # geodesic_bvp refuses
    n = 64
    th = (2 * np.pi / n) * np.arange(n)
    ellipse = cc.DiscreteCurve(np.stack([1.3 * np.cos(th), 0.8 * np.sin(th)], 1), True)
    for solve in (ga.distance, ga.geodesic_bvp):
        with pytest.raises(CurveflowError, match=f"{mid} boundary solver works on open"):
            solve(mid, circle(n), ellipse)


def test_m4_has_no_solvers():
    c = wavy_curve(64, seed=1)
    with pytest.raises(CurveflowError):
        ga.distance("M4", c, c)
    with pytest.raises(CurveflowError):
        ga.geodesic_bvp("M4", c, c, K=3)


def test_solver_sizes_are_checked(monkeypatch):
    n = 32
    c, line = circle(n), open_circle(n)
    u0 = np.zeros((n, 2))
    for bad in ({"steps": 0}, {"steps": -3}, {"snapshots": 1}, {"snapshots": -2},
                {"T": 0.0}, {"T": -1.0}, {"T": np.inf}, {"T": np.nan},
                {"steps": 2.5}, {"steps": True}, {"snapshots": 3.7}):
        sizes = {"T": 0.2, "steps": 20, "snapshots": 5} | bad
        with pytest.raises(CurveflowError):
            ga.geodesic_ivp("M3", c, u0, **sizes)
        with pytest.raises(CurveflowError):
            ga.shape_geodesic(c, u0, **sizes)
    for K, T in ((1, 1.0), (0, 1.0), (5, 0.0), (5, np.inf), (5, np.nan), (2.5, 1.0)):
        with pytest.raises(CurveflowError):
            ga.geodesic_bvp("M2", line, line, K=K, T=T)
    # simulate takes a step size directly: it must be positive and give a step
    st = ch.HamiltonianState("M3", np.ones((n, 3)), np.zeros((n, 3)))
    for T, dt in ((0.1, -0.01), (0.1, 0.0), (0.1, np.nan), (0.004, 0.01), (np.inf, 0.01)):
        with pytest.raises(CurveflowError, match="simulate"):
            ch.simulate(st, T, dt)
    # options are checked before any shooting; a ShootingStall would also
    # be a CurveflowError, so simulate must not run at all
    monkeypatch.setattr(ga, "simulate", lambda *a, **k: pytest.fail("simulate ran"))
    for mid in ("M1", "M2"):
        for solve in (ga.geodesic_bvp, ga.distance):
            with pytest.raises(CurveflowError, match="bogus"):
                solve(mid, line, line, bogus=1)
        with pytest.raises(CurveflowError, match="dt"):
            ga.geodesic_bvp(mid, line, line, dt=0.5)
    for solve in (ga.geodesic_bvp, ga.distance):
        with pytest.raises(CurveflowError, match="bogus"):
            solve("M3", c, c, bogus=1)
    with pytest.raises(CurveflowError, match="K"):
        ga.distance("M3", c, c, K=3)
    for bad in ({"dt": 0.0}, {"dt": -0.1}, {"dt": np.inf}, {"dt": np.nan},
                {"tol": 0.0}, {"tol": -1.0}, {"tol": np.nan},
                {"modes": 0}, {"max_iter": 0}, {"modes": 2.5}, {"max_iter": 1.5},
                {"max_iter": True}):
        with pytest.raises(CurveflowError, match=next(iter(bad))):
            ga.geodesic_bvp("M3", c, c, K=5, **bad)


def test_fields_are_checked():
    # a velocity or field off the curve grid, or with a NaN, is a named error
    n = 32
    c, arc = circle(n), convex_arc(n)
    nan = np.zeros((n, 2))
    nan[3, 1] = np.nan
    for field, words in ((np.zeros((n + 1, 2)), "shape"), (nan, "finite")):
        for mid, curve in (("M1", arc), ("M2", arc), ("M3", c)):
            with pytest.raises(CurveflowError, match=f"u0 must .*{words}"):
                ga.geodesic_ivp(mid, curve, field, T=0.2, steps=20, snapshots=5)
        with pytest.raises(CurveflowError, match=f"h must .*{words}"):
            ga.horizontal_project(c, field)
        with pytest.raises(CurveflowError, match=f"h must .*{words}"):
            ga.shape_geodesic(c, field, T=0.2, steps=20, snapshots=5)
        # every reader of a field's jet checks it: one sample short, or a
        # NaN, is BadInput naming the field, never a broadcast error or a NaN
        good = smooth_field(n)
        readers = [lambda f: ms.metric_eval("M2", c, f, good),
                   lambda f: ms.apply_L("M3", c, f),
                   lambda f: ms.hc_quadratic("M3", c, f),
                   lambda f: rt.dr("M4", c, f),
                   lambda f: pg.sectional_curvature_m2(c, f, good),
                   lambda f: cc.first_variation(c, f, "kappa")]
        for read in readers:
            with pytest.raises(BadInput, match=f"h must .*{words}"):
                read(field)
        for read in (lambda f: ms.metric_eval("M2", c, good, f),
                     lambda f: pg.sectional_curvature_m2(c, good, f)):
            with pytest.raises(BadInput, match=f"k must .*{words}"):
                read(field)
        # the quadratures check their samples alike, (N, d) ones included
        for read, name in ((lambda f: ms.momentum_of("M3", c, good).pair(f), "h"),
                           (lambda f: cc.integrate_ds(c, f), "values")):
            with pytest.raises(BadInput, match=f"{name} must .*{words}"):
                read(field)
        q, good3 = rt.r_forward("M3", c).q, np.ones((n, 3))
        for read, name in ((lambda f: rt.weighted_inner("M3", q, f, good3, True), "a"),
                           (lambda f: rt.weighted_inner("M3", q, good3, f, True), "b")):
            with pytest.raises(BadInput, match=f"{name} must .*{words}"):
                read(np.column_stack([field, np.zeros(len(field))]))


def test_each_curve_is_framed_once(monkeypatch):
    # the frame belongs to the curve: no call path frames one curve object
    # twice (the list keeps every framed curve alive, so no id is reused);
    # build_frame is recorded under every name a curveflow module binds
    framed, build = [], cc.build_frame

    def recorded(curve):
        framed.append(curve)
        return build(curve)
    for name, module in list(sys.modules.items()):
        if name.startswith("curveflow") and getattr(module, "build_frame", None) is build:
            monkeypatch.setattr(module, "build_frame", recorded)

    def builds(run):
        start = len(framed)
        run()
        return len(framed) - start
    arcs = [rotation_representative(wavy_curve(64, seed=s, closed=False)) for s in (3, 4)]
    assert builds(lambda: ga.distance("M2", *arcs)) == 2
    ga.distance("M1", convex_arc(64, seed=3), convex_arc(64, seed=4))
    c, u = wavy_curve(64, seed=3), 0.3 * smooth_field(64, seed=1)
    assert builds(lambda: ga.horizontal_project(c, u)) == 1
    assert builds(lambda: ga.horizontal_project(c, u)) == 0
    path = ga.geodesic_ivp("M3", c, u, 0.2, steps=20, snapshots=5)
    ms.geodesic_residual("M3", path)
    ga.shape_geodesic(c, u, 0.2, steps=20, snapshots=5)
    # path curves build their frame on first read, so a solve's builds do
    # not grow with its snapshot count
    for solve in (lambda k: ga.geodesic_ivp("M3", c, u, 0.2, steps=32, snapshots=k),
                  lambda k: ga.geodesic_bvp("M2", *arcs, K=k)):
        assert builds(lambda: solve(3)) == builds(lambda: solve(33))
    pg.sectional_curvature_m2(arcs[0], smooth_field(64, seed=1, closed=False),
                              smooth_field(64, seed=2, closed=False))
    ids = [id(curve) for curve in framed]
    assert len(set(ids)) == len(ids)
    assert c.frame is c.frame
    twin = c.with_points(c.points)
    assert builds(lambda: twin.frame) == 1 and twin.frame is not c.frame


@pytest.mark.parametrize("mid, n", [("M1", 64), ("M2", 65), ("M3", 64), ("M3", 129)])
def test_snapshot_stack_matches_each_snapshot(mid, n):
    # one stacked pass gives each snapshot r_inverse's points, bit for bit,
    # and for M3 center's; the curves carry no frame yet
    mid, closed = ms.MetricId.parse(mid), mid == "M3"
    arcs = ([convex_arc(n, seed=s) for s in (3, 4, 5)] if mid is ms.MetricId.M1
            else [wavy_curve(n, seed=s, closed=closed) for s in (3, 4, 5)])
    qs = np.stack([rt.r_forward(mid, a).q for a in arcs])
    stack = rt._inverse_points(mid, np.moveaxis(qs, 0, -1), closed)
    for j, curve in enumerate(ga._curves(mid, qs, closed)):
        each = rt.r_inverse(rt.RPoint(mid, qs[j], closed))
        assert np.array_equal(stack[..., j], each.points)
        assert np.array_equal(curve.points, (cc.center(each) if closed else each).points)
        assert "frame" not in curve.__dict__


def test_snapshot_stack_is_checked_whole():
    qs = np.stack([rt.r_forward("M1", convex_arc(64, seed=s)).q for s in (3, 4, 5)])
    for j, col, value, error, words in ((1, 0, 0.0, NonPositive, "q1 must be positive"),
                                        (2, 0, -1.0, NonPositive, "q1 must be positive"),
                                        (1, 1, -0.5, NonPositive, "M1 requires q2 > 0"),
                                        (2, 1, np.nan, BadInput, "q must be a finite")):
        bad = qs.copy()
        bad[j, 7, col] = value
        with pytest.raises(error, match=words):
            ga._curves(ms.MetricId.M1, bad, False)


def test_horizontal_project_examples():
    n = 128
    th = (2 * np.pi / n) * np.arange(n)
    c = circle(n)
    f = cc.build_frame(c)
    # corrected closed-form horizontal field: a = cos 2t, b = (8/7) sin 2t
    hstar = np.cos(2 * th)[:, None] * f.n + (8.0 / 7.0) * np.sin(2 * th)[:, None] * f.v
    lh = ms.apply_L("M3", c, hstar)
    scale = np.abs(lh).max()
    hp = ga.horizontal_project(c, hstar)
    assert ga.horizontality_residual(c, hp) < 1e-8 * scale
    assert np.abs(hp - hstar).max() < 5e-3 * np.abs(hstar).max()
    # projection is idempotent
    assert np.abs(ga.horizontal_project(c, hp) - hp).max() < 1e-9
    # a purely vertical field projects to (numerically) nothing
    cp = f.speed[:, None] * f.v
    out = ga.horizontal_project(c, cp)
    assert np.abs(out).max() < 1e-8


def dense_vertical_operator(curve):
    """Reference: the N x N matrix of zeta -> <L_c(zeta c'), v>, one
    apply_L per column."""
    f = cc.build_frame(curve)
    cp = f.speed[:, None] * f.v
    cols = [np.einsum("ki,ki->k", ms.apply_L("M3", curve, z[:, None] * cp), f.v)
            for z in np.eye(curve.n_samples)]
    return np.stack(cols, axis=1)


def dense_horizontal_project(curve, h):
    f = cc.build_frame(curve)
    rhs = np.einsum("ki,ki->k", ms.apply_L("M3", curve, h), f.v)
    zeta = np.linalg.solve(dense_vertical_operator(curve), rhs)
    return h - zeta[:, None] * (f.speed[:, None] * f.v)


def cyclic_distance(i, k, n):
    d = np.abs(i - k) % n
    return np.minimum(d, n - d)


@pytest.mark.parametrize("n", [64, 65, 400, 800])
def test_horizontal_project_matches_dense_reference(n):
    c, h = wavy_curve(n, seed=3), smooth_field(n, seed=1, closed=True)
    ref = dense_horizontal_project(c, h)
    assert np.abs(ga.horizontal_project(c, h) - ref).max() <= 1e-12 * np.abs(ref).max()


def test_vertical_bands_are_the_dense_entries():
    # the operator has cyclic half-width 4, the assumption behind the
    # colouring, and the probes read its band entries off exactly
    for n in (64, 65):
        c = wavy_curve(n, seed=3)
        A = dense_vertical_operator(c)
        i, k = np.indices((n, n))
        assert np.all(A[cyclic_distance(i, k, n) > 4] == 0.0)
        bands = ga._vertical_system(c, np.zeros((n, 2)))[0]
        rows = np.arange(n)
        for j in range(-4, 5):
            assert np.array_equal(bands[4 + j], A[rows, (rows + j) % n])


def split_colors(n):
    """Each index's place in its block of np.array_split(range(n), n // 9):
    the reference for the closed form of ga._probe_colors."""
    return np.concatenate([np.arange(len(block)) for block in
                           np.array_split(np.arange(n), n // 9)])


def test_probe_colors_are_far_apart():
    # n // 9 blocks of at least 9 indices, a colour per place in a block:
    # ceil(n / (n // 9)) colours, the least a colouring with at most n // 9
    # indices per colour can use, and one colour's indices at least 9 apart
    # cyclically; the closed form is the colouring of those blocks
    for n in [*range(9, 401), 799, 800, 801]:
        colors = ga._probe_colors(n)
        assert colors.shape == (n,) and colors.max() + 1 == -(-n // (n // 9)) <= 17, n
        assert np.array_equal(colors, split_colors(n)), n
        for color in range(colors.max() + 1):
            at = np.flatnonzero(colors == color)
            assert np.diff(np.append(at, at[0] + n)).min() >= 9, (n, color)


def test_horizontal_project_cost(monkeypatch):
    # apply_L on the 10 probe fields and h in the fewest even blocks below
    # _STACK_BYTES (11 columns of 12.8 kB: blocks of 6 and 5), and no dense
    # solve or inverse larger than the 8 x 8 capacitance matrix of the
    # banded factorization
    n = 800
    c, h = wavy_curve(n, seed=3), smooth_field(n, seed=1, closed=True)
    apply_L, calls, sizes = ga.apply_L, [], []

    def counted(metric, curve, u):
        calls.append(np.asarray(u).nbytes)
        return apply_L(metric, curve, u)
    monkeypatch.setattr(ga, "apply_L", counted)
    for name in ("solve", "inv"):
        def recorded(a, *args, dense=getattr(np.linalg, name)):
            sizes.append(np.shape(a)[-1])
            return dense(a, *args)
        monkeypatch.setattr(np.linalg, name, recorded)
    ga.horizontal_project(c, h)
    assert calls == [6 * h.nbytes, 5 * h.nbytes]
    assert max(calls) < ga._STACK_BYTES
    assert sizes and max(sizes) <= 8


def test_horizontal_project_needs_nine_samples():
    c8 = circle(8)
    with pytest.raises(BadInput, match="at least 9 samples"):
        ga.horizontal_project(c8, smooth_field(8, seed=1, closed=True))
    c9, h9 = circle(9), smooth_field(9, seed=1, closed=True)
    ref = dense_horizontal_project(c9, h9)
    assert np.abs(ga.horizontal_project(c9, h9) - ref).max() <= 1e-12 * np.abs(ref).max()


def test_singular_vertical_operator(monkeypatch):
    # zero bands fail the banded factorization; NaN bands get through it
    # and fail the solver's residual check, so no solution that is not
    # finite comes back
    n = 32
    c, h = circle(n), smooth_field(n, seed=1, closed=True)
    factor = ga.CyclicFactor
    for fill, words in ((0.0, "singular matrix"), (np.nan, "failed to converge")):
        monkeypatch.setattr(ga, "CyclicFactor",
                            lambda bands, fill=fill: factor(np.full_like(bands, fill)))
        with pytest.raises(SingularVerticalOperator, match=f"singular .*{words}"):
            ga.horizontal_project(c, h)


def test_shape_geodesic_monitoring():
    n = 64
    th = (2 * np.pi / n) * np.arange(n)
    c = circle(n)
    h = -np.stack([2 - np.cos(2 * th), 2 * np.sin(2 * th)], 1)
    path = ga.shape_geodesic(c, h, T=0.3, steps=120, snapshots=13)
    rel = path.diagnostics["horizontality_rel"]
    assert rel.max() <= 10.0 * rel[0]
    zero = ga.shape_geodesic(c, np.zeros((n, 2)), T=0.1, steps=20, snapshots=5)
    assert np.abs(zero.curves[-1].points - zero.curves[0].points).max() < 1e-10


def test_path_export(tmp_path):
    c0, c1 = open_circle(64, 1.0), open_circle(64, 2.0)
    path = ga.geodesic_bvp("M2", c0, c1, K=5)
    out = tmp_path / "path"
    path.export(out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["metric"] == "M2"
    assert len(manifest["curves"]) == 5
    loaded = cc.load_curve(out / manifest["curves"][2])
    assert loaded.n_samples == 64


def test_path_export_writes_the_trace(tmp_path):
    # an M3 shooting path exports its Levenberg-Marquardt trace as
    # trace.json beside the manifest, in plain JSON; an initial value path
    # has no trace and writes none
    n = 32
    th = (2 * np.pi / n) * np.arange(n)
    c1 = cc.DiscreteCurve(np.stack([1.15 * np.cos(th), 0.87 * np.sin(th)], 1), True)
    path = ga.geodesic_bvp("M3", circle(n), c1, K=5, T=1.0, dt=0.05, modes=4, tol=5e-3,
                           max_iter=25)
    path.export(tmp_path / "bvp")
    trace = json.loads((tmp_path / "bvp" / "trace.json").read_text())
    assert trace["lm"] == path.diagnostics["trace"]["lm"] and trace["lm"]
    ivp = ga.geodesic_ivp("M3", circle(n), np.stack([np.zeros(n), np.sin(th)], 1), 0.1,
                          steps=10, snapshots=3)
    ivp.export(tmp_path / "ivp")
    assert (tmp_path / "ivp" / "manifest.json").exists()
    assert not (tmp_path / "ivp" / "trace.json").exists()


def test_grid_mismatch_rejected():
    with pytest.raises(CurveflowError):
        ga.distance("M1", open_circle(64), open_circle(96))


def test_m2_distance_matches_time_quadrature():
    c0, c1 = open_circle(96, 1.0), open_circle(96, 2.2)
    d = ga.distance("M2", c0, c1)
    path = ga.geodesic_bvp("M2", c0, c1, K=257)
    qs = path.diagnostics["rspace"]
    times = np.asarray(path.times)
    tau = cc.trapezoid_weights(96, False)
    dth = 2 * np.pi / 95
    length = 0.0
    for j in range(len(times) - 1):
        mid = 0.5 * (qs[j] + qs[j + 1])
        dq = qs[j + 1] - qs[j]
        g = np.stack([4 * np.ones(96), mid[:, 0] ** -6], 1)
        length += np.sqrt(np.sum(tau * np.sum(g * dq ** 2, axis=1)) * dth)
    assert abs(length - d.value) / d.value < 1e-4
