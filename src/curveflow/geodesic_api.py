"""Geodesic initial/boundary value solvers and distances per metric.

Dispatch:
    M1  flat transform target: straight-line interpolation / rays, exact.
    M2  pointwise fiber geodesics of the half-plane model, exact per theta.
    M3  RATTLE on the constrained transform-space system; boundary value
        problems by momentum shooting over a reduced Fourier basis.
    M4  transforms only (no boundary solver).

Inputs are centered (the metrics ignore translations); M1/M2 inputs are
additionally rotated onto the ds-mean-zero turning angle section.  Each
step of these pipelines has one definition here: the move onto the section
(`_on_section`), the reconstruction of snapshots (`_curves`), the L2 norm
on the theta grid (`_l2`), the consistent M3 initial momentum
(`_consistent_momentum`), the M3 vertical pairing (`_vertical_pairing`) and
the vertical field zeta c' (`_vertical_field`).  The M3 shooting velocity
is the raw free-component lift, which the consistent momentum projects once.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .constrained_hamiltonian import (
    HamiltonianState,
    SimulationResult,
    _position_tangent,
    _tangent_momentum,
    project_to_manifold,
    simulate,
)
from .curve_core import (
    DiscreteCurve,
    _check_field,
    build_frame,
    center,
    curve_length,
    integrate_ds,
    save_curve,
    section_rotation,
    trapezoid_weights,
)
from .errors import (
    BadInput,
    CurveflowError,
    DomainExit,
    NewtonDivergence,
    ShootingStall,
    SingularSystem,
    SingularVerticalOperator,
    StepLeftDomain,
)
from .metric_suite import MetricId, apply_L
from .pointwise_geometry import _solve_fibers, dist2_lower_bound, g_apply, integrate_spray2
from .rtransform import (
    CyclicFactor,
    RPoint,
    _forward_diff,
    dr,
    project_image,
    r_forward,
    r_inverse,
    weighted_inner,
)


@dataclass
class GeodesicPath:
    """Time-indexed sequence of curves with per-step diagnostics."""

    metric_id: MetricId
    times: np.ndarray
    curves: list
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_snapshots(self) -> int:
        return len(self.curves)

    def export(self, outdir) -> None:
        """JSON manifest + per-snapshot curve files + diagnostics CSV."""
        os.makedirs(outdir, exist_ok=True)
        files = []
        for j, c in enumerate(self.curves):
            name = f"curve_{j:04d}.json"
            save_curve(c, os.path.join(outdir, name))
            files.append(name)
        manifest = {
            "metric": self.metric_id.value,
            "times": [float(t) for t in self.times],
            "curves": files,
        }
        with open(os.path.join(outdir, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=1)
            fh.write("\n")
        scalars = {k: np.asarray(v) for k, v in self.diagnostics.items()
                   if np.ndim(v) == 1 and len(np.asarray(v)) == len(self.times)}
        if scalars:
            header = "t," + ",".join(scalars)
            data = np.stack([np.asarray(self.times)]
                            + [scalars[k] for k in scalars], axis=1)
            np.savetxt(os.path.join(outdir, "diagnostics.csv"), data,
                       delimiter=",", header=header, comments="")


@dataclass
class DistanceResult:
    """Geodesic distance plus the provable lower bounds."""

    value: float
    lower_bounds: dict
    details: dict = field(default_factory=dict)

    def __float__(self):
        return float(self.value)


def _on_section(metric_id: MetricId, c0: DiscreteCurve, u0=None):
    """The M1/M2 transform of c0 centred and rotated onto the section; with
    u0 also dr of u0 rotated alike (centering shifts only the curve)."""
    c0 = center(c0)
    rot = section_rotation(c0)
    c0 = c0.with_points(c0.points @ rot.T)
    q0 = r_forward(metric_id, c0)
    if u0 is None:
        return q0
    return q0, dr(metric_id, c0, u0 @ rot.T)


def _curves(metric_id: MetricId, qs, closed: bool, winding=None) -> list:
    """The curves reconstructed from the transform snapshots qs."""
    return [r_inverse(RPoint(metric_id, q, closed, winding)) for q in qs]


def _l2(values, closed: bool) -> float:
    """sqrt(sum_k tau_k |x_k|^2 dtheta): the L2 norm of samples x_k on the
    theta grid (the L2(g) norm of the flat M1 target)."""
    n = values.shape[0]
    tau = trapezoid_weights(n, closed).reshape((n,) + (1,) * (values.ndim - 1))
    dth = 2.0 * np.pi / (n if closed else n - 1)
    return float(np.sqrt(np.sum(tau * values ** 2) * dth))


def _snapshots(total: int, K: int) -> np.ndarray:
    """Indices of K snapshots spread evenly over steps 0..total (fewer if
    K > total + 1)."""
    return np.unique(np.round(np.linspace(0, total, K)).astype(int))


def _require(cond, message):
    if not cond:
        raise CurveflowError(message)


def _require_count(name, value, least):
    _require(isinstance(value, (int, np.integer)) and not isinstance(value, bool)
             and value >= least,
             f"{name} must be an integer of at least {least}, got {value!r}")


def _require_sizes(T, snapshots, steps=1):
    _require_count("steps", steps, 1)
    _require_count("snapshots", snapshots, 2)
    _require(np.isfinite(T) and T > 0, f"T must be finite and positive, got {T}")


def _require_open(metric_id, c0):
    """The exact M1/M2 solvers work on open curves: on closed ones the
    transform-space segment leaves the image, so its length is only a
    lower bound."""
    _require(not c0.closed, f"{metric_id.value} boundary solver works on open curves")


def _require_known(metric_id, options, known=()):
    unknown = ", ".join(sorted(set(options).difference(known)))
    _require(not unknown, f"unknown {metric_id.value} option(s): {unknown}")


# -- boundary value problems --------------------------------------------------

def geodesic_bvp(metric_id, c0: DiscreteCurve, c1: DiscreteCurve, K: int = 17,
                 T: float = 1.0, **options) -> GeodesicPath:
    """Geodesic connecting c0 to c1, returned as K snapshots on [0, T];
    options are the M3 shooting settings (dt, modes, tol, max_iter)."""
    metric_id = MetricId.parse(metric_id)
    _require_sizes(T, K)
    _require_known(metric_id, options,
                   _SHOOTING_DEFAULTS if metric_id is MetricId.M3 else ())
    _require(c0.n_samples == c1.n_samples and c0.closed == c1.closed,
             "endpoint curves must share the sampling grid")
    if metric_id is MetricId.M1:
        _require_open(metric_id, c0)
        return _bvp_flat(c0, c1, K, T)
    if metric_id is MetricId.M2:
        _require_open(metric_id, c0)
        return _bvp_fiberwise(c0, c1, K, T)
    if metric_id is MetricId.M3:
        _require(c0.closed, "M3 works on closed curves")
        return _bvp_shooting(c0, c1, K, T, **(_SHOOTING_DEFAULTS | options))
    raise CurveflowError("no boundary solver for the full H2 transform (M4)")


def _bvp_flat(c0, c1, K, T) -> GeodesicPath:
    q0, q1 = _on_section(MetricId.M1, c0), _on_section(MetricId.M1, c1)
    times = np.linspace(0.0, T, K)
    s = (times / T)[:, None, None]
    qs = (1.0 - s) * q0.q + s * q1.q
    dist = _l2(q1.q - q0.q, False)
    return GeodesicPath(MetricId.M1, times, _curves(MetricId.M1, qs, False),
                        {"rspace": qs, "distance": dist,
                         "energy": dist ** 2 / T})


def path_energy_rspace(path: GeodesicPath) -> float:
    """Time quadrature of the squared transform-space speed (M1 paths)."""
    qs = path.diagnostics["rspace"]
    closed = path.curves[0].closed
    return float(sum(_l2((qs[j + 1] - qs[j]) / dt, closed) ** 2 * dt
                     for j, dt in enumerate(np.diff(path.times))))


def _bvp_fiberwise(c0, c1, K, T) -> GeodesicPath:
    q0, q1 = _on_section(MetricId.M2, c0), _on_section(MetricId.M2, c1)
    geo = _solve_fibers(q0.q, q1.q, full=True, samples=K)
    qs = np.ascontiguousarray(geo.points.transpose(1, 0, 2))
    return GeodesicPath(MetricId.M2, np.linspace(0.0, T, K),
                        _curves(MetricId.M2, qs, False),
                        {"rspace": qs, "fiber_lengths": geo.length,
                         "distance": _l2(geo.length, False),
                         "initial_velocity_rspace": geo.velocities[:, 0] / T})


def _fourier_basis(n: int, modes: int) -> np.ndarray:
    th = 2.0 * np.pi * np.arange(n) / n
    cols = [np.ones(n)]
    for m in range(1, modes + 1):
        cols.append(np.cos(m * th))
        cols.append(np.sin(m * th))
    return np.stack(cols, axis=1)          # (n, 2*modes+1)


def _consistent_momentum(q0: RPoint, qdot) -> np.ndarray:
    """The consistent M3 momentum at q0 nearest the transform velocity
    qdot (n, 3), or the momenta of r velocities (n, 3, r) at once."""
    return _tangent_momentum(q0._m3, g_apply(MetricId.M3, q0.q, qdot) / q0.theta_step)[0]


def _consistent_state(q0: RPoint, qdot) -> HamiltonianState:
    """The consistent M3 state at q0 nearest the transform velocity qdot."""
    return HamiltonianState(MetricId.M3, q0.q, _consistent_momentum(q0, qdot), 0.0, q0.winding)


def _shooting_velocity(q0: RPoint, xi: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The transform velocity of the free-component coefficients xi (m, 2),
    a row per basis function and a column each for k1 and k2, or of r
    coefficient sets xi (m, 2, r) at once: the raw lift (k1, k2, 2 q1^-1 q3
    k1 + q1^2 D+ k2) of k1, k2 = basis xi[:, 0], basis xi[:, 1], left for
    _consistent_momentum to project."""
    q = q0.q
    k1, k2 = basis @ xi[:, 0], basis @ xi[:, 1]
    dk2 = _forward_diff(k2, q0.theta_step, True)
    k3 = (2.0 * q[:, 2] / q[:, 0] * k1.T + q[:, 0] ** 2 * dk2.T).T
    return np.stack([k1, k2, k3], axis=1)


def _shooting_endpoints(c0: DiscreteCurve, c1: DiscreteCurve):
    """(q0, target): the M3 points of the centred curves on the discrete
    manifold, the target's angle lift moved to the 2 pi branch nearest q0."""
    q0 = project_to_manifold(r_forward(MetricId.M3, center(c0)))
    q1 = project_to_manifold(r_forward(MetricId.M3, center(c1)))
    if q0.winding != q1.winding:
        raise CurveflowError(
            f"winding numbers differ ({q0.winding} vs {q1.winding}); "
            "no geodesic within the image")
    shift = 2.0 * np.pi * round(float(np.mean(q1.q[:, 1] - q0.q[:, 1]))
                                / (2.0 * np.pi))
    target_q = q1.q.copy()
    target_q[:, 1] -= shift
    return q0, RPoint(MetricId.M3, target_q, True, q1.winding)


def _shooting_maps(q0: RPoint, target: RPoint, T: float, steps: int):
    """The shooting residual (xi, basis) -> (r, simulation) and its exact
    Jacobian (simulation, cols) -> dr/dxi along the basis functions cols
    (n, m), at the xi that simulation came from: column 2j + c belongs to
    function j and component c, the order of xi.ravel().  r is the endpoint gap
    of `steps` RATTLE steps from the consistent state of
    _shooting_velocity(q0, xi, basis), projected to the image tangent space
    at the target and weighted by the square roots of the diagonal metric
    and the trapezoid weights.  The Jacobian differentiates the discrete
    map: xi -> initial momentum is linear at fixed q0, so its columns are
    the momenta of the unit coefficients of cols, built at once, which the
    tangent-linear RATTLE map (_position_tangent) carries to the end
    together along the residual's own stored trajectory; the projection
    and the weights are linear.  It keeps no state: the columns of the
    functions a grown basis adds, over the same simulation, append to the
    Jacobian of the old ones."""
    tau = trapezoid_weights(q0.n_samples, True)
    w = np.sqrt(np.stack([4.0 * np.ones_like(tau), target.q[:, 0] ** 2,
                          target.q[:, 0] ** -6], axis=1)
                * (tau * q0.theta_step)[:, None])

    def residual(xi, basis):
        sim = simulate(_consistent_state(q0, _shooting_velocity(q0, xi, basis)), T, T / steps,
                       _shooting=q0._m3)
        return (project_image(target, sim.qs[-1] - target.q) * w).ravel(), sim

    def jacobian(sim, cols):
        r = 2 * cols.shape[1]
        units = _consistent_momentum(q0, _shooting_velocity(q0, np.eye(r).reshape(-1, 2, r), cols))
        dq = _position_tangent(sim, T / steps, units)
        return (project_image(target, dq) * w[..., None]).reshape(-1, r)

    return residual, jacobian


# tol is relative to the transform-space distance of the endpoints
_SHOOTING_DEFAULTS = {"dt": 1e-2, "modes": 10, "tol": 1e-4, "max_iter": 40}


def _bvp_shooting(c0, c1, K, T, dt, modes, tol, max_iter) -> GeodesicPath:
    """Momentum shooting for the constrained transform-space system.

    The unknown initial momentum is parameterized by the first Fourier
    modes of the two free tangent components at q0, xi a row per basis
    function; the residual is the endpoint gap projected to the image
    tangent space at the target, minimized by damped Gauss-Newton with the
    exact Jacobian of the discrete shooting map (_shooting_maps): one
    tangent-linear pass along the residual's trajectory per Jacobian, one
    simulate call per residual.  A trial step whose simulation leaves the
    domain or whose Newton solve fails is rejected like one that does not
    decrease the residual, so the current iterate is always the best one.
    On a stall, while another iteration remains, the mode count grows by 4,
    up to 24 and below N/2 (more modes alias on N samples), and the solve
    goes on from the same residual and trajectory: xi gets zero rows, the
    same velocity, and the Jacobian appends the new functions' columns from
    one pass over that trajectory, on the factorizations its first pass
    made.  A stall at the top mode count, like running out of iterations,
    ends the solve, and a path that misses the tolerance is raised in a
    ShootingStall.  The path's "length" is the transform-space length of
    the simulation, a chord per RATTLE step.
    """
    for name, value in (("dt", dt), ("tol", tol)):
        _require(np.isfinite(value) and value > 0,
                 f"{name} must be finite and positive, got {value}")
    _require_count("modes", modes, 1)
    _require_count("max_iter", max_iter, 1)
    q0, target = _shooting_endpoints(c0, c1)
    dq_full = target.q - q0.q
    scale = np.sqrt(weighted_inner(MetricId.M3, q0.q, dq_full, dq_full, True))
    residual, jacobian = _shooting_maps(q0, target, T, max(2, int(round(T / dt))))
    top = min(24, (q0.n_samples - 1) // 2)
    modes = min(modes, top)
    basis = _fourier_basis(q0.n_samples, modes)
    delta = project_image(q0, dq_full, image_tol=1.0) / T
    xi = np.linalg.lstsq(basis, delta[:, :2], rcond=None)[0]
    r, sim = residual(xi, basis)
    rn = np.linalg.norm(r)
    J = np.empty((r.size, 0))
    lam = 1e-3
    for it in range(max_iter):
        if rn <= tol * scale:
            break
        # the columns J lacks: all of them for a new simulation, the new
        # functions' after the basis grew
        J = np.hstack([J, jacobian(sim, basis[:, J.shape[1] // 2:])])
        # Levenberg-Marquardt: the endpoint map has sloppy high-frequency
        # directions, so undamped Gauss-Newton steps leave the trust region
        jtj = J.T @ J
        jtr = J.T @ r
        diag = np.diag(np.maximum(np.diag(jtj), 1e-14))
        improved = False
        for _ in range(12):
            step = np.linalg.solve(jtj + lam * diag, -jtr)
            # a model decrease at rounding level cannot buy a real one
            if rn ** 2 - np.linalg.norm(r + J @ step) ** 2 <= 1e-6 * rn ** 2:
                break
            trial = xi + step.reshape(xi.shape)
            try:
                rc, simc = residual(trial, basis)
            except (StepLeftDomain, NewtonDivergence):   # a failed trial is rejected
                rc = None
            if rc is not None and np.linalg.norm(rc) < rn:
                xi, r, rn, sim, J = trial, rc, np.linalg.norm(rc), simc, J[:, :0]
                lam = max(lam / 3.0, 1e-10)
                improved = True
                break
            lam *= 10.0
            if lam > 1e8:      # quadratic model exhausted: basis floor reached
                break
        if not improved:
            if modes >= top or it + 1 == max_iter:
                break
            modes = min(top, modes + 4)
            basis = _fourier_basis(q0.n_samples, modes)
            xi = np.vstack([xi, np.zeros((basis.shape[1] - len(xi), 2))])
            lam = 1e-3
    path = _path_from_simulation(sim._diagnosed(), len(sim.times) - 1, K)
    path.diagnostics.update(endpoint_mismatch=rn, mismatch_scale=scale, modes=modes,
                            length=_rspace_length(sim.qs))
    if rn > tol * scale:
        raise ShootingStall("shooting did not reach tolerance",
                            best_path=path, residual=rn)
    return path


def _path_from_simulation(sim: SimulationResult, steps: int, K: int) -> GeodesicPath:
    """The snapshots of a run of `steps` RATTLE steps that sim reached."""
    idx = _snapshots(steps, K)
    idx = idx[idx < sim.qs.shape[0]]
    curves = [center(c) for c in _curves(MetricId.M3, sim.qs[idx], True, sim.winding)]
    return GeodesicPath(MetricId.M3, sim.times[idx], curves,
                        {"rspace": sim.qs[idx], "energy": sim.energy[idx],
                         "constraint_norm": sim.constraint_norm[idx],
                         "hidden_norm": sim.hidden_norm[idx],
                         "times_full": sim.times,
                         "energy_full": sim.energy,
                         "constraint_norm_full": sim.constraint_norm})


# -- initial value problems ----------------------------------------------------

def geodesic_ivp(metric_id, c0: DiscreteCurve, u0, T: float,
                 steps: int | None = None, snapshots: int = 33) -> GeodesicPath:
    """Geodesic from c0 with initial velocity field u0 on [0, T], returned
    as `snapshots` curves (fewer if steps + 1 is smaller).

    M1 is exact (straight rays in the flat target) and takes no steps; M2
    integrates the fiber sprays with `steps` RK4 steps and M3 takes `steps`
    RATTLE steps, 200 if steps is None.  A path that leaves the transform
    domain raises DomainExit with the snapshots reached.
    """
    metric_id = MetricId.parse(metric_id)
    u0 = _check_field(c0, u0, "u0")
    _require(metric_id is not MetricId.M1 or steps is None,
             f"M1 geodesics are exact; steps={steps!r} would be ignored")
    steps = 200 if steps is None else steps
    _require_sizes(T, snapshots, steps)
    if metric_id is MetricId.M1:
        _require(not c0.closed, "M1 initial value solver works on open curves")
        return _ivp_flat(c0, u0, T, snapshots)
    if metric_id is MetricId.M2:
        _require(not c0.closed, "M2 initial value solver works on open curves")
        return _ivp_fiberwise(c0, u0, T, steps, snapshots)
    if metric_id is MetricId.M3:
        _require(c0.closed, "M3 works on closed curves")
        return _ivp_rattle(c0, u0, T, steps, snapshots)
    raise CurveflowError("no initial value solver for the full H2 transform (M4)")


def _ivp_flat(c0, u0, T, K) -> GeodesicPath:
    q0, d = _on_section(MetricId.M1, c0, u0)
    neg = d < -1e-300
    exit_time = float(np.min(q0.q[neg] / -d[neg])) if np.any(neg) else np.inf
    times = np.linspace(0.0, T, K)
    live = times[times < exit_time]
    qs = q0.q + live[:, None, None] * d
    path = GeodesicPath(MetricId.M1, live, _curves(MetricId.M1, qs, False), {"rspace": qs})
    if exit_time <= T:
        raise DomainExit(
            f"geodesic leaves the space (component reaches 0) at t = {exit_time:.6g}",
            exit_time=exit_time, partial=path)
    path.diagnostics["exit_time"] = exit_time
    return path


def _ivp_fiberwise(c0, u0, T, steps, K) -> GeodesicPath:
    q0, v0 = _on_section(MetricId.M2, c0, u0)
    left = None
    try:
        times, ps, _ = integrate_spray2(q0.q, v0, T, steps)
    except DomainExit as exc:
        left = exc
        times, ps, _ = exc.partial
    idx = _snapshots(steps, K)
    idx = idx[idx < ps.shape[0]]
    path = GeodesicPath(MetricId.M2, times[idx], _curves(MetricId.M2, ps[idx], False),
                        {"rspace": ps[idx]})
    if left is not None:
        raise DomainExit(str(left), exit_time=left.exit_time, partial=path) from left
    return path


def remove_translation_component(c0: DiscreteCurve, u0) -> np.ndarray:
    """Subtract the ds-mean: the L2(ds) projection off the constant fields
    (the metric kernel itself pairs to zero against everything, so the
    quotient is realized in the L2 geometry)."""
    frame = build_frame(c0)
    mean = integrate_ds(c0, np.asarray(u0, float), frame) / curve_length(c0, frame)
    return np.asarray(u0, float) - mean


def _ivp_rattle(c0, u0, T, steps, K) -> GeodesicPath:
    c0 = center(c0)
    u0 = remove_translation_component(c0, u0)
    frame = build_frame(c0)
    q0 = project_to_manifold(r_forward(MetricId.M3, c0, frame))
    state = _consistent_state(q0, dr(MetricId.M3, c0, u0, frame))
    try:
        sim = simulate(state, T, T / steps)
    except StepLeftDomain as exc:
        raise StepLeftDomain(str(exc), exit_time=exc.exit_time,
                             partial=_path_from_simulation(exc.partial, steps, K)) from exc
    return _path_from_simulation(sim, steps, K)


# -- distances ------------------------------------------------------------------

def distance(metric_id, c0: DiscreteCurve, c1: DiscreteCurve,
             **options) -> DistanceResult:
    """Geodesic distance (exact for M1/M2 on open curves; for M3 by
    geodesic_bvp, which takes the options) with the provable
    square-root-of-length bounds."""
    metric_id = MetricId.parse(metric_id)
    _require_known(metric_id, options,
                   ("T", *_SHOOTING_DEFAULTS) if metric_id is MetricId.M3 else ())
    _require(c0.n_samples == c1.n_samples and c0.closed == c1.closed,
             "curves must share the sampling grid")
    if metric_id in (MetricId.M1, MetricId.M2):
        _require_open(metric_id, c0)
        qa, qb = _on_section(metric_id, c0), _on_section(metric_id, c1)
        bounds = {"sqrt_length": 2.0 * abs(np.sqrt(curve_length(c1))
                                           - np.sqrt(curve_length(c0)))}
        if metric_id is MetricId.M1:
            return DistanceResult(_l2(qb.q - qa.q, c0.closed), bounds)
        lengths = _solve_fibers(qa.q, qb.q, full=False)
        # the squared pointwise half-plane bound, integrated over theta
        bounds["pointwise_integral"] = _l2(dist2_lower_bound(qa.q, qb.q), c0.closed)
        return DistanceResult(_l2(lengths, c0.closed), bounds, {"fiber_lengths": lengths})
    if metric_id is MetricId.M3:
        diag = geodesic_bvp(MetricId.M3, c0, c1, K=5, **options).diagnostics
        return DistanceResult(diag["length"], {}, {"endpoint_mismatch": diag["endpoint_mismatch"]})
    raise CurveflowError("no distance solver for the full H2 transform (M4)")


def _rspace_length(qs) -> float:
    """The M3 transform-space length of the polygon through the points qs,
    each chord measured at its midpoint."""
    total = 0.0
    for a, b in zip(qs[:-1], qs[1:]):
        total += np.sqrt(weighted_inner(MetricId.M3, 0.5 * (a + b), b - a, b - a, True))
    return float(total)


# -- horizontality ---------------------------------------------------------------

def _vertical_pairing(curve: DiscreteCurve, u, frame):
    """(<L_c u, v> per sample, L_c u) for M3."""
    lu = apply_L(MetricId.M3, curve, u, frame)
    return np.einsum("ki,ki->k", lu, frame.v), lu


# apply_L for M3 composes four central differences, so the vertical
# operator zeta -> <L_c(zeta c'), v> is cyclic banded with half-width 4
_VERTICAL_HALF_WIDTH = 4


def _vertical_field(zeta, frame):
    """The vertical field zeta c' = zeta |c'| v."""
    return (zeta * frame.speed)[:, None] * frame.v


def _probe_colors(n: int) -> np.ndarray:
    """A colour per sample index such that no two indices of one colour lie
    within 2b of each other cyclically (b the half-width): k mod 2b+1 on
    the first multiple of 2b+1 indices, and a colour of its own for each
    of the n mod 2b+1 tail indices; at most 4b+1 colours."""
    w = 2 * _VERTICAL_HALF_WIDTH + 1
    whole = n - n % w
    return np.concatenate([np.arange(whole) % w, w + np.arange(n - whole)])


def _vertical_bands(curve: DiscreteCurve, frame) -> np.ndarray:
    """The (2b+1, N) bands of zeta -> <L_c(zeta c'), v> (M3), b the
    half-width, in the layout of CyclicFactor: one pairing per
    probe colour (Curtis-Powell-Reid).  Column k meets only rows within b
    of it, and columns of one colour lie more than 2b apart, so entry
    (i, k) is read off the probe of k's colour at row i."""
    n = curve.n_samples
    colors = _probe_colors(n)
    probes = np.stack([_vertical_pairing(curve, _vertical_field(colors == c, frame), frame)[0]
                       for c in range(colors.max() + 1)])
    offsets = np.arange(-_VERTICAL_HALF_WIDTH, _VERTICAL_HALF_WIDTH + 1)
    rows = np.arange(n)
    return probes[colors[(rows + offsets[:, None]) % n], rows]


def horizontal_project(curve: DiscreteCurve, h) -> np.ndarray:
    """Remove the reparameterization (vertical) part of h for M3: h -
    zeta c' with <L_c(h - zeta c'), v> = 0.  The operator is cyclic banded
    (_vertical_bands), so the cost is O(N): at most 17 apply_L probes and
    one cyclic banded solve, which needs at least 9 samples."""
    h = _check_field(curve, h, "h")
    least = 2 * _VERTICAL_HALF_WIDTH + 1
    if curve.n_samples < least:
        raise BadInput(f"horizontal projection needs at least {least} samples, "
                       f"got {curve.n_samples}")
    frame = build_frame(curve)
    rhs = _vertical_pairing(curve, h, frame)[0]
    try:
        zeta = CyclicFactor(_vertical_bands(curve, frame)).solve(rhs)
    except SingularSystem as exc:
        raise SingularVerticalOperator(f"vertical operator is singular ({exc})") from exc
    return h - _vertical_field(zeta, frame)


def _horizontality(curve: DiscreteCurve, u):
    """(sup |<L_c u, v>|, the same relative to sup |L_c u|) for M3."""
    pairing, lu = _vertical_pairing(curve, np.asarray(u, float), build_frame(curve))
    resid = float(np.max(np.abs(pairing)))
    scale = float(np.max(np.abs(lu)))
    return resid, (resid / scale if scale > 0.0 else 0.0)


def horizontality_residual(curve: DiscreteCurve, u) -> float:
    """sup |<L_c u, v>| for M3."""
    return _horizontality(curve, u)[0]


def shape_geodesic(c0: DiscreteCurve, h, T: float, steps: int = 200,
                   snapshots: int = 33) -> GeodesicPath:
    """Horizontal geodesic: the initial velocity is projected to the
    horizontal space first, and the reparameterization momentum
    <L_c c_t, v> is monitored (not enforced) along the path, both in
    absolute terms and relative to sup |L_c c_t|."""
    _require_sizes(T, snapshots, steps)
    h_hor = horizontal_project(c0, h)
    path = geodesic_ivp(MetricId.M3, c0, h_hor, T, steps=steps,
                        snapshots=snapshots)
    times = np.asarray(path.times)
    resid = np.empty(len(path.curves))
    resid_rel = np.empty(len(path.curves))
    stack = np.stack([c.points for c in path.curves])
    for j, c in enumerate(path.curves):
        if j == 0:
            ct = (stack[1] - stack[0]) / (times[1] - times[0])
        elif j == len(path.curves) - 1:
            ct = (stack[-1] - stack[-2]) / (times[-1] - times[-2])
        else:
            ct = (stack[j + 1] - stack[j - 1]) / (times[j + 1] - times[j - 1])
        resid[j], resid_rel[j] = _horizontality(c, ct)
    path.diagnostics["horizontality"] = resid
    path.diagnostics["horizontality_rel"] = resid_rel
    return path
