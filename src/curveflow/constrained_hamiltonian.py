"""Spatially discretized constrained Hamiltonian system in transform space
and its RATTLE time stepper.

The Hamiltonian is E(q, p) = (1/2) sum_k g^{-1}_{q^k}(p^k, p^k) dtheta on
N uniformly sampled points.  The constraints are position-only:

    H_diff^k = (w^k + w^{k+1})/2 - (q2^{k+1} - q2^k)/dtheta,  w = q1^{-2} q3
    H_cl     = sum_k (q1^k)^2 exp(i q2^k) dtheta             (2 rows)

(for the 4-component system the derivative rows are the forward-difference
pair q3 - 2 q1^{-1} q1', q4 - q1^2 q2', giving 2N+2 constraints; it is
available behind the metric id but has no built-in experiments).  The M3
derivative rows are the trapezoid (box-scheme) form centred at the half
nodes, second-order consistent; their value, linearization, transpose and
Gram bands are defined once in rtransform (m3_diff_*) and used here.

One RATTLE step solves the five update equations: an implicit momentum
half-step with DH^T(q^j) lambda_1, an implicit-midpoint position step,
H(q^{j+1}) = 0 closing the nonlinear system for (p^{1/2}, q^{j+1},
lambda_1) by Newton with the analytic Jacobian, an explicit momentum
half-step, and the hidden constraint DH(q).dE/dp = 0, enforced through
lambda_2 by the L2(g) projection p -> g P(g^-1 p) onto the constraint
tangent space (rtransform._project_op_m3 for M3, shared with
project_consistent; a dense Gram solve for M4).  Note the potential
gradient is evaluated at (q^j, p^{j+1/2}) in the first half-step exactly
as printed (implicit in p only), not at classical RATTLE's arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NewtonDivergence, RankDeficiency, SingularSystem, StepLeftDomain
from .metric_suite import MetricId
from .pointwise_geometry import g_grad, g_inv_matrix, g_inv_quad
from .rtransform import (
    RPoint,
    _closure_coeffs,
    _forward_diff,
    _m3_rate,
    _m3_rate_partials,
    _project_op_m3,
    m3_diff_apply,
    m3_diff_value,
    m4_diff_value,
)

TOL_CONSTRAINT = 1e-9


@dataclass(frozen=True)
class HamiltonianState:
    """Paired position/momentum arrays for the transform-space system."""

    metric_id: MetricId
    q: np.ndarray          # (N, d)
    p: np.ndarray          # (N, d)
    t: float = 0.0
    winding: int = 0

    def __post_init__(self):
        object.__setattr__(self, "metric_id", MetricId.parse(self.metric_id))
        q = np.asarray(self.q, dtype=float)
        p = np.asarray(self.p, dtype=float)
        if q.shape != p.shape or q.ndim != 2 or q.shape[1] != self.metric_id.fiber_dim:
            raise ValueError("q and p must both be (N, d) arrays")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @property
    def n_samples(self) -> int:
        return self.q.shape[0]

    @property
    def theta_step(self) -> float:
        return 2.0 * np.pi / self.n_samples

    def rpoint(self) -> RPoint:
        return RPoint(self.metric_id, self.q, True, self.winding)


class ConstraintSystem:
    """Discrete constraints H(q) = 0 and their dense Jacobian for the
    closed-curve image of one transform.  The q2 lift wraps by
    2 pi * winding across the seam."""

    def __init__(self, metric_id, n: int, winding: int = 0):
        self.metric_id = MetricId.parse(metric_id)
        if self.metric_id not in (MetricId.M3, MetricId.M4):
            raise ValueError("constraint system exists for the M3/M4 transforms")
        self.n = n
        self.d = self.metric_id.fiber_dim
        self.dtheta = 2.0 * np.pi / n
        self.winding = winding
        self.n_constraints = (n + 2) if self.metric_id is MetricId.M3 else (2 * n + 2)

    def value(self, q: np.ndarray) -> np.ndarray:
        dth = self.dtheta
        q1, q2 = q[:, 0], q[:, 1]
        wrap = 2.0 * np.pi * self.winding
        cl = np.array([np.sum(q1 ** 2 * np.cos(q2)) * dth,
                       np.sum(q1 ** 2 * np.sin(q2)) * dth])
        diff = m3_diff_value if self.metric_id is MetricId.M3 else m4_diff_value
        return np.concatenate([diff(q, dth, True, wrap), cl])

    def jacobian(self, q: np.ndarray) -> np.ndarray:
        n, d, dth = self.n, self.d, self.dtheta
        q1, q2 = q[:, 0], q[:, 1]
        jac = np.zeros((self.n_constraints, n, d))
        idx = np.arange(n)
        nxt = (idx + 1) % n
        if self.metric_id is MetricId.M3:
            rows = idx
            gw1, gw3 = _m3_rate_partials(q)
            jac[rows, idx, 0] += 0.5 * gw1
            jac[rows, nxt, 0] += 0.5 * gw1[nxt]
            jac[rows, idx, 2] += 0.5 * gw3
            jac[rows, nxt, 2] += 0.5 * gw3[nxt]
            jac[rows, idx, 1] += 1.0 / dth
            jac[rows, nxt, 1] -= 1.0 / dth
            base = n
        else:
            d1 = _forward_diff(q1, dth, True)
            d2 = _forward_diff(q2, dth, True, 2.0 * np.pi * self.winding)
            rows = idx
            jac[rows, idx, 0] = 2.0 * q1 ** -2 * d1 + 2.0 * q1 ** -1 / dth
            jac[rows, nxt, 0] += -2.0 * q1 ** -1 / dth
            jac[rows, idx, 2] = 1.0
            rows = n + idx
            jac[rows, idx, 0] = -2.0 * q1 * d2
            jac[rows, idx, 1] += q1 ** 2 / dth
            jac[rows, nxt, 1] -= q1 ** 2 / dth
            jac[rows, idx, 3] = 1.0
            base = 2 * n
        jac[base:, :, :2] = _closure_coeffs(q, dth).transpose(0, 2, 1)
        return jac.reshape(self.n_constraints, n * d)

    # the M3 product DH . X is structured: the derivative rows touch only
    # samples k, k+1 and the two closedness rows are dense, so it is O(n).

    def apply(self, q: np.ndarray, X: np.ndarray) -> np.ndarray:
        """DH(q) . X for X of shape (n, d) or (n, d, r)."""
        if self.metric_id is not MetricId.M3:
            return self.jacobian(q) @ X.reshape(self.n * self.d, -1) \
                if X.ndim == 3 else self.jacobian(q) @ X.reshape(-1)
        cl = np.tensordot(_closure_coeffs(q, self.dtheta), X[:, :2],
                          axes=([2, 1], [0, 1]))
        return np.concatenate([m3_diff_apply(q, X, self.dtheta), cl], axis=0)

    def apply_transpose(self, q: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """DH(q)^T . lam, shaped (n, d), from the dense Jacobian."""
        return (self.jacobian(q).T @ lam).reshape(self.n, self.d)

    def gram(self, q: np.ndarray, gi: np.ndarray) -> np.ndarray:
        """Dense S = DH g^{-1} DH^T; gi is (n, d, d)."""
        jac = self.jacobian(q)
        jt = jac.reshape(-1, self.n, self.d).transpose(1, 0, 2)
        jg = np.matmul(jt, gi).transpose(1, 0, 2).reshape(-1, self.n * self.d)
        return jg @ jac.T


# -- energy ------------------------------------------------------------------

def discrete_energy(state: HamiltonianState) -> float:
    """E = (1/2) sum_k g^{-1}_{q^k}(p^k, p^k) dtheta."""
    vals = g_inv_quad(state.metric_id, state.q, state.p)
    return 0.5 * float(np.sum(vals)) * state.theta_step


def energy_grad_p(metric_id, q, p, dtheta) -> np.ndarray:
    gi = g_inv_matrix(metric_id, q)
    return np.einsum("kij,kj->ki", gi, p) * dtheta


def energy_grad_q(metric_id, q, p, dtheta) -> np.ndarray:
    return 0.5 * g_grad(metric_id, q, p) * dtheta


def _d_ginvp_dq(metric_id, q, p) -> np.ndarray:
    """T[k, a, j] = d (g^{-1}_q p)_j / d q_a, the only nonzero rows being
    q1 (all metrics) and q4 (M4)."""
    metric_id = MetricId.parse(metric_id)
    n, d = q.shape
    T = np.zeros((n, d, d))
    q1 = q[:, 0]
    if metric_id is MetricId.M3:
        T[:, 0, 1] = -2.0 * q1 ** -3 * p[:, 1]
        T[:, 0, 2] = 6.0 * q1 ** 5 * p[:, 2]
    elif metric_id is MetricId.M4:
        q4 = q[:, 3]
        p2, p3, p4 = p[:, 1], p[:, 2], p[:, 3]
        T[:, 0, 1] = -2.0 * q1 ** -3 * p2 - 4.0 * q4 * q1 ** -5 * p3
        T[:, 0, 2] = -4.0 * q4 * q1 ** -5 * p2 + (2.0 * q1 - 6.0 * q4 ** 2 * q1 ** -7) * p3
        T[:, 0, 3] = 6.0 * q1 ** 5 * p4
        T[:, 3, 1] = q1 ** -4 * p3
        T[:, 3, 2] = q1 ** -4 * p2 + 2.0 * q4 * q1 ** -6 * p3
    elif metric_id is MetricId.M2:
        T[:, 0, 1] = 6.0 * q1 ** 5 * p[:, 1]
    return T


# -- consistency --------------------------------------------------------------

def _reset_m3_rate(q: np.ndarray, dth: float, wrap: float) -> None:
    """Zero the M3 derivative rows in place by resetting q3: solve the
    cyclic average (w_k + w_{k+1})/2 = D+q2_k for w = q1^-2 q3.

    On even grids the average annihilates the alternating vector, so D+q2
    must have no alternating part: it is moved into a shift of q2 of the
    same size (dtheta/2 times it), and w keeps the alternating part of its
    current value."""
    n = q.shape[0]
    rate = _forward_diff(q[:, 1], dth, True, wrap)
    symbol = 0.5 * (1.0 + np.exp(2j * np.pi * np.arange(n) / n))
    rate_hat = np.fft.fft(rate)
    if n % 2 == 0:
        alt = (-1.0) ** np.arange(n)
        q[:, 1] += 0.5 * dth * (alt @ rate / n) * alt  # D+ of it: -(alt part)
        symbol[n // 2] = 1.0
        rate_hat[n // 2] = alt @ _m3_rate(q)
    w = np.fft.ifft(rate_hat / symbol).real
    q[:, 2] = q[:, 0] ** 2 * w


def project_to_manifold(rpoint: RPoint, tol: float = 1e-13,
                        max_iter: int = 30) -> RPoint:
    """Move an RPoint (e.g. a raw transform of a closed curve) onto the
    discrete constraint manifold: the derivative components are reset (for
    M3 only q3, by _reset_m3_rate; for M4 q3 and q4 from the forward
    differences), then a small Newton iteration on (q1, q2) zeroes the
    closedness rows.  For M3 the move is O(dtheta^2) for transforms of
    genuinely closed curves."""
    mid = rpoint.metric_id
    system = ConstraintSystem(mid, rpoint.n_samples, rpoint.winding or 0)
    q = rpoint.q.copy()
    dth = system.dtheta
    wrap = 2.0 * np.pi * system.winding
    for _ in range(max_iter):
        if mid is MetricId.M3:
            _reset_m3_rate(q, dth, wrap)
        else:
            q[:, 2] = 2.0 * q[:, 0] ** -1 * _forward_diff(q[:, 0], dth, True)
            q[:, 3] = q[:, 0] ** 2 * _forward_diff(q[:, 1], dth, True, wrap)
        cl = system.value(q)[-2:]
        if np.max(np.abs(cl)) < tol:
            return RPoint(mid, q, True, system.winding)
        # Newton on the closedness pair along its Euclidean gradient span
        gc = _closure_coeffs(q, dth)
        mu = np.linalg.solve(np.einsum("ijk,ljk->il", gc, gc), cl)
        q[:, :2] -= np.einsum("ijk,i->kj", gc, mu)
    raise NewtonDivergence("manifold projection did not converge")


def _tangent_momentum(system: ConstraintSystem, q: np.ndarray, p: np.ndarray,
                      gi: np.ndarray) -> np.ndarray:
    """p - DH^T mu with DH g^{-1} (p - DH^T mu) = 0, i.e. g P(g^{-1} p):
    _project_op_m3 for M3, a dense Gram solve for M4.  Raises
    SingularSystem or LinAlgError."""
    if system.metric_id is MetricId.M3:
        gi_diag = np.einsum("kii->ki", gi)
        return _project_op_m3(q, gi_diag * p, system.dtheta, closure=True,
                              gi_diag=gi_diag) / gi_diag
    S = system.gram(q, gi)
    rhs = system.apply(q, np.matmul(gi, p[:, :, None])[:, :, 0])
    mu = np.linalg.solve(S, rhs)
    if not np.all(np.isfinite(mu)) or np.linalg.norm(S @ mu - rhs) > 1e-8 * (
            1.0 + np.linalg.norm(rhs)):
        raise SingularSystem("constraint Gram solve failed")
    return p - system.apply_transpose(q, mu)


def project_consistent(rpoint: RPoint, p_raw: np.ndarray) -> HamiltonianState:
    """Remove the constraint-normal part of a raw momentum: p = p_raw -
    DH^T mu with DH g^{-1} (p_raw - DH^T mu) = 0, so the hidden constraint
    holds at (q, p)."""
    mid = rpoint.metric_id
    system = ConstraintSystem(mid, rpoint.n_samples, rpoint.winding or 0)
    q = np.asarray(rpoint.q, dtype=float)
    try:
        p = _tangent_momentum(system, q, np.asarray(p_raw, dtype=float),
                              g_inv_matrix(mid, q))
    except (np.linalg.LinAlgError, SingularSystem) as exc:
        raise RankDeficiency(f"constraint Gram system is singular: {exc}") from exc
    return HamiltonianState(mid, q, p, 0.0, system.winding)


def hidden_residual(state: HamiltonianState,
                    system: ConstraintSystem | None = None) -> float:
    if system is None:
        system = ConstraintSystem(state.metric_id, state.n_samples, state.winding)
    dp = energy_grad_p(state.metric_id, state.q, state.p, state.theta_step)
    return float(np.max(np.abs(system.apply(state.q, dp))))


# -- RATTLE -------------------------------------------------------------------

class MetricOps:
    """Energy callables of the metric-id system (the default)."""

    def __init__(self, metric_id, dtheta: float):
        self.metric_id = MetricId.parse(metric_id)
        self.dtheta = dtheta

    def grad_p(self, q, p):
        return energy_grad_p(self.metric_id, q, p, self.dtheta)

    def grad_q(self, q, p):
        return energy_grad_q(self.metric_id, q, p, self.dtheta)

    def ginv(self, q):
        return g_inv_matrix(self.metric_id, q)

    def dginvp_dq(self, q, p):
        return _d_ginvp_dq(self.metric_id, q, p)


class NullConstraints:
    """Empty constraint set (free Hamiltonian system)."""

    n_constraints = 0

    def value(self, q):
        return np.zeros(0)

    def jacobian(self, q):
        return np.zeros((0, q.size))


def rattle_step(state: HamiltonianState, dt: float,
                system=None, tol: float = 1e-12, max_iter: int = 50,
                lam_guess: np.ndarray | None = None, ops=None):
    """One RATTLE step.  Returns (new_state, lambda_1) so callers can warm
    start the next step's multiplier."""
    mid = state.metric_id
    if system is None:
        system = ConstraintSystem(mid, state.n_samples, state.winding)
    n, d = state.q.shape
    dth = state.theta_step
    if ops is None:
        ops = MetricOps(mid, dth)
    m = system.n_constraints
    q0, p0 = state.q, state.p
    fast_m3 = state.metric_id is MetricId.M3 and type(ops) is MetricOps \
        and type(system) is ConstraintSystem and system.metric_id is MetricId.M3

    ph = p0.copy()
    q1 = q0 + dt * ops.grad_p(q0, p0)  # explicit predictor
    lam = np.zeros(m) if lam_guess is None else lam_guess.copy()

    gi0 = ops.ginv(q0)
    if m:
        jac0_t = system.jacobian(q0).reshape(m, n, d).transpose(1, 2, 0)
        B = -0.5 * dt * jac0_t                                   # (n, d, m)
    history = []
    eye = np.eye(d)
    gi0_diag = np.einsum("kii->ki", gi0).copy() if fast_m3 else None
    half = 0.5 * dt * dth
    for it in range(max_iter):
        if np.any(q1[:, 0] <= 0.0):
            raise StepLeftDomain(
                "position update reached q1 <= 0; use a smaller time step",
                exit_time=state.t)
        f1 = (ph - p0 + 0.5 * dt * ops.grad_q(q0, ph)
              - 0.5 * dt * (jac0_t @ lam if m else 0.0))
        f2 = (q1 - q0 - 0.5 * dt * (ops.grad_p(q0, ph) + ops.grad_p(q1, ph)))
        f3 = system.value(q1)
        res = max(np.max(np.abs(f1)), np.max(np.abs(f2)),
                  np.max(np.abs(f3)) if m else 0.0)
        history.append(res)
        if res < tol:
            break
        if fast_m3:
            # A = I + e0 (x) a is unit upper triangular, D = I - t (x) e0
            # unit lower triangular, C diagonal: eliminate by row operations.
            a1 = half * (-2.0 * q0[:, 0] ** -3 * ph[:, 1])
            a2 = half * (6.0 * q0[:, 0] ** 5 * ph[:, 2])
            gi1_diag = np.stack([np.full(n, 0.25), q1[:, 0] ** -2,
                                 q1[:, 0] ** 6], axis=1)
            cdiag = -half * (gi0_diag + gi1_diag)
            t1 = half * (-2.0 * q1[:, 0] ** -3 * ph[:, 1])
            t2 = half * (6.0 * q1[:, 0] ** 5 * ph[:, 2])

            u1 = f1.copy()
            u1[:, 0] -= a1 * f1[:, 1] + a2 * f1[:, 2]
            AB = B.copy()
            AB[:, 0, :] -= a1[:, None] * B[:, 1, :] + a2[:, None] * B[:, 2, :]
            wq = -f2 + cdiag * u1
            wq[:, 1] += t1 * wq[:, 0]
            wq[:, 2] += t2 * wq[:, 0]
            Wq = cdiag[:, :, None] * AB
            Wq[:, 1, :] += t1[:, None] * Wq[:, 0, :]
            Wq[:, 2, :] += t2[:, None] * Wq[:, 0, :]
            GW = system.apply(q1, Wq)
            rhs3 = -f3 - system.apply(q1, wq)
        else:
            gi1 = ops.ginv(q1)
            A = eye + half * ops.dginvp_dq(q0, ph)
            C = -half * (gi0 + gi1)
            D = eye - half * np.transpose(ops.dginvp_dq(q1, ph), (0, 2, 1))
            if m:
                sol1 = np.linalg.solve(
                    A, np.concatenate([f1[:, :, None], B], axis=2))
                u1, AB = sol1[:, :, 0], sol1[:, :, 1:]
                rhs2 = np.concatenate(
                    [-f2[:, :, None] + np.matmul(C, u1[:, :, None]),
                     np.matmul(C, AB)], axis=2)
                sol2 = np.linalg.solve(D, rhs2)
                wq, Wq = sol2[:, :, 0], sol2[:, :, 1:]
                G = system.jacobian(q1)
                GW = G @ Wq.reshape(n * d, m)
                rhs3 = -f3 - G @ wq.reshape(-1)
            else:
                u1 = np.linalg.solve(A, f1[:, :, None])[:, :, 0]
                wq = np.linalg.solve(
                    D, (-f2 + np.matmul(C, u1[:, :, None])[:, :, 0])[:, :, None]
                )[:, :, 0]
        if m:
            try:
                dlam = np.linalg.solve(GW, rhs3)
            except np.linalg.LinAlgError as exc:
                raise NewtonDivergence("reduced Newton system is singular",
                                       history) from exc
            q1 = q1 + wq + Wq @ dlam
            ph = ph - u1 - AB @ dlam
            lam = lam + dlam
        else:
            q1 = q1 + wq
            ph = ph - u1
    else:
        raise NewtonDivergence(
            f"RATTLE Newton did not reach tol={tol:g} in {max_iter} iterations",
            history)

    # explicit momentum half-step + hidden-constraint projection
    p1 = ph - 0.5 * dt * ops.grad_q(q1, ph)
    if m:
        try:
            p1 = _tangent_momentum(system, q1, p1, ops.ginv(q1))
        except (np.linalg.LinAlgError, SingularSystem) as exc:
            raise NewtonDivergence("hidden-constraint system is singular",
                                   history) from exc
    new_state = HamiltonianState(mid, q1, p1, state.t + dt, state.winding)
    return new_state, lam


@dataclass
class SimulationResult:
    times: np.ndarray
    qs: np.ndarray              # (K+1, N, d)
    ps: np.ndarray
    energy: np.ndarray
    constraint_norm: np.ndarray
    hidden_norm: np.ndarray
    metric_id: MetricId
    winding: int

    def state(self, j: int) -> HamiltonianState:
        return HamiltonianState(self.metric_id, self.qs[j], self.ps[j],
                                float(self.times[j]), self.winding)

    def write_trajectory_csv(self, path) -> None:
        d = self.qs.shape[2]
        header = "t,k," + ",".join(f"q{i+1}" for i in range(d)) \
            + "," + ",".join(f"p{i+1}" for i in range(d))
        rows = []
        for j, t in enumerate(self.times):
            for k in range(self.qs.shape[1]):
                rows.append([t, k, *self.qs[j, k], *self.ps[j, k]])
        np.savetxt(path, np.asarray(rows), delimiter=",", header=header,
                   comments="")

    def write_diagnostics_csv(self, path) -> None:
        data = np.stack([self.times, self.energy, self.constraint_norm,
                         self.hidden_norm], axis=1)
        np.savetxt(path, data, delimiter=",",
                   header="t,E,Hinf,hiddenNorm", comments="")


def simulate(state: HamiltonianState, T: float, dt: float,
             tol: float = 1e-12, max_iter: int = 50) -> SimulationResult:
    """Integrate for round(T/dt) RATTLE steps with per-step diagnostics."""
    system = ConstraintSystem(state.metric_id, state.n_samples, state.winding)
    steps = int(round(T / dt))
    n, d = state.q.shape
    qs = np.empty((steps + 1, n, d))
    ps = np.empty_like(qs)
    energy = np.empty(steps + 1)
    cnorm = np.empty(steps + 1)
    hnorm = np.empty(steps + 1)
    times = dt * np.arange(steps + 1) + state.t

    def record(j, st):
        qs[j], ps[j] = st.q, st.p
        energy[j] = discrete_energy(st)
        cnorm[j] = float(np.max(np.abs(system.value(st.q))))
        hnorm[j] = hidden_residual(st, system)

    record(0, state)
    lam = None
    cur = state
    for j in range(steps):
        try:
            cur, lam = rattle_step(cur, dt, system, tol=tol,
                                   max_iter=max_iter, lam_guess=lam)
        except StepLeftDomain as exc:
            raise StepLeftDomain(
                f"simulation left the domain at t={times[j]:.6g}",
                exit_time=float(times[j]),
                partial=SimulationResult(times[: j + 1], qs[: j + 1],
                                         ps[: j + 1], energy[: j + 1],
                                         cnorm[: j + 1], hnorm[: j + 1],
                                         state.metric_id, state.winding),
            ) from exc
        record(j + 1, cur)
    return SimulationResult(times, qs, ps, energy, cnorm, hnorm,
                            state.metric_id, state.winding)
