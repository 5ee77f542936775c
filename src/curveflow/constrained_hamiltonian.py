"""Spatially discretized constrained Hamiltonian system of the M3
transform and its RATTLE time stepper.

The Hamiltonian is E(q, p) = (1/2) sum_k g^{-1}_{q^k}(p^k, p^k) dtheta on
N uniformly sampled points.  The N + 2 constraints are position-only:

    H_diff^k = (w^k + w^{k+1})/2 - (q2^{k+1} - q2^k)/dtheta,  w = q1^{-2} q3
    H_cl     = sum_k (q1^k)^2 exp(i q2^k) dtheta             (2 rows)

The derivative rows are the trapezoid (box-scheme) form centred at the
half nodes, second-order consistent.  H(q) and the products with DH are
rtransform's constraint_rows and M3Jacobian.

One RATTLE step solves the five update equations: an implicit momentum
half-step with DH^T(q^j) lambda_1, an implicit-midpoint position step,
H(q^{j+1}) = 0 closing the nonlinear system for (p^{1/2}, q^{j+1},
lambda_1) by Newton with the analytic Jacobian, an explicit momentum
half-step, and the hidden constraint DH(q).dE/dp = 0, enforced through
lambda_2 by the L2(g) projection p -> g P(g^-1 p) onto the constraint
tangent space (_tangent_momentum, shared with project_consistent).
Note the potential gradient is evaluated at (q^j, p^{j+1/2}) in the first
half-step exactly as printed (implicit in p only), not at classical
RATTLE's arguments.

Each Newton iteration eliminates the momentum and position corrections
sample by sample and solves the reduced system for the multipliers: cyclic
tridiagonal (not symmetric), bordered by the two closedness rows and
columns, so one rtransform.CyclicFactor, O(N), with g^-1 only ever read as
its diagonal (_m3_newton).  The iteration is simplified Newton
(Hairer-Lubich-Wanner, Geometric Numerical Integration, VII.1): the
matrix factored at the first iterate is reused, and factored again only
when the residual has not fallen tenfold.  simulate keeps each step's
Newton iterations, final residual and factorizations.  Each point is built
once (rtransform._M3Point, which holds g^-1 and its q1-derivatives): a
step's end point is the next one's start.

The tangent pass (_rattle_tangent, _position_tangent) differentiates the
discrete step, not the ODE, so it gives the exact derivative of the
computed endpoint, as the shooting solver needs.  It runs no Newton
iteration: simulate keeps each step's converged momentum half-step,
lambda_1 and hidden-constraint multiplier mu, and per step the pass
linearizes (f1, f2, f3) in (q0, p0) at that stored point - including
lambda_1 contracted with the q0-derivative of DH
(rtransform._m3_jacobian_tangent), carried over from the step before -
and solves for all r tangent columns at once with the Newton matrix
factored at that point, the exact Jacobian of (f1, f2, f3).  The explicit
half-step is differentiated directly, and the hidden-constraint
projection p1 - DH(q1)^T mu (p1 and mu stored, the operator moving with
q1) by one solve of the Gram system that simulate's step factored at q1.
The pass runs on the shooting solver's simulations, which keep their
points and, from the first pass on, each step's Newton factor.
rattle_step and project_consistent take p1 - DH^T mu from one helper
(_tangent_momentum), so the trajectory the pass linearizes is
simulate's, bit for bit.

The full H2 transform (M4) has transforms and constraints in rtransform
but no dynamics here.  Its two forward-difference rows per sample make the
reduced Newton system block-banded, so M4 geodesics would go through
CyclicFactor with wider bands, not a dense solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadInput,
    CurveflowError,
    NewtonDivergence,
    NonPositive,
    RankDeficiency,
    SingularSystem,
    StepLeftDomain,
)
from .metric_suite import MetricId
from .pointwise_geometry import g_grad, g_inv, g_inv_quad
from .rtransform import (
    CyclicFactor,
    RPoint,
    _closedness_newton,
    _forward_diff,
    _m3_jacobian_tangent,
    _M3Point,
    _m3_rate,
    _shift,
    constraint_rows,
)


def _constrained(metric_id: MetricId) -> MetricId:
    if metric_id is not MetricId.M3:
        raise BadInput(f"the constrained system exists for the M3 transform only, "
                       f"got {metric_id.value}")
    return metric_id


@dataclass(frozen=True)
class HamiltonianState:
    """Paired position/momentum arrays for the transform-space system."""

    metric_id: MetricId
    q: np.ndarray          # (N, 3)
    p: np.ndarray          # (N, 3)
    t: float = 0.0
    winding: int = 0

    def __post_init__(self):
        object.__setattr__(self, "metric_id", _constrained(MetricId.parse(self.metric_id)))
        q = np.asarray(self.q, dtype=float)
        p = np.asarray(self.p, dtype=float)
        if q.shape != p.shape or q.ndim != 2 or q.shape[1] != self.metric_id.fiber_dim:
            raise BadInput("q and p must both be (N, 3) arrays")
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


# -- energy ------------------------------------------------------------------

def discrete_energy(state: HamiltonianState) -> float:
    """E = (1/2) sum_k g^{-1}_{q^k}(p^k, p^k) dtheta."""
    vals = g_inv_quad(state.metric_id, state.q, state.p)
    return 0.5 * float(np.sum(vals)) * state.theta_step


def energy_grad_p(metric_id, q, p, dtheta) -> np.ndarray:
    return g_inv(metric_id, q, p) * dtheta


def energy_grad_q(metric_id, q, p, dtheta) -> np.ndarray:
    return 0.5 * g_grad(metric_id, q, p) * dtheta


def _grad_p(pt: _M3Point, p: np.ndarray) -> np.ndarray:
    """energy_grad_p at the M3 point pt."""
    return pt.ginv * p * pt.dth


def _grad_q(pt: _M3Point, p: np.ndarray) -> np.ndarray:
    """energy_grad_q at the M3 point pt: only its q1 row is nonzero."""
    out = np.zeros_like(p)
    out[:, 0] = pt.dginv[:, 1] * p[:, 1] ** 2 + pt.dginv[:, 2] * p[:, 2] ** 2
    return 0.5 * out * pt.dth


def _energy_grad_tangents(pt: _M3Point, p, dq, dp):
    """The derivatives of _grad_q and _grad_p at (pt, p) along the columns
    (dq, dp), each (n, 3, r), from the point's q1-derivatives dginv and
    d2ginv of g^-1: q1 is the only part of q they depend on."""
    ps, dx = p[:, :, None], dq[:, :1]
    eq = np.zeros_like(dq)
    eq[:, 0] = pt.dth * np.sum(0.5 * pt.d2ginv[:, :, None] * ps ** 2 * dx
                               + pt.dginv[:, :, None] * ps * dp, axis=1)
    return eq, pt.dth * (pt.ginv[:, :, None] * dp + pt.dginv[:, :, None] * ps * dx)


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


def project_to_manifold(rpoint: RPoint) -> RPoint:
    """Move an M3 RPoint (e.g. a raw transform of a closed curve) onto the
    discrete constraint manifold: q3 is reset by _reset_m3_rate, then a
    small Newton iteration on (q1, q2) zeroes the closedness rows.  The
    move is O(dtheta^2) for transforms of genuinely closed curves."""
    mid = _constrained(rpoint.metric_id)
    winding = rpoint.winding or 0
    q = rpoint.q.copy()
    dth = 2.0 * np.pi / rpoint.n_samples
    wrap = 2.0 * np.pi * winding
    for _ in range(30):
        _reset_m3_rate(q, dth, wrap)
        cl = constraint_rows(mid, q, winding)[-2:]
        if np.max(np.abs(cl)) < 1e-13:
            return RPoint(mid, q, True, winding)
        q[:, :2] -= _closedness_newton(q, dth, cl)
    raise NewtonDivergence("manifold projection did not converge")


def _tangent_momentum(pt: _M3Point, p: np.ndarray):
    """(p - DH^T mu, mu) with DH g^-1 (p - DH^T mu) = 0 at the M3 point
    pt: the one definition of the hidden-constraint projection p -> g
    P(g^-1 p), by pt's Gram solve (rtransform._M3Point.gram).  p is (n, 3), or
    (n, 3, r) for r momenta at once.  Raises RankDeficiency."""
    try:
        mu = pt.gram(pt.jac.apply(pt.ginv.reshape(pt.ginv.shape + (1,) * (p.ndim - 2)) * p))
    except (np.linalg.LinAlgError, SingularSystem) as exc:
        raise RankDeficiency(f"constraint Gram system is singular: {exc}") from exc
    return p - pt.jac.apply_t(mu), mu


def project_consistent(rpoint: RPoint, p_raw: np.ndarray) -> HamiltonianState:
    """Remove the constraint-normal part of a raw momentum: p = p_raw -
    DH^T mu with DH g^{-1} (p_raw - DH^T mu) = 0, so the hidden constraint
    holds at (q, p)."""
    mid = _constrained(rpoint.metric_id)
    p = _tangent_momentum(rpoint._m3, np.asarray(p_raw, dtype=float))[0]
    return HamiltonianState(mid, rpoint.q, p, 0.0, rpoint.winding or 0)


def _hidden_norm(pt: _M3Point, p: np.ndarray) -> float:
    """sup |DH(q) . dE/dp| at the M3 point pt."""
    return float(np.max(np.abs(pt.jac.apply(_grad_p(pt, p)))))


def hidden_residual(state: HamiltonianState) -> float:
    """sup |DH(q) . dE/dp|, the hidden-constraint residual."""
    return _hidden_norm(_M3Point(state.q), state.p)


# -- RATTLE -------------------------------------------------------------------

def _m3_newton(pt0: _M3Point, dt: float):
    """The O(N) reduced Newton solve of an M3 RATTLE step from the point
    pt0 of q0.  With T(q, p) = d(g^-1_q p)/dq, whose only nonzero row is q1's,
    A = I + half T(q0, ph) is unit upper triangular, D = I - half T(q1,
    ph)^T unit lower triangular and C = -half (g^-1(q0) + g^-1(q1)) diagonal,
    so the pointwise elimination is M = D^-1 C A^-1 = diag(0, c1, c2) +
    c0 (1, t1, t2)^T (1, -a1, -a2).  GW = J(q1) M (-dt/2) J(q0)^T has a
    cyclic tridiagonal derivative block (x^T M y for the trapezoid row
    vectors x of J(q1), y of J(q0) at samples k and k+1), the closedness
    columns J(q1) M C(q0)^T, rows J(q0) M^T C(q1)^T and a 2x2 corner.
    Products with DH are M3Jacobian's.  Returns (factor, lam -> DH(q0)^T
    lam): factor(pt1, ph) builds the matrix at the iterate (q1, ph), pt1
    the point of q1, and factors GW once (CyclicFactor), and returns
    solve(f1, f2, f3) -> (dq, dph, dlam), where f1, f2 are (n, 3) and f3
    (n+2,), or (n, 3, r) and (n+2, r) for r right-hand sides at once."""
    n = pt0.q.shape[0]
    dth = pt0.dth
    half = 0.5 * dt * dth
    beta = -0.5 * dt
    e = 1.0 / dth
    gi0_1, gi0_2 = pt0.ginv[:, 1], pt0.ginv[:, 2]
    jac0 = pt0.jac
    g1, g3 = 0.5 * jac0.gw1, 0.5 * jac0.gw3
    c0 = -0.5 * half                  # -half (1/4 + 1/4)
    gc0 = jac0.gc

    def factor(pt1, ph):
        a1, a2 = half * pt0.dginv[:, 1] * ph[:, 1], half * pt0.dginv[:, 2] * ph[:, 2]
        t1, t2 = half * pt1.dginv[:, 1] * ph[:, 1], half * pt1.dginv[:, 2] * ph[:, 2]
        c1, c2 = -half * (gi0_1 + pt1.ginv[:, 1]), -half * (gi0_2 + pt1.ginv[:, 2])
        # x^T M y at each sample for the row vectors x = (h1, +-e, h3) of
        # J(q1) and y = (g1, +-e, g3) of J(q0): + for row k at sample k,
        # - for row k-1 at sample k
        jac1 = pt1.jac
        h1, h3 = 0.5 * jac1.gw1, 0.5 * jac1.gw3
        xs, xd = h1 + t2 * h3, e * t1
        ry, rd = g1 - a2 * g3, e * a1
        xp, xm, rp, rm = xs + xd, xs - xd, ry + rd, ry - rd
        same = c2 * h3 * g3 + c1 * e * e
        cross = c2 * h3 * g3 - c1 * e * e
        f_pp, f_mm = same + c0 * xp * rm, same + c0 * xm * rp
        f_pm, f_mp = cross + c0 * xp * rp, cross + c0 * xm * rm
        bands = beta * np.stack([f_pm, f_pp + _shift(f_mm, 1), _shift(f_mp, 1)])
        # the border: DH(q1) on the columns M C(q0)^T (-dt/2), and the rows
        rho = beta * c0 * (gc0[:, 0] - a1 * gc0[:, 1])
        cols = jac1.apply(np.stack([rho, beta * c1 * gc0[:, 1] + t1 * rho,
                                    t2 * rho]).transpose(2, 0, 1))
        gc1 = jac1.gc
        sig = c0 * (gc1[:, 0] + t1 * gc1[:, 1])              # M^T C(q1)^T
        rows = jac0.apply(np.stack(
            [sig, c1 * gc1[:, 1] - a1 * sig, -a2 * sig]).transpose(2, 0, 1))[:n]
        gw = CyclicFactor(bands, cols[:n], beta * rows.T, cols[n:])

        def solve(f1, f2, f3):
            sl = (slice(None),) + (None,) * (f1.ndim - 2)      # over the r columns

            def eliminate(z):
                """(A^-1 z, D^-1 (C A^-1 z - f2)) sample by sample."""
                du = z.copy()
                du[:, 0] -= a1[sl] * z[:, 1] + a2[sl] * z[:, 2]
                v = np.empty_like(z)
                v[:, 0] = c0 * du[:, 0] - f2[:, 0]
                v[:, 1] = c1[sl] * du[:, 1] - f2[:, 1] + t1[sl] * v[:, 0]
                v[:, 2] = c2[sl] * du[:, 2] - f2[:, 2] + t2[sl] * v[:, 0]
                return du, v

            dlam = gw.solve(-f3 - jac1.apply(eliminate(f1)[1]))
            du, dq = eliminate(f1 + beta * jac0.apply_t(dlam))
            return dq, du, dlam
        return solve

    return factor, jac0.apply_t


def _rattle_step(state: HamiltonianState, pt0: _M3Point, dt: float, tol: float = 1e-12,
                 max_iter: int = 50, lam_guess: np.ndarray | None = None):
    """rattle_step from state at the point pt0.  The implicit part is
    solved by the simplified Newton iteration (Hairer-Lubich-Wanner,
    Geometric Numerical Integration, VII.1): the matrix is factored at the
    first iterate and kept, and factored again at the current iterate only
    when the residual has not fallen tenfold since the last iterate.  The
    explicit momentum half-step from (q1, ph) and _tangent_momentum end the
    step.  Returns what simulate keeps of it: (end state, its point, lam,
    ph, mu), the last three the tangent pass's linearization point, then
    H(q1), the Newton residual history and the factorizations."""
    mid, winding = state.metric_id, state.winding
    q0, p0 = state.q, state.p

    ph = p0.copy()
    q1 = q0 + dt * _grad_p(pt0, p0)  # explicit predictor
    lam = np.zeros(q0.shape[0] + 2) if lam_guess is None else lam_guess.copy()
    factor, jt0 = _m3_newton(pt0, dt)
    solve, factorizations, history = None, 0, []
    for _ in range(max_iter):
        try:
            pt1 = _M3Point(q1)
        except NonPositive as exc:
            raise StepLeftDomain(
                "position update reached q1 <= 0; use a smaller time step",
                exit_time=state.t) from exc
        f1 = ph - p0 + 0.5 * dt * _grad_q(pt0, ph) - 0.5 * dt * jt0(lam)
        f2 = q1 - q0 - 0.5 * dt * (_grad_p(pt0, ph) + _grad_p(pt1, ph))
        f3 = constraint_rows(mid, q1, winding)
        res = max(np.max(np.abs(f1)), np.max(np.abs(f2)), np.max(np.abs(f3)))
        history.append(res)
        if res < tol:
            break
        try:
            if solve is None or res > 0.1 * history[-2]:
                solve, factorizations = factor(pt1, ph), factorizations + 1
            dq, dph, dlam = solve(f1, f2, f3)
        except (np.linalg.LinAlgError, SingularSystem) as exc:
            raise NewtonDivergence("reduced Newton system is singular",
                                   history) from exc
        q1 = q1 + dq
        ph = ph - dph
        lam = lam + dlam
    else:
        raise NewtonDivergence(
            f"RATTLE Newton did not reach tol={tol:g} in {max_iter} iterations",
            history)
    try:
        p1, mu = _tangent_momentum(pt1, ph - 0.5 * dt * _grad_q(pt1, ph))
    except RankDeficiency as exc:
        raise NewtonDivergence("hidden-constraint system is singular",
                               history) from exc
    return (HamiltonianState(mid, pt1.q, p1, state.t + dt, winding),
            pt1, lam, ph, mu, f3, history, factorizations)


def rattle_step(state: HamiltonianState, dt: float, tol: float = 1e-12,
                max_iter: int = 50, lam_guess: np.ndarray | None = None):
    """One RATTLE step.  Returns (new_state, lambda_1) so callers can warm
    start the next step's multiplier; the Newton solve is _m3_newton's."""
    new, _, lam = _rattle_step(state, _M3Point(state.q), dt, tol, max_iter, lam_guess)[:3]
    return new, lam


def _rattle_tangent(sim: SimulationResult, j: int, dt: float, dq0: np.ndarray,
                    dp0: np.ndarray, d_apply_t0=None):
    """The tangent-linear map on the columns (dq0, dp0), each (n, 3, r), of
    step j of sim, a shooting simulation (_shooting) with step dt: returns
    (dq1, dp1, lam -> dDH(q1)[dq1]^T lam), the last the next step's
    d_apply_t0 (made from dq0 if not given).  The step's stored ph, lambda_1, end momentum p1
    and mu are the linearization point.  The q0- and p0-derivatives of (f1,
    f2, f3) go through one solve of the step's Newton matrix (_m3_newton)
    there, factored by the first pass and kept on sim; then the explicit
    half-step and the projection p1 = p - A^T mu are differentiated with
    A = DH(q1) moving, by one solve of the Gram system simulate factored."""
    pt0, pt1, newton = sim._points[j], sim._points[j + 1], sim._newton
    p1, ph, lam, mu = sim.ps[j + 1], sim._ph[j], sim._lam[j], sim._mu[j]
    if d_apply_t0 is None:
        d_apply_t0 = _m3_jacobian_tangent(pt0, dq0)[1]
    if newton[j] is None:
        newton[j] = _m3_newton(pt0, dt)[0](pt1, ph)
    eq0, ep0 = _energy_grad_tangents(pt0, ph, dq0, np.zeros_like(dq0))
    f1 = 0.5 * dt * (eq0 - d_apply_t0(lam)) - dp0
    # solve returns (dq, dph) with q1 + dq, ph - dph: here the tangent of
    # (q1, ph) is (dq, -dph)
    dq1, du, _ = newton[j](f1, -dq0 - 0.5 * dt * ep0, np.zeros((len(lam),) + dq0.shape[2:]))
    eq1, _ = _energy_grad_tangents(pt1, ph, dq1, -du)
    dp1 = -du - 0.5 * dt * eq1
    # with v = dp - dA^T mu, A g^-1 A^T dmu = A (g^-1 v + dg^-1 p1) + dA g^-1 p1
    # and dp1 = v - A^T dmu
    d_apply, d_apply_t = _m3_jacobian_tangent(pt1, dq1)
    v = dp1 - d_apply_t(mu)
    dginv = pt1.dginv[:, :, None] * dq1[:, None, 0]
    dmu = pt1.gram(pt1.jac.apply(pt1.ginv[:, :, None] * v + dginv * p1[:, :, None])
                   + d_apply(pt1.ginv * p1))
    return dq1, v - pt1.jac.apply_t(dmu), d_apply_t


def _position_tangent(sim: SimulationResult, dt: float, dp0: np.ndarray) -> np.ndarray:
    """The derivative of the final position of sim, simulate's trajectory
    with step dt, along the start momentum columns dp0 (n, 3, r), the start
    position held: the tangent-linear map of its stored steps, all columns
    at once."""
    dq, dp, d_apply_t = np.zeros_like(dp0), dp0, None
    for j in range(len(sim._lam)):
        dq, dp, d_apply_t = _rattle_tangent(sim, j, dt, dq, dp, d_apply_t)
    return dq


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
    # per step (K,): the Newton iterations, the final Newton residual and
    # the factorizations of the Newton matrix the iteration made
    newton_iters: np.ndarray
    newton_residual: np.ndarray
    factorizations: np.ndarray
    # each step's converged momentum half-step (K, N, d), lambda_1 and
    # hidden-constraint multiplier mu (K, N+2): the linearization points of
    # the tangent pass
    _ph: np.ndarray = field(repr=False)
    _lam: np.ndarray = field(repr=False)
    _mu: np.ndarray = field(repr=False)
    # a shooting simulation's tape for the tangent pass (else None): each
    # snapshot's point (K+1) and each step's Newton solve (K, first pass)
    _points: list | None = field(default=None, repr=False)
    _newton: list | None = field(default=None, repr=False)

    def _head(self, steps: int) -> SimulationResult:
        """The result of the first `steps` steps."""
        at, of = slice(steps + 1), slice(steps)
        kept = self._points is not None
        return SimulationResult(self.times[at], self.qs[at], self.ps[at], self.energy[at],
                                self.constraint_norm[at], self.hidden_norm[at],
                                self.metric_id, self.winding, self.newton_iters[of],
                                self.newton_residual[of], self.factorizations[of],
                                self._ph[of], self._lam[of], self._mu[of],
                                self._points[at] if kept else None,
                                self._newton[of] if kept else None)

    def _diagnosed(self) -> SimulationResult:
        """self with each kept point's energy and hidden-constraint
        residual, which simulate's shooting path leaves out."""
        for j, pt in enumerate(self._points or ()):
            st = HamiltonianState(self.metric_id, self.qs[j], self.ps[j])
            self.energy[j], self.hidden_norm[j] = discrete_energy(st), _hidden_norm(pt, st.p)
        return self

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


def simulate(state: HamiltonianState, T: float, dt: float, *,
             _shooting: _M3Point | None = None) -> SimulationResult:
    """Integrate for round(T/dt) RATTLE steps with per-step diagnostics;
    dt must be positive and round(T/dt) at least 1.

    _shooting, the point of state.q, is the shooting solver's private
    path: the result keeps its tangent passes' tape, and leaves the energy
    and hidden-constraint residual to _diagnosed, for the path returned."""
    if not (dt > 0 and np.isfinite(T / dt) and round(T / dt) >= 1):
        raise CurveflowError(f"simulate needs dt > 0 and at least one step, "
                             f"got T={T}, dt={dt}")
    steps = int(round(T / dt))
    n, d = state.q.shape
    sim = SimulationResult(dt * np.arange(steps + 1) + state.t, np.empty((steps + 1, n, d)),
                           np.empty((steps + 1, n, d)), np.empty(steps + 1),
                           np.empty(steps + 1), np.empty(steps + 1), state.metric_id,
                           state.winding, np.empty(steps, int), np.empty(steps),
                           np.empty(steps, int), np.empty((steps, n, d)),
                           np.empty((steps, n + 2)), np.empty((steps, n + 2)))
    if _shooting is not None:
        sim._points, sim._newton = [], [None] * steps

    def record(j, st, rows, pt):
        """Snapshot j, with the state's constraint rows and point."""
        sim.qs[j], sim.ps[j] = st.q, st.p
        sim.constraint_norm[j] = float(np.max(np.abs(rows)))
        if _shooting is None:
            sim.energy[j], sim.hidden_norm[j] = discrete_energy(st), _hidden_norm(pt, st.p)
        else:
            sim._points.append(pt)

    pt = _M3Point(state.q) if _shooting is None else _shooting
    record(0, state, constraint_rows(state.metric_id, state.q, state.winding), pt)
    cur = state
    for j in range(steps):
        try:
            cur, pt, sim._lam[j], sim._ph[j], sim._mu[j], rows, history, sim.factorizations[j] = \
                _rattle_step(cur, pt, dt, lam_guess=sim._lam[j - 1] if j else None)
        except StepLeftDomain as exc:
            raise StepLeftDomain(
                f"simulation left the domain at t={sim.times[j]:.6g}",
                exit_time=float(sim.times[j]), partial=sim._head(j)._diagnosed()) from exc
        sim.newton_iters[j], sim.newton_residual[j] = len(history) - 1, history[-1]
        record(j + 1, cur, rows, pt)
    return sim
