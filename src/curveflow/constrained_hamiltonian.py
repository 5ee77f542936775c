"""Spatially discretized constrained Hamiltonian system of the M3
transform and its RATTLE time stepper.

The Hamiltonian is E(q, p) = (1/2) sum_k g^{-1}_{q^k}(p^k, p^k) dtheta on
N uniformly sampled points.  The N + 2 constraints are position-only:

    H_diff^k = (w^k + w^{k+1})/2 - (q2^{k+1} - q2^k)/dtheta,  w = q1^{-2} q3
    H_cl     = sum_k (q1^k)^2 exp(i q2^k) dtheta             (2 rows)

The derivative rows are the trapezoid (box-scheme) form centred at the
half nodes, second-order consistent.  H(q) and the products with DH are
rtransform's constraint_rows and M3Jacobian.  project_to_manifold puts a
raw transform on H = 0 by Newton's method, one bordered CyclicFactor
solve per step.

One RATTLE step solves the five update equations: an implicit momentum
half-step f1 with DH^T(q^j) lambda_1, an implicit-midpoint position step
f2, H(q^{j+1}) = 0, an explicit momentum half-step, and the hidden
constraint DH(q).dE/dp = 0, enforced through lambda_2 by the L2(g)
projection p -> g P(g^-1 p) onto the constraint tangent space
(_tangent_momentum, shared with project_consistent).  Note the potential
gradient is evaluated at (q^j, p^{j+1/2}) in the first half-step exactly
as printed (implicit in p only), not at classical RATTLE's arguments.

dE/dq has only a q1 row and g^-1 reads only q1, so f1 = 0 and f2 = 0 give
p^{1/2} and q^{j+1} explicitly in lambda_1, and the step is simplified
Newton on H(q^{j+1}(lambda_1)) = 0 alone (Hairer-Lubich-Wanner, Geometric
Numerical Integration, VII.1).  Its matrix GW, cyclic tridiagonal (not
symmetric) and bordered by the two closedness rows and columns, is one
rtransform.CyclicFactor, O(N) (_m3_newton), factored at the first iterate
and again only when the residual has not fallen tenfold.  simulate warm
starts lambda_1 (_warm_start) and keeps each step's Newton iterations,
final residual (of f1, f2 and H) and factorizations.  Each point is built
once (rtransform._M3Point, which holds g^-1 and its q1-derivatives): a
step's end point is the next one's start.

_rattle_step is SHAKE's step: it ends with the explicit half-step's p~ =
p^{1/2} - (dt/2) dE/dq(q^{j+1}, p^{1/2}), unprojected.  p^j enters a step
only as p^j + (dt/2) DH^T(q^j) lambda_1, so RATTLE's projection p~ - DH^T
mu moves only the next lambda_1, by mu/(dt/2), and not the positions (HLW
VII.1.4; Leimkuhler-Skeel, J. Comput. Phys. 112, 1994).  So every
simulate takes SHAKE steps, and a shooting run takes the plain run's bit
for bit.  rattle_step projects its one end (_consistent_end); simulate
projects the momenta after the start once the loop is done, in one
stacked Gram pass (SimulationResult._diagnosed); the shooting solver's
simulations, which read only the final position, leave that to the path
returned.

The tangent pass (_rattle_tangent, _position_tangent) differentiates the
discrete SHAKE step, not the ODE, so it gives the exact derivative of the
computed endpoint, as the shooting solver needs.  It runs no Newton
iteration and no Gram solve: per step it linearizes (f1, f2, f3) in (q0,
p0) at simulate's stored ph and lambda_1 - including lambda_1 contracted
with the q0-derivative of DH (rtransform._m3_jacobian_tangent) - solves
for all r tangent columns at once with the full Newton matrix there, the
exact Jacobian of (f1, f2, f3), factored by the first pass and kept on the
simulation, and differentiates the explicit half-step directly.

The full H2 transform (M4) has transforms and constraints in rtransform
but no dynamics here.  Its two forward-difference rows per sample make the
reduced Newton system block-banded, so M4 geodesics would go through
CyclicFactor with wider bands, not a dense solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curve_core import _STACK_BYTES, _check_samples, _finite, _shift
from .errors import (
    BadInput,
    CurveflowError,
    NewtonDivergence,
    NonPositive,
    OffImage,
    RankDeficiency,
    SingularSystem,
    StepLeftDomain,
)
from .metric_suite import MetricId
from .rtransform import (
    CyclicFactor,
    RPoint,
    _closure_coeffs,
    _forward_diff,
    _m3_jacobian_tangent,
    _M3Point,
    _m3_rate,
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
        q, p = _finite(self.q, "q"), _finite(self.p, "p")
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
    return float(_energy(_M3Point(state.q), state.p))


def _energy(pt: _M3Point, p: np.ndarray):
    """discrete_energy at the M3 point pt, or the (K,) energies of a stack
    pt with p (n, 3, K), each with the bits it has alone."""
    return 0.5 * np.sum(np.einsum("ki...,ki...->...k", pt.ginv * p, p), axis=-1) * pt.dth


def _grad_p(pt: _M3Point, p: np.ndarray) -> np.ndarray:
    """dE/dp = g^-1 p dtheta at the M3 point pt."""
    return pt.ginv * p * pt.dth


def _grad_q(pt: _M3Point, p: np.ndarray) -> np.ndarray:
    """dE/dq at the M3 point pt: only its q1 row is nonzero."""
    out = np.zeros_like(p)
    out[:, 0] = pt.dginv[:, 1] * p[:, 1] ** 2 + pt.dginv[:, 2] * p[:, 2] ** 2
    return 0.5 * out * pt.dth


def _grad_q_tangent(pt: _M3Point, p, dq, dp=None):
    """The derivative of _grad_q at (pt, p) along the columns dq, and dp
    if given, each (n, 3, r), from the point's q1-derivatives dginv and
    d2ginv of g^-1: q1 is the only part of q it depends on."""
    ps, eq = p[:, :, None], np.zeros_like(dq)
    terms = 0.5 * pt.d2ginv[:, :, None] * ps ** 2 * dq[:, :1]
    eq[:, 0] = pt.dth * np.sum(terms if dp is None else terms + pt.dginv[:, :, None] * ps * dp,
                               axis=1)
    return eq


def _grad_p_tangent(pt: _M3Point, p, dq):
    """The derivative of _grad_p at (pt, p) along the position columns dq
    (n, 3, r); along momenta dp it is _grad_p of dp, linear in p."""
    return pt.dth * (pt.dginv[:, :, None] * p[:, :, None] * dq[:, :1])


# -- consistency --------------------------------------------------------------

def project_to_manifold(rpoint: RPoint) -> RPoint:
    """Move an M3 RPoint (e.g. a raw transform of a closed curve) onto the
    discrete constraint manifold by Newton's method, one bordered
    CyclicFactor solve per step.  q3 absorbs the derivative rows (the band
    is their cyclic average in w = q1^-2 q3); (q1, q2) move only along the
    closedness gradients gc^T mu, and on even grids, where the average
    annihilates alt = (-1)^k, q2 by dtheta/2 s alt, w keeping its alt part.
    The last step starts with the closedness rows met, so q3 is solved
    against the final q2.  A raw transform takes one step, of O(dtheta^2)."""
    mid = _constrained(rpoint.metric_id)
    winding, q, n = rpoint.winding or 0, rpoint.q.copy(), rpoint.n_samples
    dth = 2.0 * np.pi / n
    alt = ((-1.0) ** np.arange(n))[:, None] if n % 2 == 0 else np.zeros((n, 0))
    bands, rows = np.repeat([[0.0], [0.5], [0.5]], n, 1), np.r_[np.zeros((2, n)), alt.T]
    corner = np.zeros((len(rows), len(rows)))
    history, settled = [], True
    for _ in range(30):
        h = constraint_rows(mid, q, winding)
        history.append(float(np.max(np.abs(h))))
        if history[-1] < 1e-13 and settled:
            return RPoint(mid, q, True, winding)
        settled = np.max(np.abs(h[n:])) < 1e-13
        gc = _closure_coeffs(q[:, 0], q[:, 1], dth)
        corner[:2] = np.c_[np.einsum("ijk,ljk->il", gc, gc), 0.5 * dth * gc[:, 1] @ alt]
        cols = np.c_[-_forward_diff(gc[:, 1].T, dth, True), alt]
        try:
            u = CyclicFactor(bands, cols, rows, corner).solve(np.r_[-h, np.zeros(alt.shape[1])])
        except SingularSystem as exc:
            raise NewtonDivergence("manifold projection system is singular", history) from exc
        w = _m3_rate(q) + u[:n]
        q[:, :2] += np.einsum("ijk,i->kj", gc, u[n:n + 2])
        q[:, 1] += 0.5 * dth * alt @ u[n + 2:]
        q[:, 2] = q[:, 0] ** 2 * w
    raise NewtonDivergence("manifold projection did not converge", history)


def _tangent_momentum(pt: _M3Point, p: np.ndarray) -> np.ndarray:
    """p - DH^T mu with DH g^-1 (p - DH^T mu) = 0 at the M3 point pt, mu by
    its Gram solve (rtransform._M3Point.gram): the one definition of the
    hidden-constraint projection p -> g P(g^-1 p), for p (n, 3) or r
    momenta (n, 3, r), or at a stack of K points p (n, 3, K).  Raises
    RankDeficiency."""
    try:
        mu = pt.gram(pt.jac.apply(pt.ginv.reshape(pt.ginv.shape + (1,) * (p.ndim - pt.ginv.ndim))
                                  * p))
    except (np.linalg.LinAlgError, SingularSystem) as exc:
        raise RankDeficiency(f"constraint Gram system is singular: {exc}") from exc
    return p - pt.jac.apply_t(mu)


def project_consistent(rpoint: RPoint, p_raw: np.ndarray) -> HamiltonianState:
    """Remove the constraint-normal part of a raw momentum: p = p_raw -
    DH^T mu with DH g^{-1} (p_raw - DH^T mu) = 0, so the hidden constraint
    holds at (q, p)."""
    mid = _constrained(rpoint.metric_id)
    p = _tangent_momentum(rpoint._m3, _check_samples(p_raw, [rpoint.q.shape], "p_raw"))
    return HamiltonianState(mid, rpoint.q, p, 0.0, rpoint.winding or 0)


def _hidden_norm(pt: _M3Point, p: np.ndarray):
    """sup |DH(q) . dE/dp| at the M3 point pt, or per point (K,) of a stack."""
    return np.abs(pt.jac.apply(_grad_p(pt, p))).max(axis=0)


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
    Products with DH are M3Jacobian's.  Returns factor(pt1, ph), which
    builds the matrix at the iterate (q1, ph), pt1 the point of q1, factors
    GW once (CyclicFactor) and returns (GW, solve): GW the derivative of
    H(q1(lambda_1)), solve(f1, f2, f3) -> (dq, dph, dlam) the full Newton
    solve, where f1, f2 are (n, 3) and f3
    (n+2,), or (n, 3, r) and (n+2, r) for r right-hand sides at once; f3
    may be a scalar, 0.0 for the tangent pass."""
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
        return gw, solve

    return factor


def _rattle_step(state: HamiltonianState, pt0: _M3Point, dt: float, tol: float = 1e-12,
                 max_iter: int = 50, lam_guess: np.ndarray | None = None):
    """The SHAKE step from state at the point pt0: simplified Newton on
    H(q1(lambda_1)) = 0, (ph, q1) explicit in lambda_1 (module docstring),
    GW factored at the first iterate and again at the current one only when
    |H| has not fallen tenfold.  f1 and f2 are evaluated once at the end,
    and the whole residual must be below tol.  The explicit momentum
    half-step from (q1, ph) ends the step, with no hidden-constraint
    projection: _consistent_end makes it RATTLE's.  Returns what simulate
    keeps of it: (q1, its SHAKE momentum, its point, lam, ph), the last two
    the tangent pass's linearization point, then H(q1), the residual
    history (the last entry the whole residual) and the factorizations."""
    mid, winding = state.metric_id, state.winding
    q0, p0, half = state.q, state.p, 0.5 * dt
    lam = np.zeros(q0.shape[0] + 2) if lam_guess is None else lam_guess
    factor, jt0 = _m3_newton(pt0, dt), pt0.jac.apply_t
    gw, factorizations, history = None, 0, []
    for _ in range(max_iter):
        force = jt0(lam)
        ph = p0 + half * force
        gq0 = _grad_q(pt0, ph)                          # reads ph's columns 2-3 only
        ph[:, 0] -= half * gq0[:, 0]
        q1 = q0 + dt * pt0.dth * pt0.ginv * ph          # column 1: g^-1's entry is constant
        try:
            pt1 = _M3Point(q1)                          # its g^-1 reads column 1 only
        except NonPositive as exc:
            raise StepLeftDomain(
                "position update reached q1 <= 0; use a smaller time step",
                exit_time=state.t) from exc
        q1[:, 1:] = q0[:, 1:] + half * pt0.dth * (pt0.ginv[:, 1:] + pt1.ginv[:, 1:]) * ph[:, 1:]
        f3 = constraint_rows(mid, q1, winding)
        history.append(float(np.max(np.abs(f3))))
        if history[-1] < tol:
            break
        try:
            if gw is None or history[-1] > 0.1 * history[-2]:
                gw, factorizations = factor(pt1, ph)[0], factorizations + 1
            lam = lam + gw.solve(-f3)
        except (np.linalg.LinAlgError, SingularSystem) as exc:
            raise NewtonDivergence("reduced Newton system is singular",
                                   history) from exc
    else:
        raise NewtonDivergence(
            f"RATTLE Newton did not reach tol={tol:g} in {max_iter} iterations",
            history)
    f1 = ph - p0 + half * gq0 - half * force        # lam has not moved since ph
    f2 = q1 - q0 - half * (_grad_p(pt0, ph) + _grad_p(pt1, ph))
    history[-1] = max(np.max(np.abs(f1)), np.max(np.abs(f2)), history[-1])
    if not history[-1] < tol:
        raise NewtonDivergence(f"RATTLE step misses tol={tol:g} in (f1, f2)", history)
    return q1, ph - half * _grad_q(pt1, ph), pt1, lam, ph, f3, history, factorizations


def _consistent_end(pt1: _M3Point, p: np.ndarray, history) -> np.ndarray:
    """RATTLE's momentum from SHAKE's p at a step's end point pt1, or at a
    stack of them (_tangent_momentum).  A singular Gram system raises
    NewtonDivergence with the steps' history."""
    try:
        return _tangent_momentum(pt1, p)
    except RankDeficiency as exc:
        raise NewtonDivergence("hidden-constraint system is singular", list(history)) from exc


def rattle_step(state: HamiltonianState, dt: float, tol: float = 1e-12,
                max_iter: int = 50, lam_guess: np.ndarray | None = None):
    """One RATTLE step, Newton on lambda_1 from lam_guess (0 if None).  Returns
    (new_state, lambda_1) so callers can warm start the next step's multiplier."""
    q1, p1, pt1, lam, _, _, history = _rattle_step(state, _M3Point(state.q), dt, tol,
                                                   max_iter, lam_guess)[:7]
    return HamiltonianState(state.metric_id, q1, _consistent_end(pt1, p1, history),
                            state.t + dt, state.winding), lam


def _warm_start(lam: np.ndarray, j: int):
    """Step j's first lambda_1 from the earlier steps' lam (j, n+2).  Only
    the start is consistent, so the multipliers of steps 1 and 2 carry the
    jump mu/(dt/2) of a SHAKE end (module docstring) that step 0's does
    not: steps 1 and 2 start from lambda_{j-1}, step 3 extrapolates steps
    1-2 linearly and later steps the last three quadratically."""
    if j < 3:
        return lam[j - 1] if j else None
    return 2.0 * lam[2] - lam[1] if j == 3 else 3.0 * (lam[j - 1] - lam[j - 2]) + lam[j - 3]


def _rattle_tangent(sim: SimulationResult, j: int, dt: float, dq0: np.ndarray,
                    dp0: np.ndarray):
    """The tangent-linear map of the SHAKE step on the columns (dq0, dp0),
    each (n, 3, r), of step j of sim, a shooting simulation (_shooting) with
    step dt: returns (dq1, dp1).  The step's stored ph and lambda_1 are the
    linearization point.  The q0- and p0-derivatives of (f1, f2, f3) go
    through one solve of the step's Newton matrix (_m3_newton) there,
    factored by the first pass and kept on sim; then the explicit half-step
    is differentiated directly."""
    pt0, pt1, newton = sim._points[j], sim._points[j + 1], sim._newton
    ph, lam = sim._ph[j], sim._lam[j]
    if newton[j] is None:
        newton[j] = _m3_newton(pt0, dt)(pt1, ph)[1]
    f1 = 0.5 * dt * (_grad_q_tangent(pt0, ph, dq0) - _m3_jacobian_tangent(pt0, dq0, lam)) - dp0
    # solve returns (dq, dph) with q1 + dq, ph - dph: here the tangent of
    # (q1, ph) is (dq, -dph); H(q1) reads neither q0 nor p0, so f3 = 0
    dq1, du, _ = newton[j](f1, -dq0 - 0.5 * dt * _grad_p_tangent(pt0, ph, dq0), 0.0)
    return dq1, -du - 0.5 * dt * _grad_q_tangent(pt1, ph, dq1, -du)


def _position_tangent(sim: SimulationResult, dt: float, dp0: np.ndarray) -> np.ndarray:
    """The derivative of the final position of sim, simulate's trajectory
    with step dt, along the start momentum columns dp0 (n, 3, r), the start
    position held: the tangent-linear map of its stored steps, all columns
    at once."""
    dq, dp = np.zeros_like(dp0), dp0
    for j in range(len(sim._lam)):
        dq, dp = _rattle_tangent(sim, j, dt, dq, dp)
    return dq


@dataclass
class SimulationResult:
    times: np.ndarray
    qs: np.ndarray              # (K+1, N, d)
    ps: np.ndarray              # SHAKE's in a shooting simulation until _diagnosed
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
    # each step's converged momentum half-step (K, N, d) and lambda_1 (K,
    # N+2): the linearization points of the tangent pass
    _ph: np.ndarray = field(repr=False)
    _lam: np.ndarray = field(repr=False)
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
                                self._ph[of], self._lam[of],
                                self._points[at] if kept else None,
                                self._newton[of] if kept else None)

    def _diagnosed(self) -> SimulationResult:
        """self with the SHAKE momenta after the start projected, then every
        point's energy and hidden residual, from points rebuilt from qs as
        stacks (n, 3, K) (a shooting path's start point is kept): blocks
        of one stacked Gram factorization each, whose largest arrays, K n
        rows of 4 floats, stay below _STACK_BYTES.  Call it once."""
        total, width = len(self.qs), max(1, (_STACK_BYTES - 1) // (32 * self.qs.shape[1]))
        for a in [0, *range(1, total, width)]:
            b = min(a + width, total) if a else 1
            if self._points and not a:
                pt, p = self._points[0], self.ps[0]
            else:
                pt, p = _M3Point(self.qs[a:b].transpose(1, 2, 0)), self.ps[a:b].transpose(1, 2, 0)
            if a:
                p = _consistent_end(pt, p, self.newton_residual[a - 1:b - 1])
                self.ps[a:b] = p.transpose(2, 0, 1)
            self.energy[a:b], self.hidden_norm[a:b] = _energy(pt, p), _hidden_norm(pt, p)
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


def simulate(state: HamiltonianState, T: float, dt: float, *,
             _shooting: _M3Point | None = None) -> SimulationResult:
    """Integrate for round(T/dt) RATTLE steps with per-step diagnostics;
    dt must be positive, round(T/dt) at least 1 and the start on the
    constraints (of its winding) to 1e-9, OffImage if not.  The steps are
    _rattle_step's SHAKE steps, RATTLE's positions (module docstring); step
    j's Newton starts from _warm_start.  The loop factors no Gram system:
    the momenta after the start are projected at the end in one stacked
    pass (SimulationResult._diagnosed), which fills in every energy and
    hidden-constraint residual.

    _shooting, the point of state.q, is the shooting solver's private
    path: the same steps, bit for bit, keeping its tangent passes' tape
    and leaving the diagnosis (SHAKE momenta, NaN energy and
    hidden-constraint residual) to _diagnosed of the path returned."""
    if not (dt > 0 and np.isfinite(T / dt) and round(T / dt) >= 1):
        raise CurveflowError(f"simulate needs dt > 0 and at least one step, "
                             f"got T={T}, dt={dt}")
    rows = constraint_rows(state.metric_id, state.q, state.winding)
    resid = float(np.max(np.abs(rows)))
    if not resid <= 1e-9:
        raise OffImage(f"simulate needs a start on the constraint manifold, got "
                       f"max |H(q0)| = {resid:.3e} > 1e-9 (winding {state.winding})")
    steps = int(round(T / dt))
    n, d = state.q.shape
    sim = SimulationResult(dt * np.arange(steps + 1) + state.t, np.empty((steps + 1, n, d)),
                           np.empty((steps + 1, n, d)), np.full(steps + 1, np.nan),
                           np.empty(steps + 1), np.full(steps + 1, np.nan), state.metric_id,
                           state.winding, np.empty(steps, int), np.empty(steps),
                           np.empty(steps, int), np.empty((steps, n, d)),
                           np.empty((steps, n + 2)))
    sim.qs[0], sim.ps[0], sim.constraint_norm[0] = state.q, state.p, resid
    if _shooting is not None:
        sim._points, sim._newton = [_shooting], [None] * steps
    pt, cur = _M3Point(state.q) if _shooting is None else _shooting, state
    for j in range(steps):
        try:
            q1, p1, pt, sim._lam[j], sim._ph[j], rows, history, sim.factorizations[j] = \
                _rattle_step(cur, pt, dt, lam_guess=_warm_start(sim._lam, j))
        except StepLeftDomain as exc:
            raise StepLeftDomain(
                f"simulation left the domain at t={sim.times[j]:.6g}",
                exit_time=float(sim.times[j]),
                partial=sim._head(j)._diagnosed()) from exc
        sim.newton_iters[j], sim.newton_residual[j] = len(history) - 1, history[-1]
        sim.qs[j + 1], sim.ps[j + 1] = q1, p1
        sim.constraint_norm[j + 1] = float(np.max(np.abs(rows)))
        if _shooting is not None:
            sim._points.append(pt)
        cur = HamiltonianState(cur.metric_id, q1, p1, cur.t + dt, cur.winding)
    return sim if _shooting is not None else sim._diagnosed()
