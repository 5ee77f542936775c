import numpy as np
import pytest

from curveflow.validation import (  # shared deterministic generators
    circle,
    convex_arc,
    convex_closed,
    curve_for,
    rotation_representative,
    smooth_field,
    wavy_curve,
)

__all__ = [
    "circle", "convex_arc", "convex_closed", "curve_for",
    "rotation_representative", "smooth_field", "wavy_curve",
]


@pytest.fixture
def unit_circle():
    return circle(128)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def unit_circle_n(n):
    return circle(n)


def analytic_circle_frame(n):
    th = (2 * np.pi / n) * np.arange(n)
    v = np.stack([-np.sin(th), np.cos(th)], 1)
    nrm = np.stack([-np.cos(th), -np.sin(th)], 1)
    return th, v, nrm


def m3_jacobian_rows(q):
    """The dense M3 DH(q), (n+2, 3n), written entry by entry: the N
    trapezoid derivative rows, then the two closedness rows.  The
    independent reference for rtransform.M3Jacobian and, by its null
    space, for the M3 tangent space."""
    n = q.shape[0]
    dth = 2 * np.pi / n
    q1, q2, q3 = q.T
    gw1, gw3 = -2.0 * q3 * q1 ** -3, q1 ** -2
    jac = np.zeros((n + 2, n, 3))
    idx = np.arange(n)
    nxt = (idx + 1) % n
    jac[idx, idx, 0] += 0.5 * gw1
    jac[idx, nxt, 0] += 0.5 * gw1[nxt]
    jac[idx, idx, 2] += 0.5 * gw3
    jac[idx, nxt, 2] += 0.5 * gw3[nxt]
    jac[idx, idx, 1] += 1.0 / dth
    jac[idx, nxt, 1] -= 1.0 / dth
    jac[n, :, 0] = 2.0 * q1 * np.cos(q2) * dth
    jac[n, :, 1] = -q1 ** 2 * np.sin(q2) * dth
    jac[n + 1, :, 0] = 2.0 * q1 * np.sin(q2) * dth
    jac[n + 1, :, 1] = q1 ** 2 * np.cos(q2) * dth
    return jac.reshape(n + 2, 3 * n)
