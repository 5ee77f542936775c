"""Independent numpy references for the benchmark's correctness checks.

Nothing here calls curveflow: every quantity a check compares against is
computed from the generators' own formulas (spectral derivatives on fine
grids, Gauss-Legendre quadrature in time) or from the plain definitions
of the transforms and constraints.
"""

from __future__ import annotations

import numpy as np


def theta_grid(n: int, closed: bool = True) -> np.ndarray:
    return 2.0 * np.pi * np.arange(n) / (n if closed else n - 1)


def spectral_diff(f: np.ndarray) -> np.ndarray:
    """d/dtheta of periodic samples on [0, 2 pi) along axis 0."""
    n = f.shape[0]
    k = np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        k[n // 2] = 0.0
    shape = (n,) + (1,) * (f.ndim - 1)
    return np.fft.ifft(1j * k.reshape(shape) * np.fft.fft(f, axis=0), axis=0).real


def central_diff(f: np.ndarray) -> np.ndarray:
    """Periodic second-order central difference along axis 0."""
    n = f.shape[0]
    return (np.roll(f, -1, axis=0) - np.roll(f, 1, axis=0)) * (n / (4.0 * np.pi))


def m3_quadratic(points: np.ndarray, h: np.ndarray) -> float:
    """G_c(h, h) = int |D_s h|^2 + <D_s^2 h, n>^2 ds for a closed curve
    sampled finely enough for spectral differentiation."""
    n = points.shape[0]
    cp = spectral_diff(points)
    speed = np.hypot(cp[:, 0], cp[:, 1])
    nrm = np.stack([-cp[:, 1], cp[:, 0]], 1) / speed[:, None]
    dsh = spectral_diff(h) / speed[:, None]
    ds2h = spectral_diff(dsh) / speed[:, None]
    integrand = np.sum(dsh ** 2, 1) + np.sum(ds2h * nrm, 1) ** 2
    return float(np.sum(integrand * speed) * 2.0 * np.pi / n)


def gauss_legendre01(m: int):
    x, w = np.polynomial.legendre.leggauss(m)
    return 0.5 * (x + 1.0), 0.5 * w


def m3_straight_path_length(c0: np.ndarray, c1: np.ndarray, nodes: int = 24) -> float:
    """M3 length of t -> c0 + t (c1 - c0), t in [0, 1], on the samples given."""
    ts, ws = gauss_legendre01(nodes)
    h = c1 - c0
    speeds = [np.sqrt(m3_quadratic(c0 + t * h, h)) for t in ts]
    return float(np.dot(ws, speeds))


def m3_rspace_length(qs: np.ndarray) -> float:
    """Polygonal length of a sampled M3 transform-space path, with the
    fiber metric g = diag(4, q1^2, q1^-6) taken at each segment midpoint."""
    dth = 2.0 * np.pi / qs.shape[1]
    total = 0.0
    for a, b in zip(qs[:-1], qs[1:]):
        mid, dq = 0.5 * (a + b), b - a
        sq = 4.0 * dq[:, 0] ** 2 + mid[:, 0] ** 2 * dq[:, 1] ** 2 \
            + mid[:, 0] ** -6 * dq[:, 2] ** 2
        total += np.sqrt(np.sum(sq) * dth)
    return float(total)


def m3_constraint_residual(q: np.ndarray, winding: int) -> float:
    """max |H| of the M3 image constraints: the trapezoid derivative rows
    (w_k + w_k+1)/2 - (q2_k+1 - q2_k)/dtheta with w = q3 / q1^2, and the two
    closedness rows sum q1^2 exp(i q2) dtheta."""
    n = q.shape[0]
    dth = 2.0 * np.pi / n
    w = q[:, 2] / q[:, 0] ** 2
    q2_next = np.roll(q[:, 1], -1)
    q2_next[-1] += 2.0 * np.pi * winding
    rows = 0.5 * (w + np.roll(w, -1)) - (q2_next - q[:, 1]) / dth
    cl = np.sum(q[:, 0] ** 2 * np.exp(1j * q[:, 1])) * dth
    return float(max(np.max(np.abs(rows)), abs(cl.real), abs(cl.imag)))


def halfplane_segment_length(p0: np.ndarray, p1: np.ndarray, nodes: int = 64) -> np.ndarray:
    """Length of the straight segments p0 -> p1 (rows) in the half plane
    4 dx^2 + x^-6 dy^2, by Gauss-Legendre quadrature in the segment time."""
    ts, ws = gauss_legendre01(nodes)
    dx = (p1[:, 0] - p0[:, 0])[:, None]
    dy = (p1[:, 1] - p0[:, 1])[:, None]
    x = p0[:, 0][:, None] + ts[None, :] * dx
    return np.sqrt(4.0 * dx ** 2 + dy ** 2 * x ** -6) @ ws


def m2_path_length(qs: np.ndarray) -> float:
    """Time-quadrature M2 length of a sampled open-curve path qs[j, k, :]
    (time j, fiber k): each time step's speed is the trapezoid sum over the
    fibers of the squared half-plane segment lengths."""
    n = qs.shape[1]
    tau = np.ones(n)
    tau[0] = tau[-1] = 0.5
    dth = 2.0 * np.pi / (n - 1)
    seg_sq = np.stack([halfplane_segment_length(a, b, nodes=16) ** 2
                       for a, b in zip(qs[:-1], qs[1:])])
    return float(np.sum(np.sqrt(seg_sq @ tau * dth)))
