"""Discrete differential geometry of uniformly sampled plane curves.

A curve is N points on the parameter grid theta_k = k * dtheta with
dtheta = 2*pi/N for closed curves and 2*pi/(N-1) for open ones (so the
open grid includes both endpoints of [0, 2*pi]).  All derivatives are
second-order finite differences: periodic central stencils for closed
curves, one-sided three-point stencils at open endpoints.  Integration
is the (periodic) trapezoid rule.  These choices are deliberately
low-order and uniform so that they compose consistently with the
second-order (trapezoid) constraint rows used by the Hamiltonian module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import BadInput, CurveflowError, DegenerateCurve, TurningTooFast

EPS_REG = 1e-10  # smallest admissible discrete speed |c'|


def rotate90(w):
    """Rotate an (N,2) array of vectors by +pi/2."""
    return np.stack([-w[:, 1], w[:, 0]], axis=1)


@dataclass(frozen=True)
class DiscreteCurve:
    """Uniformly sampled immersed plane curve."""

    points: np.ndarray
    closed: bool

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise BadInput("points must be an (N, 2) array")
        if pts.shape[0] < 8:
            raise BadInput("need at least 8 samples")
        if not np.all(np.isfinite(pts)):
            raise BadInput("curve coordinates must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n_samples(self) -> int:
        return self.points.shape[0]

    @property
    def theta_step(self) -> float:
        n = self.n_samples
        return 2.0 * np.pi / n if self.closed else 2.0 * np.pi / (n - 1)

    @property
    def theta(self) -> np.ndarray:
        return self.theta_step * np.arange(self.n_samples)

    def with_points(self, points) -> "DiscreteCurve":
        return DiscreteCurve(points, self.closed)


@dataclass(frozen=True)
class CurveFrame:
    """Per-sample geometry of a curve: speed |c'|, tangent v, normal n = Jv,
    curvature kappa and the unwrapped turning angle alpha (alpha(0) in (-pi, pi])."""

    speed: np.ndarray
    v: np.ndarray
    n: np.ndarray
    kappa: np.ndarray
    alpha: np.ndarray
    winding: int | None = None  # alpha(2pi) - alpha(0) over 2pi, closed curves only


def trapezoid_weights(n: int, closed: bool) -> np.ndarray:
    w = np.ones(n)
    if not closed:
        w[0] = w[-1] = 0.5
    return w


def theta_derivative(values: np.ndarray, closed: bool, dtheta: float) -> np.ndarray:
    """d/dtheta by central differences; one-sided second order at open ends.

    The endpoint stencils are the 4-point one-sided second-order ones whose
    leading error (dtheta^2/6) f''' matches the interior central stencil.
    The error function is then smooth across the stencil seam, which keeps
    the composed arc-length second derivative second-order up to the
    boundary (a mismatched error constant there costs one order after the
    second differentiation).  Difference form keeps constants exactly flat.
    """
    f = np.asarray(values, dtype=float)
    if closed:
        return (np.roll(f, -1, axis=0) - np.roll(f, 1, axis=0)) / (2.0 * dtheta)
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * dtheta)
    out[0] = (3.5 * (f[1] - f[0]) - 2.0 * (f[2] - f[0])
              + 0.5 * (f[3] - f[0])) / dtheta
    out[-1] = (3.5 * (f[-1] - f[-2]) - 2.0 * (f[-1] - f[-3])
               + 0.5 * (f[-1] - f[-4])) / dtheta
    return out


def build_frame(curve: DiscreteCurve) -> CurveFrame:
    """Compute the discrete frame of a curve.

    Raises DegenerateCurve if any sample has |c'| <= EPS_REG and
    TurningTooFast if the tangent turns by >= pi between samples.
    """
    cp = theta_derivative(curve.points, curve.closed, curve.theta_step)
    speed = np.hypot(cp[:, 0], cp[:, 1])
    if np.any(speed <= EPS_REG):
        raise DegenerateCurve(
            f"discrete speed has min {speed.min():.3e} <= EPS_REG={EPS_REG:.1e}"
        )
    v = cp / speed[:, None]
    n = rotate90(v)
    dsv = theta_derivative(v, curve.closed, curve.theta_step) / speed[:, None]
    kappa = np.einsum("ki,ki->k", dsv, n)

    raw = np.arctan2(v[:, 1], v[:, 0])
    alpha = np.unwrap(raw)
    steps = np.diff(alpha)
    if curve.closed:
        # continuation increment across the seam fixes the winding number
        seam = float(np.arctan2(v[-1, 0] * v[0, 1] - v[-1, 1] * v[0, 0],
                                v[-1] @ v[0]))
        steps = np.append(steps, seam)
    # a turn of +-pi per sample has no well-defined branch; anything close
    # to it means the grid does not resolve the tangent rotation
    if steps.size and np.max(np.abs(steps)) >= np.pi - 1e-2:
        raise TurningTooFast(
            "tangent turns by nearly pi between adjacent samples; refine the grid"
        )
    winding = None
    if curve.closed:
        winding = int(round((alpha[-1] + seam - alpha[0]) / (2.0 * np.pi)))
    return CurveFrame(speed=speed, v=v, n=n, kappa=kappa, alpha=alpha, winding=winding)


def ds_derivative(curve: DiscreteCurve, values: np.ndarray,
                  frame: CurveFrame | None = None) -> np.ndarray:
    """Arc-length derivative D_s f = f' / |c'| of scalar or vector samples."""
    if frame is None:
        frame = build_frame(curve)
    f = np.asarray(values, dtype=float)
    df = theta_derivative(f, curve.closed, curve.theta_step)
    if df.ndim == 1:
        return df / frame.speed
    return df / frame.speed[:, None]


def integrate_ds(curve: DiscreteCurve, values: np.ndarray,
                 frame: CurveFrame | None = None):
    """Trapezoid quadrature of f against ds = |c'| dtheta.

    Scalar samples give a float; (N,2) samples integrate componentwise.
    """
    if frame is None:
        frame = build_frame(curve)
    f = np.asarray(values, dtype=float)
    w = trapezoid_weights(curve.n_samples, curve.closed) * curve.theta_step
    if f.ndim == 1:
        return float(np.sum(w * frame.speed * f))
    return np.einsum("k,ki->i", w * frame.speed, f)


def curve_length(curve: DiscreteCurve, frame: CurveFrame | None = None) -> float:
    return integrate_ds(curve, np.ones(curve.n_samples), frame)


def _check_field(curve: DiscreteCurve, h, name: str) -> np.ndarray:
    """h as an (N, 2) float array; a CurveflowError naming it if not."""
    h = np.asarray(h, dtype=float)
    if h.shape != curve.points.shape:
        raise CurveflowError(f"{name} must be an {curve.points.shape} array on the "
                             f"curve grid, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise CurveflowError(f"{name} must be finite")
    return h


FIRST_VARIATION_QUANTITIES = ("alpha", "v", "n", "speed", "kappa")


def first_variation(curve: DiscreteCurve, h, quantity: str,
                    frame: CurveFrame | None = None):
    """First variation of a frame quantity in the direction h.

        d alpha . h = <D_s h, n>
        d v . h     = <D_s h, n> n
        d n . h     = -<D_s h, n> v
        d |c'| . h  = <D_s h, v> |c'|
        d kappa . h = <D_s^2 h, n> - 2 kappa <D_s h, v>
    """
    if frame is None:
        frame = build_frame(curve)
    h = _check_field(curve, h, "h")
    dsh = ds_derivative(curve, h, frame)
    dsh_n = np.einsum("ki,ki->k", dsh, frame.n)
    dsh_v = np.einsum("ki,ki->k", dsh, frame.v)
    if quantity == "alpha":
        return dsh_n
    if quantity == "v":
        return dsh_n[:, None] * frame.n
    if quantity == "n":
        return -dsh_n[:, None] * frame.v
    if quantity == "speed":
        return dsh_v * frame.speed
    if quantity == "kappa":
        ds2h = ds_derivative(curve, dsh, frame)
        return np.einsum("ki,ki->k", ds2h, frame.n) - 2.0 * frame.kappa * dsh_v
    raise BadInput(f"unknown quantity {quantity!r}; "
                   f"expected one of {FIRST_VARIATION_QUANTITIES}")


def centroid(curve: DiscreteCurve, frame: CurveFrame | None = None) -> np.ndarray:
    if frame is None:
        frame = build_frame(curve)
    mass = curve_length(curve, frame)
    first = integrate_ds(curve, curve.points, frame)
    return first / mass


def center(curve: DiscreteCurve) -> DiscreteCurve:
    """Translate so that the arc-length centroid sits at the origin."""
    return curve.with_points(curve.points - centroid(curve))


def section_rotation(curve: DiscreteCurve, frame: CurveFrame | None = None) -> np.ndarray:
    """The rotation matrix after which the ds-average of alpha vanishes."""
    if frame is None:
        frame = build_frame(curve)
    phi = -integrate_ds(curve, frame.alpha, frame) / curve_length(curve, frame)
    return np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])


def normalize_rotation(curve: DiscreteCurve) -> DiscreteCurve:
    """Rotate (about the centroid) by section_rotation.

    Combined with center() this realizes the reparameterization-invariant
    section of curves modulo Euclidean motions.
    """
    frame = build_frame(curve)
    mid = centroid(curve, frame)
    return curve.with_points((curve.points - mid) @ section_rotation(curve, frame).T + mid)


# -- file format ------------------------------------------------------------

def curve_to_dict(curve: DiscreteCurve) -> dict:
    return {"closed": bool(curve.closed),
            "points": [[float(x), float(y)] for x, y in curve.points]}


def curve_from_dict(data: dict) -> DiscreteCurve:
    return DiscreteCurve(np.array(data["points"], dtype=float),
                         bool(data["closed"]))


def save_curve(curve: DiscreteCurve, path) -> None:
    with open(path, "w") as fh:
        json.dump(curve_to_dict(curve), fh)
        fh.write("\n")


def load_json(path, build, kind: str):
    """build(the JSON in path); a malformed file is a CurveflowError."""
    with open(path) as fh:
        try:
            return build(json.load(fh))
        except (ValueError, KeyError, TypeError) as exc:
            raise CurveflowError(f"{path} is not a valid {kind} file: {exc!r}") from exc


def load_curve(path) -> DiscreteCurve:
    return load_json(path, curve_from_dict, "curve")
