"""Discrete differential geometry of uniformly sampled plane curves.

A curve is N points on the parameter grid theta_k = k * dtheta with
dtheta = 2*pi/N for closed curves and 2*pi/(N-1) for open ones (so the
open grid includes both endpoints of [0, 2*pi]).  All derivatives are
second-order finite differences: periodic central stencils for closed
curves, one-sided three-point stencils at open endpoints.  Integration
is the (periodic) trapezoid rule.  These choices are deliberately
low-order and uniform so that they compose consistently with the
second-order (trapezoid) constraint rows used by the Hamiltonian module.
A curve carries its frame (DiscreteCurve.frame, built by build_frame on
first use, or moved along by DiscreteCurve.moved), which every function
of the curve reads.  FieldJet defines D_s h, D_s^2 h and their v/n parts
once for every form built from them, _dot the per-sample pairing and
_shift the cyclic shift along the samples; all three take stacks of fields.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadInput, CurveflowError, DegenerateCurve, TurningTooFast

EPS_REG = 1e-10  # smallest admissible discrete speed |c'|


def rotate90(w):
    """Rotate an (N,2) array of vectors by +pi/2."""
    return np.stack([-w[:, 1], w[:, 0]], axis=1)


def _dot(a, b):
    """<a_k, b_k> per sample of two (N,2) arrays, or per column of stacks."""
    return a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]


def _shift(v: np.ndarray, j: int) -> np.ndarray:
    """v_{k+j} along axis 0 on a closed grid (np.roll(v, -j, 0), cheaper)."""
    return np.concatenate((v[j:], v[:j]))


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
        _finite(pts, "points")
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

    def moved(self, rot, shift) -> "DiscreteCurve":
        """The curve translated by shift, then rotated by the 2x2 rotation
        rot about the origin.  It carries this curve's frame: v and n
        rotate, speed and kappa stay, and alpha shifts by the angle, alpha(0)
        in (-pi, pi] as build_frame takes it."""
        f, out = self.frame, self.with_points((self.points + shift) @ np.transpose(rot))
        v, n = f.v @ np.transpose(rot), f.n @ np.transpose(rot)
        alpha = f.alpha + (np.arctan2(v[0, 1], v[0, 0]) - f.alpha[0])
        for values in (v, n, alpha):
            values.setflags(write=False)
        out.__dict__["frame"] = CurveFrame(f.speed, v, n, f.kappa, alpha, f.winding)
        return out

    # build_frame is looked up per call, so a wrapped module attribute sees every build
    frame = cached_property(lambda self: build_frame(self))


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
    The differences are written into the output, wrapped at both ends on
    closed grids, so a stack of fields makes no shifted copies.
    """
    f = np.asarray(values, dtype=float)
    out = np.empty_like(f)
    np.subtract(f[2:], f[:-2], out=out[1:-1])
    out[0], out[-1] = f[1] - f[-1], f[0] - f[-2]  # the closed grid's wrap
    out /= 2.0 * dtheta
    if not closed:
        out[0] = (3.5 * (f[1] - f[0]) - 2.0 * (f[2] - f[0])
                  + 0.5 * (f[3] - f[0])) / dtheta
        out[-1] = (3.5 * (f[-1] - f[-2]) - 2.0 * (f[-1] - f[-3])
                   + 0.5 * (f[-1] - f[-4])) / dtheta
    return out


def _velocity(points: np.ndarray, closed: bool, dtheta: float):
    """(c', |c'|) of points (N, 2) or a stack (N, 2, K): the one definition of the speed."""
    cp = theta_derivative(points, closed, dtheta)
    return cp, np.hypot(cp[:, 0], cp[:, 1])


def build_frame(curve: DiscreteCurve) -> CurveFrame:
    """Compute the discrete frame of a curve.

    Raises DegenerateCurve if any sample has |c'| <= EPS_REG and
    TurningTooFast if the tangent turns by >= pi between samples.
    """
    cp, speed = _velocity(curve.points, curve.closed, curve.theta_step)
    if np.any(speed <= EPS_REG):
        raise DegenerateCurve(
            f"discrete speed has min {speed.min():.3e} <= EPS_REG={EPS_REG:.1e}"
        )
    v = cp / speed[:, None]
    n = rotate90(v)
    dsv = theta_derivative(v, curve.closed, curve.theta_step) / speed[:, None]
    kappa = _dot(dsv, n)

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
    for values in (speed, v, n, kappa, alpha):  # shared by every reader of curve.frame
        values.setflags(write=False)
    return CurveFrame(speed=speed, v=v, n=n, kappa=kappa, alpha=alpha, winding=winding)


def _finite(values, name: str) -> np.ndarray:
    """values as a float array; BadInput naming it if it holds a non-finite number."""
    f = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(f)):
        raise BadInput(f"{name} must be finite")
    return f


def _check_samples(values, shapes, name: str) -> np.ndarray:
    """values as a float array of one of the shapes; BadInput naming it if
    its shape is another or it holds a non-finite number."""
    f = np.asarray(values, dtype=float)
    if f.shape not in shapes:
        raise BadInput(f"{name} must be an array of shape "
                       f"{' or '.join(map(str, shapes))}, got shape {f.shape}")
    return _finite(f, name)


def ds_derivative(curve: DiscreteCurve, values: np.ndarray) -> np.ndarray:
    """Arc-length derivative D_s f = f' / |c'| of samples, or of stacks."""
    df = theta_derivative(values, curve.closed, curve.theta_step)
    df /= curve.frame.speed.reshape((-1,) + (1,) * (df.ndim - 1))
    return df


def integrate_ds(curve: DiscreteCurve, values: np.ndarray):
    """Trapezoid quadrature of f against ds = |c'| dtheta.

    Scalar samples give a float; (N,2) samples integrate componentwise.
    """
    w = trapezoid_weights(curve.n_samples, curve.closed) * curve.theta_step * curve.frame.speed
    f = _check_samples(values, [(curve.n_samples,), curve.points.shape], "values")
    if f.ndim == 1:
        return float(np.sum(w * f))
    return np.einsum("k,ki->i", w, f)


def curve_length(curve: DiscreteCurve) -> float:
    return integrate_ds(curve, np.ones(curve.n_samples))


class FieldJet:
    """The arc-length jet of a field h on a curve: d1 = D_s h, d2 = D_s^2 h
    and a1 = <d1, v>, b1 = <d1, n>, a2 = <d2, v>, b2 = <d2, n>, each but d1
    computed on first use.  The field is checked here, once, after the
    curve's frame is built.  With columns=True h may be an (N,2,r) stack,
    and frame's arrays get a trailing axis to act on each column alike."""

    def __init__(self, curve: DiscreteCurve, h, name: str = "h", columns: bool = False):
        f, shape = curve.frame, curve.points.shape + (np.shape(h)[2:3] if columns else ())
        if len(shape) == 3:
            f = CurveFrame(*(x[..., None] for x in (f.speed, f.v, f.n, f.kappa, f.alpha)))
        self.curve, self.frame = curve, f
        self.d1 = ds_derivative(curve, _check_samples(h, [shape], name))

    d2 = cached_property(lambda self: ds_derivative(self.curve, self.d1))
    a1 = cached_property(lambda self: _dot(self.d1, self.frame.v))
    b1 = cached_property(lambda self: _dot(self.d1, self.frame.n))
    a2 = cached_property(lambda self: _dot(self.d2, self.frame.v))
    b2 = cached_property(lambda self: _dot(self.d2, self.frame.n))


FIRST_VARIATION_QUANTITIES = ("alpha", "v", "n", "speed", "kappa")


def first_variation(curve: DiscreteCurve, h, quantity: str):
    """First variation of a frame quantity in the direction h.

        d alpha . h = <D_s h, n>
        d v . h     = <D_s h, n> n
        d n . h     = -<D_s h, n> v
        d |c'| . h  = <D_s h, v> |c'|
        d kappa . h = <D_s^2 h, n> - 2 kappa <D_s h, v>
    """
    jet = FieldJet(curve, h)
    frame = jet.frame
    if quantity == "alpha":
        return jet.b1
    if quantity == "v":
        return jet.b1[:, None] * frame.n
    if quantity == "n":
        return -jet.b1[:, None] * frame.v
    if quantity == "speed":
        return jet.a1 * frame.speed
    if quantity == "kappa":
        return jet.b2 - 2.0 * frame.kappa * jet.a1
    raise BadInput(f"unknown quantity {quantity!r}; "
                   f"expected one of {FIRST_VARIATION_QUANTITIES}")


def centroid(curve: DiscreteCurve) -> np.ndarray:
    return integrate_ds(curve, curve.points) / curve_length(curve)


def center(curve: DiscreteCurve) -> DiscreteCurve:
    """Translate so that the arc-length centroid sits at the origin."""
    return curve.moved(np.eye(2), -centroid(curve))


def _centered(points: np.ndarray, closed: bool) -> np.ndarray:
    """The points of a stack (K, N, 2) of curves, each translated so that
    its arc-length centroid sits at the origin, with no frame built: each
    curve's sums are integrate_ds's and curve_length's, so the points are
    center's, bit for bit."""
    n = points.shape[1]
    dth = 2.0 * np.pi / n if closed else 2.0 * np.pi / (n - 1)
    speed = _velocity(points.transpose(1, 2, 0), closed, dth)[1].T
    w = np.ascontiguousarray(trapezoid_weights(n, closed) * dth * speed)
    centroids = np.einsum("jk,jki->ji", w, points) / np.sum(w, axis=1)[:, None]
    return points - centroids[:, None]


def section_rotation(curve: DiscreteCurve) -> np.ndarray:
    """The rotation matrix after which the ds-average of alpha vanishes."""
    phi = -integrate_ds(curve, curve.frame.alpha) / curve_length(curve)
    return np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])


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
