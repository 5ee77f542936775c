"""Command-line surface: transforms, geodesic solves, distances,
curvature reports, the validation suite, and experiment-data export.

Exit codes: 0 success, 1 domain/solver errors, 2 usage errors.
Outputs are plot-ready JSON/CSV; figures are left to external tooling.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import geodesic_api as ga
from . import validation
from .curve_core import DiscreteCurve, load_curve, load_json, save_curve
from .errors import CurveflowError
from .metric_suite import MetricId
from .pointwise_geometry import scal2, sectional_curvature_m2
from .rtransform import load_rpoint, r_forward, r_inverse, save_rpoint


@dataclass
class RunConfig:
    """Run parameters; precedence is flags > config file > defaults."""

    n: int = 100
    dt: float = 1e-3
    tol: float = 1e-4
    outdir: str = "out"

    def __post_init__(self):
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            if isinstance(value, bool) or not isinstance(
                    value, (int, float) if kind is float else kind):
                raise ValueError(f"{f.name} must be of type {kind.__name__}, "
                                 f"got {value!r}")
        if self.n < 8:
            raise ValueError("N must be at least 8")
        if self.dt <= 0 or self.tol <= 0:
            raise ValueError("steps and tolerances must be positive")


def _numbers(text: str) -> list[float]:
    """The comma-separated numbers of an option value; a usage error names
    the first token that is not one."""
    out = []
    for token in text.split(","):
        try:
            out.append(float(token))
        except ValueError:
            raise argparse.ArgumentTypeError(f"{token!r} is not a number") from None
    return out


def _merge_config(args) -> RunConfig:
    names = [f.name for f in fields(RunConfig)]
    data = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config file {args.config}: "
                             f"{getattr(exc, 'strerror', None) or exc}") from exc
        if not isinstance(data, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object "
                             f"with keys from: {', '.join(names)}")
        unknown = sorted(set(data) - set(names))
        if unknown:
            raise ValueError(f"config file {args.config} has unknown keys "
                             f"{', '.join(unknown)} (known: {', '.join(names)})")
    for name in names:
        v = getattr(args, name, None)
        if v is not None:
            data[name] = v
    return RunConfig(**data)


def _metric(name) -> MetricId:
    try:
        return MetricId.parse(name)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown metric {name!r}; choose one of "
            f"{', '.join(m.value for m in MetricId)}") from None


def _load_field(path) -> np.ndarray:
    return load_json(path, lambda data: np.array(data["values"], dtype=float),
                     "field")


def _circle(n: int, r: float = 1.0) -> DiscreteCurve:
    th = 2.0 * np.pi * np.arange(n) / n
    return DiscreteCurve(np.stack([r * np.cos(th), r * np.sin(th)], 1), True)


def _ellipse(n: int, a: float, b: float, rot: float = 0.0) -> DiscreteCurve:
    th = 2.0 * np.pi * np.arange(n) / n
    pts = np.stack([a * np.cos(th), b * np.sin(th)], 1)
    if rot:
        R = np.array([[np.cos(rot), -np.sin(rot)], [np.sin(rot), np.cos(rot)]])
        pts = pts @ R.T
    return DiscreteCurve(pts, True)


def _write_snapshot_csv(path, outfile) -> None:
    """One plot-ready CSV with columns t, k, x, y over all snapshots."""
    rows = []
    for t, c in zip(path.times, path.curves):
        for k, (x, y) in enumerate(c.points):
            rows.append([t, k, x, y])
    np.savetxt(outfile, np.asarray(rows), delimiter=",",
               header="t,k,x,y", comments="")


def cmd_transform(args) -> int:
    if args.inverse:
        save_curve(r_inverse(args.metric, load_rpoint(args.input)), args.output)
    else:
        save_rpoint(r_forward(args.metric, load_curve(args.input)), args.output)
    print(f"wrote {args.output}")
    return 0


def cmd_ivp(args) -> int:
    c0 = load_curve(args.curve)
    u0 = _load_field(args.velocity)
    path = ga.geodesic_ivp(args.metric, c0, u0, args.T, steps=args.steps,
                           snapshots=args.snapshots)
    path.export(args.outdir)
    print(f"wrote {path.n_snapshots} snapshots to {args.outdir}")
    return 0


def cmd_bvp(args) -> int:
    c0 = load_curve(args.source)
    c1 = load_curve(args.target)
    options = {k: getattr(args, k) for k in ("dt", "modes", "tol")
               if getattr(args, k) is not None}
    path = ga.geodesic_bvp(args.metric, c0, c1, K=args.snapshots, T=args.T, **options)
    path.export(args.outdir)
    extra = ""
    if "endpoint_mismatch" in path.diagnostics:
        extra = f" (endpoint mismatch {path.diagnostics['endpoint_mismatch']:.3e})"
    print(f"wrote {path.n_snapshots} snapshots to {args.outdir}{extra}")
    return 0


def cmd_distance(args) -> int:
    c0 = load_curve(args.source)
    c1 = load_curve(args.target)
    res = ga.distance(args.metric, c0, c1)
    print(f"distance[{args.metric.value}] = {res.value:.12g}")
    for name, val in res.lower_bounds.items():
        print(f"  lower bound ({name}): {float(val):.12g}")
    return 0


def cmd_curvature(args) -> int:
    if args.scal2:
        rows = [(x, scal2((x, 0.0))) for x in args.scal2]
        print("x, scal")
        for x, value in rows:
            print(f"{x:g}, {value:.12g}")
        return 0
    c = load_curve(args.curve)
    h = _load_field(args.h)
    k = _load_field(args.k)
    val = sectional_curvature_m2(c, h, k)
    print(f"sectional curvature (M2 plane) = {val:.12g}")
    return 0


def cmd_validate(args) -> int:
    failures = validation.run_all(verbose=True)
    print(f"{len(validation.CHECKS) - failures}/{len(validation.CHECKS)} checks passed")
    return 0 if failures == 0 else 1


# a flag the figure does not read is a usage error; the defaults apply after
_DEMO_UNREAD = {"fig1": ("dt",), "fig2": ("tol", "modes", "bvp_dt"),
                "fig3": ("tol", "modes", "bvp_dt", "which")}
_DEMO_DEFAULTS = {"which": 1, "modes": 8, "bvp_dt": 2e-2}


def cmd_demo(args) -> int:
    cfg = args.run_config
    n = cfg.n
    os.makedirs(cfg.outdir, exist_ok=True)
    th = 2.0 * np.pi * np.arange(n) / n
    if args.figure == "fig2":
        if args.which == 1:
            u0 = np.stack([np.zeros(n), np.sin(th)], 1)
            T = 2.0
        else:
            u0 = -(np.sin(th) ** 2)[:, None] * np.stack([np.cos(th), np.sin(th)], 1)
            T = 1.0
        steps = int(round(T / cfg.dt))
        path = ga.geodesic_ivp(MetricId.M3, _circle(n), u0, T, steps=steps,
                               snapshots=args.snapshots)
        note = (f"initial-velocity geodesic: {path.n_snapshots} snapshots, "
                f"max |H| = {path.diagnostics['constraint_norm_full'].max():.2e}")
    elif args.figure == "fig3":
        h = -np.stack([2.0 - np.cos(2 * th), 2.0 * np.sin(2 * th)], 1)
        steps = int(round(0.3 / cfg.dt))
        path = ga.shape_geodesic(_circle(n), h, 0.3, steps=steps,
                                 snapshots=args.snapshots)
        resid = path.diagnostics["horizontality_rel"]
        note = (f"horizontal geodesic: relative residual start {resid[0]:.3e}, "
                f"max {resid.max():.3e}")
    else:  # fig1: boundary value problems
        if args.which == 1:
            c0, c1 = _circle(n), _ellipse(n, 1.4, 0.7)
        else:
            c0 = _ellipse(n, 1.3, 0.75)
            c1 = _ellipse(n, 1.3, 0.75, rot=np.pi / 4)
        path = ga.geodesic_bvp(MetricId.M3, c0, c1, K=args.snapshots, T=2.0,
                               dt=args.bvp_dt, modes=args.modes, tol=cfg.tol)
        note = (f"boundary geodesic: endpoint mismatch "
                f"{path.diagnostics['endpoint_mismatch']:.3e} "
                f"(scale {path.diagnostics['mismatch_scale']:.3e})")
    path.export(cfg.outdir)
    _write_snapshot_csv(path, os.path.join(cfg.outdir, "snapshots.csv"))
    print(note)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="curveflow",
        description="Geodesics, distances and curvature on spaces of "
                    "immersed plane curves via square-root-type transforms.")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("transform", help="map curve file <-> transform file")
    t.add_argument("--metric", required=True, type=_metric)
    t.add_argument("--inverse", action="store_true")
    t.add_argument("input")
    t.add_argument("-o", "--output", required=True)
    t.set_defaults(func=cmd_transform)

    iv = sub.add_parser("ivp", help="geodesic initial value problem")
    iv.add_argument("--metric", required=True, type=_metric)
    iv.add_argument("--curve", required=True)
    iv.add_argument("--velocity", required=True,
                    help='JSON {"values": [[vx, vy], ...]}')
    iv.add_argument("-T", type=float, required=True)
    iv.add_argument("--steps", type=int,
                    help="M3 RATTLE steps (default 200; M1 and M2 are exact)")
    iv.add_argument("--snapshots", type=int, default=33)
    iv.add_argument("-o", "--outdir", default="out")
    iv.set_defaults(func=cmd_ivp)

    bv = sub.add_parser("bvp", help="geodesic boundary value problem")
    bv.add_argument("--metric", required=True, type=_metric)
    bv.add_argument("source")
    bv.add_argument("target")
    bv.add_argument("-T", type=float, default=1.0)
    bv.add_argument("--dt", type=float, help="M3 shooting time step")
    bv.add_argument("--modes", type=int, help="M3 initial Fourier modes")
    bv.add_argument("--tol", type=float, help="M3 endpoint tolerance")
    bv.add_argument("--snapshots", type=int, default=17)
    bv.add_argument("-o", "--outdir", default="out")
    bv.set_defaults(func=cmd_bvp)

    d = sub.add_parser("distance", help="geodesic distance + lower bounds")
    d.add_argument("--metric", required=True, type=_metric)
    d.add_argument("source")
    d.add_argument("target")
    d.set_defaults(func=cmd_distance)

    cv = sub.add_parser("curvature", help="sectional curvature / scal tables")
    cv.add_argument("--metric", default="M2", choices=["M2"])
    cv.add_argument("--curve")
    cv.add_argument("--h")
    cv.add_argument("--k")
    cv.add_argument("--scal2", type=_numbers, help="comma-separated x values for -3/x^2")
    cv.set_defaults(func=cmd_curvature)

    v = sub.add_parser("validate", help="run the invariant suite")
    v.set_defaults(func=cmd_validate)

    dm = sub.add_parser("demo", help="regenerate experiment data")
    dm.add_argument("figure", choices=["fig1", "fig2", "fig3"])
    dm.add_argument("--which", type=int, choices=[1, 2], help="fig1/fig2 case (default 1)")
    dm.add_argument("--config")
    dm.add_argument("--n", type=int)
    dm.add_argument("--dt", type=float, help="fig2/fig3 time step")
    dm.add_argument("--tol", type=float, help="fig1 endpoint tolerance")
    dm.add_argument("--snapshots", type=int, default=17)
    dm.add_argument("--modes", type=int, help="fig1 initial Fourier modes (default 8)")
    dm.add_argument("--bvp-dt", type=float, help="fig1 shooting time step (default 2e-2)")
    dm.add_argument("-o", "--outdir")
    dm.set_defaults(func=cmd_demo)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "curvature":
        given = [f"--{name}" for name in ("curve", "h", "k") if getattr(args, name)]
        if args.scal2 and given:
            parser.error(f"curvature --scal2 does not read {', '.join(given)}")
        if not args.scal2 and len(given) < 3:
            parser.error("curvature needs either --scal2 or --curve/--h/--k")
    if args.command == "demo":
        unread = [f"--{name.replace('_', '-')}" for name in _DEMO_UNREAD[args.figure]
                  if getattr(args, name) is not None]
        if unread:
            parser.error(f"demo {args.figure} does not read {', '.join(unread)}")
        vars(args).update({k: v for k, v in _DEMO_DEFAULTS.items() if getattr(args, k) is None})
        try:
            args.run_config = _merge_config(args)
        except ValueError as exc:
            parser.error(str(exc))
    try:
        return args.func(args)
    except CurveflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
