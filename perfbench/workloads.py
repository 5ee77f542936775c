"""The four benchmark workloads.

Each workload makes its inputs from the seed (`set_up`), lists one round of
solves (`round`), gathers what its checks need after the timed region
(`evidence`, which may call the program again), reports per-solve counts
that a solve time should be read against (`counts`) and checks the
evidence: `CHECKS`
names the checks, `check_<name>(evidence)` returns (passed, detail) and
`perturb_<name>(evidence)` corrupts a copy of the evidence in a way the
check must reject (`run.py --selftest` applies them).

The program is reached only through module attributes looked up at call
time (`ga.geodesic_ivp`, ...), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import numpy as np

import reference as ref

from curveflow import curve_core as cc
from curveflow import geodesic_api as ga
from curveflow import pointwise_geometry as pg


# -- seeded generators ------------------------------------------------------------

def fourier_curve(th: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Unit circle plus sum_m coef[m-2] . (cos m th, sin m th) in x and y."""
    pts = np.stack([np.cos(th), np.sin(th)], 1)
    for i, (a, b, c, d) in enumerate(coef):
        m = i + 2
        pts[:, 0] += a * np.cos(m * th) + b * np.sin(m * th)
        pts[:, 1] += c * np.cos(m * th) + d * np.sin(m * th)
    return pts


def wavy_coefficients(rng, amp: float, modes: int = 3) -> np.ndarray:
    return np.array([amp * rng.standard_normal(4) / (m * m)
                     for m in range(2, modes + 2)])


def fourier_field(th: np.ndarray, coef: np.ndarray) -> np.ndarray:
    h = np.zeros((th.size, 2))
    for m, (a, b, c, d) in enumerate(coef):
        h[:, 0] += a * np.cos(m * th) + b * np.sin(m * th)
        h[:, 1] += c * np.cos(m * th) + d * np.sin(m * th)
    return h


def field_coefficients(rng, modes: int = 4) -> np.ndarray:
    return np.array([rng.standard_normal(4) / (1 + m * m) for m in range(modes + 1)])


def open_arc(n: int, slope: float, bend: float, phase: float, stretch: float,
             scale: float) -> np.ndarray:
    """Arc with turning angle slope*th + bend*sin(th + phase) and speed
    scale*(1 + stretch*cos th) on th in [0, 2 pi]; convex when
    slope > |bend|.  Its length is exactly 2 pi scale."""
    th = ref.theta_grid(n, closed=False)
    alpha = slope * th + bend * np.sin(th + phase)
    sigma = scale * (1.0 + stretch * np.cos(th))
    integ = sigma[:, None] * np.stack([np.cos(alpha), np.sin(alpha)], 1)
    step = th[1] - th[0]
    pts = np.zeros((n, 2))
    pts[1:] = np.cumsum(0.5 * (integ[1:] + integ[:-1]) * step, axis=0)
    return pts


def _rel(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))
                 / max(np.max(np.abs(np.asarray(b))), 1e-300))


def _verdict(value: float, limit: float, text: str):
    return value <= limit, f"{text} = {value:.3e} (limit {limit:.1e})"


class Workload:
    """What every workload shares: its seed, and no per-solve counts."""

    def __init__(self, seed: int):
        self.seed = seed

    def counts(self) -> dict:
        return {}


# -- m3_ivp_n400 -------------------------------------------------------------------

class M3IvpN400(Workload):
    """M3 geodesic_ivp at N = 400, dt = 1e-2, 10 RATTLE steps per solve."""

    name = "m3_ivp_n400"
    n, dt, steps = 400, 1e-2, 10
    FINE = 2048

    def set_up(self):
        n = self.n
        th = ref.theta_grid(n)
        rng = np.random.default_rng([self.seed, 1])
        self.curve_coef = wavy_coefficients(rng, amp=0.12)
        self.field_coef = field_coefficients(rng)
        fine = ref.theta_grid(self.FINE)
        fine_pts = fourier_curve(fine, self.curve_coef)
        fine_h = fourier_field(fine, self.field_coef)
        # scale the field to the energy of velocity 1, so that every seed
        # asks the integrator for steps of the same size
        self.field_scale = np.sqrt((7.0 * np.pi / 8.0)
                                   / (0.5 * ref.m3_quadratic(fine_pts, fine_h)))
        circle = cc.DiscreteCurve(np.stack([np.cos(th), np.sin(th)], 1), True)
        wavy = cc.DiscreteCurve(fourier_curve(th, self.curve_coef), True)
        u1 = np.stack([np.zeros(n), np.sin(th)], 1)
        u2 = -(np.sin(th) ** 2)[:, None] * np.stack([np.cos(th), np.sin(th)], 1)
        uw = self.field_scale * fourier_field(th, self.field_coef)
        self.inputs = {"circle_v1": (circle, u1), "circle_v2": (circle, u2),
                       "wavy": (wavy, uw)}

    def round(self):
        T = self.steps * self.dt
        return [(key, (lambda c=c, u=u: ga.geodesic_ivp(
            "M3", c, u, T, steps=self.steps, snapshots=self.steps + 1)))
            for key, (c, u) in self.inputs.items()]

    def evidence(self, outputs):
        fine = ref.theta_grid(self.FINE)
        wavy_half_g = 0.5 * ref.m3_quadratic(
            fourier_curve(fine, self.curve_coef),
            self.field_scale * fourier_field(fine, self.field_coef))
        closed_form = {"circle_v1": 7.0 * np.pi / 8.0,
                       "circle_v2": 17.0 * np.pi / 4.0, "wavy": wavy_half_g}
        ev = {}
        for key, path in outputs.items():
            if path is None:
                continue
            ev[key] = {"rspace": np.array(path.diagnostics["rspace"]),
                       "energy": np.array(path.diagnostics["energy_full"]),
                       "points": np.stack([c.points for c in path.curves]),
                       "half_g": closed_form[key]}
        return ev

    def check_constraints(self, ev):
        worst = max(ref.m3_constraint_residual(q, winding=1)
                    for e in ev.values() for q in e["rspace"])
        return _verdict(worst, 1e-9, "max |H| over all steps")

    def check_drift(self, ev):
        worst = max(float(np.max(np.abs(e["energy"] - e["energy"][0])) / e["energy"][0])
                    for e in ev.values())
        return _verdict(worst, 1e-3, "max relative energy drift")

    def check_energy(self, ev):
        dth2 = (2.0 * np.pi / self.n) ** 2
        errs = {k: abs(e["energy"][0] * dth2 - e["half_g"]) / e["half_g"]
                for k, e in ev.items()}
        ok = all(errs[k] <= (2e-4 if k == "circle_v1" else 5e-3) for k in errs)
        return ok, "relative error of E dtheta^2 against 1/2 G(u0, u0): " + ", ".join(
            f"{k} {v:.2e}" for k, v in errs.items()) + " (limits 2e-4 v1, 5e-3 others)"

    def check_reflection(self, ev):
        n = self.n
        mirror = (n // 2 - np.arange(n)) % n
        worst = 0.0
        for key in ("circle_v1", "circle_v2"):
            if key in ev:
                pts = ev[key]["points"]
                reflected = pts * np.array([-1.0, 1.0])
                worst = max(worst, float(np.max(np.abs(reflected - pts[:, mirror]))))
        return _verdict(worst, 1e-9, "max |R c(th) - c(pi - th)| on the circle runs")

    CHECKS = ("constraints", "drift", "energy", "reflection")

    @staticmethod
    def perturb_constraints(ev):
        ev["wavy"]["rspace"][-1][:, 2] *= 1.01

    @staticmethod
    def perturb_drift(ev):
        ev["circle_v2"]["energy"][-1] *= 1.01

    @staticmethod
    def perturb_energy(ev):
        ev["circle_v1"]["energy"] *= 1.01

    @staticmethod
    def perturb_reflection(ev):
        ev["circle_v1"]["points"][-1][3, 0] *= 1.01


# -- m3_bvp_n64 --------------------------------------------------------------------

class M3BvpN64(Workload):
    """M3 shooting BVP from the unit circle to the (1.15, 0.87) ellipse.

    The inputs do not depend on the seed.  A rigid motion of both curves
    leaves the problem unchanged in exact arithmetic, but the rounding it
    brings moves the Levenberg-Marquardt iteration onto another path (164,
    203 or 242 simulations for three rotations), so a seeded motion would
    make solve_s a property of the seed rather than of the program.  A
    change of the program can move the path in the same way, so each solve
    counts its `simulate` calls (`counts`), and solve_s compares between
    two versions only at equal counts."""

    name = "m3_bvp_n64"
    n = 64
    axes = (1.15, 0.87)
    options = dict(T=1.0, dt=0.05, modes=4, tol=5e-3, max_iter=25)
    snapshots = 21
    FINE = 2048

    def set_up(self):
        th = ref.theta_grid(self.n)
        a, b = self.axes
        self.circle = np.stack([np.cos(th), np.sin(th)], 1)
        self.ellipse = np.stack([a * np.cos(th), b * np.sin(th)], 1)
        self.c0 = cc.DiscreteCurve(self.circle, True)
        self.c1 = cc.DiscreteCurve(self.ellipse, True)
        self.simulations = []

    def _solve(self):
        """One boundary solve, counting the `simulate` calls that
        geodesic_api makes (through whatever wrapper is installed)."""
        inner, calls = ga.simulate, 0

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return inner(*args, **kwargs)

        ga.simulate = counted
        try:
            return ga.geodesic_bvp("M3", self.c0, self.c1, K=self.snapshots,
                                   **self.options)
        finally:
            ga.simulate = inner
            self.simulations.append(calls)

    def round(self):
        return [("bvp", self._solve)]

    def counts(self):
        return {"simulations_per_solve": self.simulations}

    def evidence(self, outputs):
        path = outputs.get("bvp")
        if path is None:
            return {}
        fine = ref.theta_grid(self.FINE)
        a, b = self.axes
        f0 = np.stack([np.cos(fine), np.sin(fine)], 1)
        f1 = np.stack([a * np.cos(fine), b * np.sin(fine)], 1)
        ell = np.hypot(a * np.sin(fine), b * np.cos(fine)).sum() * 2.0 * np.pi / self.FINE
        qs = np.array(path.diagnostics["rspace"])
        return {"first": path.curves[0].points.copy(),
                "last": path.curves[-1].points.copy(),
                "length": ref.m3_rspace_length(qs),
                "lower": 2.0 * abs(np.sqrt(ell) - np.sqrt(2.0 * np.pi)),
                "upper": ref.m3_straight_path_length(f0, f1),
                # the solver stops once the endpoint is within tol times the
                # size of the gap; the path's end may lie that far from the
                # ellipse, and its length that much above the bound
                "slack": self.options["tol"] * ref.m3_rspace_length(qs[[0, -1]])}

    def check_endpoints(self, ev):
        e0 = float(np.max(np.abs(ev["first"] - self.circle)))
        e1 = float(np.max(np.abs(ev["last"] - self.ellipse)))
        ok = max(e0, e1) <= 5e-3     # the transform round trip is O(dtheta^2)
        return ok, (f"first snapshot {e0:.2e} from the centred circle, "
                    f"last {e1:.2e} from the centred ellipse (limit 5e-3)")

    def check_length(self, ev):
        ok = ev["lower"] <= ev["length"] <= ev["upper"] + ev["slack"]
        return ok, (f"2|dsqrt(l)| = {ev['lower']:.6f} <= length {ev['length']:.6f} "
                    f"<= straight path {ev['upper']:.6f} + tol slack {ev['slack']:.6f}")

    CHECKS = ("endpoints", "length")

    @staticmethod
    def perturb_endpoints(ev):
        ev["last"] *= 1.01

    @staticmethod
    def perturb_length(ev):
        ev["length"] *= 1.01


# -- m2_pairs_n400 -----------------------------------------------------------------

class M2PairsN400(Workload):
    """M2 distance over all pairs of five open curves at N = 400 (convex arcs
    at several scales, non-convex wavy arcs), plus geodesic_bvp (K = 17) on
    two of the pairs."""

    name = "m2_pairs_n400"
    n, K = 400, 17
    bvp_pairs = ((0, 1), (2, 4))

    def set_up(self):
        rng = np.random.default_rng([self.seed, 3])
        u = rng.uniform
        base = dict(slope=u(0.6, 0.8), bend=u(0.1, 0.2), phase=u(0, 2 * np.pi),
                    stretch=u(0.15, 0.3))
        small = u(0.7, 0.9)
        specs = [dict(base, scale=small), dict(base, scale=2.0 * small),
                 dict(slope=u(0.5, 0.7), bend=u(0.1, 0.3), phase=u(0, 2 * np.pi),
                      stretch=u(0.1, 0.3), scale=u(1.2, 1.5))]
        for _ in range(2):   # turning angle not monotone: curvature changes sign
            specs.append(dict(slope=u(0.05, 0.15), bend=u(0.6, 0.9),
                              phase=u(0, 2 * np.pi), stretch=u(0.1, 0.3),
                              scale=u(0.8, 1.2)))
        self.lengths = [2.0 * np.pi * s["scale"] for s in specs]
        self.curves = [cc.DiscreteCurve(open_arc(self.n, **s), False) for s in specs]
        self.pairs = [(i, j) for i in range(len(specs)) for j in range(i + 1, len(specs))]
        # first-call lazy set-up: the half-plane spline tables, rebuilt on
        # every set-up repetition so that each repetition pays for them
        pg._tables = None
        pg.tables()

    def round(self):
        solves = [(("distance", i, j),
                   (lambda i=i, j=j: ga.distance("M2", self.curves[i], self.curves[j])))
                  for i, j in self.pairs]
        solves += [(("bvp", i, j),
                    (lambda i=i, j=j: ga.geodesic_bvp("M2", self.curves[i],
                                                      self.curves[j], K=self.K)))
                   for i, j in self.bvp_pairs]
        return solves

    def evidence(self, outputs):
        m = len(self.curves)
        d = np.full((m, m), np.nan)
        for (kind, i, j), out in outputs.items():
            if kind == "distance" and out is not None:
                d[i, j] = out.value
        for i, j in self.pairs:                  # reverse order and self
            d[j, i] = ga.distance("M2", self.curves[j], self.curves[i]).value
        for i in range(m):
            d[i, i] = ga.distance("M2", self.curves[i], self.curves[i]).value
        paths = {}
        for i, j in self.bvp_pairs:
            path = outputs.get(("bvp", i, j))
            if path is None:
                continue
            qs = np.array(path.diagnostics["rspace"])
            paths[(i, j)] = {"fiber_lengths": np.array(path.diagnostics["fiber_lengths"]),
                             "segment": ref.halfplane_segment_length(qs[0], qs[-1]),
                             "path_length": ref.m2_path_length(qs),
                             "distance": d[i, j]}
        return {"d": d, "sqrt_len": np.sqrt(np.array(self.lengths)), "paths": paths}

    def check_symmetry(self, ev):
        d = ev["d"]
        off = ~np.eye(d.shape[0], dtype=bool)
        asym = float(np.max(np.abs(d - d.T)[off] / d[off]))
        ok = asym <= 1e-9 and float(np.max(np.abs(np.diag(d)))) == 0.0
        return ok, (f"max relative |d(a,b) - d(b,a)| = {asym:.2e} (limit 1e-9), "
                    f"max d(a,a) = {np.max(np.abs(np.diag(d))):.1e} (must be 0)")

    def check_triangle(self, ev):
        d = ev["d"]
        m = d.shape[0]
        worst = -np.inf
        for a in range(m):
            for b in range(m):
                for c in range(m):
                    if len({a, b, c}) == 3:
                        worst = max(worst, (d[a, c] - d[a, b] - d[b, c]) / d[a, c])
        return worst <= 1e-12, (f"max (d(a,c) - d(a,b) - d(b,c)) / d(a,c) = {worst:.3e} "
                                "(must be <= 1e-12)")

    def check_sqrt_length(self, ev):
        d, s = ev["d"], ev["sqrt_len"]
        m = d.shape[0]
        ratio = min(d[i, j] / (2.0 * abs(s[i] - s[j]))
                    for i in range(m) for j in range(m) if i != j)
        return ratio >= 1.0, f"min d / (2 |dsqrt(l)|) = {ratio:.6f} (must be >= 1)"

    def check_fiber_segment(self, ev):
        worst = max(float(np.max(p["fiber_lengths"] / p["segment"]))
                    for p in ev["paths"].values())
        return worst <= 1.0 + 1e-9, (f"max fiber length / straight-segment length = "
                                     f"{worst:.12f} (limit 1 + 1e-9)")

    def check_path_length(self, ev):
        worst = max(abs(p["path_length"] - p["distance"]) / p["distance"]
                    for p in ev["paths"].values())
        return _verdict(worst, 2e-3, "max relative |path length - distance|")

    CHECKS = ("symmetry", "triangle", "sqrt_length", "fiber_segment", "path_length")

    @staticmethod
    def perturb_symmetry(ev):
        ev["d"][0, 2] *= 1.01

    @staticmethod
    def perturb_triangle(ev):
        d = ev["d"]
        d[0, 2] = 1.01 * (d[0, 1] + d[1, 2])

    @staticmethod
    def perturb_sqrt_length(ev):
        d, s = ev["d"], ev["sqrt_len"]
        gap = 2.0 * np.abs(s[:, None] - s[None, :])
        ratio = np.where(gap > 0, d / np.where(gap > 0, gap, 1.0), np.inf)
        worst = np.unravel_index(np.argmin(ratio), d.shape)
        d[worst] = 0.99 * gap[worst]

    @staticmethod
    def perturb_fiber_segment(ev):
        p = max(ev["paths"].values(), key=lambda p: np.max(p["fiber_lengths"] / p["segment"]))
        k = int(np.argmax(p["fiber_lengths"] / p["segment"]))
        p["fiber_lengths"][k] *= 1.01

    @staticmethod
    def perturb_path_length(ev):
        p = next(iter(ev["paths"].values()))
        p["distance"] *= 1.01


# -- shape_project_n800 ------------------------------------------------------------

class ShapeProjectN800(Workload):
    """horizontal_project at N = 800: two seeded fields on one seeded wavy
    curve, one on a second, and the circle's closed-form horizontal field."""

    name = "shape_project_n800"
    n = 800

    def set_up(self):
        n = self.n
        th = ref.theta_grid(n)
        rng = np.random.default_rng([self.seed, 4])
        pts_a = fourier_curve(th, wavy_coefficients(rng, amp=0.15))
        pts_b = fourier_curve(th, wavy_coefficients(rng, amp=0.15))
        circle = np.stack([np.cos(th), np.sin(th)], 1)
        v = np.stack([-np.sin(th), np.cos(th)], 1)
        nrm = np.stack([-np.cos(th), -np.sin(th)], 1)
        self.curves = {"a": cc.DiscreteCurve(pts_a, True),
                       "b": cc.DiscreteCurve(pts_b, True),
                       "circle": cc.DiscreteCurve(circle, True)}
        self.fields = {
            "a1": ("a", fourier_field(th, field_coefficients(rng))),
            "a2": ("a", fourier_field(th, field_coefficients(rng))),
            "b1": ("b", fourier_field(th, field_coefficients(rng))),
            "circle": ("circle", np.cos(2 * th)[:, None] * nrm
                       + (8.0 / 7.0) * np.sin(2 * th)[:, None] * v),
        }
        self.mix = rng.uniform(0.5, 2.0, 2)
        zeta = np.zeros(n)
        for m, (a, b) in enumerate(rng.standard_normal((4, 2))):
            zeta += (a * np.cos(m * th) + b * np.sin(m * th)) / (1 + m * m)
        self.zeta = zeta

    def round(self):
        return [(key, (lambda c=c, h=h: ga.horizontal_project(self.curves[c], h)))
                for key, (c, h) in self.fields.items()]

    def evidence(self, outputs):
        proj = {}
        for key, out in outputs.items():
            if out is None:
                continue
            c, h = self.fields[key]
            proj[key] = {"h": h, "ph": np.array(out),
                         "pph": np.array(ga.horizontal_project(self.curves[c], out)),
                         "cprime": ref.central_diff(self.curves[c].points)}
        ev = {"proj": proj}
        if "a1" in proj and "a2" in proj:
            s, t = self.mix
            combo = s * self.fields["a1"][1] + t * self.fields["a2"][1]
            ev["linear"] = {"p_combo": np.array(ga.horizontal_project(self.curves["a"], combo)),
                            "combo_p": s * proj["a1"]["ph"] + t * proj["a2"]["ph"]}
        vert = self.zeta[:, None] * ref.central_diff(self.curves["a"].points)
        ev["vertical"] = {"field": vert,
                          "p": np.array(ga.horizontal_project(self.curves["a"], vert))}
        return ev

    def check_tangent(self, ev):
        worst = 0.0
        for e in ev["proj"].values():
            removed = e["h"] - e["ph"]
            cross = removed[:, 0] * e["cprime"][:, 1] - removed[:, 1] * e["cprime"][:, 0]
            scale = np.max(np.abs(e["h"])) * np.max(np.abs(e["cprime"]))
            worst = max(worst, float(np.max(np.abs(cross)) / scale))
        return _verdict(worst, 1e-10, "max |(h - Ph) x c'| / (|h| |c'|)")

    def check_idempotent(self, ev):
        worst = max(_rel(e["pph"], e["ph"]) for e in ev["proj"].values())
        return _verdict(worst, 1e-8, "max |P(Ph) - Ph| / |Ph|")

    def check_linear(self, ev):
        e = ev["linear"]
        return _verdict(_rel(e["p_combo"], e["combo_p"]), 1e-8,
                        "|P(s h1 + t h2) - (s Ph1 + t Ph2)| / |.|")

    def check_vertical(self, ev):
        e = ev["vertical"]
        val = float(np.max(np.abs(e["p"])) / np.max(np.abs(e["field"])))
        return _verdict(val, 1e-8, "|P(zeta c')| / |zeta c'|")

    def check_circle(self, ev):
        e = ev["proj"]["circle"]
        return _verdict(_rel(e["ph"], e["h"]), 1e-4,
                        "|Ph - h| / |h| for the circle's horizontal field")

    CHECKS = ("tangent", "idempotent", "linear", "vertical", "circle")

    @staticmethod
    def perturb_tangent(ev):
        ev["proj"]["a1"]["ph"] *= 1.01

    @staticmethod
    def perturb_idempotent(ev):
        ev["proj"]["b1"]["pph"] *= 1.01

    @staticmethod
    def perturb_linear(ev):
        ev["linear"]["p_combo"] *= 1.01

    @staticmethod
    def perturb_vertical(ev):
        e = ev["vertical"]
        e["p"] = e["p"] + 0.01 * e["field"]

    @staticmethod
    def perturb_circle(ev):
        ev["proj"]["circle"]["ph"] *= 1.01


WORKLOADS = {w.name: w for w in (M3IvpN400, M3BvpN64, M2PairsN400, ShapeProjectN800)}
