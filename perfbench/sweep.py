"""Reference N-sweep of three kernels, timed with the traced harness.

    python3 perfbench/sweep.py

Prints, for each N in SIZES, the median duration of the `rattle_step`,
`horizontal_project` and `fiber_distance` spans seen in REPEATS runs of
geodesic_ivp (circle, velocity 1, dt = 1e-2, 5 steps), horizontal_project
(seeded wavy curve and field) and an M2 distance (two seeded open arcs).
The environment is pinned as in run.py.  The figures are for the README;
nothing gates on them.
"""

import sys

import run

SIZES = (64, 100, 200, 400, 800)
REPEATS = 3


def main() -> int:
    run._pin_environment()
    run._import_program()
    import numpy as np
    import reference as ref
    import tracer as tr
    import workloads as wl
    from curveflow import curve_core as cc
    from curveflow import geodesic_api as ga

    def median_span(name, solve):
        t = tr.Tracer()
        t.install()
        try:
            for _ in range(REPEATS):
                solve()
        finally:
            t.uninstall()
        ids, t0, t1, _ = t.arrays(0, t.mark())
        return float(np.median((t1 - t0)[ids == t.name_ids[name]]))

    rng = np.random.default_rng(7)
    curve_coef, field_coef = wl.wavy_coefficients(rng, 0.15), wl.field_coefficients(rng)
    print("| N | rattle_step (ms) | horizontal_project (ms) | fiber solve (ms) |")
    print("|---|---|---|---|")
    for n in SIZES:
        th = ref.theta_grid(n)
        circle = cc.DiscreteCurve(np.stack([np.cos(th), np.sin(th)], 1), True)
        u1 = np.stack([np.zeros(n), np.sin(th)], 1)
        wavy = cc.DiscreteCurve(wl.fourier_curve(th, curve_coef), True)
        h = wl.fourier_field(th, field_coef)
        arcs = [cc.DiscreteCurve(wl.open_arc(n, 0.7, 0.15, 0.3, 0.2, s), False)
                for s in (0.8, 1.3)]
        step = median_span("constrained_hamiltonian.rattle_step",
                           lambda: ga.geodesic_ivp("M3", circle, u1, 0.05, steps=5))
        proj = median_span("geodesic_api.horizontal_project",
                           lambda: ga.horizontal_project(wavy, h))
        fiber = median_span("pointwise_geometry.fiber_distance",
                            lambda: ga.distance("M2", *arcs))
        print(f"| {n} | {1e3 * step:.2f} | {1e3 * proj:.1f} | {1e3 * fiber:.3f} |",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
