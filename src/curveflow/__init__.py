"""curveflow: geodesics, distances and curvature on spaces of immersed
plane curves under four second-order Sobolev metrics, computed through
square-root-type transforms into simpler function spaces."""

from .curve_core import (
    CurveFrame,
    DiscreteCurve,
    build_frame,
    center,
    curve_length,
    ds_derivative,
    first_variation,
    integrate_ds,
    load_curve,
    save_curve,
)
from .metric_suite import MetricId, MomentumDensity, apply_L, geodesic_residual, hc_quadratic, kernel_basis, metric_eval
from .rtransform import (
    RPoint,
    constraint_gradients,
    constraints,
    dr,
    load_rpoint,
    project_image,
    r_forward,
    r_inverse,
    save_rpoint,
)
from .pointwise_geometry import (
    F_integral,
    bvp2,
    dist2_lower_bound,
    g_eval,
    g_inv,
    scal2,
    sectional_curvature_m2,
    spray2,
    trajectory2,
)
from .constrained_hamiltonian import (
    HamiltonianState,
    discrete_energy,
    project_consistent,
    rattle_step,
    simulate,
)
from .geodesic_api import (
    GeodesicPath,
    distance,
    geodesic_bvp,
    geodesic_ivp,
    horizontal_project,
    shape_geodesic,
)

__version__ = "0.1.0"
