"""Positive quadrature formulas on the unit circle.

Rules with n nodes and prescribed degree of exactness n-1-m are built from
a measure's recurrence coefficients plus m free tail coefficients and a
unimodular boundary parameter. The weights are Christoffel numbers,
positive by construction. A validation layer (exactness, orthogonality,
zero separation, interlacing, weight asymptotics) and a transfer to
Gauss/Radau/Lobatto-type rules on [-1, 1] come with them.
"""

from . import errors
from .interval_map import (
    IntervalRule,
    check_algebraic_exactness,
    chebyshev_weight_moments,
    circle_to_interval,
    legendre_weight_moments,
    symmetrize,
)
from .measures import (
    BernsteinSzego,
    DensitySamples,
    ExplicitMoments,
    ExplicitVerblunsky,
    Geronimus,
    Lebesgue,
    caratheodory_series,
    density_eval,
    measure_id,
    moments,
    verblunsky_prefix,
)
from .opuc_core import (
    EvalBundle,
    inverse_szego,
    moments_from_alphas,
    reversed_poly,
    szego_coeffs,
    szego_constant,
    szego_eval,
    verblunsky_from_moments,
)
from .rulegen import (
    ParaOrthogonalSpec,
    PhaseFunction,
    QuadratureRule,
    build_modified_sequence,
    build_qm,
    eta_for_node_at,
    find_nodes,
    generate_rule,
    weights_second_kind,
)
from .validation import (
    AsymptoticReport,
    CaratheodoryReport,
    ExactnessReport,
    InterlacingReport,
    OrthogonalityReport,
    SFunctionTrace,
    SzegoFunctionReport,
    asymptotic_report,
    caratheodory_match,
    check_exactness,
    check_interlacing,
    check_orthogonality,
    s_function,
    szego_function,
    szego_report,
)

__version__ = "0.1.0"
