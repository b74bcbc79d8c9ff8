"""Fractal dimension and Minkowski content of curves traced by oscillatory integrals.

The package connects two routes to the same geometric data.  The analytic
route reads the Newton diagram of a polynomial phase and predicts the box
dimension and Minkowski content of the curve tau -> (Re I(tau), Im I(tau)),
where I(tau) is an oscillatory integral with compactly supported amplitude.
The numeric route evaluates I(tau) by quadrature, builds the curve, and
estimates the same quantities from geometry alone.  Agreement of the two
routes is the verification criterion exposed by the CLI.
"""

from oscfract.phases import (
    AmplitudeSpec,
    PolynomialPhase,
    critical_order_1d,
    partial_derivative,
    verify_isolated_critical_point,
)
from oscfract.newton import DiagramInfo, newton_diagram, r_nondegeneracy_check
from oscfract.specfun import gamma
from oscfract.predict import (
    AsymptoticPrediction,
    CausticType,
    caustic_prediction,
    content_from_coefficient,
    content_1d,
    greenblatt_coefficient,
    greenblatt_closed_form,
    predict_1d,
    predict_2d,
    predict_nd,
    predict_no_critical_point,
)
from oscfract.integrals import (
    CurvePolyline,
    FitResult,
    IntegralSamples,
    NumericBudgetError,
    QuadratureConfig,
    ReflectedGraph,
    curve_from_samples,
    eval_integral,
    leading_term_fit,
    reflected_pair,
    sample_integral,
)
from oscfract.estimators import (
    ContentEstimate,
    DimensionEstimate,
    box_count,
    estimate_content,
    estimate_dimension,
    gen_astring,
    gen_chirp,
    gen_spiral,
    geometric_epsilons,
    sausage_area,
)

__version__ = "0.1.0"

__all__ = [
    "AmplitudeSpec",
    "AsymptoticPrediction",
    "CausticType",
    "ContentEstimate",
    "CurvePolyline",
    "DiagramInfo",
    "DimensionEstimate",
    "FitResult",
    "IntegralSamples",
    "NumericBudgetError",
    "PolynomialPhase",
    "QuadratureConfig",
    "ReflectedGraph",
    "box_count",
    "caustic_prediction",
    "content_1d",
    "content_from_coefficient",
    "critical_order_1d",
    "curve_from_samples",
    "estimate_content",
    "estimate_dimension",
    "eval_integral",
    "gamma",
    "gen_astring",
    "gen_chirp",
    "gen_spiral",
    "geometric_epsilons",
    "greenblatt_closed_form",
    "greenblatt_coefficient",
    "leading_term_fit",
    "newton_diagram",
    "partial_derivative",
    "predict_1d",
    "predict_2d",
    "predict_nd",
    "predict_no_critical_point",
    "r_nondegeneracy_check",
    "reflected_pair",
    "sample_integral",
    "sausage_area",
    "verify_isolated_critical_point",
]
