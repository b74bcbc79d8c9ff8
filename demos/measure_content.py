"""Check a predicted Minkowski content against the measured one.

For the fold phase x^2 + 1 the leading coefficient is explicit, and the
d-dimensional content of the spiral (Re I, Im I) has the closed value
3 * 2^(2/3) * pi.  The measurement dilates the polyline by eps, sums the
sausage area A(eps) row by row, and averages rho(eps) = A(eps) / eps^(2-d)
over a window; the trend of rho against log(1/eps) doubles as a degeneracy
detector (rho drifting up or down at a log rate means the content is
infinite or zero even though the dimension is right).

Run:  python3 demos/measure_content.py    (about a minute)
"""

import math

from oscfract.estimators import estimate_content, geometric_epsilons
from oscfract.integrals import curve_from_samples, sample_integral
from oscfract.phases import AmplitudeSpec, PolynomialPhase
from oscfract.predict import content_1d, predict_1d

# 1. The prediction: s = 2, f0 = 1, f''(0) = 2 make C1 and the content exact.
pred = predict_1d(2, 1.0, f_second=2.0)
exact = 3.0 * 2.0 ** (2.0 / 3.0) * math.pi
print(f"predicted content M = {pred.content:.12f}")
print(f"closed form 3*2^(2/3)*pi = {exact:.12f}")
assert abs(pred.content - exact) < 1e-12
assert abs(content_1d(2, 1.0, abs(pred.leading_coeff)) - exact) < 1e-12

# 2. The measurement: trace the curve far enough in tau that the window of
#    scales used by the sausage sits inside the self-similar regime.
phase = PolynomialPhase(1, {(2,): 1.0, (0,): 1.0})
samples = sample_integral(phase, AmplitudeSpec(1), 5.0, 2000.0, 80)
curve = curve_from_samples(samples, max_step=math.pi / 16.0)
print(f"\ncurve: {len(curve.points)} points, tau in [5, 2000]")

eps = geometric_epsilons(8e-3, 1.5e-3, 8)
est = estimate_content(curve.points, float(pred.curve_dim), eps)
print(f"measured M_hat = {est.M_hat:.4f} ({est.M_hat / exact - 1.0:+.1%} vs predicted)")
print("rho(eps) across the window:")
for e, r in zip(est.epsilons, est.rho):
    print(f"  eps {e:.2e}  rho {r:.4f}")

# The finite tau range truncates the spiral at a positive inner radius, so
# rho drifts upward across the window instead of sitting flat: the drift
# detector honestly reports that as inconclusive rather than calling the
# content degenerate.  Longer traces shrink both the bias and the drift
# (the acceptance suite uses tau_max = 6000); on exact synthetic curves the
# detector separates cleanly (demos/synthetic_zoo.py).
print(f"\ndrift exponent {est.log_exponent_hat:+.3f} "
      f"-> verdict {est.degenerate_verdict!r} at this finite tau range")
