"""Acceptance criteria: ten end-to-end checks at pinned tolerances.

Each test prints exactly one "criterion N: PASS/FAIL" line (visible with
pytest -s) and asserts the same condition, so the suite both documents and
enforces the contract:

 1  exact rational remoteness of x^p + y^q + 1 for 2 <= p, q <= 8, under 1 s;
 2  exact dimension predictions for fold/cusp orders and A_k caustics;
 3  closed-form vs numerical coefficient to 1e-6; Gamma(1/2) to 1e-12;
 4  measured curve dimension of x^2+1 and x^3+1 within +-0.05 of 4/3 and 3/2;
 5  measured Minkowski content of x^2+1 within 15% of 3 * 2^(2/3) * pi;
 6  leading coefficient of x^2+1 recovered within 2% / 0.03 rad;
 7  rectifiable regimes (linear phase; 3D sphere phase) measure 1 +- 0.05
    for the curve and both reflected graphs;
 8  synthetic-zoo dimensions within +-0.03; spiral content within 10%;
 9  degeneracy verdicts: l=1 chirp/spiral degenerate-infinity, l=0 twins
    nondegenerate;
10  2D smoke: x^2+y^2+1 curve within +-0.07 of 1; x^2+y^4+1 within +-0.07
    of 8/7.

Fixtures (tau ranges, eps windows, quadrature budgets) are part of the
contract: they were calibrated so each measurement window sits inside the
scaling regime it is supposed to read (in particular below the winding-merge
scale for rectifiable spirals), and they are deterministic end to end.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from oscfract.cli import _ZOO_CONTENT, _ZOO_DIMS, _ZOO_VERDICTS
from oscfract.estimators import (
    box_count,
    estimate_content,
    estimate_dimension,
    geometric_epsilons,
)
from oscfract.integrals import (
    QuadratureConfig,
    curve_from_samples,
    leading_term_fit,
    reflected_pair,
    sample_integral,
)
from oscfract.newton import newton_diagram
from oscfract.phases import AmplitudeSpec, PolynomialPhase
from oscfract.predict import (
    CausticType,
    caustic_prediction,
    greenblatt_closed_form,
    greenblatt_coefficient,
    predict_1d,
)

CONTENT_X2 = 3.0 * 2.0 ** (2.0 / 3.0) * math.pi  # exact content for x^2 + 1


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _phase1(coeffs: dict) -> PolynomialPhase:
    return PolynomialPhase(1, coeffs)


def _measure_dim(points: np.ndarray, eps_max: float, eps_min: float, count: int):
    eps = geometric_epsilons(eps_max, eps_min, count)
    return estimate_dimension(eps, box_count(points, eps))


@pytest.fixture(scope="module")
def x2_samples_wide():
    """I(tau) for x^2 + 1 on tau in [20, 2000], shared by criteria 4 and 6."""
    phase = _phase1({(2,): 1.0, (0,): 1.0})
    return sample_integral(phase, AmplitudeSpec(1), 20.0, 2000.0, 80)


def test_criterion_1_newton_exactness():
    t0 = time.monotonic()
    worst = None
    for p in range(2, 9):
        for q in range(2, 9):
            phase = PolynomialPhase(2, {(p, 0): 1.0, (0, q): 1.0, (0, 0): 1.0})
            info = newton_diagram(phase)
            expect = -(Fraction(1, p) + Fraction(1, q))
            if info.remoteness != expect or info.multiplicity != 0:
                worst = (p, q, info.remoteness, info.multiplicity)
    elapsed = time.monotonic() - t0
    ok = worst is None and elapsed < 1.0
    _report(1, ok, f"49 diagrams exact, {elapsed * 1e3:.0f} ms (mismatch: {worst})")


def test_criterion_2_dimension_predictions():
    fold = predict_1d(2, 1.0)
    cusp = predict_1d(3, 1.0)
    exact = fold.curve_dim == Fraction(4, 3) and cusp.curve_dim == Fraction(3, 2)
    caustic_ok = True
    for k in range(1, 9):
        ak = caustic_prediction(CausticType("A", k, 1))
        ref = predict_1d(k + 1, 1.0)
        if ak.curve_dim != ref.curve_dim or ak.osc_dim != ref.osc_dim:
            caustic_ok = False
    ok = exact and caustic_ok
    _report(
        2,
        ok,
        f"fold d={fold.curve_dim}, cusp d={cusp.curve_dim}, A_k caustics match for k<=8",
    )


def test_criterion_3_coefficient_cross_check():
    worst = 0.0
    for p, q in ((2, 4), (4, 4), (2, 6)):
        numeric = greenblatt_coefficient(p, q, 1.0)
        closed = greenblatt_closed_form(p, q, 1.0)
        worst = max(worst, abs(numeric - closed) / abs(closed))
    gamma_err = abs(math.gamma(0.5) - math.sqrt(math.pi)) / math.sqrt(math.pi)
    ok = worst <= 1e-6 and gamma_err <= 1e-12
    _report(3, ok, f"coefficient rel err {worst:.2e}, Gamma(1/2) rel err {gamma_err:.2e}")


def test_criterion_4_measured_curve_dimensions(x2_samples_wide):
    curve2 = curve_from_samples(x2_samples_wide, max_step=math.pi / 16.0)
    est2 = _measure_dim(curve2.points, 4e-3, 1.2e-4, 12)
    d2, t2 = est2.d_hat, 4.0 / 3.0

    phase3 = _phase1({(3,): 1.0, (0,): 1.0})
    samples3 = sample_integral(phase3, AmplitudeSpec(1), 20.0, 2000.0, 80)
    curve3 = curve_from_samples(samples3, max_step=math.pi / 16.0)
    est3 = _measure_dim(curve3.points, 8e-3, 3e-4, 12)
    d3, t3 = est3.d_hat, 1.5

    ok = (
        len(curve2.points) >= 10_000
        and len(curve3.points) >= 10_000
        and abs(d2 - t2) <= 0.05
        and abs(d3 - t3) <= 0.05
    )
    _report(
        4,
        ok,
        f"x^2+1: {d2:.4f} vs {t2:.4f} ({d2 - t2:+.4f}); "
        f"x^3+1: {d3:.4f} vs {t3:.4f} ({d3 - t3:+.4f}); "
        f"{len(curve2.points)} and {len(curve3.points)} points",
    )


def test_criterion_5_measured_content():
    phase = _phase1({(2,): 1.0, (0,): 1.0})
    samples = sample_integral(phase, AmplitudeSpec(1), 5.0, 6000.0, 100)
    curve = curve_from_samples(samples, max_step=math.pi / 16.0)
    eps = geometric_epsilons(6e-3, 1e-3, 10)
    est = estimate_content(curve.points, 4.0 / 3.0, eps, cell_cap=220_000_000)
    rel = est.M_hat / CONTENT_X2 - 1.0
    ok = abs(rel) <= 0.15
    _report(5, ok, f"M_hat {est.M_hat:.4f} vs {CONTENT_X2:.4f} ({rel:+.1%})")


def test_criterion_6_leading_coefficient(x2_samples_wide):
    fit = leading_term_fit(x2_samples_wide, 1.0, -0.5)
    mod_rel = abs(fit.value) / math.sqrt(math.pi) - 1.0
    arg_err = abs(math.remainder(np.angle(fit.value) - math.pi / 4.0, 2.0 * math.pi))
    ok = fit.confirmed and abs(mod_rel) <= 0.02 and arg_err <= 0.03
    _report(
        6,
        ok,
        f"|C1| rel err {mod_rel:+.3%}, arg err {arg_err:.4f} rad, "
        f"residual {fit.residual:.4f}",
    )


def test_criterion_7_rectifiable_regimes():
    # linear phase: no critical point in the support
    linear = _phase1({(1,): 1.0, (0,): 2.0})
    s1 = sample_integral(linear, AmplitudeSpec(1), 8.0, 120.0, 40)
    curve1 = curve_from_samples(s1)
    re1, im1 = reflected_pair(s1)
    results = []
    d = float(np.max(curve1.points.max(axis=0) - curve1.points.min(axis=0)))
    results.append(_measure_dim(curve1.points, d / 90.0, d / 2000.0, 10).d_hat)
    for g in (re1, im1):
        pts = np.column_stack([g.t, g.x])
        dg = float(np.max(pts.max(axis=0) - pts.min(axis=0)))
        results.append(_measure_dim(pts, dg / 3.0, dg / 2000.0, 12).d_hat)

    # 3D sphere phase: remoteness -3/2 <= -1, rectifiable by the threshold
    sphere = PolynomialPhase(
        3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0, (0, 0, 0): 1.0}
    )
    s3 = sample_integral(
        sphere, AmplitudeSpec(3), 3.0, 150.0, 24, QuadratureConfig(panel_order=2)
    )
    curve3 = curve_from_samples(s3)
    re3, im3 = reflected_pair(s3)
    # windows sit below the winding-merge scale of each object
    results.append(_measure_dim(curve3.points, 1.5e-4, 2e-5, 10).d_hat)
    for g in (re3, im3):
        pts = np.column_stack([g.t, g.x])
        results.append(_measure_dim(pts, 1.2e-4, 1.5e-5, 10).d_hat)

    deltas = [r - 1.0 for r in results]
    ok = all(abs(x) <= 0.05 for x in deltas)
    _report(
        7,
        ok,
        "deltas vs 1: " + ", ".join(f"{x:+.4f}" for x in deltas)
        + " (linear curve/re/im, sphere curve/re/im)",
    )


def test_criterion_8_zoo_calibration():
    failures = []
    for name, build, d_true, grid, connect in _ZOO_DIMS:
        eps = geometric_epsilons(*grid)
        counts = box_count(build(), eps, connect=connect)
        est = estimate_dimension(eps, counts)
        if abs(est.d_hat - d_true) > 0.03:
            failures.append(f"{name}: {est.d_hat:.4f} vs {d_true:.4f}")
    for name, build, d_true, m_true, grid, rtol in _ZOO_CONTENT:
        est = estimate_content(build(), d_true, geometric_epsilons(*grid))
        rel = est.M_hat / m_true - 1.0
        if abs(rel) > rtol:
            failures.append(f"{name}: {rel:+.1%}")
    ok = not failures
    _report(
        8,
        ok,
        f"{len(_ZOO_DIMS)} dims within 0.03, content within 10%"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_9_degeneracy_detection():
    rows = []
    failures = []
    for name, build, d_true, want, grid, cap in _ZOO_VERDICTS:
        est = estimate_content(build(), d_true, geometric_epsilons(*grid), cell_cap=cap)
        rows.append(f"{name}={est.degenerate_verdict}")
        if est.degenerate_verdict != want:
            failures.append(f"{name}: {est.degenerate_verdict} != {want}")
    ok = not failures
    _report(9, ok, "; ".join(rows))


def test_criterion_10_2d_smoke():
    circ = PolynomialPhase(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): 1.0})
    s_a = sample_integral(circ, AmplitudeSpec(2), 20.0, 300.0, 40)
    est_a = _measure_dim(curve_from_samples(s_a).points, 1.8e-4, 2.5e-5, 10)
    delta_a = est_a.d_hat - 1.0

    mixed = PolynomialPhase(2, {(2, 0): 1.0, (0, 4): 1.0, (0, 0): 1.0})
    s_b = sample_integral(mixed, AmplitudeSpec(2, radius=0.6), 10.0, 1000.0, 50)
    est_b = _measure_dim(curve_from_samples(s_b).points, 1e-3, 1e-4, 12)
    delta_b = est_b.d_hat - 8.0 / 7.0

    ok = abs(delta_a) <= 0.07 and abs(delta_b) <= 0.07
    _report(
        10,
        ok,
        f"x^2+y^2+1: {est_a.d_hat:.4f} vs 1 ({delta_a:+.4f}); "
        f"x^2+y^4+1: {est_b.d_hat:.4f} vs {8.0 / 7.0:.4f} ({delta_b:+.4f})",
    )
