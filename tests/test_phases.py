"""Polynomial phases, bump amplitudes, and the isolated-critical-point scan.

Verified here:
* term normalization (zero coefficients dropped, exponent validation) and
  the dict round trip, including rejection of malformed specs;
* vectorized evaluation matches an exact Fraction evaluation of each point,
  kept in this file, within 1e-13 of sum |c_k x^k| (property over random
  polynomials);
* partial_derivative is exact on monomials and validates the axis;
* critical_order_1d reads the order off the support and rejects linear terms;
* bump profile support, the amplitude against its closed form, and
  amplitude validation;
* the critical-point scan passes phases with an isolated critical point at
  the origin and flags a second interior critical point.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscfract.phases import (
    AmplitudeSpec,
    PolynomialPhase,
    bump_profile,
    critical_order_1d,
    eval_amplitude_array,
    eval_phase_array,
    partial_derivative,
    verify_isolated_critical_point,
)


def test_zero_coefficients_dropped():
    p = PolynomialPhase(2, {(2, 0): 1.0, (0, 3): 0.0})
    assert p.terms == {(2, 0): 1.0}


def test_exponent_validation():
    with pytest.raises(ValueError):
        PolynomialPhase(2, {(2,): 1.0})  # wrong multi-index length
    with pytest.raises(ValueError):
        PolynomialPhase(1, {(-1,): 1.0})
    with pytest.raises(ValueError):
        PolynomialPhase(0, {})


def test_dict_round_trip():
    p = PolynomialPhase(2, {(2, 0): 1.0, (0, 4): 1.0, (0, 0): 1.0})
    q = PolynomialPhase.from_dict(p.to_dict())
    assert q == p
    assert q.to_dict() == p.to_dict()


def test_from_dict_malformed():
    with pytest.raises(ValueError):
        PolynomialPhase.from_dict({"terms": [{"k": [2], "c": 1.0}]})  # missing n
    with pytest.raises(ValueError):
        PolynomialPhase.from_dict({"n": 1, "terms": [{"k": [2]}]})  # missing c
    with pytest.raises(ValueError):
        PolynomialPhase.from_dict({"n": 1, "terms": 17})


def test_value_at_origin_and_degree():
    p = PolynomialPhase(1, {(3,): 2.0, (0,): 5.0})
    assert p.value_at_origin == 5.0
    assert PolynomialPhase(1, {(2,): 1.0}).value_at_origin == 0.0


def test_str_rendering():
    assert str(PolynomialPhase(1, {(2,): 1.0, (0,): 1.0})) == "1 + x^2"
    assert str(PolynomialPhase(2, {(2, 0): 1.0, (0, 4): 1.0})) == "x^2 + y^4"
    assert str(PolynomialPhase(1, {(3,): -1.0})) == "-x^3"
    assert str(PolynomialPhase(2, {})) == "0"


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.floats(-3.0, 3.0, allow_nan=False),
        min_size=1,
        max_size=5,
    ),
    st.lists(
        st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)), min_size=1, max_size=8
    ),
)
def test_eval_scalar_matches_vectorized(terms, points):
    phase = PolynomialPhase(2, terms)
    pts = np.array(points, dtype=float)
    vec = eval_phase_array(phase, pts)
    envelope = PolynomialPhase(2, {k: abs(c) for k, c in phase.terms.items()})
    for i, pt in enumerate(points):
        exact = float(_exact_value(phase, pt))
        # rounding error is a few ulps of sum |c x^k|, however much cancels
        bound = float(_exact_value(envelope, [abs(x) for x in pt]))
        assert abs(vec[i] - exact) <= 1e-13 * bound + 1e-300


def _exact_value(phase: PolynomialPhase, point) -> Fraction:
    """f(point) in exact rational arithmetic on the float inputs."""
    total = Fraction(0)
    for k, c in phase.terms.items():
        m = Fraction(c)
        for x, e in zip(point, k):
            m *= Fraction(x) ** e
        total += m
    return total


def test_partial_derivative_exact():
    p = PolynomialPhase(1, {(3,): 1.0, (1,): 2.0})
    assert partial_derivative(p, 0).terms == {(2,): 3.0, (0,): 2.0}
    q = PolynomialPhase(2, {(2, 3): 1.0})
    assert partial_derivative(q, 1).terms == {(2, 2): 3.0}
    assert partial_derivative(q, 0).terms == {(1, 3): 2.0}
    with pytest.raises(ValueError):
        partial_derivative(q, 2)


def test_critical_order():
    assert critical_order_1d(PolynomialPhase(1, {(2,): 1.0, (0,): 1.0})) == 2
    assert critical_order_1d(PolynomialPhase(1, {(3,): -4.0})) == 3
    assert critical_order_1d(PolynomialPhase(1, {(5,): 1.0, (7,): 2.0})) == 5
    with pytest.raises(ValueError):
        critical_order_1d(PolynomialPhase(1, {(1,): 1.0, (2,): 1.0}))
    with pytest.raises(ValueError):
        critical_order_1d(PolynomialPhase(1, {(0,): 3.0}))
    with pytest.raises(ValueError):
        critical_order_1d(PolynomialPhase(2, {(2, 0): 1.0}))


def test_bump_profile_support():
    assert bump_profile(0.0) == pytest.approx(1.0)
    assert bump_profile(1.0) == 0.0
    assert bump_profile(2.5) == 0.0
    u = np.linspace(0.0, 0.999, 200)
    vals = bump_profile(u)
    assert np.all(np.diff(vals) < 0)  # strictly decreasing toward the edge


def test_amplitude_evaluation():
    amp = AmplitudeSpec(2, radius=0.5, phi0=3.0)
    pts = np.array([[0.0, 0.0], [0.1, 0.2], [0.5, 0.0], [0.7, 0.7]])
    vec = eval_amplitude_array(amp, pts)
    # phi0 exp(1 - 1/(1 - u)) with u = |x/R|^2 = 0.2 at (0.1, 0.2)
    assert vec.tolist() == pytest.approx([3.0, 3.0 * math.exp(-0.25), 0.0, 0.0])
    assert vec[2] == vec[3] == 0.0


def test_amplitude_validation():
    with pytest.raises(ValueError):
        AmplitudeSpec(1, radius=0.0)
    with pytest.raises(ValueError):
        AmplitudeSpec(1, phi0=-1.0)
    with pytest.raises(ValueError):
        AmplitudeSpec(0)
    with pytest.raises(ValueError):
        eval_amplitude_array(AmplitudeSpec(2), np.array([[1.0]]))


def test_amplitude_dict_round_trip():
    amp = AmplitudeSpec.from_dict({"radius": 0.75, "phi0": 2.0}, 2)
    assert amp == AmplitudeSpec(2, 0.75, 2.0)
    assert AmplitudeSpec.from_dict({}, 1) == AmplitudeSpec(1)
    with pytest.raises(ValueError):
        AmplitudeSpec.from_dict({"radius": "wide"}, 1)


def test_critical_point_scan_accepts_isolated():
    rep = verify_isolated_critical_point(
        PolynomialPhase(1, {(2,): 1.0, (0,): 1.0}), AmplitudeSpec(1)
    )
    assert rep.passed
    assert rep.min_gradient > 1e-7 * rep.median_gradient
    rep2d = verify_isolated_critical_point(
        PolynomialPhase(2, {(2, 0): 1.0, (0, 4): 1.0, (0, 0): 1.0}), AmplitudeSpec(2)
    )
    assert rep2d.passed


def test_critical_point_scan_flags_second_zero():
    # f' = x (4x^2 - 3x + 1/2) vanishes at x = 1/4 and x = 1/2 inside the support
    phase = PolynomialPhase(1, {(4,): 1.0, (3,): -1.0, (2,): 0.25})
    rep = verify_isolated_critical_point(phase, AmplitudeSpec(1))
    assert not rep.passed
    assert min(abs(rep.point[0] - 0.25), abs(rep.point[0] - 0.5)) < 1e-3


def test_critical_point_scan_dimension_cap():
    phase = PolynomialPhase(4, {(2, 0, 0, 0): 1.0})
    with pytest.raises(ValueError):
        verify_isolated_critical_point(phase, AmplitudeSpec(4))
