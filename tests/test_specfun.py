"""oscfract.gamma against closed forms and independent references.

The name is the standard library's math.gamma; these checks pin what the
coefficient formulas in predict.py rely on.

Verified here:
* gamma(1/2) = sqrt(pi) to 1e-12 and gamma(n) = (n-1)! for small integers;
* gamma matches mpmath over a sweep of positive and negative non-integer
  arguments;
* the functional equation gamma(x+1) = x gamma(x) as a property;
* poles raise ValueError.
"""

import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscfract import gamma


def test_gamma_half_integer():
    assert abs(gamma(0.5) - math.sqrt(math.pi)) <= 1e-12 * math.sqrt(math.pi)
    assert abs(gamma(1.5) - 0.5 * math.sqrt(math.pi)) <= 1e-12
    assert abs(gamma(2.5) - 0.75 * math.sqrt(math.pi)) <= 1e-12


def test_gamma_small_integers():
    for n in range(1, 13):
        assert gamma(n) == pytest.approx(math.factorial(n - 1), rel=1e-12)


def test_gamma_matches_mpmath_sweep():
    mp.mp.dps = 30
    xs = [0.03, 0.1, 0.25, 0.73, 1.0, 1.25, 2.71, 5.5, 9.9, 17.0, 41.5]
    xs += [-0.5, -1.5, -2.25, -6.7, -0.01]
    for x in xs:
        want = float(mp.gamma(x))
        assert gamma(x) == pytest.approx(want, rel=5e-13), f"x={x}"


def test_gamma_reflection_value():
    # gamma(-3/2) = 4 sqrt(pi) / 3
    assert gamma(-1.5) == pytest.approx(2.3632718012073547, rel=1e-12)


def test_gamma_poles_raise():
    for x in (0.0, -1.0, -2.0, -17.0):
        with pytest.raises(ValueError):
            gamma(x)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.1, max_value=50.0, allow_nan=False))
def test_gamma_functional_equation(x):
    assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-10)
