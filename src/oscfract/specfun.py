"""Gamma function for the oscillatory-coefficient formulas.

Self-contained Lanczos evaluation so that golden values in the test suite
do not depend on the platform libm.  The g = 7, 9-term coefficient set
(Godfrey's) gives relative error below 1e-13 for positive arguments in
the range we use; reflection extends it to negative non-integer x.
"""

from __future__ import annotations

import math

_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _lanczos_series(x: float) -> float:
    # A_g(x) for x >= 0.5; strictly positive on that range.
    acc = _LANCZOS_COEF[0]
    for k in range(1, len(_LANCZOS_COEF)):
        acc += _LANCZOS_COEF[k] / (x - 1.0 + k)
    return acc


def gamma(x: float) -> float:
    """Gamma function for real x, poles at non-positive integers."""
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise ValueError(f"gamma pole at non-positive integer x={x}")
    if x < 0.5:
        # Reflection: gamma(x) = pi / (sin(pi x) * gamma(1 - x)).
        return math.pi / (math.sin(math.pi * x) * gamma(1.0 - x))
    t = x + _LANCZOS_G - 0.5
    return math.sqrt(2.0 * math.pi) * t ** (x - 0.5) * math.exp(-t) * _lanczos_series(x)
