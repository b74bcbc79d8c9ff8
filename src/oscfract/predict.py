"""Analytic predictions: oscillation index, dimensions, leading coefficients, contents.

Dimension conventions: the curve dimension d = 2/(1-beta) applies to the
plane curve tau -> (Re I, Im I); the oscillatory dimension d' = (beta+3)/2
applies to the reflected graphs of Re I(1/t), Im I(1/t).  Both live in
(1, 2] for beta in (-1, 0].  A critical value f(0) = 0, a missing critical
point, or beta <= -1 each collapse everything to the rectifiable case
d = d' = 1.

The n = 1 content constant is explicit only for critical order s = 2; for
s >= 3 the leading coefficient must be measured from the integral itself
(integrals.leading_term_fit) and fed back in.  For n = 2 phases
x^p + y^q + f0 the coefficient a_{0,beta} comes from a limit formula for
the leading term, evaluated here both by numerical integration (any
p, q >= 2) and in closed form (p, q even).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Union

import numpy as np
from scipy.integrate import quad

from oscfract.newton import DiagramInfo

Rational = Union[Fraction, int]


@dataclass(frozen=True)
class AsymptoticPrediction:
    """Predicted fractal data of the curve and reflected graphs of I(tau).

    content is a float for a nondegenerate prediction, math.inf when the
    leading term carries a log factor (degenerate case), and None when no
    formula applies or a required coefficient is unavailable.  beta is None
    only for a phase with no critical point in the support, where I(tau)
    decays faster than any power.
    """

    beta: Optional[Fraction]
    multiplicity_K: int
    curve_dim: Fraction
    osc_dim: Fraction
    f0: float
    leading_coeff: Optional[complex] = None
    content: Optional[float] = None
    degenerate: bool = False
    rectifiable: bool = False
    limit_dim: Optional[Fraction] = None
    note: str = ""

    def to_dict(self) -> dict:
        out = {
            "beta": None if self.beta is None else str(self.beta),
            "multiplicity": self.multiplicity_K,
            "curve_dim": str(self.curve_dim),
            "curve_dim_float": float(self.curve_dim),
            "osc_dim": str(self.osc_dim),
            "osc_dim_float": float(self.osc_dim),
            "f0": self.f0,
            "degenerate": self.degenerate,
            "rectifiable": self.rectifiable,
        }
        if self.leading_coeff is not None:
            out["leading_coeff"] = [self.leading_coeff.real, self.leading_coeff.imag]
        out["content"] = (
            None
            if self.content is None
            else ("inf" if math.isinf(self.content) else self.content)
        )
        if self.limit_dim is not None:
            out["limit_dim"] = str(self.limit_dim)
        if self.note:
            out["note"] = self.note
        return out


@dataclass(frozen=True)
class CausticType:
    """Singularity family of a caustic point: A_k (k >= 1) or D_k (k >= 4)."""

    family: str
    k: int
    n: int

    def __post_init__(self) -> None:
        if self.family not in ("A", "D"):
            raise ValueError(f"family must be 'A' or 'D', got {self.family!r}")
        if self.family == "A" and self.k < 1:
            raise ValueError(f"A_k requires k >= 1, got k={self.k}")
        if self.family == "D":
            if self.k < 4:
                raise ValueError(f"D_k requires k >= 4, got k={self.k}")
            if self.n < 2:
                raise ValueError("D_k normal form involves two variables; n >= 2")
        if self.n < 1:
            raise ValueError(f"ambient dimension must be >= 1, got n={self.n}")


def _dims(beta: Fraction) -> tuple[Fraction, Fraction]:
    return 2 / (1 - beta), (beta + 3) / 2


def _rectifiable(beta: Fraction, mult: int, f0: float, note: str) -> AsymptoticPrediction:
    return AsymptoticPrediction(
        beta=beta,
        multiplicity_K=mult,
        curve_dim=Fraction(1),
        osc_dim=Fraction(1),
        f0=f0,
        rectifiable=True,
        note=note,
    )


def predict_no_critical_point(f0: float) -> AsymptoticPrediction:
    """Prediction when grad f has no zero in the amplitude support.

    Repeated partial integration gives I(tau) = O(tau^{-k}) for every k, so
    the curve spirals into the origin faster than any power and the curve and
    both reflected graphs are rectifiable.
    """
    return AsymptoticPrediction(
        beta=None,
        multiplicity_K=0,
        curve_dim=Fraction(1),
        osc_dim=Fraction(1),
        f0=abs(f0),
        rectifiable=True,
        note="no critical point in the support: I decays faster than any power",
    )


def content_1d(s: int, f0: float, c1_abs: float) -> float:
    """Minkowski content of the curve for a 1-d phase of critical order s.

    M^d(Gamma) = |C1|^{2s/(s+1)} * pi * (pi/(s f0))^{-2/(s+1)} * (s+1)/(s-1),
    with C1 the leading coefficient of I(tau) e^{-i tau f0} ~ C1 tau^{-1/s}.
    """
    if s < 2:
        raise ValueError(f"critical order must be >= 2, got {s}")
    if not f0 > 0:
        raise ValueError(f"content_1d requires f0 > 0, got {f0}")
    if not c1_abs > 0:
        raise ValueError(f"leading coefficient magnitude must be positive, got {c1_abs}")
    return (
        c1_abs ** (2 * s / (s + 1))
        * math.pi
        * (math.pi / (s * f0)) ** (-2 / (s + 1))
        * (s + 1)
        / (s - 1)
    )


def content_from_coefficient(beta: Rational, a0beta: complex, f0: float) -> float:
    """Minkowski content of the curve from the leading coefficient a_{0,beta}.

    M^d(Gamma) = [|a|/f0^beta]^{2/(1-beta)} * (-beta)^{2beta/(1-beta)}
                 * pi^{(1+beta)/(1-beta)} * (1-beta)/(1+beta).
    """
    b = float(beta)
    if not -1.0 < b < 0.0:
        raise ValueError(f"beta must lie in (-1, 0), got {beta}")
    if not f0 > 0:
        raise ValueError(f"content formula requires f0 > 0, got {f0}")
    a = abs(a0beta)
    if not a > 0:
        raise ValueError("leading coefficient must be nonzero")
    return (
        (a / f0**b) ** (2 / (1 - b))
        * (-b) ** (2 * b / (1 - b))
        * math.pi ** ((1 + b) / (1 - b))
        * (1 - b)
        / (1 + b)
    )


def predict_1d(
    s: int, f0: float, phi0: float = 1.0, f_second: Optional[float] = None
) -> AsymptoticPrediction:
    """Prediction for n = 1 with critical order s at the origin.

    d = 2s/(s+1), d' = (3s-1)/(2s).  For s = 2 with f''(0) supplied, the
    leading coefficient C1 = phi(0) sqrt(2 pi) |f''(0)|^{-1/2} e^{i pi sgn(f''(0))/4}
    is explicit and the content follows; for s >= 3 both are left unknown
    (fit the integral and use content_1d).
    """
    if s < 2:
        raise ValueError(f"critical order must be >= 2, got {s}")
    beta = Fraction(-1, s)
    if f0 == 0.0:
        return _rectifiable(beta, 0, 0.0, "f(0) = 0: graphs and curve are rectifiable")
    f0 = abs(f0)  # conjugation invariance: I(tau) for -f0 is the conjugate curve
    d = Fraction(2 * s, s + 1)
    dp = Fraction(3 * s - 1, 2 * s)
    leading = None
    content = None
    if s == 2 and f_second is not None:
        if f_second == 0.0:
            raise ValueError("s = 2 requires f''(0) != 0")
        leading = (
            phi0
            * math.sqrt(2.0 * math.pi / abs(f_second))
            * cmath.exp(1j * math.pi / 4.0 * math.copysign(1.0, f_second))
        )
        content = content_1d(s, f0, abs(leading))
    return AsymptoticPrediction(
        beta=beta,
        multiplicity_K=0,
        curve_dim=d,
        osc_dim=dp,
        f0=f0,
        leading_coeff=leading,
        content=content,
    )


def predict_2d(
    diagram: DiagramInfo, f0: float, a0beta: Optional[complex] = None
) -> AsymptoticPrediction:
    """Prediction for n = 2 from the Newton diagram (adapted coordinates assumed).

    Case (i): multiplicity 0, or beta = -1 -- nondegenerate; content from
    a_{0,beta} when supplied and beta > -1.  Case (ii): multiplicity 1 with
    beta > -1 -- the leading term carries log tau and the content degenerates
    to infinity.
    """
    if diagram.dimension != 2:
        raise ValueError("predict_2d requires a 2-dimensional diagram")
    beta = diagram.remoteness
    mult = diagram.multiplicity
    if beta < -1:
        raise ValueError(
            f"beta = {beta} < -1 in 2D implies a linear term: origin is not a critical point"
        )
    if f0 == 0.0:
        return _rectifiable(beta, mult, 0.0, "f(0) = 0: graphs and curve are rectifiable")
    f0 = abs(f0)
    d, dp = _dims(beta)
    if mult == 0 or beta == -1:
        content = None
        note = ""
        if beta == -1:
            note = "beta = -1: boundary case, curve marginally rectifiable (d = 1)"
        elif a0beta is not None:
            content = content_from_coefficient(beta, a0beta, f0)
        return AsymptoticPrediction(
            beta=beta,
            multiplicity_K=mult,
            curve_dim=d,
            osc_dim=dp,
            f0=f0,
            leading_coeff=a0beta,
            content=content,
            note=note,
        )
    if beta <= -1:
        return AsymptoticPrediction(
            beta=beta,
            multiplicity_K=mult,
            curve_dim=d,
            osc_dim=dp,
            f0=f0,
            degenerate=True,
            note="no sharp prediction: beta <= -1 with multiplicity 1",
        )
    return AsymptoticPrediction(
        beta=beta,
        multiplicity_K=mult,
        curve_dim=d,
        osc_dim=dp,
        f0=f0,
        content=math.inf,
        degenerate=True,
        note="multiplicity 1: leading term carries log tau; content degenerate",
    )


def predict_nd(
    diagram: DiagramInfo,
    f0: float,
    coeff_hypothesis: Optional[int],
    a0beta: Optional[complex] = None,
) -> AsymptoticPrediction:
    """Prediction for n > 2 under a caller-supplied coefficient hypothesis.

    coeff_hypothesis is the largest k with a_{k,beta} != 0: k = 0 gives the
    nondegenerate case, k >= 1 the degenerate one.  There is no general
    algorithm for these coefficients, so they are asserted, not computed.
    A non-remote polyhedron (beta <= -1) forces the rectifiable prediction.
    """
    if diagram.dimension <= 2:
        raise ValueError("predict_nd is for n > 2; use predict_1d/predict_2d")
    beta = diagram.remoteness
    mult = diagram.multiplicity
    if f0 == 0.0:
        return _rectifiable(beta, mult, 0.0, "f(0) = 0: graphs and curve are rectifiable")
    f0 = abs(f0)
    if beta <= -1:
        return _rectifiable(
            beta, mult, f0, f"polyhedron not remote (beta = {beta}): rectifiable"
        )
    if coeff_hypothesis is None:
        raise ValueError(
            "coeff_hypothesis required for n > 2: pass the largest k with a_{k,beta} != 0"
        )
    if not 0 <= coeff_hypothesis <= diagram.dimension - 1:
        raise ValueError(
            f"coeff_hypothesis {coeff_hypothesis} outside 0..n-1 ({diagram.dimension - 1})"
        )
    d, dp = _dims(beta)
    if coeff_hypothesis == 0:
        content = None if a0beta is None else content_from_coefficient(beta, a0beta, f0)
        return AsymptoticPrediction(
            beta=beta,
            multiplicity_K=mult,
            curve_dim=d,
            osc_dim=dp,
            f0=f0,
            leading_coeff=a0beta,
            content=content,
        )
    return AsymptoticPrediction(
        beta=beta,
        multiplicity_K=mult,
        curve_dim=d,
        osc_dim=dp,
        f0=f0,
        content=math.inf,
        degenerate=True,
        note=f"a_{{{coeff_hypothesis},beta}} != 0: leading term carries log^k tau",
    )


def caustic_prediction(caustic: CausticType) -> AsymptoticPrediction:
    """Prediction for a caustic point of type A_k or D_k in dimension n.

    gamma = (k-1)/(2k+2) for A_k, (k-2)/(2k-2) for D_k; beta = gamma - n/2.
    limit_dim records the k -> infinity limit d -> 4/(1+n).
    """
    k, n = caustic.k, caustic.n
    if caustic.family == "A":
        g = Fraction(k - 1, 2 * k + 2)
    else:
        g = Fraction(k - 2, 2 * k - 2)
    beta = g - Fraction(n, 2)
    limit = Fraction(4, 1 + n)
    if beta <= -1:
        pred = _rectifiable(
            beta, 0, 1.0, f"beta = {beta} <= -1: rectifiable for this (family, k, n)"
        )
        return replace(pred, limit_dim=limit)
    d, dp = _dims(beta)
    return AsymptoticPrediction(
        beta=beta,
        multiplicity_K=0,
        curve_dim=d,
        osc_dim=dp,
        f0=1.0,
        limit_dim=limit,
    )


def greenblatt_closed_form(p: int, q: int, phi00: float = 1.0) -> complex:
    """Closed-form a_{0,beta} for the phase x^p + y^q + f0 with p, q even.

    a_{0,beta} = 4 phi(0,0) e^{i pi (1/p + 1/q)/2} Gamma(1/p + 1) Gamma(1/q + 1).
    """
    _validate_pq(p, q)
    if p % 2 or q % 2:
        raise ValueError(f"closed form requires p, q even, got ({p}, {q})")
    ang = 0.5 * math.pi * (1.0 / p + 1.0 / q)
    return (
        4.0 * phi00 * cmath.exp(1j * ang) * math.gamma(1.0 / p + 1.0) * math.gamma(1.0 / q + 1.0)
    )


def greenblatt_coefficient(p: int, q: int, phi00: float = 1.0) -> complex:
    """Leading coefficient a_{0,beta} for the phase x^p + y^q + f0, by quadrature.

    With S0(x, y) = x^p + y^q (the principal part), m = p/q and
    beta = -1/p - 1/q:

        c0 = phi(0,0)/(m+1) * int_R [S0_+(1,y)^beta + S0_+(-1,y)^beta] dy
        C0 = same with S0_- (the negative part)
        a_{0,beta} = -beta Gamma(-beta) (e^{-i pi beta/2} c0 + e^{i pi beta/2} C0)

    The y integral is compactified by y = u/(1-|u|); the integrand has
    integrable algebraic singularities where S0(+-1, y) vanishes (y = +-1,
    i.e. u = +-1/2) and, when q < p, at u = +-1.  For p, q both even the
    result is cross-checked against the closed form.
    """
    _validate_pq(p, q)
    beta = -1.0 / p - 1.0 / q
    m = p / q
    pref = phi00 / (m + 1.0)

    def piece(xsign: float, part: int) -> float:
        # part +1: S0_+^beta; part -1: S0_-^beta, integrated over all y.
        def integrand(u: float) -> float:
            au = abs(u)
            if au >= 1.0:
                return 0.0
            y = u / (1.0 - au)
            with np.errstate(over="ignore"):
                s = part * (np.float64(xsign) ** p + np.float64(y) ** q)
                if not s > 0.0:
                    return 0.0
                val = float(s**beta) / (1.0 - au) ** 2
            return val

        res = quad(
            integrand,
            -1.0,
            1.0,
            points=[-0.5, 0.0, 0.5],
            limit=400,
            epsabs=1e-11,
            epsrel=1e-11,
            full_output=1,
        )
        val, err = res[0], res[1]
        if err > 1e-7 * max(1.0, abs(val)):
            raise ArithmeticError(
                f"coefficient integral did not converge (p={p}, q={q}): "
                f"value {val}, error estimate {err}"
            )
        return val

    c0 = pref * (piece(1.0, +1) + piece(-1.0, +1))
    C0 = pref * (piece(1.0, -1) + piece(-1.0, -1))
    a = (
        -beta
        * math.gamma(-beta)
        * (cmath.exp(-0.5j * math.pi * beta) * c0 + cmath.exp(0.5j * math.pi * beta) * C0)
    )
    if p % 2 == 0 and q % 2 == 0:
        closed = greenblatt_closed_form(p, q, phi00)
        if abs(a - closed) > 1e-6 * abs(closed):
            raise ArithmeticError(
                f"quadrature route disagrees with closed form for (p={p}, q={q}): "
                f"{a} vs {closed}"
            )
    return a


def _validate_pq(p: int, q: int) -> None:
    if p < 2 or q < 2:
        raise ValueError(f"need p, q >= 2, got ({p}, {q})")
    if (p, q) == (2, 2):
        raise ValueError("(p, q) = (2, 2) excluded: beta = -1 boundary case")
