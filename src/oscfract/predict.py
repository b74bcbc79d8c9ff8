"""Analytic predictions: oscillation index, dimensions, leading coefficients, contents.

Dimension conventions: the curve dimension d = 2/(1-beta) applies to the
plane curve tau -> (Re I, Im I); the oscillatory dimension d' = (beta+3)/2
applies to the reflected graphs of Re I(1/t), Im I(1/t).  Both live in
(1, 2] for beta in (-1, 0].  A critical value f(0) = 0, a missing critical
point, or beta < -1 each collapse everything to the rectifiable case
d = d' = 1.  At beta = -1 the formulas still give d = d' = 1, but the curve
is not rectifiable: |I'(tau)| ~ |a| f0 / tau, so its length grows like
log tau (a hyperbolic spiral).

The n = 1 content constant is explicit only for critical order s = 2; for
s >= 3 the leading coefficient must be measured from the integral itself
(integrals.leading_term_fit) and passed to content_from_coefficient at
beta = -1/s.  For n >= 2 the diagram gives beta and the log power of the
leading term; for phases x^p + y^q + f0 the coefficient a_{0,beta}
comes from a limit formula for the leading term.  Predictions take it in
closed form (Beta functions), for any p, q >= 2; greenblatt_coefficient
evaluates the same formula by quadrature as a reference, and is the only
code here that needs scipy, which it imports when called.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Union

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


def _rectifiable(
    beta: Optional[Fraction], mult: int, f0: float, note: str
) -> AsymptoticPrediction:
    return AsymptoticPrediction(
        beta=beta,
        multiplicity_K=mult,
        curve_dim=Fraction(1),
        osc_dim=Fraction(1),
        f0=f0,
        rectifiable=True,
        note=note,
    )


def _power_law(
    beta: Fraction, mult: int, f0: float, leading: Optional[complex] = None
) -> AsymptoticPrediction:
    """Prediction read off I(tau) e^{-i tau f0} ~ leading tau^beta log^mult tau.

    f(0) = 0 is rectifiable whatever else holds, and so is beta < -1.  At
    beta = -1, d = d' = 1 but the curve is not rectifiable (its length grows
    like log tau).  Otherwise d = 2/(1-beta) and d' = (beta+3)/2; the content
    is infinite when the leading term carries a log factor (mult > 0),
    follows from the leading coefficient when one is given, and is unknown
    otherwise.
    """
    if f0 == 0.0:
        return _rectifiable(beta, mult, 0.0, "f(0) = 0: graphs and curve are rectifiable")
    f0 = abs(f0)  # conjugation invariance: I(tau) for -f0 is the conjugate curve
    if beta < -1:
        return _rectifiable(beta, mult, f0, f"polyhedron not remote (beta = {beta}): rectifiable")
    content, degenerate, note = None, False, ""
    if beta == -1:
        note = "beta = -1: boundary case, d = 1 but the curve's length grows like log tau"
    elif mult:
        leading, content, degenerate = None, math.inf, True
        note = f"multiplicity {mult}: leading term carries log^{mult} tau; content degenerate"
    elif leading is not None:
        content = content_from_coefficient(beta, leading, f0)
    return AsymptoticPrediction(
        beta=beta,
        multiplicity_K=mult,
        curve_dim=2 / (1 - beta),
        osc_dim=(beta + 3) / 2,
        f0=f0,
        leading_coeff=leading,
        content=content,
        degenerate=degenerate,
        note=note,
    )


def predict_no_critical_point(f0: float) -> AsymptoticPrediction:
    """Prediction when grad f has no zero in the amplitude support.

    Repeated partial integration gives I(tau) = O(tau^{-k}) for every k, so
    the curve spirals into the origin faster than any power and the curve and
    both reflected graphs are rectifiable.
    """
    return _rectifiable(
        None, 0, abs(f0), "no critical point in the support: I decays faster than any power"
    )


def content_from_coefficient(beta: Rational, a0beta: complex, f0: float) -> float:
    """Minkowski content of the curve from the leading coefficient a_{0,beta}.

    M^d(Gamma) = [|a|/f0^beta]^{2/(1-beta)} * (-beta)^{2beta/(1-beta)}
                 * pi^{(1+beta)/(1-beta)} * (1-beta)/(1+beta).

    For a 1-d phase of critical order s (beta = -1/s, a = C1) this is
    |C1|^{2s/(s+1)} * pi * (pi/(s f0))^{-2/(s+1)} * (s+1)/(s-1).
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
    (measure C1 with leading_term_fit and pass it to content_from_coefficient
    at beta = -1/s).
    """
    if s < 2:
        raise ValueError(f"critical order must be >= 2, got {s}")
    leading = None
    if s == 2 and f_second is not None and f0 != 0.0:  # f(0) = 0 ignores f''(0)
        if f_second == 0.0:
            raise ValueError("s = 2 requires f''(0) != 0")
        leading = (
            phi0
            * math.sqrt(2.0 * math.pi / abs(f_second))
            * cmath.exp(1j * math.pi / 4.0 * math.copysign(1.0, f_second))
        )
    return _power_law(Fraction(-1, s), 0, f0, leading)


def predict_nd(
    diagram: DiagramInfo, f0: float, leading: Optional[complex] = None
) -> AsymptoticPrediction:
    """Prediction for n >= 2 from the Newton diagram (adapted coordinates assumed).

    For an R-nondegenerate phase whose polyhedron is remote (beta > -1),
    the oscillation index is beta = -1/c and the leading term carries
    log^m tau, m = n - 1 - dim of the face the bisector meets: the diagram's
    multiplicity (Varchenko 1976).  m = 0 is nondegenerate, with a content
    when the leading coefficient is given; m >= 1 makes the content
    infinite.  beta <= -1 ignores the multiplicity (the saddle xy + 1 has
    m = 1 in these coordinates).  A support without linear terms has
    c >= 2/n, so beta < -n/2 means the origin is not a critical point.
    """
    n, beta = diagram.dimension, diagram.remoteness
    if n < 2:
        raise ValueError("predict_nd is for n >= 2; use predict_1d")
    if beta < Fraction(-n, 2):
        raise ValueError(
            f"beta = {beta} < -n/2 implies a linear term: origin is not a critical point"
        )
    return _power_law(beta, diagram.multiplicity, f0, leading)


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
    pred = _power_law(g - Fraction(n, 2), 0, 1.0)
    return replace(pred, limit_dim=Fraction(4, 1 + n))


def greenblatt_closed_form(p: int, q: int, phi00: float = 1.0) -> complex:
    """Closed-form a_{0,beta} for the phase x^p + y^q + f0, any p, q >= 2.

    With beta = -1/p - 1/q and B the Beta function, the y integrals of
    greenblatt_coefficient reduce (t = y^q) to three constants:

        A  = int_0^inf (1 + y^q)^beta dy = B(1/q, 1/p)/q
        B1 = int_1^inf (y^q - 1)^beta dy = B(1/p, beta + 1)/q
        C  = int_0^1   (1 - y^q)^beta dy = B(1/q, beta + 1)/q

    and each piece is one of 2A, 2B1, 2C, A + C, B1 or 0 by the parity of q
    and the sign of (+-1)^p.  For p, q even this is
    4 phi(0,0) e^{i pi (1/p + 1/q)/2} Gamma(1/p + 1) Gamma(1/q + 1).
    """
    _validate_pq(p, q)
    beta = -1.0 / p - 1.0 / q

    def beta_fn(a: float, b: float) -> float:
        return math.gamma(a) * math.gamma(b) / math.gamma(a + b)

    A = beta_fn(1.0 / q, 1.0 / p) / q
    B1 = beta_fn(1.0 / p, beta + 1.0) / q
    C = beta_fn(1.0 / q, beta + 1.0) / q

    def piece(xsign: float, part: int) -> float:
        # q odd: y -> -y flips y^q, so only the sign of part * xsign^p counts:
        # + gives 1 + |y|^q on one half line and 1 - |y|^q on the other, - gives
        # |y|^q - 1 beyond one root.  q even: 1 + y^q on all of R, y^q - 1 for
        # |y| > 1, 1 - y^q for |y| < 1, or -(1 + y^q), positive nowhere.
        if q % 2:
            return A + C if part * xsign**p > 0 else B1
        if xsign**p > 0:
            return 2.0 * A if part > 0 else 0.0
        return 2.0 * B1 if part > 0 else 2.0 * C

    return _from_pieces(p, q, phi00, piece)


def greenblatt_coefficient(p: int, q: int, phi00: float = 1.0) -> complex:
    """Leading coefficient a_{0,beta} for the phase x^p + y^q + f0, by quadrature.

    With S0(x, y) = x^p + y^q (the principal part), m = p/q and
    beta = -1/p - 1/q:

        c0 = phi(0,0)/(m+1) * int_R [S0_+(1,y)^beta + S0_+(-1,y)^beta] dy
        C0 = same with S0_- (the negative part)
        a_{0,beta} = -beta Gamma(-beta) (e^{-i pi beta/2} c0 + e^{i pi beta/2} C0)

    The y integral is compactified by y = u/(1-|u|); the integrand has
    integrable algebraic singularities where S0(+-1, y) vanishes (y = +-1,
    i.e. u = +-1/2) and, when q < p, at u = +-1.  The integrand works on
    Python floats: where y^q overflows it is 0, the limit of |S0|^beta as
    |y| -> inf.  For every (p, q) the result is cross-checked against
    greenblatt_closed_form to 1e-6 relative.
    """
    from scipy.integrate import quad

    _validate_pq(p, q)
    beta = -1.0 / p - 1.0 / q

    def piece(xsign: float, part: int) -> float:
        # part +1: S0_+^beta; part -1: S0_-^beta, integrated over all y.
        xp = xsign**p

        def integrand(u: float) -> float:
            au = abs(u)
            if au >= 1.0:
                return 0.0
            y = u / (1.0 - au)
            try:
                s = part * (xp + y**q)
            except OverflowError:  # |y|^q past the float range: |S0|^beta -> 0
                return 0.0
            if not s > 0.0:
                return 0.0
            return s**beta / (1.0 - au) ** 2

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

    a = _from_pieces(p, q, phi00, piece)
    closed = greenblatt_closed_form(p, q, phi00)
    if abs(a - closed) > 1e-6 * abs(closed):
        raise ArithmeticError(
            f"quadrature route disagrees with closed form for (p={p}, q={q}): "
            f"{a} vs {closed}"
        )
    return a


def _from_pieces(p: int, q: int, phi00: float, piece) -> complex:
    """a_{0,beta} from the four y integrals piece(+-1, +-1) of S0_(+-)(+-1, y)^beta."""
    beta = -1.0 / p - 1.0 / q
    pref = phi00 / (p / q + 1.0)
    c0 = pref * (piece(1.0, +1) + piece(-1.0, +1))
    C0 = pref * (piece(1.0, -1) + piece(-1.0, -1))
    return (
        -beta
        * math.gamma(-beta)
        * (cmath.exp(-0.5j * math.pi * beta) * c0 + cmath.exp(0.5j * math.pi * beta) * C0)
    )


def _validate_pq(p: int, q: int) -> None:
    if p < 2 or q < 2:
        raise ValueError(f"need p, q >= 2, got ({p}, {q})")
    if (p, q) == (2, 2):
        raise ValueError("(p, q) = (2, 2) excluded: beta = -1 boundary case")
