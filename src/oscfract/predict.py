"""Analytic predictions: oscillation index, dimensions, leading coefficients, contents.

Dimension conventions: the curve dimension d = 2/(1-beta) applies to the
plane curve tau -> (Re I, Im I); the oscillatory dimension d' = (beta+3)/2
applies to the reflected graphs of Re I(1/t), Im I(1/t).  Both live in
(1, 2] for beta in (-1, 0].  A critical value f(0) = 0, a missing critical
point, or beta < -1 each collapse everything to the rectifiable case
d = d' = 1.  At beta = -1 the formulas still give d = d' = 1, but the curve
is not rectifiable: |I'(tau)| ~ |a| f0 / tau, so its length grows like
log tau (a hyperbolic spiral).

The leading coefficient a of I(tau) e^{-i tau f0} ~ a tau^beta has one
closed form, diagonal_coefficient, for a principal part sum_i c_i x_i^{a_i}:
every 1-d critical order and every diagonal face for n >= 2.  Other faces
leave a, and so the content, unknown.  For every n the diagram gives beta
and the log power of the leading term; in 1D it is the vertex s of the
critical order, and predict_1d(s) is the closed-form reference.
greenblatt_coefficient, the x^p + y^q coefficient by quadrature, is a
reference and the only code here that needs scipy, which it imports when
called.
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


def diagonal_coefficient(part: dict, phi0: float = 1.0) -> Optional[complex]:
    """Leading coefficient of a principal part sum_i c_i x_i^{a_i}, else None.

    part maps multi-indices to coefficients.  When it holds exactly one pure
    power c_i x_i^{a_i}, a_i >= 2, of each variable, e^{i tau part}
    factorizes over the axes and

        a = phi(0) prod_i (2/a_i) Gamma(1/a_i) |c_i|^{-1/a_i} z_i,

    z_i = e^{i pi sgn(c_i)/(2 a_i)} for even a_i and cos(pi/(2 a_i)) for odd
    a_i (Arnold, Gusein-Zade and Varchenko, vol. II).  The factors are
    multiplied in (a_i, c_i) order, so permuting the axes gives the same bits.
    """
    n = len(next(iter(part)))
    axes = {}
    for k, c in part.items():
        if c == 0.0:
            raise ValueError(f"coefficient of {k} is 0: not a term of the principal part")
        live = [i for i, e in enumerate(k) if e]
        if len(live) != 1 or live[0] in axes or k[live[0]] < 2:
            return None
        axes[live[0]] = (k[live[0]], c)
    if len(axes) != n:
        return None
    a = complex(phi0)
    for e, c in sorted(axes.values()):
        if e % 2:
            z = math.cos(math.pi / (2 * e))
        else:
            z = cmath.exp(1j * math.pi * math.copysign(1.0, c) / (2 * e))
        a *= 2 / e * math.gamma(1 / e) * abs(c) ** (-1 / e) * z
    return a


def predict_1d(s: int, f0: float, leading: Optional[complex] = None) -> AsymptoticPrediction:
    """Prediction for n = 1 with critical order s at the origin.

    d = 2s/(s+1), d' = (3s-1)/(2s).  The content follows from the leading
    coefficient when one is given: for f = f0 + c x^s + ... that is
    diagonal_coefficient({(s,): c}, phi0).
    """
    if s < 2:
        raise ValueError(f"critical order must be >= 2, got {s}")
    return _power_law(Fraction(-1, s), 0, f0, leading)


def predict_nd(
    diagram: DiagramInfo, f0: float, leading: Optional[complex] = None
) -> AsymptoticPrediction:
    """Prediction for n >= 1 from the Newton diagram (adapted coordinates assumed).

    For an R-nondegenerate phase whose polyhedron is remote (beta > -1),
    the oscillation index is beta = -1/c and the leading term carries
    log^m tau, m = n - 1 - dim of the face the bisector meets: the diagram's
    multiplicity (Varchenko 1976).  m = 0 is nondegenerate, with a content
    when the leading coefficient is given; m >= 1 makes the content
    infinite.  beta <= -1 ignores the multiplicity (the saddle xy + 1 has
    m = 1 in these coordinates).  A support without linear terms has
    c >= 2/n, so beta < -n/2 means the origin is not a critical point.  In
    1D the diagram is the vertex s, so c = s and beta = -1/s with
    multiplicity 0: the prediction of predict_1d(s).
    """
    n, beta = diagram.dimension, diagram.remoteness
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
    """Closed-form a_{0,beta} for the phase x^p + y^q + f0, any p, q >= 2."""
    _validate_pq(p, q)
    return diagonal_coefficient({(p, 0): 1.0, (0, q): 1.0}, phi00)


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

    pref = phi00 / (p / q + 1.0)
    c0 = pref * (piece(1.0, +1) + piece(-1.0, +1))
    C0 = pref * (piece(1.0, -1) + piece(-1.0, -1))
    a = (
        -beta
        * math.gamma(-beta)
        * (cmath.exp(-0.5j * math.pi * beta) * c0 + cmath.exp(0.5j * math.pi * beta) * C0)
    )
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
