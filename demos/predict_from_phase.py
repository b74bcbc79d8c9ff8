"""From a polynomial phase to predicted fractal data, with no integration.

The phase f enters only through its Newton diagram: the bisector x = y = ...
meets the boundary of the Newton polyhedron at distance c, the remoteness is
beta = -1/c, and the multiplicity counts extra log factors in the leading
term of I(tau) = integral of e^{i tau f(x)} phi(x) dx.  From (beta, mult)
alone follow the box dimension of the curve (Re I, Im I), the dimension of
the reflected graphs, and (when the leading coefficient is computable) the
Minkowski content.

Run:  python3 demos/predict_from_phase.py
"""

from fractions import Fraction

from oscfract.newton import newton_diagram
from oscfract.phases import PolynomialPhase
from oscfract.predict import (
    CausticType,
    caustic_prediction,
    diagonal_coefficient,
    greenblatt_coefficient,
    predict_1d,
    predict_nd,
    predict_no_critical_point,
)


def show(name, pred):
    dims = f"d={pred.curve_dim} d'={pred.osc_dim}"
    extra = []
    if pred.rectifiable:
        extra.append("rectifiable")
    if pred.degenerate:
        extra.append("degenerate")
    if pred.content is not None:
        extra.append(f"content={pred.content:.6g}" if pred.content != float("inf") else "content=inf")
    if pred.note:
        extra.append(pred.note)
    print(f"  {name:22s} beta={str(pred.beta):6s} {dims:16s} {'; '.join(extra)}")


# 1. One variable: the critical order s at the origin is all that matters.
#    A fold (s=2) gives d = 4/3.  For f = f0 + c x^s + ... the leading
#    coefficient is a Fresnel constant of c x^s, so the content comes out as
#    a number for every s; without the coefficient it stays open.
print("one-dimensional phases")
show("x^2 + 1 (fold)", predict_1d(2, 1.0, diagonal_coefficient({(2,): 1.0})))
show("x^3 + 1 (cusp)", predict_1d(3, 1.0, diagonal_coefficient({(3,): 1.0})))
show("x^9 + 1", predict_1d(9, 1.0))
show("x + 2 (no crit pt)", predict_no_critical_point(2.0))

# 2. Two variables: remoteness is read off the Newton diagram.  For
#    x^p + y^q the leading coefficient has a closed form, so the content
#    of the x^2 + y^4 curve is again explicit; greenblatt_coefficient gets
#    the same number by quadrature.  (p, q) = (2, 2) sits on the beta = -1
#    boundary: d = 1, but the curve's length grows like log tau, and no
#    coefficient applies.
print("\ntwo-dimensional phases")
for p, q in ((2, 2), (2, 4), (3, 5)):
    phase = PolynomialPhase(2, {(p, 0): 1.0, (0, q): 1.0, (0, 0): 1.0})
    info = newton_diagram(phase)
    a = None if (p, q) == (2, 2) else greenblatt_coefficient(p, q)
    show(f"x^{p} + y^{q} + 1", predict_nd(info, 1.0, a))

# A vertex on the bisector has multiplicity 1: the leading term picks up a
# log tau and the content degenerates to infinity at the same dimension.
vertex = PolynomialPhase(2, {(2, 2): 1.0, (5, 0): 1.0, (0, 5): 1.0, (0, 0): 1.0})
info = newton_diagram(vertex)
show("x^2y^2 + x^5 + y^5 + 1", predict_nd(info, 1.0))

# 3. Three and more variables: the same function reads the log power off
#    the diagram.  x^2y^2 + x^6 + y^6 + z^4 meets the bisector on the edge
#    (2,2,0)-(0,0,4), so its multiplicity is 1 and its content infinite.
print("\nhigher-dimensional phases")
sphere = PolynomialPhase(3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0, (0, 0, 0): 1.0})
show("x^2+y^2+z^2+1", predict_nd(newton_diagram(sphere), 1.0))
quartic = PolynomialPhase(3, {(4, 0, 0): 1.0, (0, 4, 0): 1.0, (0, 0, 4): 1.0, (0, 0, 0): 1.0})
show("x^4+y^4+z^4+1", predict_nd(newton_diagram(quartic), 1.0))
edge = PolynomialPhase(
    3, {(2, 2, 0): 1.0, (6, 0, 0): 1.0, (0, 6, 0): 1.0, (0, 0, 4): 1.0, (0, 0, 0): 1.0}
)
logged = predict_nd(newton_diagram(edge), 1.0)
show("x^2y^2+x^6+y^6+z^4+1", logged)
assert logged.multiplicity_K == 1 and logged.degenerate

# 4. Caustics: near an A_k or D_k point of a caustic the normal forms give
#    beta directly, and d increases toward 4/(1+n) as k grows.
print("\ncaustic points (n = 2)")
for k in (1, 2, 3, 10):
    pred = caustic_prediction(CausticType("A", k, 2))
    print(f"  A_{k:<2d} beta={str(pred.beta):8s} d={pred.curve_dim}  (limit {pred.limit_dim})")
for k in (4, 6):
    pred = caustic_prediction(CausticType("D", k, 2))
    print(f"  D_{k:<2d} beta={str(pred.beta):8s} d={pred.curve_dim}  (limit {pred.limit_dim})")

# Sanity: the A_k caustic in one variable is the s = k+1 critical point.
assert caustic_prediction(CausticType("A", 2, 1)).curve_dim == predict_1d(3, 1.0).curve_dim
assert caustic_prediction(CausticType("A", 1, 1)).curve_dim == Fraction(4, 3)
print("\nA_k (n=1) agrees with the one-variable prediction for s = k + 1")
