"""Analytic predictions: dimensions, leading coefficients, Minkowski contents.

Verified here:
* predict_1d gives d = 4/3 (s = 2) and d = 3/2 (s = 3) as exact Fractions,
  and caustic A_k predictions in n = 1 coincide with predict_1d(s = k + 1);
* the s = 2 coefficient sqrt(pi / |c|) e^{i pi sgn(c)/4} of c x^2 and
  the frozen golden content 3 * 2^(2/3) * pi for x^2 + 1, from the
  coefficient formula at beta = -1/2;
* diagonal_coefficient against the quadrature route (leading_term_fit) at
  5%: c x^s for s = 2..6 and c = 1, -2; 2x^2 + y^4 + 1, x^2 - y^4 + 1,
  x^2 + y^4 + x^2 y^2 + 1 and x^2 + y^3 + 1 (a two-term fit); and
  x^4 + y^4 + z^4 + 1; no coefficient on a principal face that is not
  sum_i c_i x_i^{a_i} (x^2 + xy^2 + y^4, x^2 + y^6 + z^6 + y^3 z^3), and the
  same bits under a permutation of the axes;
* one prediction for every n from the diagram: nondegenerate at
  multiplicity 0 (in 2D and 3D, with a content when a coefficient is
  given; the quadrature route on x^4 + y^4 + z^4 + 1 fits better without
  log tau than with it), log-degenerate at multiplicity 1 and 2 with an
  infinite content and no coefficient, d = d' = 1 and not rectifiable at
  beta = -1 (x^2 + y^2 + 1, x^2 + y^4 + z^4 + 1 and the A_1 caustic in
  n = 2), the multiplicity ignored at beta <= -1, and rejection of
  beta < -n/2 (a linear term);
* the same prediction in 1D: on random c x^s + higher terms + f0
  (s = 2..11, signed coefficients, f0 in {0, 1, -3, 0.7}, phi(0) in
  {1, 0.5}) predict_nd on the diagram and the CLI route both equal the
  closed form predict_1d(s) bit for bit, and the CLI decides the principal
  vertex without building a scan domain;
* branch order: f(0) = 0 is rectifiable before the multiplicity is read;
* caustic family validation and the k -> infinity limit dimension;
* the caustic table against the Newton route: the normal forms
  x^(k+1) + y^2 + 1 (A_k, k = 1..8) and x^2 y +- y^(k-1) + 1 (D_k,
  k = 4..9) give the table's beta with multiplicity 0, pass the
  R-nondegeneracy check, and predict_nd gives the table's curve dimension;
* the leading-coefficient quadrature matches the closed form for every
  2 <= p, q <= 12, odd exponents included, to 1e-6, and both match the
  frozen modulus for (2, 4); a property test extends the match to
  2 <= p, q <= 28;
* the float-only coefficient integrand gives bit for bit the value of a
  numpy-scalar reference integrand, also where y^q overflows ((2, 128),
  (3, 101));
* serialization of None / infinite content and the no-critical-point case.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad

import oscfract.cli as cli
from oscfract import newton
from oscfract.integrals import QuadratureConfig, leading_term_fit, sample_integral
from oscfract.newton import newton_diagram, r_nondegeneracy_check
from oscfract.phases import AmplitudeSpec, PolynomialPhase
from oscfract.predict import (
    CausticType,
    caustic_prediction,
    content_from_coefficient,
    diagonal_coefficient,
    greenblatt_closed_form,
    greenblatt_coefficient,
    predict_1d,
    predict_nd,
    predict_no_critical_point,
)

# 3 * 2^(2/3) * pi at 30 digits via mpmath, frozen.
CONTENT_X2 = 14.960902449492015
# |4 Gamma(3/2) Gamma(5/4)|, the (2, 4) coefficient modulus, frozen.
COEFF_24_ABS = 3.2131131218545580


def _diagram(terms):
    return newton_diagram(PolynomialPhase(len(next(iter(terms))), terms))


def test_dimension_predictions_exact():
    p2 = predict_1d(2, 1.0)
    assert p2.curve_dim == Fraction(4, 3)
    assert p2.osc_dim == Fraction(5, 4)
    assert p2.beta == Fraction(-1, 2)
    p3 = predict_1d(3, 1.0)
    assert p3.curve_dim == Fraction(3, 2)
    assert p3.osc_dim == Fraction(4, 3)
    assert p3.beta == Fraction(-1, 3)


def test_caustic_matches_1d_fold_hierarchy():
    for k in range(1, 9):
        c = caustic_prediction(CausticType("A", k, 1))
        p = predict_1d(k + 1, 1.0)
        assert c.beta == p.beta
        assert c.curve_dim == p.curve_dim
        assert c.osc_dim == p.osc_dim


def test_explicit_order_two_coefficient():
    pred = predict_1d(2, 1.0, diagonal_coefficient({(2,): 1.0}, 1.0))
    assert pred.leading_coeff is not None
    assert abs(pred.leading_coeff) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert cmath.phase(pred.leading_coeff) == pytest.approx(math.pi / 4, abs=1e-12)
    assert pred.content == pytest.approx(CONTENT_X2, rel=1e-12)
    neg = predict_1d(2, 1.0, diagonal_coefficient({(2,): -1.0}))
    assert cmath.phase(neg.leading_coeff) == pytest.approx(-math.pi / 4, abs=1e-12)
    with pytest.raises(ValueError):
        diagonal_coefficient({(2,): 0.0})


def test_higher_order_leaves_coefficient_open():
    pred = predict_1d(3, 1.0)  # no leading coefficient given: no content
    assert pred.leading_coeff is None
    assert pred.content is None


def test_zero_critical_value_is_rectifiable():
    pred = predict_1d(2, 0.0)
    assert pred.rectifiable
    assert pred.curve_dim == 1
    assert pred.osc_dim == 1


def test_negative_critical_value_conjugates():
    assert predict_1d(2, -3.0).f0 == 3.0


def test_content_golden_value():
    val = content_from_coefficient(Fraction(-1, 2), math.sqrt(math.pi), 1.0)
    assert val == pytest.approx(CONTENT_X2, rel=1e-12)


def test_content_1d_domain():
    # the 1-d content is the coefficient formula at beta = -1/s: s = 1 has
    # no finite content, and f0 = 0 or C1 = 0 is outside its domain
    with pytest.raises(ValueError):
        content_from_coefficient(Fraction(-1, 1), 1.0 + 0.0j, 1.0)
    with pytest.raises(ValueError):
        content_from_coefficient(Fraction(-1, 2), 1.0 + 0.0j, 0.0)
    with pytest.raises(ValueError):
        content_from_coefficient(Fraction(-1, 2), 0.0j, 1.0)


def test_content_from_coefficient_domain():
    with pytest.raises(ValueError):
        content_from_coefficient(Fraction(-3, 2), 1.0 + 0.0j, 1.0)
    with pytest.raises(ValueError):
        content_from_coefficient(Fraction(0), 1.0 + 0.0j, 1.0)
    with pytest.raises(ValueError):
        content_from_coefficient(Fraction(-1, 2), 1.0 + 0.0j, 0.0)
    with pytest.raises(ValueError):
        content_from_coefficient(Fraction(-1, 2), 0.0j, 1.0)


X2_Y4 = {(2, 0): 1.0, (0, 4): 1.0, (0, 0): 1.0}
QUARTIC_3D = {(4, 0, 0): 1.0, (0, 4, 0): 1.0, (0, 0, 4): 1.0, (0, 0, 0): 1.0}


@pytest.mark.parametrize("terms", [X2_Y4, QUARTIC_3D], ids=["2d", "3d"])
def test_predict_nd_nondegenerate(terms):
    diag = _diagram(terms)
    pred = predict_nd(diag, 1.0)
    assert pred.beta == Fraction(-3, 4)
    assert pred.multiplicity_K == 0
    assert pred.curve_dim == Fraction(8, 7)
    assert pred.osc_dim == Fraction(9, 8)
    assert pred.content is None
    assert not pred.degenerate and not pred.rectifiable
    coeff = greenblatt_closed_form(2, 4)  # any nonzero coefficient gives a content
    with_coeff = predict_nd(diag, 1.0, coeff)
    assert with_coeff.content == pytest.approx(
        content_from_coefficient(Fraction(-3, 4), coeff, 1.0)
    )


def test_quadrature_finds_no_log_factor_on_the_3d_quartic():
    # multiplicity 0: on the default 3D window the one-term fit without
    # log tau is tighter than the one with it (0.066 against 0.165).  The
    # CLI's 3D grid reads both residuals as the default one does, to 1e-8,
    # in 335 MB instead of 940 MB
    cfg = QuadratureConfig(panel_order=2)
    phase, amp = PolynomialPhase(3, QUARTIC_3D), AmplitudeSpec(3)
    samples = sample_integral(phase, amp, 8.0, 150.0, 30, cfg)
    flat = leading_term_fit(samples, 1.0, -0.75, k=0)
    logged = leading_term_fit(samples, 1.0, -0.75, k=1)
    assert flat.residual < logged.residual


def _principal_part(terms):
    """(diagram, terms on the face the bisector meets) of sum_k c_k x^k."""
    diagram = _diagram(terms)
    return diagram, {k: terms[k] for k in diagram.center_points}


@pytest.mark.parametrize("c", [1.0, -2.0])
@pytest.mark.parametrize("s", range(2, 7))
def test_diagonal_coefficient_matches_the_quadrature_route_1d(s, c):
    # one-term fit over the top decade of tau 200..4000; s = 6 reads 3%
    phase = PolynomialPhase(1, {(s,): c, (0,): 1.0})
    samples = sample_integral(phase, AmplitudeSpec(1), 200.0, 4000.0, 24)
    fit = leading_term_fit(samples, 1.0, -1.0 / s)
    a = diagonal_coefficient({(s,): c})
    assert abs(fit.value - a) <= 0.05 * abs(a)


@pytest.mark.parametrize(
    "terms, radius, window, cfg",
    [
        ({(2, 0): 2.0, (0, 4): 1.0, (0, 0): 1.0}, 0.6, (60.0, 600.0), QuadratureConfig()),
        ({(2, 0): 1.0, (0, 4): -1.0, (0, 0): 1.0}, 0.6, (60.0, 600.0), QuadratureConfig()),
        (
            {(2, 0): 1.0, (0, 4): 1.0, (2, 2): 1.0, (0, 0): 1.0},
            0.6,
            (60.0, 600.0),
            QuadratureConfig(),
        ),
        ({(2, 0): 1.0, (0, 3): 1.0, (0, 0): 1.0}, 0.6, (60.0, 600.0), QuadratureConfig()),
        (QUARTIC_3D, 1.0, (15.0, 150.0), QuadratureConfig(panel_order=2)),
    ],
    ids=["2x^2+y^4+1", "x^2-y^4+1", "x^2+y^4+x^2y^2+1", "x^2+y^3+1", "x^4+y^4+z^4+1"],
)
def test_diagonal_coefficient_matches_the_quadrature_route_nd(terms, radius, window, cfg):
    # the first amplitude correction tau^(-1/2) is fitted alongside a tau^beta:
    # one-term fits read 7-17% off on these windows, two-term fits 0.3-3%
    diagram, part = _principal_part(terms)
    n = diagram.dimension
    samples = sample_integral(PolynomialPhase(n, terms), AmplitudeSpec(n, radius), *window, 16, cfg)
    fit = leading_term_fit(samples, 1.0, diagram.remoteness, correction_exponent=-0.5)
    a = diagonal_coefficient(part)
    assert abs(fit.value - a) <= 0.05 * abs(a)


@pytest.mark.parametrize(
    "terms",
    [
        {(2, 0): 1.0, (1, 2): 1.0, (0, 4): 1.0},
        {(2, 0, 0): 1.0, (0, 6, 0): 1.0, (0, 0, 6): 1.0, (0, 3, 3): 1.0},
    ],
    ids=["x^2+xy^2+y^4", "x^2+y^6+z^6+y^3z^3"],
)
def test_no_diagonal_coefficient_on_a_face_with_a_mixed_term(terms):
    diagram, part = _principal_part(terms)
    assert len(part) == diagram.dimension + 1  # the mixed term lies on the face
    assert diagonal_coefficient(part) is None
    # a linear term, or a variable without its own power, is no principal part either
    assert diagonal_coefficient({(1, 0): 1.0, (0, 2): 1.0}) is None
    assert diagonal_coefficient({(2, 0, 0): 1.0, (0, 4, 0): 1.0}) is None


def test_diagonal_coefficient_is_the_same_under_a_permutation_of_the_axes():
    # the pairwise Beta-function form read x^3 + y^4 and x^4 + y^3 1 ulp apart
    assert diagonal_coefficient({(3, 0): 1.0, (0, 4): 1.0}) == diagonal_coefficient(
        {(4, 0): 1.0, (0, 3): 1.0}
    )
    powers = [(4, -2.0), (3, 1.0), (6, 0.5)]
    values = set()
    for order in ((0, 1, 2), (2, 0, 1), (1, 2, 0), (2, 1, 0)):
        part = {}
        for axis, (e, c) in zip(order, powers):
            k = [0, 0, 0]
            k[axis] = e
            part[tuple(k)] = c
        for items in (sorted(part.items()), sorted(part.items(), reverse=True)):
            values.add(diagonal_coefficient(dict(items), 1.5))
    assert len(values) == 1


@pytest.mark.parametrize(
    "terms, beta, mult",
    [
        ({(2, 2): 1.0, (0, 0): 1.0}, Fraction(-1, 2), 1),
        # the bisector meets the edge (2,2,0)-(0,0,4) at (4/3, 4/3, 4/3)
        (
            {(2, 2, 0): 1.0, (6, 0, 0): 1.0, (0, 6, 0): 1.0, (0, 0, 4): 1.0, (0, 0, 0): 1.0},
            Fraction(-3, 4),
            1,
        ),
        ({(2, 2, 2): 1.0, (0, 0, 0): 1.0}, Fraction(-1, 2), 2),
    ],
    ids=["2d-vertex", "3d-edge", "3d-vertex"],
)
def test_predict_nd_log_degenerate(terms, beta, mult):
    pred = predict_nd(_diagram(terms), 1.0)
    assert pred.beta == beta
    assert pred.multiplicity_K == mult
    assert pred.degenerate
    assert math.isinf(pred.content)
    assert pred.curve_dim == 2 / (1 - beta)
    assert f"log^{mult} tau" in pred.note


def test_predict_nd_multiplicity_ignores_coefficient():
    pred = predict_nd(_diagram({(2, 2): 1.0, (0, 0): 1.0}), 1.0, 1.0 + 1.0j)
    assert pred.leading_coeff is None
    assert math.isinf(pred.content)
    assert pred.degenerate


@pytest.mark.parametrize(
    "route",
    [
        lambda: predict_nd(_diagram({(2, 0): 1.0, (0, 2): 1.0, (0, 0): 1.0}), 1.0),
        lambda: predict_nd(
            _diagram({(2, 0, 0): 1.0, (0, 4, 0): 1.0, (0, 0, 4): 1.0, (0, 0, 0): 1.0}), 1.0
        ),
        lambda: caustic_prediction(CausticType("A", 1, 2)),
    ],
    ids=["x^2+y^2+1", "x^2+y^4+z^4+1", "A_1-n2"],
)
def test_beta_minus_one_has_dimension_one_and_infinite_length(route):
    # |I'| ~ |a| f0 / tau: the length grows like log tau, so d = d' = 1 and
    # the curve is not rectifiable; the multiplicity plays no part
    pred = route()
    assert pred.beta == -1
    assert pred.curve_dim == 1 and pred.osc_dim == 1
    assert not pred.rectifiable
    assert not pred.degenerate
    assert pred.content is None
    assert "boundary" in pred.note


def test_predict_nd_ignores_the_multiplicity_at_and_below_beta_minus_one():
    # the Morse saddle xy + 1 has multiplicity 1 in these coordinates
    saddle = predict_nd(_diagram({(1, 1): 1.0, (0, 0): 1.0}), 1.0)
    assert saddle.beta == -1 and saddle.multiplicity_K == 1
    assert not saddle.degenerate and saddle.curve_dim == 1
    below = predict_nd(_diagram({(1, 1, 0): 1.0, (0, 0, 2): 1.0, (0, 0, 0): 1.0}), 1.0)
    assert below.beta == Fraction(-3, 2) and below.multiplicity_K == 1
    assert below.rectifiable and not below.degenerate


@pytest.mark.parametrize(
    "terms",
    [{(1, 0): 1.0, (0, 1): 1.0}, {(1, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0}],
    ids=["2d", "3d"],
)
def test_predict_nd_rejects_linear_support(terms):
    # beta < -n/2: no support without a linear term reaches it
    with pytest.raises(ValueError, match="linear term"):
        predict_nd(_diagram(terms), 1.0)


def test_predict_nd_non_remote_is_rectifiable():
    phase = PolynomialPhase(
        3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0, (0, 0, 0): 1.0}
    )
    pred = predict_nd(newton_diagram(phase), 1.0)
    assert pred.rectifiable
    assert pred.beta == Fraction(-3, 2)
    assert pred.curve_dim == 1


def test_predict_2d_zero_critical_value():
    pred = predict_nd(_diagram({(2, 0): 1.0, (0, 4): 1.0}), 0.0)
    assert pred.rectifiable
    assert not pred.degenerate
    assert pred.curve_dim == 1
    assert pred.f0 == 0.0


def test_predict_nd_zero_critical_value_before_hypothesis():
    # f(0) = 0 is rectifiable before the log power (once a user hypothesis,
    # now the multiplicity) is read
    for terms in (
        {(4, 0, 0): 1.0, (0, 4, 0): 1.0, (0, 0, 4): 1.0},
        {(2, 2, 0): 1.0, (6, 0, 0): 1.0, (0, 6, 0): 1.0, (0, 0, 4): 1.0},
    ):
        pred = predict_nd(_diagram(terms), 0.0)
        assert pred.rectifiable
        assert not pred.degenerate
        assert pred.curve_dim == 1
        assert pred.f0 == 0.0


_COEFFS = st.floats(0.1, 10.0).flatmap(lambda c: st.sampled_from([c, -c]))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 11),
    _COEFFS,
    st.dictionaries(st.integers(1, 6), _COEFFS, max_size=3),
    st.sampled_from([0.0, 1.0, -3.0, 0.7]),
    st.sampled_from([1.0, 0.5]),
)
def test_predict_nd_in_1d_is_predict_1d(s, c, higher, f0, phi0):
    # the 1D diagram is the vertex (s,), so c = s, beta = -1/s, multiplicity
    # 0, and its principal part is c x^s: the closed form, bit for bit
    terms = {(s,): c, (0,): f0, **{(s + j,): cj for j, cj in higher.items()}}
    phase = PolynomialPhase(1, terms)
    ref = predict_1d(s, f0, diagonal_coefficient({(s,): c}, phi0))
    diagram = newton_diagram(phase)
    assert diagram.center_points == ((s,),)
    part = {k: phase.terms[k] for k in diagram.center_points}
    assert repr(predict_nd(diagram, f0, diagonal_coefficient(part, phi0))) == repr(ref)
    # the CLI route decides the principal vertex exactly, with no scan domain
    built, real = [], newton._fundamental_domain

    def counted(n):
        built.append(n)
        return real(n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(newton, "_fundamental_domain", counted)
        routed = cli._diagram(phase)
    assert built == []
    assert routed == diagram
    assert repr(cli._predict(phase, AmplitudeSpec(1, phi0=phi0), routed)) == repr(ref)


def test_caustic_families():
    d4 = caustic_prediction(CausticType("D", 4, 2))
    assert d4.beta == Fraction(-2, 3)
    assert d4.curve_dim == Fraction(6, 5)
    assert d4.limit_dim == Fraction(4, 3)
    with pytest.raises(ValueError):
        CausticType("E", 6, 2)
    with pytest.raises(ValueError):
        CausticType("A", 0, 1)
    with pytest.raises(ValueError):
        CausticType("D", 3, 2)
    with pytest.raises(ValueError):
        CausticType("D", 4, 1)


@pytest.mark.parametrize(
    "family, k, phase",
    [("A", k, PolynomialPhase(2, {(k + 1, 0): 1.0, (0, 2): 1.0, (0, 0): 1.0})) for k in range(1, 9)]
    + [
        ("D", k, PolynomialPhase(2, {(2, 1): 1.0, (0, k - 1): sign, (0, 0): 1.0}))
        for k in range(4, 10)
        for sign in (1.0, -1.0)
    ],
    ids=str,
)
def test_caustic_table_matches_the_newton_route(family, k, phase):
    diagram = newton_diagram(phase)
    caustic = caustic_prediction(CausticType(family, k, 2))
    assert diagram.remoteness == caustic.beta
    assert diagram.multiplicity == 0
    assert r_nondegeneracy_check(phase, diagram.faces).passed
    # A_1 sits at beta = -1, which both routes read as d = 1
    assert predict_nd(diagram, 1.0).curve_dim == caustic.curve_dim


def test_caustic_dimension_increases_toward_limit():
    dims = [caustic_prediction(CausticType("A", k, 1)).curve_dim for k in range(1, 10)]
    assert all(a < b for a, b in zip(dims, dims[1:]))
    assert all(d < Fraction(4, 2) for d in dims)


def test_caustic_high_ambient_dimension_rectifiable():
    pred = caustic_prediction(CausticType("A", 2, 3))
    assert pred.rectifiable
    assert pred.limit_dim == Fraction(1)


def test_coefficient_quadrature_matches_closed_form():
    for p, q in ((2, 4), (4, 4), (2, 6)):
        closed = greenblatt_closed_form(p, q)
        quad = greenblatt_coefficient(p, q)
        assert abs(quad - closed) <= 1e-6 * abs(closed)
    assert abs(greenblatt_closed_form(2, 4)) == pytest.approx(COEFF_24_ABS, rel=1e-12)
    assert cmath.phase(greenblatt_closed_form(2, 4)) == pytest.approx(
        3 * math.pi / 8, abs=1e-12
    )


def test_coefficient_odd_exponents_match_closed_form():
    for p in range(2, 13):
        for q in range(2, 13):
            if (p, q) == (2, 2):
                continue
            closed = greenblatt_closed_form(p, q)
            assert abs(greenblatt_coefficient(p, q) - closed) <= 1e-6 * abs(closed), (p, q)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 28), st.integers(2, 28))
def test_closed_form_matches_quadrature_up_to_28(p, q):
    # the quadrature converges on this whole range; it first fails at (29, 2)
    assume((p, q) != (2, 2))
    closed = greenblatt_closed_form(p, q)
    assert abs(greenblatt_coefficient(p, q) - closed) <= 1e-6 * abs(closed)


def _reference_coefficient(p, q):
    """a_{0,beta} by the same quadrature on an np.float64 integrand.

    Overflow of y^q is left to numpy (inf, under errstate) instead of being
    caught; everything else matches greenblatt_coefficient's arithmetic.
    """
    beta = -1.0 / p - 1.0 / q
    pref = 1.0 / (p / q + 1.0)

    def piece(xsign, part):
        def integrand(u):
            au = abs(u)
            if au >= 1.0:
                return 0.0
            y = u / (1.0 - au)
            with np.errstate(over="ignore"):
                s = part * (np.float64(xsign) ** p + np.float64(y) ** q)
                if not s > 0.0:
                    return 0.0
                return float(s**beta) / (1.0 - au) ** 2

        return scipy_quad(
            integrand, -1.0, 1.0, points=[-0.5, 0.0, 0.5], limit=400,
            epsabs=1e-11, epsrel=1e-11, full_output=1,
        )[0]

    c0 = pref * (piece(1.0, +1) + piece(-1.0, +1))
    C0 = pref * (piece(1.0, -1) + piece(-1.0, -1))
    return (
        -beta
        * math.gamma(-beta)
        * (cmath.exp(-0.5j * math.pi * beta) * c0 + cmath.exp(0.5j * math.pi * beta) * C0)
    )


def test_coefficient_integrand_matches_numpy_reference_exactly():
    pairs = [(p, q) for p in range(2, 9) for q in range(2, 9) if (p, q) != (2, 2)]
    for p, q in pairs + [(2, 128), (3, 101)]:
        assert greenblatt_coefficient(p, q) == _reference_coefficient(p, q), (p, q)


def test_coefficient_validation():
    with pytest.raises(ValueError):
        greenblatt_coefficient(2, 2)
    with pytest.raises(ValueError):
        greenblatt_coefficient(1, 4)


def test_no_critical_point_prediction():
    pred = predict_no_critical_point(-2.0)
    assert pred.beta is None
    assert pred.rectifiable
    assert pred.curve_dim == 1
    assert pred.f0 == 2.0


def test_serialization():
    diag = _diagram({(2, 2): 1.0, (0, 0): 1.0})
    deg = predict_nd(diag, 1.0).to_dict()
    assert deg["content"] == "inf"
    assert deg["beta"] == "-1/2"
    assert deg["curve_dim"] == "4/3"
    assert deg["curve_dim_float"] == pytest.approx(4.0 / 3.0)
    none_case = predict_1d(3, 1.0).to_dict()
    assert none_case["content"] is None
    assert "leading_coeff" not in none_case
    nocrit = predict_no_critical_point(1.0).to_dict()
    assert nocrit["beta"] is None
    assert nocrit["rectifiable"] is True
    explicit = predict_1d(2, 1.0, diagonal_coefficient({(2,): 1.0})).to_dict()
    assert explicit["leading_coeff"] == pytest.approx(
        [math.sqrt(math.pi / 2), math.sqrt(math.pi / 2)]
    )
