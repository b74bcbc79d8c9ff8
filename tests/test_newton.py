"""Newton polyhedron geometry: exact rational remoteness, faces, degeneracy.

Verified here:
* remoteness of x^p + y^q + 1 equals -1/p - 1/q as an exact Fraction for all
  2 <= p, q <= 8, with multiplicity 0 and distance pq/(p+q), in under 1 s;
* multiplicity 1 cases where the bisector meets a vertex or an edge
  (x^2 y^2 in 2D, x^2 y^2 + z^2 in 3D) and the boundary case x^2 + y^2;
* 3D sphere phase has beta = -3/2 (not remote) and a triangle facet;
* n = 4 takes the same inequality route and the same face enumeration as
  n <= 3: x^2 + y^2 + z^2 + w^2 has 4 vertices, 6 edges, 4 triangles and 1
  facet;
* every listed face is cut out by its weights (level 1 on its points, above
  1 on every other minimal point), its dim is the affine rank of its
  points, and every vertex and every inequality with strictly positive w
  cuts out a listed face, and the faces' Euler characteristic is 1, that of
  the contractible complex of bounded faces (property over random supports
  with n = 2..4);
* c and the multiplicity equal those of the min-max program
  max_{w >= 0, sum w = 1} min_k <w, k>, kept here as an independent
  reference, exactly, over random supports with n = 2..5;
* every stored inequality is valid on the support and at the bisector point
  (property over random supports with n = 2..4);
* dominance filtering and to_dict serialization;
* the gradient sampler passes R-nondegenerate phases and flags (x - y)^2,
  and (x - a y^2)^2 + y^6 for a = 10 and 1/10, whose zero orbits miss the
  box |x|, |y| in [1/2, 2];
* on faces whose partials are single monomials (every vertex, and every face
  of a signed sum_i c_i x_i^a_i, a property over n = 2..4) the full scan
  reads 1 to within 4e-16, and the sampler, which skips that scan, reports
  exactly 1.0 and a pass; a face with a two-term partial is still scanned.
"""

import itertools
import time
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscfract import newton
from oscfract.newton import (
    _fundamental_domain,
    _min_residual,
    compact_faces,
    distance_and_remoteness,
    dominance_minimal,
    newton_diagram,
    newton_polyhedron,
    r_nondegeneracy_check,
    reduced_support,
)
from oscfract.phases import PolynomialPhase, partial_derivative


def _solve_square(rows, rhs) -> Optional[list]:
    """Solve a square rational system by Gauss-Jordan; None if singular."""
    m = len(rows)
    mat = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(m):
        pivot = next((r for r in range(col, m) if mat[r][col] != 0), None)
        if pivot is None:
            return None
        mat[col], mat[pivot] = mat[pivot], mat[col]
        pv = mat[col][col]
        mat[col] = [a / pv for a in mat[col]]
        for r in range(m):
            if r != col and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[col])]
    return [mat[r][m] for r in range(m)]


def _rank(rows) -> int:
    mat = [list(r) for r in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col] / mat[rank][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _reference_game_distance(pts, n: int) -> tuple[Fraction, int]:
    """c and multiplicity from the basic solutions of the min-max program.

    max_{w >= 0, sum w = 1} min_k <w, k> equals c; the rank of the set of
    optimal basic w equals the codimension of the face met by the bisector.
    Each basic solution makes t points tight and n - t weights zero.
    """
    best_c = None
    optima: list = []
    for t in range(1, n + 1):
        for tight in itertools.combinations(pts, t):
            for zero in itertools.combinations(range(n), n - t):
                # unknowns w_0..w_{n-1}, c: sum w = 1, <w, k> = c, w_j = 0
                rows = [[Fraction(1)] * n + [Fraction(0)]]
                rows += [[Fraction(e) for e in k] + [Fraction(-1)] for k in tight]
                rows += [[Fraction(int(i == j)) for i in range(n + 1)] for j in zero]
                sol = _solve_square(rows, [Fraction(1)] + [Fraction(0)] * n)
                if sol is None:
                    continue
                w, c = sol[:n], sol[n]
                if any(x < 0 for x in w):
                    continue
                if any(sum(wi * ki for wi, ki in zip(w, k)) < c for k in pts):
                    continue
                if best_c is None or c > best_c:
                    best_c, optima = c, [w]
                elif c == best_c:
                    optima.append(w)
    return best_c, _rank(optima) - 1


def _supports(dims: tuple[int, int], top: int, max_size: int):
    """Non-empty sets of non-zero exponents, with n drawn from dims."""
    return st.integers(*dims).flatmap(
        lambda n: st.sets(
            st.tuples(*[st.integers(0, top)] * n).filter(lambda k: sum(k) > 0),
            min_size=1,
            max_size=max_size,
        )
    )


def _phase2(p, q):
    return PolynomialPhase(2, {(p, 0): 1.0, (0, q): 1.0, (0, 0): 1.0})


def test_remoteness_xp_yq_exact_rationals():
    start = time.monotonic()
    for p in range(2, 9):
        for q in range(2, 9):
            info = newton_diagram(_phase2(p, q))
            assert info.remoteness == Fraction(-1, p) + Fraction(-1, q)
            assert info.distance == Fraction(p * q, p + q)
            assert info.multiplicity == 0
            assert info.to_dict()["remote"] == (info.distance > 1)
    assert time.monotonic() - start < 1.0


def test_reduced_support_drops_constant():
    phase = _phase2(2, 4)
    assert reduced_support(phase) == frozenset({(2, 0), (0, 4)})
    with pytest.raises(ValueError):
        reduced_support(PolynomialPhase(1, {(0,): 3.0}))


def test_dominance_minimal():
    pts = [(2, 0), (0, 2), (3, 3), (1, 1), (1, 1)]
    assert dominance_minimal(pts) == ((0, 2), (1, 1), (2, 0))


def test_monomial_vertex_multiplicity():
    # x^2 y^2: bisector meets the vertex (2, 2), codimension 2
    info = newton_diagram(PolynomialPhase(2, {(2, 2): 1.0, (0, 0): 1.0}))
    assert info.distance == 2
    assert info.remoteness == Fraction(-1, 2)
    assert info.multiplicity == 1
    assert info.to_dict()["remote"] is True
    assert info.center_points == ((2, 2),)


def test_boundary_case_x2_y2():
    info = newton_diagram(_phase2(2, 2))
    assert info.distance == 1
    assert info.remoteness == -1
    assert info.multiplicity == 0
    assert info.to_dict()["remote"] is False


def test_linear_support():
    # x + y: distance 1/2, beta = -2
    info = newton_diagram(PolynomialPhase(2, {(1, 0): 1.0, (0, 1): 1.0}))
    assert info.distance == Fraction(1, 2)
    assert info.remoteness == -2
    assert info.multiplicity == 0


def test_edge_vertex_bisector_cubic():
    # x^3 + xy + y^3: bisector meets the vertex (1, 1) where two edges cross
    phase = PolynomialPhase(2, {(3, 0): 1.0, (1, 1): 1.0, (0, 3): 1.0})
    info = newton_diagram(phase)
    assert info.distance == 1
    assert info.multiplicity == 1
    assert info.center_points == ((1, 1),)
    dims = sorted(f.dim for f in info.faces)
    assert dims == [0, 0, 0, 1, 1]  # three vertices, two edges


def test_sphere_phase_not_remote():
    phase = PolynomialPhase(
        3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0, (0, 0, 0): 1.0}
    )
    info = newton_diagram(phase)
    assert info.distance == Fraction(2, 3)
    assert info.remoteness == Fraction(-3, 2)
    assert info.multiplicity == 0
    assert info.to_dict()["remote"] is False
    assert any(f.dim == 2 and len(f.points) == 3 for f in info.faces)


def test_remote_3d_quartic():
    phase = PolynomialPhase(
        3, {(4, 0, 0): 1.0, (0, 4, 0): 1.0, (0, 0, 4): 1.0, (0, 0, 0): 1.0}
    )
    info = newton_diagram(phase)
    assert info.distance == Fraction(4, 3)
    assert info.remoteness == Fraction(-3, 4)
    assert info.multiplicity == 0
    assert info.to_dict()["remote"] is True


def test_edge_bisector_3d_multiplicity():
    # x^2 y^2 + z^2: bisector point (1,1,1) lies on an edge, codimension 2
    phase = PolynomialPhase(3, {(2, 2, 0): 1.0, (0, 0, 2): 1.0})
    info = newton_diagram(phase)
    assert info.distance == 1
    assert info.multiplicity == 1


def test_four_dimensional_minmax_route():
    phase = PolynomialPhase(
        4,
        {(2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1.0, (0, 0, 2, 0): 1.0, (0, 0, 0, 2): 1.0},
    )
    info = newton_diagram(phase)
    assert info.distance == Fraction(1, 2)
    assert info.remoteness == -2
    assert info.multiplicity == 0
    # the simplex: 4 vertices, 6 edges, 4 triangles and the facet itself
    assert [sum(f.dim == d for f in info.faces) for d in range(4)] == [4, 6, 4, 1]
    assert info.faces[-1].points == info.center_points
    assert info.center_points == tuple(sorted(phase.terms))
    assert (info.distance, info.multiplicity) == _reference_game_distance(
        sorted(phase.terms), 4
    )
    assert compact_faces(newton_polyhedron(phase.terms)) == info.faces


def test_to_dict_serialization():
    info = newton_diagram(_phase2(2, 4))
    data = info.to_dict()
    assert data["c"] == "4/3"
    assert data["beta"] == "-3/4"
    assert data["multiplicity"] == 0
    assert data["remote"] is True
    assert any(f["dim"] == 1 and len(f["points"]) == 2 for f in data["faces"])


@settings(max_examples=60, deadline=None)
@given(_supports((2, 4), 6, 6))
def test_inequalities_valid_on_support_and_bisector(support):
    poly = newton_polyhedron(support)
    c, beta = distance_and_remoteness(poly)
    assert c > 0
    assert beta == Fraction(-1, 1) / c
    for w, ell in poly.inequalities:
        for k in support:
            assert sum(wi * ki for wi, ki in zip(w, k)) >= ell
        # the bisector point t(1,1) first enters the polyhedron at t = c
        assert sum(w) * c >= ell


@settings(max_examples=60, deadline=None)
@given(_supports((2, 4), 6, 6))
def test_faces_are_cut_out_by_their_weights(support):
    poly = newton_polyhedron(support)
    faces = compact_faces(poly)
    listed = {f.points for f in faces}
    assert len(listed) == len(faces)
    # the bounded faces form a contractible complex: a face of any dimension
    # missing from the list would change its Euler characteristic
    assert sum((-1) ** f.dim for f in faces) == 1

    def on(w, ell):
        return tuple(k for k in poly.minimal_points if sum(a * b for a, b in zip(w, k)) == ell)

    for f in faces:
        assert f.level == 1 and all(w > 0 for w in f.weights)
        assert on(f.weights, 1) == f.points
        others = set(poly.minimal_points) - set(f.points)
        assert all(sum(w * e for w, e in zip(f.weights, k)) > 1 for k in others)
        base = f.points[0]
        assert f.dim == _rank([[Fraction(a - b) for a, b in zip(k, base)] for k in f.points[1:]])
    for w, ell in poly.inequalities:
        if all(x > 0 for x in w):
            assert on(w, ell) in listed
    for k in poly.minimal_points:
        # a vertex: the normals of the inequalities tight at k span R^n
        normals = [[Fraction(x) for x in w] for w, ell in poly.inequalities if k in on(w, ell)]
        if _rank(normals) == poly.dimension:
            assert (k,) in listed


@settings(max_examples=120, deadline=None)
@given(_supports((2, 5), 4, 5))
def test_distance_and_multiplicity_match_minmax_program(support):
    n = len(next(iter(support)))
    info = newton_diagram(PolynomialPhase(n, {k: 1.0 for k in support}))
    want = _reference_game_distance(dominance_minimal(support), n)
    assert (info.distance, info.multiplicity) == want
    assert info.remoteness == -1 / want[0]


def test_nondegeneracy_sampler():
    ok = r_nondegeneracy_check(_phase2(2, 4))
    assert ok.passed
    assert all(chk.min_residual > 1e-6 for chk in ok.checks)
    cubic = r_nondegeneracy_check(
        PolynomialPhase(2, {(3, 0): 1.0, (0, 3): 1.0, (0, 0): 1.0})
    )
    assert cubic.passed


def test_nondegeneracy_flags_perfect_square():
    # (x - y)^2: the edge polynomial's gradient vanishes along x = y
    phase = PolynomialPhase(2, {(2, 0): 1.0, (1, 1): -2.0, (0, 2): 1.0})
    rep = r_nondegeneracy_check(phase)
    assert not rep.passed
    bad = [chk for chk in rep.checks if not chk.passed]
    assert bad
    x, y = bad[0].witness
    assert abs(x - y) < 1e-3  # witness sits on the degenerate line


@pytest.mark.parametrize("a", [10.0, 0.1])
def test_nondegeneracy_finds_zero_orbits_off_the_unit_box(a):
    # (x - a y^2)^2 + y^6 + 1: the edge polynomial (x - a y^2)^2 vanishes on
    # the orbit x = a y^2, which meets |x|, |y| in [1/2, 2] for no a outside
    # [1/8, 8]; it meets the chart x = 1 at y = a^(-1/2)
    phase = PolynomialPhase(
        2, {(2, 0): 1.0, (1, 2): -2.0 * a, (0, 4): a * a, (0, 6): 1.0, (0, 0): 1.0}
    )
    rep = r_nondegeneracy_check(phase)
    assert not rep.passed
    (bad,) = [chk for chk in rep.checks if not chk.passed]
    assert bad.face.points == ((0, 4), (1, 2), (2, 0))
    x, y = bad.witness
    assert abs(x - a * y * y) <= 1e-3 * abs(x)


def _exact_faces_read_one_without_a_scan(phase: PolynomialPhase) -> list:
    """Check every face whose partials are single monomials; return their checks.

    A full scan of such a face reads 1 to within 4e-16, and the sampler
    reports exactly 1.0, a pass and the witness (-1, ..., -1) without
    calling _min_residual: the only calls are for the other faces.
    """
    n = phase.dimension
    calls = []

    def counted(parts, domain, spacing):
        calls.append(parts)
        return _min_residual(parts, domain, spacing)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(newton, "_min_residual", counted)
        rep = r_nondegeneracy_check(phase)
    domain, spacing = _fundamental_domain(n)
    exact = []
    for chk in rep.checks:
        parts = [partial_derivative(chk.face.polynomial(phase), i) for i in range(n)]
        if all(len(gp.terms) <= 1 for gp in parts):
            scanned, _ = _min_residual(parts, domain, spacing)
            assert abs(scanned - 1.0) <= 4e-16
            assert chk.min_residual == 1.0
            assert chk.passed
            assert chk.witness == (-1.0,) * n
            exact.append(chk)
    assert len(calls) == len(rep.checks) - len(exact)
    return exact


@pytest.mark.parametrize(
    "n, terms",
    [
        (2, {(2, 0): 1.0, (0, 8): 1.0, (0, 0): 1.0}),
        (2, {(2, 0): -3.0, (1, 2): 1.0, (0, 5): 0.5}),
        (3, {(2, 0, 0): 1.0, (0, 6, 0): 1.0, (0, 0, 6): 1.0, (0, 3, 3): 1.0}),
        (3, {(4, 0, 0): 2.0, (0, 4, 0): -1.0, (0, 0, 4): 1.0, (1, 1, 1): 1.0}),
        (2, {(4, 0): 2.0, (0, 4): -1.0, (0, 0): 1.0}),
        (3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0, (0, 0, 0): 1.0}),
        (3, {(4, 0, 0): -1.0, (0, 4, 0): 2.0, (0, 0, 6): 1.0}),
    ],
)
def test_vertex_faces_read_one_without_a_scan(n, terms):
    phase = PolynomialPhase(n, terms)
    exact = _exact_faces_read_one_without_a_scan(phase)
    assert any(len(chk.face.points) == 1 for chk in exact)
    if all(sum(1 for e in k if e) <= 1 for k in terms):
        # sum_i c_i x_i^a_i: every edge and facet is decided without a scan too
        assert len(exact) == len(newton_diagram(phase).faces)
        assert any(chk.face.dim >= 1 for chk in exact)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(2, 8), min_size=n, max_size=n),
            st.lists(
                st.floats(0.1, 10.0).flatmap(lambda c: st.sampled_from([c, -c])),
                min_size=n,
                max_size=n,
            ),
        )
    )
)
def test_power_sums_are_decided_without_a_scan(case):
    # signed sum_i c_i x_i^a_i: each face's partials are single monomials
    n, powers, coeffs = case
    axes = [tuple(a if j == i else 0 for j in range(n)) for i, a in enumerate(powers)]
    phase = PolynomialPhase(n, dict(zip(axes, coeffs)))
    exact = _exact_faces_read_one_without_a_scan(phase)
    assert len(exact) == len(newton_diagram(phase).faces)


def test_faces_with_a_two_term_partial_are_scanned():
    # x^2 + xy^2 + y^5: on the edge (2,0)-(1,2), d/dx = 2x + y^2 has two terms
    phase = PolynomialPhase(2, {(2, 0): 1.0, (1, 2): 1.0, (0, 5): 1.0, (0, 0): 1.0})
    exact = _exact_faces_read_one_without_a_scan(phase)
    assert all(chk.face.dim == 0 for chk in exact)
    rep = r_nondegeneracy_check(phase)
    (edge,) = [chk for chk in rep.checks if chk.face.points == ((1, 2), (2, 0))]
    assert edge.passed
    assert edge.min_residual == pytest.approx(0.3972, abs=1e-4)
