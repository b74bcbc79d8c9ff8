"""Newton polyhedron geometry: exact rational remoteness, faces, degeneracy.

Verified here:
* remoteness of x^p + y^q + 1 equals -1/p - 1/q as an exact Fraction for all
  2 <= p, q <= 8, with multiplicity 0 and distance pq/(p+q), in under 1 s;
* multiplicity 1 cases where the bisector meets a vertex or an edge
  (x^2 y^2 in 2D, x^2 y^2 + z^2 in 3D) and the boundary case x^2 + y^2;
* 3D sphere phase has beta = -3/2 (not remote) and a triangle facet;
* n = 4 takes the same inequality route as n <= 3, with an empty face list;
* c and the multiplicity equal those of the min-max program
  max_{w >= 0, sum w = 1} min_k <w, k>, kept here as an independent
  reference, exactly, over random supports with n = 2..5;
* every stored inequality is valid on the support and at the bisector point
  (property over random supports with n = 2..4);
* dominance filtering and to_dict serialization;
* the gradient sampler passes R-nondegenerate phases and flags (x - y)^2.
"""

import itertools
import time
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscfract.newton import (
    compact_faces,
    distance_and_remoteness,
    dominance_minimal,
    newton_diagram,
    newton_polyhedron,
    r_nondegeneracy_check,
    reduced_support,
)
from oscfract.phases import PolynomialPhase


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
            assert info.is_remote == (info.distance > 1)
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
    assert info.is_remote
    assert info.center_points == ((2, 2),)
    assert info.center_codim == 2


def test_boundary_case_x2_y2():
    info = newton_diagram(_phase2(2, 2))
    assert info.distance == 1
    assert info.remoteness == -1
    assert info.multiplicity == 0
    assert not info.is_remote


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
    assert not info.is_remote
    assert any(f.dim == 2 and len(f.points) == 3 for f in info.faces)


def test_remote_3d_quartic():
    phase = PolynomialPhase(
        3, {(4, 0, 0): 1.0, (0, 4, 0): 1.0, (0, 0, 4): 1.0, (0, 0, 0): 1.0}
    )
    info = newton_diagram(phase)
    assert info.distance == Fraction(4, 3)
    assert info.remoteness == Fraction(-3, 4)
    assert info.multiplicity == 0
    assert info.is_remote


def test_edge_bisector_3d_multiplicity():
    # x^2 y^2 + z^2: bisector point (1,1,1) lies on an edge, codimension 2
    phase = PolynomialPhase(3, {(2, 2, 0): 1.0, (0, 0, 2): 1.0})
    info = newton_diagram(phase)
    assert info.distance == 1
    assert info.multiplicity == 1
    assert info.center_codim == 2


def test_four_dimensional_minmax_route():
    phase = PolynomialPhase(
        4,
        {(2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1.0, (0, 0, 2, 0): 1.0, (0, 0, 0, 2): 1.0},
    )
    info = newton_diagram(phase)
    assert info.distance == Fraction(1, 2)
    assert info.remoteness == -2
    assert info.multiplicity == 0
    assert info.faces == ()
    assert info.center_points == tuple(sorted(phase.terms))
    assert info.center_codim == 1
    assert (info.distance, info.multiplicity) == _reference_game_distance(
        sorted(phase.terms), 4
    )
    with pytest.raises(ValueError):
        compact_faces(newton_polyhedron(phase.terms))


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
