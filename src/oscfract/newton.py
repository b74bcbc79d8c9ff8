"""Newton polyhedron geometry of a polynomial phase at its critical point.

The polyhedron is conv(reduced support) + non-negative orthant.  Everything
that feeds exponents downstream (distance c, remoteness beta = -1/c, the
multiplicity of the face met by the bisector) is exact, in integers and
Fractions; floating point appears only in the nondegeneracy sampler.

One route serves every n: the polyhedron is described by the candidate
supporting hyperplanes spanned by support points and coordinate directions,
and c, beta, the multiplicity, the support points on the bisector face and
the compact faces are read off those inequalities.

Remoteness here is that of the supplied coordinates.  The coordinate-free
quantity is a supremum over coordinate systems with no known algorithm; the
caller must supply adapted coordinates for the predictions to be sharp.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from oscfract.phases import (
    MultiIndex,
    NumericBudgetError,
    PolynomialPhase,
    eval_phase_array,
    partial_derivative,
    scan_and_refine,
)

Inequality = tuple[tuple[int, ...], int]  # (w, ell), coprime: <w, k> >= ell on P


@dataclass(frozen=True)
class CompactFace:
    """Compact face of the polyhedron with a strictly positive supporting functional."""

    dim: int
    points: tuple[MultiIndex, ...]  # support points lying on the face
    weights: tuple[Fraction, ...]  # strictly positive, normalized to level 1
    level: Fraction

    def polynomial(self, phase: PolynomialPhase) -> PolynomialPhase:
        terms = {k: c for k, c in phase.terms.items() if k in self.points}
        return PolynomialPhase(phase.dimension, terms)


@dataclass(frozen=True)
class NewtonPolyhedron:
    dimension: int
    minimal_points: tuple[MultiIndex, ...]
    inequalities: tuple[Inequality, ...]


@dataclass(frozen=True)
class DiagramInfo:
    dimension: int
    faces: tuple[CompactFace, ...]
    distance: Fraction
    remoteness: Fraction
    multiplicity: int  # n - 1 - dim of the face met by the bisector
    center_points: tuple[MultiIndex, ...]  # support points on that face

    def to_dict(self) -> dict:
        return {
            "c": str(self.distance),
            "beta": str(self.remoteness),
            "multiplicity": self.multiplicity,
            "remote": self.distance > 1,
            "faces": [
                {
                    "dim": f.dim,
                    "points": [list(p) for p in f.points],
                    "weights": [str(w) for w in f.weights],
                    "level": str(f.level),
                }
                for f in self.faces
            ],
        }


def reduced_support(phase: PolynomialPhase) -> frozenset[MultiIndex]:
    """Support of f - f(0): all non-constant monomial exponents."""
    origin = (0,) * phase.dimension
    pts = frozenset(k for k in phase.terms if k != origin)
    if not pts:
        raise ValueError("phase is constant; reduced support is empty")
    return pts


def dominance_minimal(points: Iterable[MultiIndex]) -> tuple[MultiIndex, ...]:
    """Drop every point k with k' <= k componentwise for some other point k'."""
    pts = sorted(set(points))
    keep = []
    for k in pts:
        dominated = any(
            other != k and all(o <= e for o, e in zip(other, k)) for other in pts
        )
        if not dominated:
            keep.append(k)
    return tuple(keep)


def _normalize_inequality(w: Sequence[int], ell: int) -> Optional[Inequality]:
    if all(x == 0 for x in w):
        return None
    g = 0
    for x in w:
        g = math.gcd(g, abs(x))
    g = math.gcd(g, abs(ell))
    return tuple(x // g for x in w), ell // g


def _det(rows: Sequence[Sequence[int]]) -> int:
    """Integer determinant by cofactor expansion along the first row."""
    if not rows:
        return 1
    head, rest = rows[0], rows[1:]
    return sum(
        (-1) ** j * x * _det([r[:j] + r[j + 1 :] for r in rest])
        for j, x in enumerate(head)
        if x
    )


def _candidate_inequalities(pts: Sequence[MultiIndex], n: int) -> list[Inequality]:
    """All valid inequalities <w,k> >= ell, w >= 0, spanned by points and axes.

    Every facet of conv(pts) + orthant is spanned by k support points and
    n - k coordinate directions for some k >= 1, so the candidate set
    contains all facets; extra valid (non-facet) supporting hyperplanes are
    harmless for the quantities computed from the set.  The hyperplane
    through points a, b, ... along the axes outside `free` has w = 0 off
    `free`, and on `free` the signed (k-1)-minors of the differences b - a,
    ...: a generalised cross product, in integers.
    """
    cands: dict = {}
    for k in range(1, n + 1):
        for free in itertools.combinations(range(n), k):
            for a, *rest in itertools.combinations(pts, k):
                diffs = [tuple(b[i] - a[i] for i in free) for b in rest]
                w = [0] * n
                for j, i in enumerate(free):
                    w[i] = (-1) ** j * _det([d[:j] + d[j + 1 :] for d in diffs])
                if any(x < 0 for x in w):
                    w = [-x for x in w]
                if any(x < 0 for x in w):
                    continue
                ell = sum(wi * ai for wi, ai in zip(w, a))
                if all(sum(wi * ki for wi, ki in zip(w, p)) >= ell for p in pts):
                    norm = _normalize_inequality(w, ell)
                    if norm is not None:
                        cands[norm] = True
    return list(cands)


def newton_polyhedron(support: Iterable[MultiIndex]) -> NewtonPolyhedron:
    """Polyhedron conv(support) + orthant, as minimal points plus inequalities."""
    pts = list(support)
    if not pts:
        raise ValueError("empty support")
    n = len(pts[0])
    if any(len(k) != n for k in pts):
        raise ValueError("support points of mixed dimension")
    minimal = dominance_minimal(pts)
    ineqs = _candidate_inequalities(minimal, n)
    return NewtonPolyhedron(n, minimal, tuple(sorted(ineqs)))


def _rank(rows: list[tuple[int, ...]]) -> int:
    """Exact rank: the order of the largest nonzero minor, by _det."""
    n = len(rows[0]) if rows else 0
    for k in range(min(len(rows), n), 0, -1):
        for sub in itertools.combinations(rows, k):
            for cols in itertools.combinations(range(n), k):
                if _det([[r[j] for j in cols] for r in sub]):
                    return k
    return 0


def distance_and_remoteness(poly: NewtonPolyhedron) -> tuple[Fraction, Fraction]:
    """c = min{t : t(1,..,1) in P} and beta = -1/c, exact."""
    c = max(Fraction(ell, sum(w)) for w, ell in poly.inequalities)
    if c <= 0:
        raise ValueError("degenerate polyhedron: non-positive distance")
    return c, Fraction(-1, 1) / c


def _tight_at(poly: NewtonPolyhedron, point: Sequence[Fraction | int]) -> list[Inequality]:
    out = []
    for w, ell in poly.inequalities:
        if sum(wi * pi for wi, pi in zip(w, point)) == ell:
            out.append((w, ell))
    return out


def _points_on(poly: NewtonPolyhedron, tight: list[Inequality]) -> list[MultiIndex]:
    """Minimal points lying on every inequality of the set."""
    return [
        p
        for p in poly.minimal_points
        if all(sum(wi * pi for wi, pi in zip(w, p)) == ell for w, ell in tight)
    ]


def compact_faces(poly: NewtonPolyhedron) -> tuple[CompactFace, ...]:
    """All faces with a strictly positive supporting functional, vertices included.

    The inequalities include every facet, and each face is the intersection
    of the facets through it, so the minimal points on the faces are the
    sets tight on one inequality, closed under pairwise intersection.  Each
    set is cut out by every inequality tight on all of it; the faces whose
    tight inequalities sum to a strictly positive functional are compact.
    The same closure serves every n.
    """
    on = {iq: frozenset(_points_on(poly, [iq])) for iq in poly.inequalities}
    sets = set(on.values())
    new = sets
    while new:
        new = {a & b for a in new for b in sets} - sets - {frozenset()}
        sets |= new
    faces = []
    for s in sets:
        normals = [w for (w, _), pts in on.items() if s <= pts]
        wsum = [sum(col) for col in zip(*normals)]
        if any(x == 0 for x in wsum):
            continue  # no strictly positive supporting functional: unbounded face
        pts = tuple(sorted(s))
        level = sum(wi * pi for wi, pi in zip(wsum, pts[0]))
        weights = tuple(Fraction(w, level) for w in wsum)
        faces.append(CompactFace(poly.dimension - _rank(normals), pts, weights, Fraction(1)))
    return tuple(sorted(faces, key=lambda f: (f.dim, f.points)))


# grid points per free coordinate of each chart of the nondegeneracy scan
_CHART_SAMPLES = 48


def _fundamental_domain(n: int) -> tuple[np.ndarray, float]:
    """The charts {x_i = +-1, |x_j| <= 1 for j != i}, each on a uniform grid.

    A face polynomial is quasi-homogeneous with positive weights w, so the
    zeros of its gradient come in orbits t -> (t^w_1 x_1, ..., t^w_n x_n),
    t > 0.  Every orbit off the axes meets a chart, where
    max_i |x_i|^(1/w_i) = 1, whatever the weights.  Returns the points and
    the grid spacing, the first refinement step.
    """
    axis = np.linspace(-1.0, 1.0, _CHART_SAMPLES)
    free = np.array(list(itertools.product(axis, repeat=n - 1)))  # (1, 0) for n = 1
    charts = [np.insert(free, i, s, axis=1) for i in range(n) for s in (-1.0, 1.0)]
    return np.concatenate(charts), float(axis[1] - axis[0])


def _min_residual(
    parts: Sequence[PolynomialPhase], domain: np.ndarray, spacing: float
) -> tuple[float, np.ndarray]:
    """Smallest |grad f_gamma| / envelope over the domain, refined, and its point.

    parts are the partials of f_gamma, one per coordinate.
    """
    n = len(parts)
    envelopes = [PolynomialPhase(n, {k: abs(c) for k, c in gp.terms.items()}) for gp in parts]

    def residual(pts: np.ndarray) -> np.ndarray:
        # |grad f_gamma| over its triangle-inequality envelope: scale-free in
        # both the coefficients and the quasi-homogeneous dilations.
        num = sum(eval_phase_array(gp, pts) ** 2 for gp in parts)
        abs_pts = np.abs(pts)
        den = sum(eval_phase_array(env, abs_pts) ** 2 for env in envelopes)
        den[den == 0.0] = 1.0
        return np.sqrt(num / den)

    def off_axes(pts: np.ndarray) -> np.ndarray:
        return np.all(np.abs(pts) >= 1e-9, axis=-1)

    res, witness, _ = scan_and_refine(residual, domain, spacing, 12, off_axes)
    return res, witness


def r_nondegeneracy_check(
    phase: PolynomialPhase, faces: Optional[Sequence[CompactFace]] = None
):
    """Sample the face polynomials' gradients for common zeros off the axes.

    For each compact face gamma the partials of f_gamma are evaluated over
    the charts of _fundamental_domain, which every dilation orbit off the
    axes meets, with local refinement around the smallest normalized
    residual.  Diagnostic only: a pass means no counterexample was found.

    A face whose partials are each at most one monomial (every vertex, and
    every face of a phase sum_i c_i x_i^a_i) is decided exactly instead:
    off the axes a monomial never vanishes, and each partial equals its own
    triangle-inequality envelope in modulus, so the residual is 1 everywhere
    (a scan reads it to within an ulp).  It is recorded as exactly 1.0,
    passed, with the witness (-1, ..., -1), the first point of the domain.
    The domain is built only when some face needs the scan; for n > 4 it
    would hold 2n 48^(n-1) points (53 million at n = 5), so such a face
    raises NumericBudgetError instead, before anything is built.
    """
    n = phase.dimension
    if faces is None:
        faces = compact_faces(newton_polyhedron(reduced_support(phase)))
    domain = None
    reports = []
    for face in faces:
        parts = [partial_derivative(face.polynomial(phase), i) for i in range(n)]
        if all(len(gp.terms) <= 1 for gp in parts):
            reports.append(FaceCheck(face, True, 1.0, (-1.0,) * n))
            continue
        if domain is None:
            size = 2 * n * _CHART_SAMPLES ** (n - 1)
            if size > 8 * _CHART_SAMPLES**3:  # above the n = 4 domain, 884,736 points
                raise NumericBudgetError(
                    f"face {[list(k) for k in face.points]} needs a nondegeneracy scan"
                    f" of {size:,} points; scans are limited to n <= 4"
                )
            domain, spacing = _fundamental_domain(n)
        res, witness = _min_residual(parts, domain, spacing)
        reports.append(
            FaceCheck(face, bool(res > 1e-6), res, tuple(float(x) for x in witness))
        )
    return NondegeneracyReport(all(r.passed for r in reports), tuple(reports))


@dataclass(frozen=True)
class FaceCheck:
    face: CompactFace
    passed: bool
    min_residual: float
    witness: tuple[float, ...]


@dataclass(frozen=True)
class NondegeneracyReport:
    passed: bool
    checks: tuple[FaceCheck, ...]


def newton_diagram(phase: PolynomialPhase) -> DiagramInfo:
    """Full diagram data for a phase: faces, c, beta, multiplicity, bisector face.

    c, beta, the multiplicity and the bisector face's support points are
    exact for every n, and so is the list of compact faces; the predictions
    read beta and the multiplicity.
    """
    n = phase.dimension
    poly = newton_polyhedron(reduced_support(phase))
    c, beta = distance_and_remoteness(poly)
    center = (c,) * n
    tight = _tight_at(poly, center)
    codim = _rank([w for w, _ in tight])
    center_pts = tuple(_points_on(poly, tight))
    return DiagramInfo(n, compact_faces(poly), c, beta, codim - 1, center_pts)
