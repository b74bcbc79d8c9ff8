"""Newton polyhedron geometry of a polynomial phase at its critical point.

The polyhedron is conv(reduced support) + non-negative orthant.  Everything
that feeds exponents downstream (distance c, remoteness beta = -1/c, the
multiplicity of the face met by the bisector) is computed in exact rational
arithmetic; floating point appears only in the nondegeneracy sampler.

One route serves every n: the polyhedron is described by the candidate
supporting hyperplanes spanned by support points and coordinate directions,
and c, beta, the multiplicity and the support points on the bisector face
are read off those inequalities.  Only the enumeration of compact faces is
limited to n <= 3; for n > 3 the face list is empty.

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
    PolynomialPhase,
    eval_phase_array,
    partial_derivative,
    scan_and_refine,
)

Inequality = tuple[tuple[Fraction, ...], Fraction]  # (w, ell): <w, k> >= ell on P


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
    multiplicity: int
    is_remote: bool
    center_points: tuple[MultiIndex, ...]  # support points on the face met by the bisector
    center_codim: int

    def to_dict(self) -> dict:
        return {
            "c": str(self.distance),
            "beta": str(self.remoteness),
            "multiplicity": self.multiplicity,
            "remote": self.is_remote,
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
    return tuple(Fraction(x, g) for x in w), Fraction(ell, g)


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


def _rank(rows: list[tuple[Fraction, ...]]) -> int:
    """Exact rank over the rationals by Gaussian elimination."""
    mat = [list(r) for r in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col] / pv
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def distance_and_remoteness(poly: NewtonPolyhedron) -> tuple[Fraction, Fraction]:
    """c = min{t : t(1,..,1) in P} and beta = -1/c, exact."""
    c = max(ell / sum(w) for w, ell in poly.inequalities)
    if c <= 0:
        raise ValueError("degenerate polyhedron: non-positive distance")
    return c, Fraction(-1, 1) / c


def _tight_at(poly: NewtonPolyhedron, point: Sequence[Fraction]) -> list[Inequality]:
    out = []
    for w, ell in poly.inequalities:
        if sum(wi * pi for wi, pi in zip(w, point)) == ell:
            out.append((w, ell))
    return out


def _vertices(poly: NewtonPolyhedron) -> list[MultiIndex]:
    out = []
    for p in poly.minimal_points:
        tight = _tight_at(poly, tuple(Fraction(e) for e in p))
        if _rank([w for w, _ in tight]) == poly.dimension:
            out.append(p)
    return out


def _face_from_tight_set(
    poly: NewtonPolyhedron, tight: list[Inequality]
) -> Optional[CompactFace]:
    """Build the compact face cut out by a set of tight inequalities, if compact."""
    n = poly.dimension
    wsum = [Fraction(0)] * n
    for w, _ in tight:
        wsum = [a + b for a, b in zip(wsum, w)]
    if any(x == 0 for x in wsum):
        return None  # no strictly positive supporting functional: unbounded face
    codim = _rank([w for w, _ in tight])
    pts = [
        p
        for p in poly.minimal_points
        if all(sum(wi * pi for wi, pi in zip(w, p)) == ell for w, ell in tight)
    ]
    if not pts:
        return None
    level = sum(wi * pi for wi, pi in zip(wsum, pts[0]))
    weights = tuple(w / level for w in wsum)
    return CompactFace(n - codim, tuple(sorted(pts)), weights, Fraction(1))


def compact_faces(poly: NewtonPolyhedron) -> tuple[CompactFace, ...]:
    """All faces with a strictly positive supporting functional, vertices included.

    Vertices, edges and (in 3D) facets make up every face for n <= 3; higher
    dimensions would need the faces of dimension 2 to n - 2 as well.
    """
    n = poly.dimension
    if n > 3:
        raise ValueError("compact face enumeration supports n <= 3")
    verts = _vertices(poly)
    faces: dict[tuple, CompactFace] = {}

    def record(face: Optional[CompactFace]) -> None:
        if face is not None:
            faces.setdefault((face.dim, face.points), face)

    for v in verts:
        record(_face_from_tight_set(poly, _tight_at(poly, tuple(Fraction(e) for e in v))))
    for a, b in itertools.combinations(verts, 2):
        ta = _tight_at(poly, tuple(Fraction(e) for e in a))
        tb = set(_tight_at(poly, tuple(Fraction(e) for e in b)))
        common = [iq for iq in ta if iq in tb]
        if common and _rank([w for w, _ in common]) == n - 1:
            record(_face_from_tight_set(poly, common))
    if n == 3:
        for w, ell in poly.inequalities:
            if all(x > 0 for x in w):
                pts = [
                    p
                    for p in poly.minimal_points
                    if sum(wi * pi for wi, pi in zip(w, p)) == ell
                ]
                if len(pts) >= 3:
                    record(_face_from_tight_set(poly, [(w, ell)]))
    return tuple(sorted(faces.values(), key=lambda f: (f.dim, f.points)))


def r_nondegeneracy_check(
    phase: PolynomialPhase,
    faces: Optional[Sequence[CompactFace]] = None,
    samples: int = 24,
):
    """Sample the face polynomials' gradients for common zeros off the axes.

    For each compact face gamma the partials of f_gamma are evaluated over a
    fundamental domain (each |x_i| in [1/2, 2], all sign patterns), with local
    refinement around the smallest normalized residual.  Diagnostic only: a
    pass means no counterexample was found at this resolution.
    """
    n = phase.dimension
    if n > 3:
        raise ValueError("nondegeneracy sampling supports n <= 3")
    if faces is None:
        faces = compact_faces(newton_polyhedron(reduced_support(phase)))
    reports = []
    mags = np.geomspace(0.5, 2.0, samples)
    grids = []
    for signs in itertools.product((-1.0, 1.0), repeat=n):
        axes = [s * mags for s in signs]
        grids.append(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n))
    domain = np.concatenate(grids, axis=0)

    def off_axes(pts: np.ndarray) -> np.ndarray:
        return np.all(np.abs(pts) >= 1e-9, axis=-1)

    for face in faces:
        fg = face.polynomial(phase)
        parts = [partial_derivative(fg, i) for i in range(n)]
        envelopes = [
            PolynomialPhase(n, {k: abs(c) for k, c in gp.terms.items()}) for gp in parts
        ]

        def residual(pts: np.ndarray) -> np.ndarray:
            # |grad f_gamma| over its triangle-inequality envelope: scale-free in
            # both the coefficients and the quasi-homogeneous dilations.
            num = sum(eval_phase_array(gp, pts) ** 2 for gp in parts)
            abs_pts = np.abs(pts)
            den = sum(eval_phase_array(env, abs_pts) ** 2 for env in envelopes)
            den[den == 0.0] = 1.0
            return np.sqrt(num / den)

        res, witness, _ = scan_and_refine(
            residual, domain, float(mags[1] - mags[0]), 12, off_axes
        )
        reports.append(
            FaceCheck(face, bool(res > 1e-6), res, tuple(float(x) for x in witness))
        )
    return NondegeneracyReport(all(r.passed for r in reports), tuple(reports), samples)


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
    samples: int


def newton_diagram(phase: PolynomialPhase) -> DiagramInfo:
    """Full diagram data for a phase: faces, c, beta, multiplicity, bisector face.

    For n > 3 the face list is empty; c, beta, the multiplicity and the
    bisector face's support points are exact for every n, and they are all
    that the n > 2 prediction route consumes.
    """
    n = phase.dimension
    poly = newton_polyhedron(reduced_support(phase))
    c, beta = distance_and_remoteness(poly)
    center = (c,) * n
    tight = _tight_at(poly, center)
    codim = _rank([w for w, _ in tight])
    center_pts = tuple(
        p
        for p in poly.minimal_points
        if all(sum(wi * pi for wi, pi in zip(w, p)) == ell for w, ell in tight)
    )
    faces = compact_faces(poly) if n <= 3 else ()
    return DiagramInfo(n, faces, c, beta, codim - 1, c > 1, center_pts, codim)
