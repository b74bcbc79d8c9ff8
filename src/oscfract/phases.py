"""Polynomial phases and smooth compactly supported amplitudes.

A phase is a real polynomial f on R^n stored as a sparse map from multi-index
to coefficient, so differentiation and Newton supports are exact.  The
amplitude is the standard mollifier bump scaled to a chosen support radius R
and origin value phi(0); the asymptotic predictions depend on the amplitude
only through phi(0), so a single fixed profile keeps the content formulas
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

MultiIndex = tuple[int, ...]


@dataclass(frozen=True)
class PolynomialPhase:
    """Sparse polynomial sum_k c_k x^k; terms maps multi-index to coefficient."""

    dimension: int
    terms: dict[MultiIndex, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        clean: dict[MultiIndex, float] = {}
        for k, c in self.terms.items():
            k = tuple(int(e) for e in k)
            if len(k) != self.dimension:
                raise ValueError(f"multi-index {k} has length {len(k)}, expected {self.dimension}")
            if any(e < 0 for e in k):
                raise ValueError(f"negative exponent in multi-index {k}")
            c = float(c)
            if c != 0.0:
                clean[k] = clean.get(k, 0.0) + c
        object.__setattr__(self, "terms", {k: c for k, c in clean.items() if c != 0.0})

    @classmethod
    def from_dict(cls, data: Mapping) -> "PolynomialPhase":
        """Parse {"n": 2, "terms": [{"k": [2, 0], "c": 1.0}, ...]}."""
        try:
            n = int(data["n"])
            terms = {tuple(int(e) for e in t["k"]): float(t["c"]) for t in data["terms"]}
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed phase spec: {exc}") from exc
        return cls(n, terms)

    def to_dict(self) -> dict:
        ks = sorted(self.terms)
        return {"n": self.dimension, "terms": [{"k": list(k), "c": self.terms[k]} for k in ks]}

    @property
    def value_at_origin(self) -> float:
        return self.terms.get((0,) * self.dimension, 0.0)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = "xyzw" if self.dimension <= 4 else None
        parts = []
        for k in sorted(self.terms, key=lambda k: (sum(k), k)):
            c = self.terms[k]
            mono = "*".join(
                (names[i] if names else f"x{i}") + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(k)
                if e > 0
            )
            if not mono:
                parts.append(f"{c:g}")
            elif c == 1.0:
                parts.append(mono)
            elif c == -1.0:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c:g}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


@dataclass(frozen=True)
class AmplitudeSpec:
    """Mollifier bump phi(0)*exp(1 - 1/(1 - |x/R|^2)) supported in |x| <= R."""

    dimension: int
    radius: float = 1.0
    phi0: float = 1.0

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if not self.radius > 0:
            raise ValueError(f"support radius must be positive, got {self.radius}")
        if not self.phi0 > 0:
            raise ValueError(f"phi(0) must be positive, got {self.phi0}")

    @classmethod
    def from_dict(cls, data: Mapping, dimension: int) -> "AmplitudeSpec":
        try:
            return cls(dimension, float(data.get("radius", 1.0)), float(data.get("phi0", 1.0)))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed amplitude spec: {exc}") from exc

    def to_dict(self) -> dict:
        return {"radius": self.radius, "phi0": self.phi0}


def eval_phase_array(phase: PolynomialPhase, points: np.ndarray) -> np.ndarray:
    """Vectorized evaluation on an array of shape (..., n)."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1] != phase.dimension:
        raise ValueError(f"points last axis {pts.shape[-1]} != dimension {phase.dimension}")
    out = np.zeros(pts.shape[:-1])
    for k, c in phase.terms.items():
        m = c
        for i, e in enumerate(k):
            if e:
                m = m * pts[..., i] ** e
        out += m
    return out


def partial_derivative(phase: PolynomialPhase, axis: int) -> PolynomialPhase:
    """Exact partial derivative along one axis."""
    if not 0 <= axis < phase.dimension:
        raise ValueError(f"axis {axis} out of range for dimension {phase.dimension}")
    terms: dict[MultiIndex, float] = {}
    for k, c in phase.terms.items():
        e = k[axis]
        if e == 0:
            continue
        dk = k[:axis] + (e - 1,) + k[axis + 1 :]
        terms[dk] = terms.get(dk, 0.0) + c * e
    return PolynomialPhase(phase.dimension, terms)


def gradient_norm(phase: PolynomialPhase, points: np.ndarray) -> np.ndarray:
    """|grad f| on an array of shape (..., n)."""
    g2 = np.zeros(np.shape(points)[:-1])
    for i in range(phase.dimension):
        g2 += eval_phase_array(partial_derivative(phase, i), points) ** 2
    return np.sqrt(g2)


def critical_order_1d(phase: PolynomialPhase) -> int:
    """Smallest s >= 2 with f^(s)(0) != 0, read off the monomial exponents."""
    if phase.dimension != 1:
        raise ValueError("critical_order_1d requires a one-dimensional phase")
    exps = sorted(k[0] for k in phase.terms if k[0] > 0)
    if not exps:
        raise ValueError("phase is constant; no critical order")
    if exps[0] == 1:
        raise ValueError("linear term present; origin is not a critical point")
    return exps[0]


def bump_profile(u) -> np.ndarray:
    """Radial profile exp(1 - 1/(1 - u)) for u = |x/R|^2 < 1, zero for u >= 1."""
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape)
    inside = u < 1.0
    ui = u[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui))
    return out


def eval_amplitude_array(amp: AmplitudeSpec, points: np.ndarray) -> np.ndarray:
    """Vectorized amplitude on an array of shape (..., n)."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1] != amp.dimension:
        raise ValueError(f"points last axis {pts.shape[-1]} != dimension {amp.dimension}")
    u = np.sum(pts**2, axis=-1) / amp.radius**2
    return amp.phi0 * bump_profile(u)


def scan_and_refine(func, grid: np.ndarray, spacing: float, rounds: int, admissible):
    """Smallest value of func over a grid of admissible points, refined locally.

    The 8 smallest values of the scan seed `rounds` rounds of refinement:
    func is evaluated on a 5^n stencil of half-width `spacing` around each
    candidate, the 8 best admissible points are kept, and the spacing is
    divided by 4.  `admissible` maps an (m, n) array of points to a boolean
    mask.  Returns (smallest value, its point, the scan's values).
    """
    n = grid.shape[-1]
    vals = func(grid)
    cand = grid[np.argsort(vals)[:8]]
    local = np.stack(
        np.meshgrid(*([np.linspace(-1.0, 1.0, 5)] * n), indexing="ij"), axis=-1
    ).reshape(-1, n)
    for _ in range(rounds):
        pts = (cand[:, None, :] + spacing * local[None, :, :]).reshape(-1, n)
        pts = pts[admissible(pts)]
        if pts.size == 0:
            break
        cand = pts[np.argsort(func(pts))[:8]]
        spacing /= 4.0
    best = func(cand)
    i = int(np.argmin(best))
    return float(best[i]), cand[i], vals


@dataclass(frozen=True)
class CriticalPointReport:
    """Outcome of the isolated-critical-point scan on the support annulus."""

    passed: bool
    min_gradient: float
    point: tuple[float, ...]
    median_gradient: float


def verify_isolated_critical_point(
    phase: PolynomialPhase, amp: AmplitudeSpec, grid: int = 64
) -> CriticalPointReport:
    """Scan |grad f| over the annulus {delta <= |x| <= R} for a second critical point.

    Uniform grid scan followed by local subdivision refinement around the
    smallest values.  The verdict compares the refined minimum against the
    annulus median: a true interior zero is driven many orders of magnitude
    below the median, while a minimum pinned to the annulus boundary is not.
    Sampling-based, so a fine enough zero could in principle slip through;
    the check guards test setup rather than the math core.
    """
    n = phase.dimension
    if n > 3:
        raise ValueError("isolated-critical-point scan supports n <= 3")
    if n != amp.dimension:
        raise ValueError("phase and amplitude dimensions differ")
    R = amp.radius
    delta = 1e-3 * R

    def in_annulus(pts: np.ndarray) -> np.ndarray:
        rad = np.sqrt(np.sum(pts**2, axis=-1))
        return (rad >= delta) & (rad <= R)

    axes = [np.linspace(-R, R, grid)] * n
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    mesh = mesh[in_annulus(mesh)]
    min_grad, point, vals = scan_and_refine(
        lambda pts: gradient_norm(phase, pts), mesh, 2.0 * R / (grid - 1), 14, in_annulus
    )
    median = float(np.median(vals))
    passed = min_grad > 1e-7 * max(median, 1e-300)
    return CriticalPointReport(passed, min_grad, tuple(float(x) for x in point), median)
