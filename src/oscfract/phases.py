"""Polynomial phases and smooth compactly supported amplitudes.

A phase is a real polynomial f on R^n stored as a sparse map from multi-index
to coefficient, so differentiation and Newton supports are exact.  The
amplitude is the standard mollifier bump scaled to a chosen support radius R
and origin value phi(0); the asymptotic predictions depend on the amplitude
only through phi(0), so a single fixed profile keeps the content formulas
reproducible.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Mapping

import numpy as np

MultiIndex = tuple[int, ...]


class NumericBudgetError(RuntimeError):
    """A panel, node, memory or scan budget was exceeded; raise, never silently degrade."""


def checked(value, kind: str, name: str):
    """A config value of the given kind, a number as a float; nothing is coerced.

    The kinds are number (an int or float), integer, count (an integer >= 1)
    and switch (a bool); a bool is never a number.  Any other value raises
    ValueError naming the key and quoting the value as JSON.
    """
    cls, what = {
        "number": (Real, "a number"),
        "integer": (Integral, "an integer"),
        "count": (Integral, "an integer >= 1"),
        "switch": (bool, "true or false"),
    }[kind]
    ok = isinstance(value, cls) and (kind == "switch") == isinstance(value, bool)
    if not ok or (kind == "count" and value < 1):
        raise ValueError(f'"{name}" must be {what}, got {json.dumps(value, default=repr)}')
    return float(value) if kind == "number" else value


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
            if not math.isfinite(c):
                raise ValueError(f"coefficient of {k} must be finite, got {c}")
            if c != 0.0:
                clean[k] = clean.get(k, 0.0) + c
        object.__setattr__(self, "terms", {k: c for k, c in clean.items() if c != 0.0})

    @classmethod
    def from_dict(cls, data: Mapping) -> "PolynomialPhase":
        """Parse {"n": 2, "terms": [{"k": [2, 0], "c": 1.0}, ...]}.

        n and every exponent must be integers and c a number.
        """
        try:
            n = checked(data["n"], "integer", "n")
            terms = {
                tuple(checked(e, "integer", "exponent") for e in t["k"]):
                    checked(t["c"], "number", "c")
                for t in data["terms"]
            }
        except (KeyError, TypeError, ValueError) as exc:
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
        if not 0 < self.radius < math.inf:
            raise ValueError(f"support radius must be positive and finite, got {self.radius}")
        if not 0 < self.phi0 < math.inf:
            raise ValueError(f"phi(0) must be positive and finite, got {self.phi0}")

    @classmethod
    def from_dict(cls, data: Mapping, dimension: int) -> "AmplitudeSpec":
        """Parse {"radius": 1.0, "phi0": 1.0}; each must be a number and defaults to 1."""
        try:
            radius, phi0 = (checked(data.get(k, 1.0), "number", k) for k in ("radius", "phi0"))
            return cls(dimension, radius, phi0)
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


def bump_profile(u) -> np.ndarray:
    """Radial profile exp(1 - 1/(1 - u)) for u = |x/R|^2 < 1, zero for u >= 1."""
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape)
    inside = u < 1.0
    ui = u[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui))
    return out


def _dips(grid: np.ndarray, vals: np.ndarray, spacing: float) -> np.ndarray:
    """Indices of the grid's local minima, smallest value first.

    The points lie on a lattice of the given spacing.  A point is a local
    minimum when it is below each of the up to 3^n - 1 points one step
    away, ties going to the smaller index, so a plateau gives one point.  A
    point listed twice counts once.
    """
    # C-order cell numbers, with a free cell on each side; a scan grid has far
    # fewer than 2^31 cells, and int32 keeps the scan's memory peak down
    shape, cells = [], np.zeros(len(grid), dtype=np.int32)
    for col in grid.T:
        k = np.rint((col - col.min()) / spacing).astype(np.int32) + 1
        shape.append(int(k.max()) + 2)
        cells = cells * shape[-1] + k
    m = len(grid)
    # the smallest index of the points in each cell, m in an empty one
    owner = np.full(math.prod(shape), m, dtype=np.min_scalar_type(m))
    np.minimum.at(owner, cells, np.arange(m, dtype=owner.dtype))
    v = np.append(vals, np.inf)  # an empty cell beats nothing
    strides = [math.prod(shape[i + 1 :]) for i in range(len(shape))]
    dips = np.arange(m)
    # axis neighbours first: along smooth slopes they drop the most points
    for step in sorted(itertools.product((-1, 0, 1), repeat=len(shape)), key=np.count_nonzero):
        offset = sum(s * t for s, t in zip(step, strides))
        if offset:
            nb = owner[cells[dips] + offset]
            dips = dips[(v[dips] < v[nb]) | ((v[dips] == v[nb]) & (dips < nb))]
    dips = dips[owner[cells[dips]] == dips]  # the first copy of a repeated point
    return dips[np.lexsort((dips, vals[dips]))]


def scan_and_refine(func, grid: np.ndarray, spacing: float, rounds: int, admissible):
    """Smallest value of func over a grid of admissible points, refined locally.

    The grid lies on a lattice of the given spacing.  The best point of each
    of the 8 deepest local dips of the scan seeds its own refinement, so a
    zero away from the deepest dip is still refined: for `rounds` rounds,
    func is evaluated on a 5^n stencil of half-width `spacing` around each
    candidate, each candidate moves to the best admissible point of its
    stencil, and the spacing is divided by 4.  `admissible` maps an (m, n)
    array of points to a boolean mask.  Returns (smallest value, its point,
    the scan's values).
    """
    n = grid.shape[-1]
    vals = func(grid)
    cand = grid[_dips(grid, vals, spacing)[:8]]
    local = np.stack(
        np.meshgrid(*([np.linspace(-1.0, 1.0, 5)] * n), indexing="ij"), axis=-1
    ).reshape(-1, n)
    rows = np.arange(len(cand))
    for _ in range(rounds):
        pts = cand[:, None, :] + spacing * local[None, :, :]
        flat = pts.reshape(-1, n)
        cost = np.where(admissible(flat), func(flat), np.inf).reshape(len(cand), -1)
        cand = pts[rows, np.argmin(cost, axis=1)]
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
    phase: PolynomialPhase, amp: AmplitudeSpec
) -> CriticalPointReport:
    """Scan |grad f| over the annulus {delta <= |x| <= R} for a second critical point.

    Uniform grid scan followed by local subdivision refinement in each of
    the deepest dips of the scan.  The verdict compares the refined minimum
    against the annulus median: a true interior zero is driven many orders
    of magnitude below the median, while a minimum pinned to the annulus
    boundary is not.
    A degenerate origin drives |grad f| that low at the annulus's inner
    edge too, so a minimum also passes when |grad f| is smaller still at
    0.99 times its point: it then falls toward the origin.
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

    grid = 64  # points per axis of the scan
    axes = [np.linspace(-R, R, grid)] * n
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    mesh = mesh[in_annulus(mesh)]
    min_grad, point, vals = scan_and_refine(
        lambda pts: gradient_norm(phase, pts), mesh, 2.0 * R / (grid - 1), 14, in_annulus
    )
    median = float(np.median(vals))
    inward = float(gradient_norm(phase, 0.99 * point[None, :])[0])
    passed = min_grad > 1e-7 * max(median, 1e-300) or inward < min_grad
    return CriticalPointReport(passed, min_grad, tuple(float(x) for x in point), median)
