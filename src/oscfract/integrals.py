"""Oscillation-resolved quadrature for I(tau) = int e^{i tau f(x)} phi(x) dx.

Composite Gauss-Legendre over panels of width h <= 2pi/(ppw * tau * L),
L = max |grad f| over the support, so every local wavelength of the
integrand is covered by at least ppw panels.  Direct quadrature (cost
O(tau) per evaluation in 1D, O(tau^2) worth of nodes in 2D) is chosen over
Filon/Levin schemes: those are delicate exactly where this package operates,
near degenerate stationary points.

Five structural shortcuts keep desk-scale runs cheap; all but the last
change the computed sum only by rounding:

* a phase with an even exponent in every variable of every monomial is
  even in each variable, and so is the integrand, because the amplitude is
  radial.  Each axis then keeps the upper half of its mirror-symmetric
  nodes with doubled weights (a node at 0 keeps its single weight), which
  every grid mode below sees as an axis of half the length;
* a tau grid is evaluated on shared per-octave node grids (a grid built for
  the octave's top tau is valid, merely finer than required, for the rest).
  The octaves halve down from the sample window's top tau, and the refined
  taus of the curve and the reflected graphs depend only on the samples
  and f(0), so sample_integral plans them too: each octave grid is built
  once, takes every tau set in turn, and is freed before the next;
* each octave grid takes all of its taus in one batched pass.  Within a
  run of uniformly spaced taus (refinement fills every gap with one) the
  node phases advance by rotation, E_{k+1} = E_k e^{i dtau f}: one complex
  multiply per node instead of an exp.  A direct exp re-seeds the rotation
  at every run start and at least every 256 steps, which bounds the
  rounding drift to a few hundred ulps per node;
* separable phases (every monomial touches one variable) factorize
  e^{i tau f} across axes, reducing the tensor sum to matrix products
  against a cached amplitude table, one product per batch of taus;
* in 3D the radial amplitude is binned over r^2 = x^2 + y^2 with an in-bin
  linear correction, replacing the n^3 tensor by per-bin sums plus an
  (n x bins) product over the bins that hold a node pair.  The binning
  error is quadratic in the bin width and sits orders of magnitude below
  the quadrature tolerance at the tau ranges used (documented in the
  tests).

1D and mixed-variable phases share one path: their node tensor (a single
axis in 1D) is built a block of rows at a time and streamed through the
weighted sums, so it is never held whole.  Tables are float64 throughout;
a grid over its budget (max_nodes for the tensor, memory_budget_mb for the
separable tables) raises NumericBudgetError rather than losing precision.

Everything here is pure: grids are built inside one call (sample_integral,
or a refinement of a step it did not plan) and never cached across calls,
and the only state a grid changes is the batch that values() hands out
through value().
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from oscfract.phases import (
    AmplitudeSpec,
    MultiIndex,
    PolynomialPhase,
    bump_profile,
    eval_phase_array,
    gradient_norm,
)


class NumericBudgetError(RuntimeError):
    """A panel, node, or memory budget was exceeded; raise, never silently degrade."""


@dataclass(frozen=True)
class QuadratureConfig:
    points_per_wavelength: int = 8
    panel_order: int = 4
    min_panels: int = 48  # resolve the amplitude bump even at tiny tau
    max_panels: int = 400_000  # per-axis cap
    # budgets raise NumericBudgetError; no path falls back to lower precision
    max_nodes: int = 200_000_000  # node cap of the streamed tensor, 1D included
    memory_budget_mb: int = 1400  # float64 amplitude tables of the separable paths
    # r^2 bins of width R^2/radial_bins for the 3D separable path; its
    # tables hold only the bins a node pair falls in
    radial_bins: int = 16384

    def __post_init__(self) -> None:
        if self.points_per_wavelength < 8:
            raise ValueError("points_per_wavelength must be >= 8")
        budgets = ("max_panels", "max_nodes", "memory_budget_mb")
        for name in ("panel_order", "min_panels", "radial_bins", *budgets):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {v!r}")


@dataclass(frozen=True)
class IntegralSamples:
    tau: np.ndarray
    values: np.ndarray
    phase: PolynomialPhase
    amp: AmplitudeSpec
    cfg: QuadratureConfig
    # max |grad f| the grids were sized with; refinement reuses it
    grad_bound: float
    # phase step -> I at the refined taus that are not samples, for each
    # step sample_integral was asked to refine at
    refined: dict[float, np.ndarray] = field(default_factory=dict)


@dataclass(frozen=True)
class CurvePolyline:
    points: np.ndarray  # (N, 2): (Re I, Im I)
    tau: np.ndarray


@dataclass(frozen=True)
class ReflectedGraph:
    t: np.ndarray  # increasing, t = 1/tau
    x: np.ndarray
    component: str


@dataclass(frozen=True)
class FitResult:
    value: complex
    residual: float  # relative spread of the per-sample coefficient estimates
    confirmed: bool
    window: tuple[float, float]
    log_power: int


def gradient_bound(phase: PolynomialPhase, amp: AmplitudeSpec) -> float:
    """max |grad f| over the support ball, by dense sampling plus 5% headroom."""
    n = phase.dimension
    if n > 3:
        raise ValueError(f"quadrature supports n <= 3, got a phase with n = {n}")
    R = amp.radius
    per_axis = {1: 4097, 2: 301, 3: 101}[n]
    ax = np.linspace(-R, R, per_axis)
    if _mirror_symmetric(phase):
        ax = ax[per_axis // 2 :]  # |grad f| is even in each variable too
    pts = np.stack(np.meshgrid(*([ax] * n), indexing="ij"), axis=-1).reshape(-1, n)
    if n > 1:
        pts = pts[np.sum(pts**2, axis=-1) <= R * R]
    return 1.05 * float(gradient_norm(phase, pts).max())


# A rotated phase E_{k+1} = E_k e^{i dtau g} gains about one rounding error
# per step, so a direct exp re-seeds it at least this often.
_RESEED = 256
# Working arrays of one batch of taus stay near this size, so batching does
# not raise peak memory above what the grid tables already take.
_BATCH_BYTES = 8 * 2**20
# OpenBLAS runs a complex dot of at most 10^4 terms on one thread.  Longer
# dots wake its worker threads, which on 2 CPUs doubled the CPU time and
# saved no wall time (1d grid at tau 2000, 42,784 nodes: 316 against 151 us
# CPU per tau), so the weighted sums below dot slices of at most this many.
_DOT_TERMS = 10_000
# The node tensor of 1D and mixed-variable phases is built this many bytes
# of rows at a time, so it is never held whole.  Building a block peaks at
# about 72 bytes per node (tracemalloc, n = 1 to 3): the node coordinates,
# weights, phase, radius and bump temporaries, of which the block keeps 16.
_BLOCK_BYTES = 64 * 2**20
_BLOCK_NODE_BYTES = 72
# refined taus per phase step, at most (the default cap of the refinements)
_MAX_POINTS = 2_000_000
# phase step of the reflected graphs' refinement
REFLECTED_STEP = 0.125


def _batch_rows(bytes_per_tau: int) -> int:
    return max(1, _BATCH_BYTES // bytes_per_tau)


def _rotation_steps(taus: np.ndarray) -> np.ndarray:
    """Per tau, the step it is rotated by from the tau before it; NaN = direct exp.

    A run of equal steps (to rounding), such as one gap that _refined_taus
    fills with a linspace, is cut into segments of at most _RESEED steps.
    Every segment of three or more taus rotates by its mean step, so a
    rotated tau stays within a few ulps of the given one; shorter segments
    gain nothing and are computed directly.
    """
    n = taus.size
    steps = np.full(n, np.nan)
    d = np.diff(taus).tolist()
    tol = 16.0 * np.finfo(float).eps * float(np.abs(taus).max(initial=0.0))
    lo = 0
    while lo < n:
        hi = lo + 1
        while hi < n and hi - lo <= _RESEED and abs(d[hi - 1] - d[lo]) <= tol:
            hi += 1
        if hi - lo >= 3:
            steps[lo + 1 : hi] = (taus[hi - 1] - taus[lo]) / (hi - 1 - lo)
        lo = hi
    return steps


def _phase_rows(taus: np.ndarray, steps: np.ndarray, g: np.ndarray, rows: int):
    """Yield (lo, hi, E) with E = exp(i taus[lo:hi, None] g), rows taus at a time.

    Where steps[k] is set, row k is row k-1 times exp(i steps[k] g) instead of
    a fresh exp.  Every block is written into the same buffer, so the caller
    must be done with E before it asks for the next block.
    """
    n = taus.size
    taus, steps = taus.tolist(), steps.tolist()  # cheap scalar access per row
    buf = np.empty((min(rows, n), g.size), dtype=complex)
    r = None
    for lo in range(0, n, rows):
        hi = min(n, lo + rows)
        for k in range(lo, hi):
            # blocks start at multiples of rows, so tau k sits in row k % rows
            row = buf[k % rows]
            if math.isnan(steps[k]):
                np.exp(1j * taus[k] * g, out=row)
            else:
                if math.isnan(steps[k - 1]):
                    r = np.exp(1j * steps[k] * g)
                np.multiply(buf[(k - 1) % rows], r, out=row)
        yield lo, hi, buf[: hi - lo]


def _weighted_sums(taus: np.ndarray, steps: np.ndarray, blocks) -> np.ndarray:
    """Sum over (g, a) blocks of sum(a * exp(i tau g)), for every tau.

    Each block is cut into slices of at most _DOT_TERMS nodes, and each
    slice takes one dot per tau.  A matrix-vector product over a batch of
    taus woke BLAS's worker threads too, whose spin-wait added about 15%
    CPU time to a fold-verify pass.
    """
    core = np.zeros(taus.size, dtype=complex)
    for g, a in blocks:
        for s in range(0, g.size, _DOT_TERMS):
            gs, a_s = g[s : s + _DOT_TERMS], a[s : s + _DOT_TERMS].astype(complex)
            for lo, hi, E in _phase_rows(taus, steps, gs, _batch_rows(16 * gs.size)):
                for k in range(hi - lo):
                    core[lo + k] += E[k] @ a_s
    return core


def _axis_nodes(R: float, panels: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    xi, wi = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(-R, R, panels + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    x = (centers[:, None] + half * xi[None, :]).ravel()
    w = np.tile(half * wi, panels)
    return x, w


def _mirror_symmetric(phase: PolynomialPhase) -> bool:
    """True if every monomial has an even exponent in every variable."""
    return all(e % 2 == 0 for k in phase.terms for e in k)


def _separable_split(phase: PolynomialPhase) -> Optional[list[PolynomialPhase]]:
    """One 1-D phase per axis, without constants, if no monomial mixes variables."""
    n = phase.dimension
    out: list[dict[MultiIndex, float]] = [dict() for _ in range(n)]
    for k, c in phase.terms.items():
        live = [i for i, e in enumerate(k) if e > 0]
        if len(live) > 1:
            return None
        if live:
            out[live[0]][(k[live[0]],)] = c
    return [PolynomialPhase(1, terms) for terms in out]


class _QuadGrid:
    """Quadrature grid for one phase/amplitude pair, valid for all |tau| <= tau_ref."""

    def __init__(
        self,
        phase: PolynomialPhase,
        amp: AmplitudeSpec,
        cfg: QuadratureConfig,
        tau_ref: float,
        grad_bound: Optional[float] = None,
    ) -> None:
        n = phase.dimension
        if n != amp.dimension:
            raise ValueError("phase and amplitude dimensions differ")
        if n > 3:
            raise ValueError("quadrature supports n <= 3")
        self.phase, self.amp, self.cfg = phase, amp, cfg
        self.tau_ref = float(tau_ref)
        self._batch: dict[float, complex] = {}
        self.f0 = phase.value_at_origin
        R = amp.radius
        L = gradient_bound(phase, amp) if grad_bound is None else grad_bound
        if L > 0 and tau_ref > 0:
            h_max = 2.0 * math.pi / (cfg.points_per_wavelength * tau_ref * L)
            panels = max(cfg.min_panels, math.ceil(2.0 * R / h_max))
        else:
            panels = cfg.min_panels
        if panels > cfg.max_panels:
            raise NumericBudgetError(
                f"needs {panels} panels/axis at tau={tau_ref:g} "
                f"(cap {cfg.max_panels}); reduce tau or raise max_panels"
            )
        self.panels = panels
        x, w = _axis_nodes(R, panels, cfg.panel_order)
        if _mirror_symmetric(phase):
            m = x.size
            x, w = x[m // 2 :], 2.0 * w[m // 2 :]
            if m % 2:
                w[0] *= 0.5  # the middle node is its own mirror image
        self.nodes_per_axis = x.size
        self._x, self._w = x, w
        split = _separable_split(phase) if n > 1 else None
        if split is None:
            # 1D and mixed-variable phases: the node tensor, streamed in row blocks
            total = x.size**n
            if total > cfg.max_nodes:
                raise NumericBudgetError(
                    f"{n}D node tensor has {total:.3g} nodes (cap {cfg.max_nodes:.3g}); "
                    "reduce tau or raise max_nodes"
                )
            if n == 3:
                warnings.warn(
                    "non-separable 3D quadrature: cost grows as tau^3",
                    RuntimeWarning,
                    stacklevel=3,
                )
            self.mode = "1d" if n == 1 else f"gen{n}d"
            return
        budget = cfg.memory_budget_mb * 2**20
        # phases of the per-axis factors (u, v and, in 3D, wz), rotated together
        self._g = np.concatenate([eval_phase_array(p, x[:, None]) for p in split])
        m = x.size
        if n == 2:
            self.mode = "sep2d"
            if m * m * 8 > budget:
                raise NumericBudgetError(
                    f"amplitude table {m}x{m} exceeds memory budget "
                    f"({cfg.memory_budget_mb} MB); reduce tau or panel_order"
                )
            u2 = (x[:, None] ** 2 + x[None, :] ** 2) / R**2
            self._table = amp.phi0 * bump_profile(u2)
            return
        self.mode = "sep3d"
        s = x[:, None] ** 2 + x[None, :] ** 2
        keep = s <= R * R
        ii, jj = np.nonzero(keep)
        s_flat = s[keep]
        nb = cfg.radial_bins
        width = R * R / nb
        idx = np.minimum((s_flat / width).astype(np.int64), nb - 1)
        # pairs sorted by bin: each occupied bin's sum is one reduceat segment
        order = np.argsort(idx, kind="stable")
        self._ii, self._jj = ii[order], jj[order]
        idx = idx[order]
        self._s_off = s_flat[order] - (idx + 0.5) * width
        self._bin_starts = np.flatnonzero(np.diff(idx, prepend=-1))
        if 2 * m * self._bin_starts.size * 8 > budget:
            raise NumericBudgetError(
                f"radial tables ({m}, {self._bin_starts.size}) exceed memory budget "
                f"({cfg.memory_budget_mb} MB); reduce tau or radial_bins"
            )
        centers = (idx[self._bin_starts] + 0.5) * width  # occupied bins only
        r2 = (x[:, None] ** 2 + centers[None, :]) / R**2  # (nodes_z, bins)
        self._G0 = amp.phi0 * bump_profile(r2)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            d = np.where(r2 < 1.0, -1.0 / (1.0 - r2) ** 2 / R**2, 0.0)
        self._G1 = self._G0 * d

    def _iter_blocks(self):
        """Yield (f - f0, w * phi) over the node tensor, _BLOCK_BYTES of rows at a time."""
        n, x = self.phase.dimension, self._x
        rows = max(1, _BLOCK_BYTES // (_BLOCK_NODE_BYTES * x.size ** (n - 1)))
        for lo in range(0, x.size, rows):
            yield self._block(lo, lo + rows)

    def _block(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """(f - f0, w * phi) on the tensor rows lo:hi; its temporaries die on return."""
        n, x, w, R = self.phase.dimension, self._x, self._w, self.amp.radius
        axes = [x[lo:hi]] + [x] * (n - 1)
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        ww = functools.reduce(np.multiply.outer, [w[lo:hi]] + [w] * (n - 1))
        f = eval_phase_array(self.phase, pts) - self.f0
        u2 = np.sum(pts**2, axis=-1) / R**2
        return f.ravel(), (ww * self.amp.phi0 * bump_profile(u2)).ravel()

    def value(self, tau: float) -> complex:
        """I(tau), from the batch values() is handing out, else as a batch of one."""
        v = self._batch.get(float(tau))
        return complex(self._evaluate(np.array([tau], dtype=float))[0]) if v is None else v

    def values(self, taus: np.ndarray) -> np.ndarray:
        """I at every tau in the 1D array taus, from one batched pass over the grid.

        Each result is handed out through value(), one call per tau, so
        every evaluation passes through one method where it can be counted
        (the benchmark's self-tests count evaluations there).
        """
        taus = np.asarray(taus, dtype=float).tolist()
        self._batch = dict(zip(taus, self._evaluate(np.array(taus)).tolist()))
        out = np.array([self.value(t) for t in taus], dtype=complex)
        self._batch = {}
        return out

    def _evaluate(self, taus: np.ndarray) -> np.ndarray:
        taus = np.asarray(taus, dtype=float)
        worst = float(np.abs(taus).max(initial=0.0))
        if worst > self.tau_ref * (1.0 + 1e-9):
            raise ValueError(f"grid built for |tau| <= {self.tau_ref}, got {worst}")
        steps = _rotation_steps(taus)
        if self.mode == "sep2d":
            core = self._core_sep2d(taus, steps)
        elif self.mode == "sep3d":
            core = self._core_sep3d(taus, steps)
        else:
            core = _weighted_sums(taus, steps, self._iter_blocks())
        return core * np.exp(1j * taus * self.f0)

    def _core_sep2d(self, taus: np.ndarray, steps: np.ndarray) -> np.ndarray:
        m, wx, tbl = self._x.size, self._w, self._table
        core = np.empty(taus.size, dtype=complex)
        # phase row, u, v, stacked real parts, product, tv: ~8 complex per node
        rows = _batch_rows(128 * m)
        for lo, hi, E in _phase_rows(taus, steps, self._g, rows):
            b = hi - lo
            u, v = E[:, :m] * wx, E[:, m:] * wx
            tv = np.concatenate([v.real, v.imag]) @ tbl.T
            core[lo:hi] = np.sum(u * (tv[:b] + 1j * tv[b:]), axis=1)
        return core

    def _core_sep3d(self, taus: np.ndarray, steps: np.ndarray) -> np.ndarray:
        m, wx = self._x.size, self._w
        starts, G0, G1 = self._bin_starts, self._G0, self._G1
        core = np.empty(taus.size, dtype=complex)
        # four real rows of bin sums and the per-node rows: ~48 bytes per bin and node
        rows = _batch_rows(48 * starts.size + 48 * m)
        for lo, hi, E in _phase_rows(taus, steps, self._g, rows):
            b = hi - lo
            u, v = E[:, :m] * wx, E[:, m : 2 * m] * wx
            w = np.empty((4 * b, starts.size))  # rows: Re w0, Im w0, Re w1, Im w1
            for k in range(b):
                pair = u[k][self._ii] * v[k][self._jj]
                w0 = np.add.reduceat(pair, starts)
                w1 = np.add.reduceat(pair * self._s_off, starts)
                w[k], w[b + k] = w0.real, w0.imag
                w[2 * b + k], w[3 * b + k] = w1.real, w1.imag
            slab = w[: 2 * b] @ G0.T + w[2 * b :] @ G1.T
            wz = E[:, 2 * m :] * wx
            core[lo:hi] = np.sum(wz * (slab[:b] + 1j * slab[b:]), axis=1)
        return core


def eval_integral(
    phase: PolynomialPhase,
    amp: AmplitudeSpec,
    tau: float,
    cfg: Optional[QuadratureConfig] = None,
) -> complex:
    """I(tau) by composite Gauss-Legendre resolved against the local wavelength."""
    cfg = cfg or QuadratureConfig()
    return _QuadGrid(phase, amp, cfg, abs(tau)).value(tau)


def _eval_many(
    phase: PolynomialPhase,
    amp: AmplitudeSpec,
    cfg: QuadratureConfig,
    tau_sets: list[np.ndarray],
    grad_bound: float,
    top: float,
) -> list[np.ndarray]:
    """I at every tau of each set, on the octave grids of |tau| below top.

    Each octave grid is built once and takes each set's taus on it as one
    batched pass, set after set; it is freed before the next one is built.
    """
    refs = [_octave_refs(taus, top) for taus in tau_sets]
    out = [np.empty(taus.shape, dtype=complex) for taus in tau_sets]
    for ref in np.unique(np.concatenate(refs)):
        grid = _QuadGrid(phase, amp, cfg, float(ref), grad_bound)
        for taus, set_refs, values in zip(tau_sets, refs, out):
            sel = set_refs == ref
            if sel.any():
                values[sel] = grid.values(taus[sel])
        del grid
    return out


def _octave_refs(taus: np.ndarray, top: float) -> np.ndarray:
    """Per tau, the tau_ref of its shared grid: top/2^k, the smallest >= |tau|."""
    mags = np.abs(taus)
    if top == 0.0:
        return np.zeros_like(mags)
    with np.errstate(divide="ignore"):
        g = np.floor(np.log2(np.where(mags > 0, top / np.maximum(mags, 1e-300), 1.0)))
    g = np.clip(g, 0, 60)
    g[mags == 0.0] = 60
    return top / 2.0**g


def sample_integral(
    phase: PolynomialPhase,
    amp: AmplitudeSpec,
    tau_min: float,
    tau_max: float,
    count: int,
    cfg: Optional[QuadratureConfig] = None,
    refine: tuple[float, ...] = (),
) -> IntegralSamples:
    """I(tau) on a geometric grid tau_min * r^i, r = (tau_max/tau_min)^(1/(count-1)).

    refine lists the phase steps that curve_from_samples (its max_step) and
    reflected_pair (REFLECTED_STEP) will refine at.  Refined taus depend
    only on the sample taus and f(0), so I at each step's new taus (at most
    _MAX_POINTS per step) is evaluated here, on the octave grids built for
    the samples, and kept on the result for those two to read.
    """
    if not 0 < tau_min < tau_max < math.inf:
        raise ValueError(f"need 0 < tau_min < tau_max < inf, got [{tau_min}, {tau_max}]")
    if count < 2:
        raise ValueError(f"count must be >= 2, got {count}")
    for step in refine:
        _check_step(step)
    cfg = cfg or QuadratureConfig()
    taus = np.geomspace(tau_min, tau_max, count)
    L = gradient_bound(phase, amp)
    extra = [_refinement(taus, phase, step, _MAX_POINTS) for step in refine]
    values, *refined = _eval_many(
        phase, amp, cfg, [taus] + [full[new] for full, new in extra], L, float(taus.max())
    )
    by_step = {float(step): v for step, v in zip(refine, refined)}
    return IntegralSamples(taus, values, phase, amp, cfg, L, by_step)


def _refined_taus(taus: np.ndarray, max_step: float, cap: int) -> np.ndarray:
    """Insert uniform tau points so consecutive gaps stay below max_step."""
    if not np.isfinite(max_step) or max_step <= 0:
        return taus
    gaps = np.diff(taus)
    extra = np.ceil(gaps / max_step).astype(int) - 1
    extra = np.maximum(extra, 0)
    total = taus.size + int(extra.sum())
    if total > cap:
        raise NumericBudgetError(
            f"winding refinement needs {total} curve points (cap {cap}); "
            "raise the cap or narrow the tau range"
        )
    if extra.sum() == 0:
        return taus
    pieces = [taus[:1]]
    for i, k in enumerate(extra):
        seg = np.linspace(taus[i], taus[i + 1], k + 2)[1:]
        pieces.append(seg)
    return np.concatenate(pieces)


def _refinement(
    taus: np.ndarray, phase: PolynomialPhase, phase_step: float, max_points: int
) -> tuple[np.ndarray, np.ndarray]:
    """(full, new): taus refined so that tau f(0) advances at most phase_step.

    new marks the refined taus that are not in taus.
    """
    f0 = abs(phase.value_at_origin)
    full = _refined_taus(taus, phase_step / f0, max_points) if f0 > 0 else taus
    return full, ~np.isin(full, taus)


def _check_step(phase_step: float) -> None:
    if not 0 < phase_step <= math.pi / 8.0 + 1e-12:
        raise ValueError(f"max_step must be in (0, pi/8], got {phase_step}")


def curve_from_samples(
    samples: IntegralSamples,
    max_step: float = math.pi / 8.0,
    max_points: int = _MAX_POINTS,
) -> CurvePolyline:
    """Polyline (Re I, Im I) with the winding resolved: steps of tau f(0) <= max_step.

    The sample grid is refined (new integral evaluations, not interpolation)
    wherever consecutive phase advance exceeds max_step (default pi/8), so
    polyline chords under-resolve the spiral by well under a percent of arc
    length.
    """
    _check_step(max_step)
    full, values = _refined_eval(samples, max_step, max_points)
    pts = np.column_stack([values.real, values.imag])
    return CurvePolyline(pts, full)


def reflected_pair(
    samples: IntegralSamples, max_points: int = _MAX_POINTS
) -> tuple[ReflectedGraph, ReflectedGraph]:
    """Graphs (t, Re I(1/t)) and (t, Im I(1/t)) from one refinement pass.

    The chirp is resolved by uniform tau steps of at most 1/(8 f(0)), i.e.
    t steps <= t^2/(8 f(0)): the oscillation e^{i tau f(0)} advances at most
    REFLECTED_STEP = 1/8 radian between points.
    """
    full, values = _refined_eval(samples, REFLECTED_STEP, max_points)
    t = 1.0 / full[::-1]
    return (
        ReflectedGraph(t, values.real[::-1], "re"),
        ReflectedGraph(t, values.imag[::-1], "im"),
    )


def _refined_eval(
    samples: IntegralSamples, phase_step: float, max_points: int
) -> tuple[np.ndarray, np.ndarray]:
    """Taus refined so that tau f(0) advances at most phase_step, and I on them.

    Values at the sample taus are reused, and so are those sample_integral
    evaluated at this phase step; only the other new taus are evaluated, on
    the octave grids of the samples' top tau.
    """
    full, new = _refinement(samples.tau, samples.phase, phase_step, max_points)
    values = np.empty(full.size, dtype=complex)
    values[~new] = samples.values[np.searchsorted(samples.tau, full[~new])]
    known = samples.refined.get(float(phase_step))
    if known is None:
        (known,) = _eval_many(
            samples.phase, samples.amp, samples.cfg, [full[new]],
            samples.grad_bound, float(samples.tau.max()),
        )
    values[new] = known
    return full, values


def leading_term_fit(
    samples: IntegralSamples,
    f0: float,
    beta: float,
    k: int = 0,
    correction_exponent: Optional[float] = None,
) -> FitResult:
    """Estimate a in I(tau) ~ e^{i tau f0} a tau^beta (log tau)^k over the top decade.

    The per-sample estimates z_i = I(tau_i) e^{-i tau_i f0} tau_i^{-beta}
    (log tau_i)^{-k} are averaged; residual is their relative spread.  A wrong
    beta leaves a power-law drift in z and inflates the residual, which is the
    misfit signal (confirmed = residual <= 0.04).  With
    correction_exponent = delta, a two-term complex least squares
    a tau^beta + b tau^{beta+delta} absorbs the first subleading term; the
    residual is still reported from the one-term spread.
    """
    taus = samples.tau
    span = taus.max() / taus.min()
    if span < 10.0 * (1.0 - 1e-12):
        raise ValueError(f"samples span {span:.3g}x; need at least one decade")
    sel = taus >= taus.max() / 10.0
    t = taus[sel]
    beta = float(beta)
    z = samples.values[sel] * np.exp(-1j * t * f0) * t ** (-beta)
    if k:
        z = z / np.log(t) ** k
    mean = complex(np.mean(z))
    residual = float(np.sqrt(np.mean(np.abs(z - mean) ** 2)) / abs(mean))
    value = mean
    if correction_exponent is not None:
        basis = np.column_stack([np.ones_like(t), t ** float(correction_exponent)])
        coef, *_ = np.linalg.lstsq(basis, z, rcond=None)
        value = complex(coef[0])
    return FitResult(
        value, residual, residual <= 0.04, (float(t.min()), float(t.max())), k
    )
