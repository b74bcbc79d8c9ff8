"""Oscillation-resolved quadrature for I(tau) = int e^{i tau f(x)} phi(x) dx.

Composite Gauss-Legendre over panels of width h <= 2pi/(ppw * tau * L),
L = max |grad f| over the support, so every local wavelength of the
integrand is covered by at least ppw panels.  Direct quadrature (cost
O(tau) per evaluation in 1D, O(tau^2) worth of nodes in 2D) is chosen over
Filon/Levin schemes: those are delicate exactly where this package operates,
near degenerate stationary points.

Three structural shortcuts keep desk-scale runs cheap without changing the
computed sum:

* a tau grid is evaluated on shared per-octave node grids (a grid built for
  the octave's top tau is valid, merely finer than required, for the rest);
* separable phases (every monomial touches one variable) factorize
  e^{i tau f} across axes, reducing the tensor sum to matrix-vector
  products against a cached amplitude table;
* in 3D the radial amplitude is binned over r^2 = x^2 + y^2 with an in-bin
  linear correction, replacing the n^3 tensor by bincounts plus an
  (n x bins) product.  The binning error is quadratic in the bin width and
  sits orders of magnitude below the quadrature tolerance at the tau
  ranges used (documented in the tests).

Everything here is pure: grids are built per call chain and never mutated.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from oscfract.phases import (
    AmplitudeSpec,
    PolynomialPhase,
    bump_profile,
    eval_phase_array,
    partial_derivative,
)


class NumericBudgetError(RuntimeError):
    """A panel, node, or memory budget was exceeded; raise, never silently degrade."""


@dataclass(frozen=True)
class QuadratureConfig:
    points_per_wavelength: int = 8
    panel_order: int = 4
    min_panels: int = 48  # resolve the amplitude bump even at tiny tau
    max_panels: int = 400_000  # per-axis cap
    max_nodes: int = 200_000_000  # total node cap for non-separable tensor paths
    memory_budget_mb: int = 1400  # cached amplitude tables in separable paths
    radial_bins: int = 16384  # r^2 bins for the 3D separable path

    def __post_init__(self) -> None:
        if self.points_per_wavelength < 8:
            raise ValueError("points_per_wavelength must be >= 8")
        if self.panel_order < 1:
            raise ValueError("panel_order must be >= 1")


@dataclass(frozen=True)
class IntegralSamples:
    tau: np.ndarray
    values: np.ndarray
    phase: PolynomialPhase
    amp: AmplitudeSpec
    cfg: QuadratureConfig


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
    R = amp.radius
    per_axis = {1: 4097, 2: 301, 3: 101}[n]
    ax = np.linspace(-R, R, per_axis)
    pts = np.stack(np.meshgrid(*([ax] * n), indexing="ij"), axis=-1).reshape(-1, n)
    if n > 1:
        pts = pts[np.sum(pts**2, axis=-1) <= R * R]
    g2 = np.zeros(len(pts))
    for i in range(n):
        g2 += eval_phase_array(partial_derivative(phase, i), pts) ** 2
    return 1.05 * float(np.sqrt(g2.max()))


def _axis_nodes(R: float, panels: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    xi, wi = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(-R, R, panels + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    x = (centers[:, None] + half * xi[None, :]).ravel()
    w = np.tile(half * wi, panels)
    return x, w


def _separable_split(phase: PolynomialPhase) -> Optional[list[dict[int, float]]]:
    """Per-axis exponent->coefficient maps if no monomial mixes variables."""
    n = phase.dimension
    out: list[dict[int, float]] = [dict() for _ in range(n)]
    for k, c in phase.terms.items():
        live = [i for i, e in enumerate(k) if e > 0]
        if len(live) > 1:
            return None
        if live:
            i = live[0]
            out[i][k[i]] = out[i].get(k[i], 0.0) + c
    return out


def _eval_axis_poly(poly: dict[int, float], x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    for e, c in poly.items():
        out += c * x**e
    return out


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
        self.nodes_per_axis = x.size
        budget = cfg.memory_budget_mb * 2**20

        split = _separable_split(phase)
        if n == 1:
            f = eval_phase_array(phase, x[:, None]) - self.f0
            a = w * amp.phi0 * bump_profile((x / R) ** 2)
            self.mode = "1d"
            self._f, self._wphi = f, a
        elif split is not None and n == 2:
            self.mode = "sep2d"
            self._x, self._wx = x, w
            self._gx = _eval_axis_poly(split[0], x)
            self._hy = _eval_axis_poly(split[1], x)
            m = x.size
            need64 = m * m * 8
            if need64 <= budget:
                dtype = np.float64
            elif m * m * 4 <= budget:
                dtype = np.float32
            else:
                raise NumericBudgetError(
                    f"amplitude table {m}x{m} exceeds memory budget "
                    f"({cfg.memory_budget_mb} MB); reduce tau or panel_order"
                )
            u2 = (x[:, None] ** 2 + x[None, :] ** 2) / R**2
            self._table = (amp.phi0 * bump_profile(u2)).astype(dtype)
        elif split is not None and n == 3:
            self.mode = "sep3d"
            self._x, self._wx = x, w
            self._gx = _eval_axis_poly(split[0], x)
            self._hy = _eval_axis_poly(split[1], x)
            self._lz = _eval_axis_poly(split[2], x)
            s = x[:, None] ** 2 + x[None, :] ** 2
            keep = s <= R * R
            ii, jj = np.nonzero(keep)
            self._ii, self._jj = ii.astype(np.int32), jj.astype(np.int32)
            s_flat = s[keep]
            nb = cfg.radial_bins
            width = R * R / nb
            idx = np.minimum((s_flat / width).astype(np.int64), nb - 1)
            self._bin_idx = idx
            centers = (np.arange(nb) + 0.5) * width
            self._s_off = s_flat - centers[idx]
            zz2 = x**2
            r2 = (zz2[:, None] + centers[None, :]) / R**2  # (nodes_z, nb)
            G0 = amp.phi0 * bump_profile(r2)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                d = np.where(r2 < 1.0, -1.0 / (1.0 - r2) ** 2 / R**2, 0.0)
            G1 = G0 * d
            need64 = 2 * G0.size * 8
            if need64 <= budget:
                self._G0, self._G1 = G0, G1
            elif need64 // 2 <= budget:
                self._G0 = G0.astype(np.float32)
                self._G1 = G1.astype(np.float32)
            else:
                raise NumericBudgetError(
                    f"radial tables {G0.shape} exceed memory budget "
                    f"({cfg.memory_budget_mb} MB); reduce tau or radial_bins"
                )
            self._nb = nb
        else:
            # Non-separable tensor path, streamed in row blocks.
            total = x.size**n
            if total > cfg.max_nodes:
                raise NumericBudgetError(
                    f"non-separable {n}D tensor has {total:.3g} nodes "
                    f"(cap {cfg.max_nodes:.3g}); phase mixes variables, so tau "
                    "this large is out of budget"
                )
            if n == 3:
                warnings.warn(
                    "non-separable 3D quadrature: cost grows as tau^3",
                    RuntimeWarning,
                    stacklevel=3,
                )
            self.mode = f"gen{n}d"
            self._x, self._w = x, w
            self._blocks = None
            block_bytes = 64 * 2**20
            rows = max(1, int(block_bytes / (16 * x.size ** (n - 1))))
            self._rows = rows
            if total * 16 <= budget:
                self._blocks = list(self._iter_blocks())

    def _iter_blocks(self):
        """Yield (row range, f-values - f0, w*phi) for the non-separable path."""
        n = self.phase.dimension
        x, w, R = self._x, self._w, self.amp.radius
        m = x.size
        for lo in range(0, m, self._rows):
            hi = min(m, lo + self._rows)
            if n == 2:
                gx, gy = np.meshgrid(x[lo:hi], x, indexing="ij")
                pts = np.stack([gx, gy], axis=-1)
                ww = w[lo:hi, None] * w[None, :]
            else:
                gx, gy, gz = np.meshgrid(x[lo:hi], x, x, indexing="ij")
                pts = np.stack([gx, gy, gz], axis=-1)
                ww = w[lo:hi, None, None] * w[None, :, None] * w[None, None, :]
            f = eval_phase_array(self.phase, pts) - self.f0
            u2 = np.sum(pts**2, axis=-1) / R**2
            yield f, ww * self.amp.phi0 * bump_profile(u2)

    def value(self, tau: float) -> complex:
        if abs(tau) > self.tau_ref * (1.0 + 1e-9):
            raise ValueError(f"grid built for |tau| <= {self.tau_ref}, got {tau}")
        if self.mode == "1d":
            core = complex(np.sum(self._wphi * np.exp(1j * tau * self._f)))
        elif self.mode == "sep2d":
            u = self._wx * np.exp(1j * tau * self._gx)
            v = self._wx * np.exp(1j * tau * self._hy)
            tbl = self._table
            dt = tbl.dtype.type
            tv = tbl @ v.real.astype(dt) + 1j * (tbl @ v.imag.astype(dt))
            core = complex(u @ tv)
        elif self.mode == "sep3d":
            u = self._wx * np.exp(1j * tau * self._gx)
            v = self._wx * np.exp(1j * tau * self._hy)
            pair = u[self._ii] * v[self._jj]
            nb = self._nb
            w0 = np.bincount(self._bin_idx, pair.real, nb) + 1j * np.bincount(
                self._bin_idx, pair.imag, nb
            )
            po = pair * self._s_off
            w1 = np.bincount(self._bin_idx, po.real, nb) + 1j * np.bincount(
                self._bin_idx, po.imag, nb
            )
            dt = self._G0.dtype.type
            slab = (
                self._G0 @ w0.real.astype(dt)
                + 1j * (self._G0 @ w0.imag.astype(dt))
                + self._G1 @ w1.real.astype(dt)
                + 1j * (self._G1 @ w1.imag.astype(dt))
            )
            wz = self._wx * np.exp(1j * tau * self._lz)
            core = complex(wz @ slab)
        else:
            acc = 0.0 + 0.0j
            blocks = self._blocks if self._blocks is not None else self._iter_blocks()
            for f, a in blocks:
                acc += np.sum(a * np.exp(1j * tau * f))
            core = complex(acc)
        return core * complex(np.exp(1j * tau * self.f0))


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
    taus: np.ndarray,
) -> np.ndarray:
    """Evaluate I at many tau, sharing one grid per octave of |tau|."""
    taus = np.asarray(taus, dtype=float)
    out = np.empty(taus.shape, dtype=complex)
    mags = np.abs(taus)
    top = float(mags.max(initial=0.0))
    L = gradient_bound(phase, amp)
    if top == 0.0:
        grid = _QuadGrid(phase, amp, cfg, 0.0, L)
        for i, t in enumerate(taus):
            out[i] = grid.value(t)
        return out
    with np.errstate(divide="ignore"):
        g = np.floor(np.log2(np.where(mags > 0, top / np.maximum(mags, 1e-300), 1.0)))
    g = np.clip(g, 0, 60).astype(int)
    g[mags == 0.0] = 60
    for gi in np.unique(g):
        sel = g == gi
        ref = top / 2.0**gi
        grid = _QuadGrid(phase, amp, cfg, ref, L)
        idx = np.nonzero(sel)[0]
        for i in idx:
            out[i] = grid.value(taus[i])
    return out


def sample_integral(
    phase: PolynomialPhase,
    amp: AmplitudeSpec,
    tau_min: float,
    tau_max: float,
    count: int,
    cfg: Optional[QuadratureConfig] = None,
) -> IntegralSamples:
    """I(tau) on a geometric grid tau_min * r^i, r = (tau_max/tau_min)^(1/(count-1))."""
    if not 0 < tau_min < tau_max:
        raise ValueError(f"need 0 < tau_min < tau_max, got [{tau_min}, {tau_max}]")
    if count < 2:
        raise ValueError(f"count must be >= 2, got {count}")
    cfg = cfg or QuadratureConfig()
    taus = np.geomspace(tau_min, tau_max, count)
    values = _eval_many(phase, amp, cfg, taus)
    return IntegralSamples(taus, values, phase, amp, cfg)


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


def curve_from_samples(
    samples: IntegralSamples,
    max_step: float = math.pi / 8.0,
    max_points: int = 2_000_000,
) -> CurvePolyline:
    """Polyline (Re I, Im I) with the winding resolved: steps of tau f(0) <= max_step.

    The sample grid is refined (new integral evaluations, not interpolation)
    wherever consecutive phase advance exceeds max_step (default pi/8), so
    polyline chords under-resolve the spiral by well under a percent of arc
    length.
    """
    if not 0 < max_step <= math.pi / 8.0 + 1e-12:
        raise ValueError(f"max_step must be in (0, pi/8], got {max_step}")
    f0 = abs(samples.phase.value_at_origin)
    taus = samples.tau
    if f0 > 0:
        full = _refined_taus(taus, max_step / f0, max_points)
    else:
        full = taus
    values = _merge_eval(samples, full)
    pts = np.column_stack([values.real, values.imag])
    return CurvePolyline(pts, full)


def reflected_graph(
    samples: IntegralSamples, component: str = "re", max_points: int = 2_000_000
) -> ReflectedGraph:
    """Graph (t, Re/Im I(1/t)) with the chirp resolved: t steps <= t^2/(8 f(0)).

    Equivalently uniform tau steps of 1/(8 f(0)): the oscillation e^{i tau f(0)}
    advances at most 1/8 radian between points.
    """
    if component not in ("re", "im"):
        raise ValueError(f"component must be 're' or 'im', got {component!r}")
    f0 = abs(samples.phase.value_at_origin)
    taus = samples.tau
    if f0 > 0:
        full = _refined_taus(taus, 1.0 / (8.0 * f0), max_points)
    else:
        full = taus
    values = _merge_eval(samples, full)
    x = values.real if component == "re" else values.imag
    t = 1.0 / full[::-1]
    return ReflectedGraph(t, x[::-1], component)


def reflected_pair(
    samples: IntegralSamples, max_points: int = 2_000_000
) -> tuple[ReflectedGraph, ReflectedGraph]:
    """Both reflected graphs (Re and Im) from a single refinement pass."""
    f0 = abs(samples.phase.value_at_origin)
    taus = samples.tau
    if f0 > 0:
        full = _refined_taus(taus, 1.0 / (8.0 * f0), max_points)
    else:
        full = taus
    values = _merge_eval(samples, full)
    t = 1.0 / full[::-1]
    return (
        ReflectedGraph(t, values.real[::-1], "re"),
        ReflectedGraph(t, values.imag[::-1], "im"),
    )


def _merge_eval(samples: IntegralSamples, full: np.ndarray) -> np.ndarray:
    """Values on a refined grid, reusing the already-computed samples."""
    known = {float(t): v for t, v in zip(samples.tau, samples.values)}
    missing = np.array([t for t in full if float(t) not in known], dtype=float)
    if missing.size:
        vals = _eval_many(samples.phase, samples.amp, samples.cfg, missing)
        known.update({float(t): v for t, v in zip(missing, vals)})
    return np.array([known[float(t)] for t in full], dtype=complex)


def leading_term_fit(
    samples: IntegralSamples,
    f0: float,
    beta: float,
    k: int = 0,
    threshold: float = 0.04,
    correction_exponent: Optional[float] = None,
) -> FitResult:
    """Estimate a in I(tau) ~ e^{i tau f0} a tau^beta (log tau)^k over the top decade.

    The per-sample estimates z_i = I(tau_i) e^{-i tau_i f0} tau_i^{-beta}
    (log tau_i)^{-k} are averaged; residual is their relative spread.  A wrong
    beta leaves a power-law drift in z and inflates the residual, which is the
    misfit signal (confirmed = residual <= threshold).  With
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
        value, residual, residual <= threshold, (float(t.min()), float(t.max())), k
    )
