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
* each octave grid takes all of its taus in one batched pass.  A run of
  uniformly spaced taus (refinement fills every gap with one) is cut into
  segments of 3 <= K <= 257 taus tau_lo + k dtau, and every other tau is a
  segment of one, a direct exp.  Every mode steps a segment in two levels:
  with k = j b + i and b = ceil(sqrt K), b baby rows D_i = e^{i i dtau f},
  rotated by an exp of dtau f, and ceil(K/b) giant rows
  C_j = a e^{i (tau_lo + j b dtau) f}, rotated from an exp at tau_lo by an
  exp of b dtau f.  The streamed sums take the K sums as one matrix product
  C @ D.T, and the separable modes take tau k's phase row as C_j D_i, so a
  value rests on at most b + ceil(K/b) - 1 <= 32 rounded multiplies after
  three exps;
* separable phases (every monomial touches one variable) factorize
  e^{i tau f} across axes, reducing the tensor sum to matrix products
  against a cached amplitude table, one product per batch of taus;
* in 3D the radial amplitude is binned over r^2 = x^2 + y^2 with an in-bin
  second-order correction: three moments of each bin's node pairs (in
  powers of their offset from the bin centre) meet the amplitude, its
  first derivative and half its second, replacing the n^3 tensor by
  per-bin sums plus three (n x bins) products over the bins that hold a
  node pair.  A tau gathers the pairs' products in runs of whole bins of
  at most _BATCH_BYTES // 16 pairs, one run at a time.  The binning error
  is cubic in the bin width: at the default 2,048 bins the sum reads
  8.6e-12 and 1.5e-11 off the unbinned one on the sphere (tau_ref 20 and
  60) and 7.2e-13 on x^4+y^4+z^4 (tau_ref 37.5), orders of magnitude below
  the quadrature tolerance (see the tests).

1D and mixed-variable phases share one path: their node tensor (a single
axis in 1D) is built _DOT_TERMS nodes at a time, in C order, and each block
takes one matrix product per segment of taus, single taus included, so a
pass holds one block and one segment's phase rows whatever the node count.
Tables are float64 throughout; a grid over its budget (max_nodes for the
tensor, memory_budget_mb for the separable tables and the peak of a 3D
grid's build) raises NumericBudgetError rather than losing precision.

Every pass runs with the OpenBLAS that numpy bundles held to one thread,
and gives the caller's thread count back when it ends (_one_blas_thread).
With two threads OpenBLAS split the sep2d and sep3d matrix products and
left its worker spinning between them, so on 2 CPUs a multivar-verify pass
took about twice its wall time in CPU and no less wall time.  Values may
move in the last bit or two with the thread count.

Everything here is pure: grids are built inside one call (sample_integral,
or a refinement of a step it did not plan) and never cached across calls,
and the only state a grid changes is the batch that values() hands out
through value().
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import math
import os
import warnings
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from oscfract.phases import (
    AmplitudeSpec,
    MultiIndex,
    NumericBudgetError,
    PolynomialPhase,
    bump_profile,
    checked,
    eval_phase_array,
    gradient_norm,
)


@dataclass(frozen=True)
class QuadratureConfig:
    points_per_wavelength: int = 8
    panel_order: int = 4
    max_panels: int = 400_000  # per-axis cap
    # budgets raise NumericBudgetError; no path falls back to lower precision
    max_nodes: int = 200_000_000  # node cap of the streamed tensor, 1D included
    # a separable grid's float64 amplitude table in 2D; in 3D the peak of
    # building its node pairs binned by radius and its radial tables.  Both
    # are checked before they are built
    memory_budget_mb: int = 1400

    def __post_init__(self) -> None:
        for f in fields(self):
            checked(getattr(self, f.name), "count", f.name)
        if self.points_per_wavelength < 8:
            raise ValueError("points_per_wavelength must be >= 8")


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
    """max |grad f| over the support ball, sampled inside it and on its sphere, plus 5% headroom."""
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
        # the cube's outer faces, scaled onto the sphere, catch a maximum
        # on the boundary between the points inside the ball
        face = pts[np.abs(pts).max(axis=-1) == R]
        sphere = R * face / np.linalg.norm(face, axis=-1, keepdims=True)
        pts = np.concatenate([pts[np.sum(pts**2, axis=-1) <= R * R], sphere])
    return 1.05 * float(gradient_norm(phase, pts).max())


# panels per axis at least, so the amplitude bump is resolved even at tiny tau
_MIN_PANELS = 48
# A run of evenly spaced taus takes at most this many steps from the exps
# that seed it, so with b = 17 baby rows and 16 giant rows each of its values
# rests on at most 32 rounded multiplies.
_RESEED = 256
# r^2 bins of width R^2/_RADIAL_BINS for the 3D separable path, each
# corrected to second order within the bin; its tables hold only the bins a
# node pair falls in
_RADIAL_BINS = 2048
# Working arrays of one batch of taus stay near this size, so batching does
# not raise peak memory above what the grid tables already take.
_BATCH_BYTES = 8 * 2**20
# The node tensor is streamed in blocks of this many nodes, so a pass holds
# one block and its phase rows whatever the node count: a segment's baby,
# giant and giant-step rows, at most 34 of them, take 5.4 MB of _BATCH_BYTES.
_DOT_TERMS = 10_000
# refined taus per phase step, at most
_MAX_POINTS = 2_000_000
# phase step of the reflected graphs' refinement
REFLECTED_STEP = 0.125


def _batch_rows(bytes_per_tau: int) -> int:
    return max(1, _BATCH_BYTES // bytes_per_tau)


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS bundled with numpy, or None.

    Looked up at first use, not at import, and once per process.
    """
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with OpenBLAS on one thread, and restore the caller's count after it.

    The count is the process's, so calls from several Python threads at
    once could restore each other's; nothing here runs in threads.
    """
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, put = blas
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def _segments(taus: np.ndarray) -> list[tuple[int, int]]:
    """taus cut into segments [lo, hi): runs of 3 to _RESEED + 1 evenly spaced taus, and single taus.

    Steps equal to rounding are even, such as those of a gap that
    _refinement fills with a linspace; a run steps by its mean step.
    """
    n = taus.size
    d = np.diff(taus).tolist()
    tol = 16.0 * np.finfo(float).eps * float(np.abs(taus).max(initial=0.0))
    segments, lo = [], 0
    while lo < n:
        hi = lo + 1
        while hi < n and hi - lo <= _RESEED and abs(d[hi - 1] - d[lo]) <= tol:
            hi += 1
        segments += [(lo, hi)] if hi - lo >= 3 else [(k, k + 1) for k in range(lo, hi)]
        lo = hi
    return segments


def _exp_rows(taus, g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write exp(i taus[k] g) into out[k], with no temporary array, and return out."""
    out.real = 0.0
    np.multiply.outer(taus, g, out=out.imag)
    return np.exp(out, out=out)


def _step_rows(run: np.ndarray, g: np.ndarray, a) -> tuple[np.ndarray, np.ndarray]:
    """Giant rows C and baby rows D with a exp(i run[k] g) = C_j D_i, k = j b + i.

    run holds one tau or K >= 3 evenly spaced taus tau_lo + k dtau, dtau
    their mean step.  With b = ceil(sqrt(K)), the b baby rows
    D_i = exp(i i dtau g) rotate by an exp of dtau g, and the ceil(K/b)
    giant rows C_j = a exp(i (tau_lo + j b dtau) g) rotate from an exp at
    tau_lo by an exp of b dtau g: three exps (one for one tau), and
    b + ceil(K/b) - 1 <= 32 rounded multiplies under each product C_j D_i.
    """
    count = run.size
    b = math.isqrt(count - 1) + 1
    D = np.empty((b, g.size), dtype=complex)
    C = np.empty((-(-count // b), g.size), dtype=complex)
    D[0] = 1.0
    _exp_rows(run[:1], g, C[:1])
    C[0] *= a
    if count > 1:
        step = (run[-1] - run[0]) / (count - 1)
        _exp_rows([step], g, D[1:2])
        (giant,) = _exp_rows([b * step], g, np.empty((1, g.size), dtype=complex))
    for i in range(2, b):
        np.multiply(D[i - 1], D[1], out=D[i])
    for j in range(1, len(C)):
        np.multiply(C[j - 1], giant, out=C[j])
    return C, D


def _phase_rows(taus: np.ndarray, segments, g: np.ndarray, a, rows: int):
    """Yield (lo, hi, E) with E = a exp(i taus[lo:hi, None] g), rows taus at a time.

    Row k is C_j D_i of its segment's _step_rows.  Every block is written
    into the same buffer, across segments, so the caller must be done with
    E before it asks for the next block.
    """
    n = taus.size
    buf = np.empty((min(rows, n), g.size), dtype=complex)
    for lo, hi in segments:
        C, D = _step_rows(taus[lo:hi], g, a)
        for k in range(lo, hi):
            # blocks start at multiples of rows, so tau k sits in row k % rows
            r = k % rows
            j, i = divmod(k - lo, len(D))
            np.multiply(C[j], D[i], out=buf[r])
            if r == rows - 1 or k == n - 1:
                yield k - r, k + 1, buf[: r + 1]


def _weighted_sums(taus: np.ndarray, segments, blocks) -> np.ndarray:
    """Sum over (g, a) blocks of sum(a * exp(i tau g)), for every tau.

    Each segment of _segments takes one matrix product C @ D.T of its
    _step_rows per block, whose first K entries are its K sums; a single
    tau's is its one exp row against D_0 = 1.  A block and its rows are
    freed before the next block is built.
    """
    core = np.zeros(taus.size, dtype=complex)
    if not taus.size:  # no phase rows, and so no block, to build
        return core
    for g, a in blocks:
        a = a.astype(complex)
        for lo, hi in segments:
            C, D = _step_rows(taus[lo:hi], g, a)
            core[lo:hi] += (C @ D.T).ravel()[: hi - lo]
            del C, D  # before the next segment's rows, or the next block
        del g, a
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
        self.phase, self.amp, self.cfg = phase, amp, cfg
        self.tau_ref = float(tau_ref)
        self._batch: dict[float, complex] = {}
        self.f0 = phase.value_at_origin
        R = amp.radius
        L = gradient_bound(phase, amp) if grad_bound is None else grad_bound
        if L > 0 and tau_ref > 0:
            h_max = 2.0 * math.pi / (cfg.points_per_wavelength * tau_ref * L)
            panels = max(_MIN_PANELS, math.ceil(2.0 * R / h_max))
        else:
            panels = _MIN_PANELS
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
            # 1D and mixed-variable phases: the node tensor, streamed in blocks
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
        # phases and weights of the per-axis factors, stepped together: the
        # inner axes x (and y in 3D) and the outer axis, the last one
        self._g = np.concatenate([eval_phase_array(p, x[:, None]) for p in split])
        self._a = np.tile(w, n)
        m = x.size
        if n == 2:
            self.mode = "sep2d"
            if m * m * 8 > budget:
                raise NumericBudgetError(
                    f"amplitude table {m}x{m} exceeds memory budget "
                    f"({cfg.memory_budget_mb} MB); reduce tau or panel_order"
                )
            u2 = (x[:, None] ** 2 + x[None, :] ** 2) / R**2
            self._tables = (amp.phi0 * bump_profile(u2),)
            return
        self.mode = "sep3d"
        # the grid keeps 24 bytes per node pair in the disc (ii, jj, s_off)
        # and three radial tables of one column per occupied bin.  Its build
        # peaks at those pairs plus the larger of: up to 5 more numbers per
        # pair while the pairs are listed and sorted by bin, and up to 5
        # arrays of the tables' shape while the tables are filled.  Node i
        # pairs with the first row[i] nodes in x^2 order, so row both counts
        # the pairs for the budget and lists them: i ascending, and each i's
        # partners in x^2 order, which is index order on a mirror-folded axis
        x2 = x**2
        by_x2 = np.argsort(x2, kind="stable")
        row = np.searchsorted(x2[by_x2], R * R - x2, side="right")
        pairs = int(row.sum())
        bins = min(_RADIAL_BINS, pairs)
        peak = 24 * pairs + max(40 * pairs, 5 * m * bins * 8)
        if peak > budget:
            raise NumericBudgetError(
                f"{pairs} node pairs and radial tables 3 x ({m}, {bins}) take "
                f"{peak / 2**20:.0f} MiB to build, which exceeds memory_budget_mb "
                f"({cfg.memory_budget_mb} MB); reduce tau or panel_order"
            )
        ii = np.repeat(np.arange(m), row)
        jj = np.concatenate([by_x2[:r] for r in row])
        s = x2[ii] + x2[jj]
        nb = _RADIAL_BINS
        width = R * R / nb
        idx = np.minimum((s / width).astype(np.int64), nb - 1)
        # pairs sorted by bin: each occupied bin's sum is one reduceat segment
        order = np.argsort(idx, kind="stable")
        ii, jj = ii[order], jj[order]
        idx = idx[order]
        s_off = s[order] - (idx + 0.5) * width
        del s, order
        starts = np.flatnonzero(np.diff(idx, prepend=-1))
        centers = (idx[starts] + 0.5) * width  # occupied bins only
        del idx
        # whole bins in runs of at most _BATCH_BYTES // 16 pairs (a larger bin
        # is a run of its own), so that a tau gathers the complex products
        # of one run at a time: (ii, jj, s_off, its bins, its bin starts)
        ends = np.append(starts[1:], ii.size)
        self._runs, b0 = [], 0
        while b0 < starts.size:
            lo = starts[b0]
            b1 = max(b0 + 1, int(np.searchsorted(ends, lo + _BATCH_BYTES // 16, side="right")))
            hi = ends[b1 - 1]
            self._runs.append((ii[lo:hi], jj[lo:hi], s_off[lo:hi], slice(b0, b1), starts[b0:b1] - lo))
            b0 = b1
        del ii, jj, s_off
        r2 = (x[:, None] ** 2 + centers[None, :]) / R**2  # (nodes_z, bins)
        # at a pair radius s the amplitude is G(s) = phi0 exp(1 - q) with
        # q = 1/(1 - r2), r2 = (z^2 + s)/R^2, so G' = -G q^2/R^2 and
        # G'' = G (q^4 - 2 q^3)/R^4.  Inside the ball 1 - r2 >= 2^-53, so
        # q^4 stays finite
        G0 = amp.phi0 * bump_profile(r2)
        with np.errstate(divide="ignore"):
            q = np.where(r2 < 1.0, 1.0 / (1.0 - r2), 0.0)
        del r2
        # G2 first, and G1 negating q^2 rather than a copy of G0: the fill
        # then holds at most two temporaries of the tables' shape at a time
        G2 = G0 * (q**4 - 2.0 * q**3) / (2.0 * R**4)
        self._tables = (G0, G0 * -(q**2) / R**2, G2)

    def _iter_blocks(self):
        """Yield (f - f0, w * phi) on C-order runs of at most _DOT_TERMS tensor nodes."""
        n, x, w, R = self.phase.dimension, self._x, self._w, self.amp.radius
        total = x.size**n
        for lo in range(0, total, _DOT_TERMS):
            idx = np.unravel_index(np.arange(lo, min(total, lo + _DOT_TERMS)), (x.size,) * n)
            pts = np.stack([x[i] for i in idx], axis=-1)
            ww = functools.reduce(np.multiply, [w[i] for i in idx])
            f = eval_phase_array(self.phase, pts) - self.f0
            u2 = np.sum(pts**2, axis=-1) / R**2
            yield f, ww * self.amp.phi0 * bump_profile(u2)

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
        segments = _segments(taus)
        with _one_blas_thread():
            if self.mode in ("sep2d", "sep3d"):
                core = self._core_separable(taus, segments)
            else:
                core = _weighted_sums(taus, segments, self._iter_blocks())
        return core * np.exp(1j * taus * self.f0)

    def _core_separable(self, taus: np.ndarray, segments) -> np.ndarray:
        """Per tau, the last axis's row against the sum over tables T[last, inner] of moments @ T.T.

        The inner moments, Re over Im, are the x row in 2D, and in 3D the
        sums of pair s_off^j over each bin's node pairs, j = 0, 1, 2.
        """
        m, width = self._x.size, self._tables[0].shape[1]
        core = np.empty(taus.size, dtype=complex)
        # a phase row, and ~64 bytes per inner column: its moments and what they meet
        rows = _batch_rows(16 * self._g.size + 64 * width)
        for lo, hi, E in _phase_rows(taus, segments, self._g, self._a, rows):
            b = hi - lo
            if self.mode == "sep2d":
                moments = [np.concatenate([E[:, :m].real, E[:, :m].imag])]
            else:
                u, v = E[:, :m], E[:, m : 2 * m]
                w = np.empty((6 * b, width))
                for k in range(b):
                    for ii, jj, s_off, cols, run_starts in self._runs:
                        pair = u[k][ii] * v[k][jj]
                        for j in range(3):
                            if j:
                                pair *= s_off
                            wj = np.add.reduceat(pair, run_starts)
                            w[2 * j * b + k, cols], w[(2 * j + 1) * b + k, cols] = wj.real, wj.imag
                        del pair  # before the next run's gather
                moments = [w[2 * j * b : 2 * (j + 1) * b] for j in range(3)]
            slab = sum(W @ T.T for W, T in zip(moments, self._tables))
            core[lo:hi] = np.sum(E[:, -m:] * (slab[:b] + 1j * slab[b:]), axis=1)
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
    The largest grid comes first, so one over a budget raises before any
    work is done.
    """
    refs = [_octave_refs(taus, top) for taus in tau_sets]
    out = [np.empty(taus.shape, dtype=complex) for taus in tau_sets]
    for ref in np.unique(np.concatenate(refs))[::-1]:
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
    only on the sample taus and f(0), so I at each distinct step's new taus
    (at most _MAX_POINTS per step) is evaluated here, once, on the octave
    grids built for the samples, and kept on the result for those two to
    read.
    """
    check_window(tau_min, tau_max, count)
    steps = list(dict.fromkeys(float(step) for step in refine))
    for step in steps:
        check_step(step)
    cfg = cfg or QuadratureConfig()
    taus = np.geomspace(tau_min, tau_max, count)
    L = gradient_bound(phase, amp)
    extra = [_refinement(taus, phase, step) for step in steps]
    values, *refined = _eval_many(
        phase, amp, cfg, [taus] + [full[new] for full, new in extra], L, float(taus.max())
    )
    by_step = dict(zip(steps, refined))
    return IntegralSamples(taus, values, phase, amp, cfg, L, by_step)


def _refinement(
    taus: np.ndarray, phase: PolynomialPhase, phase_step: float
) -> tuple[np.ndarray, np.ndarray]:
    """(full, new): uniform taus inserted so that tau f(0) advances at most phase_step.

    new marks the refined taus that are not in taus.  Past _MAX_POINTS taus
    NumericBudgetError is raised.
    """
    f0 = abs(phase.value_at_origin)
    if f0 == 0.0:
        return taus, np.zeros(taus.size, dtype=bool)
    extra = np.maximum(np.ceil(np.diff(taus) / (phase_step / f0)).astype(int) - 1, 0)
    total = taus.size + int(extra.sum())
    if total > _MAX_POINTS:
        raise NumericBudgetError(
            f"winding refinement needs {total} curve points (cap {_MAX_POINTS}); "
            "narrow the tau range or raise max_step"
        )
    pieces = [np.linspace(taus[i], taus[i + 1], k + 2)[1:] for i, k in enumerate(extra)]
    full = np.concatenate([taus[:1], *pieces])
    return full, ~np.isin(full, taus)


def check_window(tau_min: float, tau_max: float, count: int) -> None:
    """Raise ValueError unless sample_integral takes this window: 0 < tau_min < tau_max < inf, count >= 2."""
    if not 0 < tau_min < tau_max < math.inf:
        raise ValueError(f"need 0 < tau_min < tau_max < inf, got [{tau_min}, {tau_max}]")
    if count < 2:
        raise ValueError(f"count must be >= 2, got {count}")


def check_step(phase_step: float) -> float:
    """phase_step, if it is a refinement step in (0, pi/8]; else ValueError."""
    if not 0 < phase_step <= math.pi / 8.0 + 1e-12:
        raise ValueError(f"max_step must be in (0, pi/8], got {phase_step}")
    return phase_step


def curve_from_samples(samples: IntegralSamples, max_step: float = math.pi / 8.0) -> CurvePolyline:
    """Polyline (Re I, Im I) with the winding resolved: steps of tau f(0) <= max_step.

    The sample grid is refined (new integral evaluations, not interpolation)
    wherever consecutive phase advance exceeds max_step (default pi/8), so
    polyline chords under-resolve the spiral by well under a percent of arc
    length.  Values at the sample taus are reused, and so are those that
    sample_integral evaluated at this step; only the other new taus are
    evaluated, on the octave grids of the samples' top tau.
    """
    check_step(max_step)
    full, new = _refinement(samples.tau, samples.phase, max_step)
    values = np.empty(full.size, dtype=complex)
    values[~new] = samples.values[np.searchsorted(samples.tau, full[~new])]
    known = samples.refined.get(float(max_step))
    if known is None:
        (known,) = _eval_many(
            samples.phase, samples.amp, samples.cfg, [full[new]],
            samples.grad_bound, float(samples.tau.max()),
        )
    values[new] = known
    return CurvePolyline(np.column_stack([values.real, values.imag]), full)


def reflected_pair(samples: IntegralSamples) -> tuple[ReflectedGraph, ReflectedGraph]:
    """Graphs (t, Re I(1/t)) and (t, Im I(1/t)): the curve at REFLECTED_STEP, reversed.

    The chirp is resolved by uniform tau steps of at most 1/(8 f(0)), i.e.
    t steps <= t^2/(8 f(0)): the oscillation e^{i tau f(0)} advances at most
    REFLECTED_STEP = 1/8 radian between points.
    """
    curve = curve_from_samples(samples, REFLECTED_STEP)
    t = 1.0 / curve.tau[::-1]
    pts = curve.points[::-1]
    return ReflectedGraph(t, pts[:, 0], "re"), ReflectedGraph(t, pts[:, 1], "im")


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
