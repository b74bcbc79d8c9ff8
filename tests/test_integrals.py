"""Oscillatory quadrature: independent oracles, structural shortcuts, budgets.

Verified here:
* I(tau) for x^2 + 1 matches an independent scipy.integrate.quad evaluation
  of the real and imaginary parts at moderate tau;
* stationary-phase limits: I(tau) e^{-i tau} sqrt(tau) -> sqrt(pi) e^{i pi/4}
  for x^2 + 1 and the cubic analogue sqrt(3) Gamma(4/3) for x^3 + 1;
* the separable 2D/3D fast paths agree with the streamed tensor path on
  rotation-equivalent phases ((x+y)^2 is 2u^2 in rotated coordinates and the
  bump amplitude is rotation invariant);
* the 3D radial binning is insensitive to the bin count and the panel order,
  and at the default bin count its second-order in-bin correction matches
  the unbinned node sum to 1e-10 on the sphere and on x^4+y^4+z^4+1;
* phases even in every variable are summed over one orthant of mirrored
  nodes with doubled weights, and that sum matches the full [-R, R]^n
  composite sum to 1e-13 in the 1d, sep2d, sep3d and gen2d modes, with a
  node at 0 when the node count is odd; phases odd in some variable keep
  every node, and the 3D radial tables hold one column per occupied bin;
* per-octave shared grids reproduce single-tau evaluations, and the
  batched pass over refined taus, stepped by baby and giant rows, matches
  per-tau evaluation on the same octave grid to 1e-12 in every grid mode,
  across several segments;
* sample_integral evaluates the refined taus of the steps it is asked to
  plan on the sample grids, building each octave grid once and evaluating
  a step listed twice once, and the curve and reflected graphs read them
  back bit for bit equal to a standalone refinement, which still serves
  any step that was not planned;
* winding refinement: phase advance per step bounded, original samples
  reused exactly, t-grid of the reflected graphs increasing with both
  components extracted from one pass;
* 1D and mixed-variable phases share the streamed node tensor: in blocks
  of seven nodes it concatenates to the node tensor built on the whole
  meshgrid, and its sums agree with the default blocks' to 1e-13, in the
  1d, gen2d and gen3d modes; building one default block peaks below 1 MB,
  and a 3-tau pass over 2.56M nodes below 2 MB, since each block and its
  phase rows are freed before the next block is built;
* the streamed sums match the direct sum exp(i tau g) @ a to 1e-13 of
  sum |a| on 1d and gen2d grids in blocks of 97 nodes, and a sep2d or
  sep3d grid's batched values, in batches of 7 taus, match its one-tau
  values to 1e-13 of I(0) = sum w phi, for tau sets of evenly spaced runs
  of 1 to 257 taus of either sign, tau = 0 and lone taus between runs
  (hypothesis), single taus summed as segments of one; a 257-tau run over
  16 default blocks is one segment and peaks below _BATCH_BYTES, one block
  and 1 MiB; a lone tau costs one exp row and no step or giant exp in
  every mode;
* a sep3d grid's runs hold exactly the node pairs with x_i^2 + x_j^2 <= R^2,
  each bin whole in one run, on the mirror-folded sphere and on the
  unfolded x^3+y^2+z^2+1 (R 0.7), and the pair count that a refused
  memory budget names is the count a large enough budget builds;
* a sep3d grid cut into runs of whole bins (of 3 or 1,000 pairs at most)
  sums bit for bit as the one default run does, on the sphere and on
  x^4+y^4+z^4+1; a 3-tau pass over 506,432 pairs in runs of 4,096 takes
  less than three complex arrays of a run and 1 MiB above the grid's held
  memory, and in their one default run less than two and 1 MiB, with the
  values of the runs of 4,096 bit for bit;
* every grid core (sep2d, sep3d, the streamed sums) runs with numpy's
  OpenBLAS on one thread, and the caller's count (set to 2 first) is back
  when values() returns or a core raises; with no OpenBLAS found the values
  match to 1e-14.  Where numpy's BLAS is not OpenBLAS the thread tests skip;
* values() of an empty tau array is an empty complex array in every grid
  mode (1d, sep2d, sep3d, gen2d, gen3d);
* gradient_bound samples the support sphere as well as the ball, so it
  reaches 1.05 times a maximum of |grad f| that lies on the sphere between
  the grid points inside the ball;
* every budget (panels, nodes, memory, refinement points) raises
  NumericBudgetError instead of degrading: separable tables stay float64,
  and a table that would fit the budget only at float32 raises; the
  tightest memory budget a sep3d grid passes bounds its build's traced
  peak, whether the tables' fill, the pairs' sort or a full axis sets it; a phase
  with n > 3 is refused with a ValueError that names the n <= 3 limit, and
  an infinite tau window with a ValueError;
* leading_term_fit recovers synthetic coefficients, flags a wrong exponent,
  handles log factors, and the two-term correction removes subleading bias.
"""

import functools
import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from oscfract import integrals
from oscfract.integrals import (
    REFLECTED_STEP,
    IntegralSamples,
    NumericBudgetError,
    QuadratureConfig,
    curve_from_samples,
    _RESEED,
    _octave_refs,
    _QuadGrid,
    eval_integral,
    gradient_bound,
    leading_term_fit,
    reflected_pair,
    sample_integral,
)
from oscfract.phases import AmplitudeSpec, PolynomialPhase, bump_profile, eval_phase_array

X2 = PolynomialPhase(1, {(2,): 1.0, (0,): 1.0})
X3 = PolynomialPhase(1, {(3,): 1.0, (0,): 1.0})
A1 = AmplitudeSpec(1)


def _bump(x: float) -> float:
    """The amplitude A1 in closed form: exp(1 - 1/(1 - x^2)) on |x| < 1."""
    return math.exp(1.0 - 1.0 / (1.0 - x * x)) if x * x < 1.0 else 0.0


def test_matches_scipy_quad_1d():
    tau = 50.0
    got = eval_integral(X2, A1, tau)
    f = lambda x: tau * (x * x + 1.0)

    def part(trig):
        val, err = quad(
            lambda x: trig(f(x)) * _bump(x),
            -1.0,
            1.0,
            limit=800,
            epsabs=1e-12,
            epsrel=1e-12,
        )
        assert err < 1e-9
        return val

    want = complex(part(math.cos), part(math.sin))
    assert abs(got - want) <= 1e-7 * abs(want)


def test_stationary_phase_limit_order_two():
    tau = 2000.0
    val = eval_integral(X2, A1, tau) * np.exp(-1j * tau) * math.sqrt(tau)
    want = math.sqrt(math.pi) * np.exp(1j * math.pi / 4)
    assert abs(val - want) <= 5e-3 * abs(want)


def test_stationary_phase_limit_order_three():
    # int e^{i x^3} dx = sqrt(3) Gamma(4/3), real: the odd phase cancels args
    tau = 2000.0
    val = eval_integral(X3, A1, tau) * np.exp(-1j * tau) * tau ** (1.0 / 3.0)
    want = math.sqrt(3.0) * math.gamma(4.0 / 3.0)
    assert abs(val - want) <= 2e-2 * want
    assert abs(val.imag) <= 2e-2 * want


def test_separable_2d_matches_tensor_path():
    # (x+y)^2 + 1 = 2u^2 + 1 after rotation; the bump is rotation invariant
    mixed = PolynomialPhase(2, {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0, (0, 0): 1.0})
    rotated = PolynomialPhase(2, {(2, 0): 2.0, (0, 0): 1.0})
    amp = AmplitudeSpec(2)
    for tau in (5.0, 20.0):
        a = eval_integral(mixed, amp, tau)
        b = eval_integral(rotated, amp, tau)
        assert abs(a - b) <= 1e-6 * abs(b)


def test_separable_3d_matches_tensor_path():
    mixed = PolynomialPhase(
        3, {(2, 0, 0): 1.0, (1, 1, 0): 2.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0, (0, 0, 0): 1.0}
    )
    rotated = PolynomialPhase(3, {(2, 0, 0): 2.0, (0, 0, 2): 1.0, (0, 0, 0): 1.0})
    amp = AmplitudeSpec(3)
    with pytest.warns(RuntimeWarning, match="non-separable 3D"):
        a = eval_integral(mixed, amp, 5.0)
    b = eval_integral(rotated, amp, 5.0)
    assert abs(a - b) <= 1e-6 * abs(b)


def test_radial_binning_insensitive(monkeypatch):
    sphere = PolynomialPhase(
        3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0, (0, 0, 0): 1.0}
    )
    amp = AmplitudeSpec(3)
    coarse = eval_integral(sphere, amp, 30.0, QuadratureConfig(panel_order=2))
    with monkeypatch.context() as patch:
        patch.setattr(integrals, "_RADIAL_BINS", 65536)
        fine_bins = eval_integral(sphere, amp, 30.0, QuadratureConfig(panel_order=2))
    fine_order = eval_integral(sphere, amp, 30.0, QuadratureConfig(panel_order=4))
    assert abs(coarse - fine_bins) <= 1e-8 * abs(coarse)
    assert abs(coarse - fine_order) <= 1e-6 * abs(coarse)


def _unbinned_sep3d_sums(grid, taus):
    """A sep3d grid's folded node sum term by term, streamed over z: no binning."""
    x, w, R = grid._x, grid._w, grid.amp.radius
    s = x[:, None] ** 2 + x[None, :] ** 2
    ii, jj = np.nonzero(s <= R * R)  # the amplitude vanishes on the other pairs
    s, wxy = s[ii, jj], w[ii] * w[jj] * grid.amp.phi0
    zeros = np.zeros(ii.size)
    fxy = eval_phase_array(grid.phase, np.column_stack([x[ii], x[jj], zeros]))
    fz = eval_phase_array(grid.phase, np.column_stack([0 * x, 0 * x, x])) - grid.f0
    exy = np.exp(1j * np.outer(taus, fxy))
    ez = np.exp(1j * np.outer(taus, fz)) * w
    out = np.zeros(taus.size, dtype=complex)
    for lo in range(0, x.size, 16):
        z2 = x[lo : lo + 16, None] ** 2
        a = wxy * bump_profile((z2 + s) / R**2)  # (z rows, pairs)
        out += np.sum(ez[:, lo : lo + 16] * (exy @ a.T), axis=1)
    return out


@pytest.mark.parametrize(
    "terms, tau_ref",
    [
        ({(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0, (0, 0, 0): 1.0}, 20.0),
        ({(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0, (0, 0, 0): 1.0}, 60.0),
        ({(4, 0, 0): 1.0, (0, 4, 0): 1.0, (0, 0, 4): 1.0, (0, 0, 0): 1.0}, 37.5),
    ],
    ids=["sphere-20", "sphere-60", "quartic-37.5"],
)
def test_default_radial_bins_match_unbinned_sum(monkeypatch, terms, tau_ref):
    # the in-bin error is cubic in the bin width: at the default bins the
    # binned sum reads 7e-13 to 1.5e-11 off the unbinned one (first order at
    # 16,384 bins read 6e-10 to 7e-9)
    phase, amp = PolynomialPhase(3, terms), AmplitudeSpec(3)
    taus = np.linspace(tau_ref / 2, tau_ref, 7)
    grid = _QuadGrid(phase, amp, QuadratureConfig(panel_order=2), tau_ref)
    assert grid.mode == "sep3d"
    want = _unbinned_sep3d_sums(grid, taus)
    if tau_ref == 20.0:
        # the reference is what 2^40 bins give, bin offsets of 1e-12 R^2
        with monkeypatch.context() as patch:
            patch.setattr(integrals, "_RADIAL_BINS", 2**40)
            fine = _QuadGrid(phase, amp, QuadratureConfig(panel_order=2), tau_ref).values(taus)
        assert np.max(np.abs(fine - want) / np.abs(want)) <= 1e-13
    got = grid.values(taus)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-10


def _full_grid_sums(phase, amp, panels, order, taus):
    """Composite Gauss-Legendre over the whole [-R, R]^n tensor, term by term."""
    n, R = phase.dimension, amp.radius
    xi, wi = np.polynomial.legendre.leggauss(order)
    h = 2.0 * R / panels
    x = ((np.arange(panels) + 0.5)[:, None] * h - R + 0.5 * h * xi).ravel()
    w = np.tile(0.5 * h * wi, panels)
    pts = np.stack(np.meshgrid(*([x] * n), indexing="ij"), axis=-1).reshape(-1, n)
    ws = np.stack(np.meshgrid(*([w] * n), indexing="ij"), axis=-1).reshape(-1, n)
    a = np.prod(ws, axis=-1) * amp.phi0 * bump_profile(np.sum(pts**2, axis=-1) / R**2)
    f = eval_phase_array(phase, pts)
    return np.array([np.sum(a * np.exp(1j * t * f)) for t in taus])


_P = PolynomialPhase
# (mode, phase, whether it is even in every variable)
_FOLD_CASES = [
    ("1d", X2, True),
    ("1d", X3, False),  # the cusp
    ("sep2d", _P(2, {(2, 0): 1.0, (0, 4): 1.0, (0, 0): 1.0}), True),
    ("sep2d", _P(2, {(2, 0): 1.0, (0, 3): 1.0, (0, 0): 1.0}), False),  # odd in y
    ("sep3d", _P(3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0, (0, 0, 0): 1.0}), True),
    ("sep3d", _P(3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 3): 1.0, (0, 0, 0): 1.0}), False),
    ("gen2d", _P(2, {(2, 2): 1.0, (2, 0): 1.0, (0, 4): 1.0, (0, 0): 1.0}), True),
    ("gen2d", _P(2, {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0, (0, 0): 1.0}), False),
]


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from(_FOLD_CASES),
    order=st.integers(2, 4),
    min_panels=st.integers(4, 12),
    radius=st.sampled_from([0.6, 1.0]),
    tau=st.floats(0.5, 5.0),
)
# panel order 3 on 9 panels: an odd node count, with one node at 0
@example(case=_FOLD_CASES[0], order=3, min_panels=9, radius=1.0, tau=0.5)
@example(case=_FOLD_CASES[2], order=3, min_panels=9, radius=1.0, tau=0.5)
@example(case=_FOLD_CASES[4], order=3, min_panels=9, radius=1.0, tau=0.5)
@example(case=_FOLD_CASES[6], order=3, min_panels=9, radius=1.0, tau=0.5)
def test_folded_sums_match_full_grid(case, order, min_panels, radius, tau):
    mode, phase, even = case
    amp = AmplitudeSpec(phase.dimension, radius=radius)
    # with 2^40 bins every pair radius sits within 1e-12 R^2 of its bin
    # centre, so the binned 3D sum equals the tensor sum to rounding
    cfg = QuadratureConfig(panel_order=order)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(integrals, "_RADIAL_BINS", 2**40)
        patch.setattr(integrals, "_MIN_PANELS", min_panels)
        grid = _QuadGrid(phase, amp, cfg, tau)
    assert grid.mode == mode
    m = grid.panels * order
    assert grid.nodes_per_axis == ((m + 1) // 2 if even else m)
    if mode == "sep3d":
        occupied = sum(run_starts.size for *_, run_starts in grid._runs)
        assert grid._tables[0].shape == (grid.nodes_per_axis, occupied)
    taus = np.array([-tau, 0.5 * tau, tau])
    want = _full_grid_sums(phase, amp, grid.panels, order, taus)
    got = grid.values(taus)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13


def test_octave_grids_match_single_evaluations():
    samples = sample_integral(X2, A1, 20.0, 2000.0, 10)
    assert samples.tau[0] == 20.0 and samples.tau[-1] == 2000.0
    for t, v in zip(samples.tau, samples.values):
        direct = eval_integral(X2, A1, float(t))
        assert abs(v - direct) <= 1e-8 * abs(direct)


def test_sample_grid_validation():
    with pytest.raises(ValueError):
        sample_integral(X2, A1, 100.0, 10.0, 5)
    with pytest.raises(ValueError):
        sample_integral(X2, A1, 0.0, 10.0, 5)
    with pytest.raises(ValueError):
        sample_integral(X2, A1, 1.0, 10.0, 1)
    with pytest.raises(ValueError):
        sample_integral(X2, A1, 1.0, math.inf, 5)


def test_curve_refinement_bounds_phase_advance():
    samples = sample_integral(X2, A1, 10.0, 200.0, 12)
    curve = curve_from_samples(samples, max_step=math.pi / 8.0)
    steps = np.diff(curve.tau)  # f(0) = 1, so tau steps are phase steps
    assert steps.max() <= math.pi / 8.0 * (1.0 + 1e-9)
    assert curve.points.shape == (len(curve.tau), 2)
    # original samples are reused bit-for-bit, not re-evaluated
    idx = np.searchsorted(curve.tau, samples.tau)
    assert np.array_equal(curve.tau[idx], samples.tau)
    assert np.array_equal(
        curve.points[idx, 0] + 1j * curve.points[idx, 1], samples.values
    )


def test_curve_max_step_validation():
    samples = sample_integral(X2, A1, 10.0, 20.0, 4)
    with pytest.raises(ValueError):
        curve_from_samples(samples, max_step=math.pi / 4.0)
    with pytest.raises(ValueError):
        curve_from_samples(samples, max_step=0.0)


def test_refined_values_match_direct_evaluation():
    samples = sample_integral(X2, A1, 10.0, 40.0, 3)
    curve = curve_from_samples(samples)
    new = [i for i, t in enumerate(curve.tau) if t not in set(samples.tau)]
    i = new[len(new) // 2]
    direct = eval_integral(X2, A1, float(curve.tau[i]))
    got = complex(curve.points[i, 0], curve.points[i, 1])
    assert abs(got - direct) <= 1e-7 * abs(direct)

    # every refined point, batched and stepped by baby and giant rows,
    # against a per-tau evaluation on the same octave grid (an octave of the
    # samples' top tau), in each grid mode
    sphere = PolynomialPhase(
        3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0, (0, 0, 0): 1.0}
    )
    mixed = PolynomialPhase(2, {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0, (0, 0): 1.0})
    cases = [
        # one gap refined in steps of pi/64: its top octave is a single
        # uniform run several segments long
        ("1d", X2, A1, (10.0, 60.0, 2), math.pi / 64.0, None),
        ("sep2d", PolynomialPhase(2, {(2, 0): 1.0, (0, 4): 1.0, (0, 0): 1.0}),
         AmplitudeSpec(2, radius=0.6), (5.0, 20.0, 3), math.pi / 8.0, None),
        ("sep3d", sphere, AmplitudeSpec(3), (3.0, 12.0, 3), math.pi / 8.0,
         QuadratureConfig(panel_order=2)),
        ("gen2d", mixed, AmplitudeSpec(2), (5.0, 15.0, 3), math.pi / 8.0, None),
    ]
    for mode, phase, amp, (lo, hi, count), step, cfg in cases:
        samples = sample_integral(phase, amp, lo, hi, count, cfg)
        curve = curve_from_samples(samples, max_step=step)
        new = ~np.isin(curve.tau, samples.tau)
        taus = curve.tau[new]
        got = curve.points[new, 0] + 1j * curve.points[new, 1]
        refs = _octave_refs(taus, top=samples.tau.max())
        if mode == "1d":
            assert np.sum(refs == refs.max()) > 2 * _RESEED
        for ref in np.unique(refs):
            grid = _QuadGrid(phase, amp, samples.cfg, ref, samples.grad_bound)
            assert grid.mode == mode
            sel = refs == ref
            direct = np.array([grid.value(t) for t in taus[sel]])
            assert np.max(np.abs(got[sel] - direct) / np.abs(direct)) <= 1e-12, mode


def test_planned_refinement_matches_standalone_refinement(monkeypatch):
    # sample_integral evaluates the curve's and the graphs' refined taus on
    # the sample grids, one batch per tau set, so the values are those a
    # standalone refinement computes on the same octave grids, bit for bit
    plain = sample_integral(X2, A1, 10.0, 80.0, 6)
    refs = []
    init = _QuadGrid.__init__

    def counting(self, phase, amp, cfg, tau_ref, grad_bound=None):
        refs.append(tau_ref)
        init(self, phase, amp, cfg, tau_ref, grad_bound)

    monkeypatch.setattr(_QuadGrid, "__init__", counting)
    step = math.pi / 16.0
    planned = sample_integral(X2, A1, 10.0, 80.0, 6, refine=(step, REFLECTED_STEP))
    assert sorted(refs) == [10.0, 20.0, 40.0, 80.0]
    assert set(planned.refined) == {step, REFLECTED_STEP}
    assert np.array_equal(planned.values, plain.values)
    refs.clear()
    curve = curve_from_samples(planned, max_step=step)
    re, im = reflected_pair(planned)
    assert refs == []  # nothing left to evaluate
    alone = curve_from_samples(plain, max_step=step)
    assert np.array_equal(curve.tau, alone.tau)
    assert np.array_equal(curve.points, alone.points)
    re_alone, im_alone = reflected_pair(plain)
    assert np.array_equal(re.x, re_alone.x) and np.array_equal(im.x, im_alone.x)
    # a step that was not planned is evaluated on its own
    other = curve_from_samples(planned, max_step=math.pi / 12.0)
    assert refs and np.array_equal(
        other.points, curve_from_samples(plain, max_step=math.pi / 12.0).points
    )
    with pytest.raises(ValueError, match="max_step"):
        sample_integral(X2, A1, 10.0, 80.0, 6, refine=(math.pi / 4.0,))


def test_each_distinct_step_is_planned_once(monkeypatch):
    # a curve refined at REFLECTED_STEP shares the graphs' evaluations
    evaluated = []
    values = _QuadGrid.values

    def counting(self, taus):
        evaluated.extend(np.asarray(taus).tolist())
        return values(self, taus)

    monkeypatch.setattr(_QuadGrid, "values", counting)
    samples = sample_integral(X2, A1, 10.0, 80.0, 6, refine=(REFLECTED_STEP, 0.125))
    assert list(samples.refined) == [REFLECTED_STEP]
    curve = curve_from_samples(samples, max_step=0.125)
    assert sorted(evaluated) == sorted(curve.tau)


def test_zero_critical_value_skips_refinement():
    phase = PolynomialPhase(1, {(2,): 1.0})  # f(0) = 0
    samples = sample_integral(phase, A1, 10.0, 100.0, 7)
    curve = curve_from_samples(samples)
    assert len(curve.tau) == 7
    re, im = reflected_pair(samples)
    assert len(re.t) == 7 and len(im.t) == 7


def test_reflected_graphs():
    samples = sample_integral(X2, A1, 5.0, 10.0, 4)
    re, im = reflected_pair(samples)
    assert np.all(np.diff(re.t) > 0)
    assert re.t[0] == pytest.approx(0.1) and re.t[-1] == pytest.approx(0.2)
    # uniform tau spacing 1/(8 f0) resolves the e^{i tau f0} oscillation
    taus = 1.0 / re.t[::-1]
    assert np.diff(taus).max() <= 0.125 * (1.0 + 1e-9)
    assert np.array_equal(im.t, re.t)
    assert re.component == "re" and im.component == "im"
    # both components come from the same evaluations of I
    values = curve_from_samples(samples, max_step=0.125).points
    assert np.array_equal(re.x[::-1], values[:, 0])
    assert np.array_equal(im.x[::-1], values[:, 1])


def test_budget_panels():
    with pytest.raises(NumericBudgetError):
        eval_integral(X2, A1, 1.0e4, QuadratureConfig(max_panels=100))


def test_budget_separable_table_memory():
    phase = PolynomialPhase(2, {(2, 0): 1.0, (0, 4): 1.0, (0, 0): 1.0})
    with pytest.raises(NumericBudgetError):
        eval_integral(phase, AmplitudeSpec(2), 300.0, QuadratureConfig(memory_budget_mb=1))


@pytest.mark.parametrize(
    "phase, cfg, min_panels, bins",
    [
        (_P(2, {(2, 0): 1.0, (0, 4): 1.0, (0, 0): 1.0}), QuadratureConfig(), 200, None),
        (_P(3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0, (0, 0, 0): 1.0}),
         QuadratureConfig(panel_order=2), 100, 512),
    ],
    ids=["sep2d", "sep3d"],
)
def test_budget_separable_tables_stay_float64(monkeypatch, phase, cfg, min_panels, bins):
    # tables that fit 1 MB only at float32 raise instead of losing digits
    monkeypatch.setattr(integrals, "_MIN_PANELS", min_panels)
    if bins is not None:
        monkeypatch.setattr(integrals, "_RADIAL_BINS", bins)
    amp = AmplitudeSpec(phase.dimension)
    grid = _QuadGrid(phase, amp, cfg, 1.0)
    tables = grid._tables
    assert len(tables) == (1 if grid.mode == "sep2d" else 3)
    assert all(t.dtype == np.float64 for t in tables)
    nbytes = sum(t.nbytes for t in tables)
    assert nbytes // 2 <= 2**20 < nbytes
    with pytest.raises(NumericBudgetError, match="exceed"):
        _QuadGrid(phase, amp, replace(cfg, memory_budget_mb=1), 1.0)


_SPHERE3 = _P(3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0, (0, 0, 0): 1.0})


@pytest.mark.parametrize(
    "phase, radius, tau, bins",
    [
        (_SPHERE3, 1.0, 150.0, 2048),
        (_SPHERE3, 1.0, 150.0, 64),
        (_P(3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 3): 1.0, (0, 0, 2): 1.0, (0, 0, 0): 1.0}),
         0.6, 150.0, 2048),
    ],
    ids=["sphere-tables", "sphere-sort", "odd-z"],
)
def test_sep3d_budget_bounds_the_build_peak(monkeypatch, phase, radius, tau, bins):
    # the check names what the build takes, in whole MiB; the tightest budget
    # it accepts (one MB above that) bounds the peak the build reaches.  The
    # three grids peak while the tables are filled, while the pairs are
    # sorted (64 bins), and on a full axis (z^3 is odd, so no mirror fold)
    monkeypatch.setattr(integrals, "_RADIAL_BINS", bins)
    amp, cfg = AmplitudeSpec(3, radius), QuadratureConfig(panel_order=2)
    L = gradient_bound(phase, amp)
    with pytest.raises(NumericBudgetError) as refused:
        _QuadGrid(phase, amp, replace(cfg, memory_budget_mb=1), tau, L)
    budget = int(re.search(r"take (\d+) MiB", str(refused.value)).group(1)) + 1
    with pytest.raises(NumericBudgetError):
        _QuadGrid(phase, amp, replace(cfg, memory_budget_mb=budget - 2), tau, L)
    tracemalloc.start()
    try:
        grid = _QuadGrid(phase, amp, replace(cfg, memory_budget_mb=budget), tau, L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.mode == "sep3d" and budget > 20
    assert peak < budget * 2**20


@pytest.mark.parametrize(
    "mode, phase, amp, tau",
    [
        ("1d", X3, AmplitudeSpec(1, radius=0.6), 40.0),
        ("gen2d", _P(2, {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0, (0, 0): 1.0}),
         AmplitudeSpec(2), 4.0),
        ("gen3d", _P(3, {(2, 0, 0): 1.0, (1, 1, 0): 2.0, (0, 0, 2): 1.0, (0, 0, 0): 1.0}),
         AmplitudeSpec(3), 2.0),
    ],
    ids=["1d", "gen2d", "gen3d"],
)
def test_streamed_blocks_match_one_block(monkeypatch, mode, phase, amp, tau):
    # blocks of seven nodes concatenate to (f - f0, w phi) built on the
    # whole meshgrid, and their sums agree with the default blocks'
    cfg = QuadratureConfig(panel_order=2)
    monkeypatch.setattr(integrals, "_MIN_PANELS", 12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # non-separable 3D
        grid = _QuadGrid(phase, amp, cfg, tau)
    assert grid.mode == mode
    n, x, w = phase.dimension, grid._x, grid._w
    taus = np.linspace(-tau, tau, 7)
    default = grid.values(taus)
    monkeypatch.setattr(integrals, "_DOT_TERMS", 7)
    blocks = list(grid._iter_blocks())
    assert all(g.size == a.size <= 7 for g, a in blocks)
    pts = np.stack(np.meshgrid(*[x] * n, indexing="ij"), axis=-1).reshape(-1, n)
    ww = functools.reduce(np.multiply.outer, [w] * n).ravel()
    u2 = np.sum(pts**2, axis=-1) / amp.radius**2
    f = eval_phase_array(phase, pts) - phase.value_at_origin
    assert np.array_equal(np.concatenate([g for g, _ in blocks]), f)
    assert np.array_equal(np.concatenate([a for _, a in blocks]), ww * amp.phi0 * bump_profile(u2))
    assert np.allclose(grid.values(taus), default, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize(
    "mode, phase",
    [
        ("1d", X3),
        ("sep2d", _P(2, {(2, 0): 1.0, (0, 4): 1.0, (0, 0): 1.0})),
        ("sep3d", _P(3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0, (0, 0, 0): 1.0})),
        ("gen2d", _P(2, {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0, (0, 0): 1.0})),
        ("gen3d", _P(3, {(2, 0, 0): 1.0, (1, 1, 0): 2.0, (0, 0, 2): 1.0, (0, 0, 0): 1.0})),
    ],
    ids=["1d", "sep2d", "sep3d", "gen2d", "gen3d"],
)
def test_values_of_no_tau_is_an_empty_complex_array(mode, phase):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # non-separable 3D
        grid = _QuadGrid(phase, AmplitudeSpec(phase.dimension), QuadratureConfig(panel_order=2), 2.0)
    assert grid.mode == mode
    out = grid.values(np.array([]))
    assert out.dtype == complex and out.shape == (0,)


_MIXED = _P(2, {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0, (0, 0): 1.0})


def _grid(phase, amp, cfg, tau_ref, min_panels):
    """A _QuadGrid of at least min_panels panels per axis."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(integrals, "_MIN_PANELS", min_panels)
        return _QuadGrid(phase, amp, cfg, tau_ref)


def test_tensor_block_build_peaks_below_1_mb():
    grid = _grid(_MIXED, AmplitudeSpec(2), QuadratureConfig(), 1.0, 400)
    assert grid.mode == "gen2d"
    blocks = grid._iter_blocks()
    tracemalloc.start()
    try:
        g, a = next(blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.size == a.size == integrals._DOT_TERMS
    assert peak < 1e6


def test_streamed_sums_free_each_block_before_the_next():
    # 2.56M nodes, whose f - f0 and w phi alone would take 41 MB: a pass
    # holds one block and one batch of phase rows at a time
    grid = _grid(_MIXED, AmplitudeSpec(2), QuadratureConfig(), 1.0, 400)
    assert grid.mode == "gen2d" and grid.nodes_per_axis**2 == 2_560_000
    tracemalloc.start()
    try:
        grid.values(np.array([0.2, 0.5, 1.0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


@functools.cache
def _small_grid(mode):
    phase, amp, tau_ref = {
        "1d": (X3, AmplitudeSpec(1, radius=0.6), 40.0),
        "gen2d": (_MIXED, AmplitudeSpec(2), 4.0),
        "sep2d": (_P(2, {(2, 0): 1.0, (0, 3): 1.0, (0, 0): 1.0}), AmplitudeSpec(2), 20.0),
        "sep3d": (_SPHERE3, AmplitudeSpec(3), 10.0),
    }[mode]
    grid = _grid(phase, amp, QuadratureConfig(panel_order=2), tau_ref, 12)
    assert grid.mode == mode
    return grid


# a lone tau (0 among them) or an evenly spaced run of 1 to 257, in units of tau_ref
_TAU_PIECES = st.one_of(
    st.just([0.0]),
    st.floats(-1.0, 1.0).map(lambda t: [t]),
    st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.integers(1, 257)).map(
        lambda run: np.linspace(*run).tolist()
    ),
)


@pytest.mark.parametrize("mode", ["1d", "gen2d", "sep2d", "sep3d"])
@settings(max_examples=30, deadline=None)
@given(pieces=st.lists(_TAU_PIECES, min_size=1, max_size=4))
@example(pieces=[[0.5], np.linspace(-1.0, 1.0, 257).tolist(), [0.0], np.linspace(0.2, 0.3, 3).tolist()])
def test_runs_of_evenly_spaced_taus_match_the_direct_sum(mode, pieces):
    # each segment's baby- and giant-step product, a single tau's being its
    # one exp row, over blocks of 97 nodes; a separable grid's
    # phase rows C_j D_i, in batches of 7 taus that segments straddle,
    # against its one-tau values, each a direct exp
    grid = _small_grid(mode)
    taus = grid.tau_ref * np.concatenate(pieces)
    if mode in ("sep2d", "sep3d"):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(integrals, "_batch_rows", lambda bytes_per_tau: 7)
            got = grid.values(taus)
        single = np.array([grid.value(t) for t in taus])
        assert np.max(np.abs(got - single)) <= 1e-13 * abs(grid.value(0.0))
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(integrals, "_DOT_TERMS", 97)
        blocks = list(grid._iter_blocks())
        got = integrals._weighted_sums(taus, integrals._segments(taus), iter(blocks))
    assert len(blocks) > 1
    g, a = (np.concatenate(parts) for parts in zip(*blocks))
    direct = np.exp(1j * np.multiply.outer(taus, g)) @ a
    assert np.max(np.abs(got - direct)) <= 1e-13 * np.sum(np.abs(a))


@pytest.mark.parametrize("mode", ["1d", "gen2d", "sep2d", "sep3d"])
def test_a_lone_tau_costs_one_exp_row(monkeypatch, mode):
    # and no step or giant exp: two taus are no run, and each stands alone
    grid = _small_grid(mode)
    calls = []
    exp_rows = integrals._exp_rows

    def counting(taus, g, out):
        calls.append(len(taus))
        return exp_rows(taus, g, out)

    monkeypatch.setattr(integrals, "_exp_rows", counting)
    blocks = 1 if mode.startswith("sep") else len(list(grid._iter_blocks()))
    grid.values(np.array([grid.tau_ref]))
    assert calls == [1] * blocks
    calls.clear()
    grid.values(grid.tau_ref * np.array([0.5, 1.0]))
    assert sum(calls) == 2 * blocks


def test_a_long_uniform_run_holds_one_segment_of_rows():
    # 257 evenly spaced taus, one segment, over 16 blocks: a block's baby
    # and giant rows (34 rows of 10,000 nodes) stay within one batch
    grid = _grid(_MIXED, AmplitudeSpec(2), QuadratureConfig(), 1.0, 100)
    assert grid.nodes_per_axis**2 == 16 * integrals._DOT_TERMS
    taus = np.linspace(0.5, 1.0, 257)
    assert integrals._segments(taus) == [(0, 257)]
    tracemalloc.start()
    try:
        grid.values(taus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < integrals._BATCH_BYTES + 32 * integrals._DOT_TERMS + 2**20


def test_sep3d_pass_frees_each_product_before_the_next_gather(monkeypatch):
    # the sphere at tau 150 in one run of 506,432 pairs: a 3-tau pass above
    # the grid's held memory takes two complex arrays of the run (a product
    # and a gather in flight) and under 1 MiB more, and its values are those
    # of runs of 4,096 pairs, bit for bit
    args = (_SPHERE3, AmplitudeSpec(3), QuadratureConfig(panel_order=2), 150.0)
    grid = _QuadGrid(*args)
    assert len(grid._runs) == 1
    pairs = grid._runs[0][0].size
    taus = np.array([75.0, 110.0, 150.0])
    tracemalloc.start()
    try:
        values = grid.values(taus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * pairs + 2**20
    assert np.array_equal(values, _runs_of_bins(monkeypatch, 2**12, *args).values(taus))


def _runs_of_bins(monkeypatch, limit_pairs, *grid_args):
    """A grid built with sep3d runs of at most limit_pairs node pairs; its taus' batches keep their size."""
    with monkeypatch.context() as patch:
        patch.setattr(integrals, "_BATCH_BYTES", 16 * limit_pairs)
        return _QuadGrid(*grid_args)


@pytest.mark.parametrize("limit_pairs", [3, 1000])
@pytest.mark.parametrize(
    "phase, tau_ref",
    [
        (_SPHERE3, 20.0),
        (_P(3, {(4, 0, 0): 1.0, (0, 4, 0): 1.0, (0, 0, 4): 1.0, (0, 0, 0): 1.0}), 37.5),
    ],
    ids=["sphere", "quartic"],
)
def test_sep3d_runs_of_whole_bins_sum_bit_for_bit(monkeypatch, phase, tau_ref, limit_pairs):
    # every bin's pairs sit in one run, whose reduceat sums them as the
    # single run of the default size does; a bin above the limit (all of
    # them at 3 pairs) is a run of its own
    args = (phase, AmplitudeSpec(3), QuadratureConfig(panel_order=2), tau_ref)
    whole, cut = _QuadGrid(*args), _runs_of_bins(monkeypatch, limit_pairs, *args)
    assert len(whole._runs) == 1 and len(cut._runs) > 1
    starts = whole._runs[0][4]
    sizes = np.diff(np.append(starts, whole._runs[0][0].size))
    bins = 0
    for ii, jj, s_off, cols, run_starts in cut._runs:
        assert cols.start == bins and run_starts[0] == 0 and run_starts.size == cols.stop - cols.start
        assert ii.size == jj.size == s_off.size == sizes[cols].sum()
        assert ii.size <= limit_pairs or cols.stop - cols.start == 1
        bins = cols.stop
    assert bins == starts.size
    taus = np.linspace(tau_ref / 2, tau_ref, 7)
    assert np.array_equal(cut.values(taus), whole.values(taus))


# (phase, radius, tau_ref, whether its axes are mirror-folded)
_DISC_CASES = [
    (_SPHERE3, 1.0, 20.0, True),
    (_P(3, {(3, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0, (0, 0, 0): 1.0}), 0.7, 20.0, False),
]


@pytest.mark.parametrize("phase, radius, tau_ref, folded", _DISC_CASES, ids=["sphere", "x3-unfolded"])
def test_sep3d_runs_hold_the_disc_pairs_in_whole_bins(monkeypatch, phase, radius, tau_ref, folded):
    # the runs list each pair (i, j) with x_i^2 + x_j^2 <= R^2 once, their
    # pairs' bins never decrease, and every run and every bin start is where
    # the bin changes, so no bin is split between runs
    args = (phase, AmplitudeSpec(3, radius), QuadratureConfig(panel_order=2), tau_ref)
    grid = _runs_of_bins(monkeypatch, 1000, *args)
    x, R, nb = grid._x, radius, integrals._RADIAL_BINS
    assert (grid.nodes_per_axis < 2 * grid.panels) == folded and len(grid._runs) > 1
    codes, bins, starts, offset = [], [], [], 0
    for ii, jj, s_off, cols, run_starts in grid._runs:
        codes.append(ii * x.size + jj)
        s = x[ii] ** 2 + x[jj] ** 2
        bins.append(np.minimum((s / (R * R / nb)).astype(np.int64), nb - 1))
        starts.append(offset + run_starts)
        offset += ii.size
    disc = np.flatnonzero(x[:, None] ** 2 + x[None, :] ** 2 <= R * R)
    assert np.array_equal(np.sort(np.concatenate(codes)), disc)
    bins = np.concatenate(bins)
    assert np.all(np.diff(bins) >= 0)
    assert np.array_equal(np.concatenate(starts), np.flatnonzero(np.diff(bins, prepend=-1)))


@pytest.mark.parametrize("phase, radius, tau_ref, folded", _DISC_CASES, ids=["sphere", "x3-unfolded"])
def test_sep3d_budget_counts_the_pairs_it_builds(phase, radius, tau_ref, folded):
    args = (phase, AmplitudeSpec(3, radius), QuadratureConfig(panel_order=2), tau_ref)
    with pytest.raises(NumericBudgetError) as refused:
        _QuadGrid(*args[:2], replace(args[2], memory_budget_mb=1), tau_ref)
    counted = int(re.match(r"(\d+) node pairs", str(refused.value)).group(1))
    grid = _QuadGrid(*args)
    assert counted == sum(run[0].size for run in grid._runs) > 1000


def test_sep3d_pass_peak_is_bounded_by_the_run_size(monkeypatch):
    # the sphere at tau 150 holds 506,432 node pairs, whose complex
    # products alone would take 8 MB per tau.  A pass above the grid's held
    # memory takes at most three complex arrays of one run (two since each
    # product is freed before the next gather) and under 1 MiB of phase
    # rows and bin sums for these three taus
    limit = 2**12
    grid = _runs_of_bins(monkeypatch, limit, _SPHERE3, AmplitudeSpec(3), QuadratureConfig(panel_order=2), 150.0)
    assert sum(run[0].size for run in grid._runs) > 100 * limit
    tracemalloc.start()
    try:
        grid.values(np.array([75.0, 110.0, 150.0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * limit + 2**20


@pytest.fixture
def openblas():
    """numpy's OpenBLAS (get, set), at 2 threads for the test and restored after it."""
    blas = integrals._openblas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    get, put = blas
    before = get()
    put(2)  # a caller's count other than the one the scope sets
    try:
        yield get
    finally:
        put(before)


_BLAS_CASES = [
    ("_core_separable", _P(2, {(2, 0): 1.0, (0, 4): 1.0, (0, 0): 1.0}), 0.6, 30.0),
    ("_core_separable", _SPHERE3, 1.0, 20.0),
    ("_weighted_sums", X2, 1.0, 200.0),
]


def _patch_core(monkeypatch, core, body):
    """Run body(*args) in place of the grid core named core; it calls the core itself."""
    owner = integrals if core == "_weighted_sums" else _QuadGrid
    original = getattr(owner, core)
    monkeypatch.setattr(owner, core, lambda *args: body(original, *args))


@pytest.mark.parametrize("core, phase, radius, tau", _BLAS_CASES, ids=["sep2d", "sep3d", "1d"])
def test_cores_run_on_one_blas_thread_and_restore_the_count(
    monkeypatch, openblas, core, phase, radius, tau
):
    inside = []

    def body(original, *args):
        inside.append(openblas())
        return original(*args)

    _patch_core(monkeypatch, core, body)
    grid = _QuadGrid(phase, AmplitudeSpec(phase.dimension, radius), QuadratureConfig(panel_order=2), tau)
    grid.values(np.linspace(tau / 2, tau, 5))
    assert inside == [1] and openblas() == 2


@pytest.mark.parametrize("core, phase, radius, tau", _BLAS_CASES, ids=["sep2d", "sep3d", "1d"])
def test_a_raising_core_restores_the_blas_count(monkeypatch, openblas, core, phase, radius, tau):
    def body(original, *args):
        raise FloatingPointError("core failed")

    _patch_core(monkeypatch, core, body)
    grid = _QuadGrid(phase, AmplitudeSpec(phase.dimension, radius), QuadratureConfig(panel_order=2), tau)
    with pytest.raises(FloatingPointError, match="core failed"):
        grid.values(np.array([tau]))
    assert openblas() == 2


@pytest.mark.parametrize("core, phase, radius, tau", _BLAS_CASES, ids=["sep2d", "sep3d", "1d"])
def test_values_without_openblas_match(monkeypatch, core, phase, radius, tau):
    # where no OpenBLAS is found the scope does nothing; BLAS threads may
    # move the matrix products' last bits, and nothing more
    grid = _QuadGrid(phase, AmplitudeSpec(phase.dimension, radius), QuadratureConfig(panel_order=2), tau)
    taus = np.linspace(tau / 2, tau, 9)
    scoped = grid.values(taus)
    monkeypatch.setattr(integrals, "_openblas_threads", lambda: None)
    unscoped = grid.values(taus)
    assert np.max(np.abs(unscoped - scoped) / np.abs(scoped)) <= 1e-14


def test_budget_tensor_nodes():
    mixed = PolynomialPhase(2, {(2, 0): 1.0, (1, 1): 1.0, (0, 2): 1.0, (0, 0): 1.0})
    with pytest.raises(NumericBudgetError):
        eval_integral(mixed, AmplitudeSpec(2), 20.0, QuadratureConfig(max_nodes=10_000))


def test_budget_refinement_points(monkeypatch):
    samples = sample_integral(X2, A1, 1.0, 100.0, 2)
    monkeypatch.setattr(integrals, "_MAX_POINTS", 50)
    with pytest.raises(NumericBudgetError):
        curve_from_samples(samples)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(points_per_wavelength=4)
    with pytest.raises(ValueError):
        QuadratureConfig(panel_order=0)


def test_gradient_bound_hits_support_extremes():
    assert gradient_bound(X2, A1) == pytest.approx(2.1, rel=1e-9)
    quartic = PolynomialPhase(2, {(2, 0): 1.0, (0, 4): 1.0})
    assert gradient_bound(quartic, AmplitudeSpec(2)) == pytest.approx(4.2, rel=1e-3)


@pytest.mark.parametrize(
    "phase, radius, top",
    [
        (_P(3, {(4, 0, 4): 1.0}), 0.6, 0.6**7 / 2),  # at x = z = R/sqrt(2)
        (_P(3, {(0, 3, 3): 1.0}), 1.0, 0.75),  # at y = z = 1/sqrt(2)
    ],
    ids=["x4z4", "y3z3"],
)
def test_gradient_bound_reaches_a_maximum_on_the_sphere(phase, radius, top):
    # the maximum lies on the sphere, between the grid points inside the ball
    L = gradient_bound(phase, AmplitudeSpec(3, radius=radius))
    assert L == pytest.approx(1.05 * top, rel=1e-12)


def test_quadrature_refuses_four_dimensions_by_name():
    phase = PolynomialPhase(4, {(2, 0, 0, 0): 1.0, (0, 0, 0, 2): 1.0})
    with pytest.raises(ValueError, match="n <= 3"):
        gradient_bound(phase, AmplitudeSpec(4))
    with pytest.raises(ValueError, match="n <= 3"):
        sample_integral(phase, AmplitudeSpec(4), 1.0, 10.0, 4)


def _synthetic_samples(taus, values):
    return IntegralSamples(
        np.asarray(taus, float),
        np.asarray(values, complex),
        X2,
        A1,
        QuadratureConfig(),
        gradient_bound(X2, A1),
    )


def test_leading_fit_recovers_coefficient():
    taus = np.geomspace(10.0, 1000.0, 60)
    coeff = 3.0 + 4.0j
    samples = _synthetic_samples(taus, np.exp(2j * taus) * coeff * taus**-0.5)
    fit = leading_term_fit(samples, 2.0, -0.5)
    assert abs(fit.value - coeff) <= 1e-9 * abs(coeff)
    assert fit.residual < 1e-9
    assert fit.confirmed
    assert fit.window[0] >= 100.0  # top decade only


def test_leading_fit_flags_wrong_exponent():
    taus = np.geomspace(10.0, 1000.0, 60)
    samples = _synthetic_samples(taus, np.exp(2j * taus) * taus**-0.5)
    fit = leading_term_fit(samples, 2.0, -0.3)
    assert fit.residual > 0.04
    assert not fit.confirmed


def test_leading_fit_log_factor():
    taus = np.geomspace(10.0, 1000.0, 60)
    coeff = 1.0 - 2.0j
    values = np.exp(1j * taus) * coeff * taus**-0.75 * np.log(taus)
    fit = leading_term_fit(_synthetic_samples(taus, values), 1.0, -0.75, k=1)
    assert abs(fit.value - coeff) <= 1e-9 * abs(coeff)
    assert fit.log_power == 1


def test_leading_fit_two_term_correction():
    taus = np.geomspace(10.0, 1000.0, 60)
    a, b = 2.0 + 1.0j, -5.0 + 3.0j
    values = np.exp(1j * taus) * (a * taus**-0.5 + b * taus**-1.0)
    plain = leading_term_fit(_synthetic_samples(taus, values), 1.0, -0.5)
    fixed = leading_term_fit(
        _synthetic_samples(taus, values), 1.0, -0.5, correction_exponent=-0.5
    )
    assert abs(plain.value - a) > 1e-2
    assert abs(fixed.value - a) <= 1e-9 * abs(a)


def test_leading_fit_needs_a_decade():
    taus = np.geomspace(10.0, 50.0, 20)
    samples = _synthetic_samples(taus, taus**-0.5 + 0j)
    with pytest.raises(ValueError):
        leading_term_fit(samples, 1.0, -0.5)
