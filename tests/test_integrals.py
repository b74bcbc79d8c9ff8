"""Oscillatory quadrature: independent oracles, structural shortcuts, budgets.

Verified here:
* I(tau) for x^2 + 1 matches an independent scipy.integrate.quad evaluation
  of the real and imaginary parts at moderate tau;
* stationary-phase limits: I(tau) e^{-i tau} sqrt(tau) -> sqrt(pi) e^{i pi/4}
  for x^2 + 1 and the cubic analogue sqrt(3) Gamma(4/3) for x^3 + 1;
* the separable 2D/3D fast paths agree with the streamed tensor path on
  rotation-equivalent phases ((x+y)^2 is 2u^2 in rotated coordinates and the
  bump amplitude is rotation invariant);
* the 3D radial binning is insensitive to the bin count and the panel order;
* phases even in every variable are summed over one orthant of mirrored
  nodes with doubled weights, and that sum matches the full [-R, R]^n
  composite sum to 1e-13 in the 1d, sep2d, sep3d and gen2d modes, with a
  node at 0 when the node count is odd; phases odd in some variable keep
  every node, and the 3D radial tables hold one column per occupied bin;
* per-octave shared grids reproduce single-tau evaluations, and the
  batched, phase-rotated pass over refined taus matches per-tau evaluation
  on the same octave grid to 1e-12 in every grid mode, across re-seeds;
* sample_integral evaluates the refined taus of the steps it is asked to
  plan on the sample grids, building each octave grid once, and the curve
  and reflected graphs read them back bit for bit equal to a standalone
  refinement, which still serves any step that was not planned;
* winding refinement: phase advance per step bounded, original samples
  reused exactly, t-grid of the reflected graphs increasing with both
  components extracted from one pass;
* 1D and mixed-variable phases share the streamed node tensor: summed in
  blocks of three rows it gives exactly the one-block sums in the 1d,
  gen2d and gen3d modes, and building one block peaks within 1.5 times
  its byte budget;
* every budget (panels, nodes, memory, refinement points) raises
  NumericBudgetError instead of degrading: separable tables stay float64,
  and a table that would fit the budget only at float32 raises; a phase
  with n > 3 is refused with a ValueError that names the n <= 3 limit, and
  an infinite tau window with a ValueError;
* leading_term_fit recovers synthetic coefficients, flags a wrong exponent,
  handles log factors, and the two-term correction removes subleading bias.
"""

import math
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


def test_radial_binning_insensitive():
    sphere = PolynomialPhase(
        3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0, (0, 0, 0): 1.0}
    )
    amp = AmplitudeSpec(3)
    coarse = eval_integral(sphere, amp, 30.0, QuadratureConfig(panel_order=2))
    fine_bins = eval_integral(
        sphere, amp, 30.0, QuadratureConfig(panel_order=2, radial_bins=65536)
    )
    fine_order = eval_integral(sphere, amp, 30.0, QuadratureConfig(panel_order=4))
    assert abs(coarse - fine_bins) <= 1e-8 * abs(coarse)
    assert abs(coarse - fine_order) <= 1e-6 * abs(coarse)


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
    cfg = QuadratureConfig(panel_order=order, min_panels=min_panels, radial_bins=2**40)
    grid = _QuadGrid(phase, amp, cfg, tau)
    assert grid.mode == mode
    m = grid.panels * order
    assert grid.nodes_per_axis == ((m + 1) // 2 if even else m)
    if mode == "sep3d":
        assert grid._G0.shape == (grid.nodes_per_axis, grid._bin_starts.size)
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

    # every refined point, batched and phase-rotated, against a per-tau
    # evaluation on the same octave grid (an octave of the samples' top
    # tau), in each grid mode
    sphere = PolynomialPhase(
        3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0, (0, 0, 0): 1.0}
    )
    mixed = PolynomialPhase(2, {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0, (0, 0): 1.0})
    cases = [
        # one gap refined in steps of pi/64: its top octave is a single
        # uniform run several re-seed intervals long
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
    "phase, cfg",
    [
        (_P(2, {(2, 0): 1.0, (0, 4): 1.0, (0, 0): 1.0}), QuadratureConfig(min_panels=200)),
        (_P(3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0, (0, 0, 0): 1.0}),
         QuadratureConfig(panel_order=2, min_panels=100, radial_bins=1024)),
    ],
    ids=["sep2d", "sep3d"],
)
def test_budget_separable_tables_stay_float64(phase, cfg):
    # tables that fit 1 MB only at float32 raise instead of losing digits
    amp = AmplitudeSpec(phase.dimension)
    grid = _QuadGrid(phase, amp, cfg, 1.0)
    tables = [grid._table] if grid.mode == "sep2d" else [grid._G0, grid._G1]
    assert all(t.dtype == np.float64 for t in tables)
    nbytes = sum(t.nbytes for t in tables)
    assert nbytes // 2 <= 2**20 < nbytes
    with pytest.raises(NumericBudgetError, match="exceed"):
        _QuadGrid(phase, amp, replace(cfg, memory_budget_mb=1), 1.0)


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
    # blocks of three rows against one block: with dot slices of three rows
    # in both runs the sums are added in the same order, so they agree exactly
    cfg = QuadratureConfig(panel_order=2, min_panels=12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # non-separable 3D
        grid = _QuadGrid(phase, amp, cfg, tau)
    assert grid.mode == mode
    n, m = phase.dimension, grid.nodes_per_axis
    taus = np.linspace(-tau, tau, 7)
    monkeypatch.setattr(integrals, "_DOT_TERMS", 3 * m ** (n - 1))
    assert len(list(grid._iter_blocks())) == 1
    whole = grid.values(taus)
    monkeypatch.setattr(integrals, "_BLOCK_BYTES", integrals._BLOCK_NODE_BYTES * 3 * m ** (n - 1))
    assert len(list(grid._iter_blocks())) == -(-m // 3)
    assert np.array_equal(grid.values(taus), whole)


def test_tensor_block_peak_stays_near_its_budget(monkeypatch):
    # rows are sized by what building a block takes, not by the 16 bytes
    # per node the block keeps
    monkeypatch.setattr(integrals, "_BLOCK_BYTES", 2**20)
    mixed = _P(2, {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0, (0, 0): 1.0})
    grid = _QuadGrid(mixed, AmplitudeSpec(2), QuadratureConfig(min_panels=400), 1.0)
    assert grid.mode == "gen2d"
    blocks = grid._iter_blocks()
    tracemalloc.start()
    try:
        g, a = next(blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.size == a.size < grid.nodes_per_axis**2
    assert peak <= 1.5 * 2**20


def test_budget_tensor_nodes():
    mixed = PolynomialPhase(2, {(2, 0): 1.0, (1, 1): 1.0, (0, 2): 1.0, (0, 0): 1.0})
    with pytest.raises(NumericBudgetError):
        eval_integral(mixed, AmplitudeSpec(2), 20.0, QuadratureConfig(max_nodes=10_000))


def test_budget_refinement_points():
    samples = sample_integral(X2, A1, 1.0, 100.0, 2)
    with pytest.raises(NumericBudgetError):
        curve_from_samples(samples, max_points=50)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(points_per_wavelength=4)
    with pytest.raises(ValueError):
        QuadratureConfig(panel_order=0)


def test_gradient_bound_hits_support_extremes():
    assert gradient_bound(X2, A1) == pytest.approx(2.1, rel=1e-9)
    quartic = PolynomialPhase(2, {(2, 0): 1.0, (0, 4): 1.0})
    assert gradient_bound(quartic, AmplitudeSpec(2)) == pytest.approx(4.2, rel=1e-3)


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
