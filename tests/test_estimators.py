"""Geometry-side estimators: box counts, dimension fits, sausage areas, content.

Verified here:

* geometric_epsilons ordering and input validation;
* box_count against hand-counted supercover oracles (single point, axis
  segment, corner-touching diagonal), NaN subpath splitting, connect=False,
  seed determinism, scale and axis-swap invariance (tall polylines count
  like wide ones; pinned: a segment whose run along x is subnormal, and a
  zero-length segment beside a vertical one), and the exact grid-nesting
  inequalities N(2 eps) <= N(eps) <= 4 N(2 eps) for halved anchored grids;
* box_count equal, count for count, to a reference supercover that sorts
  the crossing parameters and floors piece midpoints, on lattice,
  half-lattice, gridline-aligned and generic polylines with NaN splits,
  repeated points and connect=False, on a lattice diagonal whose computed
  crossing points round off their corners, on vertices a few ulps from a
  cell corner, and on a chirp with four offsets, whole or split into blocks;
* box_count's two paths, the cell each crossing enters and the sorting rule
  for segments near a corner or an end: with the margin _NEAR infinite,
  so that every segment crossing a gridline is sorted, the counts equal the
  default's on the polylines above and on a chirp and a spiral with four
  offsets; segments with generic ends whose interiors pass exactly through
  lattice corners, or an ulp or a few beside them, match the reference;
* box_count on a 50-point curve at eps = diam/30000 matches the reference
  with a memory peak under 16 MB, far below its bounding grid's cell count,
  and on a grid of about 2^32 cells, whose keys need int64;
* box_count input validation (eps finite and positive, offsets >= 1), and
  box_count and sausage_area refuse a polyline with no finite point;
* estimate_dimension on exact power laws (recovered to machine precision),
  plateau selection across a regime crossover, the smallest-eps tiebreak,
  the inconclusive fallback on drifting slopes, and input validation;
* sausage_area against closed-form neighborhoods (disk, stadium, annulus,
  a stadium plus a NaN-isolated point, a segment at any angle and length,
  including horizontal, vertical and zero-length ones, and one whose
  subnormal rise counts as horizontal, and two overlapping parallel
  segments whose one outer edge falls between rows), invariance under
  swapping the axes, duplicate-geometry idempotence, areas unchanged by
  how capsules fall into blocks, the row-interval cap and eps validation
  (finite and positive, in estimate_content too);
* sausage_area equal (==) to the area a reference row sum gives, one that
  computes every capsule term per row interval: on lattice, half-lattice,
  gridline and generic polylines with NaN splits, lone and repeated
  points, and a subpath of flat capsules whose rise is 0, 1e-310 or
  1e-13, at two eps each, with the default interval blocks and blocks of 7;
* estimate_content on a unit segment: M_hat ~ 2L at the true dimension and
  the forced degenerate verdicts when d is deliberately mis-set;
* gen_chirp / gen_spiral / gen_astring invariants and budget errors.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oscfract import estimators
from oscfract.estimators import (
    _finite_rows,
    box_count,
    estimate_content,
    estimate_dimension,
    gen_astring,
    gen_chirp,
    gen_spiral,
    geometric_epsilons,
    sausage_area,
)
from oscfract.integrals import NumericBudgetError

# --- geometric_epsilons ---


def test_epsilon_grid_is_decreasing_geometric():
    eps = geometric_epsilons(1e-1, 1e-3, 9)
    assert len(eps) == 9
    assert eps[0] == pytest.approx(1e-1) and eps[-1] == pytest.approx(1e-3)
    ratios = eps[1:] / eps[:-1]
    assert np.allclose(ratios, ratios[0])
    assert np.all(np.diff(eps) < 0)


@pytest.mark.parametrize(
    "args", [(1e-3, 1e-1, 5), (0.0, 1e-1, 5), (1e-1, -1.0, 5), (1e-1, 1e-3, 1)]
)
def test_epsilon_grid_validation(args):
    with pytest.raises(ValueError):
        geometric_epsilons(*args)


# --- box_count oracles ---


def test_single_point_occupies_one_cell():
    pts = np.array([[0.3, 0.7]])
    counts = box_count(pts, np.array([0.5, 0.1, 0.01]), offsets=1)
    assert np.all(counts == 1.0)


def test_unit_segment_cell_count_exact():
    # [0,1] x {0} at eps=0.25: grid anchored at (0,0), columns 0..4 are hit
    # (the right endpoint lands on the x=4 gridline and opens a fifth cell).
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    counts = box_count(pts, np.array([0.25]), offsets=1)
    assert counts[0] == 5.0


def test_diagonal_through_corners_counts_three_cells():
    # (0,0)->(1,1) at eps=0.5 passes exactly through cell corners; the
    # supercover keeps the touched diagonal cells only.
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    counts = box_count(pts, np.array([0.5]), offsets=1)
    assert counts[0] == 3.0


def test_nan_row_splits_subpaths():
    # two unit segments three cells apart; the NaN row must suppress the
    # bridging segment, leaving 3 + 3 cells at eps=0.5.
    pts = np.array(
        [[0.0, 0.0], [1.0, 0.0], [np.nan, np.nan], [0.0, 3.0], [1.0, 3.0]]
    )
    counts = box_count(pts, np.array([0.5]), offsets=1)
    assert counts[0] == 6.0


def test_connect_false_counts_vertices_only():
    pts = np.array([[0.05, 0.05], [0.95, 0.05]])
    eps = np.array([0.1])
    assert box_count(pts, eps, offsets=1, connect=False)[0] == 2.0
    assert box_count(pts, eps, offsets=1, connect=True)[0] == 9.0


def test_eps_above_diameter_rejected():
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        box_count(pts, np.array([2.0]))


def test_no_finite_points_rejected():
    nan = np.full((3, 2), np.nan)
    with pytest.raises(ValueError, match="polyline has no finite points"):
        box_count(nan, np.array([0.1]))
    with pytest.raises(ValueError, match="polyline has no finite points"):
        sausage_area(nan, 0.1)


def test_offset_averaging_is_seeded():
    pts = gen_chirp(0.5, 1.0, t_min=0.05)
    eps = geometric_epsilons(0.05, 0.01, 3)
    a = box_count(pts, eps, offsets=4, seed=7)
    b = box_count(pts, eps, offsets=4, seed=7)
    assert np.array_equal(a, b)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=-8, max_value=8))
def test_counts_invariant_under_dyadic_similarity(k):
    # grid anchored at the bounding box corner: scaling points and eps by an
    # exact power of two leaves every cell assignment bit-identical.
    lam = 2.0**k
    pts = gen_chirp(0.5, 1.0, t_min=0.05)
    eps = np.array([0.04, 0.01])
    base = box_count(pts, eps, offsets=2, seed=3)
    scaled = box_count(pts * lam, eps * lam, offsets=2, seed=3)
    assert np.array_equal(base, scaled)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=2, max_size=12
    ),
    st.floats(1e-2, 1e2),
)
# a segment whose run along one axis is subnormal, and a zero-length segment
# next to an axis-parallel one: a kernel dividing by that run warns
@example(raw=[(0.0, 0.0), (2.2250738585072014e-308, 1.0)], aspect=4.0)
@example(raw=[(0.0, 0.0), (0.0, 0.0), (0.0, 1.0)], aspect=1.0)
def test_counts_invariant_under_axis_swap(raw, aspect):
    # the anchored grid maps onto itself when x and y trade places, so the
    # cell counts must too, for tall and for wide polylines alike
    pts = np.array(raw) * [1.0, aspect]
    diam = float(np.hypot(*np.ptp(pts, axis=0)))
    assume(diam > 1e-3)  # keeps eps = diam / 160 clear of underflow
    eps = diam / np.array([3.0, 40.0, 160.0])
    counts = box_count(pts, eps, offsets=1)
    assert np.array_equal(counts, box_count(pts[:, ::-1], eps, offsets=1))


def _reference_supercover(P, Q, pts, height):
    """Distinct cells touched by segments P->Q plus pts, by sorting.

    Every gridline crossing splits its segment; the crossing parameters are
    sorted per segment and the floor of each piece's midpoint is its cell.
    Kept as the reference for box_count, which sorts only the segments with
    a crossing near a cell corner or a segment end.
    """
    cells = [np.floor(pts).astype(np.int64)]
    if len(P):
        d = Q - P
        parts = [np.zeros(len(P)), np.ones(len(P))]
        seg_ids = [np.arange(len(P)), np.arange(len(P))]
        for ax in range(2):
            lo = np.ceil(np.minimum(P[:, ax], Q[:, ax]))
            hi = np.floor(np.maximum(P[:, ax], Q[:, ax]))
            cnt = np.where(d[:, ax] != 0, np.maximum(0, hi - lo + 1), 0).astype(np.int64)
            tot = int(cnt.sum())
            if tot:
                sid = np.repeat(np.arange(len(P)), cnt)
                start = np.concatenate([[0], np.cumsum(cnt)[:-1]])
                k = np.repeat(lo, cnt) + (np.arange(tot) - np.repeat(start, cnt))
                t = (k - P[sid, ax]) / d[sid, ax]
                parts.append(np.clip(t, 0.0, 1.0))
                seg_ids.append(sid)
        t = np.concatenate(parts)
        sid = np.concatenate(seg_ids)
        order = np.lexsort((t, sid))
        t, sid = t[order], sid[order]
        same = sid[:-1] == sid[1:]
        tm = 0.5 * (t[:-1] + t[1:])[same]
        ss = sid[:-1][same]
        cells.append(np.floor(P[ss] + tm[:, None] * d[ss]).astype(np.int64))
    cc = np.concatenate(cells)
    packed = (cc[:, 0] + 2) * np.int64(height + 4) + (cc[:, 1] + 2)
    return int(np.unique(packed).size)


def _reference_box_count(polyline, epsilons, offsets, seed, connect=True):
    """box_count's grids and offsets, counted by _reference_supercover."""
    pts, seg = _finite_rows(polyline)
    if not connect:
        seg = seg[:0]
    lo = pts.min(axis=0)
    rng = np.random.default_rng(seed)
    shifts = np.vstack([[0.0, 0.0], rng.random((offsets - 1, 2))])
    counts = []
    for eps in epsilons:
        U = (pts - lo) / eps
        height = int(np.ceil(U[:, 1].max())) + 3
        total = 0
        for off in shifts:
            V = U + off
            total += _reference_supercover(V[seg[:, 0]], V[seg[:, 1]], V, height)
        counts.append(total / offsets)
    return np.array(counts)


def _reference_row_length(A, D, eps, lo, span, y, weight, s0, cnt) -> float:
    """sausage_area's row sum with every capsule term computed per row interval.

    Each interval gathers its capsule's A and D and recomputes flat, 1/dy
    and u from them.  Kept as the reference that estimators._row_length,
    which computes those terms once per capsule, must match bit for bit.
    """
    runs = []
    for b0, b1 in estimators._blocks(cnt, estimators._INTERVAL_BLOCK):
        nb = cnt[b0:b1]
        c = np.repeat(np.arange(b0, b1), nb)
        k = np.arange(len(c)) - np.repeat(np.cumsum(nb) - nb - s0[b0:b1], nb)
        (ax, ay), (dx, dy) = A[c].T, D[c].T
        v = lo[1] - ay + y[k]
        flat = np.abs(dy) <= 1e-12 * (np.abs(dx) + eps)
        inv = 1.0 / np.where(flat, 1.0, dy)
        u = eps * dx * np.sign(dy) / np.where(flat, 1.0, np.hypot(dx, dy))
        x = []
        for side, s in ((-1.0, np.where(flat, dx < 0, (v - u) * inv)),
                        (1.0, np.where(flat, dx > 0, (v + u) * inv))):
            s = np.clip(s, 0.0, 1.0)
            w = np.sqrt(np.maximum(eps * eps - (v - s * dy) ** 2, 0.0))
            x.append(ax + s * dx + side * w + (k * span - lo[0]))
        runs.append(estimators._union(*x))
    L, R = estimators._union(*map(np.concatenate, zip(*runs)))
    row = np.floor((L + eps) / span).astype(np.int64)
    return float(np.sum(weight[row] * (R - L)))


_LATTICE = st.integers(0, 60).map(float)
_GENERIC = st.floats(0.0, 60.0, allow_nan=False, allow_infinity=False)
# coordinates of one point, per kind: on the integer lattice (dyadic eps
# keep it there), on the half-lattice, on gridlines of one axis only, or
# anywhere; lattice polylines pass exactly through cell corners, where
# rounding can move the computed crossing point off the corner
_POINTS = {
    "lattice": st.tuples(_LATTICE, _LATTICE),
    "half-lattice": st.tuples(_LATTICE.map(lambda v: v / 2.0), _LATTICE.map(lambda v: v / 2.0)),
    "x-gridlines": st.tuples(_LATTICE, _GENERIC),
    "y-gridlines": st.tuples(_GENERIC, _LATTICE),
    "generic": st.tuples(_GENERIC, _GENERIC),
}


@st.composite
def _polylines(draw):
    """(N, 2) polyline of one kind, with NaN splits and repeated points."""
    point = _POINTS[draw(st.sampled_from(sorted(_POINTS)))]
    rows = draw(st.lists(st.one_of(point, st.just("nan"), st.just("repeat")), min_size=1, max_size=12))
    out = []
    for row in rows:
        if row == "nan":
            out.append((math.nan, math.nan))
        elif row == "repeat":
            out.append(out[-1] if out else (0.0, 0.0))
        else:
            out.append(row)
    return np.array(out)


@settings(max_examples=400, deadline=None)
@given(
    _polylines(),
    st.sampled_from([1, 1, 2, 3]),
    st.integers(0, 2**16),
    st.booleans(),
)
def test_counts_match_sorting_reference(pts, offsets, seed, connect):
    finite = pts[np.isfinite(pts).all(axis=1)]
    assume(len(finite) > 0)
    diam = float(np.hypot(*np.ptp(finite, axis=0)))
    eps = np.array([e for e in (4.0, 1.0, 0.5, 0.25, 0.3) if diam == 0.0 or e <= diam])
    assume(len(eps) > 0)
    counts = box_count(pts, eps, offsets=offsets, seed=seed, connect=connect)
    assert np.array_equal(counts, _reference_box_count(pts, eps, offsets, seed, connect))


@pytest.mark.parametrize(
    "start, end",
    [
        ((0.9999999999999998, 0.9999999999999999), (2.999999999999999, 2.0)),
        ((0.9999999999999998, 1.9999999999999998), (3.999999999999999, 5.000000000000002)),
    ],
)
def test_vertex_ulps_from_a_corner_matches_sorting_reference(start, end):
    # the segment's first piece, up to the nearby gridlines, is a few ulps
    # long, and its midpoint rounds into a cell of its own; the isolated
    # origin pins the grid so the vertices keep their exact coordinates
    pts = np.array([(0.0, 0.0), (math.nan, math.nan), start, end])
    counts = box_count(pts, np.array([1.0]), offsets=1)
    assert np.array_equal(counts, _reference_box_count(pts, [1.0], 1, 0))


def test_diagonal_through_lattice_corners_counts_diagonal_cells():
    # 1/49 * 49 rounds below 1, so each computed crossing point lies just
    # off its lattice corner; the count must not pick up the cells beside
    # the diagonal
    pts = np.array([[0.0, 0.0], [49.0, 49.0]])
    counts = box_count(pts, np.array([1.0]), offsets=1)
    assert counts[0] == 50.0
    assert np.array_equal(counts, _reference_box_count(pts, [1.0], 1, 0))


def test_chirp_counts_match_sorting_reference():
    pts = gen_chirp(0.5, 1.0, t_min=0.01)
    eps = geometric_epsilons(0.05, 0.002, 6)
    counts = box_count(pts, eps, offsets=4, seed=11)
    assert np.array_equal(counts, _reference_box_count(pts, eps, 4, 11))


def test_crossing_blocks_do_not_change_counts(monkeypatch):
    # crossings are handled a block of segments at a time; tiny blocks split
    # the chirp's segments over many of them
    pts = gen_chirp(0.5, 1.0, t_min=0.01)
    eps = geometric_epsilons(0.05, 0.002, 4)
    whole = box_count(pts, eps, offsets=2, seed=5)
    monkeypatch.setattr(estimators, "_CROSSING_BLOCK", 7)
    assert np.array_equal(box_count(pts, eps, offsets=2, seed=5), whole)


@settings(max_examples=200, deadline=None)
@given(_polylines(), st.sampled_from([1, 2, 4]), st.integers(0, 2**16))
def test_defining_rule_everywhere_counts_the_same(pts, offsets, seed):
    # with an infinite margin every segment that crosses a gridline takes the
    # sorting rule, so the counts cannot depend on which path a segment took
    finite = pts[np.isfinite(pts).all(axis=1)]
    assume(len(finite) > 0)
    diam = float(np.hypot(*np.ptp(finite, axis=0)))
    eps = np.array([e for e in (4.0, 1.0, 0.5, 0.25, 0.3) if diam == 0.0 or e <= diam])
    assume(len(eps) > 0)
    counts = box_count(pts, eps, offsets=offsets, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "_NEAR", math.inf)
        assert np.array_equal(box_count(pts, eps, offsets=offsets, seed=seed), counts)


@pytest.mark.parametrize(
    "pts",
    [gen_chirp(0.5, 1.0, t_min=0.01), gen_spiral(0.5, phi_max=30.0 * math.pi)],
    ids=["chirp", "spiral"],
)
def test_defining_rule_everywhere_counts_curves_the_same(pts, monkeypatch):
    eps = np.hypot(*np.ptp(pts, axis=0)) / np.array([20.0, 90.0, 400.0])
    counts = box_count(pts, eps, offsets=4, seed=2)
    monkeypatch.setattr(estimators, "_NEAR", math.inf)
    assert np.array_equal(box_count(pts, eps, offsets=4, seed=2), counts)


_UP = math.nextafter(1.0, 2.0) - 1.0  # one ulp of 1


@pytest.mark.parametrize(
    "start, end",
    [
        # generic ends, interiors through lattice corners such as (1, 1) and (2, 2)
        ((0.25, 0.25), (2.75, 2.75)),
        ((2.75, 0.25), (0.25, 2.75)),
        ((0.5, 0.25), (3.5, 1.75)),
        ((0.3, 0.2), (3.2, 11.8)),
        # the same lines an ulp of the corner's coordinate beside it
        ((0.25, 0.25 + _UP), (2.75, 2.75 + 4 * _UP)),
        ((0.25, 0.25 - _UP), (2.75, 2.75 - 4 * _UP)),
        ((0.5, 0.25 + _UP), (3.5, 1.75 + 2 * _UP)),
        ((0.3, 0.2 - _UP), (3.2, 11.8 - 8 * _UP)),
    ],
)
def test_segments_through_corners_match_sorting_reference(start, end):
    # the isolated origin pins the grid so the vertices keep their coordinates
    pts = np.array([(0.0, 0.0), (math.nan, math.nan), start, end])
    for eps in (1.0, 0.5, 0.25):
        counts = box_count(pts, [eps], offsets=1)
        assert np.array_equal(counts, _reference_box_count(pts, [eps], 1, 0))


def test_sparse_box_count_stays_small():
    # a short smooth curve at eps = diam/30000 spans a bounding grid of
    # about 10^9 cells but touches only about 10^5 of them: memory follows
    # the cells marked, not the bounding box
    th = np.linspace(0.0, 2.5, 50)
    pts = np.column_stack([np.cos(th) * (1.0 + 0.3 * th), np.sin(th)])
    eps = np.array([np.hypot(*np.ptp(pts, axis=0)) / 30000.0])
    tracemalloc.start()
    try:
        counts = box_count(pts, eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert np.array_equal(counts, _reference_box_count(pts, eps, 4, 0))


def test_grid_past_int32_keys_matches_sorting_reference():
    # a bounding grid of about 2^32 cells needs int64 keys, however few
    # cells the curve touches
    th = np.linspace(0.0, 2.5, 20)
    pts = np.column_stack([np.cos(th), np.sin(th)])
    eps = np.array([np.hypot(*np.ptp(pts, axis=0)) / 80000.0])
    counts = box_count(pts, eps, offsets=2)
    assert np.array_equal(counts, _reference_box_count(pts, eps, 2, 0))


@pytest.mark.parametrize(
    "eps, offsets",
    [
        ([0.1], 0),
        ([0.1], -1),
        ([-0.01, 0.1], 4),
        ([0.0], 1),
        ([np.nan], 1),
        ([np.inf], 1),
    ],
)
def test_box_count_validates_inputs(eps, offsets):
    pts = gen_chirp(0.5, 1.0, t_min=0.05)
    with pytest.raises(ValueError):
        box_count(pts, np.array(eps), offsets=offsets)


def test_counts_stable_under_generic_similarity():
    # non-dyadic scales can flip borderline cells through rounding, but only
    # a handful out of hundreds.
    pts = gen_chirp(0.5, 1.0, t_min=0.05)
    eps = np.array([0.04, 0.01])
    base = box_count(pts, eps, offsets=2, seed=3)
    scaled = box_count(pts * 3.7, eps * 3.7, offsets=2, seed=3)
    assert np.allclose(base, scaled, rtol=0.03)


def test_halved_grids_nest():
    # anchored cells of side eps tile those of side 2 eps exactly, so
    # N(2 eps) <= N(eps) <= 4 N(2 eps).
    pts = gen_chirp(0.5, 1.0, t_min=0.02)
    eps = 0.08 / 2.0 ** np.arange(5)
    counts = box_count(pts, eps, offsets=1)
    for coarse, fine in zip(counts[:-1], counts[1:]):
        assert coarse <= fine <= 4.0 * coarse


# --- estimate_dimension ---


def _counts_from_slopes(slopes, n0=1000.0, step=0.4):
    """Synthetic (eps, N) with prescribed local slopes on a uniform log grid."""
    x = step * np.arange(len(slopes) + 1)
    y = np.log(n0) + np.concatenate([[0.0], np.cumsum(np.asarray(slopes) * step)])
    return np.exp(-x), np.exp(y)


def test_pure_power_law_recovered_exactly():
    eps = np.geomspace(0.1, 1e-4, 12)
    counts = 3.0 * eps**-1.37
    est = estimate_dimension(eps, counts)
    assert est.d_hat == pytest.approx(1.37, abs=1e-12)
    assert not est.inconclusive
    assert est.r_squared == pytest.approx(1.0)
    assert est.fit_window == (pytest.approx(0.1), pytest.approx(1e-4))


def test_plateau_ignores_crossover_regime():
    # rectifiable shoulder (slope 1) followed by a long fractal plateau at
    # 1.5: the fit must land on the plateau, not average the two.
    eps, counts = _counts_from_slopes([1.0, 1.0, 1.0] + [1.5] * 8)
    est = estimate_dimension(eps, counts)
    assert est.d_hat == pytest.approx(1.5, abs=1e-9)
    assert not est.inconclusive
    assert est.fit_window[0] == pytest.approx(eps[3])


def test_equal_plateaus_prefer_smaller_eps():
    # two equally long runs at the median slope, split by one outlier: the
    # smallest-eps run wins because that is where asymptotics live.
    eps, counts = _counts_from_slopes([1.5] * 5 + [3.0] + [1.5] * 5)
    est = estimate_dimension(eps, counts)
    assert est.d_hat == pytest.approx(1.5, abs=1e-9)
    assert est.fit_window[0] == pytest.approx(eps[6])
    assert est.fit_window[1] == pytest.approx(eps[11])


def test_drifting_slopes_are_inconclusive():
    eps, counts = _counts_from_slopes(np.linspace(1.0, 2.0, 11))
    est = estimate_dimension(eps, counts)
    assert est.inconclusive
    # global fallback still reports the overall trend
    assert 1.3 < est.d_hat < 1.7


def test_min_run_is_honored():
    eps, counts = _counts_from_slopes([1.5] * 5 + [3.0] + [1.5] * 5)
    est = estimate_dimension(eps, counts, min_run=6)
    assert est.inconclusive


def test_too_few_pairs_rejected():
    eps = np.geomspace(0.1, 0.01, 7)
    with pytest.raises(ValueError):
        estimate_dimension(eps, eps**-1.0)


# --- sausage_area oracles ---


def test_point_neighborhood_is_a_disk():
    area = sausage_area(np.array([[0.2, -0.1]]), 0.05)
    assert area == pytest.approx(math.pi * 0.05**2, rel=0.03)


def test_segment_neighborhood_is_a_stadium():
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    eps = 0.02
    area = sausage_area(pts, eps)
    assert area == pytest.approx(2.0 * eps + math.pi * eps**2, rel=0.02)


def test_circle_neighborhood_is_an_annulus():
    th = np.linspace(0.0, 2.0 * math.pi, 513)
    pts = 0.5 * np.column_stack([np.cos(th), np.sin(th)])
    eps = 0.04
    area = sausage_area(pts, eps)
    assert area == pytest.approx(4.0 * math.pi * 0.5 * eps, rel=0.03)


def test_duplicate_geometry_does_not_double_count():
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    doubled = np.vstack([pts, [[np.nan, np.nan]], pts])
    assert sausage_area(doubled, 0.02) == sausage_area(pts, 0.02)


def test_isolated_point_adds_its_disk():
    # a NaN-isolated vertex is a capsule of length zero: one more disk
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [np.nan, np.nan], [0.5, 0.5]])
    eps = 0.02
    area = sausage_area(pts, eps)
    assert area == pytest.approx(2.0 * eps + 2.0 * math.pi * eps**2, rel=0.01)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.just(0.0), st.just(math.pi / 2.0), st.floats(-math.pi, math.pi)),
    st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    st.floats(1e-3, 1e-1),
    st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
)
def test_segment_neighborhood_at_any_angle_and_length(angle, length, eps, start):
    a = np.array(start)
    pts = np.array([a, a + length * np.array([math.cos(angle), math.sin(angle)])])
    exact = 2.0 * eps * length + math.pi * eps**2
    assert sausage_area(pts, eps) == pytest.approx(exact, rel=0.01)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nearly_horizontal_segment_counts_as_horizontal():
    # dy = 1e-310 is subnormal, and 1 / dy would overflow
    pts = np.array([[0.0, 0.0], [1.0, 1e-310]])
    assert sausage_area(pts, 0.01) == sausage_area(pts * [1.0, 0.0], 0.01)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=2, max_size=12
    ),
    st.floats(1e-2, 1e2),
    st.floats(1e-3, 1e-2),
)
@example(raw=[(0.6875, 0.75), (0.734375, 0.0), (0.734375, 0.75)], aspect=8.25, rel_eps=0.00390625)
def test_area_invariant_under_axis_swap(raw, aspect, rel_eps):
    # rows run along x only, so swapping the axes changes only the direction
    # the midpoint rule samples.  eps spans diam/1000 to diam/100, around the
    # content subcommand's default window.  Its error is largest where two
    # long, nearly parallel segments about eps apart run along the rows, one
    # straight edge buried in the other capsule: the explicit example read
    # 2.06% apart before such edges' bands were resampled, 0.06% after.
    # Over 1,500 random polylines the worst difference is 0.24%.
    pts = np.array(raw) * [1.0, aspect]
    diam = float(np.hypot(*np.ptp(pts, axis=0)))
    assume(diam > 1e-3)
    eps = rel_eps * diam
    area = sausage_area(pts, eps)
    assert sausage_area(pts[:, ::-1], eps) == pytest.approx(area, rel=0.02)


@pytest.mark.parametrize("frac", [0.2, 0.45, 0.8, 1.3, 1.9])
def test_overlapping_flat_segments_match_exact_union(frac):
    # two parallel unit segments delta apart: a rectangle of height
    # 2 eps + delta and, at the two ends, two disks less their lens.  Only
    # the lower segment's bottom edge and the upper one's top edge bound the
    # union, and the top edge falls inside a band between rows
    eps, delta = 0.01, frac * 0.01
    pts = np.array([[0.0, 0.3], [1.0, 0.3], [np.nan, np.nan], [0.0, 0.3], [1.0, 0.3]])
    pts[3:, 1] += delta
    half = delta / (2.0 * eps)
    lens = 2.0 * eps**2 * (math.acos(half) - half * math.sqrt(1.0 - half**2))
    exact = (2.0 * eps + delta) + 2.0 * math.pi * eps**2 - lens
    assert sausage_area(pts, eps) == pytest.approx(exact, rel=0.003)
    assert sausage_area(pts[:, ::-1], eps) == pytest.approx(exact, rel=0.003)


@st.composite
def _sausage_polylines(draw):
    """_polylines, then a NaN split and a subpath of flat capsules at y = 0.

    Each flat capsule rises by 0, a subnormal (dy = 1e-310 included) or
    1e-13, so it lies within the flat test |dy| <= 1e-12 (|dx| + eps).
    """
    pts = draw(_polylines())
    rises = draw(st.lists(st.sampled_from([0.0, 1e-310, -1e-310, 5e-324, 1e-13]), max_size=4))
    # x steps on the quarter lattice, short ones often: there the rise decides flatness
    step = st.one_of(st.sampled_from([0.0, 0.25, -0.25]), _LATTICE.map(lambda v: v / 4.0 - 7.5))
    steps = draw(st.lists(step, min_size=len(rises), max_size=len(rises)))
    flat = np.cumsum([[draw(_GENERIC), 0.0]] + [[dx, dy] for dx, dy in zip(steps, rises)], axis=0)
    return np.vstack([pts, [[math.nan, math.nan]], flat])


@settings(max_examples=300, deadline=None)
@given(
    _sausage_polylines(),
    st.lists(st.sampled_from([4.0, 1.0, 0.5, 0.3, 0.25]), min_size=2, max_size=2, unique=True),
    st.sampled_from([7, estimators._INTERVAL_BLOCK]),
)
def test_sausage_area_matches_the_row_length_reference(pts, epsilons, block):
    # the same intervals, so the same runs and the same sum: equal, not close
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "_INTERVAL_BLOCK", block)
        areas = [sausage_area(pts, eps) for eps in epsilons]
        mp.setattr(estimators, "_row_length", _reference_row_length)
        assert [sausage_area(pts, eps) for eps in epsilons] == areas


def test_interval_blocks_do_not_change_area(monkeypatch):
    # capsules are handled a block at a time and the blocks' runs merged;
    # the merged runs, and so the sum, are the same however the blocks fall
    pts = gen_chirp(0.5, 1.0, t_min=0.01)
    whole = sausage_area(pts, 0.01)
    monkeypatch.setattr(estimators, "_INTERVAL_BLOCK", 7)
    assert sausage_area(pts, 0.01) == whole


def test_raster_cap_raises_budget_error():
    # the unit segment meets 2 eps / h = 16 rows at eps 1e-4
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    sausage_area(pts, 1e-4, cell_cap=16)
    with pytest.raises(NumericBudgetError):
        sausage_area(pts, 1e-4, cell_cap=15)


@pytest.mark.parametrize("eps", [0.0, -0.01, np.nan, np.inf])
def test_sausage_and_content_reject_bad_eps(eps):
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="eps"):
        sausage_area(pts, eps)
    with pytest.raises(ValueError, match="eps"):
        estimate_content(pts, 1.0, np.array([0.02, eps]))


# --- estimate_content ---


def test_segment_content_at_true_dimension():
    # |A_eps| = 2 L eps + pi eps^2, so rho -> 2L at d = 1: nondegenerate with
    # M_hat close to 2.
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    eps = geometric_epsilons(2e-2, 2e-3, 8)
    est = estimate_content(pts, 1.0, eps)
    assert est.degenerate_verdict == "nondegenerate"
    assert est.M_hat == pytest.approx(2.0, rel=0.03)
    assert abs(est.log_exponent_hat) <= 0.25


def test_segment_with_understated_dimension_rises_to_infinity():
    # at d = 0.5 the normalization eps^(2-d) over-divides: rho ~ 2 eps^-0.5
    # blows up and the verdict must be degenerate-infinity.
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    eps = geometric_epsilons(2e-2, 2e-3, 8)
    est = estimate_content(pts, 0.5, eps)
    assert est.degenerate_verdict == "degenerate-infinity"
    assert est.log_exponent_hat > 0.5


def test_segment_with_overstated_dimension_falls_to_zero():
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    eps = geometric_epsilons(2e-2, 2e-3, 8)
    est = estimate_content(pts, 1.5, eps)
    assert est.degenerate_verdict == "degenerate-zero"
    assert est.log_exponent_hat < -0.5


def test_content_grid_must_allow_log_log():
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        estimate_content(pts, 1.0, np.array([0.5, 0.05]))


# --- synthetic generators ---


def test_chirp_endpoints_and_phase_resolution():
    pts = gen_chirp(0.5, 1.0, t_min=0.01)
    t = pts[:, 0]
    assert t[0] == 0.01 and t[-1] == 1.0
    assert np.all(np.diff(t) > 0)
    # vertex-to-vertex phase advance of sin(1/t) stays below ~1/8 radian
    assert np.max(np.abs(np.diff(1.0 / t))) <= 0.125 + 1e-6


def test_chirp_log_factor_applied():
    pts = gen_chirp(0.5, 1.0, l=2, t_min=0.01)
    t, y = pts[:, 0], pts[:, 1]
    expect = t**0.5 * np.log(1.0 / t) ** 2 * np.sin(1.0 / t)
    assert np.allclose(y, expect)


def test_chirp_validation_and_budget():
    with pytest.raises(ValueError):
        gen_chirp(1.5, 1.0)
    with pytest.raises(ValueError):
        gen_chirp(0.5, 1.0, l=-1)
    with pytest.raises(ValueError):
        gen_chirp(0.5, 1.0, t_min=2.0)
    with pytest.raises(NumericBudgetError):
        gen_chirp(0.5, 2.0, t_min=1e-4, max_points=10_000)


def test_spiral_radius_decreases_from_first_point():
    for l in (0, 1):
        pts = gen_spiral(0.5, 1.0, l=l, phi_max=50.0 * math.pi)
        radii = np.hypot(pts[:, 0], pts[:, 1])
        assert np.all(np.diff(radii) < 0)


def test_spiral_first_radius_matches_formula():
    pts = gen_spiral(0.5, 2.0, l=1, phi_max=50.0 * math.pi)
    phi1 = 1.05 * math.exp(1.0 / 0.5)
    expect = 2.0 * phi1**-0.5 * math.log(phi1)
    assert np.hypot(*pts[0]) == pytest.approx(expect, rel=1e-12)


def test_spiral_validation():
    with pytest.raises(ValueError):
        gen_spiral(0.0)
    with pytest.raises(ValueError):
        gen_spiral(0.5, m=-1.0)
    with pytest.raises(ValueError):
        gen_spiral(0.5, l=-1)
    with pytest.raises(ValueError):
        gen_spiral(0.5, phi_max=2.0 * math.pi)


def test_astring_resolves_requested_scale():
    pts = gen_astring(1.0, eps_min=1e-2)
    x = pts[:, 0]
    assert x[0] == 1.0
    assert np.all(np.diff(x) < 0)
    # omitted tail (0, K^-a) sits below eps_min / 2
    assert x[-1] <= 1e-2 / 2.0
    assert np.all(pts[:, 1] == 0.0)


def test_astring_validation_and_budget():
    with pytest.raises(ValueError):
        gen_astring(-1.0)
    with pytest.raises(ValueError):
        gen_astring(1.0, eps_min=0.0)
    with pytest.raises(NumericBudgetError):
        gen_astring(0.5, eps_min=1e-8, max_points=1000)
