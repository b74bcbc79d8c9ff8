"""Box dimension and Minkowski content measured from polyline geometry alone.

Nothing in this module knows about oscillatory integrals: the inputs are
plain (N, 2) vertex arrays.  That independence is the point - estimates made
here are compared against the analytic predictions as a cross-check, so the
two routes must not share assumptions.

Measurement pipeline:

* box_count     exact cell counts N(eps) for a family of grids, averaged
                over random grid translations to suppress lattice bias; a
                segment touches the cells of the pieces between its
                gridline crossings (and, at an exact corner crossing, the
                corner's cell): each crossing marks the cell it enters,
                and only segments with a crossing near a corner or an end
                sort their crossing parameters; one sort of their cell keys
                (int32 below 2^31 cells) deduplicates them;
* estimate_dimension
                log N vs log(1/eps) slope over an automatically selected
                plateau (curves built from integrals cross over from a
                rectifiable regime at coarse scales to the fractal regime,
                so fitting all scales would bias the slope);
* sausage_area  area of the eps-neighborhood, a union of capsules: rows
                eps/8 apart cut each capsule in one closed-form interval,
                and the area sums the lengths of each row's union;
* estimate_content
                normalized areas rho(eps) = |A_eps| / eps^(2-d) and a
                verdict on Minkowski degeneracy from their drift in
                log log(1/eps);
* gen_chirp / gen_spiral / gen_astring
                synthetic families with known dimension and content used to
                calibrate all of the above.

Points are rows; a NaN row splits a polyline into disjoint subpaths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from oscfract.phases import NumericBudgetError


@dataclass(frozen=True)
class DimensionEstimate:
    d_hat: float
    stderr: float
    fit_window: tuple[float, float]  # (eps_max, eps_min) actually used
    r_squared: float
    inconclusive: bool = False

    def to_dict(self) -> dict:
        return {
            "d_hat": self.d_hat,
            "stderr": self.stderr,
            "fit_window": list(self.fit_window),
            "r_squared": self.r_squared,
            "method": "box-count",
            "inconclusive": self.inconclusive,
        }


@dataclass(frozen=True)
class ContentEstimate:
    d_used: float
    M_hat: float
    log_exponent_hat: float
    degenerate_verdict: str  # nondegenerate | degenerate-infinity | degenerate-zero | inconclusive
    epsilons: np.ndarray
    rho: np.ndarray

    def to_dict(self) -> dict:
        return {
            "d_used": self.d_used,
            "M_hat": self.M_hat,
            "log_exponent_hat": self.log_exponent_hat,
            "degenerate_verdict": self.degenerate_verdict,
            "epsilons": [float(e) for e in self.epsilons],
            "rho": [float(r) for r in self.rho],
        }


def geometric_epsilons(eps_max: float, eps_min: float, count: int) -> np.ndarray:
    """Decreasing geometric grid of neighborhood radii."""
    check_grid(eps_max, eps_min, count)
    return np.geomspace(eps_max, eps_min, count)


def check_grid(eps_max: Optional[float], eps_min: Optional[float], count: Optional[int]) -> None:
    """geometric_epsilons' rules, on the arguments that are given (not None)."""
    if eps_max is not None and eps_min is not None and not 0 < eps_min < eps_max:
        raise ValueError(f"need 0 < eps_min < eps_max, got [{eps_min}, {eps_max}]")
    if count is not None and count < 2:
        raise ValueError(f"count must be >= 2, got {count}")


def check_fit_size(count: int) -> None:
    """estimate_dimension's rule: its plateau fit takes at least 8 (eps, N) pairs."""
    if count < 8:
        raise ValueError(f"need >= 8 (eps, N) pairs, got {count}")


def check_positive_epsilons(epsilons: np.ndarray) -> None:
    """box_count's rule, and estimate_content's first: a non-empty 1-D array of finite, positive eps."""
    if epsilons.ndim != 1 or epsilons.size == 0:
        raise ValueError(f"eps must be a non-empty 1-D array, got shape {epsilons.shape}")
    if not np.all(np.isfinite(epsilons) & (epsilons > 0)):
        raise ValueError(f"every eps must be finite and positive, got {epsilons}")


def check_content_epsilons(epsilons: np.ndarray) -> None:
    """estimate_content's rule: every eps finite, positive and below 1/e."""
    check_positive_epsilons(epsilons)
    if np.any(epsilons >= 1.0 / math.e):
        raise ValueError("content grid needs eps < 1/e so log log(1/eps) > 0")


def _finite_rows(polyline: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(points, segment index pairs); NaN rows split subpaths, and some row must be finite."""
    pts = np.asarray(polyline, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"polyline must be (N, 2), got {pts.shape}")
    ok = np.isfinite(pts).all(axis=1)
    if not ok.any():
        raise ValueError("polyline has no finite points")
    idx = np.nonzero(ok[:-1] & ok[1:])[0]
    # segment endpoints must be renumbered into the compacted point array
    new_idx = np.cumsum(ok) - 1
    seg = (
        np.column_stack([new_idx[idx], new_idx[idx + 1]])
        if idx.size
        else np.empty((0, 2), int)
    )
    return pts[ok], seg


# gridline crossings expanded per block: each block's float temporaries hold
# about _CROSSING_BLOCK values (64 KiB each), small enough to stay in cache
_CROSSING_BLOCK = 1 << 13

# relative margin around segment ends and gridlines, in units of the grid's
# size (see _supercover_count): 512 times the unit roundoff 2^-53
_NEAR = 2.0**-44


def _blocks(counts: np.ndarray, size: int) -> list[tuple[int, int]]:
    """(i0, i1) ranges of whole items, about size counts each.

    A cut falls before the first item whose running count reaches each
    multiple of size, so an item of more than size counts stands alone.
    """
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    if total <= size:
        return [(0, len(counts))] if len(counts) else []
    cuts = np.searchsorted(ends, np.arange(size, total, size))
    bounds = np.unique(np.concatenate([[0], cuts, [len(counts)]])).tolist()
    return list(zip(bounds[:-1], bounds[1:]))


def _gridlines(P: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lo, cnt), per axis: the lowest gridline in [min, max] of segments P->Q and how many lie there.

    A segment at rest along an axis crosses none of its gridlines.
    """
    lo = np.ceil(np.minimum(P, Q))
    cnt = ((np.floor(np.maximum(P, Q)) - lo + 1.0) * (P != Q)).astype(np.int64)
    return lo, cnt


def _pieces(P: np.ndarray, d: np.ndarray, lo: np.ndarray, cnt: np.ndarray) -> np.ndarray:
    """Midpoints of the pieces of segments P + t d, t in [0, 1], by the defining rule.

    Arrays are axis first and (2, M): lo is each segment's lowest gridline
    crossed and cnt the number crossed, per axis.  Each segment's crossing
    parameters t = (k - P) / d, clipped to [0, 1], are sorted together with
    0 and 1, and every two neighbours bound one piece; a zero-length piece
    (a corner crossing, or a crossing at an end) gives the point itself.
    """
    m = P.shape[1]
    sid, ts = [np.arange(m)] * 2, [np.zeros(m), np.ones(m)]
    for a in range(2):
        n = cnt[a]
        s = np.repeat(sid[0], n)
        k = np.repeat(lo[a] - (np.cumsum(n) - n), n) + np.arange(len(s))
        ts.append(np.clip((k - P[a, s]) / d[a, s], 0.0, 1.0))
        sid.append(s)
    t, s = np.concatenate(ts), np.concatenate(sid)
    order = np.lexsort((t, s))
    t, s = t[order], s[order]
    same = s[:-1] == s[1:]
    tm, s = (0.5 * (t[:-1] + t[1:]))[same], s[:-1][same]
    return P[:, s] + tm * d[:, s]


def _supercover_count(P: np.ndarray, Q: np.ndarray, pts: np.ndarray, shape: tuple[int, int]) -> int:
    """Number of distinct half-open unit cells touched by segments P->Q plus pts.

    Arrays are axis first: P and Q are (2, M), pts is (2, N) and holds every
    segment end, and all lie in [0, width) x [0, height) for shape =
    (width, height).  The cells are those of the defining rule (_pieces):
    cut each segment at its gridline crossings and floor each piece's
    midpoint.  Away from corners and ends a piece lies in the cell that the
    crossing before it enters, so each crossing gives one key: a crossing
    of axis-a gridline k marks cell k along a (k - 1 when the segment moves
    backwards) and floor(o_j) along the other axis o, with o_j = o_0 +
    j d_o / |d_a| advanced from the segment's first crossing by the
    crossing index j.  A segment's first piece lies in its start vertex's
    cell, which pts marks.

    A crossing is flagged when it lies within _NEAR size of P or Q, or
    within _NEAR (size + n) max(1, |d_o / d_a|) of a gridline of o, where
    size = max(width, height) bounds every coordinate and n > j counts the
    segment's crossings of that axis.  Elsewhere the pieces on either side
    are long along both axes next to the rounding of t, o_j and the
    midpoints, a few ulps of size + j, so both rules give the same cell
    (P + d, where the defining rule's pieces end, lies within 2^-53 size of
    Q).  A flagged crossing's key is replaced by one already marked, and its
    segment takes the defining rule, whose cells include the keys of its
    other crossings.

    The crossings of axis 1 are those of axis 0 on the segment with its
    coordinates swapped, so the half-segments [axis 0 | swapped] share one
    set-up, and it runs only on those that cross a gridline: one at rest
    along its axis, or with no gridline of it in [min, max], adds no key.
    Each half-segment's key base and step carry its axis's weight, a
    scalar per axis, and the crossings are expanded in place a block of
    about _CROSSING_BLOCK at a time, axis 0's ahead of axis 1's, whose
    floor(o_j) alone is scaled by the stride.  A marked cell (i, j) becomes
    the key (i + 2) (height + 4) + (j + 2), built exactly in float64
    (box_count refuses grids whose keys could pass 2^53) and written as
    int32 when (width + 4) (height + 4) < 2^31 and int64 otherwise into one
    array sized for every vertex and crossing; the keys are sorted once and
    the distinct ones counted, so memory grows with the marks, not with the
    bounding box.
    """
    width, height = shape
    stride = height + 4
    dtype = np.int32 if (width + 4) * stride < 2**31 else np.int64

    def key(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return (np.floor(x) * stride + np.floor(y) + (2 * stride + 2)).astype(dtype)

    M, N = P.shape[1], pts.shape[1]
    lo, cnt = _gridlines(P, Q)
    sel = np.flatnonzero(cnt)
    split = int(np.searchsorted(sel, M))  # the half-segments of axis 0 come first
    other = sel + M
    other[split:] -= 2 * M
    n, lo = cnt.reshape(-1)[sel], lo.reshape(-1)[sel]
    Pa, Qa = P.reshape(-1)[sel], Q.reshape(-1)[sel]
    Po, Qo = P.reshape(-1)[other], Q.reshape(-1)[other]
    del cnt, other  # the full-length arrays go before the set-up's
    d = Qa - Pa
    back = d < 0
    hi = lo + (n - 1)
    first, last = np.where(back, hi, lo), np.where(back, lo, hi)
    gap = np.abs(first - Pa)
    size = float(max(shape))
    end = (gap < _NEAR * size) | (np.abs(last - Qa) < _NEAR * size)
    # with no crossing near an end, |d_a| > 2 _NEAR size and the quotient is finite
    r = np.divide(Qo - Po, np.abs(d), out=np.zeros(len(d)), where=~end)
    o0 = Po + gap * r
    # |frac(o_j) - 1/2| above half flags a crossing; half = -1 flags them all
    half = np.where(end, -1.0, 0.5 - _NEAR * (size + n) * np.maximum(1.0, np.abs(r)))
    # a crossing's key is base + j inc + floor(o_j) (axis 0) or stride floor(o_j) (axis 1)
    base = first - back + 2.0
    inc = np.where(back, -1.0, 1.0)
    base[:split] *= stride
    base[:split] += 2.0
    base[split:] += 2.0 * stride
    inc[:split] *= stride
    del Pa, Qa, Po, Qo, d, back, hi, first, last, gap, end, lo  # the loop's temporaries reuse their memory
    cells = np.empty(N + int(n.sum()), dtype)
    cells[:N] = key(*pts)
    pos = N
    flagged = []
    for b0, b1 in _blocks(n, _CROSSING_BLOCK):
        nb = n[b0:b1]
        stop = np.cumsum(nb)
        sid = np.repeat(np.arange(b1 - b0), nb)  # the half-segment of each crossing
        j = np.arange(stop[-1], dtype=float)
        j -= (stop - nb)[sid]
        o = r[b0:b1][sid]
        o *= j
        o += o0[b0:b1][sid]
        fo = np.floor(o)
        k = inc[b0:b1][sid]
        k *= j
        k += base[b0:b1][sid]
        o -= fo
        fo[int(nb[: max(split - b0, 0)].sum()) :] *= stride  # axis 1's crossings, after axis 0's
        k += fo
        o -= 0.5
        near = np.flatnonzero(np.abs(o, out=o) > half[b0:b1][sid])
        out = cells[pos : pos + len(k)]
        out[:] = k
        if near.size:
            out[near] = cells[0]
            flagged.append(sel[b0:b1][sid[near]] % M)
        pos += len(k)
    if flagged:
        g = np.unique(np.concatenate(flagged))
        Pg, Qg = P[:, g], Q[:, g]
        lo, cnt = _gridlines(Pg, Qg)
        marks = [cells]
        for g0, g1 in _blocks(cnt.sum(axis=0), _CROSSING_BLOCK):
            s = slice(g0, g1)
            marks.append(key(*_pieces(Pg[:, s], Qg[:, s] - Pg[:, s], lo[:, s], cnt[:, s])))
        cells = np.concatenate(marks)
    cells.sort()
    return 1 + int(np.count_nonzero(cells[1:] != cells[:-1]))


def box_count(
    polyline: np.ndarray,
    epsilons: np.ndarray,
    offsets: int = 4,
    seed: int = 0,
    connect: bool = True,
) -> np.ndarray:
    """N(eps): cells of side eps meeting the polyline, mean over grid offsets.

    The grid is anchored at the bounding-box corner, so scaling the polyline
    and the eps values together reproduces the counts exactly.  offsets > 1
    adds random sub-cell grid translations (seeded) and averages.  Every
    eps must be finite and positive, and offsets at least 1.  Each grid's
    count is _supercover_count's: the cells of the pieces between gridline
    crossings, read off the cell each crossing enters, with the crossing
    parameters sorted only for segments that cross a gridline close to a
    cell corner or to one of their ends.
    """
    epsilons = np.asarray(epsilons, dtype=float)
    check_positive_epsilons(epsilons)
    if offsets < 1:
        raise ValueError(f"offsets must be >= 1, got {offsets}")
    pts, seg = _finite_rows(polyline)
    lo = pts.min(axis=0)
    diam = float(np.hypot(*(pts.max(axis=0) - lo)))
    # a single point (diam 0) occupies one cell at every scale; otherwise
    # eps beyond the object size would make the count meaningless
    if diam > 0.0 and epsilons.max() > diam:
        raise ValueError(
            f"eps {epsilons.max():g} exceeds bounding-box diameter {diam:g}"
        )
    # axis first and contiguous, so each grid's gathers and shifts run along rows
    X = np.ascontiguousarray((pts - lo).T)
    # grid i is (width, height) = shapes[:, i] cells; its cell keys, below
    # (width + 4)(height + 4), are built in float64, and the smallest eps's is the widest
    shapes = np.ceil(X.max(axis=1)[:, None] / epsilons) + 3.0
    top = shapes.max(axis=1)
    if not np.all(top < 2.0**53) or (int(top[0]) + 4) * (int(top[1]) + 4) > 2**53:
        raise ValueError(
            f"eps {epsilons.min():g} needs a grid of {top[0]:.0f} x {top[1]:.0f} cells, too many "
            "for exact cell keys: (width + 4)(height + 4) must not pass 2^53; raise eps"
        )
    rng = np.random.default_rng(seed)
    shifts = np.vstack([[0.0, 0.0], rng.random((offsets - 1, 2))])[:, :, None]
    if not connect:
        seg = seg[:0]
    ends = np.ascontiguousarray(seg.T)
    counts = np.empty(len(epsilons))
    for i, eps in enumerate(epsilons):
        U = X / eps
        shape = (int(shapes[0, i]), int(shapes[1, i]))
        UP, UQ = U.take(ends[0], axis=1), U.take(ends[1], axis=1)
        acc = 0
        for off in shifts:
            acc += _supercover_count(UP + off, UQ + off, U + off, shape)
        counts[i] = acc / offsets
    return counts


def estimate_dimension(
    epsilons: np.ndarray, counts: np.ndarray, min_run: int = 4
) -> DimensionEstimate:
    """Slope of log N vs log(1/eps) over the longest stable-slope plateau.

    Local slopes within 0.05 of their median form candidate runs; the
    longest run (smallest-eps run on ties, where the asymptotics live) is
    fitted by least squares.  No run of min_run slopes -> the global fit is
    returned with inconclusive=True.
    """
    epsilons = np.asarray(epsilons, dtype=float)
    counts = np.asarray(counts, dtype=float)
    check_fit_size(len(epsilons))
    x = np.log(1.0 / epsilons)
    y = np.log(counts)
    local = np.diff(y) / np.diff(x)
    med = np.median(local)
    good = np.abs(local - med) <= 0.05
    best: Optional[tuple[int, int]] = None
    i = 0
    while i < len(good):
        if good[i]:
            j = i
            while j + 1 < len(good) and good[j + 1]:
                j += 1
            if best is None or (j - i) >= (best[1] - best[0]):
                best = (i, j)  # >= keeps the latest (smallest-eps) run on ties
            i = j + 1
        else:
            i += 1
    inconclusive = best is None or (best[1] - best[0] + 1) < min_run
    sl = slice(None) if inconclusive else slice(best[0], best[1] + 2)
    xs, ys = x[sl], y[sl]
    A = np.column_stack([xs, np.ones_like(xs)])
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    resid = ys - A @ coef
    dof = max(len(xs) - 2, 1)
    sxx = float(np.sum((xs - xs.mean()) ** 2))
    stderr = float(np.sqrt(np.sum(resid**2) / dof / sxx))
    sstot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / sstot if sstot > 0 else 1.0
    return DimensionEstimate(
        float(coef[0]),
        stderr,
        (float(epsilons[sl][0]), float(epsilons[sl][-1])),
        r2,
        inconclusive,
    )


# sausage-area rows lie eps * _ROW_STEP apart; blocks of whole capsules with
# about _INTERVAL_BLOCK row intervals each bound the working arrays.  A band
# between rows that holds a long flat capsule edge is resampled with
# _REFINE rows
_ROW_STEP = 1.0 / 8.0
_INTERVAL_BLOCK = 1 << 16
_REFINE = 8


def _union(L: np.ndarray, R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The disjoint runs [L, R], in order, whose union is that of the intervals."""
    order = np.argsort(L)
    L, R = L[order], np.maximum.accumulate(R[order])
    first = np.flatnonzero(np.append(True, L[1:] > R[:-1]))
    return L[first], R[np.append(first[1:], len(L)) - 1]


def _row_length(A, D, eps, lo, span, y, weight, s0, cnt) -> float:
    """Weighted sum of the lengths of each row's union of capsule intervals.

    Row k lies y[k] above lo_y and counts weight[k] times; capsule i meets
    rows s0[i] <= k < s0[i] + cnt[i].  Row k's intervals are shifted k span
    to the right, so one sort orders every row's intervals.  The terms that
    depend only on the capsule are computed once per capsule and gathered
    for each of its rows.
    """
    (ax, ay), (dx, dy) = A.T, D.T
    # over the disks centred at A + s D, the interval's left end
    # ax + s dx - sqrt(eps^2 - (v - s dy)^2) is convex in s, least at
    # v - s dy = eps dx sgn(dy) / |D|; clipped to [0, 1], that s stays on
    # a disk that reaches the row, for every row the capsule meets.  The
    # right end mirrors it.  A flat capsule (|dy| <= 1e-12 (|dx| + eps),
    # where 1 / dy could overflow) takes each end from A or A + D, outward
    flat = np.abs(dy) <= 1e-12 * (np.abs(dx) + eps)
    inv = 1.0 / np.where(flat, 1.0, dy)
    u = eps * dx * np.sign(dy) / np.where(flat, 1.0, np.hypot(dx, dy))
    below = lo[1] - ay
    # per end, left then right: its side, the -u or +u added to v (v + (-u)
    # is v - u exactly) and a flat capsule's s
    ends = ((-1.0, -u, dx < 0), (1.0, u, dx > 0))
    runs = []
    for b0, b1 in _blocks(cnt, _INTERVAL_BLOCK):
        nb = cnt[b0:b1]
        c = np.repeat(np.arange(b0, b1), nb)
        k = np.arange(len(c)) - np.repeat(np.cumsum(nb) - nb - s0[b0:b1], nb)
        v = below[c] + y[k]  # the row's height above A
        fc, ic, axc, dxc, dyc = flat[c], inv[c], ax[c], dx[c], dy[c]
        shift = k * span - lo[0]
        x = []
        for side, su, sf in ends:
            s = np.clip(np.where(fc, sf[c], (v + su[c]) * ic), 0.0, 1.0)
            w = np.sqrt(np.maximum(eps * eps - (v - s * dyc) ** 2, 0.0))
            x.append(axc + s * dxc + side * w + shift)
        runs.append(_union(*x))
    L, R = _union(*map(np.concatenate, zip(*runs)))
    # row k's runs lie in [k span, (k + 1) span - 2 eps]
    row = np.floor((L + eps) / span).astype(np.int64)
    return float(np.sum(weight[row] * (R - L)))


def _edge_bands(A, D, ybot, eps, h) -> np.ndarray:
    """Bands [b h, (b + 1) h] above lo_y that hold a long flat capsule edge.

    A capsule with |dy| < eps/2 has straight edges that cross at most five
    bands.  Where one of them bounds the union alone (the other buried in a
    neighbour), the row length jumps, or ramps within a band or two, by up
    to |dx|, and the midpoint rule is off by up to h |dx| / 2 unless the
    edge lies on a band's border.  Only edges longer than 4 eps are taken:
    a finely sampled curve has many short flat segments whose errors fall
    at scattered phases, and resampling all their bands would multiply the
    work by up to four (gen_spiral(0.5) at eps 0.002).
    """
    keep = (np.abs(D[:, 1]) < 0.5 * eps) & (np.abs(D[:, 0]) > 4.0 * eps)
    lo_edge = np.concatenate([ybot[keep] - eps, ybot[keep] + eps]) / h
    hi_edge = lo_edge + np.tile(np.abs(D[keep, 1]), 2) / h
    # an edge on a border (to rounding) is counted right on both sides
    first = np.floor(lo_edge + 1e-9).astype(np.int64)
    width = np.maximum(np.ceil(hi_edge - 1e-9).astype(np.int64) - first, 0)
    start = np.repeat(first - np.cumsum(width) + width, width)
    return np.unique(start + np.arange(len(start)))


def sausage_area(polyline: np.ndarray, eps: float, cell_cap: int = 120_000_000) -> float:
    """Area of the eps-neighborhood of the polyline, a union of capsules.

    Each segment's neighborhood is a capsule, and each lone vertex's (one
    that no segment uses) a disk, a capsule of length zero.  Rows spaced
    h = eps/8 cut each capsule in one interval whose ends have a closed
    form, so the area is h times the summed lengths of each row's union of
    intervals: exact along the rows, the midpoint rule across them.  The
    rule is off by up to h/2 times the length of a straight capsule edge
    that runs along a band between rows, so such bands (see _edge_bands)
    take rows h/8 apart instead of their own row.
    Against exact shapes: a single segment of any angle and length is
    within 0.6% of 2 eps L + pi eps^2; a disk alone reads 0.5% high, and
    between 1.7% low and 0.5% high where other geometry sets its rows; the
    neighborhood of a 512-gon circle of radius 12.5 eps is within 0.003%
    of its annulus.  cell_cap bounds the number of row intervals (one per
    capsule per row it meets); above it NumericBudgetError is raised.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive, got {eps}")
    pts, seg = _finite_rows(polyline)
    lone = np.ones(len(pts), dtype=bool)
    lone[seg.ravel()] = False
    A = np.concatenate([pts[seg[:, 0]], pts[lone]])
    D = np.concatenate([pts[seg[:, 1]], pts[lone]]) - A
    h = eps * _ROW_STEP
    lo = pts.min(axis=0) - eps
    ybot = np.minimum(A[:, 1], A[:, 1] + D[:, 1]) - lo[1]
    ytop = ybot + np.abs(D[:, 1])
    # rows at y = (j + 1/2) h above lo_y, weighing h, except that each band
    # takes _REFINE rows h/_REFINE apart instead, weighing h/_REFINE
    bands = _edge_bands(A, D, ybot, eps, h)
    coarse = np.setdiff1d(np.arange(math.ceil(np.max(ytop + eps) / h) + 1), bands)
    fine = (bands[:, None] * _REFINE + np.arange(_REFINE)).ravel()
    hf = h / _REFINE
    y = np.concatenate([(coarse + 0.5) * h, (fine + 0.5) * hf])
    order = np.argsort(y)
    y, weight = y[order], np.repeat([h, hf], [len(coarse), len(fine)])[order]
    # capsule i meets the rows within eps of it
    s0 = np.searchsorted(y, ybot - eps)
    cnt = np.searchsorted(y, ytop + eps, side="right") - s0
    total = int(cnt.sum())
    if total > cell_cap:
        raise NumericBudgetError(
            f"sausage area needs {total} row intervals, over the cap {cell_cap}; "
            "raise eps or the cap"
        )
    span = float(np.ptp(pts[:, 0])) + 4.0 * eps
    return _row_length(A, D, eps, lo, span, y, weight, s0, cnt)


def estimate_content(
    polyline: np.ndarray,
    d: float,
    epsilons: np.ndarray,
    cell_cap: int = 120_000_000,
) -> ContentEstimate:
    """Normalized neighborhood areas rho(eps) = |A_eps| / eps^(2-d) and verdict.

    M_hat is the median of rho over the smallest-eps third.  Degeneracy shows
    up as drift of rho against log(1/eps): the fitted exponent l of
    rho ~ [log(1/eps)]^l separates nondegenerate (|l| <= 0.25) from
    degenerate-infinity (l >= 0.5, rho rising) and degenerate-zero
    (l <= -0.5, rho falling); anything between is inconclusive.
    """
    epsilons = np.asarray(epsilons, dtype=float)
    check_content_epsilons(epsilons)
    areas = np.array([sausage_area(polyline, e, cell_cap) for e in epsilons])
    rho = areas / epsilons ** (2.0 - d)
    third = max(2, len(epsilons) // 3)
    small = np.argsort(epsilons)[:third]
    M_hat = float(np.median(rho[small]))
    x = np.log(np.log(1.0 / epsilons))
    slope = float(np.polyfit(x, np.log(rho), 1)[0])
    rising = rho[np.argmin(epsilons)] > rho[np.argmax(epsilons)]
    if abs(slope) <= 0.25:
        verdict = "nondegenerate"
    elif slope >= 0.5 and rising:
        verdict = "degenerate-infinity"
    elif slope <= -0.5 and not rising:
        verdict = "degenerate-zero"
    else:
        verdict = "inconclusive"
    return ContentEstimate(float(d), M_hat, slope, verdict, epsilons, rho)


def gen_chirp(
    alpha: float,
    beta: float,
    l: int = 0,
    t_min: float = 0.002,
    max_points: int = 2_000_000,
) -> np.ndarray:
    """Graph polyline of t^alpha [log(1/t)]^l sin(t^-beta) on [t_min, 1].

    Adaptive stepping dt <= t^(beta+1)/(8 beta) keeps the phase advance of
    sin(t^-beta) below 1/8 radian between vertices.
    """
    if not 0 < alpha <= beta:
        raise ValueError(f"need 0 < alpha <= beta, got alpha={alpha}, beta={beta}")
    if l < 0:
        raise ValueError(f"l must be a nonnegative integer, got {l}")
    if not 0 < t_min < 1:
        raise ValueError(f"t_min must be in (0, 1), got {t_min}")
    ts = [t_min]
    t = t_min
    coarse = (1.0 - t_min) / 256.0
    while t < 1.0:
        t += min(t ** (beta + 1.0) / (8.0 * beta), coarse)
        ts.append(min(t, 1.0))
        if len(ts) > max_points:
            raise NumericBudgetError(
                f"chirp needs more than {max_points} points at t_min={t_min}"
            )
    tv = np.array(ts)
    y = tv**alpha * np.sin(tv**-beta)
    if l:
        y = y * np.log(1.0 / tv) ** l
    return np.column_stack([tv, y])


def gen_spiral(
    alpha: float,
    m: float = 1.0,
    l: int = 0,
    phi_max: float = 200.0 * math.pi,
) -> np.ndarray:
    """Spiral polyline r = m phi^-alpha [log phi]^l, angular step pi/64.

    Starts at phi1 = 1.05 max(e, e^(l/alpha)) so the radius decreases from
    the first winding on even when the log factor is present.
    """
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if m <= 0:
        raise ValueError(f"m must be positive, got {m}")
    if l < 0:
        raise ValueError(f"l must be a nonnegative integer, got {l}")
    phi1 = 1.05 * max(math.e, math.exp(l / alpha))
    if phi_max <= 2.0 * math.pi + phi1:
        raise ValueError(f"phi_max {phi_max:g} leaves less than one winding")
    n = int(math.ceil((phi_max - phi1) / (math.pi / 64.0))) + 1
    phi = np.linspace(phi1, phi_max, n)
    r = m * phi ** (-alpha)
    if l:
        r = r * np.log(phi) ** l
    return np.column_stack([r * np.cos(phi), r * np.sin(phi)])


def gen_astring(a: float, eps_min: float = 1e-4, max_points: int = 2_000_000) -> np.ndarray:
    """Point set {k^-a} on the x-axis, dense enough to resolve eps_min.

    K is chosen so the omitted tail (0, K^-a) sits below eps_min/2: at every
    measured scale the truncation then costs at most one box, and counts
    match the infinite string.
    """
    if a <= 0:
        raise ValueError(f"a must be positive, got {a}")
    if eps_min <= 0:
        raise ValueError(f"eps_min must be positive, got {eps_min}")
    K = int(math.ceil((2.0 / eps_min) ** (1.0 / a))) + 1
    if K > max_points:
        raise NumericBudgetError(
            f"a-string needs {K} points to resolve eps_min={eps_min:g} at a={a}"
        )
    x = np.arange(1, K + 1, dtype=float) ** (-a)
    return np.column_stack([x, np.zeros_like(x)])
