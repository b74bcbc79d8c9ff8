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
                corner's cell), found for both axes in one pass without
                sorting, and deduplicated by one sort of their cell keys;
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

from oscfract.integrals import NumericBudgetError


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
    if not 0 < eps_min < eps_max:
        raise ValueError(f"need 0 < eps_min < eps_max, got [{eps_min}, {eps_max}]")
    if count < 2:
        raise ValueError(f"count must be >= 2, got {count}")
    return np.geomspace(eps_max, eps_min, count)


def _finite_rows(polyline: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(points, segment index pairs); NaN rows split subpaths."""
    pts = np.asarray(polyline, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"polyline must be (N, 2), got {pts.shape}")
    ok = np.isfinite(pts).all(axis=1)
    idx = np.nonzero(ok[:-1] & ok[1:])[0]
    # segment endpoints must be renumbered into the compacted point array
    new_idx = np.cumsum(ok) - 1
    seg = (
        np.column_stack([new_idx[idx], new_idx[idx + 1]])
        if idx.size
        else np.empty((0, 2), int)
    )
    return pts[ok], seg


# gridline crossings handled per block of segments: bounds the working arrays
_CROSSING_BLOCK = 1 << 15


def _supercover_count(P: np.ndarray, Q: np.ndarray, pts: np.ndarray, height: int) -> int:
    """Number of distinct half-open unit cells touched by segments P->Q plus pts.

    Arrays are axis first: P and Q are (2, M), pts is (2, N).  The gridline
    crossings at t = (k - P) / (Q - P), clipped to [0, 1], cut each segment
    into pieces; a piece's cell is the floor of its midpoint, and a
    zero-length piece (crossings of both axes at one t, or a crossing at
    t = 1) contributes the floor of P + t (Q - P), so a segment through a
    cell corner touches the corner's cell too.  The crossings of axis 1 are
    those of axis 0 on the segment with its coordinates swapped, so both
    axes run through one pass over the stacked [axis 0 | swapped] segments.
    No sort per segment: the piece after a crossing ends at the nearer of
    the next crossing on the same axis (the next one generated) and the
    next on the other axis, found by comparing the parameters of the two or
    three gridlines around the crossing point with t.  Comparing parameters
    rather than reading floor(y) keeps exact corner passes exact when
    rounding moves the crossing point off the corner.  A marked cell (i, j)
    becomes the int64 key (i + 2) (height + 4) + (j + 2), a margin of 2
    either side of the cell indices; the keys are sorted once and the
    distinct ones counted, so memory grows with the marks, not with the
    bounding box.
    """
    stride = height + 4
    keys = []

    def mark(x: np.ndarray, y: np.ndarray) -> None:
        keys.append((np.floor(x) * stride + np.floor(y) + (2 * stride + 2)).astype(np.int64))

    mark(*pts)
    d = Q - P
    lo = np.ceil(np.minimum(P, Q))
    hi = np.floor(np.maximum(P, Q))
    cnt = np.where(d != 0, np.maximum(0, hi - lo + 1), 0).astype(np.int64)
    # first gridline crossed, in the order of t
    first = np.where(d > 0, lo, hi)
    # blocks of whole segments with about _CROSSING_BLOCK crossings each
    ends = np.cumsum(cnt.sum(axis=0))
    total = int(ends[-1]) if len(ends) else 0
    cuts = np.searchsorted(ends, np.arange(_CROSSING_BLOCK, total, _CROSSING_BLOCK))
    bounds = [0, *np.unique(cuts), P.shape[1]]
    for s0, s1 in zip(bounds[:-1], bounds[1:]):
        Pb, db = P[:, s0:s1], d[:, s0:s1]
        m = s1 - s0
        # end of the first piece: the first crossing with t > 0, or 1
        t_first = np.ones(2 * m)
        n = cnt[:, s0:s1].ravel()  # per segment of [axis 0 | swapped]
        tot = int(n.sum())
        if tot:
            split = int(n[:m].sum())  # crossings of axis 0 come first
            end = np.cumsum(n)
            start = end - n
            Pa, da = np.repeat(Pb.ravel(), n), np.repeat(db.ravel(), n)
            Po, do = np.repeat(Pb[::-1].ravel(), n), np.repeat(db[::-1].ravel(), n)
            # gridline k of each crossing: first + step * (its index in the segment)
            step = np.sign(db.ravel())
            k = np.repeat(first[:, s0:s1].ravel() - step * start, n) + np.repeat(step, n) * np.arange(tot)
            t = np.clip((k - Pa) / da, 0.0, 1.0)
            t_next = np.empty(tot)
            t_next[:-1] = t[1:]
            crossed = n > 0
            t_next[end[crossed] - 1] = 1.0
            head = start[crossed]
            t_first[crossed] = np.where(t[head] > 0, t[head], t_next[head])
            # gridlines of the other axis around the crossing point, in the
            # order they are crossed; those beyond the segment clip to 0 or
            # 1 and never end a piece early, and with no motion along the
            # other axis (d = 0, or so little that the quotient overflows)
            # the next one divides to +inf and clips to 1
            back = do < 0
            so = np.where(back, -1.0, 1.0)
            j0 = np.floor(Po + t * do) + back
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                t0 = np.clip((j0 - Po) / do, 0.0, 1.0)
                t1 = np.clip((j0 + so - Po) / do, 0.0, 1.0)
                late = np.nonzero(t1 <= t)[0]
                t2 = np.clip((j0[late] + 2.0 * so[late] - Po[late]) / do[late], 0.0, 1.0)
            t_other = np.where(t0 > t, t0, t1)
            t_other[late] = t2
            corner = np.nonzero((t0 == t) | (t1 == t))[0]
            np.minimum(t_next, t_other, out=t_next)
            tm = 0.5 * (t + t_next)
            a, o = Pa + tm * da, Po + tm * do
            mark(a[:split], o[:split])  # in (x, y) order
            mark(o[split:], a[split:])
            tc, c = t[corner], np.searchsorted(corner, split)
            a, o = Pa[corner] + tc * da[corner], Po[corner] + tc * do[corner]
            mark(a[:c], o[:c])
            mark(o[c:], a[c:])
        mark(*(Pb + (0.5 * np.minimum(t_first[:m], t_first[m:])) * db))
    cells = np.concatenate(keys)
    keys.clear()
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
    eps must be finite and positive, and offsets at least 1.
    """
    epsilons = np.asarray(epsilons, dtype=float)
    if not np.all(np.isfinite(epsilons) & (epsilons > 0)):
        raise ValueError(f"every eps must be finite and positive, got {epsilons}")
    if offsets < 1:
        raise ValueError(f"offsets must be >= 1, got {offsets}")
    pts, seg = _finite_rows(polyline)
    if len(pts) < 1:
        raise ValueError("polyline has no finite points")
    lo = pts.min(axis=0)
    diam = float(np.hypot(*(pts.max(axis=0) - lo)))
    # a single point (diam 0) occupies one cell at every scale; otherwise
    # eps beyond the object size would make the count meaningless
    if diam > 0.0 and epsilons.max() > diam:
        raise ValueError(
            f"eps {epsilons.max():g} exceeds bounding-box diameter {diam:g}"
        )
    rng = np.random.default_rng(seed)
    shifts = np.vstack([[0.0, 0.0], rng.random((offsets - 1, 2))])[:, :, None]
    if not connect:
        seg = seg[:0]
    counts = np.empty(len(epsilons))
    for i, eps in enumerate(epsilons):
        U = ((pts - lo) / eps).T
        height = int(np.ceil(U[1].max())) + 3
        UP, UQ = U[:, seg[:, 0]], U[:, seg[:, 1]]
        acc = 0
        for off in shifts:
            acc += _supercover_count(UP + off, UQ + off, U + off, height)
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
    if len(epsilons) < 8:
        raise ValueError(f"need >= 8 (eps, N) pairs, got {len(epsilons)}")
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


def _row_length(A, D, eps, lo, span, step, s0, cnt, rows=None) -> float:
    """Summed length of each row's union of capsule intervals.

    Row r lies at y = lo_y + (r + 1/2) step.  The rows taken are rows[k]
    (every row r = k when rows is None), and capsule i meets those at
    positions s0[i] <= k < s0[i] + cnt[i].  Row k's intervals are shifted
    k span to the right, so one sort orders every row's intervals.
    """
    ends = np.cumsum(cnt)
    if ends[-1] == 0:
        return 0.0
    cuts = np.searchsorted(ends, np.arange(_INTERVAL_BLOCK, ends[-1], _INTERVAL_BLOCK))
    bounds = np.unique(np.concatenate([[0], cuts, [len(A)]]))
    runs = []
    for b0, b1 in zip(bounds[:-1], bounds[1:]):
        nb = cnt[b0:b1]
        c = np.repeat(np.arange(b0, b1), nb)
        k = np.arange(len(c)) - np.repeat(np.cumsum(nb) - nb - s0[b0:b1], nb)
        j = k if rows is None else rows[k]
        (ax, ay), (dx, dy) = A[c].T, D[c].T
        v = lo[1] - ay + (j + 0.5) * step  # the row's height above A
        # over the disks centred at A + s D, the interval's left end
        # ax + s dx - sqrt(eps^2 - (v - s dy)^2) is convex in s, least at
        # v - s dy = eps dx sgn(dy) / |D|; clipped to [0, 1], that s stays on
        # a disk that reaches the row, for every row the capsule meets.  The
        # right end mirrors it.  A flat capsule (|dy| <= 1e-12 (|dx| + eps),
        # where 1 / dy could overflow) takes each end from A or A + D, outward
        flat = np.abs(dy) <= 1e-12 * (np.abs(dx) + eps)
        inv = 1.0 / np.where(flat, 1.0, dy)
        u = eps * dx * np.sign(dy) / np.where(flat, 1.0, np.hypot(dx, dy))
        x = []
        for side, s in ((-1.0, np.where(flat, dx < 0, (v - u) * inv)),
                        (1.0, np.where(flat, dx > 0, (v + u) * inv))):
            s = np.clip(s, 0.0, 1.0)
            w = np.sqrt(np.maximum(eps * eps - (v - s * dy) ** 2, 0.0))
            x.append(ax + s * dx + side * w + (k * span - lo[0]))
        runs.append(_union(*x))
    L, R = _union(*map(np.concatenate, zip(*runs)))
    return float(np.sum(R - L))


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
    are summed again with rows h/8 apart.
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
    if len(pts) == 0:
        raise ValueError("polyline has no finite points")
    lone = np.ones(len(pts), dtype=bool)
    lone[seg.ravel()] = False
    A = np.concatenate([pts[seg[:, 0]], pts[lone]])
    D = np.concatenate([pts[seg[:, 1]], pts[lone]]) - A
    h = eps * _ROW_STEP
    lo = pts.min(axis=0) - eps
    # row j, at y = lo_y + (j + 1/2) h, meets the capsules within eps of it
    ybot = np.minimum(A[:, 1], A[:, 1] + D[:, 1]) - lo[1]
    first = np.ceil((ybot - eps) / h - 0.5)
    n = (np.floor((ybot + np.abs(D[:, 1]) + eps) / h - 0.5) - first + 1).astype(np.int64)
    bands = _edge_bands(A, D, ybot, eps, h)
    fine = (bands[:, None] * _REFINE + np.arange(_REFINE)).ravel()
    hf = h / _REFINE
    # each band's own row, and its _REFINE rows, as positions in bands and fine
    s_band = np.searchsorted(bands, first)
    n_band = np.searchsorted(bands, first + n) - s_band
    s_fine = np.searchsorted(fine, np.ceil((ybot - eps) / hf - 0.5))
    n_fine = np.searchsorted(fine, np.floor((ybot + np.abs(D[:, 1]) + eps) / hf + 0.5)) - s_fine
    total = int(n.sum() + n_band.sum() + n_fine.sum())
    if total > cell_cap:
        raise NumericBudgetError(
            f"sausage area needs {total} row intervals, over the cap {cell_cap}; "
            "raise eps or the cap"
        )
    span = float(np.ptp(pts[:, 0])) + 4.0 * eps
    area = _row_length(A, D, eps, lo, span, h, first, n) * h
    if len(bands):
        area += (_row_length(A, D, eps, lo, span, hf, s_fine, n_fine, fine) * hf
                 - _row_length(A, D, eps, lo, span, h, s_band, n_band, bands) * h)
    return area


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
    if not np.all(np.isfinite(epsilons) & (epsilons > 0)):
        raise ValueError(f"every eps must be finite and positive, got {epsilons}")
    if np.any(epsilons >= 1.0 / math.e):
        raise ValueError("content grid needs eps < 1/e so log log(1/eps) > 0")
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
