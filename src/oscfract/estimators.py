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
                corner's cell), found without sorting and deduplicated in a
                bitmap with one bit per grid cell;
* estimate_dimension
                log N vs log(1/eps) slope over an automatically selected
                plateau (curves built from integrals cross over from a
                rectifiable regime at coarse scales to the fractal regime,
                so fitting all scales would bias the slope);
* sausage_area  area of the eps-neighborhood on a raster, distance
                transform for the bulk and exact point-to-segment distance
                near the boundary;
* estimate_content
                normalized areas rho(eps) = |A_eps| / eps^(2-d) and a
                verdict on Minkowski degeneracy from their drift in
                log log(1/eps);
* spiral_radial_analysis
                nucleus/tail decomposition of a spiral neighborhood at the
                critical winding angle phi2(eps);
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
from scipy import ndimage
from scipy.spatial import cKDTree

from oscfract.integrals import NumericBudgetError


@dataclass(frozen=True)
class DimensionEstimate:
    d_hat: float
    stderr: float
    fit_window: tuple[float, float]  # (eps_max, eps_min) actually used
    r_squared: float
    method: str
    inconclusive: bool = False

    def to_dict(self) -> dict:
        return {
            "d_hat": self.d_hat,
            "stderr": self.stderr,
            "fit_window": list(self.fit_window),
            "r_squared": self.r_squared,
            "method": self.method,
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


@dataclass(frozen=True)
class SpiralRadialReport:
    epsilons: np.ndarray
    phi2: np.ndarray
    nucleus_area: np.ndarray
    tail_area: np.ndarray
    radial_area: np.ndarray  # exact area of the radial eps-neighborhood


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
_CROSSING_BLOCK = 1 << 16


def _supercover_count(
    P: np.ndarray, Q: np.ndarray, pts: np.ndarray, width: int, height: int
) -> int:
    """Number of distinct half-open unit cells touched by segments P->Q plus pts.

    Arrays are axis first: P and Q are (2, M), pts is (2, N).  The gridline
    crossings at t = (k - P) / (Q - P), clipped to [0, 1], cut each segment
    into pieces; a piece's cell is the floor of its midpoint, and a
    zero-length piece (crossings of both axes at one t, or a crossing at
    t = 1) contributes the floor of P + t (Q - P), so a segment through a
    cell corner touches the corner's cell too.  No sort: the piece after a
    crossing ends at the nearer of the next crossing on the same axis (the
    next one generated) and the next on the other axis, found by comparing
    the parameters of the two or three gridlines around the crossing point
    with t.  Comparing parameters rather than reading floor(y) keeps exact
    corner passes exact when rounding moves the crossing point off the
    corner.  Cells are marked in a bitmap with one bit per cell of the
    (width + 4) x (height + 4) grid (a margin of 2 either side of the cell
    indices) and the set bits are counted.
    """
    stride = height + 4
    bitmap = np.zeros(((width + 4) * stride + 63) // 64, np.uint64)

    def mark(x: np.ndarray, y: np.ndarray) -> None:
        key = (np.floor(x) * stride + np.floor(y) + (2 * stride + 2)).astype(np.uint64)
        np.bitwise_or.at(bitmap, key >> 6, np.left_shift(np.uint64(1), key & 63))

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
        # end of the first piece: the first crossing with t > 0, or 1
        t_first = np.ones(s1 - s0)
        for ax in range(2):
            o = 1 - ax
            n = cnt[ax, s0:s1]
            tot = int(n.sum())
            if not tot:
                continue
            end = np.cumsum(n)
            start = end - n
            Pa, da = np.repeat(Pb[ax], n), np.repeat(db[ax], n)
            Po, do = np.repeat(Pb[o], n), np.repeat(db[o], n)
            # gridline k of each crossing: first + step * (its index in the segment)
            step = np.sign(db[ax])
            k = np.repeat(first[ax, s0:s1] - step * start, n) + np.repeat(step, n) * np.arange(tot)
            t = np.clip((k - Pa) / da, 0.0, 1.0)
            t_next = np.empty(tot)
            t_next[:-1] = t[1:]
            crossed = n > 0
            t_next[end[crossed] - 1] = 1.0
            head = start[crossed]
            t_first[crossed] = np.minimum(
                t_first[crossed], np.where(t[head] > 0, t[head], t_next[head])
            )
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
            cells = (Pa + tm * da, Po + tm * do)
            mark(*cells[:: 1 - 2 * ax])  # in (x, y) order
            tc = t[corner]
            cells = (Pa[corner] + tc * da[corner], Po[corner] + tc * do[corner])
            mark(*cells[:: 1 - 2 * ax])
        mark(*(Pb + (0.5 * t_first) * db))
    return int(np.bitwise_count(bitmap).sum())


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
        width, height = (int(c) + 3 for c in np.ceil(U.max(axis=1)))
        UP, UQ = U[:, seg[:, 0]], U[:, seg[:, 1]]
        acc = 0
        for off in shifts:
            acc += _supercover_count(UP + off, UQ + off, U + off, width, height)
        counts[i] = acc / offsets
    return counts


def estimate_dimension(
    epsilons: np.ndarray,
    counts: np.ndarray,
    method: str = "box-count",
    plateau_tol: float = 0.05,
    min_run: int = 4,
) -> DimensionEstimate:
    """Slope of log N vs log(1/eps) over the longest stable-slope plateau.

    Local slopes within plateau_tol of their median form candidate runs; the
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
    good = np.abs(local - med) <= plateau_tol
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
        method,
        inconclusive,
    )


def _point_segment_dist2(X: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    AB = B - A
    den = np.sum(AB * AB, axis=-1)
    t = np.sum((X - A) * AB, axis=-1) / np.where(den > 0, den, 1.0)
    t = np.clip(t, 0.0, 1.0)
    proj = A + t[..., None] * AB
    return np.sum((X - proj) ** 2, axis=-1)


def sausage_area(polyline: np.ndarray, eps: float, cell_cap: int = 120_000_000) -> float:
    """Area of the eps-neighborhood of the polyline (2% relative target).

    Raster of cell size eps/8.  The polyline is resampled to spacing eps/16;
    a distance transform from the occupied cells classifies everything far
    from the boundary, and band cells get the exact distance to the segments
    adjacent to their two nearest samples.  Each band cell then contributes
    the fraction of its area on the inside, modeling the boundary as locally
    straight, which keeps the error per boundary cell at a few percent of
    h^2 rather than h^2 itself.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    pts, seg = _finite_rows(polyline)
    if len(pts) == 0:
        raise ValueError("polyline has no finite points")
    A, B = (pts[seg[:, 0]], pts[seg[:, 1]]) if len(seg) else (pts, pts)
    h = eps / 8.0
    lo = pts.min(axis=0) - eps - 2 * h
    hi = pts.max(axis=0) + eps + 2 * h
    nx, ny = (int(np.ceil((hi[k] - lo[k]) / h)) + 1 for k in (0, 1))
    if nx * ny > cell_cap:
        raise NumericBudgetError(
            f"sausage raster {nx}x{ny} exceeds cap {cell_cap}; raise eps or the cap"
        )
    # resampled chain: spacing <= h/2, sample s covers chain segments (s-1, s)
    seglen = np.hypot(*(B - A).T)
    m = np.maximum(1, np.ceil(seglen / (h / 2.0)).astype(int))
    sid = np.repeat(np.arange(len(A)), m + 1)
    start = np.concatenate([[0], np.cumsum(m + 1)[:-1]])
    frac = (np.arange(len(sid)) - start[sid]) / m[sid]
    samples = A[sid] + frac[:, None] * (B[sid] - A[sid])
    linked = sid[1:] == sid[:-1]  # consecutive samples on the same input segment
    occ = np.zeros((nx, ny), dtype=bool)
    ij = np.floor((samples - lo) / h).astype(int)
    occ[ij[:, 0], ij[:, 1]] = True
    dist = ndimage.distance_transform_edt(~occ, sampling=h)
    slack = h * (math.sqrt(2.0) / 2.0 + 0.25) + 1e-12
    inside = dist <= eps - slack - h
    band = (dist > eps - slack - h) & (dist < eps + slack + h)
    area = float(np.count_nonzero(inside)) * h * h
    bi, bj = np.nonzero(band)
    if bi.size:
        X = np.stack([lo[0] + (bi + 0.5) * h, lo[1] + (bj + 0.5) * h], axis=-1)
        tree = cKDTree(samples)
        _, nn = tree.query(X, k=2 if len(samples) > 1 else 1)
        nn = nn.reshape(len(X), -1)
        d2 = np.full(len(X), np.inf)
        for col in range(nn.shape[1]):
            s = nn[:, col]
            for shift in (0, 1):  # chain segments (s-1, s) and (s, s+1)
                a_idx = s - 1 + shift
                ok = (a_idx >= 0) & (a_idx < len(samples) - 1) & linked[np.clip(a_idx, 0, len(linked) - 1)]
                cand = np.where(ok, a_idx, 0)
                dd = _point_segment_dist2(X, samples[cand], samples[cand + 1])
                dd = np.where(ok, dd, np.inf)
                d2 = np.minimum(d2, dd)
            d2 = np.minimum(d2, np.sum((X - samples[s]) ** 2, axis=-1))
        fracs = np.clip(0.5 + (eps - np.sqrt(d2)) / h, 0.0, 1.0)
        area += float(fracs.sum()) * h * h
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


def spiral_radial_analysis(
    phi: np.ndarray, r: np.ndarray, epsilons: np.ndarray
) -> SpiralRadialReport:
    """Nucleus/tail decomposition of the radial eps-neighborhood of r = f(phi).

    phi2(eps) is the first angle past which consecutive windings overlap
    (f(psi) - f(psi + 2 pi) <= 2 eps for all later psi).  The nucleus is the
    disk of radius f(phi2) + eps; the tail is the ribbon around the windings
    before phi2, area ~ 2 eps * integral of f.  radial_area is the exact
    area of the radial neighborhood, from per-angle unions of the intervals
    [f - eps, f + eps] over all windings.
    """
    phi = np.asarray(phi, dtype=float)
    r = np.asarray(r, dtype=float)
    epsilons = np.asarray(epsilons, dtype=float)
    if np.any(np.diff(phi) <= 0):
        raise ValueError("phi samples must be strictly increasing")
    if np.any(np.diff(r) > 0):
        raise ValueError("radius must be non-increasing (radially decreasing)")
    valid = phi <= phi[-1] - 2.0 * math.pi
    gap = np.where(valid, r - np.interp(np.minimum(phi + 2.0 * math.pi, phi[-1]), phi, r), 0.0)
    phi2 = np.empty(len(epsilons))
    nucleus = np.empty(len(epsilons))
    tail = np.empty(len(epsilons))
    radial = np.empty(len(epsilons))
    # per-angle winding radii for the exact radial area
    nturn = 256
    psi = np.linspace(0.0, 2.0 * math.pi, nturn, endpoint=False)
    kmax = int(math.floor((phi[-1] - phi[0]) / (2.0 * math.pi))) + 1
    for idx, eps in enumerate(epsilons):
        bad = np.nonzero(valid & (gap > 2.0 * eps))[0]
        p2 = phi[0] if bad.size == 0 else float(phi[min(bad[-1] + 1, len(phi) - 1)])
        phi2[idx] = p2
        f2 = float(np.interp(p2, phi, r))
        nucleus[idx] = math.pi * (f2 + eps) ** 2
        sel = phi <= p2
        if np.count_nonzero(sel) >= 2:
            tail[idx] = 2.0 * eps * float(np.trapezoid(r[sel], phi[sel]))
        else:
            tail[idx] = 0.0
        total = 0.0
        for j in range(nturn):
            ang = phi[0] + ((psi[j] - phi[0]) % (2.0 * math.pi))
            radii = np.interp(
                np.arange(kmax) * 2.0 * math.pi + ang, phi, r,
                left=np.nan, right=np.nan,
            )
            radii = radii[np.isfinite(radii)]
            if radii.size == 0:
                continue
            a = np.maximum(radii - eps, 0.0)[::-1]
            b = (radii + eps)[::-1]
            # union of sorted intervals, integrating rho d rho
            keep_a, keep_b = [a[0]], [b[0]]
            for lo2, hi2 in zip(a[1:], b[1:]):
                if lo2 <= keep_b[-1]:
                    keep_b[-1] = max(keep_b[-1], hi2)
                else:
                    keep_a.append(lo2)
                    keep_b.append(hi2)
            ka, kb = np.array(keep_a), np.array(keep_b)
            total += 0.5 * float(np.sum(kb**2 - ka**2)) * (2.0 * math.pi / nturn)
        radial[idx] = total
    return SpiralRadialReport(epsilons, phi2, nucleus, tail, radial)


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
