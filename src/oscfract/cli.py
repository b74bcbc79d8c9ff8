"""Command-line front end tying prediction and measurement together.

The commands (newton, predict, integrate, curve, dim, content, calibrate,
verify) are listed with their help in _COMMANDS and by `oscfract --help`.
One parser gives each the same options: --config FILE (JSON, see README for
the schema), --out DIR (files, or stdout without it), --tolerance and
--seed.  main reads the config once and passes the dict to a command body,
which does the file I/O around the pipeline steps.  verify(cfg, seed,
tolerance) is the whole pipeline as a function returning (report, curve), so
a sweep is a loop over configs.  All JSON output is deterministic: sorted
keys, no timestamps, fixed seeds, so identical inputs produce byte-identical
reports.

Exit codes: 0 success/pass, 1 verification failure, 2 input or output error,
3 numeric budget exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from oscfract.estimators import (
    ContentEstimate,
    _finite_rows,
    box_count,
    check_content_epsilons,
    check_fit_size,
    check_grid,
    estimate_content,
    estimate_dimension,
    gen_astring,
    gen_chirp,
    gen_spiral,
    geometric_epsilons,
)
from oscfract.integrals import (
    REFLECTED_STEP,
    CurvePolyline,
    NumericBudgetError,
    QuadratureConfig,
    check_step,
    check_window,
    curve_from_samples,
    reflected_pair,
    sample_integral,
)
from oscfract.newton import DiagramInfo, newton_diagram, r_nondegeneracy_check
from oscfract.phases import (
    AmplitudeSpec,
    PolynomialPhase,
    checked,
    verify_isolated_critical_point,
)
from oscfract.predict import (
    content_from_coefficient,
    diagonal_coefficient,
    predict_nd,
    predict_no_critical_point,
)

# tolerance profiles: the largest |measured - predicted| curve dimension
PROFILES = {"strict": 0.03, "desk": 0.05}
# largest relative content error, the same in both profiles
_CONTENT_RTOL = 0.15


class _StageFailure(Exception):
    """Error from a named pipeline stage; carries the cause for exit-code mapping."""

    def __init__(self, stage: str, cause: Exception) -> None:
        super().__init__(f"[{stage}] {cause}")
        self.cause = cause


@contextlib.contextmanager
def _stage(name: str):
    try:
        yield
    except (NumericBudgetError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        raise _StageFailure(name, exc) from exc


# ---------------------------------------------------------------------------
# config plumbing


def _finite(text: str, kind: type = float):
    """A JSON number as kind (float or int); NaN, Infinity and overflowing literals are refused."""
    if not math.isfinite(float(text)):
        raise ValueError(f"config numbers must be finite, got {text}")
    return kind(text)


def _load_config(path: Optional[str]) -> dict:
    if not path:
        raise ValueError("this command requires --config FILE")
    with open(path, "r", encoding="utf-8") as fh:
        # an integer literal past a double's range overflows as 1e999 does
        as_int = functools.partial(_finite, kind=int)
        cfg = json.load(fh, parse_float=_finite, parse_int=as_int, parse_constant=_finite)
    if not isinstance(cfg, dict):
        raise ValueError("config root must be a JSON object")
    return cfg


def _section(cfg: dict, key: str) -> dict:
    """The JSON object under cfg[key]; {} when the key is absent or null."""
    sec = cfg.get(key)
    if sec is None:
        return {}
    if not isinstance(sec, dict):
        raise ValueError(f'config "{key}" must be a JSON object, got {json.dumps(sec)}')
    return sec


def _phase_from(cfg: dict) -> PolynomialPhase:
    if "phase" not in cfg:
        raise ValueError('config needs a "phase" entry: {"n": ..., "terms": [...]}')
    return PolynomialPhase.from_dict(cfg["phase"])


def _read(spec: dict, key: str, kind: str, default=None):
    """spec[key], default when absent, checked as a config value of the kind."""
    return checked(spec.get(key, default), kind, key)


# default eps windows as (diam / max, diam / min, count)
_DIM_WINDOW = (150.0, 3600.0, 12)
_RECTIFIABLE_WINDOW = (3.0, 2000.0, 12)
_CONTENT_WINDOW = (150.0, 700.0, 10)


def _eps_keys(spec: dict, content: bool = False) -> dict:
    """The eps window keys spec sets (max, min, count), type-checked.

    The defaults need the polyline's diameter and are filled in by
    _eps_window, so verify can refuse a bad key before it integrates.  The
    estimators' rules are applied to the keys that decide them alone: max
    above min when both are set, a count that a box-count fit (content
    False) or a content grid (content True) accepts, and, for content, every
    eps set finite, positive and below 1/e.
    """
    keys = {key: _read(spec, key, "number") for key in ("max", "min") if key in spec}
    if "count" in spec:
        keys["count"] = _read(spec, "count", "count")
    check_grid(keys.get("max"), keys.get("min"), keys.get("count"))
    if content:
        given = [keys[k] for k in ("max", "min") if k in keys]
        if given:
            check_content_epsilons(np.array(given))
    elif "count" in keys:
        check_fit_size(keys["count"])
    return keys


def _eps_window(pts: np.ndarray, keys: dict, window: tuple[float, float, int]) -> np.ndarray:
    """Geometric eps from _eps_keys' max, min and count, defaulting to a window of pts' diameter.

    The diameter is the largest per-axis extent of pts' finite points.
    """
    diam = float(np.ptp(_finite_rows(pts)[0], axis=0).max())
    if diam == 0.0 and not {"max", "min"} <= keys.keys():
        raise ValueError("the polyline's finite points all coincide, so eps max and min must be set")
    big, small, count = window
    hi, lo = keys.get("max", diam / big), keys.get("min", diam / small)
    return geometric_epsilons(hi, lo, keys.get("count", count))


def _has_linear_term(phase: PolynomialPhase) -> bool:
    return any(sum(k) == 1 for k in phase.terms)


# ---------------------------------------------------------------------------
# output formats: json, csv, svg


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _csv_text(tau: np.ndarray, values: np.ndarray) -> str:
    # np.hypot gives abs(complex)'s bits; np.abs can differ in the last one
    re, im = values.real, values.imag
    rows = np.column_stack([tau, re, im, np.hypot(re, im)])
    body = "%.17g,%.17g,%.17g,%.17g\n" * len(rows) % tuple(rows.ravel().tolist())
    return "tau,re,im,abs\n" + body


def _svg_text(points: np.ndarray) -> str:
    """Curve polyline as a bare SVG path on a 720-unit square: figure data, no decoration."""
    size, margin = 720, 24
    pts = np.asarray(points, dtype=float)
    ok = np.isfinite(pts).all(axis=1)
    lo = pts[ok].min(axis=0)
    span = pts[ok].max(axis=0) - lo
    scale = (size - 2.0 * margin) / max(float(span.max()), 1e-300)
    xy = (pts[ok] - lo) * scale + margin
    # a vertex after a NaN row, or the first, starts a subpath
    move = ~np.concatenate([[False], ok[:-1]])[ok]
    path = "".join(np.where(move, "M%.2f %.2f", "L%.2f %.2f").tolist())
    path %= tuple(np.column_stack([xy[:, 0], size - xy[:, 1]]).ravel().tolist())
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size} {size}">\n'
        f'  <path d="{path}" fill="none" stroke="#1a1a1a" stroke-width="0.6"/>\n'
        "</svg>\n"
    )


def _emit(args: argparse.Namespace, name: str, text: str) -> None:
    with _stage("output"):
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(path)
        else:
            sys.stdout.write(text)


def _emit_curve(args: argparse.Namespace, curve: CurvePolyline) -> None:
    _emit(args, "curve.csv", _csv_text(curve.tau, curve.points[:, 0] + 1j * curve.points[:, 1]))
    _emit(args, "curve.svg", _svg_text(curve.points))


def _read_polyline(path: str) -> np.ndarray:
    """Polyline from CSV: re/im or x/y named columns, else the first two.

    The first row is a header when one of its fields is not a number (nan
    and inf are numbers: a bare file may start with a subpath separator).
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().lower()
    names = [c.strip() for c in header.split(",")]
    try:
        for c in names:
            float(c)
        skip, cols = 0, (0, 1)
    except ValueError:
        named = [
            (names.index(a), names.index(b))
            for a, b in (("re", "im"), ("x", "y"))
            if a in names and b in names
        ]
        if not named:
            raise ValueError(f"polyline CSV needs re/im or x/y columns, got {header!r}")
        skip, cols = 1, named[0]
    data = np.loadtxt(path, delimiter=",", skiprows=skip, usecols=cols, ndmin=2)
    if len(data) < 2:
        raise ValueError("polyline CSV must contain at least two points")
    return data


# ---------------------------------------------------------------------------
# pipeline steps, each shared by verify and its single-purpose command


def _inputs(cfg: dict) -> tuple[PolynomialPhase, AmplitudeSpec]:
    phase = _phase_from(cfg)
    return phase, AmplitudeSpec.from_dict(_section(cfg, "amplitude"), phase.dimension)


def _diagram(phase: PolynomialPhase) -> Optional[DiagramInfo]:
    """Newton diagram a prediction needs, for every n: none without a critical point.

    beta is read off the principal face, the compact face the bisector meets,
    so that face must be R-nondegenerate; a degenerate one is refused.  In 1D
    that face is the vertex (s,) of the critical order s, decided exactly.
    With no compact face matching the bisector's support points there is
    nothing to check.
    """
    if _has_linear_term(phase):
        return None
    diagram = newton_diagram(phase)
    principal = [f for f in diagram.faces if f.points == diagram.center_points]
    if principal:
        (check,) = r_nondegeneracy_check(phase, principal).checks
        if not check.passed:
            raise ValueError(
                f"principal face {[list(k) for k in check.face.points]} is R-degenerate:"
                f" its gradient vanishes near {tuple(round(x, 4) for x in check.witness)},"
                f" so beta = {diagram.remoteness} does not hold in these coordinates"
            )
    return diagram


def _sampling(cfg: dict, phase: PolynomialPhase) -> tuple[float, float, int, QuadratureConfig]:
    """sample_integral's window (min, max, count) and quadrature config, checked before it runs.

    The default window depends on n.  A 1D phase with a linear term or with
    f(0) = 0 traces a rectifiable curve and gets a shorter one.
    """
    n = phase.dimension
    if n == 1:
        rectifiable = _has_linear_term(phase) or phase.value_at_origin == 0.0
        lo, hi, count = (8.0, 120.0, 40) if rectifiable else (20.0, 2000.0, 80)
    elif n == 2:
        lo, hi, count = 20.0, 300.0, 40
    else:
        lo, hi, count = 8.0, 150.0, 30
    t = _section(cfg, "tau")
    lo, hi = _read(t, "min", "number", lo), _read(t, "max", "number", hi)
    count = _read(t, "count", "count", count)
    check_window(lo, hi, count)
    # panel_order 2 suffices in 3D and keeps the radial tables small
    q = dict(_section(cfg, "quadrature"))
    if n >= 3:
        q.setdefault("panel_order", 2)
    try:
        return lo, hi, count, QuadratureConfig(**q)
    except TypeError as exc:
        raise ValueError(f"malformed quadrature config: {exc}") from exc


def _curve_step(cfg: dict, phase: PolynomialPhase) -> float:
    """The curve's max phase step, checked: configured, else pi/16 in 1D and pi/8 above."""
    default_step = math.pi / 16 if phase.dimension == 1 else math.pi / 8
    return check_step(_read(_section(cfg, "curve"), "max_step", "number", default_step))


def _dimension(pts: np.ndarray, eps: np.ndarray, seed: int, **box_opts):
    """(counts, estimate) of a box-count fit at eps; box_opts go to box_count."""
    counts = box_count(pts, eps, seed=seed, **box_opts)
    return counts, estimate_dimension(eps, counts)


def _content_opts(spec: dict) -> tuple[dict, int]:
    """(eps keys, cell cap) of a content spec, which may hold "eps" and "cell_cap"."""
    eps_keys = _eps_keys(_section(spec, "eps"), content=True)
    return eps_keys, _read(spec, "cell_cap", "count", 120_000_000)


def _content(pts: np.ndarray, d: float, opts: tuple[dict, int]) -> ContentEstimate:
    """Minkowski content at dimension d, with the eps keys and cell cap of _content_opts."""
    eps_keys, cell_cap = opts
    eps = _eps_window(pts, eps_keys, _CONTENT_WINDOW)
    return estimate_content(pts, d, eps, cell_cap=cell_cap)


# ---------------------------------------------------------------------------
# prediction dispatch


def _predict(phase: PolynomialPhase, amp: AmplitudeSpec, diagram):
    f0 = phase.value_at_origin
    if diagram is None:
        return predict_no_critical_point(f0)
    # the coefficient enters only the content, which exists for beta > -1; it
    # is read off the principal part, the terms on the face the bisector meets
    leading = None
    if diagram.remoteness > -1:
        part = {k: phase.terms[k] for k in diagram.center_points}
        leading = diagonal_coefficient(part, amp.phi0)
    return predict_nd(diagram, f0, leading)


def _validate_phase(phase: PolynomialPhase, amp: AmplitudeSpec) -> None:
    """Standard-assumption check: no second critical point inside the support."""
    if phase.dimension > 3:
        return
    report = verify_isolated_critical_point(phase, amp)
    if not report.passed:
        raise ValueError(
            f"gradient nearly vanishes at {tuple(round(x, 4) for x in report.point)}: "
            "phase appears to have a critical point away from the origin"
        )


# ---------------------------------------------------------------------------
# commands: each body takes the config dict and the parsed options


def cmd_newton(cfg: dict, args: argparse.Namespace) -> int:
    with _stage("input"):
        phase = _phase_from(cfg)
    with _stage("newton"):
        info = newton_diagram(phase)
        out = {"phase": str(phase), "newton": info.to_dict()}
        nd = r_nondegeneracy_check(phase, info.faces)
        out["r_nondegenerate"] = {
            "passed": nd.passed,
            "min_residuals": [c.min_residual for c in nd.checks],
        }
    _emit(args, "newton.json", _json_text(out))
    return 0


def cmd_predict(cfg: dict, args: argparse.Namespace) -> int:
    with _stage("input"):
        phase, amp = _inputs(cfg)
    with _stage("newton"):
        diagram = _diagram(phase)
    with _stage("predict"):
        pred = _predict(phase, amp, diagram)
        out = {"phase": str(phase), "prediction": pred.to_dict()}
        if diagram is not None:
            out["newton"] = diagram.to_dict()
    _emit(args, "predict.json", _json_text(out))
    return 0


def cmd_integrate(cfg: dict, args: argparse.Namespace) -> int:
    with _stage("input"):
        phase, amp = _inputs(cfg)
        sampling = _sampling(cfg, phase)
    with _stage("integrate"):
        samples = sample_integral(phase, amp, *sampling)
    _emit(args, "samples.csv", _csv_text(samples.tau, samples.values))
    return 0


def cmd_curve(cfg: dict, args: argparse.Namespace) -> int:
    with _stage("input"):
        phase, amp = _inputs(cfg)
        sampling = _sampling(cfg, phase)
        step = _curve_step(cfg, phase)
    with _stage("integrate"):
        samples = sample_integral(phase, amp, *sampling, refine=(step,))
    with _stage("curve"):
        curve = curve_from_samples(samples, max_step=step)
    _emit_curve(args, curve)
    return 0


def _polyline(cfg: dict) -> np.ndarray:
    # a number would be opened as a file descriptor
    path = cfg.get("polyline_csv")
    if not isinstance(path, str):
        raise ValueError(f'config needs "polyline_csv", a curve CSV path, got {json.dumps(path)}')
    return _read_polyline(path)


def cmd_dim(cfg: dict, args: argparse.Namespace) -> int:
    with _stage("input"):
        pts = _polyline(cfg)
        eps_keys = _eps_keys(_section(cfg, "eps"))
        offsets = _read(cfg, "offsets", "count", 4)
        connect = _read(cfg, "connect", "switch", True)
    with _stage("estimate"):
        eps = _eps_window(pts, eps_keys, _DIM_WINDOW)
        counts, est = _dimension(pts, eps, args.seed, offsets=offsets, connect=connect)
        out = {
            "polyline_csv": cfg["polyline_csv"],
            "epsilons": [float(e) for e in eps],
            "counts": [float(c) for c in counts],
            "estimate": est.to_dict(),
        }
    _emit(args, "dim.json", _json_text(out))
    return 0


def cmd_content(cfg: dict, args: argparse.Namespace) -> int:
    with _stage("input"):
        pts = _polyline(cfg)
        if "d" not in cfg:
            raise ValueError('config needs "d"')
        d = _read(cfg, "d", "number")
        opts = _content_opts(cfg)
    with _stage("estimate"):
        est = _content(pts, d, opts)
        out = {"polyline_csv": cfg["polyline_csv"], "estimate": est.to_dict()}
    _emit(args, "content.json", _json_text(out))
    return 0


# Synthetic-zoo fixtures with known dimensions: (name, builder, d, eps grid, connect)
_ZOO_DIMS = (
    ("chirp a=1/2 b=1", lambda: gen_chirp(0.5, 1.0), 1.25, (5e-3, 2e-4, 10), True),
    # t_min 0.001: the d = 4/3 plateau needs merged oscillations well past eps_min
    ("chirp a=1/3 b=1", lambda: gen_chirp(1.0 / 3.0, 1.0, t_min=0.001), 4.0 / 3.0, (5e-3, 2e-4, 10), True),
    (
        "spiral a=1/2",
        lambda: gen_spiral(0.5, phi_max=600.0 * math.pi),
        4.0 / 3.0,
        (2.5e-3, 1e-4, 10),
        True,
    ),
    (
        "spiral a=2/3",
        lambda: gen_spiral(2.0 / 3.0, phi_max=400.0 * math.pi),
        1.2,
        (8e-4, 6e-5, 10),
        True,
    ),
    ("a-string a=1", lambda: gen_astring(1.0), 0.5, (1e-2, 1e-4, 10), False),
    ("a-string a=2", lambda: gen_astring(2.0), 1.0 / 3.0, (1e-2, 1e-4, 10), False),
)

# Degeneracy pairs: the log factor flips the verdict at the same dimension.
# Each fixture carries its own eps grid and interval cap: the drift detector
# needs windows where its asymptotic signature beats finite-size artifacts.
_ZOO_VERDICTS = (
    (
        "chirp l=0 content",
        lambda: 0.15 * gen_chirp(0.5, 1.0, l=0),
        1.25,
        "nondegenerate",
        (1.2e-3, 1.8e-4, 8),
        120_000_000,
    ),
    (
        "chirp l=1 content",
        lambda: 0.15 * gen_chirp(0.5, 1.0, l=1),
        1.25,
        "degenerate-infinity",
        (1.2e-3, 1.8e-4, 8),
        120_000_000,
    ),
    (
        "spiral l=0 content",
        lambda: gen_spiral(0.5, phi_max=3000.0 * math.pi),
        4.0 / 3.0,
        "nondegenerate",
        (2e-3, 7e-4, 8),
        250_000_000,
    ),
    (
        "spiral l=1 content",
        lambda: gen_spiral(0.5, l=1, phi_max=1500.0 * math.pi),
        4.0 / 3.0,
        "degenerate-infinity",
        (5e-3, 2e-3, 8),
        120_000_000,
    ),
)

# Measured content against the coefficient formula (10% on this fixture).
_ZOO_CONTENT = (
    (
        "spiral a=1/3 content",
        lambda: gen_spiral(1.0 / 3.0, 0.5, phi_max=4000.0 * math.pi),
        1.5,
        content_from_coefficient(Fraction(-1, 3), 0.5, 1.0),
        (5e-3, 8e-4, 8),
        0.10,
    ),
)


def _row(fixture: str, kind: str, expected, measured, delta: Optional[float], ok: bool) -> dict:
    keys = ("fixture", "kind", "expected", "measured", "delta", "pass")
    return dict(zip(keys, (fixture, kind, expected, measured, delta, bool(ok))))


# one table line per row kind, after the fixture name
_ROW_FORMATS = {
    "dimension": "expected {expected:.4f} measured {measured:.4f} delta {delta:+.4f}",
    "content": "expected {expected:.4f} measured {measured:.4f} rel {delta:+.2%}",
    "verdict": "expected {expected} measured {measured}",
}


def cmd_calibrate(cfg: dict, args: argparse.Namespace) -> int:
    tol = PROFILES[args.tolerance]
    rows = []
    with _stage("calibrate"):
        for name, build, d_true, grid, connect in _ZOO_DIMS:
            _, est = _dimension(build(), geometric_epsilons(*grid), args.seed, connect=connect)
            delta = est.d_hat - d_true
            rows.append(_row(name, "dimension", d_true, est.d_hat, delta, abs(delta) <= tol))
        for name, build, d_true, m_true, grid, rtol in _ZOO_CONTENT:
            est = estimate_content(build(), d_true, geometric_epsilons(*grid))
            rel = est.M_hat / m_true - 1.0
            rows.append(_row(name, "content", m_true, est.M_hat, rel, abs(rel) <= rtol))
        for name, build, d_true, want, grid, cap in _ZOO_VERDICTS:
            verdict = estimate_content(
                build(), d_true, geometric_epsilons(*grid), cell_cap=cap
            ).degenerate_verdict
            rows.append(_row(name, "verdict", want, verdict, None, verdict == want))
    ok = all(r["pass"] for r in rows)
    if args.out:
        report = {"tol_d": tol, "tolerance": args.tolerance, "rows": rows, "pass": ok}
        _emit(args, "calibrate.json", _json_text(report))
    width = max(len(r["fixture"]) for r in rows)
    for r in rows:
        detail = _ROW_FORMATS[r["kind"]].format_map(r)
        print(f"{r['fixture']:<{width}}  {detail}  {'pass' if r['pass'] else 'FAIL'}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _verdict_consistent(pred, verdict: str) -> bool:
    # only a positive contradiction fails: "inconclusive" is always allowed
    if verdict == "inconclusive" or pred.rectifiable:
        return True
    if pred.degenerate:
        return verdict == "degenerate-infinity"
    return verdict == "nondegenerate"


# the polylines verify box-counts, each with its own "eps" section
_MEASURED = ("curve", "reflected_re", "reflected_im")


def verify(cfg: dict, seed: int = 0, tolerance: str = "desk") -> tuple[dict, CurvePolyline]:
    """Predict, integrate, measure and compare one config: (report, curve).

    The report is what `oscfract verify` writes to report.json; report["pass"]
    is the verdict.  A bad config or a failed stage raises _StageFailure.
    """
    with _stage("input"):
        phase, amp = _inputs(cfg)
        tol_d = PROFILES[tolerance]
        sampling = _sampling(cfg, phase)
        step = _curve_step(cfg, phase)
        # every key is checked before the quadrature; only the eps defaults
        # wait for the curve's diameter
        eps_cfg = _section(cfg, "eps")
        eps_keys = {key: _eps_keys(_section(eps_cfg, key)) for key in _MEASURED}
        ccfg = _section(cfg, "content")
        content_on = _read(ccfg, "enabled", "switch", False)
        if content_on:
            content_d = _read(ccfg, "d", "number") if "d" in ccfg else None
            content_opts = _content_opts(ccfg)
        _validate_phase(phase, amp)
    with _stage("newton"):
        diagram = _diagram(phase)
    with _stage("predict"):
        pred = _predict(phase, amp, diagram)
    with _stage("integrate"):
        samples = sample_integral(phase, amp, *sampling, refine=(step, REFLECTED_STEP))
    with _stage("curve"):
        curve = curve_from_samples(samples, max_step=step)
        graph_re, graph_im = reflected_pair(samples)
    with _stage("estimate"):
        window = _RECTIFIABLE_WINDOW if pred.rectifiable else _DIM_WINDOW
        polylines = (
            curve.points,
            np.column_stack([graph_re.t, graph_re.x]),
            np.column_stack([graph_im.t, graph_im.x]),
        )
        estimates = {
            key: _dimension(pts, _eps_window(pts, eps_keys[key], window), seed)[1]
            for key, pts in zip(_MEASURED, polylines)
        }
        content_est = None
        if content_on:
            d = float(pred.curve_dim) if content_d is None else content_d
            content_est = _content(curve.points, d, content_opts)
    with _stage("report"):
        tau = samples.tau  # geomspace keeps the window's ends exact
        d_pred = float(pred.curve_dim)
        dp_pred = float(pred.osc_dim)
        deltas = {
            "curve_dim": estimates["curve"].d_hat - d_pred,
            "reflected_re_dim": estimates["reflected_re"].d_hat - dp_pred,
            "reflected_im_dim": estimates["reflected_im"].d_hat - dp_pred,
        }
        checks = {
            "curve_dim": {
                "delta": deltas["curve_dim"],
                "tol": tol_d,
                "pass": bool(abs(deltas["curve_dim"]) <= tol_d),
            }
        }
        if content_est is not None:
            if pred.content is not None and math.isfinite(pred.content):
                rel = content_est.M_hat / pred.content - 1.0
                deltas["content_rel"] = rel
                checks["content"] = {
                    "rel_delta": rel,
                    "rtol": _CONTENT_RTOL,
                    "pass": bool(abs(rel) <= _CONTENT_RTOL),
                }
            checks["content_verdict"] = {
                "predicted_degenerate": pred.degenerate,
                "measured": content_est.degenerate_verdict,
                "pass": _verdict_consistent(pred, content_est.degenerate_verdict),
            }
        measured = {f"{key}_dim": est.to_dict() for key, est in estimates.items()}
        measured["content"] = None if content_est is None else content_est.to_dict()
        report = {
            "phase": str(phase),
            "phase_spec": phase.to_dict(),
            "amplitude": amp.to_dict(),
            "tau": {"min": float(tau[0]), "max": float(tau[-1]), "count": tau.size},
            "seed": seed,
            "tolerance_profile": tolerance,
            "newton": None if diagram is None else diagram.to_dict(),
            "predicted": pred.to_dict(),
            "measured": measured,
            "deltas": deltas,
            "checks": checks,
            "pass": all(c["pass"] for c in checks.values()),
        }
    return report, curve


def cmd_verify(cfg: dict, args: argparse.Namespace) -> int:
    report, curve = verify(cfg, args.seed, args.tolerance)
    if args.out:
        _emit(args, "report.json", _json_text(report))
        _emit_curve(args, curve)
        pred, measured = report["predicted"], report["measured"]
        print(f"phase: {report['phase']}")
        print(
            f"predicted d={pred['curve_dim_float']:.6f} d'={pred['osc_dim_float']:.6f}"
            f" rectifiable={pred['rectifiable']} degenerate={pred['degenerate']}"
        )
        print(
            f"measured  curve={measured['curve_dim']['d_hat']:.4f}"
            f" ({report['deltas']['curve_dim']:+.4f})"
            f" re={measured['reflected_re_dim']['d_hat']:.4f}"
            f" im={measured['reflected_im_dim']['d_hat']:.4f}"
        )
        content = measured["content"]
        if content is not None:
            print(f"content   M_hat={content['M_hat']:.4f} verdict={content['degenerate_verdict']}")
        print("PASS" if report["pass"] else "FAIL")
    else:
        sys.stdout.write(_json_text(report))
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------

# name -> (body, one-line help)
_COMMANDS = {
    "newton": (cmd_newton, "Newton polyhedron, remoteness, multiplicity"),
    "predict": (cmd_predict, "asymptotic prediction for a phase"),
    "integrate": (cmd_integrate, "evaluate I(tau) on a grid; CSV out"),
    "curve": (cmd_curve, "winding-resolved curve polyline; CSV and SVG out"),
    "dim": (cmd_dim, "box dimension of a polyline CSV"),
    "content": (cmd_content, "Minkowski content of a polyline CSV"),
    "calibrate": (cmd_calibrate, "synthetic-zoo pass/fail table"),
    "verify": (cmd_verify, "predict, measure, and compare; exit 0 iff pass"),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process; parse_args returns a fresh namespace each call
    width = max(map(len, _COMMANDS))
    parser = argparse.ArgumentParser(
        prog="oscfract",
        description="Predict and measure fractal data of oscillatory-integral curves.",
        epilog="commands:\n"
        + "\n".join(f"  {name:<{width}}  {text}" for name, (_, text) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, metavar="command", help="see below")
    parser.add_argument("--config", metavar="FILE", help="JSON config file")
    parser.add_argument("--out", metavar="DIR", help="write outputs into DIR (default: stdout)")
    parser.add_argument(
        "--tolerance",
        choices=sorted(PROFILES),
        help="tolerance profile for pass/fail checks (default: strict for calibrate, else desk)",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed of the box-count grid offsets")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.tolerance is None:
        # the zoo is calibrated against the strict profile
        args.tolerance = "strict" if args.command == "calibrate" else "desk"
    body = _COMMANDS[args.command][0]
    try:
        with _stage("input"):
            # calibrate runs its built-in zoo and reads no config
            cfg = {} if args.command == "calibrate" else _load_config(args.config)
        return int(body(cfg, args))
    except _StageFailure as exc:
        print(f"error {exc}", file=sys.stderr)
        return 3 if isinstance(exc.cause, NumericBudgetError) else 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error [input] {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
