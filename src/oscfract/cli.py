"""Command-line front end tying prediction and measurement together.

Subcommands
-----------
newton      Newton polyhedron of a phase: distance, remoteness, faces.
predict     Asymptotic prediction (beta, dimensions, content) for a phase.
integrate   Evaluate I(tau) on a geometric grid; emit a tau/re/im/abs CSV.
curve       Winding-resolved curve polyline; emit CSV and SVG.
dim         Box dimension of a polyline read from CSV.
content     Minkowski content of a polyline read from CSV at a given d.
calibrate   Run the synthetic zoo and print a pass/fail table.
verify      Full pipeline: predict, integrate, measure, compare.

Inputs arrive through a --config JSON file (see README for the schema);
results go to --out as files, or to stdout without it.  All JSON output is
deterministic: sorted keys, no timestamps, fixed seeds, so identical inputs
produce byte-identical reports.

Exit codes: 0 success/pass, 1 verification failure, 2 input error, 3 numeric
budget exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from oscfract.estimators import (
    ContentEstimate,
    box_count,
    estimate_content,
    estimate_dimension,
    gen_astring,
    gen_chirp,
    gen_spiral,
    geometric_epsilons,
)
from oscfract.integrals import (
    CurvePolyline,
    IntegralSamples,
    NumericBudgetError,
    QuadratureConfig,
    curve_from_samples,
    reflected_pair,
    sample_integral,
)
from oscfract.newton import DiagramInfo, newton_diagram, r_nondegeneracy_check
from oscfract.phases import (
    AmplitudeSpec,
    PolynomialPhase,
    critical_order_1d,
    verify_isolated_critical_point,
)
from oscfract.predict import (
    content_from_coefficient,
    greenblatt_coefficient,
    predict_1d,
    predict_2d,
    predict_nd,
    predict_no_critical_point,
)

PROFILES = {
    "strict": {"tol_d": 0.03, "content_rtol": 0.15},
    "desk": {"tol_d": 0.05, "content_rtol": 0.15},
}


class _StageFailure(Exception):
    """Error from a named pipeline stage; carries the cause for exit-code mapping."""

    def __init__(self, stage: str, cause: Exception) -> None:
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


@contextlib.contextmanager
def _stage(name: str):
    try:
        yield
    except (NumericBudgetError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        raise _StageFailure(name, exc) from exc


# ---------------------------------------------------------------------------
# config plumbing


def _load_config(args: argparse.Namespace) -> dict:
    if not args.config:
        raise ValueError("this command requires --config FILE")
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
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


def _quad_from(cfg: dict, n: int) -> QuadratureConfig:
    # panel_order 2 suffices in 3D and keeps the radial tables small
    q = dict(_section(cfg, "quadrature"))
    if n >= 3:
        q.setdefault("panel_order", 2)
    try:
        return QuadratureConfig(**q)
    except TypeError as exc:
        raise ValueError(f"malformed quadrature config: {exc}") from exc


def _count(spec: dict, key: str, default: int, least: int = 1) -> int:
    """spec[key] (default when absent) as an integer >= least.

    Floats and bools are refused rather than truncated, as QuadratureConfig
    does for its counts.
    """
    v = spec.get(key, default)
    if isinstance(v, bool) or not isinstance(v, int) or v < least:
        raise ValueError(f'"{key}" must be an integer >= {least}, got {json.dumps(v)}')
    return v


def _eps_from(spec: dict, fallback: tuple[float, float, int]) -> np.ndarray:
    mx, mn, ct = fallback
    return geometric_epsilons(
        float(spec.get("max", mx)), float(spec.get("min", mn)), _count(spec, "count", ct)
    )


def _has_linear_term(phase: PolynomialPhase) -> bool:
    return any(sum(k) == 1 for k in phase.terms)


def _diameter(pts: np.ndarray) -> float:
    ok = np.isfinite(pts).all(axis=1)
    if not ok.any():
        raise ValueError("polyline has no finite points")
    span = pts[ok].max(axis=0) - pts[ok].min(axis=0)
    return float(span.max())


# ---------------------------------------------------------------------------
# output formats (cmd_report): json, csv, svg


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _csv_text(tau: np.ndarray, values: np.ndarray) -> str:
    lines = ["tau,re,im,abs"]
    for t, v in zip(tau, values):
        lines.append(f"{t:.17g},{v.real:.17g},{v.imag:.17g},{abs(v):.17g}")
    return "\n".join(lines) + "\n"


def _svg_text(points: np.ndarray, size: int = 720, margin: int = 24) -> str:
    """Curve polyline as a bare SVG path: figure data, no decoration."""
    pts = np.asarray(points, dtype=float)
    ok = np.isfinite(pts).all(axis=1)
    lo = pts[ok].min(axis=0)
    span = pts[ok].max(axis=0) - lo
    scale = (size - 2.0 * margin) / max(float(span.max()), 1e-300)
    xy = (pts - lo) * scale + margin
    parts = []
    pen_down = False
    for i in range(len(xy)):
        if not ok[i]:
            pen_down = False
            continue
        cmd = "L" if pen_down else "M"
        parts.append(f"{cmd}{xy[i, 0]:.2f} {size - xy[i, 1]:.2f}")
        pen_down = True
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size} {size}">\n'
        f'  <path d="{"".join(parts)}" fill="none" stroke="#1a1a1a" stroke-width="0.6"/>\n'
        "</svg>\n"
    )


def _emit(args: argparse.Namespace, name: str, text: str) -> None:
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
# pipeline steps, each shared by verify and its single-purpose subcommand


def _inputs(args: argparse.Namespace) -> tuple[dict, PolynomialPhase, AmplitudeSpec]:
    cfg = _load_config(args)
    phase = _phase_from(cfg)
    return cfg, phase, AmplitudeSpec.from_dict(_section(cfg, "amplitude"), phase.dimension)


def _diagram(phase: PolynomialPhase) -> Optional[DiagramInfo]:
    """Newton diagram a prediction needs: none for n = 1 or without a critical point."""
    if phase.dimension >= 2 and not _has_linear_term(phase):
        return newton_diagram(phase)
    return None


def _sampled(
    cfg: dict, phase: PolynomialPhase, amp: AmplitudeSpec
) -> tuple[IntegralSamples, tuple[float, float, int]]:
    """I(tau) on the configured tau window (min, max, count), which is also returned.

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
    window = (float(t.get("min", lo)), float(t.get("max", hi)), _count(t, "count", count))
    return sample_integral(phase, amp, *window, _quad_from(cfg, n)), window


def _curve(cfg: dict, samples: IntegralSamples) -> CurvePolyline:
    default_step = math.pi / 16 if samples.phase.dimension == 1 else math.pi / 8
    max_step = float(_section(cfg, "curve").get("max_step", default_step))
    return curve_from_samples(samples, max_step=max_step)


def _dimension(pts: np.ndarray, spec: dict, seed: int, rectifiable: bool = False, **box_opts):
    """(eps, counts, estimate) of a box-count fit over spec's eps window.

    The default window is diam/150 .. diam/3600, or diam/3 .. diam/2000 when
    the curve is predicted rectifiable.  box_opts go to box_count.
    """
    diam = _diameter(pts)
    fallback = (
        (diam / 3.0, diam / 2000.0, 12) if rectifiable else (diam / 150.0, diam / 3600.0, 12)
    )
    eps = _eps_from(spec, fallback)
    counts = box_count(pts, eps, seed=seed, **box_opts)
    return eps, counts, estimate_dimension(eps, counts)


def _content(pts: np.ndarray, d: float, spec: dict) -> ContentEstimate:
    """Minkowski content at dimension d; spec may hold "eps" and "cell_cap"."""
    diam = _diameter(pts)
    eps = _eps_from(_section(spec, "eps"), (diam / 150.0, diam / 700.0, 10))
    return estimate_content(pts, d, eps, cell_cap=_count(spec, "cell_cap", 120_000_000))


# ---------------------------------------------------------------------------
# prediction dispatch


def _a0beta_2d(phase: PolynomialPhase, amp: AmplitudeSpec) -> Optional[complex]:
    """Leading coefficient for phases that are exactly x^p + y^q (+ const)."""
    mono = {k: c for k, c in phase.terms.items() if sum(k) > 0}
    if len(mono) != 2:
        return None
    p = q = 0
    for (i, j), c in mono.items():
        if c != 1.0:
            return None
        if i >= 2 and j == 0:
            p = i
        elif i == 0 and j >= 2:
            q = j
    if p and q:
        return greenblatt_coefficient(p, q, amp.phi0)
    return None


def _predict(phase: PolynomialPhase, amp: AmplitudeSpec, cfg: dict, diagram):
    n = phase.dimension
    f0 = phase.value_at_origin
    if _has_linear_term(phase):
        return predict_no_critical_point(f0)
    if n == 1:
        s = critical_order_1d(phase)
        f_second = 2.0 * phase.terms.get((2,), 0.0) if s == 2 else None
        return predict_1d(s, f0, amp.phi0, f_second)
    if n == 2:
        return predict_2d(diagram, f0, _a0beta_2d(phase, amp))
    hyp = cfg.get("coeff_hypothesis", 0)
    if hyp is not None:
        hyp = _count(cfg, "coeff_hypothesis", 0, least=0)
    return predict_nd(diagram, f0, hyp)


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
# subcommands


def cmd_newton(args: argparse.Namespace) -> int:
    with _stage("input"):
        cfg = _load_config(args)
        phase = _phase_from(cfg)
    with _stage("newton"):
        info = newton_diagram(phase)
        out = {"phase": str(phase), "newton": info.to_dict()}
        if phase.dimension <= 3:
            nd = r_nondegeneracy_check(phase, info.faces)
            out["r_nondegenerate"] = {
                "passed": nd.passed,
                "min_residuals": [c.min_residual for c in nd.checks],
            }
    _emit(args, "newton.json", _json_text(out))
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    with _stage("input"):
        cfg, phase, amp = _inputs(args)
    with _stage("newton"):
        diagram = _diagram(phase)
    with _stage("predict"):
        pred = _predict(phase, amp, cfg, diagram)
        out = {"phase": str(phase), "prediction": pred.to_dict()}
        if diagram is not None:
            out["newton"] = diagram.to_dict()
    _emit(args, "predict.json", _json_text(out))
    return 0


def cmd_integrate(args: argparse.Namespace) -> int:
    with _stage("integrate"):
        samples, _ = _sampled(*_inputs(args))
    _emit(args, "samples.csv", _csv_text(samples.tau, samples.values))
    return 0


def cmd_curve(args: argparse.Namespace) -> int:
    with _stage("integrate"):
        cfg, phase, amp = _inputs(args)
        samples, _ = _sampled(cfg, phase, amp)
    with _stage("curve"):
        curve = _curve(cfg, samples)
    _emit_curve(args, curve)
    return 0


def cmd_dim(args: argparse.Namespace) -> int:
    with _stage("input"):
        cfg = _load_config(args)
        if "polyline_csv" not in cfg:
            raise ValueError('config needs "polyline_csv" pointing at a curve CSV')
        pts = _read_polyline(cfg["polyline_csv"])
    with _stage("estimate"):
        eps, counts, est = _dimension(
            pts,
            _section(cfg, "eps"),
            args.seed,
            offsets=_count(cfg, "offsets", 4),
            connect=bool(cfg.get("connect", True)),
        )
        out = {
            "polyline_csv": cfg["polyline_csv"],
            "epsilons": [float(e) for e in eps],
            "counts": [float(c) for c in counts],
            "estimate": est.to_dict(),
        }
    _emit(args, "dim.json", _json_text(out))
    return 0


def cmd_content(args: argparse.Namespace) -> int:
    with _stage("input"):
        cfg = _load_config(args)
        for key in ("polyline_csv", "d"):
            if key not in cfg:
                raise ValueError(f'config needs "{key}"')
        pts = _read_polyline(cfg["polyline_csv"])
    with _stage("estimate"):
        est = _content(pts, float(cfg["d"]), cfg)
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


def cmd_calibrate(args: argparse.Namespace) -> int:
    tol = PROFILES[args.tolerance]["tol_d"]
    rows = []
    with _stage("calibrate"):
        for name, build, d_true, grid, connect in _ZOO_DIMS:
            eps = geometric_epsilons(*grid)
            counts = box_count(build(), eps, seed=args.seed, connect=connect)
            est = estimate_dimension(eps, counts)
            delta = est.d_hat - d_true
            rows.append(
                {
                    "fixture": name,
                    "kind": "dimension",
                    "expected": d_true,
                    "measured": est.d_hat,
                    "delta": delta,
                    "pass": bool(abs(delta) <= tol),
                }
            )
        for name, build, d_true, m_true, grid, rtol in _ZOO_CONTENT:
            est = estimate_content(build(), d_true, geometric_epsilons(*grid))
            rel = est.M_hat / m_true - 1.0
            rows.append(
                {
                    "fixture": name,
                    "kind": "content",
                    "expected": m_true,
                    "measured": est.M_hat,
                    "delta": rel,
                    "pass": bool(abs(rel) <= rtol),
                }
            )
        for name, build, d_true, want, grid, cap in _ZOO_VERDICTS:
            est = estimate_content(
                build(), d_true, geometric_epsilons(*grid), cell_cap=cap
            )
            rows.append(
                {
                    "fixture": name,
                    "kind": "verdict",
                    "expected": want,
                    "measured": est.degenerate_verdict,
                    "delta": None,
                    "pass": bool(est.degenerate_verdict == want),
                }
            )
    ok = all(r["pass"] for r in rows)
    if args.out:
        _emit(
            args,
            "calibrate.json",
            _json_text({"tol_d": tol, "tolerance": args.tolerance, "rows": rows, "pass": ok}),
        )
    width = max(len(r["fixture"]) for r in rows)
    for r in rows:
        if r["kind"] == "dimension":
            detail = f"expected {r['expected']:.4f} measured {r['measured']:.4f} delta {r['delta']:+.4f}"
        elif r["kind"] == "content":
            detail = f"expected {r['expected']:.4f} measured {r['measured']:.4f} rel {r['delta']:+.2%}"
        else:
            detail = f"expected {r['expected']} measured {r['measured']}"
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


def cmd_verify(args: argparse.Namespace) -> int:
    with _stage("input"):
        cfg, phase, amp = _inputs(args)
        profile = PROFILES[args.tolerance]
        _validate_phase(phase, amp)
    with _stage("newton"):
        diagram = _diagram(phase)
    with _stage("predict"):
        pred = _predict(phase, amp, cfg, diagram)
    with _stage("integrate"):
        samples, (lo, hi, count) = _sampled(cfg, phase, amp)
    with _stage("curve"):
        curve = _curve(cfg, samples)
        graph_re, graph_im = reflected_pair(samples)
    with _stage("estimate"):
        eps_cfg = _section(cfg, "eps")
        estimates = {
            key: _dimension(pts, _section(eps_cfg, key), args.seed, pred.rectifiable)[2]
            for key, pts in (
                ("curve", curve.points),
                ("reflected_re", np.column_stack([graph_re.t, graph_re.x])),
                ("reflected_im", np.column_stack([graph_im.t, graph_im.x])),
            )
        }
        content_est = None
        ccfg = _section(cfg, "content")
        if ccfg.get("enabled", False):
            content_est = _content(curve.points, float(ccfg.get("d", float(pred.curve_dim))), ccfg)
    with _stage("report"):
        tol_d = profile["tol_d"]
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
                    "rtol": profile["content_rtol"],
                    "pass": bool(abs(rel) <= profile["content_rtol"]),
                }
            checks["content_verdict"] = {
                "predicted_degenerate": pred.degenerate,
                "measured": content_est.degenerate_verdict,
                "pass": _verdict_consistent(pred, content_est.degenerate_verdict),
            }
        ok = all(c["pass"] for c in checks.values())
        measured = {f"{key}_dim": est.to_dict() for key, est in estimates.items()}
        measured["content"] = None if content_est is None else content_est.to_dict()
        report = {
            "phase": str(phase),
            "phase_spec": phase.to_dict(),
            "amplitude": amp.to_dict(),
            "tau": {"min": lo, "max": hi, "count": count},
            "seed": args.seed,
            "tolerance_profile": args.tolerance,
            "newton": None if diagram is None else diagram.to_dict(),
            "predicted": pred.to_dict(),
            "measured": measured,
            "deltas": deltas,
            "checks": checks,
            "pass": ok,
        }
    if args.out:
        _emit(args, "report.json", _json_text(report))
        _emit_curve(args, curve)
        print(f"phase: {phase}")
        print(
            f"predicted d={d_pred:.6f} d'={dp_pred:.6f}"
            f" rectifiable={pred.rectifiable} degenerate={pred.degenerate}"
        )
        print(
            f"measured  curve={estimates['curve'].d_hat:.4f} ({deltas['curve_dim']:+.4f})"
            f" re={estimates['reflected_re'].d_hat:.4f} im={estimates['reflected_im'].d_hat:.4f}"
        )
        if content_est is not None:
            print(
                f"content   M_hat={content_est.M_hat:.4f}"
                f" verdict={content_est.degenerate_verdict}"
            )
        print("PASS" if ok else "FAIL")
    else:
        sys.stdout.write(_json_text(report))
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def _add_common(sp: argparse.ArgumentParser, tolerance_default: str) -> None:
    # options are added per subparser: a parents= parser would share action
    # objects, so changing one subcommand's default would leak to all
    sp.add_argument("--config", metavar="FILE", help="JSON config file")
    sp.add_argument(
        "--out", metavar="DIR", help="write outputs into DIR (default: print to stdout)"
    )
    sp.add_argument(
        "--tolerance",
        choices=sorted(PROFILES),
        default=tolerance_default,
        help=f"tolerance profile for pass/fail checks (default: {tolerance_default})",
    )
    sp.add_argument(
        "--seed", type=int, default=0, help="seed for box-count grid offsets (default: 0)"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscfract",
        description="Predict and measure fractal data of oscillatory-integral curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (
        ("newton", cmd_newton, "Newton polyhedron, remoteness, multiplicity"),
        ("predict", cmd_predict, "asymptotic prediction for a phase"),
        ("integrate", cmd_integrate, "evaluate I(tau) on a grid; CSV out"),
        ("curve", cmd_curve, "winding-resolved curve polyline; CSV and SVG out"),
        ("dim", cmd_dim, "box dimension of a polyline CSV"),
        ("content", cmd_content, "Minkowski content of a polyline CSV"),
        ("calibrate", cmd_calibrate, "synthetic-zoo pass/fail table"),
        ("verify", cmd_verify, "predict, measure, and compare; exit 0 iff pass"),
    )
    for name, fn, help_text in commands:
        sp = sub.add_parser(name, help=help_text)
        # the zoo is calibrated against the strict profile
        _add_common(sp, "strict" if name == "calibrate" else "desk")
        sp.set_defaults(func=fn)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except _StageFailure as exc:
        print(f"error {exc}", file=sys.stderr)
        return 3 if isinstance(exc.cause, NumericBudgetError) else 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error [input] {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
