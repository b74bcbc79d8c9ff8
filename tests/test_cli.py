"""CLI commands exercised in process: formats, determinism, exit codes.

Verified here:

* the front end: `--help` lists all eight commands with their one-line
  help, usage errors exit 2, options may come before or after the command,
  the default tolerance is strict for calibrate and desk for verify, and a
  missing config reads as an `[input]` error for every command that needs
  one;
* cli.verify(cfg, seed) returns the report and curve that `verify --out`
  writes, config after config, as a sweep would call it;

* newton: JSON report with exact rational distance/remoteness strings and
  the nondegeneracy block, byte-identical across runs;
* the principal-face guard for n = 4: predict on (x - y)^2 + (z - w)^2 + 1
  exits 2 at [newton] naming the facet, and newton on x^4 + y^4 + z^4 +
  w^8 + 1 lists 15 faces, each passed with a residual of exactly 1.0, and
  builds no scan domain;
* n = 5: newton and predict on (x - y)^2 + z^2 + w^2 + v^2 + 1 exit 3 at
  [newton] before the 53-million-point scan domain is built, and newton on
  a 5D power sum decides its 31 faces without one;
* predict: 1D report on stdout, with the Newton block of the vertex (2)
  that verify reports too, 2D report with the closed-form coefficient,
  also on x^p + y^2 for p = 29..35, where the reference quadrature fails,
  x^2 + y^2 + 1 (beta = -1) with exit 0 and no coefficient, the 3D
  multiplicity read off the diagram (x^4 + y^4 + z^4 + 1 nondegenerate,
  x^2 y^2 + x^6 + y^6 + z^4 + 1 degenerate with an infinite content), the
  content of diagonal_coefficient on x^3 + 1, -2x^5 + 1, 2x^2 + y^4 + 1 and
  x^4 + y^4 + z^4 + 1, none on x^2 + xy^2 + y^4 + 1, and a fresh
  interpreter that runs it never loads scipy; a constant phase exits 2 at
  [newton] in 1D and 2D alike;
* integrate / curve: CSV header and row count, SVG path structure; the
  curve CSV and SVG writers equal their row-by-row references byte for
  byte (hypothesis: NaN splits, leading and trailing NaN rows, single
  points, values whose np.abs differs from abs() in the last bit);
* curve and verify sample a 1D phase with f(0) = 0 on the same default tau
  window, so they write the same curve.csv;
* dim / content: polyline CSV round trips (named re/im and x/y columns,
  bare numeric, and a bare file whose first row is a nan,nan separator), a
  polyline path that is not a string exits 2 before anything is opened,
  estimates near known values, seeded determinism, exit 2 on grid offsets
  below 1, exit 3 when content exceeds its row-interval cap;
* dim and content on verify's curve.csv reproduce verify's own estimates
  exactly for the same eps windows and seed;
* calibrate: table assembly and exit codes on a stubbed miniature zoo;
* verify: exit 0 on a calibrated rectifiable pipeline, tolerance-profile
  wiring (desk passes where strict fails), exit 1 when the window is forced
  into the coarse transient, exit 2 on malformed input, exit 3 on numeric
  budgets, and report byte-determinism;
* verify gates content: on the fold fixture and on x^3 + 1 at the default
  windows, with content on, the check reads M_hat / predicted - 1 and fails
  the run (-37% and -22%), and against a degenerate
  prediction only a degenerate-infinity or inconclusive verdict passes;
* verify on x^2+y^4+1 and the sphere builds each octave grid of its tau
  window once, for the samples, the curve and the reflected graphs, with
  at most one grid alive at a time; a bad eps or content key exits 2 in
  the input stage, before any grid is built, and so does an eps window the
  estimators would refuse on its keys alone (a box-count count below 8, min
  above max, a content count below 2, a content max above 1/e), a tau
  window sample_integral would refuse (a float count, min above max), a
  quadrature key that is unknown (radial_bins among them) or not a count,
  and a curve max_step above pi/8; dim and
  content refuse the same windows at [input], before any estimator runs,
  and dim on a polyline with no finite point exits 2 at [estimate], as
  does dim at an eps whose grid's cell keys could pass 2^53;
* dim and content on a polyline whose finite points all coincide exit 2 at
  [estimate] when an eps default is needed (a fraction of a zero
  diameter), saying that eps max and min must be set; dim with both set
  counts one box at every eps and reads d_hat 0;
* config sections (amplitude, quadrature, tau, curve, eps, content) that are
  not JSON objects, quadrature counts and budgets that are not integers
  >= 1 (strings and bools included), a float or bool tau count, eps count,
  cell cap or grid-offset count, a string,
  bool or null where a float key (tau min/max, max_step, eps max/min, d,
  content.d, amplitude radius/phi0) expects a number, a bool n or a float
  exponent in the phase, a NaN, Infinity or overflowing config number (an
  integer literal past a double's range included), a
  `connect` or `content.enabled` switch that is not a JSON boolean, and
  quadrature on an n = 4 phase, exit 2 with a message that names the
  problem; every refused value reads `"<key>" must be ..., got <JSON>`,
  and a quadrature `points_per_wavelength` of 8.5 or "8" is refused too;
* integrate on the sphere at tau 2000 exits 3 at [integrate], naming
  memory_budget_mb, before any array of its 89.9 million node pairs exists;
* a result that cannot be written (--out names an existing file) exits 2
  at [output], for predict and verify;
* the module entry point through a real subprocess;
* in a fresh interpreter, importing the package looks up no BLAS library,
  and verify hands the caller's OpenBLAS thread count (2) back.
"""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oscfract.cli as cli
from oscfract import integrals, newton
from oscfract.cli import main
from oscfract.integrals import _octave_refs
from oscfract.newton import newton_diagram
from oscfract.phases import PolynomialPhase
from oscfract.predict import (
    content_from_coefficient,
    diagonal_coefficient,
    greenblatt_closed_form,
    predict_nd,
)

# no critical point in the support: the rectifiable pipeline is fast
X_PLUS_2 = {"phase": {"n": 1, "terms": [{"k": [1], "c": 1.0}, {"k": [0], "c": 2.0}]}}
X2_PLUS_1 = {"phase": {"n": 1, "terms": [{"k": [2], "c": 1.0}, {"k": [0], "c": 1.0}]}}
# the fold fixture of the benchmark's fold-verify workload
FOLD_VERIFY = {
    "phase": X2_PLUS_1["phase"],
    "tau": {"min": 20.0, "max": 400.0, "count": 50},
    "eps": {
        "curve": {"max": 8e-3, "min": 8e-4, "count": 8},
        "reflected_re": {"max": 2e-2, "min": 2e-3, "count": 8},
        "reflected_im": {"max": 2e-2, "min": 2e-3, "count": 8},
    },
}

X2_Y4_1 = {
    "phase": {
        "n": 2,
        "terms": [{"k": [2, 0], "c": 1.0}, {"k": [0, 4], "c": 1.0}, {"k": [0, 0], "c": 1.0}],
    }
}
# sep2d and sep3d quadrature on the windows of the benchmark's verify runs
X2_Y4_1_VERIFY = dict(
    X2_Y4_1, amplitude={"radius": 0.6}, tau={"min": 10.0, "max": 120.0, "count": 30}
)
SPHERE = {
    "phase": {
        "n": 3,
        "terms": [{"k": k, "c": 1.0} for k in ([2, 0, 0], [0, 2, 0], [0, 0, 2], [0, 0, 0])],
    },
    "tau": {"min": 3.0, "max": 20.0, "count": 12},
}
# curve window calibrated for the x+2 spiral (diam/90 .. diam/2000)
X_PLUS_2_VERIFY = dict(
    X_PLUS_2, eps={"curve": {"max": 1.02e-3, "min": 4.61e-5, "count": 10}}
)


def _cfg(tmp_path, obj, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj), encoding="utf-8")
    return str(p)


# --- newton ---


def test_newton_reports_exact_rationals(tmp_path, capsys):
    rc = main(["newton", "--config", _cfg(tmp_path, X2_Y4_1)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["newton"]["c"] == "4/3"
    assert out["newton"]["beta"] == "-3/4"
    assert out["newton"]["multiplicity"] == 0
    assert out["newton"]["remote"] is True
    assert out["r_nondegenerate"]["passed"] is True


def test_newton_output_is_byte_identical(tmp_path):
    cfg = _cfg(tmp_path, X2_Y4_1)
    rc1 = main(["newton", "--config", cfg, "--out", str(tmp_path / "a")])
    rc2 = main(["newton", "--config", cfg, "--out", str(tmp_path / "b")])
    assert rc1 == rc2 == 0
    a = (tmp_path / "a" / "newton.json").read_bytes()
    b = (tmp_path / "b" / "newton.json").read_bytes()
    assert a == b


def test_newton_requires_config():
    assert main(["newton"]) == 2


def test_malformed_json_is_an_input_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{oops", encoding="utf-8")
    assert main(["newton", "--config", str(p)]) == 2


def test_missing_config_file_is_an_input_error(tmp_path):
    assert main(["newton", "--config", str(tmp_path / "absent.json")]) == 2


# --- predict ---


def test_predict_1d_report(tmp_path, capsys):
    rc = main(["predict", "--config", _cfg(tmp_path, X2_PLUS_1)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    pred = out["prediction"]
    assert pred["curve_dim"] == "4/3"
    assert pred["osc_dim"] == "5/4"
    assert pred["content"] == pytest.approx(3.0 * 2.0 ** (2.0 / 3.0) * np.pi)
    assert pred["rectifiable"] is False
    # the 1D diagram is the vertex (2): c = 2, beta = -1/2, and verify
    # reports the same block
    block = out["newton"]
    assert (block["c"], block["beta"], block["multiplicity"]) == ("2", "-1/2", 0)
    assert block["faces"] == [{"dim": 0, "points": [[2]], "weights": ["1/2"], "level": "1"}]
    report, _ = cli.verify(FOLD_VERIFY)
    assert report["newton"] == block


def test_predict_x2_y4_includes_coefficient_and_diagram(tmp_path, capsys):
    rc = main(["predict", "--config", _cfg(tmp_path, X2_Y4_1)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    pred = out["prediction"]
    assert pred["beta"] == "-3/4"
    assert pred["curve_dim_float"] == pytest.approx(8.0 / 7.0)
    coeff = complex(*pred["leading_coeff"])
    assert abs(coeff) == pytest.approx(3.2131131218545580, abs=1e-9)
    assert out["newton"]["c"] == "4/3"


@pytest.mark.parametrize("p", [29, 31, 33, 35])
def test_predict_takes_the_closed_form_where_the_quadrature_fails(tmp_path, capsys, p):
    # greenblatt_coefficient's quadrature does not converge on x^p + y^2 for
    # these p; predict reads the closed form and never integrates
    phase = {
        "n": 2,
        "terms": [{"k": [p, 0], "c": 1.0}, {"k": [0, 2], "c": 1.0}, {"k": [0, 0], "c": 1.0}],
    }
    assert main(["predict", "--config", _cfg(tmp_path, {"phase": phase})]) == 0
    pred = json.loads(capsys.readouterr().out)["prediction"]
    assert complex(*pred["leading_coeff"]) == greenblatt_closed_form(p, 2)


def _diagonal(*powers, extra=()):
    """sum_i x_i^{a_i} + 1 plus the (k, c) pairs of extra, as a config."""
    n = len(powers)
    terms = [{"k": [a if j == i else 0 for j in range(n)], "c": 1.0} for i, a in enumerate(powers)]
    terms += [{"k": list(k), "c": c} for k, c in extra] + [{"k": [0] * n, "c": 1.0}]
    return {"phase": {"n": n, "terms": terms}}


def test_predict_beta_minus_one_needs_no_coefficient(tmp_path, capsys):
    # x^2 + y^2 + 1 has no a_{0,beta}; at beta = -1 the prediction uses none
    assert main(["predict", "--config", _cfg(tmp_path, _diagonal(2, 2))]) == 0
    pred = json.loads(capsys.readouterr().out)["prediction"]
    assert pred["beta"] == "-1"
    assert pred["curve_dim"] == pred["osc_dim"] == "1"
    assert pred["rectifiable"] is False and pred["degenerate"] is False
    assert pred["content"] is None and "leading_coeff" not in pred


@pytest.mark.parametrize(
    "cfg, multiplicity",
    [(_diagonal(4, 4, 4), 0), (_diagonal(6, 6, 4, extra=[((2, 2, 0), 1.0)]), 1)],
    ids=["x^4+y^4+z^4+1", "x^2y^2+x^6+y^6+z^4+1"],
)
def test_predict_reads_the_log_power_off_the_3d_diagram(tmp_path, capsys, cfg, multiplicity):
    assert main(["predict", "--config", _cfg(tmp_path, cfg)]) == 0
    out = json.loads(capsys.readouterr().out)
    pred = out["prediction"]
    assert pred["beta"] == "-3/4" and pred["curve_dim"] == "8/7"
    assert pred["multiplicity"] == out["newton"]["multiplicity"] == multiplicity
    assert pred["degenerate"] is bool(multiplicity)
    if multiplicity:
        assert pred["content"] == "inf"
    else:
        a = diagonal_coefficient({(4, 0, 0): 1.0, (0, 4, 0): 1.0, (0, 0, 4): 1.0})
        assert pred["content"] == content_from_coefficient(Fraction(-3, 4), a, 1.0)


def test_predict_rectifiable_for_linear_phase(tmp_path, capsys):
    rc = main(["predict", "--config", _cfg(tmp_path, X_PLUS_2)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["prediction"]["rectifiable"] is True
    assert out["prediction"]["curve_dim"] == "1"


@pytest.mark.parametrize("n", [1, 2])
def test_predict_refuses_a_constant_phase_at_newton(tmp_path, capsys, n):
    cfg = {"phase": {"n": n, "terms": [{"k": [0] * n, "c": 3.0}]}}
    assert main(["predict", "--config", _cfg(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [newton] ")
    assert "reduced support is empty" in err


# (x - y^2)^2 + y^6 + 1 and (x - y)^2 + y^4 + 1: the principal face's
# polynomial is a square, so its gradient vanishes on an orbit off the axes
R_DEGENERATE = {
    "(x-y^2)^2+y^6+1": [((2, 0), 1.0), ((1, 2), -2.0), ((0, 4), 1.0), ((0, 6), 1.0)],
    "(x-y)^2+y^4+1": [((2, 0), 1.0), ((1, 1), -2.0), ((0, 2), 1.0), ((0, 4), 1.0)],
}


def _phase_cfg(pairs, **extra):
    """sum_k c_k x^k + 1 over the (k, c) pairs, as a config."""
    n = len(pairs[0][0])
    terms = [{"k": list(k), "c": c} for k, c in pairs] + [{"k": [0] * n, "c": 1.0}]
    return dict({"phase": {"n": n, "terms": terms}}, **extra)


@pytest.mark.parametrize("command", ["predict", "verify"])
@pytest.mark.parametrize("name", sorted(R_DEGENERATE))
def test_r_degenerate_principal_face_is_refused(tmp_path, capsys, monkeypatch, command, name):
    def never(*args, **kwargs):
        raise AssertionError("quadrature ran on an R-degenerate phase")

    monkeypatch.setattr(cli, "sample_integral", never)
    cfg = _cfg(tmp_path, _phase_cfg(R_DEGENERATE[name], amplitude={"radius": 0.6}))
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [newton] principal face ")
    assert "is R-degenerate" in err


@pytest.mark.parametrize("name", sorted(R_DEGENERATE))
def test_newton_reports_an_r_degenerate_principal_face(tmp_path, capsys, name):
    assert main(["newton", "--config", _cfg(tmp_path, _phase_cfg(R_DEGENERATE[name]))]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["r_nondegenerate"]["passed"] is False


def test_predict_takes_a_scanned_nondegenerate_principal_face(tmp_path, capsys):
    # x^2 + xy^2 + y^5 + 1: the principal edge (2,0)-(1,2) has a two-term
    # partial, so the guard scans it, and it passes
    cfg = _phase_cfg([((2, 0), 1.0), ((1, 2), 1.0), ((0, 5), 1.0)])
    assert main(["predict", "--config", _cfg(tmp_path, cfg)]) == 0
    pred = json.loads(capsys.readouterr().out)["prediction"]
    assert pred["beta"] == "-3/4" and pred["curve_dim"] == "8/7"


def _counted_domains(monkeypatch) -> list:
    """Record the dimension of every nondegeneracy scan domain built."""
    built, real = [], newton._fundamental_domain

    def counted(n):
        built.append(n)
        return real(n)

    monkeypatch.setattr(newton, "_fundamental_domain", counted)
    return built


def test_four_dimensional_principal_face_is_checked(tmp_path, capsys, monkeypatch):
    # (x - y)^2 + (z - w)^2 + 1: the principal facet's gradient vanishes on
    # the plane x = y, z = w, so predict refuses it as it does for n <= 3
    pairs = [
        ((2, 0, 0, 0), 1.0),
        ((1, 1, 0, 0), -2.0),
        ((0, 2, 0, 0), 1.0),
        ((0, 0, 2, 0), 1.0),
        ((0, 0, 1, 1), -2.0),
        ((0, 0, 0, 2), 1.0),
    ]
    built = _counted_domains(monkeypatch)
    assert main(["predict", "--config", _cfg(tmp_path, _phase_cfg(pairs))]) == 2
    err = capsys.readouterr().err
    facet = [list(k) for k, _ in sorted(pairs)]
    assert err.startswith(f"error [newton] principal face {facet} is R-degenerate")
    assert built == [4]


def test_newton_decides_a_four_dimensional_power_sum_without_a_scan(
    tmp_path, capsys, monkeypatch
):
    # x^4 + y^4 + z^4 + w^8 + 1: 4 vertices, 6 edges, 4 triangles and the
    # facet, each with single-monomial partials, so no scan domain is built
    axes = [tuple(a if j == i else 0 for j in range(4)) for i, a in enumerate((4, 4, 4, 8))]
    built = _counted_domains(monkeypatch)
    cfg = _cfg(tmp_path, _phase_cfg([(k, 1.0) for k in axes]))
    assert main(["newton", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [sum(f["dim"] == d for f in out["newton"]["faces"]) for d in range(4)] == [4, 6, 4, 1]
    assert out["r_nondegenerate"] == {"passed": True, "min_residuals": [1.0] * 15}
    assert built == []


@pytest.mark.parametrize("command", ["newton", "predict"])
def test_five_dimensional_scan_is_refused_before_its_domain_is_built(
    tmp_path, capsys, monkeypatch, command
):
    # (x - y)^2 + z^2 + w^2 + v^2 + 1: the principal facet has a two-term
    # partial, and its 5D scan domain would hold 53 million points
    pairs = [((2, 0, 0, 0, 0), 1.0), ((1, 1, 0, 0, 0), -2.0), ((0, 2, 0, 0, 0), 1.0)]
    pairs += [(tuple(2 * (j == i) for j in range(5)), 1.0) for i in (2, 3, 4)]
    built = _counted_domains(monkeypatch)
    assert main([command, "--config", _cfg(tmp_path, _phase_cfg(pairs))]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error [newton] face ")
    assert "needs a nondegeneracy scan of 53,084,160 points" in err
    assert built == []


def test_newton_decides_a_five_dimensional_power_sum_without_a_scan(
    tmp_path, capsys, monkeypatch
):
    # a face with single-monomial partials is decided exactly at any n
    axes = [tuple(a if j == i else 0 for j in range(5)) for i, a in enumerate((2, 2, 4, 4, 6))]
    built = _counted_domains(monkeypatch)
    assert main(["newton", "--config", _cfg(tmp_path, _phase_cfg([(k, 1.0) for k in axes]))]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["newton"]["faces"]) == 2**5 - 1
    assert out["r_nondegenerate"] == {"passed": True, "min_residuals": [1.0] * 31}
    assert built == []


@pytest.mark.parametrize(
    "pairs",
    [
        [((3,), 1.0)],
        [((5,), -2.0)],
        [((2, 0), 2.0), ((0, 4), 1.0)],
    ],
    ids=["x^3+1", "-2x^5+1", "2x^2+y^4+1"],
)
def test_predict_takes_the_content_of_a_diagonal_principal_part(tmp_path, capsys, pairs):
    # the pairs are the principal part, and predict reads its coefficient off
    # the product formula (x^4 + y^4 + z^4 + 1 is checked with the 3D diagram)
    assert main(["predict", "--config", _cfg(tmp_path, _phase_cfg(pairs))]) == 0
    pred = json.loads(capsys.readouterr().out)["prediction"]
    a = diagonal_coefficient(dict(pairs))
    assert complex(*pred["leading_coeff"]) == a
    assert pred["content"] == content_from_coefficient(Fraction(pred["beta"]), a, 1.0)


def test_predict_leaves_the_content_of_a_mixed_principal_part_open(tmp_path, capsys):
    # x^2 + xy^2 + y^4 + 1: the mixed term lies on the principal edge
    cfg = _phase_cfg([((2, 0), 1.0), ((1, 2), 1.0), ((0, 4), 1.0)])
    assert main(["predict", "--config", _cfg(tmp_path, cfg)]) == 0
    pred = json.loads(capsys.readouterr().out)["prediction"]
    assert pred["beta"] == "-3/4" and pred["degenerate"] is False
    assert pred["content"] is None and "leading_coeff" not in pred


# --- integrate / curve ---


def test_integrate_csv_shape(tmp_path):
    cfg = _cfg(tmp_path, dict(X_PLUS_2, tau={"min": 8, "max": 40, "count": 12}))
    rc = main(["integrate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    lines = (tmp_path / "out" / "samples.csv").read_text().splitlines()
    assert lines[0] == "tau,re,im,abs"
    assert len(lines) == 13
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 8.0
    assert first[3] == pytest.approx(abs(complex(first[1], first[2])))


def test_integrate_is_deterministic(tmp_path):
    cfg = _cfg(tmp_path, dict(X_PLUS_2, tau={"min": 8, "max": 40, "count": 12}))
    rc1 = main(["integrate", "--config", cfg, "--out", str(tmp_path / "a")])
    rc2 = main(["integrate", "--config", cfg, "--out", str(tmp_path / "b")])
    assert rc1 == rc2 == 0
    assert (tmp_path / "a" / "samples.csv").read_bytes() == (
        tmp_path / "b" / "samples.csv"
    ).read_bytes()


def test_curve_emits_csv_and_svg(tmp_path):
    cfg = _cfg(tmp_path, dict(X_PLUS_2, tau={"min": 8, "max": 40, "count": 12}))
    rc = main(["curve", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    csv_lines = (tmp_path / "out" / "curve.csv").read_text().splitlines()
    assert csv_lines[0] == "tau,re,im,abs"
    assert len(csv_lines) > 100  # winding-resolved refinement
    svg = (tmp_path / "out" / "curve.svg").read_text()
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert 'd="M' in svg and svg.rstrip().endswith("</svg>")
    assert svg.count("M") == 1  # single connected path


def _reference_csv_text(tau, values) -> str:
    """_csv_text row by row; kept as the reference for the one-format writer."""
    lines = ["tau,re,im,abs"]
    for t, v in zip(tau, values):
        lines.append(f"{t:.17g},{v.real:.17g},{v.imag:.17g},{abs(v):.17g}")
    return "\n".join(lines) + "\n"


def _reference_svg_text(points) -> str:
    """_svg_text with its pen carried through a loop over rows; kept as the reference."""
    size, margin = 720, 24
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


_NAN_ROW = (math.nan, math.nan)
# np.abs(1.3040000451301372 - 0.30702894342210585j) differs from abs() in the last bit
_ABS_DIFFERS = (1.3040000451301372, -0.30702894342210585)
_ROWS = st.lists(
    st.one_of(st.just(_NAN_ROW), st.tuples(*[st.floats(-1e3, 1e3, allow_nan=False)] * 2)),
    min_size=1,
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(_ROWS)
@example([_ABS_DIFFERS])
@example([_NAN_ROW, _ABS_DIFFERS, (0.5, -0.0), _NAN_ROW])
@example([(1e-300, 2.5), _NAN_ROW, _NAN_ROW, _ABS_DIFFERS, (3.0, 4.0)])
def test_curve_writers_match_their_row_by_row_references(rows):
    # NaN splits, leading and trailing NaN rows and single points; about a
    # third of random values read a different |I| from np.abs than from abs()
    pts = np.array(rows, dtype=float)
    tau = np.linspace(20.0, 400.0, len(pts))
    values = pts[:, 0] + 1j * pts[:, 1]
    assert cli._csv_text(tau, values) == _reference_csv_text(tau, values)
    if np.isfinite(pts).all(axis=1).any():
        assert cli._svg_text(pts) == _reference_svg_text(pts)


@pytest.mark.parametrize(
    "command, extra, key",
    [
        ("integrate", {"amplitude": 3}, "amplitude"),
        ("integrate", {"quadrature": [8]}, "quadrature"),
        ("verify", {"tau": 5}, "tau"),
        ("curve", {"tau": {"min": 8, "max": 40, "count": 12}, "curve": 0.1}, "curve"),
        ("verify", {"eps": "fine"}, "eps"),
        ("verify", {"eps": {"curve": 3}}, "curve"),
        ("verify", {"content": True}, "content"),
        ("verify", {"content": {"enabled": True, "eps": [1e-3]}}, "eps"),
    ],
    ids=["amplitude", "quadrature", "tau", "curve", "eps", "eps.curve", "content", "content.eps"],
)
def test_non_object_config_section_is_an_input_error(tmp_path, capsys, command, extra, key):
    cfg = _cfg(tmp_path, dict(X_PLUS_2, **extra))
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f'"{key}" must be a JSON object' in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "key, value",
    [("panel_order", 2.5), ("panel_order", True),
     ("max_panels", "400000"), ("max_panels", True), ("max_nodes", "200000000"),
     ("max_nodes", True), ("memory_budget_mb", "1400"), ("memory_budget_mb", True),
     ("points_per_wavelength", 8.5), ("points_per_wavelength", "8")],
)
def test_bad_quadrature_count_is_an_input_error(tmp_path, capsys, key, value):
    sphere = [{"k": [2 if j == i else 0 for j in range(3)], "c": 1.0} for i in range(3)]
    cfg = _cfg(
        tmp_path,
        {
            "phase": {"n": 3, "terms": sphere + [{"k": [0, 0, 0], "c": 1.0}]},
            "tau": {"min": 2.0, "max": 4.0, "count": 3},
            "quadrature": {key: value},
        },
    )
    assert main(["integrate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f'"{key}" must be an integer >= 1, got {json.dumps(value)}' in err
    assert "Traceback" not in err


def test_non_integer_tau_count_is_an_input_error(tmp_path, capsys):
    cfg = _cfg(tmp_path, dict(X_PLUS_2, tau={"min": 8.0, "max": 40.0, "count": 7.9}))
    assert main(["integrate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert '"count" must be an integer >= 1, got 7.9' in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, extra, key",
    [
        ("dim", {"eps": {"max": 0.1, "min": 0.01, "count": 6.5}}, "count"),
        ("dim", {"offsets": 2.5}, "offsets"),
        ("dim", {"offsets": True}, "offsets"),
        ("content", {"d": 1.0, "cell_cap": 1e8}, "cell_cap"),
    ],
    ids=["eps.count", "offsets-float", "offsets-bool", "cell_cap"],
)
def test_non_integer_estimator_count_is_an_input_error(tmp_path, capsys, command, extra, key):
    csv = tmp_path / "seg.csv"
    csv.write_text("x,y\n0,0\n1,0\n", encoding="utf-8")
    cfg = _cfg(tmp_path, dict({"polyline_csv": str(csv)}, **extra))
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f'"{key}" must be an integer >= 1' in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, extra, text",
    [
        ("integrate", {"tau": {"max": math.inf}}, "Infinity"),
        ("integrate", {"amplitude": {"radius": math.inf}}, "Infinity"),
        ("integrate", {"amplitude": {"phi0": math.inf}}, "Infinity"),
        ("verify", {"amplitude": {"radius": -math.inf}}, "-Infinity"),
        ("integrate", {"phase": {"n": 1, "terms": [{"k": [2], "c": math.nan}]}}, "NaN"),
    ],
    ids=["tau.max", "radius", "phi0", "verify-radius", "coefficient"],
)
def test_non_finite_config_number_is_an_input_error(tmp_path, capsys, command, extra, text):
    # json.dumps writes NaN and Infinity, which json.load would accept
    cfg = _cfg(tmp_path, dict(X_PLUS_2, **extra))
    assert main([command, "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert f"config numbers must be finite, got {text}" in err
    assert "Traceback" not in err and out == ""


def test_overflowing_config_number_is_an_input_error(tmp_path, capsys):
    # an integer literal past a double's range too: read as a float it would
    # raise OverflowError, not exit 2
    cfg = tmp_path / "config.json"
    for literal in ("1e999", "1" * 400):
        cfg.write_text(json.dumps(X_PLUS_2)[:-1] + f', "tau": {{"max": {literal}}}}}', encoding="utf-8")
        assert main(["integrate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error [input] config numbers must be finite, got {literal}")


@pytest.mark.parametrize(
    "command, extra, key, value",
    [
        ("integrate", {"tau": {"min": "8"}}, "min", '"8"'),
        ("integrate", {"tau": {"max": True}}, "max", "true"),
        ("curve", {"tau": {"count": 12}, "curve": {"max_step": "0.1"}}, "max_step", '"0.1"'),
        ("verify", {"eps": {"curve": {"max": "1e-3"}}}, "max", '"1e-3"'),
        ("verify", {"content": {"enabled": True, "d": True}}, "d", "true"),
        ("dim", {"eps": {"max": 0.1, "min": False}}, "min", "false"),
        ("content", {"d": "1.0"}, "d", '"1.0"'),
        ("content", {"d": None}, "d", "null"),
    ],
    ids=["tau.min", "tau.max", "max_step", "eps.max", "content.d", "dim-eps.min", "d", "d-null"],
)
def test_non_numeric_float_key_is_an_input_error(tmp_path, capsys, command, extra, key, value):
    csv = tmp_path / "seg.csv"
    csv.write_text("x,y\n0,0\n1,0\n", encoding="utf-8")
    cfg = _cfg(tmp_path, dict(X_PLUS_2_VERIFY, polyline_csv=str(csv), **extra))
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f'"{key}" must be a number, got {value}' in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"eps": {"curve": {"max": "1e-3"}}}, '"max" must be a number, got "1e-3"'),
        ({"eps": {"reflected_im": {"count": 2.5}}}, '"count" must be an integer >= 1, got 2.5'),
        ({"content": {"enabled": True, "d": True}}, '"d" must be a number, got true'),
        ({"content": {"enabled": True, "eps": {"min": "0"}}}, '"min" must be a number, got "0"'),
        ({"eps": {"curve": {"count": 5}}}, "need >= 8 (eps, N) pairs, got 5"),
        ({"eps": {"reflected_re": {"max": 1e-3, "min": 1e-2}}}, "need 0 < eps_min < eps_max"),
        ({"content": {"enabled": True, "eps": {"count": 1}}}, "count must be >= 2, got 1"),
        ({"content": {"enabled": True, "eps": {"max": 0.5}}}, "content grid needs eps < 1/e"),
        ({"tau": {"count": 2.5}}, '"count" must be an integer >= 1, got 2.5'),
        ({"tau": {"min": 50.0, "max": 10.0}}, "need 0 < tau_min < tau_max < inf, got [50.0, 10.0]"),
        ({"quadrature": {"radial_bins": 0}}, "malformed quadrature config"),
        ({"quadrature": {"bogus": 1}}, "malformed quadrature config"),
        ({"quadrature": {"min_panels": 48}}, "malformed quadrature config"),
        ({"quadrature": {"max_panels": 0}}, '"max_panels" must be an integer >= 1, got 0'),
        ({"curve": {"max_step": 1.0}}, "max_step must be in (0, pi/8], got 1.0"),
    ],
    ids=["eps.max", "eps.count", "content.d", "content.eps.min", "eps.count-5",
         "eps.min-above-max", "content.eps.count-1", "content.eps.max-0.5", "tau.count",
         "tau.min-above-max", "quadrature.radial_bins", "quadrature.bogus",
         "quadrature.min_panels", "quadrature.max_panels", "curve.max_step"],
)
def test_verify_checks_estimator_keys_before_integrating(tmp_path, capsys, monkeypatch, extra, message):
    builds = []
    monkeypatch.setattr(integrals._QuadGrid, "__init__", lambda self, *a: builds.append(a))
    assert main(["verify", "--config", _cfg(tmp_path, dict(SPHERE, **extra))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [input] ") and message in err
    assert builds == []


@pytest.mark.parametrize(
    "command, extra, message",
    [
        ("dim", {"eps": {"count": 5}}, "need >= 8 (eps, N) pairs, got 5"),
        ("dim", {"eps": {"max": 1e-3, "min": 1e-2}}, "need 0 < eps_min < eps_max"),
        ("content", {"d": 1.0, "eps": {"count": 1}}, "count must be >= 2, got 1"),
        ("content", {"d": 1.0, "eps": {"max": 0.5}}, "content grid needs eps < 1/e"),
    ],
    ids=["dim-count-5", "dim-min-above-max", "content-count-1", "content-max-0.5"],
)
def test_dim_and_content_check_eps_keys_before_estimating(
    tmp_path, capsys, monkeypatch, command, extra, message
):
    def unreachable(*args, **kwargs):
        raise AssertionError("estimator reached")

    monkeypatch.setattr(cli, "box_count", unreachable)
    monkeypatch.setattr(cli, "estimate_content", unreachable)
    csv = tmp_path / "seg.csv"
    csv.write_text("x,y\n0,0\n1,0\n", encoding="utf-8")
    assert main([command, "--config", _cfg(tmp_path, dict(extra, polyline_csv=str(csv)))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [input] ") and message in err


def test_dim_refuses_a_polyline_with_no_finite_point(tmp_path, capsys):
    csv = tmp_path / "nan.csv"
    csv.write_text("x,y\nnan,nan\nnan,nan\n", encoding="utf-8")
    assert main(["dim", "--config", _cfg(tmp_path, {"polyline_csv": str(csv)})]) == 2
    assert capsys.readouterr().err == "error [estimate] polyline has no finite points\n"


def test_dim_refuses_an_eps_whose_cell_keys_pass_2_53(tmp_path, capsys):
    # eps 0.1 over a 1e9 square: a grid of 1e10 x 1e10 cells, whose keys the
    # float64 build would round (4 isolated points counted as 3)
    csv = tmp_path / "far.csv"
    csv.write_text("x,y\n0,0\nnan,nan\n1e9,1e9\nnan,nan\n5e8,0\nnan,nan\n0,1e9\n", encoding="utf-8")
    cfg = _cfg(tmp_path, {"polyline_csv": str(csv), "eps": {"max": 0.2, "min": 0.1}})
    assert main(["dim", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [estimate] eps 0.1 needs a grid of 10000000003 x 10000000003 cells")


_COINCIDE = "error [estimate] the polyline's finite points all coincide, so eps max and min must be set\n"


@pytest.mark.parametrize(
    "command, extra",
    [("dim", {}), ("dim", {"eps": {"max": 0.1}}), ("content", {"d": 1.0})],
    ids=["dim", "dim-max-only", "content"],
)
def test_eps_defaults_refuse_a_polyline_with_no_extent(tmp_path, capsys, command, extra):
    # a default eps is a fraction of the diameter, which is 0 here
    csv = tmp_path / "point.csv"
    csv.write_text("x,y\n0.5,0.5\n0.5,0.5\nnan,nan\n0.5,0.5\n", encoding="utf-8")
    cfg = _cfg(tmp_path, dict(extra, polyline_csv=str(csv)))
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err == _COINCIDE


def test_dim_of_a_polyline_with_no_extent_takes_a_set_eps_window(tmp_path, capsys):
    csv = tmp_path / "point.csv"
    csv.write_text("x,y\n0.5,0.5\n0.5,0.5\n", encoding="utf-8")
    cfg = _cfg(tmp_path, {"polyline_csv": str(csv), "eps": {"max": 0.1, "min": 0.01}})
    assert main(["dim", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["counts"] == [1.0] * 12 and out["estimate"]["d_hat"] == 0.0


@pytest.mark.parametrize(
    "amplitude, text",
    [({"radius": True}, '"radius" must be a number, got true'),
     ({"phi0": "1"}, '"phi0" must be a number, got "1"')],
    ids=["radius-bool", "phi0-string"],
)
def test_non_numeric_amplitude_is_an_input_error(tmp_path, capsys, amplitude, text):
    cfg = _cfg(tmp_path, dict(X_PLUS_2, amplitude=amplitude, tau={"min": 8, "max": 40, "count": 4}))
    assert main(["integrate", "--config", cfg]) == 2
    assert f"error [input] malformed amplitude spec: {text}" in capsys.readouterr().err


def test_truncated_exponent_is_an_input_error(tmp_path, capsys):
    # read with int() this phase was x^2: beta -1/2 and exit 0
    cfg = _cfg(tmp_path, {"phase": {"n": True, "terms": [{"k": [2.7], "c": 1}]}})
    assert main(["newton", "--config", cfg]) == 2
    assert 'malformed phase spec: "n" must be an integer, got true' in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, extra, key, value",
    [
        ("dim", {"connect": "false"}, "connect", '"false"'),
        ("dim", {"connect": 0}, "connect", "0"),
        ("verify", {"content": {"enabled": "yes"}}, "enabled", '"yes"'),
        ("verify", {"content": {"enabled": 1}}, "enabled", "1"),
    ],
    ids=["connect-string", "connect-int", "enabled-string", "enabled-int"],
)
def test_non_boolean_switch_is_an_input_error(tmp_path, capsys, command, extra, key, value):
    csv = tmp_path / "seg.csv"
    csv.write_text("x,y\n0,0\n1,0\n", encoding="utf-8")
    cfg = _cfg(tmp_path, dict(X_PLUS_2_VERIFY, polyline_csv=str(csv), **extra))
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f'"{key}" must be true or false, got {value}' in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["integrate", "verify"])
def test_four_dimensional_quadrature_names_its_limit(tmp_path, capsys, command):
    terms = [{"k": [2 if j == i else 0 for j in range(4)], "c": 1.0} for i in range(4)]
    cfg = _cfg(tmp_path, {"phase": {"n": 4, "terms": terms + [{"k": [0] * 4, "c": 1.0}]}})
    assert main([command, "--config", cfg]) == 2
    assert "quadrature supports n <= 3" in capsys.readouterr().err


def test_curve_and_verify_share_the_default_tau_window(tmp_path, capsys):
    # x^2 has f(0) = 0: both commands take the rectifiable 1D window [8, 120] x 40
    cfg = _cfg(tmp_path, {"phase": {"n": 1, "terms": [{"k": [2], "c": 1.0}]}})
    assert main(["curve", "--config", cfg, "--out", str(tmp_path / "curve")]) == 0
    main(["verify", "--config", cfg, "--out", str(tmp_path / "verify")])
    capsys.readouterr()
    report = json.loads((tmp_path / "verify" / "report.json").read_text())
    assert report["tau"] == {"min": 8.0, "max": 120.0, "count": 40}
    assert (tmp_path / "curve" / "curve.csv").read_bytes() == (
        tmp_path / "verify" / "curve.csv"
    ).read_bytes()


# --- dim / content ---


def test_read_polyline_headers_and_leading_nan_row(tmp_path):
    bare = tmp_path / "bare.csv"
    bare.write_text("nan,nan\n0,0\n1,2\n", encoding="utf-8")
    pts = cli._read_polyline(str(bare))
    assert pts.shape == (3, 2)
    assert np.isnan(pts[0]).all() and pts[1:].tolist() == [[0.0, 0.0], [1.0, 2.0]]
    xy = tmp_path / "xy.csv"
    xy.write_text("y,x\n1,0\n3,2\n", encoding="utf-8")
    assert cli._read_polyline(str(xy)).tolist() == [[0.0, 1.0], [2.0, 3.0]]
    curve = tmp_path / "curve.csv"
    curve.write_text("tau,re,im,abs\n8,0.5,-1,1.1\n9,inf,2,inf\n", encoding="utf-8")
    assert cli._read_polyline(str(curve)).tolist() == [[0.5, -1.0], [np.inf, 2.0]]


def test_dim_on_chirp_csv(tmp_path):
    from oscfract.estimators import gen_chirp

    pts = gen_chirp(0.5, 1.0)
    csv = tmp_path / "chirp.csv"
    np.savetxt(csv, pts, delimiter=",", header="x,y", comments="")
    cfg = _cfg(
        tmp_path,
        {"polyline_csv": str(csv), "eps": {"max": 5e-3, "min": 5e-4, "count": 8}},
    )
    rc = main(["dim", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    out = json.loads((tmp_path / "out" / "dim.json").read_text())
    assert out["estimate"]["d_hat"] == pytest.approx(1.25, abs=0.05)
    assert len(out["counts"]) == 8


def test_dim_reads_bare_numeric_csv(tmp_path):
    t = np.linspace(0.0, 1.0, 64)
    pts = np.column_stack([t, 0.5 * t])
    csv = tmp_path / "line.csv"
    np.savetxt(csv, pts, delimiter=",")
    cfg = _cfg(
        tmp_path,
        {"polyline_csv": str(csv), "eps": {"max": 5e-2, "min": 2e-3, "count": 9}},
    )
    rc = main(["dim", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    out = json.loads((tmp_path / "out" / "dim.json").read_text())
    assert out["estimate"]["d_hat"] == pytest.approx(1.0, abs=0.03)


def test_dim_is_seed_deterministic(tmp_path):
    t = np.linspace(0.0, 1.0, 64)
    csv = tmp_path / "line.csv"
    np.savetxt(csv, np.column_stack([t, t**2]), delimiter=",")
    cfg = _cfg(
        tmp_path,
        {"polyline_csv": str(csv), "eps": {"max": 5e-2, "min": 2e-3, "count": 9}},
    )
    rc1 = main(["dim", "--config", cfg, "--out", str(tmp_path / "a"), "--seed", "3"])
    rc2 = main(["dim", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "3"])
    assert rc1 == rc2 == 0
    assert (tmp_path / "a" / "dim.json").read_bytes() == (
        tmp_path / "b" / "dim.json"
    ).read_bytes()


def test_dim_rejects_unusable_columns(tmp_path):
    csv = tmp_path / "odd.csv"
    csv.write_text("a,b\n0,0\n1,1\n", encoding="utf-8")
    cfg = _cfg(tmp_path, {"polyline_csv": str(csv)})
    assert main(["dim", "--config", cfg]) == 2


def test_dim_requires_polyline_key(tmp_path):
    assert main(["dim", "--config", _cfg(tmp_path, {})]) == 2


@pytest.mark.parametrize("path", [-1, 2.5, None, ["curve.csv"]])
@pytest.mark.parametrize("command", ["dim", "content"])
def test_polyline_path_must_be_a_string(tmp_path, capsys, command, path):
    # open() takes an integer as a file descriptor and would read or close it
    assert main([command, "--config", _cfg(tmp_path, {"polyline_csv": path, "d": 1.0})]) == 2
    err = capsys.readouterr().err
    assert f'config needs "polyline_csv", a curve CSV path, got {json.dumps(path)}' in err


@pytest.mark.parametrize("offsets", [0, -1])
def test_dim_rejects_nonpositive_offsets(tmp_path, capsys, offsets):
    t = np.linspace(0.0, 1.0, 64)
    csv = tmp_path / "line.csv"
    np.savetxt(csv, np.column_stack([t, t**2]), delimiter=",")
    cfg = _cfg(tmp_path, {"polyline_csv": str(csv), "offsets": offsets})
    assert main(["dim", "--config", cfg]) == 2
    assert "offsets" in capsys.readouterr().err


def test_content_on_segment_csv(tmp_path):
    csv = tmp_path / "seg.csv"
    csv.write_text("x,y\n0,0\n1,0\n", encoding="utf-8")
    cfg = _cfg(
        tmp_path,
        {
            "polyline_csv": str(csv),
            "d": 1.0,
            "eps": {"max": 2e-2, "min": 2e-3, "count": 8},
        },
    )
    rc = main(["content", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    out = json.loads((tmp_path / "out" / "content.json").read_text())
    assert out["estimate"]["M_hat"] == pytest.approx(2.0, rel=0.03)
    assert out["estimate"]["degenerate_verdict"] == "nondegenerate"


def test_content_interval_cap_maps_to_exit_3(tmp_path, capsys):
    csv = tmp_path / "seg.csv"
    csv.write_text("x,y\n0,0\n1,0\n", encoding="utf-8")
    cfg = _cfg(tmp_path, {"polyline_csv": str(csv), "d": 1.0, "cell_cap": 10})
    assert main(["content", "--config", cfg]) == 3
    capsys.readouterr()


def test_content_requires_dimension(tmp_path):
    csv = tmp_path / "seg.csv"
    csv.write_text("x,y\n0,0\n1,0\n", encoding="utf-8")
    assert main(["content", "--config", _cfg(tmp_path, {"polyline_csv": str(csv)})]) == 2


# --- calibrate (stubbed zoo: the real one is exercised by acceptance) ---


def _mini_zoo(monkeypatch):
    from oscfract.estimators import gen_chirp

    seg = np.array([[0.0, 0.0], [1.0, 0.0]])
    monkeypatch.setattr(
        cli,
        "_ZOO_DIMS",
        (("mini chirp", lambda: gen_chirp(0.5, 1.0), 1.25, (5e-3, 5e-4, 8), True),),
    )
    monkeypatch.setattr(
        cli,
        "_ZOO_CONTENT",
        (("mini segment", lambda: seg, 1.0, 2.0, (2e-2, 2e-3, 8), 0.10),),
    )
    monkeypatch.setattr(
        cli,
        "_ZOO_VERDICTS",
        (
            (
                "mini verdict",
                lambda: seg,
                1.0,
                "nondegenerate",
                (2e-2, 2e-3, 8),
                120_000_000,
            ),
        ),
    )


def test_calibrate_table_and_report(tmp_path, capsys, monkeypatch):
    _mini_zoo(monkeypatch)
    rc = main(["calibrate", "--out", str(tmp_path / "out")])
    text = capsys.readouterr().out
    assert rc == 0
    assert text.strip().endswith("PASS")
    report = json.loads((tmp_path / "out" / "calibrate.json").read_text())
    assert report["pass"] is True
    assert {r["kind"] for r in report["rows"]} == {"dimension", "content", "verdict"}
    assert all(r["pass"] for r in report["rows"])


def test_calibrate_fails_on_contradiction(capsys, monkeypatch):
    _mini_zoo(monkeypatch)
    seg = np.array([[0.0, 0.0], [1.0, 0.0]])
    monkeypatch.setattr(
        cli,
        "_ZOO_VERDICTS",
        (
            (
                "wrong verdict",
                lambda: seg,
                1.0,
                "degenerate-infinity",
                (2e-2, 2e-3, 8),
                120_000_000,
            ),
        ),
    )
    rc = main(["calibrate"])
    assert rc == 1
    assert capsys.readouterr().out.strip().endswith("FAIL")


# --- verify ---


def test_verify_rectifiable_pipeline_passes(tmp_path, capsys):
    cfg = _cfg(tmp_path, X_PLUS_2_VERIFY)
    rc = main(["verify", "--config", cfg, "--out", str(tmp_path / "out")])
    text = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in text
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["pass"] is True
    assert report["predicted"]["rectifiable"] is True
    assert abs(report["deltas"]["curve_dim"]) <= 0.05
    assert (tmp_path / "out" / "curve.svg").exists()
    assert (tmp_path / "out" / "curve.csv").exists()


def test_verify_report_is_byte_identical(tmp_path):
    cfg = _cfg(tmp_path, X_PLUS_2_VERIFY)
    rc1 = main(["verify", "--config", cfg, "--out", str(tmp_path / "a")])
    rc2 = main(["verify", "--config", cfg, "--out", str(tmp_path / "b")])
    assert rc1 == rc2 == 0
    assert (tmp_path / "a" / "report.json").read_bytes() == (
        tmp_path / "b" / "report.json"
    ).read_bytes()


def test_dim_and_content_reproduce_verify_estimates(tmp_path, capsys):
    content = {"enabled": True, "d": 1.0, "eps": {"max": 2e-2, "min": 4e-3, "count": 5}}
    cfg = _cfg(tmp_path, dict(X_PLUS_2_VERIFY, content=content))
    seed = ["--seed", "5"]
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v"), *seed]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "v" / "report.json").read_text())
    curve_csv = str(tmp_path / "v" / "curve.csv")
    dim_cfg = _cfg(
        tmp_path, {"polyline_csv": curve_csv, "eps": X_PLUS_2_VERIFY["eps"]["curve"]}, "dim.json"
    )
    assert main(["dim", "--config", dim_cfg, "--out", str(tmp_path / "d"), *seed]) == 0
    dim = json.loads((tmp_path / "d" / "dim.json").read_text())
    assert dim["estimate"] == report["measured"]["curve_dim"]
    content_cfg = _cfg(
        tmp_path, {"polyline_csv": curve_csv, "d": content["d"], "eps": content["eps"]}, "c.json"
    )
    assert main(["content", "--config", content_cfg, "--out", str(tmp_path / "c")]) == 0
    est = json.loads((tmp_path / "c" / "content.json").read_text())["estimate"]
    assert est == report["measured"]["content"]


def test_verify_tolerance_profiles_differ(tmp_path, capsys):
    # measured curve dimension for this fixture sits near +0.046: inside the
    # desk profile (0.05), outside strict (0.03).
    cfg = _cfg(tmp_path, X_PLUS_2_VERIFY)
    assert main(["verify", "--config", cfg, "--tolerance", "desk"]) == 0
    assert main(["verify", "--config", cfg, "--tolerance", "strict"]) == 1
    capsys.readouterr()


def test_verify_fails_in_the_coarse_transient(tmp_path, capsys):
    # a window pinned to the outer blob of the spiral reads a dimension far
    # above 1 and must fail the comparison, not error out.
    cfg = _cfg(
        tmp_path,
        dict(X_PLUS_2, eps={"curve": {"max": 4.5e-2, "min": 4.5e-3, "count": 12}}),
    )
    rc = main(["verify", "--config", cfg])
    capsys.readouterr()
    assert rc == 1


def test_verify_rejects_second_critical_point(tmp_path, capsys):
    # x^4 - x^3 + x^2/4 has stationary points at 0.25 and 0.5 inside the
    # support: the standard-assumption gate must refuse to verify it.
    cfg = _cfg(
        tmp_path,
        {
            "phase": {
                "n": 1,
                "terms": [
                    {"k": [4], "c": 1.0},
                    {"k": [3], "c": -1.0},
                    {"k": [2], "c": 0.25},
                ],
            }
        },
    )
    rc = main(["verify", "--config", cfg])
    capsys.readouterr()
    assert rc == 2


def test_budget_exhaustion_maps_to_exit_3(tmp_path, capsys):
    cfg = _cfg(tmp_path, dict(X2_PLUS_1, quadrature={"max_panels": 10}))
    assert main(["verify", "--config", cfg]) == 3
    assert main(["integrate", "--config", cfg]) == 3
    capsys.readouterr()


def test_sep3d_pairs_are_budgeted_before_they_are_built(tmp_path, capsys):
    # at tau 2000 the sphere's top grid has 10,696 nodes per axis and 89.9
    # million node pairs, about 8 GB to build; the budget counts them first
    cfg = _cfg(tmp_path, dict(SPHERE, tau={"max": 2000.0}))
    tracemalloc.start()
    try:
        rc = main(["integrate", "--config", cfg])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error [integrate] ") and "memory_budget_mb" in err
    assert peak < 50 * 2**20


@pytest.mark.parametrize(
    "command, cfg", [("predict", X2_PLUS_1), ("verify", X_PLUS_2_VERIFY)], ids=["predict", "verify"]
)
def test_write_failure_is_an_output_error(tmp_path, capsys, command, cfg):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    assert main([command, "--config", _cfg(tmp_path, cfg), "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [output] ") and "File exists" in err


# --- front end: one parser, one config read, verify as a function ---

def test_verify_function_returns_the_cli_report(tmp_path, capsys):
    # a sweep is a loop over configs
    for i, cfg in enumerate((FOLD_VERIFY, X_PLUS_2_VERIFY)):
        report, curve = cli.verify(cfg, seed=5)
        out = tmp_path / f"out{i}"
        path = _cfg(tmp_path, cfg, f"config{i}.json")
        assert main(["verify", "--config", path, "--seed", "5", "--out", str(out)]) == 0
        assert cli._json_text(report) == (out / "report.json").read_text(encoding="utf-8")
        assert (out / "curve.csv").read_bytes() == cli._csv_text(
            curve.tau, curve.points[:, 0] + 1j * curve.points[:, 1]
        ).encode()
        assert report["pass"] is True and report["seed"] == 5
    capsys.readouterr()


def test_verify_gates_content_against_the_prediction(tmp_path, capsys):
    # the fold on its benchmark fixture reads -37%, the cusp at the default
    # windows -22%: the content estimate's bias, not the prediction's
    for i, cfg in enumerate((FOLD_VERIFY, _phase_cfg([((3,), 1.0)]))):
        path = _cfg(tmp_path, dict(cfg, content={"enabled": True}), f"config{i}.json")
        out = tmp_path / f"out{i}"
        assert main(["verify", "--config", path, "--out", str(out)]) == 1
        capsys.readouterr()
        report = json.loads((out / "report.json").read_text())
        m_hat = report["measured"]["content"]["M_hat"]
        rel = m_hat / report["predicted"]["content"] - 1.0
        check = report["checks"]["content"]
        assert check["rel_delta"] == report["deltas"]["content_rel"] == rel
        assert check["rtol"] == cli._CONTENT_RTOL < abs(rel)
        assert check["pass"] is False and report["pass"] is False
        assert report["checks"]["curve_dim"]["pass"] is True


def test_content_verdict_against_a_degenerate_prediction():
    # x^2 y^2 + 1: the bisector meets a vertex, multiplicity 1
    pred = predict_nd(newton_diagram(PolynomialPhase(2, {(2, 2): 1.0, (0, 0): 1.0})), 1.0)
    assert pred.degenerate and not pred.rectifiable
    verdicts = ("nondegenerate", "degenerate-infinity", "degenerate-zero", "inconclusive")
    accepted = [v for v in verdicts if cli._verdict_consistent(pred, v)]
    assert accepted == ["degenerate-infinity", "inconclusive"]


@pytest.mark.parametrize("cfg", [X2_Y4_1_VERIFY, SPHERE], ids=["x^2+y^4+1", "sphere"])
def test_verify_builds_each_octave_grid_once(monkeypatch, cfg):
    # the samples, the curve and the reflected graphs share one grid per
    # octave of the tau window, and a grid is gone before the next is built
    refs, grids, alive = [], [], []
    init = integrals._QuadGrid.__init__

    def tracked(self, phase, amp, qcfg, tau_ref, grad_bound=None):
        alive.append(sum(ref() is not None for ref in grids))
        init(self, phase, amp, qcfg, tau_ref, grad_bound)
        refs.append(tau_ref)
        grids.append(weakref.ref(self))

    monkeypatch.setattr(integrals._QuadGrid, "__init__", tracked)
    report, curve = cli.verify(cfg)
    assert sorted(refs) == sorted(set(_octave_refs(curve.tau, report["tau"]["max"])))
    assert max(alive) == 0


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    commands = {
        "newton": "Newton polyhedron, remoteness, multiplicity",
        "predict": "asymptotic prediction for a phase",
        "integrate": "evaluate I(tau) on a grid; CSV out",
        "curve": "winding-resolved curve polyline; CSV and SVG out",
        "dim": "box dimension of a polyline CSV",
        "content": "Minkowski content of a polyline CSV",
        "calibrate": "synthetic-zoo pass/fail table",
        "verify": "predict, measure, and compare; exit 0 iff pass",
    }
    for name, text in commands.items():
        assert any(line.split() == [name, *text.split()] for line in lines), name


@pytest.mark.parametrize(
    "argv", [["bogus"], [], ["dim", "--seed", "x"], ["verify", "--tolerance", "lax"]]
)
def test_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    capsys.readouterr()


def test_options_before_the_command(tmp_path):
    t = np.linspace(0.0, 1.0, 64)
    csv = tmp_path / "line.csv"
    np.savetxt(csv, np.column_stack([t, t**2]), delimiter=",")
    cfg = _cfg(tmp_path, {"polyline_csv": str(csv), "eps": {"max": 5e-2, "min": 2e-3, "count": 9}})
    before = ["--seed", "3", "dim", "--config", cfg, "--out", str(tmp_path / "a")]
    after = ["dim", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "3"]
    assert main(before) == main(after) == 0
    assert (tmp_path / "a" / "dim.json").read_bytes() == (tmp_path / "b" / "dim.json").read_bytes()


def test_default_tolerance_per_command(tmp_path, capsys, monkeypatch):
    _mini_zoo(monkeypatch)
    assert main(["calibrate", "--out", str(tmp_path / "c")]) == 0
    report = json.loads((tmp_path / "c" / "calibrate.json").read_text())
    assert report["tolerance"] == "strict" and report["tol_d"] == 0.03
    cfg = _cfg(tmp_path, X_PLUS_2_VERIFY)
    # one parser serves every call: neither a chosen profile nor a refused
    # argument may stick to it
    assert cli._parser() is cli._parser()
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "s"), "--tolerance", "strict"]) in (0, 1)
    report = json.loads((tmp_path / "s" / "report.json").read_text())
    assert report["tolerance_profile"] == "strict"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", cfg, "--tolerance", "loose"])
    assert exc.value.code == 2
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
    report = json.loads((tmp_path / "v" / "report.json").read_text())
    assert report["tolerance_profile"] == "desk"
    assert report["checks"]["curve_dim"]["tol"] == 0.05
    capsys.readouterr()


@pytest.mark.parametrize(
    "command", ["newton", "predict", "integrate", "curve", "dim", "content", "verify"]
)
def test_config_errors_read_the_input_stage(tmp_path, capsys, command):
    assert main([command, "--config", str(tmp_path / "absent.json")]) == 2
    assert capsys.readouterr().err.startswith("error [input] ")


# --- module entry point ---


def test_predict_leaves_scipy_unloaded(tmp_path):
    # a fresh interpreter: the parent test process may hold scipy already
    cfg = _cfg(tmp_path, X2_Y4_1)
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import sys\n"
        "from oscfract.cli import main\n"
        f"rc = main(['predict', '--config', {cfg!r}, '--out', {str(tmp_path / 'out')!r}])\n"
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    # main first prints the path it wrote; the last line is the script's
    assert proc.stdout.splitlines()[-1] == "0 []", proc.stderr
    assert (tmp_path / "out" / "predict.json").exists()


def test_import_looks_up_no_blas_and_verify_gives_the_thread_count_back(tmp_path):
    # a fresh interpreter: the parent test process has looked OpenBLAS up
    # already.  The caller's count is 2, not the 1 the quadrature runs at.
    # At its default eps windows this phase fails curve_dim (exit 1) after
    # every stage has run
    cfg = _cfg(tmp_path, X2_Y4_1_VERIFY)
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "from oscfract import integrals\n"
        "from oscfract.cli import main\n"
        "print('lookups', integrals._openblas_threads.cache_info().currsize)\n"
        "blas = integrals._openblas_threads()\n"
        "if blas is not None:\n"
        "    blas[1](2)\n"
        f"rc = main(['verify', '--config', {cfg!r}, '--out', {str(tmp_path / 'out')!r}])\n"
        "print(rc, blas and blas[0]())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    lines = proc.stdout.splitlines()
    assert lines[0] == "lookups 0", proc.stderr
    assert lines[-1] in ("1 2", "1 None"), proc.stderr
    assert (tmp_path / "out" / "report.json").exists()


def test_module_entry_point_subprocess(tmp_path):
    cfg = _cfg(tmp_path, X2_Y4_1)
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "oscfract.cli", "newton", "--config", cfg],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["newton"]["c"] == "4/3"
