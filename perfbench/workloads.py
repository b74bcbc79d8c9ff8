"""Benchmark workloads: inputs generated from a seed, CLI operations, known answers.

Every operation is one call of the public CLI entry point
``oscfract.cli.main`` with a generated config (and, for ``dim`` and
``content``, a generated polyline CSV).  Each operation carries a
known-answer check; a check returns ``(ok, dim_err)``, where ``dim_err`` is
|measured - known| curve dimension, or None when the operation measures no
dimension.

The fixtures are small on purpose: one pass through a workload takes a few
seconds, so a run can take the median of several passes.  README.md gives
the reasons for each fixture and the fixtures left out.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

Check = Callable[[int, dict], tuple[bool, Optional[float]]]


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]  # CLI arguments, without --out
    output: str  # JSON file the CLI writes into --out
    check: Check


def _phase(n: int, *terms: tuple[tuple[int, ...], float]) -> dict:
    return {"n": n, "terms": [{"k": list(k), "c": c} for k, c in terms]}


def _diagonal(*powers: int) -> dict:
    """sum_i x_i^{a_i} + 1."""
    n = len(powers)
    terms = [(tuple(a if j == i else 0 for j in range(n)), 1.0) for i, a in enumerate(powers)]
    return _phase(n, *terms, ((0,) * n, 1.0))


def curve_dim_of(beta: Fraction) -> Fraction:
    """Curve dimension 2/(1 - beta) for beta > -1; rectifiable (1) otherwise."""
    return 2 / (1 - beta) if beta > -1 else Fraction(1)


# --------------------------------------------------------------------------
# fixtures

# the reflected-graph dimensions are reported but not gated; coarse windows
# keep their box counts from outweighing the quadrature
REFLECTED_EPS = {"max": 2e-2, "min": 2e-3, "count": 8}

FOLD = (
    (
        "verify x^2+1",
        {
            "phase": _diagonal(2),
            "tau": {"min": 20.0, "max": 400.0, "count": 50},
            "eps": {
                "curve": {"max": 8e-3, "min": 8e-4, "count": 8},
                "reflected_re": REFLECTED_EPS,
                "reflected_im": REFLECTED_EPS,
            },
        },
        Fraction(4, 3),
    ),
)

MULTIVAR = (
    (
        "verify x^2+y^4+1",
        {
            "phase": _diagonal(2, 4),
            "amplitude": {"radius": 0.6},
            "tau": {"min": 10.0, "max": 120.0, "count": 30},
            "eps": {
                "curve": {"max": 1.6e-2, "min": 1.2e-3, "count": 12},
                "reflected_re": REFLECTED_EPS,
                "reflected_im": REFLECTED_EPS,
            },
        },
        Fraction(8, 7),
    ),
    (
        "verify x^2+y^2+z^2+1",
        {
            "phase": _diagonal(2, 2, 2),
            "tau": {"min": 3.0, "max": 20.0, "count": 12},
            "eps": {"curve": {"max": 3e-3, "min": 3e-4, "count": 8}},
        },
        Fraction(1),
    ),
)

# spiral r = phi^(-1/2): d = 4/3; chirp t^(1/2) sin(1/t): d = 5/4, nondegenerate
SPIRAL = {"alpha": 0.5, "phi_max": 200.0 * math.pi}
SPIRAL_EPS = {"max": 6e-3, "min": 6e-4, "count": 10}
SPIRAL_D = 4.0 / 3.0
DIM_TOL = 0.03  # the strict profile
CHIRP_EPS = {"max": 2e-3, "min": 6e-4, "count": 8}
CHIRP_D = 1.25


def predict_phases() -> list[tuple[str, dict, Fraction]]:
    """(name, phase, remoteness beta) for the predict-route workload.

    For sum_i x_i^{a_i} the Newton distance is 1/sum(1/a_i), so
    beta = -sum(1/a_i).  x^2+y^2 (beta = -1) is the boundary case the 2D
    prediction rejects by design.
    """
    out = []
    for p in range(2, 9):
        for q in range(2, 9):
            if (p, q) != (2, 2):
                out.append((f"x^{p}+y^{q}+1", _diagonal(p, q), -(Fraction(1, p) + Fraction(1, q))))
    # the bisector meets edge (2,0)-(1,2), on the line 2i + j = 4, at 4/3
    out.append(
        (
            "x^2+xy^2+y^5+1",
            _phase(2, ((2, 0), 1.0), ((1, 2), 1.0), ((0, 5), 1.0), ((0, 0), 1.0)),
            Fraction(-3, 4),
        )
    )
    # (0,3,3) is the midpoint of (0,6,0)-(0,0,6): it lies on the face of
    # x^2+y^6+z^6, so the distance stays 1/(1/2+1/6+1/6) = 6/5
    out.append(
        (
            "x^2+y^6+z^6+y^3z^3+1",
            _phase(
                3,
                ((2, 0, 0), 1.0),
                ((0, 6, 0), 1.0),
                ((0, 0, 6), 1.0),
                ((0, 3, 3), 1.0),
                ((0, 0, 0), 1.0),
            ),
            Fraction(-5, 6),
        )
    )
    out.append(("x^2+y^2+z^2+1", _diagonal(2, 2, 2), Fraction(-3, 2)))
    out.append(("x^4+y^4+z^4+w^8+1", _diagonal(4, 4, 4, 8), Fraction(-7, 8)))
    return out


# --------------------------------------------------------------------------
# known-answer checks


def _check_verify(known: Fraction) -> Check:
    def check(rc: int, out: dict) -> tuple[bool, Optional[float]]:
        d_hat = out["measured"]["curve_dim"]["d_hat"]
        ok = rc == 0 and out["pass"] is True and Fraction(out["predicted"]["curve_dim"]) == known
        return ok, abs(d_hat - float(known))

    return check


def _check_dim(rc: int, out: dict) -> tuple[bool, Optional[float]]:
    err = abs(out["estimate"]["d_hat"] - SPIRAL_D)
    return rc == 0 and err <= DIM_TOL, err


def _check_content(rc: int, out: dict) -> tuple[bool, Optional[float]]:
    return rc == 0 and out["estimate"]["degenerate_verdict"] == "nondegenerate", None


def _check_newton(beta: Fraction) -> Check:
    def check(rc: int, out: dict) -> tuple[bool, Optional[float]]:
        return rc == 0 and Fraction(out["newton"]["beta"]) == beta, None

    return check


def _check_predict(beta: Fraction) -> Check:
    known = curve_dim_of(beta)

    def check(rc: int, out: dict) -> tuple[bool, Optional[float]]:
        pred = out["prediction"]
        ok = rc == 0 and Fraction(pred["curve_dim"]) == known
        # the exact value is a fraction; the error left is the float rounding
        return ok, float(abs(Fraction(pred["curve_dim_float"]) - known))

    return check


# --------------------------------------------------------------------------
# workloads


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)


def _write_xy(path: str, pts) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y\n")
        fh.writelines(f"{x:.17g},{y:.17g}\n" for x, y in pts)


class Workload:
    name = ""

    def write_inputs(self, inputs: str) -> None:
        """Write the configs and CSVs into the directory ``inputs``."""
        raise NotImplementedError

    def ops(self, inputs: str, seed: int) -> list[Op]:
        """Operations of one pass; ``seed`` is that pass's seed."""
        raise NotImplementedError

    def verify_configs(self, inputs: str) -> list[str]:
        """Configs of the pass's verify operations (for the quadrature probe)."""
        return []


class VerifyWorkload(Workload):
    """``verify`` on each fixture in turn: (label, config, known curve dimension)."""

    def __init__(self, name: str, fixtures) -> None:
        self.name = name
        self.fixtures = fixtures

    def write_inputs(self, inputs: str) -> None:
        for config, (_, cfg, _) in zip(self.verify_configs(inputs), self.fixtures):
            _write_json(config, cfg)

    def ops(self, inputs: str, seed: int) -> list[Op]:
        return [
            Op(label, ("verify", "--config", config, "--seed", str(seed)), "report.json", _check_verify(known))
            for config, (label, _, known) in zip(self.verify_configs(inputs), self.fixtures)
        ]

    def verify_configs(self, inputs: str) -> list[str]:
        return [os.path.join(inputs, f"verify{i}.json") for i in range(len(self.fixtures))]


class MeasureZoo(Workload):
    name = "measure-zoo"

    def write_inputs(self, inputs: str) -> None:
        from oscfract.estimators import gen_chirp, gen_spiral

        spiral_csv = os.path.join(inputs, "spiral.csv")
        chirp_csv = os.path.join(inputs, "chirp.csv")
        _write_xy(spiral_csv, gen_spiral(SPIRAL["alpha"], phi_max=SPIRAL["phi_max"]))
        _write_xy(chirp_csv, 0.15 * gen_chirp(0.5, 1.0, l=0))
        _write_json(os.path.join(inputs, "dim.json"), {"polyline_csv": spiral_csv, "eps": SPIRAL_EPS})
        _write_json(
            os.path.join(inputs, "content.json"),
            {"polyline_csv": chirp_csv, "d": CHIRP_D, "eps": CHIRP_EPS},
        )

    def ops(self, inputs: str, seed: int) -> list[Op]:
        return [
            Op(
                "dim spiral a=1/2",
                ("dim", "--config", os.path.join(inputs, "dim.json"), "--seed", str(seed)),
                "dim.json",
                _check_dim,
            ),
            Op(
                "content chirp l=0",
                ("content", "--config", os.path.join(inputs, "content.json")),
                "content.json",
                _check_content,
            ),
        ]


class PredictRoute(Workload):
    name = "predict-route"

    def write_inputs(self, inputs: str) -> None:
        for i, (_, phase, _) in enumerate(predict_phases()):
            _write_json(os.path.join(inputs, f"phase{i:02d}.json"), {"phase": phase})

    def ops(self, inputs: str, seed: int) -> list[Op]:
        phases = list(enumerate(predict_phases()))
        random.Random(seed).shuffle(phases)
        out = []
        for i, (name, _, beta) in phases:
            config = os.path.join(inputs, f"phase{i:02d}.json")
            out.append(Op(f"newton {name}", ("newton", "--config", config), "newton.json", _check_newton(beta)))
            out.append(Op(f"predict {name}", ("predict", "--config", config), "predict.json", _check_predict(beta)))
        return out


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        VerifyWorkload("fold-verify", FOLD),
        VerifyWorkload("multivar-verify", MULTIVAR),
        MeasureZoo(),
        PredictRoute(),
    )
}


def pass_seed(seed: int, index: int) -> int:
    """Seed of pass ``index`` in a run with workload seed ``seed``."""
    return seed * 1000 + index


def digest(inputs: str) -> str:
    """SHA-256 over the names and bytes of every file in ``inputs``."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(inputs)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(inputs, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()
