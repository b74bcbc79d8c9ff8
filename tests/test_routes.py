"""The prediction route and the measurement route share no code path.

Verified here:
* no module of the prediction route (newton, predict) imports a module of
  the measurement route (integrals, estimators), and none of the
  measurement route imports one of the prediction route; imports inside
  functions count too.  Both routes may import phases, which holds the
  phase and amplitude they start from;
* estimators imports nothing of the package but phases, so the geometry
  measurement loads nothing of the integrals layer;
* the import scan reads absolute, relative and function-level imports.
"""

import ast
from pathlib import Path

import pytest

import oscfract

PACKAGE = Path(oscfract.__file__).parent
ROUTES = {"prediction": {"newton", "predict"}, "measurement": {"integrals", "estimators"}}


def _imported(source: str) -> set[str]:
    """Modules of the oscfract package that source imports anywhere."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "oscfract." + base if base else "oscfract"
            # "from oscfract import integrals" imports a module by its name
            names += [base] + [f"{base}.{alias.name}" for alias in node.names]
    parts = [name.split(".") for name in names]
    return {p[1] for p in parts if len(p) > 1 and p[0] == "oscfract"}


@pytest.mark.parametrize(
    "route, other", [("prediction", "measurement"), ("measurement", "prediction")]
)
def test_routes_import_nothing_of_each_other(route, other):
    for module in sorted(ROUTES[route]):
        source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
        assert not _imported(source) & ROUTES[other], module


def test_import_scan_reads_every_form():
    source = (
        "import oscfract.newton\n"
        "from oscfract.phases import PolynomialPhase\n"
        "from .predict import caustic_prediction\n"
        "def f():\n"
        "    from oscfract import integrals\n"
        "    from . import estimators\n"
    )
    assert _imported(source) == {"newton", "phases", "predict", "integrals", "estimators"}
    assert "phases" in _imported((PACKAGE / "newton.py").read_text(encoding="utf-8"))


def test_estimators_import_only_phases():
    # the box counts and sausage areas need no quadrature: plain polylines in
    source = (PACKAGE / "estimators.py").read_text(encoding="utf-8")
    assert _imported(source) == {"phases"}
