"""In-memory spans around the calls ``oscfract.cli`` makes into each layer.

A layer is a module of the package: ``phases``, ``newton``, ``predict``,
``integrals`` or ``estimators``.  ``Tracer.installed()`` replaces every
package function that ``oscfract.cli`` imports, plus
``estimators.sausage_area`` (which ``estimate_content`` calls internally),
with a wrapper that records a span, and puts the originals back on exit.
The benchmark opens one ``cli`` root span around each CLI call, so the
self times of all spans add up to the time spent inside the CLI.
"""

from __future__ import annotations

import contextlib
import inspect
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = math.nan
    parent: Optional[int] = None
    run: int = 0
    counts: dict = field(default_factory=dict)


def quad_mode(phase) -> str:
    """Quadrature path a phase takes: 1d, sep<n>d or gen<n>d (mixed monomials)."""
    n = phase.dimension
    if n == 1:
        return "1d"
    mixed = any(sum(1 for e in k if e > 0) > 1 for k in phase.terms)
    return f"{'gen' if mixed else 'sep'}{n}d"


def _counts(name: str, args: tuple, kwargs: dict, result) -> dict:
    """Boundary counts for one call, derived from its arguments and result."""
    if name == "sample_integral":
        return {"evals": len(result.tau), "mode": quad_mode(args[0])}
    if name in ("curve_from_samples", "reflected_pair"):
        # refined points returned minus the base samples they reuse:
        # refinement keeps every base sample, and both reflected graphs
        # share one refinement (the self-tests count the evaluations)
        samples = args[0]
        returned = len(result.tau) if name == "curve_from_samples" else len(result[0].t)
        return {"evals": returned - len(samples.tau), "mode": quad_mode(samples.phase)}
    if name == "box_count":
        offsets = kwargs.get("offsets", args[2] if len(args) > 2 else 4)
        return {"cells": float(np.sum(result)) * offsets}
    return {}


class Tracer:
    """Spans of one benchmark run, kept in memory until ``to_dicts``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, layer, time.perf_counter(), parent=parent, run=self.run)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn):
        name = fn.__name__
        layer = fn.__module__.rsplit(".", 1)[-1]

        def traced(*args, **kwargs):
            with self.span(name, layer) as sp:
                result = fn(*args, **kwargs)
            sp.counts = _counts(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer functions for the duration of the block."""
        import oscfract.cli as cli
        import oscfract.estimators as estimators

        targets = [
            (cli, name)
            for name, obj in vars(cli).items()
            if inspect.isfunction(obj)
            and obj.__module__.startswith("oscfract.")
            and obj.__module__ != cli.__name__
        ]
        targets.append((estimators, "sausage_area"))
        originals = [(mod, name, getattr(mod, name)) for mod, name in targets]
        try:
            for mod, name, fn in originals:
                setattr(mod, name, self._wrap(fn))
            yield self
        finally:
            for mod, name, fn in originals:
                setattr(mod, name, fn)

    def to_dicts(self) -> list[dict]:
        return [asdict(sp) for sp in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [sp.end - sp.start for sp in spans]
    for sp in spans:
        if sp.parent is not None:
            own[sp.parent] -= sp.end - sp.start
    return own


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


PREDICTORS = ("predict_1d", "predict_2d", "predict_nd", "predict_no_critical_point")


def layer_metrics(spans: list[Span], wall: float, run: Optional[int] = None) -> dict[str, float]:
    """Per-layer metrics of the spans of ``run`` (all spans if None), whose wall time is ``wall``."""
    own = self_times(spans)
    if run is not None:
        spans, own = zip(*[(sp, t) for sp, t in zip(spans, own) if sp.run == run])
    by_layer: dict[str, float] = {}
    by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    evals: dict[str, int] = {}
    eval_s: dict[str, float] = {}
    cells = 0.0
    for sp, t in zip(spans, own):
        by_layer[sp.layer] = by_layer.get(sp.layer, 0.0) + t
        by_name[sp.name] = by_name.get(sp.name, 0.0) + t
        calls[sp.name] = calls.get(sp.name, 0) + 1
        if "evals" in sp.counts:
            mode = sp.counts["mode"]
            evals[mode] = evals.get(mode, 0) + sp.counts["evals"]
            eval_s[mode] = eval_s.get(mode, 0.0) + t
        cells += sp.counts.get("cells", 0.0)
    box_s = by_name.get("box_count", 0.0)
    sausage_s = by_name.get("sausage_area", 0.0)
    newton_s = by_layer.get("newton", 0.0)
    predict_s = by_layer.get("predict", 0.0)
    out = {
        "integrals.sample_s": by_name.get("sample_integral", 0.0),
        "integrals.curve_s": by_name.get("curve_from_samples", 0.0),
        "integrals.reflected_s": by_name.get("reflected_pair", 0.0),
        "integrals.evals": float(sum(evals.values())),
    }
    for mode in ("1d", "sep2d", "sep3d"):
        out[f"integrals.evals_per_s.{mode}"] = _ratio(evals.get(mode, 0), eval_s.get(mode, 0.0))
    out.update(
        {
            "estimators.box_count_s": box_s,
            "estimators.box_cells_per_s": _ratio(cells, box_s),
            "estimators.sausage_s": sausage_s,
            "estimators.sausage_calls": float(calls.get("sausage_area", 0)),
            "estimators.fit_s": by_layer.get("estimators", 0.0) - box_s - sausage_s,
            "newton.diagram_s": newton_s,
            "newton.diagrams_per_s": _ratio(calls.get("newton_diagram", 0), newton_s),
            "predict.predict_s": predict_s,
            "predict.predictions_per_s": _ratio(
                sum(calls.get(p, 0) for p in PREDICTORS), predict_s
            ),
            "phases.validate_s": by_layer.get("phases", 0.0),
            "cli.self_s": by_layer.get("cli", 0.0),
            "trace.covered_frac": _ratio(sum(own), wall),
        }
    )
    return out
