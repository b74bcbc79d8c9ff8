"""Self-tests of the benchmark: input generation, spans, evaluation counts, pairing.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import oscfract.cli as cli  # noqa: E402
import oscfract.estimators as estimators  # noqa: E402
import oscfract.integrals as integrals  # noqa: E402
from spans import Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, digest, pass_seed  # noqa: E402

SMALL_FOLD = {
    "phase": {"n": 1, "terms": [{"k": [2], "c": 1.0}, {"k": [0], "c": 1.0}]},
    "tau": {"min": 20.0, "max": 60.0, "count": 12},
}


def _plan(workload, inputs, seed):
    return [(op.label, op.argv, op.output) for op in workload.ops(inputs, seed)]


def test_inputs_identical_for_identical_seeds(tmp_path):
    for name, workload in WORKLOADS.items():
        inputs = tmp_path / name
        inputs.mkdir()
        workload.write_inputs(str(inputs))
        first = digest(str(inputs))
        for f in inputs.iterdir():
            f.unlink()
        workload.write_inputs(str(inputs))
        assert digest(str(inputs)) == first, name
        for seed in (0, 7):
            s = pass_seed(seed, 2)
            assert _plan(workload, str(inputs), s) == _plan(workload, str(inputs), s), name


def test_seed_reaches_the_cli_and_the_phase_order(tmp_path):
    fold = WORKLOADS["fold-verify"]
    assert fold.ops("in", 3)[0].argv[-2:] == ("--seed", "3")
    route = WORKLOADS["predict-route"]
    a, b = _plan(route, "in", 1), _plan(route, "in", 2)
    assert a != b and sorted(a) == sorted(b)
    assert len(a) == 104


def _run(tmp_path, tracer, command, cfg, output):
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(cfg))
    with tracer.span(f"cli.{command}", "cli"), contextlib.redirect_stdout(io.StringIO()):
        cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    return json.loads((tmp_path / "out" / output).read_text())


def test_spans_nest_and_wrappers_are_restored(tmp_path):
    before = dict(vars(cli))
    sausage = estimators.sausage_area
    tracer = Tracer()
    with tracer.installed():
        assert cli.box_count is not before["box_count"]
        assert estimators.sausage_area is not sausage
        _run(tmp_path, tracer, "verify", SMALL_FOLD, "report.json")
        est = _run(tmp_path, tracer, "dim", {"polyline_csv": str(tmp_path / "out" / "curve.csv")}, "dim.json")
        _run(
            tmp_path,
            tracer,
            "content",
            {"polyline_csv": str(tmp_path / "out" / "curve.csv"), "d": 1.3, "eps": {"max": 0.02, "min": 0.005, "count": 4}},
            "content.json",
        )
    assert est["estimate"]["d_hat"] > 0
    assert all(vars(cli)[k] is v for k, v in before.items())
    assert estimators.sausage_area is sausage

    spans = tracer.spans
    layers = {sp.layer for sp in spans}
    assert {"cli", "phases", "predict", "integrals", "estimators"} <= layers
    assert sum(sp.name == "sausage_area" for sp in spans) == 4
    for sp in spans:
        assert sp.start <= sp.end
        if sp.parent is None:
            assert sp.layer == "cli"
        else:
            parent = spans[sp.parent]
            assert parent.start <= sp.start and sp.end <= parent.end
    # self times partition the root spans
    roots = sum(sp.end - sp.start for sp in spans if sp.parent is None)
    assert abs(sum(self_times(spans)) - roots) < 1e-9
    assert min(self_times(spans)) >= 0.0
    m = layer_metrics(spans, roots)
    assert abs(m["trace.covered_frac"] - 1.0) < 1e-9


def test_derived_evaluation_counts(tmp_path, monkeypatch):
    calls = {"n": 0}
    value = integrals._QuadGrid.value

    def counting(self, tau):
        calls["n"] += 1
        return value(self, tau)

    monkeypatch.setattr(integrals._QuadGrid, "value", counting)
    tracer = Tracer()
    with tracer.installed():
        _run(tmp_path, tracer, "verify", SMALL_FOLD, "report.json")
    evals = {sp.name: sp.counts["evals"] for sp in tracer.spans if "evals" in sp.counts}
    assert set(evals) == {"sample_integral", "curve_from_samples", "reflected_pair"}
    assert evals["sample_integral"] == SMALL_FOLD["tau"]["count"]
    assert sum(evals.values()) == calls["n"]
    m = layer_metrics(tracer.spans, 1.0)
    assert m["integrals.evals"] == calls["n"]
    assert m["integrals.evals_per_s.1d"] > 0 and m["integrals.evals_per_s.sep2d"] == 0


def test_every_operation_is_paired_with_the_baseline(tmp_path, monkeypatch):
    import run
    from workloads import Op, Workload

    order = []

    def fake_cli(side):
        def main(argv):
            out = argv[argv.index("--out") + 1]
            os.makedirs(out, exist_ok=True)
            with open(os.path.join(out, "o.json"), "w", encoding="utf-8") as fh:
                fh.write("{}")
            order.append((side, argv[0]))
            return 0

        return type(side, (), {"main": staticmethod(main)})

    class Three(Workload):
        name = "three"

        def ops(self, inputs, seed):
            return [Op(f"op{k}", (f"op{k}",), "o.json", lambda rc, out: (rc == 0, None)) for k in range(3)]

    monkeypatch.setattr(run, "WORK", str(tmp_path))
    _, _, results, _ = run.run_pass(fake_cli("here"), Three(), 0, 0, baseline=fake_cli("baseline"))
    assert results == [(True, None)] * 3
    # the side that goes first alternates from one operation to the next
    assert order == [
        ("here", "op0"), ("baseline", "op0"),
        ("baseline", "op1"), ("here", "op1"),
        ("here", "op2"), ("baseline", "op2"),
    ]


def test_baseline_is_a_separate_package():
    import run

    baseline = run._import_baseline()
    assert baseline is not cli and baseline.box_count is not cli.box_count
    assert sys.modules["oscfract.cli"] is cli
    assert baseline.box_count.__globals__ is not cli.box_count.__globals__
