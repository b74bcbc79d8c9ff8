"""Benchmark of the oscfract CLI: end-to-end metrics, or per-layer metrics traced.

    python3 perfbench/run.py --workload fold-verify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run first times several fresh processes that import the
package and write the workload's inputs (``setup_s``), then repeats passes
through the workload's CLI operations in this process, in-process through
``oscfract.cli.main``, until ``--seconds`` have passed.  Every operation's
output is checked against a known answer.

Operations are timed in pairs against ``perfbench/baseline/oscfract``, a
frozen copy of the package as it was when the benchmark was written, which
this process loads as a second package and runs on the same inputs right
before or after each operation.  ``pass_rel`` is the median over passes
of the pass's CPU time divided by the copy's CPU time for the same
operations: a change of the host's speed hits both sides of a pair and
cancels.  With ``--trace 1`` untraced and traced passes alternate and the
per-layer metrics come from the traced ones.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Work files go under
``.perfbench_work/`` at the root; spans and a full record of each run are
kept in ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BASELINE = os.path.join(HERE, "baseline")
# source hash of the baseline copy: src/oscfract at the commit that added the benchmark
BASELINE_SHA256 = "61bef333d2964f32aa64e328764af1f0a31aaa677927c8adff85c9a1c2843a78"
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_PROCESSES = 3
MIN_PASSES = 2
CHILD_TIMEOUT_S = 120

sys.path[:0] = [SRC, HERE]

from workloads import WORKLOADS, digest, pass_seed  # noqa: E402


def _inputs_dir(workload: str) -> str:
    return os.path.join(WORK, workload, "inputs")


def _import_package():
    """Import oscfract.cli from this checkout's src/, and nowhere else."""
    import oscfract.cli

    if not os.path.abspath(oscfract.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"oscfract imported from {oscfract.cli.__file__}, not {SRC}")
    return oscfract.cli


def setup_only(workload: str) -> None:
    """Body of a set-up process: import the package, write inputs, say ready."""
    _import_package()
    inputs = _inputs_dir(workload)
    shutil.rmtree(inputs, ignore_errors=True)
    os.makedirs(inputs)
    WORKLOADS[workload].write_inputs(os.path.relpath(inputs, ROOT))
    print("ready", flush=True)


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def timed_setups(workload: str, count: int) -> tuple[list[float], list[float], list[str]]:
    """Per set-up process: CPU seconds, wall seconds to inputs written, inputs' digest.

    A set-up process starts the interpreter, imports the package, writes
    the inputs and exits; its CPU time runs from start to exit.
    """
    cpus, walls, digests = [], [], []
    for _ in range(count):
        cpu0, t0 = _children_cpu(), time.perf_counter()
        with subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", workload],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            walls.append(time.perf_counter() - t0)
            proc.stdout.read()
            proc.wait(timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process exited with code {proc.returncode}")
        cpus.append(_children_cpu() - cpu0)
        digests.append(digest(_inputs_dir(workload)))
    return cpus, walls, digests


def _import_baseline():
    """Import the frozen copy in BASELINE as a second, separate oscfract package.

    The copy's modules are imported under their own names, ``oscfract.*``,
    and then moved out of ``sys.modules``, so that the package from
    ``src/`` stays the one that ``import oscfract`` finds.  Every function
    of the copy keeps the copy's modules as its globals.  This relies on
    the package importing its own modules only at module level, which the
    copy does.
    """
    ours = {name: sys.modules.pop(name) for name in list(sys.modules) if name.split(".")[0] == "oscfract"}
    sys.path.insert(0, BASELINE)
    try:
        import oscfract.cli as baseline_cli
    finally:
        sys.path.remove(BASELINE)
        for name in [name for name in sys.modules if name.split(".")[0] == "oscfract"]:
            del sys.modules[name]
        sys.modules.update(ours)
    if not os.path.abspath(baseline_cli.__file__).startswith(BASELINE + os.sep):
        raise ImportError(f"baseline imported from {baseline_cli.__file__}, not {BASELINE}")
    return baseline_cli


def run_op(cli, op, out_dir: str, tracer=None) -> tuple[float, float, tuple[bool, object]]:
    """One CLI operation and the check of its output: (wall s, CPU s, (ok, dim_err))."""
    t0, cpu0 = time.perf_counter(), time.process_time()
    try:
        span = tracer.span(f"cli.{op.argv[0]}", "cli") if tracer else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([*op.argv, "--out", out_dir])
        with open(os.path.join(out_dir, op.output), encoding="utf-8") as fh:
            result = op.check(rc, json.load(fh))
    except Exception:  # a crash is a failed operation; keep measuring
        traceback.print_exc(file=sys.stderr)
        print(f"operation failed: {op.label}", file=sys.stderr)
        result = (False, None)
    else:
        if not result[0]:
            print(f"check failed: {op.label} rc={rc}", file=sys.stderr)
    return time.perf_counter() - t0, time.process_time() - cpu0, result


def run_pass(cli, workload, seed: int, index: int, tracer=None, baseline=None):
    """One pass through the workload's operations.

    Returns (wall s, CPU s, per-op (ok, dim_err), baseline (wall s, CPU s)).  With
    ``baseline`` (the frozen copy's cli module) each operation also runs on
    the copy, right before or right after it runs on ``cli``; which goes
    first alternates from one operation to the next.  The copy's outputs
    are checked too, and a failure there is an error of the benchmark.
    """
    inputs = os.path.relpath(_inputs_dir(workload.name), ROOT)
    out_root = os.path.join(WORK, workload.name)
    wall = cpu = baseline_wall = baseline_cpu = 0.0
    results = []
    for k, op in enumerate(workload.ops(inputs, pass_seed(seed, index))):
        sides = ["here", "baseline"] if baseline else ["here"]
        if (index + k) % 2 == 1:
            sides.reverse()
        for side in sides:
            if side == "here":
                w, c, result = run_op(cli, op, os.path.join(out_root, "out", str(k)), tracer)
                wall, cpu = wall + w, cpu + c
                results.append(result)
            else:
                w, c, (ok, _) = run_op(baseline, op, os.path.join(out_root, "baseline-out", str(k)))
                if not ok:  # the copy passed every check when it was taken
                    raise RuntimeError(f"the baseline failed {op.label}")
                baseline_wall, baseline_cpu = baseline_wall + w, baseline_cpu + c
    return wall, cpu, results, (baseline_wall, baseline_cpu)


def quadrature_rel_gap(workload) -> float:
    """Largest |I_8 - I_16| / |I_16| at each verify fixture's tau_max.

    I_8 uses the quadrature config verify uses; I_16 doubles its
    points_per_wavelength.  0.0 when the workload has no verify fixture.
    """
    from dataclasses import replace

    from oscfract.integrals import QuadratureConfig, eval_integral
    from oscfract.phases import AmplitudeSpec, PolynomialPhase

    gap = 0.0
    for path in workload.verify_configs(os.path.relpath(_inputs_dir(workload.name), ROOT)):
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
        phase = PolynomialPhase.from_dict(cfg["phase"])
        n = phase.dimension
        amp = AmplitudeSpec.from_dict(cfg.get("amplitude", {}), n)
        quad = QuadratureConfig(**({"panel_order": 2} if n >= 3 else {}))
        tau = float(cfg["tau"]["max"])
        coarse = eval_integral(phase, amp, tau, quad)
        fine = eval_integral(phase, amp, tau, replace(quad, points_per_wavelength=16))
        gap = max(gap, abs(coarse - fine) / abs(fine))
    return gap


def _openblas() -> dict:
    """Version from numpy's build config; thread count from the loaded library."""
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    info = {"version": f"{blas.get('name', '?')} {blas.get('version', '?')}", "threads": None}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def source_sha256(src: str) -> str:
    """SHA-256 over the names and bytes of ``src``/oscfract/*.py."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "oscfract", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    commit = "none"  # a checkout without .git records only the source hash
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or "none"
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "openblas": _openblas(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": source_sha256(SRC),
        "seed": seed,
    }


def _units(kind: str) -> dict[str, str]:
    """Metric name -> unit for one metric list of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    if args.setup_only:
        setup_only(args.workload)
        return 0

    if source_sha256(BASELINE) != BASELINE_SHA256:
        raise RuntimeError(f"{BASELINE} was edited; pass_rel is defined against the copy it held")
    workload = WORKLOADS[args.workload]
    setup_cpus, setup_walls, digests = timed_setups(
        args.workload, SETUP_PROCESSES if not args.trace else 1
    )
    cli = _import_package()
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    walls, cpus, baseline_walls, baseline_cpus = [], [], [], []
    traced_walls, layer_samples, dim_errs = [], [], []
    attempted = failed = 0
    peak_rss_mb = None
    baseline = None
    t_start = time.perf_counter()
    index = 0
    while True:
        # with --trace 1 even passes run untraced and odd ones traced; with
        # --trace 0 the first pass runs alone, for the memory peak, and
        # every later operation is paired with the baseline's run of it
        if args.trace and index % 2 == 1:
            tracer.run = index
            with tracer.installed():
                wall, _, results, _ = run_pass(cli, workload, args.seed, index, tracer=tracer)
            traced_walls.append(wall)
            layer_samples.append(layer_metrics(tracer.spans, wall, index))
        else:
            wall, cpu, results, (baseline_wall, baseline_cpu) = run_pass(
                cli, workload, args.seed, index, baseline=baseline
            )
            if baseline:
                walls.append(wall)
                cpus.append(cpu)
                baseline_walls.append(baseline_wall)
                baseline_cpus.append(baseline_cpu)
            elif args.trace:
                walls.append(wall)
            else:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                baseline = _import_baseline()
        attempted += len(results)
        failed += sum(1 for ok, _ in results if not ok)
        errs = [e for _, e in results if e is not None]
        if errs:
            dim_errs.append(max(errs))
        index += 1
        passes = min(len(walls), len(traced_walls)) if args.trace else len(walls)
        # paired runs end after an even number of passes, so that every
        # operation ran first on each side equally often: in a pair, the
        # second run of an operation can differ by a few percent
        balanced = args.trace or passes % 2 == 0
        if passes >= MIN_PASSES and balanced and time.perf_counter() - t_start >= args.seconds:
            break

    if args.trace:
        values = {
            name: statistics.median(sample[name] for sample in layer_samples)
            for name in layer_samples[0]
        }
        values["integrals.rel_gap"] = quadrature_rel_gap(workload)
        values["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(walls) - 1.0
        units = _units("per_layer")
    else:
        values = {
            "pass_rel": statistics.median(c / b for c, b in zip(cpus, baseline_cpus)),
            "setup_s": statistics.median(setup_cpus),
            "peak_rss_mb": peak_rss_mb,
            "pass_frac": (attempted - failed) / attempted,
            "dim_err_max": statistics.median(dim_errs),
        }
        units = _units("end_to_end")
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    inputs_stable = len(set(digests)) == 1
    if not inputs_stable:
        print("set-up processes wrote different inputs for one seed", file=sys.stderr)
    result = {
        "correct": failed == 0 and inputs_stable,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    env = environment(args.seed)
    record = dict(result, workload=workload.name, trace=args.trace, env=env,
                  pass_walls=walls, pass_cpus=cpus, baseline_walls=baseline_walls, baseline_cpus=baseline_cpus,
                  traced_walls=traced_walls, setup_walls=setup_walls, setup_cpus=setup_cpus)
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = os.path.join(results_dir, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(stem + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.to_dicts(), fh)
    for name, m in metrics.items():
        print(f"{workload.name:16s} {name:30s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        # absolute timings, which move with the host's speed
        for name, seconds in (("pass wall", walls), ("pass CPU", cpus), ("baseline pass CPU", baseline_cpus),
                              ("setup wall", setup_walls)):
            print(f"{workload.name:16s} {name + ' (info)':30s} {statistics.median(seconds):.6g} s")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
