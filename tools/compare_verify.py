"""Compare what `oscfract verify` writes from two source trees.

    python3 tools/compare_verify.py OLD_SRC NEW_SRC --seeds 3 5 7
    python3 tools/compare_verify.py src src --config small.json --seeds 3

OLD_SRC and NEW_SRC are directories that hold an `oscfract` package, such
as the `src/` of two checkouts.  By default the configs are the verify
fixtures of the benchmark's fold-verify and multivar-verify workloads,
written by `perfbench/workloads.py`, which is imported and not changed;
`--config` compares on given config files instead.  Seed s runs verify with
`--seed 1000 s`, the seed of the first pass of a benchmark run at seed s.

Each config and seed runs `python3 -m oscfract.cli verify` once with each
tree on PYTHONPATH, in fresh processes, and prints one line per output
file: `identical`; for `curve.csv`, how many rows differ and the largest
|dI| / |I| of a row; for `report.json`, the keys whose values differ; for
any other file, how many lines differ.  A differing exit status is printed
as well.  The exit status is 0 when every file is identical, 1 when some
file differs and 2 when a verify run fails (exit status above 1).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fold-verify", "multivar-verify")


def benchmark_configs(inputs: str) -> list[tuple[str, str]]:
    """(label, path) of the verify configs of WORKLOADS, written into inputs."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    sys.dont_write_bytecode = True  # leave no cache under perfbench/
    import workloads

    out = []
    for name in WORKLOADS:
        workload = workloads.WORKLOADS[name]
        directory = os.path.join(inputs, name)
        os.makedirs(directory)
        workload.write_inputs(directory)
        for path, (label, _, _) in zip(workload.verify_configs(directory), workload.fixtures):
            out.append((f"{name} {label}", path))
    return out


def run_verify(src: str, config: str, seed: int, out: str) -> int:
    """Exit status of verify on config with the package in src, writing into out."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    argv = [sys.executable, "-m", "oscfract.cli", "verify", "--config", config]
    argv += ["--seed", str(seed), "--out", out]
    return subprocess.run(argv, env=env, stdout=subprocess.DEVNULL).returncode


def _leaves(obj, path: str = ""):
    """(dotted key, value) of every leaf of a JSON value; list items are [i]."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, obj


def compare_report(old: str, new: str) -> str:
    a, b = (dict(_leaves(json.loads(text))) for text in (old, new))
    absent = object()
    keys = sorted(k for k in a.keys() | b.keys() if a.get(k, absent) != b.get(k, absent))
    return f"{len(keys)} keys differ: {', '.join(keys)}" if keys else "differs in layout only"


def compare_curve(old: str, new: str) -> str:
    a, b = ([[float(v) for v in line.split(",")] for line in text.splitlines()[1:]] for text in (old, new))
    if len(a) != len(b):
        return f"{len(a)} rows against {len(b)}"
    if any(ra[0] != rb[0] for ra, rb in zip(a, b)):
        return "the tau column differs"
    moved = [(ra, rb) for ra, rb in zip(a, b) if ra != rb]
    worst = max(math.hypot(ra[1] - rb[1], ra[2] - rb[2]) / math.hypot(ra[1], ra[2]) for ra, rb in moved)
    return f"{len(moved)} of {len(a)} rows differ, largest |dI|/|I| of a row {worst:.3g}"


def compare_lines(old: str, new: str) -> str:
    a, b = old.splitlines(), new.splitlines()
    moved = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
    return f"{moved} of {max(len(a), len(b))} lines differ"


def compare_file(name: str, old: str, new: str) -> str:
    if old == new:
        return "identical"
    if name == "report.json":
        return compare_report(old, new)
    if name == "curve.csv":
        return compare_curve(old, new)
    return compare_lines(old, new)


def _read(directory: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            out[name] = fh.read()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 5, 7])
    parser.add_argument("--config", nargs="+", metavar="FILE", help="verify configs (default: the benchmark's)")
    args = parser.parse_args(argv)
    status = 0
    with tempfile.TemporaryDirectory(prefix="compare_verify_") as work:
        if args.config:
            configs = [(os.path.basename(path), os.path.abspath(path)) for path in args.config]
        else:
            configs = benchmark_configs(os.path.join(work, "inputs"))
        for k, (label, config) in enumerate(configs):
            for seed in args.seeds:
                outs = [os.path.join(work, f"{side}-{k}-{seed}") for side in ("old", "new")]
                codes = [run_verify(src, config, 1000 * seed, out) for src, out in zip((args.old_src, args.new_src), outs)]
                head = f"{label} seed {seed}"
                if max(codes) > 1:
                    print(f"{head}: verify failed, exit status {codes[0]} and {codes[1]}")
                    status = 2
                    continue
                if codes[0] != codes[1]:
                    print(f"{head}: exit status {codes[0]} against {codes[1]}")
                    status = max(status, 1)
                old, new = (_read(out) for out in outs)
                for name in sorted(old.keys() | new.keys()):
                    if name not in old or name not in new:
                        line = "written by one tree only"
                    else:
                        line = compare_file(name, old[name], new[name])
                    print(f"{head} {name}: {line}")
                    if line != "identical":
                        status = max(status, 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
