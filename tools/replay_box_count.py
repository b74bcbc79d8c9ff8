"""Replay the benchmark's box_count calls on two source trees.

    python3 tools/replay_box_count.py OLD_SRC NEW_SRC --rounds 31
    python3 tools/replay_box_count.py src src --rounds 1

OLD_SRC and NEW_SRC are directories that hold an `oscfract` package, such
as the `src/` of two checkouts.  One process with OLD_SRC on PYTHONPATH
runs one pass of each of the benchmark's fold-verify, multivar-verify and
measure-zoo workloads through `oscfract.cli.main`, with the inputs that
`perfbench/workloads.py` writes (imported and not changed, with no bytecode
written), and records the arguments of every `box_count` call.  Each round
then replays every recorded call once in a fresh process per tree, the
tree that runs first alternating from round to round, and takes each
call's counts and CPU time.

It prints one line per workload: how many calls counted differently, and
the sum over its calls of each call's median CPU time on each tree, with
their ratio.  The pass is the first of a benchmark run at workload seed
SEED.  The exit status is 1 when any call's counts
differ between the trees or between rounds, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fold-verify", "multivar-verify", "measure-zoo")
SEED = 3


def record(path: str) -> None:
    """Run one pass of each workload and pickle its box_count calls into path."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    sys.dont_write_bytecode = True  # leave no cache under perfbench/
    import workloads

    from oscfract import cli, estimators

    calls = []
    current = None

    def recorded(polyline, epsilons, offsets=4, seed=0, connect=True):
        calls.append((current, polyline.copy(), epsilons.copy(), offsets, seed, connect))
        return estimators.box_count(polyline, epsilons, offsets=offsets, seed=seed, connect=connect)

    cli.box_count = recorded
    with tempfile.TemporaryDirectory(prefix="replay_box_count_") as work:
        for name in WORKLOADS:
            current = name
            workload = workloads.WORKLOADS[name]
            inputs = os.path.join(work, name)
            os.makedirs(inputs)
            workload.write_inputs(inputs)
            for op in workload.ops(inputs, workloads.pass_seed(SEED, 0)):
                if cli.main(list(op.argv) + ["--out", os.path.join(work, "out")]) != 0:
                    raise RuntimeError(f"{name}: {op.label} failed")
    with open(path, "wb") as fh:
        pickle.dump(calls, fh)


def replay(path: str) -> None:
    """Run every call pickled in path once; print the counts and CPU seconds as JSON."""
    from oscfract.estimators import box_count

    with open(path, "rb") as fh:
        calls = pickle.load(fh)
    box_count(*calls[0][1:])  # first-call costs out of the timings
    counts, cpu = [], []
    for _, polyline, epsilons, offsets, seed, connect in calls:
        t0 = time.process_time()
        got = box_count(polyline, epsilons, offsets=offsets, seed=seed, connect=connect)
        cpu.append(time.process_time() - t0)
        counts.append(got.tolist())
    print(json.dumps({"counts": counts, "cpu": cpu}))


def _run(src: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    argv = [sys.executable, os.path.abspath(__file__), *args]
    return subprocess.run(argv, env=env, check=True, capture_output=True, text=True).stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_src", nargs="?")
    parser.add_argument("new_src", nargs="?")
    parser.add_argument("--rounds", type=int, default=11)
    parser.add_argument("--record-into", help=argparse.SUPPRESS)
    parser.add_argument("--replay-from", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.record_into:
        record(args.record_into)
        return 0
    if args.replay_from:
        replay(args.replay_from)
        return 0
    if not (args.old_src and args.new_src) or args.rounds < 1:
        parser.error("give OLD_SRC and NEW_SRC, and --rounds of at least 1")
    trees = (args.old_src, args.new_src)
    with tempfile.TemporaryDirectory(prefix="replay_box_count_") as work:
        path = os.path.join(work, "calls.pickle")
        _run(args.old_src, "--record-into", path)
        with open(path, "rb") as fh:
            labels = [call[0] for call in pickle.load(fh)]
        runs = [[], []]
        for k in range(args.rounds):
            for side in (0, 1) if k % 2 == 0 else (1, 0):
                runs[side].append(json.loads(_run(trees[side], "--replay-from", path)))
    status = 0
    for name in WORKLOADS:
        idx = [i for i, label in enumerate(labels) if label == name]
        differ = sum(
            any(run["counts"][i] != runs[0][0]["counts"][i] for side in runs for run in side) for i in idx
        )
        old, new = (sum(statistics.median(run["cpu"][i] for run in side) for i in idx) for side in runs)
        verdict = "counts identical" if differ == 0 else f"{differ} count differently"
        print(f"{name}: {len(idx)} calls, {verdict}; CPU old {old:.4f} s, new {new:.4f} s, new/old {new / old:.3f}")
        status = max(status, int(differ > 0))
    return status


if __name__ == "__main__":
    sys.exit(main())
