"""tools/replay_box_count.py, the replay of the benchmark's box_count calls on two trees.

Verified here:
* run with src/ against itself for one round, it records the calls of one
  pass of fold-verify, multivar-verify and measure-zoo, prints one line
  per workload, each with its call count and `counts identical`, and
  exits 0.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "replay_box_count.py")


def test_a_tree_against_itself_counts_the_same():
    src = os.path.join(ROOT, "src")
    argv = [sys.executable, TOOL, src, src, "--rounds", "1"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["fold-verify", "multivar-verify", "measure-zoo"]
    # one pass: the curve and two reflected graphs per verify fixture but
    # the sphere's, and measure-zoo's dim
    assert [line.split()[1] for line in lines] == ["3", "6", "1"]
    assert all("calls, counts identical; CPU old" in line for line in lines)
