"""The demo scripts run to completion against the package in src/.

Each demo is copied into a temporary directory first, because
trace_the_curve.py and verify_pipeline.py write their artifacts next to
themselves (demos/out/).  The demos assert their own numbers, so exit 0
means those checks held too.  synthetic_zoo.py is left out: it repeats
acceptance criterion 8 and would double its run time.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SKIPPED = {"synthetic_zoo.py"}
DEMOS = sorted(p.name for p in (REPO / "demos").glob("*.py") if p.name not in SKIPPED)


def test_demo_list_is_not_empty():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    script = tmp_path / name
    shutil.copy(REPO / "demos" / name, script)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
