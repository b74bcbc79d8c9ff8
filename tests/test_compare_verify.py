"""tools/compare_verify.py, the byte comparison of two trees' verify outputs.

Verified here:
* run with src/ against itself on one small x^2+1 config, it prints one
  line per output file (curve.csv, curve.svg, report.json), each reading
  `identical`, and exits 0;
* a moved curve row is reported with its |dI| / |I|, a changed report
  value by its dotted key, and any other file by its count of lines.
"""

import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "compare_verify.py")


def _tool():
    spec = importlib.util.spec_from_file_location("compare_verify", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tree_against_itself_is_identical(tmp_path):
    config = tmp_path / "fold.json"
    phase = {"n": 1, "terms": [{"k": [2], "c": 1.0}, {"k": [0], "c": 1.0}]}
    config.write_text(json.dumps({"phase": phase, "tau": {"min": 20.0, "max": 60.0, "count": 12}}))
    src = os.path.join(ROOT, "src")
    argv = [sys.executable, TOOL, src, src, "--config", str(config), "--seeds", "3"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[3] for line in lines] == ["curve.csv:", "curve.svg:", "report.json:"]
    assert all(line.endswith(": identical") for line in lines)


def test_differences_are_named():
    tool = _tool()
    csv = "tau,re,im,abs\n1,0.6,0.8,1\n2,0.3,0.4,0.5\n"
    moved = csv.replace("0.3,0.4", "0.3,0.40000000000000008")
    assert tool.compare_file("curve.csv", csv, moved) == "1 of 2 rows differ, largest |dI|/|I| of a row 1.11e-16"
    report = {"pass": True, "measured": {"curve_dim": {"d_hat": 1.3}}, "rows": [1, 2]}
    changed = dict(report, measured={"curve_dim": {"d_hat": 1.4}}, rows=[1, 3])
    assert tool.compare_file("report.json", json.dumps(report), json.dumps(changed)) == (
        "2 keys differ: measured.curve_dim.d_hat, rows[1]"
    )
    assert tool.compare_file("curve.svg", "a\nb\n", "a\nc\n") == "1 of 2 lines differ"
