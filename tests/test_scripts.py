"""The scripts run end to end: the README's examples, and a small layer
sweep that reports every layer and child."""

import json
import runpy
from pathlib import Path

from conftest import SRC, python

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_readme_examples():
    # every CLI command and "Library use" snippet of README.md, as the script's docstring says
    proc = python(str(SCRIPTS / "readme_examples.py"))
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_layer_sweep_reports_every_layer(tmp_path):
    # the script behind BENCH_*.json: one small repeat must report every
    # field the BENCH files read
    out = tmp_path / "sweep.json"
    proc = python(str(SCRIPTS / "layer_sweep.py"), "--src", f"head={SRC}", "--sizes", "20", "1000",
                  "--repeats", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    sweep = runpy.run_path(str(SCRIPTS / "layer_sweep.py"))
    report = json.loads(out.read_text())
    rows = report["results"]["head"]
    assert sorted(rows) == ["1000", "20"]
    assert sorted(report["bytecode"]["head"]) == ["dont_write_bytecode", "pycache"]
    timed = {*sweep["LAYERS"], *sweep["CHILDREN"], "rna@0.6", "sga@0.6", "coma@0.6", "sga_trace@0.6", "sga_trace@0.95"}
    for K, row in rows.items():
        assert timed - row["median_s"].keys() == set(), K
        assert {*sweep["SOLVERS"], *sweep["SHARE_SOLVERS"]} - row["iterations"].keys() == set(), K
        assert row["greedy_integer_passes"] >= 1, K
        for key in ("gc_s", "gc_collections"):
            assert all(row[key][layer] >= 0 for layer in ("build_records", "sga_trace@0.6", "sga_trace@0.95")), (K, key)
        assert all(row["peak_rss_mb"][child] > 0 for child in sweep["CHILDREN"]), K
