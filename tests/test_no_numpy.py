"""The CLI starts without numpy: importing the package loads none, and
allocate, verify and roundcmp run end to end with numpy blocked, writing the
same bytes as with it. So does the brute-force oracle; only popgen, which
draws populations, imports numpy, and genpop still runs with it."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stratalloc
from stratalloc.cli import main

SRC = str(Path(stratalloc.__file__).resolve().parents[1])

# Runs CLI commands in process and prints {name: [exit code, stdout]}; with
# "blocked" first, `import numpy` raises ImportError in that process.
RUNNER = """
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
import stratalloc
from stratalloc import cli
out = {}
for name, argv in json.loads(sys.argv[2]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    out[name] = [code, buf.getvalue()]
print(json.dumps(out))
"""


def python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def strata_files(tmp_path_factory):
    """A label,N,S file (lognormal, 10 blocks) and a label,a,b file (table1), with n."""
    root = tmp_path_factory.mktemp("strata")
    survey, weights = root / "survey.csv", root / "weights.csv"
    assert main(["genpop", "--kind", "lognormal", "--blocks", "10", "--seed", "0", "--output", str(survey)]) == 0
    assert main(["genpop", "--kind", "table1", "--output", str(weights)]) == 0
    return {"survey": (survey, "20000"), "weights": (weights, "8000")}


def run_commands(mode: str, files: dict, out_dir: Path) -> dict:
    commands = []
    for kind, (path, n) in files.items():
        for algorithm in ("rna", "sga", "coma", "bisection"):
            out = out_dir / f"{mode}_{kind}_{algorithm}.json"
            args = ["--input", str(path), "--n", n]
            commands.append((f"allocate {kind} {algorithm}", ["allocate", *args, "--algorithm", algorithm, "--output", str(out)]))
            commands.append((f"verify {kind} {algorithm}", ["verify", *args, "--allocation", str(out)]))
    proc = python("-c", RUNNER, mode, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_no_numpy():
    for module in ("stratalloc", "stratalloc.cli"):
        proc = python("-c", f"import sys, {module}; assert 'numpy' not in sys.modules")
        assert proc.returncode == 0, proc.stderr


def test_allocate_and_verify_without_numpy(strata_files, tmp_path):
    blocked = run_commands("blocked", strata_files, tmp_path)
    normal = run_commands("normal", strata_files, tmp_path)
    assert blocked == normal
    assert len(blocked) == 16
    for name, (code, stdout) in blocked.items():
        assert code == 0, name
        if name.startswith("verify"):
            assert "certificate: valid" in stdout, name
    for kind in strata_files:
        for algorithm in ("rna", "sga", "coma", "bisection"):
            data = (tmp_path / f"blocked_{kind}_{algorithm}.json").read_bytes()
            assert data == (tmp_path / f"normal_{kind}_{algorithm}.json").read_bytes(), (kind, algorithm)


def test_roundcmp_without_numpy(strata_files, tmp_path):
    fractions = [arg for f in ("0.1", "0.2", "0.3", "0.4", "0.5") for arg in ("--fraction", f)]
    outcome = {}
    for mode in ("blocked", "normal"):
        commands = [
            (kind, ["roundcmp", "--input", str(path), *fractions, "--output", str(tmp_path / f"{mode}_{kind}.csv")])
            for kind, (path, _) in strata_files.items()
        ]
        proc = python("-c", RUNNER, mode, json.dumps(commands))
        assert proc.returncode == 0, proc.stderr
        outcome[mode] = json.loads(proc.stdout)
    assert outcome["blocked"] == outcome["normal"] == {"survey": [0, ""], "weights": [0, ""]}
    for kind in strata_files:
        data = (tmp_path / f"blocked_{kind}.csv").read_bytes()
        assert data == (tmp_path / f"normal_{kind}.csv").read_bytes(), kind
        assert len(data.splitlines()) == 6, kind


BRUTE_FORCE = """
import sys
sys.modules["numpy"] = None
from stratalloc import brute_force_subset, power_problem, rna, table1_problem
for problem in (table1_problem(), power_problem(5000.0)):
    print((sorted(brute_force_subset(problem)), sorted(rna(problem).take_all)))
"""


def test_brute_force_without_numpy():
    proc = python("-c", BRUTE_FORCE)
    assert proc.returncode == 0, proc.stderr
    (table1, table1_rna), (power, power_rna) = map(ast.literal_eval, proc.stdout.splitlines())
    assert table1 == table1_rna == [2, 6, 15, 17]
    assert power == power_rna


def test_numpy_imported_only_by_popgen():
    importers = set()
    for path in Path(SRC, "stratalloc").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in modules):
                importers.add(path.name)
    assert importers == {"popgen.py"}


def test_blocked_numpy_is_really_blocked(tmp_path):
    # the runner's block makes any use of numpy fail, so the test above proves something
    proc = python("-c", RUNNER, "blocked", json.dumps([["genpop", ["genpop", "--kind", "lognormal", "--blocks", "1"]]]))
    assert proc.returncode != 0
    assert "numpy" in proc.stderr


def test_roundcmp_and_genpop_run_with_numpy(tmp_path):
    pop, report = tmp_path / "pop.csv", tmp_path / "report.csv"
    proc = python("-m", "stratalloc.cli", "genpop", "--kind", "lognormal", "--blocks", "10", "--output", str(pop))
    assert proc.returncode == 0, proc.stderr
    proc = python("-m", "stratalloc.cli", "roundcmp", "--input", str(pop), "--fraction", "0.1",
                  "--fraction", "0.5", "--output", str(report))
    assert proc.returncode == 0, proc.stderr
    in_process = tmp_path / "in_process.csv"
    assert main(["roundcmp", "--input", str(pop), "--fraction", "0.1", "--fraction", "0.5",
                 "--output", str(in_process)]) == 0
    assert report.read_bytes() == in_process.read_bytes()
    assert len(report.read_text().splitlines()) == 3
