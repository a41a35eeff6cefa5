"""The CLI starts without numpy: importing the package loads none, and
allocate and verify run end to end with numpy blocked, writing the same bytes
as with it (test_cli.py and test_pins.py pin roundcmp's). So does the brute-force
oracle; only popgen, which draws populations, imports numpy."""

import ast
from pathlib import Path

import pytest

from conftest import RUNNER, SRC, python, run_cli
from stratalloc.cli import main


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
    return run_cli(mode, commands)


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
    proc = python("-c", RUNNER, "blocked", '[["genpop", ["genpop", "--kind", "lognormal", "--blocks", "1"]]]')
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
