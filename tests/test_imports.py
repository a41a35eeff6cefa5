"""What importing the package and running each CLI command loads.

The package resolves its public names on first use, so ``import stratalloc``
loads no submodule, and each command imports only the modules it runs:
allocate needs no oracle, rounding, population or bench code, and none of
fractions, decimal, statistics, heapq or numpy. Every record behaves as a
frozen dataclass without importing dataclasses, so no command (import,
allocate, verify, roundcmp) loads dataclasses or inspect."""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import stratalloc
from stratalloc import IterationRecord, Stratum, SurveyStratum
from stratalloc.cli import main

SRC = str(Path(stratalloc.__file__).resolve().parents[1])

PUBLIC = [
    "AllocationProblem", "AllocationResult", "BenchResult", "InfeasibleProblemError", "InfeasibleSubsetError",
    "IterationRecord", "KktCertificate", "LabelMismatchError", "StrataColumns", "Stratum", "SurveyStratum",
    "VarianceReport", "bisection_multiplier", "brute_force_subset", "coma", "geometric_strata",
    "greedy_integer_optimal", "is_optimal_takeall", "kkt_verify", "lognormal_population", "objective",
    "power_population", "power_problem", "rna", "round_allocation", "run_bench", "s_of", "sga", "srswor_variance",
    "stratum_sd", "table1_problem", "time_solver", "v_allocation", "variance_table", "write_bench_csv",
    "write_variance_csv",
]

# Prints, as JSON, the exit code of the CLI command given in argv (None for
# a bare import) and the modules loaded from `import stratalloc.cli` on.
LOADED = """
import contextlib, io, json, sys
before = set(sys.modules)
from stratalloc.cli import main
argv = json.loads(sys.argv[1])
code = None
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""

# the modules every command loads, and those no allocate, verify or roundcmp run may load
COMMON = {"stratalloc", "stratalloc.cli", "stratalloc.model", "stratalloc.algorithms", "stratalloc.formats"}
NEVER = {"stratalloc.popgen", "stratalloc.bench", "numpy", "statistics", "fractions"}


def loaded(argv: list[str]) -> set[str]:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", LOADED, json.dumps(argv)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout)
    assert code in (None, 0), (argv, code)
    return set(modules)


@pytest.fixture(scope="module")
def commands(tmp_path_factory):
    """Each command's argv on the 10-block lognormal population."""
    root = tmp_path_factory.mktemp("imports")
    pop, alloc = str(root / "pop.csv"), str(root / "alloc.json")
    assert main(["genpop", "--kind", "lognormal", "--blocks", "10", "--seed", "0", "--output", pop]) == 0
    return {
        "import": [],
        "allocate": ["allocate", "--input", pop, "--n", "20000", "--output", alloc],
        "verify": ["verify", "--input", pop, "--n", "20000", "--allocation", alloc],
        "roundcmp": ["roundcmp", "--input", pop, "--fraction", "0.1", "--fraction", "0.5",
                     "--output", str(root / "round.csv")],
    }


def test_each_command_loads_only_its_modules(commands):
    mods = {name: loaded(argv) for name, argv in commands.items()}  # in order: verify reads allocate's file
    for name in ("import", "allocate"):
        assert {m for m in mods[name] if m.startswith("stratalloc")} == COMMON, name
        assert not mods[name] & {*NEVER, "stratalloc.oracles", "stratalloc.rounding", "decimal", "heapq"}, name
    for name in ("import", "allocate", "verify", "roundcmp"):
        assert not mods[name] & {"dataclasses", "inspect"}, name
    assert {m for m in mods["verify"] if m.startswith("stratalloc")} == COMMON | {"stratalloc.oracles"}
    assert not mods["verify"] & {*NEVER, "stratalloc.rounding"}
    assert {m for m in mods["roundcmp"] if m.startswith("stratalloc")} == COMMON | {
        "stratalloc.oracles", "stratalloc.rounding"}
    assert not mods["roundcmp"] & NEVER


def test_import_loads_no_submodule():
    env = dict(os.environ, PYTHONPATH=SRC)
    code = "import sys, stratalloc; print(sorted(m for m in sys.modules if m.startswith('stratalloc')))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['stratalloc']\n"


def test_public_names():
    assert stratalloc.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(stratalloc))
    for name in PUBLIC:
        obj = getattr(stratalloc, name)
        home = sys.modules[obj.__module__]
        assert home.__name__.startswith("stratalloc.") and getattr(home, name) is obj, name
        assert vars(stratalloc)[name] is obj, name  # resolved once, then a plain global


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from stratalloc import *", namespace)
    assert {name: namespace[name] for name in PUBLIC} == {name: getattr(stratalloc, name) for name in PUBLIC}


def test_submodules_are_attributes():
    for name in ("algorithms", "bench", "cli", "formats", "model", "oracles", "popgen", "rounding"):
        assert getattr(stratalloc, name) is sys.modules[f"stratalloc.{name}"], name


def test_unknown_name():
    with pytest.raises(AttributeError, match="^module 'stratalloc' has no attribute 'nope'$"):
        stratalloc.nope
    with pytest.raises(ImportError, match="cannot import name 'nope'"):
        exec("from stratalloc import nope", {})


@pytest.mark.parametrize(
    "record", [Stratum("u", 1.5, 2.0), SurveyStratum("v", 6.0, 3.0, 2.0), IterationRecord(2, 0.5, ("u", "v"))]
)
def test_records_pickle(record):
    # records built many at a time are tuples of their fields, which pickle rebuilds through the constructor
    assert not hasattr(record, "__dict__")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is type(record) and back == record and repr(back) == repr(record)
