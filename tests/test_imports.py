"""What importing the package and running each CLI command loads.

The package resolves its public names on first use, so ``import stratalloc``
loads no submodule, and each command imports only the modules it runs:
``import stratalloc.cli`` compiles no solver, allocate adds the solvers
alone, verify the oracles alone (not the integer oracle, nor heapq), and
roundcmp the solvers, rounding and the integer oracle (not the other
oracles). No command loads fractions, decimal, statistics or numpy. Every
record behaves as a frozen dataclass without importing dataclasses, so no
command (import, allocate, verify, roundcmp) loads dataclasses or inspect;
json is loaded only by the commands that write or read an allocation
JSON."""

import json
import pickle
import sys

import pytest

import stratalloc
from conftest import python
from stratalloc import IterationRecord, Stratum, SurveyStratum
from stratalloc.cli import main

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
# a bare import) and the modules loaded from `import stratalloc.cli` on. The
# snapshot is taken before anything but sys is imported, and the command's
# output goes to an io.StringIO (io is loaded at start-up), so a module the
# command loads is never hidden by the snippet's own imports.
LOADED = """
import sys
before = set(sys.modules)
from stratalloc.cli import main
argv = sys.argv[1:]
code = None
if argv:
    import io
    stdout, sys.stdout = sys.stdout, io.StringIO()
    code = main(argv)
    sys.stdout = stdout
loaded = sorted(set(sys.modules) - before)
import json
print(json.dumps([code, loaded]))
"""

# the modules every command loads, and those no allocate, verify or roundcmp run may load
COMMON = {"stratalloc", "stratalloc.cli", "stratalloc.model", "stratalloc.formats"}
NEVER = {"stratalloc.popgen", "stratalloc.bench", "numpy", "statistics", "fractions"}
# the package modules each command loads beyond COMMON
OWN = {
    "import": set(),
    "allocate": {"stratalloc.algorithms"},
    "verify": {"stratalloc.oracles"},
    "roundcmp": {"stratalloc.algorithms", "stratalloc.rounding", "stratalloc.integer"},
}


def loaded(argv: list[str]) -> set[str]:
    proc = python("-c", LOADED, *argv)
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
    for name, own in OWN.items():
        assert {m for m in mods[name] if m.startswith("stratalloc")} == COMMON | own, name
        assert not mods[name] & {*NEVER, "decimal", "dataclasses", "inspect"}, name
        # only the commands that write or read an allocation JSON load json
        assert ("json" in mods[name]) == (name in ("allocate", "verify")), name
    # the solvers are compiled only by the commands that solve
    assert not (mods["import"] | mods["verify"]) & {"stratalloc.algorithms"}
    # heapq only with the integer oracle, which only roundcmp runs
    assert not (mods["import"] | mods["allocate"] | mods["verify"]) & {"stratalloc.integer", "heapq"}
    assert not mods["roundcmp"] & {"stratalloc.oracles"}


def test_import_loads_no_submodule():
    proc = python("-c", "import sys, stratalloc; print(sorted(m for m in sys.modules if m.startswith('stratalloc')))")
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
    for name in ("algorithms", "bench", "cli", "formats", "integer", "model", "oracles", "popgen", "rounding"):
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
