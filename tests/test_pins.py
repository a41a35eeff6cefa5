"""Allocation and roundcmp bytes on perfbench's seeded survey files, through
the CLI with numpy blocked: allocate, verify and roundcmp must not need it.

The seed-0 K = 100,000 file (perfbench/gen.py, run from its path) is solved
at perfbench's n = round(0.2 * sum(N)), where rna's sha256 has not changed
since the first commit; at n = round(0.95 * sum(N)), where rna's r* is 9 and
sga and coma take 88,563 steps; and at the near-tie n that puts the 80,000th
stratum of the descending c = a/b order at its threshold, where the take-all
test must go to rationals. roundcmp runs on the seed-0 K = 10,000 file. All
the commands run in one child.
"""

import runpy
from pathlib import Path

import pytest

from conftest import FRACTION_ARGS, run_cli, sha256, solver_free, threshold_n
from stratalloc import formats

GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"

# sha256 of rna's allocate JSON at each n of the K = 100,000 file
LARGE_SHA256 = {
    "0.2": "e9aacabd5f547d4840b521e607d3769df9bc7348409f374bfd64d7ae5c764354",
    "0.95": "28e8629d5f509299c943020304e9f18119401493ca17ccfb0ba8ad22d97eb756",
    "tie": "cb7de33dedeb379a9e014eaa8c9db12e6a04a6108f7ac3fb76a6011aec5b4a05",
}
BISECTION_SHA256 = "5d2796c64710357f28cf565f31e31f88f719fc6fc1d54e0f752943c3aae48fa0"
# roundcmp's report on the seed-0 K = 10,000 file, as in BENCH_15.json and BENCH_16.json
ROUNDCMP_10K_SHA256 = "d64cf5a69bfc9f8aabb0cb14c7eb061ea6c9ebd8537790655d4bf2842157f029"
# verify's stdout on each of those allocations
VERIFIED = (
    "stationarity residual: 0.000e+00\nprimal residual: 0.000e+00\ncomplementary residual: 0.000e+00\n"
    "min bound multiplier: 0.000e+00\ntake-all fixed point: ok\ncertificate: valid (tol = 1e-08)\n"
)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The files' directory, the K = 100,000 file's n by name, and the
    outcome of every command on the two files."""
    root = tmp_path_factory.mktemp("pins")
    gen = runpy.run_path(str(GEN))
    path = root / "large.csv"
    gen["write_survey_csv"](str(path), 0, 100_000)
    gen["write_survey_csv"](str(root / "survey10k.csv"), 0, 10_000)
    with open(path, encoding="utf-8", newline="") as fp:
        columns = formats.read_strata_csv(fp)  # a = N * S, as the CLI forms it
    ns = {
        "0.2": str(gen["sample_size"](str(path))),
        "0.95": str(round(0.95 * sum(columns.lists[1]))),
        "tie": repr(threshold_n(*columns.lists, 80_000)),
    }
    for ending, end in (("cr", b"\r"), ("crlf", b"\r\n")):
        (root / f"large_{ending}.csv").write_bytes(path.read_bytes().replace(b"\n", end))

    def allocate(name, n, algorithm="rna", csv_name="large.csv"):
        return name, ["allocate", "--input", str(root / csv_name), "--n", n, "--algorithm", algorithm,
                      "--output", str(root / f"{name}.json")]

    def verify(name, n):
        return f"verify {name}", ["verify", "--input", str(path), "--n", n, "--allocation", str(root / f"{name}.json")]

    commands = [allocate("bisection", ns["0.2"], "bisection"), verify("bisection", ns["0.2"])]
    commands += [allocate(f"rna {ending}", ns["0.2"], csv_name=f"large_{ending}.csv") for ending in ("cr", "crlf")]
    for share, n in ns.items():
        commands += [allocate(f"{algorithm} {share}", n, algorithm) for algorithm in ("rna", "sga", "coma")]
        commands.append(verify(f"rna {share}", n))
    commands.append(("roundcmp", ["roundcmp", "--input", str(root / "survey10k.csv"), *FRACTION_ARGS,
                                  "--output", str(root / "round10k.csv")]))
    return root, ns, run_cli("blocked", commands)


def test_sample_sizes(runs):
    assert runs[1] == {"0.2": "19994127", "0.95": "94972105", "tie": "90407597.21717224"}


@pytest.mark.parametrize("share", sorted(LARGE_SHA256))
def test_solvers_bytes_and_verify(runs, share):
    # sga and coma write rna's JSON apart from the algorithm and iterations lines
    root, _, outcome = runs
    assert [outcome[f"{name} {share}"] for name in ("rna", "sga", "coma", "verify rna")] == [[0, ""]] * 3 + [[0, VERIFIED]]
    assert sha256(root / f"rna {share}.json") == LARGE_SHA256[share]
    for algorithm in ("sga", "coma"):
        assert solver_free(root / f"{algorithm} {share}.json") == solver_free(root / f"rna {share}.json"), algorithm


@pytest.mark.parametrize("ending", ["cr", "crlf"])
def test_line_endings_give_the_same_bytes(runs, ending):
    root, _, outcome = runs
    assert outcome[f"rna {ending}"] == [0, ""]
    assert sha256(root / f"rna {ending}.json") == LARGE_SHA256["0.2"]


def test_bisection_bytes_and_verify(runs):
    root, _, outcome = runs
    assert [outcome["bisection"], outcome["verify bisection"]] == [[0, ""], [0, VERIFIED]]
    assert sha256(root / "bisection.json") == BISECTION_SHA256


def test_roundcmp_bytes_at_k_10000(runs):
    root, _, outcome = runs
    assert outcome["roundcmp"] == [0, ""]
    assert sha256(root / "round10k.csv") == ROUNDCMP_10K_SHA256
