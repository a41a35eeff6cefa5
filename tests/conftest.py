import hashlib
import heapq
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from operator import truediv
from pathlib import Path

import numpy as np
import pytest

import stratalloc
from stratalloc import AllocationProblem, StrataColumns, Stratum

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

# roundcmp's sampling fractions 0.1 to 0.5, as CLI arguments
FRACTION_ARGS = [arg for f in ("0.1", "0.2", "0.3", "0.4", "0.5") for arg in ("--fraction", f)]

# the allocation JSON's lines that name the solver and its iteration count
SOLVER_LINES = (b'  "algorithm": ', b'  "iterations": ')


def python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=300)


def run_cli(mode: str, commands: list) -> dict:
    """{name: [exit code, stdout]} of the (name, argv) CLI commands, run one
    after another in one child through RUNNER; mode "blocked" blocks numpy."""
    proc = python("-c", RUNNER, mode, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def solver_free(path: Path) -> list[bytes]:
    """The lines of an allocation JSON file apart from SOLVER_LINES: equal
    for two solvers that reach the same allocation."""
    return [line for line in path.read_bytes().splitlines(True) if not line.startswith(SOLVER_LINES)]


# Filled by test_acceptance; echoed after the test summary so the
# per-criterion verdicts are visible in any pytest run.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def make_random_problem(rng: np.random.Generator, K: int, frac: float) -> AllocationProblem:
    """Random instance: a ~ U(0.1, 10), b ~ U(1, 100), n = frac * sum(b)."""
    a = rng.uniform(0.1, 10.0, K)
    b = rng.uniform(1.0, 100.0, K)
    strata = tuple(
        Stratum(label=i, a=float(a[i]), b=float(b[i])) for i in range(K)
    )
    return AllocationProblem(strata=strata, n=float(frac * b.sum()))


def solve_mix_problem(seed: int, f: float = 0.9, K: int = 2000) -> AllocationProblem:
    """The shape of perfbench's largest solve_mix instances: N uniform on
    [2, 2000), S lognormal with sigma 1.5, a = N * S, b = N, n = round(f * sum(N))."""
    rng = np.random.default_rng(seed)
    N = rng.integers(2, 2000, K).astype(float).tolist()
    S = rng.lognormal(0.0, 1.5, K).tolist()
    return AllocationProblem(StrataColumns.survey(range(K), N, S), float(round(f * math.fsum(N))))


@pytest.fixture
def problem_factory():
    return make_random_problem


@pytest.fixture
def built_records(monkeypatch):
    """The labels of the Stratum and SurveyStratum records built while the
    test runs: every record constructor runs Stratum.__new__."""
    built = []
    new = Stratum.__new__

    def counted(cls, label, a, b):
        built.append(label)
        return new(cls, label, a, b)

    monkeypatch.setattr(Stratum, "__new__", counted)
    return built


@pytest.fixture(scope="session")
def near_ties():
    return near_tie_problems(seed=7, count=150)


@pytest.fixture(scope="session")
def split_runs():
    return split_run_problems(seed=23, count=40)


def exact_fixed_point(problem: AllocationProblem, v) -> bool:
    """The fixed-point test in rationals: B > 0, and w in V exactly when
    a_w * B >= b_w * A, with B = n - sum_V b and A = sum_{W minus V} a."""
    vset = frozenset(v)
    a = [Fraction(st.a) for st in problem.strata]
    b = [Fraction(st.b) for st in problem.strata]
    inside = [st.label in vset for st in problem.strata]
    budget = Fraction(problem.n) - sum(bw for bw, t in zip(b, inside) if t)
    denom = sum(aw for aw, t in zip(a, inside) if not t)
    if budget <= 0 or denom == 0:
        return False
    return all(t == (aw * budget >= bw * denom) for aw, bw, t in zip(a, b, inside))


def exact_takeall(problem: AllocationProblem) -> frozenset:
    """The one take-all set that passes exact_fixed_point, found by trying
    every subset (small K only)."""
    labels = problem.labels
    found = [
        v
        for mask in range(1 << len(labels))
        if exact_fixed_point(problem, v := frozenset(lb for i, lb in enumerate(labels) if mask >> i & 1))
    ]
    assert len(found) == 1, found
    return found[0]


def near_tie_problems(seed: int, count: int):
    """Random (problem, exact V) pairs with one stratum within 2 ulps of its
    take-all threshold.

    Starts from a ~ U(0.1, 10), b ~ U(1, 100), K in 2..6, n = f * sum(b)
    and its exact V. One stratum w then gets the bound b_w at which
    c_w * s(V) = 1 holds in rationals (with V kept fixed), moved by -2..2
    ulps. The exact V of the changed problem is found again by search.
    """
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        K = int(rng.integers(2, 7))
        a = [float(x) for x in rng.uniform(0.1, 10.0, K)]
        b = [float(x) for x in rng.uniform(1.0, 100.0, K)]
        n = float(rng.uniform(0.05, 0.95) * sum(b))
        base = AllocationProblem(tuple(map(Stratum, range(K), a, b)), n)
        v = exact_takeall(base)
        w = int(rng.integers(K))
        rest = Fraction(n) - sum(Fraction(b[i]) for i in v if i != w)
        denom = sum(Fraction(a[i]) for i in range(K) if i not in v)
        # off V: a_w * rest = b_w * denom; on V: a_w * (rest - b_w) = b_w * denom
        tie = Fraction(a[w]) * rest / (denom if w not in v else denom + Fraction(a[w]))
        bw = float(tie)
        for _ in range(abs(step := int(rng.integers(-2, 3)))):
            bw = math.nextafter(bw, math.copysign(math.inf, step))
        b[w] = bw
        if not (bw > 0 and n < math.fsum(b)):
            continue
        problem = AllocationProblem(tuple(map(Stratum, range(K), a, b)), n)
        out.append((problem, exact_takeall(problem)))
    return out


def split_run_problems(seed: int, count: int):
    """Random (problem, exact V) pairs in which 1/s(V) splits a run of
    strata of equal float c = a/b.

    A run of 3..7 strata shares one float c0 ~ U(0.5, 5) while their exact
    a/b differ, with b ~ U(1, 100). Up to two strata with c = c0 * U(2, 4)
    and up to two with c = c0 * U(0.2, 0.5) join it. V is the strata above
    and the run's k largest exact a/b (k in 1..m - 1), and n is the smallest
    float at which the exact threshold A/B lies between the k-th and the
    (k + 1)-th; a draw with no such float is dropped. In input order the run
    alternates non-member, member, ..., so a non-member comes first; the
    other strata go in at random places.
    """
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        c0 = float(rng.uniform(0.5, 5.0))
        m = int(rng.integers(3, 8))
        run: dict[Fraction, tuple[float, float]] = {}
        while len(run) < m:
            bw = float(rng.uniform(1.0, 100.0))
            aw = c0 * bw * (1.0 + float(rng.uniform(-1.0, 1.0)) * 2.0**-52)
            if aw / bw == c0:
                run[Fraction(aw) / Fraction(bw)] = (aw, bw)
        ratios = sorted(run, reverse=True)
        k = int(rng.integers(1, m))
        members, others = [run[r] for r in ratios[:k]], [run[r] for r in ratios[k:]]
        above, below = (
            [(c0 * float(rng.uniform(*f)) * bw, bw) for bw in rng.uniform(1.0, 100.0, rng.integers(3)).tolist()]
            for f in ((2.0, 4.0), (0.2, 0.5))
        )
        # w in V exactly when a_w / b_w >= A / B: B in [A / ratios[k - 1], A / ratios[k])
        taken = sum(Fraction(bw) for _, bw in above + members)
        denom = sum(Fraction(aw) for aw, _ in below + others)
        lo, hi = taken + denom / ratios[k - 1], taken + denom / ratios[k]
        n = float(lo)
        if n < lo:
            n = math.nextafter(n, math.inf)
        # non-member, member, ..., then the rest of the longer side
        rows = [row for pair in zip([(st, False) for st in others], [(st, True) for st in members]) for row in pair]
        rows += [(st, False) for st in others[len(members):]] + [(st, True) for st in members[len(others):]]
        for row in [(st, True) for st in above] + [(st, False) for st in below]:
            rows.insert(int(rng.integers(len(rows) + 1)), row)
        strata = tuple(Stratum(i, aw, bw) for i, ((aw, bw), _) in enumerate(rows))
        if n < hi and n < math.fsum(st.b for st in strata):
            out.append((AllocationProblem(strata, n), frozenset(i for i, (_, inside) in enumerate(rows) if inside)))
    return out


def threshold_n(a: list[float], b: list[float], p: int) -> float:
    """The n that puts the p-th stratum w of the descending c = a/b order at
    its threshold: c_w * s(V) rounds to 1 for V = order[:p]."""
    c = list(map(truediv, a, b))
    order = sorted(range(len(c)), key=c.__getitem__, reverse=True)
    return math.fsum(b[i] for i in order[:p]) + math.fsum(a[i] for i in order[p:]) / c[order[p - 1]]


def heap_greedy_counts(problem: AllocationProblem) -> list[int]:
    """Reference integer optimum: seed every stratum with one unit, then grant
    the other n - K units one heap operation at a time to the largest gain
    (a_w * a_w) / (k * (k + 1.0)), the earlier stratum first on ties.

    Slow (one heap push and pop per unit); kept as the test oracle for
    greedy_integer_optimal, which must return these counts exactly."""
    strata = problem.strata
    counts = [1] * len(strata)
    heap: list[tuple[float, int]] = []
    for i, st in enumerate(strata):
        if counts[i] < st.b:
            heapq.heappush(heap, (-(st.a * st.a) / (counts[i] * (counts[i] + 1.0)), i))
    for _ in range(int(problem.n) - len(strata)):
        _, i = heapq.heappop(heap)
        counts[i] += 1
        st = strata[i]
        if counts[i] < st.b:
            heapq.heappush(heap, (-(st.a * st.a) / (counts[i] * (counts[i] + 1.0)), i))
    return counts
