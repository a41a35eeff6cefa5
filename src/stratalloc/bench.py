"""Single-threaded timing harness for the allocation solvers."""

from __future__ import annotations

import csv
import statistics
import time
from typing import IO, Callable, Iterable, Sequence

from .algorithms import SOLVERS
from .model import AllocationProblem, AllocationResult, _Record

__all__ = ["BenchResult", "time_solver", "run_bench", "write_bench_csv", "SOLVERS"]

BENCH_CSV_HEADER = (
    "algorithm",
    "problem_id",
    "K",
    "n",
    "median_ns",
    "repetitions",
    "iterations",
    "take_all_count",
)


class BenchResult(_Record):
    """Median wall time of one solver on one problem.

    median_ns is the median over ``repetitions`` timed runs (warm-up runs
    excluded). iterations and take_all_count describe the solver's output,
    identical across runs.
    """

    algorithm: str
    problem_id: str
    K: int
    n: float
    median_ns: int
    repetitions: int
    iterations: int
    take_all_count: int


def time_solver(
    solver: Callable[[AllocationProblem], AllocationResult],
    problem: AllocationProblem,
    *,
    repetitions: int = 100,
    warmup: int = 10,
) -> tuple[int, AllocationResult]:
    """Median run time in nanoseconds, plus the (deterministic) result.

    Runs ``warmup`` untimed calls first, then ``repetitions`` timed calls
    with ``time.perf_counter_ns``. The timed section is the solver call
    alone, single-threaded.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    result = None
    for _ in range(warmup):
        result = solver(problem)
    times = []
    for _ in range(repetitions):
        t0 = time.perf_counter_ns()
        result = solver(problem)
        times.append(time.perf_counter_ns() - t0)
    assert result is not None
    return int(statistics.median(times)), result


def run_bench(problems: Sequence[tuple[str, AllocationProblem]], *, repetitions: int = 100) -> list[BenchResult]:
    """Time each solver of SOLVERS (rna, sga, coma) on each (problem_id, problem) pair."""
    out = []
    for problem_id, problem in problems:
        for name, solver in SOLVERS.items():
            median_ns, result = time_solver(solver, problem, repetitions=repetitions)
            out.append(
                BenchResult(
                    algorithm=name,
                    problem_id=problem_id,
                    K=problem.size,
                    n=problem.n,
                    median_ns=median_ns,
                    repetitions=repetitions,
                    iterations=result.iterations,
                    take_all_count=sum(result._columns()[2]),
                )
            )
    return out


def write_bench_csv(results: Iterable[BenchResult], fp: IO[str]) -> None:
    writer = csv.writer(fp)
    writer.writerow(BENCH_CSV_HEADER)
    for res in results:
        n = res.n
        writer.writerow(
            [
                res.algorithm,
                res.problem_id,
                res.K,
                int(n) if n == int(n) else repr(n),
                res.median_ns,
                res.repetitions,
                res.iterations,
                res.take_all_count,
            ]
        )
