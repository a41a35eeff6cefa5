"""Command-line interface.

Subcommands: allocate, verify, bench, genpop, roundcmp. Exit codes: 0 on
success, 1 when verification fails, 2 on input errors, 3 on infeasible
problems (n exceeding the total bound).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager
from typing import IO, Iterator

from . import formats
from .algorithms import SOLVERS
from .model import AllocationProblem, InfeasibleProblemError, StrataColumns, is_optimal_takeall

# oracles, rounding, popgen and bench are imported by the commands that run
# them, so that a command compiles and loads only the modules it needs


@contextmanager
def _open_out(path: str | None) -> Iterator[IO[str]]:
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fp:
            yield fp


def _read_rows(path: str) -> StrataColumns:
    with open(path, encoding="utf-8", newline="") as fp:
        return formats.read_strata_csv(fp, name=path)


def _check_fractions(fractions: list[float]) -> list[float]:
    for f in fractions:
        if not (0 < f <= 1):
            raise ValueError(f"--fraction must be in (0, 1], got {f!r}")
    return fractions


def cmd_allocate(args: argparse.Namespace) -> int:
    rows = _read_rows(args.input)
    problem = formats.problem_from_rows(rows, args.n)
    if problem.is_census:
        print("note: n equals the total bound; trivial census allocation", file=sys.stderr)
    if args.algorithm == "bisection":
        from .oracles import bisection_multiplier

        result = bisection_multiplier(problem, tol=args.tol)
    else:
        result = SOLVERS[args.algorithm](problem)
    with _open_out(args.output) as fp:
        formats.write_allocation_json(result, problem.n, fp)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .oracles import LabelMismatchError, kkt_verify

    # the allocation is parsed first, so that its document is freed before
    # the strata are read; an error in it is raised only once the strata
    # file and n have passed, the order in which they are reported
    failure = None
    try:
        with open(args.allocation, encoding="utf-8") as fp:
            result = formats.read_allocation_json(fp, name=args.allocation)
    except Exception as exc:
        failure = exc
    problem = formats.problem_from_rows(_read_rows(args.input), args.n)
    if failure is not None:
        raise failure
    try:
        cert = kkt_verify(problem, result, tol=args.tol)
    except LabelMismatchError:
        raise ValueError("allocation labels do not match the strata file") from None
    fixed_point = is_optimal_takeall(problem, result.take_all)
    for cond, r in cert.residuals.items():
        print(f"{cond} residual: {r:.3e}")
    print(f"min bound multiplier: {cert.min_bound_multiplier:.3e}")
    print(f"take-all fixed point: {'ok' if fixed_point else 'FAIL'}")
    print(f"certificate: {'valid' if cert.valid else 'INVALID'} (tol = {cert.tol:g})")
    failed = cert.failed if fixed_point else (*cert.failed, "take-all fixed point")
    if not failed:
        return 0
    print(f"verification failed: {', '.join(failed)}")
    return 1


# the populations that genpop and bench --kind generate
KINDS = ("table1", "power", "lognormal")


def _population(args: argparse.Namespace) -> tuple[str, StrataColumns]:
    """The strata of the population named by --kind, with its id stem."""
    from .popgen import lognormal_population, power_population, table1_problem

    if args.kind == "table1":
        return "table1", table1_problem().columns
    if args.kind == "power":
        return "power", power_population()
    return f"lognormal{args.blocks}s{args.seed}", lognormal_population(args.seed, args.blocks)


def _bench_problems(args: argparse.Namespace) -> list[tuple[str, AllocationProblem]]:
    fractions = _check_fractions(args.fraction or [0.1, 0.2, 0.3, 0.4, 0.5])
    if args.input is not None:
        stem = os.path.splitext(os.path.basename(args.input))[0]
        strata = _read_rows(args.input)
    else:
        stem, strata = _population(args)
    total_b = math.fsum(strata.lists[1])
    return [
        (f"{stem}@{f:g}", AllocationProblem(strata=strata, n=float(round(f * total_b))))
        for f in fractions
    ]


def cmd_bench(args: argparse.Namespace) -> int:
    if (args.input is None) == (args.kind is None):
        raise ValueError("bench needs exactly one of --input or --kind")
    from .bench import run_bench, write_bench_csv

    problems = _bench_problems(args)
    results = run_bench(problems, repetitions=args.repetitions)
    with _open_out(args.output) as fp:
        write_bench_csv(results, fp)
    return 0


def cmd_genpop(args: argparse.Namespace) -> int:
    _, strata = _population(args)
    labels = map(str, strata.labels)
    a, b = strata.lists
    with _open_out(args.output) as fp:
        if strata.S is None:
            formats.write_ab_csv(zip(labels, a, b), fp)
        else:
            formats.write_ns_csv(zip(labels, map(int, b), strata.S), fp)
    return 0


def cmd_roundcmp(args: argparse.Namespace) -> int:
    from .rounding import variance_table, write_variance_csv

    rows = _read_rows(args.input)
    fractions = _check_fractions(args.fraction)
    N, S = formats.population_maps_from_rows(rows)
    reports = variance_table(N, S, fractions)
    with _open_out(args.output) as fp:
        write_variance_csv(reports, fp)
    if any(rep.skipped for rep in reports):
        print("error: some fractions give n below the stratum count (rows skipped)", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stratalloc",
        description="Optimal sample allocation under per-stratum bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_alloc = sub.add_parser("allocate", help="solve one allocation problem")
    p_alloc.add_argument("--input", required=True, help="strata CSV (label,a,b or label,N,S)")
    p_alloc.add_argument("--n", required=True, type=float, help="total sample size")
    p_alloc.add_argument(
        "--algorithm",
        choices=[*SOLVERS, "bisection"],
        default="rna",
    )
    p_alloc.add_argument("--tol", type=float, default=1e-12, help="bisection sum tolerance")
    p_alloc.add_argument("--output", help="allocation JSON path (default stdout)")
    p_alloc.set_defaults(func=cmd_allocate)

    p_verify = sub.add_parser("verify", help="check an allocation's optimality certificate")
    p_verify.add_argument("--input", required=True, help="strata CSV")
    p_verify.add_argument("--n", required=True, type=float)
    p_verify.add_argument("--allocation", required=True, help="allocation JSON to verify")
    p_verify.add_argument("--tol", type=float, default=1e-8, help="certificate tolerance")
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="time the solvers")
    p_bench.add_argument("--input", help="strata CSV to bench on")
    p_bench.add_argument("--kind", choices=KINDS)
    p_bench.add_argument(
        "--fraction",
        action="append",
        type=float,
        help="sampling fraction; repeatable (default 0.1..0.5)",
    )
    p_bench.add_argument("--repetitions", type=int, default=100)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--blocks", type=int, default=100, help="lognormal block count")
    p_bench.add_argument("--output", help="bench CSV path (default stdout)")
    p_bench.set_defaults(func=cmd_bench)

    p_gen = sub.add_parser("genpop", help="write a synthetic population CSV")
    p_gen.add_argument("--kind", required=True, choices=KINDS)
    p_gen.add_argument("--seed", type=int, default=0, help="RNG seed")
    p_gen.add_argument("--blocks", type=int, default=100, help="lognormal block count")
    p_gen.add_argument("--output", help="strata CSV path (default stdout)")
    p_gen.set_defaults(func=cmd_genpop)

    p_round = sub.add_parser("roundcmp", help="compare continuous, rounded and integer allocations")
    p_round.add_argument("--input", required=True, help="strata CSV with population sizes")
    p_round.add_argument(
        "--fraction",
        action="append",
        type=float,
        required=True,
        help="sampling fraction; repeatable",
    )
    p_round.add_argument("--output", help="report CSV path (default stdout)")
    p_round.set_defaults(func=cmd_roundcmp)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleProblemError as exc:
        print(f"error: infeasible problem: {exc}", file=sys.stderr)
        return 3
    except (formats.StrataCsvError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
