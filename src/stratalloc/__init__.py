"""Provably optimal sample allocation under box constraints.

Minimize sum a_w**2 / x_w subject to sum x_w = n and 0 < x_w <= b_w, the
problem behind Neyman allocation with take-all strata in stratified SRSWOR.
Three exact recursive solvers, independent optimality oracles, integer
rounding with variance reports, and deterministic synthetic populations.
"""

from .algorithms import coma, rna, sga
from .bench import BenchResult, run_bench, time_solver, write_bench_csv
from .model import (
    AllocationProblem,
    AllocationResult,
    InfeasibleProblemError,
    InfeasibleSubsetError,
    IterationRecord,
    StrataColumns,
    Stratum,
    SurveyStratum,
    is_optimal_takeall,
    objective,
    s_of,
    srswor_variance,
    v_allocation,
)
from .oracles import (
    KktCertificate,
    LabelMismatchError,
    bisection_multiplier,
    brute_force_subset,
    greedy_integer_optimal,
    kkt_verify,
)
from .popgen import (
    geometric_strata,
    lognormal_population,
    power_population,
    power_problem,
    stratum_sd,
    table1_problem,
)
from .rounding import VarianceReport, round_allocation, variance_table, write_variance_csv

__version__ = "0.1.0"

__all__ = [
    "AllocationProblem",
    "AllocationResult",
    "BenchResult",
    "InfeasibleProblemError",
    "InfeasibleSubsetError",
    "IterationRecord",
    "KktCertificate",
    "LabelMismatchError",
    "StrataColumns",
    "Stratum",
    "SurveyStratum",
    "VarianceReport",
    "bisection_multiplier",
    "brute_force_subset",
    "coma",
    "geometric_strata",
    "greedy_integer_optimal",
    "is_optimal_takeall",
    "kkt_verify",
    "lognormal_population",
    "objective",
    "power_population",
    "power_problem",
    "rna",
    "round_allocation",
    "run_bench",
    "s_of",
    "sga",
    "srswor_variance",
    "stratum_sd",
    "table1_problem",
    "time_solver",
    "v_allocation",
    "variance_table",
    "write_bench_csv",
    "write_variance_csv",
]
