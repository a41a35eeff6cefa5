"""Provably optimal sample allocation under box constraints.

Minimize sum a_w**2 / x_w subject to sum x_w = n and 0 < x_w <= b_w, the
problem behind Neyman allocation with take-all strata in stratified SRSWOR.
Three exact recursive solvers, independent optimality oracles, integer
rounding with variance reports, and deterministic synthetic populations.

Importing the package loads no submodule. A public name, or a submodule
such as ``stratalloc.formats``, is imported on first use, so a CLI command
compiles only the modules it runs: ``verify`` compiles the oracles
(``oracles``) but neither the solvers (``algorithms``) nor the exact
integer optimum (``integer``), which only ``roundcmp`` runs, with
``rounding`` and its ``srswor_variance``.
"""

from importlib import import_module

__version__ = "0.1.0"

# each submodule and the public names it defines
_EXPORTS = {
    "algorithms": ("coma", "rna", "sga"),
    "bench": ("BenchResult", "run_bench", "time_solver", "write_bench_csv"),
    "cli": (),
    "formats": (),
    "integer": ("greedy_integer_optimal",),
    "model": (
        "AllocationProblem",
        "AllocationResult",
        "InfeasibleProblemError",
        "InfeasibleSubsetError",
        "IterationRecord",
        "StrataColumns",
        "Stratum",
        "SurveyStratum",
        "is_optimal_takeall",
        "objective",
        "s_of",
        "v_allocation",
    ),
    "oracles": (
        "KktCertificate",
        "LabelMismatchError",
        "bisection_multiplier",
        "brute_force_subset",
        "kkt_verify",
    ),
    "popgen": (
        "geometric_strata",
        "lognormal_population",
        "power_population",
        "power_problem",
        "stratum_sd",
        "table1_problem",
    ),
    "rounding": ("VarianceReport", "round_allocation", "srswor_variance", "variance_table", "write_variance_csv"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        # importing a submodule binds it as an attribute of the package
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
