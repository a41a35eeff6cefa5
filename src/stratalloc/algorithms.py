"""Three exact solvers for the box-constrained allocation problem.

All three find the same optimal take-all set V and return identical
allocations. They share one kernel and differ only in the order in which it
visits strata:

rna   tests every free stratum as a batch, in input order: all that pass
      the take-all test join V at once and the scale s is recomputed.
sga   sorts strata by descending priority c = a/b once (ties keep input
      order), then admits them one at a time while the test holds.
coma  walks the same sorted order and stops at the first decrease of the
      scale sequence s(V_1), s(V_2), ... This is the same test: since
      s(V + w) - s(V) = (a_w B - b_w A) / (A (A - a_w)) with B and A the
      budget and denominator of s(V), the sign of s(V + w) - s(V) is the
      sign of c_w s(V) - 1. At r = K the convention s(W) = 0 stops it, and
      the test rejects the last free stratum there too unless n = sum(b).
      So coma and sga take the same steps.

The take-all test c_w * s(V) >= 1 is decided exactly by
:func:`~stratalloc.model.take_all_members`: a float filter settles all but
near-ties, which are settled in rationals. The same predicate backs
:func:`~stratalloc.model.is_optimal_takeall`.

Each iteration appends an :class:`~stratalloc.model.IterationRecord`; the
final record has an empty ``added`` tuple. The number of iterations r* equals
``len(trace)``. The recorded s values are non-decreasing.

The final allocation is rebuilt from the discovered V with compensated sums
(:func:`~stratalloc.model.v_allocation`), so results are bit-identical across
the three solvers and across input permutations of the same strata. During
discovery the numerator B and denominator A of s are carried as compensated
(value, error) pairs. Since its last exact sum, a pair is off by less than
2**-53 of its value plus (K + 1)**2 * 2**-106 of its value at that sum. When
B or A falls below (K + 2)**2 * 2**-61 times its value at the last exact sum,
the pair no longer guarantees the relative 2**-44 that the filter needs, and
both are summed again with ``math.fsum``.
"""

from __future__ import annotations

import math
from operator import attrgetter, truediv

from .model import (
    S_MAX,
    S_MIN,
    TAKE_HI,
    TAKE_LO,
    AllocationProblem,
    AllocationResult,
    IterationRecord,
    take_all_members,
    v_allocation,
)

__all__ = ["rna", "sga", "coma", "SOLVERS"]


def _drop(total: float, comp: float, v: float) -> tuple[float, float]:
    # one compensated (Kahan-Babuska-Neumaier) subtraction step; the pair
    # carries total + comp with the rounding leftover in comp
    t = total - v
    if abs(total) >= abs(v):
        comp += (total - t) - v
    else:
        comp += total - (t + v)
    return t, comp


def _exact_pair(values: list[float]) -> tuple[float, float]:
    # the correctly rounded sum and its correctly rounded remainder
    total = math.fsum(values)
    return total, math.fsum([*values, -total])


def _solve(problem: AllocationProblem, algorithm: str, batch: bool) -> AllocationResult:
    if problem.is_census:
        return v_allocation(problem, problem.labels, algorithm=algorithm)
    strata = problem.strata
    K = len(strata)
    a = list(map(attrgetter("a"), strata))
    b = list(map(attrgetter("b"), strata))
    c = list(map(truediv, a, b))
    # rna: the free strata in input order; sga, coma: all strata in the
    # stable descending-c order, visited one per iteration
    order = list(range(K)) if batch else sorted(range(K), key=c.__getitem__, reverse=True)
    shrink = (K + 2) ** 2 * 2.0**-61
    budget, budget_c = problem.n, 0.0
    denom = problem.sum_a
    denom_c = math.fsum([*a, -denom])
    budget_min, denom_min = shrink * budget, shrink * denom
    taken: list[int] = []
    trace: list[IterationRecord] = []
    r = 0
    while True:
        r += 1
        if budget + budget_c < budget_min or denom + denom_c < denom_min:
            budget, budget_c = _exact_pair([problem.n, *(-b[i] for i in taken)])
            denom, denom_c = _exact_pair([*a, *(-a[i] for i in taken)])
            budget_min, denom_min = shrink * budget, shrink * denom
        s = (budget + budget_c) / (denom + denom_c)
        if batch:
            picked = take_all_members(problem, c, taken, s, order)
            added = tuple([strata[i].label for i in picked])
        else:
            # one candidate, with the float filter of take_all_members
            # inlined: sga and coma take one iteration per take-all stratum
            i = order[r - 1]
            t = c[i] * s
            if S_MIN <= s <= S_MAX and not TAKE_LO < t < TAKE_HI:
                picked = [i] if t > 1.0 else []
            else:
                picked = take_all_members(problem, c, taken, s, (i,))
            added = (strata[i].label,) if picked else ()
        trace.append(IterationRecord(r, s, added))
        if not picked:
            break
        for i in picked:
            budget, budget_c = _drop(budget, budget_c, b[i])
            denom, denom_c = _drop(denom, denom_c, a[i])
        taken += picked
        if batch:
            picked_set = set(picked)
            order = [i for i in order if i not in picked_set]
    v = frozenset([strata[i].label for i in taken])
    return v_allocation(problem, v, algorithm=algorithm, iterations=r, trace=tuple(trace))


def rna(problem: AllocationProblem) -> AllocationResult:
    """Recursive batch solver.

    Starting from V = emptyset, each iteration computes s(V) and moves every
    remaining stratum with c_w * s(V) >= 1 into V. Stops at the first
    iteration that moves nothing.
    """
    return _solve(problem, "rna", batch=True)


def sga(problem: AllocationProblem) -> AllocationResult:
    """Sequential solver over the descending-priority order.

    With strata sorted by c = a/b descending, iteration r tests the r-th
    stratum against s(V_r) where V_r holds the first r - 1 strata; it is
    admitted while c * s(V_r) >= 1. Stops at the first failure.
    """
    return _solve(problem, "sga", batch=False)


def coma(problem: AllocationProblem) -> AllocationResult:
    """Change-of-monotonicity solver over the descending-priority order.

    Walks the same sorted order as :func:`sga` and stops at the first r with
    s(V_r) > s(V_{r+1}), using s(W) = 0. By the sign identity in the module
    docstring that is the first failure of the take-all test, so it takes
    the same steps as :func:`sga`.
    """
    return _solve(problem, "coma", batch=False)


SOLVERS = {"rna": rna, "sga": sga, "coma": coma}
