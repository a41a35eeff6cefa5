"""Three exact solvers for the box-constrained allocation problem.

All three find the same optimal take-all set V and return identical
allocations. They share one kernel and differ only in the order in which it
visits strata:

rna   tests every stratum as a batch: all that pass the take-all test
      form the next V and the scale s is recomputed. Strata already in V
      pass again, since s(V) never decreases, so each iteration is one
      compare over the whole column.
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

Every exact s(V) is summed from one pair of term lists, which
``model._s_terms`` builds from the positions of V: n and -b_w on V (the
budget B) and a_w off V (the denominator A). ``model._scale`` divides
their correctly rounded sums, with s(W) = 0. It gives rna's s at every
iteration, so rna's trace holds each s(V_r) rounded once. It also gives
the s of the final allocation, which :func:`~stratalloc.model.v_allocation`
rebuilds from V, so results are bit-identical across the solvers and
across input permutations. The rational tie-break sums the same terms as
fractions.

sga and coma carry B and A as compensated (value, error) pairs. Admitting
stratum w subtracts b_w from B and a_w from A, each by one
Kahan-Babuska-Neumaier step written inline: a helper call per step would
cost more than its few float operations. Since its last exact sum, a pair
is off by less than 2**-53 of its value plus (K + 1)**2 * 2**-106 of its
value at that sum. When B or A falls below (K + 2)**2 * 2**-61 times that
value, the pair no longer guarantees the relative 2**-44 that the filter
needs, and both are summed again from the terms.

The solvers read the columns as lists (``columns.lists``): at K = 20,
where library callers solve many small problems, numpy's per-call cost
is more than a whole C-level pass over a list.
"""

from __future__ import annotations

import math
from itertools import compress
from operator import truediv

from .model import (
    S_MAX,
    S_MIN,
    TAKE_HI,
    TAKE_LO,
    AllocationProblem,
    AllocationResult,
    IterationRecord,
    _s_terms,
    _scale,
    take_all_members,
    v_allocation,
)

__all__ = ["rna", "sga", "coma", "SOLVERS"]


def _exact_pair(values: list[float]) -> tuple[float, float]:
    # the correctly rounded sum and its correctly rounded remainder
    total = math.fsum(values)
    return total, math.fsum([*values, -total])


def _batch_walk(problem: AllocationProblem, c: list[float]) -> tuple[list[int], list[IterationRecord]]:
    # rna: every stratum tested at once; the hits are the next V, and only
    # the strata new to it are recorded
    labels = problem.labels
    every = range(problem.size)
    in_v = [False] * problem.size
    taken: list[int] = []
    trace: list[IterationRecord] = []
    while True:
        s = _scale(problem, taken)
        hits = take_all_members(problem, c, taken, s, every)
        picked = [i for i in compress(every, hits) if not in_v[i]]
        trace.append(IterationRecord(len(trace) + 1, s, tuple(map(labels.__getitem__, picked))))
        if not picked:
            return taken, trace
        in_v = hits
        taken += picked


def _sorted_walk(problem: AllocationProblem, c: list[float]) -> tuple[list[int], list[IterationRecord]]:
    # sga, coma: all strata in the stable descending-c order, one per iteration
    labels = problem.labels
    K = problem.size
    a, b = problem.columns.lists
    order = sorted(range(K), key=c.__getitem__, reverse=True)
    shrink = (K + 2) ** 2 * 2.0**-61
    # s(emptyset)'s pairs, cheaper at K <= 200 than a first refresh of the terms
    budget, budget_c = problem.n, 0.0
    denom = problem.sum_a
    denom_c = math.fsum([*a, -denom])
    budget_min, denom_min = shrink * budget, shrink * denom
    taken: list[int] = []
    trace: list[IterationRecord] = []
    for r, i in enumerate(order, start=1):
        if budget + budget_c < budget_min or denom + denom_c < denom_min:
            (budget, budget_c), (denom, denom_c) = map(_exact_pair, _s_terms(problem, taken))
            budget_min, denom_min = shrink * budget, shrink * denom
        s = (budget + budget_c) / (denom + denom_c)
        # the float filter of take_all_members, inlined for one candidate
        if S_MIN <= s <= S_MAX and not TAKE_LO / s < c[i] < TAKE_HI / s:
            take = c[i] > 1.0 / s
        else:
            take = take_all_members(problem, [c[i]], taken, s, [i])[0]
        trace.append(IterationRecord(r, s, (labels[i],) if take else ()))
        if not take:
            break
        # compensated (Kahan-Babuska-Neumaier) subtractions of b_i and a_i:
        # each pair holds its value in the sum plus the rounding leftover
        v = b[i]
        t = budget - v
        if abs(budget) >= abs(v):
            budget_c += (budget - t) - v
        else:
            budget_c += budget - (t + v)
        budget = t
        v = a[i]
        t = denom - v
        if abs(denom) >= abs(v):
            denom_c += (denom - t) - v
        else:
            denom_c += denom - (t + v)
        denom = t
        taken.append(i)
    return taken, trace


def _solve(problem: AllocationProblem, algorithm: str, batch: bool) -> AllocationResult:
    if problem.is_census:
        return v_allocation(problem, problem.labels, algorithm=algorithm)
    c = list(map(truediv, *problem.columns.lists))
    taken, trace = (_batch_walk if batch else _sorted_walk)(problem, c)
    v = frozenset(map(problem.labels.__getitem__, taken))
    return v_allocation(problem, v, algorithm=algorithm, iterations=len(trace), trace=tuple(trace))


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
