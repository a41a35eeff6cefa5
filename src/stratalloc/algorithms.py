"""Three exact solvers for the box-constrained allocation problem.

All three find the same optimal take-all set V, a prefix of one priority
order: descending exact a/b, exact ties in input order. ``_solve`` sorts
once by the float c = a/b, which is monotone in a/b, so only runs of equal
float c can be out of that order. They differ in how they walk it:

rna   takes every stratum that passes the take-all test as a batch, then
      recomputes s. Two bisections find where the filter's thresholds
      hi and lo fall in the order; the strata between them (the near-tie
      band) are put in exact order and decided in rationals, and
      V = order[:p] grows to the band's last hit. V's strata pass again, as
      s(V) never decreases.
sga   admits strata one at a time in that order while the test holds. When
      rationals reject a stratum whose float c the next one shares, the rest
      of that run is put in exact order and its head is tested instead.
coma  walks the same order and stops at the first decrease of the
      scale sequence s(V_1), s(V_2), ... This is the same test: since
      s(V + w) - s(V) = (a_w B - b_w A) / (A (A - a_w)) with B and A the
      budget and denominator of s(V), the sign of s(V + w) - s(V) is the
      sign of c_w s(V) - 1. At r = K the convention s(W) = 0 stops it, and
      the test rejects the last free stratum there too unless n = sum(b).
      So coma and sga take the same steps.

The take-all test c_w * s(V) >= 1 is decided exactly. A float filter on c
settles all but near-ties, and :func:`~stratalloc.model.take_all_members`
settles only those, in rationals; both walks and
:func:`~stratalloc.model.is_optimal_takeall` take the same two steps. The
filter reads c alone, so a run of equal float c that 1/s(V) splits is
settled in rationals, the only place where ``_exact_order`` sorts strata by
exact a/b.

Each iteration appends its s(V) to one list and, for rna, where V's prefix
of the order ends after it to another; sga and coma take one stratum per
iteration, so theirs ends at r. ``model._v_result`` keeps these columns,
and the result builds its :class:`~stratalloc.model.IterationRecord`
trace on first read; the final record has an empty ``added`` tuple. The
number of iterations r* equals ``len(trace)``. The recorded s values are
non-decreasing.

Every exact s(V) is summed from one pair of term lists, which
``model._s_terms`` builds from the positions of V: n and -b_w on V (the
budget B) and a_w off V (the denominator A). ``model._scale`` divides their
correctly rounded sums, with s(W) = 0. rna sums the same two multisets at
every iteration (its budget list, and the a of the order past V), so its
trace holds each s(V_r) rounded once, as ``_scale`` gives it. Every solver
hands V, as positions, and its exact s (rna's last s, or one ``_scale`` for
sga and coma) to the one result builder, ``model._v_result``, which
:func:`~stratalloc.model.v_allocation` also calls; so results are
bit-identical across the solvers and across input permutations.

sga and coma carry B and A as compensated (value, error) pairs. Admitting
stratum w subtracts b_w from B and a_w from A, each by one
Kahan-Babuska-Neumaier step written inline: a helper call per step would
cost more than its few float operations. Since its last exact sum, a pair
is off by less than 2**-53 of its value plus (K + 1)**2 * 2**-106 of its
value at that sum. When B or A falls below (K + 2)**2 * 2**-61 times that
value, the pair no longer guarantees the relative 2**-44 that the filter
needs, and each is set again to the first two of ``model._exact_parts``
over its terms.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from operator import neg, truediv

from .model import (
    SOLVER_NAMES,
    TAKE_HI,
    TAKE_LO,
    TINY,
    _FLOAT_MAX,
    AllocationProblem,
    AllocationResult,
    _exact_parts,
    _s_terms,
    _scale,
    _thresholds,
    take_all_members,
)
from .model import _v_result as v_allocation  # the name perfbench's traced replay wraps

__all__ = ["rna", "sga", "coma", "SOLVERS"]


def _exact_order(a: list[float], b: list[float], c: list[float], order: list[int], lo: int, hi: int) -> list[int]:
    # order[lo:hi], sorted by exact a/b (descending, stable) if a float c repeats in it
    run = order[lo:hi]
    if len(set(map(c.__getitem__, run))) < len(run):
        from fractions import Fraction  # only here and in take_all_members: it loads decimal

        order[lo:hi] = run = sorted(run, key=lambda i: Fraction(a[i]) / Fraction(b[i]), reverse=True)
    return run


def _batch_walk(
    problem: AllocationProblem, c: list[float], order: list[int]
) -> tuple[list[int], float, list[float], list[int]]:
    # rna over the prefix V = order[:p] (see the module docstring); the
    # band's exact sorts reorder order in place, past p only
    a, b = problem.columns.lists

    def minus_c(i: int) -> float:  # ascending along order
        return -c[i]

    a_off = list(map(a.__getitem__, order))  # a_off[p:] is s(V)'s denominator
    budget = [problem.n]
    p = 0
    s_values: list[float] = []
    ends: list[int] = []
    while True:
        B, A = math.fsum(budget), math.fsum(a_off[p:])
        s = B / A if A else 0.0  # _scale's terms and quotient
        lo, hi = _thresholds(B, A)
        q = bisect_right(order, -hi, p, key=minus_c)
        band_end = bisect_left(order, -lo, q, key=minus_c)
        if q < band_end:  # in exact order the band's hits are a prefix of it
            band = _exact_order(a, b, c, order, q, band_end)
            a_off[q:band_end] = map(a.__getitem__, band)
            q += take_all_members(problem, order[:p], band).count(True)
        s_values.append(s)
        ends.append(q)
        if q == p:
            return order[:p], s, s_values, ends
        budget += map(neg, map(b.__getitem__, order[p:q]))
        p = q


def _sorted_walk(
    problem: AllocationProblem, c: list[float], order: list[int]
) -> tuple[list[int], float, list[float], range]:
    # sga, coma: all strata in order, one per iteration, with V = order[:p];
    # iteration r ends V's prefix at r, the rejecting one's slicing past V
    K = problem.size
    a, b = problem.columns.lists
    shrink = (K + 2) ** 2 * 2.0**-61
    # s(emptyset)'s pairs, cheaper at K <= 200 than a first refresh of the terms
    budget, budget_c = problem.n, 0.0
    denom, denom_c = problem.sum_a, math.fsum([*a, -problem.sum_a])
    budget_min, denom_min = shrink * budget, shrink * denom
    take_lo, take_hi, tiny, float_max = TAKE_LO, TAKE_HI, TINY, _FLOAT_MAX  # locals: read every step
    p = 0
    s_values: list[float] = []
    append = s_values.append
    for r, i in enumerate(order, start=1):
        B, A = budget + budget_c, denom + denom_c
        if B < budget_min or A < denom_min:
            # B and A are positive while a stratum is free, so each has two parts at least
            (budget, budget_c, *_), (denom, denom_c, *_) = map(_exact_parts, _s_terms(problem, order[:p]))
            budget_min, denom_min = shrink * budget, shrink * denom
            B, A = budget + budget_c, denom + denom_c
        s, ratio = B / A, A / B
        if ratio > float_max:  # min(A / B, _FLOAT_MAX): a call per step costs more
            ratio = float_max
        # the float filter for one candidate: model._thresholds, inline for speed
        ci = c[i]
        if not take_lo * ratio - tiny < ci < take_hi * ratio + tiny:
            take = ci > ratio
        else:
            take = take_all_members(problem, order[:p], [i])[0]
            if not take and r < K and c[order[r]] == ci:  # the run's exact head decides for all of it
                i = _exact_order(a, b, c, order, r - 1, bisect_right(order, -ci, r, key=lambda j: -c[j]))[0]
                take = take_all_members(problem, order[:p], [i])[0]
        append(s)
        if not take:
            break
        # compensated (Kahan-Babuska-Neumaier) subtractions of b_i and a_i:
        # each pair holds its value in the sum plus the rounding leftover;
        # v > 0, so |x| >= |v| is x >= v or x <= -v, with no abs calls
        v = b[i]
        t = budget - v
        if budget >= v or budget <= -v:
            budget_c += (budget - t) - v
        else:
            budget_c += budget - (t + v)
        budget = t
        v = a[i]
        t = denom - v
        if denom >= v or denom <= -v:
            denom_c += (denom - t) - v
        else:
            denom_c += denom - (t + v)
        denom = t
        p = r
    return order[:p], _scale(problem, order[:p]), s_values, range(1, len(s_values) + 1)


def _solve(problem: AllocationProblem, algorithm: str, batch: bool) -> AllocationResult:
    every = range(problem.size)
    if problem.is_census:
        return v_allocation(problem, every, _scale(problem, every), algorithm)
    c = list(map(truediv, *problem.columns.lists))
    order = sorted(every, key=c.__getitem__, reverse=True)
    taken, s, s_values, ends = (_batch_walk if batch else _sorted_walk)(problem, c, order)
    return v_allocation(problem, taken, s, algorithm, (s_values, ends))


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


SOLVERS = dict(zip(SOLVER_NAMES, (rna, sga, coma)))
