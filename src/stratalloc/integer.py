"""The exact integer-valued optimum, an independent check on the rounding.

The integer optimum has the same threshold shape as the continuous one: every
stratum receives exactly the units whose marginal gain a_w**2/(k (k + 1)) lies
above one threshold t. The gains of a stratum do not increase with k, so the
n - K largest gains are the optimum, the allocation a greedy that grants one
unit at a time to the largest gain would reach. :func:`greedy_integer_optimal`
counts, exactly and per stratum, the units with gain above a probe t. The
continuous relaxation, solved by Newton's method, puts the first probe a
little below the (n - K)-th largest gain, and a heap grants the few units
still missing in the greedy's order; where the relaxation leaves the float
range, bisection over the bit patterns of the non-negative floats narrows
the probes instead. The relaxation is a box-constrained Neyman problem
(weights a_w, bounds u_w + 1/2), whose capped strata are a prefix of the
strata in capping order, as in the paper's V-allocation: a linear model of
it, solved exactly over that order, starts Newton within a pass or two of
its answer. Every pass over the strata is a C-level map over the column
lists, so the oracle needs no numpy. Like the other oracles
(:mod:`stratalloc.oracles`), it shares no code with the solvers.
"""

from __future__ import annotations

import math
import struct
import sys
from bisect import bisect_right
from heapq import heapify, heappop, heapreplace
from itertools import accumulate, compress, repeat
from math import floor, sqrt
from operator import add, and_, eq, ge, getitem, gt, le, lt, mul, neg, not_, or_, sub, truediv

from .model import AllocationProblem, AllocationResult

__all__ = ["greedy_integer_optimal"]


def _roots(A: list[float], t: float) -> list[float]:
    """Per stratum, the root sqrt(A_w / t + 1/4) - 1/2 of k * (k + 1) = A_w / t > 0."""
    return list(map(sub, map(sqrt, map(add, map(truediv, A, repeat(t)), repeat(0.25))), repeat(0.5)))


def _estimate(A: list[float], u: list[float], t: float) -> list[int]:
    """Per stratum, the root of k * (k + 1) = A_w / t, floored and capped at u_w."""
    # A_w / 0 is inf for every nonzero gain, nan (read as 0) for none
    root = _roots(A, t) if t > 0.0 else list(map(mul, u, map(bool, A)))
    return _floor_capped(root, u, list(map(lt, root, u)))


def _floor_capped(root: list[float], u: list[float], below: list[bool]) -> list[int]:
    # floor(min(root_w, u_w)); the min indexes the pair (u_w, root_w), since
    # the builtin min costs several C-level operators per call in a map
    return list(map(floor, map(getitem, zip(u, root), below)))


def _units_above(A: list[float], u: list[float], t: float, est: list[int]) -> list[int]:
    """Per stratum, how many of its units 1..u_w have a gain above t >= 0.

    The gain of a stratum's (k+1)-th unit is A_w / (k * (k + 1.0)), the float
    expression the integer optimum ranks by; it does not increase with k, so
    the count is the largest k in [0, u_w] whose gain exceeds t (k = 0 always
    qualifies). est holds a guess k in [0, u_w] per stratum, which the float
    expression confirms: the gain of unit k must exceed t (or k = 0) and that
    of unit k + 1 must not (or k = u_w). A stratum where either fails is
    counted by bisection over [0, u_w]. Every other pass is one C-level map
    over the lists. Returns est, corrected in place.
    """
    nxt = list(map(add, est, repeat(1.0)))
    zero = list(map(not_, est))
    # at k = 0 the denominator k * (k + 1.0) + (k == 0) is 1, not 0
    own = map(or_, zero, map(gt, map(truediv, A, map(add, map(mul, est, nxt), zero)), repeat(t)))
    last = map(or_, map(ge, est, u), map(le, map(truediv, A, map(mul, nxt, map(add, nxt, repeat(1.0)))), repeat(t)))
    ok = list(map(and_, own, last))
    if not all(ok):
        for w in compress(range(len(ok)), map(not_, ok)):
            lo, hi = 0, int(u[w])
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if A[w] / (mid * (mid + 1.0)) > t:
                    lo = mid
                else:
                    hi = mid - 1
            est[w] = lo
    return est


def _relaxed_threshold(
    A: list[float], u: list[float], m: int, a: list[float], limit: int
) -> tuple[float, list[int]] | None:
    """A threshold t with a little fewer than m units of gain above it, with
    the estimated count of each stratum there; None when no such t is met
    among the normal floats.

    Relaxed, a stratum takes min(u_w, sqrt(A_w / t + 1/4) - 1/2) units, the
    root of k * (k + 1) = A_w / t; its floor is the exact count but where
    rounding decides. In y = t**-0.5 the root grows by less than a_w per unit
    of y, and nearly by a_w, until it meets u_w. Newton's method on the sum
    of the floors, stepping as if each stratum below u_w grew by a_w, aims
    K / 16 below m and stops once the sum is within K / 8 below it. It
    starts where a linear model of that sum meets its aim
    (:func:`_linear_start`), not at the unbounded Neyman guess m / sum(a),
    which ignores the bounds and is 5 to 8 steps away on a survey
    population; from the model's y, one or two steps are left.
    Where a step would leave the values of y known to lie on either side, it
    stops at the last y below m if at most limit units are short there (the
    sum jumps past the window at one y: ties), and bisects them otherwise. It
    also stops at that y when the two close to within 2**-20 of each other,
    when t leaves the normal floats, or after 50 steps.
    """
    margin = len(A) // 16 + 1
    y = _linear_start(u, a, m - margin)
    below, above = 0.0, math.inf  # values of y whose sums fall short of m, reach it
    best = None  # the relaxation at below
    for _ in range(50):
        yy = y * y
        if not _YY_MIN < yy < _YY_MAX:
            break
        t = 1.0 / yy
        root = _roots(A, t)
        free = list(map(lt, root, u))
        short = m - sum(map(floor, compress(root, free))) - sum(compress(u, map(not_, free)))
        if short > 0:
            below, best, short_below = y, (t, root, free), short
            if short <= 2 * margin:
                break
        else:
            above = y
        if above - below <= below * 2.0**-20:
            break
        slope = sum(compress(a, free))  # 0 when every stratum is at u_w, and y must fall
        step = y + (short - margin) / slope if slope else 0.0
        if below < step < above:
            y = step
        elif best is not None and above < math.inf and short_below <= limit:
            break
        else:
            y = 0.5 * (below + above)
    if best is None:
        return None
    t, root, free = best
    return t, _floor_capped(root, u, free)


def _linear_start(u: list[float], a: list[float], target: float) -> float:
    """The y at which a linear model of the relaxation's floored sum meets
    target; over a strided sample of at most _START_SAMPLE strata, scaled to
    the whole, when there are more.

    A stratum's root sqrt(a_w**2 y**2 + 1/4) - 1/2 is nearly a_w * y - 1/2,
    and its floor about half a unit less, until the root meets u_w at its
    capping point y = (u_w + 1/2) / a_w: the model takes a_w * y - 1 below
    that point and u_w from it on. Sorted by capping point, the strata
    capped at any y are a prefix, so the model is linear between capping
    points, with the prefix sums of u and the suffix sums of a as its terms,
    and rises by half a unit at each one. One bisection over its values at
    the capping points finds the segment, and one division y.
    """
    K = len(a)
    stride = -(-K // _START_SAMPLE)
    if stride > 1:
        u, a = u[::stride], a[::stride]
    k = len(a)
    target *= k / K
    caps = list(map(truediv, map(add, u, repeat(0.5)), a))
    order = sorted(range(k), key=caps.__getitem__)
    # with the first j strata of the order capped: the sum of their u, and of the others' a
    capped = list(accumulate(map(u.__getitem__, order), initial=0.0))
    slope = list(accumulate(map(a.__getitem__, reversed(order)), initial=0.0))[::-1]
    # the strata capped where the model meets target, by its values just below
    # each capping point, which do not decrease
    j = bisect_right(range(k), target, key=lambda i: capped[i] + caps[order[i]] * slope[i] - (k - i))
    if j == k:
        return caps[order[-1]]
    y = (target + (k - j) - capped[j]) / slope[j]
    return max(y, caps[order[j - 1]]) if j else y


def _bits(t: float) -> int:
    return _INT64.unpack(_DOUBLE.pack(t))[0]


def _float(bits: int) -> float:
    return _DOUBLE.unpack(_INT64.pack(bits))[0]


_INF_BITS = 0x7FF0000000000000  # bit pattern of +inf; non-negative floats order as their bits
_DOUBLE, _INT64 = struct.Struct("<d"), struct.Struct("<q")
_YY_MIN, _YY_MAX = 1.0 / sys.float_info.max, 1.0 / sys.float_info.min  # t = 1 / y**2 is normal
# the most strata sorted for Newton's start: the start only has to be close,
# and at K = 1e6 a full sort costs more than the steps it saves
_START_SAMPLE = 4096


def greedy_integer_optimal(problem: AllocationProblem) -> AllocationResult:
    """Exact integer-valued optimum by threshold selection on marginal gains.

    Requires integer n and bounds with K <= n <= 2**53 (every stratum must
    receive at least one unit for the objective to be finite, and every count
    must be exact in a float). Each stratum starts at x_w = 1; its (k+1)-th
    unit lowers the objective by the gain a_w**2/k - a_w**2/(k + 1), ranked as
    the float (a_w * a_w) / (k * (k + 1.0)). The gains do not increase with k,
    so granting the m = n - K largest gains is exchange-optimal, and it is
    what a greedy that grants one unit at a time to the largest gain, the
    earlier stratum first on ties, would do.

    The search keeps a bracket lo < hi of thresholds with at least m units of
    gain above lo and fewer than m above hi, each count exact per stratum.
    The continuous relaxation gives the first hi, a little below m units;
    where a**2 overflows or underflows there is no relaxation, and while
    more than 4 (K + 1) units are missing above hi the next probe is the
    midpoint of the bit patterns of lo and hi, whose order is the order of
    the non-negative floats. Every stratum receives its units with gain
    above hi, and the missing units are granted one at a time from a heap,
    in the greedy's order, among the units between lo and hi. More units
    can be missing only when lo and hi end as adjacent floats, so that the
    units between them tie at one gain, or when exactly m units lie above
    lo; each stratum then takes all of its units between lo and hi before
    the next one gets any. It keeps x as a list and take_all, the strata
    at their bounds, as positions. s_final is reported as 0.0: an integer
    allocation has no continuous scale.
    """
    K = problem.size
    n = problem.n
    if n != int(n):
        raise ValueError(f"integer allocation needs integer n, got {n!r}")
    a, b = problem.columns.lists
    if not all(map(float.is_integer, b)):
        label = next(compress(problem.labels, map(not_, map(float.is_integer, b))))
        raise ValueError(f"stratum {label!r}: integer allocation needs integer bounds")
    n = int(n)
    if n < K:
        raise ValueError(f"integer allocation needs n >= K, got n={n}, K={K}")
    if n > 2**53:
        raise ValueError(f"integer allocation needs n <= 2**53, got n={n}")
    m = n - K  # units to grant beyond the first of each stratum
    # units each stratum can take, capped at m < 2**53: every count k is exact
    # in the float k * (k + 1.0), and a float sum of counts compares with m
    # exactly (it is exact up to 2**53, and stays above m past it)
    u = list(map(sub, b, repeat(1.0)))
    for w in compress(range(K), map(gt, u, repeat(m))):
        u[w] = float(m)
    A = list(map(mul, a, a))
    # The bracket, as bit patterns; lo = -1 stands below 0, where every unit
    # counts. Invariant: total_lo >= m > total_hi.
    lo, hi = -1, _INF_BITS
    above_lo, above_hi = u, [0] * K
    total_lo, total_hi = sum(u), 0

    def probe(t: float, est: list[int] | None = None) -> None:
        """Count the units with gain above t, which narrows the bracket."""
        nonlocal lo, hi, above_lo, above_hi, total_lo, total_hi
        bits = _bits(t)
        count = _units_above(A, u, t, _estimate(A, u, t) if est is None else est)
        total = sum(count)
        if total < m:
            hi, above_hi, total_hi = bits, count, total
        else:
            lo, above_lo, total_lo = bits, count, total

    limit = 4 * (K + 1)
    if total_lo > m and sys.float_info.min <= min(A) and max(A) < math.inf:
        seed = _relaxed_threshold(A, u, m, a, limit)
        if seed is not None:
            probe(*seed)
    while total_lo > m and hi - lo > 1 and m - total_hi > limit:
        probe(_float((lo + hi) // 2))
    rest = m - total_hi
    counts = above_hi.copy()
    open_ = list(compress(range(K), map(gt, above_lo, above_hi)))
    if rest <= limit:
        # the greedy from hi on, over the strata with units between lo and hi
        nxt = list(map(add, map(counts.__getitem__, open_), repeat(1)))
        gains = map(truediv, map(A.__getitem__, open_), map(mul, nxt, map(add, nxt, repeat(1.0))))
        heap = list(zip(map(neg, gains), open_))
        heapify(heap)
        for _ in range(rest):
            w = heap[0][1]
            counts[w] = k = counts[w] + 1
            if k < above_lo[w]:
                k += 1
                heapreplace(heap, (-(A[w] / (k * (k + 1.0))), w))
            else:
                heappop(heap)
    else:
        # lo and hi are adjacent floats, so the units between them tie at one
        # gain, or total_lo = m and all of them are granted; earlier strata
        # take theirs first
        for w in open_:
            take = min(above_lo[w] - above_hi[w], rest)
            counts[w] += take
            rest -= take
    x = list(map(add, counts, repeat(1.0)))
    v = list(compress(range(K), map(eq, x, b)))
    return AllocationResult._from_columns(problem.labels, x, v, 0.0, 1, "greedy_integer")
