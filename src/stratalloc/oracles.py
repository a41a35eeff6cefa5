"""Independent checks for the recursive solvers.

Four ways to cross-examine an allocation that share no code with the solvers:
exhaustive subset search, a KKT certificate, a Lagrange-multiplier bisection,
and an exact solver for the integer-valued variant of the problem.

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
lists, so no oracle needs numpy.
"""

from __future__ import annotations

import math
import struct
import sys
from bisect import bisect_left, bisect_right
from heapq import heapify, heappop, heapreplace
from itertools import accumulate, combinations, compress, repeat
from math import floor, sqrt
from operator import add, and_, eq, ge, getitem, gt, le, lt, mul, neg, not_, or_, sub, truediv

from .model import AllocationProblem, AllocationResult, Label, _Record

__all__ = [
    "KktCertificate",
    "LabelMismatchError",
    "brute_force_subset",
    "kkt_verify",
    "bisection_multiplier",
    "greedy_integer_optimal",
]

_BRUTE_FORCE_MAX = 20


class LabelMismatchError(ValueError):
    """Raised when an allocation's labels are not the problem's."""


class KktCertificate(_Record):
    """Checkable first-order optimality certificate.

    mu is the multiplier of the sum constraint; lam maps each label to the
    multiplier of its upper-bound constraint. For the two-regime optimum with
    scale s, stationarity forces mu = s**(-2) and lam_w = c_w**2 - mu on the
    take-all set, 0 elsewhere; where s**2 or c_w**2 leaves the float range,
    mu and lam read 0 or inf. residuals holds the worst violation of each
    condition ("stationarity", "primal", "complementary"), every one a
    dimensionless number that reads the same whether mu is 1e-3 or 1e39 (see
    :func:`kkt_verify`). They are the one rule: a condition has failed when
    its residual is not within tol, so a nan fails, and the certificate is
    valid when none has.

    :func:`kkt_verify` keeps lam as a list over the problem's labels, and
    the first read of ``lam`` builds the dict from it;
    :attr:`min_bound_multiplier` reads the list.
    """

    mu: float
    lam: dict[Label, float]
    residuals: dict[str, float]
    tol: float

    @classmethod
    def _from_columns(
        cls, mu: float, labels: tuple[Label, ...], lam: list[float], residuals: dict[str, float], tol: float
    ) -> KktCertificate:
        """The certificate with lam kept as a list over labels."""
        cert = cls.__new__(cls)
        cert.__dict__.update(mu=mu, _labels=labels, _lam=lam, residuals=residuals, tol=tol)
        return cert

    def _lam_view(self) -> dict[Label, float]:
        return dict(zip(self._labels, self._lam))

    _views = {"lam": _lam_view}

    @property
    def min_bound_multiplier(self) -> float:
        """min(lam.values()), without building lam where it is a list."""
        return min(self.__dict__.get("_lam") or self.lam.values())

    @property
    def failed(self) -> tuple[str, ...]:
        """The conditions whose residual is not within tol, in residual order."""
        return tuple(cond for cond, r in self.residuals.items() if not r <= self.tol)

    @property
    def valid(self) -> bool:
        return not self.failed


def brute_force_subset(problem: AllocationProblem) -> frozenset:
    """Exhaustively find the take-all subset satisfying the fixed-point test.

    Tries the proper subsets V of the strata by cardinality, taken from both
    ends in turn (0, K - 1, 1, K - 2, ...), then by stratum position, and
    returns the first with s(V) > 0 whose membership is consistent: w in V
    exactly when c_w * s(V) >= 1, that is c_w >= A / B for s(V)'s budget B
    and denominator A. Each is a correctly rounded sum, and a c_w within
    2**-30 of min(A / B, the largest float), or within 2**-1060 of it where
    that is subnormal, is decided in rationals of the two sums: no product
    c_w * s(V) is formed, so an s(V) that overflows or underflows decides
    nothing. Intended for small instances (refuses more than 20 strata);
    the consistent subset is unique.
    """
    K = problem.size
    if K > _BRUTE_FORCE_MAX:
        raise ValueError(f"exhaustive search limited to {_BRUTE_FORCE_MAX} strata, got {K}")
    if problem.is_census:
        return frozenset(problem.labels)
    a, b = problem.columns.lists
    c = list(map(truediv, a, b))
    by_c = sorted(range(K), key=c.__getitem__)
    ascending = sorted(c)
    # sizes from both ends in turn, 0, K - 1, 1, K - 2, ...: large take-all
    # sets are found without first trying the many middle-sized subsets
    sizes = [k for pair in zip(range(K), reversed(range(K))) for k in pair][:K]
    for size in sizes:
        for v in combinations(range(K), size):
            # s(V) = B / A = (n - sum_V b) / (sum a - sum_V a), each sum correctly rounded
            B, A = math.fsum(budget := [problem.n, *(-b[i] for i in v)]), math.fsum(denom := [*a, *(-a[i] for i in v)])
            if B <= 0:
                continue
            t = min(A / B, sys.float_info.max)  # c_w >= t, but for the near band
            inside = list(map(ge, c, repeat(t)))
            lo, hi = (1 - 2**-30) * t - 2**-1060, (1 + 2**-30) * t + 2**-1060
            near = by_c[bisect_left(ascending, lo) : bisect_right(ascending, hi)]
            if near:  # decided in rationals of the two sums
                from fractions import Fraction  # only here: verify's imports stay as they are
                exact_budget, exact_denom = sum(map(Fraction, budget)), sum(map(Fraction, denom))
                for w in near:
                    inside[w] = Fraction(a[w]) * exact_budget >= Fraction(b[w]) * exact_denom
            if tuple(compress(range(K), inside)) == v:
                return frozenset(map(problem.labels.__getitem__, v))
    raise RuntimeError("no subset satisfies the fixed-point condition")


def kkt_verify(
    problem: AllocationProblem,
    result: AllocationResult,
    tol: float = 1e-8,
) -> KktCertificate:
    """Build and evaluate the KKT certificate for a claimed optimum.

    Never raises on a bad allocation; a certificate that fails is the answer.
    An allocation whose labels, or take-all labels, are not the problem's
    raises :class:`LabelMismatchError` before any arithmetic. x is read
    from the result's columns when its labels are the problem's, in the
    problem's order, and through the x dict in any other order.
    The multiplier construction: mu = s(V)**(-2) from the claimed take-all
    set V, except in the census case where any mu up to min c_w**2 keeps the
    bound multipliers nonnegative, and mu = min c_w**2 with s = inf is used.
    The conditions are stationarity -a_w**2/x_w**2 + lam_w + mu = 0, dual
    feasibility lam_w >= 0, primal feasibility (sum x = n, 0 < x_w <= b_w)
    and complementary slackness lam_w (x_w - b_w) = 0.

    Each residual is its condition divided by mu = s**-2, whose terms stay
    finite for any finite positive x, so the residuals are dimensionless and
    an allocation exact to machine precision reads a few ulps at any scale:

    - stationarity: off V the condition reads a_w * s / x_w = 1, measured as
      |a_w * s / x_w - 1|; on V, lam_w >= 0 reads c_w * s >= 1, measured as
      max(0, 1 - c_w * s). In the census case mu = min c_w**2 makes every
      lam_w >= 0, so the on-V term is 0. The worst over all strata.
    - complementary: on V, lam_w = c_w**2 - mu puts x_w at its bound,
      measured as the worst |x_w - b_w| / b_w.
    - primal: the larger of |sum x - n| / max(1, n) and the worst relative
      bound overshoot (x_w - b_w) / b_w.

    If s(V) <= 0, or some x_w is not in (0, inf), all three residuals are
    inf and lam is zero. A nan residual is kept, and fails. Each condition
    is one C-level pass over the problem's column lists, one IEEE operation
    per stratum and term, and each residual is its exact maximum.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive, got {tol!r}")
    labels = problem.labels
    K = problem.size
    held, x, on = result._columns()
    if tuple(held) != labels:  # another order, or other labels: read through the x dict
        if len(held) != K or not all(map(result.x.__contains__, labels)):
            raise LabelMismatchError("result labels do not match the problem")
        x = list(map(result.x.__getitem__, labels))
        if on is not None:
            on = map(result.take_all.__contains__, labels)
    if on is None:  # take_all holds a label that x does not
        raise LabelMismatchError("take-all labels do not match the problem")
    on = list(on)  # the flags may come as an iterator
    off = list(map(not_, on))
    a, b = problem.columns.lists
    census = on.count(True) == K
    if census:
        c = list(map(truediv, a, b))
        mu = min(map(mul, c, c))
        s = math.inf
    else:
        # s(V) = (n - sum_V b) / sum_{not V} a, each sum correctly rounded
        s = math.fsum([problem.n, *map(neg, compress(b, on))]) / math.fsum(compress(a, off))
        ss = s * s
        mu = 1.0 / ss if s > 0 and ss else math.inf
    lam = [0.0] * K
    if not (s > 0 and all(map(math.isfinite, x)) and min(x) > 0):
        residuals = dict.fromkeys(("stationarity", "primal", "complementary"), math.inf)
        return KktCertificate._from_columns(mu, labels, lam, residuals, tol)
    b_on = list(compress(b, on))
    c_on = list(map(truediv, compress(a, on), b_on))
    for i, lam_w in zip(compress(range(K), on), map(sub, map(mul, c_on, c_on), repeat(mu))):
        lam[i] = lam_w  # c_w**2 - mu on V
    # off V, |a_w * s / x_w - 1|; on V, 1 - c_w * s (lam_w >= 0 in scale-free
    # form), which mu = min c**2 makes 0 in the census case
    stat = list(map(abs, map(sub, map(truediv, map(mul, compress(a, off), repeat(s)), compress(x, off)), repeat(1.0))))
    if not census:
        stat += map(sub, repeat(1.0), map(mul, c_on, repeat(s)))
    comp = list(map(truediv, map(abs, map(sub, compress(x, on), b_on)), b_on))
    # the bound term (x_w - b_w) / b_w is positive only where x_w > b_w
    over = list(map(gt, x, b))
    bound = list(map(truediv, map(sub, compress(x, over), compress(b, over)), compress(b, over)))
    try:
        total = math.fsum(x)
    except OverflowError:
        total = math.inf
    primal = max(abs(total - problem.n) / max(1.0, problem.n), _worst(bound))
    residuals = {"stationarity": _worst(stat), "primal": primal, "complementary": _worst(comp)}
    return KktCertificate._from_columns(mu, labels, lam, residuals, tol)


def _worst(terms: list[float]) -> float:
    # the largest of 0.0 and the terms, and nan when some term is nan
    if any(map(math.isnan, terms)):
        return math.nan
    return max(0.0, max(terms, default=0.0))


def bisection_multiplier(problem: AllocationProblem, tol: float = 1e-12) -> AllocationResult:
    """Solve by bisecting the scale s = mu**(-1/2), mu the sum multiplier.

    The optimum has x_w(s) = min(a_w * s, b_w) with total n; the total is
    continuous and nondecreasing in s, so s is bracketed and bisected. Every
    x_w(s) is at most a_w * s, so the total is at most n at s = n / sum(a):
    the bracket starts there and doubles upward, which is necessary when
    take-all strata carry most of n. Working in s rather than mu keeps every
    probe in range wherever s itself is; a ValueError naming s is raised when
    it is not (n / sum(a) below the normal floats, or the bracket passing the
    largest float). Returns an allocation whose total is within tol * n of
    n; a ValueError naming tol and the gap reached is raised when the float
    bisection cannot get that close. The trace is empty (the probe sequence
    has no monotone scale). It keeps x as a list and take_all, the strata
    with x_w >= b_w, as positions.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive, got {tol!r}")
    a, b = problem.columns.lists
    if problem.is_census:
        return AllocationResult._from_columns(problem.labels, b, range(problem.size), 0.0, 1, "bisection")

    def total(s: float) -> float:
        return math.fsum(map(min, map(mul, a, repeat(s)), b))

    hi = problem.n / problem.sum_a
    if not (sys.float_info.min <= hi < math.inf):
        raise ValueError(
            f"the scale s = n / sum(a) = {problem.n!r} / {problem.sum_a!r} is outside the normal float range"
        )
    lo = hi / 2.0
    probes = 1
    while total(hi) < problem.n:
        lo, hi = hi, 2.0 * hi
        probes += 1
        if hi == math.inf:
            raise ValueError(f"the scale s exceeds the float range (above {lo!r})")
    # invariant: total(lo) < n <= total(hi)
    for _ in range(200):
        mid = lo + 0.5 * (hi - lo)
        if mid <= lo or mid >= hi:  # interval exhausted in floating point
            break
        probes += 1
        if total(mid) < problem.n:
            lo = mid
        else:
            hi = mid
    s = hi
    xs = list(map(min, map(mul, a, repeat(s)), b))
    gap = abs(math.fsum(xs) - problem.n)
    if gap > tol * problem.n:
        raise ValueError(f"tol = {tol!r} cannot be met: the bisection ends at |total - n| = {gap:.3e} > tol * n")
    v = list(compress(range(problem.size), map(ge, xs, b)))
    return AllocationResult._from_columns(problem.labels, xs, v, s, probes, "bisection")


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
