"""Independent checks for the recursive solvers.

Three ways to cross-examine an allocation that share no code with the solvers:
exhaustive subset search, a KKT certificate and a Lagrange-multiplier
bisection. Every pass over the strata is a C-level map over the column
lists, so no oracle needs numpy. The exact optimum of the integer-valued
variant of the problem lives in :mod:`stratalloc.integer`, which
``roundcmp`` loads and ``verify`` does not.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from itertools import combinations, compress, repeat
from operator import ge, getitem, gt, lt, mul, neg, not_, sub, truediv

from .model import AllocationProblem, AllocationResult, Label, _Record

__all__ = [
    "KktCertificate",
    "LabelMismatchError",
    "brute_force_subset",
    "kkt_verify",
    "bisection_multiplier",
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

    def capped(s: float) -> Iterator[float]:
        # min(a_w * s, b_w) per stratum, b_w only where b_w < a_w * s as the
        # builtin min gives it; the pair is indexed, since the builtin min
        # costs several C-level operators per call in a map
        x = list(map(mul, a, repeat(s)))
        return map(getitem, zip(x, b), map(lt, b, x))

    def total(s: float) -> float:
        return math.fsum(capped(s))

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
    xs = list(capped(s))
    gap = abs(math.fsum(xs) - problem.n)
    if gap > tol * problem.n:
        raise ValueError(f"tol = {tol!r} cannot be met: the bisection ends at |total - n| = {gap:.3e} > tol * n")
    v = list(compress(range(problem.size), map(ge, xs, b)))
    return AllocationResult._from_columns(problem.labels, xs, v, s, probes, "bisection")
