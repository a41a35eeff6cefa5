"""Independent checks for the recursive solvers.

Four ways to cross-examine an allocation that share no code with the solvers:
exhaustive subset search, a KKT certificate, a Lagrange-multiplier bisection,
and an exact solver for the integer-valued variant of the problem.

The integer optimum has the same threshold shape as the continuous one: every
stratum receives exactly the units whose marginal gain a_w**2/(k (k + 1)) lies
above one threshold t. The gains of a stratum do not increase with k, so the
n - K largest gains are the optimum, the allocation a greedy that grants one
unit at a time to the largest gain would reach. :func:`greedy_integer_optimal`
finds t, the (n - K)-th largest gain, by bisection over the bit patterns of
the non-negative floats, each step one O(K) vector pass, and hands the units
whose gain equals t to the earliest strata first.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .model import (
    AllocationProblem,
    AllocationResult,
    Label,
    s_of,
)

__all__ = [
    "KktCertificate",
    "brute_force_subset",
    "kkt_verify",
    "bisection_multiplier",
    "greedy_integer_optimal",
]

_BRUTE_FORCE_MAX = 20


@dataclass(frozen=True)
class KktCertificate:
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
    """

    mu: float
    lam: dict[Label, float]
    residuals: dict[str, float]
    tol: float

    @property
    def failed(self) -> tuple[str, ...]:
        """The conditions whose residual is not within tol, in residual order."""
        return tuple(cond for cond, r in self.residuals.items() if not r <= self.tol)

    @property
    def valid(self) -> bool:
        return not self.failed


def brute_force_subset(problem: AllocationProblem, *, max_size: int = _BRUTE_FORCE_MAX) -> frozenset:
    """Exhaustively find the take-all subset satisfying the fixed-point test.

    Checks every subset V of the strata for membership consistency:
    w in V exactly when c_w * s(V) >= 1, with s(V) > 0. Intended for small
    instances (refuses more than ``max_size`` strata). Returns the first
    satisfying subset ordered by cardinality, then by stratum position;
    in tie-free problems the subset is unique.
    """
    K = problem.size
    if K > max_size:
        raise ValueError(f"exhaustive search limited to {max_size} strata, got {K}")
    if problem.is_census:
        return frozenset(problem.labels)
    a = np.array([st.a for st in problem.strata])
    b = np.array([st.b for st in problem.strata])
    c = a / b
    # subset sums via doubling: index bit i set <=> stratum i in the subset
    sum_a = np.zeros(1)
    sum_b = np.zeros(1)
    for i in range(K):
        sum_a = np.concatenate([sum_a, sum_a + a[i]])
        sum_b = np.concatenate([sum_b, sum_b + b[i]])
    denom = a.sum() - sum_a
    full = (1 << K) - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (problem.n - sum_b) / denom
    shifts = np.arange(K)
    candidates: list[int] = []
    for start in range(0, full + 1, 1 << 16):
        masks = np.arange(start, min(start + (1 << 16), full + 1), dtype=np.int64)
        bits = ((masks[:, None] >> shifts) & 1).astype(bool)
        member = (c[None, :] * s[masks][:, None]) >= 1.0
        ok = (bits == member).all(axis=1) & (s[masks] > 0) & (masks != full)
        candidates.extend(int(m) for m in masks[ok])
    if not candidates:
        raise RuntimeError("no subset satisfies the fixed-point condition")

    def key(m: int) -> tuple:
        # smallest cardinality first, then earliest strata
        idx = tuple(i for i in range(K) if m >> i & 1)
        return (len(idx), idx)

    best = min(candidates, key=key)
    return frozenset(problem.strata[i].label for i in range(K) if best >> i & 1)


def kkt_verify(
    problem: AllocationProblem,
    result: AllocationResult,
    tol: float = 1e-8,
) -> KktCertificate:
    """Build and evaluate the KKT certificate for a claimed optimum.

    Never raises on a bad allocation; a certificate that fails is the answer.
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
      max(0, 1 - c_w * s). The worst over all strata.
    - complementary: on V, lam_w = c_w**2 - mu puts x_w at its bound,
      measured as the worst |x_w - b_w| / b_w.
    - primal: the larger of |sum x - n| / max(1, n) and the worst bound
      overshoot (x_w - b_w) / max(1, b_w).

    If s(V) <= 0, or some x_w is not in (0, inf), all three residuals are
    inf and lam is zero. A nan residual is kept, and fails.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive, got {tol!r}")
    if set(result.x) != set(problem.labels):
        raise ValueError("result labels do not match the problem")
    v = result.take_all
    if len(v) == problem.size:
        mu = min(st.c * st.c for st in problem.strata)
        s = math.inf
    else:
        s = s_of(problem, v)
        ss = s * s
        mu = 1.0 / ss if s > 0 and ss else math.inf
    lam: dict[Label, float] = {}
    stat = comp = bound = 0.0
    ok = s > 0
    for st in problem.strata:
        xw = result.x[st.label]
        if not (ok and 0 < xw < math.inf):
            ok = False
            break
        if st.label in v:
            c = st.c
            lam[st.label] = c * c - mu
            r = 1.0 - c * s  # lam_w >= 0; stat starts at 0, so this is max(0, 1 - c_w * s)
            comp = max(comp, abs(xw - st.b) / st.b)
        else:
            lam[st.label] = 0.0
            r = abs(st.a * s / xw - 1.0)
        if r > stat or r != r:  # a nan stays
            stat = r
        bound = max(bound, (xw - st.b) / max(1.0, st.b))
    if ok:
        try:
            total = math.fsum(result.x.values())
        except OverflowError:
            total = math.inf
        primal = max(abs(total - problem.n) / max(1.0, problem.n), bound)
        residuals = {"stationarity": stat, "primal": primal, "complementary": comp}
    else:
        lam = dict.fromkeys(problem.labels, 0.0)
        residuals = dict.fromkeys(("stationarity", "primal", "complementary"), math.inf)
    return KktCertificate(mu=mu, lam=lam, residuals=residuals, tol=tol)


def bisection_multiplier(problem: AllocationProblem, tol: float = 1e-12) -> AllocationResult:
    """Solve by bisecting the scale s = mu**(-1/2), mu the sum multiplier.

    The optimum has x_w(s) = min(a_w * s, b_w) with total n; the total is
    continuous and nondecreasing in s, so s is bracketed and bisected. Every
    x_w(s) is at most a_w * s, so the total is at most n at s = n / sum(a):
    the bracket starts there and doubles upward, which is necessary when
    take-all strata carry most of n. Working in s rather than mu keeps every
    probe in range wherever s itself is; a ValueError naming s is raised when
    it is not (n / sum(a) below the normal floats, or the bracket passing the
    largest float). Returns an allocation whose total is within tol * n of n;
    the trace is empty (the probe sequence has no monotone scale).
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive, got {tol!r}")
    if problem.is_census:
        x = {st.label: st.b for st in problem.strata}
        return AllocationResult(
            x=x,
            take_all=frozenset(problem.labels),
            s_final=0.0,
            iterations=1,
            trace=(),
            algorithm="bisection",
        )
    strata = problem.strata

    def total(s: float) -> float:
        return math.fsum(min(st.a * s, st.b) for st in strata)

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
    x: dict[Label, float] = {}
    take_all = []
    for st in strata:
        xv = st.a * s
        if xv >= st.b:
            x[st.label] = st.b
            take_all.append(st.label)
        else:
            x[st.label] = xv
    achieved = math.fsum(x.values())
    if abs(achieved - problem.n) > tol * problem.n:
        raise RuntimeError(
            f"bisection stalled: |total - n| = {abs(achieved - problem.n):.3e} > tol * n"
        )
    return AllocationResult(
        x=x,
        take_all=frozenset(take_all),
        s_final=s,
        iterations=probes,
        trace=(),
        algorithm="bisection",
    )


def _units_above(A: np.ndarray, u: np.ndarray, t: float) -> np.ndarray:
    """Per stratum, how many of its units 1..u_w have a gain above t.

    The gain of a stratum's (k+1)-th unit is A_w / (k * (k + 1.0)), the float
    expression the integer optimum ranks by; it does not increase with k, so
    the count is the largest k in [0, u_w] whose gain exceeds t (k = 0 always
    qualifies). The root of k * (k + 1) = A_w / t gives an estimate; a window
    of one unit around it is confirmed with the float expression itself and
    widened to the whole range [0, u_w] where it fails, then the window is
    bisected. Counts are whole float64 values.
    """

    def above(k: np.ndarray) -> np.ndarray:
        return (k == 0.0) | ((k <= u) & (A / (k * (k + 1.0)) > t))

    est = np.floor(np.sqrt(A / t + 0.25) - 0.5)
    est = np.minimum(np.fmax(est, 0.0), u)  # fmax sends the nan of 0/0 or inf/inf to 0
    lo = np.maximum(est - 1.0, 0.0)
    hi = np.minimum(est + 1.0, u)
    lo = np.where(above(lo), lo, 0.0)
    hi = np.where(above(hi + 1.0), u, hi)
    # invariant: above(lo) and not above(hi + 1)
    while (lo < hi).any():
        mid = lo + np.floor((hi - lo + 1.0) * 0.5)
        ok = above(mid)
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid - 1.0)
    return lo


_INF_BITS = 0x7FF0000000000000  # bit pattern of +inf; non-negative floats order as their bits


def greedy_integer_optimal(problem: AllocationProblem) -> AllocationResult:
    """Exact integer-valued optimum by threshold selection on marginal gains.

    Requires integer n and bounds with K <= n <= 2**53 (every stratum must
    receive at least one unit for the objective to be finite, and every count
    must be exact in a float). Each stratum starts at x_w = 1; its (k+1)-th
    unit lowers the objective by the gain a_w**2/k - a_w**2/(k + 1), ranked as
    the float (a_w * a_w) / (k * (k + 1.0)). The gains do not increase with k,
    so granting the n - K largest gains is exchange-optimal, and it is what a
    greedy that grants one unit at a time to the largest gain would do.

    The threshold t is the (n - K)-th largest gain among the units 2..b_w of
    all strata. It is found by bisection over the bit patterns of the
    non-negative floats, whose order is the order of the values: at most 63
    steps, each one O(K) vector pass that counts the units with gain above a
    probe, stopping early once exactly n - K units lie above the lower end.
    Every stratum receives all its units with gain above t. The units with
    gain exactly t are ties; they go to the earliest stratum first, and each
    stratum takes all of its tied units before the next one gets any, which
    is the order of a greedy that breaks ties by stratum index, so the result
    is deterministic. take_all holds the strata at their bounds. s_final is
    reported as 0.0: an integer allocation has no continuous scale.
    """
    K = problem.size
    n = problem.n
    if n != int(n):
        raise ValueError(f"integer allocation needs integer n, got {n!r}")
    for st in problem.strata:
        if st.b != int(st.b):
            raise ValueError(f"stratum {st.label!r}: integer allocation needs integer bounds")
    n = int(n)
    if n < K:
        raise ValueError(f"integer allocation needs n >= K, got n={n}, K={K}")
    if n > 2**53:
        raise ValueError(f"integer allocation needs n <= 2**53, got n={n}")
    strata = problem.strata
    m = n - K  # units to grant beyond the first of each stratum
    a = np.array([st.a for st in strata])
    b = np.array([st.b for st in strata])
    # units each stratum can take, capped at m <= 2**53: counts are exact
    # floats, and a float sum of counts compares with m exactly (it is exact
    # below 2**53, and a partial sum that reaches 2**53 >= m stays there)
    u = np.minimum(b - 1.0, m)
    # The counts of units with gain above the floats with bit patterns lo and
    # hi; lo = -1 stands below 0, where every unit counts. Invariant: the
    # count at lo is >= m > the count at hi. The search ends when exactly m
    # units lie above lo, or when lo and hi are adjacent floats, so that the
    # units between them are the ties at the m-th largest gain.
    lo, hi = -1, _INF_BITS
    above_lo, above_hi = u, np.zeros(K)
    total_lo = u.sum()
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        A = a * a
        while total_lo > m and hi - lo > 1:
            mid = (lo + hi) // 2
            count = _units_above(A, u, float(np.int64(mid).view(np.float64)))
            total = count.sum()
            if total < m:
                hi, above_hi = mid, count
            else:
                lo, above_lo, total_lo = mid, count, total
    rest = m - above_hi.sum()
    # the units with gain in (lo, hi]: the ties at the m-th largest gain, or,
    # after an early stop, exactly the rest; earlier strata take theirs first
    ties = np.minimum(above_lo - above_hi, rest)
    before = np.concatenate(([0.0], np.cumsum(ties)[:-1]))
    counts = 1.0 + above_hi + np.clip(rest - before, 0.0, ties)
    x = dict(zip(problem.labels, counts.tolist()))
    take_all = frozenset(st.label for st, full in zip(strata, counts == b) if full)
    return AllocationResult(
        x=x,
        take_all=take_all,
        s_final=0.0,
        iterations=1,
        trace=(),
        algorithm="greedy_integer",
    )
