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
    take-all set, 0 elsewhere. residuals holds the worst relative violation of
    each condition ("stationarity", "primal", "complementary"); each is scaled
    by the magnitude of the terms it compares, so the certificate reads the
    same whether mu is 1e-3 or 1e39. Where s**2 or c_w**2 leaves the float
    range, mu, lam and the residuals read 0, inf or nan; a nan residual is
    reported, not dropped. valid is decided by :func:`kkt_verify` from the
    conditions divided by mu, which stay finite at any scale.
    """

    mu: float
    lam: dict[Label, float]
    residuals: dict[str, float]
    tol: float
    valid: bool


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

    Never raises on a bad allocation; an invalid certificate is the answer.
    The multiplier construction: mu = s(V)**(-2) from the claimed take-all
    set V, except in the census case where any mu up to min c_w**2 keeps the
    bound multipliers nonnegative and min c_w**2 is used. Conditions checked:
    stationarity -a_w**2/x_w**2 + lam_w + mu = 0, primal feasibility
    (sum x = n, 0 < x_w <= b_w), complementary slackness lam_w (x_w - b_w) = 0,
    and dual feasibility lam_w >= 0.

    Validity is decided from these conditions divided by mu = s**-2, whose
    terms stay finite for any finite positive x. Off V, stationarity reads
    g_w * s = 1 with g_w = a_w/x_w, tested as |a_w * s / x_w - 1| <= tol. On
    V, stationarity with lam_w = c_w**2 - mu reads x_w = b_w, tested as
    |x_w - b_w| <= tol * b_w, and dual feasibility reads c_w * s >= 1, tested
    as c_w * s >= 1 - tol (every s >= 1/min c_w serves the census). The
    primal residual must be within tol. A nan fails every test.

    The reported residuals are relative. mu scales with a**2 and ranges over
    dozens of orders of magnitude across realistic inputs, so an allocation
    exact to machine precision still carries an absolute stationarity gap of
    a few ulps of its own terms. Each stratum's stationarity gap is measured
    against the largest term in its equation, max(1, mu, (a_w/x_w)**2,
    |lam_w|); the sum constraint against max(1, n); bound overshoot against
    max(1, b_w); complementary slackness against 1 + |lam_w| b_w.
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
        if s <= 0:
            lam = {lb: 0.0 for lb in problem.labels}
            residuals = {"stationarity": math.inf, "primal": math.inf, "complementary": math.inf}
            return KktCertificate(mu=math.inf, lam=lam, residuals=residuals, tol=tol, valid=False)
        ss = s * s
        mu = 1.0 / ss if ss else math.inf
    lam = {
        st.label: (st.c * st.c - mu if st.label in v else 0.0)
        for st in problem.strata
    }
    stat = 0.0
    comp = 0.0
    bound = 0.0
    scaled_ok = True
    for st in problem.strata:
        xw = result.x[st.label]
        if not (0 < xw < math.inf):
            lam_min_bad = {lb: 0.0 for lb in problem.labels}
            residuals = {"stationarity": math.inf, "primal": math.inf, "complementary": math.inf}
            return KktCertificate(mu=mu, lam=lam_min_bad, residuals=residuals, tol=tol, valid=False)
        g = st.a / xw
        lw = lam[st.label]
        # scale by the largest term in this stratum's equation: take-all
        # strata have g**2 = c_w**2 far above mu, and their lam is formed
        # by cancellation at that magnitude
        r = abs(-(g * g) + lw + mu) / max(1.0, mu, g * g, abs(lw))
        if r > stat or r != r:  # a nan stays
            stat = r
        r = abs(lw * (xw - st.b)) / (1.0 + abs(lw) * st.b)
        if r > comp or r != r:
            comp = r
        bound = max(bound, (xw - st.b) / max(1.0, st.b))
        if st.label in v:
            scaled_ok = scaled_ok and abs(xw - st.b) <= tol * st.b and st.c * s >= 1.0 - tol
        else:
            scaled_ok = scaled_ok and abs(st.a * s / xw - 1.0) <= tol
    try:
        total = math.fsum(result.x.values())
    except OverflowError:
        total = math.inf
    primal = max(abs(total - problem.n) / max(1.0, problem.n), bound)
    residuals = {"stationarity": stat, "primal": primal, "complementary": comp}
    valid = scaled_ok and primal <= tol
    return KktCertificate(mu=mu, lam=lam, residuals=residuals, tol=tol, valid=valid)


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
