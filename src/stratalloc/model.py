"""Core types and primitives for box-constrained optimal sample allocation.

The problem solved throughout this package: minimize

    f(x) = sum_w a_w**2 / x_w

over allocations x subject to sum_w x_w = n and 0 < x_w <= b_w. Stratified
SRSWOR with per-stratum sizes N_w and standard deviations S_w is the special
case a_w = N_w * S_w, b_w = N_w, where f (up to an additive constant) is the
design variance of the stratified mean estimator.

Solutions have a two-regime shape: a "take-all" subset V of strata pinned at
their upper bounds, and Neyman-proportional values a_w * s(V) elsewhere, where
s(V) is the budget-per-unit-a scale factor defined by :func:`s_of`. The optimal
V is characterized by a fixed-point condition checked by
:func:`is_optimal_takeall`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Hashable, Iterable, Mapping, Sequence

Label = Hashable

ALGORITHM_IDS = (
    "rna",
    "sga",
    "coma",
    "bisection",
    "greedy_integer",
    "v_allocation",
)


class InfeasibleProblemError(ValueError):
    """Raised when the sample size exceeds the sum of the upper bounds."""


class InfeasibleSubsetError(ValueError):
    """Raised when a candidate take-all subset leaves no positive budget."""


@dataclass(frozen=True)
class Stratum:
    """One stratum: a label, a variability weight a, and an upper bound b.

    SRSWOR strata are built with :meth:`survey` and also carry N and S; on a
    plain stratum both read None.
    """

    label: Label
    a: float
    b: float
    N = S = None

    @staticmethod
    def survey(label: Label, N: float, S: float) -> SurveyStratum:
        """The SRSWOR stratum of N units with standard deviation S: a = N * S, b = N."""
        return SurveyStratum(label, N * S, float(N), S)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and self.a > 0):
            raise ValueError(f"stratum {self.label!r}: a must be positive and finite, got {self.a!r}")
        if not (math.isfinite(self.b) and self.b > 0):
            raise ValueError(f"stratum {self.label!r}: b must be positive and finite, got {self.b!r}")
        if not math.isfinite(self.a / self.b):
            raise ValueError(f"stratum {self.label!r}: a/b overflows")

    @property
    def c(self) -> float:
        """The take-all priority ratio a/b."""
        return self.a / self.b


@dataclass(frozen=True)
class SurveyStratum(Stratum):
    """A stratum of an SRSWOR design: b = N units with standard deviation S.

    Built by :meth:`Stratum.survey`; a record whose b is not an integer or
    whose a is not b * S is rejected.
    """

    # field() keeps S required; a bare annotation would take the inherited
    # class attribute S = None as its default
    S: float = field()

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.b != int(self.b):
            raise ValueError(f"stratum {self.label!r}: N must be an integer, got {self.b!r}")
        if self.a != self.b * self.S:
            raise ValueError(f"stratum {self.label!r}: a = {self.a!r} is not N * S for S = {self.S!r}")

    @property
    def N(self) -> int:
        """The population size, b as an integer."""
        return int(self.b)


def _total(values: Iterable[float], name: str) -> float:
    try:
        return math.fsum(values)
    except OverflowError:
        raise ValueError(f"the sum of the {name} values overflows") from None


@dataclass(frozen=True)
class AllocationProblem:
    """An allocation instance: strata in a fixed order plus the total sample size n.

    Validation on construction: labels are distinct, sum(a) and sum(b) do not
    overflow, 0 < n <= sum(b). The boundary case n == sum(b) is accepted; it
    is the trivial census where the only feasible (hence optimal) allocation
    is x = b (see :attr:`is_census`). n > sum(b) raises
    :class:`InfeasibleProblemError`.
    """

    strata: tuple[Stratum, ...]
    n: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "strata", tuple(self.strata))
        if not self.strata:
            raise ValueError("problem needs at least one stratum")
        labels = [st.label for st in self.strata]
        if len(set(labels)) != len(labels):
            raise ValueError("stratum labels must be distinct")
        if not (math.isfinite(self.n) and self.n > 0):
            raise ValueError(f"n must be positive and finite, got {self.n!r}")
        self.sum_a  # raises ValueError when sum(a) overflows
        if self.n > self.sum_b:
            raise InfeasibleProblemError(
                f"n = {self.n} exceeds the total upper bound {self.sum_b}"
            )

    @cached_property
    def labels(self) -> tuple[Label, ...]:
        return tuple(st.label for st in self.strata)

    @cached_property
    def by_label(self) -> dict[Label, Stratum]:
        return {st.label: st for st in self.strata}

    @cached_property
    def sum_a(self) -> float:
        return _total((st.a for st in self.strata), "a")

    @cached_property
    def sum_b(self) -> float:
        return _total((st.b for st in self.strata), "b")

    @property
    def size(self) -> int:
        return len(self.strata)

    @property
    def is_census(self) -> bool:
        """True when n equals the total bound exactly, forcing x = b."""
        return self.n == self.sum_b


@dataclass(frozen=True)
class IterationRecord:
    """One solver iteration: 1-based index r, the scale s(V_r), labels added."""

    r: int
    s_value: float
    added: tuple[Label, ...]


@dataclass(frozen=True)
class AllocationResult:
    """A solved allocation.

    x maps labels to allocated values in the problem's stratum order. For
    continuous solvers, x_w == b_w on take_all and x_w == a_w * s_final
    elsewhere. Integer-valued solvers (see greedy_integer_optimal) have no
    continuous scale; they report s_final = 0.0 and an empty trace.

    algorithm is one of ALGORITHM_IDS. iterations is the 1-based count of
    solver iterations (r* for the recursive solvers, probe count for the
    multiplier search). trace holds per-iteration records for the recursive
    solvers and is empty for the oracle solvers.
    """

    x: dict[Label, float]
    take_all: frozenset
    s_final: float
    iterations: int
    trace: tuple[IterationRecord, ...]
    algorithm: str

    def total(self) -> float:
        return math.fsum(self.x.values())


def _subset_labels(problem: AllocationProblem, v: Iterable[Label]) -> frozenset:
    vset = frozenset(v)
    unknown = vset.difference(problem.by_label)
    if unknown:
        raise ValueError(f"labels not in problem: {sorted(map(repr, unknown))}")
    return vset


def _scale(problem: AllocationProblem, vset: frozenset) -> float:
    # s(V) from two correctly rounded sums; vset is a validated proper subset
    by_label = problem.by_label
    budget = math.fsum([problem.n, *(-by_label[lb].b for lb in vset)])
    denom = math.fsum(st.a for st in problem.strata if st.label not in vset)
    return budget / denom


def s_of(problem: AllocationProblem, v: Iterable[Label]) -> float:
    """Scale factor s(V) = (n - sum_{w in V} b_w) / sum_{w not in V} a_w.

    Conventions: s(emptyset) = n / sum(a), s(W) = 0 for the full set W.
    The value may be negative when V overspends the budget; callers that
    need a feasible allocation must check the sign.
    """
    vset = _subset_labels(problem, v)
    if len(vset) == problem.size:
        return 0.0
    return _scale(problem, vset)


# The take-all test. With B = n - sum_V b and A = sum_{W\V} a, stratum w
# belongs to the optimal V exactly when a_w * B >= b_w * A, i.e. when
# c_w * s(V) >= 1. If B and A are each known to a relative error below
# 2**-44 and s lies in [S_MIN, S_MAX] (so that c_w, s and c_w * s are normal
# wherever c_w * s is near 1), the rounded product t = c_w * s is within a
# relative 2**-42 of the exact ratio: t >= TAKE_HI or t <= TAKE_LO decides.
# Only a t inside the band is settled in rationals.
TAKE_LO = 1.0 - 2.0**-40
TAKE_HI = 1.0 + 2.0**-40
S_MIN = 2.0**-1000
S_MAX = 2.0**1000


def take_all_members(
    problem: AllocationProblem,
    c: Sequence[float],
    v_idx: Sequence[int],
    s: float,
    candidates: Iterable[int],
) -> list[int]:
    """The candidate strata w with c_w * s(V) >= 1, decided exactly.

    Strata are positions in ``problem.strata``; ``c`` holds their priorities
    a/b, ``v_idx`` the current V, and ``s`` approximates s(V) from a budget
    and denominator each accurate to a relative 2**-44. The result keeps the
    order of ``candidates``.
    """
    if S_MIN <= s <= S_MAX:
        picked = [i for i in candidates if c[i] * s > TAKE_LO]
        # rounding is monotone, so the smallest c_w gives the smallest t
        if not picked or min(map(c.__getitem__, picked)) * s >= TAKE_HI:
            return picked
    else:
        picked = list(candidates)
    strata = problem.strata
    budget = Fraction(problem.n) - sum(Fraction(strata[i].b) for i in v_idx)
    denom = sum(Fraction(st.a) for st in strata) - sum(Fraction(strata[i].a) for i in v_idx)
    return [i for i in picked if Fraction(strata[i].a) * budget >= Fraction(strata[i].b) * denom]


def v_allocation(
    problem: AllocationProblem,
    v: Iterable[Label],
    *,
    algorithm: str = "v_allocation",
    iterations: int = 1,
    trace: tuple[IterationRecord, ...] | None = None,
) -> AllocationResult:
    """Allocation induced by a take-all subset V: b_w on V, a_w * s(V) off V.

    Raises :class:`InfeasibleSubsetError` when s(V) <= 0 (V exhausts the
    budget). By construction sum(x) == n up to roundoff and the result is
    feasible whenever the fixed-point condition of :func:`is_optimal_takeall`
    holds for V.
    """
    vset = _subset_labels(problem, v)
    if len(vset) == problem.size:
        if not problem.is_census:
            raise InfeasibleSubsetError("full take-all set is only feasible when n equals sum(b)")
        s = 0.0
    else:
        s = _scale(problem, vset)
        if s <= 0:
            raise InfeasibleSubsetError(f"s(V) = {s} is not positive")
    x = {
        st.label: st.b if st.label in vset else st.a * s
        for st in problem.strata
    }
    if trace is None:
        trace = (IterationRecord(1, s, tuple(lb for lb in problem.labels if lb in vset)),)
    return AllocationResult(
        x=x,
        take_all=vset,
        s_final=s,
        iterations=iterations,
        trace=trace,
        algorithm=algorithm,
    )


def is_optimal_takeall(problem: AllocationProblem, v: Iterable[Label]) -> bool:
    """Fixed-point test for the optimal take-all set.

    V is optimal iff membership matches the threshold test everywhere:
    w in V exactly when c_w * s(V) >= 1, decided exactly by
    :func:`take_all_members` (no tolerance). For the census problem
    (n == sum(b)) only V = W passes.
    """
    vset = _subset_labels(problem, v)
    if problem.is_census:
        return len(vset) == problem.size
    if len(vset) == problem.size:
        return False
    s = _scale(problem, vset)
    if s <= 0:
        return False
    strata = problem.strata
    v_idx = [i for i, st in enumerate(strata) if st.label in vset]
    c = [st.a / st.b for st in strata]
    return take_all_members(problem, c, v_idx, s, range(len(strata))) == v_idx


def objective(problem: AllocationProblem, x: Mapping[Label, float]) -> float:
    """Objective value sum_w a_w**2 / x_w for a full positive allocation."""
    if set(x) != set(problem.labels):
        raise ValueError("allocation labels do not match the problem")
    terms = []
    for st in problem.strata:
        xv = x[st.label]
        if not (xv > 0):
            raise ValueError(f"stratum {st.label!r}: allocation must be positive, got {xv!r}")
        terms.append(st.a * st.a / xv)
    return math.fsum(terms)


def srswor_variance(
    N: Mapping[Label, float],
    S: Mapping[Label, float],
    x: Mapping[Label, float],
) -> float:
    """Design variance of the stratified SRSWOR total under allocation x.

    Computes sum_w (N_w S_w)**2 / x_w - sum_w (N_w S_w)**2 / N_w. Requires
    0 < x_w <= N_w for every stratum; equals 0 exactly at the census x = N.
    """
    if not (set(N) == set(S) == set(x)):
        raise ValueError("N, S and x must cover the same labels")
    pos, neg = [], []
    for w in N:
        Nw, Sw, xw = N[w], S[w], x[w]
        if not (Nw > 0):
            raise ValueError(f"stratum {w!r}: N must be positive")
        if Sw < 0:
            raise ValueError(f"stratum {w!r}: S must be nonnegative")
        if not (0 < xw <= Nw):
            raise ValueError(f"stratum {w!r}: need 0 < x <= N, got x={xw!r}, N={Nw!r}")
        d2 = (Nw * Sw) ** 2
        pos.append(d2 / xw)
        neg.append(d2 / Nw)
    return math.fsum(pos) - math.fsum(neg)
