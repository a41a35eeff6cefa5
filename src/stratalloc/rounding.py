"""Integer rounding of continuous allocations and variance-ratio reports."""

from __future__ import annotations

import csv
import math
from itertools import compress, repeat
from operator import add, le, sub
from typing import IO, Iterable, Mapping, Sequence

from .algorithms import rna
from .model import AllocationProblem, Label, StrataColumns, _Record, srswor_variance
from .oracles import greedy_integer_optimal

__all__ = [
    "VarianceReport",
    "round_allocation",
    "variance_table",
    "write_variance_csv",
]

VARIANCE_CSV_HEADER = ("fraction", "n", "d2_cont", "d2_rounded", "d2_int", "ratio_ci", "ratio_ri")


class VarianceReport(_Record):
    """Variance comparison at one sampling fraction.

    d2_continuous, d2_rounded and d2_integer are the SRSWOR design variances
    of the continuous optimum, its sum-preserving rounding, and the exact
    integer optimum. The ratios divide the first two by the third. A row with
    skipped=True (sample smaller than the stratum count, so no integer
    allocation exists) carries NaN in every variance field. d2_rounded is
    +inf when rounding drove some stratum to zero.
    """

    sample_fraction: float
    n: int
    d2_continuous: float
    d2_rounded: float
    d2_integer: float
    ratio_cont_over_int: float
    ratio_rounded_over_int: float
    skipped: bool = False


def round_allocation(
    x: Mapping[Label, float],
    n: int,
    b: Mapping[Label, float],
) -> dict[Label, int]:
    """Round a continuous allocation to integers preserving the total.

    Floors every value, then grants the remaining n - sum(floors) units one
    at a time by decreasing fractional part, skipping strata already at
    their bound; ties keep the mapping order. Every result entry differs
    from x_w by less than 1 and respects 0 <= x <= b.
    """
    if not (0 < n < math.inf and n == int(n)):
        raise ValueError(f"n must be a positive integer, got {n!r}")
    n = int(n)
    if x.keys() != b.keys():
        raise ValueError("allocation and bounds must cover the same labels")
    total = math.fsum(x.values())
    if abs(total - n) > 1e-9 * max(1.0, abs(n)):
        raise ValueError(f"allocation total {total!r} does not match n = {n}")
    xs = list(x.values())
    bs = list(map(b.__getitem__, x))
    if not (all(map(le, repeat(0), xs)) and all(map(le, xs, bs))):
        # some x_w is outside [0, b_w]; up to a relative 1e-9 above b_w passes
        for w, xv, bv in zip(x, xs, bs):
            if not (0 <= xv <= bv + 1e-9 * max(1.0, bv)):
                raise ValueError(f"stratum {w!r}: allocation {xv!r} outside [0, {bv!r}]")
    floors = list(map(math.floor, xs))
    try:
        caps = list(map(math.floor, bs))
    except OverflowError:  # x is within [0, b], so b holds inf
        w = next(compress(x, map(math.isinf, bs)))
        raise ValueError(f"stratum {w!r}: bound {b[w]!r} must be finite") from None
    if not all(map(le, floors, caps)):  # x_w within the tolerance above a b_w just below a whole number
        floors = list(map(min, floors, caps))
    fracs = list(map(sub, xs, floors))
    leftover = n - sum(floors)
    if leftover < 0:
        raise ValueError("floored allocation already exceeds n")
    # the strata below their bound, by decreasing fractional part; the sort
    # is stable, so ties keep the mapping order
    candidates = compress(range(len(xs)), map(le, map(add, floors, repeat(1)), bs))
    granted = sorted(candidates, key=fracs.__getitem__, reverse=True)[:leftover]
    if len(granted) < leftover:
        raise ValueError("not enough capacity under the bounds to place all units")
    return dict(zip(x, map(add, floors, map(set(granted).__contains__, range(len(xs))))))


def variance_table(
    N: Mapping[Label, float],
    S: Mapping[Label, float],
    fractions: Sequence[float],
) -> list[VarianceReport]:
    """Compare continuous, rounded and integer-optimal allocations.

    For each sampling fraction f, solves the continuous problem with
    a = N * S, b = N and n = round(f * sum(N)), rounds it, solves the exact
    integer problem, and reports the three design variances with their
    ratios. Fractions where n < K are reported as skipped (NaN metrics).
    At f = 1 all three variances are exactly 0 and the ratios are reported
    as 1. If rounding zeroes out a stratum, d2_rounded is +inf. Every
    fraction is checked before the first is solved.
    """
    if N.keys() != S.keys():
        raise ValueError("N and S must cover the same labels")
    strata = StrataColumns.survey(list(N), list(N.values()), list(map(S.__getitem__, N)))
    fractions = list(fractions)
    for f in fractions:
        if not (0 < f <= 1):
            raise ValueError(f"sampling fraction must be in (0, 1], got {f!r}")
    b = dict(zip(N, map(float, N.values())))
    total_N = math.fsum(N.values())
    K = len(strata.labels)
    reports = []
    for f in fractions:
        n = round(f * total_N)
        if n < K:
            reports.append(VarianceReport(f, n, *[math.nan] * 5, skipped=True))
            continue
        problem = AllocationProblem(strata=strata, n=float(n))
        cont = rna(problem)
        x = cont.x
        if not all(map(le, x.values(), b.values())):  # x_w above N_w by an ulp fails the variance's check
            x = dict(zip(N, map(min, x.values(), b.values())))
        d2c = srswor_variance(N, S, x)
        rounded = round_allocation(cont.x, n, b)
        d2r = math.inf if 0 in rounded.values() else srswor_variance(N, S, rounded)
        d2i = srswor_variance(N, S, greedy_integer_optimal(problem).x)
        ratio_ci, ratio_ri = (d2c / d2i, d2r / d2i) if d2i > 0 else (1.0, 1.0)
        reports.append(VarianceReport(f, n, d2c, d2r, d2i, ratio_ci, ratio_ri))
    return reports


def write_variance_csv(reports: Iterable[VarianceReport], fp: IO[str]) -> None:
    """Write reports as CSV with the fixed seven-column header."""
    writer = csv.writer(fp)
    writer.writerow(VARIANCE_CSV_HEADER)
    for rep in reports:
        writer.writerow(
            [
                f"{rep.sample_fraction:g}",
                rep.n,
                repr(rep.d2_continuous),
                repr(rep.d2_rounded),
                repr(rep.d2_integer),
                repr(rep.ratio_cont_over_int),
                repr(rep.ratio_rounded_over_int),
            ]
        )
