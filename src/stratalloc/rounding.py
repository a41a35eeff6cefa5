"""Integer rounding of continuous allocations and variance-ratio reports."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import IO, Iterable, Mapping, Sequence

from .algorithms import rna
from .model import AllocationProblem, Label, StrataColumns, srswor_variance
from .oracles import greedy_integer_optimal

__all__ = [
    "VarianceReport",
    "round_allocation",
    "variance_table",
    "write_variance_csv",
]

VARIANCE_CSV_HEADER = ("fraction", "n", "d2_cont", "d2_rounded", "d2_int", "ratio_ci", "ratio_ri")


@dataclass(frozen=True)
class VarianceReport:
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
    their bound; ties go to the earlier stratum in the mapping order. Every
    result entry differs from x_w by less than 1 and respects 0 <= x <= b.
    """
    if n != int(n) or n <= 0:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    n = int(n)
    if set(x) != set(b):
        raise ValueError("allocation and bounds must cover the same labels")
    total = math.fsum(x.values())
    if abs(total - n) > 1e-9 * max(1.0, abs(n)):
        raise ValueError(f"allocation total {total!r} does not match n = {n}")
    labels = list(x)
    floors: dict[Label, int] = {}
    fracs: dict[Label, float] = {}
    for w in labels:
        xv = x[w]
        bv = b[w]
        if not (0 <= xv <= bv + 1e-9 * max(1.0, bv)):
            raise ValueError(f"stratum {w!r}: allocation {xv!r} outside [0, {bv!r}]")
        f = min(math.floor(xv), int(math.floor(bv)))
        floors[w] = f
        fracs[w] = xv - f
    leftover = n - sum(floors.values())
    if leftover < 0:
        raise ValueError("floored allocation already exceeds n")
    order = sorted(range(len(labels)), key=lambda i: (-fracs[labels[i]], i))
    for i in order:
        if leftover == 0:
            break
        w = labels[i]
        if floors[w] + 1 <= b[w]:
            floors[w] += 1
            leftover -= 1
    if leftover > 0:
        raise ValueError("not enough capacity under the bounds to place all units")
    return floors


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
    as 1. If rounding zeroes out a stratum, d2_rounded is +inf.
    """
    if set(N) != set(S):
        raise ValueError("N and S must cover the same labels")
    strata = StrataColumns.survey(list(N), list(N.values()), list(map(S.__getitem__, N)))
    total_N = math.fsum(N.values())
    K = len(strata.labels)
    reports = []
    for f in fractions:
        if not (0 < f <= 1):
            raise ValueError(f"sampling fraction must be in (0, 1], got {f!r}")
        n = round(f * total_N)
        if n < K:
            reports.append(
                VarianceReport(
                    sample_fraction=f,
                    n=n,
                    d2_continuous=math.nan,
                    d2_rounded=math.nan,
                    d2_integer=math.nan,
                    ratio_cont_over_int=math.nan,
                    ratio_rounded_over_int=math.nan,
                    skipped=True,
                )
            )
            continue
        problem = AllocationProblem(strata=strata, n=float(n))
        cont = rna(problem)
        # guard against x exceeding N by one ulp in the variance domain check
        x_cont = {w: min(cont.x[w], float(N[w])) for w in N}
        d2c = srswor_variance(N, S, x_cont)
        rounded = round_allocation(cont.x, n, {w: float(N[w]) for w in N})
        if any(v == 0 for v in rounded.values()):
            d2r = math.inf
        else:
            d2r = srswor_variance(N, S, {w: float(v) for w, v in rounded.items()})
        integer = greedy_integer_optimal(problem)
        d2i = srswor_variance(N, S, integer.x)
        if d2i > 0:
            ratio_ci = d2c / d2i
            ratio_ri = d2r / d2i
        else:
            ratio_ci = 1.0
            ratio_ri = 1.0
        reports.append(
            VarianceReport(
                sample_fraction=f,
                n=n,
                d2_continuous=d2c,
                d2_rounded=d2r,
                d2_integer=d2i,
                ratio_cont_over_int=ratio_ci,
                ratio_rounded_over_int=ratio_ri,
            )
        )
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
