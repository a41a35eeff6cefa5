"""Deterministic synthetic populations for tests and benchmarks.

Three designs:

``table1``
    A fixed 20-stratum benchmark problem with equal bounds b_w = 1000 and
    n = 8000, a worked example that exercises the take-all recursion.
``power``
    20 strata with N_w = 1000 and S_w = 10**w, an extreme-spread design
    where the take-all set grows one stratum per unit of log-range.
``lognormal``
    block_count independent blocks of 10000 lognormal values (log-mean 0,
    log-sd log(1 + i) for block i), each split into up to 10 strata by
    geometric boundaries, concatenated and randomly permuted.

Randomness is NumPy's PCG64 behind ``default_rng``; per-block generators get
child seeds from ``SeedSequence(seed).spawn``, so populations only depend on
(seed, block_count), not on generation order.

A population is its survey columns (a = N * S, b = N, and S kept), built by
:meth:`StrataColumns.survey`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from .model import AllocationProblem, StrataColumns

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "table1_problem",
    "power_population",
    "power_problem",
    "lognormal_population",
    "geometric_strata",
    "stratum_sd",
]

# lognormal: values per block, and the most strata a block splits into
_BLOCK_SIZE = 10000
_STRATA_PER_BLOCK = 10

# priority column c_w = a_w / b_w of the fixed 20-stratum benchmark problem
# (a_w = 1000 c_w, b_w = 1000, n = 8000)
_TABLE1_C = (
    0.33, 2.56, 0.15, 0.66, 0.15, 15.45, 1.49, 1.74, 0.30, 0.93,
    2.37, 0.36, 0.14, 0.37, 4.25, 0.39, 10.21, 0.10, 0.23, 0.51,
)


def table1_problem() -> AllocationProblem:
    """The fixed 20-stratum benchmark problem (n = 8000, all bounds 1000)."""
    return AllocationProblem(StrataColumns(range(1, 21), [1000.0 * c for c in _TABLE1_C], [1000.0] * 20), 8000.0)


def power_population() -> StrataColumns:
    """The power-spread population: strata w = 1..20 with N_w = 1000, S_w = 10**w."""
    return StrataColumns.survey(range(1, 21), [1000] * 20, [10.0**w for w in range(1, 21)])


def power_problem(n: float) -> AllocationProblem:
    """The power-spread problem: a_w = 1000 * 10**w, b_w = 1000."""
    return AllocationProblem(power_population(), n)


def geometric_strata(values: Sequence[float], num_strata: int) -> list[float]:
    """Geometric stratum boundaries over sorted positive values.

    Returns the interior boundaries k_h = min * (max/min)**(h/L) for
    h = 1..L-1, after dropping boundaries that would close an empty stratum
    (the empty stratum merges into its right neighbor). Stratum h is the
    half-open interval [k_{h-1}, k_h); the last stratum includes the max.
    Equal min and max degenerate to a single stratum (no boundaries).
    """
    import numpy as np

    if num_strata < 1:
        raise ValueError("num_strata must be positive")
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("values must be nonempty")
    lo = float(arr[0])
    hi = float(arr[-1])
    if lo <= 0:
        raise ValueError("values must be positive")
    # searchsorted over unsorted values would cut at arbitrary places
    if lo > hi or (arr[1:] < arr[:-1]).any():
        raise ValueError("values must be sorted ascending")
    if lo == hi:
        return []
    ratio = hi / lo
    bounds = [lo * ratio ** (h / num_strata) for h in range(1, num_strata)]
    cuts = np.searchsorted(arr, bounds, side="left").tolist()
    # the cuts never decrease: a boundary closes a nonempty stratum when its cut exceeds the one before
    return [bnd for bnd, cut, before in zip(bounds, cuts, [0] + cuts) if cut > before]


def stratum_sd(values: Sequence[float]) -> float:
    """Sample standard deviation (ddof = 1), two-pass for stability."""
    import numpy as np

    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        raise ValueError("standard deviation needs at least 2 values")
    return float(arr.std(ddof=1))


def _split_block(values: np.ndarray, num_strata: int) -> list[np.ndarray]:
    """Split sorted values into contiguous spans at geometric boundaries.

    A span with fewer than 2 values, or with zero spread, cannot enter an
    allocation problem (its SD is undefined or its weight a would be 0): it is
    thin and extends into the next span. Thin values left at the end join the
    last wide span, which is checked again and, if it has turned thin (an SD
    that underflows to 0), joins the wide span before it.
    """
    import numpy as np

    cuts = np.searchsorted(values, geometric_strata(values, num_strata), side="left").tolist()
    starts = [0]  # the wide spans' starts, then the last one's end
    for end in cuts + [len(values)]:
        if end - starts[-1] >= 2 and stratum_sd(values[starts[-1]:end]) != 0.0:
            starts.append(end)
    for k in range(len(starts) - 2, -1, -1):
        if stratum_sd(values[starts[k]:]) != 0.0:
            return [values[s:e] for s, e in zip(starts[:k], starts[1:])] + [values[starts[k]:]]
    raise ValueError("block is constant; cannot form a stratum with positive spread")


def lognormal_population(seed: int = 0, block_count: int = 100) -> StrataColumns:
    """Generate the lognormal population described in the module doc.

    Deterministic in (seed, block_count). Stratum labels encode block and
    slot ("b017s3"); the final stratum order is a seed-derived permutation.
    """
    if not (0 <= seed < 2**64):
        raise ValueError("seed must fit in 64 unsigned bits")
    if block_count < 1:
        raise ValueError("block_count must be positive")
    import numpy as np

    seq = np.random.SeedSequence(seed)
    children = seq.spawn(block_count + 1)
    summaries: list[tuple[str, int, float]] = []  # (label, N, S) per stratum
    for i in range(1, block_count + 1):
        rng = np.random.default_rng(children[i - 1])
        values = np.sort(rng.lognormal(mean=0.0, sigma=math.log(1 + i), size=_BLOCK_SIZE))
        for k, part in enumerate(_split_block(values, _STRATA_PER_BLOCK)):
            summaries.append((f"b{i:03d}s{k}", len(part), stratum_sd(part)))
    perm_rng = np.random.default_rng(children[-1])
    order = perm_rng.permutation(len(summaries))
    labels, N, S = zip(*(summaries[k] for k in order))
    return StrataColumns.survey(labels, N, S)
