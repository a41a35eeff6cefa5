"""Seeded inputs for the benchmark workloads.

Every input is a pure function of the benchmark seed, so one seed always
gives the same files and instances. The program under test only sees the
files written here (and the populations its own ``genpop`` writes) and
the instance values passed to its public constructors.
"""

from __future__ import annotations

import csv
import math
import subprocess

import numpy as np

LARGE_K = 100_000
SAMPLE_SHARE = 0.2  # allocate/verify use n = round(0.2 * sum(N))
FRACTIONS = ("0.1", "0.2", "0.3", "0.4", "0.5")

# survey instances in one solve batch: (K, count); 18 instances, 54 calls
BATCH_SHAPE = ((20, 10), (200, 6), (2000, 2))
EDGE_K = 20
EDGE_COUNT = 200

# ROADMAP item 2 reproducers, verbatim: rna and sga raise "all strata hit
# their bounds" on the first, coma raises ZeroDivisionError on the second
PINNED = (
    (
        tuple(f"p6_{i}" for i in range(6)),
        (1.087729242891976, 17332490899.032524, 6509726358.374473,
         3.2817742329849777e-12, 8328.004862510666, 6.958557331037807e-05),
        (0.0005850640852304769, 0.0006497076428643487, 216022.39396657038,
         29454904.807017025, 57.96008765662333, 0.9677543080393372),
        29670986.129767798,
    ),
    (
        tuple(f"p4_{i}" for i in range(4)),
        (1073885290.9066164, 125506191886.97058, 1.8041080913652054e-09, 5.875709349693181e-10),
        (4190676.4923184835, 1.6391934067475318, 0.03271075618004013, 0.9306590389706386),
        4190679.0785263074,
    ),
)


def _rng(*stream: int) -> np.random.Generator:
    return np.random.default_rng(list(stream))


def _survey_columns(rng: np.random.Generator, K: int) -> tuple[list[int], list[float]]:
    """N uniform on [2, 2000), S lognormal with sigma 1.5."""
    N = rng.integers(2, 2000, size=K).tolist()
    S = rng.lognormal(0.0, 1.5, size=K).tolist()
    return N, S


def write_survey_csv(path: str, seed: int, K: int = LARGE_K) -> None:
    """A ``label,N,S`` file of K survey strata, S written with 17 digits."""
    N, S = _survey_columns(_rng(seed, 0), K)
    with open(path, "w", encoding="utf-8", newline="") as fp:
        fp.write("label,N,S\n")
        fp.write("".join(f"s{i},{n},{format(s, '.17g')}\n" for i, (n, s) in enumerate(zip(N, S))))


def genpop(python: str, env: dict, seed: int, blocks: int, path: str) -> None:
    """The program's own lognormal population, ``blocks`` blocks of 10,000 units."""
    subprocess.run(
        [python, "-m", "stratalloc.cli", "genpop", "--kind", "lognormal",
         "--seed", str(seed), "--blocks", str(blocks), "--output", path],
        env=env, check=True, stdout=subprocess.DEVNULL, timeout=120,
    )


def sample_size(path: str) -> int:
    """n = round(0.2 * sum(N)) for a ``label,N,S`` file."""
    with open(path, encoding="utf-8", newline="") as fp:
        rows = csv.reader(fp)
        next(rows)
        return round(SAMPLE_SHARE * sum(int(row[1]) for row in rows))


def solve_batch(seed: int, index: int) -> list[tuple]:
    """Survey instances (labels, a, b, n): the same N and S laws as the large
    file, a = N * S, b = N and n = round(f * sum(N)) with f ~ U(0.02, 0.95)."""
    rng = _rng(seed, 1, index)
    out = []
    for K, count in BATCH_SHAPE:
        for _ in range(count):
            N, S = _survey_columns(rng, K)
            f = float(rng.uniform(0.02, 0.95))
            labels = tuple(f"s{i}" for i in range(K))
            a = tuple(n * s for n, s in zip(N, S))
            b = tuple(float(n) for n in N)
            out.append((labels, a, b, float(round(f * sum(N)))))
    return out


def edge_instances(seed: int, count: int = EDGE_COUNT) -> list[tuple]:
    """Wide-range instances close to census: a = 10^U(-12,12), b = 10^U(-5,8),
    n = sum(b) - gap with the gap log-uniform on [sum(b) * 1e-15, min(b) / 2]."""
    rng = _rng(seed, 2)
    labels = tuple(f"e{i}" for i in range(EDGE_K))
    out = []
    for _ in range(count):
        a = tuple((10.0 ** rng.uniform(-12, 12, EDGE_K)).tolist())
        b = tuple((10.0 ** rng.uniform(-5, 8, EDGE_K)).tolist())
        total = math.fsum(b)
        lo, hi = sorted((math.log(total * 1e-15), math.log(min(b) / 2)))
        out.append((labels, a, b, total - math.exp(rng.uniform(lo, hi))))
    return out


def probe_instances(seed: int) -> list[tuple]:
    """The defect probes: the edge slice plus the two pinned reproducers."""
    return edge_instances(seed) + list(PINNED)
