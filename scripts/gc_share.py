"""The cyclic garbage collector's share of perfbench's timed solves.

    python3 scripts/gc_share.py --src parent=/path/to/parent/src --src change=src \
        --seed 0 --rounds 4 --repeats 3 --out BENCH_30.json

Each ``--src NAME=DIR`` is a source tree holding the ``stratalloc`` package.
One worker process per source and repeat runs ``--rounds`` rounds of
perfbench's seeded solve batches (the 40 of the ``solve_mix`` workload)
through ``ops.Bench.solve_batch``, the path perfbench times: build the
problem from ``Stratum`` records, solve with rna, sga and coma, then the
untimed checks. ``gc.callbacks`` records every collection: its generation,
and its seconds inside a timed build-and-solve call or outside one (the
checks). Sources run in turn within a repeat, in reverse order on every
other repeat. The output holds every worker's counts and seconds, and per
source the median of each over the repeats.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SOLVE_MIX_BATCHES = 40


def worker(seed: int, rounds: int) -> dict:
    """Collections per generation, and the collector's seconds inside and
    outside the timed solves, over ``rounds`` rounds of the solve batches."""
    sys.path.insert(0, str(PERFBENCH))
    import gen
    import ops

    batches = [gen.solve_batch(seed, i) for i in range(SOLVE_MIX_BATCHES)]
    collections = [0, 0, 0]
    seconds = {"inside": 0.0, "outside": 0.0}
    state = {"where": "outside", "start": 0.0}

    def on_collect(phase: str, info: dict) -> None:
        if phase == "start":
            state["start"] = time.perf_counter()
        else:
            seconds[state["where"]] += time.perf_counter() - state["start"]
            collections[info["generation"]] += 1

    timed_solve = ops.solve_timed

    def solve_timed(solver, inst):
        state["where"] = "inside"
        try:
            return timed_solve(solver, inst)
        finally:
            state["where"] = "outside"

    ops.solve_timed = solve_timed
    bench = ops.Bench(None, Path("."), trace=False)  # solve batches start no child
    gc.collect()
    gc.callbacks.append(on_collect)
    start = time.perf_counter()
    for _ in range(rounds):
        for i, batch in enumerate(batches):
            bench.solve_batch(i, batch)
    wall = time.perf_counter() - start
    gc.callbacks.remove(on_collect)
    if bench.failed:
        raise RuntimeError(f"{bench.failed} of {bench.attempted} solves failed")
    return {
        "collections": collections,
        "gc_inside_s": seconds["inside"],
        "gc_outside_s": seconds["outside"],
        "timed_solve_s": bench.solve_time,
        "gc_share_of_timed": seconds["inside"] / bench.solve_time,
        "wall_s": wall,
        "solves": bench.attempted,
    }


def main(argv: list[str] | None = None) -> int:
    if argv is None and sys.argv[1:2] == ["--worker"]:
        print(json.dumps(worker(int(sys.argv[2]), int(sys.argv[3]))))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", required=True, help="NAME=DIR of a source tree; repeatable")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    sources = {name: str(Path(src).resolve()) for name, src in (item.split("=", 1) for item in args.src)}
    runs: dict[str, list[dict]] = {name: [] for name in sources}
    for repeat in range(args.repeats):
        for name, src in list(sources.items())[:: -1 if repeat % 2 else 1]:
            proc = subprocess.run(
                [sys.executable, __file__, "--worker", str(args.seed), str(args.rounds)],
                env=dict(os.environ, PYTHONPATH=src), check=True, capture_output=True, text=True, timeout=1800,
            )
            runs[name].append(json.loads(proc.stdout))
            print(f"repeat {repeat} {name}: {runs[name][-1]}", file=sys.stderr)
    medians = {
        name: {
            "collections": [statistics.median(run["collections"][g] for run in done) for g in range(3)],
            **{key: statistics.median(run[key] for run in done)
               for key in ("gc_inside_s", "gc_outside_s", "timed_solve_s", "gc_share_of_timed", "wall_s")},
        }
        for name, done in runs.items()
    }
    report = {
        "environment": {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0))},
        "method": (
            f"{args.repeats} repeats; each runs one worker per source, in turn, in reverse order on every other "
            f"repeat. A worker runs {args.rounds} rounds of perfbench's {SOLVE_MIX_BATCHES} seed-{args.seed} "
            "solve batches through ops.Bench.solve_batch, with gc.callbacks counting collections per generation "
            "and timing each one, inside a timed build-and-solve call (gc_inside_s) or outside one "
            "(gc_outside_s). timed_solve_s is the sum of the timed calls, which include the collections inside "
            "them; gc_share_of_timed is gc_inside_s over it."
        ),
        "median": medians,
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
