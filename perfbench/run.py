"""Benchmark of stratalloc, driven from outside the program.

    python3 perfbench/run.py --workload cli_large --seed 0 --seconds 20 --trace 0

Run from a checkout of the repository; the program is imported from its
``src`` directory and no install is needed. Each workload repeats one round
of operations until ``--seconds`` have passed, one operation at a time from
this single process (a closed loop with one caller). A round is:

* ``allocate`` then ``verify`` on the workload's strata file,
* ``roundcmp`` at fractions 0.1 to 0.5 on the workload's population file,
* solve batches: 18 seeded survey instances each, every one built and
  solved in this process by rna, sga and coma.

The workloads differ in their inputs (see WORKLOADS and perfbench/README.md),
so every end-to-end metric is measured on every workload.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
With ``--trace 1`` the run records spans around every call into the
program's layers, replays the CLI commands in this process on the same
files, and reports per-layer self times and counts instead. Both modes
check every output and print the sha256 fingerprints of the allocation JSON
and the roundcmp CSV.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"

# strata file for allocate/verify, population file for roundcmp, solve
# batches per round. "large" is the seeded K = 100,000 survey file; "popB"
# is the program's own lognormal population of B blocks (~10 strata each).
WORKLOADS = {
    "cli_large": ("large", "pop10", 20),
    "solve_mix": ("pop10", "pop10", 40),
    "roundcmp_survey": ("pop100", "pop100", 20),
}
POPULATION_BLOCKS = {"pop10": 10, "pop100": 100}
SETUP_PER_ROUND = 3

# metric names and units
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# span and count names of the traced run; a span's self time is reported as
# "<name>_s"
LAYER_TIMES = (
    "formats.read_strata_csv",
    "formats.write_allocation_json",
    "formats.read_allocation_json",
    "model.build",
    "model.v_allocation",
    "model.is_optimal_takeall",
    "model.srswor_variance",
    "algorithms.rna",
    "algorithms.sga",
    "algorithms.coma",
    "oracles.kkt_verify",
    "oracles.greedy_integer",
    "rounding.round_allocation",
    "rounding.variance_table",
)
LAYER_COUNTS = (
    "formats.csv_bytes",
    "formats.json_bytes",
    "algorithms.iterations.rna",
    "algorithms.iterations.sga",
    "algorithms.iterations.coma",
    "oracles.greedy_units",
    "rounding.zero_strata",
)
IMPORT_TIMER = "import time; t = time.perf_counter(); import stratalloc.cli; print(time.perf_counter() - t)"


def environment() -> dict:
    try:
        llc = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        llc = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "llc": llc,
    }


def make_inputs(workload: str, seed: int, env: dict, work: Path) -> tuple:
    strata_kind, population_kind, n_batches = WORKLOADS[workload]
    files = {}
    for kind in {strata_kind, population_kind}:
        files[kind] = work / f"{kind}.csv"
        if kind == "large":
            gen.write_survey_csv(str(files[kind]), seed)
        else:
            gen.genpop(sys.executable, env, seed, POPULATION_BLOCKS[kind], str(files[kind]))
    strata = files[strata_kind]
    batches = [gen.solve_batch(seed, i) for i in range(n_batches)]
    return strata, gen.sample_size(str(strata)), files[population_kind], batches


def p99(values: list[float]) -> float:
    return statistics.quantiles(values, n=100)[98]


def run(args: argparse.Namespace, env: dict, work: Path) -> tuple[dict, dict, "ops.Bench", dict]:
    """(metrics, raw medians of the e2e times, bench, probe failures per solver)"""
    import ops
    from spans import per_group

    strata, n, population, batches = make_inputs(args.workload, args.seed, env, work)
    probe_cmd = [sys.executable, "-c", IMPORT_TIMER if args.trace else "import stratalloc.cli"]
    with contextlib.closing(ops.Spawner(env, work)) as spawner:
        bench = ops.Bench(spawner, work, bool(args.trace))
        deadline = time.perf_counter() + args.seconds
        while bench.round == 0 or time.perf_counter() < deadline:
            for _ in range(SETUP_PER_ROUND):
                out = bench.probe("setup", probe_cmd)
                if args.trace:
                    bench.samples["cli.import"].append((float(out), len(bench.refs) - 1))
            bench.allocate(strata, n, work / "allocation.json")
            bench.verify(strata, n, work / "allocation.json")
            bench.roundcmp(population, gen.FRACTIONS, work / "roundcmp.csv")
            for i, batch in enumerate(batches):
                bench.solve_batch(i, batch)
            bench.round += 1
        bench.rescale(6)
    probe_failed = ops.run_probes(gen.probe_instances(args.seed))

    s = bench.samples
    if not args.trace:
        times = bench.solve_times()
        metrics = {
            "setup_s": bench.scaled(s["setup"]),
            "allocate_s": bench.scaled(s["allocate"]),
            "verify_s": bench.scaled(s["verify"]),
            "roundcmp_s": bench.scaled(s["roundcmp"]),
            "peak_rss_mb": bench.peak_rss_mb,
            "solves_per_s": len(times) / math.fsum(times),
            "solve_p50_us": statistics.median(times) * 1e6,
            "solve_p99_us": p99(times) * 1e6,
        }
    else:
        rounds = per_group(bench.tracer, bench.group, [bench.scale(ref) for ref in bench.op_ref])
        names = [t + "_s" for t in LAYER_TIMES] + list(LAYER_COUNTS)
        # every round runs every operation, so each layer shows in each round
        for r in range(bench.round):
            missing = [name for name in names if name not in rounds[r]]
            bench.record(not missing, f"round {r} traced no {', '.join(missing)}")
        metrics = {"cli.import_s": bench.scaled(s["cli.import"]), "cli.overhead_s": bench.scaled(s["cli.overhead"])}
        for name in names:  # a missing name has failed the run above
            metrics[name] = statistics.median(rounds[r].get(name, 0.0) for r in range(bench.round))
        metrics.update({f"algorithms.failed.{k}": v for k, v in probe_failed.items()})
        metrics["trace.overhead_share"] = bench.traced_solve / bench.solve_time - 1.0
    raw = {kind: statistics.median(t for t, _ in s[kind]) for kind in ("setup", "allocate", "verify", "roundcmp")}
    raw["host_speed"] = ops.REF_NOMINAL_S / statistics.median(bench.refs)
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
              for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    return result, raw, bench, probe_failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "stratalloc" / "cli.py").is_file():
        print(f"error: {SRC / 'stratalloc'} not found; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    host = environment()
    # one CPU for the benchmark and all its children, so that the reference
    # loop runs on the CPU whose speed it stands for
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    started = time.perf_counter()
    try:
        metrics, raw, bench, probe_failed = run(args, env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("env " + " ".join(f"{k}={v}" for k, v in host.items()))
    print(f"run workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={bench.round} wall_s={time.perf_counter() - started:.1f}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print("unscaled medians: " + " ".join(f"{k}={v:.4g}" for k, v in raw.items()))
    if not args.trace:
        medians = bench.solve_op_medians()
        print(f"per-operation solve medians: p50={statistics.median(medians) * 1e6:.6g} us "
              f"p99={p99(medians) * 1e6:.6g} us over {len(medians)} operations")
    print(f"operations attempted={bench.attempted} failed={bench.failed}")
    for name, digest in bench.fingerprints().items():
        print(f"fingerprint {name} sha256={digest}")
    print(f"defect probes: {gen.EDGE_COUNT + len(gen.PINNED)} instances x 3 solvers, failed "
          + " ".join(f"{k}={v}" for k, v in probe_failed.items()))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
