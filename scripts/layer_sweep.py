"""Per-layer times of the allocate, verify and roundcmp paths over a sweep of K.

    python3 scripts/layer_sweep.py --src parent=/path/to/parent/src --src change=src \
        --sizes 1000 10000 100000 1000000 --repeats 5 --out BENCH_9.json

Each ``--src NAME=DIR`` is a source tree holding the ``stratalloc`` package.
For every K the input is perfbench's seeded survey file
(``perfbench/gen.write_survey_csv``, seed 0) with n = round(0.2 * sum(N)).
Each repeat runs, for every source in turn, one worker process that times
the layers in process (CSV read, problem build from the columns, problem
build from ``Stratum`` records as library callers do (``build_records``),
rna, sga, coma, v_allocation on rna's take-all set, bisection_multiplier,
JSON write of rna's answer, JSON read, kkt_verify, is_optimal_takeall,
greedy_integer_optimal, and round_allocation and srswor_variance on rna's
answer, all at the same n; then rna, sga and coma again at
n = round(0.6 * sum(N)) and n = round(0.95 * sum(N)) (``rna@0.6``,
``rna@0.95`` and so on), where sga and coma take about one step per
stratum taken, and at each share the first read of ``trace`` on a fresh sga
result (``sga_trace@0.6``, ``sga_trace@0.95``), which builds its iteration
records; see ``worker`` for how often each is called) and records
each solver's iteration count r* at every n (and bisection_multiplier's
probe count, and greedy_integer_optimal's relaxation passes, on one more
untimed call) and the cyclic garbage collector's seconds and collection count
inside each layer's timed calls (from ``gc.callbacks``), then four
child processes, each timed from spawn to exit, with its peak RSS read by
``os.wait4`` in a small helper process that starts it:
``python -c "import stratalloc.cli"`` (``cli_import``, the start-up every
command pays), the CLI ``allocate`` and ``verify`` commands, and
``roundcmp`` at fractions 0.1 to 0.5 (``cli_roundcmp``). Sources run in
turn within a repeat, in reverse order on every other repeat, so a drift of
the host's speed reaches all of them alike. The output holds the median of
every layer and child time (``median_s``), of each layer's collector seconds
and collections (``gc_s``, ``gc_collections``, summed over the worker's timed
calls) and of every child's peak RSS (``peak_rss_mb``) per source and K, r* per
solver, the
sha256 of each source's allocation JSON and roundcmp CSV, and the median
time of perfbench's reference loop (``ops.reference_loop``) measured
before each worker, which tells how fast the host ran. Under ``bytecode``
it records, per source after the sweep, the children's
``sys.flags.dont_write_bytecode`` and whether ``<src>/stratalloc/__pycache__``
exists: with the flag set and no cache, every child compiles the package
from source, which ``cli_import`` and the other children then include.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SOLVERS = ("rna", "sga", "coma")
# the solvers again at n = round(share * sum(N)) for each share, the
# columns of the paper's running-time comparison beside the sweep's n
SHARES = (0.6, 0.95)
SHARE_SOLVERS = tuple(f"{name}@{share}" for share in SHARES for name in SOLVERS)
# the first read of result.trace, which builds the records of a solver's trace
TRACE_READS = tuple(f"sga_trace@{share}" for share in SHARES)
LAYERS = (
    "read_strata_csv", "build", "build_records", *SOLVERS, "v_allocation", "bisection_multiplier", *SHARE_SOLVERS,
    *TRACE_READS, "write_allocation_json",
    "read_allocation_json", "kkt_verify", "is_optimal_takeall", "greedy_integer_optimal",
    "round_allocation", "srswor_variance",
)
CHILDREN = ("cli_import", "cli_allocate", "cli_verify", "cli_roundcmp")
FRACTIONS = ("0.1", "0.2", "0.3", "0.4", "0.5")
# the solve path is timed over max(SOLVE_CALLS_MIN, SOLVE_CALL_UNITS // K)
# calls per worker
SOLVE_CALL_UNITS = 10_000
SOLVE_CALLS_MIN = 3


def worker(csv_path: str, n: float) -> dict[str, dict]:
    """The time of every layer, and r* of each solver at n and at every
    share's n, on the stratalloc package on sys.path. A layer is timed once,
    except the solve path (build, build_records, the solvers at every n,
    the first trace reads, v_allocation and bisection_multiplier): it is
    the median of ``max(SOLVE_CALLS_MIN, SOLVE_CALL_UNITS // K)`` calls,
    since at small K one call takes microseconds, the first one runs cold,
    and at large K one slow stretch of the host would move a single call."""
    from stratalloc import (
        AllocationProblem,
        Stratum,
        bisection_multiplier,
        coma,
        formats,
        greedy_integer_optimal,
        is_optimal_takeall,
        kkt_verify,
        rna,
        round_allocation,
        sga,
        srswor_variance,
        v_allocation,
    )

    out: dict[str, float] = {}
    # the collector inside the timed calls: the layer running, its seconds and collections
    collector = {"layer": None, "start": 0.0}
    gc_s: dict[str, float] = {}
    gc_collections: dict[str, int] = {}

    def on_collect(phase, info):
        layer = collector["layer"]
        if layer is None:
            return
        if phase == "start":
            collector["start"] = time.perf_counter()
        else:
            gc_s[layer] += time.perf_counter() - collector["start"]
            gc_collections[layer] += 1

    gc.callbacks.append(on_collect)

    def timed_call(name, fn, *args):
        gc_s.setdefault(name, 0.0)
        gc_collections.setdefault(name, 0)
        collector["layer"] = name
        start = time.perf_counter()
        value = fn(*args)
        elapsed = time.perf_counter() - start
        collector["layer"] = None
        return elapsed, value

    def timed(name, fn, *args, calls=1):
        times = []
        for _ in range(calls):
            elapsed, value = timed_call(name, fn, *args)
            times.append(elapsed)
        out[name] = statistics.median(times)
        return value

    with open(csv_path, encoding="utf-8", newline="") as fp:
        rows = timed("read_strata_csv", formats.read_strata_csv, fp)
    calls = max(SOLVE_CALLS_MIN, SOLVE_CALL_UNITS // len(rows.labels))
    problem = timed("build", formats.problem_from_rows, rows, n, calls=calls)
    # the library path: one Stratum record per stratum, then the problem
    timed(
        "build_records", lambda: AllocationProblem(tuple(map(Stratum, rows.labels, *rows.lists)), n), calls=calls
    )
    results = {name: timed(name, solver, problem, calls=calls) for name, solver in zip(SOLVERS, (rna, sga, coma))}
    result = results["rna"]
    timed("v_allocation", v_allocation, problem, result.take_all, calls=calls)
    results["bisection_multiplier"] = timed("bisection_multiplier", bisection_multiplier, problem, calls=calls)
    buf = io.StringIO()
    timed("write_allocation_json", formats.write_allocation_json, result, problem.n, buf)
    back = timed("read_allocation_json", formats.read_allocation_json, io.StringIO(buf.getvalue()))
    cert = timed("kkt_verify", kkt_verify, problem, back)
    fixed = timed("is_optimal_takeall", is_optimal_takeall, problem, back.take_all)
    if not (cert.valid and fixed):
        raise RuntimeError("the allocation did not verify")
    timed("greedy_integer_optimal", greedy_integer_optimal, problem)
    # the integer oracle's passes over the strata that evaluate its
    # relaxation's roots (Newton's steps and any bisection probes), counted
    # on one more call, untimed; None for a source without _roots (the
    # module that defines greedy_integer_optimal holds it)
    home = sys.modules[greedy_integer_optimal.__module__]
    roots, passes = getattr(home, "_roots", None), []
    if roots is not None:
        home._roots = lambda A, t: (passes.append(t), roots(A, t))[1]
        try:
            greedy_integer_optimal(problem)
        finally:
            home._roots = roots
    # variance_table's passes over rna's answer: the rounding, and the
    # variance of the answer clipped to N
    bounds = dict(zip(rows.labels, rows.lists[1]))
    timed("round_allocation", round_allocation, result.x, n, bounds)
    N, S = formats.population_maps_from_rows(rows)
    clipped = dict(zip(rows.labels, map(min, result.x.values(), rows.lists[1])))
    timed("srswor_variance", srswor_variance, N, S, clipped)
    n_shares = {}
    for share in SHARES:
        n_shares[str(share)] = n_share = round(share * problem.sum_b)
        at_share = formats.problem_from_rows(rows, float(n_share))
        for name, solver in zip(SOLVERS, (rna, sga, coma)):
            results[f"{name}@{share}"] = timed(f"{name}@{share}", solver, at_share, calls=calls)
        reads = []
        for _ in range(calls):  # each read on a fresh result, the solve untimed
            fresh = sga(at_share)
            reads.append(timed_call(f"sga_trace@{share}", getattr, fresh, "trace")[0])
        out[f"sga_trace@{share}"] = statistics.median(reads)
    gc.callbacks.remove(on_collect)
    return {
        "s": out,
        "gc_s": gc_s,
        "gc_collections": gc_collections,
        "iterations": {name: res.iterations for name, res in results.items()},
        "greedy_integer_passes": len(passes) if roots is not None else None,
        "n_shares": n_shares,
    }


# Children are started by this small helper process, not by the sweep:
# Linux carries a parent's peak RSS into a forked child's ru_maxrss across
# exec, so a child of the sweep (which holds the K file's problem) would
# report at least the sweep's own peak.
SPAWNER = """
import json, os, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
wall = time.perf_counter() - start
print(json.dumps([wall, usage.ru_maxrss, os.waitstatus_to_exitcode(status)]))
"""


def child(src: str, args: list[str]) -> tuple[float, float]:
    """Wall time (s) of one Python child from spawn to exit, and its peak
    RSS (MB) from ``os.wait4``. The helper waits for the child without a
    timeout: with one, subprocess polls for its exit at steps growing to
    50 ms, which rounds the time up to that grid."""
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", SPAWNER, sys.executable, *args], env=env, check=True, capture_output=True, text=True,
    ).stdout
    wall, rss_kib, code = json.loads(out)
    if code != 0:
        raise subprocess.CalledProcessError(code, args)
    return wall, rss_kib / 1024.0


def bytecode(src: str) -> dict[str, bool]:
    """Whether a child run on src writes no bytecode, and whether src holds
    the package's bytecode cache."""
    flag = subprocess.run(
        [sys.executable, "-c", "import sys; print(sys.flags.dont_write_bytecode)"],
        env=dict(os.environ, PYTHONPATH=src), check=True, capture_output=True, text=True,
    ).stdout
    return {"dont_write_bytecode": bool(int(flag)), "pycache": (Path(src) / "stratalloc" / "__pycache__").is_dir()}


def sweep(sources: dict[str, str], sizes: list[int], repeats: int, work: Path) -> dict:
    sys.path.insert(0, str(PERFBENCH))
    import gen

    sys.path.insert(0, str(ROOT / "src"))
    from ops import reference_loop

    results: dict = {name: {} for name in sources}
    refs: list[float] = []
    for K in sizes:
        path = work / f"survey_{K}.csv"
        gen.write_survey_csv(str(path), 0, K)
        n = gen.sample_size(str(path))
        samples = {name: {layer: [] for layer in (*LAYERS, *CHILDREN)} for name in sources}
        gc_samples = {name: {"gc_s": {}, "gc_collections": {}} for name in sources}
        rss = {name: {command: [] for command in CHILDREN} for name in sources}
        digests, round_digests, iterations, passes = {}, {}, {}, {}
        fractions = [arg for f in FRACTIONS for arg in ("--fraction", f)]
        for repeat in range(repeats):
            # the sources run in turn, in reverse order on every other repeat
            for name, src in list(sources.items())[:: -1 if repeat % 2 else 1]:
                refs.append(min(reference_loop() for _ in range(3)))
                proc = subprocess.run(
                    [sys.executable, __file__, "--worker", str(path), str(n)],
                    env=dict(os.environ, PYTHONPATH=src), check=True, capture_output=True, text=True, timeout=1800,
                )
                report = json.loads(proc.stdout)
                for layer, t in report["s"].items():
                    samples[name][layer].append(t)
                for key, per_layer in gc_samples[name].items():
                    for layer, value in report[key].items():
                        per_layer.setdefault(layer, []).append(value)
                iterations[name] = report["iterations"]
                passes[name] = report["greedy_integer_passes"]
                n_shares = report["n_shares"]
                out = work / f"{name}_{K}.json"
                report_csv = work / f"{name}_{K}_roundcmp.csv"
                commands = {
                    "cli_import": ["-c", "import stratalloc.cli"],
                    "cli_allocate": [
                        "-m", "stratalloc.cli", "allocate", "--input", str(path), "--n", str(n), "--output", str(out)],
                    "cli_verify": [
                        "-m", "stratalloc.cli", "verify", "--input", str(path), "--n", str(n), "--allocation", str(out)],
                    "cli_roundcmp": [
                        "-m", "stratalloc.cli", "roundcmp", "--input", str(path), *fractions, "--output", str(report_csv)],
                }
                for command, args in commands.items():
                    wall, peak = child(src, args)
                    samples[name][command].append(wall)
                    rss[name][command].append(peak)
                digests[name] = hashlib.sha256(out.read_bytes()).hexdigest()
                round_digests[name] = hashlib.sha256(report_csv.read_bytes()).hexdigest()
        for name in sources:
            results[name][str(K)] = {
                "n": n,
                "n_shares": n_shares,
                "median_s": {layer: statistics.median(v) for layer, v in samples[name].items()},
                **{key: {layer: statistics.median(v) for layer, v in per_layer.items()}
                   for key, per_layer in gc_samples[name].items()},
                "peak_rss_mb": {command: statistics.median(v) for command, v in rss[name].items()},
                "iterations": iterations[name],
                "greedy_integer_passes": passes[name],
                "allocate_sha256": digests[name],
                "roundcmp_sha256": round_digests[name],
            }
        print(f"K={K}: " + "; ".join(
            f"{name} allocate {results[name][str(K)]['median_s']['cli_allocate']:.3f} s" for name in sources),
            file=sys.stderr)
    return {
        "reference_loop_median_s": statistics.median(refs),
        "bytecode": {name: bytecode(src) for name, src in sources.items()},
        "results": results,
    }


def main(argv: list[str] | None = None) -> int:
    if argv is None and sys.argv[1:2] == ["--worker"]:
        print(json.dumps(worker(sys.argv[2], float(sys.argv[3]))))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", required=True, help="NAME=DIR of a source tree; repeatable")
    parser.add_argument("--sizes", type=int, nargs="+", default=[1_000, 10_000, 100_000, 1_000_000])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    sources = dict(item.split("=", 1) for item in args.src)
    sources = {name: str(Path(src).resolve()) for name, src in sources.items()}
    with tempfile.TemporaryDirectory(prefix="layer_sweep-") as work:
        report = sweep(sources, args.sizes, args.repeats, Path(work))
    report["environment"] = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }
    report["method"] = (
        f"{args.repeats} repeats per K; each repeat runs every source once, in turn, in reverse order on every "
        "other repeat: one worker process "
        "timing each layer once (build, build_records, v_allocation, bisection_multiplier, and rna, sga and "
        f"coma at n and at n_shares = round(share * sum(N)) for share in {SHARES}, and the first read of "
        "result.trace on a fresh sga result at each share (sga_trace@share), as the median of "
        f"max({SOLVE_CALLS_MIN}, {SOLVE_CALL_UNITS} // K) calls), then the "
        "import, allocate, verify and roundcmp children. Unscaled medians in seconds; gc_s and gc_collections "
        "are the medians over the repeats of the cyclic garbage collector's seconds and collection count inside "
        "a layer's timed calls in one worker, summed over those calls (gc.callbacks); peak_rss_mb is the median "
        "of each child's ru_maxrss from os.wait4; iterations is r* of each solver at n, and under the @share "
        "names at that share's n, and bisection_multiplier's probe count at n; greedy_integer_passes is the number "
        "of passes over the strata that evaluate the integer oracle's relaxation roots, on one more untimed call at n."
    )
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
