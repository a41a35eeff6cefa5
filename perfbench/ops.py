"""The benchmark's operations, their correctness checks and traced replays.

CLI operations run ``python -m stratalloc.cli`` as a child process and are
timed from spawn to exit; each child's peak RSS comes from ``os.wait4``.
Solve operations build an ``AllocationProblem`` and call one solver in this
process. Every check runs outside the timed region, and every operation
whose check fails is counted in ``failed``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from stratalloc import (
    AllocationProblem,
    Stratum,
    coma,
    formats,
    is_optimal_takeall,
    kkt_verify,
    rna,
    sga,
)
from stratalloc.rounding import variance_table, write_variance_csv

from spans import Tracer

SOLVERS = {"rna": rna, "sga": sga, "coma": coma}
CHILD_LIMIT_S = 100
VERIFY_MARKERS = ("certificate: valid", "take-all fixed point: ok")
# the reference loop takes about REF_NOMINAL_S when this host runs at full speed
REF_ROWS = 3000
REF_NOMINAL_S = 0.005


def build(inst: tuple) -> AllocationProblem:
    labels, a, b, n = inst
    return AllocationProblem(strata=tuple(map(Stratum, labels, a, b)), n=n)


# Children are started by this small helper process, not by the benchmark:
# Linux carries the parent's peak RSS into a forked child's ru_maxrss across
# exec, so a child of the (large) benchmark process would report at least
# the benchmark's own peak.
SPAWNER = """
import json, os, subprocess, sys, time
for line in sys.stdin:
    argv, out_path, err_path = json.loads(line)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([wall, usage.ru_maxrss, proc.returncode]), flush=True)
"""


class Spawner:
    """Runs child processes one at a time through the helper process; each
    child gets its wall time from spawn to exit and its peak RSS."""

    def __init__(self, env: dict, work: Path) -> None:
        self.work = work
        self.proc = subprocess.Popen(
            [sys.executable, "-c", SPAWNER], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, start_new_session=True,
        )

    def run(self, argv: list[str]) -> tuple[float, float, int, str]:
        """(wall s, peak RSS MB, exit code, stdout) of one child."""
        out, err = self.work / "child.out", self.work / "child.err"
        self.proc.stdin.write(json.dumps([argv, str(out), str(err)]) + "\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], CHILD_LIMIT_S)
        if not ready:
            os.killpg(self.proc.pid, signal.SIGKILL)
            raise RuntimeError(f"child ran longer than {CHILD_LIMIT_S} s: {argv}")
        wall, rss_kib, code = json.loads(self.proc.stdout.readline())
        if code != 0:
            print(err.read_text(errors="replace"), end="", file=sys.stderr)
        return wall, rss_kib / 1024.0, code, out.read_text(errors="replace")

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_LIMIT_S)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.proc.stdout.close()


def roundcmp_rows_ok(data: bytes, fractions) -> bool:
    """One row per fraction, in order, with d2_cont <= d2_int <= d2_rounded."""
    rows = list(csv.reader(io.StringIO(data.decode())))
    if len(rows) != len(fractions) + 1:
        return False
    head = rows[0]
    try:
        cols = [head.index(c) for c in ("fraction", "d2_cont", "d2_int", "d2_rounded")]
    except ValueError:
        return False
    for row, f in zip(rows[1:], fractions):
        frac, cont, integer, rounded = (row[i] for i in cols)
        if frac != format(float(f), "g") or not float(cont) <= float(integer) <= float(rounded):
            return False
    return True


def result_key(res) -> tuple:
    """Everything two solvers must agree on, floats compared bit for bit."""
    return (
        tuple((lb, float.hex(v)) for lb, v in res.x.items()),
        res.take_all,
        float.hex(res.s_final),
    )


def check_solves(inst: tuple, results: dict, verified=None) -> dict[str, bool]:
    """Per solver: it returned, it agrees bitwise with every other solver that
    returned, and kkt_verify accepts it (skipped for a key already verified)."""
    keys = {name: result_key(r) for name, r in results.items() if not isinstance(r, Exception)}
    ok = {name: name in keys and all(k == keys[name] for k in keys.values()) for name in results}
    agreed = [name for name, good in ok.items() if good]  # all with one key
    if agreed and keys[agreed[0]] != verified and not kkt_verify(build(inst), results[agreed[0]]).valid:
        ok = dict.fromkeys(ok, False)
    return ok


def solve_timed(solver, inst: tuple):
    start = time.perf_counter()
    try:
        res = solver(build(inst))
    except Exception as exc:  # a raising call is a failed operation, counted by the caller
        res = exc
    return time.perf_counter() - start, res


def reference_loop() -> float:
    """Wall time of a fixed pure-Python mix of the program's kinds of work
    (format and parse CSV-like rows, build a dict, sort, sum floats): how
    fast this host runs such Python right now."""
    start = time.perf_counter()
    rows = [f"s{i},{i % 1999 + 2},{i * 0.37:.17g}" for i in range(REF_ROWS)]
    parsed = [(lb, int(n), float(s)) for lb, n, s in (row.split(",") for row in rows)]
    weights = {lb: n * s for lb, n, s in parsed}
    sorted(weights, key=weights.get)
    math.fsum(weights.values())
    return time.perf_counter() - start


class Bench:
    """Runs operations one at a time and keeps their timings and verdicts.

    The reference loop is timed before every operation (three times before
    a child process, once before a solve batch, six times at the end), and
    every timing is kept as (raw seconds, index of the loop time taken just
    before it). Its scale is REF_NOMINAL_S over the mean of the five loop
    times up to it and the six after it, so raw * scale is the time it
    would take with the host at reference speed.
    """

    def __init__(self, spawner: Spawner, work: Path, trace: bool) -> None:
        self.spawner = spawner
        self.work = work
        self.tracer = Tracer() if trace else None
        self.group: list[int] = []  # traced operation id -> round
        self.op_ref: list[int] = []  # traced operation id -> reference index
        self.round = 0
        self.refs: list[float] = []
        self.samples: dict[str, list[tuple[float, int]]] = defaultdict(list)
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.first: dict[str, bytes] = {}
        # successful solve timings by operation (batch, instance, solver)
        self.solve_samples: dict[tuple, list[tuple[float, int]]] = defaultdict(list)
        self.verified: dict[tuple, tuple] = {}
        self.solve_time = 0.0
        self.traced_solve = 0.0

    def rescale(self, times: int = 1) -> int:
        self.refs.extend(reference_loop() for _ in range(times))
        return len(self.refs) - 1

    def scale(self, ref: int) -> float:
        # the mean, not the median: the loop time is bimodal when the host
        # takes the CPU away part of the time, and the mean tracks that share
        return REF_NOMINAL_S / statistics.fmean(self.refs[max(0, ref - 4):ref + 7])

    def scaled(self, samples: list[tuple[float, int]]) -> float:
        """Median of the samples at reference speed."""
        return statistics.median(raw * self.scale(ref) for raw, ref in samples)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"failed: {what}", file=sys.stderr)

    def solve_times(self) -> list[float]:
        """Every successful timed solve call, at reference speed."""
        return [raw * self.scale(ref) for v in self.solve_samples.values() for raw, ref in v]

    def solve_op_medians(self) -> list[float]:
        """Each solve operation's median over the rounds (a diagnostic)."""
        return [self.scaled(v) for v in self.solve_samples.values()]

    def fingerprints(self) -> dict[str, str]:
        return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(self.first.items())}

    def _same_as_first(self, name: str, path: Path) -> bool:
        data = path.read_bytes()
        return self.first.setdefault(name, data) == data

    def probe(self, kind: str, argv: list[str]) -> str:
        """One timed child outside the operation mix (the set-up probes)."""
        ref = self.rescale(3)
        wall, _, code, stdout = self.spawner.run(argv)
        if code != 0:
            raise RuntimeError(f"{argv} exited with {code}")
        self.samples[kind].append((wall, ref))
        return stdout

    def _cli(self, command: str, args: list[str]) -> tuple[float, bool, str]:
        ref = self.rescale(3)
        argv = [sys.executable, "-m", "stratalloc.cli", command, *args]
        wall, rss, code, stdout = self.spawner.run(argv)
        self.samples[command].append((wall, ref))
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        return wall, code == 0, stdout

    def _replay(self, wall: float, name: str, fn, *args):
        """Trace fn as one operation; its CLI overhead is wall minus the replay."""
        self.tracer.start_op()
        self.group.append(self.round)
        self.op_ref.append(len(self.refs) - 1)
        start = time.perf_counter()
        out = self.tracer.call(name, fn, *args)
        if wall is not None:
            self.samples["cli.overhead"].append((wall - (time.perf_counter() - start), len(self.refs) - 1))
        return out

    # -- CLI operations --------------------------------------------------

    def allocate(self, strata: Path, n: int, out: Path) -> None:
        wall, ok, _ = self._cli("allocate", ["--input", str(strata), "--n", str(n), "--output", str(out)])
        self.record(ok and self._same_as_first("allocate.json", out), "allocate")
        if self.tracer and ok:
            data = self._replay(wall, "op.allocate", self._replay_allocate, strata, n)
            self.record(data == self.first["allocate.json"], "allocate replay bytes")

    def verify(self, strata: Path, n: int, allocation: Path) -> None:
        wall, ok, stdout = self._cli(
            "verify", ["--input", str(strata), "--n", str(n), "--allocation", str(allocation)]
        )
        ok = ok and all(marker in stdout for marker in VERIFY_MARKERS)
        self.record(ok, "verify")
        if self.tracer and ok:
            valid = self._replay(wall, "op.verify", self._replay_verify, strata, n, allocation)
            self.record(valid, "verify replay verdict")

    def roundcmp(self, population: Path, fractions, out: Path) -> None:
        args = ["--input", str(population), "--output", str(out)]
        for f in fractions:
            args += ["--fraction", f]
        wall, ok, _ = self._cli("roundcmp", args)
        ok = ok and self._same_as_first("roundcmp.csv", out) and roundcmp_rows_ok(out.read_bytes(), fractions)
        self.record(ok, "roundcmp")
        if self.tracer and ok:
            data = self._replay(wall, "op.roundcmp", self._replay_roundcmp, population, fractions)
            self.record(data == self.first["roundcmp.csv"], "roundcmp replay rows")

    # -- in-process solve operations ---------------------------------------

    def solve_batch(self, batch: int, instances: list[tuple]) -> None:
        """Each instance once per solver: build + solve timed, checks after."""
        ref = self.rescale()
        for i, inst in enumerate(instances):
            timed = {name: solve_timed(solver, inst) for name, solver in SOLVERS.items()}
            results = {name: res for name, (_, res) in timed.items()}
            ok = check_solves(inst, results, self.verified.get((batch, i)))
            for name, (dt, _) in timed.items():
                self.solve_time += dt
                if ok[name]:
                    self.solve_samples[(batch, i, name)].append((dt, ref))
                self.record(ok[name], f"{name} on batch {batch} instance {i}")
            if all(ok.values()):
                self.verified[(batch, i)] = result_key(results["rna"])
            if self.tracer:
                for name, solver in SOLVERS.items():
                    start = time.perf_counter()
                    res = self._replay(None, "op.solve", self._replay_solve, name, solver, inst)
                    self.traced_solve += time.perf_counter() - start
                    if ok[name]:
                        same = not isinstance(res, Exception) and result_key(res) == result_key(results[name])
                        self.record(same, f"{name} replay")

    # -- traced in-process replays of the CLI commands ---------------------

    def _read_rows(self, tr: Tracer, path: Path):
        with open(path, encoding="utf-8", newline="") as fp:
            rows = tr.call("formats.read_strata_csv", formats.read_strata_csv, fp, name=str(path))
        tr.count("formats.csv_bytes", path.stat().st_size)
        return rows

    def _replay_allocate(self, strata: Path, n: int) -> bytes:
        tr = self.tracer
        problem = tr.call("model.build", formats.problem_from_rows, self._read_rows(tr, strata), float(n))
        with tr.patched():
            result = tr.solver("rna", rna)(problem)
        path = self.work / "replay.json"
        with open(path, "w", encoding="utf-8", newline="") as fp:
            tr.call("formats.write_allocation_json", formats.write_allocation_json, result, problem.n, fp)
        data = path.read_bytes()
        tr.count("formats.json_bytes", len(data))
        return data

    def _replay_verify(self, strata: Path, n: int, allocation: Path) -> bool:
        tr = self.tracer
        problem = tr.call("model.build", formats.problem_from_rows, self._read_rows(tr, strata), float(n))
        with open(allocation, encoding="utf-8") as fp:
            result = tr.call("formats.read_allocation_json", formats.read_allocation_json, fp, name=str(allocation))
        tr.count("formats.json_bytes", allocation.stat().st_size)
        if set(result.x) != set(problem.labels):
            return False
        cert = tr.call("oracles.kkt_verify", kkt_verify, problem, result)
        fixed = tr.call("model.is_optimal_takeall", is_optimal_takeall, problem, result.take_all)
        return cert.valid and fixed

    def _replay_roundcmp(self, population: Path, fractions) -> bytes:
        tr = self.tracer
        N, S = formats.population_maps_from_rows(self._read_rows(tr, population))
        with tr.patched():
            reports = tr.call("rounding.variance_table", variance_table, N, S, [float(f) for f in fractions])
        path = self.work / "replay.csv"
        with open(path, "w", encoding="utf-8", newline="") as fp:
            write_variance_csv(reports, fp)
        return path.read_bytes()

    def _replay_solve(self, name: str, solver, inst: tuple):
        tr = self.tracer
        problem = tr.call("model.build", build, inst)
        with tr.patched():
            try:
                return tr.solver(name, solver)(problem)
            except Exception as exc:  # already counted by the untraced call
                return exc


def run_probes(instances: list[tuple]) -> dict[str, int]:
    """Failed calls per solver on the defect probes (untimed)."""
    failed = dict.fromkeys(SOLVERS, 0)
    for inst in instances:
        results = {name: solve_timed(solver, inst)[1] for name, solver in SOLVERS.items()}
        for name, ok in check_solves(inst, results).items():
            failed[name] += not ok
    return failed
