"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads cli_large --seeds 10
    python3 perfbench/spread.py --seeds 10 --traced --label "<commit>" --append perfbench/trajectory.json

Runs ``perfbench/run.py`` once per seed (0, 1, ...) for BENCHMARK.json's
``run_seconds``, one run at a time, and prints per metric the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(q3 - q1) / median.
``--traced`` adds one ``--trace 1`` run per workload. ``--append`` adds the
whole result, with the environment and a host-noise measurement, as one
entry of a trajectory file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600,
    )
    lines = proc.stdout.splitlines()
    record = json.loads(lines[-1])
    record["seed"] = seed
    record["fingerprints"] = dict(line.split()[1:3] for line in lines if line.startswith("fingerprint "))
    for line in lines:
        if line.startswith("env "):
            record["env"] = dict(item.split("=", 1) for item in line.split()[1:])
        elif line.startswith("unscaled medians: "):
            record["unscaled"] = {
                k: float(v) for k, v in (item.split("=") for item in line.split(": ", 1)[1].split())
            }
        elif line.startswith("defect probes: "):
            record["defect_probes"] = line.split(": ", 1)[1]
    return record


def quartiles(values: list[float], unit: str) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"unit": unit, "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def summarize(records: list[dict]) -> dict:
    out = {name: quartiles([r["metrics"][name]["value"] for r in records], m["unit"])
           for name, m in records[0]["metrics"].items()}
    for name in records[0].get("unscaled", {}):
        unit = "ratio" if name == "host_speed" else "s"
        out[f"unscaled.{name}"] = quartiles([r["unscaled"][name] for r in records], unit)
    return out


def host_noise(repeats: int = 6) -> dict:
    """Wall times of one fixed pure-Python loop, run back to back."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(5_000_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return {"loop": "sum of i*i for i < 5e6", "seconds": times, "min": min(times), "max": max(times)}


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", type=int, default=10, help="runs, with seeds 0 .. N - 1")
    parser.add_argument("--traced", action="store_true", help="also one --trace 1 run per workload")
    parser.add_argument("--label", default="", help="what was measured, e.g. the commit")
    parser.add_argument("--append", help="trajectory JSON file to add this measurement to")
    args = parser.parse_args()

    entry = {"label": args.label, "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
             "seconds": SPEC["run_seconds"], "host_noise": host_noise(), "workloads": {}}
    for workload in args.workloads:
        records = [one_run(workload, seed, 0) for seed in range(args.seeds)]
        summary = summarize(records)
        print(f"== {workload}: {args.seeds} runs, attempted={sum(r['attempted'] for r in records)} "
              f"failed={sum(r['failed'] for r in records)} correct={all(r['correct'] for r in records)}")
        for name, s in summary.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{name:32s} median={s['median']:.6g} {s['unit']:6s} "
                  f"q1={s['q1']:.6g} q3={s['q3']:.6g} spread={spread}")
        result = {"summary": summary, "runs": records}
        if args.traced:
            result["traced"] = one_run(workload, 0, 1)
        entry["env"] = records[0].get("env", {})
        entry["workloads"][workload] = result
    if args.append:
        path = Path(args.append)
        history = json.loads(path.read_text()) if path.exists() else []
        history.append(entry)
        path.write_text(json.dumps(history, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
