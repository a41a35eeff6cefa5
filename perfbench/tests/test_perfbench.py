"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import stratalloc
import stratalloc.rounding

import gen
import ops
import run
import spans


def test_generators_are_deterministic_per_seed(tmp_path):
    files = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    for path, seed in zip(files, (3, 3, 4)):
        gen.write_survey_csv(str(path), seed, K=50)
    assert files[0].read_bytes() == files[1].read_bytes() != files[2].read_bytes()
    assert gen.sample_size(str(files[0])) == gen.sample_size(str(files[1]))

    assert gen.solve_batch(3, 0) == gen.solve_batch(3, 0)
    assert gen.solve_batch(3, 0) != gen.solve_batch(4, 0)
    assert gen.solve_batch(3, 0) != gen.solve_batch(3, 1)
    assert [len(inst[0]) for inst in gen.solve_batch(3, 0)] == [20] * 10 + [200] * 6 + [2000] * 2

    assert gen.edge_instances(3, count=5) == gen.edge_instances(3, count=5)
    assert gen.edge_instances(3, count=5) != gen.edge_instances(4, count=5)
    probes = gen.probe_instances(3)
    assert len(probes) == gen.EDGE_COUNT + 2 and tuple(probes[-2:]) == gen.PINNED


def _bench(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    spawner = ops.Spawner(env, tmp_path)
    return spawner, ops.Bench(spawner, tmp_path, trace=False)


def test_tampered_allocation_counts_as_failed(tmp_path):
    strata, alloc = tmp_path / "strata.csv", tmp_path / "alloc.json"
    gen.write_survey_csv(str(strata), 0, K=50)
    n = gen.sample_size(str(strata))
    spawner, bench = _bench(tmp_path)
    try:
        bench.allocate(strata, n, alloc)
        bench.verify(strata, n, alloc)
        assert (bench.attempted, bench.failed) == (2, 0)

        doc = json.loads(alloc.read_text())
        doc["allocation"][0]["x"] *= 1.5
        alloc.write_text(json.dumps(doc))
        bench.verify(strata, n, alloc)
        assert (bench.attempted, bench.failed) == (3, 1)
    finally:
        spawner.close()


def test_solve_checks_flag_raises_and_disagreement():
    inst = gen.solve_batch(0, 0)[0]
    res = ops.SOLVERS["rna"](ops.build(inst))
    ok = ops.check_solves(inst, {"rna": RuntimeError("boom"), "sga": res, "coma": res})
    assert ok == {"rna": False, "sga": True, "coma": True}

    label = next(iter(res.x))
    bad = dataclasses.replace(res, x={**res.x, label: res.x[label] * (1 + 1e-15)})
    ok = ops.check_solves(inst, {"rna": res, "sga": res, "coma": bad})
    assert not any(ok.values())


def test_roundcmp_rows_check():
    head = "fraction,n,d2_cont,d2_rounded,d2_int,ratio_ci,ratio_ri\r\n"
    good = head + "0.1,10,1.0,inf,2.0,0.5,inf\r\n0.2,20,0.5,0.7,0.6,0.83,1.16\r\n"
    assert ops.roundcmp_rows_ok(good.encode(), ("0.1", "0.2"))
    assert not ops.roundcmp_rows_ok(good.encode(), ("0.1", "0.2", "0.3"))
    swapped = head + "0.1,10,3.0,inf,2.0,1.5,inf\r\n0.2,20,0.5,0.7,0.6,0.83,1.16\r\n"
    assert not ops.roundcmp_rows_ok(swapped.encode(), ("0.1", "0.2"))


def test_self_time_on_synthetic_span_tree():
    tr = spans.Tracer()
    tr.spans = [
        ["op", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.child", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["b.child", 5.0, 6.0, 3, 0],
        ["b.child", 6.0, 8.0, 3, 0],
        ["op", 20.0, 21.0, -1, 1],
    ]
    tr.counts = [("units", 4, 0), ("units", 5, 1)]
    assert spans.self_times(tr.spans) == [3.0, 2.0, 1.0, 1.0, 1.0, 2.0, 1.0]
    groups = spans.per_group(tr, [0, 1], [1.0, 0.5])  # operation 1 ran at half the reference speed
    assert dict(groups[0]) == {"op_s": 3.0, "a_s": 2.0, "a.child_s": 1.0, "b_s": 1.0, "b.child_s": 3.0, "units": 4}
    assert dict(groups[1]) == {"op_s": 0.5, "units": 5}


def test_patching_a_name_the_program_lacks_raises(monkeypatch):
    monkeypatch.delattr(stratalloc.rounding, "greedy_integer_optimal")
    with pytest.raises(AttributeError):
        with spans.Tracer().patched():
            pass
    assert stratalloc.rounding.AllocationProblem is stratalloc.AllocationProblem


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_one_round_reports_every_listed_metric(trace, section):
    proc = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload", "solve_mix",
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=300,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in run.SPEC[section]
    }


def test_scale_is_reference_speed_over_the_window_mean():
    bench = ops.Bench(None, Path("."), trace=False)
    bench.refs = [0.005] * 5 + [0.010] * 6  # the host ran at half speed after operation 4
    mean = sum(bench.refs) / len(bench.refs)
    assert bench.scale(4) == ops.REF_NOMINAL_S / mean
    assert bench.scaled([(1.0, 4), (3.0, 4)]) == 2.0 * ops.REF_NOMINAL_S / mean
    bench.solve_samples = {("b", 0, "rna"): [(1.0, 4), (3.0, 4)], ("b", 1, "sga"): [(2.0, 4)]}
    assert bench.solve_times() == [t * bench.scale(4) for t in (1.0, 3.0, 2.0)]
