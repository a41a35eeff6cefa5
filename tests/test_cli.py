import csv
import json
import math
import subprocess
import sys

import pytest

from stratalloc import algorithms, bench, formats, power_problem
from stratalloc.cli import main

TABLE1_CSV = "\n".join(
    ["label,a,b"]
    + [
        f"{w},{a},1000"
        for w, a in enumerate(
            [330, 2560, 150, 660, 150, 15450, 1490, 1740, 300, 930,
             2370, 360, 140, 370, 4250, 390, 10210, 100, 230, 510],
            start=1,
        )
    ]
) + "\n"


@pytest.fixture
def table1_csv(tmp_path):
    path = tmp_path / "strata.csv"
    path.write_text(TABLE1_CSV)
    return path


class TestAllocate:
    def test_writes_allocation_json(self, table1_csv, tmp_path):
        out = tmp_path / "alloc.json"
        code = main(["allocate", "--input", str(table1_csv), "--n", "8000", "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["algorithm"] == "rna"
        assert doc["take_all"] == ["2", "6", "15", "17"]
        assert doc["iterations"] == 4
        assert doc["s_final"] == pytest.approx(0.3913894324853229, rel=1e-12)
        total = math.fsum(e["x"] for e in doc["allocation"])
        assert total == pytest.approx(8000.0, rel=1e-12)

    @pytest.mark.parametrize("algorithm", ["rna", "sga", "coma", "bisection"])
    def test_algorithm_choice(self, table1_csv, tmp_path, algorithm):
        out = tmp_path / "alloc.json"
        code = main([
            "allocate", "--input", str(table1_csv), "--n", "8000",
            "--algorithm", algorithm, "--output", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["algorithm"] == algorithm
        assert sorted(doc["take_all"]) == ["15", "17", "2", "6"]

    def test_solver_outputs_byte_identical(self, table1_csv, tmp_path):
        texts = []
        for algorithm in ("rna", "sga", "coma"):
            out = tmp_path / f"{algorithm}.json"
            assert main([
                "allocate", "--input", str(table1_csv), "--n", "8000",
                "--algorithm", algorithm, "--output", str(out),
            ]) == 0
            texts.append(json.loads(out.read_text())["allocation"])
        assert texts[0] == texts[1] == texts[2]

    def test_census_note(self, table1_csv, tmp_path, capsys):
        out = tmp_path / "alloc.json"
        code = main(["allocate", "--input", str(table1_csv), "--n", "20000", "--output", str(out)])
        assert code == 0
        assert "census" in capsys.readouterr().err
        doc = json.loads(out.read_text())
        assert len(doc["take_all"]) == 20

    def test_infeasible_exit_3(self, table1_csv, tmp_path, capsys):
        code = main(["allocate", "--input", str(table1_csv), "--n", "20001"])
        assert code == 3
        assert "infeasible" in capsys.readouterr().err

    def test_malformed_csv_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("label,a,b\nu,oops,3\n")
        code = main(["allocate", "--input", str(bad), "--n", "1"])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows,name",
        [("u,1e308,1\nv,1e308,1\nw,1,10\n", "a"), ("u,1,1e308\nv,1,1e308\n", "b")],
    )
    def test_overflowing_sum_exit_2(self, tmp_path, capsys, rows, name):
        pop = tmp_path / "pop.csv"
        pop.write_text("label,a,b\n" + rows)
        code = main(["allocate", "--input", str(pop), "--n", "5"])
        assert code == 2
        assert f"sum of the {name} values overflows" in capsys.readouterr().err

    def test_bisection_unrepresentable_scale_exit_2(self, tmp_path, capsys):
        # s = n / sum(a) = 5e-401 is below the float range
        pop = tmp_path / "pop.csv"
        pop.write_text("label,a,b\nu,1e100,1\nv,1e100,1\n")
        code = main(["allocate", "--input", str(pop), "--n", "1e-300", "--algorithm", "bisection"])
        assert code == 2
        assert "scale s" in capsys.readouterr().err

    @pytest.mark.parametrize("algorithm", ["rna", "sga", "coma"])
    def test_nonfinite_allocation_exit_2(self, tmp_path, capsys, algorithm):
        # the optimum is x = (9999999999.5, 1), but s(V) overflows and the
        # solvers return x = (inf, 1), which JSON cannot hold
        pop = tmp_path / "pop.csv"
        pop.write_text("label,a,b\nu,1e-300,1e10\nv,1e10,1\n")
        out = tmp_path / "alloc.json"
        code = main([
            "allocate", "--input", str(pop), "--n", "10000000000.5",
            "--algorithm", algorithm, "--output", str(out),
        ])
        assert code == 2
        assert "stratum 'u' has x = inf at s = inf" in capsys.readouterr().err
        assert not out.exists() or out.read_text() == ""

    def test_missing_file_exit_2(self, tmp_path):
        code = main(["allocate", "--input", str(tmp_path / "nope.csv"), "--n", "1"])
        assert code == 2

    def test_stdout_default(self, table1_csv, capsys):
        code = main(["allocate", "--input", str(table1_csv), "--n", "8000"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["algorithm"] == "rna"

    def test_bad_flag_usage_error(self, table1_csv):
        with pytest.raises(SystemExit) as exc:
            main(["allocate", "--input", str(table1_csv), "--n", "8000", "--algorithm", "newton"])
        assert exc.value.code == 2


class TestVerify:
    def test_accepts_solved_allocation(self, table1_csv, tmp_path, capsys):
        out = tmp_path / "alloc.json"
        main(["allocate", "--input", str(table1_csv), "--n", "8000", "--output", str(out)])
        code = main(["verify", "--input", str(table1_csv), "--n", "8000", "--allocation", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "valid" in printed
        assert "ok" in printed

    def test_rejects_tampered_allocation(self, table1_csv, tmp_path, capsys):
        out = tmp_path / "alloc.json"
        main(["allocate", "--input", str(table1_csv), "--n", "8000", "--output", str(out)])
        doc = json.loads(out.read_text())
        for entry in doc["allocation"]:
            if entry["label"] == "1":
                entry["x"] += 5.0
            if entry["label"] == "3":
                entry["x"] -= 5.0
        out.write_text(json.dumps(doc))
        code = main(["verify", "--input", str(table1_csv), "--n", "8000", "--allocation", str(out)])
        assert code == 1
        assert "verification failed" in capsys.readouterr().out

    def test_extreme_scale_exit_0(self, tmp_path, capsys):
        # s = 5e-201, so s**2 underflows to 0
        pop = tmp_path / "pop.csv"
        pop.write_text("label,a,b\nu,1e200,1e10\nv,1e200,1e10\n")
        out = tmp_path / "alloc.json"
        assert main(["allocate", "--input", str(pop), "--n", "1", "--output", str(out)]) == 0
        code = main(["verify", "--input", str(pop), "--n", "1", "--allocation", str(out)])
        printed = capsys.readouterr().out
        assert code == 0, printed
        assert "certificate: valid" in printed

    def test_large_scale_tamper_names_stationarity(self, tmp_path, capsys):
        # mu = 1e-10: the old mu-relative residual read 3e-10 here
        pop = tmp_path / "pop.csv"
        pop.write_text("label,a,b\nu,1,1e9\nv,1,1e9\n")
        out = tmp_path / "alloc.json"
        assert main(["allocate", "--input", str(pop), "--n", "2e5", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert [e["x"] for e in doc["allocation"]] == [1e5, 1e5]
        doc["allocation"][0]["x"], doc["allocation"][1]["x"] = 1.5e5, 0.5e5
        out.write_text(json.dumps(doc))
        code = main(["verify", "--input", str(pop), "--n", "2e5", "--allocation", str(out)])
        printed = capsys.readouterr().out
        assert code == 1
        assert "stationarity residual: 1.000e+00" in printed
        assert "verification failed: stationarity\n" in printed

    def test_malformed_take_all_exit_2(self, table1_csv, tmp_path, capsys):
        out = tmp_path / "alloc.json"
        main(["allocate", "--input", str(table1_csv), "--n", "8000", "--output", str(out)])
        doc = json.loads(out.read_text())
        doc["take_all"] = 5
        out.write_text(json.dumps(doc))
        code = main(["verify", "--input", str(table1_csv), "--n", "8000", "--allocation", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "take_all" in err
        assert "Traceback" not in err

    def test_label_mismatch_exit_2(self, table1_csv, tmp_path):
        out = tmp_path / "alloc.json"
        main(["allocate", "--input", str(table1_csv), "--n", "8000", "--output", str(out)])
        other = tmp_path / "other.csv"
        other.write_text("label,a,b\nu,1,2\nv,2,3\n")
        code = main(["verify", "--input", str(other), "--n", "3", "--allocation", str(out)])
        assert code == 2


def test_one_solver_registry(table1_csv):
    assert bench.SOLVERS is algorithms.SOLVERS
    for name in [*algorithms.SOLVERS, "bisection"]:
        assert main(["allocate", "--input", str(table1_csv), "--n", "8000", "--algorithm", name]) == 0


class TestGenpop:
    def test_reference_population(self, tmp_path):
        out = tmp_path / "pop.csv"
        assert main(["genpop", "--kind", "table1", "--output", str(out)]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["label", "a", "b"]
        assert len(rows) == 21
        assert rows[2] == ["2", "2560", "1000"]

    def test_power_population(self, tmp_path):
        out = tmp_path / "pop.csv"
        assert main(["genpop", "--kind", "power", "--output", str(out)]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["label", "N", "S"]
        assert len(rows) == 21
        assert float(rows[1][2]) == 10.0
        assert float(rows[20][2]) == 1e20

    def test_power_csv_reads_back_as_power_problem(self, tmp_path):
        out = tmp_path / "pop.csv"
        assert main(["genpop", "--kind", "power", "--output", str(out)]) == 0
        with open(out, encoding="utf-8", newline="") as fp:
            read = formats.problem_from_rows(formats.read_strata_csv(fp), 5000.0)
        expected = power_problem(5000.0)
        assert [(st.label, st.a.hex(), st.b.hex()) for st in read.strata] == [
            (str(st.label), st.a.hex(), st.b.hex()) for st in expected.strata
        ]

    def test_lognormal_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert main([
                "genpop", "--kind", "lognormal", "--seed", "42", "--blocks", "6",
                "--output", str(out),
            ]) == 0
        assert a.read_text() == b.read_text()

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        flagged = tmp_path / "flag.csv"
        env = tmp_path / "env.csv"
        assert main([
            "genpop", "--kind", "lognormal", "--seed", "7", "--blocks", "4",
            "--output", str(flagged),
        ]) == 0
        monkeypatch.setenv("STRATALLOC_SEED", "7")
        assert main([
            "genpop", "--kind", "lognormal", "--blocks", "4", "--output", str(env),
        ]) == 0
        assert env.read_text() == flagged.read_text()

    def test_bad_env_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("STRATALLOC_SEED", "pi")
        code = main(["genpop", "--kind", "lognormal", "--blocks", "2", "--output", str(tmp_path / "x.csv")])
        assert code == 2
        assert "STRATALLOC_SEED" in capsys.readouterr().err

    def test_round_trips_through_allocate(self, tmp_path):
        pop = tmp_path / "pop.csv"
        main(["genpop", "--kind", "lognormal", "--seed", "3", "--blocks", "4", "--output", str(pop)])
        out = tmp_path / "alloc.json"
        code = main(["allocate", "--input", str(pop), "--n", "4000", "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        total = math.fsum(e["x"] for e in doc["allocation"])
        assert total == pytest.approx(4000.0, rel=1e-9)


class TestBench:
    def test_kind_run(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main([
            "bench", "--kind", "table1", "--fraction", "0.4", "--fraction", "0.6",
            "--repetitions", "5", "--output", str(out),
        ])
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 6  # 3 algorithms x 2 fractions
        assert {r["algorithm"] for r in rows} == {"rna", "sga", "coma"}
        for r in rows:
            assert int(r["median_ns"]) > 0
            assert int(r["repetitions"]) == 5
            assert int(r["K"]) == 20

    def test_input_run(self, table1_csv, tmp_path):
        out = tmp_path / "bench.csv"
        code = main([
            "bench", "--input", str(table1_csv), "--fraction", "0.4",
            "--repetitions", "1", "--output", str(out),
        ])
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 3
        assert rows[0]["problem_id"].endswith("@0.4")

    def test_requires_exactly_one_source(self, table1_csv, capsys):
        assert main(["bench", "--fraction", "0.5"]) == 2
        assert main([
            "bench", "--input", str(table1_csv), "--kind", "table1", "--fraction", "0.5",
        ]) == 2

    def test_rejects_bad_fraction(self, table1_csv):
        assert main([
            "bench", "--input", str(table1_csv), "--fraction", "1.5",
        ]) == 2


class TestRoundcmp:
    def test_report(self, tmp_path):
        pop = tmp_path / "pop.csv"
        pop.write_text("label,N,S\nu,40,2.0\nv,60,1.0\nw,100,0.5\n")
        out = tmp_path / "round.csv"
        code = main([
            "roundcmp", "--input", str(pop), "--fraction", "0.25", "--fraction", "0.5",
            "--output", str(out),
        ])
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 2
        assert rows[0]["fraction"] == "0.25"
        assert float(rows[0]["ratio_ri"]) >= 1.0 - 1e-12

    def test_skipped_fraction_exit_2(self, tmp_path, capsys):
        pop = tmp_path / "pop.csv"
        pop.write_text("label,N,S\nu,40,2.0\nv,60,1.0\nw,100,0.5\n")
        out = tmp_path / "round.csv"
        code = main([
            "roundcmp", "--input", str(pop), "--fraction", "0.005", "--output", str(out),
        ])
        assert code == 2
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 1  # the report is still written
        assert "skipped" in capsys.readouterr().err

    def test_weight_form_needs_integer_bounds(self, tmp_path, capsys):
        pop = tmp_path / "pop.csv"
        pop.write_text("label,a,b\nu,1,2.5\n")
        code = main(["roundcmp", "--input", str(pop), "--fraction", "0.5"])
        assert code == 2


class TestConsoleEntry:
    def test_subprocess_round_trip(self, tmp_path):
        pop = tmp_path / "pop.csv"
        alloc = tmp_path / "alloc.json"
        r1 = subprocess.run(
            [sys.executable, "-m", "stratalloc.cli", "genpop", "--kind", "table1",
             "--output", str(pop)],
            capture_output=True, text=True,
        )
        assert r1.returncode == 0, r1.stderr
        r2 = subprocess.run(
            [sys.executable, "-m", "stratalloc.cli", "allocate", "--input", str(pop),
             "--n", "8000", "--output", str(alloc)],
            capture_output=True, text=True,
        )
        assert r2.returncode == 0, r2.stderr
        r3 = subprocess.run(
            [sys.executable, "-m", "stratalloc.cli", "verify", "--input", str(pop),
             "--n", "8000", "--allocation", str(alloc)],
            capture_output=True, text=True,
        )
        assert r3.returncode == 0, r3.stdout + r3.stderr
        assert "valid" in r3.stdout
