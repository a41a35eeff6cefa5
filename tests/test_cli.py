import csv
import itertools
import json
import math

import pytest

from conftest import FRACTION_ARGS, python, run_cli, sha256, solver_free
from stratalloc import Stratum, algorithms, bench, formats, power_problem
from stratalloc.cli import main
from stratalloc.model import SOLVER_NAMES

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
    def test_byte_order_mark_ignored(self, table1_csv, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with U+FEFF
        assert main(["genpop", "--kind", "power", "--output", str(tmp_path / "power.csv")]) == 0
        for plain in (table1_csv, tmp_path / "power.csv"):
            marked = tmp_path / f"bom-{plain.name}"
            marked.write_text("\ufeff" + plain.read_text(encoding="utf-8"), encoding="utf-8")
            with open(plain, encoding="utf-8", newline="") as fp:
                expected = formats.read_strata_csv(fp)
            with open(marked, encoding="utf-8", newline="") as fp:
                read = formats.read_strata_csv(fp)
            assert (read.labels, read.lists, read.S) == (expected.labels, expected.lists, expected.S)
            docs = []
            for path in (plain, marked):
                out = tmp_path / f"{path.stem}.json"
                assert main(["allocate", "--input", str(path), "--n", "8000", "--output", str(out)]) == 0
                docs.append(out.read_bytes())
            assert docs[0] == docs[1]

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
        "text,message",
        [
            # a field longer than csv.field_size_limit() (131,072 characters)
            ("label,a,b\nu,1,2\nv," + "9" * 200_000 + ",2\n", "line 3: field larger than field limit (131072)"),
            ("label," + "a" * 200_000 + "\n", "line 1: field larger than field limit (131072)"),
        ],
        ids=["row", "header"],
    )
    def test_unreadable_line_exit_2(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        code = main(["allocate", "--input", str(bad), "--n", "1"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"

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

    def test_bisection_scale_past_the_float_range_exit_2(self, tmp_path, capsys):
        # n / sum(a) is about 1, but the take-all stratum v holds only 1 of
        # n = 1e10 + 0.5 units, so the bracket on s doubles past the largest float
        pop = tmp_path / "pop.csv"
        pop.write_text("label,a,b\nu,1e-300,1e10\nv,1e10,1\n")
        code = main(["allocate", "--input", str(pop), "--n", "10000000000.5", "--algorithm", "bisection"])
        assert code == 2
        assert capsys.readouterr().err == "error: the scale s exceeds the float range (above 8.988465674761003e+307)\n"

    def test_bisection_unmeetable_tol_exit_2(self, tmp_path, capsys):
        # the float bisection ends 1.137e-13 from n: an input error, exit 2,
        # not a traceback and exit 1, the code of a failed verification
        pop = tmp_path / "pop.csv"
        pop.write_text("label,a,b\nu,11.503491796281205,638.2004946640785\nv,38.01020015485263,211.01109369659162\n")
        argv = ["allocate", "--input", str(pop), "--n", "626.2499434014056", "--algorithm", "bisection"]
        code = main([*argv, "--tol", "1e-16", "--output", str(tmp_path / "out.json")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: tol = 1e-16 cannot be met: the bisection ends at |total - n| = 1.137e-13 > tol * n\n"
        )
        assert not (tmp_path / "out.json").exists()
        assert main([*argv, "--tol", "1e-15", "--output", str(tmp_path / "out.json")]) == 0

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

    @pytest.mark.parametrize("n", ["8000", "20000"], ids=["partial", "census"])
    def test_reversed_entries_verify_alike(self, table1_csv, tmp_path, capsys, n):
        # an allocation whose entries are not in the strata file's order is
        # read by label, and prints what the file's own order prints
        out, reversed_out = tmp_path / "alloc.json", tmp_path / "reversed.json"
        main(["allocate", "--input", str(table1_csv), "--n", n, "--output", str(out)])
        doc = json.loads(out.read_text())
        doc["allocation"].reverse()
        doc["take_all"].reverse()
        reversed_out.write_text(json.dumps(doc))
        printed = []
        for path in (out, reversed_out):
            capsys.readouterr()
            assert main(["verify", "--input", str(table1_csv), "--n", n, "--allocation", str(path)]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1] and "certificate: valid" in printed[0]

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

    def test_malformed_s_final_exit_2(self, table1_csv, tmp_path, capsys):
        out = tmp_path / "alloc.json"
        main(["allocate", "--input", str(table1_csv), "--n", "8000", "--output", str(out)])
        doc = json.loads(out.read_text())
        doc["s_final"] = "abc"
        out.write_text(json.dumps(doc))
        code = main(["verify", "--input", str(table1_csv), "--n", "8000", "--allocation", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {out}: s_final must be a number, got 'abc'\n"

    def test_label_mismatch_exit_2(self, table1_csv, tmp_path):
        out = tmp_path / "alloc.json"
        main(["allocate", "--input", str(table1_csv), "--n", "8000", "--output", str(out)])
        other = tmp_path / "other.csv"
        other.write_text("label,a,b\nu,1,2\nv,2,3\n")
        code = main(["verify", "--input", str(other), "--n", "3", "--allocation", str(out)])
        assert code == 2

    @pytest.mark.parametrize(
        "edit",
        [
            lambda lines: lines + ["21,500,1000"],  # the allocation lacks label 21
            lambda lines: lines[:-1],  # the allocation has label 20, the file does not
            lambda lines: lines[:-1] + ["21,510,1000"],  # as many labels, one different
        ],
        ids=["missing", "extra", "renamed"],
    )
    def test_label_mismatch_message(self, table1_csv, tmp_path, capsys, edit):
        out = tmp_path / "alloc.json"
        assert main(["allocate", "--input", str(table1_csv), "--n", "8000", "--output", str(out)]) == 0
        other = tmp_path / "other.csv"
        other.write_text("\n".join(edit(TABLE1_CSV.splitlines())) + "\n")
        capsys.readouterr()
        code = main(["verify", "--input", str(other), "--n", "8000", "--allocation", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: allocation labels do not match the strata file\n"


class TestVerifyErrorOrder:
    """verify parses the allocation before it reads the strata, but reports
    a bad strata file or n first, as when the strata were read first."""

    BAD_CSV = "label,a,b\nu,1,2\nv,oops,3\n"

    @pytest.fixture
    def allocations(self, table1_csv, tmp_path):
        good = tmp_path / "alloc.json"
        assert main(["allocate", "--input", str(table1_csv), "--n", "8000", "--output", str(good)]) == 0
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        return {"good": good, "invalid": broken, "missing": tmp_path / "missing.json"}

    @pytest.mark.parametrize("allocation", ["good", "invalid", "missing"])
    def test_bad_csv_reported_first(self, tmp_path, capsys, allocations, allocation):
        bad = tmp_path / "bad.csv"
        bad.write_text(self.BAD_CSV)
        capsys.readouterr()
        code = main(["verify", "--input", str(bad), "--n", "2", "--allocation", str(allocations[allocation])])
        assert code == 2
        assert capsys.readouterr().err == f"error: {bad}: line 3: non-numeric value in 'oops', '3'\n"

    @pytest.mark.parametrize("allocation", ["good", "invalid", "missing"])
    def test_infeasible_n_exits_3(self, table1_csv, capsys, allocations, allocation):
        capsys.readouterr()
        code = main(["verify", "--input", str(table1_csv), "--n", "20001", "--allocation", str(allocations[allocation])])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: infeasible problem: n = 20001.0 exceeds the total upper bound 20000.0\n"
        )

    @pytest.mark.parametrize("allocation", ["invalid", "missing"])
    def test_bad_n_reported_first(self, table1_csv, capsys, allocations, allocation):
        capsys.readouterr()
        code = main(["verify", "--input", str(table1_csv), "--n", "-1", "--allocation", str(allocations[allocation])])
        assert code == 2
        assert capsys.readouterr().err == "error: n must be positive and finite, got -1.0\n"

    def test_missing_allocation_named(self, table1_csv, capsys, allocations):
        missing = allocations["missing"]
        capsys.readouterr()
        code = main(["verify", "--input", str(table1_csv), "--n", "8000", "--allocation", str(missing)])
        assert code == 2
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{missing}'\n"

    def test_invalid_allocation_named(self, table1_csv, capsys, allocations):
        broken = allocations["invalid"]
        capsys.readouterr()
        code = main(["verify", "--input", str(table1_csv), "--n", "8000", "--allocation", str(broken)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {broken}: invalid JSON: ")

    def test_deeply_nested_allocation_exit_2(self, table1_csv, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        capsys.readouterr()
        code = main(["verify", "--input", str(table1_csv), "--n", "8000", "--allocation", str(deep)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {deep}: invalid JSON: maximum recursion depth exceeded")

    def test_allocation_parsed_before_the_strata(self, table1_csv, monkeypatch, allocations):
        calls = []
        for name in ("read_allocation_json", "read_strata_csv"):
            def recorded(*args, _name=name, _read=getattr(formats, name), **kwargs):
                calls.append(_name)
                return _read(*args, **kwargs)

            monkeypatch.setattr(formats, name, recorded)
        assert main(["verify", "--input", str(table1_csv), "--n", "8000", "--allocation", str(allocations["good"])]) == 0
        assert calls == ["read_allocation_json", "read_strata_csv"]


def test_duplicate_allocation_labels_exit_2(table1_csv, tmp_path, capsys):
    out = tmp_path / "alloc.json"
    assert main(["allocate", "--input", str(table1_csv), "--n", "8000", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["allocation"][1]["label"] = doc["allocation"][0]["label"]
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--input", str(table1_csv), "--n", "8000", "--allocation", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {out}: duplicate labels in allocation\n"


def test_one_solver_registry(table1_csv):
    assert bench.SOLVERS is algorithms.SOLVERS
    # the CLI offers the solvers by the names their results carry
    assert [solver.__name__ for solver in algorithms.SOLVERS.values()] == list(SOLVER_NAMES)
    for name in [*algorithms.SOLVERS, "bisection"]:
        assert main(["allocate", "--input", str(table1_csv), "--n", "8000", "--algorithm", name]) == 0


# strata 2 and 1 share the float c = a/b, while 1/s({0}) lies between their
# exact a/b, so the optimum is {0, 1}
EQUAL_C_ROWS = [
    "0,56.71821220562006,2.6948674738744653",
    "2,3.2956212316547955,5.561591732572603",
    "1,9.751665804253943,16.45661928464921",
    "3,5.458915783827469,72.47455323943691",
]


def test_equal_float_c_through_the_cli(tmp_path, capsys):
    # in each of the 24 row orders of the label,a,b file, rna, sga and coma
    # must each write a JSON that verify accepts with "take-all fixed point:
    # ok", and sga and coma must write the same JSON as rna apart from the
    # algorithm and iterations lines
    for k, order in enumerate(itertools.permutations(EQUAL_C_ROWS)):
        csv_path = tmp_path / f"order{k}.csv"
        csv_path.write_text("label,a,b\n" + "\n".join(order) + "\n")
        for algorithm in ("rna", "sga", "coma"):
            out = tmp_path / f"{algorithm}.json"
            problem = ["--input", str(csv_path), "--n", "33.92538134936512"]
            assert main(["allocate", *problem, "--algorithm", algorithm, "--output", str(out)]) == 0
            capsys.readouterr()
            assert main(["verify", *problem, "--allocation", str(out)]) == 0
            assert "take-all fixed point: ok" in capsys.readouterr().out.splitlines()
            assert solver_free(tmp_path / "rna.json") == solver_free(out), (k, algorithm)


# sha256 of the allocate JSON, computed before the problem became columnar;
# the populations are genpop's table1, power and lognormal (100 blocks, seed 0)
ALLOCATION_SHA256 = {
    ("table1", "8000", "rna"): "d0b04e93989ebf8b1e63481fdd0f559f09d2756266e5621ac346e17f18ed212a",
    ("table1", "8000", "sga"): "c400af970d632ab33e47ba61a9b1c70e255a5a7618e1b708eb369cf7e0819b3f",
    ("table1", "8000", "coma"): "8554164267a5b8be7f9731d6eacc3734d41f6d4071baee978857bb30e7a18832",
    ("table1", "8000", "bisection"): "92da9efba633b64f5f6dea0c48a82b5ceb345f8aca603b7fe0b3123ad174e057",
    ("power", "5000", "rna"): "0d9957c8264ad61640ba1ffa3e75a368a71599162ad214e65b25d08bb48ea809",
    ("power", "5000", "sga"): "65bc48689f332e20b5cd61b262d023f3dbdd122973b0cff84082cfc664502e3c",
    ("power", "5000", "coma"): "a61cde8754063c81a2548924acad4089f3decd5947c8877aaa2025db8f62a373",
    ("power", "5000", "bisection"): "636e1837197f204eab4640a4fdd6c5fb1ce4e2dbb3fc081fd280f2482c0a422c",
    ("power", "19999", "rna"): "89ff1d69b417a351e4dea710cf8c897f70ce994e561623860149613a49872867",
    ("power", "19999", "sga"): "9f62aa6090a8a73d9f97d97a86b24288d2a888f5541684c45d03c290206adada",
    ("power", "19999", "coma"): "7fed804d050fd0ae3b297085a59abfef561dbb3b73bb8095c819f6098028bfc1",
    ("power", "19999", "bisection"): "0966a743f5c4b5d6eaef380ff7f9960ee38e3441db93d685746be2c3f5bc9f00",
    ("lognormal", "200000", "rna"): "c4325c333540d26a278cc62527068b408af35c0d5aa44c61d444d24a3e0ab4d0",
    ("lognormal", "200000", "sga"): "af7d9e9c02f6ab6ab8bcf74ce6b87485c3ba2c7c5fddf1f893de66086ea19ac1",
    ("lognormal", "200000", "coma"): "8a75d20eb1b6ec64c30ae01342ef5424f839763736ea1f0f679c50d586cdc8b0",
}


@pytest.fixture(scope="module")
def populations(tmp_path_factory):
    """genpop's three populations as CSV files, by kind."""
    root = tmp_path_factory.mktemp("populations")
    paths = {}
    for kind in ("table1", "power", "lognormal"):
        paths[kind] = root / f"{kind}.csv"
        assert main(["genpop", "--kind", kind, "--seed", "0", "--output", str(paths[kind])]) == 0
    return paths


# sha256 of genpop's seed-0 CSVs and of roundcmp's report on two of them at
# fractions 0.1 to 0.5: lognormal is a label,N,S file, table1 a label,a,b file
GENPOP_SHA256 = {
    "table1": "ae3df465eb58bd4edb8405565afe49308303c6a0151e4d024fc19c4b8b5db0f5",
    "power": "ff0b81ca3d2bd4d27b16beff12848f1fc5509e4deee12a31a162fae2e3a0c48c",
    "lognormal": "910f94bcd7197107873ab4afc2907a2c1014ea778dc86b30306780e6cabd1d1d",
}
ROUNDCMP_SHA256 = {
    "lognormal": "dcc760f15790ce7de6ccc160836ce3f85381991b0f62802b3e6ebf754f6c868f",
    "table1": "7019d6e489535d84910f1a1192c330facf5de66562f68bd968d66571ee80dd1a",
}


class TestAllocationBytes:
    @pytest.mark.parametrize("kind,n,algorithm", sorted(ALLOCATION_SHA256))
    def test_pinned_sha256(self, populations, tmp_path, kind, n, algorithm):
        out = tmp_path / "alloc.json"
        args = ["--input", str(populations[kind]), "--n", n]
        assert main(["allocate", *args, "--algorithm", algorithm, "--output", str(out)]) == 0
        assert sha256(out) == ALLOCATION_SHA256[(kind, n, algorithm)]
        assert main(["verify", *args, "--allocation", str(out)]) == 0

    @pytest.mark.parametrize("kind", sorted(GENPOP_SHA256))
    def test_pinned_genpop_sha256(self, populations, kind):
        assert sha256(populations[kind]) == GENPOP_SHA256[kind]

    @pytest.mark.parametrize("kind", sorted(ROUNDCMP_SHA256))
    def test_pinned_roundcmp_sha256(self, populations, tmp_path, kind):
        # the same bytes with numpy blocked: roundcmp must not need it
        for mode in ("normal", "blocked"):
            out = tmp_path / f"{mode}.csv"
            command = ["roundcmp", "--input", str(populations[kind]), *FRACTION_ARGS, "--output", str(out)]
            assert run_cli(mode, [(kind, command)]) == {kind: [0, ""]}, mode
            assert sha256(out) == ROUNDCMP_SHA256[kind], mode

    def test_no_records_on_allocate_or_verify(self, populations, tmp_path, built_records):
        out = tmp_path / "alloc.json"
        args = ["--input", str(populations["lognormal"]), "--n", "200000"]
        assert main(["allocate", *args, "--output", str(out)]) == 0
        assert main(["verify", *args, "--allocation", str(out)]) == 0
        assert built_records == []
        Stratum.survey("u", 10, 2.0)
        assert built_records == ["u"]  # the count sees survey records


@pytest.mark.parametrize("kind", ["table1", "power", "lognormal"])
def test_no_records_on_genpop_or_bench_kind(tmp_path, built_records, kind):
    # populations are survey columns from popgen to the CSV writer and the solvers
    args = ["--kind", kind, "--blocks", "10"]
    assert main(["genpop", *args, "--output", str(tmp_path / "pop.csv")]) == 0
    bench_csv = tmp_path / "bench.csv"
    assert main(["bench", *args, "--fraction", "0.3", "--repetitions", "1", "--output", str(bench_csv)]) == 0
    assert built_records == []
    assert len(list(csv.DictReader(bench_csv.read_text().splitlines()))) == 3


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

    @pytest.mark.parametrize("command", ["genpop", "bench"])
    @pytest.mark.parametrize(
        "option,message",
        [
            (["--seed", "-1"], "seed must fit in 64 unsigned bits"),
            (["--seed", "18446744073709551616"], "seed must fit in 64 unsigned bits"),
            (["--blocks", "0"], "block_count must be positive"),
        ],
    )
    def test_bad_lognormal_arguments_exit_2(self, capsys, command, option, message):
        assert main([command, "--kind", "lognormal", *option]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_lognormal_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert main([
                "genpop", "--kind", "lognormal", "--seed", "42", "--blocks", "6",
                "--output", str(out),
            ]) == 0
        assert a.read_text() == b.read_text()

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

    def test_input_builds_no_record(self, tmp_path, built_records):
        pop = tmp_path / "pop.csv"
        assert main(["genpop", "--kind", "lognormal", "--blocks", "5", "--output", str(pop)]) == 0
        out = tmp_path / "bench.csv"
        args = ["--fraction", "0.3", "--repetitions", "1", "--output", str(out)]
        assert main(["bench", "--input", str(pop), *args]) == 0
        assert built_records == []
        assert len(list(csv.DictReader(out.read_text().splitlines()))) == 3

    def test_zero_repetitions_exit_2(self, table1_csv, capsys):
        code = main(["bench", "--input", str(table1_csv), "--fraction", "0.4", "--repetitions", "0"])
        assert code == 2
        assert capsys.readouterr().err == "error: repetitions must be >= 1\n"

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError, match="^warmup must be >= 0$"):
            bench.time_solver(algorithms.rna, power_problem(5000.0), warmup=-1)

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

    def test_no_records_rebuilt(self, populations, tmp_path, built_records):
        # a label,N,S file's columns are the survey strata that variance_table
        # solves over; no Stratum or SurveyStratum is built on the way
        out = tmp_path / "round.csv"
        args = ["--fraction", "0.1", "--fraction", "0.5", "--output", str(out)]
        assert main(["roundcmp", "--input", str(populations["lognormal"]), *args]) == 0
        assert built_records == []
        # nor on a label,a,b file, whose S = a / b is read from the columns
        assert main(["roundcmp", "--input", str(populations["table1"]), *args]) == 0
        assert built_records == []
        Stratum("u", 1.0, 2.0)
        assert built_records == ["u"]  # the count sees records

    def test_variance_overflow_exit_2(self, tmp_path, capsys):
        # a valid file whose (N*S)**2 overflows a float: a bare OverflowError
        # gave a traceback and exit 1, the code of a failed verification
        pop = tmp_path / "pop.csv"
        pop.write_text("label,N,S\nu,1000000,1e150\nv,2000000,3e150\n")
        code = main(["roundcmp", "--input", str(pop), "--fraction", "0.5", "--output", str(tmp_path / "r.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: stratum 'u': (N*S)**2 must be a finite float, got N=1000000, S=1e+150\n"

    def test_weight_form_needs_integer_bounds(self, tmp_path, capsys):
        pop = tmp_path / "pop.csv"
        pop.write_text("label,a,b\nu,1,2.5\n")
        code = main(["roundcmp", "--input", str(pop), "--fraction", "0.5"])
        assert code == 2


class TestConsoleEntry:
    def test_subprocess_round_trip(self, tmp_path):
        pop = tmp_path / "pop.csv"
        alloc = tmp_path / "alloc.json"
        r1 = python("-m", "stratalloc.cli", "genpop", "--kind", "table1", "--output", str(pop))
        assert r1.returncode == 0, r1.stderr
        r2 = python("-m", "stratalloc.cli", "allocate", "--input", str(pop), "--n", "8000", "--output", str(alloc))
        assert r2.returncode == 0, r2.stderr
        r3 = python("-m", "stratalloc.cli", "verify", "--input", str(pop), "--n", "8000", "--allocation", str(alloc))
        assert r3.returncode == 0, r3.stdout + r3.stderr
        assert "valid" in r3.stdout
