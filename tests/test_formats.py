import gc
import io
import json
import math

import pytest

from stratalloc import AllocationResult, Stratum, SurveyStratum, rna, table1_problem
from stratalloc.formats import (
    StrataCsvError,
    population_maps_from_rows,
    problem_from_rows,
    read_allocation_json,
    read_strata_csv,
    write_ab_csv,
    write_allocation_json,
    write_ns_csv,
)


def parse(text, name="test.csv"):
    return read_strata_csv(io.StringIO(text), name=name)


class TestReadStrataCsv:
    def test_weight_bound_form(self):
        rows = parse("label,a,b\nu,2.5,10\nv,1.0,4\n").records
        assert [(r.label, r.a, r.b) for r in rows] == [("u", 2.5, 10.0), ("v", 1.0, 4.0)]
        assert rows[0].N is None

    def test_survey_form_maps_to_weights(self):
        rows = parse("label,N,S\nu,100,2.5\nv,50,1.5\n").records
        assert rows[0].a == pytest.approx(250.0)
        assert rows[0].b == 100.0
        assert rows[0].N == 100
        assert rows[1].S == 1.5

    def test_header_case_insensitive(self):
        rows = parse("Label,A,B\nu,1,2\n").records
        assert rows[0].a == 1.0

    def test_blank_lines_ignored(self):
        rows = parse("label,a,b\nu,1,2\n\nv,2,3\n")
        assert rows.labels == ("u", "v")

    def test_unknown_header(self):
        with pytest.raises(StrataCsvError, match="line 1"):
            parse("id,weight,cap\nu,1,2\n")

    def test_empty_file(self):
        with pytest.raises(StrataCsvError, match="line 1"):
            parse("")

    def test_no_data_rows(self):
        with pytest.raises(StrataCsvError, match="no data"):
            parse("label,a,b\n")

    def test_bad_number_names_line(self):
        with pytest.raises(StrataCsvError, match="line 3"):
            parse("label,a,b\nu,1,2\nv,oops,3\n")

    def test_wrong_field_count_names_line(self):
        with pytest.raises(StrataCsvError, match="line 2"):
            parse("label,a,b\nu,1\n")

    def test_duplicate_label(self):
        with pytest.raises(StrataCsvError, match="duplicate"):
            parse("label,a,b\nu,1,2\nu,2,3\n")

    def test_nonpositive_values(self):
        with pytest.raises(StrataCsvError, match="positive"):
            parse("label,a,b\nu,-1,2\n")
        with pytest.raises(StrataCsvError, match="positive"):
            parse("label,N,S\nu,0,2\n")

    def test_fractional_population_size(self):
        with pytest.raises(StrataCsvError, match="integer"):
            parse("label,N,S\nu,10.5,2\n")

    def test_problem_construction(self):
        rows = parse("label,a,b\nu,2.5,10\nv,1.0,4\n")
        p = problem_from_rows(rows, 7.0)
        assert p.labels == ("u", "v")
        assert p.n == 7.0

    def test_rows_are_strata(self):
        rows = parse("label,a,b\nu,2.5,10\n").records
        assert type(rows[0]) is Stratum
        rows = parse("label,N,S\nu,100,0.30000000000000004\nv,7,1e-300\n").records
        assert all(type(r) is SurveyStratum for r in rows)
        assert rows[0].S.hex() == (0.1 + 0.2).hex()
        assert rows[1].S == 1e-300
        assert [r.a for r in rows] == [100.0 * (0.1 + 0.2), 7.0 * 1e-300]

    def test_problem_shares_the_rows(self):
        rows = parse("label,N,S\nu,100,2.5\nv,50,1.5\n")
        p = problem_from_rows(rows, 30.0)
        assert p.strata is rows.records

    def test_rejected_record_names_line(self):
        # a/b overflows: the Stratum constructor rejects the row
        with pytest.raises(StrataCsvError, match="line 2.*a/b overflows"):
            parse("label,a,b\nu,1e300,1e-300\n")
        with pytest.raises(StrataCsvError, match="line 3"):
            parse("label,N,S\nu,10,2\nv,nan,1\n")


class TestCollectorPause:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_restored(self, enabled):
        def lines():
            yield "label,N,S\n"
            assert not gc.isenabled()  # paused while the rows are read
            yield "u,10,2\n"

        def broken():
            yield "label,N,S\n"
            raise OSError("read failed")

        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            assert read_strata_csv(lines()).S == [2.0]
            assert gc.isenabled() == enabled
            with pytest.raises(OSError):
                read_strata_csv(broken())
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was else gc.disable)()


class TestPopulationMaps:
    def test_from_survey_rows(self):
        rows = parse("label,N,S\nu,100,2.5\n")
        N, S = population_maps_from_rows(rows)
        assert N == {"u": 100}
        assert S == {"u": 2.5}

    def test_from_weight_rows_with_integer_bounds(self):
        rows = parse("label,a,b\nu,250,100\n")
        N, S = population_maps_from_rows(rows)
        assert N == {"u": 100}
        assert S["u"] == pytest.approx(2.5)

    def test_rejects_fractional_bounds(self):
        rows = parse("label,a,b\nu,1,2.5\n")
        with pytest.raises(StrataCsvError, match="integer"):
            population_maps_from_rows(rows)


class TestCsvWriters:
    def test_ab_round_trip(self):
        buf = io.StringIO()
        write_ab_csv([("u", 1.5, 10.0), ("v", 0.1, 3.0)], buf)
        rows = parse(buf.getvalue()).records
        assert [(r.label, r.a, r.b) for r in rows] == [("u", 1.5, 10.0), ("v", 0.1, 3.0)]

    def test_ns_round_trip(self):
        buf = io.StringIO()
        write_ns_csv([("u", 100, 2.5)], buf)
        rows = parse(buf.getvalue()).records
        assert rows[0].N == 100
        assert rows[0].S == 2.5

    def test_seventeen_digit_floats_survive(self):
        value = 0.1 + 0.2  # 0.30000000000000004
        buf = io.StringIO()
        write_ab_csv([("u", value, 1.0)], buf)
        assert parse(buf.getvalue()).records[0].a == value


class TestAllocationJson:
    def test_round_trip(self):
        p = table1_problem()
        res = rna(p)
        buf = io.StringIO()
        write_allocation_json(res, p.n, buf)
        doc = json.loads(buf.getvalue())
        assert doc["algorithm"] == "rna"
        assert doc["n"] == 8000.0
        assert doc["iterations"] == 4
        assert doc["take_all"] == [2, 6, 15, 17]
        assert [e["label"] for e in doc["allocation"]] == list(p.labels)
        back = read_allocation_json(io.StringIO(buf.getvalue()))
        assert back.x == res.x
        assert back.take_all == res.take_all
        assert back.s_final == res.s_final

    def test_seventeen_significant_digits(self):
        p = table1_problem()
        res = rna(p)
        buf = io.StringIO()
        write_allocation_json(res, p.n, buf)
        text = buf.getvalue()
        # s_final prints all 17 digits, not the short repr
        assert format(res.s_final, ".17g") in text

    def test_invalid_json(self):
        with pytest.raises(ValueError, match="invalid JSON"):
            read_allocation_json(io.StringIO("{not json"))

    def test_missing_field(self):
        with pytest.raises(ValueError, match="malformed"):
            read_allocation_json(io.StringIO('{"algorithm": "rna"}'))

    @pytest.mark.parametrize(
        "take_all,x,match",
        [
            ("5", "1", "take_all must be a list"),
            ('"uv"', "1", "take_all must be a list"),
            ('[["u"]]', "1", r"take_all: \['u'\] is not a label"),
            ('["w"]', "1", "take_all: 'w' is not a label"),
            ("[]", "true", "allocation: x of label 'u' must be a number"),
            ("[]", '"12"', "allocation: x of label 'u' must be a number"),
            ("[]", "null", "allocation: x of label 'u' must be a number"),
            ("[]", "[1]", "allocation: x of label 'u' must be a number"),
        ],
        ids=["int", "string", "nested", "unknown", "bool", "numeric_string", "null", "list"],
    )
    def test_malformed_take_all_or_x(self, take_all, x, match):
        text = (
            '{"algorithm": "rna", "n": 2, "s_final": 1, "iterations": 1, "take_all": %s,'
            ' "allocation": [{"label": "u", "x": %s}, {"label": "v", "x": 1.5}]}' % (take_all, x)
        )
        with pytest.raises(ValueError, match="alloc.json: " + match):
            read_allocation_json(io.StringIO(text), name="alloc.json")

    @staticmethod
    def scalar_doc(**fields):
        doc = {"algorithm": "rna", "n": 2, "s_final": 0.5, "iterations": 1, "take_all": ["v"],
               "allocation": [{"label": "u", "x": 0.5}, {"label": "v", "x": 1.5}]}
        doc.update(fields)
        return json.dumps(doc)

    @pytest.mark.parametrize(
        "field,value,what",
        [
            ("s_final", "1.5", "a number"),
            ("s_final", True, "a number"),
            ("s_final", "nan", "a number"),
            ("s_final", "abc", "a number"),
            ("s_final", None, "a number"),
            ("iterations", "7", "an integer"),
            ("iterations", 2.9, "an integer"),
            ("iterations", 2.0, "an integer"),
            ("iterations", True, "an integer"),
            ("algorithm", 5, "a string"),
            ("algorithm", None, "a string"),
        ],
    )
    def test_malformed_scalar(self, field, value, what):
        text = self.scalar_doc(**{field: value})
        with pytest.raises(ValueError, match=f"^alloc.json: {field} must be {what}, got {value!r}$"):
            read_allocation_json(io.StringIO(text), name="alloc.json")

    def test_scalars_read_as_written(self):
        # the writer prints s_final = 0.0 as 0, an integer in JSON
        back = read_allocation_json(io.StringIO(self.scalar_doc(s_final=0, iterations=7, algorithm="sga")))
        assert (back.s_final, type(back.s_final), back.iterations, back.algorithm) == (0.0, float, 7, "sga")
        assert back.x == {"u": 0.5, "v": 1.5} and back.take_all == frozenset({"v"})

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_nonfinite_x_not_written(self, value):
        res = AllocationResult(
            x={"u": value, "v": 1.0}, take_all=frozenset({"v"}), s_final=math.inf,
            iterations=2, trace=(), algorithm="rna",
        )
        buf = io.StringIO()
        with pytest.raises(ValueError, match="stratum 'u' has x = (inf|nan) at s = inf"):
            write_allocation_json(res, 2.0, buf)
        assert buf.getvalue() == ""

    @pytest.mark.parametrize(
        "n,s_final,message",
        [(math.inf, 0.5, "n = inf, s = 0.5"), (2.0, math.nan, "n = 2.0, s = nan"), (math.nan, math.inf, "n = nan, s = inf")],
    )
    def test_nonfinite_n_or_scale_not_written(self, n, s_final, message):
        res = AllocationResult(
            x={"u": 0.5, "v": 1.5}, take_all=frozenset({"v"}), s_final=s_final,
            iterations=2, trace=(), algorithm="rna",
        )
        buf = io.StringIO()
        with pytest.raises(ValueError, match=f"^cannot write the allocation as JSON: {message}$"):
            write_allocation_json(res, n, buf)
        assert buf.getvalue() == ""
