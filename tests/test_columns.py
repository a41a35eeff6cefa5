"""The columnar problem: both routes into it agree, and the CSV reader
reports the same first bad line and message as a row-by-row reader."""

import csv
import io
import math
from operator import mul

import numpy as np
import pytest

from stratalloc import (
    AllocationProblem,
    StrataColumns,
    Stratum,
    SurveyStratum,
    bisection_multiplier,
    coma,
    formats,
    is_optimal_takeall,
    kkt_verify,
    model,
    rna,
    sga,
)
from stratalloc.formats import (
    StrataCsvError,
    population_maps_from_rows,
    problem_from_rows,
    read_strata_csv,
    write_ab_csv,
    write_allocation_json,
    write_ns_csv,
)

SOLVERS = {"rna": rna, "sga": sga, "coma": coma, "bisection": bisection_multiplier}


def result_key(res):
    return (
        tuple((lb, float.hex(v)) for lb, v in res.x.items()),
        res.take_all,
        float.hex(res.s_final),
        res.iterations,
        tuple((rec.r, float.hex(rec.s_value), rec.added) for rec in res.trace),
    )


def json_bytes(res, n):
    buf = io.StringIO()
    write_allocation_json(res, n, buf)
    return buf.getvalue()


def assert_routes_agree(from_csv, from_records):
    """Every solver and oracle gives the same answer, bit for bit, on the two problems."""
    assert from_csv.labels == from_records.labels
    # the values are positive and finite, so equal floats are equal bits
    assert from_csv.columns.lists == from_records.columns.lists
    for name, solver in SOLVERS.items():
        res, other = solver(from_csv), solver(from_records)
        assert result_key(res) == result_key(other), name
        assert json_bytes(res, from_csv.n) == json_bytes(other, from_records.n), name
        assert kkt_verify(from_csv, res).residuals == kkt_verify(from_records, other).residuals, name
        assert is_optimal_takeall(from_csv, res.take_all) == is_optimal_takeall(from_records, res.take_all)
    assert is_optimal_takeall(from_csv, ()) == is_optimal_takeall(from_records, ())


def read(text, name="strata.csv"):
    return read_strata_csv(io.StringIO(text), name=name)


class TestRoutesAgree:
    def test_near_ties(self, near_ties):
        rng = np.random.default_rng(71)
        for p, _ in near_ties:
            for order in (range(p.size), rng.permutation(p.size)):
                strata = [Stratum(str(p.strata[i].label), p.strata[i].a, p.strata[i].b) for i in order]
                buf = io.StringIO()
                write_ab_csv(((st.label, st.a, st.b) for st in strata), buf)
                assert_routes_agree(problem_from_rows(read(buf.getvalue()), p.n), AllocationProblem(strata, p.n))

    def test_survey_fuzz(self):
        rng = np.random.default_rng(72)
        for trial in range(120):
            K = int(rng.integers(1, 40))
            N = rng.integers(2, 2000, K).tolist()
            S = rng.lognormal(0.0, 1.5, K).tolist()
            labels = [f"s{i}" for i in rng.permutation(K)]
            n = float(round(float(rng.uniform(0.02, 1.0)) * sum(N)))
            buf = io.StringIO()
            write_ns_csv(zip(labels, N, S), buf)
            columns = read(buf.getvalue())
            records = tuple(map(Stratum.survey, labels, N, S))
            assert_routes_agree(problem_from_rows(columns, n), AllocationProblem(records, n))
            assert columns.records == records


class TestStrataColumns:
    def test_records_are_lazy_and_built_once(self, built_records):
        columns = read("label,N,S\nu,100,2.5\nv,50,1.5\n")
        p = problem_from_rows(columns, 30.0)
        rna(p)
        assert built_records == []
        assert [type(st) for st in p.strata] == [SurveyStratum, SurveyStratum]
        assert built_records == ["u", "v"]
        assert columns.records is p.strata
        assert built_records == ["u", "v"]

    def test_problem_from_records_keeps_the_tuple(self):
        strata = (Stratum("u", 1.0, 2.0), Stratum("v", 3.0, 4.0))
        p = AllocationProblem(strata, 5.0)
        assert p.strata is strata
        assert p.columns.lists == ([1.0, 3.0], [2.0, 4.0])

    def test_from_records_keeps_survey_s(self):
        # a / b for a = 3 * 0.1 reads 0.10000000000000002; the records' S is 0.1
        survey = [Stratum.survey("s0", 3, 0.1), Stratum.survey("s1", 7, 2.5)]
        columns = StrataColumns.from_records(survey)
        assert columns.S == [0.1, 2.5]
        assert population_maps_from_rows(columns) == ({"s0": 3, "s1": 7}, {"s0": 0.1, "s1": 2.5})
        assert StrataColumns.from_records(iter(survey)).S == [0.1, 2.5]
        # S only when every record is a SurveyStratum: a plain Stratum has no S
        for mixed in ([*survey, Stratum("w", 1.0, 2.0)], [Stratum("w", 1.0, 2.0), *survey]):
            assert StrataColumns.from_records(mixed).S is None
            assert StrataColumns.from_records(record for record in mixed).S is None
        assert StrataColumns.from_records(rec for rec in [Stratum("w", 1.0, 2.0)]).S is None

    def test_from_records_takes_only_records(self):
        # the columns are read by index, so a plain tuple would pass unchecked
        for strata in ([("u", -1.0, 2.0)], [Stratum("u", 1.0, 2.0), ("v", 1.0, 2.0)]):
            with pytest.raises(TypeError, match="^strata must be Stratum records, got 'tuple'$"):
                StrataColumns.from_records(strata)
            with pytest.raises(TypeError, match="^strata must be Stratum records"):
                AllocationProblem(strata, 1.0)

    def test_no_records_no_problem(self):
        # empty records give no S and reach the problem's own check
        assert StrataColumns.from_records(()).S is None
        for strata in ((), []):
            with pytest.raises(ValueError, match="^problem needs at least one stratum$"):
                AllocationProblem(strata, 1.0)

    def test_survey_matches_the_records(self):
        # a = N * S and b = N as Stratum.survey forms them, and S is kept
        labels, N, S = ["s0", "s1", "s2"], [3, 7, 1000], [0.1, 2.5, 1e20]
        columns = StrataColumns.survey(labels, N, S)
        records = tuple(map(Stratum.survey, labels, N, S))
        assert columns.lists == (list(map(mul, N, S)), [3.0, 7.0, 1000.0])
        assert columns.S == S
        assert columns.records == records
        assert population_maps_from_rows(columns) == population_maps_from_rows(StrataColumns.from_records(records))

    def test_product_pass_only_for_given_a(self, monkeypatch):
        # survey forms a as b * S, so only the general constructor compares them
        products = []
        check = model._all_valid

        def recorded(a, b, S, product):
            products.append(product)
            return check(a, b, S, product)

        monkeypatch.setattr(model, "_all_valid", recorded)
        StrataColumns.survey(["u", "v"], [2, 3], [0.5, 0.1])
        StrataColumns(["u", "v"], [1.0, 0.30000000000000004], [2.0, 3.0], [0.5, 0.1])
        StrataColumns(["u", "v"], [1.0, 0.3], [2.0, 3.0])
        assert products == [False, True, False]
        with pytest.raises(ValueError, match=r"^stratum 'v': a = 0.3 is not N \* S for S = 0.1$"):
            StrataColumns(["u", "v"], [1.0, 0.3], [2.0, 3.0], [0.5, 0.1])

    @pytest.mark.parametrize("header", ["label,a,b", "label,N,S"])
    def test_reader_columns_equal_the_constructors(self, monkeypatch, header):
        # eleven rows over blocks of four, a blank line among them: the
        # reader's columns are what the constructors build from the same values
        monkeypatch.setattr(formats, "BLOCK_ROWS", 4)
        labels = [f"s{i}" for i in range(11)]
        v1 = [float(i % 5 + 2) for i in range(11)]
        v2 = [0.1 * i + 0.3 for i in range(11)]
        rows = [f"{label},{x!r},{y!r}\n" for label, x, y in zip(labels, v1, v2)]
        rows.insert(5, "\n")
        columns = read(header + "\n" + "".join(rows))
        if header == "label,a,b":
            want = StrataColumns(labels, v1, v2)
        else:
            want = StrataColumns.survey(labels, v1, v2)
        assert type(columns.labels) is tuple and columns.labels == want.labels
        assert [list(map(float.hex, v)) for v in columns.lists] == [list(map(float.hex, v)) for v in want.lists]
        assert (columns.S is None) is (want.S is None)
        assert columns.S is None or list(map(float.hex, columns.S)) == list(map(float.hex, want.S))

    def test_survey_raises_the_record_message(self):
        with pytest.raises(ValueError, match="^stratum 'v': N must be an integer, got 2.5$"):
            StrataColumns.survey(["u", "v"], [2, 2.5], [0.5, 0.5])

    def test_unequal_lengths(self):
        with pytest.raises(ValueError, match="^strata columns must have equal lengths$"):
            StrataColumns(["u", "v"], [1.0, 2.0], [2.0])
        with pytest.raises(ValueError, match="^strata columns must have equal lengths$"):
            StrataColumns(["u"], [1.0], [2.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="^strata columns must have equal lengths$"):
            StrataColumns(["u"], [1.0, 10**400], [2.0])  # an int too large for a float past the labels

    def test_immutable(self):
        columns = StrataColumns(["u", "v"], [1.0, 3.0], [2.0, 4.0])
        p = AllocationProblem(columns, 5.0)
        with pytest.raises(AttributeError):
            p.n = 6.0
        assert columns.S is None

    def test_duplicate_labels(self):
        with pytest.raises(ValueError, match="^stratum labels must be distinct$"):
            StrataColumns(["u", "v", "u"], [10.0, 20.0, 30.0], [10.0, 10.0, 10.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="^stratum labels must be distinct$"):
            StrataColumns.from_records([Stratum("u", 1.0, 2.0), Stratum("u", 3.0, 4.0)])

    def test_records_only_on_request(self):
        # the columns are no sequence: a record is built only by reading records
        columns = StrataColumns(["u"], [1.0], [2.0])
        for op in (len, iter, lambda c: c[0]):
            with pytest.raises(TypeError):
                op(columns)
        assert columns.records == (Stratum("u", 1.0, 2.0),)

    @pytest.mark.parametrize(
        "a,b,S,match",
        [
            ([1.0, -1.0], [2.0, 2.0], None, "stratum 'v': a must be positive"),
            ([1.0, 1e300], [2.0, 1e-300], None, "stratum 'v': a/b overflows"),
            ([1.0, 2.0], [2.0, 2.5], [0.5, 0.8], "stratum 'v': N must be an integer"),
            ([1.0, 2.0], [2.0, 2.0], [0.5, 0.9], r"stratum 'v': a = 2.0 is not N \* S"),
            ([1.0, 0.0], [2.0, 0.0], [0.5, 2.0], r"^stratum 'v': N must be positive and finite, got 0.0$"),
            ([1.0, 0.0], [2.0, 5.0], [0.5, 0.0], r"^stratum 'v': S must be positive and finite, got 0.0$"),
        ],
    )
    def test_constructor_raises_the_record_message(self, a, b, S, match):
        with pytest.raises(ValueError, match=match):
            StrataColumns(["u", "v"], a, b, S)

    @pytest.mark.parametrize(
        "columns,name",
        [
            (([1.0, 10**400], [2.0, 2.0], None), "a"),
            (([1.0, 2.0], iter([2.0, -(10**400)]), None), "b"),
            (([1.0, 2.0], [2, 2], [0.5, 10**400]), "S"),
        ],
    )
    def test_int_too_large_for_a_float(self, columns, name):
        with pytest.raises(ValueError, match=f"^stratum 'v': {name} is too large for a float$"):
            StrataColumns(["u", "v"], *columns)

    @pytest.mark.parametrize("N,S,name", [([2, 10**400], [0.5, 0.5], "N"), ([2, 2], [0.5, 10**400], "S")])
    def test_survey_int_too_large_for_a_float(self, N, S, name):
        with pytest.raises(ValueError, match=f"^stratum 'v': {name} is too large for a float$"):
            StrataColumns.survey(["u", "v"], N, S)


def reference_read(text, name):
    """The row-by-row reader: each data row is checked in turn, and the first
    bad one raises; the message of a value error is the record constructor's."""
    reader = csv.reader(io.StringIO(text))
    header = [h.strip().lower() for h in next(reader)]
    make = Stratum if header == ["label", "a", "b"] else Stratum.survey
    seen = set()
    for lineno, raw in enumerate(reader, start=2):
        if not raw or (len(raw) == 1 and not raw[0].strip()):
            continue
        if len(raw) != 3:
            raise StrataCsvError(f"{name}: line {lineno}: expected 3 fields, got {len(raw)}")
        label = raw[0].strip()
        if not label:
            raise StrataCsvError(f"{name}: line {lineno}: empty label")
        if label in seen:
            raise StrataCsvError(f"{name}: line {lineno}: duplicate label {label!r}")
        seen.add(label)
        try:
            v1, v2 = float(raw[1]), float(raw[2])
        except ValueError:
            raise StrataCsvError(f"{name}: line {lineno}: non-numeric value in {raw[1]!r}, {raw[2]!r}") from None
        try:
            make(label, v1, v2)
        except ValueError as exc:
            raise StrataCsvError(f"{name}: line {lineno}: {exc}") from None
    raise AssertionError("no bad row")


# one bad row of each kind: (the header forms it applies to, the line with
# {label} for a fresh label; None repeats a line already in the file)
BAD_ROWS = {
    "too_few_fields": ("both", "{label},1"),
    "too_many_fields": ("both", "{label},1,2,3"),
    "empty_label": ("both", " ,1,2"),
    "duplicate_label": ("both", None),
    "non_numeric": ("both", "{label},oops,2"),
    "nan": ("both", "{label},nan,2"),
    "zero": ("both", "{label},0,2"),
    "negative": ("both", "{label},3,-2"),
    "ab_overflow": ("ab", "{label},1e300,1e-300"),
    "infinite": ("ab", "{label},inf,1"),
    "survey_overflow": ("ns", "{label},1e300,1e10"),
    "fractional_N": ("ns", "{label},10.5,2"),
}


class TestReadErrorParity:
    def test_mixed_bad_rows_fuzz(self):
        rng = np.random.default_rng(73)
        checked = 0
        for trial in range(400):
            form = ("ab", "ns")[trial % 2]
            kinds = [k for k, (f, _) in BAD_ROWS.items() if f in ("both", form)]
            rows = [f"r{i},{int(rng.integers(2, 50))},{float(rng.uniform(0.1, 9)):.17g}" for i in range(int(rng.integers(3, 10)))]
            for kind in rng.choice(kinds, size=int(rng.integers(2, 5))):
                label = f"x{len(rows)}"
                _, template = BAD_ROWS[kind]
                line = rows[int(rng.integers(len(rows)))] if template is None else template.format(label=label)
                rows.insert(int(rng.integers(len(rows) + 1)), line)
            for _ in range(int(rng.integers(0, 3))):
                rows.insert(int(rng.integers(len(rows) + 1)), rng.choice(["", "  "]))
            text = ("label,a,b\n" if form == "ab" else "label,N,S\n") + "\n".join(rows) + "\n"
            with pytest.raises(StrataCsvError) as want:
                reference_read(text, "f.csv")
            with pytest.raises(StrataCsvError) as got:
                read(text, "f.csv")
            assert str(got.value) == str(want.value), text
            checked += 1
        assert checked == 400

    @pytest.mark.parametrize(
        "text,message",
        [
            ("label,a,b\nu,1,2\nv,oops,3\nu,1,2\n", "line 3: non-numeric value in 'oops', '3'"),
            ("label,a,b\nu,1,2\n\nu,1\nv,0,1\n", "line 4: expected 3 fields, got 2"),
            ("label,N,S\nu,10,2\nv,10.5,2\nw,nan,1\n", "line 3: stratum 'v': N must be an integer, got 10.5"),
            ("label,N,S\nu,10,2\n ,1,1\nu,1,1\n", "line 3: empty label"),
            ("label,a,b\nu,1,2\nv,1e300,1e-300\nu,1,2\n", "line 3: stratum 'v': a/b overflows"),
            ("label,a,b\nu,1,2\nv,1,2\nu,-1,2\nw,x,1\n", "line 4: duplicate label 'u'"),
            # one row, two faults: the check a row-by-row reader meets first names it
            ("label,a,b\nu,1,2\nu,oops,2\n", "line 3: duplicate label 'u'"),
            ("label,N,S\nu,1,2\n ,oops,2\n", "line 3: empty label"),
            ("label,a,b\nu,1,2\n ,1\n", "line 3: expected 3 fields, got 2"),
            # a label is compared after its padding is stripped
            ("label,a,b\nu,1,2\n u ,3,4\n", "line 3: duplicate label 'u'"),
            # a label,N,S file has no a or b column: its errors name N or S
            ("label,N,S\nu,10,2\nx,0,2\n", "line 3: stratum 'x': N must be positive and finite, got 0.0$"),
            ("label,N,S\nu,10,2\nx,5,0\n", "line 3: stratum 'x': S must be positive and finite, got 0.0$"),
            ("label,N,S\nu,10,2\nx,5,-1\n", "line 3: stratum 'x': S must be positive and finite, got -1.0$"),
            ("label,N,S\nu,10,2\nx,5,nan\n", "line 3: stratum 'x': S must be positive and finite, got nan$"),
            ("label,N,S\nu,10,2\nx,1e300,1e300\n", "line 3: stratum 'x': N * S overflows$"),
        ],
    )
    def test_pinned_first_errors(self, text, message):
        with pytest.raises(StrataCsvError, match="^f.csv: " + message.replace("*", r"\*")):
            read(text, "f.csv")

    @pytest.mark.parametrize(
        "header,last,message",
        [
            ("label,N,S", "x,10.5,2", "stratum 'x': N must be an integer, got 10.5"),
            ("label,N,S", "r7,10,2", "duplicate label 'r7'"),
            ("label,a,b", "x,oops,2", "non-numeric value in 'oops', '2'"),
            ("label,a,b", "x,1e300,1e-300", "stratum 'x': a/b overflows"),
        ],
        ids=["fractional_N", "duplicate_label", "non_numeric", "ab_overflow"],
    )
    def test_last_of_ten_thousand_rows(self, header, last, message):
        # K = 10,000 rows, a blank line after every 1,000th: after the header,
        # 9,999 good rows and 9 blank lines, the bad row is line 10,010
        lines = [header]
        for i in range(9_999):
            lines.append(f"r{i},{i % 50 + 2},{i % 7 + 0.5}")
            if i % 1_000 == 999:
                lines.append("")
        lines.append(last)
        assert len(lines) == 10_010 and lines.count("") == 9
        text = "\n".join(lines) + "\n"
        with pytest.raises(StrataCsvError) as want:
            reference_read(text, "f.csv")
        assert str(want.value) == f"f.csv: line 10010: {message}"
        with pytest.raises(StrataCsvError) as got:
            read(text, "f.csv")
        assert str(got.value) == str(want.value)


def numpy_first_invalid(a, b, S=None):
    """The column checks as they were written over float64 arrays, kept as
    the oracle of the list form (divide is ignored too, for b = 0)."""
    a, b = np.array(a, dtype=np.float64), np.array(b, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ok = (a > 0) & (a < math.inf) & (b > 0) & (b < math.inf) & (a / b < math.inf)
        if S is not None:
            S = np.array(S, dtype=np.float64)
            ok &= (b == np.floor(b)) & (a == b * S)
    return len(a) if ok.all() else int(ok.argmin())


# values that sit on an edge of some check, and ordinary ones
EDGE_VALUES = (
    math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 2.2e-308, 1e-300,
    1e-160, 1e160, 1e200, 1e300, 1.7976931348623157e308, 2.5, 0.1 + 0.2,
)
PLAIN_VALUES = (1.0, 2.0, 3.0, 10.0, 1000.0, 0.5, 7.25)


class TestFirstInvalidParity:
    """The constructor of StrataColumns accepts exactly the columns the
    oracle accepts, and otherwise names the oracle's first bad stratum."""

    def check(self, a, b, S=None):
        labels = [f"s{i}" for i in range(len(a))]
        bad = numpy_first_invalid(a, b, S)
        if bad == len(a):
            StrataColumns(labels, a, b, S)
        else:
            with pytest.raises(ValueError, match=f"^stratum 's{bad}': "):
                StrataColumns(labels, a, b, S)

    @pytest.mark.parametrize(
        "a,b",
        [
            ([1.0, -0.0], [1.0, 1.0]),  # -0.0 is not positive
            ([1.0, 1.0], [1.0, -0.0]),
            ([5e-324, 1.0], [1.0, 1.0]),  # subnormal a is valid
            ([1.0, 1.0], [1.0, 5e-324]),  # subnormal b: a/b overflows
            ([5e-324, 5e-324], [1e300, 1.0]),  # a/b underflows to 0: valid
            ([1.0, 1e300], [1.0, 1e-300]),  # a/b overflows
            ([1.0, math.nan], [1.0, 1.0]),
            ([1.0, 1.0], [math.inf, 1.0]),
            ([], []),
        ],
    )
    def test_pinned_plain(self, a, b):
        self.check(a, b)

    @pytest.mark.parametrize(
        "b,S",
        [
            ([10.0, 10.0], [1.0, math.nan]),  # nan in S
            ([10.0, 10.0], [1.0, math.inf]),  # inf in S
            ([10.0, 1e200], [1.0, 1e200]),  # N * S overflows
            ([10.0, 10.0], [1.0, -0.0]),
            ([10.0, 10.0], [1.0, 5e-324]),  # N * S is subnormal
            ([10.0, 3.0], [1.0, 5e-324]),  # N * S rounds to a subnormal
            ([10.0, 10.5], [1.0, 1.0]),  # fractional N
            ([1e300, 10.0], [1.0, 1e-300]),
        ],
    )
    def test_pinned_survey(self, b, S):
        self.check(list(map(mul, b, S)), b, S)

    def test_survey_a_not_n_times_s(self):
        self.check([10.0, 20.000000000000004], [10.0, 10.0], [1.0, 2.0])

    def test_seeded_fuzz(self):
        rng = np.random.default_rng(74)

        def draw(K):
            # each value an edge value with probability 0.2, else an ordinary one
            pools = [EDGE_VALUES if rng.random() < 0.2 else PLAIN_VALUES for _ in range(K)]
            return [pool[int(rng.integers(len(pool)))] for pool in pools]

        for trial in range(3000):
            K = int(rng.integers(1, 7))
            a, b, S = draw(K), draw(K), draw(K)
            if trial % 2:
                self.check(a, b)
            else:
                self.check(list(map(mul, b, S)), b, S)
