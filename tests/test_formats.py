import csv
import gc
import hashlib
import io
import json
import math
import sys
import tracemalloc
from itertools import chain, compress
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np
import pytest

from stratalloc import AllocationResult, StrataColumns, Stratum, SurveyStratum, coma, formats, rna, sga, table1_problem
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


def chunk_boundary_file(end, shift):
    """A survey CSV whose lines end in ``end``, one of them at byte 8192 +
    shift (a text file decodes 8192 bytes at a time), followed by a row
    with an undecodable byte; and that row's line number."""
    head = b"label,N,S" + end
    rows, pad = divmod(8192 + shift - len(head), len(b"r00000,10,2" + end))
    body = b"x" * pad + b"".join(b"r%05d,10,2%s" % (i, end) for i in range(rows))
    return head + body + b"bad,\xff,2" + end, rows + 2


class Unseekable(io.BytesIO):
    def seekable(self):
        return False


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

    @pytest.mark.parametrize(
        "data,line",
        [
            (b"label,N,\xffS\nu,10,2\n", 1),
            (b"label,N,S\nu,10,2\nv,1\xff,2\nw,3,4\n", 3),
            # past the first chunk the file decodes: the line still counts from the reader's
            (b"label,N,S\n" + b"".join(b"r%d,10,2\n" % i for i in range(3000)) + b"x,\xff,2\n", 3002),
            # line ends as the csv module counts them: \r\n, a lone \r, or \n
            (b"label,N,S\r" + b"".join(b"r%d,10,2\r" % i for i in range(5)) + b"bad\xff,1,2\r", 7),
            (b"label,N,S\r\n" + b"".join(b"r%d,10,2\r\n" % i for i in range(5)) + b"bad\xff,1,2\r\n", 7),
            (b"label,N,S\n" + b"".join(b"r%d,10,2\n" % i for i in range(5)) + b"bad\xff,1,2\n", 7),
            (b"label,N,S\r" + b"".join(b"r%d,10,2\r" % i for i in range(3000)) + b"x,\xff,2\r", 3002),
            (b"label,N,S\r\n" + b"".join(b"r%d,10,2\r\n" % i for i in range(3000)) + b"x,\xff,2\r\n", 3002),
            (b"label,N,S\r\nu,10,2\rv,3,4\nw,\xff,2\r\n", 4),
            # a line end at the end of the first 8 KiB decode chunk, moved by -3 to +3 bytes:
            # a lone \r there is held back by the newline decoder, out of the reader's count
            *(chunk_boundary_file(end, shift) for end in (b"\r", b"\r\n", b"\n") for shift in range(-3, 4)),
        ],
        ids=["header", "data_row", "later_chunk", "cr", "crlf", "lf", "later_chunk_cr", "later_chunk_crlf", "mixed",
             *(f"boundary_{name}{shift:+d}" for name in ("cr", "crlf", "lf") for shift in range(-3, 4))],
    )
    def test_undecodable_byte_names_file_and_line(self, tmp_path, data, line):
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        message = f"^bad.csv: line {line}: byte 0xff is not valid utf-8 \\(invalid start byte\\)$"
        with open(path, encoding="utf-8", newline="") as fp, pytest.raises(StrataCsvError, match=message):
            read_strata_csv(fp, name="bad.csv")

    @pytest.mark.parametrize("end", [b"\r", b"\r\n", b"\n"], ids=["cr", "crlf", "lf"])
    def test_undecodable_byte_in_a_stream_that_cannot_seek(self, end):
        # counted from the reader's lines and the failing chunk's bytes
        data = b"label,N,S" + end + b"".join(b"r%d,10,2%s" % (i, end) for i in range(3000)) + b"x,\xff,2" + end
        fp = io.TextIOWrapper(Unseekable(data), encoding="utf-8", newline="")
        with pytest.raises(StrataCsvError, match="^bad.csv: line 3002: byte 0xff is not valid utf-8"):
            read_strata_csv(fp, name="bad.csv")

    @pytest.mark.parametrize("skip", ["readline", "next"])
    @pytest.mark.parametrize("encoding", ["utf-8", "iso2022_jp"])
    @pytest.mark.parametrize(
        "row, reason", [(b"x,\xff,2", "byte 0xff is not valid"), (b"x,nope,2", "non-numeric")], ids=["byte", "value"]
    )
    def test_line_counts_from_where_the_reader_begins(self, tmp_path, skip, encoding, row, reason):
        # a file handed over past a preamble line: both errors on one row
        # name the same line, counted from the header the reader starts at.
        # The reader's own count is used where the file cannot tell its byte
        # offset: after next(), or with iso2022_jp's decoder state in tell()
        path = tmp_path / "bad.csv"
        path.write_bytes(b"# preamble\nlabel,N,S\n" + b"".join(b"r%d,10,2\n" % i for i in range(2000)) + row + b"\n")
        with open(path, encoding=encoding, newline="") as fp:
            fp.readline() if skip == "readline" else next(fp)
            with pytest.raises(StrataCsvError, match=f"^bad.csv: line 2002: {reason}"):
                read_strata_csv(fp, name="bad.csv")


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

    @pytest.mark.parametrize(
        "fields,x,take_all",
        [
            ({"take_all": ["v", "v"]}, {"u": 0.5, "v": 1.5}, {"v"}),
            ({"allocation": [{"label": "u", "x": 0.5, "note": 1}, {"label": "v", "x": 1.5}]}, {"u": 0.5, "v": 1.5}, {"v"}),
            ({"allocation": [], "take_all": []}, {}, set()),
        ],
        ids=["take_all_repeats_a_label", "entry_with_extra_key", "empty_allocation"],
    )
    def test_accepted_edge_cases(self, fields, x, take_all):
        back = read_allocation_json(io.StringIO(self.scalar_doc(**fields)))
        assert back.x == x and back.take_all == frozenset(take_all)

    @pytest.mark.parametrize(
        "label,message",
        [
            (["u"], "missing or malformed field: unhashable type"),
            ({"u": 1}, "missing or malformed field: unhashable type"),
            ("u", "duplicate labels in allocation"),
        ],
        ids=["list_label", "object_label", "repeated_label"],
    )
    def test_rejected_labels(self, label, message):
        entries = [{"label": "u", "x": 0.5}, {"label": label, "x": 1.5}]
        text = self.scalar_doc(allocation=entries, take_all=[])
        with pytest.raises(ValueError, match="^alloc.json: " + message):
            read_allocation_json(io.StringIO(text), name="alloc.json")

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

    def test_take_all_label_not_in_x_not_written(self):
        # the reader would reject such a document
        res = AllocationResult(
            x={"u": 0.5, "v": 1.5}, take_all=frozenset({"v", "w"}), s_final=0.5,
            iterations=2, trace=(), algorithm="rna",
        )
        buf = io.StringIO()
        with pytest.raises(ValueError, match="^cannot write the allocation as JSON: take_all holds a label that x does not$"):
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


# The reader and the writer as they were before they worked a block at a
# time: the whole file read into rows, and the whole document composed in
# one string. Kept as the references of the block forms.


def whole_file_read_strata_csv(fp, name="strata csv"):
    reader = csv.reader(fp)
    try:
        header = next(reader)
    except StopIteration:
        raise StrataCsvError(f"{name}: line 1: empty file") from None
    if header:
        header[0] = header[0].removeprefix("\ufeff")
    cols = [h.strip().lower() for h in header]
    if cols == ["label", "a", "b"]:
        make = Stratum
    elif cols == ["label", "n", "s"]:
        make = Stratum.survey
    else:
        raise StrataCsvError(
            f"{name}: line 1: header must be 'label,a,b' or 'label,N,S', got {','.join(header)!r}"
        )
    rows = list(reader)
    lines = range(2, len(rows) + 2)
    if min(map(len, rows), default=2) < 2:
        lines = [ln for ln, raw in zip(lines, rows) if len(raw) > 1 or (raw and raw[0].strip())]
        rows = [rows[ln - 2] for ln in lines]
    if not rows:
        raise StrataCsvError(f"{name}: line 2: no data rows")
    if list(map(len, rows)).count(3) == len(rows):
        labels = list(map(str.strip, map(itemgetter(0), rows)))
        if "" not in labels:
            try:
                v1 = list(map(float, map(itemgetter(1), rows)))
                v2 = list(map(float, map(itemgetter(2), rows)))
                if make is Stratum:
                    return StrataColumns(labels, v1, v2)
                return StrataColumns.survey(labels, v1, v2)
            except ValueError:
                pass
    seen = set()
    for line, raw in zip(lines, rows):
        reason = whole_file_row_error(raw, seen, make)
        if reason is not None:
            raise StrataCsvError(f"{name}: line {line}: {reason}")
        seen.add(raw[0].strip())
    raise AssertionError("a column check fails that every row passes")


def whole_file_row_error(raw, seen, make):
    if len(raw) != 3:
        return f"expected 3 fields, got {len(raw)}"
    label = raw[0].strip()
    if not label:
        return "empty label"
    if label in seen:
        return f"duplicate label {label!r}"
    try:
        v1 = float(raw[1])
        v2 = float(raw[2])
    except ValueError:
        return f"non-numeric value in {raw[1]!r}, {raw[2]!r}"
    try:
        make(label, v1, v2)
    except ValueError as exc:
        return str(exc)
    return None


def whole_document_write_allocation_json(result, n, fp):
    labels = list(result.x)
    xs = list(result.x.values())
    if not all(map(math.isfinite, xs)):
        bad = next(i for i, x in enumerate(xs) if not math.isfinite(x))
        raise ValueError(
            f"cannot write the allocation as JSON: stratum {labels[bad]!r} has x = {xs[bad]!r}"
            f" at s = {result.s_final!r}"
        )
    if not (math.isfinite(n) and math.isfinite(result.s_final)):
        raise ValueError(f"cannot write the allocation as JSON: n = {n!r}, s = {result.s_final!r}")
    try:
        names = list(map(encode_basestring_ascii, labels))
    except TypeError:
        names = list(map(json.dumps, labels))
    take_all = tuple(compress(names, map(result.take_all.__contains__, labels)))
    entries = tuple(chain.from_iterable(zip(names, xs)))

    def block(item, count, values):
        return "[]" if not count else "[\n    " + ",\n    ".join([item] * count) % values + "\n  ]"

    fp.write(
        "{\n"
        f'  "algorithm": {json.dumps(result.algorithm)},\n'
        f'  "n": {format(float(n), ".17g")},\n'
        f'  "s_final": {format(result.s_final, ".17g")},\n'
        f'  "iterations": {int(result.iterations)},\n'
        f'  "take_all": {block("%s", len(take_all), take_all)},\n'
        f'  "allocation": {block(ENTRY, len(names), entries)}\n'
        "}\n"
    )


ENTRY = '{\n      "label": %s,\n      "x": %.17g\n    }'


def outcome(read, text):
    """The columns read, floats as bits, or the type and message raised."""
    try:
        columns = read(io.StringIO(text), name="f.csv")
    except Exception as exc:  # noqa: BLE001 - the type is part of the outcome
        return type(exc), str(exc)
    a, b = columns.lists
    return (
        columns.labels,
        [v.hex() for v in a],
        [v.hex() for v in b],
        None if columns.S is None else [v.hex() for v in columns.S],
    )


# one fault of each kind: (the header forms it applies to, the row with
# {label} for a fresh label; None repeats a label of an earlier block)
FAULTS = {
    "too_few_fields": ("both", "{label},1"),
    "too_many_fields": ("both", "{label},1,2,3"),
    "empty_label": ("both", " ,1,2"),
    "duplicate_label": ("both", None),
    "non_numeric": ("both", "{label},oops,2"),
    "non_integer_N": ("ns", "{label},10.5,2"),
    "zero": ("both", "{label},0,2"),
    "negative": ("both", "{label},3,-2"),
    "nan": ("both", "{label},nan,2"),
    "ab_overflow": ("ab", "{label},1e300,1e-300"),
}


def fault_file(rng, block, form, faults):
    """A strata file of whole blocks and a few more rows, blank lines among
    them, with each fault placed one row before, on or one row after the
    start of a block (raw rows, blank lines counted, as the reader slices
    them). A duplicate repeats the label of a row at least one block
    earlier when there is one."""
    header = ("label,a,b", "label,N,S")[form == "ns"]
    header = "".join(c.upper() if rng.random() < 0.3 else c for c in header)
    if rng.random() < 0.2:
        header = "\ufeff" + header
    rows = [f"r{i},{int(rng.integers(2, 50))},{float(rng.uniform(0.1, 9)):.17g}" for i in range(int(rng.integers(1, 4 * block + 3)))]
    for _ in range(int(rng.integers(0, 4))):
        rows.insert(int(rng.integers(len(rows) + 1)), str(rng.choice(["", "  "])))
    for kind in faults:
        where = min(len(rows), max(0, block * int(rng.integers(0, len(rows) // block + 1)) + int(rng.integers(-1, 2))))
        _, template = FAULTS[kind]
        if template is None:
            earlier = [r for r in rows[: max(0, where - block)] if r.strip()] or [r for r in rows[:where] if r.strip()]
            if not earlier:
                continue
            line = str(rng.choice(earlier))
        else:
            line = template.format(label=f"x{len(rows)}")
        rows.insert(where, line)
    return header + "\n" + "\n".join(rows) + "\n"


class TestBlockedRead:
    """The block reader gives what the whole-file reader gave: the same
    columns, bit for bit, or the same error type and message."""

    def test_fuzz_around_block_boundaries(self, monkeypatch):
        rng = np.random.default_rng(181)
        kinds = {form: [k for k, (f, _) in FAULTS.items() if f in ("both", form)] for form in ("ab", "ns")}
        failed = 0
        for trial in range(2400):
            block = int(rng.choice([1, 2, 3, 5, 8]))
            monkeypatch.setattr(formats, "BLOCK_ROWS", block)
            form = ("ab", "ns")[trial % 2]
            faults = [] if trial % 6 == 0 else list(rng.choice(kinds[form], size=int(rng.integers(1, 3))))
            text = fault_file(rng, block, form, faults)
            want = outcome(whole_file_read_strata_csv, text)
            assert outcome(read_strata_csv, text) == want, (block, text)
            failed += isinstance(want[0], type)
        assert 1500 < failed < 2400  # most files hold a fault; the others read
        # blocks of three whose only fault repeats a label of an earlier
        # block, or has such a label before or after a bad value
        monkeypatch.setattr(formats, "BLOCK_ROWS", 3)
        good = ["r0,2,1.5", "r1,3,2.5", "r2,4,0.5", "r3,5,1.5"]
        zero = "stratum 'r5': {} must be positive and finite, got 0.0"  # a, or N in a label,N,S file
        for rows, line, reason in [
            ([*good, "r1,6,1", "r5,7,1"], 6, "duplicate label 'r1'"),
            ([*good, "r5,7,1", "r0,6,1"], 7, "duplicate label 'r0'"),
            ([*good, "r1,6,1", "r5,0,1"], 6, "duplicate label 'r1'"),
            ([*good, "r5,0,1", "r1,6,1"], 6, zero),
            ([*good, "r4,6,1", "r2,7,1", "r5,oops,1"], 7, "duplicate label 'r2'"),
        ]:
            for header, first in (("label,a,b", "a"), ("label,N,S", "N")):
                text = header + "\n" + "\n".join(rows) + "\n"
                want = (StrataCsvError, f"f.csv: line {line}: {reason.format(first)}")
                assert outcome(whole_file_read_strata_csv, text) == want, text
                assert outcome(read_strata_csv, text) == want, text

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("kind", ["duplicate_label", "non_integer_N", "empty_label", "too_many_fields"])
    def test_faults_at_a_real_block_boundary(self, kind, offset):
        rows = [f"r{i},{i % 50 + 2},{i % 7 + 0.5}" for i in range(2 * formats.BLOCK_ROWS + 5)]
        _, template = FAULTS[kind]
        line = "r3,10,2" if template is None else template.format(label="x")
        rows.insert(formats.BLOCK_ROWS + offset, line)
        text = "label,N,S\n" + "\n".join(rows) + "\n"
        want = outcome(whole_file_read_strata_csv, text)
        assert want[1].startswith(f"f.csv: line {formats.BLOCK_ROWS + offset + 2}: ")
        assert outcome(read_strata_csv, text) == want

    def test_columns_across_blocks(self, monkeypatch):
        monkeypatch.setattr(formats, "BLOCK_ROWS", 4)
        text = "label,N,S\n" + "".join(f"s{i},{i + 2},{0.1 * i + 0.3!r}\n" for i in range(11))
        columns = parse(text)
        assert columns.labels == tuple(f"s{i}" for i in range(11))
        assert columns.S == [0.1 * i + 0.3 for i in range(11)]
        assert outcome(read_strata_csv, text) == outcome(whole_file_read_strata_csv, text)

    def test_blank_blocks_skipped(self, monkeypatch):
        monkeypatch.setattr(formats, "BLOCK_ROWS", 2)
        assert parse("label,a,b\n\n\n\n \nu,1,2\n\n\n").labels == ("u",)
        with pytest.raises(StrataCsvError, match="^test.csv: line 2: no data rows$"):
            parse("label,a,b\n\n\n\n \n")

    @pytest.mark.parametrize(
        "last,message",
        [
            ("x,10.5,2", "stratum 'x': N must be an integer, got 10.5"),
            ("r0,10,2", "duplicate label 'r0'"),
            ("r99998,10,2", "duplicate label 'r99998'"),
            ("x,oops,2", "non-numeric value in 'oops', '2'"),
            ("x,0,2", "stratum 'x': N must be positive and finite, got 0.0"),
        ],
        ids=["fractional_N", "duplicate_first_row", "duplicate_previous_row", "non_numeric", "zero_N"],
    )
    def test_last_row_builds_one_block_of_records(self, built_records, last, message):
        # the row-by-row read covers the bad row's block only
        text = "label,N,S\n" + "".join(f"r{i},{i % 50 + 2},{i % 7 + 0.5}\n" for i in range(99_999)) + last + "\n"
        with pytest.raises(StrataCsvError, match=f"^f.csv: line 100001: {message}$"):
            read_strata_csv(io.StringIO(text), name="f.csv")
        assert len(built_records) <= formats.BLOCK_ROWS


def traced_peak(fn, *args):
    """(memory held after fn, the peak above the start) in bytes, traced."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        value = fn(*args)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, current - start, peak - start


class HashSink:
    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text):
        self.digest.update(text.encode())


def survey_result(K):
    x = {f"s{i}": 1.0 + i * 0.37 for i in range(K)}
    return AllocationResult(
        x=x, take_all=frozenset(list(x)[::7]), s_final=0.123456789, iterations=3, trace=(), algorithm="rna",
    )


class TestBoundedMemory:
    @staticmethod
    def survey_file(path, K):
        # the form of perfbench's survey files: short labels, integer N, 17-digit S
        with path.open("w", encoding="utf-8", newline="") as fp:
            write_ns_csv(((f"s{i}", i % 1997 + 2, 0.1 + (i % 997) * 0.0123456789) for i in range(K)), fp)

    @pytest.mark.parametrize("K", [20_000, 100_000])
    def test_read_holds_the_columns_the_labels_and_one_block(self, tmp_path, K):
        # beyond its columns, the read holds the set of labels seen, which
        # grows 4 or 2 times over when it fills (both tables are alive while
        # it grows), and one block of rows
        path = tmp_path / "survey.csv"
        self.survey_file(path, K)
        with path.open(encoding="utf-8", newline="") as fp:
            columns, kept, peak = traced_peak(read_strata_csv, fp)
        seen = set()
        for block in range(0, K, formats.BLOCK_ROWS):
            seen.update(columns.labels[block : block + formats.BLOCK_ROWS])
        assert peak - kept <= 1.5 * sys.getsizeof(seen) + 1_000_000, (kept, peak, sys.getsizeof(seen))
        if K == 100_000:
            assert peak <= 1.5 * kept, (kept, peak)

    def test_write_peak_does_not_grow_with_k(self):
        peaks = {}
        for K in (10_000, 100_000):
            result = survey_result(K)
            sink = HashSink()
            _, _, peaks[K] = traced_peak(write_allocation_json, result, 1e6, sink)
            want = HashSink()
            whole_document_write_allocation_json(result, 1e6, want)
            assert sink.digest.hexdigest() == want.digest.hexdigest()
        assert peaks[100_000] < 3_000_000, peaks
        assert peaks[100_000] < 1.5 * peaks[10_000], peaks


class TestBlockedWrite:
    """The block writer writes the bytes of the whole-document writer."""

    @staticmethod
    def both(result, n):
        got, want = io.StringIO(), io.StringIO()
        write_allocation_json(result, n, got)
        whole_document_write_allocation_json(result, n, want)
        return got.getvalue(), want.getvalue()

    @pytest.mark.parametrize("block", [1, 3, 7, formats.BLOCK_ROWS])
    @pytest.mark.parametrize("solver", [rna, sga, coma])
    def test_solvers(self, monkeypatch, block, solver):
        monkeypatch.setattr(formats, "BLOCK_ROWS", block)
        rows = parse("label,N,S\n" + "".join(f"s{i},{i % 40 + 2},{1.5 ** (i % 23)}\n" for i in range(60)))
        for share in (0.1, 0.5, 0.95):
            p = problem_from_rows(rows, float(round(share * sum(rows.lists[1]))))
            got, want = self.both(solver(p), p.n)
            assert got == want

    @pytest.mark.parametrize("block", [1, 3, formats.BLOCK_ROWS])
    def test_int_and_mixed_labels(self, monkeypatch, block):
        monkeypatch.setattr(formats, "BLOCK_ROWS", block)
        p = table1_problem()  # labels 1 to 20
        got, want = self.both(rna(p), p.n)
        assert got == want and '"label": 20,' in got
        mixed = AllocationResult(
            x={"u": 1.0, 2: 2.5, "vé": 3.0, (4, 5): 1.0}, take_all=frozenset({2, "vé"}),
            s_final=0.5, iterations=1, trace=(), algorithm="sga",
        )
        got, want = self.both(mixed, 7.5)
        assert got == want and '"v\\u00e9"' in got

    def test_label_json_cannot_encode_writes_nothing(self, monkeypatch):
        monkeypatch.setattr(formats, "BLOCK_ROWS", 2)
        x = {f"s{i}": 1.0 for i in range(5)}
        x[object()] = 1.0
        result = AllocationResult(x=x, take_all=frozenset(), s_final=0.5, iterations=1, trace=(), algorithm="rna")
        for write in (write_allocation_json, whole_document_write_allocation_json):
            buf = io.StringIO()
            with pytest.raises(TypeError, match="is not JSON serializable"):
                write(result, 6.0, buf)
            assert buf.getvalue() == ""

    @pytest.mark.parametrize("block", [1, 4, formats.BLOCK_ROWS])
    def test_empty_take_all(self, monkeypatch, block):
        monkeypatch.setattr(formats, "BLOCK_ROWS", block)
        result = AllocationResult(
            x={f"s{i}": 0.5 for i in range(9)}, take_all=frozenset(), s_final=0.25, iterations=1, trace=(),
            algorithm="rna",
        )
        got, want = self.both(result, 4.5)
        assert got == want and '"take_all": [],' in got

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_nonfinite_x_in_a_later_block_writes_nothing(self, monkeypatch, value):
        monkeypatch.setattr(formats, "BLOCK_ROWS", 4)
        x = {f"s{i}": 1.0 for i in range(20)}
        x["s13"] = value
        result = AllocationResult(x=x, take_all=frozenset(), s_final=0.5, iterations=1, trace=(), algorithm="rna")
        buf = io.StringIO()
        with pytest.raises(ValueError, match=f"^cannot write the allocation as JSON: stratum 's13' has x = {value!r} at s = 0.5$"):
            write_allocation_json(result, 20.0, buf)
        assert buf.getvalue() == ""
