"""File formats: strata CSV (two header forms) and allocation JSON."""

from __future__ import annotations

import csv
import gc
import math
from collections.abc import Collection, Hashable
from itertools import chain, compress, islice, repeat
from operator import itemgetter, mul, truediv
from typing import IO, Iterable, Iterator, Sequence

from .model import AllocationProblem, AllocationResult, StrataColumns, Stratum, _all_valid

__all__ = [
    "StrataCsvError",
    "read_strata_csv",
    "problem_from_rows",
    "population_maps_from_rows",
    "write_ab_csv",
    "write_ns_csv",
    "write_allocation_json",
    "read_allocation_json",
]


class StrataCsvError(ValueError):
    """Malformed strata CSV; the message names the offending line."""


# rows read and checked at a time, and entries formatted at a time: a
# block of rows or of text is what a read or a write holds beyond its data
BLOCK_ROWS = 2048


def _blocks(items: Iterable) -> Iterator[list]:
    """The items in lists of BLOCK_ROWS, the last one shorter."""
    items = iter(items)
    while block := list(islice(items, BLOCK_ROWS)):
        yield block


def read_strata_csv(fp: IO[str], name: str = "strata csv") -> StrataColumns:
    """Parse a strata CSV in either accepted header form into columns.

    ``label,a,b`` gives the weights and bounds directly; ``label,N,S`` is the
    survey form (a = N * S, b = N) and keeps its S column. The result is a
    :class:`StrataColumns`, whose records are built only if its ``records``
    are read. Header matching is case-insensitive, and one leading U+FEFF
    (a UTF-8 byte-order mark) is ignored.

    The rows are read and checked ``BLOCK_ROWS`` at a time, and each
    checked block is appended to one set of columns, so the read holds
    the columns, the set of labels seen and one block of rows, not every
    row of the file. A block is checked a whole column at a time: field
    counts, non-empty labels, numbers, the values as :class:`StrataColumns`
    checks them, then distinct labels, by one update of the set seen.
    When any of these fails, the block's rows are read again one by one,
    and the first bad row raises :class:`StrataCsvError` naming its line
    and the first check it fails, in the order field count, empty label,
    a label seen before, numbers, and for a value the record constructors
    (:class:`Stratum`, :meth:`Stratum.survey`) reject, that constructor's
    message. A line the csv module cannot read (a field longer than
    ``csv.field_size_limit()``) raises :class:`StrataCsvError` naming it as
    soon as it is read, and so does a line the file cannot decode (a byte
    that is not UTF-8 in a file opened as UTF-8), with that byte. Lines
    count from the header, where the read begins, also in a file handed
    over past a preamble.

    The process-wide cyclic garbage collector is paused while the file is
    read, and then set back to the state it had when the read began. A
    caller in another thread that switches the collector during the read
    has that switch undone.
    """
    start = _tell(fp)
    reader = csv.reader(fp)
    seen: set[str] = set()
    # K rows are K small lists; cyclic collections while they are built
    # only scan them again (about 30% of the read at K = 1e6), so the
    # collector is paused
    collecting = gc.isenabled()
    gc.disable()
    try:
        header = next(reader, None)
        if header is None:
            raise StrataCsvError(f"{name}: line 1: empty file")
        if header:  # spreadsheet "CSV UTF-8" exports start with a byte-order mark
            header[0] = header[0].removeprefix("\ufeff")
        cols = [h.strip().lower() for h in header]
        if cols not in (["label", "a", "b"], ["label", "n", "s"]):
            raise StrataCsvError(
                f"{name}: line 1: header must be 'label,a,b' or 'label,N,S', got {','.join(header)!r}"
            )
        survey = cols[1] == "n"
        make = Stratum.survey if survey else Stratum
        # labels and the two value columns: each checked block is appended
        columns: list[list] = [[], [], []]
        line = 2
        while rows := list(islice(reader, BLOCK_ROWS)):
            lines: Sequence[int] = range(line, line + len(rows))
            line += len(rows)
            if min(map(len, rows)) < 2:
                # blank lines are ignored; the others keep their line numbers
                kept = [i for i, raw in enumerate(rows) if len(raw) > 1 or (raw and raw[0].strip())]
                lines, rows = [lines[i] for i in kept], [rows[i] for i in kept]
                if not rows:
                    continue
            block = _checked_block(rows, survey)
            if block is not None:
                seen.update(block[0])
                if len(seen) != len(columns[0]) + len(block[0]):  # a label repeats
                    seen = set(columns[0])
                    block = None
            if block is None:
                # some check failed: the row-by-row read finds and names the first bad row
                for ln, raw in zip(lines, rows):
                    reason = _row_error(raw, seen, make)
                    if reason is not None:
                        raise StrataCsvError(f"{name}: line {ln}: {reason}")
                    seen.add(raw[0].strip())
                raise AssertionError("a block check fails that every row passes")
            for column, part in zip(columns, block):
                column += part
            del rows, block  # freed before the next block is read
    except csv.Error as exc:  # a field longer than csv.field_size_limit(), say
        raise StrataCsvError(f"{name}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise _decode_error(fp, start, name, reader.line_num, exc) from None
    finally:
        if collecting:
            gc.enable()
    if not columns[0]:
        raise StrataCsvError(f"{name}: line 2: no data rows")
    del seen
    labels, v1, v2 = columns
    return StrataColumns._given(tuple(labels), *_values(v1, v2, survey))


def _values(v1: list[float], v2: list[float], survey: bool) -> tuple[list[float], list[float], list[float] | None]:
    """a, b and S from the two value columns: (a, b), or (N, S) giving a = N * S and b = N."""
    return (list(map(mul, v1, v2)), v1, v2) if survey else (v1, v2, None)


def _tell(fp: IO[str]) -> int | None:
    """The byte offset where a read of fp begins, or None where fp cannot tell it."""
    try:
        at = fp.tell()
    except (AttributeError, OSError):  # not seekable, or disabled by next()
        return None
    # TextIOWrapper.tell() returns an opaque cookie. CPython packs it as the
    # byte offset plus the decoder's state in the bits from 64 up
    # (_pyio.TextIOWrapper._pack_cookie), so a cookie below 2**64 is the
    # byte offset; this rests on that layout, which the io docs leave open
    return at if at < 2**64 else None


def _decode_error(
    fp: IO[str], start: int | None, name: str, lines_read: int, exc: UnicodeDecodeError
) -> StrataCsvError:
    # the bad byte's line is one past the line ends before it, counted as
    # the csv module counts them (\r\n, a lone \r, or \n) from start, the
    # offset where the reader began
    buffer = getattr(fp, "buffer", None)
    if start is not None and buffer is not None and buffer.seekable():
        # the decoder was given exc.object, which ends where the file has been read to
        at = buffer.tell()
        buffer.seek(start)
        before = buffer.read(at - len(exc.object) + exc.start - start)
        buffer.seek(at)
        line = 1
    else:
        # the file decodes a chunk ahead of the reader, which has read whole
        # lines up to lines_read: the bad byte lies that many line ends into
        # the chunk past them, unless a lone \r that ended the chunk before
        # was held back, which this count misses
        before = exc.object[: exc.start]
        line = lines_read + 1
    line += before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
    byte = exc.object[exc.start]
    return StrataCsvError(f"{name}: line {line}: byte 0x{byte:02x} is not valid {exc.encoding} ({exc.reason})")


def _checked_block(rows: list[list[str]], survey: bool) -> list[list] | None:
    """The labels and the two value columns of one block of rows, checked
    as :class:`StrataColumns` checks them apart from distinct labels; None
    when a check fails."""
    if list(map(len, rows)).count(3) != len(rows):
        return None
    labels = list(map(str.strip, map(itemgetter(0), rows)))
    if "" in labels:
        return None
    try:
        v1 = list(map(float, map(itemgetter(1), rows)))
        v2 = list(map(float, map(itemgetter(2), rows)))
    except ValueError:
        return None
    # survey a is formed as b * S, so the a == b * S pass is skipped
    if not _all_valid(*_values(v1, v2, survey), False):
        return None
    return [labels, v1, v2]


def _row_error(raw: list[str], seen: set[str], make) -> str | None:
    """Why one data row is rejected, checked in the order a reader meets it:
    field count, label, numbers, then the record constructor; None when the
    row is good."""
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


def problem_from_rows(rows: StrataColumns | Iterable[Stratum], n: float) -> AllocationProblem:
    """The problem over rows: columns from :func:`read_strata_csv` are used
    as they are, without building a record."""
    return AllocationProblem(strata=rows, n=n)


def population_maps_from_rows(rows: StrataColumns) -> tuple[dict, dict]:
    """(N, S) maps for variance work, read from the columns without building
    a record. A ``label,N,S`` file gives its own; a ``label,a,b`` file must
    have integer b, which gives N = b and S = a / b."""
    labels = rows.labels
    a, b = rows.lists
    S = rows.S
    if S is None:
        if not all(map(float.is_integer, b)):
            bad = next(i for i, bv in enumerate(b) if not bv.is_integer())
            raise StrataCsvError(f"stratum {labels[bad]!r}: bound {b[bad]!r} is not an integer population size")
        S = list(map(truediv, a, b))
    return dict(zip(labels, map(int, b))), dict(zip(labels, S))


def write_ab_csv(rows: Iterable[tuple[str, float, float]], fp: IO[str]) -> None:
    writer = csv.writer(fp)
    writer.writerow(["label", "a", "b"])
    for label, a, b in rows:
        writer.writerow([label, _fmt(a), _fmt(b)])


def write_ns_csv(rows: Iterable[tuple[str, int, float]], fp: IO[str]) -> None:
    writer = csv.writer(fp)
    writer.writerow(["label", "N", "S"])
    for label, N, S in rows:
        writer.writerow([label, N, _fmt(S)])


def _fmt(v: float) -> str:
    """Format a float with 17 significant digits (lossless round trip)."""
    return format(float(v), ".17g")


def _json_labels(labels: Sequence) -> list[str]:
    # json is imported where it is used, so the commands that read and
    # write no JSON (roundcmp, genpop, a bare import) do not load it
    import json
    from json.encoder import encode_basestring_ascii

    try:
        return list(map(encode_basestring_ascii, labels))  # what json.dumps writes for a str
    except TypeError:  # some label is not a str
        return list(map(json.dumps, labels))


def _write_list(fp: IO[str], blocks: Iterable[str]) -> None:
    """Write a JSON list at the document's indent from blocks of items, each
    block its items joined by the separator; empty blocks are skipped."""
    opening = "[\n    "
    for block in blocks:
        if block:
            fp.write(opening)
            fp.write(block)
            opening = _SEP
    fp.write("\n  ]" if opening is _SEP else "[]")


def _entries(labels: list, xs: list[float]) -> str:
    """Allocation entries, one formatting of the entry template repeated."""
    return _SEP.join([_ENTRY] * len(labels)) % tuple(chain.from_iterable(zip(_json_labels(labels), xs)))


def write_allocation_json(result: AllocationResult, n: float, fp: IO[str]) -> None:
    """Serialize an allocation with 17-significant-digit numbers.

    Schema: algorithm, n, s_final, iterations, take_all (labels in problem
    order), allocation (label/x pairs in problem order). The document is
    composed directly because json.dump formats floats with the shortest
    repr, which would make byte-level comparison depend on magnitudes. The
    result is read as columns (labels, x, take-all flags), and the lists
    are written ``BLOCK_ROWS`` labels at a time, each block one formatting
    of a repeated item template, so the write holds one block of text.
    JSON has no inf or nan, so a ValueError naming the stratum and s is
    raised, before anything is written, when a number is not finite; a
    label that JSON cannot encode raises json's TypeError, and a take_all
    label that x does not hold a ValueError, also before anything is
    written.
    """
    import json

    labels, xs, on = result._columns()
    if not all(map(math.isfinite, xs)):
        label, bad = next((label, v) for label, v in zip(labels, xs) if not math.isfinite(v))
        raise ValueError(
            f"cannot write the allocation as JSON: stratum {label!r} has x = {bad!r} at s = {result.s_final!r}"
        )
    if not (math.isfinite(n) and math.isfinite(result.s_final)):
        raise ValueError(f"cannot write the allocation as JSON: n = {n!r}, s = {result.s_final!r}")
    if not all(map(isinstance, labels, repeat(str))):
        for label in labels:
            json.dumps(label)  # a label JSON cannot encode raises before anything is written
    if on is None:
        raise ValueError("cannot write the allocation as JSON: take_all holds a label that x does not")
    fp.write(
        "{\n"
        f'  "algorithm": {json.dumps(result.algorithm)},\n'
        f'  "n": {_fmt(float(n))},\n'
        f'  "s_final": {_fmt(result.s_final)},\n'
        f'  "iterations": {int(result.iterations)},\n'
        '  "take_all": '
    )
    take_all = map(compress, _blocks(labels), _blocks(on))
    _write_list(fp, (_SEP.join(_json_labels(list(block))) for block in take_all))
    fp.write(',\n  "allocation": ')
    _write_list(fp, map(_entries, _blocks(labels), _blocks(xs)))
    fp.write("\n}\n")


# the separator of list items, and one allocation entry; %.17g formats as _fmt does
_SEP = ",\n    "
_ENTRY = '{\n      "label": %s,\n      "x": %.17g\n    }'


# the JSON numbers; bool, an int subclass, is refused
_NUMBER = frozenset((float, int))


def _typed(value, types: Collection[type], name: str, field: str, what: str):
    """value, when its type is exactly one of types; else a ValueError
    naming the file and the field."""
    if type(value) not in types:
        raise ValueError(f"{name}: {field} must be {what}, got {value!r}")
    return value


def read_allocation_json(fp: IO[str], name: str = "allocation json") -> AllocationResult:
    """Parse an allocation document back into an AllocationResult.

    The result holds the answer as columns, as a solver's does: the
    labels, x in their order, and V as positions among them. The trace is
    not serialized; parsed results carry an empty trace.
    s_final and every x must be a JSON number, iterations a JSON integer,
    algorithm a string and take_all a list of labels from allocation;
    anything else raises a ValueError naming the file and the field.
    """
    import json

    try:
        doc = json.load(fp)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep to parse
        raise ValueError(f"{name}: invalid JSON: {exc}") from None
    try:
        algorithm = _typed(doc["algorithm"], (str,), name, "algorithm", "a string")
        entries = doc["allocation"]
        take_all = doc["take_all"]
        s_final = float(_typed(doc["s_final"], _NUMBER, name, "s_final", "a number"))
        iterations = _typed(doc["iterations"], (int,), name, "iterations", "an integer")
        labels = tuple(map(itemgetter("label"), entries))
        xs = list(map(itemgetter("x"), entries))
        if not _NUMBER.issuperset(map(type, xs)):
            for label, xv in zip(labels, xs):
                _typed(xv, _NUMBER, name, f"allocation: x of label {label!r}", "a number")
        xs = list(map(float, xs))
        seen = set(labels)  # for the checks below only
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"{name}: missing or malformed field: {exc}") from None
    if len(seen) != len(labels):
        raise ValueError(f"{name}: duplicate labels in allocation")
    if not isinstance(take_all, list):
        raise ValueError(f"{name}: take_all must be a list of labels, got {take_all!r}")
    for label in take_all:
        if not (isinstance(label, Hashable) and label in seen):
            raise ValueError(f"{name}: take_all: {label!r} is not a label in allocation")
    del seen
    v = list(compress(range(len(labels)), map(frozenset(take_all).__contains__, labels)))
    return AllocationResult._from_columns(labels, xs, v, s_final, iterations, algorithm)
