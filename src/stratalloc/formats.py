"""File formats: strata CSV (two header forms) and allocation JSON."""

from __future__ import annotations

import csv
import json
from typing import IO, Iterable, Mapping, Sequence

from .model import AllocationProblem, AllocationResult, Stratum

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


def read_strata_csv(fp: IO[str], name: str = "strata csv") -> tuple[Stratum, ...]:
    """Parse a strata CSV in either accepted header form.

    ``label,a,b`` gives the weights and bounds directly as :class:`Stratum`
    records; ``label,N,S`` is the survey form and reads as
    :class:`SurveyStratum` records (a = N * S, b = N). Header matching is
    case-insensitive. Raises :class:`StrataCsvError` naming the line on any
    malformed content, including values the record constructors reject.
    """
    reader = csv.reader(fp)
    try:
        header = next(reader)
    except StopIteration:
        raise StrataCsvError(f"{name}: line 1: empty file") from None
    cols = [h.strip().lower() for h in header]
    if cols == ["label", "a", "b"]:
        make = Stratum
    elif cols == ["label", "n", "s"]:
        make = Stratum.survey
    else:
        raise StrataCsvError(
            f"{name}: line 1: header must be 'label,a,b' or 'label,N,S', got {','.join(header)!r}"
        )
    rows: list[Stratum] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(reader, start=2):
        if not raw or (len(raw) == 1 and not raw[0].strip()):
            continue  # ignore blank lines
        if len(raw) != 3:
            raise StrataCsvError(f"{name}: line {lineno}: expected 3 fields, got {len(raw)}")
        label = raw[0].strip()
        if not label:
            raise StrataCsvError(f"{name}: line {lineno}: empty label")
        if label in seen:
            raise StrataCsvError(f"{name}: line {lineno}: duplicate label {label!r}")
        seen.add(label)
        try:
            v1 = float(raw[1])
            v2 = float(raw[2])
        except ValueError:
            raise StrataCsvError(
                f"{name}: line {lineno}: non-numeric value in {raw[1]!r}, {raw[2]!r}"
            ) from None
        try:
            rows.append(make(label, v1, v2))
        except ValueError as exc:
            raise StrataCsvError(f"{name}: line {lineno}: {exc}") from None
    if not rows:
        raise StrataCsvError(f"{name}: line 2: no data rows")
    return tuple(rows)


def problem_from_rows(rows: Sequence[Stratum], n: float) -> AllocationProblem:
    return AllocationProblem(strata=rows, n=n)


def population_maps_from_rows(rows: Sequence[Stratum]) -> tuple[dict, dict]:
    """(N, S) maps for variance work; a,b rows must then have integer b."""
    N: dict[str, int] = {}
    S: dict[str, float] = {}
    for row in rows:
        if row.N is not None:
            N[row.label] = row.N
            S[row.label] = row.S
        else:
            if row.b != int(row.b):
                raise StrataCsvError(
                    f"stratum {row.label!r}: bound {row.b!r} is not an integer population size"
                )
            N[row.label] = int(row.b)
            S[row.label] = row.a / row.b
    return N, S


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


def _list_block(items: list[str]) -> str:
    if not items:
        return "[]"
    return "[\n" + ",\n".join("    " + item for item in items) + "\n  ]"


def write_allocation_json(result: AllocationResult, n: float, fp: IO[str]) -> None:
    """Serialize an allocation with 17-significant-digit numbers.

    Schema: algorithm, n, s_final, iterations, take_all (labels in problem
    order), allocation (label/x pairs in problem order). The document is
    composed directly because json.dump formats floats with the shortest
    repr, which would make byte-level comparison depend on magnitudes.
    """
    take_all = [json.dumps(lb) for lb in result.x if lb in result.take_all]
    entries = [
        '{\n      "label": %s,\n      "x": %s\n    }' % (json.dumps(lb), _fmt(xv))
        for lb, xv in result.x.items()
    ]
    fp.write("{\n")
    fp.write(f'  "algorithm": {json.dumps(result.algorithm)},\n')
    fp.write(f'  "n": {_fmt(float(n))},\n')
    fp.write(f'  "s_final": {_fmt(result.s_final)},\n')
    fp.write(f'  "iterations": {int(result.iterations)},\n')
    fp.write(f'  "take_all": {_list_block(take_all)},\n')
    fp.write(f'  "allocation": {_list_block(entries)}\n')
    fp.write("}\n")


def read_allocation_json(fp: IO[str], name: str = "allocation json") -> AllocationResult:
    """Parse an allocation document back into an AllocationResult.

    The trace is not serialized; parsed results carry an empty trace.
    """
    try:
        doc = json.load(fp)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{name}: invalid JSON: {exc}") from None
    try:
        algorithm = doc["algorithm"]
        entries = doc["allocation"]
        take_all = doc["take_all"]
        s_final = float(doc["s_final"])
        iterations = int(doc["iterations"])
        x = {entry["label"]: float(entry["x"]) for entry in entries}
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{name}: missing or malformed field: {exc}") from None
    if len(x) != len(entries):
        raise ValueError(f"{name}: duplicate labels in allocation")
    return AllocationResult(
        x=x,
        take_all=frozenset(take_all),
        s_final=s_final,
        iterations=iterations,
        trace=(),
        algorithm=str(algorithm),
    )
