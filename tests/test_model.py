import copy
import dataclasses
import math
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import stratalloc
from stratalloc import (
    AllocationProblem,
    AllocationResult,
    BenchResult,
    InfeasibleProblemError,
    InfeasibleSubsetError,
    IterationRecord,
    KktCertificate,
    Stratum,
    SurveyStratum,
    VarianceReport,
    is_optimal_takeall,
    objective,
    s_of,
    srswor_variance,
    table1_problem,
    v_allocation,
)
from stratalloc.model import _exact_parts


def two_stratum(n=3.0):
    return AllocationProblem(
        strata=(Stratum(label="x", a=1.0, b=1.0), Stratum(label="y", a=1.0, b=100.0)),
        n=n,
    )


class TestStratum:
    def test_fields(self):
        st = Stratum(label="u", a=2.0, b=4.0)
        assert st.c == 0.5

    @pytest.mark.parametrize(
        "a,b,message",
        [
            # ids "a-b", as pytest names the (a, b) cases
            pytest.param(a, b, message, id=f"{a}-{b}")
            for a, b, message in [
                (0.0, 1.0, "a must be positive and finite, got 0.0"),
                (-1.0, 1.0, "a must be positive and finite, got -1.0"),
                (math.nan, 1.0, "a must be positive and finite, got nan"),
                (math.inf, 1.0, "a must be positive and finite, got inf"),
                (-math.inf, 1.0, "a must be positive and finite, got -inf"),
                (1.0, 0.0, "b must be positive and finite, got 0.0"),
                (1.0, -2.0, "b must be positive and finite, got -2.0"),
                (1.0, math.nan, "b must be positive and finite, got nan"),
                (1.0, math.inf, "b must be positive and finite, got inf"),
                (1.0, -math.inf, "b must be positive and finite, got -inf"),
                (math.nan, math.nan, "a must be positive and finite, got nan"),
                (1e308, 1e-10, "a/b overflows"),
                (0, 1, "a must be positive and finite, got 0"),
                (1, -3, "b must be positive and finite, got -3"),
            ]
        ],
    )
    def test_rejects_nonpositive_or_nonfinite(self, a, b, message):
        with pytest.raises(ValueError, match=re.escape(f"stratum 'u': {message}") + "$"):
            Stratum(label="u", a=a, b=b)
        with pytest.raises(ValueError, match=re.escape(f"stratum 'u': {message}") + "$"):
            SurveyStratum("u", a, b, 1.0)

    def test_int_inputs(self):
        st = Stratum("u", 3, 4)
        assert (st.a, st.b, st.c) == (3, 4, 0.75)
        assert type(st.a) is int and type(st.b) is int  # kept as given
        assert SurveyStratum("u", 250, 100, 2.5).N == 100
        # an int beyond the float range is rejected as inf is, by the stratum's ValueError
        big = "an int too large for a float"
        for a, b, name in ((10**400, 10**399, "a"), (10**400, 2.0, "a"), (1.0, 10**400, "b"), (-(10**5000), 1, "a")):
            with pytest.raises(ValueError, match=f"^stratum 'u': {name} must be positive and finite, got {big}$"):
                Stratum("u", a, b)

    @pytest.mark.parametrize(
        "N,S,message",
        [
            (10**400, 1.0, "N is too large for a float"),
            (-(10**400), 1.0, "N is too large for a float"),
            (10.0, 10**400, "S is too large for a float"),
            (math.nan, 10**400, "N is too large for a float"),
            # an int N times an int S is an int a, which the record rejects
            (10, 10**400, "a must be positive and finite, got an int too large for a float"),
        ],
        ids=["N", "-N", "S", "nan-S", "int-a"],
    )
    def test_survey_int_too_large_for_a_float(self, N, S, message):
        with pytest.raises(ValueError, match=f"^stratum 'u': {message}$"):
            Stratum.survey("u", N, S)

    def test_plain_stratum_has_no_survey_fields(self):
        st = Stratum("u", 2.0, 4.0)
        assert st.N is None and st.S is None

    def test_survey_constructor(self):
        st = Stratum.survey("u", 100, 0.1 + 0.2)
        assert type(st) is SurveyStratum
        assert st.a == 100 * (0.1 + 0.2)
        assert st.b == 100.0 and type(st.b) is float
        assert st.N == 100 and type(st.N) is int
        assert st.S.hex() == (0.1 + 0.2).hex()
        assert st.c == st.a / st.b

    def test_survey_rejects_inconsistent_records(self):
        with pytest.raises(ValueError, match="N \\* S"):
            SurveyStratum("u", 250.0, 100.0, 2.4)
        with pytest.raises(ValueError, match="integer"):
            SurveyStratum("u", 26.25, 10.5, 2.5)
        with pytest.raises(ValueError, match="integer"):
            Stratum.survey("u", 10.5, 2.5)
        with pytest.raises(ValueError, match="positive"):
            Stratum.survey("u", 10, 0.0)


@pytest.mark.parametrize(
    "cls,values,names,text",
    [
        (Stratum, ("u", 2.0, 4.0), ("label", "a", "b"), "Stratum(label='u', a=2.0, b=4.0)"),
        (
            SurveyStratum,
            ("u", 250.0, 100.0, 2.5),
            ("label", "a", "b", "S"),
            "SurveyStratum(label='u', a=250.0, b=100.0, S=2.5)",
        ),
        (IterationRecord, (1, 0.5, ("u",)), ("r", "s_value", "added"), "IterationRecord(r=1, s_value=0.5, added=('u',))"),
        (
            AllocationResult,
            ({"u": 1.0}, frozenset({"u"}), 0.5, 1, (IterationRecord(1, 0.5, ("u",)),), "rna"),
            ("x", "take_all", "s_final", "iterations", "trace", "algorithm"),
            "AllocationResult(x={'u': 1.0}, take_all=frozenset({'u'}), s_final=0.5, iterations=1,"
            " trace=(IterationRecord(r=1, s_value=0.5, added=('u',)),), algorithm='rna')",
        ),
        (
            KktCertificate,
            (0.25, {"u": 0.0}, {"stationarity": 0.0, "primal": 0.0, "complementary": 0.0}, 1e-09),
            ("mu", "lam", "residuals", "tol"),
            "KktCertificate(mu=0.25, lam={'u': 0.0},"
            " residuals={'stationarity': 0.0, 'primal': 0.0, 'complementary': 0.0}, tol=1e-09)",
        ),
        (
            VarianceReport,
            (0.1, 5, 1.5, 2.0, 1.25, 1.2, 1.6, False),
            ("sample_fraction", "n", "d2_continuous", "d2_rounded", "d2_integer", "ratio_cont_over_int",
             "ratio_rounded_over_int", "skipped"),
            "VarianceReport(sample_fraction=0.1, n=5, d2_continuous=1.5, d2_rounded=2.0, d2_integer=1.25,"
            " ratio_cont_over_int=1.2, ratio_rounded_over_int=1.6, skipped=False)",
        ),
        (
            BenchResult,
            ("rna", "p1", 3, 10.0, 1200, 100, 2, 1),
            ("algorithm", "problem_id", "K", "n", "median_ns", "repetitions", "iterations", "take_all_count"),
            "BenchResult(algorithm='rna', problem_id='p1', K=3, n=10.0, median_ns=1200, repetitions=100,"
            " iterations=2, take_all_count=1)",
        ),
    ],
    ids=["Stratum", "SurveyStratum", "IterationRecord", "AllocationResult", "KktCertificate", "VarianceReport",
         "BenchResult"],
)
def test_records_are_frozen_dataclasses(cls, values, names, text):
    rec = cls(*values)
    assert tuple(f.name for f in dataclasses.fields(rec)) == names
    assert tuple(getattr(rec, name) for name in names) == values
    assert repr(rec) == text
    # equal by fields and class only
    assert rec == cls(**dict(zip(names, values))) == dataclasses.replace(rec) == pickle.loads(pickle.dumps(rec))
    # never equal to the plain tuple of the fields, in either order
    assert rec != values and values != rec and not rec == values and not values == rec
    assert rec != dataclasses.replace(rec, **{names[0]: "other"})
    if cls in (AllocationResult, KktCertificate):
        with pytest.raises(TypeError, match="unhashable"):
            hash(rec)  # AllocationResult.x and KktCertificate.lam are dicts
    else:
        assert hash(rec) == hash(values) == hash(cls(*values))
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rec, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(rec, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.extra = 1
    assert tuple(getattr(rec, name) for name in names) == values
    if cls in (Stratum, SurveyStratum, IterationRecord):  # built many at a time: tuples of their fields
        assert not hasattr(rec, "__dict__") and isinstance(rec, tuple) and tuple(rec) == values
        # the fields' index descriptors are no defaults
        assert [f.default for f in dataclasses.fields(rec)] == [dataclasses.MISSING] * len(names) and not cls._defaults
        for twin in (copy.deepcopy(rec), pickle.loads(pickle.dumps(rec)), rec.__replace__(), dataclasses.replace(rec)):
            assert type(twin) is type(rec) and twin == rec
        # not ordered, as a dataclass without order=True, and not as the tuple of the fields
        for smaller in (lambda: rec < cls(*values), lambda: rec <= values, lambda: values < rec):
            with pytest.raises(TypeError, match="records are not ordered"):
                smaller()


RECORD_DOCS = {
    Stratum: "One stratum: a label, a variability weight a, and an upper bound b.",
    SurveyStratum: "A stratum of an SRSWOR design: b = N units with standard deviation S.",
    IterationRecord: "One solver iteration: 1-based index r, the scale s(V_r), labels added.",
    AllocationResult: "A solved allocation.",
    KktCertificate: "Checkable first-order optimality certificate.",
    VarianceReport: "Variance comparison at one sampling fraction.",
    BenchResult: "Median wall time of one solver on one problem.",
}


def test_record_fields_are_built_per_class():
    # in a fresh interpreter, a subclass read after its base gets its own
    # fields, not a cached copy of the base's
    code = (
        "import dataclasses\n"
        "from stratalloc.model import Stratum, SurveyStratum\n"
        "print([len(dataclasses.fields(cls)) for cls in (Stratum, SurveyStratum, Stratum)])"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(stratalloc.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[3, 4, 3]\n"
    assert [f.name for f in dataclasses.fields(SurveyStratum)] == ["label", "a", "b", "S"]


def test_one_collector_allocation_per_record():
    # a record with a __dict__ is two allocations of the cyclic garbage
    # collector, so K records would start about 2 * K // threshold
    # collections. A problem built from strata records reads their columns
    # without an allocation per record, so it starts none: a zip(*records)
    # transposition would start K // threshold.
    code = (
        "import gc\n"
        "from itertools import repeat\n"
        "from stratalloc.model import AllocationProblem, IterationRecord, Stratum, SurveyStratum\n"
        "threshold = gc.get_threshold()[0]\n"
        "K = 20 * threshold\n"
        "labels, a, b, S = [f's{i}' for i in range(K)], [3.0] * K, [2.0] * K, [1.5] * K\n"
        "started = []\n"
        "gc.callbacks.append(lambda phase, info: phase == 'start' and started.append(info['generation']))\n"
        "def collections(build):\n"
        "    gc.collect()\n"
        "    started.clear()\n"
        "    built = build()\n"
        "    return len(started), built\n"
        "for build in (\n"
        "    lambda: tuple(map(Stratum, labels, a, b)),\n"
        "    lambda: tuple(map(SurveyStratum, labels, a, b, S)),\n"
        "    lambda: tuple(map(IterationRecord, range(K), a, repeat(('u',)))),\n"
        "):\n"
        "    built, records = collections(build)\n"
        "    problem = 0 if isinstance(records[0], IterationRecord) else collections(lambda: AllocationProblem(records, 1.0))[0]\n"
        "    print(type(records[0]).__name__, K // threshold, built, problem)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(stratalloc.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert [row[0] for row in rows] == ["Stratum", "SurveyStratum", "IterationRecord"], proc.stdout
    for _, per_threshold, built, problem in rows:
        assert int(built) <= int(per_threshold) + 2 and int(problem) == 0, proc.stdout


def test_records_behave_as_frozen_dataclasses():
    st, survey = Stratum("u", 2.0, 4.0), SurveyStratum("v", 6.0, 3.0, 2.0)
    result = v_allocation(two_stratum(), [])
    assert "trace" not in vars(result)
    for cls, doc in RECORD_DOCS.items():
        assert dataclasses.is_dataclass(cls) and cls.__doc__.splitlines()[0] == doc, cls
    assert all(map(dataclasses.is_dataclass, (st, survey, result, result.trace[0])))
    assert dataclasses.asdict(survey) == {"label": "v", "a": 6.0, "b": 3.0, "S": 2.0}
    # asdict reads a trace not yet built
    fresh = v_allocation(two_stratum(), [])
    assert dataclasses.asdict(fresh) == {
        "x": result.x, "take_all": frozenset(), "s_final": result.s_final, "iterations": 1,
        "trace": ({"r": 1, "s_value": result.s_final, "added": ()},), "algorithm": "v_allocation",
    }
    for rec in (st, survey, result, v_allocation(two_stratum(), [])):
        twin = copy.copy(rec)
        assert type(twin) is type(rec) and twin == rec and repr(twin) == repr(rec)
    assert st.__replace__(a=3.0) == Stratum("u", 3.0, 4.0)
    assert survey.__replace__() == survey and type(survey.__replace__()) is SurveyStratum
    # equal only within a class, whatever the fields
    same = Stratum("v", 6.0, 3.0)
    assert same != survey and survey != same and not same == survey and not survey == same
    if sys.version_info >= (3, 13):
        assert copy.replace(st, b=5.0) == Stratum("u", 2.0, 5.0)
    match st:
        case Stratum(label, a, b):
            assert (label, a, b) == ("u", 2.0, 4.0)
        case _:
            pytest.fail("no positional match")
    with pytest.raises(dataclasses.FrozenInstanceError, match="^cannot assign to field 'a'$"):
        st.a = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError, match="^cannot delete field 'a'$"):
        del st.a


def test_generic_record_constructor():
    # fields by position, then by name; a field left out takes its class default
    values = (0.1, 5, 1.5, 2.0, 1.25, 1.2, 1.6)
    report = VarianceReport(*values)
    assert report.skipped is False and report == VarianceReport(*values, skipped=False)
    assert report == VarianceReport(*values[:2], **dict(zip(VarianceReport.__match_args__[2:], values[2:])))
    assert VarianceReport(*values, True).skipped is True
    assert dataclasses.fields(VarianceReport)[-1].default is False
    assert [f.default for f in dataclasses.fields(VarianceReport)[:-1]] == [dataclasses.MISSING] * 7
    assert dataclasses.asdict(report)["skipped"] is False
    assert dataclasses.replace(report, n=6) == VarianceReport(0.1, 6, *values[2:])
    cert = KktCertificate(mu=1.0, lam={}, residuals={}, tol=1e-9)
    assert dataclasses.asdict(cert) == {"mu": 1.0, "lam": {}, "residuals": {}, "tol": 1e-9} and cert.valid
    # a field left out, an unknown name, a field given twice, one too many by position
    fields = "('mu', 'lam', 'residuals', 'tol')"
    for args, kwargs, given in [
        ((1.0,), {"lam": {}}, "1 by position and ('lam',) by name"),
        ((1.0, {}, {}, 1e-9), {"nu": 2.0}, "4 by position and ('nu',) by name"),
        ((1.0, {}, {}, 1e-9), {"mu": 2.0}, "4 by position and ('mu',) by name"),
        ((1.0, {}, {}, 1e-9, 0), {}, "5 by position and () by name"),
    ]:
        with pytest.raises(TypeError) as err:
            KktCertificate(*args, **kwargs)
        assert str(err.value) == f"KktCertificate() takes the fields {fields}; got {given}"
    with pytest.raises(TypeError, match="'nope'"):
        dataclasses.replace(report, nope=1)


class TestAllocationProblem:
    def test_basic_sums(self):
        p = two_stratum()
        assert p.sum_a == 2.0
        assert p.sum_b == 101.0
        assert p.labels == ("x", "y")
        assert not p.is_census

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            AllocationProblem(
                strata=(Stratum(label="x", a=1.0, b=1.0), Stratum(label="x", a=2.0, b=2.0)),
                n=1.0,
            )

    def test_infeasible_n(self):
        with pytest.raises(InfeasibleProblemError):
            two_stratum(n=101.5)

    def test_census_boundary_accepted(self):
        p = two_stratum(n=101.0)
        assert p.is_census

    @pytest.mark.parametrize("n", [0.0, -5.0, math.nan])
    def test_bad_n(self, n):
        with pytest.raises(ValueError):
            two_stratum(n=n)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            AllocationProblem(strata=(), n=1.0)

    @pytest.mark.parametrize("n", [10**400, -(10**5000)], ids=["big", "-huge"])
    def test_n_int_too_large_for_a_float(self, n):
        with pytest.raises(ValueError, match="^n must be positive and finite, got an int too large for a float$"):
            two_stratum(n=n)

    def test_overflowing_sums_rejected(self):
        a_over = (Stratum(0, 1e308, 1.0), Stratum(1, 1e308, 1.0), Stratum(2, 1.0, 10.0))
        with pytest.raises(ValueError, match="sum of the a values overflows"):
            AllocationProblem(strata=a_over, n=5.0)
        b_over = (Stratum(0, 1.0, 1e308), Stratum(1, 1.0, 1e308))
        with pytest.raises(ValueError, match="sum of the b values overflows"):
            AllocationProblem(strata=b_over, n=5.0)


class TestSOf:
    def test_empty_set_convention(self):
        p = two_stratum()
        assert s_of(p, frozenset()) == pytest.approx(3.0 / 2.0)

    def test_full_set_convention(self):
        p = two_stratum()
        assert s_of(p, {"x", "y"}) == 0.0

    def test_partial(self):
        p = two_stratum()
        # V = {x}: (3 - 1) / 1
        assert s_of(p, {"x"}) == pytest.approx(2.0)

    def test_can_go_negative(self):
        p = two_stratum(n=3.0)
        # V = {y} spends 100 > n
        assert s_of(p, {"y"}) < 0

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="not in problem"):
            s_of(two_stratum(), {"zzz"})

    def test_budget_is_one_rounding(self):
        # sum_V b = 1e16 + 1 is a tie that rounds to 1e16; subtracting that
        # rounded sum from n would give a budget of 4 instead of 3
        p = AllocationProblem(
            strata=(
                Stratum(label="big", a=1.0, b=1e16),
                Stratum(label="one", a=1.0, b=1.0),
                Stratum(label="free", a=1.0, b=10.0),
            ),
            n=1e16 + 4,
        )
        assert s_of(p, {"big", "one"}) == 3.0


def wide_values(rng, k):
    # floats of both signs with binary exponents across -1000..1000, each
    # with its negation or a near-negation to cancel, and subnormals
    wide = [math.ldexp(m, int(e)) for m, e in zip(rng.uniform(-1, 1, k), rng.integers(-1000, 1001, k))]
    cancel = [-v * (1 + math.ldexp(1, -int(d))) for v, d in zip(wide, rng.integers(1, 53, k))]
    cancel += [-v for v in wide[: k // 2]]
    subnormal = [math.ldexp(int(m), -1074) for m in rng.integers(-(2**30), 2**30, k)]
    values = wide + cancel + subnormal
    return [values[i] for i in rng.permutation(len(values))]


class TestExactParts:
    @pytest.mark.parametrize("seed", range(4))
    def test_parts_sum_exactly(self, seed):
        rng = np.random.default_rng(seed)
        for trial in range(50):
            values = wide_values(rng, int(rng.integers(1, 30)))
            parts = _exact_parts(values)
            assert sum(map(Fraction, parts)) == sum(map(Fraction, values)), trial
            # the list ends at its first 0.0, each part at most half an ulp of the one before
            assert parts[-1] == 0.0 and all(parts[:-1]), trial
            assert all(abs(q) <= math.ulp(p) / 2 for p, q in zip(parts, parts[1:])), trial
            total = math.fsum(values)
            assert (parts + [0.0])[:2] == [total, math.fsum([*values, -total])], trial

    def test_exact_sum_of_zero(self):
        assert _exact_parts([1e300, -1e300, 5e-324, -5e-324]) == [0.0]
        assert _exact_parts([1e300, 1.0, -1e300]) == [1.0, 0.0]


class TestVAllocation:
    def test_two_regimes(self):
        p = two_stratum()
        res = v_allocation(p, {"x"})
        assert res.x["x"] == 1.0
        assert res.x["y"] == pytest.approx(2.0)
        assert res.take_all == frozenset({"x"})
        assert res.s_final == pytest.approx(2.0)
        assert res.algorithm == "v_allocation"
        assert res.total() == pytest.approx(3.0, rel=1e-12)

    def test_infeasible_subset(self):
        with pytest.raises(InfeasibleSubsetError):
            v_allocation(two_stratum(), {"y"})

    def test_full_set_requires_census(self):
        with pytest.raises(InfeasibleSubsetError):
            v_allocation(two_stratum(), {"x", "y"})
        res = v_allocation(two_stratum(n=101.0), {"x", "y"})
        assert res.x == {"x": 1.0, "y": 100.0}
        assert res.s_final == 0.0


class TestFixedPoint:
    def test_reference_problem(self):
        p = table1_problem()
        assert is_optimal_takeall(p, {2, 6, 15, 17})

    def test_rejects_other_subsets(self):
        p = table1_problem()
        assert not is_optimal_takeall(p, set())
        assert not is_optimal_takeall(p, {6, 17})
        assert not is_optimal_takeall(p, {2, 6, 15, 17, 11})
        assert not is_optimal_takeall(p, set(p.labels))

    def test_census_only_full_set(self):
        p = two_stratum(n=101.0)
        assert is_optimal_takeall(p, {"x", "y"})
        assert not is_optimal_takeall(p, {"x"})
        assert not is_optimal_takeall(p, set())

    def test_two_stratum(self):
        p = two_stratum()
        assert is_optimal_takeall(p, {"x"})
        assert not is_optimal_takeall(p, set())

    def test_near_ties_decided_exactly(self, near_ties):
        # the exact V passes and every set one stratum away from it fails
        wrong = [
            (p, v)
            for p, v in near_ties
            if not is_optimal_takeall(p, v)
            or any(is_optimal_takeall(p, v ^ {w}) for w in p.labels)
        ]
        assert not wrong, f"{len(wrong)} of {len(near_ties)} near-tie problems"

    def test_overflowing_scale(self):
        # s({1}) = (1e10 - 0.5) / 1e-300 overflows to inf; stratum 0 sits
        # just below its threshold: 1e-300 * (1e10 - 0.5) < 1e10 * 1e-300
        p = AllocationProblem(
            strata=(Stratum(label=0, a=1e-300, b=1e10), Stratum(label=1, a=1e10, b=1.0)),
            n=1e10 + 0.5,
        )
        assert is_optimal_takeall(p, {1})
        assert not is_optimal_takeall(p, {0, 1})
        assert not is_optimal_takeall(p, set())

    def test_underflowing_scale(self):
        # s(emptyset) = 1e-300 / 2e100 underflows to 0.0 and A/B overflows;
        # c = 1e100 for both strata lies far below A/B = 2e400, so V is empty
        p = AllocationProblem(
            strata=(Stratum(label=0, a=1e100, b=1.0), Stratum(label=1, a=1e100, b=1.0)),
            n=1e-300,
        )
        assert is_optimal_takeall(p, set())
        assert not is_optimal_takeall(p, {0})


class TestObjective:
    def test_hand_value(self):
        p = two_stratum()
        # 1/1 + 1/2
        assert objective(p, {"x": 1.0, "y": 2.0}) == pytest.approx(1.5)

    def test_label_mismatch(self):
        with pytest.raises(ValueError):
            objective(two_stratum(), {"x": 1.0})

    def test_nonpositive_entry(self):
        with pytest.raises(ValueError):
            objective(two_stratum(), {"x": 0.0, "y": 3.0})

    def test_order_independent(self):
        # fsum makes the value independent of the label insertion order
        p = two_stratum()
        assert objective(p, {"x": 1.2, "y": 1.8}) == objective(p, {"y": 1.8, "x": 1.2})


class TestSrsworVariance:
    def test_census_is_exactly_zero(self):
        N = {"u": 10, "v": 20}
        S = {"u": 3.0, "v": 7.0}
        x = {"u": 10.0, "v": 20.0}
        assert srswor_variance(N, S, x) == 0.0

    def test_hand_value(self):
        N = {"u": 10}
        S = {"u": 2.0}
        # (10*2)^2 / 5 - (10*2)^2 / 10 = 80 - 40
        assert srswor_variance(N, S, {"u": 5.0}) == pytest.approx(40.0)

    def test_domain_errors(self):
        N = {"u": 10}
        S = {"u": 2.0}
        with pytest.raises(ValueError):
            srswor_variance(N, S, {"u": 0.0})
        with pytest.raises(ValueError):
            srswor_variance(N, S, {"u": 11.0})
        with pytest.raises(ValueError):
            srswor_variance(N, S, {"z": 1.0})

    def test_domain_messages(self):
        with pytest.raises(ValueError, match="^N, S and x must cover the same labels$"):
            srswor_variance({"u": 10}, {"u": 2.0}, {"z": 1.0})
        with pytest.raises(ValueError, match="^stratum 'u': N must be positive$"):
            srswor_variance({"u": 0}, {"u": 2.0}, {"u": 1.0})
        with pytest.raises(ValueError, match="^stratum 'u': S must be nonnegative$"):
            srswor_variance({"u": 10}, {"u": -0.5}, {"u": 1.0})
        with pytest.raises(ValueError, match="^stratum 'u': S must be nonnegative$"):
            srswor_variance({"u": 10}, {"u": math.nan}, {"u": 5.0})
        with pytest.raises(ValueError, match=r"^stratum 'u': need 0 < x <= N, got x=11.0, N=10$"):
            srswor_variance({"u": 10}, {"u": 2.0}, {"u": 11.0})
        # an infinite N or S passes the checks above, and gave nan; a square
        # past the floats raised a bare OverflowError, and N*S past them gave nan
        square = r"\(N\*S\)\*\*2 must be a finite float"
        with pytest.raises(ValueError, match=rf"^stratum 'u': {square}, got N=2, S=inf$"):
            srswor_variance({"u": 2}, {"u": math.inf}, {"u": 1})
        with pytest.raises(ValueError, match=rf"^stratum 'v': {square}, got N=inf, S=1.0$"):
            srswor_variance({"u": 2, "v": math.inf}, {"u": 1.0, "v": 1.0}, {"u": 1, "v": 1})
        with pytest.raises(ValueError, match=rf"^stratum 'u': {square}, got N=inf, S=0.0$"):
            srswor_variance({"u": math.inf}, {"u": 0.0}, {"u": 1})
        with pytest.raises(ValueError, match=rf"^stratum 'v': {square}, got N=1000000.0, S=1e\+150$"):
            srswor_variance({"u": 2, "v": 1e6}, {"u": 1.0, "v": 1e150}, {"u": 1, "v": 1})
        with pytest.raises(ValueError, match=rf"^stratum 'u': {square}, got N=1e\+200, S=1e\+200$"):
            srswor_variance({"u": 1e200}, {"u": 1e200}, {"u": 1})

    def test_variance_past_the_floats_reads_inf(self):
        # every square is a float, but their sum is not: fsum raised OverflowError
        assert srswor_variance({"u": 1, "v": 1}, {"u": 1e154, "v": 1e154}, {"u": 1, "v": 1}) == math.inf

    def test_decreases_in_x(self):
        N = {"u": 100, "v": 50}
        S = {"u": 5.0, "v": 1.0}
        lo = srswor_variance(N, S, {"u": 10.0, "v": 10.0})
        hi = srswor_variance(N, S, {"u": 5.0, "v": 5.0})
        assert lo < hi


class TestScaleLemma:
    def test_union_growth_equivalence(self):
        # growing the take-all set by B raises s(V) exactly when the
        # current scale overshoots B's bounds in aggregate
        rng = np.random.default_rng(5)
        from conftest import make_random_problem

        for _ in range(500):
            K = int(rng.integers(2, 13))
            p = make_random_problem(rng, K, float(rng.choice([0.1, 0.5, 0.9])))
            labels = list(p.labels)
            rng.shuffle(labels)
            cut_a = int(rng.integers(0, K - 1))
            cut_b = int(rng.integers(cut_a + 1, K))
            A = frozenset(labels[:cut_a])
            B = frozenset(labels[cut_a:cut_b])
            sa_val = s_of(p, A)
            lhs = s_of(p, A | B) >= sa_val
            sum_a = math.fsum(p.by_label[w].a for w in B)
            sum_b = math.fsum(p.by_label[w].b for w in B)
            rhs = sa_val * sum_a >= sum_b
            assert lhs == rhs
