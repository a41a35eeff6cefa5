import io
import math

import numpy as np
import pytest

from stratalloc import (
    AllocationProblem,
    Stratum,
    greedy_integer_optimal,
    lognormal_population,
    rna,
    round_allocation,
    srswor_variance,
    variance_table,
    write_variance_csv,
)
from stratalloc.formats import population_maps_from_rows, read_strata_csv, write_ns_csv
from stratalloc.rounding import VARIANCE_CSV_HEADER


class TestRoundAllocation:
    def test_largest_fraction_first(self):
        x = {"a": 1.2, "b": 2.3, "c": 3.5}
        out = round_allocation(x, 7, {"a": 10.0, "b": 10.0, "c": 10.0})
        assert out == {"a": 1, "b": 2, "c": 4}

    def test_tie_goes_to_earlier_label(self):
        out = round_allocation({"a": 2.5, "b": 2.5}, 5, {"a": 10.0, "b": 10.0})
        assert out == {"a": 3, "b": 2}

    def test_skips_bounded_strata(self):
        # "a" has the largest fraction but granting it would break its bound
        out = round_allocation({"a": 3.9, "b": 2.1, "c": 2.0}, 8, {"a": 3.95, "b": 10.0, "c": 10.0})
        assert out == {"a": 3, "b": 3, "c": 2}
        # a bound stratum with zero fraction keeps its value
        out2 = round_allocation({"a": 4.0, "b": 2.9, "c": 2.1}, 9, {"a": 4.0, "b": 10.0, "c": 10.0})
        assert out2 == {"a": 4, "b": 3, "c": 2}

    def test_integer_input_unchanged(self):
        x = {"a": 3.0, "b": 4.0}
        assert round_allocation(x, 7, {"a": 5.0, "b": 5.0}) == {"a": 3, "b": 4}

    def test_sum_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match n"):
            round_allocation({"a": 1.0, "b": 1.0}, 3, {"a": 5.0, "b": 5.0})

    def test_capacity_exhausted_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            round_allocation({"a": 1.5, "b": 1.5}, 3, {"a": 1.6, "b": 1.6})

    def test_bad_n(self):
        with pytest.raises(ValueError):
            round_allocation({"a": 1.0}, 0, {"a": 5.0})

    def test_floors_above_n_rejected(self):
        # the total is within 1e-9 * n of n, but the floor alone exceeds it
        with pytest.raises(ValueError, match="^floored allocation already exceeds n$"):
            round_allocation({"u": 1e10 + 4}, 10**10, {"u": 2e10})

    def test_label_mismatch_rejected(self):
        with pytest.raises(ValueError, match="^allocation and bounds must cover the same labels$"):
            round_allocation({"a": 1.0, "b": 2.0}, 3, {"a": 5.0, "c": 5.0})

    @pytest.mark.parametrize("xa,message", [(-0.5, "allocation -0.5 outside"), (5.5, "allocation 5.5 outside")])
    def test_value_outside_bounds_rejected(self, xa, message):
        # the total matches n, so the first stratum outside [0, b] is named
        with pytest.raises(ValueError, match=rf"^stratum 'a': {message} \[0, 5.0\]$"):
            round_allocation({"a": xa, "b": 3.0 - xa}, 3, {"a": 5.0, "b": 5.0})

    def test_stays_within_one_of_input(self):
        # integer bounds, the population case; fractional bounds can make
        # the within-one contract infeasible and raise instead
        rng = np.random.default_rng(301)
        for trial in range(100):
            K = int(rng.integers(1, 13))
            bounds = rng.integers(1, 101, K)
            a = rng.uniform(0.1, 10.0, K)
            n = max(1, round(0.5 * int(bounds.sum())))
            strata = tuple(
                Stratum(label=i, a=float(a[i]), b=float(bounds[i])) for i in range(K)
            )
            p = AllocationProblem(strata=strata, n=float(n))
            res = rna(p)
            b = {st.label: st.b for st in p.strata}
            out = round_allocation(res.x, n, b)
            assert sum(out.values()) == n
            for w in p.labels:
                assert abs(out[w] - res.x[w]) < 1.0
                assert 0 <= out[w] <= b[w]


def _uniform_population():
    N = {"u": 40, "v": 60, "w": 100}
    S = {"u": 2.0, "v": 1.0, "w": 0.5}
    return N, S


class TestVarianceTable:
    def test_report_fields_and_ordering(self):
        N, S = _uniform_population()
        reports = variance_table(N, S, [0.25, 0.5])
        assert [r.sample_fraction for r in reports] == [0.25, 0.5]
        assert [r.n for r in reports] == [50, 100]
        for rep in reports:
            assert not rep.skipped
            assert rep.d2_integer > 0
            assert 0 < rep.ratio_cont_over_int <= 1.0
            assert rep.ratio_rounded_over_int >= 1.0 - 1e-12

    def test_continuous_lower_bounds_integer(self):
        N, S = _uniform_population()
        rep = variance_table(N, S, [0.3])[0]
        assert rep.d2_continuous <= rep.d2_integer
        assert rep.d2_rounded >= rep.d2_continuous

    def test_census_fraction(self):
        N, S = _uniform_population()
        rep = variance_table(N, S, [1.0])[0]
        assert rep.d2_continuous == 0.0
        assert rep.d2_rounded == 0.0
        assert rep.d2_integer == 0.0
        assert rep.ratio_cont_over_int == 1.0
        assert rep.ratio_rounded_over_int == 1.0

    def test_skipped_when_sample_below_stratum_count(self):
        N, S = _uniform_population()
        rep = variance_table(N, S, [0.005])[0]  # n = 1 < K = 3
        assert rep.skipped
        assert math.isnan(rep.d2_continuous)
        assert math.isnan(rep.ratio_rounded_over_int)

    def test_maps_over_different_labels(self):
        with pytest.raises(ValueError, match="^N and S must cover the same labels$"):
            variance_table({"u": 40, "v": 60}, {"u": 2.0, "w": 1.0}, [0.5])

    def test_bad_fraction(self):
        N, S = _uniform_population()
        with pytest.raises(ValueError):
            variance_table(N, S, [0.0])
        with pytest.raises(ValueError):
            variance_table(N, S, [1.5])

    def test_rounded_zero_reports_infinite_variance(self):
        # one stratum's share is so small it floors to 0 and never wins a
        # leftover unit; the rounded design variance diverges
        N = {"big": 1000, "tiny": 10}
        S = {"big": 100.0, "tiny": 1e-8}
        reports = variance_table(N, S, [0.1])
        rep = reports[0]
        assert rep.d2_rounded == math.inf
        assert math.isfinite(rep.d2_continuous)
        assert math.isfinite(rep.d2_integer)

    def test_matches_direct_computation(self):
        N, S = _uniform_population()
        rep = variance_table(N, S, [0.4])[0]
        problem = AllocationProblem(
            strata=tuple(Stratum(label=w, a=N[w] * S[w], b=float(N[w])) for w in N),
            n=float(rep.n),
        )
        cont = rna(problem)
        assert rep.d2_continuous == pytest.approx(srswor_variance(N, S, cont.x), rel=1e-12)
        integer = greedy_integer_optimal(problem)
        assert rep.d2_integer == pytest.approx(srswor_variance(N, S, integer.x), rel=1e-12)


    def test_no_records_built(self, built_records):
        pop = lognormal_population(seed=0, block_count=10)
        buf = io.StringIO()
        write_ns_csv(((st.label, st.N, st.S) for st in pop.records), buf)
        N, S = population_maps_from_rows(read_strata_csv(io.StringIO(buf.getvalue())))
        fractions = [0.0005, 0.1, 0.5, 1.0]  # the first is skipped
        built_records.clear()  # pop.records above built the population's records
        reports = variance_table(N, S, fractions)
        assert built_records == []
        assert reports[0].skipped and not any(rep.skipped for rep in reports[1:])


class TestVarianceCsv:
    def test_header_and_rows(self):
        N, S = _uniform_population()
        reports = variance_table(N, S, [0.25, 0.5])
        buf = io.StringIO()
        write_variance_csv(reports, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == ",".join(VARIANCE_CSV_HEADER)
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0.25"
        assert first[1] == "50"
        assert float(first[5]) == pytest.approx(reports[0].ratio_cont_over_int)
