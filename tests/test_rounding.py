import io
import math
import random

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
from stratalloc import rounding
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

    @pytest.mark.parametrize("n", [math.inf, -math.inf, math.nan, 2.5, -3])
    def test_non_integer_n_named(self, n):
        # inf and nan get the same ValueError as any other bad n
        with pytest.raises(ValueError, match=rf"^n must be a positive integer, got {n!r}$"):
            round_allocation({"a": 1.0}, n, {"a": 5.0})

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

    @pytest.mark.parametrize("x", [{"u": 3.0}, {"a": 1.0, "u": 2.0}, {"a": 3.0, "u": 0.0}])
    def test_infinite_bound_named(self, x):
        # x is inside [0, inf], and the bound used to reach math.floor as OverflowError
        b = {"a": 5.0, "u": math.inf}
        with pytest.raises(ValueError, match=r"^stratum 'u': bound inf must be finite$"):
            round_allocation(x, 3, {w: b[w] for w in x})

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


class TestVarianceTableChecks:
    def test_every_fraction_checked_before_the_first_solve(self, monkeypatch):
        calls = []

        def spy(problem):
            calls.append(problem.n)
            return rna(problem)

        monkeypatch.setattr(rounding, "rna", spy)
        N, S = _uniform_population()
        with pytest.raises(ValueError, match=r"^sampling fraction must be in \(0, 1\], got 1.5$"):
            variance_table(N, S, [0.25, 0.5, 1.5])
        assert calls == []

    def test_fractions_from_a_generator(self):
        N, S = _uniform_population()
        assert variance_table(N, S, (f for f in [0.25, 0.5])) == variance_table(N, S, [0.25, 0.5])

    def test_continuous_answer_an_ulp_above_its_bound_is_clipped(self, monkeypatch):
        # rna's x_w = b_w on the take-all set; one ulp above it the variance's
        # domain check would fail, so the table evaluates min(x_w, N_w)
        N, S = _uniform_population()
        expected = variance_table(N, S, [0.9])

        def above(problem):
            res = rna(problem)
            assert res.take_all
            w = next(iter(res.take_all))
            res.x[w] = math.nextafter(res.x[w], math.inf)
            return res

        monkeypatch.setattr(rounding, "rna", above)
        assert variance_table(N, S, [0.9]) == expected


# The dict-based rounding and the per-label variance loop that the column
# passes replaced, kept as references: the new code must give the same
# integers, the same floats to the bit, and the same errors.


def reference_round_allocation(x, n, b):
    if n != int(n) or n <= 0:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    n = int(n)
    if set(x) != set(b):
        raise ValueError("allocation and bounds must cover the same labels")
    total = math.fsum(x.values())
    if abs(total - n) > 1e-9 * max(1.0, abs(n)):
        raise ValueError(f"allocation total {total!r} does not match n = {n}")
    labels = list(x)
    floors = {}
    fracs = {}
    for w in labels:
        xv = x[w]
        bv = b[w]
        if not (0 <= xv <= bv + 1e-9 * max(1.0, bv)):
            raise ValueError(f"stratum {w!r}: allocation {xv!r} outside [0, {bv!r}]")
        f = min(math.floor(xv), int(math.floor(bv)))
        floors[w] = f
        fracs[w] = xv - f
    leftover = n - sum(floors.values())
    if leftover < 0:
        raise ValueError("floored allocation already exceeds n")
    order = sorted(range(len(labels)), key=lambda i: (-fracs[labels[i]], i))
    for i in order:
        if leftover == 0:
            break
        w = labels[i]
        if floors[w] + 1 <= b[w]:
            floors[w] += 1
            leftover -= 1
    if leftover > 0:
        raise ValueError("not enough capacity under the bounds to place all units")
    return floors


def reference_srswor_variance(N, S, x):
    if not (set(N) == set(S) == set(x)):
        raise ValueError("N, S and x must cover the same labels")
    pos, neg = [], []
    for w in N:
        Nw, Sw, xw = N[w], S[w], x[w]
        if not (Nw > 0):
            raise ValueError(f"stratum {w!r}: N must be positive")
        if Sw < 0:
            raise ValueError(f"stratum {w!r}: S must be nonnegative")
        if not (0 < xw <= Nw):
            raise ValueError(f"stratum {w!r}: need 0 < x <= N, got x={xw!r}, N={Nw!r}")
        d2 = (Nw * Sw) ** 2
        pos.append(d2 / xw)
        neg.append(d2 / Nw)
    return math.fsum(pos) - math.fsum(neg)


def outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def rounding_case(rng):
    """An allocation, a total and bounds: fractional parts from a few values
    so that many tie, strata at their bound, bounds just below a whole
    number, and x up to a relative 1e-9 above b (now and then past it)."""
    K = rng.randint(1, 40)
    x, b = {}, {}
    for i in rng.sample(range(1000), K):
        kind = rng.random()
        bound = float(rng.randint(1, 60))
        if rng.random() < 0.15:
            bound -= rng.choice([0.5, 0.25, 1e-10])  # a fractional bound
        if kind < 0.3:
            value = bound  # at the bound
        elif kind < 0.45:
            value = bound + rng.choice([1e-9, 0.5e-9, 1e-10]) * max(1.0, bound)
        else:
            value = min(bound, rng.randint(0, int(bound)) + rng.choice([0.0, 0.25, 0.5, 0.75]))
        x[f"s{i}"], b[f"s{i}"] = value, bound
    if rng.random() < 0.05:  # past the tolerance
        w = rng.choice(list(x))
        x[w] = b[w] + 2e-9 * max(1.0, b[w])
    total = math.fsum(x.values())
    n = round(total)
    if rng.random() < 0.9:  # put the shortfall on a stratum with room, if one has
        for w in rng.sample(list(x), K):
            if 0 <= x[w] + (n - total) <= b[w]:
                x[w] += n - total
                break
    return x, rng.choice([n, float(n)]), b


class TestReferenceParity:
    def test_round_allocation_matches_reference(self):
        rng = random.Random(1601)
        results = 0
        for _ in range(3000):
            x, n, b = rounding_case(rng)
            new, old = outcome(round_allocation, x, n, b), outcome(reference_round_allocation, x, n, b)
            assert new == old, (x, n, b)
            if isinstance(new, dict):
                assert list(new) == list(old)
                assert all(type(v) is int for v in new.values())
                results += 1
        assert results > 1500  # most cases round; the rest raise the same error

    def test_round_allocation_ties_keep_input_order(self):
        # 29 equal fractional parts, one larger, and 8 units to grant: the
        # larger takes one, and the first 7 tied strata in the mapping order
        # take the rest, whatever the order of the labels themselves
        labels = [f"s{i}" for i in random.Random(3).sample(range(100), 30)]
        x = dict.fromkeys(labels, 2.25)
        b = dict.fromkeys(labels, 5.0)
        x[labels[-1]] += 7 - 0.25 * 30
        out = round_allocation(x, round(math.fsum(x.values())), b)
        assert out == reference_round_allocation(x, round(math.fsum(x.values())), b)
        assert [w for w in labels[:-1] if out[w] == 3] == labels[:7]

    def test_srswor_variance_matches_reference(self):
        rng = random.Random(1602)
        values = 0
        for _ in range(3000):
            K = rng.randint(1, 30)
            N = {f"s{i}": rng.randint(1, 500) for i in range(K)}
            S = {w: rng.choice([0.0, 0, rng.uniform(0, 5), rng.lognormvariate(0, 2)]) for w in N}
            x = {w: rng.choice([Nw, float(Nw), rng.randint(1, Nw), rng.uniform(0, Nw)]) for w, Nw in N.items()}
            if rng.random() < 0.1:  # a stratum outside the domain
                w = rng.choice(list(N))
                bad = rng.choice(["N", "S", "x"])
                if bad == "N":
                    N[w] = rng.choice([0, -1, math.nan])
                elif bad == "S":
                    S[w] = -rng.uniform(0, 1)
                else:
                    x[w] = rng.choice([0.0, N[w] + 1, math.nan, -1.0])
            # a shuffled key order in S and x
            S = dict(rng.sample(list(S.items()), K))
            x = dict(rng.sample(list(x.items()), K))
            new, old = outcome(srswor_variance, N, S, x), outcome(reference_srswor_variance, N, S, x)
            if isinstance(old, float):
                assert new.hex() == old.hex(), (N, S, x)
                values += 1
            else:
                assert new == old, (N, S, x)
        assert values > 2500

    def test_srswor_variance_squares_with_pow(self):
        # (N S)**2 is libm pow; for this v it differs from v * v in the last bit
        v = 1.5261283972998259
        if v**2 == v * v:
            pytest.skip("v**2 == v*v on this platform")
        N, S, x = {"u": 1}, {"u": v}, {"u": 0.5}
        assert srswor_variance(N, S, x) == reference_srswor_variance(N, S, x) == v**2
