import dataclasses
import hashlib
import io
import itertools
import math
import pickle
import time
from fractions import Fraction
from operator import truediv

import numpy as np
import pytest

from conftest import exact_fixed_point, exact_takeall, make_random_problem, sha256, solve_mix_problem, solver_free, threshold_n
from stratalloc import (
    AllocationProblem,
    AllocationResult,
    InfeasibleSubsetError,
    StrataColumns,
    Stratum,
    algorithms,
    bisection_multiplier,
    brute_force_subset,
    coma,
    formats,
    is_optimal_takeall,
    kkt_verify,
    lognormal_population,
    objective,
    power_problem,
    rna,
    s_of,
    sga,
    table1_problem,
)
from stratalloc import model
from stratalloc.cli import main
from stratalloc.model import TAKE_HI, TAKE_LO, TINY

ALL_SOLVERS = [rna, sga, coma]

# exact quotients 8000/42690, 7000/27240, 6000/17030, 5000/12780,
# 4000/10220 from the reference inputs; the 5-digit golden values are
# asserted separately in the acceptance suite
REF_S_SEQUENCE = (
    0.18739751698289997,
    0.25697503671071953,
    0.35231943628890194,
    0.39123630672926446,
    0.3913894324853229,
)
REF_TAKE_ALL = frozenset({2, 6, 15, 17})


def small(a, b, n):
    strata = tuple(Stratum(label=i, a=float(ai), b=float(bi)) for i, (ai, bi) in enumerate(zip(a, b)))
    return AllocationProblem(strata=strata, n=float(n))


class TestReferenceProblem:
    def test_all_solvers_find_the_take_all_set(self):
        p = table1_problem()
        for solver in ALL_SOLVERS:
            res = solver(p)
            assert res.take_all == REF_TAKE_ALL
            assert res.s_final == pytest.approx(REF_S_SEQUENCE[-1], rel=1e-12)
            assert res.total() == pytest.approx(8000.0, rel=1e-12)
            assert is_optimal_takeall(p, res.take_all)

    def test_batch_solver_trace(self):
        res = rna(table1_problem())
        assert res.iterations == 4
        assert len(res.trace) == 4
        assert [set(rec.added) for rec in res.trace] == [{6, 17}, {15}, {2}, set()]
        assert res.trace[0].s_value == pytest.approx(REF_S_SEQUENCE[0], rel=1e-12)
        assert res.trace[1].s_value == pytest.approx(REF_S_SEQUENCE[2], rel=1e-12)

    @pytest.mark.parametrize("solver", [sga, coma])
    def test_sorted_solver_traces(self, solver):
        res = solver(table1_problem())
        assert res.iterations == 5
        assert [rec.added for rec in res.trace] == [(6,), (17,), (15,), (2,), ()]
        for rec, expected in zip(res.trace, REF_S_SEQUENCE):
            assert rec.s_value == pytest.approx(expected, rel=1e-12)

    def test_identical_allocations_bitwise(self):
        p = table1_problem()
        xs = [solver(p).x for solver in ALL_SOLVERS]
        for w in p.labels:
            assert xs[0][w] == xs[1][w] == xs[2][w]


class TestSmallCases:
    def test_no_take_all_when_priorities_low(self):
        p = small([1, 1, 1], [10, 10, 10], 3)
        for solver in ALL_SOLVERS:
            res = solver(p)
            assert res.take_all == frozenset()
            assert res.iterations == 1
            assert all(xv == pytest.approx(1.0) for xv in res.x.values())

    def test_dominant_stratum_capped(self):
        p = small([100, 1], [2, 50], 10)
        for solver in ALL_SOLVERS:
            res = solver(p)
            assert res.take_all == frozenset({0})
            assert res.x[0] == 2.0
            assert res.x[1] == pytest.approx(8.0)

    def test_census(self):
        p = small([3, 4], [5, 6], 11)
        for solver in ALL_SOLVERS:
            res = solver(p)
            assert res.take_all == frozenset({0, 1})
            assert res.x == {0: 5.0, 1: 6.0}
            assert res.s_final == 0.0
            assert res.iterations == 1

    def test_single_stratum_free(self):
        p = small([2], [10], 4)
        for solver in ALL_SOLVERS:
            res = solver(p)
            assert res.take_all == frozenset()
            assert res.x[0] == pytest.approx(4.0)

    def test_does_not_mutate_problem(self):
        p = small([5, 1], [2, 50], 10)
        before = tuple(p.strata)
        rna(p)
        sga(p)
        coma(p)
        assert p.strata == before

    def test_wide_magnitude_near_census(self):
        # a spans 1e4..1e23; one unit below census only the smallest
        # stratum stays free. A plain running denominator loses the small
        # strata entirely (its rounding error exceeds their total a) and
        # stops two strata early; the compensated pair must not.
        p = power_problem(19999.0)
        for solver in ALL_SOLVERS:
            res = solver(p)
            assert res.take_all == frozenset(range(2, 21))
            assert res.x[1] == 999.0
            assert res.s_final == 999.0 / 10000.0
            assert is_optimal_takeall(p, res.take_all)


class TestRandomEquivalence:
    def test_solvers_agree_bitwise(self, problem_factory):
        rng = np.random.default_rng(101)
        for trial in range(300):
            K = int(rng.integers(1, 13))
            p = problem_factory(rng, K, float(rng.choice([0.1, 0.5, 0.9])))
            results = [solver(p) for solver in ALL_SOLVERS]
            base = results[0]
            for other in results[1:]:
                assert other.take_all == base.take_all
                for w in p.labels:
                    assert other.x[w] == base.x[w]

    def test_result_invariants(self, problem_factory):
        rng = np.random.default_rng(102)
        for trial in range(200):
            K = int(rng.integers(1, 13))
            p = problem_factory(rng, K, float(rng.choice([0.1, 0.5, 0.9])))
            for solver in ALL_SOLVERS:
                res = solver(p)
                assert res.total() == pytest.approx(p.n, rel=1e-12)
                assert res.s_final == s_of(p, res.take_all)
                assert res.iterations == len(res.trace)
                s_seq = [rec.s_value for rec in res.trace]
                assert all(s_seq[i] <= s_seq[i + 1] for i in range(len(s_seq) - 1))
                if solver is rna:
                    # rna's s are the s(V_r) of its iterations, each rounded once
                    v = set()
                    for rec in res.trace:
                        assert rec.s_value == s_of(p, v)
                        v.update(rec.added)
                for w in p.labels:
                    st = p.by_label[w]
                    if w in res.take_all:
                        assert res.x[w] == st.b
                    else:
                        assert res.x[w] == st.a * res.s_final
                        assert res.x[w] <= st.b * (1 + 1e-12)
                assert is_optimal_takeall(p, res.take_all)

    def test_permutation_invariance(self, problem_factory):
        rng = np.random.default_rng(103)
        for trial in range(100):
            K = int(rng.integers(2, 13))
            p = problem_factory(rng, K, float(rng.choice([0.1, 0.5, 0.9])))
            perm = rng.permutation(K)
            shuffled = AllocationProblem(
                strata=tuple(p.strata[int(i)] for i in perm), n=p.n
            )
            for solver in ALL_SOLVERS:
                res = solver(p)
                res_shuffled = solver(shuffled)
                assert res_shuffled.take_all == res.take_all
                for w in p.labels:
                    assert res_shuffled.x[w] == res.x[w]

    def test_beats_plain_proportional_clip(self, problem_factory):
        # the solved objective never exceeds a feasible heuristic's
        rng = np.random.default_rng(104)
        for trial in range(50):
            K = int(rng.integers(2, 10))
            p = problem_factory(rng, K, 0.5)
            res = rna(p)
            opt = objective(p, res.x)
            # clipped-proportional heuristic, rescaled to use the full budget
            x = {st.label: min(st.a, st.b) for st in p.strata}
            scale = p.n / math.fsum(x.values())
            for _ in range(60):
                x = {st.label: min(x[st.label] * scale, st.b) for st in p.strata}
                total = math.fsum(x.values())
                if abs(total - p.n) < 1e-9 * p.n:
                    break
                scale = p.n / total
            if abs(math.fsum(x.values()) - p.n) < 1e-9 * p.n:
                assert opt <= objective(p, x) * (1 + 1e-12)


# Pinned reproducers. In the first, a rounded c_w * s(V) >= 1 decided the
# take-all test the wrong way and rna and sga raised; in the second, coma's
# s(V_{r+1}) divided by zero. In the third, s(V) overflows to inf once
# stratum 1 is in V.
PINNED = {
    "k6_rounded_threshold": (
        [1.087729242891976, 17332490899.032524, 6509726358.374473, 3.2817742329849777e-12,
         8328.004862510666, 6.958557331037807e-05],
        [0.0005850640852304769, 0.0006497076428643487, 216022.39396657038, 29454904.807017025,
         57.96008765662333, 0.9677543080393372],
        29670986.129767798,
        {0, 1, 2, 4, 5},
    ),
    "k4_coma_zero_division": (
        [1073885290.9066164, 125506191886.97058, 1.8041080913652054e-09, 5.875709349693181e-10],
        [4190676.4923184835, 1.6391934067475318, 0.03271075618004013, 0.9306590389706386],
        4190679.0785263074,
        {0, 1, 2},
    ),
    "k2_scale_overflows": ([1e-300, 1e10], [1e10, 1.0], 1e10 + 0.5, {1}),
}


# Strata 2 and 1 have the same float c = a/b, and at rna's second s,
# s({0}), stratum 1's exact a/b lies at or above 1/s and stratum 2's below
# it; stratum 3 joins with 1 and lifts s, so 2 joins at the third. The
# input puts 2 before 1.
BAND_TIE = (
    [(0, 22.09, 1.9), (2, 7.874, 21.699018055115616), (1, 8.627, 23.77412100095027),
     (3, 3.296, 8.904954442974528), (4, 5.459, 330.3)],
    71.5,
)
# rna's trace on BAND_TIE: (r, s as hex, added)
BAND_TRACE = [
    (1, "0x1.8299cbfc104ecp+0", (0,)),
    (2, "0x1.60bd6ce744854p+1", (1, 3)),
    (3, "0x1.627321f67c673p+1", (2,)),
    (4, "0x1.64ea7a08074c2p+1", ()),
]
# Strata 2 and 1 share the float c = a/b, and 1/s({0}) lies between their
# exact a/b: the optimum is {0, 1}. With 2 before 1 in input order, the
# float order tests 2 first, and 2 fails at s({0}).
EQUAL_FLOAT_C = (
    [(0, 56.71821220562006, 2.6948674738744653), (2, 3.2956212316547955, 5.561591732572603),
     (1, 9.751665804253943, 16.45661928464921), (3, 5.458915783827469, 72.47455323943691)],
    33.92538134936512,
)
# powers of two (k, j) for a and for b and n that put every s of a problem
# below 2**-1000 or above 2**1000: the filter's thresholds, from A/B, lie
# near the top of the floats or near the subnormals
PAST_FILTER = ((605, -405), (-505, 505))
BAND_CASES = {"in_filter_range": (0, 0), "below_s_min": PAST_FILTER[0], "above_s_max": PAST_FILTER[1]}


def band_case(case):
    k, j = BAND_CASES[case]
    strata, n = BAND_TIE
    return scaled(AllocationProblem(tuple(Stratum(*t) for t in strata), n), k, j), k, j


def result_key(res):
    return sorted((lb, v.hex()) for lb, v in res.x.items()), res.take_all, res.s_final.hex()


class TestExactTakeAll:
    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_pinned_reproducers(self, case):
        a, b, n, expected = PINNED[case]
        p = small(a, b, n)
        assert exact_takeall(p) == frozenset(expected)
        assert is_optimal_takeall(p, expected)
        for solver in ALL_SOLVERS:
            assert solver(p).take_all == frozenset(expected), solver.__name__

    def test_underflowing_c(self):
        # u = 0 and v = 1: both a/b underflow to 0.0, and so does A/B. v's
        # exact a/b reaches A/B at s(emptyset), and u's stays below it at
        # s({v}). x is not asserted: x_u = a_u * s({v}) overflows to inf
        p = small([1e-300, 3e-300], [1e30, 1e30], 1.5e30)
        assert exact_takeall(p) == frozenset({1})
        for solver in ALL_SOLVERS:
            assert solver(p).take_all == frozenset({1}), solver.__name__
        assert is_optimal_takeall(p, {1})
        assert not is_optimal_takeall(p, set())

    def test_overflowing_threshold(self):
        # v and w both have the float c = FLOAT_MAX. At V = {v}, A = a_w + a_u
        # rounds up to 2**1023 and B = n - b_v = 0.5 + 3 * 2**-56 down to 0.5,
        # so A/B overflows though w's exact a/b reaches it. The filter caps
        # A/B at FLOAT_MAX, which leaves w to rationals; rejecting every
        # stratum at an A/B of inf would stop sga and coma at {v}
        v = (0, float.fromhex("0x1.9ffffffffffffp+971"), float.fromhex("0x1.ap-53"))
        w = (1, float.fromhex("0x1.fffffffffffffp+1022"), 0.5)
        u = (2, 2.0**969, 1.0)
        p = AllocationProblem(tuple(Stratum(*t) for t in (v, w, u)), float.fromhex("0x1.0000000000002p-1"))
        assert exact_takeall(p) == frozenset({0, 1})
        results = [solver(p) for solver in ALL_SOLVERS]
        for res in results:
            assert result_key(res) == result_key(results[0]), res.algorithm
        assert results[0].take_all == frozenset({0, 1})
        assert is_optimal_takeall(p, {0, 1})
        assert not is_optimal_takeall(p, {0})

    def test_scale_fuzz(self):
        # K from 1 to 8; a and b each at a power of two up to 2**+-900, spread
        # by up to 2**+-40 within a draw, and in a fifth of the draws some a or
        # b down to 2**-1030; n a share of sum(b), down to 1e-20 of it. In
        # every draw that passes validation, is_optimal_takeall accepts the
        # exact V, and so do brute_force_subset and every solver that
        # returns, with the same bits of x. A solver may raise only where
        # s(emptyset) underflows
        rng = np.random.default_rng(23)
        checked, failures = 0, []
        for draw in range(500):
            K = int(rng.integers(1, 9))
            spread = int(rng.choice([0, 4, 40]))
            a, b = (
                np.ldexp(rng.uniform(1, 2, K), int(rng.integers(-900, 901)) + rng.integers(-spread, spread + 1, K)).tolist()
                for _ in range(2)
            )
            if rng.random() < 0.2:
                for i in rng.choice(K, int(rng.integers(1, K + 1)), replace=False).tolist():
                    (a if rng.random() < 0.5 else b)[i] = math.ldexp(rng.uniform(1, 2), int(rng.integers(-1030, -1019)))
            share = [rng.uniform(0.01, 0.99), 1 - 10 ** -rng.uniform(3, 6), 10 ** -rng.uniform(1, 20)][int(rng.integers(3))]
            try:
                p = AllocationProblem(tuple(map(Stratum, range(K), a, b)), math.fsum(b) * share)
            except ValueError:  # an a/b that overflows, or an n of 0.0
                continue
            checked += 1
            # the one prefix of the exact a/b order that passes the rational test
            order = sorted(range(K), key=lambda i: Fraction(a[i]) / Fraction(b[i]), reverse=True)
            (v,) = (frozenset(order[:r]) for r in range(K + 1) if exact_fixed_point(p, order[:r]))
            if not is_optimal_takeall(p, v):
                failures.append((draw, "is_optimal_takeall"))
            if brute_force_subset(p) != v:
                failures.append((draw, "brute_force_subset"))
            keys = set()
            for solver in ALL_SOLVERS:
                try:
                    res = solver(p)
                except InfeasibleSubsetError:
                    if s_of(p, ()) != 0.0:
                        failures.append((draw, solver.__name__, "raised"))
                    continue
                if res.take_all != v:
                    failures.append((draw, solver.__name__))
                keys.add(repr(result_key(res)))
            if len(keys) > 1:
                failures.append((draw, "bits"))
        assert checked > 350
        assert not failures, failures[:10]

    @pytest.mark.parametrize("solver", ALL_SOLVERS)
    def test_near_ties_match_exhaustive_rationals(self, solver, near_ties):
        wrong = [p for p, v in near_ties if solver(p).take_all != v]
        assert not wrong, f"{len(wrong)} of {len(near_ties)} near-tie problems"

    @pytest.mark.parametrize("case", sorted(BAND_CASES))
    def test_band_splits_equal_float_c(self, case):
        # rna's second iteration admits stratum 1 and not stratum 2, whose
        # float c is the same: the band is put in exact a/b order, which moves
        # 1 ahead of its input predecessor 2, and its hits are a prefix. The
        # thresholds scale with A/B, so the band is the same at every scale.
        # All solvers agree with the search on V and on every bit of x, and
        # rna's trace is the pinned one, scaled
        p, k, j = band_case(case)
        results = [solver(p) for solver in ALL_SOLVERS]
        assert results[0].take_all == brute_force_subset(p) == exact_takeall(p) == frozenset({0, 1, 2, 3})
        for res in results:
            assert res.take_all == results[0].take_all, res.algorithm
            assert [v.hex() for v in res.x.values()] == [v.hex() for v in results[0].x.values()], res.algorithm
        assert [(rec.r, rec.s_value.hex(), rec.added) for rec in results[0].trace] == [
            (r, math.ldexp(float.fromhex(s), j - k).hex(), added) for r, s, added in BAND_TRACE
        ]

    def test_equal_float_c_in_every_input_order(self):
        # strata 2 and 1 share a float c, but only 1's exact a/b reaches
        # 1/s({0}); in every order of the rows each solver and both searches
        # take {0, 1}, with the same bits of x
        strata, n = EQUAL_FLOAT_C
        keys = set()
        for rows in itertools.permutations(strata):
            p = AllocationProblem(tuple(Stratum(*row) for row in rows), n)
            assert exact_takeall(p) == brute_force_subset(p) == frozenset({0, 1}), rows
            for solver in ALL_SOLVERS:
                res = solver(p)
                assert res.take_all == frozenset({0, 1}), (solver.__name__, rows)
                keys.add(repr(result_key(res)))
        assert len(keys) == 1

    def test_split_runs_of_equal_float_c(self, split_runs):
        # 1/s(V) splits a run of equal float c whose non-members come first
        # in input order: every solver and both searches find the exact V,
        # with the same bits of x in any input order
        rng = np.random.default_rng(29)
        for p, v in split_runs:
            assert exact_takeall(p) == brute_force_subset(p) == v
            base = result_key(rna(p))
            for perm in (range(p.size), reversed(range(p.size)), *(rng.permutation(p.size) for _ in range(2))):
                shuffled = AllocationProblem(tuple(p.strata[int(i)] for i in perm), p.n)
                for solver in ALL_SOLVERS:
                    assert result_key(solver(shuffled)) == base, (solver.__name__, p)

    @pytest.mark.parametrize("a_exp", [12, 150])
    def test_near_census_fuzz(self, a_exp):
        # a = 10^U(-a_exp, a_exp), b = 10^U(-5, 8), n = sum(b) - gap with the
        # gap log-uniform on [sum(b) * 1e-15, min(b) / 2].
        rng = np.random.default_rng(2000 + a_exp)
        for trial in range(150):
            K = int(rng.integers(2, 11))
            a = 10.0 ** rng.uniform(-a_exp, a_exp, K)
            b = 10.0 ** rng.uniform(-5, 8, K)
            total = math.fsum(b)
            lo, hi = sorted((math.log(total * 1e-15), math.log(b.min() / 2)))
            p = small(a, b, total - math.exp(rng.uniform(lo, hi)))
            perm = rng.permutation(K)
            shuffled = AllocationProblem(strata=tuple(p.strata[int(i)] for i in perm), n=p.n)
            base = result_key(rna(p))
            for solver in ALL_SOLVERS:
                assert result_key(solver(p)) == base, trial
                assert result_key(solver(shuffled)) == base, trial
            assert exact_fixed_point(p, base[1]), trial
            assert kkt_verify(p, rna(p)).valid, trial


def near_tie_survey(K=2000, p=1200):
    # a seeded survey problem whose n puts the p-th stratum of the descending
    # c order at its threshold
    rng = np.random.default_rng(22)
    columns = StrataColumns.survey(range(K), rng.integers(10, 2000, K).tolist(), rng.lognormal(0, 1, K).tolist())
    return AllocationProblem(columns, threshold_n(*columns.lists, p)), list(map(truediv, *columns.lists))


def cliff_columns():
    # ROADMAP item 2's rational cliff: K = 2,000 strata with a = U(1, 100) *
    # 1e290 and b = U(10, 1000) * 1e-14; at n = sum(b) / 2, s is about 6e-304
    rng = np.random.default_rng(2)
    a = (rng.uniform(1, 100, 2000) * 1e290).tolist()
    b = (rng.uniform(10, 1000, 2000) * 1e-14).tolist()
    return a, b


CLIFF_SHA256 = "6f112684984cf13a88843aa61e84010d894e6c1b65ce41104b98a0044d4a6e1c"  # rna's JSON on the cliff


class TestTakeAllBand:
    def test_near_tie_hands_over_only_the_band(self, monkeypatch):
        # is_optimal_takeall settles every stratum outside the filter's band
        # itself: the exact step sees only the strata strictly between the
        # thresholds, and at least the one at the boundary. The solvers agree
        # with it and with each other, on every bit of x
        p, c = near_tie_survey()
        results = [solver(p) for solver in ALL_SOLVERS]
        v = results[0].take_all
        for res in results:
            assert res.take_all == v, res.algorithm
            assert [x.hex() for x in res.x.values()] == [x.hex() for x in results[0].x.values()], res.algorithm
        assert exact_fixed_point(p, v)
        handed = []
        kernel = model.take_all_members

        def spy(*args):  # the candidates come last
            handed.append(list(args[-1]))
            return kernel(*args)

        monkeypatch.setattr(model, "take_all_members", spy)
        assert is_optimal_takeall(p, v)
        B, A = map(math.fsum, model._s_terms(p, sorted(v)))  # labels are positions
        ratio = min(A / B, model._FLOAT_MAX)
        band = [i for i in range(p.size) if TAKE_LO * ratio - TINY < c[i] < TAKE_HI * ratio + TINY]
        assert band and handed == [band]

    @pytest.mark.parametrize("k,j", [(0, 0), *PAST_FILTER])
    def test_exact_tie_is_taken(self, k, j):
        # c_1 * s({0}) = 1 exactly: the test is a_w * B >= b_w * A, so 1
        # joins V, at unit scale and with s past 2**-1000 and 2**1000. x is
        # the same either way; V, r* and is_optimal_takeall show the tie rule
        p = scaled(small([4, 1, 1], [1, 1, 10], 3), k, j)
        for solver in ALL_SOLVERS:
            assert solver(p).take_all == frozenset({0, 1}), solver.__name__
        assert is_optimal_takeall(p, {0, 1})
        assert not is_optimal_takeall(p, {0})

    def test_rational_cliff_past_s_min(self):
        # s is about 6e-304, below 2**-1000, and A/B about 2**1000. The
        # filter's thresholds come from A/B, so it holds at this scale too and
        # sends only near-ties to rationals: each solve takes at most 4 times
        # as long as on its twin with every b times 1e3, where s is above
        # 2**-1000 (the best of 3 runs each)
        a, b = cliff_columns()
        K = len(a)
        p = AllocationProblem(tuple(map(Stratum, range(K), a, b)), math.fsum(b) / 2)
        b_twin = [v * 1e3 for v in b]
        twin = AllocationProblem(tuple(map(Stratum, range(K), a, b_twin)), math.fsum(b_twin) / 2)

        def best_of_3(solver, problem):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                res = solver(problem)
                times.append(time.perf_counter() - start)
            return res, min(times)

        results = []
        for solver in ALL_SOLVERS:
            res, elapsed = best_of_3(solver, p)
            twin_res, twin_elapsed = best_of_3(solver, twin)
            assert twin_res.s_final > 2.0**-1000
            assert elapsed < 1.0, (solver.__name__, elapsed)
            assert elapsed <= 4 * twin_elapsed, (solver.__name__, elapsed, twin_elapsed)
            results.append(res)
        assert 0 < results[0].s_final < 2.0**-1000
        for res in results:
            assert result_key(res) == result_key(results[0]), res.algorithm
        assert is_optimal_takeall(p, results[0].take_all)

    def test_rational_cliff_through_the_cli(self, tmp_path, capsys):
        # the cliff as a label,a,b file: rna's JSON has its pinned sha256 and
        # verify accepts it, and sga and coma write the same JSON as rna
        # apart from the algorithm and iterations lines
        a, b = cliff_columns()
        csv_path = tmp_path / "cliff.csv"
        csv_path.write_text("label,a,b\n" + "".join(f"{i},{x!r},{y!r}\n" for i, (x, y) in enumerate(zip(a, b))))
        problem = ["--input", str(csv_path), "--n", repr(math.fsum(b) / 2)]
        rna_json = tmp_path / "rna.json"
        for algorithm in ("rna", "sga", "coma"):
            out = tmp_path / f"{algorithm}.json"
            assert main(["allocate", *problem, "--algorithm", algorithm, "--output", str(out)]) == 0
            assert solver_free(out) == solver_free(rna_json), algorithm
        assert sha256(rna_json) == CLIFF_SHA256
        capsys.readouterr()
        assert main(["verify", *problem, "--allocation", str(rna_json)]) == 0
        assert "certificate: valid (tol = 1e-08)" in capsys.readouterr().out.splitlines()


def record_problem(columns, n):
    # the library path: plain Stratum records over the columns' a and b
    return AllocationProblem(tuple(map(Stratum, columns.labels, *columns.lists)), n)


def pin_problems():
    pop = lognormal_population(0, 10)
    total = math.fsum(pop.lists[1])
    for frac in (0.02, 0.1, 0.3, 0.6, 0.95):
        yield record_problem(pop, float(round(frac * total)))
    table1 = table1_problem()
    yield record_problem(table1.columns, table1.n)
    yield record_problem(pop, total)  # the census
    # fractional bounds: the compensated budget steps are inexact only here
    for frac in (0.1, 0.5, 0.9):
        yield make_random_problem(np.random.default_rng(15), 300, frac)


# sha256 of every bit of rna, sga and coma's answers and traces over
# pin_problems(); sga and coma take the same steps, so their digests agree
SOLVE_SHA256 = {
    "rna": "8aa9f6aa489a3052e81ea39cbc37b29001da4c057acf7fd3838ddf609d4784ac",
    "sga": "149b48fa72dc282e897a007d8b5973bdb41ad88dd3aab9d84e89372414696029",
    "coma": "149b48fa72dc282e897a007d8b5973bdb41ad88dd3aab9d84e89372414696029",
}


def solve_digest(solver):
    h = hashlib.sha256()
    for p in pin_problems():
        res = solver(p)
        h.update(repr((
            res.iterations,
            res.s_final.hex(),
            sorted(res.take_all),
            [v.hex() for v in res.x.values()],
            [(rec.r, rec.s_value.hex(), rec.added) for rec in res.trace],
        )).encode())
    return h.hexdigest()


@pytest.mark.parametrize("solver", ALL_SOLVERS, ids=lambda s: s.__name__)
def test_pinned_solve_bits(solver):
    # any change to a step of the walks, the compensated sums included, shows here
    assert solve_digest(solver) == SOLVE_SHA256[solver.__name__]


def scaled(problem, k, j):
    # the problem with every a times 2**k, and every b and n times 2**j: exact in the normal range
    a, b = problem.columns.lists
    strata = tuple(map(Stratum, problem.labels, (math.ldexp(v, k) for v in a), (math.ldexp(v, j) for v in b)))
    return AllocationProblem(strata, math.ldexp(problem.n, j))


def scale_problems(near_ties, split_runs):
    # each problem with the scales past 2**-1000 and 2**1000 it stays normal at
    yield table1_problem(), PAST_FILTER
    yield power_problem(19999.0), ()  # a spans 1e4..1e23, one unit below the census; a/b overflows past the range
    yield record_problem(lognormal_population(0, 10), 3000.0), PAST_FILTER
    rng = np.random.default_rng(19)
    for frac in (0.05, 0.3, 0.6, 0.9, 0.999):  # fractional bounds
        yield make_random_problem(rng, int(rng.integers(1, 60)), frac), PAST_FILTER
    for p, _ in near_ties[:40]:  # a stratum within 2 ulps of its threshold: settled in rationals
        yield p, PAST_FILTER
    yield band_case("in_filter_range")[0], PAST_FILTER  # rna's band holds two strata of equal float c
    for p, _ in split_runs[:10]:  # sga and coma put the split run in exact order after a rejection
        yield p, PAST_FILTER


@pytest.mark.parametrize("solver", ALL_SOLVERS, ids=lambda s: s.__name__)
def test_power_of_two_scale_invariance(solver, near_ties, split_runs):
    # s(V) is a quotient of exact sums, and a power-of-two scale of a, b and n
    # is exact: x scales by 2**j, every s by 2**(j - k), and V, r* and the
    # trace labels stay, bit for bit
    rng = np.random.default_rng(2019)
    for p, past in scale_problems(near_ties, split_runs):
        base = solver(p)
        for k, j in ((200, -200), (-200, 200), (0, 0), *past, *rng.integers(-200, 201, (3, 2)).tolist()):
            res = solver(scaled(p, k, j))
            key = (p.size, k, j)
            assert res.take_all == base.take_all, key
            assert res.iterations == base.iterations, key
            assert [v.hex() for v in res.x.values()] == [math.ldexp(v, j).hex() for v in base.x.values()], key
            assert res.s_final.hex() == math.ldexp(base.s_final, j - k).hex(), key
            assert [(rec.r, rec.s_value.hex(), rec.added) for rec in res.trace] == [
                (rec.r, math.ldexp(rec.s_value, j - k).hex(), rec.added) for rec in base.trace
            ], key


# Problems whose optimum x is representable though s(V) is not on the way:
# a, b, n and that x. s overflows in the first (so a certificate, which
# needs s, cannot pass there), x off V in the next two, and s(empty set)
# underflows in the last.
EXTREME_SCALE_OPTIMA = {
    "s_overflows": ((1e-160,), (1e300,), 1e200, (1e200,)),
    "x_off_v_overflows": ((1e-300, 1e10), (1e10, 1.0), 1e10 + 0.5, (9999999999.5, 1.0)),
    "c_underflows": ((1e-300, 3e-300), (1e30, 1e30), 1.5e30, (5e29, 1e30)),
    "s_empty_underflows": ((1e100, 1e100), (1.0, 1.0), 1e-300, (5e-301, 5e-301)),
}


@pytest.mark.xfail(strict=True, reason="x or s(V) leaves the floats on the way to a representable optimum")
@pytest.mark.parametrize("a, b, n, want", EXTREME_SCALE_OPTIMA.values(), ids=EXTREME_SCALE_OPTIMA)
@pytest.mark.parametrize("solver", ALL_SOLVERS, ids=lambda s: s.__name__)
def test_representable_optimum_at_extreme_scale(solver, a, b, n, want):
    # each solver must return the representable optimum; the solvers
    # return an x of inf, or raise InfeasibleSubsetError in the last case
    assert list(solver(small(a, b, n)).x.values()) == pytest.approx(want, rel=1e-15, abs=0)


@pytest.mark.parametrize("solver", ALL_SOLVERS, ids=lambda s: s.__name__)
def test_one_result_build_per_solve(solver, monkeypatch):
    # the solvers build their result through the module attribute
    # algorithms.v_allocation, the name perfbench's traced replay wraps
    calls = []
    build = algorithms.v_allocation

    def counted(*args, **kwargs):
        calls.append(args[0])
        return build(*args, **kwargs)

    census = table1_problem()
    census = AllocationProblem(census.strata, census.sum_b)
    problems = [table1_problem(), census, band_case("in_filter_range")[0]]
    expected = [result_key(solver(p)) for p in problems]
    monkeypatch.setattr(algorithms, "v_allocation", counted)
    for p, key in zip(problems, expected):
        calls.clear()
        assert result_key(solver(p)) == key
        assert calls == [p]


@pytest.mark.parametrize("solver", ALL_SOLVERS, ids=lambda s: s.__name__)
def test_trace_built_on_first_read(solver, monkeypatch):
    # a solve builds no IterationRecord; the first read of trace builds
    # one per iteration and keeps them, and reading it again builds none
    built = []
    new = model.IterationRecord.__new__

    def counted(cls, *args):
        built.append(args[0])
        return new(cls, *args)

    monkeypatch.setattr(model.IterationRecord, "__new__", counted)
    for seed in range(3):
        res = solver(solve_mix_problem(seed))
        assert built == [] and "trace" not in vars(res)
        trace = res.trace
        assert built == list(range(1, res.iterations + 1)) == [rec.r for rec in trace]
        assert res.trace is trace and len(built) == res.iterations
        built.clear()


# the fields a solver's result builds on first read
VIEWS = {"x", "take_all", "trace"}


@pytest.mark.parametrize("solver", ALL_SOLVERS, ids=lambda s: s.__name__)
def test_lazy_trace_equals_eager_result(solver):
    # a result whose x, take_all and trace are not yet read compares,
    # copies, pickles, prints and converts as one built with them by the
    # public constructor, and is as unhashable
    p = solve_mix_problem(0, f=0.92)
    read = solver(p)
    eager = AllocationResult(*(getattr(read, field.name) for field in dataclasses.fields(AllocationResult)))
    assert VIEWS <= vars(eager).keys() and read.iterations == len(eager.trace) > 1
    assert list(eager.x) == list(p.labels) and 0 < len(eager.take_all) < p.size

    def unread():
        res = solver(p)
        assert not VIEWS & vars(res).keys()
        return res

    assert unread() == eager and eager == unread()
    assert dataclasses.replace(unread()) == eager
    assert unread().__replace__() == eager  # what copy.replace calls
    assert pickle.loads(pickle.dumps(unread())) == eager
    assert repr(unread()) == repr(eager)
    assert dataclasses.asdict(unread()) == dataclasses.asdict(eager)
    with pytest.raises(TypeError, match="unhashable"):
        hash(unread())
    assert eager.trace[-1].added == () and all(len(rec.added) for rec in eager.trace[:-1])
    for res in (unread(), read):
        with pytest.raises(AttributeError, match="nope"):
            getattr(res, "nope")
        assert not hasattr(res, "_nope")


@pytest.mark.parametrize("solver", [*ALL_SOLVERS, bisection_multiplier], ids=lambda s: s.__name__)
def test_write_and_verify_build_no_view(solver):
    # the allocate and verify paths read the result's columns: writing it
    # and checking it, as written and as read back, builds no K-entry dict
    p = solve_mix_problem(1, f=0.6)
    res = solver(p)
    buf = io.StringIO()
    formats.write_allocation_json(res, p.n, buf)
    back = formats.read_allocation_json(io.StringIO(buf.getvalue()))
    for result in (res, back):
        cert = kkt_verify(p, result)
        assert cert.valid and cert.min_bound_multiplier == 0.0
        assert not {"x", "take_all"} & vars(result).keys() and "lam" not in vars(cert)
    assert back == dataclasses.replace(res, trace=())
