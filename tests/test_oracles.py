import itertools
import math

import numpy as np
import pytest

from conftest import heap_greedy_counts
from stratalloc import (
    AllocationProblem,
    AllocationResult,
    KktCertificate,
    PopulationSpec,
    Stratum,
    bisection_multiplier,
    brute_force_subset,
    greedy_integer_optimal,
    kkt_verify,
    lognormal_population,
    objective,
    power_problem,
    rna,
    rounding,
    srswor_variance,
    table1_problem,
    v_allocation,
)


def small(a, b, n):
    strata = tuple(Stratum(label=i, a=float(ai), b=float(bi)) for i, (ai, bi) in enumerate(zip(a, b)))
    return AllocationProblem(strata=strata, n=float(n))


def assert_one_rule(cert):
    """failed lists, in order, the residuals not within tol (a nan fails),
    and valid means that none is listed."""
    expected = tuple(
        cond for cond in ("stationarity", "primal", "complementary")
        if math.isnan(cert.residuals[cond]) or cert.residuals[cond] > cert.tol
    )
    assert cert.failed == expected
    assert cert.valid == (not cert.failed)


def heap_greedy_result(problem):
    """The AllocationResult greedy_integer_optimal must return, from the heap reference."""
    counts = heap_greedy_counts(problem)
    return AllocationResult(
        x={st.label: float(c) for st, c in zip(problem.strata, counts)},
        take_all=frozenset(st.label for st, c in zip(problem.strata, counts) if c == int(st.b)),
        s_final=0.0,
        iterations=1,
        trace=(),
        algorithm="greedy_integer",
    )


def greedy_fuzz_problems(seed, count):
    """Random integer problems, K in 1..12 and b in 1..30, cycling over five
    kinds of a: uniform, small integers (exact ties), one value for all strata
    (with one b as well), 10**U(-200, 200), whose a**2 overflows to inf or
    underflows to 0 at the ends, and 10**U(-162, -154) with b up to 300, whose
    gains are subnormal and round to 0 within the bounds. n is K, sum(b) or
    uniform between them."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        K = int(rng.integers(1, 13))
        b = rng.integers(1, 31, K).astype(float)
        kind = i % 5
        if kind == 0:
            a = rng.uniform(0.1, 10.0, K)
        elif kind == 1:
            a = rng.integers(1, 4, K).astype(float)
        elif kind == 2:
            a = np.full(K, rng.uniform(0.1, 10.0))
            b = np.full(K, b[0])
        elif kind == 3:
            a = 10.0 ** rng.uniform(-200.0, 200.0, K)
        else:
            a = 10.0 ** rng.uniform(-162.0, -154.0, K)
            b = rng.integers(1, 301, K).astype(float)
        total = int(b.sum())
        n = [K, total, int(rng.integers(K, total + 1))][int(rng.integers(3))]
        yield small(a, b, n)


class TestBruteForce:
    def test_reference_problem(self):
        p = table1_problem()
        assert brute_force_subset(p) == frozenset({2, 6, 15, 17})

    def test_power_problem(self):
        p = power_problem(5000.0)
        assert brute_force_subset(p) == rna(p).take_all

    def test_census(self):
        p = small([3, 4], [5, 6], 11)
        assert brute_force_subset(p) == frozenset({0, 1})

    def test_size_limit(self):
        strata = tuple(Stratum(label=i, a=1.0, b=10.0) for i in range(21))
        p = AllocationProblem(strata=strata, n=21.0)
        with pytest.raises(ValueError, match="limited"):
            brute_force_subset(p)

    def test_matches_batch_solver_on_random(self, problem_factory):
        rng = np.random.default_rng(201)
        for trial in range(150):
            K = int(rng.integers(1, 13))
            p = problem_factory(rng, K, float(rng.choice([0.1, 0.5, 0.9])))
            assert brute_force_subset(p) == rna(p).take_all


class TestKktVerify:
    def test_valid_on_solved_reference(self):
        p = table1_problem()
        res = rna(p)
        cert = kkt_verify(p, res, tol=1e-8)
        assert cert.valid
        assert_one_rule(cert)
        assert cert.mu == pytest.approx(1.0 / res.s_final**2, rel=1e-12)
        assert all(v >= 0 for v in cert.lam.values())
        assert set(cert.residuals) == {"stationarity", "primal", "complementary"}
        # bound multipliers vanish off the take-all set
        for st in p.strata:
            if st.label not in res.take_all:
                assert cert.lam[st.label] == 0.0

    def test_simple_pair(self):
        # x = (1, 2) solves a = (1, 1), b = (1, 100), n = 3; mu = 1/4
        p = small([1, 1], [1, 100], 3)
        res = rna(p)
        assert res.x[0] == 1.0
        assert res.x[1] == pytest.approx(2.0)
        cert = kkt_verify(p, res, tol=1e-10)
        assert cert.valid
        assert cert.mu == pytest.approx(0.25)

    def test_invalid_on_perturbed_allocation(self):
        p = table1_problem()
        res = rna(p)
        x = dict(res.x)
        x[1] += 2.0
        x[3] -= 2.0
        bad = AllocationResult(
            x=x,
            take_all=res.take_all,
            s_final=res.s_final,
            iterations=res.iterations,
            trace=res.trace,
            algorithm=res.algorithm,
        )
        cert = kkt_verify(p, bad, tol=1e-8)
        assert not cert.valid
        assert cert.residuals["stationarity"] > 1e-8
        assert_one_rule(cert)
        assert "stationarity" in cert.failed

    def test_invalid_on_wrong_take_all(self):
        p = table1_problem()
        wrong = v_allocation(p, {6, 17}, algorithm="v_allocation")
        cert = kkt_verify(p, wrong, tol=1e-8)
        assert not cert.valid
        # strata 2 and 15 are scaled past their bounds, a primal violation
        assert cert.residuals["primal"] > 1e-8
        assert_one_rule(cert)
        assert "primal" in cert.failed

    def test_census_multiplier(self):
        p = small([3, 4], [5, 6], 11)
        res = rna(p)
        cert = kkt_verify(p, res, tol=1e-8)
        assert cert.valid
        assert_one_rule(cert)
        cs = [st.c for st in p.strata]
        assert cert.mu == pytest.approx(min(c * c for c in cs))

    def test_tol_validation(self):
        p = small([1, 1], [1, 100], 3)
        with pytest.raises(ValueError):
            kkt_verify(p, rna(p), tol=0.0)

    @pytest.mark.parametrize(
        "a,b,n",
        [
            ((1e200, 1e200), (1e10, 1e10), 1),  # s = 5e-201: s**2 underflows
            ((1e-160, 1e-160), (1e10, 1e10), 1),  # s = 5e159: 1/s**2 underflows
            ((1e160, 1.0), (1.0, 10.0), 5),  # c**2 overflows on the take-all set
        ],
    )
    def test_valid_at_extreme_scales(self, a, b, n):
        p = small(a, b, n)
        res = rna(p)
        assert kkt_verify(p, res).valid
        assert_one_rule(kkt_verify(p, res))
        for label in p.labels:
            for factor in (1 + 1e-6, 1 - 1e-6):
                x = dict(res.x)
                x[label] *= factor
                bad = AllocationResult(
                    x=x, take_all=res.take_all, s_final=res.s_final, iterations=1, trace=(), algorithm="x"
                )
                assert not kkt_verify(p, bad).valid, (label, factor)
                assert_one_rule(kkt_verify(p, bad))

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0, 1e308])
    def test_bad_values_invalid_without_raising(self, value):
        p = small([1, 1], [1, 100], 3)
        res = rna(p)
        x = {0: value, 1: 1e308}  # value = 1e308 makes sum(x) overflow
        bad = AllocationResult(x=x, take_all=res.take_all, s_final=res.s_final, iterations=1, trace=(), algorithm="x")
        assert not kkt_verify(p, bad).valid
        assert kkt_verify(p, bad).failed == ("stationarity", "primal", "complementary")

    def test_nan_residual_fails(self):
        residuals = {"stationarity": math.nan, "primal": 0.0, "complementary": 2e-8}
        cert = KktCertificate(mu=1.0, lam={}, residuals=residuals, tol=1e-8)
        assert cert.failed == ("stationarity", "complementary")
        assert not cert.valid
        assert KktCertificate(mu=1.0, lam={}, residuals={"primal": 1e-8}, tol=1e-8).valid

    def test_large_scale_tamper_names_stationarity(self):
        # s = 1e5 and mu = 1e-10: moving mass between strata that share a
        # and b breaks a_w * s / x_w = 1 by a third and by one, however
        # small the gap reads against mu
        p = small([1, 1], [1e9, 1e9], 2e5)
        bad = AllocationResult(
            x={0: 1.5e5, 1: 0.5e5}, take_all=frozenset(), s_final=1e5, iterations=1, trace=(), algorithm="x"
        )
        cert = kkt_verify(p, bad)
        assert cert.residuals["stationarity"] >= 0.5
        assert cert.failed == ("stationarity",)
        assert cert.mu == pytest.approx(1e-10, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_one_rule_on_random_allocations(self, problem_factory, scale):
        # solved, perturbed in one stratum, and with mass moved between two
        rng = np.random.default_rng(211)
        for trial in range(60):
            base = problem_factory(rng, int(rng.integers(1, 13)), float(rng.choice([0.1, 0.5, 0.9])))
            p = AllocationProblem(
                strata=tuple(Stratum(label=st.label, a=st.a * scale, b=st.b) for st in base.strata), n=base.n
            )
            res = rna(p)
            cert = kkt_verify(p, res)
            assert cert.valid, trial
            assert_one_rule(cert)
            i, j = (int(k) for k in rng.integers(0, p.size, 2))
            delta = float(rng.choice([1e-10, 1e-6, 1e-2])) * res.x[i]
            for moves in ({i: delta}, {i: delta, j: -delta}):
                x = dict(res.x)
                for k, d in moves.items():
                    x[k] += d
                bad = AllocationResult(
                    x=x, take_all=res.take_all, s_final=res.s_final, iterations=1, trace=(), algorithm="x"
                )
                assert_one_rule(kkt_verify(p, bad))


class TestBisection:
    def test_simple_pair(self):
        p = small([1, 1], [1, 100], 3)
        res = bisection_multiplier(p, tol=1e-12)
        assert res.x[0] == pytest.approx(1.0, rel=1e-9)
        assert res.x[1] == pytest.approx(2.0, rel=1e-9)
        assert res.take_all == frozenset({0})
        assert res.algorithm == "bisection"
        assert res.trace == ()

    def test_take_all_heavy_bracket(self):
        # most of n sits in a bound stratum; the multiplier is far below
        # any naive starting window centered on (sum a / n)**2
        p = small([10, 1], [1, 1000], 500)
        res = bisection_multiplier(p, tol=1e-12)
        exact = rna(p)
        for w in p.labels:
            assert res.x[w] == pytest.approx(exact.x[w], rel=1e-9)
        assert res.take_all == frozenset({0})

    def test_low_budget_bracket(self):
        # no stratum near its bound; the multiplier is far above max(c)**2
        p = small([1, 1], [100, 100], 10)
        res = bisection_multiplier(p, tol=1e-12)
        assert res.x[0] == pytest.approx(5.0, rel=1e-9)
        assert res.x[1] == pytest.approx(5.0, rel=1e-9)
        assert res.take_all == frozenset()

    def test_census(self):
        p = small([3, 4], [5, 6], 11)
        res = bisection_multiplier(p, tol=1e-12)
        assert res.x == {0: 5.0, 1: 6.0}
        assert res.s_final == 0.0

    def test_extreme_spread(self):
        p = power_problem(5000.0)
        res = bisection_multiplier(p, tol=1e-12)
        exact = rna(p)
        assert res.take_all == exact.take_all
        for w in p.labels:
            assert res.x[w] == pytest.approx(exact.x[w], rel=1e-9)

    def test_matches_batch_solver_on_random(self, problem_factory):
        rng = np.random.default_rng(202)
        for trial in range(150):
            K = int(rng.integers(1, 13))
            p = problem_factory(rng, K, float(rng.choice([0.1, 0.5, 0.9])))
            res = bisection_multiplier(p, tol=1e-12)
            exact = rna(p)
            for w in p.labels:
                assert res.x[w] == pytest.approx(exact.x[w], rel=1e-9)

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            bisection_multiplier(small([1, 1], [1, 100], 3), tol=-1.0)

    @pytest.mark.parametrize(
        "a,b,n",
        [
            ((1e200, 1e200), (1e10, 1e10), 1),  # s = 5e-201: mu = s**-2 overflows
            ((1e-160, 1e-160), (1e10, 1e10), 1),  # s = 5e159: mu = s**-2 underflows
        ],
    )
    def test_extreme_scales_match_batch_solver(self, a, b, n):
        p = small(a, b, n)
        res = bisection_multiplier(p, tol=1e-12)
        exact = rna(p)
        assert res.take_all == exact.take_all
        assert res.s_final == pytest.approx(exact.s_final, rel=1e-9)
        for w in p.labels:
            assert res.x[w] == pytest.approx(exact.x[w], rel=1e-9)

    def test_unrepresentable_scale_names_s(self):
        # s = n / sum a = 5e-401 is below the float range
        with pytest.raises(ValueError, match="scale s"):
            bisection_multiplier(small([1e100, 1e100], [1, 1], 1e-300))


class TestGreedyInteger:
    def test_hand_example(self):
        # marginal gains: stratum 0 keeps winning until 4/2 balance
        p = small([2, 1], [10, 10], 6)
        res = greedy_integer_optimal(p)
        assert res.x == {0: 4.0, 1: 2.0}
        assert res.algorithm == "greedy_integer"
        assert res.s_final == 0.0
        assert res.trace == ()

    def test_census(self):
        p = small([3, 4], [5, 6], 11)
        res = greedy_integer_optimal(p)
        assert res.x == {0: 5.0, 1: 6.0}
        assert res.take_all == frozenset({0, 1})

    def test_preconditions(self):
        with pytest.raises(ValueError, match="n >= K"):
            greedy_integer_optimal(small([1, 1, 1], [5, 5, 5], 2))
        with pytest.raises(ValueError, match="integer n"):
            greedy_integer_optimal(small([1, 1], [5, 5], 3.5))
        with pytest.raises(ValueError, match="integer bounds"):
            greedy_integer_optimal(small([1, 1], [5.5, 5], 3))

    def test_respects_bounds(self):
        p = small([100, 1], [3, 50], 20)
        res = greedy_integer_optimal(p)
        assert res.x[0] == 3.0
        assert res.x[1] == 17.0
        assert res.take_all == frozenset({0})

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(203)
        for trial in range(25):
            K = int(rng.integers(1, 5))
            b = rng.integers(1, 9, K)
            lo, hi = K, int(min(25, b.sum()))
            n = int(rng.integers(lo, hi + 1)) if hi > lo else lo
            a = rng.uniform(0.1, 10.0, K)
            p = small(a, b, n)
            res = greedy_integer_optimal(p)
            best = None
            for combo in itertools.product(*(range(1, int(bi) + 1) for bi in b)):
                if sum(combo) == n:
                    obj = math.fsum(a[i] * a[i] / combo[i] for i in range(K))
                    best = obj if best is None else min(best, obj)
            assert objective(p, res.x) == best

    def test_never_worse_than_continuous(self, problem_factory):
        rng = np.random.default_rng(204)
        for trial in range(50):
            K = int(rng.integers(1, 9))
            p0 = problem_factory(rng, K, 0.5)
            n = max(K, round(p0.n))
            b = tuple(float(math.ceil(st.b)) for st in p0.strata)
            p = AllocationProblem(
                strata=tuple(
                    Stratum(label=st.label, a=st.a, b=bv) for st, bv in zip(p0.strata, b)
                ),
                n=float(n),
            )
            res = greedy_integer_optimal(p)
            cont = rna(p)
            assert objective(p, res.x) >= objective(p, cont.x) - 1e-9

    def test_matches_heap_reference_fuzz(self):
        checked = 0
        for p in greedy_fuzz_problems(seed=205, count=2500):
            assert greedy_integer_optimal(p) == heap_greedy_result(p), p
            checked += 1
        assert checked == 2500

    def test_variance_table_uses_exact_integer_optimum(self, monkeypatch):
        pop = lognormal_population(PopulationSpec(kind="lognormal_blocks", seed=0, block_count=10))
        seen = []

        def recording(problem):
            result = greedy_integer_optimal(problem)
            seen.append((problem, result))
            return result

        monkeypatch.setattr(rounding, "greedy_integer_optimal", recording)
        fractions = (0.1, 0.2, 0.3, 0.4, 0.5)
        reports = rounding.variance_table(pop.N, pop.S, fractions)
        assert [p.n for p, _ in seen] == [float(r.n) for r in reports]
        for (problem, result), report in zip(seen, reports):
            expected = heap_greedy_result(problem)
            assert result == expected
            assert report.d2_integer == srswor_variance(pop.N, pop.S, expected.x)

    def test_exchange_optimal_for_large_bounds(self):
        # bounds up to 1e15, far beyond what the heap reference can grant unit
        # by unit: no unit left out may gain more than a granted unit loses
        rng = np.random.default_rng(206)
        for trial in range(300):
            K = int(rng.integers(1, 13))
            b = np.floor(10.0 ** rng.uniform(0.0, 15.0, K))
            a = 10.0 ** rng.uniform(-200.0, 200.0, K) if trial % 2 else rng.uniform(0.1, 10.0, K)
            n = K + int(rng.uniform() * (min(int(b.sum()), 2**53) - K))
            p = small(a, b, n)
            res = greedy_integer_optimal(p)
            x = [res.x[w] for w in p.labels]
            assert all(xv == int(xv) for xv in x)
            counts = [int(xv) for xv in x]
            assert sum(counts) == n
            assert all(1 <= c <= bw for c, bw in zip(counts, b))
            squares = [float(aw) * float(aw) for aw in a]

            def gain(w, k):  # the gain of stratum w's (k+1)-th unit, as the heap ranks it
                return squares[w] / (k * (k + 1.0))

            add = [gain(w, c) for w, c in enumerate(counts) if c < b[w]]
            remove = [gain(w, c - 1) for w, c in enumerate(counts) if c > 1]
            if add and remove:
                assert max(add) <= min(remove), (trial, list(a), list(b), n)
            assert res.take_all == frozenset(w for w, c, bw in zip(p.labels, counts, b) if c == bw)

    def test_count_limit(self):
        p = small([1, 1], [2.0**53, 2.0**53], 2.0**53 + 2)
        with pytest.raises(ValueError, match="2\\*\\*53"):
            greedy_integer_optimal(p)
