import ast
import dataclasses
import itertools
import math
from itertools import compress
from operator import ge, mul
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_equals_eager, heap_greedy_counts, small, solve_mix_problem
from stratalloc import integer, oracles
from stratalloc.formats import population_maps_from_rows
from stratalloc.oracles import _BRUTE_FORCE_MAX
from stratalloc import (
    AllocationProblem,
    AllocationResult,
    KktCertificate,
    LabelMismatchError,
    StrataColumns,
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


def large_bound_problems(seed, count):
    """Random integer problems, K in 1..12, with bounds 10**U(0, 15) floored
    and n uniform between K and min(sum(b), 2**53); a is U(0.1, 10) in even
    trials and 10**U(-200, 200) in odd ones."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        K = int(rng.integers(1, 13))
        b = np.floor(10.0 ** rng.uniform(0.0, 15.0, K))
        a = 10.0 ** rng.uniform(-200.0, 200.0, K) if trial % 2 else rng.uniform(0.1, 10.0, K)
        n = K + int(rng.uniform() * (min(int(b.sum()), 2**53) - K))
        yield small(a, b, n)


def numpy_brute_force(problem):
    """brute_force_subset as it was written over numpy subset sums (doubling)
    and bit masks, kept as the oracle of the plain search."""
    K = problem.size
    if K > _BRUTE_FORCE_MAX:
        raise ValueError(f"exhaustive search limited to {_BRUTE_FORCE_MAX} strata, got {K}")
    if problem.is_census:
        return frozenset(problem.labels)
    import numpy as np

    a, b = map(np.array, problem.columns.lists)
    c = a / b
    # subset sums via doubling: index bit i set <=> stratum i in the subset
    sum_a = np.zeros(1)
    sum_b = np.zeros(1)
    for i in range(K):
        sum_a = np.concatenate([sum_a, sum_a + a[i]])
        sum_b = np.concatenate([sum_b, sum_b + b[i]])
    denom = a.sum() - sum_a
    full = (1 << K) - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (problem.n - sum_b) / denom
    shifts = np.arange(K)
    candidates: list[int] = []
    for start in range(0, full + 1, 1 << 16):
        masks = np.arange(start, min(start + (1 << 16), full + 1), dtype=np.int64)
        bits = ((masks[:, None] >> shifts) & 1).astype(bool)
        member = (c[None, :] * s[masks][:, None]) >= 1.0
        ok = (bits == member).all(axis=1) & (s[masks] > 0) & (masks != full)
        candidates.extend(int(m) for m in masks[ok])
    if not candidates:
        raise RuntimeError("no subset satisfies the fixed-point condition")

    def key(m: int) -> tuple:
        # smallest cardinality first, then earliest strata
        idx = tuple(i for i in range(K) if m >> i & 1)
        return (len(idx), idx)

    best = min(candidates, key=key)
    return frozenset(problem.labels[i] for i in range(K) if best >> i & 1)


def tie_free(problem, rel=1e-9):
    """True when, for every proper subset V, the budget n - sum_V b and every
    c_w * s(V) - 1 are more than rel away from 0 (relative to n and to 1), so
    that no rounding of the sums can decide a membership."""
    a, b = map(np.array, problem.columns.lists)
    K = len(a)
    bits = ((np.arange((1 << K) - 1)[:, None] >> np.arange(K)) & 1).astype(bool)
    budget = problem.n - bits @ b
    s = budget / (a.sum() - bits @ a)
    return bool(np.all(np.abs(budget) > rel * problem.n) and np.all(np.abs(np.outer(s, a / b) - 1.0) > rel))


class TestBruteForce:
    def test_reference_problem(self):
        p = table1_problem()
        assert brute_force_subset(p) == frozenset({2, 6, 15, 17})

    def test_power_problem(self):
        p = power_problem(5000.0)
        assert brute_force_subset(p) == rna(p).take_all

    def test_sums_that_cancel(self):
        # sum(a) - sum_V a cancels when V holds the largest a; correctly
        # rounded sums keep s(V), where the numpy subset sums returned {2..7}
        p = small([10.0 ** (3 * w) for w in range(1, 9)], [1000] * 8, 7500)
        assert brute_force_subset(p) == rna(p).take_all == frozenset(range(1, 8))

    @pytest.mark.parametrize(
        "a,b,n,v",
        [
            # s(V) overflows: x off V is 1e10 - 0.5, but s({1}) = (1e10 - 0.5) / 1e-300
            ((1e-300, 1e10), (1e10, 1.0), 1e10 + 0.5, {1}),
            # s(V) underflows: s(emptyset) = 1e-300 / 2e100 rounds to 0.0
            ((1e100, 1e100), (1.0, 1.0), 1e-300, set()),
        ],
        ids=["s_overflows", "s_underflows"],
    )
    def test_extreme_scales(self, a, b, n, v):
        # decided from A / B, never from a product c_w * s(V) that leaves the floats
        assert brute_force_subset(small(a, b, n)) == frozenset(v)

    def test_census(self):
        p = small([3, 4], [5, 6], 11)
        assert brute_force_subset(p) == frozenset({0, 1})

    def test_size_limit(self):
        strata = tuple(Stratum(label=i, a=1.0, b=10.0) for i in range(21))
        p = AllocationProblem(strata=strata, n=21.0)
        with pytest.raises(ValueError, match="limited"):
            brute_force_subset(p)

    @pytest.mark.parametrize("n", [15000.0, 19000.0, 19999.0])
    def test_large_take_all_sets(self, n):
        # |V| = 14, 18 and 19 of 20: sizes from both ends reach them early
        p = power_problem(n)
        assert brute_force_subset(p) == rna(p).take_all

    def test_matches_numpy_search(self):
        problems = [table1_problem(), power_problem(5000.0)]
        rng = np.random.default_rng(209)
        while len(problems) < 502:
            K = int(rng.integers(1, 13))
            b = rng.uniform(1.0, 100.0, K)
            p = small(rng.uniform(0.1, 10.0, K), b, rng.uniform(0.05, 0.95) * b.sum())
            if tie_free(p):
                problems.append(p)
        for p in problems:
            assert brute_force_subset(p) == numpy_brute_force(p), p

    def test_matches_batch_solver_on_random(self, problem_factory):
        rng = np.random.default_rng(201)
        for trial in range(150):
            K = int(rng.integers(1, 13))
            p = problem_factory(rng, K, float(rng.choice([0.1, 0.5, 0.9])))
            assert brute_force_subset(p) == rna(p).take_all


def numpy_kkt(problem, result):
    """(mu, lam, residuals) of kkt_verify as it was written over float64
    arrays, kept as the oracle of the list form."""
    from stratalloc import s_of

    labels = problem.labels
    x = np.array([result.x[label] for label in labels], dtype=np.float64)
    a, b = map(np.array, problem.columns.lists)
    v = result.take_all
    census = len(v) == problem.size
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        c = a / b
        cc = c * c
        if census:
            mu = float(cc.min())
            s = math.inf
        else:
            s = s_of(problem, v)
            ss = s * s
            mu = 1.0 / ss if s > 0 and ss else math.inf
        if not (s > 0 and ((x > 0) & (x < math.inf)).all()):
            return mu, dict.fromkeys(labels, 0.0), dict.fromkeys(("stationarity", "primal", "complementary"), math.inf)
        on = np.fromiter(map(v.__contains__, labels), bool, problem.size)
        lam = np.where(on, cc - mu, 0.0)
        on_term = 0.0 if census else 1.0 - c * s
        stat = np.where(on, on_term, np.abs(a * s / x - 1.0)).max(initial=0.0)
        comp = (np.abs(x - b) / b).max(initial=0.0, where=on)
        bound = ((x - b) / b).max(initial=0.0)
    try:
        total = math.fsum(x.tolist())
    except OverflowError:
        total = math.inf
    primal = max(abs(total - problem.n) / max(1.0, problem.n), float(bound))
    residuals = {"stationarity": float(stat), "primal": primal, "complementary": float(comp)}
    return mu, dict(zip(labels, lam.tolist())), residuals


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

    def test_lazy_lam_equals_eager_certificate(self):
        # a certificate whose lam is not yet read compares, copies, pickles,
        # prints and converts as one built with lam by the public
        # constructor; min_bound_multiplier reads min(lam.values()) from
        # the list, which is below 0 for a V that holds a stratum the
        # optimum leaves out
        p = table1_problem()
        for res, negative in ((rna(p), False), (v_allocation(p, [1, 2, 6]), True)):
            read = kkt_verify(p, res)
            eager = KktCertificate(*(getattr(read, field.name) for field in dataclasses.fields(KktCertificate)))

            def unread():
                cert = kkt_verify(p, res)
                assert "lam" not in vars(cert)
                return cert

            assert_equals_eager(unread, eager)
            assert list(eager.lam) == list(p.labels)
            assert unread().min_bound_multiplier == eager.min_bound_multiplier == min(eager.lam.values())
            assert (eager.min_bound_multiplier < 0) == negative

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
        wrong = v_allocation(p, {6, 17})
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

    def test_labels_in_any_order(self):
        p = table1_problem()
        res = rna(p)
        flipped = AllocationResult(
            x=dict(reversed(res.x.items())),
            take_all=res.take_all,
            s_final=res.s_final,
            iterations=res.iterations,
            trace=res.trace,
            algorithm=res.algorithm,
        )
        assert kkt_verify(p, flipped) == kkt_verify(p, res)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda x: {**x, 21: 1.0},  # an extra label
            lambda x: {w: v for w, v in x.items() if w != 20},  # a missing label
            lambda x: {(21 if w == 20 else w): v for w, v in x.items()},  # one renamed
        ],
        ids=["extra", "missing", "renamed"],
    )
    def test_label_mismatch(self, edit):
        p = table1_problem()
        res = rna(p)
        wrong = AllocationResult(
            x=edit(res.x),
            take_all=res.take_all,
            s_final=res.s_final,
            iterations=res.iterations,
            trace=res.trace,
            algorithm=res.algorithm,
        )
        with pytest.raises(LabelMismatchError, match="labels do not match"):
            kkt_verify(p, wrong)

    @pytest.mark.parametrize("size", [4, 20], ids=["partial", "census-sized"])
    def test_unknown_take_all_label(self, size):
        # one label of take_all is not the problem's, whatever the set's size
        p = table1_problem()
        res = rna(p)
        take_all = frozenset([*p.labels[: size - 1], "stranger"])
        wrong = AllocationResult(
            x=res.x,
            take_all=take_all,
            s_final=res.s_final,
            iterations=res.iterations,
            trace=res.trace,
            algorithm=res.algorithm,
        )
        with pytest.raises(LabelMismatchError, match="^take-all labels do not match the problem$"):
            kkt_verify(p, wrong)

    def test_shares_no_code_with_the_kernel(self):
        # the oracles, and the integer one in its own module, take only the
        # problem and result types, and the record base, which holds no
        # solver or filter code, from model
        allowed = {"AllocationProblem", "AllocationResult", "Label", "_Record"}
        for module, names in ((oracles, allowed), (integer, {"AllocationProblem", "AllocationResult"})):
            tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
            taken = {
                alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "model"
                for alias in node.names
            }
            assert taken == names <= allowed, module.__name__
            imported = {
                node.module
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
            }
            assert imported == {"model"}, module.__name__

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

    def test_bound_overshoot_is_relative_below_one(self):
        # x_0 = 5 * b_0 with b_0 = 1e-300: the overshoot is 4 bounds, not
        # 4e-300 units; only the primal condition is broken
        p = small([1, 1], [1e-300, 1], 1e-299)
        bad = AllocationResult(
            x={0: 5e-300, 1: 5e-300}, take_all=frozenset(), s_final=5e-300, iterations=1, trace=(), algorithm="x"
        )
        cert = kkt_verify(p, bad)
        assert cert.residuals["primal"] == pytest.approx(4.0, rel=1e-12)
        assert cert.failed == ("primal",)
        assert_one_rule(cert)
        # the optimum: stratum 0 at its bound, the rest of n on stratum 1
        res = rna(p)
        assert res.take_all == {0} and res.x == {0: 1e-300, 1: 9e-300}
        good = kkt_verify(p, res)
        assert good.valid and good.failed == ()

    def test_census_with_underflowing_priority(self):
        # c_0 = 5e-324 / 1e10 underflows to 0 and the census s is inf; mu =
        # min c**2 = 0 keeps every bound multiplier nonnegative
        p = small([5e-324, 1], [1e10, 1], 1e10 + 1)
        assert p.is_census
        res = rna(p)
        cert = kkt_verify(p, res)
        assert cert.failed == ()
        assert cert.valid
        assert cert.residuals["stationarity"] == 0.0
        assert cert.mu == 0.0
        assert_one_rule(cert)

    def test_nan_term_is_reported(self):
        # c_u = 5e-324 / 1e10 underflows to 0 on V while s(V) = 1e9 / 1e-300
        # overflows: the on-V term 1 - c_u * s is nan, and the residual is nan
        # rather than the inf of the off-V term
        p = AllocationProblem((Stratum("u", 5e-324, 1e10), Stratum("v", 1e-300, 1e10)), 1e10 + 1e9)
        res = AllocationResult(
            x={"u": 1e10, "v": 1e9}, take_all=frozenset({"u"}), s_final=math.inf, iterations=1, trace=(), algorithm="x"
        )
        cert = kkt_verify(p, res)
        assert math.isnan(cert.residuals["stationarity"])
        assert cert.failed == ("stationarity",)
        assert repr(cert.residuals) == repr(numpy_kkt(p, res)[2])

    def test_matches_numpy_reference(self, problem_factory):
        # solved, perturbed and wrong-V allocations at three scales and near
        # the census: every residual, mu and lam bit for bit
        rng = np.random.default_rng(212)
        for trial in range(400):
            scale = float(rng.choice([1e-150, 1.0, 1e150]))
            base = problem_factory(rng, int(rng.integers(1, 13)), float(rng.choice([0.1, 0.5, 0.9, 0.999999])))
            p = AllocationProblem(
                strata=tuple(Stratum(label=st.label, a=st.a * scale, b=st.b) for st in base.strata), n=base.n
            )
            res = rna(p)
            i = int(rng.integers(p.size))
            x = dict(res.x)
            x[i] *= 1 + float(rng.choice([-1e-3, 1e-9, 1e-3, 2.0]))
            for take_all, xs in ((res.take_all, res.x), (res.take_all, x), (res.take_all ^ {i}, res.x)):
                alloc = AllocationResult(x=xs, take_all=take_all, s_final=0.0, iterations=1, trace=(), algorithm="x")
                cert = kkt_verify(p, alloc)
                assert repr((cert.mu, cert.lam, cert.residuals)) == repr(numpy_kkt(p, alloc)), trial

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

    def test_unmeetable_tol_names_tol_and_gap(self):
        # the float bisection ends 1.137e-13 from n, above tol * n = 6.3e-14
        p = small([11.503491796281205, 38.01020015485263], [638.2004946640785, 211.01109369659162], 626.2499434014056)
        message = r"^tol = 1e-16 cannot be met: the bisection ends at \|total - n\| = 1\.137e-13 > tol \* n$"
        with pytest.raises(ValueError, match=message):
            bisection_multiplier(p, tol=1e-16)
        assert bisection_multiplier(p, tol=1e-15).s_final == 36.09676583931242

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


def numpy_units_above(A: np.ndarray, u: np.ndarray, t: float) -> np.ndarray:
    """Per stratum, how many of its units 1..u_w have a gain above t.

    The gain of a stratum's (k+1)-th unit is A_w / (k * (k + 1.0)), the float
    expression the integer optimum ranks by; it does not increase with k, so
    the count is the largest k in [0, u_w] whose gain exceeds t (k = 0 always
    qualifies). The root of k * (k + 1) = A_w / t gives an estimate; a window
    of one unit around it is confirmed with the float expression itself and
    widened to the whole range [0, u_w] where it fails, then the window is
    bisected. Counts are whole float64 values.
    """

    import numpy as np

    def above(k: np.ndarray) -> np.ndarray:
        return (k == 0.0) | ((k <= u) & (A / (k * (k + 1.0)) > t))

    est = np.floor(np.sqrt(A / t + 0.25) - 0.5)
    est = np.minimum(np.fmax(est, 0.0), u)  # fmax sends the nan of 0/0 or inf/inf to 0
    lo = np.maximum(est - 1.0, 0.0)
    hi = np.minimum(est + 1.0, u)
    lo = np.where(above(lo), lo, 0.0)
    hi = np.where(above(hi + 1.0), u, hi)
    # invariant: above(lo) and not above(hi + 1)
    while (lo < hi).any():
        mid = lo + np.floor((hi - lo + 1.0) * 0.5)
        ok = above(mid)
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid - 1.0)
    return lo


INF_BITS = 0x7FF0000000000000  # bit pattern of +inf; non-negative floats order as their bits


def lognormal_problems(seed, blocks):
    """The integer problems of roundcmp on genpop's lognormal population:
    a = N * S, b = N and n = round(f * sum(N)) at f = 0.1 to 0.5."""
    N_map, S_map = population_maps_from_rows(lognormal_population(seed=seed, block_count=blocks))
    N = [float(v) for v in N_map.values()]
    S = list(S_map.values())
    strata = StrataColumns(list(N_map), map(mul, N, S), N, S)
    return [AllocationProblem(strata, float(round(f * sum(N)))) for f in (0.1, 0.2, 0.3, 0.4, 0.5)]


def numpy_greedy(problem: AllocationProblem) -> AllocationResult:
    """Exact integer-valued optimum by threshold selection on marginal gains.

    greedy_integer_optimal as it was written over float64 arrays, kept as
    the oracle of the list form.

    Requires integer n and bounds with K <= n <= 2**53 (every stratum must
    receive at least one unit for the objective to be finite, and every count
    must be exact in a float). Each stratum starts at x_w = 1; its (k+1)-th
    unit lowers the objective by the gain a_w**2/k - a_w**2/(k + 1), ranked as
    the float (a_w * a_w) / (k * (k + 1.0)). The gains do not increase with k,
    so granting the n - K largest gains is exchange-optimal, and it is what a
    greedy that grants one unit at a time to the largest gain would do.

    The threshold t is the (n - K)-th largest gain among the units 2..b_w of
    all strata. It is found by bisection over the bit patterns of the
    non-negative floats, whose order is the order of the values: at most 63
    steps, each one O(K) vector pass that counts the units with gain above a
    probe, stopping early once exactly n - K units lie above the lower end.
    Every stratum receives all its units with gain above t. The units with
    gain exactly t are ties; they go to the earliest stratum first, and each
    stratum takes all of its tied units before the next one gets any, which
    is the order of a greedy that breaks ties by stratum index, so the result
    is deterministic. take_all holds the strata at their bounds. s_final is
    reported as 0.0: an integer allocation has no continuous scale.
    """
    import numpy as np

    K = problem.size
    n = problem.n
    if n != int(n):
        raise ValueError(f"integer allocation needs integer n, got {n!r}")
    a, b = map(np.array, problem.columns.lists)
    fractional = b != np.floor(b)
    if fractional.any():
        label = problem.labels[int(fractional.argmax())]
        raise ValueError(f"stratum {label!r}: integer allocation needs integer bounds")
    n = int(n)
    if n < K:
        raise ValueError(f"integer allocation needs n >= K, got n={n}, K={K}")
    if n > 2**53:
        raise ValueError(f"integer allocation needs n <= 2**53, got n={n}")
    m = n - K  # units to grant beyond the first of each stratum
    # units each stratum can take, capped at m <= 2**53: counts are exact
    # floats, and a float sum of counts compares with m exactly (it is exact
    # below 2**53, and a partial sum that reaches 2**53 >= m stays there)
    u = np.minimum(b - 1.0, m)
    # The counts of units with gain above the floats with bit patterns lo and
    # hi; lo = -1 stands below 0, where every unit counts. Invariant: the
    # count at lo is >= m > the count at hi. The search ends when exactly m
    # units lie above lo, or when lo and hi are adjacent floats, so that the
    # units between them are the ties at the m-th largest gain.
    lo, hi = -1, INF_BITS
    above_lo, above_hi = u, np.zeros(K)
    total_lo = u.sum()
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        A = a * a
        while total_lo > m and hi - lo > 1:
            mid = (lo + hi) // 2
            count = numpy_units_above(A, u, float(np.int64(mid).view(np.float64)))
            total = count.sum()
            if total < m:
                hi, above_hi = mid, count
            else:
                lo, above_lo, total_lo = mid, count, total
    rest = m - above_hi.sum()
    # the units with gain in (lo, hi]: the ties at the m-th largest gain, or,
    # after an early stop, exactly the rest; earlier strata take theirs first
    ties = np.minimum(above_lo - above_hi, rest)
    before = np.concatenate(([0.0], np.cumsum(ties)[:-1]))
    counts = 1.0 + above_hi + np.clip(rest - before, 0.0, ties)
    x = dict(zip(problem.labels, counts.tolist()))
    take_all = frozenset(compress(problem.labels, (counts == b).tolist()))
    return AllocationResult(
        x=x,
        take_all=take_all,
        s_final=0.0,
        iterations=1,
        trace=(),
        algorithm="greedy_integer",
    )


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
        N, S = population_maps_from_rows(lognormal_population(seed=0, block_count=10))
        seen = []

        def recording(problem):
            result = greedy_integer_optimal(problem)
            seen.append((problem, result))
            return result

        monkeypatch.setattr(rounding, "greedy_integer_optimal", recording)
        fractions = (0.1, 0.2, 0.3, 0.4, 0.5)
        reports = rounding.variance_table(N, S, fractions)
        assert [p.n for p, _ in seen] == [float(r.n) for r in reports]
        for (problem, result), report in zip(seen, reports):
            expected = heap_greedy_result(problem)
            assert result == expected
            assert report.d2_integer == srswor_variance(N, S, expected.x)

    def test_exchange_optimal_for_large_bounds(self):
        # bounds up to 1e15, far beyond what the heap reference can grant unit
        # by unit: no unit left out may gain more than a granted unit loses
        for trial, p in enumerate(large_bound_problems(seed=206, count=300)):
            a, b = p.columns.lists
            n = int(p.n)
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

    def test_matches_numpy_reference(self):
        problems = [
            *greedy_fuzz_problems(seed=207, count=2500),
            *large_bound_problems(seed=208, count=300),
            small([3, 1, 2], [4, 5, 6], 3),  # n = K
            small([3, 1, 2], [4, 5, 6], 15),  # n = sum(b)
            small([2.5], [40], 17),  # K = 1
            # a**2 = inf: no relaxation, so the probes bisect the bit patterns
            small([1e200, 1e200, 1], [100, 100, 100], 150),
            # subnormal a**2 under huge bounds: most gains are 0 and tie, more
            # of them than the heap grants, so earlier strata take theirs first
            small([1e-160, 1e-160, 3e-160], [1e15, 1e15, 1e15], 10**14),
        ]
        for blocks in (10, 100, 500):
            problems += lognormal_problems(0, blocks)
        # 500 blocks: Newton's start is solved on a strided sample of the strata
        assert problems[-1].size > integer._START_SAMPLE
        for p in problems:
            assert greedy_integer_optimal(p) == numpy_greedy(p), p

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("blocks, most", [(100, 2), (500, 3)])
    def test_relaxation_passes(self, monkeypatch, seed, blocks, most):
        # Newton starts where the relaxation's linear model meets its target,
        # so at most two passes over the strata evaluate the roots; with the
        # model solved on a strided sample (500 blocks), at most three
        steps = []
        roots = integer._roots
        monkeypatch.setattr(integer, "_roots", lambda A, t: (steps.append(t), roots(A, t))[1])
        for p in lognormal_problems(seed, blocks):
            steps.clear()
            greedy_integer_optimal(p)
            assert len(steps) <= most, p.n

    @pytest.mark.parametrize("K", [1000, 10000])
    def test_identical_strata(self, monkeypatch, K):
        # the floored relaxed sum jumps past Newton's window at one y, so the
        # relaxation stops there and the heap grants the units still short,
        # instead of bisecting y about 20 times
        steps = []
        roots = integer._roots
        monkeypatch.setattr(integer, "_roots", lambda A, t: (steps.append(t), roots(A, t))[1])
        p = small([3.0] * K, [50] * K, 20 * K + 357)
        result = greedy_integer_optimal(p)
        assert len(steps) <= 6
        assert result == heap_greedy_result(p)
        assert result == numpy_greedy(p)

    def test_relaxation_stops_where_t_leaves_the_normal_floats(self):
        # a**2 = 1e-300 under bounds of 1e15: Newton's y**2 overflows before
        # the relaxed sum reaches m, so t = 1 / y**2 would be 0; the
        # relaxation stops and the probes bisect the bit patterns instead
        p = small([1e-150, 2e-150, 3e-150], [1e15] * 3, 1.5e15)
        assert greedy_integer_optimal(p) == numpy_greedy(p)

    def test_relaxation_stops_where_its_bracket_closes(self, monkeypatch):
        # after two passes the values of y known to fall short of m and to
        # reach it lie within 2**-20 of each other, and the relaxation stops
        # there instead of making a third
        steps = []
        roots = integer._roots
        monkeypatch.setattr(integer, "_roots", lambda A, t: (steps.append(t), roots(A, t))[1])
        p = small([5, 5, 1, 5, 1], [28072644] * 5, 14341937)
        result = greedy_integer_optimal(p)
        assert len(steps) == 2
        assert result == numpy_greedy(p)

    def test_linear_start_past_the_last_capping_point(self):
        # the stride-2 sample of Newton's start holds only the b = 2 strata,
        # and its linear model meets its target only once every one of them
        # is capped: the start is the last capping point
        K = 5000
        assert K > integer._START_SAMPLE
        b = [2 if i % 2 == 0 else 50 for i in range(K)]
        p = small([1 + i % 7 for i in range(K)], b, sum(b) - 3)
        assert greedy_integer_optimal(p) == numpy_greedy(p)

    def test_count_limit(self):
        p = small([1, 1], [2.0**53, 2.0**53], 2.0**53 + 2)
        with pytest.raises(ValueError, match="2\\*\\*53"):
            greedy_integer_optimal(p)


@pytest.mark.parametrize(
    "oracle, census",
    [(bisection_multiplier, False), (bisection_multiplier, True), (greedy_integer_optimal, False)],
    ids=["bisection", "bisection_census", "greedy_integer"],
)
def test_columnar_oracle_result_equals_eager_result(oracle, census):
    # an oracle's result holds x and take_all as columns; one whose x and
    # take_all are not yet read compares, copies, pickles, prints and
    # converts as one built with them by the public constructor, and is as
    # unhashable
    p = solve_mix_problem(7, f=0.6, K=500)
    if census:
        p = AllocationProblem(p.columns, p.sum_b)
    read = oracle(p)
    eager = AllocationResult(*(getattr(read, field.name) for field in dataclasses.fields(AllocationResult)))
    assert list(eager.x) == list(p.labels) and eager.trace == ()
    assert eager.take_all == frozenset(compress(p.labels, map(ge, eager.x.values(), p.columns.lists[1])))
    assert len(eager.take_all) == p.size if census else 0 < len(eager.take_all) < p.size

    def unread():
        res = oracle(p)
        assert not {"x", "take_all"} & vars(res).keys()
        return res

    assert_equals_eager(unread, eager)
