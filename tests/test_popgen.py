import math

import numpy as np
import pytest

from stratalloc import (
    AllocationProblem,
    SurveyStratum,
    geometric_strata,
    lognormal_population,
    power_population,
    power_problem,
    stratum_sd,
    table1_problem,
)
from stratalloc.formats import population_maps_from_rows

REF_C = (
    0.33, 2.56, 0.15, 0.66, 0.15, 15.45, 1.49, 1.74, 0.30, 0.93,
    2.37, 0.36, 0.14, 0.37, 4.25, 0.39, 10.21, 0.10, 0.23, 0.51,
)


class TestFixedProblems:
    def test_reference_problem_layout(self):
        p = table1_problem()
        assert p.size == 20
        assert p.n == 8000.0
        assert p.labels == tuple(range(1, 21))
        for st, c in zip(p.strata, REF_C):
            assert st.b == 1000.0
            assert st.a == pytest.approx(1000.0 * c, rel=1e-15)

    def test_power_problem_layout(self):
        p = power_problem(5000.0)
        assert p.size == 20
        assert p.labels == tuple(range(1, 21))
        for w, st in zip(range(1, 21), p.strata):
            assert st.b == 1000.0
            assert st.a == 1000.0 * 10.0**w
        assert p.n == 5000.0

    def test_power_population_strata(self):
        pop = power_population()
        assert all(type(st) is SurveyStratum for st in pop.records)
        assert [(st.N, st.S) for st in pop.records] == [(1000, 10.0**w) for w in range(1, 21)]
        assert AllocationProblem(pop, 5000.0).strata is pop.records

    def test_power_problem_infeasible_n(self):
        from stratalloc import InfeasibleProblemError

        with pytest.raises(InfeasibleProblemError):
            power_problem(20001.0)


class TestGeometricStrata:
    def test_geometric_midpoint(self):
        vals = [1.0, 2.0, 40.0, 1024.0]
        assert geometric_strata(vals, 2) == [pytest.approx(32.0)]

    def test_uniform_values_fill_all_strata(self):
        vals = np.linspace(1.0, 100.0, 5000)
        bounds = geometric_strata(vals, 10)
        assert len(bounds) == 9
        assert all(bounds[i] < bounds[i + 1] for i in range(8))
        assert vals[0] < bounds[0] and bounds[-1] < vals[-1]
        # widths grow geometrically
        edges = [1.0] + list(bounds) + [100.0]
        widths = [edges[i + 1] - edges[i] for i in range(10)]
        assert all(widths[i] < widths[i + 1] for i in range(9))

    def test_empty_strata_merge_right(self):
        # two clusters: interior boundaries that close empty bins are dropped
        vals = sorted([1.0, 1.01, 1.02] + [1000.0, 1000.5, 1001.0])
        bounds = geometric_strata(vals, 10)
        counts = np.histogram(vals, bins=[0.0] + bounds + [np.inf])[0]
        assert (counts > 0).all()
        assert len(bounds) < 9

    def test_constant_values_degenerate(self):
        assert geometric_strata([5.0, 5.0, 5.0], 10) == []

    def test_errors(self):
        with pytest.raises(ValueError):
            geometric_strata([], 10)
        with pytest.raises(ValueError):
            geometric_strata([0.0, 1.0], 2)
        with pytest.raises(ValueError):
            geometric_strata([3.0, 1.0], 2)
        with pytest.raises(ValueError):
            geometric_strata([1.0, 2.0], 0)


class TestStratumSd:
    def test_two_values(self):
        assert stratum_sd([0.0, 2.0]) == pytest.approx(math.sqrt(2.0))

    def test_needs_two(self):
        with pytest.raises(ValueError):
            stratum_sd([1.0])

    def test_matches_analytic_lognormal_sd(self):
        rng = np.random.default_rng(42)
        sigma = math.log(2.0)
        vals = rng.lognormal(0.0, sigma, 10000)
        analytic = math.sqrt((math.exp(sigma**2) - 1) * math.exp(sigma**2))
        assert stratum_sd(vals) == pytest.approx(analytic, rel=0.05)


@pytest.fixture(scope="module")
def pop():
    return lognormal_population(seed=1, block_count=12)


class TestLognormalPopulation:
    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError, match="^seed must fit in 64 unsigned bits$"):
            lognormal_population(seed=-1)
        with pytest.raises(ValueError, match="^seed must fit in 64 unsigned bits$"):
            lognormal_population(seed=2**64)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError, match="^block_count must be positive$"):
            lognormal_population(block_count=0)

    def test_deterministic(self, pop):
        again = lognormal_population(seed=1, block_count=12)
        assert again.records == pop.records

    def test_seed_changes_population(self, pop):
        other = lognormal_population(seed=2, block_count=12)
        assert other.records != pop.records

    def test_all_units_kept(self, pop):
        assert sum(pop.lists[1]) == 12 * 10000

    def test_stratum_count_near_ten_per_block(self, pop):
        assert 12 * 8 <= len(pop.labels) <= 12 * 10

    def test_summaries_well_formed(self, pop):
        labels = [st.label for st in pop.records]
        assert len(set(labels)) == len(labels)
        for st in pop.records:
            assert st.N >= 2
            assert st.S > 0

    def test_order_permuted(self, pop):
        labels = [st.label for st in pop.records]
        assert labels != sorted(labels)

    def test_problem_construction(self, pop):
        total_units = sum(pop.lists[1])
        n = round(0.2 * total_units)
        problem = AllocationProblem(pop, float(n))
        assert problem.size == len(pop.labels)
        assert problem.sum_b == float(total_units)
        st = problem.by_label[pop.records[0].label]
        assert st.a == pytest.approx(pop.records[0].N * pop.records[0].S, rel=1e-15)
        assert problem.strata is pop.records

    def test_maps_are_the_survey_columns(self, pop):
        N, S = population_maps_from_rows(pop)
        assert list(N) == list(pop.labels)
        assert [(N[st.label], S[st.label]) for st in pop.records] == [(st.N, st.S) for st in pop.records]
