import math
import random
from fractions import Fraction
from traceback import walk_tb

import pytest

import scpm.nullmodel as nm
from scpm import (
    ANALYTICAL,
    SIMULATION,
    ExpectedCorrelation,
    MinerConfig,
    NullModel,
    NullModelConfig,
    QuasiCliqueParams,
    SearchBudgetExceeded,
    SearchStats,
    binomial_term,
    build_index,
    covered_vertices,
    induced_view,
    load_graph,
    max_eps_exp,
    normalized_delta,
    run_scpm,
    sample_prob,
    sim_eps_exp,
)

from oracles import exact_expected_bound, random_attributed_graph

P06_4 = QuasiCliqueParams(Fraction(3, 5), 4)
CORE_GAMMAS = [Fraction(1, 3), Fraction(1, 2), Fraction(3, 5), Fraction(1)]


def reference_sim_eps_exp(g, sigma, params, cfg, *, budget, stats):
    """The estimator without the peel: search the view of every whole sample."""
    fractions_seen = {}
    values = []
    for trial in range(cfg.samples):
        rng = random.Random(nm._stream_seed(cfg.seed, sigma, trial))
        members = tuple(sorted(rng.sample(range(g.vertex_count), sigma)))
        frac = fractions_seen.get(members)
        if frac is None:
            covered = covered_vertices(induced_view(g, members), params, budget=budget, stats=stats)
            frac = len(covered) / sigma
            fractions_seen[members] = frac
        values.append(frac)
    mean = math.fsum(values) / len(values)
    if len(values) < 2:
        return mean, 0.0
    return mean, math.sqrt(math.fsum((x - mean) ** 2 for x in values) / (len(values) - 1))


class TestSampleProb:
    def test_boundaries(self):
        assert sample_prob(1, 10) == 0.0
        assert sample_prob(10, 10) == 1.0
        assert sample_prob(6, 11) == 0.5

    def test_errors(self):
        with pytest.raises(ValueError):
            sample_prob(11, 10)
        with pytest.raises(ValueError):
            sample_prob(0, 10)
        with pytest.raises(ValueError):
            sample_prob(1, 1)


class TestBinomialTerm:
    def test_certainty_cases(self):
        for alpha in (0, 1, 7, 40, 95):
            assert binomial_term(alpha, alpha, 1.0) == 1.0
            assert binomial_term(alpha, 0, 0.0) == 1.0

    def test_known_value(self):
        assert abs(binomial_term(5, 2, 0.5) - 0.3125) < 1e-15

    def test_rejects_beta_above_alpha(self):
        with pytest.raises(ValueError):
            binomial_term(3, 4, 0.5)
        with pytest.raises(ValueError):
            binomial_term(3, 2, 1.5)

    def test_rows_sum_to_one(self):
        rng = random.Random(123)
        for _ in range(300):
            alpha = rng.randint(0, 100)
            rho = rng.random()
            total = math.fsum(binomial_term(alpha, beta, rho) for beta in range(alpha + 1))
            assert abs(total - 1.0) < 1e-12

    def test_log_space_matches_exact_rational(self):
        # Degrees beyond the direct-evaluation cutoff against Fraction math.
        rng = random.Random(7)
        for _ in range(50):
            alpha = rng.randint(61, 140)
            beta = rng.randint(0, alpha)
            rho_frac = Fraction(rng.randint(1, 99), 100)
            exact = math.comb(alpha, beta) * rho_frac**beta * (1 - rho_frac) ** (alpha - beta)
            got = binomial_term(alpha, beta, float(rho_frac))
            assert got == pytest.approx(float(exact), rel=1e-9, abs=1e-300)


class TestMaxEpsExp:
    def test_sigma_equals_n(self):
        rng = random.Random(5)
        g = random_attributed_graph(rng, 30, 0.2, 2)
        counts = g.degree_counts
        got = max_eps_exp(counts, 30, P06_4, 30)
        frac_high_degree = sum(c for d, c in counts.items() if d >= P06_4.z) / 30
        assert got.value == pytest.approx(frac_high_degree, abs=1e-12)

    def test_sigma_one_is_zero(self):
        rng = random.Random(6)
        g = random_attributed_graph(rng, 20, 0.2, 2)
        counts = g.degree_counts
        assert max_eps_exp(counts, 1, P06_4, 20).value == 0.0

    def test_matches_exact_rational_oracle(self):
        rng = random.Random(99)
        for _ in range(20):
            n = rng.randint(10, 60)
            g = random_attributed_graph(rng, n, rng.choice([0.1, 0.3]), 2)
            counts = g.degree_counts
            sigma = rng.randint(1, n)
            params = QuasiCliqueParams(
                rng.choice([Fraction(1, 2), Fraction(3, 5)]), rng.choice([3, 4, 5])
            )
            expected = exact_expected_bound(counts, n, sigma, params.gamma_min, params.min_size)
            got = max_eps_exp(counts, sigma, params, n)
            assert got.value == pytest.approx(float(expected), abs=1e-10)
            assert 0.0 <= got.value <= 1.0

    def test_monotone_in_sigma(self):
        rng = random.Random(400)
        g = random_attributed_graph(rng, 40, 0.15, 2)
        counts = g.degree_counts
        values = [max_eps_exp(counts, s, P06_4, 40).value for s in range(1, 41)]
        for a, b in zip(values, values[1:]):
            assert a <= b + 1e-15


class TestSimEpsExp:
    def test_full_support_has_zero_std(self):
        rng = random.Random(8)
        g = random_attributed_graph(rng, 15, 0.3, 2)
        cfg = NullModelConfig(kind=SIMULATION, samples=25, seed=3)
        got = sim_eps_exp(g, 15, P06_4, cfg)
        assert got.std_dev == 0.0

    def test_below_min_size_is_zero(self):
        rng = random.Random(9)
        g = random_attributed_graph(rng, 15, 0.3, 2)
        cfg = NullModelConfig(kind=SIMULATION, samples=10, seed=1)
        got = sim_eps_exp(g, 3, P06_4, cfg)
        assert got.value == 0.0

    def test_deterministic_bit_for_bit(self):
        rng = random.Random(10)
        g = random_attributed_graph(rng, 25, 0.25, 2)
        cfg = NullModelConfig(kind=SIMULATION, samples=50, seed=42)
        a = sim_eps_exp(g, 12, P06_4, cfg)
        b = sim_eps_exp(g, 12, P06_4, cfg)
        assert a == b

    def test_seed_changes_estimate(self):
        rng = random.Random(11)
        g = random_attributed_graph(rng, 25, 0.3, 2)
        a = sim_eps_exp(g, 12, P06_4, NullModelConfig(kind=SIMULATION, samples=20, seed=1))
        b = sim_eps_exp(g, 12, P06_4, NullModelConfig(kind=SIMULATION, samples=20, seed=2))
        assert a.value != b.value or a.std_dev != b.std_dev

    def test_mean_below_analytical_bound(self):
        rng = random.Random(12)
        g = random_attributed_graph(rng, 30, 0.2, 2)
        counts = g.degree_counts
        cfg = NullModelConfig(kind=SIMULATION, samples=200, seed=5)
        for sigma in (5, 10, 20, 30):
            sim = sim_eps_exp(g, sigma, P06_4, cfg)
            bound = max_eps_exp(counts, sigma, P06_4, 30)
            slack = 3 * sim.std_dev / math.sqrt(cfg.samples)
            assert sim.value <= bound.value + slack

    def test_matches_search_of_whole_samples(self):
        rng = random.Random(31)
        scored = 0
        for _ in range(12):
            n = rng.randint(20, 40)
            g = random_attributed_graph(rng, n, rng.choice([0.1, 0.2, 0.3]), 1)
            params = QuasiCliqueParams(rng.choice(CORE_GAMMAS), rng.randint(3, 5))
            cfg = NullModelConfig(kind=SIMULATION, samples=15, seed=rng.randint(0, 99))
            for sigma in sorted(rng.sample(range(1, n + 1), 5)):
                got_stats, want_stats = SearchStats(), SearchStats()
                got = sim_eps_exp(g, sigma, params, cfg, stats=got_stats)
                want = reference_sim_eps_exp(
                    g, sigma, params, cfg, budget=nm.DEFAULT_EXPANSION_BUDGET, stats=want_stats
                )
                assert (got.value, got.std_dev) == want
                assert got_stats.expansions == want_stats.expansions
                scored += got.value > 0.0
        assert scored > 10

    def test_overflow_at_the_same_support(self):
        rng = random.Random(32)
        g = random_attributed_graph(rng, 40, 0.35, 1)
        cfg = NullModelConfig(kind=SIMULATION, samples=10, seed=4)
        outcomes = set()
        for sigma in range(4, 41, 4):
            got_stats, want_stats = SearchStats(), SearchStats()
            try:
                got = sim_eps_exp(g, sigma, P06_4, cfg, budget=40, stats=got_stats)
            except SearchBudgetExceeded:
                got = "overflow"
            try:
                want = reference_sim_eps_exp(g, sigma, P06_4, cfg, budget=40, stats=want_stats)
            except SearchBudgetExceeded:
                want = "overflow"
            if got != "overflow":
                got = (got.value, got.std_dev)
            assert got == want
            assert got_stats.expansions == want_stats.expansions
            outcomes.add(got == "overflow")
        assert outcomes == {True, False}

    def test_repeated_samples_match_search_of_whole_samples(self):
        # Near sigma = n the samples repeat, so the memo answers most of
        # them; the estimate and the expansions still equal a search of
        # every whole sample.
        rng = random.Random(33)
        repeats = 0
        for _ in range(6):
            n = rng.randint(8, 14)
            g = random_attributed_graph(rng, n, 0.6, 1)
            cfg = NullModelConfig(kind=SIMULATION, samples=30, seed=rng.randint(0, 99))
            for sigma in (n, n - 1, n - 2):
                got_stats, want_stats = SearchStats(), SearchStats()
                got = sim_eps_exp(g, sigma, P06_4, cfg, stats=got_stats)
                want = reference_sim_eps_exp(
                    g, sigma, P06_4, cfg, budget=nm.DEFAULT_EXPANSION_BUDGET, stats=want_stats
                )
                assert (got.value, got.std_dev) == want
                assert got_stats.expansions == want_stats.expansions
                samples = {
                    tuple(sorted(random.Random(nm._stream_seed(cfg.seed, sigma, t)).sample(range(n), sigma)))
                    for t in range(cfg.samples)
                }
                repeats += cfg.samples - len(samples)
                assert want_stats.expansions > 0
        assert repeats > 100

    def test_full_support_memo_searches_once(self, monkeypatch):
        # Every sample at sigma = n is the whole graph, so only the first
        # is searched.
        calls = 0

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return covered_vertices(*args, **kwargs)

        monkeypatch.setattr(nm, "covered_vertices", counted)
        rng = random.Random(8)
        g = random_attributed_graph(rng, 15, 0.5, 2)
        cfg = NullModelConfig(kind=SIMULATION, samples=25, seed=3)
        got = sim_eps_exp(g, 15, P06_4, cfg)
        assert got.value > 0.0
        assert calls == 1

    def test_samples_with_equal_survivors_are_searched_once(self, monkeypatch):
        # A 6-clique and 4 isolated vertices at sigma = n - 1: a sample
        # missing an isolated vertex keeps the whole clique after the first
        # pass, so the samples missing any of the 4 share one survivor list
        # and one search.
        clique = [f"{u} {v}" for u in range(6) for v in range(u + 1, 6)]
        g = load_graph(iter(clique), iter(f"{v}" for v in range(10)))
        cfg = NullModelConfig(kind=SIMULATION, samples=30, seed=0)
        sigma = g.vertex_count - 1
        samples = {
            tuple(sorted(random.Random(nm._stream_seed(cfg.seed, sigma, t)).sample(range(10), sigma)))
            for t in range(cfg.samples)
        }
        survivor_lists = {tuple(v for v in sample if v < 6) for sample in samples}
        assert len(survivor_lists) < len(samples)
        searched = []

        def recording(view, params, **kwargs):
            searched.append(view.members)
            return covered_vertices(view, params, **kwargs)

        monkeypatch.setattr(nm, "covered_vertices", recording)
        got = sim_eps_exp(g, sigma, P06_4, cfg)
        assert sorted(searched) == sorted(survivor_lists)
        want = reference_sim_eps_exp(
            g, sigma, P06_4, cfg, budget=nm.DEFAULT_EXPANSION_BUDGET, stats=SearchStats()
        )
        assert (got.value, got.std_dev) == want

    def test_requires_simulation_config(self):
        rng = random.Random(13)
        g = random_attributed_graph(rng, 10, 0.3, 2)
        with pytest.raises(ValueError):
            sim_eps_exp(g, 5, P06_4, NullModelConfig(kind=ANALYTICAL))


class TestNormalizedDelta:
    def test_equal_values_give_one(self):
        assert normalized_delta(0.5, ExpectedCorrelation(0.5)) == 1.0

    def test_zero_eps_gives_zero(self):
        assert normalized_delta(0.0, ExpectedCorrelation(0.0)) == 0.0
        assert normalized_delta(0.0, ExpectedCorrelation(0.3)) == 0.0

    def test_positive_over_zero_is_infinite(self):
        delta = normalized_delta(0.19, ExpectedCorrelation(0.0))
        assert math.isinf(delta)
        assert delta > 1e300

    def test_rejects_out_of_range_eps(self):
        with pytest.raises(ValueError):
            normalized_delta(1.5, ExpectedCorrelation(0.5))


class TestNullModelProvider:
    def test_memoizes_by_support(self):
        rng = random.Random(14)
        g = random_attributed_graph(rng, 20, 0.25, 2)
        model = NullModel(g, P06_4, NullModelConfig(kind=ANALYTICAL))
        first = model.expected(7)
        assert model.expected(7) is first

    def test_overflowed_support_raises_again_without_simulating(self, monkeypatch):
        # On a 16-cycle every sample of support 8 with a path of three
        # survives the peel, and its search overflows a budget of 3.
        cycle = [f"{v} {(v + 1) % 16}" for v in range(16)]
        g = load_graph(iter(cycle), iter([]))
        cfg = NullModelConfig(kind=SIMULATION, samples=5)
        model = NullModel(g, QuasiCliqueParams(Fraction(1, 2), 3), cfg, budget=3)
        simulated = []
        real = nm.sim_eps_exp

        def counting(graph, sigma, *args, **kwargs):
            simulated.append(sigma)
            return real(graph, sigma, *args, **kwargs)

        monkeypatch.setattr(nm, "sim_eps_exp", counting)
        raised = []
        for _ in range(3):
            with pytest.raises(SearchBudgetExceeded) as info:
                model.expected(8)
            raised.append(info.value)
        assert simulated == [8]
        assert len({str(e) for e in raised}) == 1 and len({id(e) for e in raised}) == 3
        # Each later raise is new, so its traceback does not grow.
        depth = [len(list(walk_tb(e.__traceback__))) for e in raised[1:]]
        assert depth[0] == depth[1]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NullModelConfig(kind="bogus")
        with pytest.raises(ValueError):
            NullModelConfig(kind=SIMULATION, samples=0)

    def test_tiny_graph_expectation_is_zero(self):
        from scpm import load_graph

        g = load_graph(iter([]), iter(["0 x"]))
        model = NullModel(g, P06_4, NullModelConfig(kind=ANALYTICAL))
        assert model.expected(1).value == 0.0

    def test_degree_histogram_only_for_the_analytical_model(self):
        # Only max_eps_exp reads the degree counts, so a simulation run
        # never counts them and an analytical run keeps them on the graph.
        g = random_attributed_graph(random.Random(15), 20, 0.25, 2)
        index = build_index(g)
        for kind in (SIMULATION, ANALYTICAL):
            cfg = MinerConfig(
                qc_params=P06_4,
                sigma_min=2,
                null_model=NullModelConfig(kind=kind, samples=3),
            )
            result = run_scpm(g, index, cfg)
            assert result.records
            assert ("degree_counts" in g.__dict__) == (kind == ANALYTICAL)
        model = NullModel(g, P06_4, NullModelConfig(kind=ANALYTICAL))
        for sigma in (5, 9, 14):
            assert model.expected(sigma) == max_eps_exp(g.degree_counts, sigma, P06_4, 20)
