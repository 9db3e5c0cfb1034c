import math
import random
from fractions import Fraction

import pytest

from scpm import (
    QuasiCliqueParams,
    SearchBudgetExceeded,
    SearchStats,
    covered_vertices,
    enumerate_maximal,
    induced_view,
    is_gamma_dense,
    load_graph,
    pattern_sort_key,
    top_k_patterns,
    vertex_prune,
    vertex_set,
)

from oracles import as_pairs, brute_covered, brute_maximal, brute_z_core, random_graph_lines

P06_4 = QuasiCliqueParams(Fraction(3, 5), 4)
GAMMAS = [Fraction(1, 3), Fraction(1, 2), Fraction(3, 5), Fraction(2, 3), Fraction(1)]


def graph_from_edges(n, edges):
    lines = [f"{u} {v}" for u, v in edges]
    attrs = [f"{v}" for v in range(n)]
    g = load_graph(iter(lines), iter(attrs))
    return induced_view(g, tuple(range(g.vertex_count)))


def random_view(rng, n, p):
    lines, attrs = random_graph_lines(rng, n, p)
    g = load_graph(iter(lines), iter(attrs))
    return induced_view(g, tuple(range(g.vertex_count)))


def view_for_attr(example_graph, example_index, attr_ids):
    return induced_view(example_graph, vertex_set(example_index, attr_ids))


def cycle_view(n):
    return graph_from_edges(n, [(v, (v + 1) % n) for v in range(n)])


class TestParams:
    def test_degree_floor_exact(self):
        p = QuasiCliqueParams(Fraction(3, 5), 4)
        assert p.degree_floor(4) == 2
        assert p.degree_floor(5) == 3
        assert p.degree_floor(6) == 3
        assert p.z == 2

    def test_degree_floor_avoids_float_rounding(self):
        # 0.35 * 20 rounds above 7.0 in binary floating point.
        p = QuasiCliqueParams(Fraction(35, 100), 21)
        assert p.degree_floor(21) == 7

    def test_accepts_plain_floats_that_are_exact(self):
        p = QuasiCliqueParams(Fraction(1, 2), 3)
        assert p.z == 1

    @pytest.mark.parametrize("gamma", [0.1, 0.2, 0.4, 0.8, 0.9])
    def test_float_gamma_is_its_shortest_decimal(self, gamma):
        # Fraction(0.8) is the double just above 4/5, whose floors round up.
        p = QuasiCliqueParams(gamma, 6)
        exact = Fraction(str(gamma))
        assert p.gamma_min == exact
        assert [p.degree_floor(n) for n in range(2, 30)] == [
            math.ceil(exact * (n - 1)) for n in range(2, 30)
        ]

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            QuasiCliqueParams(Fraction(0), 4)
        with pytest.raises(ValueError):
            QuasiCliqueParams(Fraction(3, 2), 4)
        with pytest.raises(ValueError):
            QuasiCliqueParams(Fraction(1, 2), 1)


class TestIsGammaDense:
    def test_example11_clique(self, example_graph, example_index, example_ids):
        view = view_for_attr(example_graph, example_index, (example_ids.A,))
        q = example_ids.dense_set((3, 4, 5, 6))
        assert is_gamma_dense(view, q, P06_4)

    def test_below_min_size_false(self, example_graph, example_index, example_ids):
        view = view_for_attr(example_graph, example_index, (example_ids.A,))
        q = example_ids.dense_set((3, 4, 5))
        assert not is_gamma_dense(view, q, P06_4)

    def test_requires_membership(self, example_graph):
        view = induced_view(example_graph, (0, 1, 2))
        with pytest.raises(ValueError):
            is_gamma_dense(view, (0, 9), P06_4)

    def test_matches_degree_recomputation(self):
        rng = random.Random(42)
        for _ in range(50):
            view = random_view(rng, 12, 0.4)
            q = tuple(sorted(rng.sample(view.members, rng.randint(2, 8))))
            qset = set(q)
            gamma = Fraction(rng.choice(((1, 2), (3, 5), (1, 1)))[0],
                             rng.choice(((1, 2), (3, 5), (1, 1)))[1])
            gamma = min(gamma, Fraction(1))
            params = QuasiCliqueParams(gamma, 3)
            need = -(-gamma.numerator * (len(q) - 1) // gamma.denominator)
            expected = len(q) >= 3 and all(
                sum(1 for u in view.neighbors(v) if u in qset) >= need for v in q
            )
            assert is_gamma_dense(view, q, params) == expected


class TestVertexPrune:
    def test_complete_graph_unchanged(self):
        view = graph_from_edges(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
        pruned = vertex_prune(view, QuasiCliqueParams(Fraction(3, 5), 4))
        assert pruned.members == view.members

    def test_star_collapses_to_empty(self):
        view = graph_from_edges(6, [(0, v) for v in range(1, 6)])
        pruned = vertex_prune(view, QuasiCliqueParams(Fraction(1, 2), 4))
        assert pruned.members == ()

    def test_core_view_is_returned_as_is(self):
        rng = random.Random(78)
        for _ in range(40):
            view = random_view(rng, 20, 0.3)
            params = QuasiCliqueParams(rng.choice(GAMMAS), rng.randint(3, 5))
            pruned = vertex_prune(view, params)
            assert vertex_prune(pruned, params) is pruned
        complete = graph_from_edges(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
        assert vertex_prune(complete, P06_4) is complete

    def test_matches_brute_force_core(self):
        # Random views that are not cores, as the exhaustive baseline hands
        # the engine: whole postings, most of whose members are peeled.
        rng = random.Random(79)
        peeled = nonempty = 0
        for _ in range(60):
            n = rng.randint(10, 60)
            lines, attrs = random_graph_lines(rng, n, rng.uniform(1.5, 8.0) / n)
            g = load_graph(iter(lines), iter(attrs))
            members = tuple(sorted(rng.sample(range(g.vertex_count), rng.randint(1, g.vertex_count))))
            view = induced_view(g, members)
            params = QuasiCliqueParams(rng.choice(GAMMAS), rng.randint(3, 5))
            pruned = vertex_prune(view, params)
            assert list(pruned.members) == brute_z_core(g.adjacency, members, params.z)
            assert pruned.adjacency is g.adjacency
            peeled += pruned is not view
            nonempty += len(pruned) > 0
        assert peeled and nonempty

    def test_never_loses_covered_vertices(self):
        rng = random.Random(77)
        for _ in range(40):
            view = random_view(rng, 10, 0.35)
            params = QuasiCliqueParams(Fraction(3, 5), 3)
            pruned = vertex_prune(view, params)
            covered = set(brute_covered(view, params.gamma_min, params.min_size))
            assert covered <= set(pruned.members)


class TestEnumerateMaximal:
    def test_example11_maximal_family(self, example_graph, example_index, example_ids):
        view = view_for_attr(example_graph, example_index, (example_ids.A,))
        got = [
            (example_ids.orig(q.vertices), float(q.density))
            for q in enumerate_maximal(view, P06_4)
        ]
        assert got == [
            ((6, 7, 8, 9, 10, 11), 0.6),
            ((3, 4, 5, 6), 1.0),
            ((3, 4, 6, 7), 2 / 3),
            ((3, 5, 6, 7), 2 / 3),
            ((3, 6, 7, 8), 2 / 3),
        ]

    def test_prism_filters_nested_cycles(self, example_graph, example_index, example_ids):
        # The {6..11} subgraph holds 4-cycles that no single vertex extends;
        # they must still be filtered as subsets of the full 6-set.
        view = view_for_attr(example_graph, example_index, (example_ids.B,))
        got = enumerate_maximal(view, P06_4)
        assert [example_ids.orig(q.vertices) for q in got] == [(6, 7, 8, 9, 10, 11)]

    def test_small_view_empty(self, example_graph):
        view = induced_view(example_graph, (0, 1, 2))
        assert enumerate_maximal(view, P06_4) == []

    @pytest.mark.parametrize("gamma", [Fraction(1, 2), Fraction(3, 5), Fraction(1)])
    @pytest.mark.parametrize("min_size", [3, 4])
    def test_exhaustive_small_graphs(self, gamma, min_size):
        params = QuasiCliqueParams(gamma, min_size)
        rng = random.Random(1000 * min_size + gamma.numerator)
        for trial in range(150):
            n = rng.randint(min_size, 7)
            view = random_view(rng, n, rng.choice([0.3, 0.5, 0.7]))
            expected = brute_maximal(view, gamma, min_size)
            got = as_pairs(enumerate_maximal(view, params))
            assert got == expected, [(v, view.neighbors(v)) for v in view.members]

    def test_all_graphs_on_four_vertices(self):
        params = QuasiCliqueParams(Fraction(1, 2), 3)
        for bits in range(64):
            edges = []
            idx = 0
            for u in range(4):
                for v in range(u + 1, 4):
                    if bits >> idx & 1:
                        edges.append((u, v))
                    idx += 1
            view = graph_from_edges(4, edges) if edges else graph_from_edges(4, [])
            assert as_pairs(enumerate_maximal(view, params)) == brute_maximal(
                view, Fraction(1, 2), 3
            )


class TestCoveredVertices:
    def test_example11_coverage(self, example_graph, example_index, example_ids):
        view = view_for_attr(example_graph, example_index, (example_ids.A,))
        got = covered_vertices(view, P06_4)
        assert example_ids.orig(got) == (3, 4, 5, 6, 7, 8, 9, 10, 11)

    def test_complete_graph_fully_covered(self):
        view = graph_from_edges(7, [(u, v) for u in range(7) for v in range(u + 1, 7)])
        assert covered_vertices(view, P06_4) == tuple(range(7))

    def test_matches_brute_force_coverage(self):
        rng = random.Random(5150)
        for trial in range(60):
            view = random_view(rng, rng.randint(4, 16), rng.choice([0.25, 0.4, 0.6]))
            gamma = rng.choice(GAMMAS)
            params = QuasiCliqueParams(gamma, rng.choice([3, 4, 5]))
            expected = brute_covered(view, gamma, params.min_size)
            assert covered_vertices(view, params) == expected

    def test_walks_visit_each_node_once(self, monkeypatch):
        # The greedy-ordered children must partition the subtree: no
        # coverage walk may reach the same chosen set twice.
        import scpm.quasiclique as qc

        real_walk = qc._ViewSearch._first_dense_containing
        real_refine = qc._ViewSearch._refine
        seen: set[int] = set()
        walks = deepest = 0

        def walk(self, root):
            nonlocal walks
            walks += 1
            seen.clear()
            return real_walk(self, root)

        def refine(self, chosen, cand):
            nonlocal deepest
            assert chosen not in seen
            seen.add(chosen)
            deepest = max(deepest, chosen.bit_count())
            return real_refine(self, chosen, cand)

        monkeypatch.setattr(qc._ViewSearch, "_first_dense_containing", walk)
        monkeypatch.setattr(qc._ViewSearch, "_refine", refine)
        # The cycle holds no quasi-clique, so every walk on it runs to
        # exhaustion.
        assert covered_vertices(cycle_view(12), P06_4) == ()
        rng = random.Random(2718)
        for trial in range(100):
            view = random_view(rng, rng.randint(4, 14), rng.choice([0.25, 0.4, 0.6]))
            params = QuasiCliqueParams(rng.choice(GAMMAS), rng.choice([3, 4, 5]))
            expected = brute_covered(view, params.gamma_min, params.min_size)
            assert covered_vertices(view, params) == expected
        # Both patches were reached, and some walk branched below a chosen
        # set of three vertices, so the check covered more than the roots.
        assert walks > 0 and deepest >= 3


class TestTopK:
    def test_example11_top1(self, example_graph, example_index, example_ids):
        view = view_for_attr(example_graph, example_index, (example_ids.A,))
        top = top_k_patterns(view, P06_4, 1)
        assert len(top) == 1
        assert example_ids.orig(top[0].vertices) == (6, 7, 8, 9, 10, 11)
        assert top[0].size == 6
        assert float(top[0].density) == 0.6

    def test_k_beyond_pattern_count_gives_full_enumeration(self, example_graph, example_index, example_ids):
        view = view_for_attr(example_graph, example_index, (example_ids.A,))
        assert top_k_patterns(view, P06_4, 50) == enumerate_maximal(view, P06_4)

    def test_unlimited_equals_sorted_enumeration(self, example_graph, example_index, example_ids):
        view = view_for_attr(example_graph, example_index, (example_ids.A,))
        assert top_k_patterns(view, P06_4, None) == enumerate_maximal(view, P06_4)

    def test_rejects_bad_k(self, example_graph, example_index, example_ids):
        view = view_for_attr(example_graph, example_index, (example_ids.A,))
        with pytest.raises(ValueError):
            top_k_patterns(view, P06_4, 0)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_prefix_of_sorted_enumeration(self, k):
        rng = random.Random(31337 + k)
        for trial in range(60):
            view = random_view(rng, rng.randint(4, 11), rng.choice([0.3, 0.5, 0.7]))
            gamma = rng.choice([Fraction(1, 2), Fraction(3, 5), Fraction(1)])
            params = QuasiCliqueParams(gamma, rng.choice([3, 4]))
            full = enumerate_maximal(view, params)
            assert top_k_patterns(view, params, k) == full[:k]

    @pytest.mark.parametrize("gamma", [Fraction(3, 4), Fraction(4, 5), Fraction(1)])
    def test_dense_views_above_two_thirds(self, gamma):
        # Dense views above gamma 2/3, where many nodes pool a dense chosen
        # set that a superset found below them later replaces. A p 0.9 view
        # has thousands of dense subsets.
        rng = random.Random(2008 + gamma.numerator)
        for trial in range(12):
            view = random_view(rng, rng.randint(12, 14), (0.7, 0.8, 0.9)[trial % 3])
            min_size = rng.choice([4, 5])
            params = QuasiCliqueParams(gamma, min_size)
            expected = brute_maximal(view, gamma, min_size)
            for k in (1, 3, 5, None):
                assert as_pairs(top_k_patterns(view, params, k)) == expected[:k]

    def test_pool_never_shrinks(self, monkeypatch):
        # The size floor is sound only because an insert into the top-k
        # pool removes at most one pooled set, so the pool never shrinks
        # and the floor never falls.
        import scpm.quasiclique as qc

        real_insert = qc._antichain_insert
        replaced = 0

        def checked_insert(pool, mask):
            nonlocal replaced
            before = list(pool)
            real_insert(pool, mask)
            assert len(pool) >= len(before)
            if mask in pool and mask not in before and len(pool) == len(before):
                replaced += 1

        monkeypatch.setattr(qc, "_antichain_insert", checked_insert)
        rng = random.Random(4711)
        for trial in range(120):
            view = random_view(rng, rng.randint(4, 16), rng.choice([0.3, 0.5, 0.7]))
            params = QuasiCliqueParams(rng.choice(GAMMAS), rng.choice([3, 4, 5]))
            full = enumerate_maximal(view, params)
            for k in range(1, 6):
                assert top_k_patterns(view, params, k) == full[:k]
        assert replaced > 0


class TestBudget:
    def test_budget_overflow_raises(self):
        # A cycle defeats the lookahead, so the walk must expand many nodes.
        view = cycle_view(12)
        params = QuasiCliqueParams(Fraction(1, 2), 3)
        with pytest.raises(SearchBudgetExceeded):
            enumerate_maximal(view, params, budget=2)

    def test_coverage_overflow_raises_and_counts(self):
        view = cycle_view(12)
        stats = SearchStats()
        with pytest.raises(SearchBudgetExceeded):
            covered_vertices(view, P06_4, budget=5, stats=stats)
        assert stats.expansions > 5

    def test_gamma_one_extends_by_common_neighbours(self):
        # A complete 3-partite graph on 12 vertices plus one edge inside a
        # part: every 4-clique holds that edge. The distance-2 ball of any
        # vertex is the whole graph, so only the rule that a clique member
        # is adjacent to every chosen vertex keeps both walks small.
        n = 12
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if u % 3 != v % 3]
        view = graph_from_edges(n, edges + [(0, 3)])
        params = QuasiCliqueParams(Fraction(1), 4)
        assert covered_vertices(view, params, budget=500) == brute_covered(view, params.gamma_min, 4)
        assert as_pairs(enumerate_maximal(view, params, budget=500)) == brute_maximal(
            view, params.gamma_min, 4
        )

    def test_maximal_walk_expansions_pinned(self, example_graph, example_index, example_ids):
        # The maximal walk's order is fixed by its size-floor proof; these
        # counts pin it so a change to the shared child generator shows.
        view = view_for_attr(example_graph, example_index, (example_ids.A,))
        stats = SearchStats()
        enumerate_maximal(view, P06_4, stats=stats)
        assert stats.expansions == 110
        stats = SearchStats()
        top_k_patterns(view, P06_4, 1, stats=stats)
        assert stats.expansions == 95

    @pytest.mark.parametrize(
        ("seed", "n", "p", "gamma", "min_size", "covered", "expansions"),
        [
            (None, None, None, Fraction(3, 5), 4, 9, 49),
            (0, 24, 0.3, Fraction(3, 5), 4, 24, 907),
            (1, 20, 0.4, Fraction(2, 3), 5, 17, 4731),
        ],
        ids=["example11-A", "random-24", "random-20"],
    )
    def test_coverage_walk_expansions_pinned(
        self, example_graph, example_index, example_ids, seed, n, p, gamma, min_size, covered, expansions
    ):
        # The greedy order decides which set each root's walk hits first, so
        # these counts pin that order and the node filters along with it.
        if seed is None:
            view = view_for_attr(example_graph, example_index, (example_ids.A,))
        else:
            view = random_view(random.Random(seed), n, p)
        stats = SearchStats()
        got = covered_vertices(view, QuasiCliqueParams(gamma, min_size), stats=stats)
        assert (len(got), stats.expansions) == (covered, expansions)

    def test_stats_accumulate(self, example_graph, example_index, example_ids):
        view = view_for_attr(example_graph, example_index, (example_ids.A,))
        stats = SearchStats()
        enumerate_maximal(view, P06_4, stats=stats)
        assert stats.expansions > 0
        before = stats.expansions
        covered_vertices(view, P06_4, stats=stats)
        assert stats.expansions > before


class TestEngineReuse:
    """A view keeps the engine its first search built, and a later search of
    it with the same parameters object reuses that engine with a fresh
    counter and its own budget, so it returns what a fresh view would."""

    @pytest.mark.parametrize(
        "gamma",
        [Fraction(2, 5), Fraction(3, 5), Fraction(1)],
        ids=["no-reach", "distance-2-reach", "adjacency-reach"],
    )
    def test_top_k_after_coverage_matches_a_fresh_view(self, gamma):
        from scpm import GraphView

        def overflows(view, k):
            try:
                top_k_patterns(view, params, k, budget=1)
            except SearchBudgetExceeded:
                return True
            return False

        rng = random.Random(5309)
        params = QuasiCliqueParams(gamma, 3)
        reused = outcomes = 0
        for trial in range(40):
            view = random_view(rng, rng.randint(5, 14), rng.choice([0.3, 0.5, 0.7]))
            fresh = lambda: GraphView(view.members, view.adjacency)  # noqa: E731
            k = rng.randint(1, 4)
            covered_vertices(view, params)
            engine = view.engine
            stats, fresh_stats = SearchStats(), SearchStats()
            patterns = top_k_patterns(view, params, k, stats=stats)
            reused += view.engine is engine
            assert patterns == top_k_patterns(fresh(), params, k, stats=fresh_stats)
            assert stats.expansions == fresh_stats.expansions
            # The count starts at 0: the fresh count fits the budget, one
            # expansion fewer does not.
            expansions = fresh_stats.expansions
            assert top_k_patterns(view, params, k, budget=expansions) == patterns
            if expansions > 1:
                with pytest.raises(SearchBudgetExceeded):
                    top_k_patterns(view, params, k, budget=expansions - 1)
            overflow = overflows(view, k)
            assert overflow == overflows(fresh(), k)
            outcomes |= 1 << overflow
            # An engine left by an overflow serves the next search as well.
            assert top_k_patterns(view, params, k) == patterns
            assert view.engine is engine
        assert reused == 40
        assert outcomes == 0b11  # budget 1 both sufficed and overflowed

    def test_other_parameters_build_their_own_engine(self):
        view, fresh = (random_view(random.Random(5310), 12, 0.5) for _ in range(2))
        first, other = QuasiCliqueParams(Fraction(3, 5), 3), QuasiCliqueParams(Fraction(1), 3)
        covered_vertices(view, first)
        engine = view.engine
        assert top_k_patterns(view, other, 3) == top_k_patterns(fresh, other, 3)
        assert view.engine is not engine and view.engine.params is other


class TestProperties:
    def test_lookahead_soundness(self):
        # Every reported pattern passes the plain density check.
        rng = random.Random(60)
        for _ in range(40):
            view = random_view(rng, 10, 0.45)
            params = QuasiCliqueParams(Fraction(3, 5), 3)
            for q in enumerate_maximal(view, params):
                assert is_gamma_dense(view, q.vertices, params)
                assert q.size >= params.min_size
                assert q.density >= params.gamma_min

    def test_every_dense_set_inside_some_maximal(self):
        from oracles import dense_subsets

        rng = random.Random(61)
        for _ in range(30):
            view = random_view(rng, 8, 0.5)
            params = QuasiCliqueParams(Fraction(3, 5), 3)
            maximal = [set(q.vertices) for q in enumerate_maximal(view, params)]
            for dense in dense_subsets(view, params.gamma_min, params.min_size):
                assert any(dense <= m for m in maximal)

    def test_prune_preserves_coverage(self):
        rng = random.Random(62)
        for _ in range(30):
            view = random_view(rng, 10, 0.4)
            params = QuasiCliqueParams(Fraction(3, 5), 4)
            pruned = vertex_prune(view, params)
            assert covered_vertices(pruned, params) == covered_vertices(view, params)

    def test_output_is_an_antichain(self):
        rng = random.Random(63)
        for _ in range(30):
            view = random_view(rng, 9, 0.5)
            params = QuasiCliqueParams(Fraction(1, 2), 3)
            sets = [set(q.vertices) for q in enumerate_maximal(view, params)]
            for i, a in enumerate(sets):
                for j, b in enumerate(sets):
                    if i != j:
                        assert not a <= b
