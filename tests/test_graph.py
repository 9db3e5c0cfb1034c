import random
from fractions import Fraction

import pytest

from scpm import (
    GraphFormatError,
    QuasiCliqueParams,
    build_index,
    degree_distribution,
    induced_view,
    load_graph,
    vertex_prune,
    vertex_set,
    z_core,
)

from oracles import brute_z_core, random_attributed_graph, random_graph_lines

CORE_GAMMAS = [Fraction(1, 3), Fraction(1, 2), Fraction(3, 5), Fraction(1)]


def make_graph(edge_lines, attr_lines=()):
    return load_graph(iter(edge_lines), iter(attr_lines))


class TestLoadGraph:
    def test_duplicate_edges_and_self_loops(self):
        g = make_graph(["1 2", "2 1", "2 2"])
        assert g.vertex_count == 2
        assert g.edge_count == 1
        assert g.dropped_self_loops == 1
        assert g.adjacency == [(1,), (0,)]

    def test_example11_fixture(self, example_graph, example_index, example_ids):
        assert example_graph.vertex_count == 11
        assert len(example_index.posting[example_ids.A]) == 11
        assert len(example_index.posting[example_ids.B]) == 6

    def test_matches_set_based_reference_loader(self):
        rng = random.Random(7)
        lines = []
        pairs = set()
        for _ in range(100):
            u, v = rng.randrange(30), rng.randrange(30)
            lines.append(f"{u} {v}")
            if u != v:
                pairs.add((min(u, v), max(u, v)))
        g = make_graph(lines)
        seen = set()
        for dv in range(g.vertex_count):
            for du in g.adjacency[dv]:
                a, b = g.original_id(dv), g.original_id(du)
                seen.add((min(a, b), max(a, b)))
        assert seen == pairs

    def test_symmetry_and_sortedness(self):
        rng = random.Random(3)
        lines, _ = random_graph_lines(rng, 40, 0.15)
        g = make_graph(lines)
        for v in range(g.vertex_count):
            nbrs = g.adjacency[v]
            assert list(nbrs) == sorted(set(nbrs))
            assert v not in nbrs
            for u in nbrs:
                assert v in g.adjacency[u]

    def test_attribute_only_vertices_exist(self):
        g = make_graph(["0 1"], ["5 red blue", "0 red"])
        assert g.vertex_count == 3
        dense5 = g.external_ids.index(5)
        assert g.adjacency[dense5] == ()
        red = g.attribute_dictionary.id_for("red")
        blue = g.attribute_dictionary.id_for("blue")
        assert g.attributes[dense5] == tuple(sorted((red, blue)))

    def test_empty_edge_source_is_legal(self):
        g = make_graph([], ["0 x", "1 x"])
        assert g.vertex_count == 2
        assert g.edge_count == 0

    def test_comments_and_blank_lines_ignored(self):
        g = make_graph(["# header", "", "0 1"], ["# attrs", "", "0 t"])
        assert g.edge_count == 1

    def test_malformed_edge_line_reports_line_number(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            make_graph(["0 1", "0 1 2"])
        with pytest.raises(GraphFormatError, match="line 1"):
            make_graph(["x y"])

    def test_negative_and_overflowing_ids_rejected(self):
        with pytest.raises(GraphFormatError, match="non-negative"):
            make_graph(["-1 2"])
        with pytest.raises(GraphFormatError, match="overflow"):
            make_graph([f"{2**64} 0"])

    def test_attribute_tokens_first_seen_order(self):
        g = make_graph([], ["0 zebra apple", "1 apple mango"])
        d = g.attribute_dictionary
        assert d.id_for("zebra") == 0
        assert d.id_for("apple") == 1
        assert d.id_for("mango") == 2


class TestDegreeDistribution:
    def test_complete_graph(self):
        lines = [f"{u} {v}" for u in range(5) for v in range(u + 1, 5)]
        hist = degree_distribution(make_graph(lines))
        assert hist.counts == {4: 5}
        assert hist.max_degree == 4
        assert hist.prob(4) == 1.0
        assert hist.prob(5) == 0.0

    def test_edgeless_graph(self):
        g = make_graph([], [f"{v}" for v in range(7)])
        hist = degree_distribution(g)
        assert hist.counts == {0: 7}
        assert hist.max_degree == 0
        assert hist.prob(0) == 1.0

    def test_matches_per_vertex_counting(self):
        rng = random.Random(50)
        lines, attr_guard = random_graph_lines(rng, 50, 0.1)
        g = make_graph(lines, attr_guard)
        hist = degree_distribution(g)
        direct = {}
        for v in range(g.vertex_count):
            d = len(g.adjacency[v])
            direct[d] = direct.get(d, 0) + 1
        assert hist.counts == direct
        assert sum(hist.counts.values()) == g.vertex_count
        assert abs(sum(hist.probabilities.values()) - 1.0) < 1e-12


class TestInducedView:
    def test_full_member_view_matches_graph(self):
        rng = random.Random(11)
        lines, attr_guard = random_graph_lines(rng, 20, 0.2)
        g = make_graph(lines, attr_guard)
        view = induced_view(g, tuple(range(g.vertex_count)))
        assert view.local_adjacency == tuple(tuple(a) for a in g.adjacency)

    def test_single_vertex_view(self, example_graph):
        view = induced_view(example_graph, (3,))
        assert view.members == (3,)
        assert view.local_adjacency == ((),)

    def test_random_subsets_match_quadratic_oracle(self):
        rng = random.Random(23)
        lines, attr_guard = random_graph_lines(rng, 25, 0.25)
        g = make_graph(lines, attr_guard)
        full_edges = {
            (v, u) for v in range(g.vertex_count) for u in g.adjacency[v] if v < u
        }
        for _ in range(30):
            members = tuple(sorted(rng.sample(range(g.vertex_count), rng.randint(1, 20))))
            view = induced_view(g, members)
            mset = set(members)
            expected = {(v, u) for v, u in full_edges if v in mset and u in mset}
            got = {
                (v, u)
                for i, v in enumerate(view.members)
                for u in view.local_adjacency[i]
                if v < u
            }
            assert got == expected

    def test_rejects_unknown_member(self, example_graph):
        with pytest.raises(ValueError):
            induced_view(example_graph, (0, 99))

    def test_rejects_unsorted_or_duplicate_members(self, example_graph):
        with pytest.raises(ValueError):
            induced_view(example_graph, (3, 1))
        with pytest.raises(ValueError):
            induced_view(example_graph, (1, 1, 3))

    def test_idempotent(self, example_graph):
        view = induced_view(example_graph, (0, 2, 4, 6, 8))
        again = induced_view(example_graph, view.members)
        assert again == view

    def test_view_degree_bounded_by_graph_degree(self):
        rng = random.Random(5)
        lines, attr_guard = random_graph_lines(rng, 30, 0.2)
        g = make_graph(lines, attr_guard)
        members = tuple(sorted(rng.sample(range(g.vertex_count), 18)))
        view = induced_view(g, members)
        for i, v in enumerate(view.members):
            assert len(view.local_adjacency[i]) <= len(g.adjacency[v])

    def test_attribute_induced_sets_anti_monotone(self, example_graph, example_index, example_ids):
        from scpm import vertex_set

        va = set(vertex_set(example_index, (example_ids.A,)))
        vab = set(vertex_set(example_index, (example_ids.A, example_ids.B)))
        assert vab <= va


class TestZCore:
    @staticmethod
    def core_of(g, members, params):
        """z_core of ``members``, checked against the round-by-round oracle
        and against the engine's peel of the members' whole view."""
        core = z_core(g.adjacency, members, params.z)
        assert core == brute_z_core(g.adjacency, members, params.z)
        assert tuple(core) == vertex_prune(induced_view(g, members), params).members
        return core

    def test_core_matches_vertex_prune(self):
        rng = random.Random(2024)
        empty = small = large = 0
        for _ in range(120):
            n = rng.randint(20, 200)
            g = random_attributed_graph(rng, n, rng.uniform(1.5, 12.0) / n, 1)
            params = QuasiCliqueParams(rng.choice(CORE_GAMMAS), rng.randint(3, 5))
            members = sorted(rng.sample(range(n), rng.randint(1, n)))
            core = self.core_of(g, members, params)
            if not core:
                empty += 1
            elif len(core) < params.min_size:
                small += 1
            else:
                large += 1
        assert empty and small and large
        # Deep peels: a 300-cycle with a 300-vertex tail, whose tail falls
        # one vertex at a time from its free end at z = 2, and the same
        # graph less vertex 0, a 599-vertex path with an empty core.
        n = 600
        edges = [f"{v} {(v + 1) % 300}" for v in range(300)]
        edges += [f"{v} {v + 1}" for v in range(299, n - 1)]
        g = load_graph(iter(edges), iter(str(v) for v in range(n)))
        params = QuasiCliqueParams(Fraction(1, 2), 5)
        assert params.z == 2
        assert self.core_of(g, range(n), params) == list(range(300))
        assert self.core_of(g, range(1, n), params) == []

    def test_restricted_postings(self):
        # The miner peels an attribute set's posting, filtered by the
        # intersection of its parents' coverage sets.
        rng = random.Random(77)
        peeled = kept = 0
        for _ in range(60):
            n = rng.randint(20, 120)
            g = random_attributed_graph(rng, n, rng.uniform(3.0, 15.0) / n, 2, attr_prob=0.6)
            index = build_index(g)
            params = QuasiCliqueParams(rng.choice(CORE_GAMMAS), rng.randint(3, 5))
            restriction = set(rng.sample(range(n), rng.randint(0, n)))
            for a in range(len(g.attribute_dictionary)):
                posting = vertex_set(index, (a,))
                members = tuple(v for v in posting if v in restriction)
                core = self.core_of(g, members, params)
                peeled += len(members) - len(core)
                kept += len(core)
        assert peeled and kept
