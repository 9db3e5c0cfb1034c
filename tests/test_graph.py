import gc
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scpm import (
    GraphFormatError,
    QuasiCliqueParams,
    build_index,
    induced_view,
    load_graph,
    vertex_prune,
    vertex_set,
    z_core,
)

from scpm.graph import MAX_VERTEX_ID, z_survivors

from oracles import (
    brute_z_core,
    random_attributed_graph,
    random_graph_lines,
    reference_load_graph,
)
from synth import planted_instance_lines

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

    def test_transient_memory_is_a_small_multiple_of_the_graph(self):
        # The load's traced peak is 1.3 times the graph it keeps on this
        # instance; one set per vertex while reading takes 6.3 times.
        edges, attrs = planted_instance_lines(
            n=10000, blocks=100, noise_attrs=150, background_edges=20000, blob_size=60
        )
        gc.collect()  # empties the free lists, whose objects tracemalloc would not see
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            g = make_graph(edges, attrs)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.vertex_count == 10000
        assert peak - before <= 2.5 * (kept - before)


ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")
LEADING = st.sampled_from(["", " ", "\t", " \t "])
TRAILING = st.sampled_from(["", "\n", " ", "\t\n", " \r\n"])
SEPARATOR = st.sampled_from([" ", "\t", " \t  "])


@st.composite
def vertex_tokens(draw, sparse):
    """A vertex id as a file may spell it: every spelling here is one that
    ``int()`` accepts. Dense draws repeat a few small ids; sparse ones mix
    in ids up to ``MAX_VERTEX_ID``."""
    small = st.integers(0, 6)
    v = draw(st.one_of(small, st.integers(0, MAX_VERTEX_ID)) if sparse else small)
    text = str(v)
    style = draw(st.sampled_from(["plain", "plain", "plus", "zero", "underscore", "arabic"]))
    if style == "plus":
        return "+" + text
    if style == "zero":
        return "0_" + text
    if style == "underscore":
        return "_".join(text)
    if style == "arabic":
        return text.translate(ARABIC_INDIC)
    return text


@st.composite
def source_lines(draw, line):
    """Lines of one source: data lines drawn from ``line``, comments and
    blank lines, each with surrounding whitespace."""
    kinds = draw(st.lists(st.sampled_from(["data", "data", "data", "comment", "blank"]), max_size=25))
    lines = []
    for kind in kinds:
        body = {"data": line, "comment": st.sampled_from(["#", "# 1 2", "#x y z"]),
                "blank": st.just("")}[kind]
        lines.append(draw(LEADING) + draw(body) + draw(TRAILING))
    return lines


@st.composite
def graph_sources(draw):
    """Edge and attribute lines with duplicate and reversed edges,
    self-loops, attribute-only vertices and vertices over several lines."""
    ids = vertex_tokens(draw(st.booleans()))
    edge = st.tuples(ids, SEPARATOR, ids).map("".join)
    tokens = st.lists(st.tuples(SEPARATOR, st.sampled_from(["a", "b", "c", "b1", "#"])).map("".join),
                      max_size=4)
    attribute = st.tuples(ids, tokens).map(lambda p: p[0] + "".join(p[1]))
    return draw(source_lines(edge)), draw(source_lines(attribute))


BAD_EDGE_LINES = ["7", "1 2 3", "x 2", "2 x", "1.5 2", "-1 2", "3 -4", f"{2**63} 1", f"1 {2**63}"]
BAD_ATTRIBUTE_LINES = ["x a", "1.0 b", "-3 a b", f"{2**63} a"]


class TestLoaderMatchesReference:
    """``load_graph`` against the set-based loader it replaced."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(sources=graph_sources())
    @example(sources=(["# u v", "0 1", "1 2", " 2\t0 ", "2 1", "1 1", ""], ["3 a", "0 b a", "3 c"]))
    def test_same_graph(self, sources):
        edges, attrs = sources
        got = load_graph(iter(edges), iter(attrs))
        assert got == reference_load_graph(iter(edges), iter(attrs))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(sources=graph_sources(), data=st.data())
    def test_same_error(self, sources, data):
        edges, attrs = sources
        if data.draw(st.booleans(), label="edge source"):
            lines, bad = edges, BAD_EDGE_LINES
        else:
            lines, bad = attrs, BAD_ATTRIBUTE_LINES
        at = data.draw(st.integers(0, len(lines)), label="position")
        lines.insert(at, data.draw(LEADING) + data.draw(st.sampled_from(bad)) + data.draw(TRAILING))
        with pytest.raises(GraphFormatError) as expected:
            reference_load_graph(iter(edges), iter(attrs))
        with pytest.raises(GraphFormatError) as got:
            load_graph(iter(edges), iter(attrs))
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)
        assert got.value.line_number == expected.value.line_number


class TestDegreeDistribution:
    def test_complete_graph(self):
        lines = [f"{u} {v}" for u in range(5) for v in range(u + 1, 5)]
        assert make_graph(lines).degree_counts == {4: 5}

    def test_edgeless_graph(self):
        g = make_graph([], [f"{v}" for v in range(7)])
        assert g.degree_counts == {0: 7}

    def test_matches_per_vertex_counting(self):
        rng = random.Random(50)
        lines, attr_guard = random_graph_lines(rng, 50, 0.1)
        g = make_graph(lines, attr_guard)
        direct = {}
        for v in range(g.vertex_count):
            d = len(g.adjacency[v])
            direct[d] = direct.get(d, 0) + 1
        assert g.degree_counts == direct
        assert sum(g.degree_counts.values()) == g.vertex_count
        assert g.degree_counts is g.degree_counts


class TestInducedView:
    def test_full_member_view_matches_graph(self):
        rng = random.Random(11)
        lines, attr_guard = random_graph_lines(rng, 20, 0.2)
        g = make_graph(lines, attr_guard)
        view = induced_view(g, tuple(range(g.vertex_count)))
        assert [view.neighbors(v) for v in view.members] == [tuple(a) for a in g.adjacency]

    def test_single_vertex_view(self, example_graph):
        view = induced_view(example_graph, (3,))
        assert view.members == (3,)
        assert view.neighbors(3) == ()

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
            got = {(v, u) for v in view.members for u in view.neighbors(v) if v < u}
            assert got == expected

    def test_rejects_unknown_member(self, example_graph):
        with pytest.raises(ValueError, match=r"^vertex 99 is not in the graph$"):
            induced_view(example_graph, (0, 99))
        with pytest.raises(ValueError, match=r"^vertex -1 is not in the graph$"):
            induced_view(example_graph, (-1, 0, 99))
        # The first member outside the graph is named, not the last.
        with pytest.raises(ValueError, match=r"^vertex 50 is not in the graph$"):
            induced_view(example_graph, (0, 50, 99))

    def test_rejects_unsorted_or_duplicate_members(self, example_graph):
        message = r"^members must be strictly sorted and duplicate-free$"
        with pytest.raises(ValueError, match=message):
            induced_view(example_graph, (3, 1))
        with pytest.raises(ValueError, match=message):
            induced_view(example_graph, (1, 1, 3))
        # Order is checked before range.
        with pytest.raises(ValueError, match=message):
            induced_view(example_graph, (99, 1))

    def test_shares_the_graph_adjacency(self, example_graph):
        view = induced_view(example_graph, (0, 2, 4, 6, 8))
        assert view.adjacency is example_graph.adjacency
        assert induced_view(example_graph, ()).adjacency is example_graph.adjacency

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
        for v in view.members:
            assert len(view.neighbors(v)) <= len(g.adjacency[v])

    def test_attribute_induced_sets_anti_monotone(self, example_graph, example_index, example_ids):
        from scpm import vertex_set

        va = set(vertex_set(example_index, (example_ids.A,)))
        vab = set(vertex_set(example_index, (example_ids.A, example_ids.B)))
        assert vab <= va


class TestZCore:
    @staticmethod
    def core_of(g, members, params):
        """z_core of ``members``, checked against the round-by-round oracle
        (the independent check) and against the members of the engine's
        peel of the members' whole view, which calls z_core too."""
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

    @staticmethod
    def first_pass(adjacency, members, z):
        """The members, sorted, that have z neighbours among them."""
        inside = set(members)
        return [v for v in sorted(inside) if sum(u in inside for u in adjacency[v]) >= z]

    def check_survivors(self, g, member_sets, z):
        """z_survivors of the sets against a first pass per set, and the
        z-core of each set's survivors against the round-by-round oracle."""
        survivors = z_survivors(g.adjacency, member_sets, z)
        assert survivors == [self.first_pass(g.adjacency, m, z) for m in member_sets]
        for members, kept in zip(member_sets, survivors):
            assert z_core(g.adjacency, kept, z) == brute_z_core(g.adjacency, members, z)
        return survivors

    def test_survivors_match_a_first_pass_per_set(self):
        rng = random.Random(2025)
        dropped = kept = widest = 0
        for z in (1, 2, 3, 4):
            for _ in range(10):
                n = rng.randint(20, 150)
                g = random_attributed_graph(rng, n, rng.uniform(1.5, 12.0) / n, 1)
                # More sets than a machine word has bits, unsorted and of
                # every size, the empty one and the whole graph included.
                member_sets = [rng.sample(range(n), rng.randint(0, n)) for _ in range(rng.randint(1, 90))]
                member_sets += [[], list(range(n - 1, -1, -1))]
                widest = max(widest, len(member_sets))
                survivors = self.check_survivors(g, member_sets, z)
                assert survivors[-2] == []
                kept += sum(map(len, survivors))
                dropped += sum(map(len, member_sets)) - sum(map(len, survivors))
        assert kept and dropped
        assert widest > 64

    def test_survivors_of_a_vertex_in_every_set(self):
        # A star's centre in each of 70 sets, set i adding leaf i + 1 and
        # i + 2: at z = 2 the centre survives in every set, the leaves in none.
        g = make_graph([f"0 {v}" for v in range(1, 72)])
        member_sets = [[i + 2, 0, i + 1] for i in range(70)]
        survivors = self.check_survivors(g, member_sets, 2)
        assert survivors == [[0]] * 70
        assert self.check_survivors(g, member_sets, 1) == [sorted(m) for m in member_sets]
        assert self.check_survivors(g, member_sets, 3) == [[]] * 70

    def test_survivors_of_a_long_path(self):
        # The 599-vertex path loses only its two ends to the first pass;
        # z_core of the survivors then peels the rest one vertex at a time.
        n = 600
        edges = [f"{v} {(v + 1) % 300}" for v in range(300)]
        edges += [f"{v} {v + 1}" for v in range(299, n - 1)]
        g = load_graph(iter(edges), iter(str(v) for v in range(n)))
        path, whole = list(range(1, n)), list(range(n))
        survivors = self.check_survivors(g, [path, whole], 2)
        assert survivors == [list(range(2, n - 1)), list(range(n - 1))]
        assert z_core(g.adjacency, survivors[0], 2) == []
        assert z_core(g.adjacency, survivors[1], 2) == list(range(300))

    def test_survivors_need_z_of_at_least_one(self):
        g = make_graph(["0 1"])
        with pytest.raises(ValueError, match="z must be at least 1"):
            z_survivors(g.adjacency, [[0, 1]], 0)
        assert z_survivors(g.adjacency, [], 2) == []

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
