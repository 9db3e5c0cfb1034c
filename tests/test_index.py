import random
from itertools import combinations, permutations

import pytest

from scpm import build_index, frequent_attributes, load_graph, vertex_set
from scpm.index import intersect_sorted

from oracles import random_attributed_graph


def test_example11_supports(example_graph, example_index, example_ids):
    assert len(example_index[example_ids.A]) == 11
    assert len(example_index[example_ids.B]) == 6
    assert len(vertex_set(example_index, (example_ids.A, example_ids.B))) == 6


def test_unassigned_attribute_absent():
    g = load_graph(iter(["0 1"]), iter(["0 x"]))
    index = build_index(g)
    assert set(index) == {g.attribute_dictionary.id_for("x")}


def test_posting_lists_match_scan_oracle():
    rng = random.Random(99)
    g = random_attributed_graph(rng, 40, 0.1, 6)
    index = build_index(g)
    for a in range(len(g.attribute_dictionary)):
        expected = tuple(v for v in range(g.vertex_count) if a in g.attributes[v])
        assert index.get(a, ()) == expected


def test_postings_share_the_graph_vertex_objects():
    # File ids 0..n-1 are the graph's own vertex objects; every posting
    # entry is that object, not an equal int made per incidence.
    rng = random.Random(5)
    n = 600
    g = random_attributed_graph(rng, n, 0.01, 4)
    assert g.external_ids[-1] == n - 1
    index = build_index(g)
    entries = [v for vs in index.values() for v in vs]
    assert len(entries) > n
    assert all(v is g.external_ids[v] for v in entries)
    for a in range(len(g.attribute_dictionary)):
        assert index.get(a, ()) == tuple(v for v in range(n) if a in g.attributes[v])


def test_remapped_ids_give_dense_postings():
    g = load_graph(iter(["10 30", "30 50"]), iter(["10 x", "30 x y", "50 y"]))
    index = build_index(g)
    x, y = (g.attribute_dictionary.id_for(t) for t in "xy")
    assert index == {x: (0, 1), y: (1, 2)}


def test_vertex_set_singleton_identity(example_index, example_ids):
    assert vertex_set(example_index, (example_ids.A,)) == example_index[example_ids.A]


def test_vertex_set_unknown_attribute_is_empty(example_index):
    assert vertex_set(example_index, (999,)) == ()


def test_vertex_set_empty_set_rejected(example_index):
    with pytest.raises(ValueError):
        vertex_set(example_index, ())


def test_vertex_set_matches_per_vertex_filter():
    rng = random.Random(4)
    g = random_attributed_graph(rng, 35, 0.1, 7, attr_prob=0.5)
    index = build_index(g)
    n_attrs = len(g.attribute_dictionary)
    for combo in combinations(range(min(n_attrs, 6)), 3):
        expected = tuple(
            v for v in range(g.vertex_count) if set(combo) <= set(g.attributes[v])
        )
        assert vertex_set(index, combo) == expected


def test_vertex_set_order_insensitive():
    rng = random.Random(8)
    g = random_attributed_graph(rng, 30, 0.1, 5, attr_prob=0.6)
    index = build_index(g)
    for perm in permutations((0, 1, 2)):
        assert vertex_set(index, perm) == vertex_set(index, (0, 1, 2))


def test_vertex_set_equals_pairwise_intersection():
    rng = random.Random(13)
    g = random_attributed_graph(rng, 40, 0.1, 6, attr_prob=0.5)
    index = build_index(g)
    for combo in combinations(range(4), 2):
        a, b = combo
        expect = tuple(sorted(set(index.get(a, ())) & set(index.get(b, ()))))
        assert vertex_set(index, combo) == expect


def test_support_anti_monotone():
    rng = random.Random(21)
    g = random_attributed_graph(rng, 50, 0.1, 6, attr_prob=0.5)
    index = build_index(g)
    for a, b in combinations(range(5), 2):
        sub = len(vertex_set(index, (a,)))
        sup = len(vertex_set(index, (a, b)))
        assert sup <= sub


def test_intersect_sorted_skewed_lists():
    small = (5, 100, 5000, 5001)
    large = tuple(range(0, 10000, 2))
    expected = tuple(sorted(set(small) & set(large)))
    assert intersect_sorted(small, large) == expected
    assert intersect_sorted(large, small) == expected
    assert intersect_sorted((), large) == ()


def test_frequent_attributes_threshold_one(example_index):
    singles = frequent_attributes(example_index, 1)
    assert [s for s, _ in singles] == [(a,) for a in sorted(example_index)]


def test_frequent_attributes_example11(example_index, example_ids):
    singles = frequent_attributes(example_index, 3)
    ids = {s[0] for s, _ in singles}
    assert example_ids.A in ids and example_ids.B in ids


def test_frequent_attributes_matches_count_filter():
    rng = random.Random(17)
    g = random_attributed_graph(rng, 45, 0.1, 8, attr_prob=0.3)
    index = build_index(g)
    sigma_min = 6
    got = {s[0] for s, _ in frequent_attributes(index, sigma_min)}
    counts = {}
    for v in range(g.vertex_count):
        for a in g.attributes[v]:
            counts[a] = counts.get(a, 0) + 1
    expected = {a for a, c in counts.items() if c >= sigma_min}
    assert got == expected


def test_frequent_attributes_rejects_bad_sigma(example_index):
    with pytest.raises(ValueError):
        frequent_attributes(example_index, 0)
