"""Property test: the engine against the brute-force oracles on drawn views."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from scpm import QuasiCliqueParams, covered_vertices, induced_view, load_graph, top_k_patterns

from oracles import as_pairs, brute_covered, brute_maximal

GAMMAS = [
    Fraction(1, 3),
    Fraction(1, 2),
    Fraction(3, 5),
    Fraction(2, 3),
    Fraction(3, 4),
    Fraction(4, 5),
    Fraction(1),
]


@st.composite
def views(draw):
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    lines = [f"{u} {v}" for (u, v), k in zip(pairs, keep) if k]
    g = load_graph(iter(lines), iter(f"{v}" for v in range(n)))
    return induced_view(g, tuple(range(g.vertex_count)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    view=views(),
    gamma=st.sampled_from(GAMMAS),
    min_size=st.integers(3, 5),
    k=st.sampled_from([1, 2, 3, 5, None]),
)
def test_engine_matches_brute_force(view, gamma, min_size, k):
    params = QuasiCliqueParams(gamma, min_size)
    assert covered_vertices(view, params) == brute_covered(view, gamma, min_size)
    assert as_pairs(top_k_patterns(view, params, k)) == brute_maximal(view, gamma, min_size)[:k]
