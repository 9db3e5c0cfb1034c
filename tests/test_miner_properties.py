"""Property test: the pruned miner against the exhaustive one on drawn graphs."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from scpm import (
    ANALYTICAL,
    SIMULATION,
    MinerConfig,
    NullModelConfig,
    QuasiCliqueParams,
    build_index,
    load_graph,
    run_naive,
    run_scpm,
)

GAMMAS = [Fraction(1, 2), Fraction(3, 5), Fraction(2, 3), Fraction(1)]


@st.composite
def attributed_graphs(draw):
    n = draw(st.integers(1, 14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    n_attrs = draw(st.integers(1, 4))
    carried = draw(st.lists(st.sets(st.integers(0, n_attrs - 1)), min_size=n, max_size=n))
    edge_lines = [f"{u} {v}" for (u, v), k in zip(pairs, keep) if k]
    attr_lines = [
        " ".join([str(v), *(f"a{i}" for i in sorted(attrs))]) for v, attrs in enumerate(carried)
    ]
    return load_graph(iter(edge_lines), iter(attr_lines))


@st.composite
def configs(draw):
    sigma_min = draw(st.integers(1, 4))
    # eps_min = c / sigma_min: a set of support sigma_min covering c
    # vertices sits exactly on the threshold, where pruning must not cut.
    eps_min = draw(st.integers(0, sigma_min)) / sigma_min
    kind = draw(st.sampled_from([ANALYTICAL, SIMULATION]))
    return MinerConfig(
        qc_params=QuasiCliqueParams(draw(st.sampled_from(GAMMAS)), draw(st.integers(2, 4))),
        sigma_min=sigma_min,
        eps_min=eps_min,
        delta_min=draw(st.sampled_from([0.0, 0.5, 1.0])),
        k=draw(st.sampled_from([1, 2, None])),
        null_model=NullModelConfig(kind=kind, samples=5, seed=draw(st.integers(0, 3))),
        max_set_size=draw(st.sampled_from([None, 1, 2])),
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(g=attributed_graphs(), cfg=configs())
def test_pruned_miner_matches_exhaustive(g, cfg):
    index = build_index(g)
    fast = run_scpm(g, index, cfg)
    slow = run_naive(g, index, cfg)
    by_set = lambda r: r.attribute_set
    assert sorted(fast.records, key=by_set) == sorted(slow.records, key=by_set)
    key = lambda p: (p.attribute_set, p.quasi_clique.vertices)
    assert sorted(fast.patterns, key=key) == sorted(slow.patterns, key=key)
