"""Property tests: the pruned miner against the exhaustive one on drawn graphs,
and both miners against themselves on a relabelled attribute file."""

import dataclasses
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


@st.composite
def relabelled_inputs(draw):
    """One graph's edge and attribute lines, and the same attribute file
    with its lines and each line's tokens shuffled and its tokens renamed,
    which changes the first-seen attribute ids and so the walk's tie order.
    Vertices carry whole topics (correlated attributes) plus noise, so
    frequent sets of three or more attributes occur. Also returns the map
    from renamed tokens back to the original ones."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(3, 12))
    density = draw(st.sampled_from([0.3, 0.5, 0.7, 0.9]))
    n_attrs = draw(st.integers(1, 7))
    attr_ids = st.integers(0, n_attrs - 1)
    topics = draw(st.lists(st.sets(attr_ids, min_size=1), min_size=1, max_size=3))
    carried = [
        set().union(*(topics[t] for t in draw(st.sets(st.integers(0, len(topics) - 1)))),
                    draw(st.sets(attr_ids, max_size=2)))
        for _ in range(n)
    ]
    names = draw(st.permutations(range(n_attrs)))
    edge_lines = [f"{u} {v}" for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    attr_lines = [" ".join([str(v), *(f"a{i}" for i in sorted(c))]) for v, c in enumerate(carried)]
    renamed = []
    for v, c in enumerate(carried):
        tokens = [f"t{names[i]}" for i in c]
        rng.shuffle(tokens)
        renamed.append(" ".join([str(v), *tokens]))
    rng.shuffle(renamed)
    back = {f"t{names[i]}": f"a{i}" for i in range(n_attrs)}
    return edge_lines, attr_lines, renamed, back


def _by_token_set(g, result, rename=lambda token: token):
    """Records and patterns keyed by the attribute set's token names."""
    tokens = g.attribute_dictionary.id_to_token

    def key(attrs):
        return frozenset(rename(tokens[a]) for a in attrs)

    records = {key(r.attribute_set): (r.support, r.covered, r.eps, r.eps_exp, r.delta)
               for r in result.records}
    patterns = {}
    for p in result.patterns:
        patterns.setdefault(key(p.attribute_set), []).append(p.quasi_clique)
    return records, patterns


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(inputs=relabelled_inputs(), cfg=configs(), max_set_size=st.sampled_from([None, 2]))
def test_outputs_do_not_depend_on_attribute_order_or_names(inputs, cfg, max_set_size):
    edge_lines, attr_lines, renamed, back = inputs
    cfg = dataclasses.replace(cfg, max_set_size=max_set_size)
    g = load_graph(iter(edge_lines), iter(attr_lines))
    h = load_graph(iter(edge_lines), iter(renamed))
    for mine in (run_scpm, run_naive):
        want = _by_token_set(g, mine(g, build_index(g), cfg))
        assert _by_token_set(h, mine(h, build_index(h), cfg), back.__getitem__) == want
