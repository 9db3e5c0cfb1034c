"""Acceptance suite: one test per criterion, each printing a PASS line.

Heavy shared work (the 200-vertex null-model sweep, the planted benchmark
instance) lives in session fixtures so criteria can share it.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from scpm import (
    ANALYTICAL,
    SIMULATION,
    MinerConfig,
    NullModelConfig,
    QuasiCliqueParams,
    binomial_term,
    build_index,
    covered_vertices,
    enumerate_maximal,
    induced_view,
    load_graph,
    max_eps_exp,
    normalized_delta,
    run_naive,
    run_scpm,
    sim_eps_exp,
    top_k_patterns,
    vertex_set,
)
from scpm.cli import main as cli_main

from oracles import as_pairs, brute_covered, brute_maximal, random_attributed_graph
from synth import planted_instance_lines

P06_4 = QuasiCliqueParams(Fraction(3, 5), 4)


def _ok(number, name):
    print(f"\nACCEPTANCE {number} ({name}): PASS")


@pytest.fixture(scope="session")
def planted(tmp_path_factory):
    edge_lines, attr_lines = planted_instance_lines()
    directory = tmp_path_factory.mktemp("planted")
    edge_path = directory / "planted.edges"
    attr_path = directory / "planted.attrs"
    edge_path.write_text("\n".join(edge_lines) + "\n")
    attr_path.write_text("\n".join(attr_lines) + "\n")
    g = load_graph(iter(edge_lines), iter(attr_lines))
    return g, build_index(g), edge_path, attr_path, directory


@pytest.fixture(scope="session")
def null_model_sweep():
    """sigma -> (simulation estimate, analytical bound) on a 200-vertex graph."""
    rng = random.Random(404)
    n = 200
    edges = [f"{u} {v}" for u in range(n) for v in range(u + 1, n) if rng.random() < 0.015]
    g = load_graph(iter(edges), iter(f"{v}" for v in range(n)))
    cfg = NullModelConfig(kind=SIMULATION, samples=1000, seed=7)
    started = time.perf_counter()
    rows = []
    for sigma in range(10, 201, 10):
        sim = sim_eps_exp(g, sigma, P06_4, cfg)
        bound = max_eps_exp(g.degree_counts, sigma, P06_4, n)
        rows.append((sigma, sim, bound))
    return rows, cfg.samples, time.perf_counter() - started


def test_criterion_1_reference_example_reproduction(example_graph, example_index, example_ids):
    started = time.perf_counter()
    A, B, C = (example_ids.A,), (example_ids.B,), (example_ids.C,)

    # The fixture's edge set was derived by constraint search; re-verify every
    # stated fact against the exhaustive oracle before mining.
    assert len(vertex_set(example_index, A)) == 11
    assert example_ids.orig(vertex_set(example_index, B)) == (6, 7, 8, 9, 10, 11)
    view_a = induced_view(example_graph, vertex_set(example_index, A))
    maximal = brute_maximal(view_a, Fraction(3, 5), 4)
    expected_family = [
        ((6, 7, 8, 9, 10, 11), Fraction(3, 5)),
        ((3, 4, 5, 6), Fraction(1)),
        ((3, 4, 6, 7), Fraction(2, 3)),
        ((3, 5, 6, 7), Fraction(2, 3)),
        ((3, 6, 7, 8), Fraction(2, 3)),
    ]
    assert [(example_ids.orig(v), d) for v, d in maximal] == expected_family
    assert example_ids.orig(brute_covered(view_a, Fraction(3, 5), 4)) == tuple(range(3, 12))
    view_c = induced_view(example_graph, vertex_set(example_index, C))
    assert brute_covered(view_c, Fraction(3, 5), 4) == ()

    cfg = MinerConfig(
        qc_params=P06_4,
        sigma_min=3,
        eps_min=0.5,
        delta_min=0.0,
        k=None,
        null_model=NullModelConfig(kind=ANALYTICAL),
    )
    expected_patterns = {
        (A, (6, 7, 8, 9, 10, 11), 6, "0.60", 11, "0.82"),
        (A, (3, 4, 5, 6), 4, "1.00", 11, "0.82"),
        (A, (3, 4, 6, 7), 4, "0.67", 11, "0.82"),
        (A, (3, 5, 6, 7), 4, "0.67", 11, "0.82"),
        (A, (3, 6, 7, 8), 4, "0.67", 11, "0.82"),
        (B, (6, 7, 8, 9, 10, 11), 6, "0.60", 6, "1.00"),
        (tuple(sorted(A + B)), (6, 7, 8, 9, 10, 11), 6, "0.60", 6, "1.00"),
    }
    for miner in (run_scpm, run_naive):
        result = miner(example_graph, example_index, cfg)
        by_attrs = {r.attribute_set: r for r in result.records}
        got = {
            (
                p.attribute_set,
                example_ids.orig(p.quasi_clique.vertices),
                p.quasi_clique.size,
                f"{float(p.quasi_clique.density):.2f}",
                by_attrs[p.attribute_set].support,
                f"{by_attrs[p.attribute_set].eps:.2f}",
            )
            for p in result.patterns
        }
        assert got == expected_patterns, miner.__name__
        assert len(result.patterns) == 7

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _ok(1, "reference example reproduction")


def test_criterion_2_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(20260808)
    gammas = [Fraction(1, 2), Fraction(3, 5), Fraction(1)]
    checked = 0
    for trial in range(100):
        g = random_attributed_graph(
            rng, rng.randint(8, 30), rng.choice([0.2, 0.4]), rng.randint(2, 8)
        )
        cfg = MinerConfig(
            qc_params=QuasiCliqueParams(gammas[trial % 3], 3 + trial % 2),
            sigma_min=rng.randint(1, 3),
            eps_min=(0.0, 0.3)[trial % 2],
            delta_min=(0.0, 0.5)[trial // 2 % 2],
            k=None,
            null_model=NullModelConfig(kind=ANALYTICAL),
        )
        reference = run_naive(g, build_index(g), cfg)
        result = run_scpm(g, build_index(g), cfg)
        assert sorted(result.records, key=lambda r: r.attribute_set) == sorted(
            reference.records, key=lambda r: r.attribute_set
        )
        key = lambda p: (p.attribute_set, p.quasi_clique.vertices)
        assert sorted(result.patterns, key=key) == sorted(reference.patterns, key=key)
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 100
    assert elapsed < 120.0, f"took {elapsed:.2f}s"
    _ok(2, f"pruned miner equals exhaustive baseline on {checked} random graphs")


def test_criterion_3_exhaustive_quasiclique_oracle():
    rng = random.Random(31415)
    grid = [
        (Fraction(1, 2), 3),
        (Fraction(1, 2), 4),
        (Fraction(3, 5), 3),
        (Fraction(3, 5), 4),
        (Fraction(1), 3),
        (Fraction(1), 4),
    ]
    probs = (0.2, 0.35, 0.5, 0.65, 0.8)
    n = 8
    for trial in range(10_000):
        gamma, min_size = grid[trial % len(grid)]
        p = probs[trial % len(probs)]
        edges = [f"{u} {v}" for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = load_graph(iter(edges), iter(f"{v}" for v in range(n)))
        view = induced_view(g, tuple(range(n)))
        expected = brute_maximal(view, gamma, min_size)
        got = as_pairs(enumerate_maximal(view, QuasiCliqueParams(gamma, min_size)))
        assert got == expected, (trial, edges, gamma, min_size)
    _ok(3, "10,000 random 8-vertex graphs match the all-subsets oracle")


def test_criterion_4_null_model_bound(null_model_sweep):
    rows, samples, elapsed = null_model_sweep
    for sigma, sim, bound in rows:
        allowance = 3 * (sim.std_dev or 0.0) / math.sqrt(samples)
        assert sim.value <= bound.value + allowance, (sigma, sim.value, bound.value)
    bounds = [bound.value for _, _, bound in rows]
    for a, b in zip(bounds, bounds[1:]):
        assert a <= b, "analytical bound must be non-decreasing in support"
    assert elapsed < 300.0, f"sweep took {elapsed:.1f}s"
    _ok(4, "simulation stays below the analytical bound across the support sweep")


def test_criterion_5_delta_ordering(null_model_sweep):
    rows, samples, _ = null_model_sweep
    eps0 = 0.5
    compared = 0
    for sigma, sim, bound in rows:
        if bound.value <= 0.0 or sim.value <= 0.0:
            continue
        delta_lb = normalized_delta(eps0, bound)
        sim_low = sim.value - 3 * (sim.std_dev or 0.0) / math.sqrt(samples)
        if sim_low <= 0.0:
            continue
        delta_sim_upper = eps0 / sim_low
        assert delta_lb <= delta_sim_upper, (sigma, delta_lb, delta_sim_upper)
        compared += 1
    assert compared >= 10, "sweep produced too few comparable points"
    _ok(5, f"analytical-bound delta lower-bounds the simulation delta at {compared} supports")


def test_criterion_6_binomial_correctness():
    rng = random.Random(271828)
    for _ in range(1000):
        alpha = rng.randint(0, 100)
        rho = rng.random()
        row = math.fsum(binomial_term(alpha, beta, rho) for beta in range(alpha + 1))
        assert abs(row - 1.0) < 1e-12, (alpha, rho, row)
    assert abs(binomial_term(5, 2, 0.5) - 0.3125) < 1e-15
    _ok(6, "binomial rows normalize; F(5, 2, 0.5) = 0.3125")


def _planted_config():
    return MinerConfig(
        qc_params=P06_4,
        sigma_min=100,
        eps_min=0.1,
        delta_min=0.0,
        k=5,
        null_model=NullModelConfig(kind=ANALYTICAL),
    )


def test_criterion_7_pruning_effectiveness(planted):
    g, index, _, _, _ = planted
    cfg = _planted_config()
    started = time.perf_counter()
    fast = run_scpm(g, index, cfg)
    fast_wall = time.perf_counter() - started
    started = time.perf_counter()
    slow = run_naive(g, index, cfg)
    slow_wall = time.perf_counter() - started

    assert len(fast.records) >= 20, "every planted attribute must qualify"
    assert fast.stats.expansions < slow.stats.expansions
    ratio = fast_wall / slow_wall
    assert ratio <= 0.25, f"wall ratio {ratio:.3f} (scpm {fast_wall:.2f}s, naive {slow_wall:.2f}s)"
    key = lambda p: (p.attribute_set, p.quasi_clique.vertices)
    assert sorted(fast.patterns, key=key) == sorted(slow.patterns, key=key)
    assert sorted(fast.records, key=lambda r: r.attribute_set) == sorted(
        slow.records, key=lambda r: r.attribute_set
    )
    _ok(
        7,
        f"pruning: {fast.stats.expansions} vs {slow.stats.expansions} candidates, "
        f"wall ratio {ratio:.2f}",
    )


def test_criterion_8_top_k_consistency():
    rng = random.Random(1618)
    checked = 0
    for trial in range(100):
        n = rng.randint(5, 12)
        p = rng.choice([0.3, 0.5, 0.7])
        edges = [f"{u} {v}" for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = load_graph(iter(edges), iter(f"{v}" for v in range(n)))
        view = induced_view(g, tuple(range(n)))
        gamma = rng.choice([Fraction(1, 2), Fraction(3, 5), Fraction(1)])
        params = QuasiCliqueParams(gamma, rng.choice([3, 4]))
        full = enumerate_maximal(view, params)
        for k in (1, 2, 5):
            assert top_k_patterns(view, params, k) == full[:k], (trial, k)
        checked += 1
    assert checked == 100
    _ok(8, "top-k equals the sorted-enumeration prefix on 100 random views")


def test_criterion_9_thread_determinism(planted, tmp_path):
    _, _, edge_path, attr_path, _ = planted
    outputs = []
    for run in (1, 2):
        rec = tmp_path / f"run{run}" / "records.tsv"
        pat = tmp_path / f"run{run}" / "patterns.tsv"
        code = cli_main([
            "--graph", str(edge_path),
            "--attributes", str(attr_path),
            "--sigma-min", "100",
            "--gamma-min", "0.6",
            "--min-size", "4",
            "--eps-min", "0.1",
            "--top-k", "5",
            "--out-records", str(rec),
            "--out-patterns", str(pat),
        ])
        assert code == 0
        outputs.append((rec.read_bytes(), pat.read_bytes()))
    assert outputs[0] == outputs[1]
    _ok(9, "two runs of the planted instance produce byte-identical outputs")
