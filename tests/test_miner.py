import dataclasses
import logging
import math
import random
from fractions import Fraction

import pytest

from scpm import (
    ANALYTICAL,
    SIMULATION,
    CorrelationRecord,
    ExpectedCorrelation,
    MinerConfig,
    NullModel,
    NullModelConfig,
    QuasiCliqueParams,
    SearchBudgetExceeded,
    build_index,
    covered_vertices,
    frequent_attributes,
    load_graph,
    prune_extension,
    run_naive,
    run_scpm,
    structural_correlation,
    vertex_prune,
    vertex_set,
    z_core,
)

from oracles import random_attributed_graph
from synth import planted_instance_lines

P06_4 = QuasiCliqueParams(Fraction(3, 5), 4)


def _graph(edges, attrs_of, n):
    """Graph on vertices 0..n-1; attrs_of(v) lists the tokens of vertex v."""
    attr_lines = [" ".join([str(v), *attrs_of(v)]) for v in range(n)]
    return load_graph(iter(f"{u} {v}" for u, v in edges), iter(attr_lines))


def _labels(g, records):
    return [g.attribute_dictionary.label(r.attribute_set) for r in records]


def reference_config(**overrides):
    base = dict(
        qc_params=P06_4,
        sigma_min=3,
        eps_min=0.5,
        delta_min=0.0,
        k=None,
        null_model=NullModelConfig(kind=ANALYTICAL),
    )
    base.update(overrides)
    return MinerConfig(**base)


class TestStructuralCorrelation:
    def test_example11_single_attribute(self, example_graph, example_index, example_ids):
        cfg = reference_config()
        rec = structural_correlation(example_graph, example_index, (example_ids.A,), cfg)
        assert rec.support == 11
        assert rec.eps == pytest.approx(9 / 11)
        assert round(rec.eps, 2) == 0.82
        assert example_ids.orig(rec.covered) == (3, 4, 5, 6, 7, 8, 9, 10, 11)

    def test_edgeless_induced_graph_has_zero_eps(self, example_graph, example_index, example_ids):
        cfg = reference_config()
        rec = structural_correlation(example_graph, example_index, (example_ids.C,), cfg)
        assert rec.support == 3
        assert rec.eps == 0.0
        assert rec.delta == 0.0

    def test_analytical_calls_share_the_graphs_degree_counts(
        self, example_graph, example_index, example_ids, monkeypatch
    ):
        # Each call builds its own null model, yet all of them read the
        # degree counts the graph keeps, so no call counts degrees again.
        import scpm.nullmodel

        seen = []
        real = scpm.nullmodel.max_eps_exp

        def recording(counts, sigma, params, n):
            seen.append(counts)
            return real(counts, sigma, params, n)

        monkeypatch.setattr(scpm.nullmodel, "max_eps_exp", recording)
        cfg = reference_config()
        n = example_graph.vertex_count
        direct = {}
        for nbrs in example_graph.adjacency:
            direct[len(nbrs)] = direct.get(len(nbrs), 0) + 1
        for a in (example_ids.A, example_ids.B, example_ids.C):
            rec = structural_correlation(example_graph, example_index, (a,), cfg)
            assert rec.eps_exp == real(direct, rec.support, cfg.qc_params, n)
        assert len(seen) == 3
        assert all(counts is example_graph.degree_counts for counts in seen)

    def test_rejects_empty_support(self, example_graph, example_index):
        with pytest.raises(ValueError):
            structural_correlation(example_graph, example_index, (999,), reference_config())


class TestPruneExtension:
    def test_example11_record_passes_first_check(self, example_graph, example_index, example_ids):
        cfg = reference_config()
        rec = structural_correlation(example_graph, example_index, (example_ids.A,), cfg)
        # covered_count = 9 >= 0.5 * 3
        assert prune_extension(rec.covered, cfg, ExpectedCorrelation(0.0))

    def test_zero_eps_pruned_when_thresholds_positive(self):
        rec = CorrelationRecord((0,), 10, (), 0.0, ExpectedCorrelation(0.1), 0.0)
        cfg = reference_config(eps_min=0.1)
        assert not prune_extension(rec.covered, cfg, ExpectedCorrelation(0.1))

    def test_matches_independent_arithmetic(self):
        rng = random.Random(55)
        for _ in range(200):
            support = rng.randint(1, 50)
            covered_n = rng.randint(0, support)
            sigma_min = rng.randint(1, support)
            eps_min = rng.random()
            delta_min = rng.random() * 3
            floor_value = rng.random() * 0.5
            rec = CorrelationRecord(
                (0,),
                support,
                tuple(range(covered_n)),
                covered_n / support,
                ExpectedCorrelation(0.5),
                1.0,
            )
            cfg = reference_config(sigma_min=sigma_min, eps_min=eps_min, delta_min=delta_min)
            floor = ExpectedCorrelation(floor_value)
            eps = covered_n / support
            expected = (eps * support >= eps_min * sigma_min) and (
                eps * support >= delta_min * floor_value * sigma_min
            )
            assert prune_extension(rec.covered, cfg, floor) == expected

    def test_eps_gate_exact_at_float_boundary(self):
        # eps(A|B) = 7/25 == 0.28 exactly, but 0.28 * 25 rounds above 7: a
        # product-form gate prunes A and B and loses A|B.
        clique = [(u, v) for u in range(7) for v in range(u + 1, 7)]
        path = [(v, v + 1) for v in range(7, 59)]
        g = _graph(
            clique + path,
            lambda v: ["A"] * (v <= 34) + ["B"] * (v <= 24 or 40 <= v <= 49),
            60,
        )
        index = build_index(g)
        cfg = reference_config(
            qc_params=QuasiCliqueParams(Fraction(1), 3), sigma_min=25, eps_min=0.28, k=5
        )
        fast = run_scpm(g, index, cfg)
        assert _labels(g, fast.records) == ["A|B"]
        assert len(fast.records[0].covered) == 7
        assert fast.records == run_naive(g, index, cfg).records

    def test_no_delta_gate_under_simulation(self):
        # The simulated eps_exp drops from 1.0 at support 3 to 0 at support
        # 4, so a delta gate at sigma_min would wrongly prune A and B.
        k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        a_set, b_set = {0, 1, 2, 4, 5}, {0, 1, 2, 4, 6}
        g = _graph(
            k4 + [(4, 5), (5, 6), (6, 7)],
            lambda v: ["A"] * (v in a_set) + ["B"] * (v in b_set),
            8,
        )
        index = build_index(g)
        cfg = reference_config(
            qc_params=QuasiCliqueParams(Fraction(1), 3),
            sigma_min=3,
            eps_min=0.0,
            delta_min=1.2,
            k=1,
            null_model=NullModelConfig(kind=SIMULATION, samples=1, seed=15),
        )
        null = NullModel(g, cfg.qc_params, cfg.null_model)
        assert null.expected(3).value > null.expected(4).value
        fast = run_scpm(g, index, cfg)
        by_label = dict(zip(_labels(g, fast.records), fast.records))
        assert by_label["A|B"].support == 4 and math.isinf(by_label["A|B"].delta)
        assert fast.records == run_naive(g, index, cfg).records


class TestRunScpm:
    def test_example11_reference_output(self, example_graph, example_index, example_ids):
        result = run_scpm(example_graph, example_index, reference_config())
        by_attrs = {r.attribute_set: r for r in result.records}
        a, b = (example_ids.A,), (example_ids.B,)
        ab = tuple(sorted((example_ids.A, example_ids.B)))
        assert set(by_attrs) == {a, b, ab}
        assert round(by_attrs[a].eps, 2) == 0.82
        assert by_attrs[b].eps == 1.0
        assert by_attrs[ab].eps == 1.0
        assert len(result.patterns) == 7
        expected_rows = {
            (a, (6, 7, 8, 9, 10, 11), 6, "0.60", 11),
            (a, (3, 4, 5, 6), 4, "1.00", 11),
            (a, (3, 4, 6, 7), 4, "0.67", 11),
            (a, (3, 5, 6, 7), 4, "0.67", 11),
            (a, (3, 6, 7, 8), 4, "0.67", 11),
            (b, (6, 7, 8, 9, 10, 11), 6, "0.60", 6),
            (ab, (6, 7, 8, 9, 10, 11), 6, "0.60", 6),
        }
        got_rows = {
            (
                p.attribute_set,
                example_ids.orig(p.quasi_clique.vertices),
                p.quasi_clique.size,
                f"{float(p.quasi_clique.density):.2f}",
                by_attrs[p.attribute_set].support,
            )
            for p in result.patterns
        }
        assert got_rows == expected_rows

    def test_empty_attribute_file(self):
        g = load_graph(iter(["0 1", "1 2"]), iter([]))
        index = build_index(g)
        result = run_scpm(g, index, reference_config())
        assert result.records == [] and result.patterns == []

    def test_sigma_min_above_vertex_count(self, example_graph, example_index):
        result = run_scpm(example_graph, example_index, reference_config(sigma_min=12))
        assert result.records == [] and result.patterns == []

    def test_max_set_size_caps_depth(self, example_graph, example_index):
        result = run_scpm(example_graph, example_index, reference_config(max_set_size=1))
        assert all(len(r.attribute_set) == 1 for r in result.records)

    def test_coverage_anti_monotone_across_levels(self, example_graph, example_index, example_ids):
        cfg = reference_config()
        result = run_scpm(example_graph, example_index, cfg)
        by_attrs = {r.attribute_set: r for r in result.records}
        child = by_attrs[tuple(sorted((example_ids.A, example_ids.B)))]
        for parent_attr in ((example_ids.A,), (example_ids.B,)):
            parent = by_attrs[parent_attr]
            assert set(child.covered) <= set(parent.covered)
            # the covered-count bound can only shrink along the lattice
            assert len(child.covered) <= len(parent.covered)

    def test_coverage_anti_monotone_on_random_lattices(self):
        # With open thresholds every frequent set gets a record, so the
        # subset/superset coverage containment can be checked lattice-wide.
        rng = random.Random(515)
        for _ in range(10):
            g = random_attributed_graph(rng, 18, 0.35, 5, attr_prob=0.5)
            index = build_index(g)
            cfg = reference_config(sigma_min=1, eps_min=0.0, k=1)
            result = run_scpm(g, index, cfg)
            by_attrs = {r.attribute_set: r for r in result.records}
            for attrs, rec in by_attrs.items():
                for parent_attrs, parent in by_attrs.items():
                    if set(parent_attrs) < set(attrs):
                        assert set(rec.covered) <= set(parent.covered)
                        assert len(rec.covered) <= len(parent.covered)

    def test_no_record_below_sigma_min(self):
        rng = random.Random(301)
        g = random_attributed_graph(rng, 25, 0.35, 5, attr_prob=0.4)
        index = build_index(g)
        result = run_scpm(g, index, reference_config(sigma_min=4, eps_min=0.0))
        assert all(r.support >= 4 for r in result.records)
        record_sets = {r.attribute_set for r in result.records}
        assert all(p.attribute_set in record_sets for p in result.patterns)


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", [9000, 9001])
    def test_matches_naive_on_random_graphs(self, seed):
        rng = random.Random(seed)
        for trial in range(15):
            g = random_attributed_graph(rng, rng.randint(10, 26), rng.choice([0.2, 0.4]), 5)
            index = build_index(g)
            params = QuasiCliqueParams(
                rng.choice([Fraction(1, 2), Fraction(3, 5), Fraction(1)]),
                rng.choice([3, 4]),
            )
            sigma_min = rng.randint(1, 4)
            boundary = rng.randint(1, sigma_min) / sigma_min
            cfg = MinerConfig(
                qc_params=params,
                sigma_min=sigma_min,
                eps_min=rng.choice([0.0, 0.3, boundary]),
                delta_min=rng.choice([0.0, 0.5]),
                k=None,
                null_model=NullModelConfig(kind=ANALYTICAL),
            )
            fast = run_scpm(g, index, cfg)
            slow = run_naive(g, index, cfg)
            assert sorted(fast.records, key=lambda r: r.attribute_set) == sorted(
                slow.records, key=lambda r: r.attribute_set
            )
            key = lambda p: (p.attribute_set, p.quasi_clique.vertices)
            assert sorted(fast.patterns, key=key) == sorted(slow.patterns, key=key)

    def test_matches_naive_with_simulation_model(self):
        # Same seed makes both miners see identical expectation values;
        # eps_min = c / sigma_min sits exactly on a covered-count boundary.
        rng = random.Random(77)
        g = random_attributed_graph(rng, 18, 0.3, 4)
        index = build_index(g)
        for eps_min in (0.0, 1 / 2, 2 / 2):
            cfg = MinerConfig(
                qc_params=P06_4,
                sigma_min=2,
                eps_min=eps_min,
                delta_min=0.0,
                k=None,
                null_model=NullModelConfig(kind=SIMULATION, samples=30, seed=11),
            )
            fast = run_scpm(g, index, cfg)
            slow = run_naive(g, index, cfg)
            assert sorted(fast.records, key=lambda r: r.attribute_set) == sorted(
                slow.records, key=lambda r: r.attribute_set
            )


class TestRunNaive:
    def test_example11_same_patterns(self, example_graph, example_index):
        fast = run_scpm(example_graph, example_index, reference_config())
        slow = run_naive(example_graph, example_index, reference_config())
        assert sorted(p.quasi_clique.vertices for p in fast.patterns) == sorted(
            p.quasi_clique.vertices for p in slow.patterns
        )

    def test_empty_when_sigma_min_exceeds_everything(self, example_graph, example_index):
        result = run_naive(example_graph, example_index, reference_config(sigma_min=100))
        assert result.records == []


class TestOverflowHandling:
    def _overflow_instance(self):
        # A 16-cycle defeats lookahead; budget 3 cannot finish any set.
        edge_lines = [f"{v} {(v + 1) % 16}" for v in range(16)]
        attr_lines = [f"{v} tag" for v in range(16)]
        g = load_graph(iter(edge_lines), iter(attr_lines))
        return g, build_index(g)

    def test_logged_and_skipped(self, caplog):
        g, index = self._overflow_instance()
        cfg = reference_config(
            qc_params=QuasiCliqueParams(Fraction(1, 2), 3),
            sigma_min=1,
            eps_min=0.0,
            expansion_budget=3,
        )
        with caplog.at_level(logging.WARNING, logger="scpm"):
            result = run_scpm(g, index, cfg)
        assert result.stats.overflow_sets
        assert result.records == []
        assert any("aborted" in rec.message for rec in caplog.records)
        # The set is named as the TSVs name it, not by its internal ids.
        assert any(rec.message.startswith("attribute set tag aborted") for rec in caplog.records)

    def test_fail_fast_raises(self):
        g, index = self._overflow_instance()
        cfg = reference_config(
            qc_params=QuasiCliqueParams(Fraction(1, 2), 3),
            sigma_min=1,
            eps_min=0.0,
            expansion_budget=3,
            fail_fast=True,
        )
        with pytest.raises(SearchBudgetExceeded):
            run_scpm(g, index, cfg)

    def test_miners_agree_under_overflow(self):
        # The 16-cycle tagged a overflows in both miners; the triangle tagged
        # a and b does not. Neither miner may extend a, so a|b goes unvisited.
        cycle = [(v, (v + 1) % 16) for v in range(16)]
        g = _graph(cycle + [(16, 17), (17, 18), (16, 18)], lambda v: ["a"] + ["b"] * (v >= 16), 19)
        index = build_index(g)
        cfg = reference_config(
            qc_params=QuasiCliqueParams(Fraction(1, 2), 3),
            sigma_min=1,
            eps_min=0.0,
            expansion_budget=3,
        )
        fast = run_scpm(g, index, cfg)
        slow = run_naive(g, index, cfg)
        a = g.attribute_dictionary.id_for("a")
        assert fast.stats.overflow_sets == slow.stats.overflow_sets == [(a,)]
        assert _labels(g, fast.records) == ["b"]
        assert fast.records == slow.records

    def test_open_set_in_the_gap_is_not_searched_so_cannot_overflow(self):
        # Tag s sits on a 16-cycle, a triangle and 20 isolated carriers:
        # support 39, core 19, below eps_min * 39 = 19.5 but above eps_min *
        # sigma_min = 1.5. Tag t sits on the triangle, so s|t has support 3
        # and s is open. A search of the cycle exceeds budget 3, so the
        # exhaustive miner aborts s with its subtree; run_scpm never searches
        # s, extends it on its core and records s|t.
        cycle = [(v, (v + 1) % 16) for v in range(16)]
        g = _graph(
            cycle + [(16, 17), (17, 18), (16, 18)],
            lambda v: ["s"] + ["t"] * (16 <= v <= 18),
            39,
        )
        index = build_index(g)
        cfg = reference_config(
            qc_params=QuasiCliqueParams(Fraction(1, 2), 3),
            sigma_min=3,
            eps_min=0.5,
            expansion_budget=3,
        )
        tight = run_scpm(g, index, cfg)
        assert tight.stats.overflow_sets == []
        assert _labels(g, tight.records) == ["t", "s|t"]
        assert tight.records[1].covered == (16, 17, 18)
        loose = run_scpm(g, index, dataclasses.replace(cfg, expansion_budget=1000))
        assert (tight.records, tight.patterns) == (loose.records, loose.patterns)
        s = g.attribute_dictionary.id_for("s")
        assert run_naive(g, index, cfg).stats.overflow_sets == [(s,)]

    @pytest.mark.parametrize("mine", [run_scpm, run_naive], ids=["scpm", "naive"])
    def test_simulation_samples_use_run_budget(self, mine):
        # The even vertices of a 16-cycle induce no edge, so their own view
        # costs no expansion; random samples hold paths that exceed budget 3.
        cycle = [(v, (v + 1) % 16) for v in range(16)]
        g = _graph(cycle, lambda v: ["even"] * (v % 2 == 0), 16)
        index = build_index(g)
        cfg = reference_config(
            qc_params=QuasiCliqueParams(Fraction(1, 2), 3),
            sigma_min=1,
            eps_min=0.0,
            k=1,
            expansion_budget=3,
            null_model=NullModelConfig(kind=SIMULATION, samples=5, seed=0),
        )
        result = mine(g, index, cfg)
        assert result.stats.overflow_sets == [(g.attribute_dictionary.id_for("even"),)]
        assert result.records == []
        # The sample searches that ran until they overflowed are counted.
        assert result.stats.expansions > 0

    @pytest.mark.parametrize("mine", [run_scpm, run_naive], ids=["scpm", "naive"])
    def test_overflowed_support_is_not_simulated_again(self, mine, monkeypatch):
        # even and odd both have support 8 and induce no edge. The samples
        # drawn for support 8 overflow budget 3 while scoring the first of
        # them; the second fails from the remembered overflow.
        import scpm.nullmodel

        cycle = [(v, (v + 1) % 16) for v in range(16)]
        g = _graph(cycle, lambda v: ["odd" if v % 2 else "even"], 16)
        index = build_index(g)
        cfg = reference_config(
            qc_params=QuasiCliqueParams(Fraction(1, 2), 3),
            sigma_min=1,
            eps_min=0.0,
            k=1,
            expansion_budget=3,
            null_model=NullModelConfig(kind=SIMULATION, samples=5, seed=0),
        )
        simulated = []
        real = scpm.nullmodel.sim_eps_exp

        def counting(graph, sigma, *args, **kwargs):
            simulated.append(sigma)
            return real(graph, sigma, *args, **kwargs)

        monkeypatch.setattr(scpm.nullmodel, "sim_eps_exp", counting)
        result = mine(g, index, cfg)
        ids = g.attribute_dictionary.id_for
        assert simulated == [8]
        assert sorted(result.stats.overflow_sets) == [(ids("even"),), (ids("odd"),)]
        assert result.records == []

    @pytest.mark.parametrize("mine", [run_scpm, run_naive], ids=["scpm", "naive"])
    def test_set_below_eps_min_draws_no_samples(self, mine, monkeypatch):
        # The samples drawn for support 8 overflow budget 3, but even and
        # odd induce no edge: eps 0 is below eps_min, so no eps_exp can
        # change their records and no sample is drawn to abort them.
        import scpm.nullmodel

        cycle = [(v, (v + 1) % 16) for v in range(16)]
        g = _graph(cycle, lambda v: ["odd" if v % 2 else "even"], 16)
        index = build_index(g)
        cfg = reference_config(
            qc_params=QuasiCliqueParams(Fraction(1, 2), 3),
            sigma_min=1,
            eps_min=0.1,
            k=1,
            expansion_budget=3,
            null_model=NullModelConfig(kind=SIMULATION, samples=5, seed=0),
        )
        simulated = []
        real = scpm.nullmodel.sim_eps_exp

        def counting(graph, sigma, *args, **kwargs):
            simulated.append(sigma)
            return real(graph, sigma, *args, **kwargs)

        monkeypatch.setattr(scpm.nullmodel, "sim_eps_exp", counting)
        result = mine(g, index, cfg)
        other = (run_naive if mine is run_scpm else run_scpm)(g, index, cfg)
        assert simulated == []
        assert result.stats.overflow_sets == other.stats.overflow_sets == []
        assert result.stats.sets_visited == 2
        assert result.records == other.records == []


@pytest.fixture(scope="module")
def planted_2000():
    g = load_graph(*(iter(lines) for lines in planted_instance_lines()))
    return g, build_index(g)


def _instance(request, name):
    """Graph, index and config of example11, or of the planted n=2000
    instance at the criterion-7 config."""
    if name == "example11":
        g, index = request.getfixturevalue("example_graph"), request.getfixturevalue("example_index")
        return g, index, reference_config()
    g, index = request.getfixturevalue("planted_2000")
    return g, index, reference_config(sigma_min=100, eps_min=0.1, k=5)


def _recording_walk(evaluated, covered, patch):
    """A lattice walk that logs, before each set is searched, its attribute
    set, posting bitset, search members and the attribute sets of the two
    parents it was formed from (None for a singleton) in ``evaluated``, and
    each searched set's coverage set in ``covered``. The parents are learned
    from the walk's ``_union_attrs(base.attrs, other.attrs)`` call, which
    ``patch`` wraps."""
    import scpm.miner

    parents = {}
    union = scpm.miner._union_attrs

    def recording_union(a, b):
        attrs = union(a, b)
        parents[attrs] = (a, b)
        return attrs

    patch.setattr(scpm.miner, "_union_attrs", recording_union)

    class Recording(scpm.miner._Walk):
        def __init__(self, cfg, null, evaluate):
            def recorded(attrs, mask, members, stats, closed):
                evaluated.append((attrs, mask, members, parents.get(attrs)))
                out = evaluate(attrs, mask, members, stats, closed)
                covered[attrs] = out[0]
                return out

            super().__init__(cfg, null, recorded)

    return Recording


class TestSupportGate:
    """Support is decided on bitsets: only candidates whose posting AND
    reaches sigma_min are searched, no posting list is merged, and both
    miners still agree."""

    @pytest.mark.parametrize("instance", ["example11", "planted2000"])
    def test_evaluates_only_frequent_candidates_without_merging(self, instance, request, monkeypatch):
        import scpm.index
        import scpm.miner

        g, index, cfg = _instance(request, instance)

        def merging(*args):
            raise AssertionError("the walk merged two posting lists")

        monkeypatch.setattr(scpm.miner, "intersect_sorted", merging)
        monkeypatch.setattr(scpm.index, "intersect_sorted", merging)
        monkeypatch.setattr(scpm.miner, "vertex_set", merging)
        singles = len(frequent_attributes(index, cfg.sigma_min))
        results = []
        for mine in (run_scpm, run_naive):
            evaluated = []
            with monkeypatch.context() as patch:
                patch.setattr(scpm.miner, "_Walk", _recording_walk(evaluated, {}, patch))
                result = mine(g, index, cfg)
            stats = result.stats
            children = [mask.bit_count() for _, mask, _, parents in evaluated if parents]
            assert children and min(children) >= cfg.sigma_min
            assert len(children) == stats.sets_visited + len(stats.overflow_sets) - singles
            results.append(result)
        fast, slow = results
        by_set = lambda r: r.attribute_set
        assert sorted(fast.records, key=by_set) == sorted(slow.records, key=by_set)
        key = lambda p: (p.attribute_set, p.quasi_clique.vertices)
        assert sorted(fast.patterns, key=key) == sorted(slow.patterns, key=key)


class TestMembersFromMasks:
    def test_child_members_are_posting_within_both_parents_coverage(self, monkeypatch):
        # Open thresholds extend every set, so the lattice reaches depth 3
        # and beyond; each child's search members, the intersection of both
        # parents' coverage sets, must be its posting list filtered by them.
        # A singleton's members are its posting's first-pass survivors,
        # whose z-core is the posting's.
        import scpm.miner

        rng = random.Random(1010)
        deepest = 0
        restricted = 0
        for _ in range(12):
            g = random_attributed_graph(rng, 20, 0.5, 5, attr_prob=0.6)
            index = build_index(g)
            cfg = reference_config(sigma_min=2, eps_min=0.0, k=1)
            evaluated, covered = [], {}
            with monkeypatch.context() as patch:
                patch.setattr(scpm.miner, "_Walk", _recording_walk(evaluated, covered, patch))
                run_scpm(g, index, cfg)
            for attrs, mask, members, parents in evaluated:
                posting = vertex_set(index, attrs)
                assert mask.bit_count() == len(posting)
                if parents is None:
                    inside = set(posting)
                    z = cfg.qc_params.z
                    assert list(members) == [
                        v for v in posting if sum(u in inside for u in g.adjacency[v]) >= z
                    ]
                    assert z_core(g.adjacency, members, z) == z_core(g.adjacency, posting, z)
                    continue
                a, b = (set(covered[p]) for p in parents)
                assert members == tuple(v for v in posting if v in a and v in b)
                deepest = max(deepest, len(attrs))
                restricted += 0 < len(members) < len(posting)
        assert deepest >= 3
        assert restricted > 0

    def test_children_are_restricted_without_decoding_bitsets(self, monkeypatch):
        # The pruned walk decodes no posting and makes a posting bitset of
        # the singletons' postings only. Its other bitsets are gates: one of
        # each singleton's members and one of each frontier entry's returned
        # set, each made once, and a gate is decoded only into the members
        # of a child that is formed. Its output still equals the exhaustive
        # miner's, with eps_min 0 (every join live) and above.
        import scpm.miner

        def no_decode(mask):
            raise AssertionError("run_scpm decoded a bitset")

        rng = random.Random(1010)
        deep = 0
        for eps_min in (0.0, 0.5) * 12:
            g = random_attributed_graph(rng, 20, 0.5, 5, attr_prob=0.6)
            index = build_index(g)
            cfg = reference_config(sigma_min=2, eps_min=eps_min, k=1)
            naive = run_naive(g, index, cfg)
            bitsets, gated, decoded, evaluated, covered = [], [], [], [], {}

            def counting(vertices, bitset=scpm.miner._bitset):
                bitsets.append(vertices)
                return bitset(vertices)

            class Recording(scpm.miner._Universe):
                def gate(self, vertices):
                    gated.append(vertices)
                    return super().gate(vertices)

                def members(self, gate):
                    decoded.append(super().members(gate))
                    return decoded[-1]

            with monkeypatch.context() as patch:
                patch.setattr(scpm.miner, "_bits", no_decode)
                patch.setattr(scpm.miner, "_bitset", counting)
                patch.setattr(scpm.miner, "_Universe", Recording)
                patch.setattr(scpm.miner, "_Walk", _recording_walk(evaluated, covered, patch))
                pruned = run_scpm(g, index, cfg)
            postings = [p for _, p in frequent_attributes(index, cfg.sigma_min)]
            singles = [members for _, _, members, parents in evaluated if parents is None]
            children = [members for _, _, members, parents in evaluated if parents]
            made = [b for b in bitsets if any(b is p for p in postings)]
            assert len(made) == len(postings) == len(singles)
            assert len(bitsets) == len(made) + len(gated)
            assert [id(m) for m in gated[: len(singles)]] == [id(m) for m in singles]
            # Each is a set a visit returned; only the empty tuple, one
            # object, can be returned twice.
            returned = {id(c) for c in covered.values()}
            rest = [id(c) for c in gated[len(singles) :] if c != ()]
            assert set(rest) <= returned and len(set(rest)) == len(rest)
            assert len(gated) - len(singles) <= len(covered)
            assert [id(m) for m in decoded] == [id(m) for m in children]
            assert pruned.records == naive.records
            assert pruned.patterns == naive.patterns
            deep += sum(len(r.attribute_set) >= 2 for r in pruned.records)
        assert deep > 0


class TestPeelBeforeView:
    """The miner searches only the view of the members' z-core, and that
    changes no record or pattern."""

    @pytest.mark.parametrize("instance", ["example11", "planted2000"])
    def test_views_arrive_peeled(self, instance, request, monkeypatch):
        import scpm.miner

        g, index, cfg = _instance(request, instance)
        peeled_views = []

        def checking(view, params, **kwargs):
            peeled_views.append(vertex_prune(view, params) is view)
            return covered_vertices(view, params, **kwargs)

        monkeypatch.setattr(scpm.miner, "covered_vertices", checking)
        peeled = run_scpm(g, index, cfg)
        searched = len(peeled_views)
        assert searched and all(peeled_views)
        # A peel that keeps every member searches the whole (restricted)
        # view of each posting. The core-size bound then reads the member
        # count, so it skips fewer sets, and the extra searches find no
        # coverage set that reaches eps_min.
        peeled_views.clear()
        monkeypatch.setattr(scpm.miner, "z_core", lambda adjacency, members, z: members)
        monkeypatch.setattr(scpm.miner, "z_survivors", lambda adjacency, member_sets, z: member_sets)
        whole = run_scpm(g, index, cfg)
        assert not all(peeled_views)
        assert len(peeled_views) >= searched
        assert peeled.records == whole.records
        assert peeled.patterns == whole.patterns
        # Each run gates its joins on the sets its own visits return. The
        # unpeeled run searches the planted instance's noise sets that the
        # peeled one extends on their cores, and returns their smaller
        # coverage sets, so fewer of their frequent joins are live.
        visits = {"example11": (4, 4), "planted2000": (852, 845)}[instance]
        assert (peeled.stats.sets_visited, whole.stats.sets_visited) == visits
        assert peeled.stats.overflow_sets == whole.stats.overflow_sets
        assert whole.stats.expansions >= peeled.stats.expansions


class TestOneEnginePerSearchedSet:
    """A searched set's top-k search reuses its coverage search's engine
    whenever the coverage set is the whole core, so such a set builds one
    view and one engine, not two. On example11 the set A covers 9 of its
    11 core vertices, so its top-k search builds its own."""

    @pytest.mark.parametrize("instance", ["example11", "planted2000"])
    def test_engines_built(self, instance, request, monkeypatch):
        import scpm.miner
        import scpm.quasiclique as qc

        g, index, cfg = _instance(request, instance)
        builds = 0
        covers = []  # per coverage search: whether it covered its whole view
        top_k_builds = reused = 0

        class Counting(qc._ViewSearch):
            def __init__(self, *args):
                nonlocal builds
                builds += 1
                super().__init__(*args)

        def covering(view, params, **kwargs):
            covered = covered_vertices(view, params, **kwargs)
            covers.append(len(covered) == len(view))
            return covered

        def top_k(view, params, k, **kwargs):
            nonlocal top_k_builds, reused
            if covers[-1]:
                reused += 1
            else:
                top_k_builds += 1
            return qc.top_k_patterns(view, params, k, **kwargs)

        monkeypatch.setattr(qc, "_ViewSearch", Counting)
        monkeypatch.setattr(scpm.miner, "covered_vertices", covering)
        monkeypatch.setattr(scpm.miner, "top_k_patterns", top_k)
        result = run_scpm(g, index, cfg)
        assert reused > 0
        assert builds == len(covers) + top_k_builds
        monkeypatch.undo()
        naive = run_naive(g, index, cfg)
        key = lambda p: (p.attribute_set, p.quasi_clique.vertices)  # noqa: E731
        assert sorted(result.patterns, key=key) == sorted(naive.patterns, key=key)
        assert sorted(result.records, key=lambda r: r.attribute_set) == sorted(
            naive.records, key=lambda r: r.attribute_set
        )


class TestSkipSmallCores:
    """run_scpm searches a set only when its z-core holds at least
    eps_min * sigma_min vertices: its coverage set lies in that core, so a
    smaller core can give neither the set nor any superset eps >= eps_min."""

    def test_core_at_the_bound_is_searched_below_it_is_not(self, monkeypatch):
        import scpm.miner

        # Tag a sits on a 5-clique and tag b on a 4-clique, each with
        # isolated carriers up to support 7. At eps_min = 5 / 7, a's core of
        # 5 sits exactly at the bound and b's core of 4 falls below it.
        clique = lambda vs: [(u, v) for u in vs for v in vs if u < v]  # noqa: E731
        g = _graph(
            clique(range(5)) + clique(range(7, 11)),
            lambda v: ["a"] if v < 7 else ["b"],
            14,
        )
        index = build_index(g)
        cfg = reference_config(sigma_min=7, eps_min=5 / 7)
        searched = []

        def recording(view, params, **kwargs):
            searched.append(view.members)
            return covered_vertices(view, params, **kwargs)

        monkeypatch.setattr(scpm.miner, "covered_vertices", recording)
        result = run_scpm(g, index, cfg)
        assert searched == [tuple(range(5))]
        assert _labels(g, result.records) == ["a"]
        assert result.records[0].eps == cfg.eps_min
        assert result.stats.sets_visited == 2

    def test_planted_searches_fewer_views_than_it_visits(self, planted_2000, monkeypatch):
        import scpm.miner

        g, index = planted_2000
        searches = 0

        def counting(view, params, **kwargs):
            nonlocal searches
            searches += 1
            return covered_vertices(view, params, **kwargs)

        monkeypatch.setattr(scpm.miner, "covered_vertices", counting)
        result = run_scpm(g, index, reference_config(sigma_min=100, eps_min=0.1, k=5))
        assert 0 < searches < result.stats.sets_visited

    def test_small_core_cannot_overflow(self):
        from scpm.cli import patterns_text, records_text

        # A tag on a 16-cycle plus 84 isolated carriers: support 100, core
        # 16, below eps_min * sigma_min = 20. Budget 3 cannot finish a search
        # of the cycle, and no search is made.
        g = _graph([(v, (v + 1) % 16) for v in range(16)], lambda v: ["tag"], 100)
        index = build_index(g)
        cfg = reference_config(
            qc_params=QuasiCliqueParams(Fraction(1, 2), 3), sigma_min=100, eps_min=0.2, k=5
        )
        tight = run_scpm(g, index, dataclasses.replace(cfg, expansion_budget=3))
        assert tight.stats.sets_visited == 1
        assert tight.stats.overflow_sets == []
        loose = run_scpm(g, index, cfg)

        def tsv(result):
            return (
                records_text([(None, result.records)], g, "m"),
                patterns_text([(None, result.patterns)], g, "m"),
            )

        assert tsv(tight) == tsv(loose)


class TestClosedSets:
    """run_scpm searches a set only when its core can reach eps_min times
    its own support. Below that, a closed set, whose joins with every
    sibling of its class fall below sigma_min, is skipped, and an open one
    is extended on its core: the core holds every coverage set of its
    supersets."""

    @staticmethod
    def _searched_cores(monkeypatch):
        import scpm.miner

        searched = []

        def recording(view, params, **kwargs):
            searched.append(view.members)
            return covered_vertices(view, params, **kwargs)

        monkeypatch.setattr(scpm.miner, "covered_vertices", recording)
        return searched

    @staticmethod
    def _assert_matches_naive(g, index, cfg, result):
        naive = run_naive(g, index, cfg)
        assert result.records == naive.records
        assert result.patterns == naive.patterns
        assert result.stats.sets_visited == naive.stats.sets_visited

    def test_set_in_the_gap_is_searched_neither_closed_nor_open(self, monkeypatch):
        # Vertices 0-9 form a 10-clique. Tag s sits on 0-5 with the shared
        # carriers and 6 carriers of its own, support 15; tag t on 0-9 with
        # the shared carriers, support 13. At sigma_min 10 and eps_min 0.5
        # the core of s, the 6-clique, reaches eps_min * sigma_min = 5 but
        # not eps_min * 15 = 7.5, so its own eps cannot reach eps_min. With
        # 3 shared carriers their join has support 9, so both are closed and
        # s is skipped. One more shared carrier lifts the join to 10: s is
        # open and extended on its core without a search, and the join,
        # whose members are the 6-clique, is visited and qualifies.
        clique = lambda vs: [(u, v) for u in vs for v in vs if u < v]  # noqa: E731
        cfg = reference_config(sigma_min=10, eps_min=0.5)
        core = tuple(range(6))
        for opened in (False, True):
            shared = range(20, 24 if opened else 23)

            def tags(v):
                return (["s"] if v < 6 or v in shared or v >= 30 else []) + (
                    ["t"] if v < 10 or v in shared else []
                )

            g = _graph(clique(range(10)), tags, 36)
            index = build_index(g)
            with monkeypatch.context() as patch:
                searched = self._searched_cores(patch)
                result = run_scpm(g, index, cfg)
            assert searched.count(core) == opened  # the join's search, never s's
            assert _labels(g, result.records) == ["t", "s|t"][: 1 + opened]
            assert result.stats.sets_visited == 2 + opened
            self._assert_matches_naive(g, index, cfg, result)

    def test_join_with_disjoint_members_leaves_a_gap_set_closed(self, monkeypatch):
        # Tag s sits on a 6-clique with 9 isolated carriers, support 15; tag
        # t on a 10-clique with the same 9 carriers, support 19. At
        # sigma_min 10 and eps_min 0.5, s is in the gap as above. Their join
        # has support 9, or 10 with one more carrier of both; either way its
        # members, which lie in both cliques, number 0, below eps_min *
        # sigma_min = 5. So the join is dead: it gets no posting AND, s
        # counts as closed and is skipped, and the join, which the
        # exhaustive miner visits and cannot record, is never formed.
        clique = lambda vs: [(u, v) for u in vs for v in vs if u < v]  # noqa: E731
        edges = clique(range(6)) + clique(range(20, 30))
        cfg = reference_config(sigma_min=10, eps_min=0.5)
        for opened in (False, True):
            carriers = range(30, 40 if opened else 39)

            def tags(v):
                return (["s"] if v < 6 or v in carriers else []) + (
                    ["t"] if 20 <= v < 30 or v in carriers else []
                )

            g = _graph(edges, tags, 40)
            index = build_index(g)
            with monkeypatch.context() as patch:
                searched = self._searched_cores(patch)
                result = run_scpm(g, index, cfg)
            naive = run_naive(g, index, cfg)
            assert tuple(range(6)) not in searched
            assert _labels(g, result.records) == ["t"]
            assert (result.records, result.patterns) == (naive.records, naive.patterns)
            assert result.stats.sets_visited == 2
            assert result.stats.posting_ands == 0
            assert naive.stats.sets_visited == 2 + opened

    def test_open_set_in_the_gap_extends_to_a_qualifying_join(self, monkeypatch):
        # Tag s sits on a 6-clique and a 5-clique with 12 isolated carriers:
        # support 23, core 11. At sigma_min 6 and eps_min 0.5 that core
        # reaches eps_min * sigma_min = 3 but not eps_min * 23 = 11.5. Tag t
        # sits on the 6-clique alone, so s|t has support 6 and s is open.
        # The join's members are the 6-clique, cut from s's core; s itself
        # is never searched.
        clique = lambda vs: [(u, v) for u in vs for v in vs if u < v]  # noqa: E731
        g = _graph(
            clique(range(6)) + clique(range(10, 15)),
            lambda v: ["s"] * (v < 6 or v >= 10) + ["t"] * (v < 6),
            27,
        )
        index = build_index(g)
        cfg = reference_config(sigma_min=6, eps_min=0.5)
        searched = self._searched_cores(monkeypatch)
        result = run_scpm(g, index, cfg)
        assert (*range(6), *range(10, 15)) not in searched
        assert _labels(g, result.records) == ["t", "s|t"]
        join = result.records[1]
        assert join.covered == tuple(range(6)) and join.eps == 1.0
        self._assert_matches_naive(g, index, cfg, result)

    def test_open_set_with_an_uncovered_core_now_extends(self, monkeypatch):
        # Tag s sits on a chordless 5-cycle 0-4 with 6 isolated carriers:
        # support 11. At gamma 3/5 and min_size 4 the cycle is a 2-core that
        # holds no admissible set, so s covers nothing, yet its core of 5
        # reaches eps_min * sigma_min = 2.5 but not eps_min * 11 = 5.5. Tag
        # t sits on the cycle and two adjacent hubs 20 and 21, each joined
        # to 0, 1 and 2, so t covers 0, 1, 2 and the hubs; s|t has support
        # 5 and s is open. A search of s would find an empty coverage set
        # and stop there; the unsearched s is extended on its core, so its
        # join is visited too. Its members, 0, 1 and 2, reach eps_min *
        # sigma_min = 3, but they form a path whose core is empty, so the
        # join covers nothing.
        cycle = [(v, (v + 1) % 5) for v in range(5)]
        hubs = [(20, 21)] + [(h, v) for h in (20, 21) for v in range(3)]
        g = _graph(
            cycle + hubs,
            lambda v: ["s"] * (v < 11) + ["t"] * (v < 5 or v >= 20),
            22,
        )
        index = build_index(g)
        cfg = reference_config(sigma_min=5, eps_min=0.5)
        searched = self._searched_cores(monkeypatch)
        result = run_scpm(g, index, cfg)
        assert tuple(range(5)) not in searched
        assert _labels(g, result.records) == ["t"]
        assert result.records[0].covered == (0, 1, 2, 20, 21)
        assert result.stats.sets_visited == 3
        self._assert_matches_naive(g, index, cfg, result)

    def test_open_set_whose_join_misses_the_coverage_set_forms_no_child(self, monkeypatch):
        # Tag s sits on the 5-cycle with 6 isolated carriers, as above; tag
        # t on a 5-clique and the cycle, so s|t has support 5 and s is open
        # and extended on its core. But t covers only the clique, so the
        # join's members, the cycle within t's coverage set, are empty:
        # below eps_min * sigma_min = 2.5, the join is dead and not formed,
        # where the exhaustive miner visits it and records nothing.
        cycle = [(v, (v + 1) % 5) for v in range(5)]
        clique = [(u, v) for u in range(20, 25) for v in range(u + 1, 25)]
        g = _graph(
            cycle + clique,
            lambda v: ["s"] * (v < 11) + ["t"] * (v < 5 or v >= 20),
            25,
        )
        index = build_index(g)
        cfg = reference_config(sigma_min=5, eps_min=0.5)
        searched = self._searched_cores(monkeypatch)
        result = run_scpm(g, index, cfg)
        naive = run_naive(g, index, cfg)
        assert tuple(range(5)) not in searched
        assert _labels(g, result.records) == ["t"]
        assert (result.records, result.patterns) == (naive.records, naive.patterns)
        assert result.stats.sets_visited == 2
        assert naive.stats.sets_visited == 3

    @pytest.mark.parametrize("kind", [ANALYTICAL, SIMULATION])
    def test_every_searched_core_can_reach_eps_min_for_its_own_support(
        self, kind, planted_2000, monkeypatch
    ):
        # At the criterion-7 config the planted instance's noise singletons
        # have support about 500 and cores of 20-31: each can reach eps_min *
        # sigma_min = 10 but not eps_min times its own support.
        import scpm.miner

        g, index = planted_2000
        cfg = reference_config(
            sigma_min=100,
            eps_min=0.1,
            k=5,
            null_model=NullModelConfig(kind=kind, samples=5, seed=0),
        )
        searched, supports = [], []

        class Recording(scpm.miner._Walk):
            def __init__(self, cfg, null, evaluate):
                def recorded(attrs, mask, members, stats, closed):
                    supports.append(mask.bit_count())
                    return evaluate(attrs, mask, members, stats, closed)

                super().__init__(cfg, null, recorded)

        def recording(view, params, **kwargs):
            searched.append((len(view.members), supports[-1]))
            return covered_vertices(view, params, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(scpm.miner, "_Walk", Recording)
            patch.setattr(scpm.miner, "covered_vertices", recording)
            result = run_scpm(g, index, cfg)
        assert searched
        assert all(core / support >= cfg.eps_min for core, support in searched)
        naive = run_naive(g, index, cfg)
        assert result.records == naive.records
        assert result.patterns == naive.patterns

    @pytest.mark.parametrize(("clique_size", "support"), [(12, 100), (7, 25)])
    def test_core_exactly_at_own_support_bound_is_searched(
        self, clique_size, support, monkeypatch
    ):
        # eps_min is clique_size / support, computed as eps is. At 7 / 25 a
        # test written as clique_size >= eps_min * support would fail:
        # (7 / 25) * 25 is 7.000000000000001.
        clique = [(u, v) for u in range(clique_size) for v in range(u + 1, clique_size)]
        g = _graph(clique, lambda v: ["tag"] if v < support else [], support + 1)
        index = build_index(g)
        cfg = reference_config(sigma_min=support // 2, eps_min=clique_size / support)
        searched = self._searched_cores(monkeypatch)
        result = run_scpm(g, index, cfg)
        assert searched == [tuple(range(clique_size))]
        assert _labels(g, result.records) == ["tag"]
        assert result.records[0].eps == cfg.eps_min
        self._assert_matches_naive(g, index, cfg, result)

    def test_max_set_size_at_singletons_closes_every_set(self, planted_2000, monkeypatch):
        import scpm.miner

        g, index = planted_2000
        cfg = reference_config(sigma_min=100, eps_min=0.1, k=5, max_set_size=1)
        flags = []

        class Recording(scpm.miner._Walk):
            def __init__(self, cfg, null, evaluate):
                def recorded(attrs, mask, members, stats, closed):
                    flags.append(closed())
                    return evaluate(attrs, mask, members, stats, closed)

                super().__init__(cfg, null, recorded)

        with monkeypatch.context() as patch:
            patch.setattr(scpm.miner, "_Walk", Recording)
            searched = self._searched_cores(patch)
            result = run_scpm(g, index, cfg)
        assert flags and all(flags)
        assert len(flags) == len(frequent_attributes(index, cfg.sigma_min))
        assert 0 < len(searched) < result.stats.sets_visited
        assert len(result.records) >= 20
        self._assert_matches_naive(g, index, cfg, result)

    def test_mark_is_asked_only_in_the_gap_and_at_most_once(self, monkeypatch):
        # Tags a, b and c all sit on one 4-clique and six isolated carriers,
        # so every set has support 10 and a core of 4. At sigma_min 4 and
        # eps_min 0.5 each core reaches eps_min * sigma_min = 2 but not
        # eps_min * 10 = 5: every set asks for its mark. a|c and b|c join to
        # a|b|c, so both are open, and their members, the clique, already sit
        # in the gap; their core check must not ask again. At eps_min 0 no
        # set asks.
        import scpm.miner

        asked = []

        class Recording(scpm.miner._Walk):
            def __init__(self, cfg, null, evaluate):
                def recorded(attrs, mask, members, stats, closed):
                    def asking():
                        answer = closed()
                        gap = len(members) / mask.bit_count() < cfg.eps_min
                        asked.append((self.attributes.label(attrs), answer, gap))
                        return answer

                    return evaluate(attrs, mask, members, stats, asking)

                super().__init__(cfg, null, recorded)

        clique = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        g = _graph(clique, lambda v: ["a", "b", "c"], 10)
        index = build_index(g)
        for eps_min in (0.0, 0.5):
            cfg = reference_config(sigma_min=4, eps_min=eps_min)
            asked.clear()
            with monkeypatch.context() as patch:
                patch.setattr(scpm.miner, "_Walk", Recording)
                result = run_scpm(g, index, cfg)
            naive = run_naive(g, index, cfg)
            assert (result.records, result.patterns) == (naive.records, naive.patterns)
            assert result.stats.sets_visited == naive.stats.sets_visited == 7
            if eps_min == 0.0:
                assert asked == []
        labels = [label for label, _, _ in asked]
        assert sorted(labels) == ["a", "a|b", "a|b|c", "a|c", "b", "b|c", "c"]
        assert ("a|c", False, True) in asked and ("b|c", False, True) in asked

    def test_mark_is_asked_once_on_the_members(self, monkeypatch):
        # One tag on a 4-clique with a pendant 6-path: support 10. The
        # first pass drops the path's far end, leaving 9 members, which
        # reach eps_min * 10 = 5 at eps_min 0.5, so the set asks no mark
        # before the peel. Its core, the clique, is 4: in the gap between
        # eps_min * sigma_min = 2 and 5. The set is closed (it has no
        # sibling), yet it is extended on its core unasked and forms no
        # child.
        import scpm.miner

        asked = []

        class Recording(scpm.miner._Walk):
            def __init__(self, cfg, null, evaluate):
                def recorded(attrs, mask, members, stats, closed):
                    def asking():
                        asked.append(self.attributes.label(attrs))
                        return closed()

                    return evaluate(attrs, mask, members, stats, asking)

                super().__init__(cfg, null, recorded)

        clique = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        path = [(v, v + 1) for v in range(3, 9)]
        g = _graph(clique + path, lambda v: ["tag"], 10)
        index = build_index(g)
        cfg = reference_config(sigma_min=4, eps_min=0.5)
        with monkeypatch.context() as patch:
            patch.setattr(scpm.miner, "_Walk", Recording)
            searched = self._searched_cores(patch)
            result = run_scpm(g, index, cfg)
        assert asked == []
        assert searched == []
        assert result.stats.sets_visited == 1
        self._assert_matches_naive(g, index, cfg, result)


class TestJoinGate:
    """run_scpm makes a join's posting AND only when the two sets its child
    could search share at least the floor, the least count c with c /
    sigma_min >= eps_min: a child with fewer members would be skipped at its
    first test. The exhaustive miner gates nothing."""

    @pytest.mark.parametrize("short", [False, True])
    @pytest.mark.parametrize(("sigma_min", "floor"), [(10, 5), (25, 7)])
    def test_join_at_the_floor_is_formed_one_below_is_not(self, sigma_min, floor, short):
        # Tag a sits on a clique of 0..floor+1 and tag b on a clique of
        # 2..floor+3, so their members and coverage sets share floor
        # vertices; with b's clique one vertex shorter at the low end they
        # share floor - 1. Isolated carriers of both give the join support
        # sigma_min, and sigma_min more carriers of a alone put a in the gap,
        # so a asks its mark and the scan tests the join before the frontier
        # does. At eps_min = floor / sigma_min, computed as eps is, the
        # join's eps is exactly eps_min and it is recorded; one member short
        # it is dead in both, a is skipped as closed and the join is not
        # formed, where the exhaustive miner visits it and records nothing.
        clique = lambda vs: [(u, v) for u in vs for v in vs if u < v]  # noqa: E731
        a_clique, b_clique = range(floor + 2), range(2 + short, floor + 4)
        shared = len(set(a_clique) & set(b_clique))
        carriers = range(floor + 4, floor + 4 + sigma_min - shared)
        own = range(carriers[-1] + 1, carriers[-1] + 1 + sigma_min)

        def tags(v):
            in_a = v in a_clique or v in carriers or v in own
            return ["a"] * in_a + ["b"] * (v in b_clique or v in carriers)

        g = _graph(clique(a_clique) + clique(b_clique), tags, own[-1] + 1)
        index = build_index(g)
        cfg = reference_config(sigma_min=sigma_min, eps_min=floor / sigma_min)
        result = run_scpm(g, index, cfg)
        naive = run_naive(g, index, cfg)
        assert (result.records, result.patterns) == (naive.records, naive.patterns)
        assert ("a|b" in _labels(g, result.records)) is not short
        assert naive.stats.sets_visited == 3
        assert result.stats.sets_visited == 3 - short
        if not short:
            assert result.records[-1].eps == cfg.eps_min

    @pytest.mark.parametrize(
        ("instance", "naive_visits"), [("example11", 5), ("planted2000", 1295)]
    )
    def test_gate_cuts_posting_ands_and_leaves_the_exhaustive_walk(
        self, instance, naive_visits, request
    ):
        # At the criterion-7 config the planted instance's 70 frequent
        # singletons make 2,415 pairs. The pruned walk makes fewer
        # full-width posting ANDs than that in all; the exhaustive walk
        # visits every frequent set it visited before the gate.
        g, index, cfg = _instance(request, instance)
        pruned = run_scpm(g, index, cfg)
        naive = run_naive(g, index, cfg)
        singles = len(frequent_attributes(index, cfg.sigma_min))
        assert naive.stats.sets_visited == naive_visits
        assert pruned.stats.sets_visited <= naive_visits
        assert pruned.stats.posting_ands <= naive.stats.posting_ands
        if instance == "planted2000":
            assert pruned.stats.posting_ands < singles * (singles - 1) // 2
        by_set = lambda r: r.attribute_set  # noqa: E731
        assert sorted(pruned.records, key=by_set) == sorted(naive.records, key=by_set)


def _eager_walk(seen):
    """A lattice walk that scores every visited set against the null model,
    whatever its eps, and logs each set's (support, eps) in ``seen``."""
    import scpm.miner

    class Eager(scpm.miner._Walk):
        def __init__(self, cfg, null, evaluate):
            def scored(attrs, mask, members, stats, closed):
                out = evaluate(attrs, mask, members, stats, closed)
                support = mask.bit_count()
                seen.append((support, len(out[0]) / support))
                null.expected(support, stats=stats)
                return out

            super().__init__(cfg, null, scored)

    return Eager


class TestScoreOnlyQualifyingEps:
    """The null model is consulted only for sets whose eps reaches eps_min,
    and that changes no record, pattern or visit count."""

    # Besides 0 and 0.1, eps_min is c / sigma_min: a set of support
    # sigma_min that covers c vertices sits exactly at the threshold, as the
    # planted blocks of support 100 covering 12 do. Every set is scored at
    # eps_min 0, where each miner takes seconds on the planted instance, so
    # that case runs on example11; the exhaustive miner takes seconds at any
    # eps_min there, so it runs only at the boundary.
    @pytest.mark.parametrize(
        ("mine", "instance", "eps_mins"),
        [
            pytest.param(run_scpm, "example11", (0.0, 0.1, 1 / 3), id="scpm-example11"),
            pytest.param(run_naive, "example11", (0.0, 0.1, 1 / 3), id="naive-example11"),
            pytest.param(run_scpm, "planted2000", (0.1, 12 / 100), id="scpm-planted2000"),
            pytest.param(run_naive, "planted2000", (12 / 100,), id="naive-planted2000"),
        ],
    )
    def test_simulates_only_supports_that_can_qualify(
        self, mine, instance, eps_mins, request, monkeypatch
    ):
        import scpm.miner
        import scpm.nullmodel

        g, index, cfg = _instance(request, instance)
        simulated = []
        real = scpm.nullmodel.sim_eps_exp

        def counting(graph, sigma, *args, **kwargs):
            simulated.append(sigma)
            return real(graph, sigma, *args, **kwargs)

        monkeypatch.setattr(scpm.nullmodel, "sim_eps_exp", counting)
        for eps_min in eps_mins:
            run_cfg = dataclasses.replace(
                cfg,
                eps_min=eps_min,
                null_model=NullModelConfig(kind=SIMULATION, samples=5, seed=0),
            )
            seen = []
            with monkeypatch.context() as patch:
                patch.setattr(scpm.miner, "_Walk", _eager_walk(seen))
                eager = mine(g, index, run_cfg)
            simulated.clear()
            lazy = mine(g, index, run_cfg)
            supports = {support for support, _ in seen}
            scored = {support for support, eps in seen if eps >= eps_min}
            assert sorted(simulated) == sorted(scored)
            if eps_min > 0.0:
                assert scored < supports
            assert lazy.records == eager.records
            assert lazy.patterns == eager.patterns
            assert lazy.stats.sets_visited == eager.stats.sets_visited == len(seen)


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            MinerConfig(qc_params=P06_4, sigma_min=0)
        with pytest.raises(ValueError):
            MinerConfig(qc_params=P06_4, eps_min=1.5)
        with pytest.raises(ValueError):
            MinerConfig(qc_params=P06_4, delta_min=-1)
        with pytest.raises(ValueError):
            MinerConfig(qc_params=P06_4, k=0)

    def test_nan_delta_min_rejected(self):
        with pytest.raises(ValueError, match="delta_min"):
            MinerConfig(qc_params=P06_4, delta_min=math.nan)

    @pytest.mark.parametrize("budget", [0, -7])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError, match="expansion_budget"):
            MinerConfig(qc_params=P06_4, expansion_budget=budget)

    def test_result_unpacks_as_pair(self, example_graph, example_index):
        records, patterns = run_scpm(example_graph, example_index, reference_config())
        assert isinstance(records, list) and isinstance(patterns, list)


class TestPruningSoundness:
    def test_pruned_sets_have_no_qualifying_supersets(self):
        # Enumerate every frequent set exhaustively with open thresholds,
        # then check the extension test never cuts off a qualifying superset.
        rng = random.Random(2718)
        for _ in range(15):
            g = random_attributed_graph(rng, 16, 0.35, 5, attr_prob=0.6)
            index = build_index(g)
            open_cfg = reference_config(sigma_min=1, eps_min=0.0, delta_min=0.0, k=1)
            everything = run_naive(g, index, open_cfg).records
            by_attrs = {r.attribute_set: r for r in everything}
            cfg = reference_config(sigma_min=2, eps_min=0.4, delta_min=0.3, k=1)
            null = NullModel(g, cfg.qc_params, cfg.null_model)
            if g.vertex_count < cfg.sigma_min:
                continue
            floor = null.expected(cfg.sigma_min)
            for attrs, rec in by_attrs.items():
                if rec.support < cfg.sigma_min or prune_extension(rec.covered, cfg, floor):
                    continue
                for sup_attrs, sup in by_attrs.items():
                    if not set(attrs) < set(sup_attrs) or sup.support < cfg.sigma_min:
                        continue
                    qualifies = sup.eps >= cfg.eps_min and sup.delta >= cfg.delta_min
                    assert not qualifies, (attrs, sup_attrs)
