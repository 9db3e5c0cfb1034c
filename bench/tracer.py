"""Per-layer spans around the public functions scpm's modules look up.

A traced pipeline iteration replaces, for its duration only, the names that
``scpm.miner``, ``scpm.nullmodel`` and ``scpm.quasiclique`` look up at call
time (``scpm.miner.intersect_sorted``, ``scpm.nullmodel.covered_vertices``,
``NullModel.expected``, ...) with wrappers that record a span: its name, the
span open when it started, its start and end, and a few counts read from
the arguments and the result. Nothing in the program changes. Spans stay in
memory; the caller writes them out when the run ends.

Every metric is reported on every workload: a layer that does not run on
a workload reports zero calls and zero seconds there, and a ratio over zero
calls reads 0. A binding whose function no longer exists is skipped, and
its metrics are absent, not zero.
"""

from __future__ import annotations

import importlib
import inspect
from contextlib import contextmanager
from time import perf_counter_ns

S = "s"
COUNT = "count"
RATIO = "ratio"

# Every per-layer metric, in report order, with its unit.
PER_LAYER = {
    "graph.load_graph.s": S,
    "index.build_index.s": S,
    "index.intersect_sorted.calls": COUNT,
    "index.intersect_sorted.s": S,
    "index.intersect_sorted.elements": COUNT,
    "index.intersect_sorted.useful_ratio": RATIO,
    "miner.self_s": S,
    "miner.sets_visited": COUNT,
    "miner.expansions": COUNT,
    "miner.overflow_sets": COUNT,
    "miner.records": COUNT,
    "miner.patterns": COUNT,
    "miner.view_ratio": RATIO,
    "graph.induced_view.attr.calls": COUNT,
    "graph.induced_view.attr.s": S,
    "graph.induced_view.attr.vertices": COUNT,
    "graph.induced_view.sample.calls": COUNT,
    "graph.induced_view.sample.s": S,
    "graph.induced_view.sample.vertices": COUNT,
    "quasiclique.vertex_prune.calls": COUNT,
    "quasiclique.vertex_prune.s": S,
    "quasiclique.vertex_prune.core_ratio": RATIO,
    "quasiclique.covered_vertices.attr.calls": COUNT,
    "quasiclique.covered_vertices.attr.s": S,
    "quasiclique.covered_vertices.attr.expansions": COUNT,
    "quasiclique.covered_vertices.attr.hit_ratio": RATIO,
    "quasiclique.covered_vertices.sample.calls": COUNT,
    "quasiclique.covered_vertices.sample.s": S,
    "quasiclique.covered_vertices.sample.expansions": COUNT,
    "quasiclique.covered_vertices.sample.hit_ratio": RATIO,
    "quasiclique.top_k_patterns.calls": COUNT,
    "quasiclique.top_k_patterns.s": S,
    "quasiclique.top_k_patterns.expansions": COUNT,
    "quasiclique.top_k_fallbacks": COUNT,
    "quasiclique.enumerate_maximal.calls": COUNT,
    "quasiclique.enumerate_maximal.s": S,
    "quasiclique.enumerate_maximal.expansions": COUNT,
    "nullmodel.expected.calls": COUNT,
    "nullmodel.expected.misses": COUNT,
    "nullmodel.expected.s": S,
    "nullmodel.expected.self_s": S,
    "nullmodel.sim_eps_exp.calls": COUNT,
    "nullmodel.sim_eps_exp.s": S,
    "nullmodel.max_eps_exp.s": S,
    "cli.format.s": S,
    "cli.write.bytes": "bytes",
    "trace.overhead_s": S,
}


def _intersect(tracer, args, kwargs, result):
    return {
        "elements": len(args[0]) + len(args[1]),
        "useful": len(result) >= tracer.sigma_min,
    }


def _support(tracer, args, kwargs, result):
    return {"support": result.support}


def _view_size(tracer, args, kwargs, result):
    return {"vertices": len(result.members)}


def _hit(tracer, args, kwargs, result):
    return {"hit": len(result) > 0}


def _core(tracer, args, kwargs, result):
    return {"in": len(args[0].members), "out": len(result.members)}


def _sigma(tracer, args, kwargs, result):
    return {"sigma": args[1]}


# (module, attribute path, span name, note, reads engine expansions)
BINDINGS = (
    ("scpm.miner", "intersect_sorted", "index.intersect_sorted", _intersect, False),
    ("scpm.miner", "structural_correlation", "miner.structural_correlation", _support, False),
    ("scpm.miner", "induced_view", "graph.induced_view.attr", _view_size, False),
    ("scpm.miner", "covered_vertices", "quasiclique.covered_vertices.attr", _hit, True),
    ("scpm.miner", "top_k_patterns", "quasiclique.top_k_patterns", None, True),
    ("scpm.miner", "enumerate_maximal", "quasiclique.enumerate_maximal", None, True),
    ("scpm.nullmodel", "NullModel.expected", "nullmodel.expected", _sigma, False),
    ("scpm.nullmodel", "max_eps_exp", "nullmodel.max_eps_exp", None, False),
    ("scpm.nullmodel", "sim_eps_exp", "nullmodel.sim_eps_exp", None, False),
    ("scpm.nullmodel", "induced_view", "graph.induced_view.sample", _view_size, False),
    ("scpm.nullmodel", "covered_vertices", "quasiclique.covered_vertices.sample", _hit, True),
    ("scpm.quasiclique", "vertex_prune", "quasiclique.vertex_prune", _core, False),
    # top_k_patterns falls back to the exhaustive walk through this name.
    ("scpm.quasiclique", "enumerate_maximal", "quasiclique.top_k_fallback", None, True),
)


class Tracer:
    """Spans of one pipeline iteration: [name, parent index, start ns, end ns, note]."""

    def __init__(self, sigma_min: int):
        self.sigma_min = sigma_min
        self.spans: list[list] = []
        # Span names whose function no longer exists.
        self.missing: set[str] = set()
        self._open: list[int] = []

    def open(self, name: str) -> list:
        rec = [name, self._open[-1] if self._open else -1, 0, 0, {}]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = perf_counter_ns()
        return rec

    def close(self, rec: list):
        rec[3] = perf_counter_ns()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        """Span around a call the benchmark itself makes; yields its note."""
        rec = self.open(name)
        try:
            yield rec[4]
        finally:
            self.close(rec)

    @contextmanager
    def installed(self):
        """Wrap every binding that exists for the duration of the block."""
        patched = []
        try:
            for module_name, path, name, note, engine in BINDINGS:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, attr, None)
                if fn is None:
                    self.missing.add(name)
                    continue
                setattr(owner, attr, self._wrap(name, fn, note, engine))
                patched.append((owner, attr, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(patched):
                setattr(owner, attr, fn)

    def _wrap(self, name, fn, note, engine):
        search_stats = _search_stats_class() if engine and _takes(fn, "stats") else None

        def traced(*args, **kwargs):
            stats = None
            if search_stats is not None:
                stats = kwargs.get("stats")
                if stats is None:
                    stats = kwargs["stats"] = search_stats()
                before = stats.expansions
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
                if stats is not None:
                    rec[4]["expansions"] = stats.expansions - before
            if note is not None:
                try:
                    rec[4].update(note(self, args, kwargs, result))
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # the call changed shape: metrics built from this note go absent
            return result

        return traced


def _takes(fn, param: str) -> bool:
    try:
        return param in inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return False


def _search_stats_class():
    """The engine's expansion counter, or None once it no longer exists."""
    cls = getattr(importlib.import_module("scpm.quasiclique"), "SearchStats", None)
    return cls if cls is not None and hasattr(cls(), "expansions") else None


def summarize(spans: list[list], missing=frozenset()) -> tuple[dict, dict]:
    """Per-layer metrics of one iteration's spans, plus counters for self-checks.

    ``missing`` names the spans whose function no longer exists; their
    metrics are left out. Every other metric is reported, as zero where its
    layer did not run. Self time is a span's duration minus the time its
    child spans cover.
    """
    m: dict[str, float | None] = {}
    child_ns = [0] * len(spans)
    groups: dict[str, list[list]] = {}
    for rec in spans:
        groups.setdefault(rec[0], []).append(rec)
        if rec[1] >= 0:
            child_ns[rec[1]] += rec[3] - rec[2]

    def ran(*names):
        return not missing.intersection(names)

    def recs(name):
        return groups.get(name, [])

    def seconds(name):
        return sum(r[3] - r[2] for r in recs(name)) / 1e9

    def total(name, key):
        notes = [r[4] for r in recs(name)]
        if any(key not in n for n in notes):
            return None
        return sum(n[key] for n in notes)

    def ratio(num, den):
        if num is None or den is None:
            return None
        return num / den if den else 0.0

    def self_s(pick):
        return sum(r[3] - r[2] - child_ns[i] for i, r in enumerate(spans) if pick(r[0])) / 1e9

    def calls_and_time(name):
        m[name + ".calls"] = len(recs(name))
        m[name + ".s"] = seconds(name)

    # The benchmark's own spans: these always run.
    for name in ("graph.load_graph", "index.build_index", "cli.format"):
        m[name + ".s"] = seconds(name)
    m["cli.write.bytes"] = total("cli.write", "bytes")

    name = "index.intersect_sorted"
    if ran(name):
        calls_and_time(name)
        m[name + ".elements"] = total(name, "elements")
        m[name + ".useful_ratio"] = ratio(total(name, "useful"), len(recs(name)))

    runs = [r for r in spans if r[0].startswith("miner.run")]
    m["miner.self_s"] = self_s(lambda n: n.startswith("miner."))
    for key in ("sets_visited", "expansions", "overflow_sets", "records", "patterns"):
        if all(r[4].get(key) is not None for r in runs):
            m["miner." + key] = sum(r[4][key] for r in runs)
    if ran("miner.structural_correlation", "graph.induced_view.attr"):
        members = [
            r[4].get("vertices")
            for r in recs("graph.induced_view.attr")
            if r[1] >= 0 and spans[r[1]][0] == "miner.structural_correlation"
        ]
        if None not in members:
            m["miner.view_ratio"] = ratio(sum(members), total("miner.structural_correlation", "support"))

    for kind in ("attr", "sample"):
        name = "graph.induced_view." + kind
        if ran(name):
            calls_and_time(name)
            m[name + ".vertices"] = total(name, "vertices")
        name = "quasiclique.covered_vertices." + kind
        if ran(name):
            calls_and_time(name)
            m[name + ".expansions"] = total(name, "expansions")
            m[name + ".hit_ratio"] = ratio(total(name, "hit"), len(recs(name)))

    name = "quasiclique.vertex_prune"
    if ran(name):
        calls_and_time(name)
        m[name + ".core_ratio"] = ratio(total(name, "out"), total(name, "in"))

    for name in ("quasiclique.top_k_patterns", "quasiclique.enumerate_maximal"):
        if ran(name):
            calls_and_time(name)
            m[name + ".expansions"] = total(name, "expansions")
    if ran("quasiclique.top_k_patterns", "quasiclique.top_k_fallback"):
        m["quasiclique.top_k_fallbacks"] = len(recs("quasiclique.top_k_fallback"))

    checks = {}
    name = "nullmodel.expected"
    if ran(name):
        calls_and_time(name)
        m[name + ".self_s"] = self_s(lambda n: n == name)
        checks["nullmodel.expected.distinct_supports"] = len({r[4].get("sigma") for r in recs(name)})
    if ran(name, "nullmodel.max_eps_exp", "nullmodel.sim_eps_exp"):
        computed = {"nullmodel.max_eps_exp", "nullmodel.sim_eps_exp"}
        missed = {r[1] for r in spans if r[0] in computed and r[1] >= 0 and spans[r[1]][0] == name}
        m[name + ".misses"] = len(missed)
    if ran("nullmodel.sim_eps_exp"):
        calls_and_time("nullmodel.sim_eps_exp")
    if ran("nullmodel.max_eps_exp"):
        m["nullmodel.max_eps_exp.s"] = seconds("nullmodel.max_eps_exp")
    return {k: v for k, v in m.items() if v is not None}, checks
