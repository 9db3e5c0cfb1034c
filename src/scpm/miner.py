"""Level-wise mining of attribute sets correlated with dense subgraphs.

Both miners share one walk of the attribute-set lattice (``_Walk``),
depth-first by equivalence class: frontier entries are ordered by ascending
support (ties by id) and each entry unions with its earlier siblings to
form the next class. The miners differ only in the policy that searches
one attribute set, finds its patterns and decides whether to extend it.

Every posting of the walk is an int bitset (bit v set for vertex v). A
frequent singleton's posting list becomes its bitset before its class is
visited; below the singletons no posting list is merged. A candidate's
posting is the AND of its parents' bitsets and its support the bit count of
that AND, so a candidate below sigma_min is skipped before its attribute
set is formed. The vertex sets a child can search on are kept as gates:
bitsets over the run's universe, the vertices in the members of at least
two singletons, far narrower than a posting (``_Universe``). A join is
*live* when its two gates share enough vertices for the child to pass its
policy's first test, and only a live join gets the posting AND. A
candidate with no live join reaching sigma_min in its class is closed: it
has no descendant that the walk forms. No pass marks a class before it is
visited; a policy asks for the mark, which scans the class, and no join is
kept. A visited set's coverage set (or, if the set was not searched, its
core) is kept as its gate, and the members a child's search runs on are
the AND of both parents' gates, decoded only for a child that is formed: a
few vertices, never a decode of the whole posting.

The pruned miner keeps the qualifying output of the exhaustive one with
eight prunings, the last of which the exhaustive one shares:

* each child's quasi-clique search is restricted to the intersection of its
  parents' coverage sets or, for a parent that was not searched, its core
  (no quasi-clique can leave them),
* the set's members are peeled to their z-core over the graph's adjacency
  (``graph.z_core``) before its view is built, since no quasi-clique member
  lies outside that core; most of a sparse posting falls away here. A
  frequent singleton's members are already its posting's first-pass
  survivors, the members with z neighbours in the posting, made for every
  singleton in one sweep over the adjacency (``graph.z_survivors``); they
  hold the posting's core, and the gates below read their count, so a
  singleton whose survivors are too few is not peeled at all,
* a set is searched only when its members, and then its core, number at
  least eps_min * sigma_min (tested as count / sigma_min >= eps_min): the
  coverage set lies in the core, so a smaller core gives eps below eps_min
  and fails the extension test below. Such a set is visited but gets no
  view, no score and no children; with eps_min 0 nothing is skipped,
* so a join is formed only when the two sets its child could search share
  at least that many vertices, the floor: the least count c with c /
  sigma_min >= eps_min. In a mark scan they are the two candidates'
  members, in a frontier join the sets the two parents' visits returned;
  the child's members lie in both. A dead join gets no posting AND and its
  child, which the test above would skip, is not formed. A candidate whose
  every join is dead or below sigma_min counts as closed; only
  ``sets_visited`` falls,
* a set is searched only when its members, and then its core, number at
  least eps_min times its own support (tested as count / support >=
  eps_min, the division eps is computed with): below that its own eps =
  covered_count / support cannot reach eps_min, so its record never needs
  the coverage set. Such a set is extended on its core, which contains
  every coverage set of its supersets and is no smaller than its own
  coverage set: the children's searches find the same coverage sets, and
  the extension test below, run on the core, cuts no qualifying superset.
  When its members already fall below that bound the set asks whether it
  is closed (has no superset in the walk) and, if so, is skipped unpeeled;
  a closed set that is extended forms no child,
* an attribute set is extended only while covered_count / sigma_min >=
  eps_min and, under the analytical null model, delta_ratio(
  covered_count / sigma_min, eps_exp(sigma_min)) >= delta_min; no superset
  can recover from either once violated,
* coverage-set computation walks exhaustively from each still-uncovered
  root, greedy-first, and top-k extraction searches only the view of the
  set's coverage set,
* the null model, whose simulation searches ``samples`` random subgraphs
  per support, is consulted only for a set whose eps = covered_count /
  support reaches eps_min: eps_exp enters only delta, and a set below
  eps_min is not recorded whatever its delta. Such a set gets no record,
  and whether it is extended depends on its coverage set alone.

The exhaustive baseline searches every frequent attribute set, extends
every one that is not closed, fully enumerates the quasi-cliques of each
induced graph (the view of its whole posting, decoded from its bitset), and
applies the same output filters, so both miners emit identical record and
pattern sets. A
set whose search overflows the expansion budget is neither recorded nor
extended by either miner. The pruned miner leaves some sets unsearched
that the exhaustive one searches, and such a set cannot overflow, so the
two outputs are identical wherever no search overflows.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

from .graph import AttributedGraph, induced_view, z_core, z_survivors
from .index import AttributeIndex, frequent_attributes, vertex_set
# The benchmark's self-test test_missing_function_is_absent_not_zero deletes this name.
from .index import intersect_sorted  # noqa: F401
from .nullmodel import (
    ANALYTICAL,
    ExpectedCorrelation,
    NullModel,
    NullModelConfig,
    delta_ratio,
    normalized_delta,
)
from .quasiclique import (
    DEFAULT_EXPANSION_BUDGET,
    QuasiClique,
    QuasiCliqueParams,
    SearchBudgetExceeded,
    SearchStats,
    _bits,
    covered_vertices,
    enumerate_maximal,
    top_k_patterns,
)

logger = logging.getLogger("scpm")


@dataclass
class MinerConfig:
    """Thresholds and knobs for one mining run."""

    qc_params: QuasiCliqueParams
    sigma_min: int = 1
    eps_min: float = 0.0
    delta_min: float = 0.0
    k: int | None = 5  # None = unlimited
    null_model: NullModelConfig = field(default_factory=NullModelConfig)
    max_set_size: int | None = None
    expansion_budget: int = DEFAULT_EXPANSION_BUDGET
    fail_fast: bool = False

    def __post_init__(self):
        if self.sigma_min < 1:
            raise ValueError("sigma_min must be at least 1")
        if not 0.0 <= self.eps_min <= 1.0:
            raise ValueError("eps_min must be in [0, 1]")
        if not self.delta_min >= 0.0:  # NaN fails every comparison
            raise ValueError("delta_min must be non-negative")
        if self.k is not None and self.k < 1:
            raise ValueError("k must be at least 1 (or None for unlimited)")
        if self.max_set_size is not None and self.max_set_size < 1:
            raise ValueError("max_set_size must be at least 1")
        if self.expansion_budget < 1:
            raise ValueError("expansion_budget must be at least 1")


@dataclass(frozen=True)
class CorrelationRecord:
    """Per attribute set: support, coverage set, and the correlation figures."""

    attribute_set: tuple[int, ...]
    support: int
    covered: tuple[int, ...]
    eps: float
    eps_exp: ExpectedCorrelation
    delta: float


@dataclass(frozen=True)
class PatternRecord:
    """One reported pattern: an attribute set and a quasi-clique it induces."""

    attribute_set: tuple[int, ...]
    quasi_clique: QuasiClique


@dataclass
class MinerStats(SearchStats):
    """Counters for one run: engine expansions, visited sets, full-width
    posting ANDs, aborted sets.

    The walk hands this object to every search it runs, so ``expansions``
    counts the searches of every searched set's view, of its top-k
    patterns, and of the simulation samples drawn for the supports that
    were scored, i.e. of sets whose eps reached eps_min. ``sets_visited``
    counts the sets the walk formed and visited. A set that ``run_scpm``
    does not search because its core is too small, for eps_min times
    sigma_min or times its own support, counts as visited and adds no
    expansion; an open one of the second kind is still extended on its
    core. The child of a dead join (see ``_Walk``) is not formed and not
    counted; under eps_min 0, and in ``run_naive``, no join is dead.
    ``posting_ands`` counts the posting ANDs of mark scans and joins,
    the live joins' alone.
    """

    sets_visited: int = 0
    posting_ands: int = 0
    overflow_sets: list[tuple[int, ...]] = field(default_factory=list)


@dataclass
class MiningResult:
    records: list[CorrelationRecord]
    patterns: list[PatternRecord]
    stats: MinerStats

    def __iter__(self):
        yield self.records
        yield self.patterns


def _bitset(vertices: tuple[int, ...]) -> int:
    """The int with bit v set for every vertex v of a sorted vertex tuple.
    The walk makes one per frequent singleton's posting, and every deeper
    posting is an AND of these; ``_Universe.gate`` makes one per gate."""
    if not vertices:
        return 0
    buf = bytearray(vertices[-1] // 8 + 1)
    for v in vertices:
        buf[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(buf, "little")


class _Universe:
    """The vertices a join's child can search, and vertex sets as gates over
    them.

    The universe is the sorted vertices held by at least two of the
    singletons' member sets. A join's child searches only vertices in the
    members of at least two singletons, so no other vertex is in a set a
    join forms or in the overlap of two sets that a gate AND counts. A gate
    is a vertex set's bitset over the universe, bit i for its i-th vertex:
    exact for the vertices two sets share, and far narrower than a posting.
    """

    def __init__(self, member_sets: Sequence[Sequence[int]]):
        seen: set[int] = set()
        shared: set[int] = set()
        for members in member_sets:
            shared.update(seen.intersection(members))
            seen.update(members)
        self.vertices = sorted(shared)
        self.position = {v: i for i, v in enumerate(self.vertices)}

    def gate(self, vertices: Sequence[int]) -> int:
        """The gate of a sorted vertex set; vertices outside the universe drop."""
        position = self.position
        return _bitset([position[v] for v in vertices if v in position])

    def members(self, gate: int) -> tuple[int, ...]:
        """The sorted vertices of a gate."""
        vertices, out = self.vertices, []
        while gate:
            low = gate & -gate
            out.append(vertices[low.bit_length() - 1])
            gate ^= low
        return tuple(out)


def _null_model(g: AttributedGraph, cfg: MinerConfig) -> NullModel:
    return NullModel(g, cfg.qc_params, cfg.null_model, budget=cfg.expansion_budget)


def _can_reach_eps_min(count: int, divisor: int, cfg: MinerConfig) -> bool:
    """Whether a coverage set of at most ``count`` vertices can give eps >=
    eps_min to a set or its supersets, whose eps is at most count /
    ``divisor``: sigma_min for the supersets, the set's own support for
    the set itself. This is the miners' one eps comparison, made on the
    division eps is computed with: ``_Walk._visit`` scores a record only
    when it holds, ``prune_extension`` tests its first bound with it, and
    ``run_scpm`` tests a set's members and core before any search.
    Correctly rounded division is monotone, so a False on a count that
    bounds the coverage set means eps falls below eps_min."""
    return count / divisor >= cfg.eps_min


def _score(
    s: tuple[int, ...],
    support: int,
    covered: tuple[int, ...],
    null: NullModel,
    stats: SearchStats | None,
) -> CorrelationRecord:
    """Record of a set with this support and coverage set: eps, the null
    model's eps_exp at the support, and their normalized delta."""
    eps = len(covered) / support
    eps_exp = null.expected(support, stats=stats)
    return CorrelationRecord(s, support, covered, eps, eps_exp, normalized_delta(eps, eps_exp))


def structural_correlation(
    g: AttributedGraph, index: AttributeIndex, s, cfg: MinerConfig
) -> CorrelationRecord:
    """Correlation record for attribute set ``s``, scored against a null
    model built from ``cfg``.

    Support counts the full posting (``vertex_set``). The quasi-clique
    search runs only on the view of the posting's z-core (``graph.z_core``).
    The engine peels every view with the same ``z_core`` before it
    searches, so the coverage set equals that of a search of the posting's
    whole view, and the core itself passes that peel unchanged. The record
    is scored whatever its eps; the miners consult the null model only for
    a set whose eps reaches eps_min. The analytical model reads the graph's
    kept ``degree_counts``, so repeated calls on one graph count degrees
    once. Each call builds its own ``NullModel``, so under the simulation
    model every call draws, peels and searches its support's samples
    again; to score many sets, use ``run_scpm``, whose one null model
    memoizes eps_exp by support.
    """
    s = tuple(sorted(set(s)))
    posting = vertex_set(index, s)
    if not posting:
        raise ValueError(f"attribute set {s} has no supporting vertices")
    view = induced_view(g, z_core(g.adjacency, posting, cfg.qc_params.z))
    covered = covered_vertices(view, cfg.qc_params, budget=cfg.expansion_budget)
    return _score(s, len(posting), covered, _null_model(g, cfg), None)


def prune_extension(
    covered: Sequence[int],
    cfg: MinerConfig,
    eps_exp_at_sigma_min: ExpectedCorrelation | None = None,
) -> bool:
    """True when an attribute set with coverage set ``covered`` may still
    have qualifying supersets.

    A superset with support s >= sigma_min covers at most covered_count of
    this set's vertices, so its eps is at most covered_count / sigma_min.
    Both tests are the ones a record is tested with, on that bound;
    correctly rounded division is monotone, so no superset that would
    qualify is cut off:

    * covered_count / sigma_min >= eps_min (``_can_reach_eps_min``), and
    * when ``eps_exp_at_sigma_min`` is given, the delta of covered_count /
      sigma_min against it (``delta_ratio``) >= delta_min. That bound holds
      only if eps_exp does not decrease with support, which is true of the
      analytical model and not of the simulation; pass None to gate on eps
      alone.
    """
    if not _can_reach_eps_min(len(covered), cfg.sigma_min, cfg):
        return False
    if eps_exp_at_sigma_min is None:
        return True
    return delta_ratio(len(covered) / cfg.sigma_min, eps_exp_at_sigma_min) >= cfg.delta_min


def _union_attrs(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(set(a) | set(b)))


class _Walk:
    """One depth-first walk of the attribute-set lattice by equivalence class.

    A class is the frequent singletons, or the children of one base. A join
    of two sets is *live* when the two vertex sets its child could search
    share at least ``floor`` vertices (``run``), and only a live join gets
    the full-width posting AND: the child's members lie in both sets, so a
    dead join's child would be skipped at its policy's first test. The sets
    are kept as gates over the run's ``_Universe``, and a gate AND counts
    what two of them share. A candidate is *closed* when no live join with
    a sibling reaches sigma_min, since it can then have no descendant that
    the walk forms. The class is not marked in advance: ``closed()`` scans
    it, on the candidates' members, when a policy asks, stops at the first
    live join reaching sigma_min, and remembers a proved-closed answer,
    which later scans use to skip that sibling (its own scan tested the
    pair). When max_set_size forbids the next level every candidate starts
    closed. An extended entry joins the frontier unless it is proved
    closed; its children are formed by joining it with each earlier
    frontier entry, on the sets the two visits returned, and no join is
    kept, so an unproved closed entry forms none. A candidate is the tuple
    (support, attrs, mask, members, gate of the members), a frontier entry
    (support, attrs, mask, gate of the set its visit returned); the
    frontier sorts as plain tuples, by (support, attrs).

    ``evaluate(attrs, mask, members, stats, closed)`` searches one set,
    adding its expansions to the run's ``stats``, and returns its coverage
    set, whether to extend it, and a callable that yields its patterns.
    ``mask`` is the set's posting as a bitset and ``members`` the sorted
    vertices its search runs on: for a singleton its whole posting, or its
    entry in the ``first_pass`` that ``run`` was given; else the
    intersection of the sets both parents returned. A policy may skip the
    search of a set whose own eps cannot reach eps_min. If the set's members
    already show that no superset can reach it either, or the set is closed,
    it returns an empty coverage set, False and None; otherwise it returns,
    in place of the coverage set, a superset of it that holds every coverage
    set of the set's supersets (``run_scpm`` returns the core), whether to
    extend on it, and None. That set's eps is below eps_min, so it is not
    scored. ``closed`` is the zero-argument mark, for a policy to ask only
    where it decides a skip.
    Only a set whose eps reaches eps_min can qualify, so only such a set is
    scored against the null model; it is recorded, with its patterns, when
    its delta reaches delta_min as well.
    Records and patterns accumulate in discovery order. A set whose search,
    sample search or pattern search overflows the budget is logged and
    dropped with its subtree, unless fail_fast re-raises.
    """

    def __init__(
        self,
        cfg: MinerConfig,
        null: NullModel,
        evaluate: Callable[..., tuple[Sequence[int], bool, Callable[[], list[QuasiClique]] | None]],
    ):
        self.cfg = cfg
        self.null = null
        self.evaluate = evaluate
        self.records: list[CorrelationRecord] = []
        self.patterns: list[PatternRecord] = []
        self.stats = MinerStats()

    def run(
        self,
        g: AttributedGraph,
        index: AttributeIndex,
        first_pass: Callable[[list[tuple[int, ...]]], list[list[int]]] | None = None,
        floor: int = 0,
    ) -> MiningResult:
        """Walk the class of frequent singletons, by ascending support. A
        singleton's members are its posting, or its entry in
        ``first_pass(postings)`` when that is given, and the universe is
        built from the members. A join is live only when the two vertex
        sets its child could search share at least ``floor`` vertices, so
        ``evaluate`` must skip every set with fewer members at its first
        test, as ``run_scpm``'s does below eps_min * sigma_min. With floor
        0 every join is live and none is tested."""
        self.attributes = g.attribute_dictionary
        singles = frequent_attributes(index, self.cfg.sigma_min)
        singles.sort(key=lambda e: (len(e[1]), e[0]))
        postings = [p for _, p in singles]
        members = postings if first_pass is None else first_pass(postings)
        self.floor = floor
        self.universe = _Universe(members)
        self._walk_class(
            [
                (len(p), a, _bitset(p), m, self.universe.gate(m))
                for (a, p), m in zip(singles, members)
            ]
        )
        return MiningResult(self.records, self.patterns, self.stats)

    def _walk_class(self, candidates):
        """Visit one class in order, then union each frontier entry with its
        earlier siblings and walk the children whose join is live and whose
        posting AND reaches sigma_min as the next class. A child's gate is
        the AND of its parents' gates, and only a child decodes it into the
        sorted members its search runs on and forms its attribute set. No
        two entries share (support, attrs), so the frontier's sort compares
        nothing else."""
        if not candidates:
            return
        sigma_min, floor, stats = self.cfg.sigma_min, self.floor, self.stats
        masks = [c[2] for c in candidates]
        gates = [c[4] for c in candidates]
        # At the max_set_size cap every candidate starts closed.
        proved = [len(candidates[0][1]) >= (self.cfg.max_set_size or math.inf)] * len(masks)

        def closed(i):
            if not proved[i]:
                mask, gate = masks[i], gates[i]
                proved[i] = True  # until a live join reaches sigma_min; the scan skips i
                for other, other_gate, done in zip(masks, gates, proved):
                    if done or floor and (gate & other_gate).bit_count() < floor:
                        continue
                    stats.posting_ands += 1
                    if (mask & other).bit_count() >= sigma_min:
                        proved[i] = False
                        break
            return proved[i]

        frontier = []
        for i, (support, attrs, mask, members, _) in enumerate(candidates):
            covered = self._visit(attrs, support, mask, members, partial(closed, i))
            if covered is not None and not proved[i]:
                frontier.append((support, attrs, mask, self.universe.gate(covered)))
        frontier.sort()
        for i, (_, attrs, mask, gate) in enumerate(frontier):
            children = []
            for _, other_attrs, other_mask, other_gate in frontier[:i]:
                shared = gate & other_gate
                if floor and shared.bit_count() < floor:
                    continue
                stats.posting_ands += 1
                child = mask & other_mask
                support = child.bit_count()
                if support >= sigma_min:
                    # Each parent's set lies in its posting, so within child.
                    members = self.universe.members(shared)
                    union = _union_attrs(attrs, other_attrs)
                    children.append((support, union, child, members, shared))
            self._walk_class(children)

    def _visit(self, attrs, support, mask, members, closed) -> Sequence[int] | None:
        """Search one set and score it if its eps reaches eps_min; return its
        coverage set if it is to be extended, else None."""
        cfg = self.cfg
        stats = self.stats
        cliques = None
        try:
            covered, extend, patterns = self.evaluate(attrs, mask, members, stats, closed)
            if _can_reach_eps_min(len(covered), support, cfg):
                rec = _score(attrs, support, covered, self.null, stats)
                if rec.delta >= cfg.delta_min:
                    cliques = patterns()
        except SearchBudgetExceeded as exc:
            stats.overflow_sets.append(attrs)
            logger.warning("attribute set %s aborted: %s", self.attributes.label(attrs), exc)
            if cfg.fail_fast:
                raise
            return None
        stats.sets_visited += 1
        if cliques is not None:
            self.records.append(rec)
            self.patterns.extend(PatternRecord(attrs, q) for q in cliques)
        return covered if extend else None


def run_scpm(g: AttributedGraph, index: AttributeIndex, cfg: MinerConfig) -> MiningResult:
    """Pruned mining run.

    Emits one record per visited attribute set with sigma >= sigma_min that
    satisfies eps >= eps_min and delta >= delta_min, plus its top-k patterns,
    in depth-first discovery order. Sets failing the extension tests are
    reported (when they qualify) but never extended. A frequent singleton's
    members are its posting's first-pass survivors (``graph.z_survivors``,
    one sweep for all singletons), which hold the posting's z-core. A set
    whose members' z-core is too small to reach eps_min is visited without
    a search: too small for eps_min * sigma_min, it is not extended; too
    small for eps_min times its own support, it is not recorded and is
    extended on its core, unless its members were already that small and
    it is closed (it has no live frequent join in its class), which skips
    it unpeeled. A join whose sets share fewer vertices than eps_min *
    sigma_min is dead and not formed (``_Walk``). A search that overflows,
    on the set's view or on a simulation sample drawn to score it, drops
    that set unreported and unextended unless fail_fast is set. A set that is not searched cannot overflow, so
    under a budget the exhaustive miner exceeds on such a set, this miner
    keeps the set's subtree; wherever nothing overflows the two emit the
    same records and patterns.
    """
    null = _null_model(g, cfg)
    gate_delta = cfg.delta_min > 0.0 and cfg.null_model.kind == ANALYTICAL

    def evaluate(attrs, mask, members, stats, closed):
        # The coverage set lies in the members' z-core. A core too small for
        # eps_min times the set's own support leaves the set unsearched and
        # unscored, and it is extended on its core; prune_extension stops it
        # when the core is too small for eps_min * sigma_min as well. The
        # same tests on the members save the peel: members too small for
        # eps_min * sigma_min, or too small for the set's own eps in a closed
        # set, skip it unpeeled. The mark is asked once, and only then. A
        # closed set whose core alone falls short is extended on its core
        # and forms no child.
        support = mask.bit_count()
        if not _can_reach_eps_min(len(members), cfg.sigma_min, cfg) or (
            not _can_reach_eps_min(len(members), support, cfg) and closed()
        ):
            return (), False, None
        core = z_core(g.adjacency, members, cfg.qc_params.z)
        floor = null.expected(cfg.sigma_min) if gate_delta else None
        if not _can_reach_eps_min(len(core), support, cfg):
            # The core holds every coverage set of the set's supersets, so
            # it restricts their searches and bounds their eps as soundly
            # as the set's own coverage set would.
            return core, prune_extension(core, cfg, floor), None
        view = induced_view(g, core)
        covered = covered_vertices(view, cfg.qc_params, budget=cfg.expansion_budget, stats=stats)

        def patterns():
            # Every quasi-clique of the set's view lies in its coverage set,
            # so the view on that set has the same maximal family. A
            # coverage set that is the whole core has the core's view, whose
            # engine the coverage search left on it.
            top = view if len(covered) == len(core) else induced_view(g, covered)
            return top_k_patterns(
                top, cfg.qc_params, cfg.k, budget=cfg.expansion_budget, stats=stats
            )

        return covered, prune_extension(covered, cfg, floor), patterns

    first_pass = partial(z_survivors, g.adjacency, z=cfg.qc_params.z)
    # The least member count that evaluate's first test lets through.
    member_floor = bisect_left(
        range(cfg.sigma_min + 1), True, key=lambda c: _can_reach_eps_min(c, cfg.sigma_min, cfg)
    )
    return _Walk(cfg, null, evaluate).run(g, index, first_pass, member_floor)


def run_naive(g: AttributedGraph, index: AttributeIndex, cfg: MinerConfig) -> MiningResult:
    """Exhaustive baseline: every frequent attribute set, full enumeration.

    Semantically equivalent filtered output to run_scpm; intended for small
    inputs, cross-validation, and benchmark comparisons. Each set's view is
    built on its whole posting, decoded from its bitset.
    """

    def evaluate(attrs, mask, members, stats, closed):
        view = induced_view(g, tuple(_bits(mask)))
        cliques = enumerate_maximal(
            view, cfg.qc_params, budget=cfg.expansion_budget, stats=stats
        )
        covered = tuple(sorted({v for q in cliques for v in q.vertices}))
        return covered, True, lambda: cliques if cfg.k is None else cliques[: cfg.k]

    return _Walk(cfg, _null_model(g, cfg), evaluate).run(g, index)
