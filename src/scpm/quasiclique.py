"""Quasi-clique search over graph views.

A quasi-clique for parameters (gamma_min, min_size) is a vertex set Q with
|Q| >= min_size in which every member is adjacent to at least
ceil(gamma_min * (|Q| - 1)) other members, and which is maximal: no strict
superset satisfying the same degree rule exists. The reported density of a
set is min_v deg_Q(v) / (|Q| - 1).

The search walks a set-enumeration tree over the z-core of the view's
members (``vertex_prune``, which calls ``graph.z_core``), read from the
view's shared adjacency into bitmasks. The vertices carry a canonical order
(ascending degree in the core, ties by id). Each node is a pair (chosen,
extensions) of disjoint bitmasks; its children extend ``chosen`` by one
vertex each, taken in some branching order, and drop the extensions
branched on before them, so they partition the subtree. Every walk is depth-first, in pre-order, on a list stack, and
all of them share one child generator. There are two:

* the maximal walk, in canonical order, which offers every admissible set
  it meets to a subset-free pool; subset-freeness alone leaves the maximal
  family (proved at ``_ViewSearch.maximal``): full maximal enumeration
  (the exhaustive baseline) without a size floor, and top-k extraction
  (size desc, density desc, lexicographic asc) with a dynamic size floor
  raised as the pool fills, which never clips a top-k pattern, so no
  exhaustive re-run follows;
* coverage-set computation (which vertices lie in any quasi-clique): one
  exhaustive walk per still-uncovered root, explored greedy-first
  (densest extension first) and stopped at the first admissible set.

Pruning applied at every node, all of it sound for the above outputs:

* degree feasibility to a fixpoint: a chosen vertex must reach the degree
  floor of the smallest size any superset here can have (max(min_size, |X|)),
  an extension the floor of max(min_size, |X| + 1), both measured inside
  chosen | extensions;
* size-interval emptiness: any admissible superset found below this node
  has size at most min(|chosen | extensions|, min over chosen v of
  floor(deg(v) / gamma) + 1), the size upper bound of Quick (Liu & Wong,
  ECML PKDD 2008), and at least max(min_size, |X|); an empty interval
  kills the node (this is what stops runaway descents in views
  whose degree floor z is small);
* a lookahead that accepts chosen | extensions wholesale when it is
  already dense; and
* only when gamma_min >= 1/2, where quasi-cliques have diameter at most 2,
  restriction of extensions to vertices within distance 2 of every chosen
  vertex, and at gamma_min = 1, where they are cliques, to the common
  neighbours of the chosen vertices. A vertex's distance-2 ball is made on
  its first read, so a walk pays only for the balls of the vertices it
  branches on: a view settled at its root builds one ball for its
  coverage search and none for its top-k search.

An engine's fixed cost follows the work of its searches. Its bitmasks are
made in C-level passes, its degree-floor and size-cap tables are built for
its own core size, and it is kept on the view it was built for
(``GraphView.engine``). Every search opens ``_engine``, the engine's one
lifecycle: it reuses the view's engine when that was built for the same
parameters object, sets its expansion counter to 0 and its budget to the
call's, and adds the expansions to the caller's stats on exit, overflow or
not. A coverage search followed by a top-k search of the same view
therefore builds one engine and peels once.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .graph import GraphView, z_core

DEFAULT_EXPANSION_BUDGET = 50_000_000


class SearchBudgetExceeded(RuntimeError):
    """The candidate-expansion ceiling was hit; results would be incomplete."""


@dataclass(frozen=True)
class QuasiCliqueParams:
    """Density threshold gamma_min in (0, 1] (exact rational) and minimum size.

    A float gamma_min is read through its shortest repr, so 0.8 is 4/5 and
    not the binary double just above it.
    """

    gamma_min: Fraction
    min_size: int

    def __post_init__(self):
        gamma = self.gamma_min
        if not isinstance(gamma, Fraction):
            gamma = Fraction(repr(gamma) if isinstance(gamma, float) else gamma)
            object.__setattr__(self, "gamma_min", gamma)
        if not 0 < gamma <= 1:
            raise ValueError(f"gamma_min must be in (0, 1], got {gamma}")
        if self.min_size < 2:
            raise ValueError(f"min_size must be at least 2, got {self.min_size}")

    def degree_floor(self, size: int) -> int:
        """ceil(gamma_min * (size - 1)), computed exactly."""
        num = self.gamma_min.numerator * (size - 1)
        return -(-num // self.gamma_min.denominator)

    @property
    def z(self) -> int:
        """Degree every member of any admissible quasi-clique must reach."""
        return self.degree_floor(self.min_size)


@dataclass(frozen=True)
class QuasiClique:
    """A reported pattern: sorted vertex tuple and exact min-degree density."""

    vertices: tuple[int, ...]
    density: Fraction

    @property
    def size(self) -> int:
        return len(self.vertices)


def pattern_sort_key(q: QuasiClique):
    """Total order for reporting: size desc, density desc, vertex tuple asc."""
    return (-len(q.vertices), -q.density, q.vertices)


@dataclass
class SearchStats:
    """Node expansions accumulated across engine invocations."""

    expansions: int = 0


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def is_gamma_dense(view: GraphView, q, params: QuasiCliqueParams) -> bool:
    """Degree test only: |q| >= min_size and every member meets the floor in q.

    Maximality is not checked here.
    """
    qset = set(q)
    if not qset <= view.member_set:
        raise ValueError("q must be a subset of the view's members")
    need = params.degree_floor(len(qset))
    return len(qset) >= params.min_size and all(
        len(qset.intersection(view.neighbors(v))) >= need for v in qset
    )


def vertex_prune(view: GraphView, params: QuasiCliqueParams) -> GraphView:
    """The view on the z-core of the view's members (``graph.z_core``).

    No quasi-clique member is ever removed, so the returned view contains all
    quasi-cliques of the input view. A view that is already its own z-core
    is returned as is.
    """
    core = z_core(view.adjacency, view.members, params.z)
    if len(core) == len(view.members):
        return view
    return GraphView(tuple(core), view.adjacency)


class _ViewSearch:
    """Bitmask set-enumeration search over one z-core-reduced view.

    One engine may serve several searches of its view, each opened by
    ``_engine``, which owns the expansion counter and budget. A search
    changes only those and the reach balls built on first read, which any
    walk would build alike.
    """

    def __init__(self, view: GraphView, params: QuasiCliqueParams):
        core = vertex_prune(view, params)
        members = core.members
        n = len(members)
        # Each member's neighbours in the core, then the canonical order:
        # ascending degree in the core, ties by id, which the stable sort
        # keeps from the sorted members.
        nbrs = list(map(core.member_set.intersection, map(core.adjacency.__getitem__, members)))
        rank = sorted(range(n), key=list(map(len, nbrs)).__getitem__)
        order = list(map(members.__getitem__, rank))
        bit = dict(zip(order, map((1).__lshift__, range(n))))
        # The bits of distinct neighbours are distinct, so their sum is their OR.
        adj = [sum(map(bit.__getitem__, nbrs[i])) for i in rank]
        self.params = params
        self.min_size = params.min_size
        self.adj = adj
        self.n = n
        self.vertex_of = order
        self.full_mask = (1 << n) - 1
        # floors[s]: the degree floor of a size-s set; size_cap[d]: the
        # largest set a vertex of within-degree d can belong to.
        num, den = params.gamma_min.numerator, params.gamma_min.denominator
        self.floors = list(map(params.degree_floor, range(n + 2)))
        self.size_cap = [d * den // num + 1 for d in range(n + 1)]
        # reach[p] holds every vertex that can share a quasi-clique with p:
        # its neighbours at gamma 1, where every member is adjacent to every
        # other, its distance-2 ball from gamma 1/2 up, built on first read
        # (``_ball``), and every vertex below 1/2. 0 marks a ball not built
        # yet; no entry is 0 once built, since a ball holds its own vertex
        # and every core member has z >= 1 neighbours.
        if num == den:
            self.reach = adj
        elif 2 * num >= den:
            self.reach = [0] * n
        else:
            self.reach = [self.full_mask] * n

    def _ball(self, p: int) -> int:
        """reach[p] from gamma 1/2 up: p's distance-2 ball, kept once built."""
        adj = self.adj
        mask = adj[p] | (1 << p)
        for q in _bits(adj[p]):
            mask |= adj[q]
        self.reach[p] = mask
        return mask

    def _is_dense(self, mask: int, size: int) -> bool:
        if size < self.min_size:
            return False
        need = self.floors[size]
        adj = self.adj
        m = mask
        while m:
            low = m & -m
            if (adj[low.bit_length() - 1] & mask).bit_count() < need:
                return False
            m ^= low
        return True

    def _refine(self, chosen: int, cand: int) -> tuple[int, int, int] | None:
        """Degree and size-interval filters to a fixpoint.

        Returns (refined extensions, size upper bound, least degree inside
        chosen | refined extensions) or None when no admissible set can
        exist below this node. The least degree comes from the last pass,
        which removes nothing, so chosen | extensions is dense exactly when
        it reaches the floor of its size.
        """
        adj = self.adj
        floors = self.floors
        size_cap = self.size_cap
        csize = chosen.bit_count()
        smallest = csize if csize > self.min_size else self.min_size
        need_chosen = floors[smallest]
        need_ext = floors[csize + 1 if csize + 1 > self.min_size else self.min_size]
        while True:
            union = chosen | cand
            upper = least = union.bit_count()
            m = chosen
            while m:
                low = m & -m
                d = (adj[low.bit_length() - 1] & union).bit_count()
                if d < need_chosen:
                    return None
                if d < least:
                    least = d
                cap = size_cap[d]
                if cap < upper:
                    upper = cap
                m ^= low
            if upper < smallest:
                return None
            removed = 0
            m = cand
            while m:
                low = m & -m
                d = (adj[low.bit_length() - 1] & union).bit_count()
                if d < need_ext:
                    removed |= low
                elif d < least:
                    least = d
                m ^= low
            if not removed:
                return cand, upper, least
            cand &= ~removed

    def _clique_from_mask(self, mask: int, size: int) -> QuasiClique:
        min_deg = min((self.adj[p] & mask).bit_count() for p in _bits(mask))
        vertices = tuple(sorted(self.vertex_of[p] for p in _bits(mask)))
        return QuasiClique(vertices=vertices, density=Fraction(min_deg, size - 1))

    def _tick(self):
        self.expansions += 1
        if self.expansions > self.budget:
            raise SearchBudgetExceeded(
                f"quasi-clique search exceeded {self.budget} candidate expansions "
                f"on a {self.n}-vertex view"
            )

    def maximal(self, k: int | None) -> list[int]:
        """Masks of the maximal quasi-cliques, or with ``k`` a pool whose
        first k under the reporting order are the first k of them.

        A node whose chosen | extensions is dense offers that union and has
        no children; any other node offers its chosen set if that is dense
        at size >= min_size, and pushes its children. ``_antichain_insert``
        drops an offered set that a pooled set contains and otherwise pools
        it in place of the pooled sets it contains, so the pool is a
        subset-free antichain of admissible sets, and a set that has a
        pooled superset keeps one. With ``k`` set, a size floor equal to the
        k-th largest pooled size prunes every node whose size upper bound
        falls below it; with ``k`` None the floor stays at min_size, which
        ``_refine`` already enforces.

        1. Every admissible set D is offered, or lies in an offered union,
           unless a node on its root path is pruned at ``upper < floor``:
           ``_refine`` and the reach masks drop no member of D (each meets
           the floor of |D| inside any union holding D, and from gamma 1/2
           up lies within distance 2 of every other member), and each node
           on the path has ``upper >= |D|``. From then on D has a pooled
           superset.
        2. With ``k`` None nothing is pruned at the floor, so every maximal
           set has a pooled superset, which is admissible and so is that
           set itself; a pooled set inside a maximal one would break the
           antichain. The pool is the maximal family.
        3. The floor never falls. In this pre-order walk in canonical order
           a set offered after a node's subtree is done lies below a later
           sibling of that node or of one of its ancestors, whose extensions
           exclude the branch vertex of the node it follows, a member of
           the first node's chosen set. A pooled set inside a later offered
           set was therefore offered at an ancestor of the later node, as
           its chosen set (a node that offers its union has no subtree).
           Chosen sets on one root path are nested and the pool is an
           antichain, so an insert removes at most one pooled set, smaller
           than the set it adds: the pool never shrinks and its k-th
           largest size only rises.
        4. With ``k`` set, let F be the final k-th largest pooled size. If
           the pool ends with fewer than k sets the floor never left
           min_size and 2 applies. Otherwise the floor stays at most F (3),
           so no node on the path of an admissible set of size >= F is
           pruned, and by 1 every maximal set of size >= F is pooled. A
           non-maximal pooled set lies below F, since its larger maximal
           superset would be pooled beside it. The pool's first k sets in
           reporting order all have size >= F, so they are maximal, and no
           maximal set ranked before them is missing.
        """
        if self.n < self.min_size:
            return []
        floors = self.floors
        pool: list[int] = []
        floor = self.min_size
        nodes = [(0, self.full_mask)]
        while nodes:
            chosen, cand = nodes.pop()
            self._tick()
            refined = self._refine(chosen, cand)
            if refined is None:
                continue
            cand, upper, least = refined
            if upper < floor:
                continue
            union = chosen | cand
            if least >= floors[union.bit_count()]:
                found = union
            else:
                found = chosen if self._is_dense(chosen, chosen.bit_count()) else 0
                # Reversed canonical order: highest position first.
                last_first = []
                m = cand
                while m:
                    p = m.bit_length() - 1
                    last_first.append(p)
                    m ^= 1 << p
                self._push_children(nodes, chosen, last_first)
            if found:
                _antichain_insert(pool, found)
                if k is not None and len(pool) >= k:
                    floor = sorted((m.bit_count() for m in pool), reverse=True)[k - 1]
        return pool

    def cover(self) -> int:
        """Mask of all vertices lying in at least one quasi-clique.

        One exhaustive walk per still-uncovered root, stopping at the first
        admissible set containing it; every set found covers all of its
        members, so candidates made of covered vertices are never searched
        again. A hit is a genuine admissible set and a miss exhausts the
        root's subtree, so the mask does not depend on the order the walks
        explore their children in.
        """
        if self.n < self.min_size:
            return 0
        covered = 0
        for root in range(self.n):
            if not covered >> root & 1:
                covered |= self._first_dense_containing(root)
        return covered

    def _first_dense_containing(self, root: int) -> int:
        """Any admissible set containing ``root``, or 0 when none exists.

        Children are explored greedy-first: the extension with the most
        neighbours in ``chosen``, then in ``chosen | extensions``, is popped
        first, and ties keep the canonical order. Each extension's place in
        that order is one int, (chosen degree, union degree, n - 1 -
        position) packed into fixed-width fields, so one ascending sort
        yields the reverse of the greedy order. The first descent is
        therefore a densest-first growth around ``root``; where it misses,
        the walk backtracks until the subtree is exhausted.
        """
        adj = self.adj
        floors = self.floors
        min_size = self.min_size
        top = self.n - 1
        shift = self.n.bit_length()
        low_field = (1 << shift) - 1
        root_bit = 1 << root
        cand0 = (self.reach[root] or self._ball(root)) & ~root_bit
        nodes = [(root_bit, cand0)]
        while nodes:
            chosen, cand = nodes.pop()
            self._tick()
            refined = self._refine(chosen, cand)
            if refined is None:
                continue
            cand, _upper, least = refined
            union = chosen | cand
            if least >= floors[union.bit_count()]:
                return union
            csize = chosen.bit_count()
            if csize >= min_size and self._is_dense(chosen, csize):
                return chosen
            keys = []
            m = cand
            while m:
                low = m & -m
                p = low.bit_length() - 1
                a = adj[p]
                keys.append(
                    ((a & chosen).bit_count() << shift | (a & union).bit_count()) << shift
                    | top - p
                )
                m ^= low
            keys.sort()
            self._push_children(nodes, chosen, [top - (key & low_field) for key in keys])
        return 0

    def _push_children(self, nodes: list, chosen: int, last_first: list[int]):
        """Push one child per extension in ``last_first``, the reverse of
        the branching order, so the first branched on ends on top.

        Each child drops the extensions branched on before it, so the
        children partition the subtree whatever the order: a set containing
        ``chosen`` lies below exactly one child, the one of its first
        extension in the branching order. With the canonical order each
        child keeps the extensions ordered after its branch vertex.
        """
        reach = self.reach
        ball = self._ball
        later = 0
        for p in last_first:
            bit = 1 << p
            nodes.append((chosen | bit, later & (reach[p] or ball(p))))
            later |= bit


def _antichain_insert(pool: list[int], mask: int):
    """Keep ``pool`` a subset-free antichain while inserting ``mask``."""
    for existing in pool:
        if mask & ~existing == 0:
            return
    pool[:] = [e for e in pool if e & ~mask != 0]
    pool.append(mask)


@contextmanager
def _engine(view: GraphView, params: QuasiCliqueParams, budget: int, stats: SearchStats | None):
    """One search's engine: the one kept on ``view`` when it was built for
    this ``params`` object, else a new one that the view keeps in its
    place. Its counter starts at 0 against ``budget``, and its expansions
    are added to ``stats`` on exit, whether the search overflowed or not."""
    search = view.engine
    if search is None or search.params is not params:
        search = _ViewSearch(view, params)
        object.__setattr__(view, "engine", search)
    search.expansions = 0
    search.budget = budget
    try:
        yield search
    finally:
        if stats is not None:
            stats.expansions += search.expansions


def enumerate_maximal(
    view: GraphView,
    params: QuasiCliqueParams,
    *,
    budget: int = DEFAULT_EXPANSION_BUDGET,
    stats: SearchStats | None = None,
) -> list[QuasiClique]:
    """All maximal quasi-cliques of the view, in reporting order.

    The output is subset-free: it is exactly the family of maximal elements
    among all degree-admissible sets of size >= min_size, so its union covers
    every vertex belonging to any such set.
    """
    return top_k_patterns(view, params, None, budget=budget, stats=stats)


def covered_vertices(
    view: GraphView,
    params: QuasiCliqueParams,
    *,
    budget: int = DEFAULT_EXPANSION_BUDGET,
    stats: SearchStats | None = None,
) -> tuple[int, ...]:
    """Sorted vertices lying in at least one quasi-clique of the view.

    Computed without full enumeration: each still-uncovered vertex roots an
    exhaustive walk, explored greedy-first, that stops at the first
    admissible set found, and vertices already covered are never searched
    again. The engine is kept on ``view`` for a later search with the same
    ``params``; each call counts its own expansions against its own budget.
    """
    with _engine(view, params, budget, stats) as search:
        covered = search.cover()
    return tuple(sorted(search.vertex_of[p] for p in _bits(covered)))


def top_k_patterns(
    view: GraphView,
    params: QuasiCliqueParams,
    k: int | None,
    *,
    budget: int = DEFAULT_EXPANSION_BUDGET,
    stats: SearchStats | None = None,
) -> list[QuasiClique]:
    """The k best maximal quasi-cliques under the reporting order (all of
    them when ``k`` is None): always the first k of enumerate_maximal.

    One walk with a dynamic size floor; see ``_ViewSearch.maximal``. An
    engine an earlier search left on ``view`` for the same ``params`` is
    reused, with a fresh expansion count and this call's budget.
    """
    if k is not None and k < 1:
        raise ValueError("k must be at least 1")
    with _engine(view, params, budget, stats) as search:
        masks = search.maximal(k)
    cliques = [search._clique_from_mask(m, m.bit_count()) for m in masks]
    cliques.sort(key=pattern_sort_key)
    return cliques[:k]
