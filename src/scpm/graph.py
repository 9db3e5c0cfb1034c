"""Attributed graph storage with its degree counts, induced subgraph views
that share the graph's adjacency, and the z-core peel, the program's only
one, with its first pass made for many member sets in one sweep.

The graph is immutable after loading: adjacency is a list of strictly sorted
neighbor tuples over dense vertex ids 0..n-1, and every vertex carries a
sorted tuple of dense attribute ids. Original file ids (arbitrary
non-negative integers) are remapped on load unless they already are
0..n-1; ``external_ids`` maps back.

``load_graph`` reads each line on a fast path (``split`` and ``int``, with
the id range checked inline) and hands only the lines that fail it to the
checked parser, which skips blank and comment lines and raises every
``GraphFormatError`` with its message, source name and line number.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from operator import and_, lt, or_
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

# File vertex ids above this are rejected so dense remapping stays in
# fixed-width integer territory.
MAX_VERTEX_ID = 2**63 - 1


class GraphFormatError(ValueError):
    """A line of an edge or attribute source could not be parsed."""

    def __init__(self, message: str, source: str = "input", line_number: int | None = None):
        self.source = source
        self.line_number = line_number
        if line_number is not None:
            message = f"{source}, line {line_number}: {message}"
        super().__init__(message)


@dataclass
class AttributeDictionary:
    """Bidirectional map between attribute tokens and dense integer ids.

    Ids are handed out in first-seen order while loading.
    """

    id_to_token: list[str] = field(default_factory=list)
    token_to_id: dict[str, int] = field(default_factory=dict)

    def id_for(self, token: str) -> int | None:
        return self.token_to_id.get(token)

    def label(self, attr_ids) -> str:
        """An attribute set as the output files name it: tokens joined by '|'."""
        return "|".join(self.id_to_token[a] for a in attr_ids)

    def __len__(self) -> int:
        return len(self.id_to_token)


@dataclass
class AttributedGraph:
    """Undirected attributed graph over dense vertex ids.

    Invariants: adjacency is symmetric, self-loop free, and every neighbor
    tuple is strictly sorted; attribute tuples are strictly sorted ids known
    to ``attribute_dictionary``.
    """

    vertex_count: int
    adjacency: list[tuple[int, ...]]
    attributes: list[tuple[int, ...]]
    attribute_dictionary: AttributeDictionary
    external_ids: tuple[int, ...]
    dropped_self_loops: int = 0

    def original_id(self, v: int) -> int:
        return self.external_ids[v]

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    @cached_property
    def degree_counts(self) -> Mapping[int, int]:
        """Degree -> number of vertices of that degree, isolated vertices at
        degree 0; counted on first read and kept, read-only, since every
        reader shares it."""
        return MappingProxyType(Counter(map(len, self.adjacency)))


@dataclass(frozen=True)
class GraphView:
    """Induced subgraph over a sorted member subset.

    ``adjacency`` is the parent graph's own list, shared and not copied.
    ``neighbors(v)`` reads a member's sorted neighbours among the members.
    ``engine`` holds the quasi-clique search engine last built on the view,
    so that a second search of it can reuse the first one's engine.
    """

    members: tuple[int, ...]
    adjacency: Sequence[Sequence[int]] = field(repr=False)
    member_set: frozenset[int] = field(init=False, repr=False, compare=False)
    engine: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "member_set", frozenset(self.members))

    def __len__(self) -> int:
        return len(self.members)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(filter(self.member_set.__contains__, self.adjacency[v]))

    @property
    def edge_count(self) -> int:
        inside = self.member_set.intersection
        return sum(len(inside(self.adjacency[v])) for v in self.members) // 2


def _parse_vertex_id(token: str, source: str, line_number: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise GraphFormatError(f"expected a vertex id, got {token!r}", source, line_number) from None
    if value < 0:
        raise GraphFormatError(f"vertex id must be non-negative, got {value}", source, line_number)
    if value > MAX_VERTEX_ID:
        raise GraphFormatError(f"vertex id {value} overflows the supported range", source, line_number)
    return value


def _checked_edge_line(raw: str, source: str, line_number: int) -> tuple[int, int] | None:
    """The ids of an edge line, None for a blank or comment line, or the
    ``GraphFormatError`` of its first fault."""
    line = raw.strip()
    if not line or line.startswith("#"):
        return None
    parts = line.split()
    if len(parts) != 2:
        raise GraphFormatError(
            f"expected two vertex ids, got {len(parts)} fields", source, line_number
        )
    u = _parse_vertex_id(parts[0], source, line_number)
    v = _parse_vertex_id(parts[1], source, line_number)
    return u, v


def _checked_attribute_line(raw: str, source: str, line_number: int) -> int | None:
    """The vertex id of an attribute line, None for a blank or comment line,
    or the ``GraphFormatError`` of its id."""
    line = raw.strip()
    if not line or line.startswith("#"):
        return None
    return _parse_vertex_id(line.split()[0], source, line_number)


class _TokenIds(dict):
    """Token -> dense id, handing out the next id to a token on first sight."""

    def __missing__(self, token: str) -> int:
        attr_id = self[token] = len(self)
        return attr_id


def load_graph(edge_source: Iterable[str], attribute_source: Iterable[str]) -> AttributedGraph:
    """Build a validated graph from an edge line stream and an attribute line stream.

    Edge lines hold two whitespace-separated vertex ids; attribute lines hold
    a vertex id followed by attribute tokens. Lines starting with ``#`` and
    blank lines are ignored. Duplicate edges are deduplicated silently;
    self-loops are dropped and counted. Vertices seen only in the attribute
    source exist with empty adjacency, and an empty edge source is legal.

    Each line is first read on a fast path: ``split()``, ``int()`` on the
    ids and an inline range check. A line that fails it (blank, comment,
    wrong field count, non-integer or out-of-range id) is read again by the
    checked parser, which skips it or raises the ``GraphFormatError`` of its
    first fault. Both paths parse ids with ``int()``, so they accept the same
    spellings, and the checked parser sees every line the fast path refuses,
    in file order, so every error keeps its message and line number.
    Each attribute token is interned once, on first sight, so token ids
    follow first appearance in the file.

    No set is built per vertex. Endpoints are kept in two ``array("q")``
    buffers, and each attribute line becomes its vertex's sorted id tuple at
    once; a vertex on a second line merges into it. The sorted original ids
    map to dense ids through a dict, or index themselves when they already
    are 0..n-1, so each vertex is one shared int object wherever the graph
    holds it. Neighbours gather in one list per vertex, and each list is
    deduplicated and sorted once, into the final tuple that replaces it.
    Every buffer is dropped as soon as nothing reads it, so a load's
    transient memory stays within a small multiple of the graph it returns.
    Errors name a source by its ``name``, as an open file has, if it has
    one.
    """
    top = MAX_VERTEX_ID
    edge_name = str(getattr(edge_source, "name", "edge source"))
    attribute_name = str(getattr(attribute_source, "name", "attribute source"))
    us = array("q")
    vs = array("q")
    for line_number, raw in enumerate(edge_source, start=1):
        try:
            u, v = map(int, raw.split())
        except ValueError:
            pass
        else:
            if 0 <= u <= top and 0 <= v <= top:
                us.append(u)
                vs.append(v)
                continue
        ids = _checked_edge_line(raw, edge_name, line_number)
        if ids is not None:
            us.append(ids[0])
            vs.append(ids[1])

    token_ids = _TokenIds()
    to_id = token_ids.__getitem__
    rows: dict[int, tuple[int, ...]] = {}
    for line_number, raw in enumerate(attribute_source, start=1):
        parts = raw.split()
        try:
            v = int(parts[0])
        except (IndexError, ValueError):
            v = -1
        if not 0 <= v <= top:
            v = _checked_attribute_line(raw, attribute_name, line_number)
            if v is None:
                continue
        row = set(map(to_id, parts[1:]))
        if v in rows:
            row.update(rows[v])
        rows[v] = tuple(sorted(row))

    # The rows first: a set made from a dict is sized once, and it keeps the
    # rows' own int objects, which become the graph's vertex objects.
    original_ids = tuple(sorted({*rows, *us, *vs}))
    n = len(original_ids)
    if n and original_ids[-1] != n - 1:
        dense = {orig: i for i, orig in enumerate(original_ids)}.__getitem__
    else:
        dense = original_ids.__getitem__

    attributes: list[tuple[int, ...]] = [()] * n
    for v, row in rows.items():
        attributes[dense(v)] = row
    del rows

    self_loops = 0
    adjacency: list = [[] for _ in range(n)]
    for u, v in zip(map(dense, us), map(dense, vs)):
        if u == v:
            self_loops += 1
        else:
            adjacency[u].append(v)
            adjacency[v].append(u)
    del us, vs
    for v, nbrs in enumerate(adjacency):  # in place: the lists go as the tuples come
        adjacency[v] = tuple(sorted(set(nbrs)))

    return AttributedGraph(
        vertex_count=n,
        adjacency=adjacency,
        attributes=attributes,
        attribute_dictionary=AttributeDictionary(id_to_token=list(token_ids), token_to_id=dict(token_ids)),
        external_ids=original_ids,
        dropped_self_loops=self_loops,
    )


def induced_view(g: AttributedGraph, members) -> GraphView:
    """View of ``g`` restricted to ``members`` (strictly sorted, all in V),
    sharing ``g.adjacency``."""
    members = tuple(members)
    if not all(map(lt, members, members[1:])):
        raise ValueError("members must be strictly sorted and duplicate-free")
    if members and not (0 <= members[0] and members[-1] < g.vertex_count):
        outside = next(v for v in members if not 0 <= v < g.vertex_count)
        raise ValueError(f"vertex {outside} is not in the graph")
    return GraphView(members, g.adjacency)


def z_core(adjacency: Sequence[Sequence[int]], members: Sequence[int], z: int) -> list[int]:
    """Members of the z-core of the subgraph induced by ``members``, in
    their given order (sorted when ``members`` is).

    Every subset of ``members`` in which each vertex has z neighbours lies
    in the z-core, so when z is ``QuasiCliqueParams.z`` every quasi-clique
    of the induced subgraph lies in this core. A first pass drops every member with fewer
    than z neighbours among all the members, which for a sparse member set
    (a random sample, or an attribute set's posting) is nearly all of them;
    when it drops none, the members are their own core and return at once.
    Otherwise the survivors keep their neighbour sets among each other, and
    the queue-based peel of the k-core decomposition (Batagelj and
    Zaversnik, 2003), run for the one value z, drops each vertex whose set
    falls below z and takes it out of its neighbours' sets. Time is linear
    in the members' degrees and memory in the edges among them.
    """
    sample = set(members)
    kept = [v for v in members if len(sample.intersection(adjacency[v])) >= z]
    if len(kept) == len(members):
        return kept
    alive = set(kept)
    local = {v: alive.intersection(adjacency[v]) for v in kept}
    dropped = [v for v in kept if len(local[v]) < z]
    alive.difference_update(dropped)
    for v in dropped:  # grows while it is walked
        for u in local[v]:
            if u in alive:
                nbrs = local[u]
                nbrs.discard(v)
                if len(nbrs) < z:
                    alive.discard(u)
                    dropped.append(u)
    return [v for v in kept if v in alive]


def z_survivors(
    adjacency: Sequence[Sequence[int]], member_sets: Sequence[Iterable[int]], z: int
) -> list[list[int]]:
    """For each member set, in order, its members with at least z neighbours
    among that set's members, sorted: ``z_core``'s first pass, made for
    every set in one sweep over the adjacency. The sets may be unsorted.

    Each vertex holds an int with one bit per set it is in: set i of k
    takes bit k - 1 - i, so when the sets come by ascending size, as the
    miner passes its singletons, the largest sets take the lowest bits and
    most vertices' ints stay narrow. Each vertex in some set runs a
    saturating counter over its neighbours' ints, stored as two bit planes:
    a neighbour's int m updates them as ``twice |= once & m; once |= m``,
    so ``twice`` names the sets in which the vertex has two neighbours. For
    z > 2 the neighbours' ints first pass z - 2 times through a filter
    that keeps, of each int, only the sets an earlier int of the stream
    already holds (``m & (m_0 | ... | m_prev)``, by ``accumulate``); each
    pass lowers every set's count by one, so two neighbours after the
    passes are z before them. The plane that reaches z, ANDed with the
    vertex's own int, names every set it survives in. The sweep reads a
    vertex's adjacency once however many sets hold it, where a pass per set
    reads it once per set, and it counts no set's members one by one. It
    keeps one int per vertex, of one bit per set, and no neighbour set.

    The survivors still hold each set's z-core, which is the z-core of the
    survivors, so ``z_core`` run on them finishes the peel.
    """
    if z < 1:
        raise ValueError(f"z must be at least 1, got {z}")
    masks = [0] * len(adjacency)
    bit = 1 << len(member_sets)
    for members in member_sets:
        bit >>= 1
        for v in members:
            masks[v] |= bit
    survivors: list[list[int]] = [[] for _ in member_sets]
    mask_of = masks.__getitem__
    drops = range(z - 2)
    for v, own in enumerate(masks):
        if own:
            ints = map(mask_of, adjacency[v])
            for _ in drops:
                ints = list(ints)
                ints = map(and_, accumulate(ints, or_), ints[1:])
            once = twice = 0
            for m in ints:
                twice |= once & m
                once |= m
            hit = (twice if z > 1 else once) & own
            while hit:
                low = hit & -hit
                survivors[-low.bit_length()].append(v)
                hit ^= low
    return survivors
