"""Independent reference implementations used to check the engine.

Everything here is deliberately naive: explicit subset enumeration, direct
degree counting, and exact rational arithmetic. Nothing is shared with the
package's search code paths.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations
from typing import Iterable

from scpm import GraphView, load_graph
from scpm.graph import MAX_VERTEX_ID, AttributeDictionary, AttributedGraph, GraphFormatError


def degree_need(gamma: Fraction, size: int) -> int:
    return math.ceil(gamma * (size - 1))


def dense_subsets(view: GraphView, gamma: Fraction, min_size: int):
    """Every admissible vertex set of the view, by full subset enumeration."""
    adj = {v: set(view.neighbors(v)) for v in view.members}
    found = []
    for r in range(min_size, len(view.members) + 1):
        need = degree_need(gamma, r)
        for combo in combinations(view.members, r):
            cset = set(combo)
            if all(len(adj[v] & cset) >= need for v in combo):
                found.append(frozenset(combo))
    return found

def brute_maximal(view: GraphView, gamma: Fraction, min_size: int):
    """Maximal admissible sets as sorted (vertices, density) pairs.

    The dense subsets are walked largest first, and each is tested only
    against the maximal sets already kept: a dense set that is not maximal
    lies in a larger maximal one, which was kept before it."""
    kept: list[frozenset] = []
    for q in reversed(dense_subsets(view, gamma, min_size)):
        if not any(q < m for m in kept):
            kept.append(q)
    adj = {v: set(view.neighbors(v)) for v in view.members}
    out = [
        (tuple(sorted(q)), Fraction(min(len(adj[v] & q) for v in q), len(q) - 1)) for q in kept
    ]
    out.sort(key=lambda item: (-len(item[0]), -item[1], item[0]))
    return out


def brute_covered(view: GraphView, gamma: Fraction, min_size: int) -> tuple[int, ...]:
    """Union of every admissible set of the view."""
    covered: set[int] = set()
    for q in dense_subsets(view, gamma, min_size):
        covered |= q
    return tuple(sorted(covered))


def brute_z_core(adjacency, members, z: int) -> list[int]:
    """z-core of the subgraph induced by ``members``, by whole rounds: each
    round deletes every vertex with fewer than z neighbours left, until a
    round deletes none."""
    alive = set(members)
    while True:
        low = {v for v in alive if sum(u in alive for u in adjacency[v]) < z}
        if not low:
            return sorted(alive)
        alive -= low


def as_pairs(cliques):
    """Engine output normalized to the oracle's (vertices, density) shape."""
    return [(q.vertices, q.density) for q in cliques]


def exact_expected_bound(counts: dict[int, int], n: int, sigma: int, gamma: Fraction, min_size: int) -> Fraction:
    """Exact-rational evaluation of the analytical expectation bound."""
    rho = Fraction(sigma - 1, n - 1)
    z = degree_need(gamma, min_size)
    total = Fraction(0)
    for alpha, count in counts.items():
        if alpha < z:
            continue
        p_alpha = Fraction(count, n)
        tail = Fraction(0)
        for beta in range(z, alpha + 1):
            tail += math.comb(alpha, beta) * rho**beta * (1 - rho) ** (alpha - beta)
        total += p_alpha * tail
    return total


def _reference_vertex_id(token: str, source: str, line_number: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise GraphFormatError(f"expected a vertex id, got {token!r}", source, line_number) from None
    if value < 0:
        raise GraphFormatError(f"vertex id must be non-negative, got {value}", source, line_number)
    if value > MAX_VERTEX_ID:
        raise GraphFormatError(f"vertex id {value} overflows the supported range", source, line_number)
    return value


def reference_load_graph(edge_source: Iterable[str], attribute_source: Iterable[str]) -> AttributedGraph:
    """The set-based loader ``load_graph`` replaced, kept as its reference:
    same graph, same ``GraphFormatError`` text and line number.

    Edge lines hold two whitespace-separated vertex ids; attribute lines hold
    a vertex id followed by attribute tokens. Lines starting with ``#`` and
    blank lines are ignored. Duplicate edges are deduplicated silently;
    self-loops are dropped and counted. Vertices seen only in the attribute
    source exist with empty adjacency, and an empty edge source is legal.
    """
    edges: set[tuple[int, int]] = set()
    vertices: set[int] = set()
    self_loops = 0

    for line_number, raw in enumerate(edge_source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(
                f"expected two vertex ids, got {len(parts)} fields", "edge source", line_number
            )
        u = _reference_vertex_id(parts[0], "edge source", line_number)
        v = _reference_vertex_id(parts[1], "edge source", line_number)
        vertices.add(u)
        vertices.add(v)
        if u == v:
            self_loops += 1
            continue
        edges.add((u, v) if u < v else (v, u))

    raw_attrs: dict[int, set[str]] = {}
    dictionary = AttributeDictionary()
    attr_order: list[tuple[int, str]] = []
    for line_number, raw in enumerate(attribute_source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        v = _reference_vertex_id(parts[0], "attribute source", line_number)
        vertices.add(v)
        bucket = raw_attrs.setdefault(v, set())
        for token in parts[1:]:
            if token not in bucket:
                bucket.add(token)
                attr_order.append((v, token))

    original_ids = tuple(sorted(vertices))
    dense = {orig: i for i, orig in enumerate(original_ids)}
    n = len(original_ids)

    # Token ids in first-seen (file-order) sequence.
    for _, token in attr_order:
        if token not in dictionary.token_to_id:
            dictionary.token_to_id[token] = len(dictionary.id_to_token)
            dictionary.id_to_token.append(token)

    adjacency_sets: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        du, dv = dense[u], dense[v]
        adjacency_sets[du].add(dv)
        adjacency_sets[dv].add(du)
    adjacency = [tuple(sorted(s)) for s in adjacency_sets]

    attributes: list[tuple[int, ...]] = [()] * n
    for orig, tokens in raw_attrs.items():
        attributes[dense[orig]] = tuple(sorted(dictionary.token_to_id[t] for t in tokens))

    return AttributedGraph(
        vertex_count=n,
        adjacency=adjacency,
        attributes=attributes,
        attribute_dictionary=dictionary,
        external_ids=original_ids,
        dropped_self_loops=self_loops,
    )


def random_graph_lines(rng: random.Random, n: int, p: float):
    """Edge lines of an Erdos-Renyi style graph plus an isolated-vertex guard."""
    lines = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                lines.append(f"{u} {v}")
    # Mention every vertex so isolated ones exist too.
    attr_guard = [f"{v}" for v in range(n)]
    return lines, attr_guard


def random_attributed_graph(rng: random.Random, n: int, p: float, n_attrs: int, attr_prob: float = 0.4):
    """A loaded random attributed graph built through the public loader."""
    edge_lines, _ = random_graph_lines(rng, n, p)
    attr_lines = []
    names = [f"a{i}" for i in range(n_attrs)]
    for v in range(n):
        present = [names[i] for i in range(n_attrs) if rng.random() < attr_prob]
        attr_lines.append(f"{v} " + " ".join(present) if present else f"{v}")
    return load_graph(iter(edge_lines), iter(attr_lines))
