"""Vertical attribute index: per-attribute posting lists and their intersections.

An attribute set is a strictly sorted tuple of dense attribute ids; its
posting list is the sorted tuple of vertices carrying every attribute in
the set, so support is just the posting-list length. The index is the
plain dict from each attribute id to its posting (``AttributeIndex``).
The miner's lattice walk ANDs int bitsets of these postings instead;
``vertex_set`` (smallest posting first) and ``intersect_sorted`` are plain
set intersections for the DOT export and library callers.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .graph import AttributedGraph

AttributeSet = tuple[int, ...]
PostingList = tuple[int, ...]
# Map from each attribute id to the sorted vertices that carry it.
AttributeIndex = dict[int, PostingList]


def build_index(g: AttributedGraph) -> AttributeIndex:
    """Invert the per-vertex attribute sets into the dict of sorted posting
    lists, keyed by attribute id.

    Vertices are scanned in ascending order, so each attribute's list
    arrives sorted; attributes keep the order of their first carrier. An
    incidence allocates nothing but its slot in the list, and each list is
    replaced in place by its tuple, so no posting is held twice. When the
    file ids already are 0..n-1, ``external_ids`` holds the very int
    objects the graph uses as vertices, and the postings share them instead
    of holding a fresh int per incidence.
    """
    ids = g.external_ids
    vertices = ids if ids and ids[-1] == len(ids) - 1 else range(len(g.attributes))
    posting: dict = {}
    for v, attrs in zip(vertices, g.attributes):
        for a in attrs:
            try:
                posting[a].append(v)
            except KeyError:
                posting[a] = [v]
    for a, vs in posting.items():
        posting[a] = tuple(vs)
    return posting


def intersect_sorted(a: Sequence[int], b: Sequence[int]) -> PostingList:
    """Sorted intersection of two vertex sequences."""
    return tuple(sorted(set(a).intersection(b)))


def vertex_set(index: AttributeIndex, s: Iterable[int]) -> PostingList:
    """Sorted vertices carrying every attribute of ``s``, in any order.

    Unknown attribute ids yield an empty posting list; an empty ``s`` raises.
    """
    lists = sorted((index.get(a, ()) for a in set(s)), key=len)
    if not lists:
        raise ValueError("attribute set must be non-empty")
    return tuple(sorted(set(lists[0]).intersection(*lists[1:])))


def frequent_attributes(index: AttributeIndex, sigma_min: int) -> list[tuple[AttributeSet, PostingList]]:
    """All singleton attribute sets with support >= sigma_min, ascending by id."""
    if sigma_min < 1:
        raise ValueError("sigma_min must be at least 1")
    return [
        ((a,), posting)
        for a, posting in sorted(index.items())
        if len(posting) >= sigma_min
    ]
