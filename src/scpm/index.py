"""Vertical attribute index: per-attribute posting lists and their intersections.

An attribute set is a strictly sorted tuple of dense attribute ids; its
posting list is the sorted tuple of vertices carrying every attribute in
the set, so support is just the posting-list length.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

from .graph import AttributedGraph

AttributeSet = tuple[int, ...]
PostingList = tuple[int, ...]

# Skewed intersections switch from linear merging to binary probing once the
# longer list is this many times the shorter one.
GALLOP_RATIO = 32


@dataclass
class AttributeIndex:
    """Map from each attribute id to the sorted vertices that carry it."""

    posting: dict[int, PostingList]


def build_index(g: AttributedGraph) -> AttributeIndex:
    """Invert the per-vertex attribute sets into sorted posting lists."""
    lists: dict[int, list[int]] = {}
    for v in range(g.vertex_count):
        for a in g.attributes[v]:
            lists.setdefault(a, []).append(v)
    # Vertices are scanned in ascending order, so the lists arrive sorted.
    return AttributeIndex(posting={a: tuple(vs) for a, vs in lists.items()})


def intersect_sorted(a: Sequence[int], b: Sequence[int]) -> PostingList:
    """Intersection of two sorted sequences, galloping when heavily skewed."""
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return ()
    if len(b) > GALLOP_RATIO * len(a):
        out = []
        lo = 0
        hi = len(b)
        for x in a:
            lo = bisect_left(b, x, lo, hi)
            if lo == hi:
                break
            if b[lo] == x:
                out.append(x)
                lo += 1
        return tuple(out)
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        x, y = a[i], b[j]
        if x == y:
            out.append(x)
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return tuple(out)


def vertex_set(index: AttributeIndex, s: Iterable[int]) -> PostingList:
    """Vertices containing every attribute of ``s`` (k-way intersection).

    Unknown attribute ids yield an empty posting list. The intersection runs
    smallest-list-first, so the result is order-insensitive in ``s``.
    """
    lists = []
    for a in set(s):
        posting = index.posting.get(a)
        if posting is None:
            return ()
        lists.append(posting)
    if not lists:
        raise ValueError("attribute set must be non-empty")
    lists.sort(key=len)
    acc = lists[0]
    for other in lists[1:]:
        if not acc:
            break
        acc = intersect_sorted(acc, other)
    return tuple(acc)


def frequent_attributes(index: AttributeIndex, sigma_min: int) -> list[tuple[AttributeSet, PostingList]]:
    """All singleton attribute sets with support >= sigma_min, ascending by id."""
    if sigma_min < 1:
        raise ValueError("sigma_min must be at least 1")
    return [
        ((a,), posting)
        for a, posting in sorted(index.posting.items())
        if len(posting) >= sigma_min
    ]
