"""Workloads of the scpm benchmark and the planted-instance generator they run on.

The generator is the benchmark's own copy of the planted instance the
repository's tests use, so a change to the tests cannot move the workloads.
Every workload mines with the configuration of acceptance criterion 7
(gamma_min=3/5, min_size=4, sigma_min=100, eps_min=0.1, delta_min=0, k=5)
and leaves threads, strategy and expansion budget at the program's defaults,
so a better default shows up in the numbers.
"""

from __future__ import annotations

import hashlib
import inspect
import random
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 20260808

GAMMA_MIN = (3, 5)
MIN_SIZE = 4
SIGMA_MIN = 100
EPS_MIN = 0.1
DELTA_MIN = 0.0
TOP_K = 5
SIM_SAMPLES = 100
SIM_SEED = 0

# A much smaller instance for the self-tests: same shape, a few planted blocks.
SMOKE_GENERATOR = dict(
    n=600, blocks=3, noise_attrs=6, scatter_per_noise=200, background_edges=900, blob_size=30
)
SMOKE_SIM_SAMPLES = 10


@dataclass(frozen=True)
class Workload:
    name: str
    null_model: str  # "analytical" or "simulation"
    baseline: bool  # run_naive instead of run_scpm
    # Instances per run. The cost of one instance varies with its seed by up
    # to a third (the random blob drives the enumeration), so a run mines
    # several instances derived from its seed and reports the median call.
    instances: int
    why: str
    generator: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "planted-10k",
            "analytical",
            False,
            4,
            "n=10000, analytical null model: time goes to posting intersections, "
            "none of which reach sigma_min; bitset postings must show here",
            dict(n=10000, blocks=100, noise_attrs=150, background_edges=20000, blob_size=60),
        ),
        Workload(
            "planted-2k-sim",
            "simulation",
            False,
            8,
            "n=2000, simulation null model (100 samples): time goes to sample views "
            "and their z-core peel; pruning uncovered roots must show here",
        ),
        Workload(
            "planted-2k-baseline",
            "analytical",
            True,
            5,
            "n=2000, exhaustive run_naive: full maximal enumeration on attribute "
            "views, the reference miner and the denominator of criterion 7",
        ),
    )
}


def instance_seeds(seed: int, count: int) -> list[int]:
    """The run's own seed first, then seeds derived from it."""
    seeds = [seed]
    for i in range(1, count):
        digest = hashlib.sha256(f"{seed}/{i}".encode()).digest()
        seeds.append(int.from_bytes(digest[:8], "big"))
    return seeds


def generator_params(workload: Workload, smoke: bool) -> dict:
    return dict(SMOKE_GENERATOR) if smoke else dict(workload.generator)


def planted_blocks(params: dict) -> list[tuple[str, int, tuple[int, ...]]]:
    """(attribute, support, block vertices) of every planted block of an instance."""
    defaults = inspect.signature(planted_instance_lines).parameters
    get = lambda name: params.get(name, defaults[name].default)  # noqa: E731
    size = get("block_size")
    support = size + get("scatter_per_planted")
    return [
        (f"planted{b}", support, tuple(range(b * size, (b + 1) * size)))
        for b in range(get("blocks"))
    ]


def planted_instance_lines(
    seed: int = DEFAULT_SEED,
    n: int = 2000,
    blocks: int = 20,
    block_size: int = 12,
    noise_attrs: int = 50,
    blob_size: int = 40,
    blob_p: float = 0.35,
    blob_per_noise: int = 20,
    scatter_per_noise: int = 480,
    scatter_per_planted: int = 88,
    background_edges: int = 3000,
):
    """Edge and attribute lines of a planted instance.

    Layout on n vertices: a sparse random background, ``blocks``
    near-complete 12-vertex blocks (every member keeps within-block degree
    >= 8, so each block is a 0.6-quasi-clique), and one denser blob. Block b
    is vertices 12b..12b+11 and carries attribute ``planted{b}``, padded with
    scattered carriers to support 100. Each noise attribute carries a slice
    of the blob plus hundreds of scattered vertices: frequent, pairwise
    frequent, and never correlated.
    """
    rng = random.Random(seed)
    edges = set()
    while len(edges) < background_edges:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))

    block_span = blocks * block_size
    blob = list(range(n - blob_size, n))
    scatter_pool = list(range(block_span, n - blob_size))

    for b in range(blocks):
        base = b * block_size
        block_edges = {
            (base + i, base + j)
            for i in range(block_size)
            for j in range(i + 1, block_size)
        }
        degree = {base + i: block_size - 1 for i in range(block_size)}
        removable = sorted(block_edges)
        rng.shuffle(removable)
        removed = 0
        for x, y in removable:
            if removed >= 12:
                break
            if degree[x] > 8 and degree[y] > 8:
                block_edges.discard((x, y))
                degree[x] -= 1
                degree[y] -= 1
                removed += 1
        edges |= block_edges

    for i in range(blob_size):
        for j in range(i + 1, blob_size):
            if rng.random() < blob_p:
                edges.add((blob[i], blob[j]))

    attr_tokens: dict[int, list[str]] = {v: [] for v in range(n)}
    for b in range(blocks):
        members = list(range(b * block_size, (b + 1) * block_size))
        extras = rng.sample(scatter_pool, scatter_per_planted)
        for v in members + extras:
            attr_tokens[v].append(f"planted{b}")
    for a in range(noise_attrs):
        carriers = rng.sample(blob, blob_per_noise) + rng.sample(scatter_pool, scatter_per_noise)
        for v in carriers:
            attr_tokens[v].append(f"noise{a}")

    edge_lines = [f"{u} {v}" for u, v in sorted(edges)]
    attr_lines = [
        f"{v} " + " ".join(ts) if ts else f"{v}" for v, ts in attr_tokens.items()
    ]
    return edge_lines, attr_lines


def write_instance(directory: Path, seed: int, params: dict) -> dict:
    """Generate one instance into ``directory``; returns its paths and digest."""
    edge_lines, attr_lines = planted_instance_lines(seed=seed, **params)
    edge_text = "\n".join(edge_lines) + "\n"
    attr_text = "\n".join(attr_lines) + "\n"
    directory.mkdir(parents=True, exist_ok=True)
    edges = directory / "graph.edges"
    attrs = directory / "graph.attrs"
    edges.write_text(edge_text)
    attrs.write_text(attr_text)
    digest = hashlib.sha256((edge_text + "\x00" + attr_text).encode()).hexdigest()
    return {"seed": seed, "edges": str(edges), "attrs": str(attrs), "sha256": digest}
