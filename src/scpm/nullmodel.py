"""Expected structural correlation under uniform random vertex sampling.

Two models for the expected fraction of covered vertices in a random
size-sigma vertex subset: a Monte-Carlo estimator (mean over r independent
samples, each peeled to its z-core, the first pass made for all samples of
a support in one sweep by ``graph.z_survivors`` and the peel finished by
``graph.z_core``, as the miner does for attribute sets, and, when the core
can still hold a quasi-clique, mined with the coverage engine; samples
with the same survivors of that first pass share one peel and one search)
and an analytical upper bound built from the graph's degree counts
(``AttributedGraph.degree_counts``). ``NullModel`` serves one mining run
and memoizes either model's answer by support, an overflow included;
``ExpectedCorrelation`` holds a value and, from the simulation, its
standard deviation.

A vertex needs degree at least z = ceil(gamma_min * (min_size - 1)) inside
the sample to sit in any quasi-clique, and the chance that a degree-alpha
vertex keeps beta of its neighbors in the sample is the binomial term
C(alpha, beta) * rho^beta * (1 - rho)^(alpha - beta) with
rho = (sigma - 1) / (n - 1). Summing the binomial tail from z over the
degree distribution bounds the expectation from above, and the bound is
non-decreasing in sigma.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Mapping

from .graph import AttributedGraph, induced_view, z_core, z_survivors
from .quasiclique import (
    DEFAULT_EXPANSION_BUDGET,
    QuasiCliqueParams,
    SearchBudgetExceeded,
    SearchStats,
    covered_vertices,
)

ANALYTICAL = "analytical"
SIMULATION = "simulation"

# Above this degree the binomial term is evaluated in log space.
_LOG_SPACE_DEGREE = 60

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class NullModelConfig:
    """Model choice plus the sample count and seed used by the simulation."""

    kind: str = ANALYTICAL
    samples: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.kind not in (ANALYTICAL, SIMULATION):
            raise ValueError(f"unknown null model kind {self.kind!r}")
        if self.kind == SIMULATION and self.samples < 1:
            raise ValueError("samples must be at least 1 for the simulation null model")


@dataclass(frozen=True)
class ExpectedCorrelation:
    """An expected-correlation value in [0, 1], with the sample standard
    deviation when the simulation estimated it. The model that produced
    it is the run's ``NullModelConfig.kind``."""

    value: float
    std_dev: float | None = None


def sample_prob(sigma: int, n: int) -> float:
    """Probability of a fixed other vertex joining a size-sigma sample: (sigma-1)/(n-1)."""
    if n < 2:
        raise ValueError(f"need at least two vertices, got {n}")
    if not 1 <= sigma <= n:
        raise ValueError(f"sigma must be in [1, {n}], got {sigma}")
    return (sigma - 1) / (n - 1)


def binomial_term(alpha: int, beta: int, rho: float) -> float:
    """C(alpha, beta) * rho^beta * (1-rho)^(alpha-beta), stable for large alpha."""
    if beta > alpha:
        raise ValueError(f"beta ({beta}) exceeds alpha ({alpha})")
    if alpha < 0 or beta < 0:
        raise ValueError("alpha and beta must be non-negative")
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    if rho == 0.0:
        return 1.0 if beta == 0 else 0.0
    if rho == 1.0:
        return 1.0 if beta == alpha else 0.0
    if alpha <= _LOG_SPACE_DEGREE:
        return math.comb(alpha, beta) * rho**beta * (1.0 - rho) ** (alpha - beta)
    log_choose = (
        math.lgamma(alpha + 1) - math.lgamma(beta + 1) - math.lgamma(alpha - beta + 1)
    )
    return math.exp(log_choose + beta * math.log(rho) + (alpha - beta) * math.log1p(-rho))


def max_eps_exp(
    counts: Mapping[int, int], sigma: int, params: QuasiCliqueParams, n: int
) -> ExpectedCorrelation:
    """Analytical upper bound: P(a random vertex keeps degree >= z in the sample).

    ``counts`` maps each degree alpha to its number of vertices among the
    graph's n. Sums p(alpha) = count / n times the binomial tail from z over
    all degrees alpha >= z. Non-decreasing in sigma; clamped to [0, 1].
    """
    rho = sample_prob(sigma, n)
    z = params.z
    total = math.fsum(
        c / n * math.fsum(binomial_term(alpha, beta, rho) for beta in range(z, alpha + 1))
        for alpha, c in counts.items()
        if alpha >= z
    )
    return ExpectedCorrelation(value=min(1.0, max(0.0, total)))


def _stream_seed(seed: int, sigma: int, trial: int) -> int:
    """Independent 64-bit stream per (seed, support, trial), order-insensitive."""
    x = (seed ^ (sigma * 0x9E3779B97F4A7C15) ^ (trial * 0xC2B2AE3D27D4EB4F)) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def sim_eps_exp(
    g: AttributedGraph,
    sigma: int,
    params: QuasiCliqueParams,
    cfg: NullModelConfig,
    *,
    budget: int = DEFAULT_EXPANSION_BUDGET,
    stats: SearchStats | None = None,
) -> ExpectedCorrelation:
    """Monte-Carlo estimate: mean covered fraction over r uniform samples.

    Each trial draws sigma vertices without replacement from its own seeded
    stream, so results are bit-for-bit reproducible and independent of
    evaluation order. Also reports the sample standard deviation.

    Every quasi-clique of a sample lies in its z-core, so each sample is
    first peeled to that core over the graph's adjacency, and a view, which
    shares that adjacency, is built and searched only for the core. All r
    samples of the support are drawn first, and one sweep of
    ``graph.z_survivors`` makes the peel's first pass for all of them, and
    the drawn samples are dropped before any search. A sample with fewer
    than min_size survivors has a core too small for any quasi-clique and
    scores 0 with no peel and no search; the others have their survivors
    peeled by ``graph.z_core``. A sample's core, and so its score, depends
    on its sorted survivors alone, so they are the memo key: a sample whose
    survivors equal an earlier sample's is neither peeled nor searched
    again, which happens when sigma is close to n. A core smaller than
    min_size scores 0 without a search too. Searching the core gives the
    same coverage and the same expansions as searching the whole sample,
    since the engine peels every view with the same ``z_core`` first, and
    a core passes that peel unchanged. Samples are searched in trial
    order, one search per distinct survivor list, and the expansions of
    every search, including one that overflows, are added to ``stats``.
    The miners ask for a support only to score a set whose eps reaches
    eps_min, so their ``expansions`` count the samples of those supports
    alone.
    """
    if cfg.kind != SIMULATION:
        raise ValueError("sim_eps_exp requires a simulation-kind config")
    n = g.vertex_count
    if not 1 <= sigma <= n:
        raise ValueError(f"sigma must be in [1, {n}], got {sigma}")
    z = params.z
    # Drawn from a tuple, the samples share one int per vertex; drawn from
    # range(n), the same draw would make a new int per sampled vertex.
    vertices = tuple(range(n))
    samples = [
        random.Random(_stream_seed(cfg.seed, sigma, trial)).sample(vertices, sigma)
        for trial in range(cfg.samples)
    ]
    survivors = z_survivors(g.adjacency, samples, z)
    del samples
    fractions_seen: dict[tuple[int, ...], float] = {}
    values = []
    for kept in survivors:
        key = tuple(kept)
        frac = 0.0 if len(key) < params.min_size else fractions_seen.get(key)
        if frac is None:
            core = z_core(g.adjacency, kept, z)
            if len(core) < params.min_size:
                frac = 0.0
            else:
                covered = covered_vertices(
                    induced_view(g, core), params, budget=budget, stats=stats
                )
                frac = len(covered) / sigma
            fractions_seen[key] = frac
        values.append(frac)
    mean = math.fsum(values) / len(values)
    if len(values) > 1:
        var = math.fsum((x - mean) ** 2 for x in values) / (len(values) - 1)
        std = math.sqrt(var)
    else:
        std = 0.0
    return ExpectedCorrelation(value=mean, std_dev=std)


def delta_ratio(eps: float, eps_exp: ExpectedCorrelation) -> float:
    """eps / eps_exp, with 0/0 defined as 0 and positive/0 as +infinity.

    ``eps`` is not range-checked: the miner's extension gate passes a bound
    on its supersets' eps, which may exceed 1.
    """
    if eps_exp.value == 0.0:
        return math.inf if eps > 0.0 else 0.0
    return eps / eps_exp.value


def normalized_delta(eps: float, eps_exp: ExpectedCorrelation) -> float:
    """``delta_ratio`` of an eps in [0, 1]."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must be in [0, 1], got {eps}")
    return delta_ratio(eps, eps_exp)


class NullModel:
    """Per-run provider of expected correlations, memoized by support.

    The expectation depends only on the support, the graph, and the
    quasi-clique parameters, so one memo serves a whole mining run. It maps
    each support asked for to its value or, when the simulation overflowed,
    to the SearchBudgetExceeded it raised, kept without the traceback that
    holds the simulation's frames. The simulation searches its
    samples with the run's expansion ``budget``; every later request for an
    overflowed support raises a new SearchBudgetExceeded with the same
    message without drawing the samples again, since the same samples would
    overflow the same budget. The miners call
    ``expected`` only for a set whose eps reaches eps_min, so the supports
    of the other sets are never simulated. The analytical model reads the
    graph's ``degree_counts``, counted on first read and kept on the graph,
    so a simulation never counts them and every model of one graph shares
    them.
    """

    def __init__(
        self,
        g: AttributedGraph,
        params: QuasiCliqueParams,
        cfg: NullModelConfig,
        *,
        budget: int = DEFAULT_EXPANSION_BUDGET,
    ):
        self._g = g
        self._params = params
        self._cfg = cfg
        self._budget = budget
        self._memo: dict[int, ExpectedCorrelation | SearchBudgetExceeded] = {}

    def expected(self, sigma: int, *, stats: SearchStats | None = None) -> ExpectedCorrelation:
        """Expected correlation at support ``sigma``; sample-search
        expansions are added to ``stats``."""
        value = self._memo.get(sigma)
        if value is not None:
            if isinstance(value, SearchBudgetExceeded):
                # Raising the kept instance would grow its traceback each time.
                raise SearchBudgetExceeded(*value.args)
            return value
        if self._g.vertex_count < 2:
            # No sample of a sub-2-vertex graph can reach any degree floor.
            value = ExpectedCorrelation(value=0.0)
        elif self._cfg.kind == ANALYTICAL:
            value = max_eps_exp(self._g.degree_counts, sigma, self._params, self._g.vertex_count)
        else:
            try:
                value = sim_eps_exp(
                    self._g, sigma, self._params, self._cfg, budget=self._budget, stats=stats
                )
            except SearchBudgetExceeded as exc:
                self._memo[sigma] = SearchBudgetExceeded(*exc.args)
                raise
        self._memo[sigma] = value
        return value
