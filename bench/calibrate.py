"""A fixed reference computation that reads the host's current speed.

This host's speed drifts by up to 2x over minutes (its cores are shared),
and the drift moves every timing of a run alike. The worker times this
routine next to each pipeline pass and scales the pass's times by
``NOMINAL_S / reference time``, which turns them into seconds at one fixed
host speed: the speed at which ``reference()`` takes ``NOMINAL_S``.

The routine does the kinds of work the miner does, in pure Python: merging
sorted posting lists, peeling a graph to a degree floor with dicts and sets,
and bitmask arithmetic on big integers. Its inputs are fixed, so a change to
the program cannot move it.
"""

from __future__ import annotations

import random
import time
from collections import deque

# The median time of reference() over ten benchmark runs on a shared 2-vCPU
# "Intel(R) Xeon(R) Processor" host, Python 3.11 (it ranged 0.050-0.082 s).
NOMINAL_S = 0.06

_rng = random.Random(20260808)
_POSTINGS = [sorted(_rng.sample(range(20000), 2000)) for _ in range(12)]
_N = 1500
_ADJ = [set() for _ in range(_N)]
for _ in range(6 * _N):
    _u, _v = _rng.randrange(_N), _rng.randrange(_N)
    if _u != _v:
        _ADJ[_u].add(_v)
        _ADJ[_v].add(_u)
_MASKS = [_rng.getrandbits(512) for _ in range(96)]


def _merge(a, b):
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
    return out


def _peel(floor):
    degrees = {v: len(_ADJ[v]) for v in range(_N)}
    alive = set(degrees)
    queue = deque(v for v, d in degrees.items() if d < floor)
    while queue:
        v = queue.popleft()
        if v not in alive:
            continue
        alive.discard(v)
        for u in _ADJ[v]:
            if u in alive:
                degrees[u] -= 1
                if degrees[u] < floor:
                    queue.append(u)
    return len(alive)


def _masks():
    total = 0
    for a in _MASKS:
        for b in _MASKS:
            total += (a & b).bit_count()
    return total


def reference() -> int:
    """The fixed work; returns a checksum so none of it is skipped."""
    total = 0
    for a in _POSTINGS:
        for b in _POSTINGS:
            total += len(_merge(a, b))
    return total + _peel(9) + _masks()


def reference_s() -> float:
    """Seconds one reference() takes now."""
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0
