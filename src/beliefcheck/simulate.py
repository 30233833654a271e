"""Finite-panel simulation of a model's objective signal process.

Each agent draws a signal cell from the objective distribution, updates by
Bayes to the cell's induced posterior, and the empirical distribution of
posteriors is compared to the model-implied one.

Agent i's 64 uniform bits are the big-endian word i mod 8 of the keyed
digest ``blake2b((i // 8).to_bytes(8, "big"), digest_size=64,
key=seed.to_bytes(8, "big"))``, so they depend only on (seed, i) and any
split of the agent range gives the same panel. One digest serves a block
of eight agents. This stream replaced a per-agent 8-byte digest once, so a
given seed draws a different panel than it did before that change.
`workers` splits the agent range into contiguous ranges drawn one after
another in the calling thread; it starts no threads.
"""

from __future__ import annotations

import hashlib
import math
import sys
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain
from operator import methodcaller

from .dist import WeightedPosteriors, group_beliefs
from .errors import StructuralError
from .rationalize import Model, reachable_cells

_SCALE = 1 << 64
_BLOCK = 8  # agents per digest: 64 digest bytes hold eight 64-bit words

#: Largest panel `simulate_panel` draws. A panel holds about 32 bytes per
#: agent (its chosen cell and its draw), so this caps it near 320 MB.
MAX_AGENTS = 10**7


def _agent_bits(seed: int, lo: int, hi: int) -> array:
    """64 uniform bits for each agent in [lo, hi), as a pure function of
    (seed, agent index)."""
    first = lo // _BLOCK
    blocks = map(
        methodcaller("to_bytes", 8, "big"), range(first, -(-hi // _BLOCK))
    )
    keyed = partial(
        hashlib.blake2b, digest_size=64, key=seed.to_bytes(8, "big")
    )
    digests = map(methodcaller("digest"), map(keyed, blocks))
    words = array("Q", b"".join(digests))
    if sys.byteorder == "little":
        words.byteswap()
    offset = first * _BLOCK
    return words[lo - offset : hi - offset]


@dataclass(frozen=True)
class PanelSample:
    """A simulated panel: per-agent draws and the empirical posterior
    distribution (weights are counts over n_agents, hence exact)."""

    n_agents: int
    seed: int
    draws: tuple  # of (signal cell label, posterior index)
    empirical: WeightedPosteriors


def simulate_panel(
    model: Model, n_agents: int, seed: int, workers: int = 1
) -> PanelSample:
    """Draw an i.i.d. panel of agents from the model's objective signal
    distribution and record each agent's Bayes posterior.

    Cell selection compares the agent's 64 uniform bits, read as an exact
    rational in [0, 1), against exact cumulative cell weights, so exact-mode
    models are sampled without float-boundary bias. The agent range is
    drawn as `workers` contiguous ranges, one after another; every split
    gives the same panel. Raises UndefinedUpdateError when an objectively
    reachable signal has zero subjective probability, and StructuralError
    unless 0 < n_agents <= MAX_AGENTS (10^7), 0 <= seed < 2^64 and
    workers >= 1.
    """
    if n_agents <= 0:
        raise StructuralError("n_agents must be positive")
    if n_agents > MAX_AGENTS:
        raise StructuralError(
            "n_agents must be at most %d, got %d" % (MAX_AGENTS, n_agents)
        )
    if not 0 <= seed < _SCALE:
        raise StructuralError("seed must lie in [0, 2^64), got %d" % seed)
    if workers < 1:
        raise StructuralError("workers must be at least 1, got %d" % workers)

    cells = reachable_cells(model)
    # Cells that induce the same posterior share an index into the support.
    support, cell_post_index = group_beliefs([c.posterior for c in cells])
    pairs = [(c.label, idx) for c, idx in zip(cells, cell_post_index)]

    # bits/2^64 < p/q  <=>  bits*q < p*2^64  <=>  bits < ceil(p*2^64/q) for
    # integer bits, so the first cell whose threshold exceeds bits is drawn.
    # The reached masses sum to exactly 1: the last threshold is 2^64.
    thresholds, running = [], Fraction(0)
    for c in cells:
        running += c.obj_mass
        thresholds.append(math.ceil(running * _SCALE))

    step = -(-n_agents // workers)
    bits = chain.from_iterable(
        _agent_bits(seed, lo, min(lo + step, n_agents))
        for lo in range(0, n_agents, step)
    )
    chosen = list(map(partial(bisect_right, thresholds), bits))

    counts = [0] * len(support)
    for j, count in Counter(chosen).items():
        counts[cell_post_index[j]] += count
    empirical = WeightedPosteriors(
        tuple(
            (Fraction(count, n_agents), post)
            for count, post in zip(counts, support)
            if count > 0
        )
    )
    draws = tuple(map(pairs.__getitem__, chosen))
    return PanelSample(n_agents, seed, draws, empirical)


def tv_distance(p: WeightedPosteriors, q: WeightedPosteriors) -> Fraction:
    """Total variation distance between two posterior distributions: half
    the L1 distance over the union of supports, with posteriors identified
    by `group_beliefs` within the larger of the two tolerances."""
    if p.space != q.space:
        raise StructuralError(
            "posterior distributions must share an outcome space"
        )
    reps, groups = group_beliefs(p.beliefs + q.beliefs, max(p.tol, q.tol))
    diff = [Fraction(0)] * len(reps)
    for w, g in zip(p.weights + tuple(-w for w in q.weights), groups):
        diff[g] += w
    return sum(map(abs, diff)) / 2
