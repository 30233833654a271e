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
another in the calling thread; it starts no threads. A panel keeps each
agent's chosen cell as one 4-byte array entry; its `draws` are read
through that array.
"""

from __future__ import annotations

import hashlib
import sys
from array import array
from bisect import bisect_right
from collections import Counter
from collections.abc import Sequence
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

#: Largest panel `simulate_panel` draws. Drawing takes about 32 bytes per
#: agent at its peak (the digests, each agent's 64 bits and its chosen
#: cell), so this caps it near 320 MB; the panel keeps 4 bytes per agent.
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


class Draws(Sequence):
    """The agents' draws, (signal cell label, posterior index) per agent,
    read from the index of each agent's chosen cell. A read-only sequence
    equal to the tuple of its items."""

    __slots__ = ("_pairs", "_chosen")

    def __init__(self, pairs: list, chosen: array):
        self._pairs, self._chosen = pairs, chosen

    def __len__(self) -> int:
        return len(self._chosen)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._pairs.__getitem__, self._chosen[i]))
        return self._pairs[self._chosen[i]]

    def __iter__(self):
        return map(self._pairs.__getitem__, self._chosen)

    def __eq__(self, other) -> bool:
        if isinstance(other, Draws) and self._pairs == other._pairs:
            return self._chosen == other._chosen
        if isinstance(other, (Draws, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return "Draws(%r)" % (tuple(self),)


@dataclass(frozen=True)
class PanelSample:
    """A simulated panel: per-agent draws and the empirical posterior
    distribution (weights are counts over n_agents, hence exact)."""

    n_agents: int
    seed: int
    draws: Draws  # of (signal cell label, posterior index)
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
    thresholds, running, den = [], 0, model.pObj.den
    for c in cells:
        running += c.obj_parts.total
        thresholds.append(-(-running * _SCALE // den))

    step = -(-n_agents // workers)
    bits = chain.from_iterable(
        _agent_bits(seed, lo, min(lo + step, n_agents))
        for lo in range(0, n_agents, step)
    )
    chosen = array("I", map(partial(bisect_right, thresholds), bits))

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
    return PanelSample(n_agents, seed, Draws(pairs, chosen), empirical)


def tv_distance(p: WeightedPosteriors, q: WeightedPosteriors) -> Fraction:
    """Total variation distance between two posterior distributions: half
    the L1 distance over the union of supports, with posteriors identified
    by `group_beliefs` within the larger of the two tolerances."""
    if p.space != q.space:
        raise StructuralError(
            "posterior distributions must share an outcome space"
        )
    reps, groups = group_beliefs(p.beliefs + q.beliefs, max(p.tol, q.tol))
    # Both weight vectors over the product of their denominators.
    diff = [0] * len(reps)
    weights = [w * q.den for w in p.nums] + [-w * p.den for w in q.nums]
    for w, g in zip(weights, groups):
        diff[g] += w
    return Fraction(sum(map(abs, diff)), 2 * p.den * q.den)
