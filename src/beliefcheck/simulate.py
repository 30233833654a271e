"""Finite-panel simulation of a model's objective signal process.

Each agent draws a signal cell from the objective distribution, updates by
Bayes to the cell's induced posterior, and the empirical distribution of
posteriors is compared to the model-implied one. Draws are keyed by
(seed, agent index) through a keyed hash, so the panel is bit-identical
regardless of how the agent range is split across workers.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .dist import Number, WeightedPosteriors, group_beliefs
from .errors import StructuralError
from .rationalize import Model, reachable_cells

_SCALE = 1 << 64


def _agent_bits(seed: int, index: int) -> int:
    """64 uniform bits for one agent, as a pure function of (seed, index)."""
    digest = hashlib.blake2b(
        index.to_bytes(8, "big"),
        digest_size=8,
        key=seed.to_bytes(8, "big"),
    ).digest()
    return int.from_bytes(digest, "big")


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
    models are sampled without float-boundary bias. Raises
    UndefinedUpdateError when an objectively reachable signal has zero
    subjective probability, and StructuralError unless 0 <= seed < 2^64.
    """
    if n_agents <= 0:
        raise StructuralError("n_agents must be positive")
    if not 0 <= seed < _SCALE:
        raise StructuralError("seed must lie in [0, 2^64), got %d" % seed)

    cells = reachable_cells(model)
    labels = [c.label for c in cells]
    # Cells that induce the same posterior share an index into the support.
    support, cell_post_index = group_beliefs([c.posterior for c in cells])

    # bits/2^64 < p/q  <=>  bits*q < p*2^64  <=>  bits < ceil(p*2^64/q) for
    # integer bits, so the first cell whose threshold exceeds bits is drawn.
    thresholds, running = [], Fraction(0)
    for c in cells:
        running += Fraction(c.obj_mass)
        thresholds.append(math.ceil(running * _SCALE))
    thresholds[-1] = _SCALE  # guard against float rounding in the total

    def draw_range(lo: int, hi: int) -> list:
        return [
            bisect_right(thresholds, _agent_bits(seed, i))
            for i in range(lo, hi)
        ]

    if workers <= 1:
        chosen = draw_range(0, n_agents)
    else:
        step = -(-n_agents // workers)
        ranges = [
            (lo, min(lo + step, n_agents))
            for lo in range(0, n_agents, step)
        ]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(lambda r: draw_range(*r), ranges)
        chosen = [c for part in parts for c in part]

    counts = [0] * len(support)
    draws = []
    for j in chosen:
        idx = cell_post_index[j]
        counts[idx] += 1
        draws.append((labels[j], idx))
    empirical = WeightedPosteriors(
        tuple(
            (Fraction(count, n_agents), post)
            for count, post in zip(counts, support)
            if count > 0
        )
    )
    return PanelSample(n_agents, seed, tuple(draws), empirical)


def tv_distance(p: WeightedPosteriors, q: WeightedPosteriors) -> Number:
    """Total variation distance between two posterior distributions: half
    the L1 distance over the union of supports, with posteriors identified
    by `group_beliefs`."""
    if p.space != q.space:
        raise StructuralError(
            "posterior distributions must share an outcome space"
        )
    reps, groups = group_beliefs(p.beliefs + q.beliefs)
    diff = [Fraction(0) if p.is_exact and q.is_exact else 0.0] * len(reps)
    for w, g in zip(p.weights + tuple(-w for w in q.weights), groups):
        diff[g] += w
    return sum(abs(d) for d in diff) / 2
