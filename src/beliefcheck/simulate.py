"""Finite-panel simulation of a model's objective signal process.

Each agent draws a signal cell from the objective distribution, updates by
Bayes to the cell's induced posterior, and the empirical distribution of
posteriors is compared to the model-implied one. Draws are keyed by
(seed, agent index) through a keyed hash, so the panel is bit-identical
regardless of how the agent range is split across workers.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .dist import Dist, Number, WeightedPosteriors, is_exact
from .errors import StructuralError
from .rationalize import Model, reachable_cells

_MASK64 = (1 << 64) - 1
_SCALE = 1 << 64


def _agent_bits(seed: int, index: int) -> int:
    """64 uniform bits for one agent, as a pure function of (seed, index)."""
    digest = hashlib.blake2b(
        index.to_bytes(8, "big"),
        digest_size=8,
        key=(seed & _MASK64).to_bytes(8, "big"),
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
    subjective probability.
    """
    if n_agents <= 0:
        raise StructuralError("n_agents must be positive")

    cells = reachable_cells(model)
    labels = [c.label for c in cells]
    masses = [c.obj_mass for c in cells]

    # Distinct induced posteriors, in first-appearance order; cells that
    # induce the same posterior share an index.
    support: list[Dist] = []
    cell_post_index = []
    for post in (c.posterior for c in cells):
        for i, seen in enumerate(support):
            if seen.matches(post):
                cell_post_index.append(i)
                break
        else:
            support.append(post)
            cell_post_index.append(len(support) - 1)

    # bits/2^64 < p/q  <=>  bits*q < p*2^64; precompute the right side.
    cums = []
    running = Fraction(0)
    for m in masses:
        running += Fraction(m)
        cums.append(running)
    cums[-1] = Fraction(1)  # guard against float rounding in the total
    thresholds = [(c.numerator * _SCALE, c.denominator) for c in cums]

    def classify(bits: int) -> int:
        for j, (num, den) in enumerate(thresholds):
            if bits * den < num:
                return j
        return len(thresholds) - 1

    def draw_range(lo: int, hi: int) -> list:
        return [classify(_agent_bits(seed, i)) for i in range(lo, hi)]

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
    the L1 distance over the union of supports, matching posteriors by
    coordinate-wise equality."""
    if p.space != q.space:
        raise StructuralError(
            "posterior distributions must share an outcome space"
        )
    matched_q = [False] * len(q)
    total = Fraction(0) if p.is_exact and q.is_exact else 0.0
    for wp, belief in p.items:
        wq = Fraction(0) if is_exact(wp) else 0.0
        for i, (w, other) in enumerate(q.items):
            if not matched_q[i] and other.matches(belief):
                wq = w
                matched_q[i] = True
                break
        total += abs(wp - wq)
    for i, (w, _) in enumerate(q.items):
        if not matched_q[i]:
            total += w
    return total / 2
