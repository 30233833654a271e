"""Rationalizability when the full state space is known and observed.

In the experimentally-controlled regime the state space coincides with the
payoff-relevant states and the projection is the identity, so the subjective
prior is pinned down by the observed prior. Rationalizability then reduces
to two sharp conditions on the observed posteriors: pairwise disjoint
supports, and each posterior equal to the prior conditioned on its own
support. A brute-force oracle that enumerates every signal partition of the
state space provides an independent check.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence
from fractions import Fraction
from math import lcm

from .dist import Dist, Observation, _dist, _same, condition
from .errors import (
    NotRationalizableError,
    PreconditionError,
    ResourceBoundError,
)
from .rationalize import Model, mix_label

#: Bell-number growth makes exhaustive partition enumeration infeasible
#: beyond this many states.
MAX_BRUTE_FORCE_STATES = 10

RESIDUAL_CELL = "rest"


def set_partitions(items: Sequence) -> Iterator[list]:
    """Yield every set partition of `items` as a list of blocks.

    Partitions are enumerated by their restricted growth strings in
    lexicographic order, so each partition appears exactly once and the
    first partition is the single-block one.
    """
    items = list(items)
    n = len(items)
    if n == 0:
        yield []
        return
    a = [0] * n
    # m[i] = max(a[:i]), updated as a[i] changes (Knuth, TAOCP 4A,
    # 7.2.1.5, Algorithm H).
    m = [0] * n
    while True:
        blocks = [[] for _ in range(max(m[-1], a[-1]) + 1)]
        for i, b in enumerate(a):
            blocks[b].append(items[i])
        yield blocks
        # Advance the restricted growth string: a[i] may be incremented
        # when it does not exceed the running maximum of the prefix.
        for i in range(n - 1, 0, -1):
            if a[i] <= m[i]:
                a[i] += 1
                top = max(m[i], a[i])
                for j in range(i + 1, n):
                    a[j] = 0
                    m[j] = top
                break
        else:
            return


def _require_full_support(prior: Dist) -> None:
    dead = [s for s, n in zip(prior.space, prior.nums) if not n]
    if dead:
        raise PreconditionError(
            "the known-state-space test requires a full-support prior; "
            "outcomes with zero prior weight: %s"
            % ", ".join(repr(s) for s in dead)
        )


class Prop1Report(
    namedtuple(
        "Prop1Report",
        "condition_i overlapping_pairs condition_ii deviations",
    )
):
    """Outcome of the two known-state-space rationalizability conditions.

    `overlapping_pairs` lists at most one conflict per posterior j, as
    (i, j, (s,)): s is the first state of j's support that an earlier
    posterior charges, and i the first posterior charging s. `deviations`
    carries, per posterior, the worst coordinate gap between the posterior
    and the prior conditioned on the posterior's support.
    """

    __slots__ = ()

    @property
    def rationalizable(self) -> bool:
        return self.condition_i and self.condition_ii


def check_proposition1(obs: Observation) -> Prop1Report:
    """Decide rationalizability in the known-state-space regime.

    Condition (i): the observed posteriors have pairwise disjoint supports,
    decided in one pass over a map from each state to the first posterior
    charging it. Condition (ii): each posterior equals the prior conditioned
    on its support. Requires a full-support prior. Time and output are
    O(k * n) for k posteriors over n states.
    """
    _require_full_support(obs.prior)
    beliefs = obs.posteriors.beliefs
    supports = [b.support() for b in beliefs]

    owner = {}  # state -> first posterior that charges it
    overlaps = []
    for j, supp in enumerate(supports):
        shared = next((s for s in supp if s in owner), None)
        if shared is not None:
            overlaps.append((owner[shared], j, (shared,)))
        for s in supp:
            owner.setdefault(s, j)

    deviations = []
    condition_ii = True
    for belief, supp in zip(beliefs, supports):
        expected = condition(obs.prior, supp)
        db, de = belief.den, expected.den
        worst = max(
            abs(b * de - e * db) for b, e in zip(belief.nums, expected.nums)
        )
        deviation = Fraction(worst, db * de)
        deviations.append(deviation)
        condition_ii = condition_ii and deviation <= obs.tol

    return Prop1Report(
        condition_i=not overlaps,
        overlapping_pairs=tuple(overlaps),
        condition_ii=condition_ii,
        deviations=tuple(deviations),
    )


def construct_known_omega_model(obs: Observation) -> Model:
    """Build the witness model for a rationalizable known-state-space
    observation: identity projection, the subjective prior equal to the
    observed prior, signal cells equal to the posterior supports (plus a
    residual cell when they do not exhaust the states), and an objective
    distribution spreading each posterior's weight uniformly over its cell.
    """
    report = check_proposition1(obs)
    if not report.rationalizable:
        raise NotRationalizableError(
            "observation fails the known-state-space conditions: "
            "support overlaps %s, condition (ii) %s"
            % (report.overlapping_pairs, report.condition_ii)
        )
    states = obs.space
    posteriors = obs.posteriors
    cells = [belief.support() for belief in posteriors.beliefs]
    partition = {mix_label(k): cell for k, cell in enumerate(cells)}
    # Only the cell totals are pinned down; spread uniformly within: a
    # state of cell k gets W[k] / (Dw * |cell k|), over Dw * lcm(|cells|).
    scale = lcm(*map(len, cells))
    obj = {}
    for cell, w in zip(cells, posteriors.nums):
        for s in cell:
            obj[s] = w * (scale // len(cell))
    residual = tuple(s for s in states if s not in obj)
    if residual:
        partition[RESIDUAL_CELL] = residual
    return Model(
        states=states,
        omega=states,
        projection={s: s for s in states},
        signal_partition=partition,
        mu0=obs.prior,
        pObj=_dist(
            states,
            [obj.get(s, 0) for s in states],
            posteriors.den * scale,
            obs.tol,
            obs.prior._index,
        ),
        lambda_mix=None,
    )


def brute_force_known_omega(obs: Observation) -> bool:
    """Exhaustive oracle for known-state-space rationalizability.

    Enumerates every signal partition of the states and asks whether some
    partition, together with a weight assignment over its cells, reproduces
    the observed posterior distribution: each observed posterior must equal
    the prior conditioned on a distinct cell, with the cell receiving that
    posterior's weight; any remaining cells stay objectively unreachable.
    """
    _require_full_support(obs.prior)
    if len(obs.space) > MAX_BRUTE_FORCE_STATES:
        raise ResourceBoundError(
            "brute force is limited to %d states, got %d"
            % (MAX_BRUTE_FORCE_STATES, len(obs.space))
        )
    beliefs = obs.posteriors.beliefs
    supports = [frozenset(belief.support()) for belief in beliefs]
    conditioned = {}  # cell -> the prior conditioned on it
    for blocks in set_partitions(obs.space):
        cells = [frozenset(b) for b in blocks]
        used = [False] * len(cells)
        for belief, supp in zip(beliefs, supports):
            hit = None
            for i, cell in enumerate(cells):
                if used[i] or cell != supp:
                    continue
                if cell not in conditioned:
                    conditioned[cell] = condition(obs.prior, cell)
                if _same(belief, conditioned[cell], obs.tol):
                    hit = i
                break
            if hit is None:
                break
            used[hit] = True
        else:
            return True
    return False
