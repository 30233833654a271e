"""Screening an observation for rationalizability and constructing an
explicit probabilistic model that reproduces it.

The construction enlarges the state space to one copy of the payoff-relevant
states per observed posterior and per sign tag: a "+" signal after which the
agent holds that posterior, and a "-" phantom signal that carries positive
subjective but zero objective probability. The phantom signals are exactly
what lets every observed posterior drift one way while the agent's own belief
sequence remains a martingale.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .dist import (
    Dist,
    Observation,
    RnEntry,
    RnReport,
    WeightedPosteriors,
    _close,
    _dist,
    _index_of,
    _same,
    group_beliefs,
    rn_derivative,
)
from .errors import (
    AbsoluteContinuityViolation,
    InvalidMixError,
    StructuralError,
    UndefinedUpdateError,
)

PLUS = "+"
MINUS = "-"

# An outcome's label from its state's and its signal's labels.
_OMEGA_LABEL = "%s|%s"


def mix_label(k: int) -> str:
    """Label of the k-th observed posterior in the mixing distribution."""
    return "nu%d" % k


def signal_label(k: int, sign: str) -> str:
    return mix_label(k) + sign


def omega_label(s, k: int, sign: str) -> str:
    """Fixed labeling scheme for the enlarged state space: it depends only
    on the payoff-relevant label, the posterior index, and the sign tag."""
    return _OMEGA_LABEL % (s, signal_label(k, sign))


@dataclass(frozen=True)
class Model:
    """A candidate probabilistic model of the world.

    Holds the enlarged outcome space, the projection onto the
    payoff-relevant states, the signal partition (generators of the agent's
    period-1 information), the agent's subjective prior `mu0`, and the
    objective distribution `pObj`. `lambda_mix` records the mixing
    distribution used by the construction, when there was one. `tol` is
    TOL for float-origin data, else 0 (by default, `mu0`'s or `pObj`'s).

    The constructor is the only way to build a Model, and every model
    passes its checks: mu0 and pObj live on omega, the partition's cells
    are non-empty, disjoint and cover omega, the projection sends omega
    into the states, and the states are distinct non-empty labels.
    `states` and `omega` are stored as tuples, and so is a cell given as a
    list or a set, in omega order, so that a model equals its file's. The
    checks are whole-column set operations, O(|omega| + cells) of them;
    only a failed one scans omega, to name the first bad outcome.
    """

    states: tuple
    omega: tuple
    projection: dict
    signal_partition: dict
    mu0: Dist
    pObj: Dist
    lambda_mix: Optional[Dist] = None
    tol: Optional[Fraction] = None

    def __post_init__(self):
        omega, states = tuple(self.omega), tuple(self.states)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "states", states)
        if self.tol is None:
            object.__setattr__(self, "tol", max(self.mu0.tol, self.pObj.tol))
        if self.mu0.space != omega or self.pObj.space != omega:
            raise StructuralError(
                "mu0 and pObj must be distributions over the model's omega"
            )
        cells = self.signal_partition.values()
        if not all(cells):
            raise StructuralError("signal partition cells must be non-empty")
        covered = set().union(*cells)
        if len(covered) != sum(map(len, cells)):
            raise StructuralError("signal partition cells must be disjoint")
        # mu0's label index holds omega's labels, checked distinct.
        if covered != self.mu0._index.keys():
            raise StructuralError("signal partition must cover omega")
        _index_of(states)  # distinct, non-empty labels, as a Dist's space
        # The states hold no None, so an outcome missing from the
        # projection fails this check too.
        projection, declared = self.projection, set(states)
        if not declared.issuperset(map(projection.get, omega)):
            for w in omega:  # name the first bad outcome
                if w not in projection:
                    raise StructuralError("projection undefined at %r" % (w,))
                if projection[w] not in declared:
                    raise StructuralError(
                        "projection sends %r outside the declared states"
                        % (w,)
                    )
        if not all(isinstance(cell, tuple) for cell in cells):
            at, partition = self.mu0._index, dict(self.signal_partition)
            for label, cell in partition.items():
                if not isinstance(cell, tuple):  # a list or a set
                    partition[label] = tuple(sorted(cell, key=at.__getitem__))
            object.__setattr__(self, "signal_partition", partition)


def check_condition1(obs: Observation) -> RnReport:
    """Screen every observed posterior for absolute continuity with respect
    to the prior. Violations are recorded in the report, not raised."""
    entries = []
    for k, (_, belief) in enumerate(obs.posteriors.items):
        try:
            entries.append(RnEntry(k, rn_derivative(obs.prior, belief)))
        except AbsoluteContinuityViolation as err:
            entries.append(RnEntry(k, None, err.outcomes))
    return RnReport(tuple(entries), all(e.ok for e in entries))


def _mix_space(k: int) -> tuple:
    return tuple(mix_label(i) for i in range(k))


def uniform_mix(obs: Observation) -> Dist:
    """Uniform mixing distribution over the observed posteriors."""
    k = len(obs.posteriors)
    return _dist(_mix_space(k), (1,) * k, k)


def target_mix(obs: Observation) -> Dist:
    """Mixing distribution equal to the observed posterior weights."""
    k = len(obs.posteriors)
    return _dist(_mix_space(k), obs.posteriors.nums, obs.posteriors.den)


def construct_rationalization(
    obs: Observation, lambda_mix: Optional[Dist] = None
) -> Model:
    """Build a model under which Bayesian agents reproduce the observation.

    For each observed posterior `nu` with likelihood ratio bound 1/eps, the
    subjective prior splits the posterior's mixing weight between a "+"
    signal (probability eps, after which Bayes gives exactly `nu`) and a "-"
    phantom signal carrying the complementary belief that restores the
    martingale property. The objective distribution charges only the "+"
    signals, with the observed posterior frequencies, and its projection
    onto the payoff-relevant states equals the observed prior.

    In integers: with prior P/Dp, belief B/Db, lambda_i = L/Dl and s* an
    argmax of B/P, eps = P[s*] Db / (B[s*] Dp), the "+" row is
    B * P[s*] * L and the "-" row (P * B[s*] - P[s*] * B) * L, both over
    B[s*] * Dp * Dl; the "+" rows of pObj are P * W[i] over Dp * Dw.

    Takes O(k n) time and memory for k posteriors over n states, besides
    the screen: 2k signal labels, one label per (signal, state) outcome
    of omega, one slice of omega per cell, and Model's checks, O(k n) set
    operations. The integers are those of the rows above: a common
    denominator grows with the lcm of the k B[s*], so up to about k times
    a belief's denominator in bits.

    Raises AbsoluteContinuityViolation if the screen fails, and
    InvalidMixError if `lambda_mix` does not give every observed posterior
    positive weight.
    """
    report = check_condition1(obs)
    if not report.overall_pass:
        raise AbsoluteContinuityViolation(
            report.violations(),
            "observation fails the absolute-continuity screen at outcomes: %s"
            % ", ".join(repr(s) for s in report.violations()),
        )
    k = len(obs.posteriors)
    mix_space = _mix_space(k)
    if lambda_mix is None:
        lambda_mix = uniform_mix(obs)
    if tuple(lambda_mix.space) != mix_space:
        raise InvalidMixError(
            "mixing distribution must be indexed by %s" % (mix_space,)
        )
    if not all(lambda_mix.nums):
        raise InvalidMixError(
            "mixing distribution must give every posterior positive weight"
        )

    states = obs.space
    prior = obs.prior.nums
    beliefs = obs.posteriors.beliefs
    stars = [e.derivative.argmax for e in report.entries]
    # Row i's denominator is B[s*] * Dp * Dl: over their lcm, row i is
    # scaled by lcm / B[s*].
    tops = [b.nums[s] for b, s in zip(beliefs, stars)]
    top = lcm(*tops)
    plus, minus = [], []
    for belief, s, b_top, lam in zip(beliefs, stars, tops, lambda_mix.nums):
        scale = lam * (top // b_top)
        c_plus = prior[s] * scale  # P[s*] * L, scaled
        c_minus = b_top * scale  # B[s*] * L, scaled
        plus.extend([b * c_plus for b in belief.nums])
        # P * B[s*] - P[s*] * B is nonnegative: s* maximises B / P.
        minus.extend(
            [p * c_minus - b * c_plus for p, b in zip(prior, belief.nums)]
        )
    p_obj = [p * w for w in obs.posteriors.nums for p in prior]

    # Omega is one run of outcomes per signal, one outcome per state in
    # state order, each labeled as omega_label labels it: each state's
    # part of the label is formatted once.
    n = len(states)
    signals = [
        signal_label(i, sign) for sign in (PLUS, MINUS) for i in range(k)
    ]
    heads = [_OMEGA_LABEL % (s, "") for s in states]
    omega = tuple([head + signal for signal in signals for head in heads])
    index = dict(zip(omega, range(len(omega))))
    return Model(
        states=states,
        omega=omega,
        projection=dict(zip(omega, states * len(signals))),
        signal_partition={
            signal: omega[j * n : (j + 1) * n]
            for j, signal in enumerate(signals)
        },
        mu0=_dist(
            omega, plus + minus, top * obs.prior.den * lambda_mix.den, 0, index
        ),
        pObj=_dist(
            omega,
            p_obj + [0] * len(minus),
            obs.prior.den * obs.posteriors.den,
            0,
            index,
        ),
        lambda_mix=lambda_mix,
        tol=obs.tol,
    )


#: One signal cell's row over the states: integer numerators `acc` over
#: `den`, and their sum `total`.
Row = namedtuple("Row", "acc total den")


@dataclass(frozen=True, slots=True)
class CellDiagnostic:
    """One signal cell of the model: its mu0 and pObj rows over the
    payoff-relevant states, as `Row`s of integer numerators over the
    model's mu0 and pObj denominators with their totals, and its Bayes
    posterior."""

    label: str
    posterior: Optional[Dist]  # None when the cell has zero mu0 mass
    mu_parts: Row
    obj_parts: Row


def cell_table(model: Model) -> list:
    """The model's signal cell x state mass tables of mu0 and pObj, one
    CellDiagnostic per cell in partition order: each `Row` sums the
    cell's outcomes' integer numerators per state, over mu0's or pObj's
    one denominator, and holds their total, the cell's mass over it.

    Takes O(|omega| + cells * n) time and memory for n states: each cell
    sums its own outcomes, found by their positions in mu0, into rows of
    n integers no longer than the numerators' sums.

    Everything observable about the model's signals derives from these
    rows: a cell's Bayes posterior is its mu0 row over the row's total.
    """
    states = model.states
    col = _index_of(states)
    n = len(col)
    at, projection = model.mu0._index, model.projection
    mu_nums, obj_nums = model.mu0.nums, model.pObj.nums
    mu_den, obj_den = model.mu0.den, model.pObj.den
    table = []
    for label, cell in model.signal_partition.items():
        mu_acc, obj_acc = [0] * n, [0] * n
        for w in cell:
            i, j = at[w], col[projection[w]]
            mu_acc[j] += mu_nums[i]
            obj_acc[j] += obj_nums[i]
        total = sum(mu_acc)  # zero exactly when the cell's mu0 mass is
        posterior = _dist(states, mu_acc, total, 0, col) if total else None
        table.append(
            CellDiagnostic(
                label,
                posterior,
                Row(tuple(mu_acc), total, mu_den),
                Row(tuple(obj_acc), sum(obj_acc), obj_den),
            )
        )
    return table


def _projected(rows: list, states: tuple) -> Dist:
    """The distribution over the states whose numerators, over the rows'
    one denominator, are the column sums of the cell rows `rows`: the
    pushforward of mu0 or pObj onto the states, as `pushforward` builds it
    (reduced, tol 0)."""
    sums = list(map(sum, zip(*(r.acc for r in rows))))
    return _dist(states, sums, rows[0].den)


def reachable_cells(model: Model) -> list:
    """The cells of positive objective mass. Raises UndefinedUpdateError if
    one of them has zero subjective probability."""
    return _reached(cell_table(model))


def _reached(cells: list) -> list:
    """reachable_cells among the cells `cells` of a cell table."""
    reached = [c for c in cells if c.obj_parts.total]
    for c in reached:
        if c.posterior is None:
            raise UndefinedUpdateError(
                "signal %r is objectively reachable but has zero "
                "subjective probability" % c.label
            )
    return reached


@dataclass(frozen=True)
class VerifyReport:
    """Independent check that a model reproduces an observation.

    Every boolean is recomputed from the model and the observation alone.
    `prior_matches`, `posteriors_match`, `posterior_distribution_matches`,
    and `subjective_martingale_holds` together are the consistency
    requirement; `objective_agrees_with_prior` is the stronger condition
    that the objective distribution also projects onto the observed prior.
    `subjective_martingale_holds` always equals `prior_matches`: by Bayes'
    law the mu0-weighted mean of the cell posteriors is mu0's projection
    onto the states, so it is reported for the record, not as an
    independent check.
    """

    prior_matches: bool
    posteriors_match: bool
    posterior_distribution_matches: bool
    objective_agrees_with_prior: bool
    subjective_martingale_holds: bool
    details: dict = field(default_factory=dict)

    @property
    def consistent(self) -> bool:
        return (
            self.prior_matches
            and self.posteriors_match
            and self.posterior_distribution_matches
            and self.subjective_martingale_holds
        )

    @property
    def all_pass(self) -> bool:
        return self.consistent and self.objective_agrees_with_prior

    def as_dict(self) -> dict:
        return {
            "prior_matches": self.prior_matches,
            "posteriors_match": self.posteriors_match,
            "posterior_distribution_matches": (
                self.posterior_distribution_matches
            ),
            "objective_agrees_with_prior": self.objective_agrees_with_prior,
            "subjective_martingale_holds": self.subjective_martingale_holds,
            "consistent": self.consistent,
            "all_pass": self.all_pass,
        }


def verify_model(model: Model, obs: Observation) -> VerifyReport:
    """Check, from scratch, whether the model reproduces the observation.

    (a) the subjective prior projects onto the observed prior; (b) every
    objectively reachable signal has a well-defined Bayes posterior lying in
    the observed support; (c) aggregating objective signal probabilities by
    induced posterior recovers the observed posterior distribution; (d) the
    objective distribution also projects onto the observed prior; (e) the
    signal-weighted average of posteriors under the subjective prior equals
    the observed prior (the martingale identity). By Bayes' law a cell's
    mu0 mass times its posterior is its mu0 row, so that average is the
    induced prior of (a), and (e) equals (a). Comparisons are made within
    the larger of the model's and the observation's tolerance.

    Takes O(|omega| + (k + cells) * n) time and memory for k observed
    posteriors over n states: the cell table (see cell_table), one
    grouping of the k observed beliefs with the reached cells' posteriors
    (one dict pass for exact data; see group_beliefs under a tolerance),
    and the two induced priors as column sums of the cell rows, on
    integers no larger than mu0's and pObj's denominators.
    """
    if model.states != obs.space:
        raise StructuralError(
            "model and observation disagree on the payoff-relevant states"
        )
    tol = max(model.tol, obs.tol)
    cells = cell_table(model)

    induced_prior = _projected([c.mu_parts for c in cells], obs.space)
    prior_matches = _same(induced_prior, obs.prior, tol)

    # An objectively reachable cell with zero subjective probability has no
    # Bayes update (posterior None); that fails (b) and (c).
    reached = [c for c in cells if c.obj_parts.total]
    live = [c for c in reached if c.posterior is not None]
    observed = obs.posteriors
    # A cell posterior joins an observed belief's group or opens a new one;
    # under the model's tolerance, observed beliefs may share a group.
    _, groups = group_beliefs(
        list(observed.beliefs) + [c.posterior for c in live], tol
    )
    wanted = {}  # observed group -> summed observed weight, over its den
    for w, g in zip(observed.nums, groups):
        wanted[g] = wanted.get(g, 0) + w
    induced = {}  # group -> [first cell posterior, summed pObj numerators]
    for c, g in zip(live, groups[len(observed):]):
        induced.setdefault(g, [c.posterior, 0])[1] += c.obj_parts.total
    posteriors_match = len(live) == len(reached) and all(
        g in wanted for g in induced
    )
    obj_den = model.pObj.den
    distribution_matches = posteriors_match and all(
        g in induced
        and _close((induced[g][1],), obj_den, (w,), observed.den, tol)
        for g, w in wanted.items()
    )

    objective_prior = _projected([c.obj_parts for c in cells], obs.space)
    objective_agrees = _same(objective_prior, obs.prior, tol)

    return VerifyReport(
        prior_matches=prior_matches,
        posteriors_match=posteriors_match,
        posterior_distribution_matches=distribution_matches,
        objective_agrees_with_prior=objective_agrees,
        subjective_martingale_holds=prior_matches,
        details={
            "induced_prior": induced_prior,
            "objective_prior": objective_prior,
            "cells": cells,
            "induced_distribution": [
                (post, Fraction(mass, obj_den))
                for post, mass in induced.values()
            ],
            # (e)'s mean: the induced prior, by Bayes' law (see above)
            "mean_posterior": induced_prior.weights,
        },
    )


def induced_observables(model: Model):
    """The observables the model generates: its induced prior over the
    payoff-relevant states and the objective distribution of Bayes
    posteriors. Raises UndefinedUpdateError if an objectively reachable
    signal has zero subjective probability.

    Takes O(|omega| + cells * n) time and memory for n states: the cell
    table (see cell_table), then the prior and one posterior of n weights
    per cell from its rows."""
    cells = cell_table(model)
    prior = _projected([c.mu_parts for c in cells], model.states)
    return prior, _implied_posteriors(_reached(cells))


def _implied_posteriors(cells: list) -> WeightedPosteriors:
    """The objective distribution of Bayes posteriors over the given
    reachable cells, weighted by their pObj masses in lowest terms."""
    ratios = []
    for c in cells:
        total, den = c.obj_parts.total, c.obj_parts.den
        g = gcd(total, den)
        ratios.append((total // g, den // g))
    return WeightedPosteriors._from_ratios(
        ratios, 0, [c.posterior for c in cells]
    )
