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

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .dist import (
    TOL,
    Dist,
    Number,
    Observation,
    RnEntry,
    RnReport,
    WeightedPosteriors,
    common_denominator,
    group_beliefs,
    is_exact,
    martingale_mean,
    num_eq,
    num_pos,
    pushforward,
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


def mix_label(k: int) -> str:
    """Label of the k-th observed posterior in the mixing distribution."""
    return "nu%d" % k


def signal_label(k: int, sign: str) -> str:
    return "nu%d%s" % (k, sign)


def omega_label(s, k: int, sign: str) -> str:
    """Fixed labeling scheme for the enlarged state space: it depends only
    on the payoff-relevant label, the posterior index, and the sign tag."""
    return "%s|%s" % (s, signal_label(k, sign))


@dataclass(frozen=True)
class Model:
    """A candidate probabilistic model of the world.

    Holds the enlarged outcome space, the projection onto the
    payoff-relevant states, the signal partition (generators of the agent's
    period-1 information), the agent's subjective prior `mu0`, and the
    objective distribution `pObj`. `lambda_mix` records the mixing
    distribution used by the construction, when there was one.
    """

    states: tuple
    omega: tuple
    projection: dict
    signal_partition: dict
    mu0: Dist
    pObj: Dist
    lambda_mix: Optional[Dist] = None

    def __post_init__(self):
        omega = tuple(self.omega)
        object.__setattr__(self, "omega", omega)
        if self.mu0.space != omega or self.pObj.space != omega:
            raise StructuralError(
                "mu0 and pObj must be distributions over the model's omega"
            )
        covered = []
        for label, cell in self.signal_partition.items():
            covered.extend(cell)
        if len(covered) != len(set(covered)):
            raise StructuralError("signal partition cells must be disjoint")
        if set(covered) != set(omega):
            raise StructuralError("signal partition must cover omega")
        states = set(self.states)
        for w in omega:
            if w not in self.projection:
                raise StructuralError("projection undefined at %r" % (w,))
            if self.projection[w] not in states:
                raise StructuralError(
                    "projection sends %r outside the declared states" % (w,)
                )

    @property
    def is_exact(self) -> bool:
        return self.mu0.is_exact and self.pObj.is_exact


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


def uniform_mix(obs: Observation) -> Dist:
    """Uniform mixing distribution over the observed posteriors."""
    k = len(obs.posteriors)
    return Dist(
        tuple(mix_label(i) for i in range(k)),
        tuple(Fraction(1, k) for _ in range(k)),
    )


def target_mix(obs: Observation) -> Dist:
    """Mixing distribution equal to the observed posterior weights."""
    k = len(obs.posteriors)
    return Dist(
        tuple(mix_label(i) for i in range(k)), obs.posteriors.weights
    )


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
    mix_space = tuple(mix_label(i) for i in range(k))
    if lambda_mix is None:
        lambda_mix = uniform_mix(obs)
    if tuple(lambda_mix.space) != mix_space:
        raise InvalidMixError(
            "mixing distribution must be indexed by %s" % (mix_space,)
        )
    if not all(num_pos(w) for w in lambda_mix.weights):
        raise InvalidMixError(
            "mixing distribution must give every posterior positive weight"
        )

    states = obs.space
    zero = Fraction(0) if obs.is_exact else 0.0
    prior = obs.prior.weights
    epsilons = report.epsilons()
    # Rows in omega order: the k "+" cells, then the k "-" cells.
    plus, minus, p_obj = [], [], []
    for i, (pw, belief) in enumerate(obs.posteriors.items):
        eps = epsilons[i]
        lam = lambda_mix.weights[i]
        for s, p, b in zip(states, prior, belief.weights):
            eb = b * eps
            plus.append(eb * lam)
            # (prior - eps*belief) is the phantom cell's unnormalized
            # conditional; nonnegative since eps <= prior(s)/belief(s).
            phantom = (p - eb) * lam
            if not is_exact(phantom):
                if phantom < -TOL:
                    raise StructuralError(
                        "phantom-signal weight %r is negative beyond "
                        "tolerance at %r" % (phantom, s)
                    )
                phantom = max(phantom, 0.0)
            minus.append(phantom)
            p_obj.append(p * pw)

    n = len(states)
    cells = [(i, sign) for sign in (PLUS, MINUS) for i in range(k)]
    omega = tuple(omega_label(s, i, sign) for i, sign in cells for s in states)
    return Model(
        states=states,
        omega=omega,
        projection=dict(zip(omega, states * len(cells))),
        signal_partition={
            signal_label(i, sign): omega[j * n : (j + 1) * n]
            for j, (i, sign) in enumerate(cells)
        },
        mu0=Dist(omega, tuple(plus + minus)),
        pObj=Dist(omega, tuple(p_obj) + (zero,) * len(minus)),
        lambda_mix=lambda_mix,
    )


@dataclass(frozen=True)
class CellDiagnostic:
    """One signal cell of the model: its mu0 and pObj rows over the
    payoff-relevant states, their totals, and its Bayes posterior."""

    label: str
    mu_mass: Number
    obj_mass: Number
    posterior: Optional[Dist]  # None when the cell has zero mu0 mass
    mu_row: tuple
    obj_row: tuple


def _tabulate(cols: list, weights: list, n: int, exact: bool) -> tuple:
    """One signal cell's row over the n states and its total, from the
    cell's omega points (state column, weight). An exact row is summed as
    integer numerators over the lcm of the cell's denominators and those
    numerators are returned as well; a float row is summed in omega order,
    with None in their place."""
    if exact:
        nums, den = common_denominator(weights)
        acc = [0] * n
        for j, x in zip(cols, nums):
            acc[j] += x
        row = tuple(Fraction(a, den) for a in acc)
        return row, Fraction(sum(acc), den), acc
    acc, total = [0.0] * n, 0.0
    for j, x in zip(cols, weights):
        acc[j] += x
        total += x
    return tuple(acc), total, None


def _bayes(row: tuple, mass: Number, nums) -> Optional[tuple]:
    """A row divided by its total, or None when the total is zero; an exact
    row is divided through its integer numerators `nums`."""
    if nums is not None:
        total = sum(nums)
        return tuple(Fraction(a, total) for a in nums) if total else None
    return tuple(x / mass for x in row) if num_pos(mass) else None


def cell_table(model: Model) -> list:
    """The model's signal cell x state mass tables of mu0 and pObj, read in
    one pass over omega, one CellDiagnostic per cell in partition order.

    Everything observable about the model's signals derives from these
    rows: a cell's Bayes posterior is its mu0 row over the row's total.
    """
    labels = list(model.signal_partition)
    row_of = {
        w: i for i, cell in enumerate(model.signal_partition.values())
        for w in cell
    }
    col = {s: j for j, s in enumerate(model.states)}
    cols, mus, objs = ([[] for _ in labels] for _ in range(3))
    for w, mw, pw in zip(model.omega, model.mu0.weights, model.pObj.weights):
        i = row_of[w]
        cols[i].append(col[model.projection[w]])
        mus[i].append(mw)
        objs[i].append(pw)
    n = len(col)
    table = []
    for label, js, mu_ws, obj_ws in zip(labels, cols, mus, objs):
        mu_row, mu_mass, nums = _tabulate(js, mu_ws, n, model.mu0.is_exact)
        obj_row, obj_mass, _ = _tabulate(js, obj_ws, n, model.pObj.is_exact)
        posterior = _bayes(mu_row, mu_mass, nums)
        table.append(
            CellDiagnostic(
                label,
                mu_mass,
                obj_mass,
                None if posterior is None else Dist(model.states, posterior),
                mu_row,
                obj_row,
            )
        )
    return table


def reachable_cells(model: Model) -> list:
    """The cells of positive objective mass. Raises UndefinedUpdateError if
    one of them has zero subjective probability."""
    reached = [c for c in cell_table(model) if num_pos(c.obj_mass)]
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
    the observed prior (the martingale identity).
    """
    if tuple(model.states) != obs.space:
        raise StructuralError(
            "model and observation disagree on the payoff-relevant states"
        )
    cells = cell_table(model)

    induced_prior = pushforward(model.mu0, model.projection, obs.space)
    prior_matches = induced_prior.matches(obs.prior)

    # An objectively reachable cell with zero subjective probability has no
    # Bayes update (posterior None); that fails (b) and (c).
    reached = [c for c in cells if num_pos(c.obj_mass)]
    live = [c for c in reached if c.posterior is not None]
    observed = obs.posteriors.items
    # The observed beliefs are distinct, so they take groups 0..k-1; a cell
    # posterior lands in an observed group or opens a new one.
    _, groups = group_beliefs(
        [b for _, b in observed] + [c.posterior for c in live]
    )
    induced = {}  # group -> (first cell posterior, summed objective mass)
    for c, g in zip(live, groups[len(observed):]):
        post, mass = induced.get(g, (c.posterior, Fraction(0)))
        induced[g] = (post, mass + c.obj_mass)
    posteriors_match = len(live) == len(reached) and all(
        g < len(observed) for g in induced
    )
    distribution_matches = posteriors_match and all(
        g in induced and num_eq(induced[g][1], w)
        for g, (w, _) in enumerate(observed)
    )

    objective_prior = pushforward(model.pObj, model.projection, obs.space)
    objective_agrees = objective_prior.matches(obs.prior)

    active = [c for c in cells if num_pos(c.mu_mass)]
    martingale_holds, mean = martingale_mean(
        [c.mu_mass for c in active], [c.posterior for c in active], obs.prior
    )

    return VerifyReport(
        prior_matches=prior_matches,
        posteriors_match=posteriors_match,
        posterior_distribution_matches=distribution_matches,
        objective_agrees_with_prior=objective_agrees,
        subjective_martingale_holds=martingale_holds,
        details={
            "induced_prior": induced_prior,
            "objective_prior": objective_prior,
            "cells": cells,
            "induced_distribution": list(induced.values()),
            "mean_posterior": mean,  # weights over obs.space
        },
    )


def induced_observables(model: Model):
    """The observables the model generates: its induced prior over the
    payoff-relevant states and the objective distribution of Bayes
    posteriors. Raises UndefinedUpdateError if an objectively reachable
    signal has zero subjective probability."""
    prior = pushforward(model.mu0, model.projection, model.states)
    return prior, WeightedPosteriors(
        tuple((c.obj_mass, c.posterior) for c in reachable_cells(model))
    )
