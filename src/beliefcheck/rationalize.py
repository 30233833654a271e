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

from bisect import bisect_left, bisect_right
from collections import namedtuple
from math import gcd, lcm
from operator import floordiv

from .dist import (
    Dist,
    Observation,
    RnEntry,
    RnReport,
    WeightedPosteriors,
    _TOL,
    _close,
    _Frozen,
    _dist,
    _index_of,
    _joint_tol,
    _projections,
    _same,
    _set,
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


class Model(_Frozen):
    """A candidate probabilistic model of the world.

    Holds the enlarged outcome space, the projection onto the
    payoff-relevant states, the signal partition (generators of the agent's
    period-1 information), the agent's subjective prior `mu0`, and the
    objective distribution `pObj`. `lambda_mix` records the mixing
    distribution used by the construction, when there was one. `tol`, not
    a constructor field, is the larger of `mu0`'s and `pObj`'s: TOL for
    float-origin data, else 0.

    The constructor is the only way to build a Model, and every model
    passes its checks: mu0 and pObj live on omega, the partition's cells
    are non-empty, disjoint and cover omega, the projection sends omega
    into the states, and the states are distinct non-empty labels.
    `states` and `omega` are stored as tuples, and so is a cell given as a
    list or a set, in omega order, so that a model equals its file's. The
    checks are whole-column set operations, O(|omega| + cells) of them;
    only a failed one scans omega, to name the first bad outcome.

    A model keeps what derives from it alone, its cell table, its induced
    observables and its panel's draw plan, once built (see `_derived`).
    So its `projection` and `signal_partition` dicts must not be changed
    in place: build a new Model instead. Equality, the repr and the
    pickled state read the fields and `tol` only.
    """

    _fields = (
        "states", "omega", "projection", "signal_partition", "mu0", "pObj",
        "lambda_mix",
    )
    # `_memo` is left unset until _derived fills it, and out of a pickle.
    __slots__ = _fields + ("tol", "_memo")

    def __init__(
        self, states: tuple, omega: tuple, projection: dict,
        signal_partition: dict, mu0: Dist, pObj: Dist,
        lambda_mix: Dist | None = None,
    ):
        omega, states = tuple(omega), tuple(states)
        if mu0.space != omega or pObj.space != omega:
            raise StructuralError(
                "mu0 and pObj must be distributions over the model's omega"
            )
        cells = signal_partition.values()
        if not all(cells):
            raise StructuralError("signal partition cells must be non-empty")
        covered = set().union(*cells)
        if len(covered) != sum(map(len, cells)):
            raise StructuralError("signal partition cells must be disjoint")
        # mu0's label index holds omega's labels, checked distinct.
        if covered != mu0._index.keys():
            raise StructuralError("signal partition must cover omega")
        _index_of(states)  # distinct, non-empty labels, as a Dist's space
        # The states hold no None, so an outcome missing from the
        # projection fails this check too.
        declared = set(states)
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
            at, signal_partition = mu0._index, dict(signal_partition)
            for label, cell in signal_partition.items():
                if not isinstance(cell, tuple):  # a list or a set
                    cell = tuple(sorted(cell, key=at.__getitem__))
                    signal_partition[label] = cell
        tol = _joint_tol(mu0.tol, pObj.tol)
        self._init(
            states, omega, projection, signal_partition, mu0, pObj,
            lambda_mix, tol,
        )


def _derived(model: Model, build):
    """`build(model)`, built on the model's first call for it and kept in
    its memo, a dict keyed by the builders. What a builder derives from a
    model depends on the model alone, so it holds for the model's life;
    racing threads may each build it, and keep equal values."""
    try:
        memo = model._memo
    except AttributeError:
        memo = {}
        _set(model, "_memo", memo)
    value = memo.get(build)
    if value is None:
        value = memo[build] = build(model)
    return value


def check_condition1(obs: Observation) -> RnReport:
    """Screen every observed posterior for absolute continuity with respect
    to the prior. Violations are recorded in the report, not raised."""
    entries = []
    for k, belief in enumerate(obs.posteriors.beliefs):
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


def _signal_runs(signals, n: int) -> dict:
    """Each signal's slice of omega in a model construct_rationalization
    builds over n states from `signals`, its signal labels in partition
    order: omega is one run of n outcomes per signal, one per state in
    state order, so the slice of mu0's or pObj's numbers is the signal's
    column over the states."""
    return {
        signal: slice(j * n, (j + 1) * n) for j, signal in enumerate(signals)
    }


def construct_rationalization(
    obs: Observation, lambda_mix: Dist | None = None
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
    operations. The integers are those of the rows above, each row's L and
    B[s*] first divided by their gcd: a common denominator grows with the
    lcm of the k reduced B[s*], so up to about k times a belief's
    denominator in bits under the uniform mix, where every L is 1, and
    not at all when each lambda_i is proportional to B_i[s*].

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
    # Row i is L times integers over B[s*] * Dp * Dl. With g = gcd(L,
    # B[s*]) it is L / g times them over B[s*] / g * Dp * Dl, so over the
    # lcm of the B[s*] / g it is scaled by L / g * lcm / (B[s*] / g).
    tops = [b.nums[s] for b, s in zip(beliefs, stars)]
    shared = list(map(gcd, lambda_mix.nums, tops))
    top = lcm(*map(floordiv, tops, shared))
    plus, minus = [], []
    for belief, s, b_top, lam, g in zip(
        beliefs, stars, tops, lambda_mix.nums, shared
    ):
        scale = lam // g * (top // (b_top // g))
        c_plus = prior[s] * scale  # P[s*] * L, scaled
        c_minus = b_top * scale  # B[s*] * L, scaled
        plus.extend([b * c_plus for b in belief.nums])
        # P * B[s*] - P[s*] * B is nonnegative: s* maximises B / P.
        minus.extend(
            [p * c_minus - b * c_plus for p, b in zip(prior, belief.nums)]
        )
    p_obj = [p * w for w in obs.posteriors.nums for p in prior]

    # Omega is laid out as _signal_runs says, each outcome labeled as
    # omega_label labels it: each state's part of the label is formatted
    # once.
    signals = [
        signal_label(i, sign) for sign in (PLUS, MINUS) for i in range(k)
    ]
    heads = [_OMEGA_LABEL % (s, "") for s in states]
    omega = tuple([head + signal for signal in signals for head in heads])
    index = dict(zip(omega, range(len(omega))))
    runs = _signal_runs(signals, len(states))
    return Model(
        states=states,
        omega=omega,
        projection=dict(zip(omega, states * len(signals))),
        signal_partition={signal: omega[runs[signal]] for signal in signals},
        mu0=_dist(
            omega,
            plus + minus,
            top * obs.prior.den * lambda_mix.den,
            obs.tol,
            index,
        ),
        pObj=_dist(
            omega,
            p_obj + [0] * len(minus),
            obs.prior.den * obs.posteriors.den,
            obs.tol,
            index,
        ),
        lambda_mix=lambda_mix,
    )


#: One signal cell's row over the states: integer numerators `acc` over
#: `den`, and their sum `total`.
Row = namedtuple("Row", "acc total den")


class CellDiagnostic(
    namedtuple("CellDiagnostic", "label posterior mu_parts obj_parts")
):
    """One signal cell of the model: its label, its mu0 and pObj rows over
    the payoff-relevant states, as `Row`s of integer numerators over the
    model's mu0 and pObj denominators with their totals, and its Bayes
    posterior, None when the cell has zero mu0 mass."""

    __slots__ = ()


def cell_table(model: Model) -> list:
    """The model's signal cell x state mass tables of mu0 and pObj, one
    CellDiagnostic per cell in partition order: each `Row` sums the
    cell's outcomes' integer numerators per state, over mu0's or pObj's
    one denominator, and holds their total, the cell's mass over it.

    Takes O(|omega| + cells * n) time and memory for n states: each cell
    sums its own outcomes, found by their positions in mu0, into rows of
    n integers no longer than the numerators' sums. Each call builds a
    new table. A model keeps the list of its first build in its memo
    (see `_derived`), which `reachable_cells`, `induced_observables` and
    `simulate_panel` read and never hand out.

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
    """The cells of positive objective mass, in partition order, as a new
    list on each call. Raises UndefinedUpdateError if one of them has zero
    subjective probability.

    Takes O(cells) time beyond the model's cell table, built once per
    model (see cell_table)."""
    reached = [c for c in _derived(model, cell_table) if c.obj_parts.total]
    for c in reached:
        if c.posterior is None:
            raise UndefinedUpdateError(
                "signal %r is objectively reachable but has zero "
                "subjective probability" % c.label
            )
    return reached


class VerifyReport(
    namedtuple(
        "VerifyReport",
        "prior_matches posteriors_match posterior_distribution_matches "
        "objective_agrees_with_prior subjective_martingale_holds details",
    )
):
    """Independent check that a model reproduces an observation.

    Every boolean is recomputed from the model and the observation alone.
    `prior_matches`, `posteriors_match`, `posterior_distribution_matches`,
    and `subjective_martingale_holds` together are the consistency
    requirement; `objective_agrees_with_prior` is the stronger condition
    that the objective distribution also projects onto the observed prior.
    `subjective_martingale_holds` always equals `prior_matches`: by Bayes'
    law the mu0-weighted mean of the cell posteriors is mu0's projection
    onto the states, so it is reported for the record, not as an
    independent check. `details` defaults to a new empty dict.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        if len(args) < len(cls._fields):
            kwargs.setdefault("details", {})
        return super().__new__(cls, *args, **kwargs)

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


def _matched(observed: WeightedPosteriors, posteriors: list):
    """The groups `group_beliefs` gives the float-origin observed beliefs
    followed by the cell posteriors `posteriors`, under TOL, when they
    pair off without a sweep; else None.

    The observed beliefs were grouped under TOL when `observed` was
    built, so no two are within TOL: each is its own group. A posterior
    equal to a belief joins its group. Another must be within TOL of
    exactly one belief, tested by `_close` against those whose
    `_projections` come within reach of its own, found by bisection, and
    no two such posteriors may come within reach of each other. Then each
    group holds one belief, the posteriors equal to it and at most one
    other posterior within TOL of it, since two posteriors within TOL of
    one belief are within reach, and no chain joins two groups.

    Takes one dict lookup per posterior; for those that miss, one
    projection each, two sorts and one bisection and `_close` test per
    belief within reach."""
    beliefs = observed.beliefs
    exact = {(b.den, b.nums): i for i, b in enumerate(beliefs)}
    hits = [exact.get((p.den, p.nums)) for p in posteriors]
    missed = [j for j, i in enumerate(hits) if i is None]
    if missed:
        proj, reach = _projections(beliefs, _TOL)
        order = sorted(range(len(beliefs)), key=proj.__getitem__)
        keys = [proj[i] for i in order]
        spots, _ = _projections([posteriors[j] for j in missed], _TOL)
        ranked = sorted(spots)
        if any(y - x <= reach for x, y in zip(ranked, ranked[1:])):
            return None
        for j, x in zip(missed, spots):
            p = posteriors[j]
            lo = bisect_left(keys, x - reach)
            hi = bisect_right(keys, x + reach)
            near = [
                i
                for i in order[lo:hi]
                if _close(p.nums, p.den, beliefs[i].nums, beliefs[i].den, _TOL)
            ]
            if len(near) != 1:
                return None
            hits[j] = near[0]
    return list(range(len(beliefs))) + hits


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
    grouping of the k observed beliefs with the reached cells' posteriors,
    and the two induced priors as column sums of the cell rows, on
    integers no larger than mu0's and pObj's denominators. The grouping
    is one dict pass for exact data. Against float-origin beliefs, the
    cells are paired with the beliefs they match (see _matched), a
    projection and a bisection per cell that misses its belief's key,
    unless a cell matches no belief or two, or two cells come within
    reach of each other; then group_beliefs sweeps them under TOL.
    """
    if model.states != obs.space:
        raise StructuralError(
            "model and observation disagree on the payoff-relevant states"
        )
    tol = _joint_tol(model.tol, obs.tol)
    cells = cell_table(model)

    induced_prior = _projected([c.mu_parts for c in cells], obs.space)
    prior_matches = _same(induced_prior, obs.prior, tol)

    # An objectively reachable cell with zero subjective probability has no
    # Bayes update (posterior None); that fails (b) and (c).
    reached = [c for c in cells if c.obj_parts.total]
    live = [c for c in reached if c.posterior is not None]
    observed = obs.posteriors
    posteriors = [c.posterior for c in live]
    groups = _matched(observed, posteriors) if observed.tol else None
    if groups is None:
        # A cell posterior joins an observed belief's group or opens a new
        # one; under the model's tolerance, observed beliefs may share one.
        _, groups = group_beliefs(list(observed.beliefs) + posteriors, tol)
    wanted = {}  # observed group -> summed observed weight, over its den
    for w, g in zip(observed.nums, groups):
        wanted[g] = wanted.get(g, 0) + w
    induced = {}  # group -> summed pObj numerators
    for c, g in zip(live, groups[len(observed):]):
        induced[g] = induced.get(g, 0) + c.obj_parts.total
    posteriors_match = len(live) == len(reached) and all(
        g in wanted for g in induced
    )
    obj_den = model.pObj.den
    distribution_matches = posteriors_match and all(
        g in induced
        and _close((induced[g],), obj_den, (w,), observed.den, tol)
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
        },
    )


def induced_observables(model: Model):
    """The observables the model generates: its induced prior over the
    payoff-relevant states and the objective distribution of Bayes
    posteriors. Raises UndefinedUpdateError if an objectively reachable
    signal has zero subjective probability.

    Takes O(cells * n) time and memory for n states beyond the model's
    cell table, built once per model (see cell_table): the prior and one
    posterior of n weights per cell from its rows. The model keeps the
    pair, so a later call returns the same objects in O(1)."""
    return _derived(model, _observables)


def _observables(model: Model) -> tuple:
    """induced_observables' pair, from the model's cell table: the prior
    from every cell's mu0 row, and the Bayes posteriors of the
    `reachable_cells`, weighted by their pObj masses."""
    cells = _derived(model, cell_table)
    prior = _projected([c.mu_parts for c in cells], model.states)
    reached = reachable_cells(model)
    return prior, WeightedPosteriors._from_vector(
        [c.obj_parts.total for c in reached],
        model.pObj.den,
        0,
        [c.posterior for c in reached],
    )
