"""Finite probability distributions and the measure-theoretic primitives built
on them: pushforward, conditioning on partition cells, pointwise likelihood
ratios (Radon-Nikodym derivatives on a finite space), and martingale checks.

Every weight is a plain `fractions.Fraction` and all arithmetic is exact. A
float weight given to a `Dist` or `WeightedPosteriors` is converted exactly
with `Fraction(x)`, and the object records ``tol = TOL`` ("this data came
from floats"; 0 otherwise), as do `Observation` and the model. The
tolerance is read in three places only: at this boundary (a total within
TOL of 1 is renormalised exactly, a float posterior weight at or below TOL
is refused, and an observed prior or belief weight at or below TOL becomes
0), in `num_eq`, and in output (`io.format_number`). Positivity is exact.
Weights are summed by `common_denominator`, in integers over the lcm of
their denominators. `group_beliefs` alone decides which beliefs are equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import lcm
from numbers import Rational
from operator import attrgetter, floordiv, mul
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    AbsoluteContinuityViolation,
    StructuralError,
    ZeroProbabilityCell,
)

#: Tolerance of float-origin data: its zero threshold and comparisons.
TOL = 1e-9
_TOL = Fraction(TOL)  # as objects record it, so comparisons stay exact
_ZERO = Fraction(0)
_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")
_weights = attrgetter("weights")
_ratio = Fraction.as_integer_ratio


def _over_lcm(nums: Iterable, dens: list) -> tuple:
    """The ratios nums[i] / dens[i] as (numerators over the lcm, lcm)."""
    den = lcm(*dens)
    return list(map(mul, nums, map(floordiv, repeat(den), dens))), den


def common_denominator(weights: Sequence) -> tuple:
    """Exact weights as integers over one denominator, the lcm of theirs:
    returns (numerators, lcm), so that weights[i] == numerators[i] / lcm."""
    dens = list(map(_denominator, weights))
    return _over_lcm(map(_numerator, weights), dens)


def exact_sum(weights: Sequence) -> Fraction:
    """Sum of exact weights as a plain Fraction (0 for no weights)."""
    nums, den = common_denominator(weights)
    return Fraction(sum(nums), den)


def num_eq(a: Fraction, b: Fraction, tol: Fraction) -> bool:
    """Equality of two weights within `tol` (exact when tol is 0)."""
    return a == b or abs(a - b) <= tol


def all_eq(xs: Sequence, ys: Sequence, tol: Fraction) -> bool:
    """`num_eq` in every coordinate."""
    return all(map(num_eq, xs, ys, repeat(tol)))


@dataclass(frozen=True)
class Dist:
    """A probability distribution with finite support over labeled outcomes.

    The outcome space is an ordered tuple of distinct, non-empty labels;
    zero-weight outcomes are kept in the space so that distributions over
    the same ambient space stay directly comparable. `tol` is TOL when the
    weights were given as floats, else 0.
    """

    space: tuple
    weights: tuple

    def __post_init__(self):
        space = tuple(self.space)
        weights, tol = tuple(self.weights), 0
        types = set(map(type, weights))
        if not types <= {Fraction}:
            # The float boundary: every weight is converted exactly.
            if not all(issubclass(t, Rational) for t in types):
                tol = _TOL
            try:
                weights = tuple(map(Fraction, weights))
            except (ValueError, OverflowError):  # NaN or infinite
                raise StructuralError(
                    "weights sum to %r, expected 1 within %g"
                    % (sum(map(float, weights)), TOL)
                ) from None
        if len(space) != len(weights):
            raise StructuralError(
                "space has %d outcomes but %d weights were given"
                % (len(space), len(weights))
            )
        index = {label: i for i, label in enumerate(space)}
        if len(index) != len(space):
            raise StructuralError("outcome labels must be distinct")
        if "" in index or None in index:
            raise StructuralError("outcome labels must be non-empty")
        nums, den = common_denominator(weights)
        if min(nums, default=0) < 0:
            i = next(i for i, x in enumerate(nums) if x < 0)
            raise StructuralError(
                "negative weight %s at outcome %r"
                % (tuple(self.weights)[i], space[i])
            )
        total = sum(nums)
        if total != den:
            if not tol:
                raise StructuralError(
                    "weights sum to %s, expected 1" % Fraction(total, den)
                )
            if abs(Fraction(total, den) - 1) > tol:
                raise StructuralError(
                    "weights sum to %r, expected 1 within %g"
                    % (total / den, tol)
                )
            weights = tuple(Fraction(x, total) for x in nums)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "tol", tol)
        object.__setattr__(self, "_index", index)

    @classmethod
    def from_mapping(cls, space: Sequence, mapping: Mapping) -> "Dist":
        """Build a Dist from a label->weight mapping; missing labels get 0."""
        unknown = set(mapping) - set(space)
        if unknown:
            raise StructuralError(
                "weights given for labels outside the space: %s"
                % ", ".join(repr(u) for u in sorted(unknown, key=repr))
            )
        return cls(tuple(space), tuple(mapping.get(s, _ZERO) for s in space))

    @classmethod
    def uniform(cls, space: Sequence) -> "Dist":
        space = tuple(space)
        return cls(space, tuple(Fraction(1, len(space)) for _ in space))

    @property
    def is_exact(self) -> bool:
        return not self.tol

    def __getitem__(self, label) -> Fraction:
        try:
            return self.weights[self._index[label]]
        except KeyError:
            raise StructuralError("unknown outcome %r" % (label,)) from None

    def _unknown(self, labels) -> str:
        """The labels outside the space, listed for an error message."""
        unknown = [u for u in labels if u not in self._index]
        return ", ".join(repr(u) for u in sorted(unknown, key=repr))

    def mass(self, labels: Iterable) -> Fraction:
        """Total weight of a subset of the space."""
        labels = set(labels)
        unknown = self._unknown(labels)
        if unknown:
            raise StructuralError(
                "subset contains labels outside the space: %s" % unknown
            )
        return exact_sum([self.weights[self._index[s]] for s in labels])

    def support(self) -> tuple:
        """Outcomes carrying positive weight."""
        return tuple(s for s, w in zip(self.space, self.weights) if w)

    def matches(self, other: "Dist") -> bool:
        """Coordinate-wise equality over a shared space, within the larger
        of the two tolerances."""
        if self.space != other.space:
            raise StructuralError(
                "cannot compare distributions over different spaces"
            )
        return all_eq(self.weights, other.weights, max(self.tol, other.tol))


def _observed(d: Dist) -> Dist:
    """`d` as an observed prior or belief: a float-origin weight at or below
    the tolerance counts as 0, and the rest are renormalised exactly."""
    if not d.tol or all(w > d.tol or not w for w in d.weights):
        return d
    kept = tuple(w if w > d.tol else _ZERO for w in d.weights)
    total = exact_sum(kept)
    out = Dist(d.space, tuple(w / total for w in kept))
    object.__setattr__(out, "tol", d.tol)
    return out


def group_beliefs(beliefs: Sequence[Dist], tol: Fraction = 0) -> tuple:
    """Group beliefs over one shared space by identity: returns one
    representative per group, in order of first appearance, and each
    input's group index. With tol > 0, beliefs within tol in every
    coordinate are joined (union-find over neighbours in one linear
    projection's order): groups do not depend on input order, the least
    member represents each, and one wider than tol is refused."""
    reps, first, groups, index = [], [], [], {}
    for i, b in enumerate(beliefs):
        # Weights are plain, reduced Fractions: equal exactly when their
        # integer ratios are, which hash far faster than Fractions do.
        g = index.setdefault(tuple(map(_ratio, b.weights)), len(reps))
        if g == len(reps):
            reps.append(b)
            first.append(i)
        groups.append(g)
    if not tol or len(reps) < 2:
        return reps, groups
    tol, m, space = Fraction(tol), len(reps), reps[0].space
    # (i + 1) times the golden ratio, mod 1: distinct beliefs rarely share
    # a projection.
    coef = [(i + 1) * 0.6180339887498949 % 1 for i in range(len(space))]
    proj = [sum(map(mul, coef, map(float, r.weights))) for r in reps]
    order = sorted(range(m), key=proj.__getitem__)
    reach = 2 * tol * sum(coef)  # twice the bound, for rounding in `proj`
    root = list(range(m))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for p, i in enumerate(order):
        q = p + 1
        while q < m and proj[order[q]] - proj[i] <= reach:
            j = order[q]
            if find(i) != find(j) and all_eq(
                reps[i].weights, reps[j].weights, tol
            ):
                root[find(j)] = find(i)
            q += 1
    components = {}  # root -> members, in order of first appearance
    for i in range(m):
        components.setdefault(find(i), []).append(i)
    members = list(components.values())
    label = {root: g for g, root in enumerate(components)}
    # Two beliefs joined directly are within tol; larger groups may chain.
    for ids in filter(lambda ids: len(ids) > 2, members):
        cols = zip(*(reps[i].weights for i in ids))
        for state, col in zip(space, cols):
            lo, hi = min(col), max(col)
            if not num_eq(lo, hi, tol):
                a, b = sorted(first[ids[col.index(x)]] for x in (lo, hi))
                raise StructuralError(
                    "beliefs %d and %d differ by %.3g at %r, more than the "
                    "tolerance %g, but are joined through beliefs within it"
                    % (a, b, hi - lo, state, tol)
                )
    merged = [min((reps[i] for i in ids), key=_weights) for ids in members]
    return merged, [label[find(g)] for g in groups]


def _projector(proj) -> Callable:
    if isinstance(proj, Mapping):
        mapping = proj

        def lookup(label):
            try:
                return mapping[label]
            except KeyError:
                raise StructuralError(
                    "projection undefined at %r" % (label,)
                ) from None

        return lookup
    return proj


def pushforward(mu: Dist, proj, space: Sequence) -> Dist:
    """Distribution over `space` induced by `mu` through the projection.

    `proj` maps each outcome of mu's space into `space`; it may be a mapping
    or a callable. The weight of a target outcome is the total mu-weight of
    its preimage.
    """
    lookup = _projector(proj)
    space = tuple(space)
    index = {s: i for i, s in enumerate(space)}
    parts = [[] for _ in space]
    for label, w in zip(mu.space, mu.weights):
        target = lookup(label)
        if target not in index:
            raise StructuralError(
                "projection sends %r to %r, outside the declared space"
                % (label, target)
            )
        parts[index[target]].append(w)
    return Dist(space, tuple(map(exact_sum, parts)))


def condition(mu: Dist, cell: Iterable) -> Dist:
    """Elementary Bayes update of `mu` on a cell of positive probability.

    The result lives on the same space, with zero weight outside the cell.
    Raises ZeroProbabilityCell when the cell carries no mass.
    """
    cell = frozenset(cell)
    unknown = mu._unknown(cell)
    if unknown:
        raise StructuralError(
            "cell contains labels outside the space: %s" % unknown
        )
    total = mu.mass(cell)
    if not total:
        raise ZeroProbabilityCell(
            "cell %s has zero probability; Bayes update undefined"
            % sorted(cell, key=repr)
        )
    return Dist(
        mu.space,
        tuple(
            w / total if s in cell else _ZERO
            for s, w in zip(mu.space, mu.weights)
        ),
    )


@dataclass(frozen=True)
class RnDerivative:
    """Pointwise likelihood ratio of a belief against a prior.

    `f` is defined on the support of the prior; `epsilon` = 1/max f lies in
    (0, 1] and equals 1 exactly when the belief agrees with the prior on the
    prior's support.
    """

    f: dict
    max_f: Fraction
    epsilon: Fraction


def rn_derivative(prior: Dist, belief: Dist) -> RnDerivative:
    """Compute d(belief)/d(prior) on the prior's support.

    Raises AbsoluteContinuityViolation if the belief charges any outcome of
    zero prior weight. On a finite space absolute continuity automatically
    gives a bounded derivative, so `max_f` always exists.
    """
    if prior.space != belief.space:
        raise StructuralError("prior and belief must share a space")
    rows = list(zip(prior.space, prior.weights, belief.weights))
    bad = [s for s, p, b in rows if not p and b]
    if bad:
        raise AbsoluteContinuityViolation(bad)
    f = {s: b / p for s, p, b in rows if p}
    max_f = max(f.values())
    return RnDerivative(f, max_f, 1 / max_f)


def martingale_mean(
    weights: Sequence, posteriors: Sequence[Dist], prior: Dist, tol: Fraction
):
    """Mean of the posteriors under `weights`, coordinate by coordinate
    over the prior's space, and whether every coordinate equals the
    prior's within `tol`. Returns (holds, mean weights); the mean is not
    required to sum to 1."""
    if len(weights) != len(posteriors):
        raise StructuralError(
            "got %d weights for %d posteriors"
            % (len(weights), len(posteriors))
        )
    if any(post.space != prior.space for post in posteriors):
        raise StructuralError("posterior space differs from the prior's")
    # Coordinate i sums the products w * p.weights[i], each kept as an
    # unreduced numerator and denominator, over their lcm.
    nums = list(map(_numerator, weights))
    dens = list(map(_denominator, weights))
    acc = []
    for i in range(len(prior.space)):
        col = [p.weights[i] for p in posteriors]
        products, den = _over_lcm(
            map(mul, nums, map(_numerator, col)),
            list(map(mul, dens, map(_denominator, col))),
        )
        acc.append(Fraction(sum(products), den))
    return all_eq(acc, prior.weights, tol), tuple(acc)


def martingale_check(
    weights: Sequence, posteriors: Sequence[Dist], prior: Dist
):
    """Mean of the posteriors under `weights` (converted exactly), and
    whether it equals the prior within the largest tolerance of the prior
    and the posteriors. Returns (holds, mean_posterior); raises
    StructuralError when the weights do not sum to 1."""
    tol = max([prior.tol] + [p.tol for p in posteriors])
    holds, mean = martingale_mean(
        list(map(Fraction, weights)), posteriors, prior, tol
    )
    return holds, Dist(prior.space, mean)


@dataclass(frozen=True)
class WeightedPosteriors:
    """A finitely-supported distribution over posterior beliefs.

    Items are (weight, belief) pairs over a shared outcome space. Duplicate
    beliefs (the same under `group_beliefs`) are merged at construction by
    summing their weights, so the stored items enumerate the support. A
    float weight must exceed TOL; beliefs are taken as observed.
    """

    items: tuple

    def __post_init__(self):
        items = list(self.items)
        if not items:
            raise StructuralError("at least one posterior is required")
        space = items[0][1].space
        for w, belief in items:
            if not isinstance(belief, Dist):
                raise StructuralError("posterior beliefs must be Dists")
            if belief.space != space:
                raise StructuralError(
                    "all posteriors must share one outcome space"
                )
            # Written so that a NaN weight fails.
            if not w > (0 if isinstance(w, Rational) else TOL):
                raise StructuralError(
                    "posterior weights must be strictly positive, above the "
                    "zero threshold %g for floats; got %s" % (TOL, w)
                )
        # The entry weights form a distribution over the entries.
        try:
            entries = Dist(range(len(items)), tuple(w for w, _ in items))
        except StructuralError as err:
            raise StructuralError("posterior %s" % err) from None
        beliefs = [_observed(b) for _, b in items]
        tol = max([entries.tol] + [b.tol for b in beliefs])
        reps, groups = group_beliefs(beliefs, tol)
        parts = [[] for _ in reps]
        for w, g in zip(entries.weights, groups):
            parts[g].append(w)
        sums = map(exact_sum, parts)
        object.__setattr__(self, "items", tuple(zip(sums, reps)))
        object.__setattr__(self, "tol", tol)

    @property
    def space(self) -> tuple:
        return self.items[0][1].space

    @property
    def weights(self) -> tuple:
        return tuple(w for w, _ in self.items)

    @property
    def beliefs(self) -> tuple:
        return tuple(b for _, b in self.items)

    def __len__(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class Observation:
    """What the econometrician sees: a prior over the payoff-relevant states
    and the population distribution of posteriors over the same states.
    The prior is taken as observed (`_observed`)."""

    prior: Dist
    posteriors: WeightedPosteriors

    def __post_init__(self):
        if self.prior.space != self.posteriors.space:
            raise StructuralError(
                "prior and posteriors must share one outcome space"
            )
        object.__setattr__(self, "prior", _observed(self.prior))
        object.__setattr__(
            self, "tol", max(self.prior.tol, self.posteriors.tol)
        )

    @property
    def space(self) -> tuple:
        return self.prior.space

    @property
    def is_exact(self) -> bool:
        return not self.tol


@dataclass(frozen=True)
class RnEntry:
    """Per-posterior outcome of the likelihood-ratio screen."""

    index: int
    derivative: RnDerivative | None
    violations: tuple = ()

    @property
    def ok(self) -> bool:
        return self.derivative is not None


@dataclass(frozen=True)
class RnReport:
    """Result of screening every posterior in an observation for absolute
    continuity with respect to the prior."""

    entries: tuple
    overall_pass: bool

    def epsilons(self) -> tuple:
        return tuple(
            e.derivative.epsilon if e.ok else None for e in self.entries
        )

    def violations(self) -> tuple:
        """All prior-null outcomes charged by some posterior."""
        seen = []
        for e in self.entries:
            for s in e.violations:
                if s not in seen:
                    seen.append(s)
        return tuple(seen)
