"""Finite probability distributions and the measure-theoretic primitives built
on them: pushforward, conditioning on partition cells, pointwise likelihood
ratios (Radon-Nikodym derivatives on a finite space), and martingale checks.

Weights come in two flavours. Exact mode stores plain `fractions.Fraction`
values and every comparison is exact; float mode stores floats and
comparisons are made coordinate-wise within ``TOL``. A distribution is
treated as exact when all of its weights are rational objects; an `int`,
`bool` or `Fraction` subclass is stored as a plain `Fraction`, and a plain
`Fraction` is stored as given. Exact weights are summed by
`common_denominator`: one integer pass over the lcm of their denominators,
so a distribution's total is checked, and `mass`, `pushforward`,
`martingale_mean` and the `WeightedPosteriors` total are computed, without
a chain of `Fraction` additions.

`group_beliefs` alone decides which beliefs are the same: exact beliefs
when their weight tuples are equal; otherwise a belief joins the first
group whose representative it matches within ``TOL``, a rule that is not
transitive, so beliefs chaining within tolerance group by input order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import repeat
from math import lcm
from numbers import Rational
from operator import add, attrgetter, floordiv, mul
from typing import Callable, Iterable, Mapping, Sequence, Union

from .errors import (
    AbsoluteContinuityViolation,
    StructuralError,
    ZeroProbabilityCell,
)

Number = Union[int, Fraction, float]

#: Tolerance for any comparison that involves a float weight.
TOL = 1e-9


_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


def is_exact(x: Number) -> bool:
    """True when x supports exact arithmetic (int or Fraction)."""
    return type(x) is Fraction or isinstance(x, Rational)


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


def _plain_fractions(weights: tuple) -> bool:
    """True when every weight is a plain Fraction, not an int or subclass."""
    return set(map(type, weights)) <= {Fraction}


def num_eq(a: Number, b: Number, tol: float = TOL) -> bool:
    """Equality of two weights: exact when both sides are rational,
    otherwise within tol."""
    if is_exact(a) and is_exact(b):
        return a == b
    return abs(a - b) <= tol


def num_pos(x: Number, tol: float = TOL) -> bool:
    """Strict positivity, treating floats below tol as zero."""
    if type(x) is Fraction:
        return x.numerator > 0
    if is_exact(x):
        return x > 0
    return x > tol


@dataclass(frozen=True)
class Dist:
    """A probability distribution with finite support over labeled outcomes.

    The outcome space is an ordered tuple of distinct, non-empty labels;
    zero-weight outcomes are kept in the space so that distributions over
    the same ambient space stay directly comparable.
    """

    space: tuple
    weights: tuple

    def __post_init__(self):
        space = tuple(self.space)
        weights = tuple(self.weights)
        exact = _plain_fractions(weights)
        if not exact:
            weights = tuple(
                Fraction(w) if is_exact(w) else float(w) for w in weights
            )
            exact = _plain_fractions(weights)
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
        if exact:
            nums, den = common_denominator(weights)
            if min(nums, default=0) < 0:
                i = next(i for i, x in enumerate(nums) if x < 0)
                raise StructuralError(
                    "negative weight %s at outcome %r" % (weights[i], space[i])
                )
            total = sum(nums)
            if total != den:
                raise StructuralError(
                    "weights sum to %s, expected 1" % Fraction(total, den)
                )
        else:
            for label, w in zip(space, weights):
                if w < 0:
                    raise StructuralError(
                        "negative weight %s at outcome %r" % (w, label)
                    )
            total = sum(weights)
            if abs(total - 1) > TOL:
                raise StructuralError(
                    "weights sum to %r, expected 1 within %g" % (total, TOL)
                )
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_exact", exact)
        object.__setattr__(self, "_index", index)

    @classmethod
    def from_mapping(cls, space: Sequence, mapping: Mapping) -> "Dist":
        """Build a Dist from a label->weight mapping; missing labels get 0."""
        zero = Fraction(0)
        if any(not is_exact(w) for w in mapping.values()):
            zero = 0.0
        unknown = set(mapping) - set(space)
        if unknown:
            raise StructuralError(
                "weights given for labels outside the space: %s"
                % ", ".join(repr(u) for u in sorted(unknown, key=repr))
            )
        return cls(tuple(space), tuple(mapping.get(s, zero) for s in space))

    @classmethod
    def uniform(cls, space: Sequence) -> "Dist":
        space = tuple(space)
        return cls(space, tuple(Fraction(1, len(space)) for _ in space))

    @classmethod
    def point_mass(cls, space: Sequence, label) -> "Dist":
        space = tuple(space)
        return cls(
            space, tuple(Fraction(int(s == label)) for s in space)
        )

    @property
    def is_exact(self) -> bool:
        return self._exact

    def __getitem__(self, label) -> Number:
        try:
            return self.weights[self._index[label]]
        except KeyError:
            raise StructuralError("unknown outcome %r" % (label,)) from None

    def _unknown(self, labels) -> str:
        """The labels outside the space, listed for an error message."""
        unknown = [u for u in labels if u not in self._index]
        return ", ".join(repr(u) for u in sorted(unknown, key=repr))

    def mass(self, labels: Iterable) -> Number:
        """Total weight of a subset of the space."""
        labels = set(labels)
        unknown = self._unknown(labels)
        if unknown:
            raise StructuralError(
                "subset contains labels outside the space: %s" % unknown
            )
        if self._exact:
            return exact_sum([self.weights[self._index[s]] for s in labels])
        return sum(
            (w for s, w in zip(self.space, self.weights) if s in labels), 0.0
        )

    def support(self) -> tuple:
        """Outcomes carrying positive weight (floats below TOL count as 0)."""
        return tuple(
            s for s, w in zip(self.space, self.weights) if num_pos(w)
        )

    def matches(self, other: "Dist") -> bool:
        """Coordinate-wise equality over a shared space: exact when both
        sides are exact, within TOL otherwise."""
        if self.space != other.space:
            raise StructuralError(
                "cannot compare distributions over different spaces"
            )
        return all(
            num_eq(a, b) for a, b in zip(self.weights, other.weights)
        )


def group_beliefs(beliefs: Sequence[Dist]) -> tuple:
    """Group beliefs over one shared space by identity. Returns the distinct
    beliefs in first-appearance order and, per input, its group's index."""
    exact = all(b.is_exact for b in beliefs)
    reps, groups, index = [], [], {}
    for b in beliefs:
        new = len(reps)
        if exact:
            g = index.setdefault(b.weights, new)
        else:
            g = next((i for i, r in enumerate(reps) if r.matches(b)), new)
        if g == new:
            reps.append(b)
        groups.append(g)
    return reps, groups


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
    if mu.is_exact:
        return Dist(space, tuple(map(exact_sum, parts)))
    # Float weights are added in order, as `+=` would.
    return Dist(space, tuple(reduce(add, part, 0.0) for part in parts))


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
    if not num_pos(total):
        raise ZeroProbabilityCell(
            "cell %s has zero probability; Bayes update undefined"
            % sorted(cell, key=repr)
        )
    zero = Fraction(0) if mu.is_exact else 0.0
    return Dist(
        mu.space,
        tuple(
            w / total if s in cell else zero
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
    max_f: Number
    epsilon: Number


def rn_derivative(prior: Dist, belief: Dist) -> RnDerivative:
    """Compute d(belief)/d(prior) on the prior's support.

    Raises AbsoluteContinuityViolation if the belief charges any outcome of
    zero prior weight. On a finite space absolute continuity automatically
    gives a bounded derivative, so `max_f` always exists.
    """
    if prior.space != belief.space:
        raise StructuralError("prior and belief must share a space")
    rows = list(zip(prior.space, prior.weights, belief.weights))
    bad = [s for s, p, b in rows if not num_pos(p) and num_pos(b)]
    if bad:
        raise AbsoluteContinuityViolation(bad)
    f = {s: b / p for s, p, b in rows if num_pos(p)}
    max_f = max(f.values())
    if is_exact(max_f):
        epsilon = Fraction(1) / max_f
    else:
        # max f >= 1 up to rounding; keep epsilon inside (0, 1].
        epsilon = min(1.0 / max_f, 1.0)
    return RnDerivative(f, max_f, epsilon)


def martingale_mean(
    weights: Sequence[Number], posteriors: Sequence[Dist], prior: Dist
):
    """Mean of the posteriors under `weights`, coordinate by coordinate
    over the prior's space, and whether every coordinate equals the
    prior's (`num_eq`). Returns (holds, mean weights). The mean is not
    required to sum to 1, so float rounding in its total cannot raise."""
    if len(weights) != len(posteriors):
        raise StructuralError(
            "got %d weights for %d posteriors"
            % (len(weights), len(posteriors))
        )
    if any(post.space != prior.space for post in posteriors):
        raise StructuralError("posterior space differs from the prior's")
    exact = all(map(is_exact, weights)) and all(
        p.is_exact for p in posteriors
    )
    if exact:
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
    else:
        acc = [0.0] * len(prior.space)
        for w, post in zip(weights, posteriors):
            for i, pw in enumerate(post.weights):
                acc[i] += w * pw
    return all(map(num_eq, acc, prior.weights)), tuple(acc)


def martingale_check(
    weights: Sequence[Number], posteriors: Sequence[Dist], prior: Dist
):
    """Mean of the posteriors under `weights`, and whether it equals the
    prior. Returns (holds, mean_posterior); raises StructuralError when
    float rounding takes the mean's total more than TOL from 1, which
    `martingale_mean` does not."""
    holds, mean = martingale_mean(weights, posteriors, prior)
    return holds, Dist(prior.space, mean)


@dataclass(frozen=True)
class WeightedPosteriors:
    """A finitely-supported distribution over posterior beliefs.

    Items are (weight, belief) pairs over a shared outcome space. Duplicate
    beliefs (coordinate-wise equal) are merged at construction by summing
    their weights, so the stored items enumerate the support.
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
            if not num_pos(w):
                raise StructuralError(
                    "posterior weights must be strictly positive, above the "
                    "zero threshold %g for floats; got %s" % (TOL, w)
                )
        reps, groups = group_beliefs([b for _, b in items])
        exact = all(is_exact(w) for w, _ in items)
        if exact:
            parts = [[] for _ in reps]
            for (w, _), g in zip(items, groups):
                parts[g].append(w)
            sums = list(map(exact_sum, parts))
            total = exact_sum(sums)
            if total != 1:
                raise StructuralError(
                    "posterior weights sum to %s, expected 1" % total
                )
        else:
            sums = [Fraction(0)] * len(reps)
            for (w, _), g in zip(items, groups):
                sums[g] += Fraction(w) if is_exact(w) else float(w)
            total = sum(sums)
            if abs(total - 1) > TOL:
                raise StructuralError(
                    "posterior weights sum to %r, expected 1 within %g"
                    % (total, TOL)
                )
        object.__setattr__(self, "items", tuple(zip(sums, reps)))
        object.__setattr__(
            self, "_exact", exact and all(b.is_exact for b in reps)
        )

    @property
    def space(self) -> tuple:
        return self.items[0][1].space

    @property
    def weights(self) -> tuple:
        return tuple(w for w, _ in self.items)

    @property
    def beliefs(self) -> tuple:
        return tuple(b for _, b in self.items)

    @property
    def is_exact(self) -> bool:
        return self._exact

    def __len__(self) -> int:
        return len(self.items)

    def as_dist_over_indices(self) -> Dist:
        """The weights as a distribution over support indices 0..k-1."""
        return Dist(tuple(range(len(self.items))), self.weights)


@dataclass(frozen=True)
class Observation:
    """What the econometrician sees: a prior over the payoff-relevant states
    and the population distribution of posteriors over the same states."""

    prior: Dist
    posteriors: WeightedPosteriors

    def __post_init__(self):
        if self.prior.space != self.posteriors.space:
            raise StructuralError(
                "prior and posteriors must share one outcome space"
            )

    @property
    def space(self) -> tuple:
        return self.prior.space

    @property
    def is_exact(self) -> bool:
        return self.prior.is_exact and self.posteriors.is_exact


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
