"""Finite probability distributions and the measure-theoretic primitives built
on them: pushforward, conditioning on partition cells, pointwise likelihood
ratios (Radon-Nikodym derivatives on a finite space), and martingale checks.

All arithmetic is exact, and a `Dist` stores its weights once, canonically,
as integers: a tuple `nums` of numerators over one denominator `den`, the
lcm of the weights' reduced denominators, so that ``gcd(*nums, den) == 1``.
Two distributions over one space are therefore equal exactly when their
(nums, den) pairs are. `Dist.weights`, the public tuple of plain
`fractions.Fraction`s, is built from the pair when first read; the
primitives here, construction, verification and file I/O work on the
integers and build a `Fraction` only for a value they return or print.

A float weight given to a `Dist` or `WeightedPosteriors` is converted
exactly (`float.as_integer_ratio`), and the object records ``tol = TOL``
("this data came from floats"; 0 otherwise), as do `Observation` and the
model. The tolerance is read in three places only: at this boundary (a
total within TOL of 1 is renormalised exactly, a float posterior weight at
or below TOL is refused, and an observed prior or belief weight at or below
TOL becomes 0), in comparisons (`_close`, `group_beliefs`), and in output
(`io.format_number`). Positivity is exact. `group_beliefs` alone decides
which beliefs are equal.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from numbers import Rational
from operator import floordiv, mul
from typing import Iterable, Mapping, Sequence

from .errors import (
    AbsoluteContinuityViolation,
    StructuralError,
    ZeroProbabilityCell,
)

#: Tolerance of float-origin data: its zero threshold and comparisons.
TOL = 1e-9
_TOL = Fraction(TOL)  # as objects record it, so comparisons stay exact
_TOL_P, _TOL_Q = _TOL.as_integer_ratio()
_set = object.__setattr__
# Exact (numerator, denominator) of a weight, by type; other types go
# through Fraction.
_RATIO = {
    Fraction: Fraction.as_integer_ratio,
    float: float.as_integer_ratio,
    int: int.as_integer_ratio,
    bool: int.as_integer_ratio,
}
_NONPOSITIVE = (
    "posterior weights must be strictly positive, above the zero threshold "
    "%g for floats; got %s"
)


def _ratio(w) -> tuple:
    convert = _RATIO.get(type(w))
    return convert(w) if convert else Fraction(w).as_integer_ratio()


def _shown(num: int, den: int, tol) -> str:
    """The weight num/den as an error message shows it: as the float it
    came from when tol is set, else as p/q in lowest terms."""
    return str(num / den) if tol else str(Fraction(num, den))


def _vector(pairs: list) -> tuple:
    """Reduced (numerator, denominator) pairs as integer numerators over
    the lcm of the denominators: returns (numerators, lcm), ([], 1) for no
    pairs."""
    nums, dens = zip(*pairs) if pairs else ((), ())
    den = lcm(*dens)
    return list(map(mul, nums, map(floordiv, repeat(den), dens))), den


def _close(a: Sequence, da: int, b: Sequence, db: int, tol) -> bool:
    """Whether a[i]/da equals b[i]/db within `tol` at every i (exactly
    when tol is 0)."""
    if not tol:
        return all(x * db == y * da for x, y in zip(a, b))
    p, q = tol.as_integer_ratio()
    bound = p * da * db
    return all(abs(x * db - y * da) * q <= bound for x, y in zip(a, b))


def _same(d: "Dist", e: "Dist", tol) -> bool:
    """Coordinate-wise equality of two distributions within `tol`; with
    tol 0 their canonical pairs decide."""
    if not tol:
        return d.den == e.den and d.nums == e.nums
    return _close(d.nums, d.den, e.nums, e.den, tol)


def _labels_checked(index: dict, space: tuple) -> dict:
    """`index` (label -> position in `space`), once the labels are known
    to be distinct and non-empty."""
    if len(index) != len(space):
        raise StructuralError("outcome labels must be distinct")
    if "" in index or None in index:
        raise StructuralError("outcome labels must be non-empty")
    return index


def _index_of(space: tuple) -> dict:
    return _labels_checked({s: i for i, s in enumerate(space)}, space)


class Dist:
    """A probability distribution with finite support over labeled outcomes.

    The outcome space is an ordered tuple of distinct, non-empty labels;
    zero-weight outcomes are kept in the space so that distributions over
    the same ambient space stay directly comparable. The weights are kept
    as `nums` over `den` in lowest terms (see the module docstring);
    `weights` is their tuple of Fractions. `tol` is TOL when the weights
    were given as floats, else 0. Instances are immutable.
    """

    __slots__ = ("space", "nums", "den", "tol", "_index", "_weights")

    def __init__(self, space: Sequence, weights: Sequence):
        space, given, tol = tuple(space), tuple(weights), 0
        types = set(map(type, given))
        if types <= {Fraction}:
            ratios = list(map(Fraction.as_integer_ratio, given))
        else:
            # The float boundary: every weight is converted exactly.
            if not all(issubclass(t, Rational) for t in types):
                tol = _TOL
            try:
                ratios = list(map(_ratio, given))
            except (ValueError, OverflowError):  # NaN or infinite
                raise StructuralError(
                    "weights sum to %r, expected 1 within %g"
                    % (sum(map(float, given)), TOL)
                ) from None
        self._settle(space, ratios, tol, None, given)
        if types <= {Fraction}:
            _set(self, "_weights", given)  # plain Fractions, as stored

    def _settle(self, space, ratios, tol, index, given) -> None:
        """Check reduced (numerator, denominator) pairs as weights over
        `space` and store them in lowest terms. `index` is the space's
        label index when already checked. An error message shows a
        weight as given[i], or by `_shown` when `given` is None."""
        if len(space) != len(ratios):
            raise StructuralError(
                "space has %d outcomes but %d weights were given"
                % (len(space), len(ratios))
            )
        nums, den = _vector(ratios)
        self._settle_vector(space, nums, den, tol, index, given)

    def _settle_vector(self, space, nums, den, tol, index, given) -> None:
        """_settle for weights given as integer numerators over `den`, the
        lcm of their reduced denominators, one per outcome of `space`."""
        if index is None:
            index = _index_of(space)
        if min(nums, default=0) < 0:
            i = next(i for i, x in enumerate(nums) if x < 0)
            shown = given[i] if given else _shown(nums[i], den, tol)
            raise StructuralError(
                "negative weight %s at outcome %r" % (shown, space[i])
            )
        total = sum(nums)
        if total != den:
            if not tol:
                raise StructuralError(
                    "weights sum to %s, expected 1" % Fraction(total, den)
                )
            p, q = tol.as_integer_ratio()
            if abs(total - den) * q > p * den:  # |total/den - 1| > p/q
                raise StructuralError(
                    "weights sum to %r, expected 1 within %g"
                    % (total / den, tol)
                )
            g = gcd(*nums, total)
            nums, den = [x // g for x in nums], total // g
        _store(self, space, nums, den, tol, index)

    @classmethod
    def _from_ratios(
        cls, space: tuple, ratios: list, tol, index: dict = None
    ) -> "Dist":
        """A Dist from reduced (numerator, denominator) pairs, checked as
        the constructor checks weights; tol is TOL for float-origin
        numbers. `index` is the space's label index when already checked."""
        d = object.__new__(cls)
        d._settle(tuple(space), ratios, tol, index, None)
        return d

    @classmethod
    def _from_vector(
        cls, space: tuple, nums: list, den: int, tol, index: dict = None
    ) -> "Dist":
        """_from_ratios for weights given as integer numerators `nums`, one
        per outcome, over `den`, the lcm of their reduced denominators."""
        d = object.__new__(cls)
        d._settle_vector(space, nums, den, tol, index, None)
        return d

    @classmethod
    def uniform(cls, space: Sequence) -> "Dist":
        space = tuple(space)
        return cls(space, tuple(Fraction(1, len(space)) for _ in space))

    @property
    def weights(self) -> tuple:
        """The weights as plain Fractions, built when first read."""
        weights = self._weights
        if weights is None:
            den = self.den
            weights = tuple(Fraction(n, den) for n in self.nums)
            _set(self, "_weights", weights)
        return weights

    @property
    def is_exact(self) -> bool:
        return not self.tol

    def __setattr__(self, name, value):
        raise FrozenInstanceError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise FrozenInstanceError("cannot delete field %r" % name)

    def __reduce__(self):
        return _restore, (self.space, self.nums, self.den, self.tol)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.space, self.den, self.nums) == (
            other.space, other.den, other.nums
        )

    def __hash__(self) -> int:
        return hash((self.space, self.den, self.nums))

    def __repr__(self) -> str:
        return "Dist(space=%r, weights=%r)" % (self.space, self.weights)

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
        nums, index = self.nums, self._index
        return Fraction(sum(nums[index[s]] for s in labels), self.den)

    def support(self) -> tuple:
        """Outcomes carrying positive weight."""
        return tuple(s for s, n in zip(self.space, self.nums) if n)

    def matches(self, other: "Dist") -> bool:
        """Coordinate-wise equality over a shared space, within the larger
        of the two tolerances."""
        if self.space != other.space:
            raise StructuralError(
                "cannot compare distributions over different spaces"
            )
        return _same(self, other, max(self.tol, other.tol))


def _dist(space: tuple, nums: Sequence, den: int, tol=0, index=None) -> Dist:
    """A Dist from nonnegative integer numerators over `den` that sum to
    it, reduced to lowest terms. `index`, when given, is the space's
    checked label index."""
    g = gcd(*nums, den)
    if g != 1:
        nums, den = [n // g for n in nums], den // g
    if index is None:
        index = _index_of(space)
    d = object.__new__(Dist)
    _store(d, space, nums, den, tol, index)
    return d


def _store(d: Dist, space, nums, den: int, tol, index: dict) -> None:
    _set(d, "space", space)
    _set(d, "nums", tuple(nums))
    _set(d, "den", den)
    _set(d, "tol", tol)
    _set(d, "_index", index)
    _set(d, "_weights", None)


def _restore(space, nums, den, tol) -> Dist:
    return _dist(space, nums, den, tol)


def _observed(d: Dist) -> Dist:
    """`d` as an observed prior or belief: a float-origin weight at or below
    the tolerance counts as 0, and the rest are renormalised exactly."""
    if not d.tol:
        return d
    p, q = d.tol.as_integer_ratio()
    bound = p * d.den  # n/den <= p/q  <=>  n * q <= p * den
    kept = [n if n * q > bound else 0 for n in d.nums]
    if sum(kept) == d.den:
        return d
    return _dist(d.space, kept, sum(kept), d.tol, d._index)


def _lower(u: tuple, v: tuple) -> tuple:
    """The smaller of two (numerator, denominator) pairs."""
    return u if u[0] * v[1] <= v[0] * u[1] else v


def _upper(u: tuple, v: tuple) -> tuple:
    return v if u[0] * v[1] <= v[0] * u[1] else u


def _within(x: Sequence, lo: Sequence, hi: Sequence, bound: tuple) -> bool:
    """Whether lo[s] - tol <= x[s] <= hi[s] + tol at every coordinate s.
    x, lo and hi are sequences of (numerator, denominator) pairs, and
    bound = (p, q) is tol = p/q."""
    p, q = bound
    for (n, d), (a, b), (e, f) in zip(x, lo, hi):
        if (a * d - n * b) * q > p * b * d or (n * f - e * d) * q > p * d * f:
            return False
    return True


def _components(reps: Sequence[Dist], tol: Fraction) -> tuple:
    """The distinct beliefs `reps` joined when within tol in every
    coordinate, and through such joins. Returns the connected components,
    as lists of indices in order of first appearance, and the first
    component of more than two members that spans more than tol (None
    when there is none).

    The beliefs are swept in the order of one linear projection, and each
    is checked against the bounding box of every component with a member
    close enough in that projection to match. A belief inside the box
    shrunk by tol is within tol of every member, and joins; one outside
    the box grown by tol matches no member. Only in between are the
    members scanned, and there a match leaves a component wider than
    tol, which is refused. So a belief costs one box test per open
    component unless the input is refused or nearly so."""
    m, space = len(reps), reps[0].space
    bound = tol.as_integer_ratio()
    points = [[(n, r.den) for n in r.nums] for r in reps]
    # (i + 1) times the golden ratio, mod 1: distinct beliefs rarely share
    # a projection.
    coef = [(i + 1) * 0.6180339887498949 % 1 for i in range(len(space))]
    proj = [sum(map(mul, coef, [n / r.den for n in r.nums])) for r in reps]
    reach = 2 * float(tol) * sum(coef)  # twice the bound, for rounding
    root = list(range(m))
    boxes = {}  # root -> [lo, hi, members, largest projection]

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    def near(i, r):
        lo, hi, ids, _ = boxes[r]
        x = points[i]
        if _within(x, hi, lo, bound):  # within tol of every member
            return True
        return _within(x, lo, hi, bound) and any(
            proj[i] - proj[j] <= reach
            and _within(x, points[j], points[j], bound)
            for j in ids
        )

    live = []  # roots of components with a member within reach
    for i in sorted(range(m), key=proj.__getitem__):
        live = [r for r in live if proj[i] - boxes[r][3] <= reach]
        joined = [r for r in live if near(i, r)]
        if not joined:
            boxes[i] = [points[i], points[i], [i], proj[i]]
            live.append(i)
            continue
        # The largest component absorbs the others and belief i.
        joined.sort(key=lambda r: len(boxes[r][2]), reverse=True)
        base = boxes[joined[0]]
        parts = [boxes.pop(r) for r in joined[1:]]
        for lo, hi, ids, _ in parts + [(points[i], points[i], [i], None)]:
            base[0] = list(map(_lower, base[0], lo))
            base[1] = list(map(_upper, base[1], hi))
            base[2].extend(ids)
        for r in joined[1:] + [i]:
            root[r] = joined[0]
        base[3] = proj[i]
        live = [r for r in live if r in boxes]

    components = {}  # root -> members, in order of first appearance
    for i in range(m):
        components.setdefault(find(i), []).append(i)
    # Two beliefs joined directly are within tol; larger groups may chain.
    for r, ids in components.items():
        lo, hi = boxes[r][:2]
        if len(ids) > 2 and not _within(hi, lo, lo, bound):
            return list(components.values()), ids
    return list(components.values()), None


def _least(ds: list) -> Dist:
    """The distribution with the lexicographically least weights, compared
    by cross-multiplying integer numerators."""
    least = ds[0]
    for d in ds[1:]:
        for x, y in zip(d.nums, least.nums):
            if x * least.den != y * d.den:
                if x * least.den < y * d.den:
                    least = d
                break
    return least


def group_beliefs(beliefs: Sequence[Dist], tol: Fraction = 0) -> tuple:
    """Group beliefs over one shared space by identity: returns one
    representative per group, in order of first appearance, and each
    input's group index. Exact beliefs are the same exactly when their
    canonical (nums, den) pairs are. With tol > 0, beliefs within tol in
    every coordinate are joined (`_components`): groups do not depend on
    input order, the least member represents each, and one wider than tol
    is refused."""
    reps, first, groups, index = [], [], [], {}
    for i, b in enumerate(beliefs):
        g = index.setdefault((b.den, b.nums), len(reps))
        if g == len(reps):
            reps.append(b)
            first.append(i)
        groups.append(g)
    if not tol or len(reps) < 2:
        return reps, groups
    tol = Fraction(tol)
    members, wide = _components(reps, tol)
    if wide is not None:
        cols = zip(*(reps[i].weights for i in wide))
        for state, col in zip(reps[0].space, cols):
            lo, hi = min(col), max(col)
            if hi - lo > tol:
                a, b = sorted(first[wide[col.index(x)]] for x in (lo, hi))
                raise StructuralError(
                    "beliefs %d and %d differ by %.3g at %r, more than the "
                    "tolerance %g, but are joined through beliefs within it"
                    % (a, b, hi - lo, state, tol)
                )
    label = {}
    for g, ids in enumerate(members):
        for i in ids:
            label[i] = g
    merged = [_least([reps[i] for i in ids]) for ids in members]
    return merged, [label[g] for g in groups]


def pushforward(mu: Dist, proj: Mapping, space: Sequence) -> Dist:
    """Distribution over `space` induced by `mu` through the projection.

    `proj` maps each outcome of mu's space into `space`. The weight of a
    target outcome is the total mu-weight of its preimage.
    """
    space = tuple(space)
    index = {s: i for i, s in enumerate(space)}
    acc = [0] * len(space)
    for label, n in zip(mu.space, mu.nums):
        try:
            target = proj[label]
        except KeyError:
            raise StructuralError(
                "projection undefined at %r" % (label,)
            ) from None
        if target not in index:
            raise StructuralError(
                "projection sends %r to %r, outside the declared space"
                % (label, target)
            )
        acc[index[target]] += n
    return _dist(space, acc, mu.den, 0, _labels_checked(index, space))


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
    nums = [0] * len(mu.space)
    for s in cell:
        i = mu._index[s]
        nums[i] = mu.nums[i]
    total = sum(nums)
    if not total:
        raise ZeroProbabilityCell(
            "cell %s has zero probability; Bayes update undefined"
            % sorted(cell, key=repr)
        )
    return _dist(mu.space, nums, total, 0, mu._index)


class RnDerivative:
    """Pointwise likelihood ratio of a belief against a prior.

    `f` is defined on the support of the prior; `epsilon` = 1/max f lies in
    (0, 1] and equals 1 exactly when the belief agrees with the prior on the
    prior's support. `argmax` is the index of an outcome where f attains
    `max_f`. The three values are built from the integer weights when read.
    """

    __slots__ = ("_prior", "_belief", "argmax", "_f")

    def __init__(self, prior: Dist, belief: Dist, argmax: int):
        self._prior, self._belief, self.argmax = prior, belief, argmax
        self._f = None

    def _ratio_at(self, i: int) -> tuple:
        """f at outcome i as (numerator, denominator), unreduced."""
        return (
            self._belief.nums[i] * self._prior.den,
            self._prior.nums[i] * self._belief.den,
        )

    @property
    def f(self) -> dict:
        if self._f is None:
            p = self._prior
            self._f = {
                s: Fraction(*self._ratio_at(i))
                for i, s in enumerate(p.space)
                if p.nums[i]
            }
        return self._f

    @property
    def max_f(self) -> Fraction:
        return Fraction(*self._ratio_at(self.argmax))

    @property
    def epsilon(self) -> Fraction:
        num, den = self._ratio_at(self.argmax)
        return Fraction(den, num)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.f, self.max_f) == (other.f, other.max_f)

    __hash__ = None  # f is a dict

    def __repr__(self) -> str:
        return "RnDerivative(f=%r, max_f=%r, epsilon=%r)" % (
            self.f,
            self.max_f,
            self.epsilon,
        )


def rn_derivative(prior: Dist, belief: Dist) -> RnDerivative:
    """Compute d(belief)/d(prior) on the prior's support.

    Raises AbsoluteContinuityViolation if the belief charges any outcome of
    zero prior weight. On a finite space absolute continuity automatically
    gives a bounded derivative, so `max_f` always exists. The argmax of
    b/p is found by cross-multiplying integer numerators.
    """
    if prior.space != belief.space:
        raise StructuralError("prior and belief must share a space")
    ps, bs = prior.nums, belief.nums
    bad = [s for s, p, b in zip(prior.space, ps, bs) if not p and b]
    if bad:
        raise AbsoluteContinuityViolation(bad)
    best, bp, bb = None, 0, 0
    for i, (p, b) in enumerate(zip(ps, bs)):
        if p and (best is None or b * bp > bb * p):
            best, bp, bb = i, p, b
    return RnDerivative(prior, belief, best)


def martingale_check(
    weights: Sequence, posteriors: Sequence[Dist], prior: Dist
):
    """Mean of the posteriors under `weights` (converted exactly), and
    whether it equals the prior within the largest tolerance of the prior
    and the posteriors. Returns (holds, mean_posterior); raises
    StructuralError when the weights do not sum to 1.

    Takes O(k * n) operations on integers of the lcm of the k posteriors'
    and the weights' denominators, for n outcomes."""
    tol = max([prior.tol] + [p.tol for p in posteriors])
    wnums, wden = _vector([Fraction(w).as_integer_ratio() for w in weights])
    if len(wnums) != len(posteriors):
        raise StructuralError(
            "got %d weights for %d posteriors" % (len(wnums), len(posteriors))
        )
    if any(post.space != prior.space for post in posteriors):
        raise StructuralError("posterior space differs from the prior's")
    n, den = len(prior.space), lcm(*(p.den for p in posteriors))
    scale = [w * (den // p.den) for w, p in zip(wnums, posteriors)]
    cols = zip(*(p.nums for p in posteriors)) if posteriors else [()] * n
    acc = [sum(map(mul, scale, col)) for col in cols]
    den *= wden
    if sum(acc) != den or min(acc) < 0:
        # Weights that do not sum to 1, or negative ones: the constructor
        # raises for the mean, with its messages.
        Dist(prior.space, [Fraction(a, den) for a in acc])
    holds = _close(acc, den, prior.nums, prior.den, tol)
    return holds, _dist(prior.space, acc, den, 0, prior._index)


@dataclass(frozen=True)
class WeightedPosteriors:
    """A finitely-supported distribution over posterior beliefs.

    Items are (weight, belief) pairs over a shared outcome space. Duplicate
    beliefs (the same under `group_beliefs`) are merged at construction by
    summing their weights, so the stored items enumerate the support. A
    float weight must exceed TOL; beliefs are taken as observed. The merged
    weights are also kept as integers, `nums` over `den` in lowest terms.
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
                raise StructuralError(_NONPOSITIVE % (TOL, w))
        # The entry weights form a distribution over the entries.
        try:
            entries = Dist(range(len(items)), tuple(w for w, _ in items))
        except StructuralError as err:
            raise StructuralError("posterior %s" % err) from None
        self._merge(entries, [b for _, b in items])

    @classmethod
    def _from_ratios(
        cls, ratios: list, tol, beliefs: list
    ) -> "WeightedPosteriors":
        """Posteriors with weights given as reduced (numerator,
        denominator) pairs, float-origin when tol is set, and beliefs
        known to be Dists over one space; checked as the constructor
        checks its items."""
        for n, d in ratios:
            if not (n * _TOL_Q > _TOL_P * d if tol else n > 0):
                raise StructuralError(_NONPOSITIVE % (TOL, _shown(n, d, tol)))
        try:
            entries = Dist._from_ratios(range(len(ratios)), ratios, tol)
        except StructuralError as err:
            raise StructuralError("posterior %s" % err) from None
        wp = object.__new__(cls)
        wp._merge(entries, beliefs)
        return wp

    def _merge(self, entries: Dist, beliefs: list) -> None:
        beliefs = [_observed(b) for b in beliefs]
        tol = max([entries.tol] + [b.tol for b in beliefs])
        reps, groups = group_beliefs(beliefs, tol)
        sums = [0] * len(reps)
        for n, g in zip(entries.nums, groups):
            sums[g] += n
        den = entries.den
        _set(self, "items", tuple(zip((Fraction(n, den) for n in sums), reps)))
        _set(self, "tol", tol)
        g = gcd(*sums, den)
        _set(self, "nums", tuple(n // g for n in sums))
        _set(self, "den", den // g)

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
        _set(self, "prior", _observed(self.prior))
        _set(self, "tol", max(self.prior.tol, self.posteriors.tol))

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

    def violations(self) -> tuple:
        """All prior-null outcomes charged by some posterior."""
        seen = []
        for e in self.entries:
            for s in e.violations:
                if s not in seen:
                    seen.append(s)
        return tuple(seen)
