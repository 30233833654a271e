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
(`io._number_texts`). Positivity is exact. `group_beliefs` alone decides
which beliefs are equal. Every tolerance is TOL or 0, and data combined
from several takes the largest (`_joint_tol`).

Float-origin data still costs more than exact data in three places. Its
integers are larger: a float's numerator has up to 53 bits over a power
of two, and a float row's denominator is its exact total, so every lcm,
gcd and product works on numbers of 55 bits or more where small exact
data needs a few bits. Each float row is renormalised and thresholded
(`_settle`, `_observed`). And beliefs under TOL are grouped by a
projection and a sort where exact ones take one dict pass; only beliefs
that come within reach of another are swept (`_components`). A model
verified against float-origin data has its cells paired with the
observed beliefs they reproduce without a sweep (`rationalize._matched`).
On the 84 shapes of the benchmark's `sweep` workload, in process on a
shared 2-vCPU host (Python 3.11.7), its five CLI calls took 12-21%
longer on float files than on exact ones, `verify` 16-22%; on the eight
shapes with n = 5-8 and k = 5-6, 21-25% and 22-25%.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence
from decimal import Context
from fractions import Fraction
from itertools import compress, repeat
from math import gcd, lcm
from numbers import Rational
from operator import floordiv, mul

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


def _ratios(weights: tuple) -> list:
    """The weights as exact (numerator, denominator) pairs. A NaN or
    infinite weight raises StructuralError, as a total that is not 1."""
    try:
        return list(map(_ratio, weights))
    except (ValueError, OverflowError):  # NaN or infinite
        raise StructuralError(
            "weights sum to %r, expected 1 within %g"
            % (sum(map(float, weights)), TOL)
        ) from None


def _shown(num: int, den: int, tol) -> str:
    """The weight num/den as an error message shows it: as the float it
    came from when tol is set, else as p/q in lowest terms. A value that
    no float holds, or whose p or q has more digits than str() of an int
    gives (4300 by default), is shown to six digits, as "1e+4300"."""
    try:
        return str(num / den) if tol else str(Fraction(num, den))
    except (OverflowError, ValueError):
        return format(Context(6).divide(num, den).normalize(), "g")


def _zero_limit(den: int, tol) -> int:
    """The largest numerator over `den` of a weight at or below the zero
    threshold: floor(TOL * den) for float-origin data (tol set), else 0.
    n/den <= TOL  <=>  n * Q <= P * den  <=>  n <= P * den // Q, for TOL =
    P/Q and an integer n."""
    return _TOL_P * den // _TOL_Q if tol else 0


def _joint_tol(*tols):
    """The largest of the tolerances `tols`. Each is TOL or 0, so it is
    the first one set, found without comparing Fractions."""
    return next(filter(None, tols), 0)


def _vector(pairs: list) -> tuple:
    """Reduced (numerator, denominator) pairs as integer numerators over
    the lcm of the denominators: returns (numerators, lcm), ([], 1) for no
    pairs."""
    nums, dens = zip(*pairs) if pairs else ((), ())
    den = lcm(*dens)
    return list(map(mul, nums, map(floordiv, repeat(den), dens))), den


def _close(a: Sequence, da: int, b: Sequence, db: int, tol) -> bool:
    """Whether a[i]/da equals b[i]/db within `tol`, TOL or 0, at every i
    (exactly when tol is 0)."""
    if not tol:
        return all(x * db == y * da for x, y in zip(a, b))
    bound = _TOL_P * da * db
    return all(abs(x * db - y * da) * _TOL_Q <= bound for x, y in zip(a, b))


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


class _Frozen:
    """An immutable value, built by its class's constructor: assignment
    raises `dataclasses.FrozenInstanceError`, as on a frozen dataclass.
    `dataclasses`, which brings `inspect` and `ast` with it, is imported
    only when an assignment or a deletion raises. A subclass lists
    every attribute it stores in `__slots__`, its caches last, named
    with a leading "_", and its constructor's arguments in `_fields`,
    which equality, hashing and the repr read, in the order and form of
    a frozen dataclass's. A pickle holds the slots without a leading
    "_", so its bytes do not depend on what was read, and a value
    unpickles with its caches unset."""

    __slots__ = ()
    _fields = ()

    def _init(self, *values) -> None:
        """Store `values` in the slots, in order."""
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError("cannot delete field %r" % name)

    def __getstate__(self) -> tuple:
        slots = self.__slots__
        return tuple([getattr(self, name) for name in slots if name[0] != "_"])

    def __setstate__(self, values: tuple) -> None:
        self._init(*values)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join("%s=%r" % f for f in zip(self._fields, self._values())),
        )


class Dist(_Frozen):
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
        space, weights, tol = tuple(space), tuple(weights), 0
        types = set(map(type, weights))
        if types <= {Fraction}:
            ratios = list(map(Fraction.as_integer_ratio, weights))
        else:
            # The float boundary: every weight is converted exactly.
            if not all(issubclass(t, Rational) for t in types):
                tol = _TOL
            ratios = _ratios(weights)
        if len(space) != len(ratios):
            raise StructuralError(
                "space has %d outcomes but %d weights were given"
                % (len(space), len(ratios))
            )
        self._settle(space, *_vector(ratios), tol, None)
        if types <= {Fraction}:
            _set(self, "_weights", weights)  # plain Fractions, as stored

    def _settle(self, space, nums, den, tol, index) -> None:
        """Check integer numerators `nums` over `den`, one per outcome of
        `space`, as weights, and store them in lowest terms. `index` is
        the space's label index when already checked. A total within tol
        of 1 is renormalised exactly."""
        if index is None:
            index = _index_of(space)
        if min(nums, default=0) < 0:
            i = next(i for i, x in enumerate(nums) if x < 0)
            raise StructuralError(
                "negative weight %s at outcome %r"
                % (_shown(nums[i], den, tol), space[i])
            )
        total = sum(nums)
        if total != den:
            if not tol:
                raise StructuralError(
                    "weights sum to %s, expected 1" % _shown(total, den, 0)
                )
            # |total/den - 1| > TOL
            if abs(total - den) * _TOL_Q > _TOL_P * den:
                raise StructuralError(
                    "weights sum to %s, expected 1 within %g"
                    % (_shown(total, den, tol), tol)
                )
            den = total
        _store(self, space, nums, den, tol, index)

    @classmethod
    def _from_vector(
        cls, space: tuple, nums: list, den: int, tol, index: dict = None
    ) -> "Dist":
        """A Dist from integer numerators `nums`, one per outcome, over
        `den`, checked as the constructor checks weights and reduced to
        lowest terms; tol is TOL for float-origin numbers. `index` is the
        space's label index when already checked."""
        d = object.__new__(cls)
        d._settle(space, nums, den, tol, index)
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

    def __reduce__(self):
        return _dist, (self.space, self.nums, self.den, self.tol)

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
        labels, index = set(labels), self._index
        if not index.keys() >= labels:
            raise StructuralError(
                "subset contains labels outside the space: %s"
                % self._unknown(labels)
            )
        at = map(index.__getitem__, labels)
        return Fraction(sum(map(self.nums.__getitem__, at)), self.den)

    def support(self) -> tuple:
        """Outcomes carrying positive weight."""
        return tuple(s for s, n in zip(self.space, self.nums) if n)

    def matches(self, other: "Dist") -> bool:
        """Coordinate-wise equality over a shared space, within the larger
        of the two tolerances; two exact distributions are equal exactly
        when their canonical pairs are."""
        if self.space != other.space:
            raise StructuralError(
                "cannot compare distributions over different spaces"
            )
        if not (self.tol or other.tol):
            return self.den == other.den and self.nums == other.nums
        return _same(self, other, _joint_tol(self.tol, other.tol))


def _dist(space: tuple, nums: Sequence, den: int, tol=0, index=None) -> Dist:
    """A Dist from nonnegative integer numerators over `den` that sum to
    it, reduced to lowest terms, unchecked. `index`, when given, is the
    space's checked label index."""
    if index is None:
        index = _index_of(space)
    d = object.__new__(Dist)
    _store(d, space, nums, den, tol, index)
    return d


def _store(d: Dist, space, nums, den: int, tol, index: dict) -> None:
    """Set d's fields from weights nums/den, reduced to lowest terms."""
    g = gcd(*nums, den)
    if g != 1:
        nums, den = [n // g for n in nums], den // g
    _set(d, "space", space)
    _set(d, "nums", tuple(nums))
    _set(d, "den", den)
    _set(d, "tol", tol)
    _set(d, "_index", index)
    _set(d, "_weights", None)


def _observed(d: Dist) -> Dist:
    """`d` as an observed prior or belief: a float-origin weight at or below
    the tolerance counts as 0, and the rest are renormalised exactly."""
    if not d.tol:
        return d
    limit = _zero_limit(d.den, d.tol)
    if min(filter(None, d.nums)) > limit:  # no weight in (0, TOL]
        return d
    kept = [n if n > limit else 0 for n in d.nums]
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


def _projections(beliefs: Sequence[Dist], tol: Fraction) -> tuple:
    """One linear projection of each belief, over a space of n outcomes,
    and `reach`: two beliefs within tol in every coordinate project at
    most reach apart, with room for rounding. Returns (projections,
    reach)."""
    # (i + 1) times the golden ratio, mod 1, in units of 2**-32: distinct
    # beliefs rarely share a projection, and each projection is one
    # correctly rounded division of integers.
    n = len(beliefs[0].space)
    coef = [(i + 1) * 0x9E3779B9 % 2**32 for i in range(n)]
    proj = [sum(map(mul, coef, b.nums)) / b.den for b in beliefs]
    p, q = tol.as_integer_ratio()
    # twice the bound on a matching pair's distance, for rounding
    return proj, 2 * sum(coef) * p / q


def _components(reps: Sequence[Dist], tol: Fraction):
    """The distinct beliefs `reps` joined when within tol in every
    coordinate, and through such joins. Returns the connected components,
    as lists of indices in order of first appearance, and the first
    component of more than two members that spans more than tol (None
    when there is none); or returns None when no two beliefs come within
    reach, so each is a component of its own.

    The beliefs are sorted by one linear projection. One whose neighbours
    in that order both project beyond `reach` matches no other belief and
    is a component of its own; that takes one projection, and the sort, per
    belief, which is all an observation's beliefs usually cost. The others
    are swept in that order, and each is checked against the bounding box
    of every component with a member close enough in that projection to
    match. A belief inside the box shrunk by tol is within tol of every
    member, and joins; one outside the box grown by tol matches no member.
    Only in between are the members scanned, and there a match leaves a
    component wider than tol, which is refused. So a swept belief costs its
    coordinate pairs and one box test per open component unless the input
    is refused or nearly so."""
    m, bound = len(reps), tol.as_integer_ratio()
    proj, reach = _projections(reps, tol)
    order = sorted(range(m), key=proj.__getitem__)
    close = [proj[j] - proj[i] <= reach for i, j in zip(order, order[1:])]
    if not any(close):
        return None
    swept = [
        i
        for i, before, after in zip(order, [False, *close], [*close, False])
        if before or after
    ]
    points = {i: [(n, reps[i].den) for n in reps[i].nums] for i in swept}
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
    for i in swept:
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
        if len(ids) > 2:
            lo, hi = boxes[r][:2]
            if not _within(hi, lo, lo, bound):
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
    is refused.

    Takes one dict pass over the beliefs. With tol > 0 and two or more
    distinct beliefs, add one projection of each and one sort; only when
    two projections come within reach of each other, the sweep of
    `_components` over those that do, and the relabelling of the
    groups."""
    reps, first, groups, index = [], [], [], {}
    for i, b in enumerate(beliefs):
        g = index.setdefault((b.den, b.nums), len(reps))
        if g == len(reps):
            reps.append(b)
            first.append(i)
        groups.append(g)
    if not tol or len(reps) < 2:
        return reps, groups
    if not isinstance(tol, Fraction):
        tol = Fraction(tol)
    found = _components(reps, tol)
    if found is None:  # no two beliefs within reach: the groups stand
        return reps, groups
    members, wide = found
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

    Takes O(|mu's space| + |space|) dict lookups, made in C, and one
    Python addition per outcome of positive weight.
    """
    space = tuple(space)
    index = {s: i for i, s in enumerate(space)}
    try:
        at = list(map(index.__getitem__, map(proj.__getitem__, mu.space)))
    except KeyError:  # name the first outcome that does not map
        for label in mu.space:
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
                ) from None
        raise
    acc = [0] * len(space)
    nums = mu.nums
    for i, n in zip(compress(at, nums), compress(nums, nums)):
        acc[i] += n
    return _dist(space, acc, mu.den, 0, _labels_checked(index, space))


def condition(mu: Dist, cell: Iterable) -> Dist:
    """Elementary Bayes update of `mu` on a cell of positive probability.

    The result lives on the same space, with zero weight outside the cell.
    Raises ZeroProbabilityCell when the cell carries no mass.
    """
    cell, index = frozenset(cell), mu._index
    if not index.keys() >= cell:
        raise StructuralError(
            "cell contains labels outside the space: %s" % mu._unknown(cell)
        )
    nums, weights = [0] * len(mu.space), mu.nums
    for i in map(index.__getitem__, cell):
        nums[i] = weights[i]
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
    A pickle holds the prior, the belief and `argmax` only.
    """

    __slots__ = ("_prior", "_belief", "argmax", "_f")

    def __init__(self, prior: Dist, belief: Dist, argmax: int):
        self._prior, self._belief, self.argmax = prior, belief, argmax
        self._f = None

    def __reduce__(self):
        return RnDerivative, (self._prior, self._belief, self.argmax)

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


def _added(u: tuple, v: tuple) -> tuple:
    """The sum of two vectors of numerators over a denominator, (nums,
    den), over the lcm of the two denominators."""
    (a, da), (b, db) = u, v
    den = lcm(da, db)
    sa, sb = den // da, den // db
    return [x * sa + y * sb for x, y in zip(a, b)], den


def martingale_check(
    weights: Sequence, posteriors: Sequence[Dist], prior: Dist
):
    """Mean of the posteriors under `weights` (converted exactly), and
    whether it equals the prior within the largest tolerance of the prior
    and the posteriors. Returns (holds, mean_posterior); raises
    StructuralError when the weights do not sum to 1.

    Takes O(k * n) operations for k posteriors over n outcomes. The
    weighted posteriors are summed in pairs, then pairs of pairs, so that
    each lcm joins two denominators of about the same size: on float-origin
    data, where each posterior's denominator is its own 55-bit integer and
    the mean's grows by about that much per posterior, a left fold would
    multiply the growing lcm k times. On 5 states with random float
    beliefs a left fold took 0.09, 0.30 and 0.81 s at k = 1000, 2000 and
    4000, and the pairwise sum 0.025, 0.064 and 0.22 s (in process, Python
    3.11.7, shared 2-vCPU host)."""
    tol = _joint_tol(prior.tol, *[p.tol for p in posteriors])
    wnums, wden = _vector(_ratios(tuple(weights)))
    if len(wnums) != len(posteriors):
        raise StructuralError(
            "got %d weights for %d posteriors" % (len(wnums), len(posteriors))
        )
    if any(post.space != prior.space for post in posteriors):
        raise StructuralError("posterior space differs from the prior's")
    terms = [
        ([w * x for x in p.nums], p.den) for w, p in zip(wnums, posteriors)
    ]
    while len(terms) > 1:
        pairs = [_added(a, b) for a, b in zip(terms[::2], terms[1::2])]
        terms = pairs + terms[2 * len(pairs) :]
    acc, den = terms[0] if terms else ([0] * len(prior.space), 1)
    # Weights that do not sum to 1, or negative ones, fail the mean's
    # checks, with the constructor's messages.
    mean = Dist._from_vector(prior.space, acc, den * wden, 0, prior._index)
    return _close(mean.nums, mean.den, prior.nums, prior.den, tol), mean


class WeightedPosteriors(_Frozen):
    """A finitely-supported distribution over posterior beliefs.

    Items are (weight, belief) pairs over a shared outcome space. Duplicate
    beliefs (the same under `group_beliefs`) are merged at construction by
    summing their weights, so the items enumerate the support. A float
    weight must exceed TOL; beliefs are taken as observed. The merged
    weights are kept as integers, `nums` over `den` in lowest terms, and
    the merged beliefs as `beliefs`; `items` pairs them, with the weights
    as Fractions, when first read.
    """

    __slots__ = ("beliefs", "nums", "den", "tol", "_items")
    _fields = ("items",)

    def __init__(self, items: tuple):
        items = list(items)
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
    def _from_vector(
        cls, nums: list, den: int, tol, beliefs: list
    ) -> "WeightedPosteriors":
        """Posteriors with weights given as integer numerators `nums` over
        `den`, in lowest terms or not, float-origin when tol is set, and
        beliefs known to be Dists over one space; checked as the
        constructor checks its items."""
        limit = _zero_limit(den, tol)
        if nums and min(nums) <= limit:
            shown = _shown(next(n for n in nums if n <= limit), den, tol)
            raise StructuralError(_NONPOSITIVE % (TOL, shown))
        space = tuple(range(len(nums)))
        try:
            entries = Dist._from_vector(space, nums, den, tol)
        except StructuralError as err:
            raise StructuralError("posterior %s" % err) from None
        wp = object.__new__(cls)
        wp._merge(entries, beliefs)
        return wp

    def _merge(self, entries: Dist, beliefs: list) -> None:
        beliefs = [_observed(b) for b in beliefs]
        tol = _joint_tol(entries.tol, *[b.tol for b in beliefs])
        reps, groups = group_beliefs(beliefs, tol)
        sums = [0] * len(reps)
        for n, g in zip(entries.nums, groups):
            sums[g] += n
        den = entries.den
        g = gcd(*sums, den)
        nums = tuple(n // g for n in sums)
        self._init(tuple(reps), nums, den // g, tol)

    @property
    def items(self) -> tuple:
        """The (weight, belief) pairs, weights as plain Fractions, built
        when first read."""
        # Unset until first read, or None where an older pickle held it.
        items = getattr(self, "_items", None)
        if items is None:
            den = self.den
            weights = [Fraction(n, den) for n in self.nums]
            items = tuple(zip(weights, self.beliefs))
            _set(self, "_items", items)
        return items

    @property
    def space(self) -> tuple:
        return self.beliefs[0].space

    @property
    def weights(self) -> tuple:
        return tuple(w for w, _ in self.items)

    def __len__(self) -> int:
        return len(self.beliefs)


class Observation(_Frozen):
    """What the econometrician sees: a prior over the payoff-relevant states
    and the population distribution of posteriors over the same states.
    The prior is taken as observed (`_observed`)."""

    __slots__ = ("prior", "posteriors", "tol")
    _fields = ("prior", "posteriors")

    def __init__(self, prior: Dist, posteriors: WeightedPosteriors):
        if prior.space != posteriors.space:
            raise StructuralError(
                "prior and posteriors must share one outcome space"
            )
        prior = _observed(prior)
        self._init(prior, posteriors, _joint_tol(prior.tol, posteriors.tol))

    @property
    def space(self) -> tuple:
        return self.prior.space

    @property
    def is_exact(self) -> bool:
        return not self.tol


class RnEntry(
    namedtuple("RnEntry", "index derivative violations", defaults=((),))
):
    """Per-posterior outcome of the likelihood-ratio screen: the
    derivative, or None and the prior-null outcomes the posterior
    charges."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.derivative is not None


class RnReport(namedtuple("RnReport", "entries overall_pass")):
    """Result of screening every posterior in an observation for absolute
    continuity with respect to the prior."""

    __slots__ = ()

    def violations(self) -> tuple:
        """All prior-null outcomes charged by some posterior."""
        seen = []
        for e in self.entries:
            for s in e.violations:
                if s not in seen:
                    seen.append(s)
        return tuple(seen)
