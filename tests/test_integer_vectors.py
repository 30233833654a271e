"""Exact distributions as canonical integer vectors: a `Dist` keeps its
weights as numerators over one denominator in lowest terms, the layers
above compute on those integers, and the results equal what plain
`Fraction` arithmetic gives."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import beliefcheck.dist as dist
from beliefcheck import (
    TOL,
    Dist,
    StructuralError,
    WeightedPosteriors,
    construct_rationalization,
    target_mix,
    uniform_mix,
)
from beliefcheck.dist import group_beliefs
from beliefcheck.io import _number
from genobs import random_observation

S2 = ("H", "L")


@st.composite
def weight_vectors(draw):
    """Exact weights summing to 1 (small and large denominators), or
    floats normalised by their float sum."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        raw = draw(
            st.lists(st.integers(0, 50), min_size=n, max_size=n).filter(sum)
        )
        scale = draw(st.sampled_from((1, 3, 10**9 + 7)))
        return [Fraction(r * scale, sum(raw) * scale) for r in raw]
    raw = draw(
        st.lists(
            st.floats(0, 1, allow_subnormal=False), min_size=n, max_size=n
        ).filter(lambda xs: sum(xs) > 0.5)
    )
    return [x / sum(raw) for x in raw]


def assert_canonical(d):
    assert d.den > 0 and min(d.nums) >= 0 and sum(d.nums) == d.den
    assert gcd(*d.nums, d.den) == 1
    assert all(Fraction(n, d.den) == w for n, w in zip(d.nums, d.weights))
    assert all(type(w) is Fraction for w in d.weights)


@settings(max_examples=200, deadline=None)
@given(weight_vectors(), weight_vectors())
def test_the_stored_pair_is_canonical(xs, ys):
    a = Dist(tuple("s%d" % i for i in range(len(xs))), xs)
    assert_canonical(a)
    if len(ys) != len(xs):
        return
    b = Dist(a.space, ys)
    assert_canonical(b)
    same = (a.nums, a.den) == (b.nums, b.den)
    assert same == (a.weights == b.weights) == (a == b)
    # The same values, given as other objects, give the same pair.
    c = Dist(a.space, [Fraction(w) for w in a.weights])
    assert (c.nums, c.den) == (a.nums, a.den) and c == a
    assert hash(c) == hash(a)


def reference_rows(obs, lam):
    """mu0 and pObj as the construction defines them, in plain Fraction
    arithmetic: eps = 1 / max(b/p), a "+" row eps*b*lam, a "-" row
    (p - eps*b)*lam, and pObj p*w on the "+" rows."""
    plus, minus, p_obj = [], [], []
    prior = obs.prior.weights
    for (w, belief), lam_i in zip(obs.posteriors.items, lam.weights):
        eps = 1 / max(b / p for p, b in zip(prior, belief.weights) if p)
        for p, b in zip(prior, belief.weights):
            plus.append(eps * b * lam_i)
            minus.append((p - eps * b) * lam_i)
            p_obj.append(p * w)
    return tuple(plus + minus), tuple(p_obj + [Fraction(0)] * len(minus))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    n=st.integers(1, 6),
    k=st.integers(1, 6),
    max_den=st.sampled_from((3, 9, 1000)),
)
def test_construct_equals_the_fraction_reference(seed, n, k, max_den):
    obs = random_observation(random.Random(seed), n, k, max_den)
    for mix in (uniform_mix, target_mix):
        lam = mix(obs)
        model = construct_rationalization(obs, lam)
        mu0, p_obj = reference_rows(obs, lam)
        assert model.mu0.weights == mu0
        assert model.pObj.weights == p_obj
        assert_canonical(model.mu0)
        assert_canonical(model.pObj)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32), n=st.integers(2, 6), k=st.integers(1, 6))
def test_construct_equals_the_fraction_reference_on_float_data(seed, n, k):
    rng = random.Random(seed)

    def floats():
        xs = [rng.random() ** rng.choice((1, 4)) for _ in range(n)]
        return tuple(x / sum(xs) for x in xs)

    try:
        obs = dist.Observation(
            Dist(tuple("s%d" % i for i in range(n)), floats()),
            WeightedPosteriors(
                tuple(
                    (w, Dist(tuple("s%d" % i for i in range(n)), floats()))
                    for w in floats()[:k]
                )
            ),
        )
    except StructuralError:
        assume(False)
    for mix in (uniform_mix, target_mix):
        try:
            model = construct_rationalization(obs, mix(obs))
        except Exception:  # a posterior may not be absolutely continuous
            assume(False)
        assert (model.mu0.weights, model.pObj.weights) == reference_rows(
            obs, mix(obs)
        )


def test_crowded_float_grouping_makes_linearly_many_comparisons(monkeypatch):
    """k two-state float beliefs 1e-15 apart are all within TOL of one
    another: each is compared with one bounding box, not with every
    earlier belief."""
    calls = [0]
    within = dist._within

    def counted(*args):
        calls[0] += 1
        return within(*args)

    monkeypatch.setattr(dist, "_within", counted)
    for k in (250, 1000, 2000):
        beliefs = [
            Dist(S2, (0.5 + j * 1e-15, 0.5 - j * 1e-15)) for j in range(k)
        ]
        random.Random(k).shuffle(beliefs)
        calls[0] = 0
        reps, groups = group_beliefs(beliefs, TOL)
        assert len(reps) == 1 and set(groups) == {0}
        assert calls[0] <= 2 * k


def reference_components(beliefs, tol):
    """Pairwise reference for float grouping: the connected components of
    "within tol in every coordinate", as sets of input positions, or None
    when a component of more than two beliefs spans more than tol."""
    weights = [b.weights for b in beliefs]
    root = list(range(len(beliefs)))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for i, wi in enumerate(weights):
        for j in range(i):
            if all(abs(x - y) <= tol for x, y in zip(wi, weights[j])):
                root[find(i)] = find(j)
    blocks = {}
    for i in range(len(beliefs)):
        blocks.setdefault(find(i), set()).add(i)
    for ids in blocks.values():
        cols = zip(*(weights[i] for i in ids))
        if len(ids) > 2 and any(max(c) - min(c) > tol for c in cols):
            return None
    return {frozenset(ids) for ids in blocks.values()}


# Offsets around the tolerance, so that beliefs fall inside, just outside
# and between the boxes the grouping tests them against.
STEPS = (0, 1e-10, 3e-10, 5e-10, 7e-10, 9.9e-10, 1e-9, 1.01e-9, 1.5e-9, 3e-9)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_float_grouping_equals_the_pairwise_reference(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    space = tuple("s%d" % i for i in range(n))
    base = [rng.random() + 0.1 for _ in range(n)]
    centres = [[x / sum(base) for x in base]]
    for _ in range(2):
        shift = [rng.choice(STEPS) * rng.choice((-1, 0, 1)) for _ in base]
        centres.append([x + d for x, d in zip(centres[0], shift)])
    beliefs = []
    for _ in range(rng.randint(2, 14)):
        coords = [
            x + rng.choice(STEPS) * rng.choice((-1, 0, 1)) * rng.random()
            for x in rng.choice(centres)[:-1]
        ]
        beliefs.append(Dist(space, (*coords, 1 - sum(coords))))
    distinct = list(dict.fromkeys(beliefs))
    expected = reference_components(distinct, dist._TOL)
    if expected is None:
        with pytest.raises(StructuralError, match="more than the tolerance"):
            group_beliefs(beliefs, TOL)
        return
    reps, groups = group_beliefs(beliefs, TOL)
    blocks = {}
    for b, g in zip(beliefs, groups):
        blocks.setdefault(g, set()).add(distinct.index(b))
    assert {frozenset(ids) for ids in blocks.values()} == expected
    assert len(reps) == len(expected)


@pytest.mark.parametrize(
    "text",
    ["0.1", "-2.5e-3", ".5", "5.", "1E5", "+0.30000000000000004", "-0",
     "1e-400", "1e308", "1.7976931348623159e308", "3/7", "007/12"],
)
def test_float_mode_reads_the_nearest_float_of_the_exact_value(text):
    try:
        expected = float(Fraction(text)).as_integer_ratio()
    except OverflowError:
        with pytest.raises(Exception, match="out of range for float mode"):
            _number(text, "float")
        return
    assert _number(text, "float") == expected


@settings(max_examples=150, deadline=None)
@given(
    st.from_regex(
        r"\A[-+]?[0-9]{0,20}(\.[0-9]{0,20})?([eE][-+]?[0-9]{1,3})?\Z"
    )
)
def test_float_mode_decimals_agree_with_fraction(text):
    try:
        expected = float(Fraction(text)).as_integer_ratio()
    except (ValueError, ZeroDivisionError, OverflowError):
        with pytest.raises(Exception):
            _number(text, "float")
        return
    assert _number(text, "float") == expected



def wp_key(wp):
    return wp.items, wp.nums, wp.den, wp.tol


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(1, 40), min_size=1, max_size=6),
    st.integers(1, 12),
    st.integers(1, 3),
)
def test_weighted_posteriors_from_an_unreduced_vector(raw, factor, kinds):
    """Weights over a denominator they share a factor with, as cell totals
    over pObj's denominator or counts over the panel size, give what the
    public constructor gives on the reduced Fractions."""
    nums, den = [x * factor for x in raw], sum(raw) * factor
    beliefs = [
        Dist(S2, (Fraction(i % kinds, kinds), 1 - Fraction(i % kinds, kinds)))
        for i in range(len(raw))
    ]
    wp = WeightedPosteriors._from_vector(nums, den, 0, beliefs)
    public = WeightedPosteriors(
        tuple((Fraction(n, den), b) for n, b in zip(nums, beliefs))
    )
    assert wp == public and wp_key(wp) == wp_key(public)
    assert gcd(*wp.nums, wp.den) == 1


@pytest.mark.parametrize(
    "weights",
    [
        (Fraction(0), Fraction(1)),
        (Fraction(-1, 2), Fraction(3, 2)),
        (0, 1),
        (-1, 2),
        (0.0, 1.0),
        (1e-10, 1 - 1e-10),
        (-0.5, 1.5),
        (Fraction(1, 2), Fraction(1, 3)),
        (1, 1),
        (0.5, 0.4),
        (0.25, 0.25, 0.25),
    ],
)
def test_weighted_posteriors_from_a_vector_raises_the_public_message(weights):
    beliefs = [
        Dist(S2, (Fraction(i + 1, 5), Fraction(4 - i, 5)))
        for i in range(len(weights))
    ]
    with pytest.raises(StructuralError) as public:
        WeightedPosteriors(tuple(zip(weights, beliefs)))
    tol = dist._TOL if isinstance(weights[0], float) else 0
    nums, den = dist._vector([dist._ratio(w) for w in weights])
    for scale in (1, 6):  # in lowest terms, and not
        with pytest.raises(StructuralError) as err:
            WeightedPosteriors._from_vector(
                [n * scale for n in nums], den * scale, tol, beliefs
            )
        assert str(err.value) == str(public.value)


def test_a_dist_from_an_unreduced_vector_is_stored_in_lowest_terms():
    space = ("a", "b", "c")
    d = Dist._from_vector(space, [6, 10, 14], 30, 0)
    assert (d.nums, d.den) == ((3, 5, 7), 15)
    assert gcd(*d.nums, d.den) == 1
    assert d == Dist(space, (Fraction(1, 5), Fraction(1, 3), Fraction(7, 15)))
    # A float-origin total within the tolerance is renormalised, then
    # reduced.
    big = 10**12
    e = Dist._from_vector(space, [big, big, big + 2], 3 * big, dist._TOL)
    assert (e.nums, e.den) == ((big // 2, big // 2, big // 2 + 1), e.den)
    assert e.den == (3 * big + 2) // 2 and e.tol == dist._TOL
