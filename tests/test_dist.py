from fractions import Fraction
from numbers import Rational

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefcheck import (
    AbsoluteContinuityViolation,
    Dist,
    Observation,
    StructuralError,
    WeightedPosteriors,
    ZeroProbabilityCell,
    condition,
    construct_rationalization,
    martingale_check,
    pushforward,
    rn_derivative,
    tv_distance,
    verify_model,
)
from beliefcheck.dist import group_beliefs

S2 = ("H", "L")
COLS = ("0.8+", "1.0+", "0.8-", "1.0-")
OMEGA = tuple("%s|%s" % (s, c) for s in S2 for c in COLS)
PROJ = {w: w.split("|")[0] for w in OMEGA}

SUBJECTIVE = Dist(
    OMEGA,
    tuple(
        Fraction(x)
        for x in (
            "1/4", "1/4", "0", "0",  # H row
            "1/16", "0", "3/16", "1/4",  # L row
        )
    ),
)
OBJECTIVE = Dist(
    OMEGA,
    tuple(
        Fraction(x)
        for x in ("1/8", "3/8", "0", "0", "1/8", "3/8", "0", "0")
    ),
)


def col(label):
    return ["%s|%s" % (s, label) for s in S2]


class TestDistConstruction:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(StructuralError):
            Dist(S2, (Fraction(1, 2), Fraction(1, 3)))

    def test_float_tolerance(self):
        Dist(S2, (0.5 + 4e-10, 0.5))  # within tol
        with pytest.raises(StructuralError):
            Dist(S2, (0.6, 0.5))

    def test_negative_weight_rejected(self):
        with pytest.raises(StructuralError):
            Dist(S2, (Fraction(3, 2), Fraction(-1, 2)))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(StructuralError):
            Dist(("a", "a"), (Fraction(1, 2), Fraction(1, 2)))

    def test_zero_weight_outcomes_are_kept(self):
        d = Dist(("a", "b"), (Fraction(1), Fraction(0)))
        assert d.space == ("a", "b")
        assert d.support() == ("a",)


class TestPushforward:
    def test_subjective_table_marginal(self):
        out = pushforward(SUBJECTIVE, PROJ, S2)
        assert out.weights == (Fraction(1, 2), Fraction(1, 2))

    def test_identity_projection(self):
        d = Dist(("a", "b", "c"), (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
        assert pushforward(d, {s: s for s in d.space}, d.space).matches(d)

    def test_objective_table_marginal(self):
        out = pushforward(OBJECTIVE, PROJ, S2)
        assert out.weights == (Fraction(1, 2), Fraction(1, 2))

    def test_projection_outside_space_is_structural(self):
        with pytest.raises(StructuralError):
            pushforward(SUBJECTIVE, {w: "X" for w in OMEGA}, S2)

    def test_projection_missing_an_outcome_is_structural(self):
        proj = dict(PROJ)
        del proj["L|1.0-"]
        with pytest.raises(
            StructuralError, match=r"projection undefined at 'L\|1\.0-'"
        ):
            pushforward(SUBJECTIVE, proj, S2)


class TestCondition:
    def test_signal_08_plus(self):
        post = pushforward(condition(SUBJECTIVE, col("0.8+")), PROJ, S2)
        assert post.weights == (Fraction(4, 5), Fraction(1, 5))

    def test_full_space_leaves_marginal_unchanged(self):
        assert condition(SUBJECTIVE, OMEGA).matches(SUBJECTIVE)

    def test_signal_10_minus(self):
        post = pushforward(condition(SUBJECTIVE, col("1.0-")), PROJ, S2)
        assert post.weights == (Fraction(0), Fraction(1))

    def test_zero_mass_cell_raises(self):
        with pytest.raises(ZeroProbabilityCell):
            condition(SUBJECTIVE, ["H|0.8-", "H|1.0-"])


class TestRnDerivative:
    def test_inner_posterior(self):
        prior = Dist(S2, (Fraction(1, 2), Fraction(1, 2)))
        belief = Dist(S2, (Fraction(4, 5), Fraction(1, 5)))
        d = rn_derivative(prior, belief)
        assert d.f == {"H": Fraction(8, 5), "L": Fraction(2, 5)}
        assert d.max_f == Fraction(8, 5)
        assert d.epsilon == Fraction(5, 8)

    def test_belief_equal_to_prior(self):
        prior = Dist(S2, (Fraction(1, 2), Fraction(1, 2)))
        d = rn_derivative(prior, prior)
        assert all(v == 1 for v in d.f.values())
        assert d.epsilon == 1

    def test_boundary_posterior(self):
        prior = Dist(S2, (Fraction(1, 2), Fraction(1, 2)))
        belief = Dist(S2, (Fraction(1), Fraction(0)))
        d = rn_derivative(prior, belief)
        assert d.f == {"H": Fraction(2), "L": Fraction(0)}
        assert d.epsilon == Fraction(1, 2)

    def test_violation_names_the_outcome(self):
        prior = Dist(S2, (Fraction(1), Fraction(0)))
        belief = Dist(S2, (Fraction(1, 2), Fraction(1, 2)))
        with pytest.raises(AbsoluteContinuityViolation) as err:
            rn_derivative(prior, belief)
        assert err.value.outcomes == ("L",)


class TestMartingaleCheck:
    def test_objective_weights_fail(self):
        prior = Dist(S2, (Fraction(1, 2), Fraction(1, 2)))
        holds, mean = martingale_check(
            [Fraction(1, 4), Fraction(3, 4)],
            [
                Dist(S2, (Fraction(4, 5), Fraction(1, 5))),
                Dist(S2, (Fraction(1), Fraction(0))),
            ],
            prior,
        )
        assert not holds
        assert mean.weights == (Fraction(19, 20), Fraction(1, 20))

    def test_subjective_signal_weights_hold(self):
        prior = Dist(S2, (Fraction(1, 2), Fraction(1, 2)))
        holds, mean = martingale_check(
            [Fraction(5, 16), Fraction(1, 4), Fraction(3, 16), Fraction(1, 4)],
            [
                Dist(S2, (Fraction(4, 5), Fraction(1, 5))),
                Dist(S2, (Fraction(1), Fraction(0))),
                Dist(S2, (Fraction(0), Fraction(1))),
                Dist(S2, (Fraction(0), Fraction(1))),
            ],
            prior,
        )
        assert holds
        assert mean.matches(prior)

    def test_point_mass_on_prior(self):
        prior = Dist(S2, (Fraction(1, 2), Fraction(1, 2)))
        holds, _ = martingale_check([Fraction(1)], [prior], prior)
        assert holds

    def test_length_mismatch(self):
        prior = Dist(S2, (Fraction(1, 2), Fraction(1, 2)))
        with pytest.raises(StructuralError):
            martingale_check([Fraction(1)], [prior, prior], prior)

    @pytest.mark.parametrize(
        "weights, message",
        [
            (
                [Fraction(1, 2), Fraction(1, 3)],
                "weights sum to 5/6, expected 1",
            ),
            ([], "weights sum to 0, expected 1"),
            (
                [Fraction(3, 2), Fraction(-1, 2)],
                "negative weight -1/2 at outcome 'L'",
            ),
        ],
    )
    def test_weights_that_give_no_mean_are_refused(self, weights, message):
        prior = Dist(S2, (Fraction(1, 2), Fraction(1, 2)))
        posteriors = [Dist(S2, (1, 0)), Dist(S2, (0, 1))][: len(weights)]
        with pytest.raises(StructuralError) as err:
            martingale_check(weights, posteriors, prior)
        assert str(err.value) == message

    def test_mean_is_in_lowest_terms(self):
        prior = Dist(S2, (Fraction(1, 2), Fraction(1, 2)))
        posteriors = [Dist(S2, (Fraction(3, 4), Fraction(1, 4)))] * 2
        _, mean = martingale_check([Fraction(1, 2)] * 2, posteriors, prior)
        assert (mean.nums, mean.den) == ((3, 1), 4)
        assert mean == Dist(S2, (Fraction(3, 4), Fraction(1, 4)))


class TestWeightedPosteriors:
    def test_duplicates_are_merged(self):
        a = Dist(S2, (Fraction(1, 2), Fraction(1, 2)))
        b = Dist(S2, (Fraction(1), Fraction(0)))
        wp = WeightedPosteriors(
            ((Fraction(1, 4), a), (Fraction(1, 4), b), (Fraction(1, 2), a))
        )
        assert len(wp) == 2
        assert wp.weights == (Fraction(3, 4), Fraction(1, 4))

    def test_weights_must_be_positive(self):
        a = Dist(S2, (Fraction(1, 2), Fraction(1, 2)))
        with pytest.raises(StructuralError):
            WeightedPosteriors(((Fraction(0), a), (Fraction(1), a)))

    def test_weight_at_or_below_the_zero_threshold_rejected(self):
        # verify treats such a cell as unreachable, so the observation
        # could never be reproduced by its own constructed model
        a = Dist(S2, (0.8, 0.2))
        b = Dist(S2, (1.0, 0.0))
        with pytest.raises(StructuralError, match="zero threshold"):
            WeightedPosteriors(((1e-12, a), (1 - 1e-12, b)))

    def test_mixed_spaces_rejected(self):
        a = Dist(S2, (Fraction(1, 2), Fraction(1, 2)))
        b = Dist(("x", "y"), (Fraction(1, 2), Fraction(1, 2)))
        with pytest.raises(StructuralError):
            WeightedPosteriors(((Fraction(1, 2), a), (Fraction(1, 2), b)))


# ---------------------------------------------------------------------------
# property tests

@st.composite
def rational_dists(draw, n=None, min_size=2, max_size=5, allow_zero=True):
    if n is None:
        n = draw(st.integers(min_size, max_size))
    raw = draw(
        st.lists(
            st.integers(0 if allow_zero else 1, 8), min_size=n, max_size=n
        ).filter(lambda xs: sum(xs) > 0)
    )
    total = sum(raw)
    return Dist(
        tuple("s%d" % i for i in range(n)),
        tuple(Fraction(r, total) for r in raw),
    )


@st.composite
def dist_and_partition(draw):
    mu = draw(rational_dists(min_size=2, max_size=6, allow_zero=False))
    n = len(mu.space)
    k = draw(st.integers(1, n))
    assignment = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    cells = {}
    for s, a in zip(mu.space, assignment):
        cells.setdefault(a, []).append(s)
    return mu, list(cells.values())


@given(rational_dists())
def test_pushforward_preserves_mass(mu):
    proj = {s: "even" if i % 2 == 0 else "odd" for i, s in enumerate(mu.space)}
    out = pushforward(mu, proj, ("even", "odd"))
    assert sum(out.weights) == 1


@given(dist_and_partition())
def test_conditioning_total_probability(case):
    mu, cells = case
    for s in mu.space:
        total = sum(
            mu.mass(cell) * condition(mu, cell)[s] for cell in cells
        )
        assert total == mu[s]


@given(rational_dists(n=4, allow_zero=False), rational_dists(n=4))
def test_rn_reconstruction_over_all_subsets(prior, belief):
    d = rn_derivative(prior, belief)
    for mask in range(1 << 4):
        subset = [s for i, s in enumerate(prior.space) if mask >> i & 1]
        integral = sum(d.f.get(s, 0) * prior[s] for s in subset)
        assert integral == belief.mass(subset)


@given(rational_dists(n=4, allow_zero=False), rational_dists(n=4))
def test_epsilon_in_unit_interval(prior, belief):
    d = rn_derivative(prior, belief)
    assert 0 < d.epsilon <= 1
    assert (d.epsilon == 1) == belief.matches(prior)


@given(dist_and_partition())
def test_martingale_holds_for_prior_conditionals(case):
    mu, cells = case
    weights = [mu.mass(cell) for cell in cells]
    posteriors = [condition(mu, cell) for cell in cells]
    holds, _ = martingale_check(weights, posteriors, mu)
    assert holds


@st.composite
def weighted_beliefs_with_duplicates(draw, n):
    """Weighted items drawn from a small pool of exact beliefs, so equal
    beliefs recur both as one object and as equal values built from other
    integers."""
    pool = draw(st.lists(rational_dists(n=n), min_size=1, max_size=4))
    picks = draw(
        st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8)
    )
    raw = draw(
        st.lists(st.integers(1, 9), min_size=len(picks), max_size=len(picks))
    )
    return [(Fraction(r, sum(raw)), pool[i]) for r, i in zip(raw, picks)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_group_beliefs_and_order_invariance(data):
    n = data.draw(st.integers(2, 4))
    items = data.draw(weighted_beliefs_with_duplicates(n))
    beliefs = [b for _, b in items]
    reps, groups = group_beliefs(beliefs)
    # pairwise matches is the reference for identity
    for i, bi in enumerate(beliefs):
        for j, bj in enumerate(beliefs):
            assert (groups[i] == groups[j]) == bi.matches(bj)
    # representatives are the first appearances, in order
    firsts = [groups.index(g) for g in range(len(reps))]
    assert firsts == sorted(firsts)
    assert all(reps[groups[i]] is beliefs[i] for i in firsts)

    # input order changes neither the merge, tv_distance nor verify
    permuted = data.draw(st.permutations(items))
    wp = WeightedPosteriors(tuple(items))
    wp_perm = WeightedPosteriors(tuple(permuted))
    assert set(wp.items) == set(wp_perm.items)
    other = WeightedPosteriors(
        tuple(data.draw(weighted_beliefs_with_duplicates(n)))
    )
    assert tv_distance(wp, wp_perm) == 0
    assert tv_distance(wp, other) == tv_distance(wp_perm, other)
    assert tv_distance(other, wp) == tv_distance(other, wp_perm)

    prior = data.draw(rational_dists(n=n, allow_zero=False))
    obs, obs_perm = Observation(prior, wp), Observation(prior, wp_perm)
    for witness in (obs, Observation(prior, other)):
        model = construct_rationalization(witness)
        assert (
            verify_model(model, obs).as_dict()
            == verify_model(model, obs_perm).as_dict()
        )
    assert verify_model(construct_rationalization(obs), obs_perm).all_pass


class _SubFraction(Fraction):
    """A Fraction subclass: Dist stores it as a plain Fraction."""


# Large, pairwise coprime denominators make the lcm of a weight list big.
BIG_PRIMES = (999983, 10**9 + 7, 2**31 - 1, 2**61 - 1)


def reference_dist_error(space, weights):
    """The validation Dist did by chained Fraction sums: normalise every
    weight, then compare sum(weights) with 1. Returns the StructuralError
    message, or None when the weights are accepted."""
    weights = tuple(
        Fraction(w) if isinstance(w, Rational) else float(w) for w in weights
    )
    for label, w in zip(space, weights):
        if w < 0:
            return "negative weight %s at outcome %r" % (w, label)
    total = sum(weights)
    if total != 1:
        return "weights sum to %s, expected 1" % total
    return None


@st.composite
def exact_weight_lists(draw):
    """Exact weights of mixed types (plain and subclassed Fractions, ints,
    bools), with zeros, negatives and large coprime denominators; about
    half of the lists are completed to an exact total of 1."""
    den = st.one_of(st.integers(1, 12), st.sampled_from(BIG_PRIMES))
    values = [
        Fraction(draw(st.integers(-3, 20)), draw(den))
        for _ in range(draw(st.integers(0, 6)))
    ]
    if values and draw(st.booleans()):
        values[-1] = 1 - sum(values[:-1])
    weights = []
    for v in values:
        forms = [v, _SubFraction(v)]
        if v.denominator == 1:
            forms.append(int(v))
        if v in (0, 1):
            forms.append(bool(v))
        weights.append(draw(st.sampled_from(forms)))
    return weights


@settings(max_examples=300, deadline=None)
@given(exact_weight_lists())
def test_integer_sum_check_matches_the_fraction_reference(weights):
    space = tuple("s%d" % i for i in range(len(weights)))
    expected = reference_dist_error(space, weights)
    try:
        mu = Dist(space, weights)
    except StructuralError as err:
        assert str(err) == expected
    else:
        assert expected is None
        assert mu.is_exact
        assert mu.weights == tuple(map(Fraction, weights))
        assert all(type(w) is Fraction for w in mu.weights)


@pytest.mark.parametrize(
    "weights",
    [
        (float("nan"), 1.0),
        (float("nan"),),
        (0.5, float("nan"), 0.5),
        (Fraction(1, 2), float("nan"), 0.5),
    ],
)
def test_nan_weight_is_rejected(weights):
    space = tuple("abc"[: len(weights)])
    with pytest.raises(StructuralError, match="weights sum to nan"):
        Dist(space, weights)
