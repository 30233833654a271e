import random
from fractions import Fraction

import pytest

from beliefcheck import (
    Dist,
    NotRationalizableError,
    Observation,
    PreconditionError,
    ResourceBoundError,
    WeightedPosteriors,
    brute_force_known_omega,
    check_proposition1,
    condition,
    construct_known_omega_model,
    set_partitions,
    verify_model,
)
from genobs import random_dist, random_weights, state_labels

S2 = ("H", "L")
S3 = ("a", "b", "c")


def dist(space, *values):
    return Dist(space, tuple(Fraction(v) for v in values))


def three_state_example(p=Fraction(1, 3)):
    return Observation(
        dist(S3, "1/3", "1/3", "1/3"),
        WeightedPosteriors(
            (
                (p, dist(S3, "1/2", "1/2", "0")),
                (1 - p, dist(S3, "0", "0", "1")),
            )
        ),
    )


class TestSetPartitions:
    @pytest.mark.parametrize(
        "n,bell", [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203)]
    )
    def test_bell_counts(self, n, bell):
        parts = list(set_partitions(state_labels(n)))
        assert len(parts) == bell
        seen = {
            frozenset(frozenset(block) for block in p) for p in parts
        }
        assert len(seen) == bell  # no duplicates

    def test_first_partition_is_single_block(self):
        first = next(set_partitions(("x", "y", "z")))
        assert first == [["x", "y", "z"]]

    def test_order_matches_the_direct_enumerator(self):
        # the enumerator before prefix maxima were kept, recomputing
        # max(a[:i]) at every step
        def direct(items):
            n = len(items)
            if n == 0:
                yield []
                return
            a = [0] * n
            while True:
                blocks = [[] for _ in range(max(a) + 1)]
                for i, b in enumerate(a):
                    blocks[b].append(items[i])
                yield blocks
                for i in range(n - 1, 0, -1):
                    if a[i] <= max(a[:i]):
                        a[i] += 1
                        for j in range(i + 1, n):
                            a[j] = 0
                        break
                else:
                    return

        bell = [1, 1, 2, 5, 15, 52, 203, 877]
        for n in range(8):
            parts = list(set_partitions(state_labels(n)))
            assert parts == list(direct(state_labels(n)))
            assert len(parts) == bell[n]

    def test_blocks_cover_and_are_disjoint(self):
        for p in set_partitions(state_labels(4)):
            flat = [s for block in p for s in block]
            assert sorted(flat) == sorted(state_labels(4))


class TestProposition1:
    def test_worked_example_fails_on_overlap(self, worked_example):
        report = check_proposition1(worked_example)
        assert not report.condition_i
        assert report.overlapping_pairs == ((0, 1, ("H",)),)
        assert not report.rationalizable

    @pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(1, 2), Fraction(5, 6)])
    def test_disjoint_conditionals_pass(self, p):
        report = check_proposition1(three_state_example(p))
        assert report.condition_i
        assert report.condition_ii
        assert report.rationalizable

    def test_single_posterior_equal_to_prior(self):
        prior = dist(S2, "1/2", "1/2")
        obs = Observation(prior, WeightedPosteriors(((Fraction(1), prior),)))
        report = check_proposition1(obs)
        assert report.rationalizable
        assert report.overlapping_pairs == ()

    def test_requires_full_support_prior(self):
        obs = Observation(
            dist(S2, 1, 0),
            WeightedPosteriors(((Fraction(1), dist(S2, 1, 0)),)),
        )
        with pytest.raises(PreconditionError):
            check_proposition1(obs)


class TestWitnessConstruction:
    def test_three_state_witness(self):
        obs = three_state_example()
        model = construct_known_omega_model(obs)
        assert model.signal_partition == {"nu0": ("a", "b"), "nu1": ("c",)}
        assert model.pObj.mass(["a", "b"]) == Fraction(1, 3)
        assert model.pObj.mass(["c"]) == Fraction(2, 3)
        report = verify_model(model, obs)
        assert report.consistent

    def test_trivial_partition_witness(self):
        prior = dist(S2, "1/2", "1/2")
        obs = Observation(prior, WeightedPosteriors(((Fraction(1), prior),)))
        model = construct_known_omega_model(obs)
        assert model.signal_partition == {"nu0": S2}
        assert verify_model(model, obs).consistent

    def test_four_state_conditionals(self):
        space = ("1", "2", "3", "4")
        prior = dist(space, "1/4", "1/4", "1/4", "1/4")
        obs = Observation(
            prior,
            WeightedPosteriors(
                (
                    (Fraction(1, 2), condition(prior, ["1"])),
                    (Fraction(1, 4), condition(prior, ["2", "3"])),
                    (Fraction(1, 4), condition(prior, ["4"])),
                )
            ),
        )
        model = construct_known_omega_model(obs)
        assert "rest" not in model.signal_partition
        assert verify_model(model, obs).consistent

    def test_residual_cell_present_when_supports_do_not_cover(self):
        space = ("1", "2", "3")
        prior = dist(space, "1/3", "1/3", "1/3")
        obs = Observation(
            prior,
            WeightedPosteriors(((Fraction(1), condition(prior, ["1", "2"])),)),
        )
        model = construct_known_omega_model(obs)
        assert model.signal_partition["rest"] == ("3",)
        assert model.pObj.mass(["3"]) == 0
        assert verify_model(model, obs).consistent

    def test_refuses_non_rationalizable(self, worked_example):
        with pytest.raises(NotRationalizableError):
            construct_known_omega_model(worked_example)

    def test_support_recovery(self):
        # in the witness, each posterior's support is exactly its cell
        rng = random.Random(3)
        for _ in range(20):
            obs = rationalizable_observation(rng, rng.randint(2, 6))
            model = construct_known_omega_model(obs)
            for k, belief in enumerate(obs.posteriors.beliefs):
                cell = model.signal_partition["nu%d" % k]
                assert set(belief.support()) == set(cell)


class TestBruteForce:
    def test_worked_example(self, worked_example):
        assert brute_force_known_omega(worked_example) is False

    def test_three_state_example(self):
        assert brute_force_known_omega(three_state_example()) is True

    def test_trivial(self):
        prior = dist(S2, "1/2", "1/2")
        obs = Observation(prior, WeightedPosteriors(((Fraction(1), prior),)))
        assert brute_force_known_omega(obs) is True

    def test_size_guard(self):
        space = state_labels(11)
        prior = Dist.uniform(space)
        obs = Observation(prior, WeightedPosteriors(((Fraction(1), prior),)))
        with pytest.raises(ResourceBoundError):
            brute_force_known_omega(obs)


def rationalizable_observation(rng, n_states):
    """Prior conditionals on the charged cells of a random partition."""
    space = state_labels(n_states)
    prior = random_dist(rng, space, full_support=True)
    blocks = rng.choice(list(set_partitions(space)))
    k = rng.randint(1, len(blocks))
    charged = rng.sample(blocks, k)
    weights = random_weights(rng, k)
    return Observation(
        prior,
        WeightedPosteriors(
            tuple(
                (w, condition(prior, cell))
                for w, cell in zip(weights, charged)
            )
        ),
    )


def arbitrary_full_support_observation(rng, n_states):
    space = state_labels(n_states)
    prior = random_dist(rng, space, full_support=True)
    k = rng.randint(1, 3)
    beliefs = []
    while len(beliefs) < k:
        b = random_dist(rng, space)
        if not any(b.matches(seen) for seen in beliefs):
            beliefs.append(b)
    weights = random_weights(rng, k)
    return Observation(
        prior, WeightedPosteriors(tuple(zip(weights, beliefs)))
    )


class TestOracleEquivalence:
    def test_randomized_equivalence(self):
        rng = random.Random(17)
        for i in range(150):
            n = rng.randint(2, 6)
            if i % 2 == 0:
                obs = rationalizable_observation(rng, n)
            else:
                obs = arbitrary_full_support_observation(rng, n)
            decided = check_proposition1(obs).rationalizable
            assert decided == brute_force_known_omega(obs)
            if decided:
                model = construct_known_omega_model(obs)
                assert verify_model(model, obs).consistent
