"""Float mode as a tolerance at the boundary: float weights are converted
exactly where they enter, so every model built from float data verifies,
in memory and after a float-mode file round trip, and float identity is
order-invariant."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from beliefcheck import (
    TOL,
    AbsoluteContinuityViolation,
    Dist,
    FormatError,
    Observation,
    StructuralError,
    WeightedPosteriors,
    construct_rationalization,
    load_model,
    load_observation,
    save_model,
    verify_model,
)
from beliefcheck.cli import main
from beliefcheck.dist import group_beliefs
from beliefcheck.rationalize import cell_table

S2 = ("H", "L")


def skewed(rng, n):
    """n weights random()**p, p in {1, 4, 12}, normalised by their float
    sum: many fall at or below the zero threshold."""
    p = rng.choice((1, 4, 12))
    xs = [rng.random() ** p for _ in range(n)]
    total = sum(xs)
    return [x / total for x in xs]


def float_file(path, states, prior, items):
    doc = {
        "mode": "float",
        "states": list(states),
        "prior": dict(zip(states, map(repr, prior))),
        "posteriors": [
            {"weight": repr(w), "belief": dict(zip(states, map(repr, b)))}
            for w, b in items
        ],
    }
    path.write_text(json.dumps(doc))
    return path


def assert_verifies_after_round_trip(model, obs_path, tmp_path):
    path = tmp_path / "m.json"
    save_model(model, path, "float")
    loaded, mode = load_model(path)
    assert mode == "float" and loaded.tol == TOL
    obs, _ = load_observation(obs_path)
    assert verify_model(loaded, obs).all_pass
    assert main(["verify", str(path), str(obs_path)]) == 0


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32), n=st.integers(2, 8), k=st.integers(1, 8))
def test_every_accepted_float_observation_yields_a_verified_model(
    tmp_path_factory, seed, n, k
):
    rng = random.Random(seed)
    states = tuple("s%d" % i for i in range(n))
    items = [(w, skewed(rng, n)) for w in skewed(rng, k)]
    tmp_path = tmp_path_factory.mktemp("float")
    obs_path = float_file(tmp_path / "o.json", states, skewed(rng, n), items)
    try:
        obs, _ = load_observation(obs_path)
    except FormatError:
        assume(False)  # a posterior weight at or below the zero threshold
    try:
        model = construct_rationalization(obs)
    except AbsoluteContinuityViolation:
        assume(False)  # the verdict is a violation, not a model
    assert obs.tol == model.tol == TOL
    assert verify_model(model, obs).all_pass
    assert_verifies_after_round_trip(model, obs_path, tmp_path)


def test_reached_cell_below_the_zero_threshold_verifies(tmp_path):
    # eps = 1.5e-9 for the belief (1, 0), so the cell nu0+ carries
    # 7.5e-10 of mu0 yet is objectively reached: the mass is not zeroed.
    obs_path = float_file(
        tmp_path / "o.json",
        S2,
        (1.5e-9, 1 - 1.5e-9),
        [(0.5, (1.0, 0.0)), (0.5, (0.0, 1.0))],
    )
    obs, _ = load_observation(obs_path)
    model = construct_rationalization(obs)
    cell = next(c for c in cell_table(model) if c.label == "nu0+")
    assert 0 < cell.mu_mass < 1e-9 and cell.obj_mass > 0
    assert verify_model(model, obs).all_pass
    assert_verifies_after_round_trip(model, obs_path, tmp_path)


def test_float_weights_are_stored_as_exact_fractions():
    d = Dist(S2, (0.8, 0.2))
    assert all(type(w) is Fraction for w in d.weights)
    assert d.tol == TOL and not d.is_exact
    # the float total 0.8 + 0.2 is 1 + 2^-54 exactly; it is divided out
    assert d.weights == (Fraction(4, 5), Fraction(1, 5))


def test_observed_weights_at_or_below_the_threshold_become_zero():
    prior = Dist(S2, (1e-9, 1 - 1e-9))
    belief = Dist(S2, (5e-10, 1 - 5e-10))
    obs = Observation(prior, WeightedPosteriors(((1.0, belief),)))
    assert obs.prior.weights == (0, 1)
    assert obs.posteriors.beliefs[0].weights == (0, 1)
    # a model's own weights are never zeroed
    assert Dist(S2, (1e-12, 1 - 1e-12)).weights[0] > 0


def cluster(rng, n, size):
    """`size` beliefs over n states, all within 0.4 * TOL of each other in
    every coordinate."""
    centre = [Fraction(rng.randint(1, 99), 100 * n) for _ in range(n - 1)]
    step = 0.4 * TOL / (n - 1)
    space = tuple("s%d" % i for i in range(n))
    out = []
    for _ in range(size):
        coords = [c + Fraction(rng.random() * step) for c in centre]
        out.append(Dist(space, (*coords, 1 - sum(coords))))
    return out


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), data=st.data())
def test_float_grouping_does_not_depend_on_input_order(seed, data):
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    beliefs = []
    for _ in range(rng.randint(1, 4)):
        beliefs += cluster(rng, n, rng.randint(1, 4))
    order = data.draw(st.permutations(range(len(beliefs))))
    permuted = [beliefs[i] for i in order]

    def partition(bs, relabel):
        _, groups = group_beliefs(bs, TOL)
        blocks = {}
        for i, g in enumerate(groups):
            blocks.setdefault(g, set()).add(relabel[i])
        return {frozenset(b) for b in blocks.values()}

    identity = list(range(len(beliefs)))
    assert partition(beliefs, identity) == partition(permuted, order)

    weights = [Fraction(rng.randint(1, 9)) for _ in beliefs]
    items = [(float(w / sum(weights)), b) for w, b in zip(weights, beliefs)]
    wp = WeightedPosteriors(tuple(items))
    wp_perm = WeightedPosteriors(tuple(items[i] for i in order))
    assert set(wp.items) == set(wp_perm.items)


def test_a_chain_wider_than_the_tolerance_is_refused(tmp_path):
    # 0.6e-9 steps: neighbours match, the ends are 1.2e-9 apart
    xs = (0.3, 0.3 + 0.6e-9, 0.3 + 1.2e-9)
    items = [(1 / 3, (x, 1 - x)) for x in xs]
    for order in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
        path = float_file(
            tmp_path / "o.json", S2, (0.5, 0.5), [items[i] for i in order]
        )
        with pytest.raises(FormatError, match="more than the tolerance"):
            load_observation(path)
    with pytest.raises(StructuralError, match="beliefs 0 and 2 differ"):
        WeightedPosteriors(tuple((w, Dist(S2, b)) for w, b in items))
