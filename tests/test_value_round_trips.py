"""Value objects survive being rebuilt and pickled: a `Model` rebuilt from
its own fields, and a pickled `Dist`, `WeightedPosteriors`, `Observation`
or `Model`, equals the original and keeps its tolerance, which is not a
constructor argument but comes from the distributions."""

import inspect
import pickle
from fractions import Fraction

import pytest

from beliefcheck import (
    TOL,
    Dist,
    Model,
    Observation,
    WeightedPosteriors,
    construct_known_omega_model,
    construct_rationalization,
)
from beliefcheck.io import model_json

S3 = ("H", "M", "L")
MODEL_FIELDS = (
    "states",
    "omega",
    "projection",
    "signal_partition",
    "mu0",
    "pObj",
    "lambda_mix",
)


def float_observation():
    """Float prior, weights and beliefs; rationalizable with a known
    state space: each belief is the prior conditioned on its support."""
    prior = Dist(S3, (0.5, 0.25, 0.25))
    return Observation(
        prior,
        WeightedPosteriors(
            ((0.5, Dist(S3, (1.0, 0.0, 0.0))), (0.5, Dist(S3, (0, 0.5, 0.5))))
        ),
    )


def mixed_observation():
    """An exact prior and exact beliefs, with float posterior weights."""
    prior = Dist(S3, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
    beliefs = (
        Dist(S3, (Fraction(1), Fraction(0), Fraction(0))),
        Dist(S3, (Fraction(0), Fraction(1, 2), Fraction(1, 2))),
    )
    weighted = WeightedPosteriors(tuple(zip((0.5, 0.5), beliefs)))
    return Observation(prior, weighted)


def rebuilt(model):
    return Model(**{name: getattr(model, name) for name in MODEL_FIELDS})


def test_a_models_fields_are_its_data_alone():
    assert tuple(inspect.signature(Model).parameters) == MODEL_FIELDS


@pytest.mark.parametrize("observe", [float_observation, mixed_observation])
@pytest.mark.parametrize(
    "construct", [construct_rationalization, construct_known_omega_model]
)
def test_a_float_model_rebuilt_from_its_fields_is_the_same_model(
    observe, construct
):
    obs = observe()
    assert obs.tol == TOL
    model = construct(obs)
    assert model.tol == TOL
    again = rebuilt(model)
    assert again.tol == model.tol
    assert again == model
    assert model_json(again, "float") == model_json(model, "float")
    assert '"0.25"' in model_json(model, "float")


def round_tripped(value):
    return pickle.loads(pickle.dumps(value))


def test_pickled_dists_equal_their_originals():
    for d in (
        Dist(S3, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))),
        Dist(S3, (0.5, 0.3, 0.2)),
    ):
        again = round_tripped(d)
        assert again == d and hash(again) == hash(d)
        assert (again.nums, again.den, again.tol) == (d.nums, d.den, d.tol)
        assert again["M"] == d["M"] and again.weights == d.weights


def test_pickled_observations_and_models_equal_their_originals():
    for obs in (float_observation(), mixed_observation()):
        posteriors = round_tripped(obs.posteriors)
        assert posteriors == obs.posteriors
        assert posteriors.tol == obs.posteriors.tol
        assert posteriors.beliefs[1]["L"] == Fraction(1, 2)
        again = round_tripped(obs)
        assert again == obs and again.tol == obs.tol
        assert again.prior["M"] == obs.prior["M"]
        model = construct_rationalization(obs)
        copy = round_tripped(model)
        assert copy == model and copy.tol == model.tol == TOL
        label = model.omega[0]
        assert copy.mu0[label] == model.mu0[label]
        assert copy.pObj[label] == model.pObj[label]
