"""`verify_model` pairs cells with float-origin beliefs as `group_beliefs`
would group them.

On a float-origin observation, `verify_model` first tries to match each
reached cell's posterior to one observed belief (`rationalize._matched`)
and calls `group_beliefs` only when the cells and beliefs do not pair off.
These checks hold the match to the general path: `verify_model(...)
.as_dict()`, or the error it raises, is the same with the match as with
`_matched` forced to give up, on

- loaded float models of generated observations, under the uniform and
  the target mix, each against its own observation and another's;
- models constructed in process from float observations, whose cell
  posteriors equal the observed beliefs and match by their keys alone;
- a cell within TOL of two observed beliefs, which bridges them;
- two cells within TOL of one belief, within TOL of each other and
  beyond it;
- two cells matched to two beliefs but within TOL of each other, which
  chain the beliefs, and two unmatched cells within TOL of each other;
- an exact observation, whose beliefs may be within TOL of each other,
  verified against a float model.

It also checks that float grouping which stops after the sort, when no
two projections come within reach, gives the groups of the full sweep,
on beliefs near and far from each other.

Stdlib only. Run as a script, or under pytest:

    python -S -W error tests/test_float_matching.py
"""

import os
import random
import sys
import tempfile
from contextlib import contextmanager
from fractions import Fraction as F

HERE = os.path.dirname(os.path.abspath(__file__))
S2 = ("H", "L")
TOL = F(1e-9)


@contextmanager
def patched(module, name, value):
    old = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, old)


def outcome(model, obs):
    """verify_model's verdicts, or the type and message of its error."""
    from beliefcheck import StructuralError, verify_model

    try:
        return verify_model(model, obs).as_dict()
    except StructuralError as err:
        return type(err).__name__, str(err)


def both_paths(model, obs):
    """The outcome with the match, asserted equal to the outcome through
    group_beliefs alone, and whether the match served the call."""
    from beliefcheck import rationalize

    served = []

    def spy(observed, posteriors):
        groups = matched(observed, posteriors)
        served.append(groups is not None)
        return groups

    matched = rationalize._matched
    with patched(rationalize, "_matched", spy):
        fast = outcome(model, obs)
    with patched(rationalize, "_matched", lambda observed, posteriors: None):
        general = outcome(model, obs)
    assert fast == general, (fast, general)
    return fast, any(served)


def cell_model(cells):
    """A model over S2 with one signal cell per (posterior, mass) pair in
    `cells`: the cell's mu0 and pObj weights are the mass times the
    posterior, so the cell's posterior is exactly the one given."""
    from beliefcheck import Dist, Model

    omega = tuple("%s|c%d" % (s, j) for j in range(len(cells)) for s in S2)
    weights = [mass * x for posterior, mass in cells for x in posterior]
    mu0 = Dist(omega, weights)
    return Model(
        states=S2,
        omega=omega,
        projection={w: w.split("|")[0] for w in omega},
        signal_partition={
            "c%d" % j: omega[2 * j : 2 * j + 2] for j in range(len(cells))
        },
        mu0=mu0,
        pObj=mu0,
    )


def float_observation(tops, weights):
    """A float observation over S2 with beliefs (x, 1 - x) for x in
    `tops`, and its beliefs' first coordinates as exact Fractions."""
    from beliefcheck import Dist, Observation, WeightedPosteriors

    obs = Observation(
        Dist(S2, (0.5, 0.5)),
        WeightedPosteriors(
            tuple((w, Dist(S2, (x, 1 - x))) for w, x in zip(weights, tops))
        ),
    )
    assert len(obs.posteriors) == len(tops)  # no two within TOL
    return obs, [b.weights[0] for b in obs.posteriors.beliefs]


def at(x):
    """The posterior (x, 1 - x), exactly."""
    return (x, 1 - x)


def test_loaded_float_models_match_the_general_path():
    import genobs
    from beliefcheck import (
        construct_rationalization,
        load_model,
        load_observation,
        save_model,
        save_observation,
        target_mix,
        uniform_mix,
    )

    rng = random.Random(31)
    pairs = served = 0
    with tempfile.TemporaryDirectory() as tmp:
        loaded = {}  # n -> the last loaded observation over n states
        for j in range(60):
            n, k = rng.randint(2, 8), rng.randint(1, 6)
            obs = genobs.random_observation(
                rng, n, k, full_support_prior=j % 2
            )
            obs_path = os.path.join(tmp, "obs.json")
            save_observation(obs, obs_path, "float")
            again, _ = load_observation(obs_path)
            other = loaded.get(n)
            loaded[n] = again
            for mix in (uniform_mix, target_mix):
                model_path = os.path.join(tmp, "model.json")
                model = construct_rationalization(obs, mix(obs))
                save_model(model, model_path, "float")
                model, _ = load_model(model_path)
                result, fast = both_paths(model, again)
                assert result["all_pass"], (j, mix.__name__)
                pairs, served = pairs + 1, served + fast
                if other is not None:
                    both_paths(model, other)
    # A loaded float model's posteriors are within TOL of the beliefs, but
    # not equal to them, and the match serves nearly every pair.
    assert served >= pairs - 2, (served, pairs)


def test_constructed_models_match_by_keys():
    import genobs
    from beliefcheck import (
        Dist,
        Observation,
        WeightedPosteriors,
        construct_rationalization,
        rationalize,
        target_mix,
    )

    def floated(d):
        return Dist(d.space, tuple(map(float, d.weights)))

    def no_projections(beliefs, tol):
        raise AssertionError("a posterior missed its belief's key")

    rng = random.Random(7)
    for j in range(40):
        n, k = rng.randint(2, 6), rng.randint(1, 6)
        exact = genobs.random_observation(rng, n, k)
        obs = Observation(
            floated(exact.prior),
            WeightedPosteriors(
                tuple(
                    (float(w), floated(b))
                    for w, b in exact.posteriors.items
                )
            ),
        )
        for model in (
            construct_rationalization(obs),
            construct_rationalization(obs, target_mix(obs)),
        ):
            with patched(rationalize, "_projections", no_projections):
                result, fast = both_paths(model, obs)
            assert fast and result["all_pass"], j


def test_a_cell_that_bridges_two_beliefs():
    obs, (b, c) = float_observation((0.5, 0.5 + 1.5e-9), (0.5, 0.5))
    model = cell_model([(at((b + c) / 2), F(1))])
    result, fast = both_paths(model, obs)
    assert not fast and "joined through beliefs" in result[1]


def test_a_cell_that_matches_no_belief():
    obs, (b, c) = float_observation((0.25, 0.75), (0.5, 0.5))
    model = cell_model([(at(b), F(1, 2)), (at(F(1, 3)), F(1, 2))])
    result, fast = both_paths(model, obs)
    assert not fast and not result["posteriors_match"]


def test_two_cells_on_one_belief():
    obs, (b, c) = float_observation((0.25, 0.75), (0.5, 0.5))
    # within TOL of each other: the three join, and the masses add up
    near = cell_model(
        [
            (at(b + 2 * TOL / 10), F(1, 4)),
            (at(b - 2 * TOL / 10), F(1, 4)),
            (at(c), F(1, 2)),
        ]
    )
    result, fast = both_paths(near, obs)
    assert not fast and result["all_pass"]
    # beyond TOL of each other: the group is wider than TOL, refused
    far = cell_model(
        [
            (at(b + 8 * TOL / 10), F(1, 4)),
            (at(b - 8 * TOL / 10), F(1, 4)),
            (at(c), F(1, 2)),
        ]
    )
    result, fast = both_paths(far, obs)
    assert not fast and "joined through beliefs" in result[1]


def test_matched_cells_that_chain_two_beliefs():
    obs, (b, c) = float_observation((0.5, 0.5 + 2.5e-9), (0.5, 0.5))
    # each cell is within TOL of one belief only, but of the other cell
    model = cell_model(
        [(at(b + 9 * TOL / 10), F(1, 2)), (at(c - 9 * TOL / 10), F(1, 2))]
    )
    result, fast = both_paths(model, obs)
    assert not fast and "joined through beliefs" in result[1]


def test_unmatched_cells_within_tol_of_each_other():
    obs, (b, c) = float_observation((0.25, 0.75), (0.5, 0.5))
    model = cell_model(
        [(at(F(1, 2)), F(1, 2)), (at(F(1, 2) + TOL / 2), F(1, 2))]
    )
    result, fast = both_paths(model, obs)
    assert not fast and not result["posteriors_match"]


def test_an_exact_observation_against_a_float_model():
    from beliefcheck import Dist, Model, Observation, WeightedPosteriors

    # Exact beliefs within TOL of each other stay apart in the observation,
    # but share a group under the float model's tolerance.
    half, step = F(1, 2), F(1, 10**10)
    obs = Observation(
        Dist(S2, (half, half)),
        WeightedPosteriors(
            (
                (F(1, 4), Dist(S2, at(half))),
                (F(3, 4), Dist(S2, at(half + step))),
            )
        ),
    )
    assert len(obs.posteriors) == 2 and not obs.tol
    mu0 = Dist(S2, (0.5, 0.5))
    model = Model(S2, S2, {s: s for s in S2}, {"a": S2}, mu0, mu0)
    result, fast = both_paths(model, obs)
    assert not fast and result["all_pass"]


def test_grouping_that_stops_at_the_sort_equals_the_full_sweep():
    """group_beliefs under TOL, with its early exit, against the same
    grouping with every projection within reach of every other, so that
    every belief is swept."""
    from beliefcheck import Dist, StructuralError, dist
    from beliefcheck.dist import group_beliefs

    projections = dist._projections

    def everything_in_reach(beliefs, tol):
        return projections(beliefs, tol)[0], float("inf")

    def grouped(beliefs):
        try:
            reps, groups = group_beliefs(beliefs, TOL)
        except StructuralError as err:
            return str(err)
        return [(r.den, r.nums) for r in reps], groups

    rng = random.Random(5)
    steps = (0, 3e-10, 7e-10, 1e-9, 1.5e-9, 3e-9, 1e-6, 1e-3)
    stopped = swept = 0
    for _ in range(400):
        n = rng.randint(2, 5)
        space = tuple("s%d" % i for i in range(n))
        base = [rng.random() + 0.1 for _ in space]
        centre = [x / sum(base) for x in base]
        beliefs = []
        for _ in range(rng.randint(2, 12)):
            coords = [
                x + rng.choice(steps) * rng.choice((-1, 1)) * rng.random()
                for x in centre[:-1]
            ]
            beliefs.append(Dist(space, (*coords, 1 - sum(coords))))
        with patched(dist, "_projections", everything_in_reach):
            expected = grouped(beliefs)
        got = grouped(beliefs)
        assert got == expected, (beliefs, got, expected)
        distinct = len(set(beliefs))
        if isinstance(got, tuple) and len(got[0]) == distinct:
            stopped += 1
        else:
            swept += 1
    assert stopped > 50 and swept > 50, (stopped, swept)


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))
    sys.path.insert(0, HERE)
    test_loaded_float_models_match_the_general_path()
    test_constructed_models_match_by_keys()
    test_a_cell_that_bridges_two_beliefs()
    test_a_cell_that_matches_no_belief()
    test_two_cells_on_one_belief()
    test_matched_cells_that_chain_two_beliefs()
    test_unmatched_cells_within_tol_of_each_other()
    test_an_exact_observation_against_a_float_model()
    test_grouping_that_stops_at_the_sort_equals_the_full_sweep()
    print("float matching checks hold on Python %s" % sys.version.split()[0])
