import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import beliefcheck
from beliefcheck import (
    AbsoluteContinuityViolation,
    Dist,
    InvalidMixError,
    Model,
    Observation,
    StructuralError,
    WeightedPosteriors,
    ZeroProbabilityCell,
    check_condition1,
    condition,
    construct_known_omega_model,
    construct_rationalization,
    induced_observables,
    load_model,
    pushforward,
    save_model,
    save_observation,
    set_partitions,
    target_mix,
    uniform_mix,
    verify_model,
)
from beliefcheck.cli import main
from beliefcheck.io import model_json
from beliefcheck.rationalize import (
    MINUS,
    PLUS,
    cell_table,
    omega_label,
    signal_label,
)
from genobs import (
    random_dist,
    random_observation,
    random_violating_observation,
    state_labels,
)

S2 = ("H", "L")


def dist(space, *values):
    return Dist(space, tuple(Fraction(v) for v in values))


class TestCondition1:
    def test_worked_example_passes(self, worked_example):
        report = check_condition1(worked_example)
        assert report.overall_pass
        assert [e.derivative.epsilon for e in report.entries] == [
            Fraction(5, 8),
            Fraction(1, 2),
        ]

    def test_violation_is_reported_not_raised(self):
        obs = Observation(
            dist(S2, 1, 0),
            WeightedPosteriors(((Fraction(1), dist(S2, "1/2", "1/2")),)),
        )
        report = check_condition1(obs)
        assert not report.overall_pass
        assert report.entries[0].violations == ("L",)

    def test_prior_itself_passes_with_epsilon_one(self):
        prior = dist(S2, "1/2", "1/2")
        obs = Observation(prior, WeightedPosteriors(((Fraction(1), prior),)))
        report = check_condition1(obs)
        assert report.overall_pass
        assert report.entries[0].derivative.epsilon == Fraction(1)


def _model_fields(**changes) -> dict:
    """Fields of a valid two-state model with one signal cell per state,
    with `changes` applied."""
    omega = ("H|a", "L|b")
    fields = dict(
        states=S2,
        omega=omega,
        projection={"H|a": "H", "L|b": "L"},
        signal_partition={"a": ("H|a",), "b": ("L|b",)},
        mu0=dist(omega, "1/2", "1/2"),
        pObj=dist(omega, "1/4", "3/4"),
    )
    fields.update(changes)
    return fields


class TestModelStructure:
    @pytest.mark.parametrize(
        "changes, message",
        [
            (
                dict(mu0=dist(("H|a", "X"), "1/2", "1/2")),
                "mu0 and pObj must be distributions over the model's omega",
            ),
            (
                dict(signal_partition={"a": ("H|a", "L|b"), "b": ("L|b",)}),
                "signal partition cells must be disjoint",
            ),
            (
                dict(signal_partition={"a": ("H|a",)}),
                "signal partition must cover omega",
            ),
            (
                dict(projection={"H|a": "H"}),
                "projection undefined at 'L|b'",
            ),
            (
                dict(projection={"H|a": "H", "L|b": "X"}),
                "projection sends 'L|b' outside the declared states",
            ),
            (
                dict(
                    signal_partition={"a": ("H|a",), "b": ("L|b",), "c": ()}
                ),
                "signal partition cells must be non-empty",
            ),
        ],
    )
    def test_structural_errors(self, changes, message):
        with pytest.raises(StructuralError) as err:
            Model(**_model_fields(**changes))
        assert str(err.value) == message

    def test_repeated_states_are_refused_at_construction(self):
        with pytest.raises(StructuralError) as err:
            Model(
                **_model_fields(
                    states=("H", "H"), projection={"H|a": "H", "L|b": "H"}
                )
            )
        assert str(err.value) == "outcome labels must be distinct"

    def test_states_are_stored_as_a_tuple(self):
        listed = Model(**_model_fields(states=list(S2)))
        assert listed.states == S2
        assert listed == Model(**_model_fields())

    @pytest.mark.parametrize("container", [list, set, frozenset])
    def test_cells_as_lists_or_sets_equal_their_round_trip(
        self, tmp_path, container
    ):
        omega = ("H|a", "L|a", "L|b")
        # cell "a" lists its outcomes against omega order
        cells = {"a": container(["L|a", "H|a"]), "b": container(["L|b"])}
        fields = _model_fields(
            omega=omega,
            projection={"H|a": "H", "L|a": "L", "L|b": "L"},
            signal_partition=cells,
            mu0=dist(omega, "1/4", "1/4", "1/2"),
            pObj=dist(omega, "1/2", "1/4", "1/4"),
        )
        model = Model(**fields)
        tuples = {"a": ("H|a", "L|a"), "b": ("L|b",)}
        assert model.signal_partition == tuples
        assert model == Model(**dict(fields, signal_partition=tuples))
        save_model(model, tmp_path / "m.json")
        assert load_model(tmp_path / "m.json")[0] == model

    def test_tuple_cells_are_stored_as_given(self):
        cells = {"b": ("L|b",), "a": ("H|a",)}
        model = Model(**_model_fields(signal_partition=cells))
        assert model.signal_partition is cells


class TestConstruction:
    def test_worked_example_tables(self, worked_example):
        model = construct_rationalization(worked_example)
        # columns in (nu0+, nu1+, nu0-, nu1-) order correspond to the
        # (0.8+, 1.0+, 0.8-, 1.0-) signal cells
        expected_mu0 = {
            "H|nu0+": "1/4", "H|nu1+": "1/4", "H|nu0-": "0", "H|nu1-": "0",
            "L|nu0+": "1/16", "L|nu1+": "0", "L|nu0-": "3/16", "L|nu1-": "1/4",
        }
        expected_obj = {
            "H|nu0+": "1/8", "H|nu1+": "3/8", "H|nu0-": "0", "H|nu1-": "0",
            "L|nu0+": "1/8", "L|nu1+": "3/8", "L|nu0-": "0", "L|nu1-": "0",
        }
        for label, value in expected_mu0.items():
            assert model.mu0[label] == Fraction(value)
        for label, value in expected_obj.items():
            assert model.pObj[label] == Fraction(value)
        assert verify_model(model, worked_example).all_pass

    def test_degenerate_single_posterior(self):
        prior = dist(S2, "1/2", "1/2")
        obs = Observation(prior, WeightedPosteriors(((Fraction(1), prior),)))
        model = construct_rationalization(obs)
        assert len(model.omega) == 4  # 2 states x 1 posterior x 2 signs
        # all subjective mass sits on the "+" cell, proportional to the prior
        assert model.mu0.mass(model.signal_partition["nu0+"]) == 1
        post = pushforward(
            condition(model.mu0, model.signal_partition["nu0+"]),
            model.projection,
            model.states,
        )
        assert post.matches(prior)
        assert verify_model(model, obs).all_pass

    def test_three_state_example_verifies(self):
        space = ("a", "b", "c")
        obs = Observation(
            dist(space, "1/3", "1/3", "1/3"),
            WeightedPosteriors(
                (
                    (Fraction(1, 3), dist(space, "1/2", "1/2", "0")),
                    (Fraction(2, 3), dist(space, "0", "0", "1")),
                )
            ),
        )
        report = verify_model(construct_rationalization(obs), obs)
        assert report.all_pass

    def test_refuses_on_absolute_continuity_failure(self):
        obs = Observation(
            dist(S2, 1, 0),
            WeightedPosteriors(((Fraction(1), dist(S2, "1/2", "1/2")),)),
        )
        with pytest.raises(AbsoluteContinuityViolation):
            construct_rationalization(obs)

    def test_rejects_mix_without_full_support(self, worked_example):
        lam = Dist(("nu0", "nu1"), (Fraction(1), Fraction(0)))
        with pytest.raises(InvalidMixError):
            construct_rationalization(worked_example, lam)

    def test_phantom_cell_conditionals_are_distributions(self):
        rng = random.Random(7)
        for _ in range(25):
            obs = random_observation(rng, rng.randint(2, 5), rng.randint(1, 4))
            model = construct_rationalization(obs)
            report = check_condition1(obs)
            for k, entry in enumerate(report.entries):
                eps = entry.derivative.epsilon
                cell = model.signal_partition["nu%d-" % k]
                if eps == 1:
                    assert model.mu0.mass(cell) == 0
                    continue
                cond = condition(model.mu0, cell)
                # Dist construction already enforces nonnegativity and unit
                # mass; cross-check the closed form
                for s in obs.space:
                    expected = (obs.prior[s] - eps * obs.posteriors.beliefs[k][s]) / (1 - eps)
                    assert cond["%s|nu%d-" % (s, k)] == expected


class TestVerify:
    def test_moving_mass_between_identical_phantom_cells_is_harmless(
        self, worked_example
    ):
        # both phantom cells induce the posterior (0, 1), so shifting mass
        # between them leaves every check intact
        model = construct_rationalization(worked_example)
        weights = dict(zip(model.mu0.space, model.mu0.weights))
        weights["L|nu1-"] += weights["L|nu0-"]
        weights["L|nu0-"] = Fraction(0)
        shifted = Model(
            states=model.states,
            omega=model.omega,
            projection=model.projection,
            signal_partition=model.signal_partition,
            mu0=Dist(model.omega, tuple(weights[w] for w in model.omega)),
            pObj=model.pObj,
            lambda_mix=model.lambda_mix,
        )
        assert verify_model(shifted, worked_example).all_pass

    def test_perturbed_model_breaks_martingale(self, worked_example):
        model = construct_rationalization(worked_example)
        weights = dict(zip(model.mu0.space, model.mu0.weights))
        # move the 0.8- cell's mass from the L row to the H row: the cell
        # posterior flips to (1, 0) and the mean posterior drifts high
        weights["H|nu0-"] += weights["L|nu0-"]
        weights["L|nu0-"] = Fraction(0)
        broken = Model(
            states=model.states,
            omega=model.omega,
            projection=model.projection,
            signal_partition=model.signal_partition,
            mu0=Dist(model.omega, tuple(weights[w] for w in model.omega)),
            pObj=model.pObj,
            lambda_mix=model.lambda_mix,
        )
        report = verify_model(broken, worked_example)
        assert not report.subjective_martingale_holds
        assert not report.consistent

    def test_correct_prior_bayesian(self):
        # objective distribution equal to the subjective prior, posteriors
        # equal to the prior's partition conditionals: everything matches
        # and the objective weights are the subjective ones
        space = ("a", "b", "c", "d")
        prior = dist(space, "1/4", "1/4", "1/4", "1/4")
        cells = {"x": ("a", "b"), "y": ("c",), "z": ("d",)}
        posteriors = WeightedPosteriors(
            tuple(
                (prior.mass(cell), condition(prior, cell))
                for cell in cells.values()
            )
        )
        obs = Observation(prior, posteriors)
        model = Model(
            states=space,
            omega=space,
            projection={s: s for s in space},
            signal_partition=cells,
            mu0=prior,
            pObj=prior,
        )
        report = verify_model(model, obs)
        assert report.all_pass

    def test_float_rounding_in_the_martingale_mean_is_reported(self, tmp_path):
        # One of the skewed float observations (random()**{1,4,12} weights)
        # whose subjective mean posterior summed to 1 - 1.2e-9 in float
        # arithmetic. Floats are now converted exactly where they enter, so
        # the model verifies and its mean posterior is the prior itself.
        space = ("s0", "s1", "s2")
        prior = Dist(
            space, (0.00304330659992183, 1.22525912437178e-09, 0.996956692174819)
        )
        items = (
            (0.9838053096100999, (0.9982696019520845, 0.0017303106588396051, 8.738907590781452e-08)),
            (9.27927069456794e-06, (0.4289863111285669, 0.49564025576815507, 0.07537343310327824)),
            (0.01618541111920538, (5.310561079601598e-26, 0.9999999284110529, 7.158894711152803e-08)),
        )
        obs = Observation(
            prior, WeightedPosteriors(tuple((w, Dist(space, b)) for w, b in items))
        )
        model = construct_rationalization(obs)
        report = verify_model(model, obs)
        assert report.all_pass
        assert report.details["mean_posterior"] == obs.prior.weights
        # the CLI verifies the model it built, after a float-mode round trip
        obs_path, model_path = tmp_path / "o.json", tmp_path / "m.json"
        save_observation(obs, obs_path, mode="float")
        save_model(model, model_path, mode="float")
        assert main(["verify", str(model_path), str(obs_path)]) == 0
        argv = ["martingale", str(obs_path), "--weights", "subjective-from"]
        assert main(argv + ["--model", str(model_path)]) == 0

    def test_soundness_over_random_observations(self):
        rng = random.Random(11)
        for _ in range(50):
            obs = random_observation(rng, rng.randint(2, 6), rng.randint(1, 5))
            model = construct_rationalization(obs)
            assert verify_model(model, obs).all_pass


def assert_table_matches_conditioning(model):
    """Every cell-table entry equals its definition from the omega-level
    distributions: masses, per-state rows, and condition-then-pushforward."""
    cells = cell_table(model)
    assert [c.label for c in cells] == list(model.signal_partition)
    for c in cells:
        cell = model.signal_partition[c.label]
        mu, obj = c.mu_parts, c.obj_parts
        assert Fraction(mu.total, mu.den) == model.mu0.mass(cell)
        assert Fraction(obj.total, obj.den) == model.pObj.mass(cell)
        for s, mu_num, obj_num in zip(model.states, mu.acc, obj.acc):
            sub = [w for w in cell if model.projection[w] == s]
            assert Fraction(mu_num, mu.den) == model.mu0.mass(sub)
            assert Fraction(obj_num, obj.den) == model.pObj.mass(sub)
        if mu.total == 0:
            assert c.posterior is None
            with pytest.raises(ZeroProbabilityCell):
                condition(model.mu0, cell)
        else:
            assert c.posterior == pushforward(
                condition(model.mu0, cell), model.projection, model.states
            )


def hand_built_model():
    """Several outcomes per (cell, state), partition cells listed out of
    omega order, and a cell with zero subjective mass."""
    omega = ("a1", "b1", "a2", "a3", "b2", "c1", "b3")
    projection = {
        "a1": "H", "a2": "H", "a3": "L",
        "b1": "L", "b2": "L", "b3": "H",
        "c1": "H",
    }
    return Model(
        states=S2,
        omega=omega,
        projection=projection,
        signal_partition={
            "x": ("a3", "a1", "a2"),
            "y": ("b2", "b3", "b1"),
            "z": ("c1",),
        },
        mu0=dist(omega, "1/8", "1/4", "1/8", "1/8", "1/8", 0, "1/4"),
        pObj=dist(omega, "1/6", "1/6", "1/6", 0, "1/6", "1/6", "1/6"),
    )


def relaid(model, omega, partition):
    """`model` with its outcomes listed in the order `omega` and the signal
    partition `partition`: the same masses on the same outcomes."""
    return Model(
        states=model.states,
        omega=omega,
        projection=model.projection,
        signal_partition=partition,
        mu0=Dist(omega, [model.mu0[w] for w in omega]),
        pObj=Dist(omega, [model.pObj[w] for w in omega]),
    )


def layouts(model, rng):
    """`model` rebuilt with the same cells laid out in other ways, by name.
    A constructed model puts each cell in one run of omega, one outcome per
    state in state order: "lists" keeps that layout, "sets" keeps it or not
    as the hash order falls, and the others break it."""
    cells = model.signal_partition
    shuffled = list(model.omega)
    rng.shuffle(shuffled)
    # each cell still a run of omega, its states in reverse order
    reversed_cells = {label: cell[::-1] for label, cell in cells.items()}
    # neighbouring cells joined: several outcomes per state in one run
    labels = list(cells)
    pairs = [labels[i : i + 2] for i in range(0, len(labels), 2)]
    merged = {
        "+".join(pair): sum((cells[c] for c in pair), ()) for pair in pairs
    }
    return {
        "shuffled": relaid(model, shuffled, dict(cells)),
        "reversed": relaid(
            model, sum(reversed_cells.values(), ()), reversed_cells
        ),
        "lists": relaid(
            model, model.omega, {c: list(v) for c, v in cells.items()}
        ),
        "sets": relaid(
            model, model.omega, {c: set(v) for c, v in cells.items()}
        ),
        "merged": relaid(model, model.omega, merged),
    }


def by_label(cell):
    return cell.label


class TestCellTable:
    def test_constructed_models(self, worked_example):
        rng = random.Random(31)
        observations = [worked_example] + [
            random_observation(rng, rng.randint(2, 6), rng.randint(1, 6))
            for _ in range(20)
        ]
        for obs in observations:
            for mix in (uniform_mix(obs), target_mix(obs)):
                assert_table_matches_conditioning(
                    construct_rationalization(obs, mix)
                )

    def test_known_omega_models(self):
        # correct-prior Bayesians on a random partition; leaving some
        # blocks uncharged adds a residual cell with zero objective mass
        rng = random.Random(37)
        for _ in range(20):
            space = state_labels(rng.randint(2, 6))
            prior = random_dist(rng, space, full_support=True)
            blocks = rng.choice(list(set_partitions(space)))
            charged = rng.sample(blocks, rng.randint(1, len(blocks)))
            weights = [Fraction(rng.randint(1, 9)) for _ in charged]
            obs = Observation(
                prior,
                WeightedPosteriors(
                    tuple(
                        (w / sum(weights), condition(prior, block))
                        for w, block in zip(weights, charged)
                    )
                ),
            )
            model = construct_known_omega_model(obs)
            assert_table_matches_conditioning(model)
            assert verify_model(model, obs).consistent

    def test_hand_built_model(self):
        model = hand_built_model()
        assert_table_matches_conditioning(model)
        x, y, z = cell_table(model)
        row = x.mu_parts
        assert [Fraction(a, row.den) for a in row.acc] == [
            Fraction(1, 4),
            Fraction(1, 8),
        ]
        assert x.posterior == dist(S2, "2/3", "1/3")
        row = y.obj_parts
        assert [Fraction(a, row.den) for a in row.acc] == [
            Fraction(1, 6),
            Fraction(1, 3),
        ]
        row = z.obj_parts
        assert z.posterior is None
        assert Fraction(row.total, row.den) == Fraction(1, 6)

    @pytest.mark.parametrize(
        "layout", ["shuffled", "reversed", "lists", "sets", "merged"]
    )
    def test_relaid_constructed_models(self, layout, worked_example):
        rng = random.Random(41)
        observations = [worked_example] + [
            random_observation(rng, rng.randint(2, 6), rng.randint(1, 6))
            for _ in range(10)
        ]
        for obs in observations:
            model = construct_rationalization(obs)
            other = layouts(model, rng)[layout]
            assert_table_matches_conditioning(other)
            if layout == "merged":
                continue
            assert cell_table(other) == cell_table(model)
            report, again = verify_model(model, obs), verify_model(other, obs)
            assert again.as_dict() == report.as_dict()
            assert again.details == report.details

    def test_loaded_models(self, tmp_path, worked_example):
        rng = random.Random(43)
        model = construct_rationalization(worked_example)
        prior = dist(("a", "b", "c"), "1/4", "1/4", "1/2")
        known = construct_known_omega_model(
            Observation(
                prior,
                WeightedPosteriors(
                    (
                        (Fraction(3, 4), condition(prior, ("a", "c"))),
                        (Fraction(1, 4), condition(prior, ("b",))),
                    )
                ),
            )
        )
        models = dict(layouts(model, rng), constructed=model, known=known)
        models["hand"] = hand_built_model()
        for name, other in models.items():
            path = tmp_path / ("%s.json" % name)
            save_model(other, path)
            loaded, _ = load_model(path)
            assert_table_matches_conditioning(loaded)
            # the file lists the cells in order of first appearance
            assert sorted(cell_table(loaded), key=by_label) == sorted(
                cell_table(other), key=by_label
            )

    def test_constructed_labels_follow_omega_label(self, worked_example):
        # states that are not strings are formatted as omega_label does
        odd = Observation(
            dist((1, (2, 3)), "1/2", "1/2"),
            WeightedPosteriors(
                ((Fraction(1), dist((1, (2, 3)), "1/3", "2/3")),)
            ),
        )
        rng = random.Random(47)
        for obs in (worked_example, odd, random_observation(rng, 5, 4)):
            model = construct_rationalization(obs)
            k = len(obs.posteriors)
            signals = [(i, sign) for sign in (PLUS, MINUS) for i in range(k)]
            assert list(model.signal_partition) == [
                signal_label(i, sign) for i, sign in signals
            ]
            for (i, sign), cell in zip(
                signals, model.signal_partition.values()
            ):
                assert cell == tuple(
                    omega_label(s, i, sign) for s in obs.space
                )
            assert model.omega == sum(model.signal_partition.values(), ())
            assert model.projection == {
                omega_label(s, i, sign): s
                for i, sign in signals
                for s in obs.space
            }

    def test_tampered_saved_model_fails_verify(self, tmp_path, worked_example):
        path = tmp_path / "m.json"
        save_model(construct_rationalization(worked_example), path)
        loaded, _ = load_model(path)
        assert verify_model(loaded, worked_example).all_pass
        # shift the L point's mass in cell nu0+ onto the H point: mu0 still
        # sums to 1, but the cell's posterior moves from (4/5, 1/5) to (1, 0)
        data = json.loads(path.read_text())
        mu0 = data["mu0"]
        mu0["H|nu0+"] = str(Fraction(mu0["H|nu0+"]) + Fraction(mu0["L|nu0+"]))
        mu0["L|nu0+"] = "0"
        path.write_text(json.dumps(data))
        tampered, _ = load_model(path)
        report = verify_model(tampered, worked_example)
        assert not report.consistent
        assert not report.posterior_distribution_matches
        assert not report.subjective_martingale_holds


# A model whose cells are sets, which iterate in an order that depends on
# the string hash seed; its file lists each cell in omega order.
_SET_CELLED = """
from fractions import Fraction
from beliefcheck import Dist, Model
from beliefcheck.io import model_json
omega = tuple("w%d" % i for i in range(12))
model = Model(
    states=("H", "L"),
    omega=omega,
    projection={w: "HL"[i % 2] for i, w in enumerate(omega)},
    signal_partition={"c%d" % c: set(omega[c::3]) for c in range(3)},
    mu0=Dist(omega, [Fraction(1, 12)] * 12),
    pObj=Dist(omega, [Fraction(1, 12)] * 12),
)
"""


class TestPartitionOrder:
    def test_hand_built_model_round_trips(self, tmp_path):
        model = hand_built_model()
        obs = Observation(
            pushforward(model.mu0, model.projection, model.states),
            WeightedPosteriors(((Fraction(1), dist(S2, "2/3", "1/3")),)),
        )
        model_path, obs_path = tmp_path / "m.json", tmp_path / "o.json"
        save_model(model, model_path)
        save_observation(obs, obs_path)
        assert json.loads(model_path.read_text())["partition"] == {
            "x": [0, 2, 3],
            "y": [1, 4, 6],
            "z": [5],
        }
        loaded, _ = load_model(model_path)
        report, again = verify_model(model, obs), verify_model(loaded, obs)
        assert again.as_dict() == report.as_dict()
        assert again.details == report.details
        assert main(["verify", str(model_path), str(obs_path)]) == (
            0 if report.consistent else 2
        )

    def test_set_cells_write_the_same_bytes_under_any_hash_seed(self):
        namespace = {}
        exec(_SET_CELLED, namespace)
        here = model_json(namespace["model"], "rational")
        src = str(Path(beliefcheck.__file__).resolve().parent.parent)
        script = _SET_CELLED + "print(model_json(model, 'rational'), end='')"
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == here


class TestLambdaAndUniversality:
    def test_lambda_independence_of_observables(self):
        rng = random.Random(23)
        for _ in range(20):
            obs = random_observation(rng, rng.randint(2, 5), rng.randint(2, 4))
            m_uniform = construct_rationalization(obs, uniform_mix(obs))
            m_target = construct_rationalization(obs, target_mix(obs))
            prior_u, post_u = induced_observables(m_uniform)
            prior_t, post_t = induced_observables(m_target)
            assert prior_u.matches(prior_t)
            assert post_u.weights == post_t.weights
            for a, b in zip(post_u.beliefs, post_t.beliefs):
                assert a.matches(b)

    def test_mu0_tables_do_differ_between_mixes(self, worked_example):
        m_uniform = construct_rationalization(worked_example)
        m_target = construct_rationalization(
            worked_example, target_mix(worked_example)
        )
        assert m_uniform.mu0.weights != m_target.mu0.weights

    def test_omega_labels_are_universal(self, worked_example):
        other = Observation(
            dist(S2, "1/3", "2/3"),
            WeightedPosteriors(
                (
                    (Fraction(1, 2), dist(S2, "1/6", "5/6")),
                    (Fraction(1, 2), dist(S2, "1/2", "1/2")),
                )
            ),
        )
        m1 = construct_rationalization(worked_example)
        m2 = construct_rationalization(other)
        assert m1.omega == m2.omega
        assert m1.projection == m2.projection
        assert list(m1.signal_partition) == list(m2.signal_partition)


class TestNecessity:
    def test_no_known_space_partition_rationalizes_a_violation(self):
        # exhaustive search over all identity-projection models: with the
        # subjective prior pinned to the observed prior, no signal
        # partition reproduces a posterior that charges prior-null mass
        rng = random.Random(5)
        for _ in range(10):
            obs = random_violating_observation(rng, rng.randint(2, 5), rng.randint(1, 3))
            for blocks in set_partitions(obs.space):
                cells = {"c%d" % i: tuple(b) for i, b in enumerate(blocks)}
                positive = [
                    cell
                    for cell in cells.values()
                    if obs.prior.mass(cell) > 0
                ]
                induced = [
                    (obs.prior.mass(cell), condition(obs.prior, cell))
                    for cell in positive
                ]
                observed = set()
                for _, post in induced:
                    for belief in obs.posteriors.beliefs:
                        if post.matches(belief):
                            observed.add(id(belief))
                assert len(observed) < len(obs.posteriors)

    def test_construct_refuses_violations(self):
        rng = random.Random(6)
        for _ in range(10):
            obs = random_violating_observation(rng, rng.randint(2, 5), rng.randint(1, 3))
            with pytest.raises(AbsoluteContinuityViolation):
                construct_rationalization(obs)
