"""The model and observation writers against their reference layout,
json.dumps(<file>_to_dict(...), indent=2) plus a newline, and the loaders'
error locations, one message per location."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from beliefcheck import (
    Dist,
    FormatError,
    Observation,
    StructuralError,
    WeightedPosteriors,
    construct_known_omega_model,
    construct_rationalization,
    load_model,
    load_observation,
    save_model,
    save_observation,
)
from beliefcheck.cli import main
from beliefcheck.rationalize import target_mix

import genobs
from reference_io import model_to_dict, observation_to_dict

MODES = ("rational", "float")
# Characters json escapes in each of its ways: quote, backslash, control
# characters, non-ASCII text and a character outside the BMP.
LABEL_CHARS = st.sampled_from(
    ["a", "B", "7", "|", "+", '"', "\\", "\x00", "\n", "\x1f", "\x7f",
     "é", "☃", "\U0001F600"]
) | st.characters(blacklist_categories=("Cs",))
LABELS = st.text(LABEL_CHARS, min_size=1, max_size=4)


def reference(doc) -> bytes:
    return (json.dumps(doc, indent=2) + "\n").encode()


def relabel(obs, states):
    """`obs` over new state labels, in the same order."""

    def move(d):
        return Dist(states, d.weights)

    return Observation(
        move(obs.prior),
        WeightedPosteriors(
            tuple((w, move(b)) for w, b in obs.posteriors.items)
        ),
    )


def floated(obs):
    """`obs` with every weight a float, as a float-mode file reads it."""

    def move(d):
        return Dist(d.space, tuple(map(float, d.weights)))

    return Observation(
        move(obs.prior),
        WeightedPosteriors(
            tuple((float(w), move(b)) for w, b in obs.posteriors.items)
        ),
    )


def known_omega_observation(rng, states):
    """A full-support prior and its conditionals on the blocks of a random
    partition of the states, which the known-omega test accepts."""
    prior = genobs.random_dist(rng, states, full_support=True)
    blocks = {}
    for s in states:
        blocks.setdefault(rng.randrange(len(states)), []).append(s)
    posteriors = []
    for block in blocks.values():
        mass = sum(prior[s] for s in block)
        posteriors.append(
            Dist(
                states,
                tuple(prior[s] / mass if s in block else 0 for s in states),
            )
        )
    weights = genobs.random_weights(rng, len(posteriors))
    return Observation(
        prior, WeightedPosteriors(tuple(zip(weights, posteriors)))
    )


@settings(max_examples=60, deadline=None)
@given(
    states=st.lists(LABELS, min_size=1, max_size=6, unique=True),
    seed=st.integers(0, 2**32),
    k=st.integers(1, 6),
    floats=st.booleans(),
)
def test_written_bytes_equal_the_reference(
    tmp_path_factory, states, seed, k, floats
):
    rng = random.Random(seed)
    states = tuple(states)
    obs = relabel(genobs.random_observation(rng, len(states), k), states)
    witness = known_omega_observation(rng, states)
    if floats:
        obs, witness = floated(obs), floated(witness)
    try:
        models = [
            construct_rationalization(obs),
            construct_known_omega_model(witness),
        ]
    except ValueError:
        # Labels such as "a" and "a|nu0+" can collide in the enlarged
        # space; float rounding can refuse a model. Neither is a writer case.
        assume(False)
    assert models[1].lambda_mix is None
    path = tmp_path_factory.mktemp("writer") / "f.json"
    for mode in MODES:
        for o in (obs, witness):
            save_observation(o, path, mode)
            assert path.read_bytes() == reference(observation_to_dict(o, mode))
        for m in models:
            save_model(m, path, mode)
            assert path.read_bytes() == reference(model_to_dict(m, mode))


@pytest.mark.parametrize("k", [48, 64])
@pytest.mark.parametrize("floats", [False, True])
def test_large_files_equal_the_reference(tmp_path, k, floats):
    # Wide enough that mu0 repeats many numerators and the file spans many
    # blocks; float-origin data in both modes.
    obs = genobs.random_observation(random.Random(k), 12, k)
    if floats:
        obs = floated(obs)
    models = [
        construct_rationalization(obs),
        construct_rationalization(obs, target_mix(obs)),
    ]
    path = tmp_path / "f.json"
    for mode in MODES:
        save_observation(obs, path, mode)
        assert path.read_bytes() == reference(observation_to_dict(obs, mode))
        for model in models:
            save_model(model, path, mode)
            assert path.read_bytes() == reference(model_to_dict(model, mode))


def test_writers_refuse_what_the_loaders_refuse(tmp_path, worked_example):
    # An unknown mode, or labels that are not strings (here the states 1
    # and 2), would make a file that the loaders refuse to read back.
    numbered = Observation(
        Dist((1, 2), (Fraction(1, 2), Fraction(1, 2))),
        WeightedPosteriors(((1, Dist((1, 2), (Fraction(1), Fraction(0)))),)),
    )
    cases = [
        (save_observation, worked_example, "exact", "mode 'exact'"),
        (save_observation, numbered, "rational", "label 1"),
        (
            save_model,
            construct_rationalization(worked_example),
            "Rational",
            "mode 'Rational'",
        ),
        (save_model, construct_rationalization(numbered), "float", "label 1"),
    ]
    for i, (save, thing, mode, named) in enumerate(cases):
        path = tmp_path / ("%d.json" % i)
        with pytest.raises(StructuralError, match=named):
            save(thing, path, mode)
        assert not path.exists()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("lam", ["uniform", "target"])
def test_rationalize_json_prints_the_file(tmp_path, capsys, mode, lam):
    rng = random.Random(11)
    states = ("été", 'say "hi"', "back\\slash", "tab\t")
    for k in (1, 3, 5):
        obs = relabel(genobs.random_observation(rng, len(states), k), states)
        obs_path, out = tmp_path / "o.json", tmp_path / "m.json"
        save_observation(obs, obs_path, mode)
        argv = ["rationalize", str(obs_path), "--lambda", lam]
        assert main(argv + ["--out", str(out), "--json"]) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()


WORKED = {
    "mode": "rational",
    "states": ["H", "L"],
    "prior": {"H": "1/2", "L": "1/2"},
    "posteriors": [
        {"weight": "1/4", "belief": {"H": "4/5", "L": "1/5"}},
        {"weight": "3/4", "belief": {"H": "1", "L": "0"}},
    ],
}


def _load_error(loader, path, doc) -> str:
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError) as err:
        loader(path)
    return str(err.value)


def _posterior(i, **fields):
    doc = json.loads(json.dumps(WORKED))
    doc["posteriors"][i].update(fields)
    return doc


# Malformed observation files and the error each raises, by location.
OBSERVATION_ERRORS = [
    (
        dict(WORKED, prior={"H": "x", "L": "1/2"}),
        "{path}:prior.H: 'x' is not a valid number (use 'p/q' or a "
        "decimal)",
    ),
    (
        dict(WORKED, prior={"H": "1/2", "L": "1/4"}),
        "{path}:prior: weights sum to 3/4, expected 1",
    ),
    (
        _posterior(1, weight=True),
        "{path}:posteriors[1].weight: expected a number, got a boolean",
    ),
    (
        _posterior(0, belief={"H": "4/5", "L": "1e9999"}),
        "{path}:posteriors[0].belief.L: decimal exponent above 4300 in "
        "magnitude",
    ),
    (
        _posterior(1, belief={"H": "1", "X": "0"}),
        "{path}:posteriors[1].belief: unknown state labels X",
    ),
    (
        _posterior(1, belief=["H"]),
        "{path}:posteriors[1].belief: expected an object mapping state "
        "labels to numbers",
    ),
    (
        dict(WORKED, posteriors=[WORKED["posteriors"][0], {"weight": 1}]),
        "{path}:posteriors[1]: missing required field 'belief'",
    ),
    (
        dict(WORKED, posteriors=[WORKED["posteriors"][0], 3]),
        "{path}:posteriors[1]: expected an object",
    ),
    (
        dict(WORKED, prior={"H": "-1/2", "L": "3/2"}),
        "{path}:prior: negative weight -1/2 at outcome 'H'",
    ),
    (
        dict(WORKED, mode="float", prior={"H": "1.25", "L": "-0.25"}),
        "{path}:prior: negative weight -0.25 at outcome 'L'",
    ),
]


@pytest.mark.parametrize("doc, message", OBSERVATION_ERRORS)
def test_observation_error_locations(tmp_path, doc, message):
    path = tmp_path / "o.json"
    assert _load_error(load_observation, path, doc) == message.format(
        path=path
    )


@pytest.fixture
def model_doc(tmp_path, worked_example):
    path = tmp_path / "m.json"
    save_model(construct_rationalization(worked_example), path)
    return json.loads(path.read_text())


# Edits of the worked example's model file and the error each raises.
MODEL_ERRORS = [
    (
        lambda d: d["omega"][2].update(s="X"),
        "{path}:omega[2]: state 'X' is not in 'states'",
    ),
    (
        lambda d: d["omega"][3].update(signal=""),
        "{path}:omega[3]: field 'signal' must be a non-empty string",
    ),
    (
        lambda d: d["omega"][1].pop("label"),
        "{path}:omega[1]: missing required field 'label'",
    ),
    (
        lambda d: d["omega"].__setitem__(0, ["H"]),
        "{path}:omega[0]: expected an object",
    ),
    (
        lambda d: d["mu0"].update({"L|nu1-": "1/0"}),
        "{path}:mu0.L|nu1-: '1/0' is not a valid number (use 'p/q' or a "
        "decimal)",
    ),
    (
        lambda d: d["pObj"].update({"H|nu0+": 0.5}),
        "{path}:pObj: weights sum to 11/8, expected 1",
    ),
    (
        lambda d: d["pObj"].update({"H|nu0+": False}),
        "{path}:pObj.H|nu0+: expected a number, got a boolean",
    ),
    (
        lambda d: d["lambda"].update(nu1="nan"),
        "{path}:lambda.nu1: 'nan' is not a valid number (use 'p/q' or a "
        "decimal)",
    ),
    (
        lambda d: d["mu0"].update({"H|nu0+": "-1/2"}),
        "{path}:mu0: negative weight -1/2 at outcome 'H|nu0+'",
    ),
]


@pytest.mark.parametrize("edit, message", MODEL_ERRORS)
def test_model_error_locations(tmp_path, model_doc, edit, message):
    edit(model_doc)
    path = tmp_path / "bad.json"
    assert _load_error(load_model, path, model_doc) == message.format(
        path=path
    )


def test_float_mode_overflow_names_the_lambda_weight(tmp_path, model_doc):
    model_doc.update(mode="float")
    model_doc["lambda"]["nu0"] = "1e400"
    path = tmp_path / "bad.json"
    assert _load_error(load_model, path, model_doc) == (
        "%s:lambda.nu0: '1e400' is out of range for float mode" % path
    )

