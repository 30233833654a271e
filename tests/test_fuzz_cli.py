"""Schema fuzzing of the CLI: valid observation and model files are mutated
(keys dropped, values swapped for other JSON types, bad numbers and labels
added) and every subcommand is run on them in process. Whatever the input,
the exit code is 0, 1 or 2 and no exception escapes `cli.main`."""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefcheck import Dist, Observation, WeightedPosteriors
from beliefcheck.cli import main
from beliefcheck.rationalize import construct_rationalization

from reference_io import model_to_dict, observation_to_dict

S2 = ("H", "L")
WORKED = Observation(
    Dist(S2, (Fraction(1, 2), Fraction(1, 2))),
    WeightedPosteriors(
        (
            (Fraction(1, 4), Dist(S2, (Fraction(4, 5), Fraction(1, 5)))),
            (Fraction(3, 4), Dist(S2, (Fraction(1), Fraction(0)))),
        )
    ),
)
MODEL = construct_rationalization(WORKED)
DOCS = {
    ("observation", mode): observation_to_dict(WORKED, mode)
    for mode in ("rational", "float")
}
DOCS.update(
    {
        ("model", mode): model_to_dict(MODEL, mode)
        for mode in ("rational", "float")
    }
)

BAD_NUMBERS = st.sampled_from(
    [
        "", "1/0", "-1/2", "+1/2", " 1/2", "1_0/3", "٣/4", "1/2/3",
        "1e400", "1e-400", "1e99999", "nan", "inf", "-0", "0x10",
        "9" * 60 + "/7", "2/" + "3" * 60,
    ]
)
LABELS = st.sampled_from(["", "H", "L", "X", "nu0", "nu0+", "H|nu0+", "rest"])
# One value of each JSON type, for type swaps.
SWAPS = (None, True, 7, 0.5, "x", ["H"], {"H": "1/2"})
JUNK = st.one_of(
    st.sampled_from(SWAPS + ([], {})),
    BAD_NUMBERS,
    LABELS,
    st.integers(-(10**30), 10**30),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def mutated(draw, doc):
    """`doc` after one to three mutations. Each walks down from the root,
    one random key at a time, stopping at a random depth, and there swaps
    the value for one of another JSON type, replaces it with junk, drops
    it, or adds a junk entry to it."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        node, parent, key = doc, None, None
        while (
            isinstance(node, (dict, list)) and node and draw(st.integers(0, 5))
        ):
            keys = list(node) if isinstance(node, dict) else range(len(node))
            parent, key = node, draw(st.sampled_from(keys))
            node = node[key]
        op = draw(st.sampled_from(["swap", "swap", "junk", "drop", "add"]))
        if op == "swap":
            others = [v for v in SWAPS if type(v) is not type(node)]
            value = draw(st.sampled_from(others))
        else:
            value = draw(JUNK)
        value = copy.deepcopy(value)  # SWAPS holds shared lists and dicts
        if op == "add" and isinstance(node, dict):
            node[draw(LABELS)] = value
        elif op == "add" and isinstance(node, list):
            node.append(value)
        elif op == "drop" and parent is not None:
            del parent[key]
        elif parent is not None:
            parent[key] = value
        else:
            doc = value
    return doc


def _commands(obs, model, out):
    return [
        ["check", obs],
        ["check", obs, "--json"],
        ["rationalize", obs],
        ["rationalize", obs, "--json", "--lambda", "target"],
        ["rationalize", obs, "--out", out],
        ["verify", model, obs],
        ["verify", model, obs, "--json"],
        ["known-omega", obs, "--json"],
        ["known-omega", obs, "--brute-force"],
        ["martingale", obs],
        ["martingale", obs, "--weights", "subjective-from", "--model", model],
        ["simulate", model, "--n", "50", "--seed", "3", "--json"],
    ]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mutated_files_never_escape_the_exit_code_contract(workdir, data):
    mode = data.draw(st.sampled_from(["rational", "float"]), label="mode")
    # Mutate the observation, the model, or both.
    which = data.draw(st.sampled_from(["observation", "model", "both"]))
    obs_doc, model_doc = DOCS["observation", mode], DOCS["model", mode]
    if which != "model":
        obs_doc = data.draw(mutated(obs_doc), label="observation")
    if which != "observation":
        model_doc = data.draw(mutated(model_doc), label="model")
    obs, model = workdir / "o.json", workdir / "m.json"
    obs.write_text(json.dumps(obs_doc))
    model.write_text(json.dumps(model_doc))
    for argv in _commands(str(obs), str(model), str(workdir / "out.json")):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2), argv
