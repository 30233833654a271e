"""The loaders read each file's numbers through a table of its distinct
strings and check the omega entries as whole vectors, and walk the
entries only to name a bad one; `reference_io` holds loaders that read
them one entry and one number at a time, in file order. On
generated files in both modes, skewed float files, every single edit of
small files, the error tables of test_writer, mutated files and the
table's edges (below), both must
return equal objects or raise the same message. The one allowed
difference: `load_model` refuses partition indices that are not JSON
integers, which the reference accepts."""

import copy
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefcheck import (
    FormatError,
    StructuralError,
    construct_known_omega_model,
    construct_rationalization,
    load_model,
    load_observation,
    save_model,
    save_observation,
)
from beliefcheck.rationalize import target_mix

import genobs
from reference_io import load_model_reference, load_observation_reference
from test_float_mode import float_file, skewed
from test_fuzz_cli import DOCS, mutated
from test_writer import (
    MODEL_ERRORS,
    OBSERVATION_ERRORS,
    floated,
    known_omega_observation,
    relabel,
)

MODES = ("rational", "float")
REFERENCE = {
    load_observation: load_observation_reference,
    load_model: load_model_reference,
}
NOT_INTEGERS = "field 'partition' must list integer indices into 'omega'"


def canonical(thing):
    """Everything a loaded observation or model holds, exactly: Dist
    equality leaves out `tol`."""

    def dist(d):
        return None if d is None else (d.space, d.nums, d.den, d.tol)

    if hasattr(thing, "posteriors"):
        p = thing.posteriors
        items = tuple((w, dist(b)) for w, b in p.items)
        return dist(thing.prior), items, p.nums, p.den, p.tol, thing.tol
    return (
        thing.states,
        thing.omega,
        tuple(thing.projection.items()),
        tuple((label, cell) for label, cell in thing.signal_partition.items()),
        dist(thing.mu0),
        dist(thing.pObj),
        dist(thing.lambda_mix),
        thing.tol,
    )


def outcome(loader, path):
    try:
        value, mode = loader(path)
    except (FormatError, StructuralError) as err:
        return type(err).__name__, str(err)
    return canonical(value), mode


def integer_indices(doc) -> bool:
    partition = doc.get("partition") if isinstance(doc, dict) else None
    if not isinstance(partition, dict):
        return True
    cells = [c for c in partition.values() if isinstance(c, list)]
    return all(type(i) is int for cell in cells for i in cell)


def assert_loads_as_the_reference(loader, path, doc=None):
    got = outcome(loader, path)
    expected = outcome(REFERENCE[loader], path)
    if loader is load_model and doc is not None and not integer_indices(doc):
        if expected[0] not in ("FormatError", "StructuralError"):
            assert got == ("FormatError", "%s: %s" % (path, NOT_INTEGERS))
            return
    assert got == expected


def write(path, doc):
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("seed", range(12))
def test_generated_files_load_as_the_reference(tmp_path, seed):
    rng = random.Random(seed)
    n, k = rng.randint(1, 8), rng.randint(1, 8)
    observations = [
        genobs.random_observation(rng, n, k, full_support_prior=seed % 2),
        genobs.random_violating_observation(rng, max(n, 2), k),
        known_omega_observation(rng, genobs.state_labels(n)),
        relabel(genobs.random_observation(rng, 3, k), ("é", 'a"b', "c|d")),
    ]
    observations += [floated(obs) for obs in observations]
    obs_path, model_path = tmp_path / "o.json", tmp_path / "m.json"
    for obs in observations:
        models = []
        try:
            models.append(construct_rationalization(obs))
            models.append(construct_rationalization(obs, target_mix(obs)))
            models.append(construct_known_omega_model(obs))
        except ValueError:  # violating, or no known-omega witness
            pass
        for mode in MODES:
            save_observation(obs, obs_path, mode)
            assert_loads_as_the_reference(load_observation, obs_path)
            for model in models:
                save_model(model, model_path, mode)
                assert_loads_as_the_reference(load_model, model_path)


@pytest.mark.parametrize("k", [48, 64])
def test_wide_files_load_as_the_reference(tmp_path, k):
    obs = genobs.random_observation(random.Random(k), 12, k)
    obs_path, model_path = tmp_path / "o.json", tmp_path / "m.json"
    for data in (obs, floated(obs)):
        for mode in MODES:
            save_observation(data, obs_path, mode)
            assert_loads_as_the_reference(load_observation, obs_path)
            save_model(construct_rationalization(data), model_path, mode)
            assert_loads_as_the_reference(load_model, model_path)


def test_skewed_float_files_load_as_the_reference(tmp_path):
    rng = random.Random(7)
    path = tmp_path / "o.json"
    for _ in range(40):
        n, k = rng.randint(1, 6), rng.randint(1, 6)
        states = ["s%d" % i for i in range(n)]
        items = list(zip(skewed(rng, k), (skewed(rng, n) for _ in range(k))))
        float_file(path, states, skewed(rng, n), items)
        assert_loads_as_the_reference(load_observation, path)


def test_error_tables_load_as_the_reference(tmp_path, model_doc):
    path = tmp_path / "bad.json"
    for doc, _ in OBSERVATION_ERRORS:
        assert_loads_as_the_reference(load_observation, write(path, doc))
    for edit, _ in MODEL_ERRORS:
        doc = copy.deepcopy(model_doc)
        edit(doc)
        assert_loads_as_the_reference(load_model, write(path, doc), doc)


# Replacements for one value of a file: bad and good numbers, labels and
# values of every JSON type.
EDITS = [
    "", "x", "0", "1", "2/4", "1/0", "-1/2", "007/3", "0.5", "1e99999",
    "nan", "H", "L", "H|nu0+", True, 0, 1, 0.0, 0.5, None, [], {}, ["H"],
    {"H": "1"},
]


def paths(node, prefix=()):
    """The path of every value in a JSON document, the root first."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from paths(value, prefix + (i,))


DROP = object()  # an edit that removes the value


def edited(doc, path, value):
    """`doc` with the value at `path` replaced by `value`, or removed."""
    doc = copy.deepcopy(doc)
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


@pytest.fixture
def model_doc(tmp_path, worked_example):
    path = tmp_path / "worked-model.json"
    save_model(construct_rationalization(worked_example), path)
    return json.loads(path.read_text())


@pytest.mark.parametrize("kind", ["observation", "model"])
@pytest.mark.parametrize("mode", MODES)
def test_every_single_edit_loads_as_the_reference(tmp_path, kind, mode):
    loader = load_observation if kind == "observation" else load_model
    base = DOCS[kind, mode]
    path = tmp_path / "edited.json"
    for where in list(paths(base)):
        for value in EDITS + [DROP] if where else EDITS:
            doc = edited(base, where, value)
            assert_loads_as_the_reference(loader, write(path, doc), doc)


@pytest.mark.parametrize("kind", ["observation", "model"])
def test_pairs_of_edits_load_as_the_reference(tmp_path, kind):
    # Two faults in one file: the first in file order must be reported.
    loader = load_observation if kind == "observation" else load_model
    rng = random.Random(kind)
    path = tmp_path / "edited.json"
    for _ in range(300):
        doc = DOCS[kind, rng.choice(MODES)]
        for _ in range(2):
            where = rng.choice(list(paths(doc))[1:])
            doc = edited(doc, where, rng.choice(EDITS + [DROP]))
        assert_loads_as_the_reference(loader, write(path, doc), doc)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mutated_files_load_as_the_reference(tmp_path_factory, data):
    kind = data.draw(st.sampled_from(["observation", "model"]))
    mode = data.draw(st.sampled_from(MODES))
    doc = data.draw(mutated(DOCS[kind, mode]))
    path = write(tmp_path_factory.mktemp("mutated") / "f.json", doc)
    loader = load_observation if kind == "observation" else load_model
    assert_loads_as_the_reference(loader, path, doc)


# The loaders read a file's numbers through one table of its distinct
# strings, and walk the entries only to name a bad one. The cases below are
# the table's edges.


def observation_doc(mode, states, prior, beliefs, weights=None):
    weights = weights or ["1/%d" % len(beliefs)] * len(beliefs)
    posteriors = [{"weight": w, "belief": b} for w, b in zip(weights, beliefs)]
    return {
        "mode": mode,
        "states": states,
        "prior": prior,
        "posteriors": posteriors,
    }


@pytest.mark.parametrize("mode", MODES)
def test_rows_out_of_order_or_short_load_as_the_reference(tmp_path, mode):
    states = ["s0", "s1", "s2", "s3"]
    canonical_rows = [
        {"s0": "1/2", "s1": "1/4", "s2": "0", "s3": "1/4"},
        {"s0": "1", "s1": "0", "s2": "0", "s3": "0"},
        {"s0": "0", "s1": "1/2", "s2": "0", "s3": "1/2"},
    ]
    relaid_rows = [
        {"s3": "1/4", "s0": "1/2", "s1": "1/4"},  # s2 left out
        {"s0": "1"},
        {"s3": "1/2", "s2": "0", "s1": "1/2", "s0": "0"},
    ]
    canonical = write(
        tmp_path / "c.json",
        observation_doc(mode, states, canonical_rows[0], canonical_rows[1:]),
    )
    relaid = write(
        tmp_path / "r.json",
        observation_doc(mode, states, relaid_rows[0], relaid_rows[1:]),
    )
    assert_loads_as_the_reference(load_observation, relaid)
    assert outcome(load_observation, relaid) == outcome(
        load_observation, canonical
    )
    # a model's mu0 and pObj relaid alike: reversed, their zeros left out
    model = construct_rationalization(load_observation(canonical)[0])
    path = tmp_path / "m.json"
    save_model(model, path, mode)
    doc = json.loads(path.read_text())
    for key in ("mu0", "pObj"):
        row = doc[key]
        doc[key] = {w: row[w] for w in reversed(row) if Fraction(row[w])}
    assert_loads_as_the_reference(load_model, write(path, doc), doc)


# Rows of JSON types that collide as dict keys (true == 1 == 1.0) or cannot
# be keys (a list, an object), next to strings and bare numbers.
MIXED_ROWS = [
    [True, 1, 1.0, "1", 0.5],
    [1, True, "1", 1.0, 0.5],
    [1.0, 1, "1", 0.5, True],
    [1, 1.0, "1", 0.5, 0],
    ["1/4", 0.25, 0, "0", 0.5],
    [0.5, "1/4", "1/4", 0, 0.0],
    ["1/2", ["1/2"], 0, 0, 0],
    ["1/2", {"s0": "1/2"}, 0, 0, 0],
    [{"s0": "1"}, ["1"], None, True, "x"],
]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("values", MIXED_ROWS)
def test_mixed_value_types_load_as_the_reference(tmp_path, mode, values):
    states = ["s%d" % i for i in range(len(values))]
    row = dict(zip(states, values))
    good = {s: "1/%d" % len(states) for s in states}
    path = tmp_path / "o.json"
    for prior, beliefs in ((row, [good]), (good, [good, row]), (row, [row])):
        doc = observation_doc(mode, states, prior, beliefs)
        assert_loads_as_the_reference(load_observation, write(path, doc))
    for weight in values:
        weights = ["1/2", weight]
        doc = observation_doc(mode, states, good, [good, good], weights)
        assert_loads_as_the_reference(load_observation, write(path, doc))


def test_mixed_value_types_in_a_model_load_as_the_reference(
    tmp_path, model_doc
):
    path = tmp_path / "m.json"
    for values in MIXED_ROWS:
        for key in ("mu0", "pObj", "lambda"):
            doc = copy.deepcopy(model_doc)
            row = doc[key] if doc[key] is not None else {"nu0": "1"}
            doc[key] = dict(zip(row, values))
            assert_loads_as_the_reference(load_model, write(path, doc), doc)


def test_the_first_bad_entry_in_file_order_is_named(tmp_path, model_doc):
    # One bad string in two rows, then a structural fault: the walk names
    # the first bad entry, however the table meets them.
    states = ["s0", "s1"]
    good, bad = {"s0": "1/2", "s1": "1/2"}, {"s0": "1/2", "s1": "x"}
    docs = {
        "posteriors[0].belief.s1": observation_doc(
            "rational", states, good, [bad, bad, good]
        ),
        "prior.s1": observation_doc("rational", states, bad, [good, bad]),
        "posteriors[1].weight": observation_doc(
            "rational", states, good, [good, bad], ["1/2", "x"]
        ),
    }
    path = tmp_path / "o.json"
    message = "'x' is not a valid number (use 'p/q' or a decimal)"
    for where, doc in docs.items():
        doc["posteriors"].append("not an entry")
        got = outcome(load_observation, write(path, doc))
        assert got == ("FormatError", "%s:%s: %s" % (path, where, message))
        assert_loads_as_the_reference(load_observation, path)
    # a structural fault before the bad strings is named instead
    doc = observation_doc("rational", states, good, [good, bad, bad])
    doc["posteriors"][0] = {"belief": good}
    got = outcome(load_observation, write(path, doc))
    assert got == (
        "FormatError",
        "%s:posteriors[0]: missing required field 'weight'" % path,
    )
    assert_loads_as_the_reference(load_observation, path)
    # a model: the same bad string in mu0 and pObj, then a bad lambda
    doc = copy.deepcopy(model_doc)
    last = list(doc["mu0"])[-1]
    doc["mu0"][last] = doc["pObj"][last] = "x"
    doc["lambda"] = ["not an object"]
    got = outcome(load_model, write(path, doc))
    assert got == ("FormatError", "%s:mu0.%s: %s" % (path, last, message))
    assert_loads_as_the_reference(load_model, path, doc)


def repeated_row(labels, mode):
    """Numbers for `labels` (an even count) from a few repeated strings:
    1/m and 3/m alternating, m = 2 * len(labels), which sum to 1."""
    m = 2 * len(labels)
    texts = ["1/%d" % m, "3/%d" % m]
    if mode == "float":
        texts = [repr(1 / m), repr(3 / m)]
    return {w: texts[i % 2] for i, w in enumerate(labels)}


@pytest.mark.parametrize("mode", MODES)
def test_long_rows_of_repeated_strings_load_as_the_reference(tmp_path, mode):
    n = 1152
    states = ["s%d" % i for i in range(12)]
    omega = ["w%d" % i for i in range(n)]
    model = {
        "mode": mode,
        "states": states,
        "omega": [
            {"label": w, "s": states[i % 12], "signal": "c%d" % (i // 12)}
            for i, w in enumerate(omega)
        ],
        "mu0": repeated_row(omega, mode),
        "pObj": repeated_row(omega[::-1], mode),
        "lambda": None,
    }
    path = tmp_path / "m.json"
    assert_loads_as_the_reference(load_model, write(path, model), model)
    labels = ["x%d" % i for i in range(n)]
    obs = observation_doc(
        mode,
        labels,
        repeated_row(labels, mode),
        [repeated_row(labels, mode), repeated_row(labels[::-1], mode)],
    )
    assert_loads_as_the_reference(load_observation, write(path, obs))
    loaded, _ = load_observation(path)
    assert len(loaded.prior.nums) == n
