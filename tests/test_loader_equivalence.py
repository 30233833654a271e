"""The loaders scale each distribution's numbers and check the omega
entries as whole vectors; `reference_io` holds loaders that read them one
entry and one number at a time, in file order. On
generated files in both modes, skewed float files, every single edit of
small files, the error tables of test_writer and mutated files, both must
return equal objects or raise the same message. The one allowed
difference: `load_model` refuses partition indices that are not JSON
integers, which the reference accepts."""

import copy
import json
import random

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
