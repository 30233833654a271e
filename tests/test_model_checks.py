"""Differential test of Model's structural checks.

Model checks its partition and projection as whole columns. The reference
below makes the same checks one outcome at a time, in the order the
messages rank: an empty cell, then overlapping cells, then a cover short
of omega, then the first outcome of omega that the projection leaves
undefined or sends outside the states. Mutated fields of constructed and
hand-relaid models must raise the same error under both, or pass both.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefcheck import Dist, Model, StructuralError, construct_rationalization
from genobs import random_observation

STRANGER = "stranger|x"
ELSEWHERE = "elsewhere"


def reference_checks(
    states, omega, projection, signal_partition, mu0, pObj, **_
):
    """Model's structural checks, one cell and one outcome at a time."""
    omega = tuple(omega)
    if mu0.space != omega or pObj.space != omega:
        raise StructuralError(
            "mu0 and pObj must be distributions over the model's omega"
        )
    covered = []
    for cell in signal_partition.values():
        if not cell:
            raise StructuralError("signal partition cells must be non-empty")
        covered.extend(cell)
    if len(covered) != len(set(covered)):
        raise StructuralError("signal partition cells must be disjoint")
    if set(covered) != set(omega):
        raise StructuralError("signal partition must cover omega")
    states = set(states)
    for w in omega:
        if w not in projection:
            raise StructuralError("projection undefined at %r" % (w,))
        if projection[w] not in states:
            raise StructuralError(
                "projection sends %r outside the declared states" % (w,)
            )


def outcome(check, fields):
    """(error type, message) of check(**fields), or None if it passes."""
    try:
        check(**fields)
    except Exception as err:
        return type(err), str(err)
    return None


def fields_of(model) -> dict:
    return dict(
        states=model.states,
        omega=model.omega,
        projection=dict(model.projection),
        signal_partition=dict(model.signal_partition),
        mu0=model.mu0,
        pObj=model.pObj,
        lambda_mix=model.lambda_mix,
    )


def relaid(model) -> dict:
    """The model's fields with omega, the cells and each cell's outcomes
    in reverse order."""
    omega = model.omega[::-1]
    return dict(
        fields_of(model),
        omega=omega,
        signal_partition={
            label: tuple(cell)[::-1]
            for label, cell in reversed(model.signal_partition.items())
        },
        mu0=Dist(omega, [model.mu0[w] for w in omega]),
        pObj=Dist(omega, [model.pObj[w] for w in omega]),
    )


def filled(cells: dict, draw):
    """The label of a non-empty cell, or None when every cell is empty."""
    labels = sorted(key for key in cells if cells[key])
    return draw(st.sampled_from(labels)) if labels else None


def drop(fields, draw):
    cells = fields["signal_partition"]
    label = filled(cells, draw)
    if label is None:
        return
    cell = list(cells[label])
    cell.remove(draw(st.sampled_from(cell)))
    cells[label] = tuple(cell)


def stranger(fields, draw):
    cells = fields["signal_partition"]
    label = draw(st.sampled_from(sorted(cells)))
    cells[label] = tuple(cells[label]) + (STRANGER,)


def share(fields, draw):
    cells = fields["signal_partition"]
    source = filled(cells, draw)
    if source is None:
        return
    target = draw(st.sampled_from(sorted(set(cells) - {source})))
    shared = draw(st.sampled_from(sorted(cells[source])))
    cells[target] = tuple(cells[target]) + (shared,)


def repeat(fields, draw):
    cells = fields["signal_partition"]
    label = filled(cells, draw)
    if label is None:
        return
    cell = list(cells[label])
    cell.insert(draw(st.integers(0, len(cell))), draw(st.sampled_from(cell)))
    cells[label] = cell


def empty(fields, draw):
    cells = fields["signal_partition"]
    at = draw(st.integers(0, len(cells)))
    items = list(cells.items())
    items.insert(at, ("void", draw(st.sampled_from([(), [], set()]))))
    fields["signal_partition"] = dict(items)


def unproject(fields, draw):
    projection = fields["projection"]
    if projection:
        del projection[draw(st.sampled_from(sorted(projection)))]


def outside(fields, draw):
    projection = fields["projection"]
    if projection:
        w = draw(st.sampled_from(sorted(projection)))
        projection[w] = draw(st.sampled_from([ELSEWHERE, None]))


def extra(fields, draw):
    fields["projection"][STRANGER] = draw(
        st.sampled_from(fields["states"] + (ELSEWHERE,))
    )


def containers(fields, draw):
    kinds = st.sampled_from([list, tuple, set])
    fields["signal_partition"] = {
        label: draw(kinds)(cell)
        for label, cell in fields["signal_partition"].items()
    }


MUTATIONS = [
    drop, stranger, share, repeat, empty, unproject, outside, extra,
    containers,
]


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    n=st.integers(1, 4),
    k=st.integers(1, 4),
    hand=st.booleans(),
    mutations=st.lists(st.sampled_from(MUTATIONS), max_size=3),
    data=st.data(),
)
def test_column_checks_match_the_per_outcome_reference(
    seed, n, k, hand, mutations, data
):
    model = construct_rationalization(
        random_observation(random.Random(seed), n, k)
    )
    fields = relaid(model) if hand else fields_of(model)
    for mutate in mutations:
        mutate(fields, data.draw)
    expected = outcome(reference_checks, fields)
    assert outcome(Model, fields) == expected
    if expected is None:
        built = Model(**fields)
        assert (built.states, built.omega) == (
            tuple(fields["states"]),
            tuple(fields["omega"]),
        )


@pytest.mark.parametrize("first", ["undefined", "outside"])
def test_first_bad_outcome_in_omega_order_names_the_projection_fault(first):
    """The first outcome of omega that the projection fails decides the
    message, whichever of the two faults comes second."""
    model = construct_rationalization(
        random_observation(random.Random(3), 2, 2)
    )
    for fields in (fields_of(model), relaid(model)):
        a, b = fields["omega"][1], fields["omega"][-1]
        undefined, out = (a, b) if first == "undefined" else (b, a)
        del fields["projection"][undefined]
        fields["projection"][out] = ELSEWHERE
        with pytest.raises(StructuralError) as err:
            Model(**fields)
        assert outcome(reference_checks, fields) == (
            StructuralError,
            str(err.value),
        )
        assert repr(a) in str(err.value)
        assert str(err.value).startswith(
            "projection undefined" if first == "undefined" else
            "projection sends"
        )
