"""The nine record types keep the behaviour they had as frozen dataclasses.

The six result records are named tuples, and `Model`, `Observation` and
`WeightedPosteriors` are slotted classes on one frozen base. For each, one
table row builds an example by position and by keyword, and this checks
equality, hashing or its refusal, the repr text (as the dataclasses
printed it), the pickle round trip, refused assignment and deletion
(FrozenInstanceError on the value types, as on `Dist`), and the field
names and their order.
"""

import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction as F

import pytest

from beliefcheck import (
    Dist,
    Model,
    Observation,
    PanelSample,
    Prop1Report,
    RnEntry,
    RnReport,
    VerifyReport,
    WeightedPosteriors,
    rn_derivative,
    simulate_panel,
)
from beliefcheck.rationalize import CellDiagnostic, Row

S = ("H", "L")
HALF = Dist(S, (F(1, 2), F(1, 2)))
TOP = Dist(S, (F(1), F(0)))
OMEGA = ("w1", "w2")
MU = Dist(OMEGA, (F(1, 2), F(1, 2)))
MODEL = dict(
    states=S,
    omega=OMEGA,
    projection={"w1": "H", "w2": "L"},
    signal_partition={"s": OMEGA},
    mu0=MU,
    pObj=MU,
    lambda_mix=None,
)
ITEMS = ((F(1, 4), Dist(S, (F(4, 5), F(1, 5)))), (F(3, 4), TOP))
POSTERIORS = WeightedPosteriors(ITEMS)
REPORT = dict(
    prior_matches=True,
    posteriors_match=False,
    posterior_distribution_matches=True,
    objective_agrees_with_prior=True,
    subjective_martingale_holds=False,
)
PANEL = simulate_panel(Model(**MODEL), 3, 0)

# type, fields and values, a value for the first field that makes another
# record, whether it hashes, and the repr.
CASES = [
    (
        RnEntry,
        dict(index=0, derivative=None, violations=("L",)),
        1,
        True,
        "RnEntry(index=0, derivative=None, violations=('L',))",
    ),
    (
        RnReport,
        dict(
            entries=(RnEntry(0, rn_derivative(HALF, TOP)),), overall_pass=True
        ),
        (),
        False,  # an RnDerivative holds a dict
        "RnReport(entries=(RnEntry(index=0, derivative=RnDerivative(f={'H':"
        " Fraction(2, 1), 'L': Fraction(0, 1)}, max_f=Fraction(2, 1), "
        "epsilon=Fraction(1, 2)), violations=()),), overall_pass=True)",
    ),
    (
        Prop1Report,
        dict(
            condition_i=False,
            overlapping_pairs=((0, 1, ("H",)),),
            condition_ii=True,
            deviations=(F(0), F(1, 3)),
        ),
        True,
        True,
        "Prop1Report(condition_i=False, overlapping_pairs=((0, 1, ('H',)),), "
        "condition_ii=True, deviations=(Fraction(0, 1), Fraction(1, 3)))",
    ),
    (
        CellDiagnostic,
        dict(
            label="s",
            posterior=HALF,
            mu_parts=Row((1, 1), 2, 2),
            obj_parts=Row((1, 1), 2, 2),
        ),
        "t",
        True,
        "CellDiagnostic(label='s', posterior=Dist(space=('H', 'L'), "
        "weights=(Fraction(1, 2), Fraction(1, 2))), mu_parts=Row(acc=(1, 1),"
        " total=2, den=2), obj_parts=Row(acc=(1, 1), total=2, den=2))",
    ),
    (
        VerifyReport,
        dict(REPORT, details={"cells": []}),
        False,
        False,  # details is a dict
        "VerifyReport(prior_matches=True, posteriors_match=False, "
        "posterior_distribution_matches=True, objective_agrees_with_prior="
        "True, subjective_martingale_holds=False, details={'cells': []})",
    ),
    (
        PanelSample,
        dict(
            n_agents=3, seed=0, draws=PANEL.draws, empirical=PANEL.empirical
        ),
        4,
        True,
        "PanelSample(n_agents=3, seed=0, draws=Draws((('s', 0), ('s', 0), "
        "('s', 0))), empirical=WeightedPosteriors(items=((Fraction(1, 1), "
        "Dist(space=('H', 'L'), weights=(Fraction(1, 2), Fraction(1, 2))))"
        ",)))",
    ),
    (
        Model,
        MODEL,
        ("L", "H"),
        False,  # the projection and the partition are dicts
        "Model(states=('H', 'L'), omega=('w1', 'w2'), projection={'w1': 'H',"
        " 'w2': 'L'}, signal_partition={'s': ('w1', 'w2')}, mu0=Dist(space="
        "('w1', 'w2'), weights=(Fraction(1, 2), Fraction(1, 2))), pObj=Dist("
        "space=('w1', 'w2'), weights=(Fraction(1, 2), Fraction(1, 2))), "
        "lambda_mix=None)",
    ),
    (
        Observation,
        dict(prior=HALF, posteriors=POSTERIORS),
        Dist(S, (F(5, 8), F(3, 8))),
        True,
        "Observation(prior=Dist(space=('H', 'L'), weights=(Fraction(1, 2), "
        "Fraction(1, 2))), posteriors=WeightedPosteriors(items=((Fraction(1,"
        " 4), Dist(space=('H', 'L'), weights=(Fraction(4, 5), Fraction(1, 5)"
        "))), (Fraction(3, 4), Dist(space=('H', 'L'), weights=(Fraction(1, 1"
        "), Fraction(0, 1)))))))",
    ),
    (
        WeightedPosteriors,
        dict(items=ITEMS),
        ((F(1), TOP),),
        True,
        "WeightedPosteriors(items=((Fraction(1, 4), Dist(space=('H', 'L'), "
        "weights=(Fraction(4, 5), Fraction(1, 5)))), (Fraction(3, 4), Dist("
        "space=('H', 'L'), weights=(Fraction(1, 1), Fraction(0, 1))))))",
    ),
]
VALUE_TYPES = (Model, Observation, WeightedPosteriors)


@pytest.mark.parametrize(
    "cls, fields, other, hashable, text",
    CASES,
    ids=[case[0].__name__ for case in CASES],
)
def test_record_semantics(cls, fields, other, hashable, text):
    names = tuple(fields)
    assert cls._fields == names
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    first, *rest = fields.values()
    different = cls(other, *rest)

    assert tuple(getattr(by_keyword, name) for name in names) == tuple(
        fields.values()
    )
    assert by_position == by_keyword and not by_position != by_keyword
    assert by_position != different
    if hashable:
        assert hash(by_position) == hash(by_keyword)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(by_position)
    assert repr(by_position) == text
    again = pickle.loads(pickle.dumps(by_position))
    assert type(again) is cls and again == by_position
    assert repr(again) == text

    refusal = FrozenInstanceError if cls in VALUE_TYPES else AttributeError
    for name in names + ("extra",):
        with pytest.raises(refusal):
            setattr(by_position, name, first)
    for name in names:
        with pytest.raises(refusal):
            delattr(by_position, name)
    assert repr(by_position) == text


def test_a_verify_report_without_details_gets_its_own_empty_dict():
    one, two = VerifyReport(*REPORT.values()), VerifyReport(**REPORT)
    assert one.details == {} and one == two
    assert one.details is not two.details
    assert repr(one).endswith("subjective_martingale_holds=False, details={})")

