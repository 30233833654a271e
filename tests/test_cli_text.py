"""The CLI's printed numbers: one formatter, and the same bytes as the
Fraction-based reference rendering in `reference_cli`."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_cli
from beliefcheck import (
    Dist,
    Observation,
    WeightedPosteriors,
    save_observation,
)
from beliefcheck.cli import main
from beliefcheck.dist import TOL, _TOL
from beliefcheck.io import _number_texts, _weights_text, format_number
from genobs import (
    random_observation,
    random_violating_observation,
    state_labels,
)


def observations():
    """genobs observations of 1-8 states, a quarter of them violating,
    drawn from raw integer weights up to 9, 97 or 10^6, and one with a
    point-mass prior."""
    rng = random.Random(1901)
    found = []
    for j in range(24):
        n, k = rng.randint(1, 8), rng.randint(1, 6)
        max_den = (9, 97, 10**6)[j % 3]
        if j % 4 == 3 and n > 1:
            found.append(random_violating_observation(rng, n, k, max_den))
        else:
            found.append(random_observation(rng, n, k, max_den))
    space = state_labels(3)
    point = Dist(space, (Fraction(1), Fraction(0), Fraction(0)))
    only = WeightedPosteriors(((Fraction(1), point),))
    found.append(Observation(point, only))
    return found


def run(entry, argv, capsys):
    code = entry(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_printed_numbers_match_the_fraction_reference(
    tmp_path, capsys, mode
):
    ran = 0
    for j, obs in enumerate(observations()):
        path = str(tmp_path / ("obs%d.json" % j))
        model = tmp_path / ("model%d.json" % j)
        save_observation(obs, path, mode)
        runs = [
            ["rationalize", path],
            ["rationalize", path, "--lambda", "target", "--out", str(model)],
            ["check", path],
            ["check", path, "--json"],
            ["martingale", path],
            ["martingale", path, "--json"],
            ["known-omega", path],
            ["known-omega", path, "--json"],
        ]
        for argv in runs:
            expected = run(reference_cli.main, argv, capsys)
            assert run(main, argv, capsys) == expected, argv
            ran += 1
        if model.exists():  # not when the observation is violating
            simulate = ["simulate", str(model), "--n"]
            for argv in (
                simulate + ["997", "--seed", str(j)],
                simulate + ["1000", "--seed", "3"],
                simulate + ["1000", "--seed", "3", "--json"],
            ):
                expected = run(reference_cli.main, argv, capsys)
                assert expected[0] == 0
                assert run(main, argv, capsys) == expected, argv
                ran += 1
    assert ran >= 25 * 8 + 20 * 3  # 20 observations are rationalizable


def test_rationalize_prints_its_tables(worked_example_file, capsys):
    assert main(["rationalize", str(worked_example_file)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("subjective prior mu0:\n")
    assert "\nobjective distribution P:\n" in out
    assert out.endswith("nu1 = (H: 1, L: 0), observed weight 3/4\n")


numerators = st.one_of(
    st.integers(-(2**40), 2**40),
    st.integers(0, 12),  # small values repeat, zeros among them
    st.integers(2**1100, 2**1120),
    st.integers(-(2**1120), -(2**1100)),
)
denominators = st.one_of(
    st.just(1), st.integers(1, 10**6), st.integers(2**1090, 2**1130)
)


def written(n, den, tol):
    try:
        return reference_cli.format_number(Fraction(n, den), tol)
    except OverflowError as err:  # a float-origin value beyond any float
        return type(err)


def texts(nums, den, tol, quote=""):
    try:
        return _number_texts(nums, den, tol, quote)
    except OverflowError as err:
        return type(err)


@settings(max_examples=300, deadline=None)
@given(st.lists(numerators, max_size=12), denominators)
def test_each_text_is_the_number_as_written(nums, den):
    nums = nums + nums[: len(nums) // 2]  # repeated numerators
    for tol in (0, _TOL):
        expected = [written(n, den, tol) for n in nums]
        if OverflowError in expected:
            assert texts(nums, den, tol) is OverflowError
            continue
        assert texts(nums, den, tol) == expected
        one = [format_number(Fraction(n, den), tol) for n in nums]
        assert one == expected


def test_texts_by_example():
    halves = ["0", "1/2", "1", "1/2", "-1/2"]
    assert _number_texts([0, 3, 6, 3, -3], 6, 0) == halves
    assert _number_texts([0, 1, 2], 1, 0) == ["0", "1", "2"]
    thirds = [repr(1 / 3), repr(2 / 3), "0.0"]
    assert _number_texts([1, 2, 0], 3, _TOL) == thirds
    assert _number_texts([], 7, 0) == []
    assert format_number(Fraction(-2, 4), 0) == "-1/2"
    assert format_number(Fraction(1, 10), TOL) == "0.1"


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 50), min_size=1, max_size=10).filter(any),
    st.sampled_from([0, _TOL]),
)
def test_weights_text_quotes_the_texts(raw, tol):
    space = tuple("s%d" % i for i in range(len(raw)))
    dist = Dist(space, [Fraction(x, sum(raw)) for x in raw])
    expected = ['"%s"' % t for t in _number_texts(dist.nums, dist.den, tol)]
    assert _weights_text(dist, tol) == expected
    assert _number_texts(dist.nums, dist.den, tol, '"') == expected
