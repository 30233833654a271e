"""Models of one shape share their layout and their file's fixed text.

`construct_rationalization` takes a model's omega, its label index, its
signal labels and its cells from a bounded table of layouts, one per
shape: the states' parts of the omega labels and the posterior count k.
`save_model`, `model_json` and `rationalize --json/--out` keep the fixed
text of a constructed model's file on its layout. These checks hold the
table to its promises:

- one build: N constructions and N saves of one shape build its layout
  once and its file's fixed text once;
- the same results: models, their repr and pickles, and every written
  byte equal those of a run whose table is emptied before each call, on
  a corpus of random and benchmark-shape observations, exact and float,
  in both file modes, under the uniform and the target mix;
- models stay apart: a change made in place to one model's projection
  or partition, even one that only reorders its cells, reaches neither a
  later construction nor another model's file, and the changed model is
  written as its fields say, as is a model over a reordered omega;
- exact keys: states ("1", "2"), (1, 2), (1.0, 2.0) and (True, False),
  of which some are equal, get the labels `omega_label` gives them, and
  each model projects onto its own states;
- the cap: the table never holds more than `_KEPT_OUTCOMES` outcomes,
  dropping its oldest shapes to keep a new one, and keeps nothing of a
  shape above the cap; threads that drop each other's shapes leave the
  count of what it holds exact.

Stdlib only. Run as a script, or under pytest:

    python -S -W error tests/test_shape_layouts.py
"""

import io
import os
import pickle
import random
import sys
import tempfile
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction as F

HERE = os.path.dirname(os.path.abspath(__file__))

#: Bench `sweep`'s grid of shapes: n states by k posteriors.
SWEEP_SHAPES = [(n, k) for n in range(2, 9) for k in range(1, 7)]


@contextmanager
def counted_builds():
    """Counts the layouts and the file skeletons built while active."""
    from beliefcheck import io as bio, rationalize

    built = {"layouts": 0, "skeletons": 0}
    layout, skeleton = rationalize._Layout, bio._skeleton

    class Counted(layout):
        __slots__ = ()

        def __init__(self, *args):
            built["layouts"] += 1
            super().__init__(*args)

    def counting(*args):
        built["skeletons"] += 1
        return skeleton(*args)

    rationalize._Layout, bio._skeleton = Counted, counting
    try:
        yield built
    finally:
        rationalize._Layout, bio._skeleton = layout, skeleton


def emptied():
    """Empty the table of layouts."""
    from beliefcheck.rationalize import _LAYOUTS

    _LAYOUTS.clear()


def observation(states, k):
    """k distinct beliefs over `states` under a uniform prior: belief i
    puts twice the weight of the others on state i mod n, and a further
    i // n on the first state."""
    from beliefcheck import Dist, Observation, WeightedPosteriors

    n = len(states)
    beliefs = []
    for i in range(k):
        raw = [1] * n
        raw[i % n] += 1
        raw[0] += i // n
        beliefs.append(Dist(states, [F(r, sum(raw)) for r in raw]))
    return Observation(
        Dist(states, [F(1, n)] * n),
        WeightedPosteriors(tuple((F(1, k), b) for b in beliefs)),
    )


def corpus(work):
    """(name, observation, mode) triples: random and sweep-shape
    observations, exact in rational mode and read back from float files
    in float mode, and one whose labels hold "%", quotes, a NUL and
    non-ASCII."""
    import genobs

    from beliefcheck import load_observation, save_observation

    rng = random.Random(33)
    exact = [
        ("random n=%d k=%d" % (n, k), genobs.random_observation(rng, n, k))
        for n, k in ((2, 1), (3, 4), (5, 8), (12, 24))
    ]
    exact += [
        ("sweep n=%d k=%d" % (n, k), genobs.random_observation(rng, n, k))
        for n, k in SWEEP_SHAPES
    ]
    labels = ("a%s", 'b"%%d', "é|", "\0", "%")
    exact.append(("labels", observation(labels, 5)))
    triples = []
    for name, obs in exact:
        triples.append((name, obs, "rational"))
        path = os.path.join(work, "obs.json")
        save_observation(obs, path, "float")
        triples.append((name + " float", load_observation(path)[0], "float"))
    return triples


def written(model, mode, work, cold=False):
    """`model_json`'s text and the bytes `save_model` writes, each with
    the table emptied first when `cold`."""
    from beliefcheck import save_model
    from beliefcheck.io import model_json

    path = os.path.join(work, "model.json")
    if cold:
        emptied()
    save_model(model, path, mode)
    if cold:
        emptied()
    with open(path, "rb") as fh:
        return model_json(model, mode), fh.read()


def cli_rationalize(obs_path, mix, work, cold=False):
    """`rationalize --json`'s stdout and the bytes of its `--out` file,
    each run with the table emptied first when `cold`."""
    from beliefcheck.cli import main

    out = os.path.join(work, "cli.json")
    printed = io.StringIO()
    args = ["rationalize", obs_path, "--lambda", mix]
    if cold:
        emptied()
    with redirect_stdout(printed):
        assert main(args + ["--json"]) == 0
    if cold:
        emptied()
    with redirect_stdout(io.StringIO()):
        assert main(args + ["--out", out]) == 0
    with open(out, "rb") as fh:
        return printed.getvalue(), fh.read()


def test_one_shape_builds_its_layout_and_skeleton_once():
    import genobs

    from beliefcheck import construct_rationalization

    obs = genobs.random_observation(random.Random(7), 6, 9)
    emptied()
    with tempfile.TemporaryDirectory() as work, counted_builds() as built:
        for _ in range(8):
            written(construct_rationalization(obs), "rational", work)
    assert built == {"layouts": 1, "skeletons": 1}, built


def test_shared_layouts_change_no_byte():
    from beliefcheck import construct_rationalization, save_observation
    from beliefcheck.rationalize import target_mix, uniform_mix

    with tempfile.TemporaryDirectory() as work:
        obs_path = os.path.join(work, "in.json")
        for name, obs, mode in corpus(work):
            save_observation(obs, obs_path, mode)
            mixes = (("uniform", uniform_mix), ("target", target_mix))
            for mix, build in mixes:
                emptied()
                cold = construct_rationalization(obs, build(obs))
                cold_files = written(cold, mode, work, cold=True)
                cold_cli = cli_rationalize(obs_path, mix, work, cold=True)
                # Two more of the shape, through the layout and the file
                # text that the last cold run kept.
                for _ in range(2):
                    warm = construct_rationalization(obs, build(obs))
                    assert warm == cold, (name, mix)
                    assert repr(warm) == repr(cold), (name, mix)
                    assert pickle.dumps(warm) == pickle.dumps(cold), name
                    assert written(warm, mode, work) == cold_files, (name, mix)
                    assert cli_rationalize(obs_path, mix, work) == cold_cli, (
                        name, mix,
                    )


def reorder_first_cell(model):
    cells = model.signal_partition
    label = next(iter(cells))
    cells[label] = cells.pop(label)


def move_an_outcome(model):
    cells = model.signal_partition
    a, b = list(cells)[:2]
    cells[a], cells[b] = cells[a][1:], (cells[a][0],) + cells[b]


def test_a_change_in_place_stays_in_its_model():
    from beliefcheck import construct_rationalization
    from beliefcheck.io import model_json

    obs = observation(("s0", "s1", "s2"), 4)
    changes = (
        lambda model: model.projection.__setitem__(model.omega[0], "s2"),
        reorder_first_cell,
        move_an_outcome,
    )
    for change in changes:
        emptied()
        first = construct_rationalization(obs)
        second = construct_rationalization(obs)
        text = model_json(second, "rational")
        assert first.projection is not second.projection
        assert first.signal_partition is not second.signal_partition
        change(first)
        changed = model_json(first, "rational")
        assert model_json(second, "rational") == text
        later = construct_rationalization(obs)
        assert later == second
        assert model_json(later, "rational") == text
        emptied()
        assert model_json(first, "rational") == changed != text


def test_a_model_over_another_omega_gets_its_own_text():
    from beliefcheck import Dist, Model, construct_rationalization
    from beliefcheck.io import model_json

    obs = observation(("s0", "s1", "s2"), 4)
    emptied()
    model = construct_rationalization(obs)
    model_json(model, "rational")
    omega = model.omega[::-1]  # equal cells, projection and states

    def reversed_dist(d):
        return Dist(omega, [F(n, d.den) for n in d.nums[::-1]])

    other = Model(
        model.states, omega, dict(model.projection),
        dict(model.signal_partition), reversed_dist(model.mu0),
        reversed_dist(model.pObj), model.lambda_mix,
    )
    text = model_json(other, "rational")
    emptied()
    assert model_json(other, "rational") == text


def test_equal_states_get_their_own_labels():
    from beliefcheck import construct_rationalization
    from beliefcheck.rationalize import MINUS, PLUS, omega_label

    emptied()
    for states in (("1", "2"), (1, 2), (1.0, 2.0), (True, False), ("1", "2")):
        model = construct_rationalization(observation(states, 3))
        labels = tuple(
            omega_label(s, i, sign)
            for sign in (PLUS, MINUS)
            for i in range(3)
            for s in states
        )
        assert model.omega == labels, states
        projected = [model.projection[w] for w in model.omega]
        assert projected == list(states) * 6, states
        assert list(map(type, projected)) == list(map(type, states)) * 6


def test_the_cap_bounds_what_is_kept():
    from beliefcheck import construct_rationalization
    from beliefcheck.rationalize import _KEPT_OUTCOMES, _LAYOUTS

    assert _KEPT_OUTCOMES == 8 * 2**20 // 400 == 20971
    emptied()
    sizes = []
    for j in range(20):  # 20 shapes of 2 * 48 * 12 outcomes: past the cap
        states = tuple("t%d.%d" % (j, i) for i in range(12))
        construct_rationalization(observation(states, 48))
        sizes.append(len(_LAYOUTS))
        assert _LAYOUTS.held == sum(len(x.omega) for x in _LAYOUTS.values())
        assert _LAYOUTS.held <= _KEPT_OUTCOMES
    assert max(sizes) == _KEPT_OUTCOMES // 1152 == sizes[-1] < 20
    # The oldest shapes went first.
    assert next(iter(_LAYOUTS))[0][0] == "t%d.0|" % (20 - sizes[-1])

    emptied()
    states = tuple("u%d" % i for i in range(330))  # 2 * 32 * 330 outcomes
    obs = observation(states, 32)
    first = construct_rationalization(obs)
    assert len(first.omega) > _KEPT_OUTCOMES
    again = construct_rationalization(obs)
    assert again == first and again.omega is not first.omega
    assert len(_LAYOUTS) == 0 and _LAYOUTS.held == 0


def test_racing_threads_keep_the_count():
    """Eight threads construct models of 24 shapes at once, under a cap
    lowered so that they drop each other's layouts: the outcomes the
    table counts stay those it holds, and every model is labeled as its
    own states say."""
    import threading

    from beliefcheck import construct_rationalization, rationalize

    observations = [
        observation(tuple("r%d.%d" % (j, i) for i in range(3)), 2)
        for j in range(24)
    ]
    failures = []

    def work(seed):
        rng = random.Random(seed)
        try:
            for _ in range(300):
                obs = rng.choice(observations)
                model = construct_rationalization(obs)
                if model.omega[0] != obs.space[0] + "|nu0+":
                    failures.append(model.omega[0])
        except Exception as err:  # reported below, with the thread's seed
            failures.append((seed, err))

    cap, interval = rationalize._KEPT_OUTCOMES, sys.getswitchinterval()
    emptied()
    rationalize._KEPT_OUTCOMES = 100  # 8 shapes of 12 outcomes
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        layouts = rationalize._LAYOUTS
        assert not failures, failures[:3]
        assert layouts.held == sum(len(x.omega) for x in layouts.values())
        assert layouts.held <= 100
    finally:
        rationalize._KEPT_OUTCOMES = cap
        sys.setswitchinterval(interval)
        emptied()


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))
    test_one_shape_builds_its_layout_and_skeleton_once()
    test_shared_layouts_change_no_byte()
    test_a_change_in_place_stays_in_its_model()
    test_a_model_over_another_omega_gets_its_own_text()
    test_equal_states_get_their_own_labels()
    test_the_cap_bounds_what_is_kept()
    test_racing_threads_keep_the_count()
    print("shape layout checks hold on Python %s" % sys.version.split()[0])
