"""A model builds its cell table, observables and panel plan once, and
values pickle without what they keep.

`reachable_cells`, `induced_observables` and `simulate_panel` read what a
`Model` keeps of its own derived tables, built on first use; `cell_table`
and `verify_model` build their own every call. These checks hold the
memo to three promises:

- equivalence: on constructed, known-omega and loaded models, exact and
  float, a model whose memo is full gives the results of a fresh copy
  built from its fields, panel by panel, and an unreachable update
  raises on every call;
- one build: five panels, three `induced_observables` calls and one
  `reachable_cells` call on one model build the cell table once, while
  every `verify_model` call builds its own;
- an unchanged surface: equality, the repr and the pickled bytes do not
  depend on the memo, a pickle written before models kept one still
  loads, and the memo cannot be assigned from outside.

The same rule covers the caches of other values: an observation's and
a `check_condition1` report's pickled bytes do not change when
`posteriors.weights` and every derivative's `f` are first read, both
unpickle to equal values, and their pickles written while the caches
were pickled too still load, both before and after the reads.

Stdlib only. Run as a script, or under pytest:

    python -S -W error tests/test_model_memo.py
"""

import base64
import os
import pickle
import random
import sys
import tempfile
from contextlib import contextmanager
from fractions import Fraction as F

HERE = os.path.dirname(os.path.abspath(__file__))

SEEDS = (0, 1, 2**64 - 1)
AGENTS = 5000

#: `pickle.dumps(model, protocol=4)` of `two_state_model()`, written by
#: the package before models kept a memo.
OLD_PICKLE = base64.b64decode(
    "gASVnAAAAAAAAACMF2JlbGllZmNoZWNrLnJhdGlvbmFsaXpllIwFTW9kZWyUk5QpgZQo"
    "jAFIlIwBTJSGlGgGfZQoaARoBGgFaAV1fZQojAFolGgEhZSMAWyUaAWFlHWMEGJlbGll"
    "ZmNoZWNrLmRpc3SUjAVfZGlzdJSTlChoBksBSwGGlEsCSwB0lFKUaA8oaAZLAUsDhpRL"
    "BEsAdJRSlE5LAHSUYi4="
)

#: `pickle.dumps(value, protocol=4)` of `worked_example()` and of its
#: `check_condition1` report, before and after `posteriors.weights` and
#: every derivative's `f` were read, written by the package while those
#: caches were pickled too.
OLD_CACHE_PICKLES = {
    ("observation", "before"): (
        "gASVpAAAAAAAAACMEGJlbGllZmNoZWNrLmRpc3SUjAtPYnNlcnZhdGlvbpSTlCmBlGgA"
        "jAVfZGlzdJSTlCiMAUiUjAFMlIaUSwFLAYaUSwJLAHSUUpRoAIwSV2VpZ2h0ZWRQb3N0"
        "ZXJpb3JzlJOUKYGUKGgFKGgISwRLAYaUSwVLAHSUUpRoBShoCEsBSwCGlEsBSwB0lFKU"
        "hpRLAUsDhpRLBEsATnSUYksAh5RiLg=="
    ),
    ("observation", "after"): (
        "gASV2AAAAAAAAACMEGJlbGllZmNoZWNrLmRpc3SUjAtPYnNlcnZhdGlvbpSTlCmBlGgA"
        "jAVfZGlzdJSTlCiMAUiUjAFMlIaUSwFLAYaUSwJLAHSUUpRoAIwSV2VpZ2h0ZWRQb3N0"
        "ZXJpb3JzlJOUKYGUKGgFKGgISwRLAYaUSwVLAHSUUpRoBShoCEsBSwCGlEsBSwB0lFKU"
        "hpRLAUsDhpRLBEsAjAlmcmFjdGlvbnOUjAhGcmFjdGlvbpSTlEsBSwSGlFKUaBGGlGgZ"
        "SwNLBIaUUpRoFIaUhpR0lGJLAIeUYi4="
    ),
    ("report", "before"): (
        "gASV7QAAAAAAAACMEGJlbGllZmNoZWNrLmRpc3SUjAhSblJlcG9ydJSTlGgAjAdSbkVu"
        "dHJ5lJOUSwBoAIwMUm5EZXJpdmF0aXZllJOUKYGUTn2UKIwGX3ByaW9ylGgAjAVfZGlz"
        "dJSTlCiMAUiUjAFMlIaUSwFLAYaUSwJLAHSUUpSMB19iZWxpZWaUaAsoaA5LBEsBhpRL"
        "BUsAdJRSlIwGYXJnbWF4lEsAjAJfZpROdYaUYimHlIGUaARLAWgGKYGUTn2UKGgJaBFo"
        "EmgLKGgOSwFLAIaUSwFLAHSUUpRoFksAaBdOdYaUYimHlIGUhpSIhpSBlC4="
    ),
    ("report", "after"): (
        "gASVOgEAAAAAAACMEGJlbGllZmNoZWNrLmRpc3SUjAhSblJlcG9ydJSTlGgAjAdSbkVu"
        "dHJ5lJOUSwBoAIwMUm5EZXJpdmF0aXZllJOUKYGUTn2UKIwGX3ByaW9ylGgAjAVfZGlz"
        "dJSTlCiMAUiUjAFMlIaUSwFLAYaUSwJLAHSUUpSMB19iZWxpZWaUaAsoaA5LBEsBhpRL"
        "BUsAdJRSlIwGYXJnbWF4lEsAjAJfZpR9lChoDIwJZnJhY3Rpb25zlIwIRnJhY3Rpb26U"
        "k5RLCEsFhpRSlGgNaBtLAksFhpRSlHV1hpRiKYeUgZRoBEsBaAYpgZROfZQoaAloEWgS"
        "aAsoaA5LAUsAhpRLAUsAdJRSlGgWSwBoF32UKGgMaBtLAksBhpRSlGgNaBtLAEsBhpRS"
        "lHV1hpRiKYeUgZSGlIiGlIGULg=="
    ),
}


def two_state_model():
    from beliefcheck import Dist, Model

    s = ("H", "L")
    return Model(
        states=s,
        omega=s,
        projection={"H": "H", "L": "L"},
        signal_partition={"h": ("H",), "l": ("L",)},
        mu0=Dist(s, (F(1, 2), F(1, 2))),
        pObj=Dist(s, (F(1, 4), F(3, 4))),
    )


def worked_example():
    """The two-state observation: prior 1/2-1/2, a quarter of the agents
    at (4/5, 1/5) and three quarters at (1, 0)."""
    from beliefcheck import Dist, Observation, WeightedPosteriors

    s = ("H", "L")
    return Observation(
        Dist(s, (F(1, 2), F(1, 2))),
        WeightedPosteriors(
            (
                (F(1, 4), Dist(s, (F(4, 5), F(1, 5)))),
                (F(3, 4), Dist(s, (F(1), F(0)))),
            )
        ),
    )


def float_observation(rng, n, k):
    """An observation of k float beliefs over n states, each charging
    only states its float prior charges."""
    from beliefcheck import Dist, Observation, WeightedPosteriors

    space = tuple("s%d" % i for i in range(n))

    def row():
        raw = [rng.random() + 0.05 for _ in space]
        return [x / sum(raw) for x in raw]

    beliefs = [Dist(space, row()) for _ in range(k)]
    weights = [rng.randint(1, 9) for _ in beliefs]
    return Observation(
        Dist(space, row()),
        WeightedPosteriors(
            tuple((w / sum(weights), b) for w, b in zip(weights, beliefs))
        ),
    )


def known_omega_observation(floats):
    """A four-state observation that Proposition 1 rationalizes: the
    prior conditioned on the blocks of a partition."""
    from beliefcheck import Dist, Observation, WeightedPosteriors, condition

    space = ("a", "b", "c", "d")
    weights = (0.1, 0.2, 0.3, 0.4) if floats else (
        F(1, 10), F(2, 10), F(3, 10), F(4, 10)
    )
    prior = Dist(space, weights)
    blocks = (("a", "b"), ("c",), ("d",))
    mass = [prior.mass(block) for block in blocks]
    mix = [float(m) for m in mass] if floats else mass
    return Observation(
        prior,
        WeightedPosteriors(
            tuple(
                (w, condition(prior, block)) for w, block in zip(mix, blocks)
            )
        ),
    )


def models(work):
    """(name, model) pairs: constructed, known-omega and loaded models,
    exact and float."""
    import genobs

    from beliefcheck import (
        construct_known_omega_model,
        construct_rationalization,
        load_model,
        save_model,
    )

    rng = random.Random(27)
    built = [
        ("two-state", two_state_model()),
        ("exact k=8", construct_rationalization(
            genobs.random_observation(rng, 5, 8)
        )),
        ("float k=6", construct_rationalization(float_observation(rng, 4, 6))),
        ("known-omega exact", construct_known_omega_model(
            known_omega_observation(False)
        )),
        ("known-omega float", construct_known_omega_model(
            known_omega_observation(True)
        )),
    ]
    loaded = []
    for name, model in built:
        path = os.path.join(work, "model.json")
        save_model(model, path, "float" if model.tol else "rational")
        loaded.append(("loaded " + name, load_model(path)[0]))
    return built + loaded


def fresh(model):
    """A copy of `model` built from its fields, with no memo."""
    from beliefcheck import Model

    return Model(**{name: getattr(model, name) for name in Model._fields})


def fill(model):
    """Call every reader of the memo on `model`, so it is full."""
    from beliefcheck.rationalize import induced_observables, reachable_cells
    from beliefcheck.simulate import simulate_panel

    simulate_panel(model, 100, 0)
    induced_observables(model)
    reachable_cells(model)
    assert len(model._memo) == 3  # the cell table, observables and plan


def test_a_full_memo_gives_a_fresh_copys_results():
    from beliefcheck.rationalize import (
        cell_table,
        induced_observables,
        reachable_cells,
    )
    from beliefcheck.simulate import simulate_panel

    with tempfile.TemporaryDirectory() as work:
        pairs = models(work)
    for name, model in pairs:
        fill(model)
        for seed in SEEDS:
            panel = simulate_panel(model, AGENTS, seed)
            again = simulate_panel(fresh(model), AGENTS, seed)
            assert panel.draws == again.draws, name
            assert panel.empirical == again.empirical, name
            assert panel == again, name
        assert induced_observables(model) == induced_observables(
            fresh(model)
        ), name
        assert reachable_cells(model) == reachable_cells(fresh(model)), name
        # cell_table builds its own table on every call.
        reached = [c for c in cell_table(model) if c.obj_parts.total]
        assert reachable_cells(model) == reached, name


def test_an_unreachable_update_raises_on_every_call():
    from beliefcheck import (
        Dist,
        Model,
        UndefinedUpdateError,
        induced_observables,
    )
    from beliefcheck.rationalize import reachable_cells
    from beliefcheck.simulate import simulate_panel

    s = ("H", "L")
    model = Model(
        states=s,
        omega=s,
        projection={"H": "H", "L": "L"},
        signal_partition={"h": ("H",), "l": ("L",)},
        mu0=Dist(s, (F(1), F(0))),
        pObj=Dist(s, (F(1, 2), F(1, 2))),
    )
    for call in [
        lambda: simulate_panel(model, 10, 0),
        lambda: induced_observables(model),
        lambda: reachable_cells(model),
    ] * 2:
        try:
            call()
        except UndefinedUpdateError:
            pass
        else:
            raise AssertionError("an unreachable update went through")


@contextmanager
def counted_cell_tables():
    """Counts the calls of `rationalize.cell_table` while active."""
    from beliefcheck import rationalize

    built = []
    real = rationalize.cell_table

    def counting(model):
        built.append(model)
        return real(model)

    rationalize.cell_table = counting
    try:
        yield built
    finally:
        rationalize.cell_table = real


def test_one_model_builds_its_cell_table_once():
    import genobs

    from beliefcheck import (
        construct_rationalization,
        induced_observables,
        verify_model,
    )
    from beliefcheck.rationalize import reachable_cells
    from beliefcheck.simulate import simulate_panel

    obs = genobs.random_observation(random.Random(5), 4, 6)
    model = construct_rationalization(obs)
    with counted_cell_tables() as built:
        for seed in range(5):
            simulate_panel(model, AGENTS, seed)
        for _ in range(3):
            induced_observables(model)
        reachable_cells(model)
        assert len(built) == 1, len(built)
        for calls in range(1, 4):
            assert verify_model(model, obs).all_pass
            assert len(built) == 1 + calls, len(built)


def test_equality_repr_and_pickle_ignore_the_memo():
    from dataclasses import FrozenInstanceError

    model = two_state_model()
    other = two_state_model()
    text = repr(model)
    state = pickle.dumps(model)
    assert pickle.dumps(model, protocol=4) == OLD_PICKLE
    fill(model)
    assert model == other
    assert repr(model) == text == repr(other)
    assert "_memo" not in text
    assert pickle.dumps(model) == state
    assert pickle.dumps(model, protocol=4) == OLD_PICKLE
    unpickled = pickle.loads(OLD_PICKLE)
    assert unpickled == model
    assert not hasattr(unpickled, "_memo")
    fill(unpickled)
    for act in (
        lambda: setattr(model, "_memo", {}),
        lambda: delattr(model, "_memo"),
    ):
        try:
            act()
        except FrozenInstanceError:
            pass
        else:
            raise AssertionError("the memo was assigned from outside")


def test_values_pickle_without_their_read_caches():
    from beliefcheck.rationalize import check_condition1

    def read(name, value):
        """Read what `value` builds when first read."""
        if name == "observation":
            value.posteriors.weights
        else:
            for entry in value.entries:
                entry.derivative.f

    for name, build in (
        ("observation", worked_example),
        ("report", lambda: check_condition1(worked_example())),
    ):
        value = build()
        state = pickle.dumps(value)
        read(name, value)
        assert pickle.dumps(value) == state, name
        again = pickle.loads(state)
        assert again == value == build(), name
        for when in ("before", "after"):
            old = pickle.loads(base64.b64decode(OLD_CACHE_PICKLES[name, when]))
            assert old == value, (name, when)
            read(name, old)
            assert pickle.dumps(old) == state, (name, when)


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))
    test_a_full_memo_gives_a_fresh_copys_results()
    test_an_unreachable_update_raises_on_every_call()
    test_one_model_builds_its_cell_table_once()
    test_equality_repr_and_pickle_ignore_the_memo()
    test_values_pickle_without_their_read_caches()
    print("model memo checks hold on Python %s" % sys.version.split()[0])
