"""Smoke checks of the package with the standard library alone.

The runtime is stdlib-only. Run as a script without site-packages, a
module that imports an installed package fails here:

    python -S tests/test_stdlib_smoke.py

Every module imports; a panel of 1001 agents is drawn from the worked
example's constructed model, so the sampler itself runs too; and two
models go through save_model, load_model and verify_model: the
constructed one, and the same model with omega and the cells' order
reversed, whose cells list their outcomes out of omega order. Each saved
model also goes through `martingale --weights subjective-from` against
the saved worked example, which exits 0. pytest collects the same checks.
"""

import io
import os
import pkgutil
import sys
import tempfile
from contextlib import redirect_stdout
from importlib import import_module

HERE = os.path.dirname(os.path.abspath(__file__))


def worked_observation():
    """Prior 1/2-1/2; a quarter of the agents at (4/5, 1/5) and three
    quarters at (1, 0)."""
    from fractions import Fraction as F

    from beliefcheck import Dist, Observation, WeightedPosteriors

    s = ("H", "L")
    posteriors = WeightedPosteriors(
        (
            (F(1, 4), Dist(s, (F(4, 5), F(1, 5)))),
            (F(3, 4), Dist(s, (F(1), F(0)))),
        )
    )
    return Observation(Dist(s, (F(1, 2), F(1, 2))), posteriors)


def test_every_module_imports():
    import beliefcheck

    for module in pkgutil.iter_modules(beliefcheck.__path__):
        import_module("beliefcheck." + module.name)


def test_panel_of_1001_agents():
    from beliefcheck import construct_rationalization, simulate_panel

    model = construct_rationalization(worked_observation())
    panel = simulate_panel(model, 1001, seed=7)
    assert len(panel.draws) == 1001 and sum(panel.empirical.weights) == 1


def test_models_round_trip_and_verify():
    from beliefcheck import Dist, Model, construct_rationalization
    from beliefcheck import load_model, save_model, save_observation
    from beliefcheck import verify_model
    from beliefcheck.cli import main

    obs = worked_observation()
    built = construct_rationalization(obs)
    omega = built.omega[::-1]
    hand = Model(
        states=built.states,
        omega=omega,
        projection=built.projection,
        signal_partition=dict(reversed(built.signal_partition.items())),
        mu0=Dist(omega, [built.mu0[w] for w in omega]),
        pObj=Dist(omega, [built.pObj[w] for w in omega]),
    )
    with tempfile.TemporaryDirectory() as work:
        obs_path = os.path.join(work, "observation.json")
        save_observation(obs, obs_path)
        for model in (built, hand):
            path = os.path.join(work, "model.json")
            save_model(model, path)
            loaded, _ = load_model(path)
            before, after = verify_model(model, obs), verify_model(loaded, obs)
            assert before.all_pass and after.as_dict() == before.as_dict()
            assert after.details == before.details
            argv = ["martingale", obs_path, "--weights", "subjective-from"]
            with redirect_stdout(io.StringIO()):
                assert main(argv + ["--model", path]) == 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))
    test_every_module_imports()
    test_panel_of_1001_agents()
    test_models_round_trip_and_verify()
    print("stdlib smoke checks hold on Python %s" % sys.version.split()[0])
