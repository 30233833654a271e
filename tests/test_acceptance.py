"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import itertools
import random
import time
from fractions import Fraction

from beliefcheck import (
    AbsoluteContinuityViolation,
    Dist,
    Observation,
    WeightedPosteriors,
    brute_force_known_omega,
    check_proposition1,
    condition,
    construct_known_omega_model,
    construct_rationalization,
    induced_observables,
    martingale_check,
    save_observation,
    simulate_panel,
    target_mix,
    tv_distance,
    uniform_mix,
    verify_model,
)
from beliefcheck.cli import main as cli_main
from genobs import (
    random_observation,
    random_violating_observation,
    state_labels,
)


def report(number, name, ok):
    print("ACCEPTANCE %d (%s): %s" % (number, name, "PASS" if ok else "FAIL"))
    assert ok, "acceptance criterion %d (%s) failed" % (number, name)


def test_criterion_1_worked_example_exact_reproduction(worked_example):
    start = time.monotonic()
    model = construct_rationalization(worked_example)
    elapsed = time.monotonic() - start
    # columns (nu0+, nu1+, nu0-, nu1-) correspond to (0.8+, 1.0+, 0.8-, 1.0-)
    expected_mu0 = {
        "H|nu0+": "1/4", "H|nu1+": "1/4", "H|nu0-": "0", "H|nu1-": "0",
        "L|nu0+": "1/16", "L|nu1+": "0", "L|nu0-": "3/16", "L|nu1-": "1/4",
    }
    expected_obj = {
        "H|nu0+": "1/8", "H|nu1+": "3/8", "H|nu0-": "0", "H|nu1-": "0",
        "L|nu0+": "1/8", "L|nu1+": "3/8", "L|nu0-": "0", "L|nu1-": "0",
    }
    ok = (
        all(model.mu0[k] == Fraction(v) for k, v in expected_mu0.items())
        and all(model.pObj[k] == Fraction(v) for k, v in expected_obj.items())
        and elapsed < 1.0
    )
    report(1, "worked-example exact reproduction", ok)


def test_criterion_2_soundness_sweep():
    rng = random.Random(20240817)
    start = time.monotonic()
    ok = True
    for _ in range(1000):
        obs = random_observation(rng, rng.randint(2, 8), rng.randint(1, 6))
        model = construct_rationalization(obs)
        if not verify_model(model, obs).all_pass:
            ok = False
            break
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    report(2, "soundness sweep, 1000 random observations", ok)


def test_criterion_3_condition1_necessity(tmp_path):
    rng = random.Random(99)
    ok = True
    for i in range(200):
        obs = random_violating_observation(
            rng, rng.randint(2, 6), rng.randint(1, 4)
        )
        path = tmp_path / ("bad%d.json" % i)
        save_observation(obs, path)
        if cli_main(["check", str(path)]) != 2:
            ok = False
            break
        try:
            construct_rationalization(obs)
            ok = False
            break
        except AbsoluteContinuityViolation:
            pass
    report(3, "planted violations rejected", ok)


def _positive_compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _positive_compositions(total - first, parts - 1):
            yield (first,) + rest


def _full_support_priors(space, max_den=6):
    seen = set()
    out = []
    n = len(space)
    for den in range(n, max_den + 1):
        for comp in _positive_compositions(den, n):
            weights = tuple(Fraction(c, den) for c in comp)
            if weights not in seen:
                seen.add(weights)
                out.append(Dist(space, weights))
    return out


def _grid_observations(space, prior):
    """Deterministic grid around each signal partition of the states: exact
    prior conditionals (rationalizable), a tilted posterior (breaks the
    conditional condition), and an overlapping-support posterior (breaks
    disjointness); up to 3 posteriors, uniform weights."""
    from beliefcheck import set_partitions

    for blocks in set_partitions(space):
        cells = [tuple(b) for b in blocks]
        for k in range(1, min(3, len(cells)) + 1):
            for charged in itertools.combinations(cells, k):
                conditionals = [condition(prior, c) for c in charged]
                weights = [Fraction(1, k)] * k
                yield Observation(
                    prior,
                    WeightedPosteriors(tuple(zip(weights, conditionals))),
                )
                if len(charged[0]) >= 2:
                    tilted = _tilt(conditionals[0], charged[0])
                    yield Observation(
                        prior,
                        WeightedPosteriors(
                            tuple(zip(weights, [tilted] + conditionals[1:]))
                        ),
                    )
                if k >= 2:
                    widened = condition(
                        prior, set(charged[1]) | {charged[0][0]}
                    )
                    beliefs = [conditionals[0], widened] + conditionals[2:]
                    if not widened.matches(conditionals[0]):
                        yield Observation(
                            prior,
                            WeightedPosteriors(tuple(zip(weights, beliefs))),
                        )


def _tilt(belief, cell):
    """Same support, different weights: swap the first two cell weights, or
    shift mass if they tie."""
    weights = dict(zip(belief.space, belief.weights))
    a, b = cell[0], cell[1]
    if weights[a] != weights[b]:
        weights[a], weights[b] = weights[b], weights[a]
    else:
        shift = weights[a] / 2
        weights[a] -= shift
        weights[b] += shift
    return Dist(belief.space, tuple(weights[s] for s in belief.space))


def test_criterion_4_proposition1_oracle_equivalence():
    start = time.monotonic()
    checked = 0
    ok = True

    def agree(obs):
        nonlocal checked, ok
        checked += 1
        decided = check_proposition1(obs).rationalizable
        if decided != brute_force_known_omega(obs):
            ok = False
            return
        if decided:
            model = construct_known_omega_model(obs)
            if not verify_model(model, obs).consistent:
                ok = False

    for n in (2, 3, 4):
        space = state_labels(n)
        for prior in _full_support_priors(space, max_den=6):
            for obs in _grid_observations(space, prior):
                agree(obs)
                if not ok:
                    break

    rng = random.Random(4242)
    for _ in range(500):
        if not ok:
            break
        n = rng.randint(2, 6)
        obs = random_observation(
            rng, n, rng.randint(1, 3), full_support_prior=True
        )
        agree(obs)

    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0 and checked >= 1000
    report(
        4,
        "proposition-1 oracle equivalence (%d instances)" % checked,
        ok,
    )


def test_criterion_5_martingale_dichotomy(worked_example):
    model = construct_rationalization(worked_example)
    cell_weights = []
    cell_posteriors = []
    from beliefcheck import pushforward

    for cell in model.signal_partition.values():
        mass = model.mu0.mass(cell)
        if mass == 0:
            continue
        cell_weights.append(mass)
        cell_posteriors.append(
            pushforward(
                condition(model.mu0, cell), model.projection, model.states
            )
        )
    subjective_holds, subjective_mean = martingale_check(
        cell_weights, cell_posteriors, worked_example.prior
    )
    objective_holds, objective_mean = martingale_check(
        list(worked_example.posteriors.weights),
        list(worked_example.posteriors.beliefs),
        worked_example.prior,
    )
    ok = (
        subjective_holds
        and subjective_mean.weights == (Fraction(1, 2), Fraction(1, 2))
        and not objective_holds
        and objective_mean.weights == (Fraction(19, 20), Fraction(1, 20))
    )
    report(5, "martingale dichotomy on the worked example", ok)


def test_criterion_6_simulation_convergence(worked_example):
    model = construct_rationalization(worked_example)
    _, implied = induced_observables(model)
    ok = True
    for seed in range(20):
        start = time.monotonic()
        panel = simulate_panel(model, 100_000, seed=seed)
        elapsed = time.monotonic() - start
        again = simulate_panel(model, 100_000, seed=seed)
        tv = float(tv_distance(panel.empirical, implied))
        if tv >= 0.01 or panel != again or elapsed >= 5.0:
            ok = False
            break
    report(6, "simulation convergence over 20 seeds", ok)


def test_criterion_7_lambda_invariance():
    rng = random.Random(777)
    ok = True
    for _ in range(100):
        obs = random_observation(rng, rng.randint(2, 6), rng.randint(2, 5))
        m_uniform = construct_rationalization(obs, uniform_mix(obs))
        m_target = construct_rationalization(obs, target_mix(obs))
        prior_u, post_u = induced_observables(m_uniform)
        prior_t, post_t = induced_observables(m_target)
        if not prior_u.matches(prior_t):
            ok = False
            break
        if post_u.weights != post_t.weights or not all(
            a.matches(b) for a, b in zip(post_u.beliefs, post_t.beliefs)
        ):
            ok = False
            break
    report(7, "lambda-invariance of induced observables", ok)
