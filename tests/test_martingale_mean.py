"""The subjective martingale mean against a plain reference: condition mu0
on each signal cell, push the conditional forward onto the states, and
average the cell posteriors under their mu0 masses in Fractions.
`verify_model` and `martingale --weights subjective-from` read the same
mean off mu0's column sums, by Bayes' law; both must agree with the
reference in rational and in float mode."""

import json
import random
import time
from fractions import Fraction

import pytest

from beliefcheck import (
    Dist,
    Model,
    StructuralError,
    check_condition1,
    check_proposition1,
    condition,
    construct_known_omega_model,
    construct_rationalization,
    load_model,
    load_observation,
    martingale_check,
    pushforward,
    save_model,
    save_observation,
    verify_model,
)
from beliefcheck import rationalize
from beliefcheck.cli import main
from beliefcheck.dist import _dist
from beliefcheck.io import format_number
from beliefcheck.rationalize import mix_label, target_mix
from genobs import random_observation


def reference_mean(model, prior, tol):
    """(holds, mean weights over the prior's space) by conditioning mu0 on
    every cell of positive mass."""
    mean = [Fraction(0)] * len(prior.space)
    for cell in model.signal_partition.values():
        mass = model.mu0.mass(cell)
        if mass:
            cond = condition(model.mu0, cell)
            post = pushforward(cond, model.projection, model.states)
            for j, x in enumerate(post.weights):
                mean[j] += mass * x
    holds = all(abs(m - p) <= tol for m, p in zip(mean, prior.weights))
    return holds, tuple(mean)


def rebuilt(model, **changes):
    fields = dict(
        states=model.states,
        omega=model.omega,
        projection=model.projection,
        signal_partition=model.signal_partition,
        mu0=model.mu0,
        pObj=model.pObj,
        lambda_mix=model.lambda_mix,
    )
    fields.update(changes)
    return Model(**fields)


def one_unit_moved(d, rng):
    """`d` with one unit of its numerators, over its denominator, moved from
    a charged outcome to another outcome."""
    nums = list(d.nums)
    i = rng.choice([i for i, x in enumerate(nums) if x])
    j = rng.choice([j for j in range(len(nums)) if j != i])
    nums[i] -= 1
    nums[j] += 1
    return Dist(d.space, tuple(Fraction(x, d.den) for x in nums))


def models_of(obs, rng):
    """Constructed models under uniform and target lambda, the uniform one
    with one unit of mu0 moved, and the known-omega witness when there is
    one."""
    built = construct_rationalization(obs)
    models = [built, construct_rationalization(obs, target_mix(obs))]
    if len(built.omega) > 1:
        models.append(rebuilt(built, mu0=one_unit_moved(built.mu0, rng)))
    if all(obs.prior.nums) and check_proposition1(obs).rationalizable:
        models.append(construct_known_omega_model(obs))
    return models


def martingale_json(obs_path, model_path, capsys):
    argv = ["martingale", str(obs_path), "--weights", "subjective-from"]
    code = main(argv + ["--model", str(model_path), "--json"])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_mean_equals_the_reference(tmp_path, capsys, mode):
    rng = random.Random(16)
    obs_path, model_path = tmp_path / "o.json", tmp_path / "m.json"
    verdicts = set()
    for _ in range(40):
        n, k = rng.randint(1, 5), rng.randint(1, 5)
        max_den = rng.choice([9, 97, 10**6])
        obs = random_observation(rng, n, k, max_den=max_den)
        save_observation(obs, obs_path, mode=mode)
        loaded_obs, _ = load_observation(obs_path)
        for model in models_of(obs, rng):
            save_model(model, model_path, mode=mode)
            loaded, _ = load_model(model_path)
            tol = max(loaded.tol, loaded_obs.tol)
            holds, mean = reference_mean(loaded, loaded_obs.prior, tol)
            verdicts.add(holds)
            report = verify_model(loaded, loaded_obs)
            assert report.subjective_martingale_holds == holds
            assert report.details["induced_prior"].weights == mean
            code, out, err = martingale_json(obs_path, model_path, capsys)
            assert (code, err) == (0 if holds else 2, "")
            payload = json.loads(out)
            assert payload["holds"] == holds
            assert payload["mean_posterior"] == {
                s: format_number(x, tol) for s, x in zip(obs.space, mean)
            }
    assert verdicts == {True, False}


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_reversed_states_are_refused(tmp_path, capsys, worked_example, mode):
    model = construct_rationalization(worked_example)
    reversed_model = rebuilt(model, states=tuple(model.states)[::-1])
    obs_path, model_path = tmp_path / "o.json", tmp_path / "m.json"
    save_observation(worked_example, obs_path, mode=mode)
    save_model(reversed_model, model_path, mode=mode)
    with pytest.raises(StructuralError):
        verify_model(reversed_model, worked_example)
    for json_flag in ([], ["--json"]):
        argv = ["martingale", str(obs_path), "--weights", "subjective-from"]
        code = main(argv + ["--model", str(model_path)] + json_flag)
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err == "error: posterior space differs from the prior's\n"


def float_observation_file(path, k, n=5, seed=11):
    """A float-mode observation of k posteriors over n states: the prior,
    then k weights randint(1, 9), then one belief per weight, each
    distribution random()**4 + 1e-3 normalised by its float sum."""
    rng = random.Random(seed)
    states = ["s%d" % i for i in range(n)]

    def draw():
        raw = [rng.random() ** 4 + 1e-3 for _ in states]
        total = sum(raw)
        return {s: repr(x / total) for s, x in zip(states, raw)}

    prior = draw()
    weights = [rng.randint(1, 9) for _ in range(k)]
    total = sum(weights)
    posteriors = [{"weight": repr(w / total), "belief": draw()} for w in weights]
    data = {
        "mode": "float",
        "states": states,
        "prior": prior,
        "posteriors": posteriors,
    }
    path.write_text(json.dumps(data))


def test_verify_time_does_not_grow_with_an_lcm_of_posteriors(tmp_path):
    # Under uniform lambda mu0's denominator carries every posterior's
    # argmax numerator; verify works on mu0's column sums, not on an lcm
    # of the cell posteriors' denominators. Best of two runs.
    path = tmp_path / "o.json"
    float_observation_file(path, 500)
    obs, _ = load_observation(path)
    model = construct_rationalization(obs)
    elapsed = []
    for _ in range(2):
        start = time.perf_counter()
        report = verify_model(model, obs)
        elapsed.append(time.perf_counter() - start)
    assert report.all_pass
    assert min(elapsed) < 0.6


def test_a_mix_proportional_to_the_argmax_numerators_keeps_construct_small(
    tmp_path, monkeypatch
):
    # With lambda_i proportional to B_i[s*], each row's L and B[s*] share
    # B[s*], so construct's common denominator is about Dp * Dl. Without
    # that reduction it is the lcm of the 2000 B[s*], some 86,000 bits,
    # and construct took about 2 s (Python 3.11.7, shared 2-vCPU host).
    # The reduced mu0 is the same either way; the denominators that
    # construct hands to the Dist builder show the difference.
    path = tmp_path / "o.json"
    float_observation_file(path, 2000)
    obs, _ = load_observation(path)
    report = check_condition1(obs)
    tops = [
        b.nums[e.derivative.argmax]
        for b, e in zip(obs.posteriors.beliefs, report.entries)
    ]
    mix = Dist(
        [mix_label(i) for i in range(len(tops))],
        [Fraction(t, sum(tops)) for t in tops],
    )
    built = []

    def recording(space, nums, den, *rest):
        built.append(den.bit_length())
        return _dist(space, nums, den, *rest)

    monkeypatch.setattr(rationalize, "_dist", recording)
    start = time.perf_counter()
    model = construct_rationalization(obs, mix)
    monkeypatch.undo()
    report = verify_model(model, obs)
    elapsed = time.perf_counter() - start
    assert report.all_pass
    assert model.lambda_mix == mix
    assert model.mu0.den.bit_length() < 256
    assert len(built) == 2 and max(built) < 256  # mu0's and pObj's
    assert elapsed < 1


def left_fold_mean(obs):
    """(holds, mean weights) of the objective martingale check, summed in
    Fractions one posterior at a time."""
    mean = [Fraction(0)] * len(obs.space)
    for w, belief in obs.posteriors.items:
        for j, x in enumerate(belief.weights):
            mean[j] += w * x
    tol = obs.tol
    holds = all(abs(m - p) <= tol for m, p in zip(mean, obs.prior.weights))
    return holds, tuple(mean)


def objective_mean(obs):
    holds, mean = martingale_check(
        obs.posteriors.weights, obs.posteriors.beliefs, obs.prior
    )
    return holds, mean.weights


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 300])
def test_objective_mean_equals_a_left_fold_on_float_data(tmp_path, k):
    # k posteriors are summed in pairs; odd counts carry one term a level
    path = tmp_path / "o.json"
    float_observation_file(path, k)
    obs, _ = load_observation(path)
    assert objective_mean(obs) == left_fold_mean(obs)


def test_objective_mean_equals_a_left_fold_on_generated_data():
    rng = random.Random(22)
    verdicts = set()
    for _ in range(200):
        n, k = rng.randint(1, 6), rng.randint(1, 12)
        max_den = rng.choice([9, 97, 10**6])
        obs = random_observation(rng, n, k, max_den=max_den)
        holds, mean = objective_mean(obs)
        assert (holds, mean) == left_fold_mean(obs)
        verdicts.add(holds)
    assert verdicts == {True, False}


def test_objective_mean_time_does_not_grow_with_a_left_fold_lcm(tmp_path):
    # Each float posterior's denominator is its own 55-bit integer, so the
    # mean's denominator grows by about that much per posterior: 83,094
    # bits at k = 4000. A left fold of the lcm took about 0.8 s, the
    # pairwise sum about 0.2 s (Python 3.11.7, shared 2-vCPU host). Best
    # of two runs.
    path = tmp_path / "o.json"
    float_observation_file(path, 4000)
    obs, _ = load_observation(path)
    elapsed = []
    for _ in range(2):
        start = time.perf_counter()
        holds, mean = martingale_check(
            obs.posteriors.weights, obs.posteriors.beliefs, obs.prior
        )
        elapsed.append(time.perf_counter() - start)
    assert mean.den.bit_length() > 80_000
    assert min(elapsed) < 0.5


@pytest.mark.parametrize(
    "weights",
    [
        [float("nan"), 0.5, 0.5],
        [float("inf"), 0.5, 0.5],
        [0.5, float("-inf"), 0.5],
        [float("inf"), float("-inf"), 1.0],
    ],
)
def test_nan_or_infinite_weights_are_refused_as_the_constructor_does(weights):
    space = ("H", "L")
    beliefs = [
        Dist(space, (Fraction(i, 3), 1 - Fraction(i, 3))) for i in range(3)
    ]
    prior = Dist(space, (Fraction(1, 3), Fraction(2, 3)))
    with pytest.raises(StructuralError) as built:
        Dist(range(3), weights)
    with pytest.raises(StructuralError) as checked:
        martingale_check(weights, beliefs, prior)
    assert str(checked.value) == str(built.value)
    assert str(checked.value).startswith("weights sum to ")
    assert str(checked.value).endswith(", expected 1 within 1e-09")
