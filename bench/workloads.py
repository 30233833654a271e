"""The three benchmark workloads.

`setup(bc, cli_main, rng, work, tr)` builds a workload's inputs and returns
its op sequence: a list of (tag, op) pairs, where `op(tr, i)` runs op number
i and returns (correct, observation, model). The timed phase repeats the
first `TIMED_OPS[name]` ops, whole rounds of `ROUND[name]` ops each, so every
run sees the same ops whatever the host's speed. `tag` groups ops for the
per-layer medians.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from functools import partial

import gen

# wide: the file pipeline behind `rationalize --out` and `verify`.
WIDE_N = 12
WIDE_K = (12, 24, 48)
WIDE_ROUNDS = 24

# sweep: small observations through the library (exact) and the CLI (float).
# Every seed draws the same multiset of shapes: each (n, k) of the grid once
# with a full-support prior and once without, cycling through the pool, so
# seeds differ only in the weights and supports they draw.
SWEEP_N = range(2, 9)
SWEEP_K = range(1, 7)
SWEEP_SHAPES = [(n, k) for n in SWEEP_N for k in SWEEP_K]
SWEEP_POOL = 4 * len(SWEEP_SHAPES)

# panel: finite-panel simulation of models built during set-up.
PANEL_N = 6
PANEL_K = (2, 8, 32)
PANEL_MODELS = 8
PANEL_AGENTS = 100_000
PANEL_TV_LIMIT = 0.02


def _wide_op(bc, obs_path, model_path, tr, i):
    obs, _ = tr.call(bc.load_observation, obs_path)
    screen = tr.call(bc.check_condition1, obs)
    model = tr.call(bc.construct_rationalization, obs)
    tr.call(bc.save_model, model, model_path)
    loaded, _ = tr.call(bc.load_model, model_path)
    again, _ = tr.call(bc.load_observation, obs_path)
    report = tr.call(bc.verify_model, loaded, again)
    return screen.overall_pass and report.all_pass, obs, model


def setup_wide(bc, cli_main, rng, work, tr):
    ops = []
    for _ in range(WIDE_ROUNDS):
        for k in WIDE_K:
            j = len(ops)
            obs = gen.random_observation(bc, tr, rng, WIDE_N, k)
            path = work / ("obs%d.json" % j)
            tr.call(bc.save_observation, obs, path)
            op = partial(_wide_op, bc, path, work / ("model%d.json" % j))
            ops.append(("k%d" % k, op))
    return ops


def _cli(tr, cli_main, name, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), tr.span("cli." + name):
        return cli_main(argv)


def _subjective_martingale(bc, tr, model, prior):
    """Martingale check under the model's subjective signal-cell weights."""
    weights, posteriors = [], []
    for cell in model.signal_partition.values():
        mass = model.mu0.mass(cell)
        if mass == 0:
            continue
        weights.append(mass)
        cond = tr.call(bc.condition, model.mu0, cell)
        posteriors.append(
            tr.call(bc.pushforward, cond, model.projection, model.states)
        )
    holds, _ = tr.call(bc.martingale_check, weights, posteriors, prior)
    return holds


def _sweep_op(bc, cli_main, obs, obs_path, model_path, tr, i):
    # Exact, in the library.
    screen = tr.call(bc.check_condition1, obs)
    model = tr.call(bc.construct_rationalization, obs)
    report = tr.call(bc.verify_model, model, obs)
    objective, _ = tr.call(
        bc.martingale_check,
        list(obs.posteriors.weights),
        list(obs.posteriors.beliefs),
        obs.prior,
    )
    ok = report.all_pass and _subjective_martingale(bc, tr, model, obs.prior)
    known = None  # the known-omega test needs a full-support prior
    if all(w > 0 for w in obs.prior.weights):
        known = tr.call(bc.check_proposition1, obs).rationalizable
        if known:
            witness = tr.call(bc.construct_known_omega_model, obs)
            ok = ok and tr.call(bc.verify_model, witness, obs).consistent

    # Float, through the CLI: each exit code must equal the exact verdict.
    def code(passed):
        return 0 if passed else 2

    obs_arg, model_arg = str(obs_path), str(model_path)
    expected = (
        code(screen.overall_pass),
        code(screen.overall_pass),
        code(report.consistent),
        code(objective),
        1 if known is None else code(known),
    )
    got = (
        _cli(tr, cli_main, "check", ["check", obs_arg]),
        _cli(
            tr,
            cli_main,
            "rationalize",
            ["rationalize", obs_arg, "--out", model_arg],
        ),
        _cli(tr, cli_main, "verify", ["verify", model_arg, obs_arg, "--json"]),
        _cli(tr, cli_main, "martingale", ["martingale", obs_arg, "--json"]),
        _cli(tr, cli_main, "known_omega", ["known-omega", obs_arg, "--json"]),
    )
    return ok and got == expected, obs, model


def setup_sweep(bc, cli_main, rng, work, tr):
    ops = []
    for j in range(SWEEP_POOL):
        full = j % 2 == 0
        n, k = SWEEP_SHAPES[(j // 2) % len(SWEEP_SHAPES)]
        obs = gen.sweep_observation(bc, tr, rng, n, k, full)
        path = work / ("obs%d.json" % j)
        tr.call(bc.save_observation, obs, path, "float")
        model_path = work / ("model%d.json" % j)
        op = partial(_sweep_op, bc, cli_main, obs, path, model_path)
        ops.append(("full" if full else "any", op))
    return ops


def _panel_op(bc, obs, model, tr, i):
    sample = tr.call(bc.simulate_panel, model, PANEL_AGENTS, seed=i)
    _, implied = tr.call(bc.induced_observables, model)
    tv = tr.call(bc.tv_distance, sample.empirical, implied)
    ok = (
        all(
            any(e.matches(b) for b in implied.beliefs)
            for e in sample.empirical.beliefs
        )
        and len(sample.draws) == PANEL_AGENTS
        and sum(sample.empirical.weights) * PANEL_AGENTS == PANEL_AGENTS
        and tv < PANEL_TV_LIMIT
    )
    return ok, obs, model


def setup_panel(bc, cli_main, rng, work, tr):
    ops = []
    for _ in range(PANEL_MODELS):
        for k in PANEL_K:
            obs = gen.random_observation(bc, tr, rng, PANEL_N, k)
            model = tr.call(bc.construct_rationalization, obs)
            ops.append(("k%d" % k, partial(_panel_op, bc, obs, model)))
    return ops


SETUP = {
    "wide": setup_wide,
    "sweep": setup_sweep,
    "panel": setup_panel,
}

# Ops per round: one of each op kind, so partial rounds never skew the mix.
ROUND = {
    "wide": len(WIDE_K),
    "sweep": 2,
    "panel": len(PANEL_K),
}

# Ops in the timed set of a `--trace 0` run, whole rounds, each run at least
# MIN_REPEATS times. One pass over them takes 1.5 to 3 s on an idle host, so
# a 36 s run repeats each op a dozen times or more. For sweep the set holds
# every shape twice.
TIMED_OPS = {"wide": len(WIDE_K), "sweep": 2 * len(SWEEP_SHAPES), "panel": 3}

# Ops in the traced phase of a `--trace 1` run: a fixed prefix of the op
# sequence, so span counts repeat exactly for a given seed.
TRACED_OPS = {"wide": 12, "sweep": SWEEP_POOL, "panel": 15}
