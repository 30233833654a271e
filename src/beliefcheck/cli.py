"""Command-line interface.

Exit codes follow one contract across all subcommands: 0 means the check
passed (or the requested artifact was produced), 2 means a substantive
failure (not absolutely continuous, not rationalizable, not a martingale),
and 1 means the input was unusable.
"""

from __future__ import annotations

import argparse
import json
import sys

from .dist import Observation, martingale_mean, num_pos
from .errors import (
    AbsoluteContinuityViolation,
    FormatError,
    InvalidMixError,
    NotRationalizableError,
    PreconditionError,
    ResourceBoundError,
    StructuralError,
    UndefinedUpdateError,
    ZeroProbabilityCell,
)
from .io import (
    format_number,
    load_model,
    load_observation,
    model_to_dict,
    parse_number,
)
from .known_omega import brute_force_known_omega, check_proposition1
from .rationalize import (
    cell_table,
    check_condition1,
    construct_rationalization,
    induced_observables,
    mix_label,
    target_mix,
    uniform_mix,
    verify_model,
)
from .simulate import MAX_AGENTS, simulate_panel, tv_distance

PASS, FAIL, USAGE = 0, 2, 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; our contract reserves 2
    # for substantive failures, so route usage problems to exit code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise _UsageError(message)


def _emit(payload: dict, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def _dist_strings(dist) -> dict:
    return {s: format_number(dist[s]) for s in dist.space}


def _render_table(states, columns, title: str) -> list:
    """A state x signal table from (signal label, row over states) columns."""
    widths = [
        max(len(label), max(len(format_number(x)) for x in row))
        for label, row in columns
    ]
    row_w = max(len(str(s)) for s in states)
    lines = [title]
    lines.append(
        " " * row_w
        + "  "
        + "  ".join(label.rjust(w) for (label, _), w in zip(columns, widths))
    )
    for j, s in enumerate(states):
        lines.append(
            str(s).rjust(row_w)
            + "  "
            + "  ".join(
                format_number(row[j]).rjust(w)
                for (_, row), w in zip(columns, widths)
            )
        )
    return lines


def _check_payload(obs: Observation) -> dict:
    report = check_condition1(obs)
    entries = []
    for entry in report.entries:
        if entry.ok:
            d = entry.derivative
            entries.append(
                {
                    "index": entry.index,
                    "pass": True,
                    "f": {s: format_number(v) for s, v in d.f.items()},
                    "max_f": format_number(d.max_f),
                    "epsilon": format_number(d.epsilon),
                }
            )
        else:
            entries.append(
                {
                    "index": entry.index,
                    "pass": False,
                    "violations": list(entry.violations),
                }
            )
    return {"pass": report.overall_pass, "posteriors": entries}


def cmd_check(args) -> int:
    obs, _ = load_observation(args.observation)
    payload = _check_payload(obs)
    lines = []
    for e in payload["posteriors"]:
        if e["pass"]:
            lines.append(
                "posterior %d: ok (max f = %s, epsilon = %s)"
                % (e["index"], e["max_f"], e["epsilon"])
            )
        else:
            lines.append(
                "posterior %d: charges prior-null outcomes %s"
                % (e["index"], ", ".join(map(repr, e["violations"])))
            )
    lines.append(
        "absolute continuity: %s" % ("PASS" if payload["pass"] else "FAIL")
    )
    _emit(payload, args.json, lines)
    return PASS if payload["pass"] else FAIL


def _resolve_lambda(spec: str, obs: Observation, mode: str):
    if spec == "uniform":
        return uniform_mix(obs)
    if spec == "target":
        return target_mix(obs)
    try:
        with open(spec) as fh:
            raw = json.load(fh)
    except OSError as err:
        raise FormatError("cannot read lambda file %s: %s" % (spec, err))
    except json.JSONDecodeError as err:
        raise FormatError(
            "%s: invalid JSON at line %d: %s" % (spec, err.lineno, err.msg)
        )
    if not isinstance(raw, dict):
        raise FormatError(
            "%s: lambda file must map posterior labels (nu0, nu1, ...) to "
            "numbers" % spec
        )
    expected = [mix_label(i) for i in range(len(obs.posteriors))]
    if set(raw) != set(expected):
        raise InvalidMixError(
            "lambda file must give a weight for each of: %s"
            % ", ".join(expected)
        )
    from .dist import Dist

    return Dist(
        tuple(expected),
        tuple(
            parse_number(raw[k], mode, "%s:%s" % (spec, k))
            for k in expected
        ),
    )


def cmd_rationalize(args) -> int:
    obs, mode = load_observation(args.observation)
    lam = _resolve_lambda(args.lambda_mix, obs, mode)
    model = construct_rationalization(obs, lam)
    if args.out:
        from .io import save_model

        save_model(model, args.out, mode)
    if args.json:
        print(json.dumps(model_to_dict(model, mode), indent=2))
    else:
        cells = cell_table(model)
        for title, rows in (
            ("subjective prior mu0:", [c.mu_row for c in cells]),
            ("objective distribution P:", [c.obj_row for c in cells]),
        ):
            columns = [(c.label, row) for c, row in zip(cells, rows)]
            for line in _render_table(model.states, columns, title):
                print(line)
            print()
        for i, (w, b) in enumerate(obs.posteriors.items):
            print(
                "nu%d = (%s), observed weight %s"
                % (
                    i,
                    ", ".join(
                        "%s: %s" % (s, format_number(b[s])) for s in obs.space
                    ),
                    format_number(w),
                )
            )
        if args.out:
            print("model written to %s" % args.out)
    return PASS


def cmd_verify(args) -> int:
    model, _ = load_model(args.model)
    obs, _ = load_observation(args.observation)
    report = verify_model(model, obs)
    payload = report.as_dict()
    lines = [
        "%s: %s" % (key, "PASS" if value else "FAIL")
        for key, value in payload.items()
        if key not in ("consistent", "all_pass")
    ]
    lines.append(
        "verdict: %s"
        % ("consistent" if report.consistent else "NOT consistent")
    )
    _emit(payload, args.json, lines)
    return PASS if report.consistent else FAIL


def cmd_known_omega(args) -> int:
    obs, _ = load_observation(args.observation)
    report = check_proposition1(obs)
    payload = {
        "condition_i": report.condition_i,
        "overlapping_pairs": [
            {"i": i, "j": j, "shared": list(shared)}
            for i, j, shared in report.overlapping_pairs
        ],
        "condition_ii": report.condition_ii,
        "worst_deviations": [format_number(d) for d in report.deviations],
        "rationalizable": report.rationalizable,
    }
    lines = [
        "condition (i) disjoint supports: %s"
        % ("PASS" if report.condition_i else "FAIL"),
    ]
    for i, j, shared in report.overlapping_pairs:
        lines.append(
            "  posteriors %d and %d share outcomes %s"
            % (i, j, ", ".join(map(repr, shared)))
        )
    lines.append(
        "condition (ii) prior conditionals: %s"
        % ("PASS" if report.condition_ii else "FAIL")
    )
    for i, d in enumerate(payload["worst_deviations"]):
        lines.append("  posterior %d: worst deviation %s" % (i, d))
    if args.brute_force:
        oracle = brute_force_known_omega(obs)
        payload["brute_force"] = oracle
        payload["oracle_agrees"] = oracle == report.rationalizable
        lines.append("brute-force oracle: %s" % oracle)
        lines.append("oracle agrees: %s" % payload["oracle_agrees"])
    lines.append(
        "rationalizable with known state space: %s"
        % ("YES" if report.rationalizable else "NO")
    )
    _emit(payload, args.json, lines)
    return PASS if report.rationalizable else FAIL


def cmd_martingale(args) -> int:
    obs, _ = load_observation(args.observation)
    if args.weights == "objective":
        weights = list(obs.posteriors.weights)
        posteriors = list(obs.posteriors.beliefs)
        source = "objective posterior weights"
    else:
        if not args.model:
            raise FormatError(
                "--weights subjective-from requires --model MODEL.json"
            )
        model, _ = load_model(args.model)
        active = [c for c in cell_table(model) if num_pos(c.mu_mass)]
        weights = [c.mu_mass for c in active]
        posteriors = [c.posterior for c in active]
        source = "subjective signal-cell weights from %s" % args.model
    holds, mean = martingale_mean(weights, posteriors, obs.prior)
    mean = dict(zip(obs.space, map(format_number, mean)))
    payload = {
        "weights": args.weights,
        "holds": holds,
        "mean_posterior": mean,
        "prior": _dist_strings(obs.prior),
    }
    lines = [
        "weighting: %s" % source,
        "mean posterior: (%s)"
        % ", ".join("%s: %s" % item for item in mean.items()),
        "martingale: %s" % ("holds" if holds else "FAILS"),
    ]
    _emit(payload, args.json, lines)
    return PASS if holds else FAIL


def cmd_simulate(args) -> int:
    model, _ = load_model(args.model)
    panel = simulate_panel(model, args.n, args.seed, workers=args.workers)
    _, implied = induced_observables(model)
    tv = tv_distance(panel.empirical, implied)
    payload = {
        "n_agents": panel.n_agents,
        "seed": panel.seed,
        "tv_distance": format_number(tv),
        "empirical": [
            {
                "weight": format_number(w),
                "belief": _dist_strings(b),
            }
            for w, b in panel.empirical.items
        ],
    }
    lines = ["n = %d, seed = %d" % (panel.n_agents, panel.seed)]
    for w, b in panel.empirical.items:
        lines.append(
            "  weight %s  belief (%s)"
            % (
                format_number(w),
                ", ".join(
                    "%s: %s" % (s, format_number(b[s])) for s in b.space
                ),
            )
        )
    lines.append("tv distance to model-implied distribution: %s" % float(tv))
    ok = True
    if args.threshold is not None:
        ok = float(tv) < args.threshold
        payload["threshold"] = args.threshold
        payload["within_threshold"] = ok
        lines.append("within threshold %g: %s" % (args.threshold, ok))
    _emit(payload, args.json, lines)
    return PASS if ok else FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="beliefcheck",
        description=(
            "Test whether an observed belief dynamic (prior plus "
            "distribution of posteriors) is consistent with Bayesian "
            "rationality, and construct rationalizing models."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "check", help="screen an observation for absolute continuity"
    )
    p.add_argument("observation", help="observation JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "rationalize",
        help="construct a model that reproduces the observation",
    )
    p.add_argument("observation")
    p.add_argument(
        "--lambda",
        dest="lambda_mix",
        default="uniform",
        metavar="uniform|target|FILE",
        help=(
            "mixing distribution over observed posteriors: 'uniform' "
            "(default), 'target' (the observed weights), or a JSON file"
        ),
    )
    p.add_argument("--out", help="write the model to this JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_rationalize)

    p = sub.add_parser(
        "verify", help="independently verify a model against an observation"
    )
    p.add_argument("model")
    p.add_argument("observation")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "known-omega",
        help="decide rationalizability when the state space is fully "
        "observed",
    )
    p.add_argument("observation")
    p.add_argument(
        "--brute-force",
        action="store_true",
        help="also run the exhaustive partition-enumeration oracle",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_known_omega)

    p = sub.add_parser(
        "martingale", help="test the martingale property of the observation"
    )
    p.add_argument("observation")
    p.add_argument(
        "--weights",
        choices=["objective", "subjective-from"],
        default="objective",
        help=(
            "weighting of the posteriors: observed (objective) frequencies, "
            "or subjective signal probabilities from --model"
        ),
    )
    p.add_argument("--model", help="model JSON file (for subjective-from)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_martingale)

    p = sub.add_parser(
        "simulate", help="sample a finite agent panel from a model"
    )
    p.add_argument("model")
    p.add_argument(
        "--n",
        type=int,
        required=True,
        help="number of agents, at most %d" % MAX_AGENTS,
    )
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="draw the agents as this many contiguous ranges, one after "
        "another (no threads; the panel is the same for any value >= 1)",
    )
    p.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="exit 2 if the tv distance reaches this value",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError:
        return USAGE
    try:
        return args.func(args)
    except (FormatError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return USAGE
    except (
        AbsoluteContinuityViolation,
        InvalidMixError,
        NotRationalizableError,
        UndefinedUpdateError,
        ZeroProbabilityCell,
    ) as err:
        print("error: %s" % err, file=sys.stderr)
        return FAIL
    except (PreconditionError, ResourceBoundError, StructuralError) as err:
        print("error: %s" % err, file=sys.stderr)
        return USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
