"""Reference rendering of the CLI's printed numbers.

The number-printing commands as they were when every printed number was
a `Fraction` formatted on its own: `format_number` as it read then,
`_render_table` on the cells' rows as Fractions, the posterior lines
from `Dist.__getitem__`, `_dist_strings`, and `_check_payload` on
`RnDerivative.f`, `max_f` and `epsilon`. `beliefcheck.cli.main` must print
the same bytes as `main` here, on stdout and stderr, with the same exit
code.
"""

import math
import sys
from fractions import Fraction

from beliefcheck.cli import (
    FAIL,
    MAX_LISTED_CONFLICTS,
    PASS,
    USAGE,
    _emit,
    _resolve_lambda,
    build_parser,
)
from beliefcheck.dist import Observation, _same, martingale_check
from beliefcheck.errors import (
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
from beliefcheck.io import load_model, load_observation, model_json, save_model
from beliefcheck.known_omega import brute_force_known_omega, check_proposition1
from beliefcheck.rationalize import (
    _projected,
    cell_table,
    check_condition1,
    construct_rationalization,
    induced_observables,
)
from beliefcheck.simulate import simulate_panel, tv_distance


def format_number(x: Fraction, tol: Fraction) -> str:
    """`x` as written: "p/q" for exact data (tol 0), the repr of the
    nearest float for float-origin data."""
    return repr(float(x)) if tol else str(x)


def _dist_strings(dist, tol) -> dict:
    return {s: format_number(dist[s], tol) for s in dist.space}


def _render_table(states, columns, title: str, tol) -> list:
    """A state x signal table from (signal label, row over states) columns."""
    widths = [
        max(len(label), max(len(format_number(x, tol)) for x in row))
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
                format_number(row[j], tol).rjust(w)
                for (_, row), w in zip(columns, widths)
            )
        )
    return lines


def _check_payload(obs: Observation) -> dict:
    report = check_condition1(obs)
    tol = obs.tol
    entries = []
    for entry in report.entries:
        if entry.ok:
            d = entry.derivative
            entries.append(
                {
                    "index": entry.index,
                    "pass": True,
                    "f": {s: format_number(v, tol) for s, v in d.f.items()},
                    "max_f": format_number(d.max_f, tol),
                    "epsilon": format_number(d.epsilon, tol),
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


def cmd_rationalize(args) -> int:
    obs, mode = load_observation(args.observation)
    lam = _resolve_lambda(args.lambda_mix, obs, mode)
    model = construct_rationalization(obs, lam)
    if args.out:
        save_model(model, args.out, mode)
    if args.json:
        sys.stdout.write(model_json(model, mode))
    else:
        cells = cell_table(model)
        for title, rows in (
            ("subjective prior mu0:", [c.mu_parts for c in cells]),
            ("objective distribution P:", [c.obj_parts for c in cells]),
        ):
            rows = [tuple(Fraction(a, r.den) for a in r.acc) for r in rows]
            columns = [(c.label, row) for c, row in zip(cells, rows)]
            for line in _render_table(model.states, columns, title, model.tol):
                print(line)
            print()
        for i, (w, b) in enumerate(obs.posteriors.items):
            print(
                "nu%d = (%s), observed weight %s"
                % (
                    i,
                    ", ".join(
                        "%s: %s" % (s, format_number(b[s], obs.tol))
                        for s in obs.space
                    ),
                    format_number(w, obs.tol),
                )
            )
        if args.out:
            print("model written to %s" % args.out)
    return PASS


def cmd_known_omega(args) -> int:
    obs, _ = load_observation(args.observation)
    report = check_proposition1(obs)
    tol = obs.tol
    payload = {
        "condition_i": report.condition_i,
        "overlapping_pairs": [
            {"i": i, "j": j, "shared": list(shared)}
            for i, j, shared in report.overlapping_pairs
        ],
        "condition_ii": report.condition_ii,
        "worst_deviations": [format_number(d, tol) for d in report.deviations],
        "rationalizable": report.rationalizable,
    }
    lines = [
        "condition (i) disjoint supports: %s"
        % ("PASS" if report.condition_i else "FAIL"),
    ]
    hidden = len(report.overlapping_pairs) - MAX_LISTED_CONFLICTS
    for i, j, shared in report.overlapping_pairs[:MAX_LISTED_CONFLICTS]:
        lines.append(
            "  posteriors %d and %d share outcomes %s"
            % (i, j, ", ".join(map(repr, shared)))
        )
    if hidden > 0:
        lines.append("  \u2026 and %d more" % hidden)
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
    tol = obs.tol
    if args.weights == "objective":
        # A loaded file's mode sets every tolerance in it, so the check's
        # tolerance is obs.tol.
        holds, mean = martingale_check(
            obs.posteriors.weights, obs.posteriors.beliefs, obs.prior
        )
        source = "objective posterior weights"
    else:
        if not args.model:
            raise FormatError(
                "--weights subjective-from requires --model MODEL.json"
            )
        model, _ = load_model(args.model)
        if model.states != obs.space:
            raise StructuralError("posterior space differs from the prior's")
        tol = max(tol, model.tol)
        # The cell posteriors under their mu0 masses average to mu0's
        # projection onto the states, by Bayes' law.
        mean = _projected([c.mu_parts for c in cell_table(model)], obs.space)
        holds = _same(mean, obs.prior, tol)
        source = "subjective signal-cell weights from %s" % args.model
    mean = _dist_strings(mean, tol)
    payload = {
        "weights": args.weights,
        "holds": holds,
        "mean_posterior": mean,
        "prior": _dist_strings(obs.prior, tol),
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
    threshold = args.threshold
    if threshold is not None and not 0 <= threshold < math.inf:
        raise StructuralError(
            "--threshold must be a finite number at least 0, got %r"
            % threshold
        )
    model, _ = load_model(args.model)
    # One cell table serves the panel and the implied distribution.
    panel = simulate_panel(model, args.n, args.seed)
    tv = tv_distance(panel.empirical, induced_observables(model)[1])
    tol = model.tol
    payload = {
        "n_agents": panel.n_agents,
        "seed": panel.seed,
        "tv_distance": format_number(tv, tol),
        "empirical": [
            {
                "weight": format_number(w, tol),
                "belief": _dist_strings(b, tol),
            }
            for w, b in panel.empirical.items
        ],
    }
    lines = ["n = %d, seed = %d" % (panel.n_agents, panel.seed)]
    for w, b in panel.empirical.items:
        lines.append(
            "  weight %s  belief (%s)"
            % (
                format_number(w, tol),
                ", ".join(
                    "%s: %s" % (s, format_number(b[s], tol)) for s in b.space
                ),
            )
        )
    lines.append("tv distance to model-implied distribution: %s" % float(tv))
    ok = True
    if threshold is not None:
        ok = tv < Fraction(threshold)
        payload["threshold"] = threshold
        payload["within_threshold"] = ok
        lines.append("within threshold %g: %s" % (threshold, ok))
    _emit(payload, args.json, lines)
    return PASS if ok else FAIL


COMMANDS = {
    "check": cmd_check,
    "rationalize": cmd_rationalize,
    "known-omega": cmd_known_omega,
    "martingale": cmd_martingale,
    "simulate": cmd_simulate,
}


def main(argv) -> int:
    """`beliefcheck.cli.main` running the commands above."""
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
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
