"""Command-line interface.

Exit codes follow one contract across all subcommands: 0 means the check
passed (or the requested artifact was produced), 2 means a substantive
failure (not absolutely continuous, not rationalizable, not a martingale),
and 1 means the input was unusable.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from functools import lru_cache

from .dist import Dist, Observation, _joint_tol, _same, martingale_check
from .errors import (
    MAX_AGENTS,
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
    _model_file,
    _model_numbers,
    _number_texts,
    _write,
    format_number,
    load_model,
    load_observation,
    parse_number,
    read_json,
)
from .rationalize import (
    _projected,
    _signal_runs,
    cell_table,
    check_condition1,
    construct_rationalization,
    induced_observables,
    mix_label,
    target_mix,
    uniform_mix,
    verify_model,
)

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


#: Overlapping posterior pairs that `known-omega` prints as text.
MAX_LISTED_CONFLICTS = 20


def _dist_strings(dist, tol) -> dict:
    return dict(zip(dist.space, _number_texts(dist.nums, dist.den, tol)))


def _listed(strings: dict) -> str:
    """Label: number pairs as the text lines list them."""
    return ", ".join(map("%s: %s".__mod__, strings.items()))


def _ratio_text(num: int, den: int, tol) -> str:
    """The number num / den as written."""
    return _number_texts((num,), den, tol)[0]


def _render_table(states, columns: list, title: str) -> list:
    """A state x signal table: one column per (signal label, number texts
    over the states) pair of `columns`."""
    cells = []
    for label, texts in columns:
        column = [label, *texts]
        width = max(map(len, column))
        cells.append([text.rjust(width) for text in column])
    row_w = max(len(str(s)) for s in states)
    heads = [" " * row_w] + [str(s).rjust(row_w) for s in states]
    return [title] + list(map("  ".join, zip(heads, *cells)))


def _check_payload(obs: Observation, ratios: bool) -> dict:
    """`check`'s verdicts; a passing posterior's likelihood ratios `f` are
    formatted only when `ratios` is set, as the text prints none."""
    report = check_condition1(obs)
    tol, prior = obs.tol, obs.prior
    entries = []
    for entry in report.entries:
        if entry.ok:
            d = entry.derivative
            num, den = d._ratio_at(d.argmax)
            e = {"index": entry.index, "pass": True}
            if ratios:
                e["f"] = {
                    s: _ratio_text(*d._ratio_at(i), tol)
                    for i, s in enumerate(prior.space)
                    if prior.nums[i]
                }
            e["max_f"] = _ratio_text(num, den, tol)
            e["epsilon"] = _ratio_text(den, num, tol)
            entries.append(e)
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
    """Screen an observation for absolute continuity. Takes time linear
    in the file's size plus O(k * n) for k posteriors over n states: one
    likelihood ratio per outcome, each a product of two file numbers,
    formatted on its own for --json only."""
    obs, _ = load_observation(args.observation)
    payload = _check_payload(obs, args.json)
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
        raw = read_json(spec)
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
            "%s: lambda file must give a weight for each of: %s"
            % (spec, ", ".join(expected))
        )
    weights = [
        parse_number(raw[k], mode, "%s:%s" % (spec, k)) for k in expected
    ]
    try:
        return Dist(tuple(expected), weights)
    except StructuralError as err:
        raise StructuralError("%s: %s" % (spec, err)) from None


def cmd_rationalize(args) -> int:
    """Build a rationalizing model; print its mu0 and pObj tables, or its
    file as --json. Takes O(k * n) time and memory for k posteriors over
    n states beyond reading the file: the construction and the model file
    (see construct_rationalization and save_model), and two tables of 2k x
    n numbers. A signal's column in a table is its run of mu0's or pObj's
    numbers (`_signal_runs`), so each distinct numerator is formatted
    once, for the file and the tables alike."""
    obs, mode = load_observation(args.observation)
    lam = _resolve_lambda(args.lambda_mix, obs, mode)
    model = construct_rationalization(obs, lam)
    if args.out or args.json:
        text, numbers = _model_file(model, mode)
    else:
        numbers = _model_numbers(model)
    if args.out:
        _write(args.out, text)
    if args.json:
        sys.stdout.write(text)
    else:
        runs = _signal_runs(model.signal_partition, len(model.states)).items()
        for title, texts in zip(
            ("subjective prior mu0:", "objective distribution P:"), numbers
        ):
            columns = [(label, texts[run]) for label, run in runs]
            table = _render_table(model.states, columns, title)
            print("\n".join(table), end="\n\n")
        posteriors, lines = obs.posteriors, []
        weights = _number_texts(posteriors.nums, posteriors.den, obs.tol)
        for i, (w, b) in enumerate(zip(weights, posteriors.beliefs)):
            lines.append(
                "%s = (%s), observed weight %s"
                % (mix_label(i), _listed(_dist_strings(b, obs.tol)), w)
            )
        if args.out:
            lines.append("model written to %s" % args.out)
        print("\n".join(lines))
    return PASS


def cmd_verify(args) -> int:
    """Verify a model against an observation. Takes time linear in the
    two files' sizes plus verify_model's O(|omega| + (k + cells) * n)."""
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
    """Decide rationalizability with a known state space. Takes time
    linear in the file's size plus O(k * n) (see check_proposition1);
    the text lists at most MAX_LISTED_CONFLICTS overlapping pairs.
    --brute-force enumerates the set partitions of the states, a Bell
    number of them, and refuses more than MAX_BRUTE_FORCE_STATES states.
    Imports `known_omega` on its first call: no other subcommand runs it."""
    from .known_omega import brute_force_known_omega, check_proposition1

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
    """Test the martingale property of the observation. Under the
    objective weights it takes martingale_check's O(k * n) operations,
    summed in pairs, whose integers grow with k on float-origin data: on
    5 states with random float beliefs, `--json` took 0.05, 0.11, 0.24
    and 0.52 s at k = 500, 1000, 2000 and 4000, reading the file most of
    it (in process, Python 3.11.7, shared 2-vCPU host). Under
    subjective-from it takes time linear in the two files' sizes plus the
    model's cell table (see cell_table). Either way, printing takes
    O(n)."""
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
        tol = _joint_tol(tol, model.tol)
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
        "mean posterior: (%s)" % _listed(mean),
        "martingale: %s" % ("holds" if holds else "FAILS"),
    ]
    _emit(payload, args.json, lines)
    return PASS if holds else FAIL


def cmd_simulate(args) -> int:
    """Draw a panel from a model and compare it with the implied
    distribution. Takes time linear in the file's size plus the cell
    table and the draw plan, the draw (see simulate_panel: O(n_agents *
    cells)), the implied distribution and tv_distance; printing takes
    O(cells * n). Imports `simulate`, and with it hashlib, on its first
    call: no other subcommand runs them."""
    from .simulate import simulate_panel, tv_distance

    threshold = args.threshold
    if threshold is not None and not 0 <= threshold < math.inf:
        raise StructuralError(
            "--threshold must be a finite number at least 0, got %r"
            % threshold
        )
    model, _ = load_model(args.model)
    panel = simulate_panel(model, args.n, args.seed)
    # The panel and the implied distribution read one cell table, which
    # the model keeps.
    tv = tv_distance(panel.empirical, induced_observables(model)[1])
    tol, empirical = model.tol, panel.empirical
    weights = _number_texts(empirical.nums, empirical.den, tol)
    beliefs = [_dist_strings(b, tol) for b in empirical.beliefs]
    payload = {
        "n_agents": panel.n_agents,
        "seed": panel.seed,
        "tv_distance": format_number(tv, tol),
        "empirical": [
            {"weight": w, "belief": b} for w, b in zip(weights, beliefs)
        ],
    }
    lines = ["n = %d, seed = %d" % (panel.n_agents, panel.seed)]
    for w, b in zip(weights, beliefs):
        lines.append("  weight %s  belief (%s)" % (w, _listed(b)))
    lines.append("tv distance to model-implied distribution: %s" % float(tv))
    ok = True
    if threshold is not None:
        ok = tv < Fraction(threshold)
        payload["threshold"] = threshold
        payload["within_threshold"] = ok
        lines.append("within threshold %g: %s" % (threshold, ok))
    _emit(payload, args.json, lines)
    return PASS if ok else FAIL


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (it takes about 1 ms).
    `--n`'s help reads MAX_AGENTS from `errors`, so building it imports
    neither `simulate` nor `known_omega`; each loads on its subcommand's
    first call."""
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
        "--threshold",
        type=float,
        default=None,
        help="exit 2 if the tv distance reaches this value, a finite "
        "number at least 0",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_simulate)

    return parser


def _reads_as_float(arg: str) -> bool:
    try:
        float(arg)
    except ValueError:
        return False
    return True


def _join_negative_thresholds(argv) -> list:
    """argv with `--threshold VALUE` joined into `--threshold=VALUE` when
    VALUE starts with "-" and reads as a float. argparse takes only
    -<digits> and -<digits>.<digits> as values after an option, so it would
    read "-1e-3" or "-inf" as an unknown option and print its usage block;
    joined, the value reaches `cmd_simulate`'s one-line refusal."""
    joined = []
    for arg in argv:
        flag = joined[-1] if joined else ""
        # argparse also takes any unambiguous prefix of "--threshold".
        if (
            len(flag) > 2
            and "--threshold".startswith(flag)
            and arg.startswith("-")
            and _reads_as_float(arg)
        ):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_join_negative_thresholds(argv))
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
