"""JSON file formats for observations and models.

Numbers are serialized as strings so exact rationals survive the round
trip: "p/q" in rational mode, decimal strings in float mode. The file's
"mode" field selects how the strings are parsed back. See docs/format.md
for the schemas.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Tuple

from .dist import Dist, Number, Observation, WeightedPosteriors, is_exact
from .errors import FormatError, StructuralError
from .rationalize import Model

MODES = ("rational", "float")

#: Largest decimal exponent magnitude accepted: Python's default limit on
#: int digits, which already bounds the "p/q" form.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"e[-+]?[0_]*([\d_]*)\s*\Z", re.IGNORECASE)


def parse_number(raw, mode: str, where: str) -> Number:
    """Parse a number string ("p/q" or decimal) or a bare JSON number."""
    if isinstance(raw, bool):
        raise FormatError("%s: expected a number, got a boolean" % where)
    text = str(raw)
    exponent = _EXPONENT.search(text)
    digits = exponent.group(1).replace("_", "") if exponent else ""
    # Five or more digits exceed the cap, and int() refuses over 4300.
    if len(digits) > 4 or int(digits or 0) > MAX_EXPONENT:
        raise FormatError(
            "%s: decimal exponent above %d in magnitude" % (where, MAX_EXPONENT)
        )
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise FormatError(
            "%s: %r is not a valid number (use 'p/q' or a decimal)"
            % (where, raw)
        ) from None
    if mode == "rational":
        return value
    try:
        return float(value)
    except OverflowError:
        raise FormatError(
            "%s: %r is out of range for float mode" % (where, raw)
        ) from None


def format_number(x: Number) -> str:
    if is_exact(x):
        return str(Fraction(x))
    return repr(float(x))


def _require(data: dict, key: str, where: str):
    if key not in data:
        raise FormatError("%s: missing required field %r" % (where, key))
    return data[key]


def _load_json(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as err:
        raise FormatError(
            "%s: invalid JSON at line %d column %d: %s"
            % (path, err.lineno, err.colno, err.msg)
        ) from None
    except ValueError as err:
        # Plain ValueError: an integer literal longer than Python's int
        # digit limit; UnicodeDecodeError: a file that is not UTF-8.
        raise FormatError("%s: unreadable JSON: %s" % (path, err)) from None
    if not isinstance(data, dict):
        raise FormatError("%s: top-level value must be an object" % path)
    return data


def _parse_mode(data: dict, where: str) -> str:
    mode = data.get("mode", "rational")
    if mode not in MODES:
        raise FormatError(
            "%s: field 'mode' must be one of %s, got %r"
            % (where, "/".join(MODES), mode)
        )
    return mode


def _parse_states(data: dict, where: str) -> tuple:
    states = _require(data, "states", where)
    if (
        not isinstance(states, list)
        or not states
        or not all(isinstance(s, str) and s for s in states)
    ):
        raise FormatError(
            "%s: field 'states' must be a non-empty list of non-empty "
            "strings" % where
        )
    if len(set(states)) != len(states):
        raise FormatError("%s: field 'states' has duplicate labels" % where)
    return tuple(states)


def _parse_dist(raw, states: tuple, mode: str, where: str) -> Dist:
    if not isinstance(raw, dict):
        raise FormatError(
            "%s: expected an object mapping state labels to numbers" % where
        )
    extra = set(raw) - set(states)
    if extra:
        raise FormatError(
            "%s: unknown state labels %s"
            % (where, ", ".join(sorted(extra)))
        )
    weights = {
        s: parse_number(v, mode, "%s.%s" % (where, s)) for s, v in raw.items()
    }
    try:
        return Dist.from_mapping(states, weights)
    except StructuralError as err:
        raise FormatError("%s: %s" % (where, err)) from None


def load_observation(path) -> Tuple[Observation, str]:
    """Read an observation file; returns (observation, mode)."""
    data = _load_json(path)
    where = str(path)
    mode = _parse_mode(data, where)
    states = _parse_states(data, where)
    prior = _parse_dist(
        _require(data, "prior", where), states, mode, where + ":prior"
    )
    raw_posts = _require(data, "posteriors", where)
    if not isinstance(raw_posts, list) or not raw_posts:
        raise FormatError(
            "%s: field 'posteriors' must be a non-empty list" % where
        )
    items = []
    for i, entry in enumerate(raw_posts):
        at = "%s:posteriors[%d]" % (where, i)
        if not isinstance(entry, dict):
            raise FormatError("%s: expected an object" % at)
        weight = parse_number(
            _require(entry, "weight", at), mode, at + ".weight"
        )
        belief = _parse_dist(
            _require(entry, "belief", at), states, mode, at + ".belief"
        )
        items.append((weight, belief))
    try:
        posteriors = WeightedPosteriors(tuple(items))
        obs = Observation(prior, posteriors)
    except StructuralError as err:
        raise FormatError("%s: %s" % (where, err)) from None
    return obs, mode


def observation_to_dict(obs: Observation, mode: str) -> dict:
    return {
        "mode": mode,
        "states": list(obs.space),
        "prior": {
            s: format_number(w)
            for s, w in zip(obs.prior.space, obs.prior.weights)
        },
        "posteriors": [
            {
                "weight": format_number(w),
                "belief": {
                    s: format_number(b[s]) for s in obs.space
                },
            }
            for w, b in obs.posteriors.items
        ],
    }


def save_observation(obs: Observation, path, mode: str = "rational") -> None:
    with open(path, "w") as fh:
        json.dump(observation_to_dict(obs, mode), fh, indent=2)
        fh.write("\n")


def model_to_dict(model: Model, mode: str) -> dict:
    signal_of = {}
    for label, cell in model.signal_partition.items():
        for w in cell:
            signal_of[w] = label
    omega_index = {w: i for i, w in enumerate(model.omega)}
    return {
        "mode": mode,
        "states": list(model.states),
        "omega": [
            {
                "label": w,
                "s": model.projection[w],
                "signal": signal_of[w],
            }
            for w in model.omega
        ],
        "mu0": {w: format_number(model.mu0[w]) for w in model.omega},
        "pObj": {w: format_number(model.pObj[w]) for w in model.omega},
        "lambda": (
            None
            if model.lambda_mix is None
            else {
                lab: format_number(w)
                for lab, w in zip(
                    model.lambda_mix.space, model.lambda_mix.weights
                )
            }
        ),
        "partition": {
            label: [omega_index[w] for w in cell]
            for label, cell in model.signal_partition.items()
        },
    }


def save_model(model: Model, path, mode: str = "rational") -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model, mode), fh, indent=2)
        fh.write("\n")


def load_model(path) -> Tuple[Model, str]:
    """Read a model file; returns (model, mode)."""
    data = _load_json(path)
    where = str(path)
    mode = _parse_mode(data, where)
    states = _parse_states(data, where)
    raw_omega = _require(data, "omega", where)
    if not isinstance(raw_omega, list) or not raw_omega:
        raise FormatError("%s: field 'omega' must be a non-empty list" % where)
    omega = []
    projection = {}
    partition: dict = {}
    for i, entry in enumerate(raw_omega):
        at = "%s:omega[%d]" % (where, i)
        if not isinstance(entry, dict):
            raise FormatError("%s: expected an object" % at)
        label, s, signal = (
            _require(entry, key, at) for key in ("label", "s", "signal")
        )
        for key, value in (("label", label), ("s", s), ("signal", signal)):
            if not isinstance(value, str) or not value:
                raise FormatError(
                    "%s: field %r must be a non-empty string" % (at, key)
                )
        if s not in states:
            raise FormatError(
                "%s: state %r is not in 'states'" % (at, s)
            )
        omega.append(label)
        projection[label] = s
        partition.setdefault(signal, []).append(label)
    if len(set(omega)) != len(omega):
        raise FormatError("%s: omega labels must be distinct" % where)

    if "partition" in data:
        declared = data["partition"]
        if not isinstance(declared, dict):
            raise FormatError("%s: field 'partition' must be an object" % where)
        index = {w: i for i, w in enumerate(omega)}
        rebuilt = {
            label: [index[w] for w in cell]
            for label, cell in partition.items()
        }
        if declared != rebuilt:
            raise FormatError(
                "%s: field 'partition' disagrees with the omega entries'"
                " signal labels" % where
            )

    def dist_over_omega(key: str) -> Dist:
        raw = _require(data, key, where)
        if not isinstance(raw, dict):
            raise FormatError(
                "%s:%s: expected an object mapping omega labels to numbers"
                % (where, key)
            )
        extra = set(raw) - set(omega)
        if extra:
            raise FormatError(
                "%s:%s: unknown omega labels %s"
                % (where, key, ", ".join(sorted(extra)))
            )
        weights = {
            w: parse_number(v, mode, "%s:%s.%s" % (where, key, w))
            for w, v in raw.items()
        }
        zero = Fraction(0) if mode == "rational" else 0.0
        try:
            return Dist(
                tuple(omega), tuple(weights.get(w, zero) for w in omega)
            )
        except StructuralError as err:
            raise FormatError("%s:%s: %s" % (where, key, err)) from None

    mu0 = dist_over_omega("mu0")
    p_obj = dist_over_omega("pObj")

    lambda_mix = None
    raw_lambda = data.get("lambda")
    if raw_lambda is not None:
        if not isinstance(raw_lambda, dict):
            raise FormatError(
                "%s: field 'lambda' must be an object or null" % where
            )
        try:
            lambda_mix = Dist(
                tuple(raw_lambda),
                tuple(
                    parse_number(v, mode, "%s:lambda.%s" % (where, k))
                    for k, v in raw_lambda.items()
                ),
            )
        except StructuralError as err:
            raise FormatError("%s:lambda: %s" % (where, err)) from None

    try:
        model = Model(
            states=states,
            omega=tuple(omega),
            projection=projection,
            signal_partition={
                label: tuple(cell) for label, cell in partition.items()
            },
            mu0=mu0,
            pObj=p_obj,
            lambda_mix=lambda_mix,
        )
    except StructuralError as err:
        raise FormatError("%s: %s" % (where, err)) from None
    return model, mode
